"""Metric names, units and how the per-layer figures derive from a trace.

Per-layer figures are per measured operation (a train step, or a decoded
prompt) unless the name says otherwise. A figure whose layer does not run
on a workload reads 0, and so does a ratio whose base is 0 there.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("tokens_per_s", "tokens/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

OPS = ("linear_recurrence", "causal_conv1d", "rms_norm", "masked_softmax", "rope", "cross_entropy", "embedding")
ISOLATED_LAYERS = ("embedding", "ssm", "attn", "head_ce")

PER_LAYER = (
    ("trace.tokens_per_s", "tokens/s", "higher"),
    ("evalgen.generate_ms", "ms", "lower"),
    ("adaptation.effective_params_ms", "ms", "lower"),
    ("model.forward_ms", "ms", "lower"),
    ("model.ssm_ms", "ms", "lower"),
    ("model.attn_ms", "ms", "lower"),
    ("model.adamw_ms", "ms", "lower"),
    ("model.forwards_per_token", "count", "lower"),
    ("model.checkpoint_load_ms", "ms", "lower"),
    *((f"ops.{op}_ms", "ms", "lower") for op in OPS),
    ("attention.project_qkv_ms", "ms", "lower"),
    ("attention.mha_ms", "ms", "lower"),
    ("attention.mha_calls", "count", "lower"),
    ("attention.bias_mb", "MB", "lower"),
    ("attention.scores_masked_share", "ratio", "lower"),
    ("se_attn.forward_ms", "ms", "lower"),
    ("se_attn.summaries_ms", "ms", "lower"),
    ("se_attn.relevancy_ms", "ms", "lower"),
    ("se_attn.chunk_attn_ms", "ms", "lower"),
    ("se_attn.summaries_ns_per_mac", "ns/MAC", "lower"),
    ("se_attn.relevancy_ns_per_mac", "ns/MAC", "lower"),
    ("se_attn.chunk_attn_ns_per_mac", "ns/MAC", "lower"),
    ("se_attn.chunks", "count", "lower"),
    ("se_attn.blocks_retrieved", "count", "lower"),
    ("se_attn.needle_hit_rate", "ratio", "higher"),
    ("se_attn.retrieval_distance", "tokens", "higher"),
    ("tensor.backward_ms", "ms", "lower"),
    ("tensor.nodes_per_step", "count", "lower"),
    *((f"layer.{layer}.{phase}_ms", "ms", "lower") for layer in ISOLATED_LAYERS for phase in ("fwd", "bwd")),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, n_ops, emitted_tokens, isolated, traced_tokens_per_s):
    """Every PER_LAYER figure from a finished traced run.

    ``isolated`` maps ``layer.<block>.<phase>_ms`` names to milliseconds.
    """
    own, total, chunk_attn = tracer.times()
    c = tracer.counters

    def per_op_ms(seconds):
        return _ratio(seconds * 1e3, n_ops)

    relevancy = total["se_attn.relevancy"] + total["se_attn.top_k"]
    values = {
        "trace.tokens_per_s": traced_tokens_per_s,
        "evalgen.generate_ms": per_op_ms(own["evalgen.generate"]),
        "adaptation.effective_params_ms": per_op_ms(own["adaptation.effective_params"]),
        "model.forward_ms": per_op_ms(own["model.forward"]),
        "model.ssm_ms": per_op_ms(own["model.ssm"]),
        "model.attn_ms": per_op_ms(own["model.attn"]),
        "model.adamw_ms": per_op_ms(own["model.adamw"]),
        "model.forwards_per_token": _ratio(c["forwards"], emitted_tokens),
        "model.checkpoint_load_ms": tracer.setup_seconds("model.checkpoint_load") * 1e3,
        **{f"ops.{op}_ms": per_op_ms(own[f"ops.{op}"]) for op in OPS},
        "attention.project_qkv_ms": per_op_ms(own["attention.project_qkv"]),
        "attention.mha_ms": per_op_ms(own["attention.mha"]),
        "attention.mha_calls": _ratio(c["mha_calls"], n_ops),
        "attention.bias_mb": _ratio(c["bias_bytes"] / 1e6, n_ops),
        "attention.scores_masked_share": _ratio(c["scores_masked"], c["scores_computed"]),
        "se_attn.forward_ms": per_op_ms(own["se_attn.forward"]),
        "se_attn.summaries_ms": per_op_ms(total["se_attn.summaries"]),
        "se_attn.relevancy_ms": per_op_ms(relevancy),
        "se_attn.chunk_attn_ms": per_op_ms(chunk_attn),
        "se_attn.summaries_ns_per_mac": _ratio(total["se_attn.summaries"] * 1e9, c["mac_summaries"]),
        "se_attn.relevancy_ns_per_mac": _ratio(relevancy * 1e9, c["mac_relevancy"]),
        "se_attn.chunk_attn_ns_per_mac": _ratio(chunk_attn * 1e9, c["mac_chunk_attn"]),
        "se_attn.chunks": _ratio(c["chunks"], n_ops),
        "se_attn.blocks_retrieved": _ratio(c["blocks_retrieved"], n_ops),
        "se_attn.needle_hit_rate": _ratio(c["needle_hits"], c["needle_chunks"]),
        "se_attn.retrieval_distance": _ratio(c["retrieval_distance_sum"], c["blocks_retrieved"]),
        "tensor.backward_ms": per_op_ms(own["tensor.backward"]),
        "tensor.nodes_per_step": _ratio(c["graph_nodes"], n_ops),
        **isolated,
    }
    return {name: values[name] for name, _, _ in PER_LAYER}
