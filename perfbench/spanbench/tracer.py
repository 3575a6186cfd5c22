"""Spans and counters recorded around the package's public functions.

``Tracer.install`` wraps functions and methods of the spanattn modules from
outside: every module attribute bound to a wrapped function is replaced, so
calls made inside the package (``train_step`` calling ``model_forward``)
are traced too. A span is ``[name, start, end, parent]``; a layer's self time
is its span minus the spans of its children. Spans stay in memory until
``write`` at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = defaultdict(float)
        self.measure_from = 0
        self.active = True
        self.sequences = ()  # (query position, needle value start, stop) per sequence of the current op
        self.seq_index = -1

    # recording ---------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key, value=1):
        self.counters[key] += value

    def begin_measure(self):
        """Spans and counters from here on make up the per-operation figures."""
        self.measure_from = len(self.spans)
        self.counters.clear()

    def set_sequences(self, needles):
        self.sequences = tuple(needles)
        self.seq_index = -1

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # installation ------------------------------------------------------

    def install(self):
        import importlib

        modules = [importlib.import_module(f"spanattn.{m}") for m in _MODULES]
        for module_name, attr, span_name, before, after in _TARGETS:
            owner = importlib.import_module(f"spanattn.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(span_name, original, before, after))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, original, before, after)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

    # aggregation -------------------------------------------------------

    def times(self):
        """(self seconds by name, inclusive seconds by name, inclusive SE chunk-attention seconds)."""
        spans = self.spans[self.measure_from :]
        base = self.measure_from
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= base:
                child[parent - base] += end - start
        own, total = defaultdict(float), defaultdict(float)
        chunk_attn = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            if name == "attention.mha" and parent >= base and self.spans[parent][0] == "se_attn.forward":
                chunk_attn += end - start
        return own, total, chunk_attn

    def setup_seconds(self, name):
        """Inclusive seconds of the named spans recorded before measuring began."""
        return sum(end - start for n, start, end, _ in self.spans[: self.measure_from] if n == name)

    def write(self, path):
        """One JSON line per span: name, start and end in microseconds, parent index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent]) + "\n")


# hooks: counts made where the work happens, outside the timed span -----------


def _on_forward(tracer, args):
    tracer.seq_index += 1
    tracer.count("forwards")


def _on_mha(tracer, args, result):
    q, k, _, bias, p = args
    computed = p.head_count * q.shape[0] * k.shape[0]
    tracer.count("mha_calls")
    tracer.count("scores_computed", computed)
    if bias is not None:
        bias = np.asarray(bias)
        tracer.count("bias_bytes", bias.size * bias.itemsize)
        tracer.count("scores_masked", p.head_count * int(np.isneginf(bias).sum()))


def _on_se_forward(tracer, args, result):
    x, p, cfg = args[:3]
    _, trace = result
    n, d, s, m = x.shape[0], p.d_model, cfg.memory_block_size, trace.chunk_size
    tracer.count("mac_summaries", d * n * s)
    tracer.count("mac_relevancy", d * n * n / s)
    tracer.count("mac_chunk_attn", d * n * m)
    tracer.count("chunks", len(trace.chunks))
    needle = tracer.sequences[tracer.seq_index] if 0 <= tracer.seq_index < len(tracer.sequences) else None
    for c in trace.chunks:
        tracer.count("blocks_retrieved", len(c.selected))
        for j in c.selected:
            tracer.count("retrieval_distance_sum", c.start - trace.block_ranges[j][0])
        if needle is None or c.stop <= needle[0]:
            continue
        # the needle's blocks: those holding a token of the answer value, and strictly past this chunk
        reachable = {
            j for j in range(needle[1] // s, (needle[2] - 1) // s + 1) if trace.block_ranges[j][1] <= c.start
        }
        if reachable:
            tracer.count("needle_chunks")
            tracer.count("needle_hits", bool(reachable & set(c.selected)))


def _on_backward(tracer, args):
    loss = args[0]
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.count("graph_nodes", len(seen))


_MODULES = ("tensor", "ops", "attention", "se_attn", "model", "adaptation", "evalgen")

# (module, function or Class.method, span name, before hook, after hook)
_TARGETS = (
    ("evalgen", "generate_task", "evalgen.generate", None, None),
    ("model", "model_forward", "model.forward", _on_forward, None),
    ("model", "SSMLayer.forward", "model.ssm", None, None),
    ("model", "AttentionLayer.forward", "model.attn", None, None),
    ("model", "AttentionLayer.effective_params", "adaptation.effective_params", None, None),
    ("model", "AdamW.step", "model.adamw", None, None),
    ("model", "load_checkpoint", "model.checkpoint_load", None, None),
    ("ops", "linear_recurrence", "ops.linear_recurrence", None, None),
    ("ops", "causal_conv1d", "ops.causal_conv1d", None, None),
    ("ops", "rms_norm", "ops.rms_norm", None, None),
    ("ops", "masked_softmax", "ops.masked_softmax", None, None),
    ("ops", "rope_embed", "ops.rope", None, None),
    ("ops", "cross_entropy_logits", "ops.cross_entropy", None, None),
    ("ops", "embedding_lookup", "ops.embedding", None, None),
    ("attention", "project_qkv", "attention.project_qkv", None, None),
    ("attention", "multi_head_attention", "attention.mha", None, _on_mha),
    ("se_attn", "se_attn_forward", "se_attn.forward", None, _on_se_forward),
    ("se_attn", "summarize_blocks", "se_attn.summaries", None, None),
    ("se_attn", "relevancy_scores", "se_attn.relevancy", None, None),
    ("se_attn", "select_top_k", "se_attn.top_k", None, None),
    ("tensor", "backward", "tensor.backward", _on_backward, None),
)
