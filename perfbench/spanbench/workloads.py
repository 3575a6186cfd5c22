"""The workloads: set-up, the measured loop, and the correctness checks.

All use the config-default model (4 layers, d = d_model = 64, 4 heads, one
SSM block per attention block, byte vocabulary). The workload seed builds
the model, the adapters and every input, and seeds the per-(layer, step)
chunk-size draw of SE-Attn. The package is driven through its public
functions; ``evalgen`` and ``model`` functions are looked up on their
modules at call time so that a traced run sees the calls.
"""

from __future__ import annotations

import os
import resource
import sys
import time
import zlib
from dataclasses import dataclass

import numpy as np

from spanattn import attention, evalgen
from spanattn import model as sa_model
from spanattn import se_attn
from spanattn.adaptation import AdapterPolicy, apply_policy
from spanattn.attention import AttentionParams
from spanattn.errors import SpanAttnError
from spanattn.ops import cross_entropy_logits, embedding_lookup, rms_norm
from spanattn.tensor import Tensor, backward, matmul, mul, sum_all
from spanattn.vocab import EOS_ID, PAD_ID, VOCAB_SIZE, encode

from . import checks, hostspeed, reference
from .tracer import OP_SPAN

BATCH = 4
RANK, ALPHA, LR = 32, 64.0, 2e-4
WINDOW = 64
TRAIN_TASK, DECODE_TASK = "niah_single_2", "niah_single_1"
TRAIN_CONTEXT_RESERVE = 64  # room for the answer inside seq_len, as `spanattn train` leaves it
N_PROMPTS = 16
CHECKED_SEQUENCES = 2
ISOLATION_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # adapt | decode
    attention: str  # se | sw | full
    seq_len: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("adapt-se-2k", "adapt", "se", 2048),
        Workload("adapt-sw-1k", "adapt", "sw", 1024),
        Workload("decode-full-1k", "decode", "full", 1024),
    )
}


@dataclass
class Outcome:
    setup_s: float
    op_seconds: list
    op_tokens: list
    probe_seconds: list
    attempted: int
    failed: int
    peak_rss_mb: float
    failures: list
    detail: dict


def model_config(seed):
    return sa_model.ModelConfig(layers=4, d=64, d_model=64, heads=4, blend_ratio=1, vocab=VOCAB_SIZE, seed=seed)


def attention_setting(workload, seed):
    if workload.attention == "se":
        return sa_model.AttentionSetting(kind="se", se_cfg=se_attn.SEAttnConfig(chunk_sizes=(16, 32), seed=seed))
    if workload.attention == "sw":
        return sa_model.AttentionSetting(kind="sw", window=WINDOW)
    return sa_model.AttentionSetting(kind="full")


def instance_seed(*parts):
    """The CLI's instance seeding: strings by CRC32, then one SeedSequence word."""
    stable = [zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in parts]
    return int(np.random.SeedSequence(stable).generate_state(1)[0])


def needle_span(inst):
    """(query position, answer value start, answer value stop) of a single-needle instance."""
    key, value = inst.meta["queried"][0], inst.answers[0]
    start = inst.meta["needle_positions"][0] + len(checks.NEEDLE.split("{value}")[0].format(key=key))
    return inst.query_position, start, start + len(value)


def supervised_batch(seed, step, seq_len):
    """One training batch built the way `spanattn train` builds task batches."""
    seqs, needles = [], []
    for i in range(BATCH):
        inst = evalgen.generate_task(TRAIN_TASK, seq_len - TRAIN_CONTEXT_RESERVE, seed=instance_seed(seed, 7, step, i))
        tokens = encode(inst.supervised_text()) + [EOS_ID]
        seqs.append(np.asarray(tokens + [PAD_ID] * (seq_len - len(tokens))))
        needles.append(needle_span(inst))
    return seqs, needles


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(op, seconds, tracer=None):
    """Run ``op(i)`` for i = 0, 1, ... until ``seconds`` have passed; op returns its token count.

    The host-speed probe runs ``hostspeed.SETUP_PROBES`` times before the
    first operation and then between operations, for about
    ``hostspeed.PROBE_SHARE`` of their time.
    """
    times, tokens, failed, i = [], [], 0, 0
    probes = [hostspeed.probe() for _ in range(hostspeed.SETUP_PROBES)]
    owed = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        span = tracer.open(OP_SPAN) if tracer else None
        t0 = time.perf_counter()
        try:
            n = op(i)
        except SpanAttnError as exc:
            print(f"operation {i} failed: {exc!r}", file=sys.stderr)
            failed, n = failed + 1, None
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        if n is not None:
            times.append(dt)
            tokens.append(n)
        i += 1
        owed += hostspeed.PROBE_SHARE * dt
        while owed > 0:
            probes.append(hostspeed.probe())
            owed -= probes[-1]
    return times, tokens, probes, failed, i


def run(workload, seed, seconds, started, out_dir, tracer=None):
    """Set up, warm up with one untimed operation, measure, check.

    ``started`` is the perf_counter reading at which the process started.
    """
    runner = _run_adapt if workload.kind == "adapt" else _run_decode
    return runner(workload, seed, seconds, started, out_dir, tracer)


def _run_adapt(w, seed, seconds, started, out_dir, tracer):
    model = sa_model.HybridModel(model_config(seed))
    split = apply_policy(model, AdapterPolicy("hylora", rank=RANK, alpha=ALPHA), seed=seed)
    before = {name: t.data.copy() for name, t in model.named_parameters().items()}
    optimizer = sa_model.AdamW(model.trainable_parameters(), lr=LR)
    setting = attention_setting(w, seed)
    losses, last = [], {}

    def step(i):
        batch, needles = supervised_batch(seed, i, w.seq_len)
        if tracer:
            tracer.set_sequences(needles)
        losses.append(sa_model.train_step(model, batch, optimizer, setting, step=i))
        last["batch"] = batch
        return BATCH * w.seq_len

    step(0)
    setup_s = time.perf_counter() - started
    if tracer:
        tracer.begin_measure()
    times, tokens, probes, failed, attempted = measure(lambda i: step(i + 1), seconds, tracer)
    peak = peak_rss_mb()
    if tracer:
        tracer.active = False

    after = {name: t.data for name, t in model.named_parameters().items()}
    failures = checks.loss_failures(losses) + checks.weight_failures(before, after, set(split["trainable"]))
    picks = np.random.default_rng([seed, 5]).choice(BATCH, size=CHECKED_SEQUENCES, replace=False)
    for b in picks:
        failures += attention_layer_failures(model, last["batch"][b][:-1], setting, seed, f"sequence {b}")
    detail = {"losses": losses}
    if tracer:
        detail["isolated"] = isolated_layer_ms(model, setting, last["batch"][0], seed)
    return Outcome(setup_s, times, tokens, probes, attempted, failed, peak, failures, detail)


def attention_layer_failures(model, tokens, setting, seed, label):
    """Run each attention layer of the program on its float64-reference input and compare.

    The input of every attention layer is built by the reference from the
    model's weights; the program's layer output and (for SE-Attn) its
    retrieval are then checked against float64 recomputations.
    """
    cfg = model.config
    w = reference.weights64(model, ALPHA / RANK)
    x = w["embedding"][np.asarray(tokens)]
    failures = []
    for i, kind in enumerate(cfg.layer_kinds()):
        prefix = f"blocks.{i}"
        if kind == "ssm":
            x = reference.ssm_block(x, w, prefix)
            continue
        xn32 = reference.rms_norm(x, w[f"{prefix}.norm"]).astype(np.float32)
        w32 = {m: w[f"{prefix}.{m}"].astype(np.float32) for m in ("w_q", "w_k", "w_v", "w_o")}
        p = AttentionParams(
            **{m: Tensor(a) for m, a in w32.items()},
            head_count=cfg.heads, d_model=cfg.d_model, d=cfg.d,
            rope_base=cfg.rope_base, rope_pos_scale=cfg.rope_pos_scale,
        )
        xn = xn32.astype(np.float64)
        lw = {f"{prefix}.{m}": a.astype(np.float64) for m, a in w32.items()}
        where = f"{label} layer {i}"
        if setting.kind == "se":
            out, trace = se_attn.se_attn_forward(Tensor(xn32), p, setting.se_cfg, rng=np.random.default_rng([seed, i]))
            q, k, v = reference.project(xn, lw, prefix, cfg.rope_base, cfg.rope_pos_scale)
            failures += checks.selection_failures(trace, q, k, v, setting.se_cfg, cfg.d_model, where)
            visible = reference.trace_mask(trace)
        else:
            out = attention.sliding_window_attention(Tensor(xn32), p, window=setting.window)
            visible = reference.banded_mask(xn.shape[0], setting.window)
        want = reference.attention(xn, lw, prefix, cfg.heads, visible, cfg.rope_base, cfg.rope_pos_scale)
        failures += checks.output_failures(out.data, want, where)
        x = x + want
    return failures


def _run_decode(w, seed, seconds, started, out_dir, tracer):
    path = out_dir / f"decode-{seed}-{os.getpid()}.ckpt"
    try:
        sa_model.save_checkpoint(path, sa_model.HybridModel(model_config(seed)))
        model, _ = sa_model.load_checkpoint(path)
    finally:
        path.unlink(missing_ok=True)
    for p in model.named_parameters().values():
        p.requires_grad = False  # evaluation never differentiates
    prompts = [
        evalgen.generate_task(DECODE_TASK, w.seq_len, seed=instance_seed(seed, 11, DECODE_TASK, w.seq_len, i))
        for i in range(N_PROMPTS)
    ]
    setting = attention_setting(w, seed)
    emitted = {}

    def decode(i):
        j = i % N_PROMPTS
        inst = prompts[j]
        out = sa_model.greedy_generate(
            model, np.asarray(inst.tokens()), setting, max_new_tokens=inst.answer_budget(), stop_id=EOS_ID, step=j
        )
        emitted[j] = out
        if tracer:
            tracer.count("emitted_tokens", len(out))
        return len(out)

    decode(0)
    setup_s = time.perf_counter() - started
    if tracer:
        tracer.begin_measure()
    times, tokens, probes, failed, attempted = measure(lambda i: decode(i + 1), seconds, tracer)
    peak = peak_rss_mb()
    if tracer:
        tracer.active = False

    failures = []
    for j, inst in enumerate(prompts):
        failures += checks.prompt_failures(inst.text, inst.answers, inst.meta, w.seq_len, f"prompt {j}")
    weights = reference.weights64(model)
    kinds = model.config.layer_kinds()
    for j, out in sorted(emitted.items()):
        prompt = prompts[j].tokens()
        logits = reference.model_logits(
            weights, kinds, prompt + out[:-1], model.config.heads, lambda _, n: reference.causal_mask(n)
        )
        failures += checks.emitted_failures(logits, len(prompt), out, prompts[j].answer_budget(), EOS_ID, f"prompt {j}")
    detail = {"emitted": {str(j): out for j, out in sorted(emitted.items())}}
    if tracer:
        detail["isolated"] = isolated_layer_ms(model, setting, prompts[0].tokens(), seed)
    return Outcome(setup_s, times, tokens, probes, attempted, failed, peak, failures, detail)


def isolated_layer_ms(model, setting, tokens, seed):
    """Median forward and backward milliseconds of one block of each kind at the workload's length.

    Backward is ``backward`` of a scalar built from the block's output; a
    block with nothing to differentiate (a frozen embedding) reads 0.
    """
    tokens = np.asarray(tokens)
    inputs, targets = tokens[:-1], tokens[1:]
    hidden = embedding_lookup(model.embedding, inputs).data
    ssm = next(b for b in model.blocks if isinstance(b, sa_model.SSMLayer))
    li, attn = model.attention_layers()[0]
    head = model.head

    def grad_input():
        return Tensor(hidden, requires_grad=True)

    blocks = {
        "embedding": lambda: embedding_lookup(model.embedding, inputs),
        "ssm": lambda: ssm.forward(grad_input()),
        "attn": lambda: attn.forward(grad_input(), setting, rng=np.random.default_rng([seed, li, 0]))[0],
        "head_ce": lambda: cross_entropy_logits(
            matmul(rms_norm(grad_input(), model.final_norm), head), targets, ignore_index=PAD_ID
        ),
    }
    out = {}
    for name, forward in blocks.items():
        fwd, bwd = [], []
        for _ in range(ISOLATION_REPS):
            t0 = time.perf_counter()
            y = forward()
            fwd.append(time.perf_counter() - t0)
            if not y.requires_grad:
                bwd.append(0.0)
                continue
            scalar = y if y.size == 1 else sum_all(mul(y, y))
            t0 = time.perf_counter()
            backward(scalar)
            bwd.append(time.perf_counter() - t0)
        out[f"layer.{name}.fwd_ms"] = float(np.median(fwd)) * 1e3
        out[f"layer.{name}.bwd_ms"] = float(np.median(bwd)) * 1e3
    for p in model.named_parameters().values():
        p.grad = None
    return out
