"""Correctness checks. Each takes the program's output and a float64
reference (or the property the method must have) and returns a list of
failure messages; an empty list passes.
"""

from __future__ import annotations

import numpy as np

from . import reference

# float32 program against float64 reference, relative to the output's scale
OUTPUT_TOL = 1e-5
# reference scores closer than this to the k-th best are near-ties: either pick is right
SCORE_TIE_TOL = 1e-4
# reference logits closer than this to the best are near-ties for greedy decoding
LOGIT_TIE_TOL = 1e-4

NEEDLE = "The special magic value for {key} is {value}. "


def output_failures(got, want, label, tol=OUTPUT_TOL):
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: output shape {got.shape} != reference {want.shape}"]
    err = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
    return [f"{label}: output differs from the float64 reference by {err:.2e} (tol {tol:.0e})"] if err > tol else []


def selection_failures(trace, q, k, v, cfg, d_model, label):
    """Retrieval of one SE-Attn forward against summaries and relevancy recomputed in float64.

    ``q, k, v`` are the layer's projected (and rotated) inputs in float64.
    """
    n, s = trace.seq_len, cfg.memory_block_size
    out = []
    if trace.chunk_size not in cfg.chunk_sizes:
        out.append(f"{label}: chunk size {trace.chunk_size} not in {cfg.chunk_sizes}")
    blocks = [(j, min(j + s, n)) for j in range(0, n, s)]
    if [tuple(r) for r in trace.block_ranges] != blocks:
        return out + [f"{label}: memory blocks do not tile the sequence in steps of {s}"]
    chunks = [(c.start, c.stop) for c in trace.chunks]
    if chunks != [(i, min(i + trace.chunk_size, n)) for i in range(0, n, trace.chunk_size)]:
        return out + [f"{label}: chunks do not tile the sequence in steps of {trace.chunk_size}"]
    summaries = reference.block_summaries(q, k, v, s, d_model)
    ends = np.asarray([stop for _, stop in blocks])
    for c in trace.chunks:
        where = f"{label} chunk {c.index} at {c.start}"
        selected = list(c.selected)
        retrievable = ends <= c.start
        late = [j for j in selected if ends[j] > c.start]
        if late:
            out.append(f"{where}: retrieved blocks {late} end after the chunk starts")
            continue
        want_count = min(cfg.top_k, int(retrievable.sum()))
        if len(set(selected)) != len(selected) or len(selected) != want_count:
            out.append(f"{where}: retrieved {selected}, expected {want_count} distinct blocks")
            continue
        if want_count == 0:
            continue
        scores = reference.relevancy(q[c.start : c.stop], summaries, retrievable, d_model)
        past = np.flatnonzero(retrievable)
        best = past[np.lexsort((past, -scores[past]))][:want_count]
        kth = scores[best[-1]]
        wrong = set(selected) ^ {int(j) for j in best}
        if any(abs(scores[j] - kth) > SCORE_TIE_TOL * max(kth, 1e-12) for j in wrong):
            out.append(f"{where}: selected {sorted(selected)}, float64 top-{want_count} is {sorted(best.tolist())}")
    return out


def loss_failures(losses):
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 2:
        return [f"only {losses.size} training losses; at least two are needed to see learning"]
    if not np.isfinite(losses).all():
        return ["a training loss is not finite"]
    quarter = max(1, losses.size // 4)
    first, last = losses[:quarter].mean(), losses[-quarter:].mean()
    return [] if last < first else [f"loss did not fall: first-quarter mean {first:.5f}, last-quarter mean {last:.5f}"]


def weight_failures(before, after, trainable):
    """Frozen weights bitwise unchanged; every trained weight changed."""
    out = []
    for name, old in before.items():
        same = np.array_equal(old, after[name])
        if name in trainable and same:
            out.append(f"trained weight {name} never changed")
        elif name not in trainable and not same:
            out.append(f"frozen weight {name} changed")
    return out


def prompt_failures(text, answers, meta, length, label):
    """The prompt has exactly ``length`` tokens and holds its answer at the recorded needle position."""
    out = []
    n_tokens = len(text.encode("utf-8"))
    if n_tokens != length:
        out.append(f"{label}: {n_tokens} tokens, expected {length}")
    key = meta["queried"][0]
    needle = NEEDLE.format(key=key, value=answers[0])
    pos = meta["needle_positions"][0]
    if text[pos : pos + len(needle)] != needle:
        out.append(f"{label}: no needle for {key!r} with answer {answers[0]!r} at position {pos}")
    return out


def emitted_failures(ref_logits, prompt_len, emitted, budget, stop_id, label):
    """Each emitted token is the argmax of the reference logits at its position (near-ties excused)."""
    out = []
    if not emitted:
        return [f"{label}: nothing emitted"]
    if stop_id in emitted[:-1]:
        out.append(f"{label}: decoding went on after the stop token")
    if emitted[-1] != stop_id and len(emitted) != budget:
        out.append(f"{label}: {len(emitted)} tokens emitted without a stop token, budget {budget}")
    for j, token in enumerate(emitted):
        row = ref_logits[prompt_len - 1 + j]
        if row[token] < row.max() - LOGIT_TIE_TOL:
            out.append(f"{label}: token {j} is {token}, float64 argmax is {int(np.argmax(row))}")
    return out
