"""Shared test oracles: finite differences and naively-looped attention.

Everything here is deliberately independent of the package's vectorized
implementations — plain loops and explicit formulas only.
"""

import math

import numpy as np


def central_diff(loss_fn, param, h=1e-5):
    """Central finite-difference gradient of loss_fn() wrt an ndarray, in place."""
    g = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + h
        fp = loss_fn()
        param[idx] = orig - h
        fm = loss_fn()
        param[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(got, want, floor=1e-8):
    """Largest elementwise relative error where the reference is above floor."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    mask = np.abs(want) > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(got[mask] - want[mask]) / np.abs(want[mask])))


def rope_rotate_naive(mat, positions, base=10000.0):
    """Pairwise rotations written as explicit 2x2 products."""
    mat = np.asarray(mat, dtype=np.float64)
    out = mat.copy()
    d = mat.shape[1]
    for t in range(mat.shape[0]):
        for i in range(d // 2):
            theta = base ** (-2.0 * i / d)
            ang = positions[t] * theta
            c, s = math.cos(ang), math.sin(ang)
            x0, x1 = mat[t, 2 * i], mat[t, 2 * i + 1]
            out[t, 2 * i] = x0 * c - x1 * s
            out[t, 2 * i + 1] = x0 * s + x1 * c
    return out


def naive_masked_attention(x, wq, wk, wv, wo, heads, visible, use_rope=True, base=10000.0):
    """Reference attention with explicit per-query loops.

    ``visible`` is an (L, L) boolean matrix; each query row must see at
    least one key. Heads are contiguous column slices scaled by the head
    width, matching the package's stated layout but computed independently.
    """
    x = np.asarray(x, dtype=np.float64)
    length = x.shape[0]
    dm = wq.shape[1]
    q = x @ wq
    k = x @ wk
    v = x @ wv
    if use_rope:
        positions = np.arange(length, dtype=np.float64)
        q = rope_rotate_naive(q, positions, base)
        k = rope_rotate_naive(k, positions, base)
    dh = dm // heads
    merged = np.zeros((length, dm))
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        for t in range(length):
            keys = np.flatnonzero(visible[t])
            logits = np.array([q[t, lo:hi] @ k[j, lo:hi] for j in keys]) / math.sqrt(dh)
            logits -= logits.max()
            w = np.exp(logits)
            w /= w.sum()
            merged[t, lo:hi] = sum(wj * v[j, lo:hi] for wj, j in zip(w, keys))
    return merged @ wo


def naive_retrieval(q, k, v, block_size, chunk_size, top_k, d_model, landmark=None):
    """Each chunk's retrieved block indices (ascending), by explicit loops.

    A block's summary is the mean over its query rows (or the one
    ``landmark`` query) of softmax(q . k / sqrt(d_model)) over the block's
    keys applied to its values. A chunk ranks its strictly-past blocks by
    (sum of its query rows) . summary, the order the relevancy softmax
    keeps, and takes the ``top_k`` best, ties to the earlier block.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    n = k.shape[0]
    blocks = [(lo, min(lo + block_size, n)) for lo in range(0, n, block_size)]
    summaries = []
    for lo, hi in blocks:
        queries = [q[t] for t in range(lo, hi)] if landmark is None else [np.asarray(landmark, dtype=np.float64)]
        total = np.zeros(v.shape[1])
        for qt in queries:
            logits = np.array([qt @ k[u] for u in range(lo, hi)]) / math.sqrt(d_model)
            w = np.exp(logits - logits.max())
            w /= w.sum()
            for i, u in enumerate(range(lo, hi)):
                total += w[i] * v[u]
        summaries.append(total / len(queries))
    selected = []
    for start in range(0, n, chunk_size):
        q_sum = np.zeros(q.shape[1])
        for t in range(start, min(start + chunk_size, n)):
            q_sum += q[t]
        past = [j for j, (_, stop) in enumerate(blocks) if stop <= start]
        ranked = sorted(past, key=lambda j: (-(q_sum @ summaries[j]), j))
        selected.append(sorted(ranked[:top_k]))
    return selected


def linear_recurrence_naive(u, a, b, h0=None):
    """h_t = a * h_{t-1} + b * u_t from h0 (or 0), one float64 step per row."""
    u = np.asarray(u, dtype=np.float64)
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    h = np.zeros(u.shape[1]) if h0 is None else np.asarray(h0, dtype=np.float64).copy()
    out = np.empty_like(u)
    for t in range(u.shape[0]):
        h = a * h + b * u[t]
        out[t] = h
    return out
