"""The chunked attention core, the full and sliding-window variants built on
it, and the dense masked oracle.

The oracle computes attention under an arbitrary {0, -inf} additive mask by
materializing the full L x L score matrix. It is O(L^2) on purpose: every
production variant in this package is checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, UsageError
from .ops import masked_softmax, rope_embed, softmax_rows_inplace
from .tensor import Tensor, _accum, _node, concat, matmul, narrow, scale, transpose

NEG_INF = float("-inf")
FULL_TILE = 64  # query rows per tile of full attention


@dataclass
class AttentionParams:
    """Projection matrices and layout for one attention layer.

    Shapes follow the right-multiplication convention: ``q = x @ w_q`` with
    ``x`` of shape (L, d) and ``w_q`` of shape (d, d_model).
    """

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    head_count: int
    d_model: int
    d: int
    rope_base: float = 10000.0
    rope_pos_scale: float = 1.0

    def __post_init__(self):
        if self.d_model % self.head_count != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by head count {self.head_count}")
        for name in ("w_q", "w_k", "w_v"):
            w = getattr(self, name)
            if w.shape != (self.d, self.d_model):
                raise ShapeError(f"{name} must be ({self.d}, {self.d_model}), got {w.shape}")
        if self.w_o.shape != (self.d_model, self.d):
            raise ShapeError(f"w_o must be ({self.d_model}, {self.d}), got {self.w_o.shape}")

    @property
    def head_dim(self):
        return self.d_model // self.head_count

    def matrices(self):
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v, "w_o": self.w_o}

    @classmethod
    def random(cls, d, d_model, head_count=1, seed=0, dtype=np.float32, requires_grad=False, **kw):
        rng = np.random.default_rng(seed)

        def init(rows, cols):
            data = rng.standard_normal((rows, cols)) / math.sqrt(rows)
            return Tensor(data.astype(dtype), requires_grad=requires_grad)

        return cls(
            w_q=init(d, d_model),
            w_k=init(d, d_model),
            w_v=init(d, d_model),
            w_o=init(d_model, d),
            head_count=head_count,
            d_model=d_model,
            d=d,
            **kw,
        )


class AdditiveMask:
    """Per-(query, key) additive bias with entries restricted to {0, -inf}."""

    def __init__(self, bias):
        bias = np.asarray(bias)
        ok = (bias == 0.0) | np.isneginf(bias)
        if not ok.all():
            raise ConfigError("mask entries must be 0 or -inf")
        self.bias = bias

    @property
    def shape(self):
        return self.bias.shape

    def fully_masked_rows(self):
        return np.isneginf(self.bias).all(axis=-1)

    def visible(self):
        return self.bias == 0.0

    @classmethod
    def causal(cls, n, dtype=np.float32):
        bias = np.zeros((n, n), dtype=dtype)
        bias[np.triu_indices(n, 1)] = NEG_INF
        return cls(bias)

    @classmethod
    def sliding_window(cls, n, window, dtype=np.float32):
        if window < 1:
            raise ConfigError("window must be >= 1")
        idx = np.arange(n)
        visible = (idx[None, :] <= idx[:, None]) & (idx[None, :] > idx[:, None] - window)
        bias = np.where(visible, 0.0, NEG_INF).astype(dtype)
        return cls(bias)

    @classmethod
    def block_diagonal_causal(cls, n, chunk, dtype=np.float32):
        if chunk < 1:
            raise ConfigError("chunk size must be >= 1")
        idx = np.arange(n)
        same_chunk = idx[None, :] // chunk == idx[:, None] // chunk
        visible = same_chunk & (idx[None, :] <= idx[:, None])
        bias = np.where(visible, 0.0, NEG_INF).astype(dtype)
        return cls(bias)


def project_qkv(x, p, start=0):
    """Project the input and rotate queries/keys at their absolute positions,
    the first row sitting at position ``start``."""
    q = matmul(x, p.w_q)
    k = matmul(x, p.w_k)
    v = matmul(x, p.w_v)
    positions = range(start, start + x.shape[0])
    q = rope_embed(q, positions, base=p.rope_base, pos_scale=p.rope_pos_scale)
    k = rope_embed(k, positions, base=p.rope_base, pos_scale=p.rope_pos_scale)
    return q, k, v


def multi_head_attention(q, k, v, bias, p, *, rows, keys):
    """Softmax attention of gathered query rows over gathered key rows for
    every chunk, as one autodiff node.

    ``rows`` (C, Mq) and ``keys`` (C, K) are integer row indices: chunk c's
    query slots ``q[rows[c]]`` attend to its key slots ``k[keys[c]]`` and
    ``v[keys[c]]`` under ``bias`` (C, Mq, K), an additive {0, -inf} constant.
    A slot of -1 is padding, and padding is trailing: a chunk's valid slots
    come first. A query row sits in at most one chunk, a key row at most
    once per chunk. Consecutive chunks with the same numbers of valid query
    and key slots form a run, and each run is scored over exactly those
    slots (views of ``rows``, ``keys`` and ``bias``), so padding costs no
    work. The output has the rows of ``q``, zero where no slot names a row.
    Heads are column slices of width d_model/head_count.
    Scores are materialised one run and head at a time, and only their
    probabilities P are kept for backward, which walks the same runs. It
    uses dS = P * (dP - rowsum(dO * O)) (Dao et al. 2022, arXiv 2205.14135)
    and adds dK/dV chunk by chunk, since one key row may sit in many chunks.
    """
    rows, keys = np.asarray(rows), np.asarray(keys)
    if rows.ndim != 2 or keys.ndim != 2 or bias.shape != (*rows.shape, keys.shape[1]):
        raise ShapeError(f"bias must be (C, Mq, K) for rows {rows.shape} and keys {keys.shape}, got {bias.shape}")
    heads = p.head_count
    inv = 1.0 / math.sqrt(p.head_dim)
    keep = q.requires_grad or k.requires_grad or v.requires_grad
    out = np.zeros(q.shape, dtype=q.dtype)
    runs = []
    for first, stop, n_q, n_k in _runs(rows, keys):
        r, kk = rows[first:stop, :n_q], keys[first:stop, :n_k]
        qg, kg, vg = _split_heads(q.data[r], heads), _split_heads(k.data[kk], heads), _split_heads(v.data[kk], heads)
        og = np.empty_like(qg)
        probs = []
        for h in range(heads):
            s = np.matmul(qg[h], kg[h].transpose(0, 2, 1))
            s *= inv
            s += bias[first:stop, :n_q, :n_k]
            softmax_rows_inplace(s)
            np.matmul(s, vg[h], out=og[h])
            if keep:
                probs.append(s)
        out[r] = _merge_heads(og)
        if keep:
            runs.append((r, kk, qg, kg, vg, og, probs))

    def grad_fn(g):
        grads = [np.zeros_like(t.data) if t.requires_grad else None for t in (q, k, v)]
        gq, gk, gv = grads
        for r, kk, qg, kg, vg, og, probs in runs:
            go = _split_heads(g[r], heads)
            dq, dk, dv = np.empty_like(qg), np.empty_like(kg), np.empty_like(vg)
            for h, ph in enumerate(probs):
                np.matmul(ph.transpose(0, 2, 1), go[h], out=dv[h])
                ds = np.matmul(go[h], vg[h].transpose(0, 2, 1))
                ds -= (go[h] * og[h]).sum(axis=-1, keepdims=True)
                ds *= ph
                ds *= inv
                np.matmul(ds, kg[h], out=dq[h])
                np.matmul(ds.transpose(0, 2, 1), qg[h], out=dk[h])
            if gq is not None:
                gq[r] = _merge_heads(dq)
            for gt, d in ((gk, dk), (gv, dv)):
                if gt is not None:
                    for idx, dc in zip(kk, _merge_heads(d)):  # unique within a chunk, so += is exact
                        gt[idx] += dc
        for t, gt in zip((q, k, v), grads):
            if gt is not None:
                _accum(t, gt)

    return _node(out, (q, k, v), grad_fn, "multi_head_attention")


def _runs(rows, keys):
    """(first chunk, stop chunk, valid query slots, valid key slots) of each
    maximal run of consecutive chunks with the same slot counts, skipping
    runs with no query or no key."""
    counts = np.stack([(rows >= 0).sum(axis=1), (keys >= 0).sum(axis=1)], axis=1)
    cuts = [0, *(np.flatnonzero((counts[1:] != counts[:-1]).any(axis=1)) + 1).tolist(), len(counts)]
    return [(a, b, *counts[a].tolist()) for a, b in zip(cuts[:-1], cuts[1:]) if counts[a].all()]


def _split_heads(x, heads):
    """(C, M, d_model) -> contiguous (heads, C, M, d_model/heads)."""
    c, m, dm = x.shape
    return np.ascontiguousarray(x.reshape(c, m, heads, dm // heads).transpose(2, 0, 1, 3))


def _merge_heads(x):
    """Inverse of ``_split_heads``."""
    heads, c, m, dh = x.shape
    return x.transpose(1, 2, 0, 3).reshape(c, m, heads * dh)


def _per_head_attention(q, k, v, bias, p):
    """Softmax attention composed from tape primitives, one head at a time:
    the dense oracle's path, independent of ``multi_head_attention``."""
    dh = p.head_dim
    inv = 1.0 / math.sqrt(dh)
    outs = []
    for h in range(p.head_count):
        lo, hi = h * dh, (h + 1) * dh
        qh = narrow(q, 1, lo, hi)
        kh = narrow(k, 1, lo, hi)
        vh = narrow(v, 1, lo, hi)
        scores = scale(matmul(qh, transpose(kh)), inv)
        probs = masked_softmax(scores, bias)
        outs.append(matmul(probs, vh))
    return outs[0] if len(outs) == 1 else concat(outs, axis=1)


def chunked_attention(q, k, v, p, chunk, earlier=None, window=None):
    """Causal attention of projected Q/K/V in chunks of keys, all chunks in
    one ``multi_head_attention`` call.

    The queries are the last ``len(q)`` rows of the keys: query i sits at
    key position ``len(k) - len(q) + i``. Chunk i covers key positions
    [i*chunk, min((i+1)*chunk, len(k))); its queries attend to the key
    ranges ``earlier[i]`` (strictly before the chunk, ascending), then to
    the chunk's own keys. Key s is visible to query t iff s <= t and, given
    a window, t - s < window. Chunks without queries are skipped. Each chunk
    has min(chunk, len(q)) query slots and as many key slots as the widest
    chunk gathers; a chunk's valid slots come first, and the slots it leaves
    over are trailing -inf padding in the one (chunks, slots, keys) bias,
    built in the model dtype, which ``multi_head_attention`` never scores.
    Returns the output projection of the merged heads.
    """
    n = k.shape[0]
    offset = n - q.shape[0]
    starts = np.arange(offset // chunk * chunk, n, chunk)
    stops = np.minimum(starts + chunk, n)
    key_pos = [
        np.concatenate([np.arange(lo, hi) for lo, hi in [*(earlier[i] if earlier else ()), (start, stop)]])
        for i, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist()), offset // chunk)
    ]
    keys = np.full((len(key_pos), max(map(len, key_pos))), -1)
    for row, pos in zip(keys, key_pos):
        row[: len(pos)] = pos
    query_pos = np.maximum(starts, offset)[:, None] + np.arange(min(chunk, q.shape[0]))
    rows = np.where(query_pos < stops[:, None], query_pos - offset, -1)
    kp, qp = keys[:, None, :], query_pos[:, :, None]
    visible = (kp >= 0) & (kp <= qp) & (rows >= 0)[:, :, None]
    if window is not None:
        visible &= kp > qp - window
    bias = np.zeros(visible.shape, dtype=q.dtype)
    bias[~visible] = NEG_INF
    return matmul(multi_head_attention(q, k, v, bias, p, rows=rows, keys=keys), p.w_o)


def project_with_cache(x, p, cache, keep=None):
    """Q/K/V of ``x`` as the rows after those a decode ``cache`` has seen.

    ``cache`` is a dict, empty before the first call. It holds the absolute
    position of the next row and the rotated K/V rows kept so far
    (constants: no gradient flows into them), ``cache["k"]`` and
    ``cache["v"]``, views of preallocated buffers. The returned K/V are the
    kept rows followed by the new ones, written into those buffers and read
    as a view of them. The cache then keeps the last ``keep`` of them (all
    when None). When the new rows do not fit, the kept rows move to fresh
    buffers of twice the rows then needed, so a buffer row is written once
    and an earlier call's K/V never change. The first call returns the new
    rows themselves. With ``cache=None`` this is ``project_qkv(x, p)``.
    """
    if cache is None:
        return project_qkv(x, p)
    start = cache.get("position", 0)
    q, k, v = project_qkv(x, p, start)
    m = x.shape[0]
    lo, hi = cache.get("rows", (0, 0))
    if hi > lo:
        if hi + m > len(cache["k_buffer"]):  # the kept rows move to fresh buffers twice the size now needed
            for name in ("k_buffer", "v_buffer"):
                old = cache[name]
                cache[name] = np.empty((2 * (hi - lo + m), old.shape[1]), dtype=old.dtype)
                cache[name][: hi - lo] = old[lo:hi]
            lo, hi = 0, hi - lo
        k, v = (_append_rows(cache[name], lo, hi, t) for name, t in (("k_buffer", k), ("v_buffer", v)))
        hi += m
    else:  # nothing kept: attend over the new rows alone, then keep them in buffers twice their size
        lo, hi = 0, m if keep is None else min(keep, m)
        for name, t in (("k_buffer", k), ("v_buffer", v)):
            cache[name] = np.empty((2 * hi, t.shape[1]), dtype=t.dtype)
            cache[name][:hi] = t.data[m - hi :]
    if keep is not None:
        lo = max(lo, hi - keep)
    cache.update(rows=(lo, hi), k=cache["k_buffer"][lo:hi], v=cache["v_buffer"][lo:hi], position=start + m)
    return q, k, v


def _append_rows(buf, lo, hi, new):
    """Write ``new`` into a cache buffer after its rows [lo, hi) and return
    all of them as a view; the gradient flows into ``new`` only."""
    m = new.shape[0]
    buf[hi : hi + m] = new.data
    return _node(buf[lo : hi + m], (new,), lambda g: _accum(new, g[-m:]), "kv_cache")


def full_attention(x, p, cache=None):
    """Exact causal softmax attention in query tiles of ``FULL_TILE`` rows.

    Tile i attends to the keys before it, range (0, start_i), and to its
    own: ``sliding_window_attention`` with an unbounded window. No tile
    gathers a key past its last query, so about L^2/2 scores are computed,
    not L^2. A decode ``cache`` (see ``project_with_cache``) keeps every K/V
    row, and ``x`` then attends to all of them too.
    """
    q, k, v = project_with_cache(x, p, cache)
    earlier = [[(0, start)] for start in range(0, k.shape[0], FULL_TILE)]
    return chunked_attention(q, k, v, p, FULL_TILE, earlier)


def masked_oracle_attention(x, p, mask):
    """Dense attention under an arbitrary additive mask (the verification oracle)."""
    n = x.shape[0]
    if mask.shape != (n, n):
        raise ShapeError(f"mask must be ({n}, {n}), got {mask.shape}")
    if mask.fully_masked_rows().any():
        raise UsageError("oracle attention requires every query row to see at least one key")
    q, k, v = project_qkv(x, p)
    return matmul(_per_head_attention(q, k, v, mask.bias.astype(x.dtype), p), p.w_o)


def sliding_window_attention(x, p, window, cache=None):
    """Causal attention where query t sees keys max(0, t-window+1)..t.

    Chunks of ``window`` queries each gather the window-1 keys before them,
    so scores and biases grow as L*window rather than L^2. A decode
    ``cache`` (see ``project_with_cache``) keeps only the last window-1
    K/V rows, so decoding runs in constant state.
    """
    if window < 1:
        raise ConfigError("window must be >= 1")
    q, k, v = project_with_cache(x, p, cache, keep=window - 1)
    earlier = [[(max(0, start - window + 1), start)] for start in range(0, k.shape[0], window)]
    return chunked_attention(q, k, v, p, window, earlier, window=window)
