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
    positions = np.arange(start, start + x.shape[0], dtype=np.float64)
    q = rope_embed(q, positions, base=p.rope_base, pos_scale=p.rope_pos_scale)
    k = rope_embed(k, positions, base=p.rope_base, pos_scale=p.rope_pos_scale)
    return q, k, v


def multi_head_attention(q, k, v, bias, p, *, rows, keys):
    """Softmax attention of gathered query rows over gathered key rows, every
    chunk at once, as one autodiff node.

    ``rows`` (C, Mq) and ``keys`` (C, K) are integer row indices: chunk c's
    query slots ``q[rows[c]]`` attend to its key slots ``k[keys[c]]`` and
    ``v[keys[c]]`` under ``bias`` (C, Mq, K), an additive {0, -inf} constant.
    A slot of -1 is padding, which the bias must mask entirely (the whole
    row of a query slot, the whole column of a key slot); padded query
    slots are dropped. The output has the rows of ``q``, zero where no slot
    names a row. Heads are column slices of width d_model/head_count.
    Scores are materialised one head at a time, and only each head's
    probabilities P are kept for backward, which uses
    dS = P * (dP - rowsum(dO * O)) (Dao et al. 2022, arXiv 2205.14135) and
    scatter-adds dK/dV, since one key row may sit in many chunks.
    """
    rows, keys = np.asarray(rows), np.asarray(keys)
    if rows.ndim != 2 or keys.ndim != 2 or bias.shape != (*rows.shape, keys.shape[1]):
        raise ShapeError(f"bias must be (C, Mq, K) for rows {rows.shape} and keys {keys.shape}, got {bias.shape}")
    heads = p.head_count
    inv = 1.0 / math.sqrt(p.head_dim)
    valid = rows >= 0
    qg, kg, vg = _split_heads(q.data[rows], heads), _split_heads(k.data[keys], heads), _split_heads(v.data[keys], heads)
    og = np.empty_like(qg)
    keep = q.requires_grad or k.requires_grad or v.requires_grad
    probs = []
    for h in range(heads):
        s = np.matmul(qg[h], kg[h].transpose(0, 2, 1))
        s *= inv
        s += bias
        softmax_rows_inplace(s)
        np.matmul(s, vg[h], out=og[h])
        if keep:
            probs.append(s)
    out = np.zeros(q.shape, dtype=q.dtype)
    out[rows[valid]] = _merge_heads(og)[valid]

    def grad_fn(g):
        go = _split_heads(g[rows], heads)  # padded slots have P = 0, so their dO is inert
        dq, dk, dv = np.empty_like(qg), np.empty_like(kg), np.empty_like(vg)
        for h, ph in enumerate(probs):
            np.matmul(ph.transpose(0, 2, 1), go[h], out=dv[h])
            ds = np.matmul(go[h], vg[h].transpose(0, 2, 1))
            ds -= (go[h] * og[h]).sum(axis=-1, keepdims=True)
            ds *= ph
            ds *= inv
            np.matmul(ds, kg[h], out=dq[h])
            np.matmul(ds.transpose(0, 2, 1), qg[h], out=dk[h])
        if q.requires_grad:
            gq = np.zeros_like(q.data)
            gq[rows[valid]] = _merge_heads(dq)[valid]
            _accum(q, gq)
        for t, d in ((k, dk), (v, dv)):
            if t.requires_grad:
                gt = np.zeros_like(t.data)
                np.add.at(gt, keys, _merge_heads(d))
                _accum(t, gt)

    return _node(out, (q, k, v), grad_fn, "multi_head_attention")


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
    chunk gathers; the slots a short chunk leaves over are -inf padding in
    the one (chunks, slots, keys) bias, built in the model dtype.
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
    position of the next row and the rotated K/V rows kept so far (constants:
    no gradient flows into them). The returned K/V are the kept rows followed
    by the new ones; the cache then keeps the last ``keep`` of them (all when
    None). With ``cache=None`` this is ``project_qkv(x, p)``.
    """
    if cache is None:
        return project_qkv(x, p)
    start = cache.get("position", 0)
    q, k, v = project_qkv(x, p, start)
    if len(cache.get("k", ())):
        k = concat([Tensor(cache["k"]), k])
        v = concat([Tensor(cache["v"]), v])
    if keep is None:
        cache.update(k=k.data, v=v.data)
    else:  # copies, so the rows no later query can see are freed
        lo = max(0, k.shape[0] - keep)
        cache.update(k=k.data[lo:].copy(), v=v.data[lo:].copy())
    cache["position"] = start + x.shape[0]
    return q, k, v


def full_attention(x, p, cache=None):
    """Exact causal softmax attention over the whole sequence: one chunk of
    length L. A decode ``cache`` (see ``project_with_cache``) keeps every
    K/V row, and ``x`` then attends to all of them too."""
    q, k, v = project_with_cache(x, p, cache)
    return chunked_attention(q, k, v, p, k.shape[0])


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
