"""Neural-network primitives built on the autodiff tensor core.

Argument conventions:
  * sequence tensors are (L, d) with time along axis 0,
  * additive masks are plain ndarrays with entries in {0, -inf}; they are
    constants and never receive gradients,
  * positions are floats so tests can exercise fractional rotation angles.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InputError, ShapeError, UsageError
from .tensor import Tensor, _accum, _node


def masked_softmax(scores, bias=None):
    """Row softmax of ``scores + bias`` along the last axis.

    Rows whose bias is -inf everywhere come back as all zeros instead of NaN;
    callers that need to know which rows those are inspect the mask
    (``AdditiveMask.fully_masked_rows``).
    """
    p = scores.data.copy() if bias is None else scores.data + np.asarray(bias, dtype=scores.dtype)
    softmax_rows_inplace(p)

    def grad_fn(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        _accum(scores, p * (g - dot))

    return _node(p, (scores,), grad_fn, "masked_softmax")


def softmax_rows_inplace(z):
    """Overwrite an ndarray with its softmax along the last axis; rows that
    are -inf everywhere become zeros."""
    m = z.max(axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    z -= m
    np.exp(z, out=z)
    s = z.sum(axis=-1, keepdims=True)
    s[s == 0.0] = 1.0
    z /= s


def rope_embed(t, positions, base=10000.0, pos_scale=1.0):
    """Rotate consecutive scalar pairs of each row by position-dependent angles.

    Pair i of a width-d row turns by angle ``position * base**(-2i/d)``.
    ``pos_scale`` > 1 compresses positions (linear interpolation for context
    extension); the default leaves them untouched. A ``range`` of
    nonnegative integers reads its cos/sin rows from a table cached per
    (width, base, pos_scale, dtype); other positions compute their own.
    """
    d = t.data.shape[-1]
    if d % 2 != 0:
        raise ConfigError(f"rotary embedding needs an even width, got {d}")
    if len(positions) != t.data.shape[0]:
        raise ShapeError("positions length must match the sequence length")
    if isinstance(positions, range) and positions.step == 1 and positions.start >= 0:
        cos, sin = (a[positions.start : positions.stop] for a in _rope_table(d, positions.stop, base, pos_scale, t.dtype))
    else:
        pos = np.asarray(positions, dtype=np.float64)
        if np.any(pos < 0):
            raise ConfigError("positions must be nonnegative")
        cos, sin = _rope_angles(pos, d, base, pos_scale, t.dtype)

    x0 = t.data[:, 0::2]
    x1 = t.data[:, 1::2]
    out = np.empty_like(t.data)
    out[:, 0::2] = x0 * cos - x1 * sin
    out[:, 1::2] = x0 * sin + x1 * cos

    def grad_fn(g):
        g0 = g[:, 0::2]
        g1 = g[:, 1::2]
        gt = np.empty_like(t.data)
        gt[:, 0::2] = g0 * cos + g1 * sin
        gt[:, 1::2] = -g0 * sin + g1 * cos
        _accum(t, gt)

    return _node(out, (t,), grad_fn, "rope_embed")


_ROPE_TABLES = {}  # (width, base, pos_scale, dtype) -> read-only cos and sin of positions 0, 1, ...


def _rope_table(d, stop, base, pos_scale, dtype):
    """The cached cos/sin table of at least ``stop`` positions, doubled when
    too short. Its rows equal ``_rope_angles`` of the same positions bit for
    bit, and it is read-only because every caller shares it."""
    key = (d, float(base), float(pos_scale), np.dtype(dtype))
    table = _ROPE_TABLES.get(key)
    if table is None or len(table[0]) < stop:
        size = max(stop, 2 * len(table[0])) if table else stop
        table = _ROPE_TABLES[key] = _rope_angles(np.arange(size, dtype=np.float64), d, base, pos_scale, dtype)
        for a in table:
            a.flags.writeable = False
    return table


def _rope_angles(pos, d, base, pos_scale, dtype):
    """cos and sin, in ``dtype``, of the angles of float64 positions ``pos``."""
    freqs = float(base) ** (-2.0 * np.arange(d // 2, dtype=np.float64) / d)
    ang = np.outer(pos / float(pos_scale), freqs)
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


def causal_conv1d(x, kernel, bias, max_width=None, history=None):
    """Depthwise causal FIR filter: out[t, c] = sum_tau kernel[tau, c] * x[t-tau, c] + bias[c].

    Tap 0 multiplies the current token; the sequence is left-padded with
    ``history`` (the w-1 input rows before it, a constant) or with zeros,
    so the output has the same length as the input.
    """
    w, d = kernel.data.shape
    if max_width is not None and w > max_width:
        raise ConfigError(f"conv kernel width {w} exceeds configured maximum {max_width}")
    if x.data.shape[1] != d:
        raise ShapeError("conv kernel channel count must match the input width")
    if history is None:
        history = np.zeros((w - 1, d), dtype=x.dtype)
    elif np.shape(history) != (w - 1, d):
        raise ShapeError(f"conv history must be ({w - 1}, {d}), got {np.shape(history)}")
    length = x.data.shape[0]
    xp = np.vstack([history, x.data]).astype(x.dtype, copy=False) if w > 1 else x.data
    out = np.zeros_like(x.data)
    for tau in range(w):
        out += kernel.data[tau] * xp[w - 1 - tau : w - 1 - tau + length]
    out = out + bias.data

    def grad_fn(g):
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for tau in range(w):
                gxp[w - 1 - tau : w - 1 - tau + length] += kernel.data[tau] * g
            _accum(x, gxp[w - 1 :] if w > 1 else gxp)
        if kernel.requires_grad:
            gk = np.empty_like(kernel.data)
            for tau in range(w):
                gk[tau] = (g * xp[w - 1 - tau : w - 1 - tau + length]).sum(axis=0)
            _accum(kernel, gk)
        _accum(bias, g.sum(axis=0))

    return _node(out, (x, kernel, bias), grad_fn, "causal_conv1d")


SCAN_BLOCK = 32  # rows per block of ``_scan``; chosen by measurement (see CHANGES.md)


def _scan(x, a, h0):
    """Overwrite the (L, e) ndarray ``x`` with h_t = a * h_{t-1} + x_t, h_{-1} = ``h0``; returns it.

    A blocked scan (Martin & Cundy 2018, arXiv 1709.04057): each block of
    ``SCAN_BLOCK`` rows reduces to its a-weighted sum, a loop over blocks
    chains the states carried between them in closed form, and with each
    carry folded into its block's first row the recurrence runs through
    every block at once. Inside a block the float operations are the
    sequential loop's, in its order, so for L <= ``SCAN_BLOCK`` the result
    is that loop's bit for bit; longer scans differ in rounding only.
    """
    length, e = x.shape
    n, rem = divmod(length, SCAN_BLOCK)
    blocks = x[: n * SCAN_BLOCK].reshape(n, SCAN_BLOCK, e)
    tail = x[n * SCAN_BLOCK :]
    carries = h0[None]
    chained = n if rem else n - 1  # blocks whose carry a later row needs
    if chained > 0:
        powers = np.empty((SCAN_BLOCK, e), dtype=x.dtype)  # a^0 .. a^(SCAN_BLOCK - 1)
        powers[0] = 1.0
        powers[1:] = a
        np.cumprod(powers, axis=0, out=powers)
        sums = np.einsum("nte,te->ne", blocks[:chained], powers[::-1])
        a_block = powers[-1] * a
        carries = np.empty((chained + 1, e), dtype=x.dtype)
        carries[0] = h0
        for m in range(chained):
            carries[m + 1] = a_block * carries[m] + sums[m]
    blocks[:, 0] += a * carries[:n]
    if rem:
        tail[0] += a * carries[n]
    for t in range(1, min(length, SCAN_BLOCK)):
        if n:
            blocks[:, t] += a * blocks[:, t - 1]
        if t < rem:
            tail[t] += a * tail[t - 1]
    return x


def linear_recurrence(u, a, b, h0=None):
    """Per-channel scan h_t = a * h_{t-1} + b * u_t from h_0 = ``h0`` (a constant) or 0.

    ``a`` and ``b`` are per-channel vectors. The forward and the backward's
    adjoint are each one blocked ``_scan`` (about ``SCAN_BLOCK`` + L /
    ``SCAN_BLOCK`` numpy steps rather than L) inside a single graph node, so
    the tape stays short on long sequences.
    """
    _, d = u.data.shape
    if a.data.shape != (d,) or b.data.shape != (d,):
        raise ShapeError("recurrence coefficients must be per-channel vectors")
    if h0 is not None and np.shape(h0) != (d,):
        raise ShapeError(f"recurrence start state must be ({d},), got {np.shape(h0)}")
    start = np.zeros(d, dtype=u.dtype) if h0 is None else np.asarray(h0, dtype=u.dtype)
    ad = a.data
    bd = b.data
    hs = _scan(bd * u.data, ad, start)

    def grad_fn(g):
        lam = _scan(g[::-1].copy(), ad, np.zeros(d, dtype=g.dtype))[::-1]  # adjoint of h_t
        prod = np.empty_like(hs)  # one (L, d) buffer for every product below
        if a.requires_grad:
            prod[0] = lam[0] * start
            np.multiply(lam[1:], hs[:-1], out=prod[1:])
            _accum(a, prod.sum(axis=0))
        if b.requires_grad:
            _accum(b, np.multiply(lam, u.data, out=prod).sum(axis=0))
        if u.requires_grad:
            _accum(u, np.multiply(bd, lam, out=prod))

    return _node(hs, (u, a, b), grad_fn, "linear_recurrence")


def rms_norm(x, weight, eps=1e-6):
    """Row-wise RMS normalization with a learned per-channel gain."""
    d = x.data.shape[-1]
    if weight.data.shape != (d,):
        raise ShapeError("norm weight must match the channel width")
    ms = np.mean(x.data * x.data, axis=-1, keepdims=True)
    r = np.sqrt(ms + eps)
    xn = x.data / r
    out = xn * weight.data

    def grad_fn(g):
        if weight.requires_grad:
            _accum(weight, (g * xn).sum(axis=0))
        if x.requires_grad:
            gw = g * weight.data
            inner = (gw * x.data).sum(axis=-1, keepdims=True)
            _accum(x, gw / r - x.data * inner / (d * r**3))

    return _node(out, (x, weight), grad_fn, "rms_norm")


def sigmoid(x):
    """Logistic function as 0.5 * (1 + tanh(x/2)): one transcendental, finite for every finite x."""
    out = np.tanh(x.data * 0.5)
    out += 1.0
    out *= 0.5

    def grad_fn(g):
        _accum(x, g * out * (1.0 - out))

    return _node(out, (x,), grad_fn, "sigmoid")


def embedding_lookup(table, ids):
    """Gather rows of an embedding table; grads scatter-add back into it."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ShapeError("token ids must be a 1-d sequence")
    vocab = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise InputError(f"token id out of range for vocab of size {vocab}")
    out = table.data[ids].copy()

    def grad_fn(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _node(out, (table,), grad_fn, "embedding_lookup")


def cross_entropy_logits(logits, targets, ignore_index=None):
    """Mean next-token cross entropy over non-ignored targets."""
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.shape[0] != logits.data.shape[0]:
        raise ShapeError("targets must be a 1-d sequence aligned with the logit rows")
    keep = np.ones(targets.shape[0], dtype=bool) if ignore_index is None else targets != ignore_index
    n = int(keep.sum())
    if n == 0:
        raise UsageError("cross entropy over zero valid targets")
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    logp = z - lse
    rows = np.arange(targets.shape[0])
    safe_targets = np.where(keep, targets, 0)
    nll = -(logp[rows, safe_targets] * keep)
    out = np.asarray(nll.sum() / n, dtype=logits.dtype)

    def grad_fn(g):
        if logits.requires_grad:
            soft = np.exp(logp)
            soft[rows, safe_targets] -= 1.0
            soft *= (keep[:, None] * np.asarray(g).reshape(-1)[0]) / n
            _accum(logits, soft.astype(logits.dtype))

    return _node(out, (logits,), grad_fn, "cross_entropy")
