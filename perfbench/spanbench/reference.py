"""Float64 references written from the method's formulas, apart from the
package's fast paths: plain numpy, explicit masks, loops where the formula
is a loop.

Weights come in as a dict of float64 arrays keyed like
``HybridModel.named_parameters``; LoRA adapters are folded in here as
``W + (alpha/rank) * A^T B^T``.
"""

from __future__ import annotations

import math

import numpy as np


def weights64(model, lora_scale=None):
    """Float64 copies of every parameter, with LoRA deltas folded into the attention matrices."""
    named = {name: np.asarray(t.data, dtype=np.float64) for name, t in model.named_parameters().items()}
    out = {name: w for name, w in named.items() if not name.endswith((".lora_a", ".lora_b"))}
    for name in list(out):
        a = named.get(f"{name}.lora_a")
        if a is not None:
            out[name] = out[name] + lora_scale * (a.T @ named[f"{name}.lora_b"].T)
    return out


def rms_norm(x, gain, eps=1e-6):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps) * gain


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def rope(x, base=10000.0, pos_scale=1.0):
    """Pair i = (x[:, 2i], x[:, 2i+1]) of row t turns by t/pos_scale * base**(-2i/d)."""
    n, d = x.shape
    pos = np.arange(n, dtype=np.float64) / pos_scale
    ang = pos[:, None] * base ** (-2.0 * np.arange(d // 2) / d)[None, :]
    out = np.empty_like(x)
    out[:, 0::2] = x[:, 0::2] * np.cos(ang) - x[:, 1::2] * np.sin(ang)
    out[:, 1::2] = x[:, 0::2] * np.sin(ang) + x[:, 1::2] * np.cos(ang)
    return out


def ssm_block(x, w, prefix):
    """norm -> in_proj -> causal conv -> h_t = a h_{t-1} + b u_t -> gate -> out_proj + residual."""
    h = rms_norm(x, w[f"{prefix}.norm"])
    both = h @ w[f"{prefix}.in_proj"]
    e = both.shape[1] // 2
    u, gate = both[:, :e], both[:, e:]
    kernel = w[f"{prefix}.conv_kernel"]
    conv = np.tile(w[f"{prefix}.conv_bias"], (u.shape[0], 1))
    for tau in range(kernel.shape[0]):
        conv[tau:] += kernel[tau] * u[: u.shape[0] - tau]
    a = sigmoid(w[f"{prefix}.decay_logit"])
    b = w[f"{prefix}.input_gain"]
    state = np.zeros(e)
    states = np.empty_like(conv)
    for t in range(conv.shape[0]):
        state = a * state + b * conv[t]
        states[t] = state
    return x + (states * sigmoid(gate)) @ w[f"{prefix}.out_proj"]


def project(x, w, prefix, rope_base=10000.0, pos_scale=1.0):
    q = rope(x @ w[f"{prefix}.w_q"], rope_base, pos_scale)
    k = rope(x @ w[f"{prefix}.w_k"], rope_base, pos_scale)
    return q, k, x @ w[f"{prefix}.w_v"]


def attention(x, w, prefix, heads, visible, rope_base=10000.0, pos_scale=1.0):
    """Dense multi-head softmax attention of an already normed input under a boolean (L, L) mask."""
    q, k, v = project(x, w, prefix, rope_base, pos_scale)
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = np.where(visible, q[:, cols] @ k[:, cols].T / math.sqrt(dh), -np.inf)
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append((p / p.sum(axis=1, keepdims=True)) @ v[:, cols])
    return np.concatenate(outs, axis=1) @ w[f"{prefix}.w_o"]


def causal_mask(n):
    return np.tril(np.ones((n, n), dtype=bool))


def banded_mask(n, window):
    """Query t sees keys max(0, t-window+1) .. t."""
    t = np.arange(n)
    return (t[None, :] <= t[:, None]) & (t[None, :] > t[:, None] - window)


def trace_mask(trace):
    """Query t of a chunk sees the keys of the chunk's retrieved blocks and its own chunk up to t."""
    n = trace.seq_len
    visible = np.zeros((n, n), dtype=bool)
    for c in trace.chunks:
        for j in c.selected:
            start, stop = trace.block_ranges[j]
            visible[c.start : c.stop, start:stop] = True
        for t in range(c.start, c.stop):
            visible[t, c.start : t + 1] = True
    return visible


def block_summaries(q, k, v, block_size, d_model):
    """Summary of block j: mean row of its non-causal self-attention, softmax(q k^T / sqrt(d_model)) v."""
    out = []
    for start in range(0, k.shape[0], block_size):
        qb, kb, vb = q[start : start + block_size], k[start : start + block_size], v[start : start + block_size]
        logits = qb @ kb.T / math.sqrt(d_model)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        out.append(((p / p.sum(axis=1, keepdims=True)) @ vb).mean(axis=0))
    return np.stack(out)


def relevancy(q_chunk, summaries, retrievable, d_model):
    """Softmax over retrievable blocks of (sum_t q_t) . summary_j / sqrt(d_model); zeros elsewhere."""
    raw = summaries @ q_chunk.sum(axis=0) / math.sqrt(d_model)
    p = np.zeros_like(raw)
    if retrievable.any():
        e = np.exp(raw[retrievable] - raw[retrievable].max())
        p[retrievable] = e / e.sum()
    return p


def model_logits(w, kinds, tokens, heads, masks, rope_base=10000.0, pos_scale=1.0):
    """Logits of the hybrid model; ``masks(layer, n)`` gives each attention layer's visibility."""
    x = w["embedding"][np.asarray(tokens)]
    for i, kind in enumerate(kinds):
        prefix = f"blocks.{i}"
        if kind == "ssm":
            x = ssm_block(x, w, prefix)
        else:
            xn = rms_norm(x, w[f"{prefix}.norm"])
            x = x + attention(xn, w, prefix, heads, masks(i, x.shape[0]), rope_base, pos_scale)
    head = w["head"] if "head" in w else w["embedding"].T
    return rms_norm(x, w["final_norm"]) @ head
