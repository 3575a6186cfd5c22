"""Span-expanded attention: chunking, memory-block summaries, relevancy-scored
top-k retrieval, and expansion-span cross-attention.

The sequence is partitioned twice over the same projected Q/K/V: into chunks
of M tokens that are attended causally, and into memory blocks of S tokens
that can be retrieved by later chunks. Retrieval is a hard top-k over
summary relevancy scores; no gradient flows through the selection or the
summaries (they rank blocks, nothing else), so that machinery runs on plain
ndarrays while the attended K/V slices stay on the autodiff graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .attention import AdditiveMask, chunked_attention, project_qkv
from .errors import ConfigError, InvariantError, UsageError
from .ops import softmax_rows_inplace

VARIANTS = ("standard", "nomem", "random", "landmark")

NEG_INF = float("-inf")

# Seed of the fixed landmark query shared by every block in the landmark variant.
LANDMARK_SEED = 1234


@dataclass
class SEAttnConfig:
    chunk_sizes: tuple = (16, 32)
    memory_block_size: int = 8
    top_k: int = 2
    variant: str = "standard"
    seed: int = 0

    def __post_init__(self):
        self.chunk_sizes = tuple(sorted(int(m) for m in self.chunk_sizes))
        if self.memory_block_size < 1:
            raise ConfigError("memory block size must be >= 1")
        if self.top_k < 0:
            raise ConfigError("top_k must be >= 0")
        if not self.chunk_sizes:
            raise ConfigError("at least one chunk size is required")
        if min(self.chunk_sizes) < self.memory_block_size:
            raise ConfigError("every chunk size must be >= the memory block size")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")


@dataclass
class ChunkTrace:
    index: int
    start: int
    stop: int
    scores: np.ndarray
    selected: list
    no_past: bool


@dataclass
class RetrievalTrace:
    """Everything needed to replay one forward's retrieval decisions."""

    seq_len: int
    chunk_size: int
    block_size: int
    variant: str
    block_ranges: list
    chunks: list = field(default_factory=list)

    def to_json(self):
        payload = {
            "seq_len": self.seq_len,
            "chunk_size": self.chunk_size,
            "block_size": self.block_size,
            "variant": self.variant,
            "block_ranges": [list(r) for r in self.block_ranges],
            "chunks": [
                {
                    "index": c.index,
                    "start": c.start,
                    "stop": c.stop,
                    "scores": [float(s) for s in c.scores],
                    "selected": list(c.selected),
                    "no_past": bool(c.no_past),
                }
                for c in self.chunks
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        trace = cls(
            seq_len=payload["seq_len"],
            chunk_size=payload["chunk_size"],
            block_size=payload["block_size"],
            variant=payload["variant"],
            block_ranges=[tuple(r) for r in payload["block_ranges"]],
        )
        for c in payload["chunks"]:
            trace.chunks.append(
                ChunkTrace(
                    index=c["index"],
                    start=c["start"],
                    stop=c["stop"],
                    scores=np.asarray(c["scores"], dtype=np.float64),
                    selected=list(c["selected"]),
                    no_past=bool(c["no_past"]),
                )
            )
        return trace


def summarize_blocks(q, k, v, block_size, d_model, landmark=None):
    """Summaries of every S-token memory block, ``(n_blocks, d_model)``.

    A block's summary is the mean row of its non-causal self-attention
    output; with ``landmark`` it is instead the attention output of that one
    fixed query over the block. The full blocks are one ``(n, S, d)`` batch
    and a short tail block is a batch of one.
    """
    n, d = k.shape
    cut = n - n % block_size
    parts = []
    for lo, hi, size in ((0, cut, block_size), (cut, n, n - cut)):
        if hi == lo:
            continue
        shape = (-1, size, d)
        queries = q[lo:hi].reshape(shape) if landmark is None else landmark[None, None, :]
        attn = np.matmul(queries, k[lo:hi].reshape(shape).transpose(0, 2, 1)) / math.sqrt(d_model)
        softmax_rows_inplace(attn)
        parts.append(np.matmul(attn, v[lo:hi].reshape(shape)).mean(axis=1))
    return np.concatenate(parts)


def landmark_vector(d_model, seed, dtype=np.float64):
    """The shared, non-learnable landmark used by the landmark variant."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(d_model) / math.sqrt(d_model)).astype(dtype)


def relevancy_scores(q, starts, summaries, retrievable, d_model):
    """Masked-softmax relevancy of every memory block to every chunk, ``(C, n_blocks)``.

    Chunk c holds the query rows ``starts[c]:starts[c + 1]``. Its scores are
    its summed query rows dotted with each block summary, softmaxed in
    float64 with a 1/sqrt(d_model) temperature over the blocks that
    ``retrievable[c]`` allows; rows with nothing retrievable are all zeros.
    """
    raw = np.add.reduceat(q, starts, axis=0) @ summaries.T
    probs = np.where(retrievable, raw.astype(np.float64) / math.sqrt(d_model), NEG_INF)
    softmax_rows_inplace(probs)
    return probs


def select_top_k(scores, retrievable, k, variant="standard", rng=None):
    """Pick each chunk's retrieved block indices, one ascending list per row.

    standard/landmark: the k highest-scoring retrievable blocks, ties broken
    toward the earlier block; random: uniform without replacement, one draw
    per chunk in chunk order; nomem: nothing. Fewer than k retrievable
    blocks means all of them.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    takes = np.minimum(int(k), retrievable.sum(axis=1))
    if variant == "nomem" or not takes.any():
        return [[] for _ in takes]
    if variant == "random":
        if rng is None:
            raise UsageError("random selection needs a seeded generator")
        return [
            sorted(rng.choice(np.flatnonzero(row), size=take, replace=False).tolist()) if take else []
            for row, take in zip(retrievable, takes)
        ]
    order = np.argsort(-np.where(retrievable, scores, NEG_INF), axis=1, kind="stable")
    return [sorted(row[:take].tolist()) for row, take in zip(order, takes)]


def se_attn_forward(x, p, cfg, rng=None):
    """Span-expanded attention over a full sequence.

    Draws one chunk size from ``cfg.chunk_sizes``, retrieves up to top-k
    strictly-past memory blocks per chunk, and attends each chunk causally
    over [retrieved blocks ascending, chunk] through ``chunked_attention``.
    Returns the projected output and the retrieval trace.
    """
    n = x.shape[0]
    if n < 1:
        raise ConfigError("sequence must contain at least one token")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    chunk_size = int(cfg.chunk_sizes[rng.integers(len(cfg.chunk_sizes))])

    q, k, v = project_qkv(x, p)

    s = cfg.memory_block_size
    starts = np.arange(0, n, chunk_size)
    block_starts = np.arange(0, n, s)
    ends = np.minimum(block_starts + s, n)
    retrievable = ends[None, :] <= starts[:, None]
    if cfg.variant == "nomem":
        scores = np.zeros(retrievable.shape)
    else:
        lm = landmark_vector(p.d_model, LANDMARK_SEED) if cfg.variant == "landmark" else None
        summaries = summarize_blocks(q.data, k.data, v.data, s, p.d_model, landmark=lm)
        scores = relevancy_scores(q.data, starts, summaries, retrievable, p.d_model)
    selected = select_top_k(scores, retrievable, cfg.top_k, cfg.variant, rng)
    no_past = ~retrievable.any(axis=1)

    block_ranges = list(zip(block_starts.tolist(), ends.tolist()))
    trace = RetrievalTrace(
        seq_len=n,
        chunk_size=chunk_size,
        block_size=s,
        variant=cfg.variant,
        block_ranges=block_ranges,
        chunks=[
            ChunkTrace(
                index=i,
                start=start,
                stop=min(start + chunk_size, n),
                scores=scores[i],
                selected=selected[i],
                no_past=bool(no_past[i]),
            )
            for i, start in enumerate(starts.tolist())
        ],
    )
    earlier = [[block_ranges[j] for j in sel] for sel in selected]
    return chunked_attention(q, k, v, p, chunk_size, earlier), trace


def trace_pattern(trace):
    """Expand a retrieval trace into the equivalent L x L additive mask.

    Query t in chunk i sees its chunk-internal keys up to t plus every key
    of the blocks that chunk retrieved. Raises ``InvariantError`` if a
    recorded selection overlaps its own chunk.
    """
    n = trace.seq_len
    bias = np.full((n, n), NEG_INF)
    for c in trace.chunks:
        for j in c.selected:
            b_start, b_stop = trace.block_ranges[j]
            if b_stop > c.start:
                raise InvariantError(
                    f"chunk {c.index} starting at {c.start} retrieved overlapping block {j} [{b_start}, {b_stop})"
                )
            bias[c.start : c.stop, b_start:b_stop] = 0.0
        for t in range(c.start, c.stop):
            bias[t, c.start : t + 1] = 0.0
    return AdditiveMask(bias)


def mask_to_rle(mask):
    """Run-length encode the visible entries of each mask row as [start, length] pairs."""
    rows = []
    for row in mask.visible():
        runs = []
        start = None
        for j, vis in enumerate(row):
            if vis and start is None:
                start = j
            elif not vis and start is not None:
                runs.append([start, j - start])
                start = None
        if start is not None:
            runs.append([start, len(row) - start])
        rows.append(runs)
    return rows


def rle_to_mask(rows):
    """Inverse of ``mask_to_rle``."""
    n = len(rows)
    bias = np.full((n, n), NEG_INF)
    for i, runs in enumerate(rows):
        for start, length in runs:
            bias[i, start : start + length] = 0.0
    return AdditiveMask(bias)
