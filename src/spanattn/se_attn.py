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

VARIANTS = ("standard", "nomem", "random", "landmark")

NEG_INF = float("-inf")


@dataclass
class SEAttnConfig:
    chunk_sizes: tuple = (16, 32)
    memory_block_size: int = 8
    top_k: int = 2
    variant: str = "standard"
    seed: int = 0
    landmark_seed: int = 1234

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
class MemoryBlock:
    """A contiguous S-token slice of the projected sequence plus its summary."""

    index: int
    start: int
    stop: int
    q_mem: np.ndarray
    k_mem: np.ndarray
    v_mem: np.ndarray
    summary: np.ndarray = None

    @property
    def size(self):
        return self.stop - self.start


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


def build_memory_blocks(q_data, k_data, v_data, block_size):
    """Split detached projections into S-token blocks (final block may be short)."""
    n = k_data.shape[0]
    blocks = []
    for j, start in enumerate(range(0, n, block_size)):
        stop = min(start + block_size, n)
        blocks.append(
            MemoryBlock(
                index=j,
                start=start,
                stop=stop,
                q_mem=q_data[start:stop],
                k_mem=k_data[start:stop],
                v_mem=v_data[start:stop],
            )
        )
    return blocks


def _softmax_rows(z):
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def summarize_block(block, d_model=None):
    """Mean row of the block's non-causal self-attention output.

    Every token in the block attends to every other; the average of the
    attended rows is the block's compressed representation.
    """
    dm = block.k_mem.shape[-1] if d_model is None else d_model
    scores = block.q_mem @ block.k_mem.T / math.sqrt(dm)
    attn = _softmax_rows(scores) @ block.v_mem
    return attn.mean(axis=0)


def summarize_blocks(blocks, d_model):
    """Fill every block's summary; equal-sized blocks are batched in one einsum."""
    full = [b for b in blocks if b.size == blocks[0].size]
    tail = blocks[len(full) :]
    if full:
        q = np.stack([b.q_mem for b in full])
        k = np.stack([b.k_mem for b in full])
        v = np.stack([b.v_mem for b in full])
        scores = np.einsum("usd,utd->ust", q, k) / math.sqrt(d_model)
        c = np.einsum("ust,utd->usd", _softmax_rows(scores), v).mean(axis=1)
        for b, summary in zip(full, c):
            b.summary = summary
    for b in tail:
        b.summary = summarize_block(b, d_model=d_model)


def landmark_summarize(block, landmark_vector, d_model=None):
    """One-query cross-attention between a fixed landmark vector and the block."""
    dm = block.k_mem.shape[-1] if d_model is None else d_model
    scores = landmark_vector @ block.k_mem.T / math.sqrt(dm)
    weights = _softmax_rows(scores[None, :])[0]
    return weights @ block.v_mem


def landmark_vector(d_model, seed, dtype=np.float64):
    """The shared, non-learnable landmark used by the landmark variant."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(d_model) / math.sqrt(d_model)).astype(dtype)


def relevancy_scores(q_chunk, summaries, retrievable, d_model):
    """Masked-softmax relevancy of each memory block to one chunk.

    Scores are the chunk's summed query rows dotted with each block summary,
    shifted by -inf for non-retrievable blocks and softmaxed with a
    1/sqrt(d_model) temperature. Returns ``(probs, no_past)``: probabilities
    over blocks (zeros everywhere when nothing is retrievable) and a flag
    marking that fully-masked case.
    """
    retrievable = np.asarray(retrievable, dtype=bool)
    n_blocks = summaries.shape[0]
    if not retrievable.any():
        return np.zeros(n_blocks, dtype=np.float64), True
    bias = np.where(retrievable, 0.0, NEG_INF)
    raw = summaries @ q_chunk.sum(axis=0)
    probs = _softmax_rows(((raw + bias) / math.sqrt(d_model))[None, :])[0]
    return probs, False


def select_top_k(scores, retrievable, k, variant="standard", rng=None):
    """Pick the retrieved block indices for one chunk, ascending by index.

    standard/landmark: k highest-scoring retrievable blocks, ties broken
    toward the earlier block; random: uniform without replacement; nomem:
    nothing. Fewer than k retrievable blocks means all of them.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    retrievable = np.asarray(retrievable, dtype=bool)
    past = np.flatnonzero(retrievable)
    take = min(int(k), past.size)
    if variant == "nomem" or take == 0:
        return []
    if variant == "random":
        if rng is None:
            raise UsageError("random selection needs a seeded generator")
        chosen = rng.choice(past, size=take, replace=False)
        return sorted(int(i) for i in chosen)
    order = np.lexsort((past, -np.asarray(scores, dtype=np.float64)[past]))
    return sorted(int(past[i]) for i in order[:take])


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

    blocks = build_memory_blocks(q.data, k.data, v.data, cfg.memory_block_size)
    if cfg.variant == "landmark":
        lm = landmark_vector(p.d_model, cfg.landmark_seed, dtype=np.float64)
        for b in blocks:
            b.summary = landmark_summarize(b, lm, d_model=p.d_model)
    elif cfg.variant != "nomem":
        summarize_blocks(blocks, p.d_model)
    summaries = (
        np.stack([b.summary for b in blocks])
        if blocks and blocks[0].summary is not None
        else np.zeros((len(blocks), p.d_model))
    )
    block_ends = np.asarray([b.stop for b in blocks])

    trace = RetrievalTrace(
        seq_len=n,
        chunk_size=chunk_size,
        block_size=cfg.memory_block_size,
        variant=cfg.variant,
        block_ranges=[(b.start, b.stop) for b in blocks],
    )

    for i, start in enumerate(range(0, n, chunk_size)):
        stop = min(start + chunk_size, n)
        retrievable = block_ends <= start
        if cfg.variant == "nomem":
            scores, no_past = np.zeros(len(blocks)), not retrievable.any()
            selected = []
        else:
            scores, no_past = relevancy_scores(q.data[start:stop], summaries, retrievable, p.d_model)
            selected = select_top_k(scores, retrievable, cfg.top_k, cfg.variant, rng)
        trace.chunks.append(
            ChunkTrace(index=i, start=start, stop=stop, scores=scores, selected=selected, no_past=no_past)
        )

    earlier = [[trace.block_ranges[j] for j in c.selected] for c in trace.chunks]
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
