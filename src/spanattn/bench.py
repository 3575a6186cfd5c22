"""Analytic cost model and wall-clock/peak-memory profiling of attention variants.

One profiled step = forward + backward + optimizer update of a single
attention layer on a random sequence, which keeps the scaling signal clean
of unrelated model costs. Timing uses the median over >= 5 repetitions,
interleaved across a grid's points, each timed step right after a step of
its own point (warm-up steps when the grid has just switched to it); the
measured region is pinned to one thread of the loaded
OpenBLAS, set and confirmed through its own C API. Peak memory is sampled
with tracemalloc (numpy buffers are traced) in a separate pass so the
instrumentation never pollutes the timings.
"""

from __future__ import annotations

import csv
import ctypes
import time
import tracemalloc
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .attention import AttentionParams
from .errors import ConfigError
from .model import AdamW, AttentionSetting, variant_kind
from .tensor import Tensor, backward, mul, sum_all

PROFILE_CSV_FIELDS = (
    "variant", "L", "M", "S", "k", "median_s", "min_s", "max_s", "peak_bytes", "analytic_ops", "graph_nodes",
)


@dataclass
class CostModelInput:
    variant: str  # an ``ATTENTION_VARIANTS`` name
    L: int
    M: int = 0
    S: int = 0
    k: int = 0
    d_model: int = 1
    window: int = 0

    def __post_init__(self):
        kind, _ = variant_kind(self.variant)
        if self.L < 1 or self.d_model < 1:
            raise ConfigError("L and d_model must be positive")
        if kind == "se" and (self.M < 1 or self.S < 1):
            raise ConfigError("chunked variants need M and S")
        if kind == "sw" and self.window < 1:
            raise ConfigError("sw needs a window")


@dataclass
class CostEstimate:
    ops: float
    bound_ok: bool = True  # the S*k <= M assumption behind the chunk-stage bound
    note: str = ""


def analytic_cost(inp):
    """Multiply-accumulate count per variant, constants fixed at 1.

    The span-expanded cost is the sum of its three stages: block
    summarization d*L*S, relevancy scoring d*L^2/S, and chunk attention
    d*L*M. Every SE variant but nomem costs the same; nomem, which
    retrieves nothing, costs chunk attention alone.
    """
    d, L = float(inp.d_model), float(inp.L)
    kind, se_variant = variant_kind(inp.variant)
    if kind == "full":
        return CostEstimate(ops=d * L * L)
    if kind == "sw":
        return CostEstimate(ops=d * L * min(inp.window, inp.L))
    if se_variant == "nomem":
        return CostEstimate(ops=d * L * inp.M)
    ops = d * (L * inp.S + L * inp.M + L * L / inp.S)
    bound_ok = inp.S * inp.k <= inp.M
    note = "" if bound_ok else "S*k >= M violates the chunk-stage bound assumption"
    return CostEstimate(ops=ops, bound_ok=bound_ok, note=note)


@dataclass
class ProfileRecord:
    variant: str
    L: int
    M: int
    S: int
    k: int
    median_s: float
    min_s: float
    max_s: float
    peak_bytes: int
    reps: int
    analytic_ops: float
    graph_nodes: int = -1  # autodiff nodes one step's backward replayed
    oom: bool = False

    def csv_row(self):
        return {
            "variant": self.variant,
            "L": self.L,
            "M": self.M,
            "S": self.S,
            "k": self.k,
            "median_s": f"{self.median_s:.6f}",
            "min_s": f"{self.min_s:.6f}",
            "max_s": f"{self.max_s:.6f}",
            "peak_bytes": self.peak_bytes,
            "analytic_ops": f"{self.analytic_ops:.0f}",
            "graph_nodes": self.graph_nodes,
        }


# (getter, setter) names across OpenBLAS builds: numpy's bundled scipy-openblas, then a system one
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS this process loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_API:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _single_thread_region():
    """Pin the loaded OpenBLAS to one thread; yields the count its getter then
    reports (None when no OpenBLAS is found) and restores the old count on exit."""
    api = _openblas_threads()
    if api is None:
        yield None
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield get()
    finally:
        set_(before)


def _make_step(variant, L, d, d_model, heads, M, S, k, window, seed):
    params = AttentionParams.random(d, d_model, head_count=heads, seed=seed, dtype=np.float32, requires_grad=True)
    rng = np.random.default_rng(seed + 1)
    x = Tensor(rng.standard_normal((L, d)).astype(np.float32))
    opt = AdamW(params.matrices(), lr=1e-4)
    setting = AttentionSetting.named(
        variant, window=window, chunk_sizes=(min(M, L),), block_size=min(S, L), top_k=k, seed=seed
    )

    def one_step(step_index):
        """One training step; returns the number of graph nodes its backward replayed."""
        opt.zero_grad()
        out, _ = setting.attend(x, params, rng=np.random.default_rng([seed, step_index]))
        nodes = backward(sum_all(mul(out, out)))
        opt.step()
        return nodes

    return one_step


def profile_step(variant, L, d=32, d_model=32, heads=1, M=128, S=32, k=4, window=1024,
                 reps=5, warmup=1, seed=0, measure_memory=True):
    """Median/min/max wall time of one training step plus its peak heap bytes,
    timed over ``reps`` steps back to back after ``warmup`` untimed ones.

    Out-of-memory shows up as a capped record (NaN timings, -1 bytes)
    rather than an exception.
    """
    return run_profile_grid([variant], [L], d=d, d_model=d_model, heads=heads, M=M, S=S, k=k, window=window,
                            reps=reps, warmup=warmup, seed=seed, measure_memory=measure_memory)[0]


def run_profile_grid(variants, lengths, d=32, d_model=32, heads=1, M=128, S=32, k=4,
                     window=1024, reps=5, warmup=1, seed=0, measure_memory=True):
    """One ``profile_step`` record per (variant, L), in that order.

    The repetitions run round-robin across the points, so a slow spell of
    the host spreads over every point instead of bending one variant's
    slope. A timed step always follows a step of its own point: the
    ``warmup`` untimed ones whenever the grid has just moved to this point,
    so it runs on warm caches, as back to back, and not on what the previous
    point left. A grid of one point therefore warms up once and times its
    repetitions back to back. Peak memory is then sampled point by point.
    """
    if reps < 5:
        raise ConfigError("profile records need at least 5 repetitions")
    points = [(variant, L) for variant in variants for L in lengths]
    estimates = {
        pt: analytic_cost(CostModelInput(variant=pt[0], L=pt[1], M=M, S=S, k=k, d_model=d_model, window=window))
        for pt in points
    }
    steps, times, nodes, peaks, done = {}, {pt: [] for pt in points}, {}, {}, dict.fromkeys(points, 0)
    for pt in points:
        with suppress(MemoryError):
            steps[pt] = _make_step(*pt, d, d_model, heads, M, S, k, window, seed)

    def run(pt):
        done[pt] += 1
        return steps[pt](done[pt] - 1)

    last = None
    with _single_thread_region():
        for _ in range(reps):
            for pt in list(steps):
                try:
                    if pt != last:
                        for _ in range(warmup):
                            run(pt)
                        last = pt
                    t0 = time.perf_counter()
                    nodes[pt] = run(pt)
                    times[pt].append(time.perf_counter() - t0)
                except MemoryError:
                    del steps[pt]
    for pt in list(steps) if measure_memory else ():
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            run(pt)
            peaks[pt] = tracemalloc.get_traced_memory()[1]
        except MemoryError:
            del steps[pt]
        finally:
            tracemalloc.stop()
    records = []
    for pt in points:
        variant, L = pt
        common = dict(variant=variant, L=L, M=M, S=S, k=k, reps=reps, analytic_ops=estimates[pt].ops)
        if pt in steps:
            t = times[pt]
            records.append(ProfileRecord(
                **common, median_s=float(np.median(t)), min_s=float(min(t)), max_s=float(max(t)),
                peak_bytes=int(peaks.get(pt, 0)), graph_nodes=nodes[pt],
            ))
        else:
            nan = float("nan")
            records.append(ProfileRecord(**common, median_s=nan, min_s=nan, max_s=nan, peak_bytes=-1, oom=True))
    return records


def write_profile_csv(path, records):
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=PROFILE_CSV_FIELDS)
        writer.writeheader()
        for r in records:
            writer.writerow(r.csv_row())


def loglog_slope(lengths, times):
    """Least-squares slope of log(time) against log(L)."""
    return float(np.polyfit(np.log(np.asarray(lengths, dtype=float)), np.log(np.asarray(times, dtype=float)), 1)[0])
