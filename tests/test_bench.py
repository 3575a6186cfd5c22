"""Cost model arithmetic and small-scale profiling behavior."""


import numpy as np
import pytest

from spanattn.bench import (
    CostModelInput,
    _openblas_threads,
    _single_thread_region,
    analytic_cost,
    loglog_slope,
    profile_step,
    run_profile_grid,
    write_profile_csv,
)
from spanattn.errors import ConfigError


def test_degenerate_single_chunk_cost_is_full_order():
    # one chunk covering everything and blocks as large as the sequence:
    # d*(L*L + L*L + L) ~ 2*d*L^2, the same order as full attention
    L, d = 64, 8
    est = analytic_cost(CostModelInput(variant="se", L=L, M=L, S=L, k=1, d_model=d))
    assert est.ops == d * (L * L + L * L + L)
    full = analytic_cost(CostModelInput(variant="full", L=L, d_model=d)).ops
    assert 1.0 <= est.ops / full <= 2.5


def test_published_arithmetic_example():
    est = analytic_cost(CostModelInput(variant="se", L=8192, M=2048, S=32, k=8, d_model=64))
    assert est.ops == 1_224_736_768
    assert est.bound_ok


def test_ratio_to_full_grows_monotonically_in_length():
    prev = 0.0
    for L in (512, 1024, 2048, 4096, 8192, 16384):
        se = analytic_cost(CostModelInput(variant="se", L=L, M=128, S=32, k=4, d_model=32)).ops
        full = analytic_cost(CostModelInput(variant="full", L=L, d_model=32)).ops
        ratio = full / se
        assert ratio > prev
        prev = ratio


def test_bound_assumption_flagged():
    est = analytic_cost(CostModelInput(variant="se", L=1024, M=64, S=32, k=4, d_model=32))
    assert not est.bound_ok and "bound" in est.note


def test_other_variant_costs():
    assert analytic_cost(CostModelInput(variant="full", L=100, d_model=7)).ops == 7 * 100 * 100
    assert analytic_cost(CostModelInput(variant="sw", L=100, window=30, d_model=7)).ops == 7 * 100 * 30
    assert analytic_cost(CostModelInput(variant="nomem", L=100, M=20, S=10, d_model=7)).ops == 7 * 100 * 20


def test_every_se_variant_but_nomem_costs_as_se():
    se = analytic_cost(CostModelInput(variant="se", L=512, M=64, S=16, k=4, d_model=8)).ops
    for name in ("se-random", "se-lm"):
        assert analytic_cost(CostModelInput(variant=name, L=512, M=64, S=16, k=4, d_model=8)).ops == se
    assert analytic_cost(CostModelInput(variant="nomem", L=512, M=64, S=16, k=4, d_model=8)).ops == 8 * 512 * 64


def test_random_and_landmark_retrieval_profile():
    records = run_profile_grid(["se-random", "se-lm"], [64], d=8, d_model=8, M=16, S=8, k=2, reps=5,
                               measure_memory=False)
    assert [r.variant for r in records] == ["se-random", "se-lm"]
    assert all(r.graph_nodes > 0 and r.median_s > 0.0 for r in records)


def test_invalid_inputs_rejected():
    with pytest.raises(ConfigError):
        CostModelInput(variant="flash", L=128)
    with pytest.raises(ConfigError, match="not available"):
        CostModelInput(variant="s2", L=128)
    with pytest.raises(ConfigError):
        CostModelInput(variant="se", L=128, M=0, S=32)
    with pytest.raises(ConfigError):
        profile_step("full", L=64, reps=3)


def test_profile_smoke_all_variants():
    for variant in ("full", "sw", "nomem", "se"):
        rec = profile_step(variant, L=64, d=8, d_model=8, M=16, S=8, k=2, window=16, reps=5, warmup=1)
        assert rec.median_s > 0.0
        assert rec.min_s <= rec.median_s <= rec.max_s
        assert rec.peak_bytes > 0
        assert not rec.oom


def test_single_chunk_profile_within_factor_two_of_full():
    L = 256
    full = profile_step("full", L=L, d=16, d_model=16, reps=5, warmup=2, measure_memory=False)
    se = profile_step("se", L=L, d=16, d_model=16, M=L, S=32, k=2, reps=5, warmup=2, measure_memory=False)
    assert se.median_s < 2.0 * full.median_s


def test_out_of_memory_becomes_capped_record(monkeypatch):
    import spanattn.bench as bench_mod

    def exploding(*args, **kwargs):
        def step(_):
            raise MemoryError("simulated")

        return step

    monkeypatch.setattr(bench_mod, "_make_step", exploding)
    rec = bench_mod.profile_step("full", L=64, d=8, d_model=8, reps=5)
    assert rec.oom
    assert np.isnan(rec.median_s) and rec.peak_bytes == -1
    assert rec.analytic_ops == 8 * 64 * 64  # estimate still recorded


def test_profile_csv_round_trip(tmp_path):
    records = run_profile_grid(["full", "se"], [32, 64], d=8, d_model=8, M=16, S=8, k=2, window=16, reps=5)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, records)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "variant,L,M,S,k,median_s,min_s,max_s,peak_bytes,analytic_ops,graph_nodes"
    assert len(lines) == 5


def test_loglog_slope_recovers_power():
    lengths = [256, 512, 1024, 2048]
    times = [1e-6 * L**2 for L in lengths]
    np.testing.assert_allclose(loglog_slope(lengths, times), 2.0, atol=1e-9)


def test_single_thread_region_pins_openblas_and_restores_its_count():
    api = _openblas_threads()
    if api is None:
        with _single_thread_region() as threads:
            assert threads is None
        return
    get, set_ = api
    original = get()
    set_(2)  # a count to restore other than the pin itself, where the build allows it
    before = get()
    try:
        with _single_thread_region() as threads:
            assert threads == get() == 1
        assert get() == before
    finally:
        set_(original)
