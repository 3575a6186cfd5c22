"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 8 and 9 train models / time kernels and dominate the
suite's runtime; everything else is seconds.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from spanattn.attention import (
    AdditiveMask,
    AttentionParams,
    full_attention,
    masked_oracle_attention,
    sliding_window_attention,
)
from spanattn.bench import CostModelInput, analytic_cost, loglog_slope, profile_step, run_profile_grid
from spanattn.model import (
    AdamW,
    AttentionSetting,
    HybridModel,
    ModelConfig,
    SSMLayer,
    greedy_generate,
    model_forward,
    train_step,
)
from spanattn.ops import causal_conv1d, cross_entropy_logits
from spanattn.se_attn import (
    SEAttnConfig,
    landmark_vector,
    relevancy_scores,
    se_attn_forward,
    select_top_k,
    summarize_blocks,
    trace_pattern,
)
from spanattn.tensor import Tensor, backward


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def make_x(length, d, seed, dtype=np.float64):
    rng = np.random.default_rng(seed + 90_000)
    return Tensor(rng.standard_normal((length, d)).astype(dtype))


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst = {np.float32: 0.0, np.float64: 0.0}
    count = 0
    for heads in (1, 4):
        for seed in range(50):
            for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-10)):
                p = AttentionParams.random(8, 8, head_count=heads, seed=seed, dtype=dtype)
                x = make_x(64, 8, seed, dtype=dtype)
                cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, seed=seed)
                out, trace = se_attn_forward(x, p, cfg)
                want = masked_oracle_attention(x, p, trace_pattern(trace))
                diff = float(np.max(np.abs(out.data - want.data)))
                worst[dtype] = max(worst[dtype], diff)
                assert diff < tol, f"seed {seed} heads {heads} dtype {dtype}: {diff}"
            count += 1
    elapsed = time.time() - t0
    ok = worst[np.float32] < 1e-5 and worst[np.float64] < 1e-10 and elapsed < 10.0
    report(1, ok, f"{count} instances; max diff f32 {worst[np.float32]:.2e}, f64 {worst[np.float64]:.2e}, {elapsed:.1f}s")


def test_criterion_2_degenerate_equivalences():
    worst = {"single_chunk": 0.0, "k_zero": 0.0, "window_sat": 0.0}
    for seed in range(50):
        p = AttentionParams.random(8, 8, head_count=2, seed=seed, dtype=np.float64)
        x = make_x(32, 8, seed)

        out, _ = se_attn_forward(x, p, SEAttnConfig(chunk_sizes=(32,), memory_block_size=8, top_k=2, seed=seed))
        worst["single_chunk"] = max(worst["single_chunk"], float(np.max(np.abs(out.data - full_attention(x, p).data))))

        out, _ = se_attn_forward(x, p, SEAttnConfig(chunk_sizes=(8,), memory_block_size=4, top_k=0, seed=seed))
        nomem = masked_oracle_attention(x, p, AdditiveMask.block_diagonal_causal(32, 8, dtype=np.float64))
        worst["k_zero"] = max(worst["k_zero"], float(np.max(np.abs(out.data - nomem.data))))

        sw = sliding_window_attention(x, p, window=32 + seed % 5)
        worst["window_sat"] = max(worst["window_sat"], float(np.max(np.abs(sw.data - full_attention(x, p).data))))
    ok = all(v < 1e-6 for v in worst.values())
    report(2, ok, "M=L, k=0, window>=L each within 1e-6 over 50 seeds: " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_3_causality_suite():
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(seed + 400)
        p = AttentionParams.random(8, 8, head_count=2, seed=seed, dtype=np.float64)
        x_data = rng.standard_normal((48, 8))
        t = int(rng.integers(1, 48))

        # chunk granularity for the span-expanded forward
        cfg = SEAttnConfig(chunk_sizes=(12,), memory_block_size=4, top_k=2, seed=seed)
        base, _ = se_attn_forward(Tensor(x_data.copy()), p, cfg)
        bumped = x_data.copy()
        bumped[t] += rng.standard_normal(8)
        out, _ = se_attn_forward(Tensor(bumped), p, cfg)
        boundary = (t // 12) * 12
        assert (out.data[:boundary] == base.data[:boundary]).all(), f"se chunk causality seed {seed}"

        # token granularity for the dense variants
        for fn in (
            lambda v: full_attention(Tensor(v), p).data,
            lambda v: sliding_window_attention(Tensor(v), p, window=7).data,
            lambda v: se_attn_forward(Tensor(v), p, SEAttnConfig(chunk_sizes=(12,), memory_block_size=4,
                                                                 variant="nomem", seed=seed))[0].data,
        ):
            assert (fn(bumped)[:t] == fn(x_data)[:t]).all(), f"token causality seed {seed}"

        # conv and SSM block
        kernel = Tensor(rng.standard_normal((3, 8)))
        bias = Tensor(rng.standard_normal(8))
        a = causal_conv1d(Tensor(x_data.copy()), kernel, bias).data
        b = causal_conv1d(Tensor(bumped), kernel, bias).data
        assert (a[:t] == b[:t]).all()

        layer = SSMLayer(ModelConfig(layers=1, d=8, d_model=8, heads=1, blend_ratio=0, vocab=16, dtype="float64"),
                         np.random.default_rng(seed))
        sa = layer.forward(Tensor(x_data.copy())).data
        sb = layer.forward(Tensor(bumped)).data
        assert (sa[:t] == sb[:t]).all()
        checked += 1
    report(3, checked == 50, f"{checked} seeds, exact prefix equality for se/full/sw/nomem/conv/ssm")


def _stable_se_seed(model_cfg, setting, tokens):
    """Margin between the k-th and (k+1)-th relevancy score exceeds 1e-3."""
    model = HybridModel(model_cfg)
    _, traces = model_forward(model, tokens, setting, step=0, collect_traces=True)
    k = setting.se_cfg.top_k
    for _, tr in traces:
        for c in tr.chunks:
            past = [j for j, (_, stop) in enumerate(tr.block_ranges) if stop <= c.start]
            if len(past) > k:
                scores = np.sort(np.asarray(c.scores)[past])[::-1]
                if scores[k - 1] - scores[k] <= 1e-3:
                    return False
    return True


def test_criterion_4_gradient_suite():
    t0 = time.time()
    setting = AttentionSetting(
        kind="se", se_cfg=SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=1, seed=3)
    )
    rng = np.random.default_rng(77)
    tokens = rng.integers(0, 32, size=33)
    seed = next(
        s for s in range(20)
        if _stable_se_seed(
            ModelConfig(layers=2, d=16, d_model=16, heads=2, blend_ratio=1, vocab=32, seed=s, dtype="float64"),
            setting, tokens[:-1],
        )
    )
    cfg = ModelConfig(layers=2, d=16, d_model=16, heads=2, blend_ratio=1, vocab=32, seed=seed, dtype="float64")
    model = HybridModel(cfg)

    def loss_value():
        logits = model_forward(model, tokens[:-1], setting, step=0)
        return cross_entropy_logits(logits, tokens[1:]).item()

    for p in model.named_parameters().values():
        p.zero_grad()
    backward(cross_entropy_logits(model_forward(model, tokens[:-1], setting, step=0), tokens[1:]))

    h = 1e-5
    checked = 0
    worst = 0.0
    picker = np.random.default_rng(5)
    for name, p in model.named_parameters().items():
        flat = p.data.reshape(-1)
        gflat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for c in picker.choice(flat.size, size=min(8, flat.size), replace=False):
            orig = flat[c]
            flat[c] = orig + h
            fp = loss_value()
            flat[c] = orig - h
            fm = loss_value()
            flat[c] = orig
            fd = (fp - fm) / (2 * h)
            if abs(gflat[c]) > 1e-8:
                rel = abs(gflat[c] - fd) / max(abs(fd), 1e-12)
                worst = max(worst, rel)
                assert rel < 1e-4, f"{name}[{c}]: rel err {rel:.2e}"
                checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(4, ok, f"{checked} sampled coordinates across every tensor; worst rel err {worst:.2e}; {elapsed:.1f}s")


def test_criterion_5_retrieval_semantics():
    rng = np.random.default_rng(2024)
    n_traces = 0
    for trial in range(1000):
        length = int(rng.integers(12, 80))
        s = int(rng.integers(2, 9))
        k = int(rng.integers(0, 5))
        m = int(rng.integers(s, max(s + 1, length)))
        variant = ("standard", "random", "landmark")[trial % 3]
        p = AttentionParams.random(4, 4, head_count=1, seed=trial % 17, dtype=np.float64)
        x = make_x(length, 4, trial)
        cfg = SEAttnConfig(chunk_sizes=(m,), memory_block_size=s, top_k=k, variant=variant, seed=trial)
        _, trace = se_attn_forward(x, p, cfg)
        assert trace.chunks[0].selected == [] and (trace.chunks[0].no_past or k == 0)
        for c in trace.chunks:
            past = [j for j, (_, stop) in enumerate(trace.block_ranges) if stop <= c.start]
            assert len(c.selected) == min(k, len(past))
            assert len(set(c.selected)) == len(c.selected)
            assert c.selected == sorted(c.selected)
            assert all(trace.block_ranges[j][1] <= c.start for j in c.selected)
        n_traces += 1

    # uniform-without-replacement statistics of the random variant
    draw_rng = np.random.default_rng(7)
    u, k = 8, 2
    counts = np.zeros(u)
    for row in select_top_k(np.zeros((10_000, u)), np.ones((10_000, u), dtype=bool), k, variant="random", rng=draw_rng):
        for j in row:
            counts[j] += 1
    p_value = stats.chisquare(counts).pvalue
    ok = n_traces == 1000 and p_value > 0.01
    report(5, ok, f"{n_traces} legal traces; random-selection chi-squared p={p_value:.3f}")


def test_criterion_6_relevancy_math():
    worst_rel, worst_sum, worst_lm = 0.0, 0.0, 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed + 60)
        m, u, dm = int(rng.integers(2, 8)), int(rng.integers(2, 7)), 8
        q = rng.standard_normal((m, dm))
        summaries = rng.standard_normal((u, dm))
        retrievable = rng.random(u) < 0.7
        retrievable[int(rng.integers(u))] = True
        probs = relevancy_scores(q, np.array([0]), summaries, retrievable[None, :], dm)[0]
        raw = np.array([sum(q[t] @ summaries[j] for t in range(m)) for j in range(u)])
        masked = np.where(retrievable, raw, -np.inf) / math.sqrt(dm)
        e = np.exp(masked - masked[retrievable].max())
        worst_rel = max(worst_rel, float(np.max(np.abs(probs - e / e.sum()))))

        q_mem, k_mem, v_mem = (rng.standard_normal((12, dm)) for _ in range(3))
        lm = landmark_vector(dm, seed=seed)
        got = summarize_blocks(q_mem, k_mem, v_mem, 4, dm)
        got_lm = summarize_blocks(q_mem, k_mem, v_mem, 4, dm, landmark=lm)
        for j, lo in enumerate(range(0, 12, 4)):
            rows = np.zeros((4, dm))
            for t in range(lo, lo + 4):
                logits = np.array([q_mem[t] @ k_mem[s2] for s2 in range(lo, lo + 4)]) / math.sqrt(dm)
                w = np.exp(logits - logits.max())
                w /= w.sum()
                rows[t - lo] = w @ v_mem[lo : lo + 4]
            worst_sum = max(worst_sum, float(np.max(np.abs(got[j] - rows.mean(axis=0)))))

            logits = np.array([lm @ k_mem[s2] for s2 in range(lo, lo + 4)]) / math.sqrt(dm)
            w = np.exp(logits - logits.max())
            w /= w.sum()
            worst_lm = max(worst_lm, float(np.max(np.abs(got_lm[j] - w @ v_mem[lo : lo + 4]))))
    ok = worst_rel < 1e-6 and worst_sum < 1e-6 and worst_lm < 1e-6
    report(6, ok, f"relevancy {worst_rel:.2e}, summary {worst_sum:.2e}, landmark {worst_lm:.2e} vs direct formulas")


def test_criterion_7_hylora_accounting():
    from spanattn.adaptation import (
        AdapterPolicy,
        apply_policy,
        expected_trainable_count,
        merge_adapters,
    )

    cfg_kw = dict(layers=4, d=16, d_model=16, heads=2, blend_ratio=1, vocab=32, seed=0)

    def fresh():
        return HybridModel(ModelConfig(dtype="float64", **cfg_kw))

    sets = {}
    for name in ("lora", "lora_plus", "hylora"):
        model = fresh()
        sets[name] = set(apply_policy(model, AdapterPolicy(policy=name, rank=8))["trainable"])
    nesting = sets["lora"] < sets["lora_plus"] < sets["hylora"]
    plus_adds = sets["lora_plus"] - sets["lora"]
    hy_adds = sets["hylora"] - sets["lora_plus"]
    additions_ok = (
        all(("norm" in n) or (n == "embedding") for n in plus_adds)
        and any(n == "embedding" for n in plus_adds)
        and all("conv" in n for n in hy_adds)
        and hy_adds
    )

    model = fresh()
    tokens = np.arange(12) % 32
    before = model_forward(model, tokens, AttentionSetting(kind="full")).data.copy()
    apply_policy(model, AdapterPolicy(policy="hylora", rank=8))
    no_op = (model_forward(model, tokens, AttentionSetting(kind="full")).data == before).all()

    model32 = HybridModel(ModelConfig(dtype="float32", **cfg_kw))
    apply_policy(model32, AdapterPolicy(policy="hylora", rank=8, alpha=16.0))
    opt = AdamW(model32.trainable_parameters(), lr=5e-3)
    rng = np.random.default_rng(1)
    for step in range(15):
        train_step(model32, [rng.integers(0, 32, size=14) for _ in range(2)], opt,
                   AttentionSetting(kind="full"), step=step)
    inputs = [rng.integers(0, 32, size=12) for _ in range(20)]
    adapted = [model_forward(model32, t, AttentionSetting(kind="full")).data.copy() for t in inputs]
    merge_adapters(model32)
    merge_diff = max(
        float(np.max(np.abs(model_forward(model32, t, AttentionSetting(kind="full")).data - w)))
        for t, w in zip(inputs, adapted)
    )

    counts_ok = True
    for rank in (8, 16, 32, 64):
        for name in ("lora", "lora_plus", "hylora"):
            model = fresh()
            policy = AdapterPolicy(policy=name, rank=rank, alpha=2.0 * rank)
            apply_policy(model, policy)
            got = sum(p.size for p in model.trainable_parameters().values())
            counts_ok &= got == expected_trainable_count(model.config, policy)

    ok = nesting and additions_ok and no_op and merge_diff < 1e-5 and counts_ok
    report(7, ok, f"lora < lora+ < hylora nesting={nesting}, fresh no-op={no_op}, "
                  f"merge diff {merge_diff:.2e}, closed-form counts over ranks 8/16/32/64 with alpha/r=2: {counts_ok}")


# ---------------------------------------------------------------------------
# criterion 8: desk-scale ablation ordering. Mirrors the paper's protocol: a
# base model is first trained with full attention on short contexts until its
# short-range recall enters a working band (consolidated but not saturated),
# then adapted on longer contexts with each retrieval variant; recall is
# evaluated with full attention (the package's eval default).

ABL = dict(
    d=64, heads=4, layers=4, blend_ratio=1,
    pre_ctx=144, pre_seq=208, pre_lr=2e-3,
    # the pretrain stops at the first probe where recall at a context longer
    # than the pretrain length crosses the threshold: the base then has a
    # distance-generalizing circuit with room left for adaptation to matter
    band_probe_ctx=192, band_lo=30.0,
    band_min_steps=1000, band_cap=2600, band_every=100, band_probe_n=16,
    ft_ctx=192, ft_seq=256, ft_steps=400, ft_lr=1e-3,
    batch=4, chunk=64, block=16, top_k=4,
    eval_n=48, seeds=(0, 1, 2),
)


def _ablation_setting(variant, seed):
    se_variant = {"se": "standard", "random": "random", "nomem": "nomem"}[variant]
    return AttentionSetting(
        kind="se",
        se_cfg=SEAttnConfig(
            chunk_sizes=(ABL["chunk"],),
            memory_block_size=ABL["block"],
            top_k=0 if variant == "nomem" else ABL["top_k"],
            variant=se_variant,
            seed=seed,
        ),
    )


def _supervised(inst, seq_len):
    from spanattn.vocab import EOS_ID, PAD_ID, encode

    toks = encode(inst.supervised_text()) + [EOS_ID]
    return np.asarray(toks + [PAD_ID] * (seq_len - len(toks)))


def _niah_batch(ctx, seq_len, seed, step, batch):
    from spanattn.evalgen import generate_task

    return [
        _supervised(generate_task("niah_single_1", ctx, seed=seed * 1_000_000 + step * 100 + i), seq_len)
        for i in range(batch)
    ]


def _full_attn_recall(model, ctx, n, seed0):
    from spanattn.evalgen import generate_task, score_recall
    from spanattn.vocab import EOS_ID, decode

    setting = AttentionSetting(kind="full")
    recalls = []
    for i in range(n):
        inst = generate_task("niah_single_1", ctx, seed=seed0 + i)
        gen = greedy_generate(model, np.asarray(inst.tokens()), setting,
                              max_new_tokens=inst.answer_budget(), stop_id=EOS_ID)
        recalls.append(score_recall(decode(gen), inst))
    return 100.0 * float(np.mean(recalls))


def _pretrain_to_band(cfg, seed):
    """Full-attention pretraining until longer-context recall enters the band."""
    base = HybridModel(cfg)
    opt = AdamW(base.trainable_parameters(), lr=ABL["pre_lr"], beta2=0.98)
    step = 0
    while step < ABL["band_cap"]:
        batch = _niah_batch(ABL["pre_ctx"], ABL["pre_seq"], seed, step, ABL["batch"])
        train_step(base, batch, opt, AttentionSetting(kind="full"), step=step)
        step += 1
        if step >= ABL["band_min_steps"] and step % ABL["band_every"] == 0:
            r = _full_attn_recall(base, ABL["band_probe_ctx"], ABL["band_probe_n"], seed0=555_000)
            if r >= ABL["band_lo"]:
                return base, step, r
    return base, step, _full_attn_recall(base, ABL["band_probe_ctx"], ABL["band_probe_n"], seed0=555_000)


@pytest.mark.slow  # about 10 minutes of CPU
def test_criterion_8_ablation_ordering():
    t0 = time.time()
    results = {"se": [], "random": [], "nomem": []}
    for seed in ABL["seeds"]:
        cfg = ModelConfig(layers=ABL["layers"], d=ABL["d"], d_model=ABL["d"], heads=ABL["heads"],
                          blend_ratio=ABL["blend_ratio"], vocab=258, seed=seed, dtype="float32")
        base, pre_steps, base_recall = _pretrain_to_band(cfg, seed)
        print(f"  seed {seed}: base ready at step {pre_steps} (recall@{ABL['band_probe_ctx']} {base_recall:.0f}), "
              f"{time.time()-t0:.0f}s")
        snapshot = {k: p.data.copy() for k, p in base.named_parameters().items()}

        for variant in ("se", "random", "nomem"):
            model = HybridModel(cfg)
            for name, p in model.named_parameters().items():
                p.data = snapshot[name].copy()
            opt2 = AdamW(model.trainable_parameters(), lr=ABL["ft_lr"], beta2=0.98)
            setting = _ablation_setting(variant, seed)
            for step in range(ABL["ft_steps"]):
                batch = _niah_batch(ABL["ft_ctx"], ABL["ft_seq"], seed + 50, step, ABL["batch"])
                train_step(model, batch, opt2, setting, step=step)
            for p in model.named_parameters().values():
                p.requires_grad = False
            recall = _full_attn_recall(model, ABL["ft_ctx"], ABL["eval_n"], seed0=9_000_000 + seed * 10_000)
            results[variant].append(recall)
            print(f"  seed {seed} {variant}: recall {recall:.1f} ({time.time()-t0:.0f}s)")

    med = {v: float(np.median(r)) for v, r in results.items()}
    elapsed = time.time() - t0
    ok = med["se"] >= med["random"] >= med["nomem"] and med["se"] - med["nomem"] >= 10.0 and elapsed < 1800
    report(8, ok, f"median recall se={med['se']:.1f} random={med['random']:.1f} nomem={med['nomem']:.1f} "
                  f"(per-seed {results}); {elapsed/60:.1f} min")


def test_criterion_9_cost_model_and_profiling():
    example = analytic_cost(CostModelInput(variant="se", L=8192, M=2048, S=32, k=8, d_model=64))
    arithmetic_ok = example.ops == 1_224_736_768

    lengths = [256, 512, 1024, 2048, 4096]
    records = run_profile_grid(["full", "se"], lengths, d=32, d_model=32, heads=1,
                               M=128, S=32, k=4, reps=5, seed=0)
    full = {r.L: r for r in records if r.variant == "full"}
    se = {r.L: r for r in records if r.variant == "se"}
    slope_full = loglog_slope(lengths, [full[L].median_s for L in lengths])
    slope_se = loglog_slope(lengths, [se[L].median_s for L in lengths])
    crossover_ok = se[4096].median_s < full[4096].median_s
    ratios = [full[L].median_s / se[L].median_s for L in lengths]
    rho = float(stats.spearmanr(lengths, ratios).statistic)
    memory_ok = se[4096].peak_bytes <= full[4096].peak_bytes

    sw = profile_step("sw", L=4096, d=32, d_model=32, heads=1, window=1024, reps=5, seed=0)
    sw_memory_ok = se[4096].peak_bytes <= 1.5 * sw.peak_bytes

    analytic_order_ok = all(
        analytic_cost(CostModelInput(variant="se", L=L, M=128, S=32, k=4, d_model=32)).ops
        < analytic_cost(CostModelInput(variant="full", L=L, d_model=32)).ops
        for L in lengths[1:]
    )

    ok = (
        arithmetic_ok
        and 1.6 <= slope_full <= 2.4
        and 0.8 <= slope_se <= 1.6
        and crossover_ok
        and rho > 0.8
        and memory_ok
        and sw_memory_ok
        and analytic_order_ok
    )
    report(9, ok, f"appendix example exact={arithmetic_ok}; slopes full={slope_full:.2f} (in [1.6,2.4]), "
                  f"se={slope_se:.2f} (in [0.8,1.6]); time(se)<time(full)@4096={crossover_ok} "
                  f"({full[4096].median_s:.2f}s vs {se[4096].median_s:.2f}s); spearman(ratio,L)={rho:.2f}; "
                  f"peak(se)<=peak(full)={memory_ok}, peak(se)<=1.5*peak(sw)={sw_memory_ok}")


def test_criterion_10_generator_self_consistency():
    import re

    from spanattn.evalgen import (
        ALL_RULER_TASKS,
        NIAH_TASKS,
        RULER_GROUPS,
        NIAHSpec,
        gen_niah,
        gen_niah_task,
        gen_variable_tracking,
        gen_words_extraction,
    )

    needle_re = re.compile(r"The special magic value for ([\w-]+) is ([\w-]+)\. ")
    vt_re = re.compile(r"VAR (\w+) = (\w+)\. ")
    n_checked = 0

    for name in sorted(NIAH_TASKS):
        length = 768 if name == "niah_multikey_3" else 512
        for seed in range(1000):
            inst = gen_niah_task(name, context_length=length, seed=seed)
            pairs = {}
            for key, value in needle_re.findall(inst.text[: inst.query_position]):
                pairs.setdefault(key, []).append(value)
            got = sorted(v for k in inst.meta["queried"] for v in pairs[k])
            assert got == sorted(inst.answers), f"{name} seed {seed}"
        n_checked += 1

    for seed in range(1000):
        inst = gen_variable_tracking(chains=1, hops=4, context_length=512, seed=seed)
        env = dict(vt_re.findall(inst.text[: inst.query_position]))

        def resolve(nm):
            seen = set()
            while nm in env and nm not in seen:
                seen.add(nm)
                nm = env[nm]
            return nm

        got = sorted(nm for nm in env if resolve(nm) == inst.meta["value"])
        assert got == sorted(inst.answers), f"vt seed {seed}"
    n_checked += 1

    for kind, task_len in (("common", 4096), ("frequent", 2048)):
        for seed in range(1000):
            inst = gen_words_extraction(kind, context_length=task_len, seed=seed)
            counts = {}
            for w in inst.text[: inst.query_position].split():
                counts[w] = counts.get(w, 0) + 1
            top = sorted(counts, key=lambda w: (-counts[w], w))[: len(inst.answers)]
            assert sorted(top) == inst.answers, f"{kind} seed {seed}"
        n_checked += 1

    counts = None
    n_slots = None
    for seed in range(1000):
        spec = NIAHSpec("repeat", "uuids", "numbers", 1, 1, 1, context_length=1024, seed=seed)
        inst = gen_niah(spec)
        if counts is None:
            n_slots = inst.meta["n_slots"]
            counts = np.zeros(n_slots)
        assert inst.meta["n_slots"] == n_slots
        counts[inst.meta["slots"][0]] += 1
    p_uniform = stats.chisquare(counts).pvalue

    groups_ok = (
        RULER_GROUPS["niah_s"] == ("niah_single_1", "niah_single_2", "niah_single_3")
        and RULER_GROUPS["niah_m"] == ("niah_multikey_1", "niah_multikey_2", "niah_multikey_3")
        and RULER_GROUPS["niah_m_qv"] == ("niah_multivalue", "niah_multiquery")
        and RULER_GROUPS["vt"] == ("vt",)
        and RULER_GROUPS["cf_we"] == ("cwe", "fwe")
        and len(ALL_RULER_TASKS) == 11
    )
    ok = n_checked == 11 and p_uniform > 0.01 and groups_ok
    report(10, ok, f"11 generators x 1000 seeds oracle-consistent; slot uniformity p={p_uniform:.3f}; "
                   f"aggregation groups match the published list: {groups_ok}")


def test_criterion_11_eval_attention_contract(tmp_path):
    from spanattn.cli import main

    cfg_text = """
model.layers = 2
model.d = 16
model.d_model = 16
model.heads = 2
model.blend_ratio = 1
attention.variant = se
attention.chunk_sizes = 16
attention.block_size = 8
attention.top_k = 2
adaptation.steps = 2
adaptation.lr = 1e-3
train.data = niah_single_1
train.seq_len = 256
train.batch_size = 2
eval.tasks = niah_single_1
eval.context_lengths = 160
eval.n_instances = 2
"""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text)
    train_out = tmp_path / "train"
    assert main(["train", str(cfg_path), "--out", str(train_out)]) == 0
    ckpt = train_out / "checkpoint.bin"

    out_default = tmp_path / "eval_default"
    assert main(["eval", str(cfg_path), "--out", str(out_default), "--checkpoint", str(ckpt)]) == 0
    meta_default = json.loads((out_default / "eval_meta.json").read_text())

    out_train = tmp_path / "eval_train"
    assert main(["eval", str(cfg_path), "--out", str(out_train), "--checkpoint", str(ckpt), "--eval-attn", "train"]) == 0
    meta_train = json.loads((out_train / "eval_meta.json").read_text())

    default_ok = meta_default["eval_attention"] == "full" and all(
        n == 0 for n in meta_default["se_traces_per_probe_forward"].values()
    )
    override_ok = meta_train["eval_attention"] == "se" and all(
        n >= 1 for n in meta_train["se_traces_per_probe_forward"].values()
    )
    ok = default_ok and override_ok and meta_default["train_variant"] == "se"
    report(11, ok, f"default eval ran full attention with zero retrieval traces ({default_ok}); "
                   f"--eval-attn train reproduced the training variant with traces ({override_ok})")
