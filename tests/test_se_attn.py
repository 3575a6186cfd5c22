"""Span-expanded attention: retrieval math, selection rules, and the dense-oracle equivalence."""

import json
import math

import numpy as np
import pytest
from helpers import central_diff, max_rel_err, naive_retrieval

from spanattn.attention import AdditiveMask, AttentionParams, full_attention, masked_oracle_attention, project_qkv
from spanattn.errors import ConfigError, InvariantError
from spanattn.se_attn import (
    LANDMARK_SEED,
    RetrievalTrace,
    SEAttnConfig,
    landmark_vector,
    mask_to_rle,
    relevancy_scores,
    rle_to_mask,
    se_attn_forward,
    select_top_k,
    summarize_blocks,
    trace_pattern,
)
from spanattn.tensor import Tensor, backward, mul, sum_all


def make_block(size, d_model, seed=0):
    """Query, key and value rows of one memory block."""
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((size, d_model)) for _ in range(3))


def make_params(d=8, d_model=8, heads=1, seed=0):
    return AttentionParams.random(d, d_model, head_count=heads, seed=seed, dtype=np.float64)


def make_x(length, d=8, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed + 5000)
    return Tensor(rng.standard_normal((length, d)).astype(dtype))


def one_chunk_scores(q_chunk, summaries, retrievable, d_model):
    return relevancy_scores(q_chunk, np.array([0]), summaries, np.asarray(retrievable)[None, :], d_model)[0]


def one_chunk_top_k(scores, retrievable, k, variant="standard", rng=None):
    return select_top_k(np.asarray(scores)[None, :], np.asarray(retrievable)[None, :], k, variant, rng)[0]


class TestSummaries:
    def test_single_token_block_summary_is_value_row(self):
        q, k, v = make_block(1, 6)
        np.testing.assert_allclose(summarize_blocks(q, k, v, 1, 6)[0], v[0], atol=1e-12)

    def test_identical_queries_collapse_to_one_attention_row(self):
        q, k, v = make_block(4, 6, seed=1)
        q = np.tile(q[0], (4, 1))
        c = summarize_blocks(q, k, v, 4, 6)[0]
        scores = q[0] @ k.T / math.sqrt(6)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        np.testing.assert_allclose(c, w @ v, atol=1e-12)

    def test_matches_naive_two_loop_computation(self):
        q, k, v = make_block(4, 8, seed=2)
        got = summarize_blocks(q, k, v, 4, 8)[0]
        rows = np.zeros((4, 8))
        for t in range(4):
            logits = np.array([q[t] @ k[u] for u in range(4)]) / math.sqrt(8)
            w = np.exp(logits - logits.max())
            w /= w.sum()
            for u in range(4):
                rows[t] += w[u] * v[u]
        np.testing.assert_allclose(got, rows.mean(axis=0), atol=1e-6)

    def test_landmark_single_token_block(self):
        q, k, v = make_block(1, 6, seed=3)
        lm = landmark_vector(6, seed=0)
        np.testing.assert_allclose(summarize_blocks(q, k, v, 1, 6, landmark=lm)[0], v[0], atol=1e-12)

    def test_landmark_orthogonal_to_keys_gives_mean_value(self):
        q, _, v = make_block(3, 4, seed=4)
        k = np.zeros((3, 4))
        k[:, 0] = [1.0, 2.0, -1.0]
        lm = np.array([0.0, 1.0, 0.0, 0.0])  # orthogonal to every key
        np.testing.assert_allclose(summarize_blocks(q, k, v, 3, 4, landmark=lm)[0], v.mean(axis=0), atol=1e-12)

    def test_landmark_matches_direct_evaluation(self):
        q, k, v = make_block(4, 8, seed=5)
        lm = landmark_vector(8, seed=7)
        got = summarize_blocks(q, k, v, 4, 8, landmark=lm)[0]
        logits = np.array([lm @ k[u] for u in range(4)]) / math.sqrt(8)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        np.testing.assert_allclose(got, w @ v, atol=1e-6)


class TestRelevancy:
    def test_no_past_blocks_flagged(self):
        rng = np.random.default_rng(6)
        probs = one_chunk_scores(rng.standard_normal((4, 8)), rng.standard_normal((3, 8)), np.zeros(3, dtype=bool), 8)
        np.testing.assert_array_equal(probs, np.zeros(3))
        cfg = SEAttnConfig(chunk_sizes=(8,), memory_block_size=4)
        _, trace = se_attn_forward(make_x(40, seed=6), make_params(seed=6), cfg)
        assert [c.no_past for c in trace.chunks] == [True, False, False, False, False]
        np.testing.assert_array_equal(trace.chunks[0].scores, np.zeros(10))

    def test_identical_summaries_split_evenly(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(8)
        probs = one_chunk_scores(rng.standard_normal((4, 8)), np.stack([c, c]), np.ones(2, dtype=bool), 8)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((4, 8))
        summaries = rng.standard_normal((3, 8))
        retrievable = np.array([True, True, False])
        probs = one_chunk_scores(q, summaries, retrievable, 8)

        raw = np.zeros(3)
        for j in range(3):
            raw[j] = sum(q[t] @ summaries[j] for t in range(4))
        masked = np.where(retrievable, raw, -np.inf) / math.sqrt(8)
        e = np.exp(masked - masked[retrievable].max())
        want = e / e.sum()
        np.testing.assert_allclose(probs, want, atol=1e-6)
        np.testing.assert_allclose(probs[retrievable].sum(), 1.0, atol=1e-6)
        assert probs[2] == 0.0

    def test_every_chunk_scored_against_its_own_rows(self):
        rng = np.random.default_rng(9)
        q = rng.standard_normal((10, 8))
        summaries = rng.standard_normal((3, 8))
        starts = np.array([0, 4, 8])
        retrievable = np.array([[False, False, False], [True, False, False], [True, True, False]])
        probs = relevancy_scores(q, starts, summaries, retrievable, 8)
        for c, (lo, hi) in enumerate(((0, 4), (4, 8), (8, 10))):
            np.testing.assert_allclose(probs[c], one_chunk_scores(q[lo:hi], summaries, retrievable[c], 8), atol=1e-12)


class TestSelection:
    def test_top_two_of_three(self):
        assert one_chunk_top_k([0.1, 0.5, 0.4], np.ones(3, dtype=bool), 2) == [1, 2]

    def test_fewer_past_than_k_takes_all(self):
        assert one_chunk_top_k([0.3], np.ones(1, dtype=bool), 8) == [0]

    def test_tie_breaks_toward_earlier_block(self):
        assert one_chunk_top_k([0.5, 0.5], np.ones(2, dtype=bool), 1) == [0]

    def test_nomem_selects_nothing(self):
        assert one_chunk_top_k([0.9, 0.1], np.ones(2, dtype=bool), 2, variant="nomem") == []

    def test_random_respects_past_mask_and_count(self):
        rng = np.random.default_rng(10)
        retrievable = np.array([True, True, True, False, False])
        for _ in range(50):
            sel = one_chunk_top_k(np.zeros(5), retrievable, 2, variant="random", rng=rng)
            assert len(sel) == 2 and sel == sorted(sel)
            assert all(retrievable[j] for j in sel)

    def test_only_past_blocks_selected_by_score(self):
        retrievable = np.array([True, False, True])
        assert one_chunk_top_k([0.1, 0.9, 0.2], retrievable, 2) == [0, 2]

    @pytest.mark.parametrize("variant", ["standard", "landmark"])
    def test_selected_blocks_are_the_top_scoring_ones(self, variant):
        """Every chunk's selection equals a loop-only float64 retrieval over the same projections."""
        rng = np.random.default_rng(11)
        # (L, S, M, k): L < S, ragged tail blocks, k = 0, k above the number of past blocks
        cases = [(5, 8, 8, 2), (30, 7, 7, 1), (45, 7, 16, 2), (40, 4, 8, 0), (24, 4, 8, 9)]
        cases += [(int(rng.integers(1, 120)), s, s + int(rng.integers(0, 20)), int(rng.integers(0, 5)))
                  for s in rng.integers(1, 10, size=25).tolist()]
        for trial, (length, s, m, k) in enumerate(cases):
            p = make_params(heads=2, seed=trial)
            x = make_x(length, seed=trial + 300)
            cfg = SEAttnConfig(chunk_sizes=(m,), memory_block_size=s, top_k=k, variant=variant, seed=trial)
            _, trace = se_attn_forward(x, p, cfg)
            q, k_rows, v = (t.data for t in project_qkv(x, p))
            lm = landmark_vector(p.d_model, LANDMARK_SEED) if variant == "landmark" else None
            want = naive_retrieval(q, k_rows, v, s, m, k, p.d_model, landmark=lm)
            assert [c.selected for c in trace.chunks] == want, (length, s, m, k)


class TestForward:
    def test_single_chunk_equals_full_causal(self):
        p = make_params(heads=2)
        x = make_x(16)
        cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=4, top_k=2)
        out, trace = se_attn_forward(x, p, cfg)
        np.testing.assert_allclose(out.data, full_attention(x, p).data, atol=1e-6)
        assert trace.chunks[0].no_past and trace.chunks[0].selected == []

    def test_k_zero_equals_block_diagonal(self):
        p = make_params(heads=2, seed=1)
        x = make_x(32, seed=1)
        cfg = SEAttnConfig(chunk_sizes=(8,), memory_block_size=4, top_k=0)
        out, _ = se_attn_forward(x, p, cfg)
        want = masked_oracle_attention(x, p, AdditiveMask.block_diagonal_causal(32, 8, dtype=np.float64))
        np.testing.assert_allclose(out.data, want.data, atol=1e-6)

    def test_nomem_variant_equals_block_diagonal(self):
        p = make_params(heads=2, seed=2)
        x = make_x(32, seed=2)
        cfg = SEAttnConfig(chunk_sizes=(8,), memory_block_size=4, top_k=3, variant="nomem")
        out, trace = se_attn_forward(x, p, cfg)
        want = masked_oracle_attention(x, p, AdditiveMask.block_diagonal_causal(32, 8, dtype=np.float64))
        np.testing.assert_allclose(out.data, want.data, atol=1e-6)
        assert all(c.selected == [] for c in trace.chunks)

    @pytest.mark.parametrize("heads", [1, 4])
    def test_oracle_equivalence_float64(self, heads):
        for seed in range(10):
            p = make_params(heads=heads, seed=seed)
            x = make_x(64, seed=seed)
            cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, seed=seed)
            out, trace = se_attn_forward(x, p, cfg)
            want = masked_oracle_attention(x, p, trace_pattern(trace))
            assert np.max(np.abs(out.data - want.data)) < 1e-10

    def test_oracle_equivalence_random_variant(self):
        p = make_params(heads=2, seed=3)
        x = make_x(64, seed=3)
        cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, variant="random", seed=3)
        out, trace = se_attn_forward(x, p, cfg)
        want = masked_oracle_attention(x, p, trace_pattern(trace))
        assert np.max(np.abs(out.data - want.data)) < 1e-10

    def test_oracle_equivalence_landmark_variant(self):
        p = make_params(heads=2, seed=4)
        x = make_x(64, seed=4)
        cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, variant="landmark", seed=4)
        out, trace = se_attn_forward(x, p, cfg)
        want = masked_oracle_attention(x, p, trace_pattern(trace))
        assert np.max(np.abs(out.data - want.data)) < 1e-10

    def test_oracle_equivalence_ragged_chunks_and_blocks(self):
        p = make_params(heads=2, seed=5)
        x = make_x(45, seed=5)  # 45 = 3 chunks of 16 minus 3; blocks of 7 leave a short tail
        cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=7, top_k=2, seed=5)
        out, trace = se_attn_forward(x, p, cfg)
        want = masked_oracle_attention(x, p, trace_pattern(trace))
        assert np.max(np.abs(out.data - want.data)) < 1e-10

    def test_chunk_size_sampled_from_config_set(self):
        p = make_params()
        x = make_x(64, seed=6)
        cfg = SEAttnConfig(chunk_sizes=(16, 32), memory_block_size=8, top_k=2, seed=0)
        sizes = set()
        for seed in range(20):
            _, trace = se_attn_forward(x, p, cfg, rng=np.random.default_rng(seed))
            sizes.add(trace.chunk_size)
        assert sizes == {16, 32}

    def test_forward_deterministic_given_seed(self):
        p = AttentionParams.random(8, 8, head_count=2, seed=7, dtype=np.float32)
        x = make_x(64, seed=7, dtype=np.float32)
        cfg = SEAttnConfig(chunk_sizes=(16, 32), memory_block_size=8, top_k=2, seed=11)
        a, ta = se_attn_forward(x, p, cfg)
        b, tb = se_attn_forward(x, p, cfg)
        assert (a.data == b.data).all()
        assert ta.to_json() == tb.to_json()

    def test_chunk_granularity_causality(self):
        p = make_params(heads=2, seed=8)
        rng = np.random.default_rng(8)
        x_data = rng.standard_normal((64, 8))
        cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, seed=8)
        base, _ = se_attn_forward(Tensor(x_data.copy()), p, cfg)
        for chunk_idx, t in ((1, 20), (2, 40), (3, 63)):
            bumped = x_data.copy()
            bumped[t] += rng.standard_normal(8)
            out, _ = se_attn_forward(Tensor(bumped), p, cfg)
            boundary = chunk_idx * 16
            np.testing.assert_array_equal(out.data[:boundary], base.data[:boundary])

    def test_within_chunk_causality_under_stable_selection(self):
        p = make_params(heads=2, seed=9)
        rng = np.random.default_rng(9)
        x_data = rng.standard_normal((64, 8))
        cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, seed=9)
        base, trace_base = se_attn_forward(Tensor(x_data.copy()), p, cfg)
        t = 36  # inside chunk 2
        bumped = x_data.copy()
        bumped[t] += 1e-4 * rng.standard_normal(8)
        out, trace = se_attn_forward(Tensor(bumped), p, cfg)
        assert trace.chunks[2].selected == trace_base.chunks[2].selected  # selection held
        np.testing.assert_array_equal(out.data[32:t], base.data[32:t])

    def test_selection_legality_over_randomized_traces(self):
        rng = np.random.default_rng(123)
        for trial in range(60):
            heads = int(rng.choice([1, 2, 4]))
            length = int(rng.integers(20, 90))
            s = int(rng.integers(2, 9))
            k = int(rng.integers(0, 5))
            m = int(rng.integers(s, max(s + 1, length // 2 + 1)))
            variant = ["standard", "random", "landmark"][trial % 3]
            p = make_params(heads=heads, seed=trial)
            x = make_x(length, seed=trial)
            cfg = SEAttnConfig(chunk_sizes=(m,), memory_block_size=s, top_k=k, variant=variant, seed=trial)
            _, trace = se_attn_forward(x, p, cfg)
            assert trace.chunks[0].selected == []
            for c in trace.chunks:
                past = [j for j, (_, stop) in enumerate(trace.block_ranges) if stop <= c.start]
                assert len(c.selected) == min(k, len(past))
                assert len(set(c.selected)) == len(c.selected)
                assert c.selected == sorted(c.selected)
                for j in c.selected:
                    assert trace.block_ranges[j][1] <= c.start
                if past and variant != "nomem":
                    np.testing.assert_allclose(np.asarray(c.scores).sum(), 1.0, atol=1e-6)
                retrieved = sum(trace.block_ranges[j][1] - trace.block_ranges[j][0] for j in c.selected)
                assert retrieved <= s * max(k, 1)

    def test_gradients_match_finite_differences_at_stable_selection(self):
        p = AttentionParams.random(4, 4, head_count=1, seed=21, dtype=np.float64, requires_grad=True)
        rng = np.random.default_rng(21)
        x_data = rng.standard_normal((24, 4))
        cfg = SEAttnConfig(chunk_sizes=(8,), memory_block_size=4, top_k=1, seed=21)
        coef = rng.standard_normal((24, 4))

        _, trace = se_attn_forward(Tensor(x_data.copy()), p, cfg)
        for c in trace.chunks:  # require a comfortable score margin around the top-k cut
            past = [j for j, (_, stop) in enumerate(trace.block_ranges) if stop <= c.start]
            if len(past) > cfg.top_k:
                scores = np.sort(np.asarray(c.scores)[past])[::-1]
                margin = scores[cfg.top_k - 1] - scores[cfg.top_k]
                assert margin > 1e-3, "test configuration must be selection-stable"

        x = Tensor(x_data.copy(), requires_grad=True)
        out, _ = se_attn_forward(x, p, cfg)
        backward(sum_all(mul(out, Tensor(coef))))

        mats = {"x": x_data, "w_q": p.w_q.data, "w_k": p.w_k.data, "w_v": p.w_v.data, "w_o": p.w_o.data}

        def loss_fn():
            xt = Tensor(mats["x"].copy())
            out2, _ = se_attn_forward(xt, p, cfg)
            return float((out2.data * coef).sum())

        grads = {"x": x.grad, "w_q": p.w_q.grad, "w_k": p.w_k.grad, "w_v": p.w_v.grad, "w_o": p.w_o.grad}
        for name, arr in mats.items():
            fd = central_diff(loss_fn, arr, h=1e-5)
            assert max_rel_err(grads[name], fd) < 1e-4, name


class TestTracePattern:
    def test_k_zero_gives_block_diagonal_mask(self):
        p = make_params()
        x = make_x(32, seed=30)
        cfg = SEAttnConfig(chunk_sizes=(8,), memory_block_size=4, top_k=0, seed=30)
        _, trace = se_attn_forward(x, p, cfg)
        want = AdditiveMask.block_diagonal_causal(32, 8)
        np.testing.assert_array_equal(trace_pattern(trace).visible(), want.visible())

    def test_single_chunk_gives_causal_mask(self):
        p = make_params()
        x = make_x(16, seed=31)
        cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=4, top_k=2, seed=31)
        _, trace = se_attn_forward(x, p, cfg)
        np.testing.assert_array_equal(trace_pattern(trace).visible(), AdditiveMask.causal(16).visible())

    def test_visible_key_counts(self):
        for seed in range(10):
            p = make_params(seed=seed)
            x = make_x(64, seed=seed + 40)
            cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, seed=seed)
            _, trace = se_attn_forward(x, p, cfg)
            visible = trace_pattern(trace).visible()
            for c in trace.chunks:
                for t in range(c.start, c.stop):
                    expected = (t - c.start + 1) + sum(
                        trace.block_ranges[j][1] - trace.block_ranges[j][0] for j in c.selected
                    )
                    assert visible[t].sum() == expected

    def test_inconsistent_trace_rejected(self):
        p = make_params()
        x = make_x(32, seed=50)
        cfg = SEAttnConfig(chunk_sizes=(8,), memory_block_size=4, top_k=1, seed=50)
        _, trace = se_attn_forward(x, p, cfg)
        trace.chunks[1].selected = [5]  # block [20, 24) overlaps/postdates chunk 1
        with pytest.raises(InvariantError):
            trace_pattern(trace)

    def test_trace_json_round_trip(self):
        p = make_params()
        x = make_x(48, seed=51)
        cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, seed=51)
        _, trace = se_attn_forward(x, p, cfg)
        restored = RetrievalTrace.from_json(trace.to_json())
        assert json.loads(restored.to_json()) == json.loads(trace.to_json())
        np.testing.assert_array_equal(trace_pattern(restored).visible(), trace_pattern(trace).visible())

    def test_rle_round_trip(self):
        p = make_params()
        x = make_x(48, seed=52)
        cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, seed=52)
        _, trace = se_attn_forward(x, p, cfg)
        mask = trace_pattern(trace)
        np.testing.assert_array_equal(rle_to_mask(mask_to_rle(mask)).visible(), mask.visible())


class TestConfigValidation:
    def test_chunk_smaller_than_block_rejected(self):
        with pytest.raises(ConfigError):
            SEAttnConfig(chunk_sizes=(4,), memory_block_size=8)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            SEAttnConfig(variant="mystery")

    def test_negative_top_k_rejected(self):
        with pytest.raises(ConfigError):
            SEAttnConfig(top_k=-1)
