"""Attention variants against the naively-looped reference and each other."""

import numpy as np
import pytest
from helpers import naive_masked_attention

from spanattn.attention import (
    AdditiveMask,
    AttentionParams,
    chunked_attention,
    full_attention,
    masked_oracle_attention,
    project_qkv,
    sliding_window_attention,
)
from spanattn.errors import ConfigError, UsageError
from spanattn.se_attn import SEAttnConfig, se_attn_forward
from spanattn.tensor import Tensor, narrow


def make_params(d=4, d_model=8, heads=1, seed=0, **kw):
    return AttentionParams.random(d, d_model, head_count=heads, seed=seed, dtype=np.float64, **kw)


def make_x(length, d=4, seed=0):
    rng = np.random.default_rng(seed + 1000)
    return Tensor(rng.standard_normal((length, d)))


def nomem_attention(x, p, chunk):
    """Causal attention inside each chunk with no memory: SE-Attn's nomem variant."""
    return se_attn_forward(x, p, SEAttnConfig(chunk_sizes=(chunk,), memory_block_size=1, variant="nomem"))[0]


def test_single_token_output_is_value_row():
    p = make_params()
    x = make_x(1)
    out = full_attention(x, p, causal=True)
    expected = (x.data @ p.w_v.data) @ p.w_o.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_noncausal_no_rope_is_permutation_invariant():
    p = make_params(use_rope=False)
    x = make_x(6)
    out = full_attention(x, p, causal=False)
    permuted = x.data.copy()
    permuted[[1, 4]] = permuted[[4, 1]]
    out_perm = full_attention(Tensor(permuted), p, causal=False)
    # queries move with their rows; compare with the same permutation applied
    np.testing.assert_allclose(out_perm.data[[4, 1]], out.data[[1, 4]], atol=1e-10)
    keep = [0, 2, 3, 5]
    np.testing.assert_allclose(out_perm.data[keep], out.data[keep], atol=1e-10)


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("causal", [True, False])
def test_full_attention_matches_naive_loop(heads, causal):
    p = make_params(heads=heads, seed=heads)
    x = make_x(8, seed=heads)
    out = full_attention(x, p, causal=causal)
    visible = np.tril(np.ones((8, 8), dtype=bool)) if causal else np.ones((8, 8), dtype=bool)
    want = naive_masked_attention(x.data, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data, heads, visible)
    np.testing.assert_allclose(out.data, want, atol=1e-6)


def test_sliding_window_saturates_to_full():
    p = make_params(heads=2)
    x = make_x(10)
    np.testing.assert_allclose(
        sliding_window_attention(x, p, window=10).data,
        full_attention(x, p, causal=True).data,
        atol=1e-6,
    )
    np.testing.assert_allclose(
        sliding_window_attention(x, p, window=50).data,
        full_attention(x, p, causal=True).data,
        atol=1e-6,
    )


def test_window_one_attends_only_self():
    p = make_params()
    x = make_x(5)
    out = sliding_window_attention(x, p, window=1)
    expected = (x.data @ p.w_v.data) @ p.w_o.data
    np.testing.assert_allclose(out.data, expected, atol=1e-10)
    with pytest.raises(ConfigError):
        sliding_window_attention(x, p, window=0)


@pytest.mark.parametrize("length, window", [(16, 4), (13, 5), (7, 1), (9, 9)])
def test_sliding_window_matches_oracle_mask(length, window):
    p = make_params(heads=2, seed=3)
    x = make_x(length, seed=3)
    got = sliding_window_attention(x, p, window=window)
    want = masked_oracle_attention(x, p, AdditiveMask.sliding_window(length, window, dtype=np.float64))
    np.testing.assert_allclose(got.data, want.data, atol=1e-6)


def test_block_diagonal_saturates_to_full():
    p = make_params(heads=2)
    x = make_x(12)
    np.testing.assert_allclose(
        nomem_attention(x, p, chunk=12).data,
        full_attention(x, p, causal=True).data,
        atol=1e-6,
    )


def test_block_diagonal_chunk_one_attends_only_self():
    p = make_params()
    x = make_x(5)
    out = nomem_attention(x, p, chunk=1)
    expected = (x.data @ p.w_v.data) @ p.w_o.data
    np.testing.assert_allclose(out.data, expected, atol=1e-10)


def test_block_diagonal_matches_oracle_mask():
    p = make_params(heads=4, seed=5)
    x = make_x(32, seed=5)
    got = nomem_attention(x, p, chunk=8)
    want = masked_oracle_attention(x, p, AdditiveMask.block_diagonal_causal(32, 8, dtype=np.float64))
    np.testing.assert_allclose(got.data, want.data, atol=1e-6)


def test_block_diagonal_handles_ragged_tail():
    p = make_params(heads=2, seed=6)
    x = make_x(13, seed=6)
    got = nomem_attention(x, p, chunk=5)
    bias = np.full((13, 13), -np.inf)
    for start in range(0, 13, 5):
        stop = min(start + 5, 13)
        for t in range(start, stop):
            bias[t, start : t + 1] = 0.0
    want = masked_oracle_attention(x, p, AdditiveMask(bias))
    np.testing.assert_allclose(got.data, want.data, atol=1e-6)


def test_oracle_causal_equals_full():
    p = make_params(heads=2, seed=7)
    x = make_x(9, seed=7)
    got = masked_oracle_attention(x, p, AdditiveMask.causal(9, dtype=np.float64))
    np.testing.assert_allclose(got.data, full_attention(x, p, causal=True).data, atol=1e-10)


def test_oracle_rejects_fully_masked_query():
    p = make_params()
    x = make_x(3)
    bias = np.zeros((3, 3))
    bias[1, :] = -np.inf
    with pytest.raises(UsageError):
        masked_oracle_attention(x, p, AdditiveMask(bias))


def test_mask_entries_validated():
    with pytest.raises(ConfigError):
        AdditiveMask(np.array([[0.0, -1.0]]))


def test_oracle_weights_are_convex_combinations():
    from spanattn.attention import multi_head_attention, project_qkv
    from spanattn.ops import masked_softmax
    from spanattn.tensor import matmul, narrow, scale, transpose

    p = make_params(heads=2, seed=8)
    x = make_x(7, seed=8)
    q, k, v = project_qkv(x, p)
    bias = AdditiveMask.causal(7, dtype=np.float64).bias
    dh = p.head_dim
    for h in range(p.head_count):
        qh = narrow(q, 1, h * dh, (h + 1) * dh)
        kh = narrow(k, 1, h * dh, (h + 1) * dh)
        probs = masked_softmax(scale(matmul(qh, transpose(kh)), dh**-0.5), bias)
        assert (probs.data >= 0.0).all()
        np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(7), atol=1e-9)


@pytest.mark.parametrize("variant", ["full", "sw", "nomem"])
def test_token_granularity_causality(variant):
    p = make_params(heads=2, seed=9)
    rng = np.random.default_rng(9)
    x_data = rng.standard_normal((14, 4))

    def run(data):
        x = Tensor(data)
        if variant == "full":
            return full_attention(x, p, causal=True).data
        if variant == "sw":
            return sliding_window_attention(x, p, window=5).data
        return nomem_attention(x, p, chunk=4).data

    base = run(x_data)
    for t in (2, 7, 13):
        bumped = x_data.copy()
        bumped[t] += rng.standard_normal(4)
        np.testing.assert_array_equal(run(bumped)[:t], base[:t])


def test_degenerate_variants_agree_pairwise():
    for seed in range(5):
        p = make_params(heads=2, seed=seed + 20)
        x = make_x(11, seed=seed + 20)
        a = full_attention(x, p, causal=True).data
        b = sliding_window_attention(x, p, window=11).data
        c = nomem_attention(x, p, chunk=11).data
        np.testing.assert_allclose(a, b, atol=1e-6)
        np.testing.assert_allclose(a, c, atol=1e-6)
        np.testing.assert_allclose(b, c, atol=1e-6)


def test_forward_is_deterministic():
    p32 = AttentionParams.random(4, 8, head_count=2, seed=0, dtype=np.float32)
    rng = np.random.default_rng(0)
    x_data = rng.standard_normal((10, 4)).astype(np.float32)
    first = full_attention(Tensor(x_data.copy()), p32, causal=True).data
    second = full_attention(Tensor(x_data.copy()), p32, causal=True).data
    assert (first == second).all()


@pytest.mark.parametrize("chunk, window", [(13, None), (4, None), (4, 4), (3, 5)])
def test_queries_may_be_the_last_rows_of_the_keys(chunk, window):
    p = make_params(heads=2)
    q, k, v = project_qkv(make_x(13), p)
    earlier = None if window is None else [[(max(0, s - window + 1), s)] for s in range(0, 13, chunk)]
    whole = chunked_attention(q, k, v, p, chunk, earlier, window=window).data
    for n_q in (1, 3, 5, 13):
        tail = chunked_attention(narrow(q, 0, 13 - n_q, 13), k, v, p, chunk, earlier, window=window).data
        np.testing.assert_allclose(tail, whole[13 - n_q :], rtol=1e-12, atol=1e-12)
