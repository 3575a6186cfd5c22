"""Attention variants against the naively-looped reference and each other."""

import numpy as np
import pytest
from helpers import central_diff, max_rel_err, naive_masked_attention

from spanattn.attention import (
    AdditiveMask,
    AttentionParams,
    _per_head_attention,
    chunked_attention,
    full_attention,
    masked_oracle_attention,
    project_qkv,
    project_with_cache,
    sliding_window_attention,
)
from spanattn.errors import ConfigError, UsageError
from spanattn.se_attn import SEAttnConfig, se_attn_forward
from spanattn.tensor import Tensor, backward, matmul, mul, narrow, sum_all


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
    out = full_attention(x, p)
    expected = (x.data @ p.w_v.data) @ p.w_o.data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_noncausal_no_rope_is_permutation_invariant():
    p = make_params()

    def unmasked_unrotated(x):
        q, k, v = (matmul(x, w) for w in (p.w_q, p.w_k, p.w_v))
        return matmul(_per_head_attention(q, k, v, None, p), p.w_o)

    x = make_x(6)
    out = unmasked_unrotated(x)
    permuted = x.data.copy()
    permuted[[1, 4]] = permuted[[4, 1]]
    out_perm = unmasked_unrotated(Tensor(permuted))
    # queries move with their rows; compare with the same permutation applied
    np.testing.assert_allclose(out_perm.data[[4, 1]], out.data[[1, 4]], atol=1e-10)
    keep = [0, 2, 3, 5]
    np.testing.assert_allclose(out_perm.data[keep], out.data[keep], atol=1e-10)


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("causal", [True, False])
def test_full_attention_matches_naive_loop(heads, causal):
    p = make_params(heads=heads, seed=heads)
    x = make_x(8, seed=heads)
    # full attention is causal; the oracle with an all-zero mask is the non-causal case
    out = full_attention(x, p) if causal else masked_oracle_attention(x, p, AdditiveMask(np.zeros((8, 8))))
    visible = np.tril(np.ones((8, 8), dtype=bool)) if causal else np.ones((8, 8), dtype=bool)
    want = naive_masked_attention(x.data, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data, heads, visible)
    np.testing.assert_allclose(out.data, want, atol=1e-6)


def test_sliding_window_saturates_to_full():
    p = make_params(heads=2)
    x = make_x(10)
    np.testing.assert_allclose(
        sliding_window_attention(x, p, window=10).data,
        full_attention(x, p).data,
        atol=1e-6,
    )
    np.testing.assert_allclose(
        sliding_window_attention(x, p, window=50).data,
        full_attention(x, p).data,
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
        full_attention(x, p).data,
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
    np.testing.assert_allclose(got.data, full_attention(x, p).data, atol=1e-10)


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
    from spanattn.ops import masked_softmax
    from spanattn.tensor import scale, transpose

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
            return full_attention(x, p).data
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
        a = full_attention(x, p).data
        b = sliding_window_attention(x, p, window=11).data
        c = nomem_attention(x, p, chunk=11).data
        np.testing.assert_allclose(a, b, atol=1e-6)
        np.testing.assert_allclose(a, c, atol=1e-6)
        np.testing.assert_allclose(b, c, atol=1e-6)


def test_forward_is_deterministic():
    p32 = AttentionParams.random(4, 8, head_count=2, seed=0, dtype=np.float32)
    rng = np.random.default_rng(0)
    x_data = rng.standard_normal((10, 4)).astype(np.float32)
    first = full_attention(Tensor(x_data.copy()), p32).data
    second = full_attention(Tensor(x_data.copy()), p32).data
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


def _se_spans(n, chunk, block, picks):
    """Earlier ranges of SE-style chunks: chunk i retrieves the blocks ``picks(i)``."""
    return [[(j * block, (j + 1) * block) for j in picks(i)] for i in range(-(-n // chunk))]


# (keys, queries, chunk, earlier, window): the shapes the fused node must get right
FUSED_CASES = {
    "full": (9, 9, 9, None, None),
    "sw-3": (10, 10, 3, [[(max(0, s - 2), s)] for s in range(0, 10, 3)], 3),
    # block 0 is retrieved by every later chunk (one key row in many chunks), chunk 1
    # sees one of its two past blocks (fewer than k), and the last chunk is 2 rows long
    "se-repeated-ragged": (18, 18, 4, _se_spans(18, 4, 2, lambda i: [0, 2 * i - 1][:i]), None),
    "decode-se": (11, 5, 4, _se_spans(11, 4, 2, lambda i: [0, 2 * i - 1][:i]), None),
    "decode-one-query": (7, 1, 7, None, None),
}


def _dense_visible(n, n_q, chunk, earlier, window):
    """Query i (key position n - n_q + i) sees key s: the chunk rule spelled out by loops."""
    visible = np.zeros((n_q, n), dtype=bool)
    for i, start in enumerate(range(0, n, chunk)):
        stop = min(start + chunk, n)
        spans = [*(earlier[i] if earlier else ()), (start, stop)]
        for t in range(max(start, n - n_q), stop):
            for lo, hi in spans:
                for s in range(lo, hi):
                    visible[t - (n - n_q), s] = s <= t and (window is None or t - s < window)
    return visible


@pytest.mark.parametrize("case", sorted(FUSED_CASES))
def test_fused_node_matches_finite_differences_and_the_per_head_tape(case):
    n, n_q, chunk, earlier, window = FUSED_CASES[case]
    p = make_params(heads=2, seed=40)
    rng = np.random.default_rng(40)
    data = {"q": rng.standard_normal((n_q, 8)), "k": rng.standard_normal((n, 8)), "v": rng.standard_normal((n, 8))}
    coef = rng.standard_normal((n_q, 4))
    bias = np.where(_dense_visible(n, n_q, chunk, earlier, window), 0.0, float("-inf"))

    def fused(arrays, grad=False):
        t = {name: Tensor(a, requires_grad=grad) for name, a in arrays.items()}
        return chunked_attention(t["q"], t["k"], t["v"], p, chunk, earlier, window=window), t

    out, leaves = fused(data, grad=True)
    nodes = backward(sum_all(mul(out, Tensor(coef))))
    assert nodes == 3 + 4  # q, k, v, the fused node, w_o's matmul, the product and the sum
    for name, arr in data.items():
        fd = central_diff(lambda: float((fused(data)[0].data * coef).sum()), arr)
        assert max_rel_err(leaves[name].grad, fd) < 1e-6, name

    tape = {name: Tensor(a, requires_grad=True) for name, a in data.items()}
    want = matmul(_per_head_attention(tape["q"], tape["k"], tape["v"], bias, p), p.w_o)
    backward(sum_all(mul(want, Tensor(coef))))
    np.testing.assert_allclose(out.data, want.data, rtol=1e-12, atol=1e-12)
    for name in data:
        np.testing.assert_allclose(leaves[name].grad, tape[name].grad, rtol=1e-12, atol=1e-12)

    p32 = AttentionParams.random(4, 8, head_count=2, seed=40, dtype=np.float32)
    t32 = {name: Tensor(a.astype(np.float32)) for name, a in data.items()}
    got32 = chunked_attention(t32["q"], t32["k"], t32["v"], p32, chunk, earlier, window=window).data
    want32 = matmul(_per_head_attention(t32["q"], t32["k"], t32["v"], bias.astype(np.float32), p32), p32.w_o).data
    np.testing.assert_allclose(got32, want32, rtol=1e-5, atol=1e-5)


def test_se_graph_size_does_not_grow_with_length():
    p = AttentionParams.random(4, 8, head_count=2, seed=41, dtype=np.float64, requires_grad=True)
    cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, seed=41)
    counts = []
    for length in (64, 512):
        out, _ = se_attn_forward(make_x(length, seed=41), p, cfg)
        counts.append(backward(sum_all(out)))
    assert counts[0] == counts[1]


def test_a_decode_step_computes_one_row_of_scores(monkeypatch):
    import spanattn.attention as attention_mod

    shapes = []
    fused = attention_mod.multi_head_attention

    def spy(q, k, v, bias, p, **kw):
        shapes.append(bias.shape)
        return fused(q, k, v, bias, p, **kw)

    monkeypatch.setattr(attention_mod, "multi_head_attention", spy)
    p = make_params(heads=2)
    q, k, v = project_qkv(make_x(50), p)
    chunked_attention(narrow(q, 0, 49, 50), k, v, p, 50)
    chunked_attention(narrow(q, 0, 47, 50), k, v, p, 16)
    assert shapes == [(1, 1, 50), (2, 3, 16)]  # query slots: min(chunk, len(q))


TILE = 4  # FULL_TILE in the tests below, so that short sequences span many tiles
TOL = {np.float32: 1e-5, np.float64: 1e-12}


@pytest.fixture
def small_tile(monkeypatch):
    import spanattn.attention as attention_mod

    monkeypatch.setattr(attention_mod, "FULL_TILE", TILE)


def _worst(got, want):
    """Largest absolute difference, relative to the reference's largest entry when that exceeds 1."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5])
def test_tiled_full_attention_matches_the_oracle_with_gradients(small_tile, dtype, length):
    p = AttentionParams.random(4, 8, head_count=2, seed=50, dtype=dtype, requires_grad=True)
    rng = np.random.default_rng(50 + length)
    x_data, coef = rng.standard_normal((length, 4)).astype(dtype), rng.standard_normal((length, 4)).astype(dtype)

    def run(attend):
        x = Tensor(x_data, requires_grad=True)
        for w in p.matrices().values():
            w.grad = None
        out = attend(x)
        backward(sum_all(mul(out, Tensor(coef))))
        return [out.data, x.grad, *(w.grad.copy() for w in p.matrices().values())]

    got = run(lambda x: full_attention(x, p))
    want = run(lambda x: masked_oracle_attention(x, p, AdditiveMask.causal(length, dtype=dtype)))
    for name, g, w in zip(("out", "x", "w_q", "w_k", "w_v", "w_o"), got, want):
        assert _worst(g, w) < TOL[dtype], name


def test_no_tile_gathers_keys_past_its_last_query(small_tile, monkeypatch):
    import spanattn.attention as attention_mod

    calls = []
    fused = attention_mod.multi_head_attention

    def spy(q, k, v, bias, p, *, rows, keys):
        calls.append((rows, keys))
        return fused(q, k, v, bias, p, rows=rows, keys=keys)

    monkeypatch.setattr(attention_mod, "multi_head_attention", spy)
    p = make_params(heads=2)
    for length in (1, TILE, 3 * TILE + 5, 40):
        calls.clear()
        full_attention(make_x(length), p)
        (rows, keys), = calls
        scores = 0
        for r, kk in zip(rows, keys):
            r, kk = r[r >= 0], kk[kk >= 0]
            assert kk.max() <= r.max()  # the queries are every row: key position = row index
            scores += p.head_count * len(r) * len(kk)
        assert scores <= p.head_count * length * (length + TILE) / 2


def test_mixed_key_counts_match_a_per_chunk_loop():
    from spanattn.attention import multi_head_attention

    # (query rows, key rows) per chunk: chunks 0-1 form one run, chunk 2 has fewer keys,
    # chunk 4 fewer queries, chunk 5 none; row 13 is named by no slot
    chunks = [
        ([0, 1, 2], [0, 1, 2, 3]),
        ([3, 4, 5], [1, 4, 5, 6]),
        ([6, 7, 8], [2, 7]),
        ([9, 10, 11], [0, 3, 8, 9]),
        ([12], [5, 10, 12, 13]),
        ([], [0, 1, 2]),
    ]
    p = make_params(heads=2, seed=51)
    rng = np.random.default_rng(51)
    data = {name: rng.standard_normal((14, 8)) for name in "qkv"}
    coef = rng.standard_normal((14, 8))
    rows, keys, bias = np.full((6, 3), -1), np.full((6, 4), -1), np.full((6, 3, 4), -np.inf)
    for c, (r, kk) in enumerate(chunks):
        rows[c, : len(r)], keys[c, : len(kk)] = r, kk
        seen = rng.random((len(r), len(kk))) < 0.7
        seen[:, 0] = True
        bias[c, : len(r), : len(kk)] = np.where(seen, 0.0, -np.inf)

    def run(calls):
        leaves = {name: Tensor(a, requires_grad=True) for name, a in data.items()}
        outs = [multi_head_attention(*leaves.values(), b, p, rows=r, keys=kk) for b, r, kk in calls]
        total = outs[0]
        for o in outs[1:]:
            total = total + o
        backward(sum_all(mul(total, Tensor(coef))))
        return [total.data, *(leaves[name].grad for name in "qkv")]

    fused = run([(bias, rows, keys)])
    per_chunk = run([
        (bias[c : c + 1, : len(r), : len(kk)], rows[c : c + 1, : len(r)], keys[c : c + 1, : len(kk)])
        for c, (r, kk) in enumerate(chunks)
        if r
    ])
    for name, got, want in zip(("out", "q", "k", "v"), fused, per_chunk):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)

    want = np.zeros((14, 8))
    for c, (r, kk) in enumerate(chunks):
        if r:
            q, k, v = (Tensor(data[name][idx]) for name, idx in (("q", r), ("k", kk), ("v", kk)))
            want[r] = _per_head_attention(q, k, v, bias[c, : len(r), : len(kk)], p).data
    np.testing.assert_allclose(fused[0], want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("keep", [None, 0, 1, 3])
def test_cached_k_v_of_earlier_steps_stay_unchanged(keep):
    # feeds of 1 to 5 rows fill, grow and (when bounded) compact the buffers many times over
    p = make_params(seed=53)
    x = make_x(120, seed=53).data
    cache, returned, pos = {}, [], 0
    for n in [2, *([1, 5, 3, 1, 2] * 8)]:
        _, k, v = project_with_cache(Tensor(x[pos : pos + n]), p, cache, keep=keep)
        returned += [(a, a.copy()) for a in (k.data, v.data, cache["k"], cache["v"])]
        pos += n
    for a, then in returned:
        np.testing.assert_array_equal(a, then)
    want = project_qkv(Tensor(x[:pos]), p)[1].data[pos - (pos if keep is None else keep) :]
    np.testing.assert_allclose(cache["k"], want, rtol=1e-12, atol=1e-12)
