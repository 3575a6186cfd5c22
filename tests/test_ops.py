"""Neural primitives: stated examples, causality, and gradient checks."""

import math

import numpy as np
import pytest
from helpers import central_diff, linear_recurrence_naive, max_rel_err

from spanattn.errors import ConfigError, ShapeError
from spanattn.ops import (
    SCAN_BLOCK,
    causal_conv1d,
    cross_entropy_logits,
    embedding_lookup,
    linear_recurrence,
    masked_softmax,
    rms_norm,
    rope_embed,
    sigmoid,
)
from spanattn.tensor import Tensor, backward, mul, sum_all

NEG_INF = float("-inf")


class TestMaskedSoftmax:
    def test_symmetric_logits(self):
        out = masked_softmax(Tensor(np.array([[0.0, 0.0]])))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_single_survivor(self):
        out = masked_softmax(Tensor(np.array([[7.0, 3.0]])), np.array([0.0, NEG_INF]))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]])

    def test_log_three_split(self):
        out = masked_softmax(Tensor(np.array([[0.0, math.log(3.0)]], dtype=np.float64)))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one_under_random_masks(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.standard_normal((6, 9))
            bias = np.where(rng.random((6, 9)) < 0.4, NEG_INF, 0.0)
            bias[:, 0] = 0.0  # keep one key visible per row
            out = masked_softmax(Tensor(scores), bias)
            np.testing.assert_allclose(out.data.sum(axis=1), np.ones(6), atol=1e-6)
            assert (out.data[bias == NEG_INF] == 0.0).all()

    def test_fully_masked_row_returns_zeros(self):
        bias = np.array([[NEG_INF, NEG_INF], [0.0, 0.0]])
        out = masked_softmax(Tensor(np.ones((2, 2))), bias)
        np.testing.assert_array_equal(out.data[0], [0.0, 0.0])
        np.testing.assert_allclose(out.data[1], [0.5, 0.5])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        s_data = rng.standard_normal((3, 5))
        bias = np.where(rng.random((3, 5)) < 0.3, NEG_INF, 0.0)
        bias[:, 2] = 0.0
        coef = rng.standard_normal((3, 5))

        s = Tensor(s_data.copy(), requires_grad=True)
        backward(sum_all(mul(masked_softmax(s, bias), Tensor(coef))))

        def loss_fn():
            z = s_data + bias
            m = np.where(np.isfinite(z.max(axis=1, keepdims=True)), z.max(axis=1, keepdims=True), 0.0)
            e = np.exp(z - m)
            p = e / e.sum(axis=1, keepdims=True)
            return float((p * coef).sum())

        assert max_rel_err(s.grad, central_diff(loss_fn, s_data)) < 1e-5


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 8))
        out = rope_embed(Tensor(x.copy()), np.zeros(3))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_quarter_turn_on_unit_pair(self):
        out = rope_embed(Tensor(np.array([[1.0, 0.0]], dtype=np.float64)), [math.pi / 2.0])
        np.testing.assert_allclose(out.data, [[0.0, 1.0]], atol=1e-12)

    def test_pair_norms_preserved(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 6))
        out = rope_embed(Tensor(x.copy()), np.arange(5, dtype=np.float64) * 3.7)
        for i in range(3):
            before = np.hypot(x[:, 2 * i], x[:, 2 * i + 1])
            after = np.hypot(out.data[:, 2 * i], out.data[:, 2 * i + 1])
            np.testing.assert_allclose(after, before, atol=1e-12)

    def test_dot_products_depend_only_on_offset(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = rng.standard_normal(8)
            k = rng.standard_normal(8)
            p1, p2 = rng.uniform(0, 50, size=2)
            shift = rng.uniform(0, 50)
            a = rope_embed(Tensor(np.stack([q])), [p1]).data[0] @ rope_embed(Tensor(np.stack([k])), [p2]).data[0]
            b = (
                rope_embed(Tensor(np.stack([q])), [p1 + shift]).data[0]
                @ rope_embed(Tensor(np.stack([k])), [p2 + shift]).data[0]
            )
            assert abs(a - b) < 1e-10

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            rope_embed(Tensor(np.zeros((2, 3))), [0.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_integer_ranges_read_the_cached_table_bit_for_bit(self, dtype):
        # a short range first, so that later ranges grow the table; then starts inside and past it
        rng = np.random.default_rng(6)
        x = rng.standard_normal((700, 16)).astype(dtype)
        for start, n in [(0, 3), (0, 700), (1, 1), (699, 1), (5, 64), (3, 600), (640, 60)]:
            for base, scale in ((10000.0, 1.0), (500.0, 2.5)):
                got = rope_embed(Tensor(x[:n]), range(start, start + n), base=base, pos_scale=scale).data
                want = rope_embed(Tensor(x[:n]), np.arange(start, start + n, dtype=np.float64), base=base, pos_scale=scale)
                np.testing.assert_array_equal(got, want.data)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x_data = rng.standard_normal((4, 6))
        coef = rng.standard_normal((4, 6))
        positions = rng.uniform(0.0, 20.0, size=4)

        x = Tensor(x_data.copy(), requires_grad=True)
        backward(sum_all(mul(rope_embed(x, positions), Tensor(coef))))

        from helpers import rope_rotate_naive

        def loss_fn():
            return float((rope_rotate_naive(x_data, positions) * coef).sum())

        assert max_rel_err(x.grad, central_diff(loss_fn, x_data)) < 1e-6


class TestCausalConv:
    def test_single_tap_identity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 3))
        out = causal_conv1d(Tensor(x.copy()), Tensor(np.ones((1, 3))), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_second_tap_is_one_step_delay(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 2))
        kernel = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = causal_conv1d(Tensor(x.copy()), Tensor(kernel), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data[0], [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.data[1:], x[:-1], atol=1e-12)

    def test_causality_under_perturbation(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12, 4))
        kernel = rng.standard_normal((3, 4))
        bias = rng.standard_normal(4)
        base = causal_conv1d(Tensor(x.copy()), Tensor(kernel), Tensor(bias)).data
        for t in (3, 7, 11):
            bumped = x.copy()
            bumped[t] += rng.standard_normal(4)
            out = causal_conv1d(Tensor(bumped), Tensor(kernel), Tensor(bias)).data
            np.testing.assert_array_equal(out[:t], base[:t])

    def test_width_limit_enforced(self):
        with pytest.raises(ConfigError):
            causal_conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((5, 2))), Tensor(np.zeros(2)), max_width=4)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        x_data = rng.standard_normal((6, 3))
        k_data = rng.standard_normal((3, 3))
        b_data = rng.standard_normal(3)
        coef = rng.standard_normal((6, 3))

        x = Tensor(x_data.copy(), requires_grad=True)
        k = Tensor(k_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        backward(sum_all(mul(causal_conv1d(x, k, b), Tensor(coef))))

        def loss_fn():
            w = k_data.shape[0]
            padded = np.vstack([np.zeros((w - 1, 3)), x_data])
            out = np.zeros_like(x_data)
            for t in range(6):
                for tau in range(w):
                    out[t] += k_data[tau] * padded[w - 1 + t - tau]
            return float(((out + b_data) * coef).sum())

        assert max_rel_err(x.grad, central_diff(loss_fn, x_data)) < 1e-6
        assert max_rel_err(k.grad, central_diff(loss_fn, k_data)) < 1e-6
        assert max_rel_err(b.grad, central_diff(loss_fn, b_data)) < 1e-6


    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_history_continues_the_sequence(self, width):
        rng = np.random.default_rng(30 + width)
        x1, x2 = rng.standard_normal((5, 3)), rng.standard_normal((3, 3))
        k, b = Tensor(rng.standard_normal((width, 3))), Tensor(rng.standard_normal(3))
        whole = causal_conv1d(Tensor(np.vstack([x1, x2])), k, b).data
        tail = x1[len(x1) - (width - 1) :]
        np.testing.assert_array_equal(causal_conv1d(Tensor(x2), k, b, history=tail).data, whole[len(x1) :])

    def test_history_is_a_constant_in_the_gradient(self):
        rng = np.random.default_rng(34)
        x1, x2 = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
        k_data, b_data, coef = rng.standard_normal((3, 2)), rng.standard_normal(2), rng.standard_normal((3, 2))
        k = Tensor(k_data.copy(), requires_grad=True)
        x = Tensor(x2.copy(), requires_grad=True)
        backward(sum_all(mul(causal_conv1d(x, k, Tensor(b_data), history=x1[-2:]), Tensor(coef))))

        def loss_fn():
            out = causal_conv1d(Tensor(np.vstack([x1, x2])), Tensor(k_data), Tensor(b_data)).data[len(x1) :]
            return float((out * coef).sum())

        assert max_rel_err(k.grad, central_diff(loss_fn, k_data)) < 1e-6
        assert max_rel_err(x.grad, central_diff(loss_fn, x2)) < 1e-6

    def test_history_shape_checked(self):
        with pytest.raises(ShapeError):
            causal_conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)), history=np.zeros((1, 2)))


class TestLinearRecurrence:
    def test_zero_decay_is_memoryless(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal((6, 2))
        b = np.array([0.5, 2.0])
        out = linear_recurrence(Tensor(u.copy()), Tensor(np.zeros(2)), Tensor(b))
        np.testing.assert_allclose(out.data, u * b, atol=1e-12)

    def test_unit_coefficients_integrate(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal((7, 3))
        out = linear_recurrence(Tensor(u.copy()), Tensor(np.ones(3)), Tensor(np.ones(3)))
        np.testing.assert_allclose(out.data, np.cumsum(u, axis=0), atol=1e-10)

    def test_matches_naive_sequential_loop(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal((9, 4))
        a = rng.uniform(0.1, 0.9, size=4)
        b = rng.standard_normal(4)
        out = linear_recurrence(Tensor(u.copy()), Tensor(a), Tensor(b)).data
        h = np.zeros(4)
        for t in range(9):
            h = a * h + b * u[t]
            np.testing.assert_allclose(out[t], h, atol=1e-6)

    def test_fading_memory_impulse_bound(self):
        a = np.array([0.6, 0.8])
        u = np.zeros((10, 2))
        u[0] = 1.0
        out = linear_recurrence(Tensor(u), Tensor(a), Tensor(np.ones(2))).data
        for t in range(10):
            assert np.all(np.abs(out[t]) <= a.max() ** t + 1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        u_data = rng.standard_normal((5, 3))
        a_data = rng.uniform(0.2, 0.8, size=3)
        b_data = rng.standard_normal(3)
        coef = rng.standard_normal((5, 3))

        u = Tensor(u_data.copy(), requires_grad=True)
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        backward(sum_all(mul(linear_recurrence(u, a, b), Tensor(coef))))

        def loss_fn():
            h = np.zeros(3)
            total = 0.0
            for t in range(5):
                h = a_data * h + b_data * u_data[t]
                total += float(h @ coef[t])
            return total

        assert max_rel_err(u.grad, central_diff(loss_fn, u_data)) < 1e-6
        assert max_rel_err(a.grad, central_diff(loss_fn, a_data)) < 1e-6
        assert max_rel_err(b.grad, central_diff(loss_fn, b_data)) < 1e-6

    def test_start_state_continues_the_scan(self):
        rng = np.random.default_rng(35)
        u1, u2 = rng.standard_normal((6, 4)), rng.standard_normal((3, 4))
        a, b = Tensor(rng.uniform(0.1, 0.9, size=4)), Tensor(rng.standard_normal(4))
        h1 = linear_recurrence(Tensor(u1), a, b).data
        whole = linear_recurrence(Tensor(np.vstack([u1, u2])), a, b).data
        np.testing.assert_array_equal(linear_recurrence(Tensor(u2), a, b, h0=h1[-1]).data, whole[len(u1) :])

    def test_start_state_enters_the_decay_gradient(self):
        rng = np.random.default_rng(36)
        u_data, h0 = rng.standard_normal((4, 3)), rng.standard_normal(3)
        a_data, b_data = rng.uniform(0.2, 0.8, size=3), rng.standard_normal(3)
        coef = rng.standard_normal((4, 3))
        a = Tensor(a_data.copy(), requires_grad=True)
        u = Tensor(u_data.copy(), requires_grad=True)
        backward(sum_all(mul(linear_recurrence(u, a, Tensor(b_data), h0=h0), Tensor(coef))))

        def loss_fn():
            h, total = h0.copy(), 0.0
            for t in range(4):
                h = a_data * h + b_data * u_data[t]
                total += float(h @ coef[t])
            return total

        assert max_rel_err(a.grad, central_diff(loss_fn, a_data)) < 1e-6
        assert max_rel_err(u.grad, central_diff(loss_fn, u_data)) < 1e-6

    def test_start_state_shape_checked(self):
        with pytest.raises(ShapeError):
            linear_recurrence(Tensor(np.zeros((3, 2))), Tensor(np.ones(2)), Tensor(np.ones(2)), h0=np.zeros(3))


T = SCAN_BLOCK


def _scale_err(got, want):
    """Largest error relative to the largest reference entry: a recurrence's
    entries pass near zero, where an elementwise ratio says nothing."""
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want)) / np.max(np.abs(want)))


def _recurrence_case(length, width, seed, dtype=np.float64, lo=0.2, hi=0.999):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((length, width)).astype(dtype)
    a = rng.uniform(lo, hi, size=width).astype(dtype)
    b = rng.standard_normal(width).astype(dtype)
    h0 = rng.standard_normal(width).astype(dtype)
    return u, a, b, h0


class TestBlockedScan:
    """``linear_recurrence`` over lengths that cross ``SCAN_BLOCK`` boundaries."""

    @pytest.mark.parametrize("length", [1, T - 1, T, T + 1, 3 * T + 5, 2047])
    @pytest.mark.parametrize("with_h0", [False, True])
    def test_float64_matches_the_naive_loop(self, length, with_h0):
        u, a, b, h0 = _recurrence_case(length, 8, seed=length)
        h0 = h0 if with_h0 else None
        got = linear_recurrence(Tensor(u), Tensor(a), Tensor(b), h0=h0).data
        assert _scale_err(got, linear_recurrence_naive(u, a, b, h0)) < 1e-12

    @pytest.mark.parametrize("length", [1, 2, T - 1, T])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_block_is_the_sequential_loop_bit_for_bit(self, length, dtype):
        u_data, a_data, b_data, h0 = _recurrence_case(length, 6, seed=40 + length, dtype=dtype)
        coef = np.random.default_rng(41).standard_normal((length, 6)).astype(dtype)
        u, a, b = (Tensor(v.copy(), requires_grad=True) for v in (u_data, a_data, b_data))
        out = linear_recurrence(u, a, b, h0=h0)
        backward(sum_all(mul(out, Tensor(coef))))
        # the sequential loop and its adjoint, in the working dtype and in that order
        hs, h = np.empty_like(u_data), h0
        for t in range(length):
            h = a_data * h + b_data * u_data[t]
            hs[t] = h
        lam, nxt = np.empty_like(u_data), np.zeros_like(h0)
        for t in range(length - 1, -1, -1):
            nxt = coef[t] + a_data * nxt
            lam[t] = nxt
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, hs)
        np.testing.assert_array_equal(u.grad, b_data * lam)
        np.testing.assert_array_equal(a.grad, (lam * np.vstack([h0, hs[:-1]])).sum(axis=0))
        np.testing.assert_array_equal(b.grad, (lam * u_data).sum(axis=0))

    @pytest.mark.parametrize("with_h0", [False, True])
    def test_gradients_across_blocks_match_finite_differences(self, with_h0):
        length = 2 * T + 3
        u_data, a_data, b_data, h0 = _recurrence_case(length, 3, seed=42, lo=0.5, hi=0.99)
        h0 = h0 if with_h0 else None
        coef = np.random.default_rng(43).standard_normal((length, 3))
        u, a, b = (Tensor(v.copy(), requires_grad=True) for v in (u_data, a_data, b_data))
        backward(sum_all(mul(linear_recurrence(u, a, b, h0=h0), Tensor(coef))))

        def loss_fn():
            return float((linear_recurrence_naive(u_data, a_data, b_data, h0) * coef).sum())

        assert max_rel_err(u.grad, central_diff(loss_fn, u_data)) < 1e-6
        assert max_rel_err(a.grad, central_diff(loss_fn, a_data)) < 1e-6
        assert max_rel_err(b.grad, central_diff(loss_fn, b_data)) < 1e-6

    @pytest.mark.parametrize("split", [T - 1, T, T + 1, 2 * T])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_a_split_run_continues_through_the_start_state(self, split, dtype, tol):
        u, a, b, _ = _recurrence_case(3 * T + 5, 8, seed=44, dtype=dtype)
        a, b = Tensor(a), Tensor(b)
        whole = linear_recurrence(Tensor(u), a, b).data
        first = linear_recurrence(Tensor(u[:split]), a, b).data
        rest = linear_recurrence(Tensor(u[split:]), a, b, h0=first[-1]).data
        assert _scale_err(np.vstack([first, rest]), whole) < tol

    @pytest.mark.parametrize("decay", [0.0, 1e-3, 0.999, 1.0])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_extreme_decays_stay_finite_and_accurate(self, decay, dtype, tol):
        u, _, b, h0 = _recurrence_case(2047, 4, seed=45, dtype=dtype)
        a = np.full(4, decay, dtype=dtype)
        got = linear_recurrence(Tensor(u), Tensor(a), Tensor(b), h0=h0).data
        assert np.all(np.isfinite(got))
        assert _scale_err(got, linear_recurrence_naive(u, a, b, h0)) < tol

    def test_a_long_scan_is_one_graph_node(self):
        def nodes(length):
            u, a, b, _ = _recurrence_case(length, 4, seed=46)
            u, a, b = (Tensor(v, requires_grad=True) for v in (u, a, b))
            return backward(sum_all(linear_recurrence(u, a, b)))

        assert nodes(2047) == nodes(5)


class TestNormSigmoidEmbedding:
    def test_rms_norm_gradients(self):
        rng = np.random.default_rng(14)
        x_data = rng.standard_normal((4, 5))
        w_data = rng.standard_normal(5)
        coef = rng.standard_normal((4, 5))

        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        backward(sum_all(mul(rms_norm(x, w), Tensor(coef))))

        def loss_fn():
            r = np.sqrt((x_data**2).mean(axis=1, keepdims=True) + 1e-6)
            return float((x_data / r * w_data * coef).sum())

        assert max_rel_err(x.grad, central_diff(loss_fn, x_data)) < 1e-5
        assert max_rel_err(w.grad, central_diff(loss_fn, w_data)) < 1e-5

    def test_sigmoid_values_and_gradient(self):
        x_data = np.array([-700.0, -2.0, 0.0, 2.0, 700.0])
        out = sigmoid(Tensor(x_data.copy()))
        np.testing.assert_allclose(out.data[2], 0.5)
        assert out.data[0] >= 0.0 and out.data[-1] <= 1.0

        x = Tensor(np.array([-1.0, 0.5]), requires_grad=True)
        backward(sum_all(sigmoid(x)))

        def loss_fn():
            return float((1.0 / (1.0 + np.exp(-x.data))).sum())

        fd = central_diff(loss_fn, x.data)
        assert max_rel_err(x.grad, fd) < 1e-6

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_sigmoid_against_a_float64_reference(self, dtype, tol):
        x_data = np.linspace(-100.0, 100.0, 40001)
        want = 1.0 / (1.0 + np.exp(-x_data))
        x = Tensor(x_data.astype(dtype), requires_grad=True)
        with np.errstate(all="raise"):
            out = sigmoid(x)
            backward(sum_all(out))
        assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()
        assert np.max(np.abs(out.data - want)) < tol
        assert np.max(np.abs(x.grad - want * (1.0 - want))) < tol

    def test_embedding_lookup_and_scatter_gradient(self):
        table_data = np.arange(12, dtype=np.float64).reshape(4, 3)
        table = Tensor(table_data.copy(), requires_grad=True)
        ids = np.array([1, 1, 3])
        out = embedding_lookup(table, ids)
        np.testing.assert_array_equal(out.data, table_data[ids])
        backward(sum_all(out))
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_embedding_rejects_out_of_range(self):
        from spanattn.errors import InputError

        with pytest.raises(InputError):
            embedding_lookup(Tensor(np.zeros((4, 3))), np.array([4]))


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((5, 7), dtype=np.float64))
        out = cross_entropy_logits(logits, np.zeros(5, dtype=int))
        np.testing.assert_allclose(out.item(), math.log(7.0), atol=1e-12)

    def test_ignore_index_excluded_from_mean(self):
        logits = Tensor(np.zeros((4, 3), dtype=np.float64))
        targets = np.array([0, 1, -1, -1])
        out = cross_entropy_logits(logits, targets, ignore_index=-1)
        np.testing.assert_allclose(out.item(), math.log(3.0), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        z_data = rng.standard_normal((6, 5))
        targets = rng.integers(0, 5, size=6)

        z = Tensor(z_data.copy(), requires_grad=True)
        backward(cross_entropy_logits(z, targets))

        def loss_fn():
            m = z_data.max(axis=1, keepdims=True)
            logp = z_data - m - np.log(np.exp(z_data - m).sum(axis=1, keepdims=True))
            return float(-logp[np.arange(6), targets].mean())

        assert max_rel_err(z.grad, central_diff(loss_fn, z_data)) < 1e-5
