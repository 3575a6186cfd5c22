"""Autodiff core: forward values, gradients vs finite differences, error surfacing."""

import numpy as np
import pytest
from helpers import central_diff, max_rel_err

from spanattn.errors import NumericError, ShapeError, UsageError
from spanattn.tensor import (
    Tensor,
    backward,
    concat,
    matmul,
    mean_all,
    mul,
    narrow,
    scale,
    sum_all,
    transpose,
)


def test_matmul_identity():
    eye = Tensor(np.eye(2, dtype=np.float64))
    m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_selects_single_entry():
    a = Tensor(np.array([[1.0, 0.0]]))
    b = Tensor(np.array([[0.0], [5.0]]))
    out = matmul(a, b)
    np.testing.assert_array_equal(out.data, [[0.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    a_data = rng.standard_normal((3, 4))
    b_data = rng.standard_normal((4, 2))

    a = Tensor(a_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    loss = sum_all(mul(matmul(a, b), matmul(a, b)))
    backward(loss)

    def loss_fn():
        out = a_data @ b_data
        return float((out * out).sum())

    fd_a = central_diff(loss_fn, a_data)
    fd_b = central_diff(loss_fn, b_data)
    assert max_rel_err(a.grad, fd_a) < 1e-6
    assert max_rel_err(b.grad, fd_b) < 1e-6


def test_backward_returns_the_number_of_nodes_it_replayed():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    constant = Tensor(np.array([3.0, 4.0]))
    assert backward(sum_all(mul(mul(x, constant), x))) == 4  # x, two products, the sum


def test_backward_sum_gives_ones():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_half_square_gives_x():
    data = np.array([1.5, -0.5, 2.0])
    x = Tensor(data.copy(), requires_grad=True)
    backward(scale(sum_all(mul(x, x)), 0.5))
    np.testing.assert_allclose(x.grad, data, rtol=1e-12)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        backward(x + x)


def test_backward_accumulates_shared_operand():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x + x
    backward(sum_all(y))
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_consumes_tape():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = sum_all(mul(x, x))
    backward(loss)
    assert loss._grad_fn is None and loss._parents == ()


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(1)
    m_data = rng.standard_normal((4, 3))
    v_data = rng.standard_normal(3)

    m = Tensor(m_data.copy(), requires_grad=True)
    v = Tensor(v_data.copy(), requires_grad=True)
    backward(sum_all(mul(m + v, m + v)))

    def loss_fn():
        out = m_data + v_data
        return float((out * out).sum())

    assert max_rel_err(m.grad, central_diff(loss_fn, m_data)) < 1e-6
    assert max_rel_err(v.grad, central_diff(loss_fn, v_data)) < 1e-6


def test_narrow_concat_transpose_gradients():
    rng = np.random.default_rng(2)
    x_data = rng.standard_normal((5, 4))
    x = Tensor(x_data.copy(), requires_grad=True)
    top = narrow(x, 0, 0, 2)
    bottom = narrow(x, 0, 2, 5)
    recombined = concat([transpose(transpose(top)), bottom], axis=0)
    cols = concat([narrow(recombined, 1, 0, 2), narrow(recombined, 1, 2, 4)], axis=1)
    backward(sum_all(mul(cols, cols)))
    np.testing.assert_allclose(x.grad, 2.0 * x_data, rtol=1e-12)


def test_mean_all_gradient():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    backward(mean_all(x))
    np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0))


def test_non_finite_output_raises():
    x = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            scale(x, 1e10)


def test_float64_inputs_stay_float64():
    x = Tensor(np.ones(3, dtype=np.float64))
    assert (x + x).dtype == np.float64
    y = Tensor(np.ones(3, dtype=np.float32))
    assert (y + y).dtype == np.float32


def test_integer_input_coerced_to_default_dtype():
    x = Tensor([1, 2, 3])
    assert x.dtype == np.float32
