"""Dense tensors with reverse-mode automatic differentiation.

Data lives in row-major numpy buffers (float32 by default, float64 for
gradient-check headroom). Each differentiable op records a backward closure
and its operand references on the output node; ``backward`` replays those
records in reverse topological order exactly once and then frees them.

Every primitive checks its output for NaN/Inf and raises ``NumericError``
instead of letting bad values propagate silently.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError, UsageError

DEFAULT_DTYPE = np.float32


def _as_array(data, dtype=None):
    a = np.asarray(data)
    if dtype is not None:
        return np.ascontiguousarray(a, dtype=dtype)
    if a.dtype.kind != "f":
        return np.ascontiguousarray(a, dtype=DEFAULT_DTYPE)
    return np.ascontiguousarray(a)


def _check_finite(data, op):
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by {op}")


class Tensor:
    """N-d array plus an optional gradient buffer of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise UsageError("tensor/tensor division is not a primitive; divide by a scalar")
        return scale(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)


def _node(data, parents, grad_fn, op):
    """Wrap a forward result; attach the backward record when grads are needed."""
    _check_finite(data, op)
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(loss):
    """Populate .grad on every requires_grad tensor reachable from a scalar loss.

    The recorded graph is consumed: interior activations and closures are
    freed as soon as their gradient has been propagated. Returns the number
    of graph nodes replayed, leaves included.
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.data.size != 1:
        raise UsageError("backward expects a scalar loss")
    if not loss.requires_grad:
        raise UsageError("loss is not connected to any trainable tensor")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        fn = node._grad_fn
        if fn is None:
            continue
        if node.grad is not None:
            fn(node.grad)
        node._grad_fn = None
        node._parents = ()
        node.grad = None  # interior activation; leaves keep theirs
    return len(topo)


# primitives ---------------------------------------------------------------


def _coerce(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def add(a, b):
    b = _coerce(b, a)
    out_data = a.data + b.data

    def grad_fn(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), grad_fn, "add")


def sub(a, b):
    b = _coerce(b, a)
    out_data = a.data - b.data

    def grad_fn(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), grad_fn, "sub")


def mul(a, b):
    b = _coerce(b, a)
    out_data = a.data * b.data

    def grad_fn(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), grad_fn, "mul")


def scale(a, s):
    s = float(s)
    out_data = a.data * s

    def grad_fn(g):
        _accum(a, g * s)

    return _node(out_data, (a,), grad_fn, "scale")


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def grad_fn(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(out_data, (a, b), grad_fn, "matmul")


def transpose(a):
    out_data = a.data.T.copy()

    def grad_fn(g):
        _accum(a, g.T)

    return _node(out_data, (a,), grad_fn, "transpose")


def narrow(a, axis, start, stop):
    """Contiguous slice along one axis of a 2-d tensor."""
    if a.data.ndim != 2:
        raise ShapeError("narrow expects a 2-d tensor")
    if axis not in (0, 1):
        raise ShapeError("narrow axis must be 0 or 1")
    n = a.data.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"narrow range [{start}, {stop}) out of bounds for axis of size {n}")
    sl = (slice(start, stop), slice(None)) if axis == 0 else (slice(None), slice(start, stop))
    out_data = a.data[sl].copy()

    def grad_fn(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[sl] += g

    return _node(out_data, (a,), grad_fn, "narrow")


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise UsageError("concat of an empty sequence")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def grad_fn(g):
        off = 0
        for t, n in zip(tensors, sizes):
            sl = (slice(off, off + n),) if axis == 0 else (slice(None), slice(off, off + n))
            _accum(t, g[sl])
            off += n

    return _node(out_data, tuple(tensors), grad_fn, "concat")


def sum_all(a):
    out_data = np.asarray(a.data.sum(), dtype=a.dtype)

    def grad_fn(g):
        _accum(a, np.full_like(a.data, np.asarray(g).reshape(-1)[0]))

    return _node(out_data, (a,), grad_fn, "sum")


def mean_all(a):
    n = a.data.size
    out_data = np.asarray(a.data.mean(), dtype=a.dtype)

    def grad_fn(g):
        _accum(a, np.full_like(a.data, np.asarray(g).reshape(-1)[0] / n))

    return _node(out_data, (a,), grad_fn, "mean")
