"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray plus the tape links (inputs, vjp closure)
recorded while building a forward computation.  There is one tape rule:
an op records links exactly when some input has `requires_grad`, so a
forward over constant tensors, such as `Tensor(p.data)` views of
trained parameters, records nothing.  `trace` returns the recorded
graph in topological order and `backward` walks it in reverse,
accumulating gradients into the `.grad` buffers of every tensor that
requires them.  The tests check the analytic gradients against a
central-difference oracle of their own (`tests/finite_difference.py`).

The op set is deliberately small: matrix products (dense, stacked and
constant-sparse), elementwise add/mul, data movement (take/concat/stack/
reshape/swapaxes), relu/sigmoid/logsigmoid/softmax and sum/mean
reductions.  That closure is what the batch-wide model forward uses.
`add`, `mul` and the leading (stack) axes of `matmul` follow numpy
broadcasting; their gradients are summed back to each operand's shape
(`_unbroadcast`).  Every other op requires exact shapes.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import UsageError

class Tensor:
    """A float64 array plus the links recorded for reverse-mode autodiff.

    `data` is always a contiguous float64 ndarray.  Leaves created with
    requires_grad=True are trainable parameters; tensors produced by ops
    inherit requires_grad from their inputs and carry a vjp closure that
    routes the output gradient back to them.
    """

    __slots__ = ("data", "requires_grad", "grad", "inputs", "_vjp")

    def __init__(self, data, requires_grad: bool = False, *, inputs: tuple = (),
                 vjp: Callable | None = None):
        # asarray with order="C" keeps 0-d scalars 0-d (ascontiguousarray would
        # promote them to shape (1,))
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.inputs = inputs
        self._vjp = vjp


def as_tensor(x) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _result(data, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Build an op result, recording tape links exactly when some input
    requires gradients."""
    if any(t.requires_grad for t in inputs):
        return Tensor(data, requires_grad=True, inputs=tuple(inputs), vjp=vjp)
    return Tensor(data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into `t.grad`.  A first gradient is copied, so `t.grad` is
    always a C-contiguous float64 array that no caller holds."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# graph walking

def trace(output: Tensor) -> list[Tensor]:
    """Recorded computation reachable from `output`, in topological order.

    Every tensor's inputs appear before it; the list is the explicit form
    of the (acyclic by construction) computation record.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for t in node.inputs:
            if id(t) not in seen:
                stack.append((t, False))
    return order


def backward(output: Tensor) -> None:
    """Accumulate d(output)/d(t) into t.grad for every tensor in the graph.

    `output` must be scalar.  Leaf gradients are accumulated, so callers
    reusing parameter tensors across steps must reset `.grad` first.
    """
    if output.data.shape != ():
        raise UsageError(f"backward target must be a scalar, got shape {output.data.shape}")
    order = trace(output)
    output.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)


def grad_map(output: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Run backward and return {name: gradient} for the given parameters.

    Parameters the graph never touched get explicit zero gradients.
    """
    backward(output)
    return {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }


# ---------------------------------------------------------------------------
# primitives

def _broadcast_op(op: str, f, a: Tensor, b: Tensor) -> np.ndarray:
    """`f(a.data, b.data)`, with numpy's shape errors named as usage errors."""
    try:
        return f(a.data, b.data)
    except ValueError:
        raise UsageError(f"{op} shape mismatch: {a.data.shape} vs {b.data.shape}") from None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast result's gradient back down to an operand's shape."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum under numpy broadcasting."""
    out_data = _broadcast_op("add", np.add, a, b)

    def vjp(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _result(out_data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product under numpy broadcasting."""
    out_data = _broadcast_op("mul", np.multiply, a, b)

    def vjp(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(out_data, (a, b), vjp)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python-float constant."""
    c = float(c)

    def vjp(g):
        _accum(x, g * c)

    return _result(x.data * c, (x,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (numpy.matmul) of 1-D/2-D operands, or of two stacks
    of matrices (..., m, k) @ (..., k, p) whose leading axes broadcast."""
    an, bn = a.data.ndim, b.data.ndim
    if min(an, bn) == 0 or (max(an, bn) > 2 and min(an, bn) < 3):
        raise UsageError(f"matmul supports 1-D/2-D operands or two stacks, "
                         f"got {a.data.shape} @ {b.data.shape}")
    out_data = _broadcast_op("matmul", np.matmul, a, b)

    def vjp(g):
        # a 1-D operand acts as a (1, k) row or a (k, 1) column
        a2 = a.data if an > 1 else a.data[None, :]
        b2 = b.data if bn > 1 else b.data[:, None]
        g2 = np.reshape(g, out_data.shape[:-2] + a2.shape[-2:-1] + b2.shape[-1:])
        ga = _unbroadcast(g2 @ np.swapaxes(b2, -1, -2), a2.shape)
        gb = _unbroadcast(np.swapaxes(a2, -1, -2) @ g2, b2.shape)
        _accum(a, ga.reshape(a.data.shape))
        _accum(b, gb.reshape(b.data.shape))

    return _result(out_data, (a, b), vjp)


def swapaxes(x: Tensor) -> Tensor:
    """Swap the last two axes: a stack of matrix transposes."""
    if x.data.ndim < 2:
        raise UsageError(f"swapaxes needs at least 2 axes, got {x.data.shape}")

    def vjp(g):
        _accum(x, np.swapaxes(g, -1, -2))

    return _result(np.swapaxes(x.data, -1, -2), (x,), vjp)


def spmm(m, x: Tensor) -> Tensor:
    """Left-multiply by a constant symmetric matrix (scipy sparse or ndarray).

    Only `x` receives gradients; `m` is graph structure, not a parameter.
    `m` must equal its transpose bitwise, as the normalized group and
    instance adjacencies do by construction: the vjp computes `m.T @ g`
    as `m @ g`, without building the transpose.
    """
    if x.data.ndim != 2:
        raise UsageError(f"spmm expects a 2-D right operand, got {x.data.shape}")
    if m.shape[1] != x.data.shape[0]:
        raise UsageError(f"spmm shape mismatch: {m.shape} @ {x.data.shape}")
    out_data = np.asarray(m @ x.data)

    def vjp(g):
        _accum(x, np.asarray(m @ g))

    return _result(out_data, (x,), vjp)


def take(x: Tensor, idx) -> Tensor:
    """Select rows (2-D) or elements (1-D) by an integer index array.

    Duplicate indices are allowed; their gradients accumulate.
    """
    idx = np.asarray(idx, dtype=np.intp)
    out_data = x.data[idx]

    def vjp(g):   # recorded only when x requires gradients (`_result`)
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        # np.add.at over rows, as one scatter of elements: each element
        # still takes its addends in the order idx lists them
        d = math.prod(x.data.shape[1:])
        np.add.at(x.grad.reshape(-1), (idx.reshape(-1, 1) * d + np.arange(d)).ravel(),
                  np.reshape(g, -1))

    return _result(out_data, (x,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an existing axis."""
    parts = list(parts)
    if not parts:
        raise UsageError("concat of zero tensors")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _result(out_data, tuple(parts), vjp)


def stack(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new axis (scalars -> vector)."""
    parts = list(parts)
    if not parts:
        raise UsageError("stack of zero tensors")
    out_data = np.stack([p.data for p in parts], axis=axis)

    def vjp(g):
        for i, p in enumerate(parts):
            _accum(p, np.take(g, i, axis=axis))

    return _result(out_data, tuple(parts), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    orig = x.data.shape

    def vjp(g):
        _accum(x, g.reshape(orig))

    return _result(x.data.reshape(shape), (x,), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def vjp(g):
        _accum(x, g * mask)

    # a NaN passes through (`x <= 0` is false for it); -0.0 maps to +0.0
    return _result(np.where(x.data <= 0, 0.0, x.data), (x,), vjp)


def _sigmoid_nd(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; both branches are exact.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid_nd(x.data)

    def vjp(g):
        _accum(x, g * out_data * (1.0 - out_data))

    return _result(out_data, (x,), vjp)


def logsigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)), stable for large |x|."""
    out_data = np.minimum(x.data, 0.0) - np.log1p(np.exp(-np.abs(x.data)))

    def vjp(g):
        _accum(x, g * _sigmoid_nd(-x.data))

    return _result(out_data, (x,), vjp)


# numpy reduces an axis shorter than 8 left to right, as these slice passes
# do, but its per-call setup costs several times as much on short axes
_SHORT_AXIS = 8


def _reduce(ufunc, a: np.ndarray, axis: int, keepdims: bool = True) -> np.ndarray:
    """`ufunc.reduce(a, axis, keepdims=keepdims)` bit for bit: an axis
    shorter than `_SHORT_AXIS` as one ufunc call per entry, left to
    right, starting from the ufunc's identity if it has one (numpy's sum
    starts at +0.0, so a sum of -0.0 is +0.0).  A result may be a view
    of `a`."""
    n = a.shape[axis]
    if not 0 < n < _SHORT_AXIS:
        return ufunc.reduce(a, axis=axis, keepdims=keepdims)
    lead = (slice(None),) * (axis % a.ndim)
    entry = [lead + ((slice(i, i + 1) if keepdims else i),) for i in range(n)]
    out = a[entry[0]] if ufunc.identity is None else ufunc(ufunc.identity, a[entry[0]])
    for i in entry[1:]:
        out = ufunc(out, a[i])
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Probability-normalized exponentials along `axis` (max-shifted)."""
    if x.data.size == 0:
        raise UsageError("softmax of an empty tensor")
    z = x.data - _reduce(np.maximum, x.data, axis)
    e = np.exp(z)
    out_data = e / _reduce(np.add, e, axis)

    def vjp(g):
        inner = _reduce(np.add, g * out_data, axis)
        _accum(x, out_data * (g - inner))

    return _result(out_data, (x,), vjp)


def tensor_sum(x: Tensor, axis: int | None = None) -> Tensor:
    out_data = x.data.sum(axis=axis)

    def vjp(g):
        _accum(x, np.broadcast_to(g if axis is None else np.expand_dims(g, axis),
                                  x.data.shape).copy())

    return _result(out_data, (x,), vjp)


def tensor_mean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    if n == 0:
        raise UsageError("mean of an empty tensor")
    out_data = (x.data.mean() if axis is None
                else _reduce(np.add, x.data, axis, keepdims=False) / n)

    def vjp(g):
        g = g / n
        _accum(x, np.broadcast_to(g if axis is None else np.expand_dims(g, axis),
                                  x.data.shape).copy())

    return _result(out_data, (x,), vjp)
