"""Minimal reverse-mode automatic differentiation on dense float64 arrays.

A ``DiffArray`` wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar result walks the graph in reverse topological
order and accumulates exact gradients into every node's ``grad`` buffer.
Gradients on leaves persist across backward calls (call ``zero_grad`` on the
leaves to reset), which is what batched gradient accumulation relies on.

The op set is deliberately small: elementwise arithmetic on equal shapes
(plus python scalars), matrix products of 1-D/2-D operands, a handful of
activations, basic slicing, concatenation, row stacking/broadcast, and a
fused mean-square reduction. There is no general broadcasting.

Values are treated as immutable once wrapped; mutating ``values`` in place
invalidates recorded gradients.
"""

from __future__ import annotations

import contextlib

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class DiffArray:
    """A node in the reverse-mode computation graph."""

    __slots__ = ("values", "grad", "_parents", "_backward")

    def __init__(self, values, _parents=(), _backward=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    def __repr__(self):
        return f"DiffArray(shape={self.shape}, leaf={not self._parents})"

    # -- graph construction -------------------------------------------

    def _accumulate(self, delta):
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += delta

    def backward(self):
        """Seed this scalar node with gradient 1 and backpropagate."""
        if self.size != 1:
            raise ValueError("backward() must start from a scalar node")
        order = _toposort(self)
        self._accumulate(np.ones_like(self.values))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    # -- operators ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)


def lift(x) -> DiffArray:
    """Wrap an ndarray or scalar as a leaf node (constant unless a parameter)."""
    return x if isinstance(x, DiffArray) else DiffArray(x)


def _toposort(root: DiffArray):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _node(values, parents, backward):
    if not _GRAD_ENABLED:
        return DiffArray(values)
    return DiffArray(values, _parents=parents, _backward=backward)


def _check_same_shape(a: DiffArray, b: DiffArray, op: str):
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not match")


def _accum_elementwise(target: DiffArray, delta):
    # A 0-d operand collects the sum of the incoming gradient.
    if target.ndim == 0 and np.ndim(delta) > 0:
        target._accumulate(np.sum(delta))
    else:
        target._accumulate(delta)


# -- elementwise arithmetic ---------------------------------------------


def add(a, b) -> DiffArray:
    a, b = lift(a), lift(b)
    _check_same_shape(a, b, "add")
    out = a.values + b.values

    def backward(g):
        _accum_elementwise(a, g)
        _accum_elementwise(b, g)

    return _node(out, (a, b), backward)


def sub(a, b) -> DiffArray:
    a, b = lift(a), lift(b)
    _check_same_shape(a, b, "sub")
    out = a.values - b.values

    def backward(g):
        _accum_elementwise(a, g)
        _accum_elementwise(b, -g)

    return _node(out, (a, b), backward)


def mul(a, b) -> DiffArray:
    a, b = lift(a), lift(b)
    _check_same_shape(a, b, "mul")
    out = a.values * b.values

    def backward(g):
        _accum_elementwise(a, g * b.values)
        _accum_elementwise(b, g * a.values)

    return _node(out, (a, b), backward)


def div(a, b) -> DiffArray:
    a, b = lift(a), lift(b)
    _check_same_shape(a, b, "div")
    out = a.values / b.values

    def backward(g):
        _accum_elementwise(a, g / b.values)
        _accum_elementwise(b, -g * out / b.values)

    return _node(out, (a, b), backward)


# -- matrix products ------------------------------------------------------


def matmul(a, b) -> DiffArray:
    a, b = lift(a), lift(b)
    if a.ndim == 0 or b.ndim == 0 or a.ndim > 2 or b.ndim > 2:
        raise ValueError("matmul supports 1-D and 2-D operands only")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul: inner dims {a.shape} @ {b.shape} do not match")
    out = a.values @ b.values

    if a.ndim == 2 and b.ndim == 2:
        def backward(g):
            a._accumulate(g @ b.values.T)
            b._accumulate(a.values.T @ g)
    elif a.ndim == 2 and b.ndim == 1:
        def backward(g):
            a._accumulate(np.outer(g, b.values))
            b._accumulate(a.values.T @ g)
    else:  # 1-D @ 2-D
        def backward(g):
            a._accumulate(b.values @ g)
            b._accumulate(np.outer(a.values, g))

    return _node(out, (a, b), backward)


# -- activations ----------------------------------------------------------


def sigmoid(x) -> DiffArray:
    x = lift(x)
    out = 0.5 * (1.0 + np.tanh(0.5 * x.values))  # numerically stable logistic

    def backward(g):
        x._accumulate(g * out * (1.0 - out))

    return _node(out, (x,), backward)


def tanh(x) -> DiffArray:
    x = lift(x)
    out = np.tanh(x.values)

    def backward(g):
        x._accumulate(g * (1.0 - out * out))

    return _node(out, (x,), backward)


def relu(x) -> DiffArray:
    x = lift(x)
    out = np.maximum(x.values, 0.0)

    def backward(g):
        x._accumulate(g * (x.values > 0))

    return _node(out, (x,), backward)


def exp(x) -> DiffArray:
    x = lift(x)
    out = np.exp(x.values)

    def backward(g):
        x._accumulate(g * out)

    return _node(out, (x,), backward)


def softplus(x) -> DiffArray:
    x = lift(x)
    out = np.logaddexp(0.0, x.values)

    def backward(g):
        x._accumulate(g * (0.5 * (1.0 + np.tanh(0.5 * x.values))))

    return _node(out, (x,), backward)


def clamp(x, lo: float, hi: float) -> DiffArray:
    """Clip to [lo, hi]; gradient is zero outside the pass-through region."""
    x = lift(x)
    out = np.clip(x.values, lo, hi)

    def backward(g):
        x._accumulate(g * ((x.values >= lo) & (x.values <= hi)))

    return _node(out, (x,), backward)


# -- shape ops --------------------------------------------------------------


def take(x, key) -> DiffArray:
    """Basic slicing/indexing; gradient scatters back into the source."""
    x = lift(x)
    out = x.values[key]

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.values)
        x.grad[key] += g

    return _node(out, (x,), backward)


def concat(parts, axis: int = 0) -> DiffArray:
    parts = [lift(p) for p in parts]
    out = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = (slice(None),) * axis + (slice(lo, hi),)
            p._accumulate(g[idx])

    return _node(out, tuple(parts), backward)


def stack_rows(rows) -> DiffArray:
    """Stack equal-length 1-D nodes into a 2-D node, one per row."""
    rows = [lift(r) for r in rows]
    if any(r.ndim != 1 for r in rows):
        raise ValueError("stack_rows expects 1-D nodes")
    out = np.stack([r.values for r in rows])

    def backward(g):
        for i, r in enumerate(rows):
            r._accumulate(g[i])

    return _node(out, tuple(rows), backward)


def add_rowvec(x, b) -> DiffArray:
    """Add a length-K vector to every row of a T x K node."""
    x, b = lift(x), lift(b)
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ValueError(f"add_rowvec: shapes {x.shape} and {b.shape} do not match")
    out = x.values + b.values

    def backward(g):
        x._accumulate(g)
        b._accumulate(g.sum(axis=0))

    return _node(out, (x, b), backward)


# -- reductions --------------------------------------------------------------


def mean_square(a, b) -> DiffArray:
    """Scalar mean of the squared difference between two equal-shape nodes."""
    a, b = lift(a), lift(b)
    if a.shape != b.shape:
        raise ValueError(f"mean_square: shapes {a.shape} and {b.shape} do not match")
    diff = a.values - b.values
    out = np.mean(diff * diff)

    def backward(g):
        scale = 2.0 / diff.size * g
        a._accumulate(scale * diff)
        b._accumulate(-scale * diff)

    return _node(out, (a, b), backward)
