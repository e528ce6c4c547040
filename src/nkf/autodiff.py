"""Minimal reverse-mode automatic differentiation on dense float64 arrays.

A ``DiffArray`` wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar result walks the graph in reverse topological
order and accumulates exact gradients into every leaf's ``grad`` buffer but
the constants made by ``lift``; inner nodes drop theirs once propagated.
Gradients on leaves persist across backward calls (``NkfModel.zero_grad``
resets a model's), which is what batched gradient accumulation relies on.

Each op is a layer of the NKF graph, and slicing is the one operator
overload. There is no broadcasting and no elementwise arithmetic: each
formula over layers (the Wiener filter, the NKF gain and combination, the
batch mean) is one ``make_node`` with its backward written out. The chains
they replaced are in ``tests/oracles.py``.

Values must not change while a graph that reads them is alive: backward
reuses them, so mutating ``values`` in place invalidates the gradients of
any graph recorded before. ``networks.optimizer_step`` updates parameter
values in place, between one step's backward and the next forward.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .worker import split_matmul

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

    __slots__ = ("values", "grad", "zeroed", "_parents", "_backward", "constant")

    def __init__(self, values, _parents=(), _backward=None, constant=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.zeroed = False   # whether grad holds only the zeros zero_grad left
        self._parents = _parents
        self._backward = _backward
        self.constant = constant

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def __repr__(self):
        return f"DiffArray(shape={self.shape}, leaf={not self._parents})"

    # -- graph construction -------------------------------------------

    def _accumulate(self, delta):
        """Add ``delta`` into ``grad`` in place; a first contribution becomes
        ``grad`` (a numpy scalar as a 0-d array), and a constant ignores it."""
        if self.constant:
            return
        if self.grad is None:
            self.grad = np.asarray(delta)
        else:
            self.grad += delta
        self.zeroed = False

    def backward(self):
        """Seed this scalar node with gradient 1 and backpropagate.

        A node's ``_backward`` may return the ``join`` that
        ``worker.on_worker`` gave it for a job that makes a deferred
        contribution: one to a leaf that no node reads and that only deferred
        contributions reach, while backward goes on. Every join is called, in
        node order, before this returns or raises; the worker runs jobs in
        turn, so deferred contributions add in node order, as inline. A
        node's exception leaves first; otherwise the first a job raised. After
        one raises, gradients are undefined until ``NkfModel.zero_grad``."""
        if self.values.size != 1:
            raise ValueError("backward() must start from a scalar node")
        order = _toposort(self)
        self._accumulate(np.ones_like(self.values))
        joins = []
        try:
            for node in reversed(order):
                if node._backward is not None:
                    joins.append(node._backward(node.grad))
                    node.grad = None
        finally:
            errors = [join() for join in joins if join is not None]
        for error in errors:
            if error is not None:
                raise error

    def __getitem__(self, key):
        return take(self, key)


def lift(x) -> DiffArray:
    """Wrap an ndarray or scalar as a constant leaf; nodes pass through."""
    return x if isinstance(x, DiffArray) else DiffArray(x, constant=True)


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


def make_node(values, parents, backward):
    """A node of ``values`` with the ``parents`` that ``backward(g)`` feeds,
    bare under ``no_grad``. ``backward`` hands each parent a fresh float64
    array of its shape that nothing else holds, as a first contribution
    becomes the parent's ``grad``."""
    if not _GRAD_ENABLED:
        return DiffArray(values)
    return DiffArray(values, _parents=parents, _backward=backward)


def add_product(node: DiffArray, a: np.ndarray, b: np.ndarray):
    """Add ``a @ b`` into ``node``'s gradient: straight into a ``grad`` that
    is ``zeroed``, with no product-sized temporary (equal but for a zero's sign)."""
    if node.zeroed:
        np.matmul(a, b, out=node.grad)
        node.zeroed = False
    else:
        node._accumulate(a @ b)


def check_shapes(op: str, *nodes: DiffArray):
    """``ValueError`` unless the nodes share a shape; a 0-d constant meets any."""
    if len({x.shape for x in nodes if x.ndim or not x.constant}) > 1:
        raise ValueError(f"{op}: shapes {[x.shape for x in nodes]} do not match")


def exp(x) -> DiffArray:
    x = lift(x)
    out = np.exp(x.values)

    def backward(g):
        x._accumulate(g * out)

    return make_node(out, (x,), backward)


def dense(x, w, b, act: str, *, limit: float = np.inf, floor: float = 0.0) -> DiffArray:
    """One dense layer as one node: ``act(x @ w + b)`` for a 2-D or
    B x T x In node ``x``, an In x K node ``w`` and a length-K node ``b``.
    ``act`` is ``"relu"``, ``"clamp"`` (to [-limit, limit]; the gradient is
    zero outside) or ``"softplus"`` (plus ``floor``). Backward adds ``b``'s,
    ``x``'s (unless constant) and ``w``'s contributions in that order. Values
    and gradients round as the ``matmul``, row-vector add, activation (and
    ``add``) chain did, bit for bit."""
    x, w, b = lift(x), lift(w), lift(b)
    if x.ndim not in (2, 3) or w.ndim != 2 or x.shape[-1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise ValueError(f"dense: shapes {x.shape} @ {w.shape} + {b.shape} do not match")
    z = x.values @ w.values
    z += b.values
    keep = None   # what backward reads besides the output
    if act == "relu":
        np.maximum(z, 0.0, out=z)
    elif act == "clamp":
        if _GRAD_ENABLED:
            keep = (z >= -limit) & (z <= limit)
        np.clip(z, -limit, limit, out=z)
    elif act == "softplus":
        if _GRAD_ENABLED:
            keep = np.multiply(0.5, z)
            np.tanh(keep, out=keep)
            keep += 1.0
            keep *= 0.5
        np.logaddexp(0.0, z, out=z)
        z += floor
    else:
        raise ValueError(f"dense: unknown activation {act!r}")

    def backward(g):
        gz = g * (z > 0) if keep is None else g * keep
        b._accumulate(gz.reshape(-1, b.shape[0]).sum(axis=0))
        if not x.constant:
            x._accumulate(gz @ w.values.T)
        add_product(w, x.values.reshape(-1, w.shape[0]).T, gz.reshape(-1, b.shape[0]))

    return make_node(z, (x, w, b), backward)


def take(x, key) -> DiffArray:
    """Basic slicing/indexing; gradient scatters back into the source."""
    x = lift(x)
    out = x.values[key]

    def backward(g):
        if x.constant:
            return
        if x.grad is None:
            x.grad = np.zeros_like(x.values)
        x.grad[key] += g
        x.zeroed = False

    return make_node(out, (x,), backward)


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

    return make_node(out, (a, b), backward)


def lstm_layer(x, wx, wh, b, state=None) -> tuple[DiffArray, tuple]:
    """One LSTM layer over a B x T x In batch as a single node, B x T x U out,
    and the final ``(h, c)``, two B x U arrays.

    ``wx`` (In, 4U), ``wh`` (U, 4U) and ``b`` (4U,) hold the gate blocks i, f,
    g, o in that order. Hidden and cell states start from ``state`` (zeros if
    None; it takes no gradient), so a sequence run in two calls, the second
    from the first's final state, gives the outputs of one call. Backward
    writes each frame's gate gradients over the gate cache, so the node takes
    one backward only (``RuntimeError`` after): build a new graph for each.
    Each frame's recurrent product, ``h @ wh`` and in backward
    ``dz_t @ wh.T``, is ``worker.split_matmul``'s.
    """
    x, wx, wh, b = lift(x), lift(wx), lift(wh), lift(b)
    n_b, n_t, n_in = x.shape
    u = wh.shape[0]
    i_, f_, g_, o_ = (slice(j * u, (j + 1) * u) for j in range(4))
    # scale * tanh(scale * z) + 1 - scale is the logistic (1 + tanh(z/2)) / 2
    # on the i, f, o blocks and tanh on the g block; scaling z by scale, a power
    # of two, gives the bits scaled weights would, barring subnormal products
    scale = np.where(np.arange(4 * u) // u == 2, 1.0, 0.5)
    offset = 1.0 - scale
    gates = x.values @ wx.values
    gates += b.values
    hs, cs = np.zeros((n_b, n_t + 1, u)), np.zeros((n_b, n_t + 1, u))
    if state is not None:
        hs[:, 0], cs[:, 0] = state
    h, c = hs[:, 0], cs[:, 0]
    for t in range(n_t):
        act = gates[:, t] = np.tanh((gates[:, t] + split_matmul(h, wh.values)) * scale) \
            * scale + offset
        c = cs[:, t + 1] = act[:, f_] * c + act[:, i_] * act[:, g_]
        h = hs[:, t + 1] = act[:, o_] * np.tanh(c)

    spent = False

    def backward(g):
        nonlocal spent
        if spent:
            raise RuntimeError("lstm_layer: a second backward through one graph; "
                               "the first wrote its gradients over the gate cache")
        spent = True
        act, dact = np.empty((2, n_b, 4 * u))   # frame t's activations, derivatives
        dh, dc = np.zeros((2, n_b, u))
        for t in range(n_t - 1, -1, -1):
            dz_t = gates[:, t]
            np.copyto(act, dz_t)
            tanh_c = np.tanh(cs[:, t + 1])
            dh = dh + g[:, t]
            dc = dc + dh * act[:, o_] * (1.0 - tanh_c * tanh_c)
            np.multiply(dc, act[:, g_], out=dz_t[:, i_])
            np.multiply(dc, cs[:, t], out=dz_t[:, f_])
            np.multiply(dc, act[:, i_], out=dz_t[:, g_])
            np.multiply(dh, tanh_c, out=dz_t[:, o_])
            # the logistic's act (1 - act), then tanh's 1 - act^2 on the g block
            np.subtract(1.0, act, out=dact)
            dact *= act
            np.multiply(act[:, g_], act[:, g_], out=dact[:, g_])
            np.subtract(1.0, dact[:, g_], out=dact[:, g_])
            dz_t *= dact
            dc = dc * act[:, f_]
            dh = split_matmul(dz_t, wh.values.T)
        dz = gates.reshape(-1, 4 * u)
        add_product(wh, hs[:, :-1].reshape(-1, u).T, dz)
        add_product(wx, x.values.reshape(-1, n_in).T, dz)
        b._accumulate(dz.sum(axis=0))
        if not x.constant:
            x._accumulate((dz @ wx.values.T).reshape(x.shape))

    return make_node(hs[:, 1:], (x, wx, wh, b), backward), (h, c)
