"""Graph compositions the library replaced, kept as equivalence oracles.

``add``, ``sub``, ``mul`` and ``div`` are the engine's elementwise ops on
equal shapes (a 0-d operand may meet an array only as a constant) that one
node each for the paper's formulas replaced. ``nkf_gain_composed``,
``nkf_combine_composed`` and ``batch_mean_composed`` chain them as
``enhancer.nkf_gain``, ``enhancer.nkf_combine`` and ``enhancer._batch_loss``'s
mean ran before; those nodes round every value and gradient as the chains do.

``lstm_forward_per_frame`` is the per-frame LSTM graph that
``autodiff.lstm_layer`` replaced: about 17 nodes per frame per layer, which
the generic engine backpropagates through, so its gradients are independent
of the fused op's hand-written backward pass. ``noise_fnn_forward`` is the
single-frame noise net that ``networks.noise_fnn_forward_grid`` runs for all
frames at once. Both are built on 1 x K rows, since the library's ``matmul``
takes no 1-D operands. ``sigmoid``, ``tanh`` and ``concat`` are the autodiff
ops only these oracles use.

``matmul``, ``add_rowvec``, ``relu``, ``softplus`` and ``clamp`` are the
engine's ops that ``autodiff.dense`` replaced, and ``dense_composed`` chains
them as the dense layers ran before: ``matmul``, ``add_rowvec``, then the
activation (and an ``add`` of the floor after softplus). ``dense`` rounds every
value and gradient as the chain does. ``lstm_forward_composed`` is
``networks.lstm_forward`` with its two heads so composed.

``lstm_layer_cached`` is the fused layer before its buffers were shared: the
gates stored beside the input projection, cached ``tanh`` of the cell states
and full-size backward temporaries. ``autodiff.lstm_layer`` reproduces its
values and gradients bit for bit, except in a one-frame batch of two or more
sequences through a one-unit layer: there a weight gradient's matmul reads a
strided view that numpy sends to another kernel, which can round the last
bit differently.

``init_params`` is the initialization as the separate predictor and noise-net
constructors drew it, each from its own generator, before
``networks.build_model`` walked one shape table; ``reference_model`` puts its
values in a model.

``segmented_kf`` is the conventional KF baseline as one bin's plain numpy
loop: ``segment_model`` fits each segment (lags as dot products, the silence
branch, Levinson-Durbin), and ``kf_track`` runs the full-matrix predict
(A x, A ree A^T plus sigma_w2, then symmetrised), gain and update per frame;
``kalman.filter_segmented`` runs the same for all bins at once.

``noise_fnn_forward_grid_composed`` is the noise net over a grid as the
engine's ops composed it before its first layer became one node: the whole
``fnn_features`` matrix lifted and kept by ``matmul`` from forward to
backward. That node's value and gradients round as it does.

``adam_step`` is Adam as the out-of-place expressions that
``networks.optimizer_step`` evaluates in place.

``filter_bins_matmul`` is the bins-first recursion that ``kalman.filter_bins``
replaced: ``F x P`` states, ``F x P x P`` covariances and three batched
companion-matrix products per frame. It reproduces ``kf_track`` bit for bit;
the bins-last recursion sums in another order and matches it within a
tolerance.

``wiener_branch_composed`` is the NKF graph's Wiener branch as the engine's
ops composed it (``mul``, ``sub``, ``clamp``, ``mul``) before
``wiener.apply_wiener`` became one node; that node's value and ``sigma_v2``
gradient round as it does.

``track_sigma_y_whole`` is ``wiener.track_sigma_y`` with one prefix sum over
the whole input, as it was before its prefix sums restarted every
``PREFIX_BLOCK`` frames; up to that many frames the two are bit-identical.

``enhance_whole`` is enhancement as it ran before inference went in blocks
of frames: each network over the whole utterance at once, the NKF grids from
``enhancer._forward`` run on the whole utterance as one block, and the
model's noise grid handed to the ``kf`` and ``wiener`` methods as if it were
an oracle one.

``w1_grad_per_tap`` is the noise net's ``fnn.w1`` gradient as the first
layer's node formed it before its products were batched: one product per
context tap, ``rows[k:k+T].T @ g``, then ``sigma_y2.T @ g``.
``noise_fnn_forward_grid_inline`` is the noise net with that node as it ran
before its backward moved to a worker thread: the first layer's product and
``w1``'s gradient formed on the calling thread, the gradient accumulated as
the node's backward returns.

``forward_serial`` is ``enhancer._forward`` as it ran before the noise net's
first-layer products moved to a worker thread, and before each dense layer
became one node: ``lstm_forward_composed`` on a zero-padded copy of every
utterance's rows, then per utterance ``noise_fnn_forward_grid_inline`` and the
rest of the graph; one thread throughout, in forward and backward.

``recombine_polar`` is the noisy-phase resynthesis that
``signal_core.recombine`` replaced: the phase grid ``np.angle(frames)`` put
back in polar form under the new amplitudes.

``save_checkpoint_copying`` is ``networks.save_checkpoint`` as it wrote a
checkpoint before each tensor went to the file from its own memory: the
header packed field by field, and each tensor record built as one ``bytes``
that copies the tensor, through ``tobytes`` and again on concatenation.
The two writers' files are byte-equal. ``load_checkpoint_seeking`` is
``networks.load_checkpoint`` as it read one before it followed the writer's
records: a first pass that decodes every record header into a name-to-offset
table, seeking past the data, then a second that seeks back to each record
of the model's. It loads records in any order, where the library requires
the written one.
"""

import functools
import math
import os
import struct
import sys

import numpy as np

from nkf import autodiff as ad
from nkf import enhancer
from nkf.errors import DataError, NumericsError
from nkf.networks import (_DIMS, LOGVAR_LIMIT, NOISE_VAR_EPS, NkfModel, _context_rows,
                          _param_shapes, _records, build_model, first_layer_product,
                          fnn_features, lstm_forward, noise_fnn_forward_grid)
from nkf.pipeline import NkfFrameEstimates, enhance_with, lstm_features
from nkf.signal_core import stft
from nkf.wiener import VARIANCE_FLOOR, apply_wiener, track_sigma_y


def add(a, b) -> ad.DiffArray:
    a, b = ad.lift(a), ad.lift(b)
    ad.check_shapes("add", a, b)
    out = a.values + b.values

    def backward(g):
        a._accumulate(np.array(g))
        b._accumulate(np.array(g))

    return ad.make_node(out, (a, b), backward)


def sub(a, b) -> ad.DiffArray:
    a, b = ad.lift(a), ad.lift(b)
    ad.check_shapes("sub", a, b)
    out = a.values - b.values

    def backward(g):
        a._accumulate(np.array(g))
        b._accumulate(-g)

    return ad.make_node(out, (a, b), backward)


def mul(a, b) -> ad.DiffArray:
    a, b = ad.lift(a), ad.lift(b)
    ad.check_shapes("mul", a, b)
    out = a.values * b.values

    def backward(g):
        a._accumulate(g * b.values)
        b._accumulate(g * a.values)

    return ad.make_node(out, (a, b), backward)


def div(a, b) -> ad.DiffArray:
    a, b = ad.lift(a), ad.lift(b)
    ad.check_shapes("div", a, b)
    out = a.values / b.values

    def backward(g):
        a._accumulate(g / b.values)
        b._accumulate(-g * out / b.values)

    return ad.make_node(out, (a, b), backward)


def nkf_gain_composed(sigma_r2, sigma_v2) -> ad.DiffArray:
    return div(sigma_r2, add(sigma_r2, sigma_v2))


def nkf_combine_composed(gain, amp_wiener, amp_lstm) -> ad.DiffArray:
    return add(mul(gain, amp_wiener), mul(sub(1.0, gain), amp_lstm))


def batch_mean_composed(losses) -> ad.DiffArray:
    return div(functools.reduce(add, losses), float(len(losses)))


def matmul(a, b) -> ad.DiffArray:
    """Product of a 2-D or B x T x K node with a K x N node."""
    a, b = ad.lift(a), ad.lift(b)
    if a.ndim not in (2, 3) or b.ndim != 2:
        raise ValueError("matmul supports 2-D or 3-D @ 2-D operands only")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul: inner dims {a.shape} @ {b.shape} do not match")
    out = a.values @ b.values

    def backward(g):
        if not a.constant:
            a._accumulate(g @ b.values.T)
        b._accumulate(a.values.reshape(-1, b.shape[0]).T @ g.reshape(-1, b.shape[1]))

    return ad.make_node(out, (a, b), backward)


def add_rowvec(x, b) -> ad.DiffArray:
    """Add a length-K vector to every row of a [B x] T x K node."""
    x, b = ad.lift(x), ad.lift(b)
    if x.ndim not in (2, 3) or b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ValueError(f"add_rowvec: shapes {x.shape} and {b.shape} do not match")
    out = x.values + b.values

    def backward(g):
        x._accumulate(np.array(g))
        b._accumulate(g.reshape(-1, b.shape[0]).sum(axis=0))

    return ad.make_node(out, (x, b), backward)


def relu(x) -> ad.DiffArray:
    x = ad.lift(x)
    out = np.maximum(x.values, 0.0)

    def backward(g):
        x._accumulate(g * (x.values > 0))

    return ad.make_node(out, (x,), backward)


def softplus(x) -> ad.DiffArray:
    x = ad.lift(x)
    out = np.logaddexp(0.0, x.values)

    def backward(g):
        x._accumulate(g * (0.5 * (1.0 + np.tanh(0.5 * x.values))))

    return ad.make_node(out, (x,), backward)


def clamp(x, lo: float, hi: float) -> ad.DiffArray:
    """Clip to [lo, hi]; gradient is zero outside the pass-through region."""
    x = ad.lift(x)
    out = np.clip(x.values, lo, hi)

    def backward(g):
        x._accumulate(g * ((x.values >= lo) & (x.values <= hi)))

    return ad.make_node(out, (x,), backward)


def dense_composed(x, w, b, act: str, *, limit: float = np.inf,
                   floor: float = 0.0) -> ad.DiffArray:
    """``autodiff.dense`` as the chain of nodes it replaced."""
    z = add_rowvec(matmul(x, w), b)
    if act == "relu":
        return relu(z)
    if act == "clamp":
        return clamp(z, -limit, limit)
    return add(softplus(z), floor)


def sigmoid(x) -> ad.DiffArray:
    x = ad.lift(x)
    out = 0.5 * (1.0 + np.tanh(0.5 * x.values))  # numerically stable logistic

    def backward(g):
        x._accumulate(g * out * (1.0 - out))

    return ad.make_node(out, (x,), backward)


def tanh(x) -> ad.DiffArray:
    x = ad.lift(x)
    out = np.tanh(x.values)

    def backward(g):
        x._accumulate(g * (1.0 - out * out))

    return ad.make_node(out, (x,), backward)


def concat(parts, axis: int = 0) -> ad.DiffArray:
    parts = [ad.lift(p) for p in parts]
    out = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = (slice(None),) * axis + (slice(lo, hi),)
            p._accumulate(g[idx])

    return ad.make_node(out, tuple(parts), backward)


def _uniform_init(rng, shape, fan_in):
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape)


def init_params(n_bins: int, units, context: int, hidden: int, lstm_rng,
                fnn_rng) -> dict[str, np.ndarray]:
    """Initial values in declared order: the predictor's layers and heads
    drawn from ``lstm_rng``, then the noise net from ``fnn_rng``. The forget
    gate bias block starts at 1.0, every other bias at zero, and weights are
    uniform (-1/sqrt(fan_in), +1/sqrt(fan_in)). With one generator passed as
    both, this is ``build_model`` with that generator's seed."""
    params, in_dim = {}, n_bins
    for layer, u in enumerate(units):
        b = np.zeros(4 * u)
        b[u:2 * u] = 1.0
        params[f"lstm{layer}.wx"] = _uniform_init(lstm_rng, (in_dim, 4 * u), in_dim)
        params[f"lstm{layer}.wh"] = _uniform_init(lstm_rng, (u, 4 * u), u)
        params[f"lstm{layer}.b"] = b
        in_dim = u
    top = units[-1]
    for head in ("head_amp", "head_res"):
        params[f"{head}.w"] = _uniform_init(lstm_rng, (top, n_bins), top)
        params[f"{head}.b"] = np.zeros(n_bins)
    in_dim = context * n_bins + n_bins
    params.update({
        "fnn.w1": _uniform_init(fnn_rng, (in_dim, hidden), in_dim),
        "fnn.b1": np.zeros(hidden),
        "fnn.w2": _uniform_init(fnn_rng, (hidden, hidden), hidden),
        "fnn.b2": np.zeros(hidden),
        "fnn.w3": _uniform_init(fnn_rng, (hidden, n_bins), hidden),
        "fnn.b3": np.zeros(n_bins),
    })
    return params


def reference_model(n_bins: int, units=(1,), context: int = 1, hidden: int = 1,
                    lstm_rng=None, fnn_rng=None) -> NkfModel:
    """A model holding ``init_params`` values; a generator not given is
    ``default_rng(0)``, so tests of one component draw only from their own."""
    m = build_model(n_bins, lstm_units=units, fnn_hidden=hidden, context=context)
    values = init_params(
        n_bins, units, context, hidden,
        lstm_rng if lstm_rng is not None else np.random.default_rng(0),
        fnn_rng if fnn_rng is not None else np.random.default_rng(0))
    for name, p in m.params.items():
        p.values[...] = values[name]
    return m


def lstm_forward_per_frame(p: NkfModel, noisy_amp):
    """``networks.lstm_forward`` on one T x F sequence, one cell at a time."""
    x = ad.lift(noisy_amp)
    if x.ndim != 2 or x.shape[1] != p.n_bins:
        raise DataError(f"predictor expects T x {p.n_bins} input, got {x.shape}")
    n_frames = x.shape[0]
    if n_frames < 1:
        raise DataError("predictor needs at least one frame")
    layer_in = x
    for layer, u in enumerate(p.units):
        wx = p.params[f"lstm{layer}.wx"]
        wh = p.params[f"lstm{layer}.wh"]
        b = p.params[f"lstm{layer}.b"]
        xp = matmul(layer_in, wx)  # input projections for all frames at once
        h = ad.lift(np.zeros((1, u)))
        c = ad.lift(np.zeros((1, u)))
        hs = []
        for t in range(n_frames):
            z = add_rowvec(add(xp[t:t + 1], matmul(h, wh)), b)
            gate_i = sigmoid(z[:, 0:u])
            gate_f = sigmoid(z[:, u:2 * u])
            cand = tanh(z[:, 2 * u:3 * u])
            gate_o = sigmoid(z[:, 3 * u:4 * u])
            c = add(mul(gate_f, c), mul(gate_i, cand))
            h = mul(gate_o, tanh(c))
            hs.append(h)
        layer_in = concat(hs)
    return _heads_composed(p, layer_in)


def _heads_composed(m: NkfModel, top) -> tuple:
    """The predictor's two heads on the top layer's output, composed."""
    amp = dense_composed(top, m.params["head_amp.w"], m.params["head_amp.b"], "relu")
    res_logvar = dense_composed(top, m.params["head_res.w"], m.params["head_res.b"],
                                "clamp", limit=LOGVAR_LIMIT)
    return amp, res_logvar


def lstm_forward_composed(m: NkfModel, noisy_amp, state=None):
    """``networks.lstm_forward`` with its heads composed."""
    layer_in, final = noisy_amp, []
    for layer in range(len(m.units)):
        layer_in, layer_state = ad.lstm_layer(
            layer_in, m.params[f"lstm{layer}.wx"], m.params[f"lstm{layer}.wh"],
            m.params[f"lstm{layer}.b"], None if state is None else state[layer])
        final.append(layer_state)
    return (*_heads_composed(m, layer_in), final)


def lstm_layer_cached(x, wx, wh, b) -> ad.DiffArray:
    """The fused layer with separate gate, cell and ``tanh`` caches (one
    frame of each inside ``no_grad``)."""
    x, wx, wh, b = ad.lift(x), ad.lift(wx), ad.lift(wh), ad.lift(b)
    n_b, n_t, n_in = x.shape
    u = wh.shape[0]
    i_, f_, g_, o_ = (slice(j * u, (j + 1) * u) for j in range(4))
    scale = np.where(np.arange(4 * u) // u == 2, 1.0, 0.5)
    xp = x.values @ (wx.values * scale) + b.values * scale
    wh_s = wh.values * scale
    kept = n_t if ad._GRAD_ENABLED else 1   # frames whose activations backward needs
    gates = np.empty((n_b, kept, 4 * u))
    cs, tanh_cs = np.empty((2, n_b, kept, u))
    hs = np.empty((n_b, n_t, u))
    h, c = np.zeros((2, n_b, u))
    for t in range(n_t):
        act = gates[:, t % kept] = np.tanh(xp[:, t] + h @ wh_s) * scale + (1.0 - scale)
        c = cs[:, t % kept] = act[:, f_] * c + act[:, i_] * act[:, g_]
        tanh_c = tanh_cs[:, t % kept] = np.tanh(c)
        h = hs[:, t] = act[:, o_] * tanh_c

    def backward(g):
        dact = np.where(scale == 1.0, 1.0 - gates * gates, gates * (1.0 - gates))
        c_prev = np.concatenate([np.zeros((n_b, 1, u)), cs[:, :-1]], axis=1)
        dz = np.empty_like(gates)
        dh, dc = np.zeros((2, n_b, u))
        for t in range(n_t - 1, -1, -1):
            act, tanh_c = gates[:, t], tanh_cs[:, t]
            dh = dh + g[:, t]
            dc = dc + dh * act[:, o_] * (1.0 - tanh_c * tanh_c)
            dz_t = dz[:, t]
            np.multiply(dc, act[:, g_], out=dz_t[:, i_])
            np.multiply(dc, c_prev[:, t], out=dz_t[:, f_])
            np.multiply(dc, act[:, i_], out=dz_t[:, g_])
            np.multiply(dh, tanh_c, out=dz_t[:, o_])
            dz_t *= dact[:, t]
            dc = dc * act[:, f_]
            dh = dz[:, t] @ wh.values.T
        dz = dz.reshape(-1, 4 * u)
        h_prev = np.concatenate([np.zeros((n_b, 1, u)), hs[:, :-1]], axis=1)
        wh._accumulate(h_prev.reshape(-1, u).T @ dz)
        wx._accumulate(x.values.reshape(-1, n_in).T @ dz)
        b._accumulate(dz.sum(axis=0))
        if not x.constant:
            x._accumulate((dz @ wx.values.T).reshape(x.shape))

    return ad.make_node(hs, (x, wx, wh, b), backward)


def noise_fnn_forward(n: NkfModel, amp_context, sigma_y2_frame) -> ad.DiffArray:
    """Single-frame noise variance estimate from a filled context window."""
    amp_context = np.asarray(amp_context, dtype=np.float64)
    sigma_y2_frame = np.asarray(sigma_y2_frame, dtype=np.float64)
    if amp_context.shape != (n.context * n.n_bins,):
        raise DataError("context vector has wrong length")
    if sigma_y2_frame.shape != (n.n_bins,):
        raise DataError("variance frame has wrong length")
    inp = concat([ad.lift(amp_context[None]), ad.lift(sigma_y2_frame[None])], axis=1)
    return _noise_fnn_above(n, matmul(inp, n.params["fnn.w1"]))[0]


def _noise_fnn_above(m: NkfModel, first) -> ad.DiffArray:
    """The noise net's output from its first layer's product node, composed."""
    h1 = relu(add_rowvec(first, m.params["fnn.b1"]))
    h2 = dense_composed(h1, m.params["fnn.w2"], m.params["fnn.b2"], "relu")
    return dense_composed(h2, m.params["fnn.w3"], m.params["fnn.b3"], "softplus",
                          floor=NOISE_VAR_EPS)


def noise_fnn_forward_grid_composed(m: NkfModel, amplitude, sigma_y2, lo: int = 0,
                                    hi: int | None = None) -> ad.DiffArray:
    """Noise variance estimate for frames lo..hi-1 from the kept feature matrix."""
    features = fnn_features(amplitude, sigma_y2, m.context, lo, hi)
    return _noise_fnn_above(m, matmul(ad.lift(features), m.params["fnn.w1"]))


def w1_grad_per_tap(rows, sigma_y2, g) -> np.ndarray:
    """``fnn.w1``'s gradient from ``networks._context_rows`` of frames
    lo..hi-1, their ``sigma_y2`` rows and the first layer's output gradient,
    one product per context tap."""
    n_rows, n_bins = sigma_y2.shape
    taps = len(rows) - n_rows + 1
    grad = np.empty(((taps + 1) * n_bins, g.shape[1]))
    for k in range(taps):
        np.matmul(rows[k:k + n_rows].T, g, out=grad[k * n_bins:(k + 1) * n_bins])
    np.matmul(sigma_y2.T, g, out=grad[taps * n_bins:])
    return grad


def noise_fnn_forward_grid_inline(m: NkfModel, amplitude, sigma_y2, lo: int,
                                  hi: int) -> ad.DiffArray:
    """``networks.noise_fnn_forward_grid`` on the calling thread alone, its
    layers composed."""
    w1 = m.params["fnn.w1"]
    pre = first_layer_product(m, amplitude, sigma_y2, lo, hi, np.empty((hi - lo, m.hidden)))

    def backward(g):
        w1._accumulate(w1_grad_per_tap(_context_rows(amplitude, m.context, lo, hi),
                                       sigma_y2[lo:hi], g))

    return _noise_fnn_above(m, ad.make_node(pre, (w1,), backward))


def adam_step(values, m, v, g, t: int, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update of one parameter; returns new (values, m, v)."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return values - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def segment_bounds(n: int, seg_len: int, order: int):
    """LP segments as (start, stop); a tail of <= order frames is merged.
    With n <= order there are none: every frame passes through."""
    if n <= order:
        return []
    starts = list(range(0, n, seg_len))
    if len(starts) > 1 and n - starts[-1] <= order:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def segment_model(segment, order: int):
    """One track's LP model: (coefficients, residual variance)."""
    n = len(segment)
    r = np.array([segment[k:] @ segment[:n - k] for k in range(order + 1)]) / n
    if r[0] <= 1e-14:
        return np.zeros(order), max(float(r[0]), 0.0)
    a, err = np.zeros(order), r[0]
    for m in range(1, order + 1):
        k = (r[m] - a[:m - 1] @ r[1:m][::-1]) / err
        a[:m - 1] = a[:m - 1] - k * a[:m - 1][::-1]
        a[m - 1] = k
        err *= 1.0 - k * k
    return a, max(err, 0.0)


def kf_track(noisy, sigma_v2, order: int, models):
    """One bin's KF loop; ``models`` is a list of (start, stop, coeffs,
    residual variance)."""
    n = len(noisy)
    out, gains = noisy.copy(), np.zeros(n)
    if n <= order:
        return out, gains
    x, ree = noisy[:order][::-1].copy(), sigma_v2[0] * np.eye(order)
    a = np.eye(order, k=-1)
    for start, stop, coeffs, sigma_w2 in models:
        a[0] = coeffs
        for t in range(max(start, order), stop):
            x = a @ x
            ree = a @ ree @ a.T
            ree[0, 0] += sigma_w2
            ree = 0.5 * (ree + ree.T)
            denom = sigma_v2[t] + ree[0, 0]
            g = np.zeros(order) if denom == 0 else ree[:, 0] / denom
            x = x + g * (noisy[t] - x[0])
            ree = ree - np.outer(g, ree[0, :])
            out[t], gains[t] = max(0.0, x[0]), g[0]
    return out, gains


def segmented_kf(noisy, lp_track, sigma_v2, order: int, seg_len: int):
    """Per-segment LP fit on ``lp_track``, then the KF loop; one bin."""
    models = [(lo, hi, *segment_model(lp_track[lo:hi], order))
              for lo, hi in segment_bounds(len(noisy), seg_len, order)]
    return kf_track(noisy, sigma_v2, order, models)


def filter_bins_matmul(noisy_amp, sigma_v2, segments, order: int):
    """``kalman.filter_bins`` as one batched matmul recursion over F x P x P."""
    out = noisy_amp.copy()
    gains = np.zeros(noisy_amp.shape)
    n_frames, n_bins = noisy_amp.shape
    if n_frames <= order:
        return out, gains
    if np.any(sigma_v2[order:] < 0):
        raise DataError("noise variance must be nonnegative")
    x = noisy_amp[:order][::-1].T.copy()
    ree = sigma_v2[0][:, None, None] * np.eye(order)
    a = np.zeros((n_bins, order, order))
    a[:, np.arange(1, order), np.arange(order - 1)] = 1.0
    for start, stop, coeffs, sigma_w2 in segments:
        a[:, 0, :] = coeffs
        a_t = a.transpose(0, 2, 1)
        for t in range(max(start, order), stop):
            x = (a @ x[..., None])[..., 0]
            ree = a @ ree @ a_t
            ree[:, 0, 0] += sigma_w2
            ree = 0.5 * (ree + ree.transpose(0, 2, 1))
            denom = sigma_v2[t] + ree[:, 0, 0]
            if np.any(denom < 0):
                raise NumericsError(
                    f"degenerate gain: negative denominator at frame {t}, "
                    f"bins {np.flatnonzero(denom < 0).tolist()}")
            g = ree[:, :, 0] / np.where(denom == 0, np.inf, denom)[:, None]
            x = x + g * (noisy_amp[t][:, None] - x[:, :1])
            ree = ree - g[:, :, None] * ree[:, None, 0, :]
            out[t] = np.maximum(x[:, 0], 0.0)
            gains[t] = g[:, 0]
    return out, gains


def track_sigma_y_whole(amplitude, span: int) -> np.ndarray:
    """Causal ``span``-frame mean of |Y|^2 from one whole-input prefix sum."""
    power = np.asarray(amplitude, dtype=np.float64) ** 2
    csum = np.cumsum(power, axis=0)
    out = np.empty_like(csum)
    out[:span] = csum[:span]
    if power.shape[0] > span:
        out[span:] = csum[span:] - csum[:-span]
    counts = np.minimum(np.arange(power.shape[0]) + 1, span)
    return out / counts.reshape((-1,) + (1,) * (power.ndim - 1))


def recombine_polar(spec, amplitude) -> np.ndarray:
    """``amplitude * exp(1j * phase)`` with the phase of ``spec``'s frames."""
    return amplitude * np.exp(1j * np.angle(spec.frames))


def wiener_branch_composed(amplitude, sigma_v2, sigma_y2) -> ad.DiffArray:
    inv_sy = 1.0 / np.maximum(sigma_y2, VARIANCE_FLOOR)
    h = clamp(sub(1.0, mul(sigma_v2, ad.lift(inv_sy))), 0.0, 1.0)
    return mul(h, ad.lift(amplitude))


def enhance_whole(m: NkfModel, noisy, method: str, cfg):
    """``enhancer.METHODS[method]`` with every network run on the whole
    utterance; ``cfg`` gives the KF baseline's settings."""
    if method in ("kf", "wiener"):
        spec = stft(noisy, m.window, m.hop)
        feats = lstm_features(spec.amplitude, m.log_features)
        with ad.no_grad():
            grid = noise_fnn_forward_grid(
                m, feats, track_sigma_y(spec.amplitude, m.variance_span)).values
        return enhancer.METHODS[method][0](m, noisy, cfg, grid)

    def estimate(spec):
        with ad.no_grad():
            if method == "nkf":
                ((_, est),), _ = enhancer._forward(m, [enhancer._inputs(m, spec.amplitude)])
                return est
            amp = lstm_forward(m, lstm_features(
                spec.amplitude, m.log_features)[None])[0].values[0]
        return NkfFrameEstimates(amp_lstm=amp, amp_out=amp)

    return enhance_with(noisy, m, estimate, m)


def forward_serial(m: NkfModel, utts, lo: int = 0, hi=None, state=None):
    """``enhancer._forward``'s graph and return, built on one thread."""
    hi = max(len(noisy) for noisy, *_ in utts) if hi is None else hi
    x = np.zeros((len(utts), hi - lo, m.n_bins))
    for b, (_, feats, _, _) in enumerate(utts):
        x[b, :len(feats[lo:hi])] = feats[lo:hi]
    amp, res, state = lstm_forward_composed(m, x, state)
    out = []
    for b, (noisy, feats, sigma_y2, clean) in enumerate(utts):
        stop = min(hi, len(noisy))
        sigma_v2 = noise_fnn_forward_grid_inline(m, feats, sigma_y2, lo, stop)
        amp_wiener = apply_wiener(noisy[lo:stop], sigma_v2, sigma_y2[lo:stop])
        amp_lstm, sigma_r2 = amp[b, :stop - lo], ad.exp(res[b, :stop - lo])
        gain = enhancer.nkf_gain(sigma_r2, sigma_v2)
        amp_out = enhancer.nkf_combine(gain, amp_wiener, amp_lstm)
        loss = None if clean is None else enhancer.nkf_loss(amp_out, clean[lo:stop])
        out.append((loss, NkfFrameEstimates(*(node.values for node in (
            amp_lstm, amp_wiener, sigma_r2, sigma_v2, gain, amp_out)))))
    return out, state


def _pack_tensor_copying(name: str, arr: np.ndarray) -> bytes:
    raw = name.encode("utf-8")
    head = struct.pack("<H", len(raw)) + raw + struct.pack("<B", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint_copying(m: NkfModel, path):
    """A checkpoint of ``m`` at ``path``, every tensor copied into ``bytes``."""
    params = m.parameters()
    blob = [b"NKFCKPT1", struct.pack("<I", 1)]
    blob.append(struct.pack(
        "<7I", m.window, m.hop, m.sample_rate, m.n_bins,
        m.context, m.variance_span, m.hidden))
    blob.append(struct.pack("<B", int(m.log_features)))
    blob.append(struct.pack(f"<I{len(m.units)}I", len(m.units), *m.units))
    blob.append(struct.pack("<Q", m.adam_step))
    adam_m, adam_v = m.views(m.adam_m), m.views(m.adam_v)
    tensors = [(name, p.values) for name, p in params.items()]
    tensors += [(f"adam_m.{name}", adam_m[name]) for name in params]
    tensors += [(f"adam_v.{name}", adam_v[name]) for name in params]
    blob.append(struct.pack("<I", len(tensors)))
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(blob))
            for name, arr in tensors:
                fh.write(_pack_tensor_copying(name, arr))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint_seeking(path) -> NkfModel:
    """A checkpoint read in two passes over a table of its records."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size

            def skip(n: int) -> int:   # where the next n bytes start, once they exist
                if fh.tell() + n > size:
                    raise DataError("malformed checkpoint: truncated")
                return fh.seek(n, os.SEEK_CUR) - n

            def take(fmt: str):
                n = struct.calcsize(fmt)
                fh.seek(skip(n))   # back to the bytes just checked
                return struct.unpack(fmt, fh.read(n))

            if take("8s")[0] != b"NKFCKPT1":
                raise DataError("malformed checkpoint: bad magic string")
            (version,) = take("<I")
            if version != 1:
                raise DataError(f"unsupported checkpoint version {version}")
            dims = dict(zip(_DIMS, take("<7I")))
            log_features, n_layers = take("<BI")
            units = take(f"<{n_layers}I")
            adam_step, n_tensors = take("<QI")
            records: dict[str, tuple] = {}   # name -> (shape, where its data starts)
            for _ in range(n_tensors):
                (name_len,) = take("<H")
                try:
                    name = take(f"{name_len}s")[0].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError("malformed checkpoint: tensor name is not UTF-8") from exc
                if name in records:
                    raise DataError(f"malformed checkpoint: duplicate tensor {name}")
                (ndim,) = take("<B")
                shape = take(f"<{ndim}I")
                # math.prod is exact: a product wrapped to 64 bits could pass
                records[name] = (shape, skip(8 * math.prod(shape)))
            if fh.tell() != size:
                raise DataError("malformed checkpoint: trailing bytes after the last tensor")
            shapes = _param_shapes(dims["n_bins"], units, dims["context"], dims["hidden"])
            expected = {prefix + name: shape for prefix in ("", "adam_m.", "adam_v.")
                        for name, shape in shapes.items()}
            if sorted(records) != sorted(expected):
                raise DataError("malformed checkpoint: tensor set mismatch")
            for key, shape in expected.items():
                if records[key][0] != shape:
                    raise DataError(f"malformed checkpoint: shape mismatch for {key}")
            m = NkfModel(units=units, log_features=log_features, adam_step=adam_step, **dims)
            for key, arr in _records(m):
                fh.seek(records[key][1])
                if fh.readinto(arr) != arr.nbytes:   # the file shrank since fstat
                    raise DataError("malformed checkpoint: truncated")
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if sys.byteorder != "little":   # the records hold little-endian float64
        for arena in (m.values, m.adam_m, m.adam_v):
            arena.byteswap(inplace=True)
    return m
