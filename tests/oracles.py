"""Graph compositions the library replaced, kept as equivalence oracles.

``lstm_forward_per_frame`` is the per-frame LSTM graph that
``autodiff.lstm_layer`` replaced: about 17 nodes per frame per layer, which
the generic engine backpropagates through, so its gradients are independent
of the fused op's hand-written backward pass. ``noise_fnn_forward`` is the
single-frame noise net that ``networks.noise_fnn_forward_grid`` runs for all
frames at once. Both are built on 1 x K rows, since the library's ``matmul``
takes no 1-D operands. ``sigmoid``, ``tanh`` and ``concat`` are the autodiff
ops only these oracles use.

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

``recombine_polar`` is the noisy-phase resynthesis that
``signal_core.recombine`` replaced: the phase grid ``np.angle(frames)`` put
back in polar form under the new amplitudes.
"""

import numpy as np

from nkf import autodiff as ad
from nkf.errors import DataError, NumericsError
from nkf.networks import LOGVAR_LIMIT, NOISE_VAR_EPS, NkfModel, build_model
from nkf.wiener import VARIANCE_FLOOR


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
        p.values = values[name]
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
        xp = ad.matmul(layer_in, wx)  # input projections for all frames at once
        h = ad.lift(np.zeros((1, u)))
        c = ad.lift(np.zeros((1, u)))
        hs = []
        for t in range(n_frames):
            z = ad.add_rowvec(ad.add(xp[t:t + 1], ad.matmul(h, wh)), b)
            gate_i = sigmoid(z[:, 0:u])
            gate_f = sigmoid(z[:, u:2 * u])
            cand = tanh(z[:, 2 * u:3 * u])
            gate_o = sigmoid(z[:, 3 * u:4 * u])
            c = ad.add(ad.mul(gate_f, c), ad.mul(gate_i, cand))
            h = ad.mul(gate_o, tanh(c))
            hs.append(h)
        layer_in = concat(hs)
    amp = ad.relu(ad.add_rowvec(
        ad.matmul(layer_in, p.params["head_amp.w"]), p.params["head_amp.b"]))
    res_logvar = ad.clamp(ad.add_rowvec(
        ad.matmul(layer_in, p.params["head_res.w"]), p.params["head_res.b"]),
        -LOGVAR_LIMIT, LOGVAR_LIMIT)
    return amp, res_logvar


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
    h1 = ad.relu(ad.add_rowvec(ad.matmul(inp, n.params["fnn.w1"]), n.params["fnn.b1"]))
    h2 = ad.relu(ad.add_rowvec(ad.matmul(h1, n.params["fnn.w2"]), n.params["fnn.b2"]))
    z = ad.add_rowvec(ad.matmul(h2, n.params["fnn.w3"]), n.params["fnn.b3"])
    return ad.add(ad.softplus(z), NOISE_VAR_EPS)[0]


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
    h = ad.clamp(ad.sub(1.0, ad.mul(sigma_v2, ad.lift(inv_sy))), 0.0, 1.0)
    return ad.mul(h, ad.lift(amplitude))
