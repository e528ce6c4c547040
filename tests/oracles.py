"""Graph compositions the library replaced, kept as equivalence oracles.

``lstm_forward_per_frame`` is the per-frame LSTM graph that
``autodiff.lstm_layer`` replaced: about 17 nodes per frame per layer, which
the generic engine backpropagates through, so its gradients are independent
of the fused op's hand-written backward pass. ``noise_fnn_forward`` is the
single-frame noise net that ``networks.noise_fnn_forward_grid`` runs for all
frames at once. Both are built on 1 x K rows, since the library's ``matmul``
takes no 1-D operands. ``sigmoid``, ``tanh`` and ``concat`` are the autodiff
ops only these oracles use.

``segmented_kf`` is the conventional KF baseline as one bin's loop over the
scalar reference API: ``levinson_durbin(autocorrelate(...))`` per segment with
the silence branch, then ``kf_predict`` / ``kf_gain`` / ``kf_update`` per
frame, which ``kalman.filter_segmented`` runs for all bins at once.

``adam_step`` is Adam as the out-of-place expressions that
``networks.optimizer_step`` evaluates in place.

``filter_bins_matmul`` is the bins-first recursion that ``kalman.filter_bins``
replaced: ``F x P`` states, ``F x P x P`` covariances and three batched
companion-matrix products per frame. It reproduces ``kf_track`` bit for bit;
the bins-last recursion sums in another order and matches it within a
tolerance.

``recombine_polar`` is the noisy-phase resynthesis that
``signal_core.recombine`` replaced: the phase grid ``np.angle(frames)`` put
back in polar form under the new amplitudes.
"""

import numpy as np

from nkf import autodiff as ad
from nkf.errors import DataError, NumericsError
from nkf.kalman import KfState, kf_gain, kf_predict, kf_update
from nkf.linear_prediction import LpModel, autocorrelate, levinson_durbin, \
    transition_matrix
from nkf.networks import LOGVAR_LIMIT, NOISE_VAR_EPS, LstmPredictor, NoiseFnn


def sigmoid(x) -> ad.DiffArray:
    x = ad.lift(x)
    out = 0.5 * (1.0 + np.tanh(0.5 * x.values))  # numerically stable logistic

    def backward(g):
        x._accumulate(g * out * (1.0 - out))

    return ad._node(out, (x,), backward)


def tanh(x) -> ad.DiffArray:
    x = ad.lift(x)
    out = np.tanh(x.values)

    def backward(g):
        x._accumulate(g * (1.0 - out * out))

    return ad._node(out, (x,), backward)


def concat(parts, axis: int = 0) -> ad.DiffArray:
    parts = [ad.lift(p) for p in parts]
    out = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = (slice(None),) * axis + (slice(lo, hi),)
            p._accumulate(g[idx])

    return ad._node(out, tuple(parts), backward)


def lstm_forward_per_frame(p: LstmPredictor, noisy_amp):
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


def noise_fnn_forward(n: NoiseFnn, amp_context, sigma_y2_frame) -> ad.DiffArray:
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


def segment_model(segment, order: int) -> LpModel:
    r = autocorrelate(segment, order)
    if r[0] <= 1e-14:
        return LpModel(order, np.zeros(order), max(float(r[0]), 0.0))
    return levinson_durbin(r, order)


def kf_track(noisy, sigma_v2, order: int, models):
    """One bin's KF loop; ``models`` is a list of (start, stop, LpModel)."""
    n = len(noisy)
    out, gains = noisy.copy(), np.zeros(n)
    if n <= order:
        return out, gains
    state = KfState(x=noisy[:order][::-1].copy(),
                    ree=sigma_v2[0] * np.eye(order),
                    trans=transition_matrix(LpModel(order, np.zeros(order), 0.0)),
                    sigma_w2=0.0)
    for start, stop, model in models:
        state.trans = transition_matrix(model)
        state.sigma_w2 = model.residual_var
        for t in range(max(start, order), stop):
            state = kf_predict(state)
            gain = kf_gain(state, sigma_v2[t])
            state = kf_update(state, gain, noisy[t])
            out[t] = state.amplitude
            gains[t] = gain.g[0]
    return out, gains


def segmented_kf(noisy, lp_track, sigma_v2, order: int, seg_len: int):
    """Per-segment LP fit on ``lp_track``, then the KF loop; one bin."""
    models = [(lo, hi, segment_model(lp_track[lo:hi], order))
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


def recombine_polar(spec, amplitude) -> np.ndarray:
    """``amplitude * exp(1j * phase)`` with the phase of ``spec``'s frames."""
    return amplitude * np.exp(1j * np.angle(spec.frames))
