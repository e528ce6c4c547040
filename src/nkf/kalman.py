"""Conventional modulation-domain Kalman filtering of amplitude tracks.

Each frequency bin's amplitude trajectory is treated as a P-order linear
prediction process; the filter alternates the companion-form prediction
step with a scalar-observation update whose gain compares the propagated
prediction-error covariance against the noise variance. The full baseline
enhancer Wiener-prefilters the noisy amplitudes, fits LP models on short
segments of that output, then runs the recursion over the raw noisy
amplitudes and resynthesizes with the noisy phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pipeline, signal_core
from .errors import DataError, NumericsError
from .linear_prediction import LpModel, TransitionMatrix, autocorrelate, \
    levinson_durbin, transition_matrix

#: Autocorrelation floor below which a segment is treated as silence.
_SILENT_R0 = 1e-14


@dataclass
class KfState:
    """Per-bin filter state: amplitude state vector and error covariance."""

    x: np.ndarray
    ree: np.ndarray
    trans: TransitionMatrix
    sigma_w2: float

    @property
    def amplitude(self) -> float:
        """Current clean-amplitude estimate, clamped at zero."""
        return max(0.0, float(self.x[0]))


@dataclass(frozen=True)
class KfGain:
    g: np.ndarray


def kf_predict(s: KfState) -> KfState:
    """Propagate state and covariance one frame ahead."""
    a = s.trans.a
    x = a @ s.x
    ree = a @ s.ree @ a.T
    ree[0, 0] += s.sigma_w2
    ree = 0.5 * (ree + ree.T)
    return KfState(x=x, ree=ree, trans=s.trans, sigma_w2=s.sigma_w2)


def kf_gain(s_pred: KfState, sigma_v2: float) -> KfGain:
    """Gain that weighs the noisy observation against the prediction."""
    if sigma_v2 < 0:
        raise DataError("noise variance must be nonnegative")
    denom = sigma_v2 + s_pred.ree[0, 0]
    if denom <= 0:
        raise NumericsError("degenerate gain: zero residual and noise variance")
    return KfGain(g=s_pred.ree[:, 0] / denom)


def kf_update(s_pred: KfState, g: KfGain, y_amp: float) -> KfState:
    """Fold the observed amplitude into the predicted state.

    The update is linear and accepts any real observation; amplitude
    pipelines only ever pass nonnegative values.
    """
    x = s_pred.x + g.g * (y_amp - s_pred.x[0])
    ree = s_pred.ree - np.outer(g.g, s_pred.ree[0, :])
    return KfState(x=x, ree=ree, trans=s_pred.trans, sigma_w2=s_pred.sigma_w2)


def _filter_track(noisy_amp, sigma_v2, segments, order: int):
    """The KF recursion over one amplitude track, seeded as in ``run_kf``.

    ``segments`` yields ``(start, stop, LpModel)`` in frame order; state and
    covariance carry across segment boundaries. Returns the filtered track
    and the first gain component per frame.
    """
    out = noisy_amp.copy()
    gains = np.zeros(len(noisy_amp))
    if len(noisy_amp) <= order:
        return out, gains
    x, ree = noisy_amp[:order][::-1].copy(), sigma_v2[0] * np.eye(order)
    for start, stop, lp in segments:
        state = KfState(x=x, ree=ree, trans=transition_matrix(lp),
                        sigma_w2=lp.residual_var)
        for t in range(max(start, order), stop):
            state = kf_predict(state)
            gain = kf_gain(state, sigma_v2[t])
            state = kf_update(state, gain, noisy_amp[t])
            out[t] = state.amplitude
            gains[t] = gain.g[0]
        x, ree = state.x, state.ree
    return out, gains


def run_kf(noisy_amp: np.ndarray, lp: LpModel, sigma_v2: np.ndarray) -> np.ndarray:
    """Filter one amplitude track with a single LP model.

    The state is seeded from the first P noisy amplitudes (newest first) with
    covariance sigma_v2[0] * I; those frames pass through unchanged.
    """
    noisy_amp = np.asarray(noisy_amp, dtype=np.float64)
    sigma_v2 = np.asarray(sigma_v2, dtype=np.float64)
    if noisy_amp.shape != sigma_v2.shape or noisy_amp.ndim != 1:
        raise DataError("amplitude and noise-variance tracks must match")
    return _filter_track(noisy_amp, sigma_v2, [(0, len(noisy_amp), lp)],
                         lp.order)[0]


def _segment_model(track_segment: np.ndarray, order: int) -> LpModel:
    """LP fit for one segment; silent segments degrade to a white model."""
    r = autocorrelate(track_segment, order)
    if r[0] <= _SILENT_R0:
        return LpModel(order=order, coeffs=np.zeros(order),
                       residual_var=max(float(r[0]), 0.0))
    return levinson_durbin(r, order)


def enhance_kf_baseline(noisy: signal_core.Waveform, cfg, sigma_v2_grid=None,
                        model=None) -> pipeline.EnhancementResult:
    """Wiener-prefilter, per-segment LP, per-bin KF, noisy-phase resynthesis.

    The noise variance grid comes from mixing metadata (oracle) when given,
    else from a trained model's noise estimator; one of the two is required.
    """
    def estimate(spec):
        sigma_v2, wiener_amp = pipeline.wiener_estimate(
            spec, cfg.variance_span, sigma_v2_grid, model)
        n, order = spec.n_frames, cfg.lp_order
        starts = list(range(0, n, cfg.lp_segment))
        # merge a tail too short for LP analysis into the previous segment
        if len(starts) > 1 and n - starts[-1] <= order:
            starts.pop()
        bounds = list(zip(starts, starts[1:] + [n]))
        enhanced = np.empty_like(spec.amplitude)
        gains = np.empty_like(spec.amplitude)
        for f in range(spec.n_bins):
            # each LP model is fit when the recursion reaches its segment
            segments = ((lo, hi, _segment_model(wiener_amp[lo:hi, f], order))
                        for lo, hi in bounds)
            enhanced[:, f], gains[:, f] = _filter_track(
                spec.amplitude[:, f], sigma_v2[:, f], segments, order)
        return enhanced, pipeline.NkfFrameEstimates(
            amp_lstm=None, amp_wiener=wiener_amp, sigma_r2=None,
            sigma_v2=sigma_v2, gain=gains, amp_out=enhanced)

    return pipeline.enhance_with(noisy, cfg.window, cfg.hop, estimate)
