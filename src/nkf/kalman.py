"""Conventional modulation-domain Kalman filtering of amplitude tracks.

Each frequency bin's amplitude trajectory is treated as a P-order linear
prediction process; the filter alternates the companion-form prediction
step with a scalar-observation update whose gain compares the propagated
prediction-error covariance against the noise variance. The full baseline
enhancer Wiener-prefilters the noisy amplitudes, fits LP models on short
segments of that output, then runs the recursion over the raw noisy
amplitudes and resynthesizes with the noisy phase.

``filter_bins`` runs the recursion for all bins at once; ``KfState`` with
``kf_predict`` / ``kf_gain`` / ``kf_update`` is the one-bin reference it is
tested against, and ``autocorrelate`` / ``levinson_durbin`` /
``transition_matrix`` stay importable from here as the matching LP reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pipeline, signal_core
from .errors import DataError, NumericsError
from .linear_prediction import LpModel, TransitionMatrix, autocorrelate, \
    fit_lp_bins, levinson_durbin, transition_matrix


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
    """Gain that weighs the noisy observation against the prediction.

    A zero denominator (no noise variance and ree[0, 0] = 0, so for a PSD
    covariance a zero first column) gives g = 0, the limit as sigma_v2 -> 0+:
    the prediction is kept.
    """
    if not sigma_v2 >= 0:   # NaN too
        raise DataError("noise variance must be nonnegative")
    denom = sigma_v2 + s_pred.ree[0, 0]
    if denom < 0:
        raise NumericsError("degenerate gain: negative denominator")
    if denom == 0:
        return KfGain(g=np.zeros(len(s_pred.x)))
    return KfGain(g=s_pred.ree[:, 0] / denom)


def kf_update(s_pred: KfState, g: KfGain, y_amp: float) -> KfState:
    """Fold the observed amplitude into the predicted state.

    The update is linear and accepts any real observation; amplitude
    pipelines only ever pass nonnegative values.
    """
    x = s_pred.x + g.g * (y_amp - s_pred.x[0])
    ree = s_pred.ree - np.outer(g.g, s_pred.ree[0, :])
    return KfState(x=x, ree=ree, trans=s_pred.trans, sigma_w2=s_pred.sigma_w2)


def filter_bins(noisy_amp, sigma_v2, segments, order: int):
    """The KF recursion over the T x F amplitude tracks of all bins at once.

    ``segments`` yields ``(start, stop, coeffs F x P, residual_var F)`` in
    frame order; state and covariance carry across segment boundaries. The
    state of each bin is seeded from its first P noisy amplitudes (newest
    first) with covariance sigma_v2[0] * I; those frames pass through
    unchanged. Each frame runs ``kf_predict``, ``kf_gain`` and ``kf_update``
    for every bin, with the bin axis last: the state x is P x F and the
    covariance ree P x P x F, so every component is one contiguous F-vector.
    ree is used as symmetric, so the prediction computes only the first row
    of A ree; the rest of A ree A^T is ree shifted. Returns the filtered
    tracks and the first gain component per frame and bin.
    """
    out = noisy_amp.copy()
    gains = np.zeros(noisy_amp.shape)
    n_frames, _ = noisy_amp.shape
    if n_frames <= order:
        return out, gains
    # the frames the recursion reads; written to reject NaN too
    if not (np.all(sigma_v2[0] >= 0) and np.all(sigma_v2[order:] >= 0)):
        raise DataError("noise variance must be nonnegative")
    x = noisy_amp[order - 1::-1].copy()
    ree = np.eye(order)[:, :, None] * sigma_v2[0]
    pred = np.empty_like(ree)
    for start, stop, coeffs, sigma_w2 in segments:
        c = np.ascontiguousarray(coeffs.T)
        first = max(start, order)
        for t in range(first, stop):
            # predict: row = (A ree)[0]. ree is symmetric, so A ree A^T is
            # ree shifted down and right, bordered by row on both sides, and
            # x shifts down under its new first component
            row = np.add.reduce(c[:, None] * ree, 0)
            pred[1:, 1:] = ree[:-1, :-1]
            pred[0, 1:] = pred[1:, 0] = row[:-1]
            pred[0, 0] = np.add.reduce(c * row, 0) + sigma_w2
            x[1:], x[0] = x[:-1], np.add.reduce(c * x, 0)
            # gain
            denom = sigma_v2[t] + pred[0, 0]
            # NaN-blind like denom < 0, and defined for zero bins
            lowest = np.fmin.reduce(denom, initial=np.inf)
            if lowest < 0:
                raise NumericsError(
                    f"degenerate gain: negative denominator at frame {t}, "
                    f"bins {np.flatnonzero(denom < 0).tolist()}")
            # a zero denominator gives g = 0 (see kf_gain): x / inf == 0
            g = pred[:, 0] / (denom if lowest != 0
                              else np.where(denom == 0, np.inf, denom))
            # update
            x += g * (noisy_amp[t] - x[0])
            np.subtract(pred, g[:, None] * pred[0], out=ree)
            out[t] = x[0]
            gains[t] = g[0]
        np.maximum(out[first:stop], 0.0, out=out[first:stop])
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
    segment = (0, len(noisy_amp), lp.coeffs[None], np.array([lp.residual_var]))
    return filter_bins(noisy_amp[:, None], sigma_v2[:, None], [segment],
                       lp.order)[0][:, 0]


def filter_segmented(noisy_amp, lp_track, sigma_v2, order: int, seg_len: int):
    """``filter_bins`` with LP models fit on ``seg_len``-frame segments of
    ``lp_track`` (T x F, like the other grids).

    A tail of ``order`` frames or fewer is too short for LP analysis and is
    merged into the previous segment.
    """
    n = len(noisy_amp)
    starts = list(range(0, n, seg_len))
    if len(starts) > 1 and n - starts[-1] <= order:
        starts.pop()
    # each segment's LP models are fit when the recursion reaches it
    segments = ((lo, hi, *fit_lp_bins(lp_track[lo:hi], order, lo))
                for lo, hi in zip(starts, starts[1:] + [n]))
    return filter_bins(noisy_amp, sigma_v2, segments, order)


def enhance_kf_baseline(noisy: signal_core.Waveform, cfg, sigma_v2_grid=None,
                        model=None) -> pipeline.EnhancementResult:
    """Wiener-prefilter, per-segment LP, bin-batched KF, noisy-phase resynthesis.

    The noise variance grid comes from mixing metadata (oracle) when given,
    else from a trained model's noise estimator; one of the two is required.
    """
    def estimate(spec):
        sigma_v2, wiener_amp = pipeline.wiener_estimate(
            spec, cfg.variance_span, sigma_v2_grid, model)
        enhanced, gains = filter_segmented(spec.amplitude, wiener_amp, sigma_v2,
                                           cfg.lp_order, cfg.lp_segment)
        return enhanced, pipeline.NkfFrameEstimates(
            amp_wiener=wiener_amp, sigma_v2=sigma_v2, gain=gains, amp_out=enhanced)

    return pipeline.enhance_with(noisy, cfg.window, cfg.hop, estimate, model)
