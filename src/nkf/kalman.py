"""Conventional modulation-domain Kalman filtering of amplitude tracks.

Each frequency bin's amplitude trajectory is treated as a P-order linear
prediction process; the filter alternates the companion-form prediction
step with a scalar-observation update whose gain compares the propagated
prediction-error covariance against the noise variance. The full baseline
enhancer Wiener-prefilters the noisy amplitudes, fits LP models on short
segments of that output, then runs the recursion over the raw noisy
amplitudes and resynthesizes with the noisy phase.

``kf_predict``, ``kf_gain`` and ``kf_update`` are one frame's steps for all
bins at once, with the bin axis last (state x P x F, covariance ree
P x P x F, LP coefficients c P x F), so every component is one contiguous
F-vector. ``filter_bins`` runs them per frame and ``filter_segmented`` fits
each segment with ``levinson_durbin(autocorrelate(...))``, both through this
module's names, so a wrapper set on ``kalman.kf_predict`` (as perfbench's
tracer sets) sees every call. ``transition_matrix`` is re-exported too.
"""

from __future__ import annotations

import numpy as np

from . import pipeline, signal_core
from .errors import DataError, NumericsError
from .linear_prediction import autocorrelate, levinson_durbin, transition_matrix


def kf_predict(x, ree, c, sigma_w2):
    """Propagate state and covariance one frame ahead; returns both.

    ``ree`` is used as symmetric: row = (A ree)[0] = sum_j c_j ree[j], and
    A ree A^T is ree shifted down and right, bordered by row on both sides,
    with c . row + sigma_w2 in the corner. x shifts down under its new first
    component c . x.
    """
    row = np.add.reduce(c[:, None] * ree, 0)
    pred = np.empty_like(ree)
    pred[1:, 1:] = ree[:-1, :-1]
    pred[0, 1:] = pred[1:, 0] = row[:-1]
    pred[0, 0] = np.add.reduce(c * row, 0) + sigma_w2
    x_pred = np.empty_like(x)
    x_pred[1:], x_pred[0] = x[:-1], np.add.reduce(c * x, 0)
    return x_pred, pred


def kf_gain(ree, sigma_v2, frame: int):
    """Gain (P x F) that weighs the noisy observation against the prediction.

    A zero denominator (no noise variance and ree[0, 0] = 0, so for a PSD
    covariance a zero first column) gives g = 0, the limit as sigma_v2 -> 0+:
    the prediction is kept. A negative one raises, naming ``frame`` and the
    bins.
    """
    denom = sigma_v2 + ree[0, 0]
    # NaN-blind like denom < 0, and defined for zero bins
    lowest = np.fmin.reduce(denom, initial=np.inf)
    if lowest < 0:
        raise NumericsError(
            f"degenerate gain: negative denominator at frame {frame}, "
            f"bins {np.flatnonzero(denom < 0).tolist()}")
    # a zero denominator gives g = 0: x / inf == 0
    return ree[:, 0] / (denom if lowest != 0
                        else np.where(denom == 0, np.inf, denom))


def kf_update(x, ree, g, y_amp):
    """Fold the observed amplitudes (F) into the predicted state and
    covariance, in place (``kf_predict`` returns fresh arrays); returns both."""
    x += g * (y_amp - x[0])
    ree -= g[:, None] * ree[0]
    return x, ree


def filter_bins(noisy_amp, sigma_v2, segments, order: int):
    """The KF recursion over the T x F amplitude tracks of all bins at once.

    ``segments`` yields ``(start, stop, coeffs F x P, residual_var F)`` in
    frame order; state and covariance carry across segment boundaries. The
    state of each bin is seeded from its first P noisy amplitudes (newest
    first) with covariance sigma_v2[0] * I; those frames pass through
    unchanged. Each frame runs ``kf_predict``, ``kf_gain`` and ``kf_update``.
    Returns the filtered tracks and the first gain component per frame and
    bin.
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
    for start, stop, coeffs, sigma_w2 in segments:
        c = np.ascontiguousarray(coeffs.T)
        first = max(start, order)
        for t in range(first, stop):
            x, pred = kf_predict(x, ree, c, sigma_w2)
            g = kf_gain(pred, sigma_v2[t], t)
            x, ree = kf_update(x, pred, g, noisy_amp[t])
            out[t] = x[0]
            gains[t] = g[0]
        np.maximum(out[first:stop], 0.0, out=out[first:stop])
    return out, gains


def run_kf(noisy_amp, coeffs, residual_var, sigma_v2) -> np.ndarray:
    """Filter one amplitude track with one P-order LP model (``coeffs`` of
    length P and ``residual_var``): ``filter_bins`` on one bin.

    The state is seeded from the first P noisy amplitudes (newest first) with
    covariance sigma_v2[0] * I; those frames pass through unchanged.
    """
    noisy_amp = np.asarray(noisy_amp, dtype=np.float64)
    sigma_v2 = np.asarray(sigma_v2, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if noisy_amp.shape != sigma_v2.shape or noisy_amp.ndim != 1:
        raise DataError("amplitude and noise-variance tracks must match")
    if coeffs.ndim != 1 or len(coeffs) < 1:
        raise DataError("LP coefficients must be a vector of length order >= 1")
    if not (np.all(np.isfinite(coeffs)) and 0 <= residual_var < np.inf):
        raise DataError("LP model must be finite, its residual variance nonnegative")
    segment = (0, len(noisy_amp), coeffs[None], np.full(1, float(residual_var)))
    return filter_bins(noisy_amp[:, None], sigma_v2[:, None], [segment],
                       len(coeffs))[0][:, 0]


def filter_segmented(noisy_amp, lp_track, sigma_v2, order: int, seg_len: int):
    """``filter_bins`` with LP models fit on ``seg_len``-frame segments of
    ``lp_track`` (T x F, like the other grids).

    A tail of ``order`` frames or fewer is too short for LP analysis and is
    merged into the previous segment. Each segment's models are fit when the
    recursion reaches it; a fit that fails names the segment's first frame.
    """
    n = len(noisy_amp)
    starts = list(range(0, n, seg_len))
    if len(starts) > 1 and n - starts[-1] <= order:
        starts.pop()

    def segments():
        for lo, hi in zip(starts, starts[1:] + [n]):
            r = autocorrelate(lp_track[lo:hi], order)
            try:
                coeffs, residual_var = levinson_durbin(r, order)
            except NumericsError as e:
                raise NumericsError(f"LP segment at frame {lo}: {e}") from None
            yield lo, hi, coeffs, residual_var

    return filter_bins(noisy_amp, sigma_v2, segments(), order)


def enhance_kf_baseline(noisy: signal_core.Waveform, cfg, sigma_v2_grid=None,
                        model=None) -> pipeline.EnhancementResult:
    """Wiener-prefilter, per-segment LP, bin-batched KF, noisy-phase resynthesis.

    The noise variance grid comes from mixing metadata (oracle) when given,
    else from a trained model's noise estimator; one of the two is required.
    An input inside one ``cfg.lp_segment``-frame LP segment gets an
    ill-conditioned LP fit: its output reproduces only to about 1e-11 x
    max|ref| across BLAS builds or rounding changes.
    """
    def estimate(spec):
        sigma_v2, wiener_amp = pipeline.wiener_estimate(
            spec, cfg.variance_span, sigma_v2_grid, model)
        enhanced, gains = filter_segmented(spec.amplitude, wiener_amp, sigma_v2,
                                           cfg.lp_order, cfg.lp_segment)
        return pipeline.NkfFrameEstimates(
            amp_wiener=wiener_amp, sigma_v2=sigma_v2, gain=gains, amp_out=enhanced)

    return pipeline.enhance_with(noisy, cfg, estimate, model)
