"""Conventional modulation-domain Kalman filtering of amplitude tracks.

Each frequency bin's amplitude trajectory is treated as a P-order linear
prediction process; the filter alternates the companion-form prediction
step with a scalar-observation update whose gain compares the propagated
prediction-error covariance against the noise variance. The full baseline
enhancer Wiener-prefilters the noisy amplitudes, fits LP models on short
segments of that output, then runs the recursion over the raw noisy
amplitudes and resynthesizes with the noisy phase.

``kf_predict``, ``kf_gain`` and ``kf_update`` are one frame's steps for all
bins at once, the bin axis last. They, ``autocorrelate`` and
``levinson_durbin`` are called through this module's names, so a wrapper set
on one sees every call; perfbench's tracer sets them, and the imported
``transition_matrix``, which is here for that alone.
"""

from __future__ import annotations

import numpy as np

from . import pipeline, signal_core
from .errors import DataError, NumericsError
from .linear_prediction import autocorrelate, levinson_durbin, transition_matrix


class FrameBuffers:
    """The arrays one ``filter_bins`` call runs its frame steps in, made once
    for P-order models over F bins (Q = P + 1 columns).

    ``state`` (P x Q x F) is the augmented state [ree | x], the covariance
    with the state vector as its last column; ``x0`` is x's first component.
    ``work`` holds ``state``, the P rows of ``products`` (``row`` is the
    first, ``head`` its first P entries) and ``corner`` (P x F), in that
    order. The gather over ``index`` writes the prediction into ``pred`` and
    a copy of its first row into ``v``; ``ree`` is the prediction's
    covariance, ``g`` the gain.
    """

    __slots__ = ("work", "state", "x0", "products", "row", "head", "corner",
                 "index", "gathered", "pred", "ree", "v", "v_last", "g", "c",
                 "c_cols", "sigma_w2")

    def __init__(self, order: int, n_bins: int):
        p, q = order, order + 1
        self.work = np.empty(((2 * p + 1) * q, n_bins))
        rows = self.work.reshape(2 * p + 1, q, n_bins)
        self.state, self.products = rows[:p], rows[p:2 * p]
        self.x0, self.row, self.corner = rows[0, p], rows[p], rows[2 * p, :p]
        self.head = self.row[:p]
        # the row of ``work`` each prediction entry is copied from: the
        # corner, then ``row`` without its entry P - 1 across the top and down
        # the first column, and the state shifted down and right, without its
        # last covariance column, so x shifts down alone; last, the top again
        keep = np.append(np.arange(p - 1), p)
        self.index = np.empty((q, q), np.intp)
        self.index[0] = np.append(2 * p * q, p * q + keep)
        self.index[1:p, 0] = p * q + keep[:-1]
        self.index[1:p, 1:] = np.arange(p - 1)[:, None] * q + keep
        self.index[p] = self.index[0]
        self.gathered = np.empty((q, q, n_bins))
        self.pred, self.v = self.gathered[:p], self.gathered[p]
        self.v_last = self.v[p]
        self.ree = self.pred[:, :p]
        self.g = np.empty((p, n_bins))
        self.c = np.empty((p, n_bins))
        self.c_cols = np.empty((p, q, n_bins))
        self.sigma_w2 = None

    def set_model(self, coeffs, residual_var):
        """The LP model the next frames predict with: ``coeffs`` F x P (into
        ``c``, P x F, and ``c_cols``, ``c`` over the Q columns) and
        ``residual_var`` F."""
        self.c[:] = coeffs.T
        self.c_cols[:] = self.c[:, None]
        self.sigma_w2 = residual_var


def kf_predict(buf: FrameBuffers):
    """Propagate every bin's augmented state ``buf.state`` one frame ahead
    with the model ``buf.set_model`` set, into ``buf.pred`` (P x Q x F),
    which it returns.

    The covariance is used as symmetric: the first row of A [ree | x] is
    sum_j c_j [ree | x][j], added in order; A ree A^T is ree shifted down and
    right, bordered by that row on both sides, with c . row + sigma_w2 in the
    corner, and x shifts down under its new first component c . x, all one
    gather from ``buf.work``.
    """
    products, row, corner = buf.products, buf.row, buf.corner
    np.multiply(buf.c_cols, buf.state, out=products)
    for j in range(1, len(products)):
        row += products[j]
    np.multiply(buf.c, buf.head, out=corner)
    total = corner[0]
    for j in range(1, len(corner)):
        total += corner[j]
    total += buf.sigma_w2
    np.take(buf.work, buf.index, axis=0, out=buf.gathered, mode="clip")
    return buf.pred


def kf_gain(ree, sigma_v2, frame: int, out=None):
    """Gain (P x F) that weighs the noisy observation against the prediction,
    written into ``out`` when given.

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
    return np.divide(ree[:, 0], denom if lowest != 0
                     else np.where(denom == 0, np.inf, denom), out=out)


def kf_update(buf: FrameBuffers, g, y_amp):
    """Fold the observed amplitudes (F) into the prediction ``buf.pred`` with
    gain ``g`` (P x F): ``buf.state`` becomes
    pred + g (x) [-pred[0, :P], y - x0], which it returns, from the copy of
    pred[0] that ``kf_predict`` leaves in ``buf.v``. That is ree - g ree[0]
    and x + g (y - x0), signed zeros included (x0 - y would be +0 where
    y - x0 is).
    """
    v, last = buf.v, buf.v_last
    np.negative(v, out=v)
    last += y_amp
    np.multiply(g[:, None], v, out=buf.products)
    return np.add(buf.pred, buf.products, out=buf.state)


def filter_bins(noisy_amp, sigma_v2, segments, order: int):
    """The KF recursion over the T x F amplitude tracks of all bins at once.

    ``segments`` yields ``(start, stop, coeffs F x P, residual_var F)`` in
    frame order; state and covariance carry across segment boundaries. The
    state of each bin is seeded from its first P noisy amplitudes (newest
    first) with covariance sigma_v2[0] * I; those frames pass through
    unchanged. Returns the filtered tracks and the first gain component per
    frame and bin. Every value is bit for bit the one of the same steps with
    state and covariance held apart, and a bin's are the same alone as beside
    others. A ``sigma_v2`` of another shape, or a non-finite amplitude,
    raises before the recursion; the latter names the first frame that holds
    one.
    """
    if np.shape(sigma_v2) != noisy_amp.shape:
        raise DataError(f"noise variance is {np.shape(sigma_v2)}, not {noisy_amp.shape}")
    finite = np.isfinite(noisy_amp).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DataError(f"non-finite noisy amplitude at frame {bad}, bins "
                        f"{np.flatnonzero(~np.isfinite(noisy_amp[bad])).tolist()}")
    out = noisy_amp.copy()
    gains = np.zeros(noisy_amp.shape)
    n_frames, n_bins = noisy_amp.shape
    if n_frames <= order:
        return out, gains
    # the frames the recursion reads; written to reject NaN too
    if not (np.all(sigma_v2[0] >= 0) and np.all(sigma_v2[order:] >= 0)):
        raise DataError("noise variance must be nonnegative")
    buf = FrameBuffers(order, n_bins)
    buf.state[:, :order] = np.eye(order)[:, :, None] * sigma_v2[0]
    buf.state[:, order] = noisy_amp[order - 1::-1]
    g = buf.g
    g0 = g[0]
    for start, stop, coeffs, sigma_w2 in segments:
        buf.set_model(coeffs, sigma_w2)
        first = max(start, order)
        for t in range(first, stop):
            kf_predict(buf)
            kf_gain(buf.ree, sigma_v2[t], t, g)
            kf_update(buf, g, noisy_amp[t])
            out[t] = buf.x0
            gains[t] = g0
        np.maximum(out[first:stop], 0.0, out=out[first:stop])
    return out, gains


def run_kf(noisy_amp, coeffs, residual_var, sigma_v2) -> np.ndarray:
    """Filter one amplitude track with one P-order LP model (``coeffs`` of
    length P and ``residual_var``): ``filter_bins`` on one bin."""
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


def lp_segments(lp_track, order: int, seg_len: int):
    """Each ``seg_len``-frame segment's LP models of ``lp_track`` (T x F):
    yields ``(start, stop, coeffs F x P, residual_var F)`` in frame order.

    A tail of ``order`` frames or fewer is merged into the previous segment.
    When the first segment is asked for, every segment of exactly ``seg_len``
    frames is fit in one call over a ``seg_len x S x F`` view; a last one of
    another length is fit alone when reached. If the batched fit fails, each
    segment is fit when reached instead, so a failing fit names its
    segment's first frame and its bins.
    """
    n = len(lp_track)
    starts = list(range(0, n, seg_len))
    if len(starts) > 1 and n - starts[-1] <= order:
        starts.pop()
    bounds = list(zip(starts, starts[1:] + [n]))
    n_full = sum(hi - lo == seg_len for lo, hi in bounds)
    models = []
    if n_full:
        full = lp_track[:n_full * seg_len].reshape(n_full, seg_len, *lp_track.shape[1:])
        try:
            models = list(zip(*levinson_durbin(
                autocorrelate(full.swapaxes(0, 1), order), order)))
        except NumericsError:
            pass    # each segment is fit when reached, and the failing one named
    for (lo, hi), model in zip(bounds, models):
        yield lo, hi, *model
    for lo, hi in bounds[len(models):]:
        r = autocorrelate(lp_track[lo:hi], order)
        try:
            coeffs, residual_var = levinson_durbin(r, order)
        except NumericsError as e:
            raise NumericsError(f"LP segment at frame {lo}: {e}") from None
        yield lo, hi, coeffs, residual_var


def filter_segmented(noisy_amp, lp_track, sigma_v2, order: int, seg_len: int):
    """``filter_bins`` with ``lp_segments``' models of ``lp_track`` (T x F,
    like the other grids), the first fit after ``filter_bins``' input checks."""
    if np.shape(lp_track) != np.shape(noisy_amp):
        raise DataError(f"LP track is {np.shape(lp_track)}, not {np.shape(noisy_amp)}")
    return filter_bins(noisy_amp, sigma_v2, lp_segments(lp_track, order, seg_len), order)


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
