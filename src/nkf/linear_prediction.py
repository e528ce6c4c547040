"""Autocorrelation linear-prediction analysis and companion-form state matrices.

The biased autocorrelation estimator (divide by N, not N-k) keeps the
Toeplitz normal equations positive semidefinite, so the Levinson-Durbin
recursion below is well defined for any finite input with r(0) > 0.
``fit_lp_bins`` runs the same analysis on every column of a segment at once;
``autocorrelate`` and ``levinson_durbin`` are its one-track reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericsError

#: Autocorrelation floor below which a segment is treated as silence.
_SILENT_R0 = 1e-14


@dataclass(frozen=True)
class LpModel:
    """A P-order forward predictor x(n) ~ sum_j coeffs[j-1] * x(n-j)."""

    order: int
    coeffs: np.ndarray
    residual_var: float

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.order < 1 or coeffs.shape != (self.order,):
            raise DataError("LP coefficient vector must have length = order")
        if not np.all(np.isfinite(coeffs)) or not np.isfinite(self.residual_var):
            raise DataError("LP model must be finite")
        if self.residual_var < 0:
            raise DataError("residual variance must be nonnegative")
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class TransitionMatrix:
    """Companion form: LP coefficients in row one, shifted identity below."""

    a: np.ndarray
    u: np.ndarray


def autocorrelate(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r(k) = (1/N) sum_n x(n) x(n-k), k = 0..max_lag."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n <= max_lag:
        raise DataError("sequence too short for requested lag")
    return np.array([x[k:] @ x[:n - k] for k in range(max_lag + 1)]) / n


def levinson_durbin(r: np.ndarray, order: int) -> LpModel:
    """Solve the Toeplitz normal equations by the Levinson-Durbin recursion.

    Parameters
    ----------
    r : array_like
        Autocorrelation sequence, lags 0..order at least.
    order : int
        Predictor order P >= 1.

    Returns
    -------
    LpModel
        Forward prediction coefficients and the final prediction error.
    """
    r = np.asarray(r, dtype=np.float64)
    if len(r) < order + 1:
        raise DataError("autocorrelation sequence shorter than order + 1")
    if r[0] <= 0:
        raise NumericsError("degenerate autocorrelation")
    a = np.zeros(order)
    err = r[0]
    for m in range(1, order + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (r[m] - a[:m - 1] @ r[1:m][::-1]) / err
        if not np.isfinite(k):
            raise NumericsError("non-finite reflection coefficient")
        a[:m - 1] = a[:m - 1] - k * a[:m - 1][::-1]
        a[m - 1] = k
        err *= 1.0 - k * k
    return LpModel(order=order, coeffs=a, residual_var=max(err, 0.0))


def fit_lp_bins(segment: np.ndarray, order: int, frame: int = 0):
    """LP models for every column (frequency bin) of an L x F segment at once.

    The autocorrelation lags are column sums and the Levinson-Durbin
    recursion carries a bin axis. Silent bins (r(0) at or below the floor)
    get zero coefficients and residual max(r(0), 0). ``frame`` is the
    segment's first frame, named in errors.

    Returns
    -------
    coeffs : ndarray, F x P
    residual_var : ndarray, F
    """
    seg = np.asarray(segment, dtype=np.float64)
    n = seg.shape[0]
    if n <= order:
        raise DataError("sequence too short for requested lag")
    r = np.stack([np.sum(seg[k:] * seg[:n - k], axis=0)
                  for k in range(order + 1)], axis=1) / n
    r0 = r[:, 0].copy()
    silent = r0 <= _SILENT_R0
    r[silent] = 0.0   # with err = 1 below, silent bins get k = 0 at every order
    a = np.zeros((seg.shape[1], order))
    err = np.where(silent, 1.0, r0)
    for m in range(1, order + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (r[:, m] - np.sum(a[:, :m - 1] * r[:, m - 1:0:-1], axis=1)) / err
        bad = np.flatnonzero(~np.isfinite(k))
        if bad.size:
            raise NumericsError(f"non-finite reflection coefficient in the "
                                f"segment at frame {frame}, bins {bad.tolist()}")
        a[:, :m - 1] = a[:, :m - 1] - k[:, None] * a[:, :m - 1][:, ::-1]
        a[:, m - 1] = k
        err = err * (1.0 - k * k)
    return a, np.where(silent, np.maximum(r0, 0.0), np.maximum(err, 0.0))


def transition_matrix(m: LpModel) -> TransitionMatrix:
    """Companion state-transition matrix for the LP state recursion."""
    p = m.order
    a = np.zeros((p, p))
    a[0, :] = m.coeffs
    if p > 1:
        a[np.arange(1, p), np.arange(p - 1)] = 1.0
    u = np.zeros(p)
    u[0] = 1.0
    return TransitionMatrix(a=a, u=u)
