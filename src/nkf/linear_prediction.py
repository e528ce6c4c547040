"""Autocorrelation linear-prediction analysis and companion-form state matrices.

The biased autocorrelation estimator (divide by N, not N-k) keeps the
Toeplitz normal equations positive semidefinite, so the Levinson-Durbin
recursion below is well defined for any finite input with r(0) > 0. Both
run on every track of a segment at once: ``autocorrelate`` takes an
``N x ...`` segment (time first, as the grids are) and returns its lags on
the last axis, and ``levinson_durbin`` solves every ``...`` row of lags, so
a 1-D track is the one-bin case. A silent track (r(0) at or below the floor)
gets the zero model.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericsError

#: Autocorrelation floor below which a segment is treated as silence.
_SILENT_R0 = 1e-14


def autocorrelate(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r(k) = (1/N) sum_n x(n) x(n-k), k = 0..max_lag.

    ``x`` is ``N x ...``; returns ``... x (max_lag + 1)``. The lags of an
    ``N x F`` segment are column sums, taken row by row.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n <= max_lag:
        raise DataError("sequence too short for requested lag")
    return np.stack([np.sum(x[k:] * x[:n - k], axis=0)
                     for k in range(max_lag + 1)], axis=-1) / n


def levinson_durbin(r: np.ndarray, order: int):
    """Solve the Toeplitz normal equations by the Levinson-Durbin recursion.

    ``r`` holds lags 0..order (at least) on its last axis. Returns the forward
    predictor x(n) ~ sum_j coeffs[j-1] * x(n-j) as ``coeffs`` (``... x P``)
    and the final prediction error ``residual_var`` (``...``). Silent rows
    (r(0) at or below the floor) get the zero model: zero coefficients and
    residual max(r(0), 0).
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-1] < order + 1:
        raise DataError("autocorrelation sequence shorter than order + 1")
    r0 = r[..., 0]
    silent = r0 <= _SILENT_R0
    # with err = 1 below, silent tracks get k = 0 at every order
    r = np.where(silent[..., None], 0.0, r)
    a = np.zeros(r.shape[:-1] + (order,))
    err = np.where(silent, 1.0, r0)
    for m in range(1, order + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (r[..., m] - np.sum(a[..., :m - 1] * r[..., m - 1:0:-1], axis=-1)) / err
        bad = np.flatnonzero(~np.isfinite(k))
        if bad.size:
            raise NumericsError(
                f"non-finite reflection coefficient, bins {bad.tolist()}")
        a[..., :m - 1] = a[..., :m - 1] - k[..., None] * a[..., :m - 1][..., ::-1]
        a[..., m - 1] = k
        err = err * (1.0 - k * k)
    return a, np.where(silent, np.maximum(r0, 0.0), np.maximum(err, 0.0))


def transition_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Companion state-transition matrix of one P-order predictor: the
    coefficients in row one, a shifted identity below."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    a = np.eye(len(coeffs), k=-1)
    a[0] = coeffs
    return a
