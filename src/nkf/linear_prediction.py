"""Autocorrelation linear-prediction analysis and companion-form state matrices.

The biased autocorrelation estimator (divide by N, not N-k) keeps the
Toeplitz normal equations positive semidefinite, so the Levinson-Durbin
recursion below is well defined for any finite input with r(0) > 0. Both
take every track of a segment at once, time first as the grids are.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericsError

#: Autocorrelation floor below which a segment is treated as silence.
_SILENT_R0 = 1e-14


def autocorrelate(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r(k) = (1/N) sum_n x(n) x(n-k), k = 0..max_lag.

    ``x`` is ``N x ...``; returns ``... x (max_lag + 1)``. Each lag adds its
    products in frame order from +0, so a track gets the same bits alone,
    as ``N x 1`` or beside others.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n <= max_lag:
        raise DataError("sequence too short for requested lag")
    # the tracks as columns beside a zero one: numpy sums pairwise only along
    # the fast axis in memory, and across it, as here, adds rows in order
    cols = np.zeros((n, x[0].size + 1))
    cols[:, :-1] = x.reshape(n, -1)
    lags = [np.sum(cols[k:] * cols[:n - k], axis=0)[:-1] for k in range(max_lag + 1)]
    return np.stack(lags, axis=-1).reshape(x.shape[1:] + (max_lag + 1,)) / n


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
