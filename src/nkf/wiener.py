"""Instantaneous MMSE Wiener filtering on time-frequency amplitude grids.

The noisy variance is a causal rectangular moving average of the squared
amplitude (current frame inclusive, truncated at the utterance start), and
the gain is clamped to [0, 1] so a noise over-estimate can never flip the
sign of an amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

#: Variance floor used when dividing by the observed variance.
VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class VarianceTracks:
    """Running noisy variance and noise variance, both T x F and >= 0."""

    sigma_y2: np.ndarray
    sigma_v2: np.ndarray

    def __post_init__(self):
        if self.sigma_y2.shape != self.sigma_v2.shape:
            raise DataError("variance grids must share one shape")
        for grid in (self.sigma_y2, self.sigma_v2):
            if not np.all(np.isfinite(grid)) or np.any(grid < 0):
                raise DataError("variance grids must be finite and nonnegative")


def track_sigma_y(amplitude: np.ndarray, span: int = 20) -> np.ndarray:
    """Causal moving average of |Y|^2 over the previous ``span`` frames.

    Frame t averages frames max(0, t-span+1)..t, so the window always
    includes the current frame and shrinks at the utterance start.
    """
    if span < 1:
        raise DataError("span must be at least one frame")
    power = np.asarray(amplitude, dtype=np.float64) ** 2
    csum = np.cumsum(power, axis=0)
    out = np.empty_like(csum)
    out[:span] = csum[:span]
    if power.shape[0] > span:
        out[span:] = csum[span:] - csum[:-span]
    t = np.arange(power.shape[0])
    counts = np.minimum(t + 1, span)
    return out / counts.reshape((-1,) + (1,) * (power.ndim - 1))


def wiener_gain(sigma_v2, sigma_y2):
    """MMSE gain 1 - noise/observed variance, clamped to [0, 1], rounded as
    the NKF graph's Wiener branch: sigma_v2 * (1 / max(sigma_y2, floor))."""
    sigma_v2 = np.asarray(sigma_v2, dtype=np.float64)
    sigma_y2 = np.asarray(sigma_y2, dtype=np.float64)
    inv_sy = 1.0 / np.maximum(sigma_y2, VARIANCE_FLOOR)
    return np.clip(1.0 - sigma_v2 * inv_sy, 0.0, 1.0)


def apply_wiener(amplitude: np.ndarray, v: VarianceTracks) -> np.ndarray:
    """Scale each bin amplitude by its Wiener gain; never amplifies."""
    amplitude = np.asarray(amplitude, dtype=np.float64)
    if amplitude.shape != v.sigma_y2.shape:
        raise DataError("amplitude grid shape differs from variance tracks")
    return wiener_gain(v.sigma_v2, v.sigma_y2) * amplitude
