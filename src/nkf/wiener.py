"""Instantaneous MMSE Wiener filtering on time-frequency amplitude grids.

The noisy variance is a causal rectangular moving average of the squared
amplitude (current frame inclusive, truncated at the utterance start), and
the gain is clamped to [0, 1] so a noise over-estimate can never flip the
sign of an amplitude.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DataError

#: Variance floor used when dividing by the observed variance.
VARIANCE_FLOOR = 1e-12


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


def _unclamped_gain(sigma_v2, sigma_y2):
    """1 / max(sigma_y2, floor) and the gain 1 - sigma_v2 times it, unclamped."""
    inv_sy = 1.0 / np.maximum(np.asarray(sigma_y2, dtype=np.float64), VARIANCE_FLOOR)
    return inv_sy, 1.0 - np.asarray(sigma_v2, dtype=np.float64) * inv_sy


def wiener_gain(sigma_v2, sigma_y2):
    """MMSE gain 1 - noise/observed variance, clamped to [0, 1]."""
    _, x = _unclamped_gain(sigma_v2, sigma_y2)
    return np.clip(x, 0.0, 1.0)


def apply_wiener(amplitude: np.ndarray, sigma_v2, sigma_y2: np.ndarray) -> ad.DiffArray:
    """Scale each bin amplitude by its Wiener gain; never amplifies. One node;
    only ``sigma_v2`` (a node or an array) gets a gradient, rounded as the
    ``mul``, ``sub``, ``clamp``, ``mul`` chain rounds it (bounds pass through)."""
    amplitude = np.asarray(amplitude, dtype=np.float64)
    sigma_v2 = ad.lift(sigma_v2)
    if not amplitude.shape == sigma_v2.shape == np.shape(sigma_y2):
        raise DataError("amplitude and variance grids must share one shape")
    out = wiener_gain(sigma_v2.values, sigma_y2) * amplitude

    def backward(g):
        inv_sy, x = _unclamped_gain(sigma_v2.values, sigma_y2)
        sigma_v2._accumulate(-((g * amplitude) * ((x >= 0.0) & (x <= 1.0))) * inv_sy)

    return ad.make_node(out, (sigma_v2,), backward)
