"""What every enhancement method shares: the result types, the source of
the noise-variance grid (oracle or model estimate) and the shell
stft -> amplitude estimate -> noisy frames rescaled to it -> istft.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import signal_core, wiener
from .errors import DataError
from .networks import NkfModel, noise_fnn_forward_grid


@dataclass
class NkfFrameEstimates:
    """Per-utterance inspection grids, each T x F, or None where the method
    that produced them does not compute that grid."""

    amp_lstm: np.ndarray | None = None
    amp_wiener: np.ndarray | None = None
    sigma_r2: np.ndarray | None = None
    sigma_v2: np.ndarray | None = None
    gain: np.ndarray | None = None
    amp_out: np.ndarray | None = None

    def __post_init__(self):
        if self.gain is not None and (np.any(self.gain < 0) or np.any(self.gain > 1)):
            raise DataError("gain grid must lie in [0, 1]")
        for grid in (self.amp_lstm, self.amp_wiener, self.amp_out):
            if grid is not None and np.any(grid < 0):
                raise DataError("amplitude grids must be nonnegative")


@dataclass
class EnhancementResult:
    waveform: signal_core.Waveform
    grids: NkfFrameEstimates


def lstm_features(amplitude: np.ndarray, log_features: bool) -> np.ndarray:
    """Network input features; raw amplitudes unless the log switch is on."""
    return np.log1p(amplitude) if log_features else amplitude


def wiener_estimate(spec: signal_core.Spectrogram, span: int, sigma_v2_grid=None,
                    model: NkfModel | None = None):
    """Noise-variance grid and the noisy amplitudes Wiener-filtered with it.

    The grid is the oracle one when given (shape-checked), else the model's
    noise-net estimate, which needs the framing and variance span the model
    was trained with; with neither there is no noise variance to filter with.
    """
    sigma_y2 = wiener.track_sigma_y(spec.amplitude, span)
    if sigma_v2_grid is not None:
        sigma_v2 = np.asarray(sigma_v2_grid, dtype=np.float64)
        if sigma_v2.shape != spec.amplitude.shape:
            raise DataError("noise grid shape differs from spectrogram")
    elif model is not None:
        framing = (spec.window_len, spec.hop, span)
        if framing != (model.window, model.hop, model.variance_span):
            raise DataError(f"spectrogram framing (window, hop, variance span) "
                            f"{framing} differs from the model's "
                            f"{(model.window, model.hop, model.variance_span)}")
        feats = lstm_features(spec.amplitude, model.log_features)
        with ad.no_grad():
            sigma_v2 = noise_fnn_forward_grid(model, feats, sigma_y2).values
    else:
        raise DataError("an oracle noise grid or a model is needed")
    tracks = wiener.VarianceTracks(sigma_y2=sigma_y2, sigma_v2=sigma_v2)
    return sigma_v2, wiener.apply_wiener(spec.amplitude, tracks)


def enhance_with(noisy: signal_core.Waveform, window: int, hop: int,
                 estimate) -> EnhancementResult:
    """Resynthesize ``estimate(spec) -> (amplitude, grids)`` with the noisy
    phase to exactly ``len(noisy)`` samples."""
    spec = signal_core.stft(noisy, window, hop)
    amplitude, grids = estimate(spec)
    out_spec = signal_core.recombine(spec, amplitude)
    waveform = signal_core.istft(out_spec, len(noisy), noisy.sample_rate)
    return EnhancementResult(waveform=waveform, grids=grids)
