"""What every enhancement method shares: the result types, the source of
the noise-variance grid (oracle or model estimate), ``run_blocks`` (network
inference under ``no_grad`` over ``signal_core.block_bounds`` blocks) and the
shell stft -> amplitude estimate -> noisy frames rescaled to it -> istft.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import signal_core, wiener
from .errors import ConfigError, DataError
from .networks import NkfModel, noise_fnn_forward_grid
from .signal_core import block_bounds


@dataclass
class NkfFrameEstimates:
    """Per-utterance grids, each T x F, or None where the method that
    produced them does not compute that grid; ``amp_out``, the method's
    output amplitude, is what ``enhance_with`` resynthesizes."""

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


def run_blocks(n_frames: int, step) -> NkfFrameEstimates:
    """Run ``step(lo, hi, state) -> (NkfFrameEstimates of rows lo..hi-1,
    state)`` under ``no_grad`` on each block in order, from state None, and
    write each grid it computes into a whole-utterance grid allocated at the
    first block; returns those grids."""
    whole, state = {}, None
    with ad.no_grad():
        for lo, hi in block_bounds(n_frames):
            grids, state = step(lo, hi, state)
            whole = whole or {name: np.empty((n_frames,) + g.shape[1:])
                              for name, g in vars(grids).items() if g is not None}
            for name, out in whole.items():
                out[lo:hi] = getattr(grids, name)
    return NkfFrameEstimates(**whole)


def lstm_features(amplitude: np.ndarray, log_features: bool) -> np.ndarray:
    """Network input features; raw amplitudes unless the log switch is on."""
    return np.log1p(amplitude) if log_features else amplitude


def wiener_estimate(spec: signal_core.Spectrogram, span: int, sigma_v2_grid=None,
                    model: NkfModel | None = None):
    """Noise-variance grid and the noisy amplitudes Wiener-filtered with it.

    The grid is the oracle one when given (checked: shape, finite, >= 0), else
    the model's noise-net estimate on the model's own framing (``enhance_with``
    checks it), run in blocks; with neither there is no noise variance to
    filter with.
    """
    sigma_y2 = wiener.track_sigma_y(spec.amplitude, span)
    if sigma_v2_grid is not None:
        sigma_v2 = np.asarray(sigma_v2_grid, dtype=np.float64)
        if sigma_v2.shape != spec.amplitude.shape:
            raise DataError("noise grid shape differs from spectrogram")
        if not np.all(np.isfinite(sigma_v2)) or np.any(sigma_v2 < 0):
            raise DataError("noise grid must be finite and nonnegative")
    elif model is not None:
        feats = lstm_features(spec.amplitude, model.log_features)

        def step(lo, hi, state):
            grid = noise_fnn_forward_grid(model, feats, sigma_y2, lo, hi).values
            return NkfFrameEstimates(sigma_v2=grid), state

        sigma_v2 = run_blocks(spec.n_frames, step).sigma_v2
    else:
        raise DataError("an oracle noise grid or a model is needed")
    return sigma_v2, wiener.apply_wiener(spec.amplitude, sigma_v2, sigma_y2).values


def check_framing(cfg, m: NkfModel):
    """Raise ``ConfigError`` where ``cfg``'s framing differs from the model's."""
    differ = [f"{k} = {getattr(cfg, k)} (model {getattr(m, k)})"
              for k in ("window", "hop", "sample_rate", "variance_span")
              if getattr(cfg, k) != getattr(m, k)]
    if differ:
        raise ConfigError("framing differs from the model's: " + ", ".join(differ))


def enhance_with(noisy: signal_core.Waveform, cfg, estimate,
                 model: NkfModel | None) -> EnhancementResult:
    """Resynthesize the ``amp_out`` of ``estimate(spec) -> NkfFrameEstimates``
    with the noisy phase to exactly ``len(noisy)`` samples (``istft`` of
    ``recombine``, block by block). ``cfg`` (a ``RunConfig``, or the model
    itself) gives the framing, which must be the ``model``'s, if any, and
    ``noisy``'s sample rate."""
    if model is not None:
        check_framing(cfg, model)
    if noisy.sample_rate != cfg.sample_rate:
        raise DataError(f"waveform sample rate {noisy.sample_rate} Hz differs "
                        f"from the framing's {cfg.sample_rate} Hz")
    spec = signal_core.stft(noisy, cfg.window, cfg.hop)
    grids = estimate(spec)
    waveform = signal_core.istft(spec, len(noisy), noisy.sample_rate, grids.amp_out)
    return EnhancementResult(waveform=waveform, grids=grids)
