"""Objective quality measures: segmental SNR and its frequency-weighted form.

Both metrics clamp per-frame (or per-bin) SNR to [-10, 35] dB before
averaging and skip frames whose clean energy is below 1e-10, the usual
guards against silence dominating the average.
"""

from __future__ import annotations

import numpy as np

from . import signal_core
from .errors import DataError

SNR_FLOOR_DB = -10.0
SNR_CEIL_DB = 35.0
_SILENCE = 1e-10
_TINY = 1e-300
#: Exponent of the clean amplitude in FwSegSNR's per-bin weights
FW_GAMMA = 0.2


def _check_pair(clean: signal_core.Waveform, test: signal_core.Waveform):
    if len(clean) != len(test):
        raise DataError("waveforms must have equal length")
    if clean.sample_rate != test.sample_rate:
        raise DataError("waveforms must share one sample rate")


def segsnr(clean: signal_core.Waveform, test: signal_core.Waveform,
           frame: int = 256, hop: int = 128) -> float:
    """Time-domain segmental SNR in dB, clamped per frame to [-10, 35]."""
    _check_pair(clean, test)
    c, t = clean.samples, test.samples
    values = []
    for start in range(0, len(c) - frame + 1, hop):
        cf = c[start:start + frame]
        ef = cf - t[start:start + frame]
        sig = float(cf @ cf)
        if sig < _SILENCE:
            continue
        snr = 10.0 * np.log10((sig + _TINY) / (float(ef @ ef) + _TINY))
        values.append(np.clip(snr, SNR_FLOOR_DB, SNR_CEIL_DB))
    if not values:
        raise DataError("no non-silent clean frames to score")
    return float(np.mean(values))


def _amplitudes(clean, test, window, hop, clean_spec=None):
    _check_pair(clean, test)
    if clean_spec is None:
        clean_spec = signal_core.stft(clean, window, hop)
    return clean_spec.amplitude, signal_core.stft(test, window, hop).amplitude


def fwsegsnr(clean: signal_core.Waveform, test: signal_core.Waveform,
             window: int = 256, hop: int = 64) -> float:
    """Frequency-weighted segmental SNR in dB.

    Per frame, each bin's SNR 10*log10(|X|^2 / (|X| - |Xhat|)^2) is clamped
    to [-10, 35] and averaged with weights |X|^FW_GAMMA; frames are then
    averaged uniformly over the non-silent clean frames.
    """
    return _fwsegsnr(*_amplitudes(clean, test, window, hop))


def _fwsegsnr(cx: np.ndarray, tx: np.ndarray) -> float:
    err2 = (cx - tx) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = 10.0 * np.log10((cx * cx + _TINY) / (err2 + _TINY))
    snr = np.clip(snr, SNR_FLOOR_DB, SNR_CEIL_DB)
    weights = cx ** FW_GAMMA
    values = []
    for j in range(cx.shape[0]):
        if float(cx[j] @ cx[j]) < _SILENCE:
            continue
        wsum = float(np.sum(weights[j]))
        if wsum <= 0:
            continue
        values.append(float(weights[j] @ snr[j]) / wsum)
    if not values:
        raise DataError("no non-silent clean frames to score")
    return float(np.mean(values))


def amplitude_mse(clean: signal_core.Waveform, test: signal_core.Waveform,
                  window: int = 256, hop: int = 64) -> float:
    """Mean squared error between the two amplitude grids."""
    cx, tx = _amplitudes(clean, test, window, hop)
    return float(np.mean((cx - tx) ** 2))


def evaluate_pair(clean: signal_core.Waveform, test: signal_core.Waveform,
                  window: int = 256, hop: int = 64,
                  clean_spec: signal_core.Spectrogram | None = None) -> dict:
    """All three measures for one pair; ``clean_spec`` reuses a clean STFT."""
    cx, tx = _amplitudes(clean, test, window, hop, clean_spec)
    return {
        "fwsegsnr": _fwsegsnr(cx, tx),
        "segsnr": segsnr(clean, test),
        "amp_mse": float(np.mean((cx - tx) ** 2)),
    }


def summarize_rows(rows: list[dict]) -> dict:
    """Mean of each measure per ``snr_db`` over per-utterance rows:
    ``{snr_db: {measure: mean}}`` in increasing SNR."""
    if not rows:
        raise DataError("nothing to summarize")
    keys = ("fwsegsnr", "segsnr", "amp_mse")
    table = {}
    for snr in sorted({row["snr_db"] for row in rows}):
        group = [row for row in rows if row["snr_db"] == snr]
        table[snr] = {k: float(np.mean([r[k] for r in group])) for k in keys}
    return table
