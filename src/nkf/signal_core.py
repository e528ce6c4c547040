"""Windowed STFT analysis and weighted overlap-add synthesis.

Analysis and synthesis both use a periodic Hann window; synthesis divides by
the accumulated squared-window envelope, which is constant on the interior
for hop = window/4 (the default 75% overlap), giving perfect reconstruction
away from the utterance edges. Frames are taken without center padding, so
frame t covers samples [t*hop, t*hop + window) of the raw signal.

All grids are float64 / complex128; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

#: Floor of the overlap-add normaliser, as a fraction of its interior value.
_OLA_FLOOR_FRACTION = 0.01
#: Smallest normal float64.
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class Waveform:
    """A mono time-domain signal with nominal amplitude range [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise DataError("waveform must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise DataError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise DataError("sample rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    """Complex STFT frames and their amplitude grid.

    ``frames`` and ``amplitude`` are both T x F with F = window_len/2 + 1
    (non-redundant bins of a real transform).
    """

    frames: np.ndarray
    amplitude: np.ndarray
    window_len: int
    hop: int

    def __post_init__(self):
        if self.frames.shape != self.amplitude.shape:
            raise DataError("spectrogram grids must share one shape")
        if self.frames.shape[1] != self.window_len // 2 + 1:
            raise DataError("bin count inconsistent with window length")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]


def hann_window(window_len: int) -> np.ndarray:
    """Periodic Hann window (DFT-even, suitable for overlap-add)."""
    n = np.arange(window_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window_len)


def frame_count(n_samples: int, window_len: int, hop: int) -> int:
    """T = 1 + floor((n_samples - window_len) / hop), the frames ``stft``
    makes; a signal shorter than one window is an error."""
    if window_len <= 0 or window_len % 2 != 0:
        raise DataError("window length must be a positive even number")
    if not 0 < hop <= window_len:
        raise DataError("hop must satisfy 0 < hop <= window length")
    if n_samples < window_len:
        raise DataError("utterance too short for one analysis window")
    return 1 + (n_samples - window_len) // hop


def stft(w: Waveform, window_len: int = 256, hop: int = 64) -> Spectrogram:
    """Short-time Fourier transform without center padding, in the
    ``frame_count(len(w), window_len, hop)`` frames that fit."""
    frame_count(len(w), window_len, hop)
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, window_len)[::hop]
    frames = np.fft.rfft(frames * hann_window(window_len), axis=1)
    return Spectrogram(frames, np.abs(frames), window_len, hop)


#: Frames per block, the one block rule of the library. The networks infer
#: in ``block_bounds`` blocks: cut every ``BLOCK`` frames, the last absorbing
#: the remainder, so each has BLOCK to 2·BLOCK - 1 frames (an input of fewer
#: than 2·BLOCK frames is one block). A matrix product's row then rounds as
#: in the whole-utterance product: scipy-openblas 0.3.31 sends products of
#: fewer than about 124 rows to other kernels, which can round the last bit
#: differently. ``istft`` transforms ``BLOCK`` frames at a time; any block
#: size adds the same terms in the same order there, so it bounds memory,
#: not the result.
BLOCK = 256


def block_bounds(n_frames: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` frames of each block, in order."""
    cuts = list(range(0, n_frames, BLOCK))[:max(1, n_frames // BLOCK)]
    return list(zip(cuts, cuts[1:] + [n_frames]))


def istft(s: Spectrogram, out_len: int, sample_rate: int = 16000,
          amplitude: np.ndarray | None = None) -> Waveform:
    """Weighted overlap-add synthesis to exactly ``out_len`` samples; with
    ``amplitude``, of ``recombine(s, amplitude)``, bit for bit.

    ``out_len`` must frame to the same number of frames the spectrogram
    holds; samples past the last frame's coverage are zero. Frames are
    transformed (and recombined) ``BLOCK`` at a time, so the only
    whole-utterance arrays made are the output and its two overlap-add sums.

    The overlap-add is divided by Σ win², floored at ``_OLA_FLOOR_FRACTION``
    (1%) of its interior value ``(win * win).sum() / hop``. Near both ends
    only window tails cover a sample, and an unfloored division would blow a
    rescaled frame's tail up into a click (Σ win² is 2.3e-8 at sample 1 of
    a 256-sample window). Below the floor a sample comes out scaled by
    Σ win² / floor: for an unmodified spectrogram the error there is
    ``x[n] (1 - Σ win²[n] / floor)``, up to the whole sample. At hop
    window/4 these are the first and last ``0.114 window`` samples or so (30
    at a 256-sample window); every other sample is reconstructed as before.
    """
    window_len, hop = s.window_len, s.hop
    if out_len < window_len or 1 + (out_len - window_len) // hop != s.n_frames:
        raise DataError("output length inconsistent with frame count")
    if amplitude is not None and np.shape(amplitude) != s.amplitude.shape:
        raise DataError("amplitude grid must match the spectrogram's shape")
    win = hann_window(window_len)
    # Hop-sized chunk k of frame t lands on output block t + k. Adding the
    # chunks in descending k, block after block of frames, gives every sample
    # its frames in increasing t, the summation order of a frame-by-frame
    # overlap-add.
    n_frames, n_chunks = s.n_frames, -(-window_len // hop)
    acc = np.zeros((n_frames + n_chunks - 1, hop))
    wsum = np.zeros_like(acc)
    for lo in range(0, n_frames, BLOCK):
        block = Spectrogram(s.frames[lo:lo + BLOCK],
                            s.amplitude[lo:lo + BLOCK], window_len, hop)
        if amplitude is not None:
            block = recombine(block, amplitude[lo:lo + BLOCK])
        segments = np.fft.irfft(block.frames, n=window_len, axis=1)
        segments *= win
        for k in reversed(range(n_chunks)):
            c_lo, c_hi = k * hop, min((k + 1) * hop, window_len)
            acc[lo + k:lo + k + len(segments), :c_hi - c_lo] += segments[:, c_lo:c_hi]
    for k in reversed(range(n_chunks)):
        lo, hi = k * hop, min((k + 1) * hop, window_len)
        wsum[k:k + n_frames, :hi - lo] += (win * win)[lo:hi]
    np.maximum(wsum, _OLA_FLOOR_FRACTION * (win * win).sum() / hop, out=wsum)
    acc /= wsum
    out = np.zeros(out_len)
    ola = acc.reshape(-1)[:out_len]
    out[:len(ola)] = ola
    return Waveform(out, sample_rate)


def recombine(spec: Spectrogram, amplitude: np.ndarray) -> Spectrogram:
    """``spec`` with its frames rescaled to ``amplitude``: each bin keeps its
    phase, and a zero bin of ``spec`` takes phase 0.

    Real and imaginary parts are divided by ``spec``'s amplitude, then
    multiplied by the new one. Zero and subnormal bins (whose amplitude has
    too few bits to divide by) are first lifted by an exact power of two,
    which keeps their phase; a zero bin becomes 1 + 0j.
    """
    amplitude = np.asarray(amplitude, dtype=np.float64)
    if amplitude.shape != spec.amplitude.shape:
        raise DataError("amplitude grid must match the spectrogram's shape")
    if np.any(amplitude < 0):
        raise DataError("amplitude grid must be nonnegative")
    frames, norm = spec.frames, spec.amplitude
    low = norm < _TINY
    if low.any():
        lifted = frames[low] * 2.0 ** 600
        lifted[lifted == 0] = 1.0
        frames, norm = frames.copy(), norm.copy()
        frames[low], norm[low] = lifted, np.abs(lifted)
    out = np.empty(frames.shape, dtype=np.complex128)
    out.real = frames.real / norm * amplitude
    out.imag = frames.imag / norm * amplitude
    return Spectrogram(out, amplitude, spec.window_len, spec.hop)
