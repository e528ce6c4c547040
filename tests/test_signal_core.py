from types import SimpleNamespace

import numpy as np
import pytest

from nkf import data_io
from nkf.enhancer import _segment
from nkf.errors import DataError
from nkf.signal_core import Spectrogram, Waveform, frame_count, hann_window, \
    istft, recombine, stft

from oracles import recombine_polar

EPS = np.finfo(np.float64).eps


def _dft_oracle(frame):
    """Naive O(N^2) DFT of one windowed frame, non-redundant bins."""
    n = len(frame)
    bins = n // 2 + 1
    out = np.zeros(bins, dtype=complex)
    for k in range(bins):
        for i in range(n):
            out[k] += frame[i] * np.exp(-2j * np.pi * k * i / n)
    return out


def _train_entry(tmp_path, name, noisy, clean):
    """A train manifest entry's fields for two waveforms written as WAVs."""
    paths = [str(tmp_path / f"{name}_{kind}.wav") for kind in ("noisy", "clean")]
    for w, path in zip((noisy, clean), paths):
        data_io.write_wav(w, path)
    return SimpleNamespace(utt_id=name, noisy_path=paths[0], clean_path=paths[1])


def ola_floor(window_len: int, hop: int) -> float:
    """``istft``'s floor of Σ win²: 1% of its interior value."""
    win = hann_window(window_len)
    return 0.01 * (win * win).sum() / hop


def ola_envelope(window_len: int, hop: int, n_frames: int, out_len: int) -> np.ndarray:
    """Σ win² at each of ``out_len`` samples, frame by frame."""
    win = hann_window(window_len)
    wsum = np.zeros(max(out_len, window_len + (n_frames - 1) * hop))
    for t in range(n_frames):
        wsum[t * hop:t * hop + window_len] += win * win
    return wsum[:out_len]


def _istft_loop_oracle(s: Spectrogram, out_len: int, floor=None) -> np.ndarray:
    """Frame-by-frame weighted overlap-add, the reference for ``istft``; the
    envelope floored at ``floor``, by default ``ola_floor``'s (1e-12 before
    the floor followed the window)."""
    window_len, hop = s.window_len, s.hop
    win = hann_window(window_len)
    segments = np.fft.irfft(s.frames, n=window_len, axis=1) * win
    coverage = window_len + (s.n_frames - 1) * hop
    acc = np.zeros(coverage)
    for t in range(s.n_frames):
        off = t * hop
        acc[off:off + window_len] += segments[t]
    wsum = ola_envelope(window_len, hop, s.n_frames, coverage)
    acc /= np.maximum(wsum, ola_floor(window_len, hop) if floor is None else floor)
    out = np.zeros(out_len)
    out[:coverage] = acc
    return out


class TestStft:
    def test_zero_signal_framing(self):
        s = stft(Waveform(np.zeros(1024)), window_len=256, hop=64)
        assert s.n_frames == 13
        assert np.all(s.amplitude == 0)

    def test_bin_count(self):
        s = stft(Waveform(np.zeros(512)), window_len=256, hop=64)
        assert s.n_bins == 129

    def test_sinusoid_peaks_at_expected_bin(self):
        # 1 kHz at 16 kHz with a 256 window lands on bin 1000*256/16000 = 16
        t = np.arange(16000) / 16000.0
        s = stft(Waveform(np.sin(2 * np.pi * 1000.0 * t)), 256, 64)
        assert np.all(np.argmax(s.amplitude, axis=1) == 16)

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(96)
        s = stft(Waveform(x), window_len=32, hop=8)
        frame_index = 3
        windowed = x[frame_index * 8:frame_index * 8 + 32] * hann_window(32)
        np.testing.assert_allclose(
            s.frames[frame_index], _dft_oracle(windowed), atol=1e-10)

    def test_framing_matches_index_gather(self):
        # the frames stft transforms are the hop-spaced windows of the signal
        rng = np.random.default_rng(8)
        for n, window_len, hop in [(256, 256, 64), (1000, 64, 16), (777, 8, 3),
                                   (999, 128, 128)]:
            x = rng.standard_normal(n)
            n_frames = frame_count(n, window_len, hop)
            idx = hop * np.arange(n_frames)[:, None] + np.arange(window_len)
            want = np.fft.rfft(x[idx] * hann_window(window_len), axis=1)
            assert np.array_equal(stft(Waveform(x), window_len, hop).frames, want)

    def test_amplitude_of_a_frame_range_is_the_slice(self, tmp_path):
        # training transforms only the samples of its segment's frames; the
        # amplitudes are the whole file's, bit for bit
        cfg = SimpleNamespace(sample_rate=16000, window=256, hop=64, seq_len=16)
        rng = np.random.default_rng(9)
        for name, n_frames, seed in [("short", 11, 0), ("exact", 16, 1),
                                     ("long", 43, 2)]:
            n = (n_frames - 1) * cfg.hop + cfg.window + 37   # 37 samples unframed
            noisy, clean = (Waveform(rng.standard_normal(n)) for _ in range(2))
            entry = _train_entry(tmp_path, name, noisy, clean)
            t0 = 0 if n_frames <= cfg.seq_len else int(np.random.default_rng(
                seed).integers(0, n_frames - cfg.seq_len + 1))
            assert (t0 > 0) == (name == "long")
            got = _segment(entry, cfg, np.random.default_rng(seed))
            for w, amp in zip((entry.noisy_path, entry.clean_path), got):
                full = stft(data_io.read_wav(w), cfg.window, cfg.hop).amplitude
                assert len(full) == n_frames
                want = full[t0:t0 + cfg.seq_len]
                assert amp.shape == (min(n_frames, cfg.seq_len), 129)
                assert np.array_equal(amp, want)

    def test_too_short_signal(self, tmp_path):
        with pytest.raises(DataError, match="too short"):
            stft(Waveform(np.zeros(100)), window_len=256, hop=64)
        cfg = SimpleNamespace(sample_rate=16000, window=256, hop=64, seq_len=16)
        short = Waveform(np.zeros(100))
        with pytest.raises(DataError, match="too short"):
            _segment(_train_entry(tmp_path, "short", short, short), cfg,
                     np.random.default_rng(0))

    def test_bad_framing_parameters(self):
        w = Waveform(np.zeros(1024))
        with pytest.raises(DataError):
            stft(w, window_len=255, hop=64)
        with pytest.raises(DataError):
            stft(w, window_len=256, hop=0)
        with pytest.raises(DataError):
            stft(w, window_len=256, hop=512)

    def test_amplitude_sign(self):
        rng = np.random.default_rng(3)
        s = stft(Waveform(rng.standard_normal(4000)), 256, 64)
        assert np.all(s.amplitude >= 0)

    def test_parseval_energy(self):
        # one-sided spectrum energy (doubling interior bins) equals
        # N * windowed frame energy
        rng = np.random.default_rng(11)
        x = rng.standard_normal(2048)
        s = stft(Waveform(x), 256, 64)
        win = hann_window(256)
        for t in range(0, s.n_frames, 3):
            frame = x[t * 64:t * 64 + 256] * win
            mag2 = s.amplitude[t] ** 2
            spectral = mag2[0] + mag2[-1] + 2 * np.sum(mag2[1:-1])
            np.testing.assert_allclose(
                spectral, 256 * np.sum(frame ** 2), rtol=1e-9)


class TestIstft:
    @pytest.mark.parametrize("window_len,hop", [(256, 64), (64, 16), (256, 100),
                                                (6, 3), (256, 256), (10, 7)])
    def test_bit_identical_to_frame_loop(self, window_len, hop):
        rng = np.random.default_rng(window_len * 1000 + hop)
        for n_frames in (1, 2, 9):
            # hop // 2 samples past the last frame come back as zeros
            out_len = window_len + (n_frames - 1) * hop + hop // 2
            s = stft(Waveform(rng.standard_normal(out_len)), window_len, hop)
            # rescaled frames are not a consistent STFT
            s = recombine(s, rng.uniform(0, 2, s.frames.shape))
            assert np.array_equal(istft(s, out_len).samples,
                                  _istft_loop_oracle(s, out_len))

    @pytest.mark.parametrize("n_frames", [255, 256, 257, 600])
    def test_blocks_of_frames_add_as_one(self, n_frames):
        # frames go through the inverse transform and recombine 256 at a time;
        # leading silence gives zero bins, which recombine lifts
        rng = np.random.default_rng(n_frames)
        out_len = 256 + (n_frames - 1) * 64 + 5
        x = rng.standard_normal(out_len)
        x[:1000] = 0.0
        s = stft(Waveform(x), 256, 64)
        amplitude = rng.uniform(0, 2, s.frames.shape)
        want = _istft_loop_oracle(recombine(s, amplitude), out_len)
        assert np.array_equal(istft(recombine(s, amplitude), out_len).samples, want)
        assert np.array_equal(istft(s, out_len, amplitude=amplitude).samples, want)
        with pytest.raises(DataError, match="amplitude grid must match"):
            istft(s, out_len, amplitude=amplitude[1:])

    def test_roundtrip_interior(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16000)
        y = istft(stft(Waveform(x), 256, 64), 16000).samples
        interior = slice(256, 16000 - 256)
        err = np.max(np.abs(y[interior] - x[interior]))
        assert err < 1e-6 * np.max(np.abs(x))

    @pytest.mark.parametrize("window_len,hop", [(256, 64), (64, 16), (256, 100),
                                                (6, 3), (256, 256), (10, 7)])
    def test_only_samples_under_the_floor_change(self, window_len, hop):
        # against the 1e-12 floor that istft used before: every sample whose
        # Σ win² reaches the floor is bit for bit the same; below it, an
        # unmodified spectrogram's sample is scaled by Σ win² / floor
        rng = np.random.default_rng(window_len + hop)
        out_len = window_len + 8 * hop
        x = rng.standard_normal(out_len)
        s = stft(Waveform(x), window_len, hop)
        floor = ola_floor(window_len, hop)
        wsum = ola_envelope(window_len, hop, s.n_frames, out_len)
        under = wsum < floor
        assert under[0]   # window sample 0 is 0
        for spec in (s, recombine(s, rng.uniform(0, 2, s.frames.shape))):
            got = istft(spec, out_len).samples
            before = _istft_loop_oracle(spec, out_len, floor=1e-12)
            assert np.array_equal(got[~under], before[~under])
        got = istft(s, out_len).samples
        np.testing.assert_allclose(got[under], x[under] * wsum[under] / floor,
                                   rtol=1e-9, atol=1e-15)

    def test_rescaled_frames_put_no_click_at_the_ends(self):
        # random gains on a tone: at the 1e-12 floor the first and last
        # windows peaked about 1000 times above the rest of the output, at
        # the 1% floor 2.4 times (a window tail of 0.12 over 1% of 1.5 lifts
        # a rescaled frame's tail by up to 8)
        rng = np.random.default_rng(3)
        x = 0.3 * np.sin(2 * np.pi * 1000 * np.arange(4096) / 16000)
        s = stft(Waveform(x), 256, 64)
        rescaled = recombine(s, s.amplitude * rng.uniform(0, 1, s.frames.shape))
        edges = np.r_[0:256, 4096 - 256:4096]

        def edge_over_interior(y):
            return np.max(np.abs(y[edges])) / np.max(np.abs(y[256:-256]))

        assert edge_over_interior(_istft_loop_oracle(rescaled, 4096, floor=1e-12)) > 100
        assert edge_over_interior(istft(rescaled, 4096).samples) <= 4.0

    def test_zero_spectrogram(self):
        s = stft(Waveform(np.zeros(1024)), 256, 64)
        assert np.all(istft(s, 1024).samples == 0)

    def test_recombined_amplitude_keeps_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4000)
        s = stft(Waveform(x), 256, 64)
        s2 = recombine(s, s.amplitude)
        np.testing.assert_allclose(istft(s2, 4000).samples,
                                   istft(s, 4000).samples, atol=1e-12)

    def test_inconsistent_length(self):
        s = stft(Waveform(np.zeros(1024)), 256, 64)
        with pytest.raises(DataError, match="inconsistent"):
            istft(s, 2048)
        with pytest.raises(DataError, match="inconsistent"):
            istft(s, 255)

    def test_tail_zero_padded(self):
        # lengths that do not land on a frame boundary come back zero-padded
        x = np.ones(256 + 64 * 3 + 10)
        s = stft(Waveform(x), 256, 64)
        y = istft(s, len(x))
        assert np.all(y.samples[-10:] == 0)


def _spectrogram(frames, window_len=256, hop=64):
    frames = np.asarray(frames, dtype=np.complex128)
    return Spectrogram(frames, np.abs(frames), window_len, hop)


class TestRecombine:
    def test_unit_amplitude_zero_phase(self):
        # positive real frames and zero frames both have phase 0
        for frames in (np.full((4, 129), 3.0), np.zeros((4, 129))):
            s = recombine(_spectrogram(frames), np.ones((4, 129)))
            assert np.array_equal(s.frames, np.ones((4, 129), dtype=complex))

    def test_quarter_turn(self):
        s = recombine(_spectrogram(np.full((2, 129), 0.5j)), np.full((2, 129), 2.0))
        np.testing.assert_allclose(s.frames, 2.0j, atol=1e-12)

    def test_inverse_of_decomposition(self):
        rng = np.random.default_rng(5)
        s = stft(Waveform(rng.standard_normal(2000)), 256, 64)
        s2 = recombine(s, s.amplitude)
        assert np.all(np.abs(s2.frames - s.frames) <= 2 * EPS * s.amplitude)
        assert (s2.window_len, s2.hop) == (s.window_len, s.hop)
        assert s2.amplitude is s.amplitude

    @pytest.mark.parametrize("case", ["random", "lead_in", "subnormal"])
    def test_matches_polar_oracle(self, case):
        rng = np.random.default_rng(17)
        if case == "random":
            # random frames, with exact zeros and subnormal bins among them
            frames = (rng.standard_normal((50, 129))
                      + 1j * rng.standard_normal((50, 129)))
            frames *= 10.0 ** rng.integers(-320, 300, frames.shape)
            frames[rng.random(frames.shape) < 0.1] = 0.0
            s = _spectrogram(frames)
        else:
            x = rng.standard_normal(8000)
            if case == "lead_in":
                x[:3200] = 0.0   # digital silence: 47 all-zero frames
            else:
                x *= 1e-315
            s = stft(Waveform(x), 256, 64)
        if case == "subnormal":
            assert np.all(s.amplitude < np.finfo(np.float64).tiny)
        else:
            assert np.any(s.amplitude == 0)
        amplitude = rng.uniform(0, 2, s.amplitude.shape)
        amplitude[0] = 0.0
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = recombine(s, amplitude)
        assert np.all(np.isfinite(out.frames))
        want = recombine_polar(s, amplitude)
        assert np.all(np.abs(out.frames - want) <= 4 * EPS * amplitude)

    def test_shape_mismatch(self):
        s = stft(Waveform(np.zeros(448)), 256, 64)   # 4 frames
        with pytest.raises(DataError, match="shape"):
            recombine(s, np.ones((5, 129)))

    def test_negative_amplitude_rejected(self):
        s = stft(Waveform(np.zeros(448)), 256, 64)
        with pytest.raises(DataError, match="nonnegative"):
            recombine(s, -np.ones((4, 129)))


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Waveform(np.array([0.0, np.nan]))

    def test_rejects_bad_rate(self):
        with pytest.raises(DataError):
            Waveform(np.zeros(10), sample_rate=0)
