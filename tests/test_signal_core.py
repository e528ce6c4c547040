import numpy as np
import pytest

from nkf.errors import DataError
from nkf.signal_core import Spectrogram, Waveform, frame_count, hann_window, \
    istft, recombine, stft, stft_amplitude


def _dft_oracle(frame):
    """Naive O(N^2) DFT of one windowed frame, non-redundant bins."""
    n = len(frame)
    bins = n // 2 + 1
    out = np.zeros(bins, dtype=complex)
    for k in range(bins):
        for i in range(n):
            out[k] += frame[i] * np.exp(-2j * np.pi * k * i / n)
    return out


def _istft_loop_oracle(s: Spectrogram, out_len: int) -> np.ndarray:
    """Frame-by-frame weighted overlap-add, the reference for ``istft``."""
    window_len, hop = s.window_len, s.hop
    win = hann_window(window_len)
    segments = np.fft.irfft(s.frames, n=window_len, axis=1) * win
    coverage = window_len + (s.n_frames - 1) * hop
    acc = np.zeros(coverage)
    wsum = np.zeros(coverage)
    for t in range(s.n_frames):
        off = t * hop
        acc[off:off + window_len] += segments[t]
        wsum[off:off + window_len] += win * win
    acc /= np.maximum(wsum, 1e-12)
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

    def test_amplitude_of_a_frame_range_is_the_slice(self):
        rng = np.random.default_rng(9)
        w = Waveform(rng.standard_normal(3000))
        full = stft(w, 256, 64).amplitude   # 43 frames
        for start, stop in [(0, 43), (5, 20), (42, 43), (30, 60), (43, 50),
                            (10, 10)]:
            got = stft_amplitude(w, 256, 64, start, stop)
            assert got.shape == full[start:stop].shape
            assert np.array_equal(got, full[start:stop])

    def test_too_short_signal(self):
        with pytest.raises(DataError, match="too short"):
            stft(Waveform(np.zeros(100)), window_len=256, hop=64)
        with pytest.raises(DataError, match="too short"):
            stft_amplitude(Waveform(np.zeros(100)), 256, 64, 0, 1)

    def test_bad_framing_parameters(self):
        w = Waveform(np.zeros(1024))
        with pytest.raises(DataError):
            stft(w, window_len=255, hop=64)
        with pytest.raises(DataError):
            stft(w, window_len=256, hop=0)
        with pytest.raises(DataError):
            stft(w, window_len=256, hop=512)

    def test_phase_range_and_amplitude_sign(self):
        rng = np.random.default_rng(3)
        s = stft(Waveform(rng.standard_normal(4000)), 256, 64)
        assert np.all(s.amplitude >= 0)
        assert np.all(s.phase > -np.pi - 1e-12)
        assert np.all(s.phase <= np.pi)

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
            # a recombined grid makes frames that are not a consistent STFT
            s = recombine(rng.uniform(0, 2, s.frames.shape),
                          rng.uniform(-np.pi, np.pi, s.frames.shape),
                          window_len, hop)
            assert np.array_equal(istft(s, out_len).samples,
                                  _istft_loop_oracle(s, out_len))

    def test_roundtrip_interior(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16000)
        y = istft(stft(Waveform(x), 256, 64), 16000).samples
        interior = slice(256, 16000 - 256)
        err = np.max(np.abs(y[interior] - x[interior]))
        assert err < 1e-6 * np.max(np.abs(x))

    def test_zero_spectrogram(self):
        s = stft(Waveform(np.zeros(1024)), 256, 64)
        assert np.all(istft(s, 1024).samples == 0)

    def test_recombined_amplitude_keeps_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4000)
        s = stft(Waveform(x), 256, 64)
        s2 = recombine(s.amplitude, s.phase, 256, 64)
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


class TestRecombine:
    def test_unit_amplitude_zero_phase(self):
        s = recombine(np.ones((4, 129)), np.zeros((4, 129)), 256, 64)
        np.testing.assert_allclose(s.frames, 1.0 + 0.0j)

    def test_quarter_turn(self):
        amp = np.full((2, 129), 2.0)
        ph = np.full((2, 129), np.pi / 2)
        s = recombine(amp, ph, 256, 64)
        np.testing.assert_allclose(s.frames, 2.0j, atol=1e-12)

    def test_inverse_of_decomposition(self):
        rng = np.random.default_rng(5)
        s = stft(Waveform(rng.standard_normal(2000)), 256, 64)
        s2 = recombine(s.amplitude, s.phase, 256, 64)
        np.testing.assert_allclose(s2.frames, s.frames, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            recombine(np.ones((4, 129)), np.zeros((5, 129)), 256, 64)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(DataError):
            recombine(-np.ones((4, 129)), np.zeros((4, 129)), 256, 64)


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Waveform(np.array([0.0, np.nan]))

    def test_rejects_bad_rate(self):
        with pytest.raises(DataError):
            Waveform(np.zeros(10), sample_rate=0)
