import numpy as np
import pytest

from nkf import data_io
from nkf.errors import DataError
from nkf.metrics import (amplitude_mse, evaluate_pair, fwsegsnr, segsnr,
                         summarize_rows)
from nkf.signal_core import Waveform


def _speechlike(seed, n=16000):
    return Waveform(data_io._synth_speech(np.random.default_rng(seed), n, 16000))


class TestSegsnr:
    def test_identical_hits_ceiling(self):
        w = _speechlike(0)
        assert segsnr(w, w) == pytest.approx(35.0)

    def test_inverted_signal(self):
        # error energy is 4x the signal energy, i.e. -10*log10(4) per frame,
        # which sits above the -10 dB floor
        w = _speechlike(1)
        assert segsnr(w, Waveform(-w.samples)) == pytest.approx(
            -10.0 * np.log10(4.0), abs=1e-9)

    def test_floor_engages_for_gross_errors(self):
        w = _speechlike(2)
        assert segsnr(w, Waveform(-5.0 * w.samples)) == pytest.approx(-10.0)

    def test_forced_zero_db_per_frame(self):
        # noise scaled per (non-overlapping) frame to exactly the clean
        # frame energy makes every scored frame 0 dB
        rng = np.random.default_rng(2)
        clean = _speechlike(3)
        frame = 256
        noise = rng.standard_normal(len(clean))
        for start in range(0, len(clean) - frame + 1, frame):
            c = clean.samples[start:start + frame]
            n = noise[start:start + frame]
            if c @ c < 1e-10:
                continue
            noise[start:start + frame] = n * np.sqrt((c @ c) / (n @ n))
        got = segsnr(clean, Waveform(clean.samples + noise),
                     frame=frame, hop=frame)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_silent_frames_excluded(self):
        samples = np.zeros(4096)
        samples[1024:2048] = 0.1 * np.sin(np.arange(1024) * 0.3)
        clean = Waveform(samples)
        assert segsnr(clean, clean) == pytest.approx(35.0)

    def test_all_silent_is_error(self):
        w = Waveform(np.zeros(4096))
        with pytest.raises(DataError):
            segsnr(w, w)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            segsnr(Waveform(np.ones(100) * 0.1), Waveform(np.ones(99) * 0.1))


class TestFwsegsnr:
    def test_identical_hits_ceiling(self):
        w = _speechlike(4)
        assert fwsegsnr(w, w) == pytest.approx(35.0)

    def test_asymmetric_in_arguments(self):
        rng = np.random.default_rng(5)
        clean = _speechlike(6)
        test = Waveform(clean.samples + 0.05 * rng.standard_normal(len(clean)))
        assert fwsegsnr(clean, test) != pytest.approx(fwsegsnr(test, clean))

    def test_monotone_in_input_snr(self):
        wins = 0
        for trial in range(20):
            rng = np.random.default_rng(50 + trial)
            clean = _speechlike(100 + trial)
            noise = Waveform(data_io._synth_noise(rng, "white",
                                                  2 * len(clean), 16000))
            at10, _ = data_io.mix_at_snr(clean, noise, 10.0, rng)
            at0, _ = data_io.mix_at_snr(clean, noise, 0.0, rng)
            if fwsegsnr(clean, at10) > fwsegsnr(clean, at0):
                wins += 1
        assert wins == 20

    def test_bounded(self):
        rng = np.random.default_rng(7)
        clean = _speechlike(8)
        for scale in (0.0, 0.01, 1.0, 100.0):
            test = Waveform(clean.samples
                            + scale * rng.standard_normal(len(clean)))
            value = fwsegsnr(clean, test)
            assert -10.0 <= value <= 35.0


class TestAmplitudeMse:
    def test_zero_for_identical(self):
        w = _speechlike(9)
        assert amplitude_mse(w, w) == 0.0

    def test_grows_with_noise(self):
        rng = np.random.default_rng(10)
        clean = _speechlike(11)
        small = Waveform(clean.samples + 0.01 * rng.standard_normal(len(clean)))
        large = Waveform(clean.samples + 0.2 * rng.standard_normal(len(clean)))
        assert amplitude_mse(clean, small) < amplitude_mse(clean, large)


class TestReporting:
    def test_evaluate_pair_keys(self):
        w = _speechlike(12)
        row = evaluate_pair(w, w)
        assert set(row) == {"fwsegsnr", "segsnr", "amp_mse"}

    def test_summarize_rows_per_condition(self):
        rows = [
            {"snr_db": 0.0, "fwsegsnr": 10.0, "segsnr": 5.0, "amp_mse": 1.0},
            {"snr_db": 0.0, "fwsegsnr": 12.0, "segsnr": 7.0, "amp_mse": 3.0},
            {"snr_db": 5.0, "fwsegsnr": 20.0, "segsnr": 9.0, "amp_mse": 0.5},
        ]
        table = summarize_rows(rows)
        assert list(table) == [0.0, 5.0]
        assert table[0.0] == pytest.approx(
            {"fwsegsnr": 11.0, "segsnr": 6.0, "amp_mse": 2.0})
        assert table[5.0] == pytest.approx(
            {"fwsegsnr": 20.0, "segsnr": 9.0, "amp_mse": 0.5})

    def test_summarize_empty_rejected(self):
        with pytest.raises(DataError):
            summarize_rows([])
