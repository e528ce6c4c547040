import numpy as np
import pytest

from nkf.config import RunConfig
from nkf.errors import DataError, NumericsError
from nkf.kalman import (KfState, enhance_kf_baseline, filter_bins, kf_gain,
                        kf_predict, kf_update, run_kf)
from nkf.linear_prediction import LpModel, fit_lp_bins, transition_matrix
from nkf.metrics import segsnr
from nkf.signal_core import Waveform
from nkf.wiener import wiener_gain
from nkf import data_io


def _state(x, ree, coeffs, sigma_w2):
    lp = LpModel(order=len(coeffs), coeffs=np.asarray(coeffs, dtype=float),
                 residual_var=sigma_w2)
    return KfState(x=np.asarray(x, dtype=float),
                   ree=np.asarray(ree, dtype=float),
                   trans=transition_matrix(lp), sigma_w2=sigma_w2)


def _scalar_kf_oracle(y, a, q, sigma_v2):
    """Independently coded textbook scalar Kalman recursion (P = 1)."""
    out = np.empty_like(y)
    out[0] = y[0]
    x = y[0]
    p = sigma_v2[0]
    for t in range(1, len(y)):
        x = a * x
        p = a * a * p + q
        k = p / (sigma_v2[t] + p)
        x = x + k * (y[t] - x)
        p = (1.0 - k) * p
        out[t] = max(0.0, x)
    return out


def _random_psd(rng, p):
    m = rng.standard_normal((p, p))
    return m @ m.T


class TestPredict:
    def test_scalar_hand_computation(self):
        s = _state([2.0], [[1.0]], [0.5], 0.25)
        pred = kf_predict(s)
        assert pred.x[0] == pytest.approx(1.0)
        assert pred.ree[0, 0] == pytest.approx(0.5)  # 0.25*1 + 0.25

    def test_identity_transition_keeps_covariance(self):
        s = _state([1.0], [[2.0]], [1.0], 0.0)
        np.testing.assert_allclose(kf_predict(s).ree, [[2.0]])

    def test_zero_state_stays_zero(self):
        s = _state([0.0, 0.0], np.eye(2), [0.3, 0.2], 0.1)
        assert np.all(kf_predict(s).x == 0)


class TestGain:
    def test_zero_noise_full_trust(self):
        s = _state([1.0], [[0.7]], [0.5], 0.1)
        assert kf_gain(s, 0.0).g[0] == pytest.approx(1.0)

    def test_zero_covariance_full_prediction_trust(self):
        s = _state([1.0, 0.0], np.zeros((2, 2)), [0.5, 0.1], 0.0)
        # a zero denominator keeps the prediction: g = 0, its sigma_v2 -> 0+ limit
        g = kf_gain(s, 0.0)
        assert np.array_equal(g.g, np.zeros(2))
        np.testing.assert_array_equal(kf_update(s, g, 9.0).x, s.x)
        assert np.all(kf_gain(s, 1.0).g == 0)

    def test_negative_denominator_raises(self):
        s = _state([1.0], [[-1e-3]], [0.5], 0.0)
        with pytest.raises(NumericsError):
            kf_gain(s, 0.0)

    def test_balanced(self):
        s = _state([1.0], [[1.0]], [0.5], 0.0)
        assert kf_gain(s, 1.0).g[0] == pytest.approx(0.5)


class TestUpdate:
    def test_midpoint(self):
        s = _state([2.0], [[1.0]], [0.5], 0.0)
        g = kf_gain(s, 1.0)  # 0.5
        assert kf_update(s, g, 4.0).x[0] == pytest.approx(3.0)

    def test_zero_gain_keeps_prediction(self):
        s = _state([2.0, 1.0], np.eye(2), [0.5, 0.1], 0.0)
        from nkf.kalman import KfGain
        upd = kf_update(s, KfGain(np.zeros(2)), 9.0)
        np.testing.assert_array_equal(upd.x, s.x)

    def test_unit_gain_takes_observation(self):
        s = _state([2.0], [[1.0]], [0.5], 0.0)
        g = kf_gain(s, 0.0)
        assert kf_update(s, g, 7.0).x[0] == pytest.approx(7.0)


class TestInvariants:
    def test_covariance_stays_symmetric_nonnegative_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = int(rng.integers(1, 4))
            coeffs = rng.uniform(-0.9, 0.9, p)
            s = _state(rng.uniform(0, 2, p), _random_psd(rng, p), coeffs,
                       rng.uniform(0, 0.5))
            for _ in range(100):
                s = kf_predict(s)
                g = kf_gain(s, rng.uniform(0.01, 2.0))
                s = kf_update(s, g, rng.uniform(0, 3))
                assert np.all(np.abs(s.ree - s.ree.T) < 1e-10)
                assert np.all(np.diag(s.ree) >= -1e-12)

    def test_first_gain_component_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            p = int(rng.integers(1, 5))
            s = _state(np.zeros(p), _random_psd(rng, p),
                       rng.uniform(-0.5, 0.5, p), 0.0)
            g = kf_gain(s, rng.uniform(0, 3))
            assert -1e-12 <= g.g[0] <= 1 + 1e-12

    def test_monotone_trust_in_noise_variance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = int(rng.integers(1, 4))
            ree = _random_psd(rng, p) + 1e-6 * np.eye(p)
            s = _state(np.zeros(p), ree, np.zeros(p), 0.0)
            sigmas = np.sort(rng.uniform(0.01, 5.0, 5))
            gains = [kf_gain(s, sv).g[0] for sv in sigmas]
            assert np.all(np.diff(gains) < 0)

    def test_one_step_equals_wiener_combination(self):
        # With the prediction forced to zero mean (A = 0) and the predicted
        # covariance R, one gain+update step must equal the Wiener gain with
        # sigma_y2 = R + sigma_v2 applied to the observation.
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = rng.uniform(0.01, 5.0)
            sv = rng.uniform(0.01, 5.0)
            y = rng.uniform(0, 3)
            s = _state([0.0], [[r]], [0.0], 0.0)
            upd = kf_update(s, kf_gain(s, sv), y)
            assert upd.x[0] == pytest.approx(wiener_gain(sv, r + sv) * y,
                                             rel=1e-12)
            # the same predicted state arises from kf_predict with
            # sigma_w2 = R, any prior state, and zero transition
            prior = _state([rng.uniform(0, 3)], [[rng.uniform(0, 3)]], [0.0], r)
            pred = kf_predict(prior)
            assert pred.x[0] == 0.0
            assert pred.ree[0, 0] == pytest.approx(r)


class TestRunKf:
    def test_zero_noise_track_passthrough(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0, 3, 200)
        lp = LpModel(order=2, coeffs=np.array([0.5, 0.2]), residual_var=0.1)
        np.testing.assert_allclose(run_kf(y, lp, np.zeros(200)), y, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(-0.95, 0.95)
            q = rng.uniform(0.001, 0.5)
            sv = rng.uniform(0.01, 2.0, 1000)
            y = rng.uniform(0, 3, 1000)
            lp = LpModel(order=1, coeffs=np.array([a]), residual_var=q)
            got = run_kf(y, lp, sv)
            want = _scalar_kf_oracle(y, a, q, sv)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_reduces_mse_on_ar_process(self):
        # AR(1) amplitude track, white observation noise, oracle parameters:
        # the filter must beat the raw observations in mean squared error.
        rng = np.random.default_rng(6)
        a, q = 0.95, 0.01
        n = 2000
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = a * x[t - 1] + np.sqrt(q) * rng.standard_normal()
        noise = rng.standard_normal(n)
        y = x + noise
        lp = LpModel(order=1, coeffs=np.array([a]), residual_var=q)
        est = run_kf(y, lp, np.ones(n))
        assert np.mean((est - x) ** 2) < np.mean((y - x) ** 2)

    def test_track_length_mismatch(self):
        lp = LpModel(order=1, coeffs=np.array([0.5]), residual_var=0.1)
        with pytest.raises(DataError):
            run_kf(np.ones(10), lp, np.ones(9))

    # frame 0 seeds the covariance, frame 6 is filtered
    @pytest.mark.parametrize("frame,value", [(0, -0.1), (0, -5.0), (6, -0.1)])
    def test_negative_noise_variance_rejected(self, frame, value):
        lp = LpModel(order=2, coeffs=np.array([0.5, 0.2]), residual_var=0.1)
        sigma_v2 = np.ones(10)
        sigma_v2[frame] = value
        with pytest.raises(DataError, match="noise variance must be nonnegative"):
            run_kf(np.ones(10), lp, sigma_v2)


class TestBaseline:
    def _cfg(self):
        return RunConfig(utterance_seconds=1.0)

    def test_clean_input_zero_noise_roundtrip(self):
        cfg = self._cfg()
        rng = np.random.default_rng(7)
        w = Waveform(data_io._synth_speech(rng, 16000, 16000))
        grid_shape = (1 + (16000 - cfg.window) // cfg.hop, cfg.n_bins)
        result = enhance_kf_baseline(w, cfg, sigma_v2_grid=np.zeros(grid_shape))
        interior = slice(cfg.window, 16000 - cfg.window)
        err = np.max(np.abs(result.waveform.samples[interior]
                            - w.samples[interior]))
        assert err < 1e-6

    def test_improves_segsnr_at_zero_db(self):
        cfg = self._cfg()
        deltas = []
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            speech = Waveform(data_io._synth_speech(rng, 16000, 16000))
            noise = Waveform(data_io._synth_noise(rng, "white", 24000, 16000))
            noisy, scaled = data_io.mix_at_snr(speech, noise, 0.0, rng)
            grid = data_io.oracle_noise_variance(scaled, cfg)
            result = enhance_kf_baseline(noisy, cfg, sigma_v2_grid=grid)
            deltas.append(segsnr(speech, result.waveform)
                          - segsnr(speech, noisy))
        assert np.mean(deltas) > 0
        assert np.sum(np.array(deltas) > 0) >= 15

    def test_output_amplitudes_nonnegative(self):
        cfg = self._cfg()
        rng = np.random.default_rng(8)
        speech = Waveform(data_io._synth_speech(rng, 16000, 16000))
        noise = Waveform(data_io._synth_noise(rng, "pink", 24000, 16000))
        noisy, scaled = data_io.mix_at_snr(speech, noise, 5.0, rng)
        grid = data_io.oracle_noise_variance(scaled, cfg)
        result = enhance_kf_baseline(noisy, cfg, sigma_v2_grid=grid)
        assert np.all(result.grids.amp_out >= 0)
        assert np.all((result.grids.gain >= 0) & (result.grids.gain <= 1))

    def test_digital_silence_lead_in_with_zero_oracle_noise(self):
        # the noise variance is exactly zero over the lead-in, and so is the
        # LP residual of the silent first segment: zero gain denominators
        cfg = self._cfg()
        rng = np.random.default_rng(9)
        speech = Waveform(data_io._synth_speech(rng, 8000, 16000))
        noise = Waveform(data_io._synth_noise(rng, "white", 16000, 16000))
        noisy, scaled = data_io.mix_at_snr(speech, noise, 5.0, rng)
        lead = np.zeros(3200)
        noisy = Waveform(np.concatenate([lead, noisy.samples]))
        grid = data_io.oracle_noise_variance(
            Waveform(np.concatenate([lead, scaled.samples[:8000]])), cfg)
        lead_frames = 1 + (3200 - cfg.window) // cfg.hop
        assert np.all(grid[:lead_frames] == 0)
        result = enhance_kf_baseline(noisy, cfg, sigma_v2_grid=grid)
        assert np.all(np.isfinite(result.waveform.samples))
        gains = result.grids.gain
        assert np.all((gains >= 0) & (gains <= 1))
        assert np.all(result.grids.amp_out[:lead_frames] == 0)

    def test_needs_noise_source(self):
        cfg = self._cfg()
        w = Waveform(np.sin(np.linspace(0, 100, 16000)) * 0.1)
        with pytest.raises(DataError):
            enhance_kf_baseline(w, cfg)


class TestErrorsNameFrameAndBins:
    def test_negative_gain_denominator(self):
        # a negative residual variance (no LP fit makes one) drives the
        # predicted covariance below zero where the noise variance is zero
        amp = np.ones((10, 3))
        sigma_v2 = np.ones((10, 3))
        sigma_v2[4:, 1] = 0.0
        segment = (0, 10, np.zeros((3, 1)), np.array([0.5, -1.0, 0.5]))
        with pytest.raises(NumericsError, match=r"frame 4, bins \[1\]"):
            filter_bins(amp, sigma_v2, [segment], 1)

    def test_non_finite_reflection_coefficient(self):
        track = np.ones((12, 4))
        track[3, 2] = np.nan
        with pytest.raises(NumericsError, match=r"frame 40, bins \[2\]"):
            fit_lp_bins(track, 2, frame=40)
