import numpy as np
import pytest

from nkf.config import RunConfig
from nkf.errors import DataError, NumericsError
from nkf.kalman import (enhance_kf_baseline, filter_bins, filter_segmented,
                        kf_gain, kf_predict, kf_update, run_kf)
from nkf.metrics import segsnr
from nkf.signal_core import Waveform
from nkf.wiener import wiener_gain
from nkf import data_io


def _bins(*cases):
    """One hand case per bin: the bin axis last."""
    return np.stack([np.asarray(c, dtype=float) for c in cases], axis=-1)


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


def _random_psd(rng, p, n_bins):
    """P x P x F: one random PSD covariance per bin."""
    m = rng.standard_normal((n_bins, p, p))
    return np.moveaxis(m @ m.transpose(0, 2, 1), 0, -1)


class TestPredict:
    # each test runs two different hand cases in one call, one per bin
    def test_scalar_hand_computation(self):
        # bin 0: x 2 -> 0.5 * 2, ree 0.25 * 1 + 0.25; bin 1: x 1 -> -1 * 1,
        # ree 1 * 2 + 0
        x, ree = kf_predict(_bins([2.0], [1.0]), _bins([[1.0]], [[2.0]]),
                            _bins([0.5], [-1.0]), np.array([0.25, 0.0]))
        np.testing.assert_allclose(x, [[1.0, -1.0]])
        np.testing.assert_allclose(ree, [[[0.5, 2.0]]])

    def test_identity_transition_keeps_covariance(self):
        x, ree = kf_predict(_bins([1.0], [-3.0]), _bins([[2.0]], [[0.5]]),
                            np.ones((1, 2)), np.zeros(2))
        np.testing.assert_array_equal(x, [[1.0, -3.0]])
        np.testing.assert_array_equal(ree, [[[2.0, 0.5]]])

    def test_zero_state_stays_zero(self):
        x, _ = kf_predict(np.zeros((2, 3)), _bins(*[np.eye(2)] * 3),
                          _bins([0.3, 0.2], [0.0, 1.0], [-0.5, 0.5]),
                          np.array([0.1, 0.0, 1.0]))
        assert np.all(x == 0)

    def test_matches_full_matrix_products(self):
        # the shift form against A x and A ree A^T + sigma_w2 e1 e1^T per bin
        rng = np.random.default_rng(10)
        for p in range(1, 6):
            x, ree = rng.standard_normal((p, 7)), _random_psd(rng, p, 7)
            c, sigma_w2 = rng.uniform(-0.9, 0.9, (p, 7)), rng.uniform(0, 0.5, 7)
            x_pred, ree_pred = kf_predict(x, ree, c, sigma_w2)
            for f in range(7):
                a = np.eye(p, k=-1)
                a[0] = c[:, f]
                want = a @ ree[..., f] @ a.T
                want[0, 0] += sigma_w2[f]
                np.testing.assert_allclose(x_pred[:, f], a @ x[:, f], atol=1e-12)
                np.testing.assert_allclose(ree_pred[..., f], want, atol=1e-12)


class TestGain:
    def test_zero_noise_full_trust(self):
        g = kf_gain(_bins([[0.7]], [[3.0]]), np.zeros(2), 0)
        np.testing.assert_allclose(g, [[1.0, 1.0]])

    def test_zero_covariance_full_prediction_trust(self):
        # bin 0 has a zero covariance and no noise: g = 0, its sigma_v2 -> 0+
        # limit, so the prediction is kept; bin 1 beside it gets its
        # ordinary gain
        ree = _bins(np.zeros((2, 2)), [[1.0, 0.5], [0.5, 1.0]])
        g = kf_gain(ree, np.array([0.0, 1.0]), 0)
        np.testing.assert_array_equal(g, [[0.0, 0.5], [0.0, 0.25]])
        x, _ = kf_update(_bins([1.0, 0.0], [2.0, 1.0]), ree.copy(), g,
                         np.array([9.0, 4.0]))
        np.testing.assert_array_equal(x, [[1.0, 3.0], [0.0, 1.5]])
        assert not np.any(kf_gain(ree[..., :1], np.ones(1), 0))

    def test_negative_denominator_raises(self):
        ree = _bins([[1.0]], [[-1e-3]], [[0.5]], [[-1.0]])
        with pytest.raises(NumericsError, match=r"frame 7, bins \[1, 3\]"):
            kf_gain(ree, np.zeros(4), 7)

    def test_balanced(self):
        g = kf_gain(_bins([[1.0]], [[0.25]]), np.array([1.0, 0.75]), 0)
        np.testing.assert_allclose(g, [[0.5, 0.25]])

    # the recursion checks the noise variance its gains read up front
    @pytest.mark.parametrize("sigma_v2", [-0.1, np.nan])
    def test_invalid_noise_variance_rejected(self, sigma_v2):
        with pytest.raises(DataError, match="noise variance must be nonnegative"):
            run_kf(np.ones(10), [0.5], 0.0, np.full(10, sigma_v2))


class TestUpdate:
    def test_midpoint(self):
        # gain 1/2 lands midway
        ree = _bins([[1.0]], [[3.0]])
        g = kf_gain(ree, np.array([1.0, 3.0]), 0)
        x, _ = kf_update(_bins([2.0], [0.0]), ree, g, np.array([4.0, 1.0]))
        np.testing.assert_allclose(x, [[3.0, 0.5]])

    def test_zero_gain_keeps_prediction(self):
        x0 = _bins([2.0, 1.0], [0.5, 3.0])
        x, ree = kf_update(x0.copy(), _bins(np.eye(2), np.eye(2)),
                           np.zeros((2, 2)), np.array([9.0, 9.0]))
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(ree, _bins(np.eye(2), np.eye(2)))

    def test_unit_gain_takes_observation(self):
        ree = _bins([[1.0]], [[0.2]])
        g = kf_gain(ree, np.zeros(2), 0)
        x, _ = kf_update(_bins([2.0], [-1.0]), ree, g, np.array([7.0, 0.0]))
        np.testing.assert_allclose(x, [[7.0, 0.0]])


def _step(x, ree, c, sigma_w2, sigma_v2, y):
    x, pred = kf_predict(x, ree, c, sigma_w2)
    g = kf_gain(pred, sigma_v2, 0)
    return (*kf_update(x, pred, g, y), g)


class TestInvariants:
    def test_covariance_stays_symmetric_nonnegative_diagonal(self):
        rng = np.random.default_rng(0)
        for p in (1, 2, 3):
            n = 40
            x, ree = rng.uniform(0, 2, (p, n)), _random_psd(rng, p, n)
            c, sigma_w2 = rng.uniform(-0.9, 0.9, (p, n)), rng.uniform(0, 0.5, n)
            for _ in range(100):
                x, ree, _ = _step(x, ree, c, sigma_w2, rng.uniform(0.01, 2.0, n),
                                  rng.uniform(0, 3, n))
                assert np.all(np.abs(ree - ree.transpose(1, 0, 2)) < 1e-10)
                assert np.all(np.diagonal(ree) >= -1e-12)

    def test_first_gain_component_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for p in (1, 2, 3, 4):
            g = kf_gain(_random_psd(rng, p, 500), rng.uniform(0, 3, 500), 0)
            assert np.all((g[0] >= -1e-12) & (g[0] <= 1 + 1e-12))

    def test_monotone_trust_in_noise_variance(self):
        # the same covariance in five bins, rising noise: falling gain
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = int(rng.integers(1, 4))
            ree = _random_psd(rng, p, 1) + 1e-6 * np.eye(p)[..., None]
            g = kf_gain(np.repeat(ree, 5, axis=-1),
                        np.sort(rng.uniform(0.01, 5.0, 5)), 0)
            assert np.all(np.diff(g[0]) < 0)

    def test_one_step_equals_wiener_combination(self):
        # With the prediction forced to zero mean (A = 0) and the predicted
        # covariance R, one gain+update step must equal the Wiener gain with
        # sigma_y2 = R + sigma_v2 applied to the observation.
        rng = np.random.default_rng(3)
        n = 200
        r, sv, y = (rng.uniform(0.01, 5.0, n), rng.uniform(0.01, 5.0, n),
                    rng.uniform(0, 3, n))
        ree = r[None, None]
        x, _ = kf_update(np.zeros((1, n)), ree.copy(), kf_gain(ree, sv, 0), y)
        np.testing.assert_allclose(x[0], wiener_gain(sv, r + sv) * y, rtol=1e-12)
        # the same predicted state arises from kf_predict with sigma_w2 = R,
        # any prior state, and zero transition
        x, pred = kf_predict(rng.uniform(0, 3, (1, n)),
                             rng.uniform(0, 3, (1, 1, n)), np.zeros((1, n)), r)
        assert np.all(x == 0)
        np.testing.assert_array_equal(pred[0, 0], r)


class TestRunKf:
    def test_zero_noise_track_passthrough(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0, 3, 200)
        np.testing.assert_allclose(run_kf(y, [0.5, 0.2], 0.1, np.zeros(200)), y,
                                   atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(-0.95, 0.95)
            q = rng.uniform(0.001, 0.5)
            sv = rng.uniform(0.01, 2.0, 1000)
            y = rng.uniform(0, 3, 1000)
            got = run_kf(y, [a], q, sv)
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
        est = run_kf(y, [a], q, np.ones(n))
        assert np.mean((est - x) ** 2) < np.mean((y - x) ** 2)

    def test_track_length_mismatch(self):
        with pytest.raises(DataError):
            run_kf(np.ones(10), [0.5], 0.1, np.ones(9))

    # frame 0 seeds the covariance, frames 4 and 6 are filtered; NaN is no
    # variance either, and would turn every later amplitude into NaN
    @pytest.mark.parametrize("frame,value", [(0, -0.1), (0, -5.0), (6, -0.1),
                                             (0, np.nan), (4, np.nan)])
    def test_negative_noise_variance_rejected(self, frame, value):
        sigma_v2 = np.ones(10)
        sigma_v2[frame] = value
        with pytest.raises(DataError, match="noise variance must be nonnegative"):
            run_kf(np.ones(10), [0.5, 0.2], 0.1, sigma_v2)


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
        # the third 20-frame LP segment starts at frame 40
        track = np.ones((60, 4))
        track[43, 2] = np.nan
        with pytest.raises(NumericsError, match=r"frame 40: .*bins \[2\]"):
            filter_segmented(np.ones((60, 4)), track, np.ones((60, 4)), 2, 20)
