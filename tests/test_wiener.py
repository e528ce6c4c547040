import numpy as np
import pytest

from nkf import autodiff as ad
from nkf.errors import DataError
from nkf.wiener import VARIANCE_FLOOR, apply_wiener, track_sigma_y, wiener_gain

from oracles import wiener_branch_composed


class TestTrackSigmaY:
    def test_constant_amplitude(self):
        grid = track_sigma_y(np.full((30, 5), 2.0), span=20)
        np.testing.assert_allclose(grid, 4.0)

    def test_first_frame_is_its_own_window(self):
        rng = np.random.default_rng(0)
        amp = rng.uniform(0, 3, (10, 4))
        grid = track_sigma_y(amp, span=20)
        np.testing.assert_allclose(grid[0], amp[0] ** 2)

    def test_matches_bruteforce_window_mean(self):
        rng = np.random.default_rng(1)
        amp = rng.uniform(0, 2, (25, 3))
        grid = track_sigma_y(amp, span=20)
        np.testing.assert_allclose(grid[24], np.mean(amp[5:25] ** 2, axis=0),
                                   rtol=1e-12)
        # truncated region: every available frame participates
        np.testing.assert_allclose(grid[7], np.mean(amp[:8] ** 2, axis=0),
                                   rtol=1e-12)

    def test_one_dimensional_track(self):
        amp = np.arange(5, dtype=float)
        grid = track_sigma_y(amp, span=2)
        np.testing.assert_allclose(grid, [0.0, 0.5, 2.5, 6.5, 12.5])

    def test_bad_span(self):
        with pytest.raises(DataError):
            track_sigma_y(np.ones((4, 4)), span=0)


class TestWienerGain:
    def test_zero_noise_full_trust(self):
        assert wiener_gain(0.0, 3.0) == 1.0

    def test_noise_equals_signal(self):
        assert wiener_gain(4.0, 4.0) == 0.0

    def test_quarter(self):
        assert wiener_gain(1.0, 4.0) == pytest.approx(0.75)

    def test_bounds_fuzz(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0, 10, 100000)
        y = rng.uniform(0, 10, 100000)
        g = wiener_gain(v, y)
        assert np.all((g >= 0) & (g <= 1))

    def test_monotone_in_both_arguments(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = rng.uniform(0.5, 10)
            v = np.sort(rng.uniform(0, 10, 8))
            assert np.all(np.diff(wiener_gain(v, y)) <= 0)
            v0 = rng.uniform(0.1, 5)
            ys = np.sort(rng.uniform(0.1, 10, 8))
            assert np.all(np.diff(wiener_gain(v0, ys)) >= 0)

    def test_zero_observed_variance_is_safe(self):
        assert wiener_gain(1.0, 0.0) == 0.0


class TestApplyWiener:
    def test_zero_noise_identity(self):
        rng = np.random.default_rng(4)
        amp = rng.uniform(0, 5, (12, 6))
        out = apply_wiener(amp, np.zeros_like(amp), track_sigma_y(amp))
        np.testing.assert_array_equal(out.values, amp)

    def test_noise_dominates_everywhere(self):
        rng = np.random.default_rng(5)
        amp = rng.uniform(0, 5, (12, 6))
        sigma_y2 = track_sigma_y(amp)
        assert np.all(apply_wiener(amp, sigma_y2 + 1.0, sigma_y2).values == 0)

    def test_elementwise_against_scalar_op(self):
        rng = np.random.default_rng(6)
        amp = rng.uniform(0, 5, (9, 4))
        sigma_y2, sigma_v2 = rng.uniform(0.1, 4, (9, 4)), rng.uniform(0, 4, (9, 4))
        out = apply_wiener(amp, sigma_v2, sigma_y2).values
        for t in range(9):
            for f in range(4):
                expected = wiener_gain(sigma_v2[t, f], sigma_y2[t, f]) * amp[t, f]
                assert out[t, f] == pytest.approx(expected, rel=1e-12)

    def test_never_amplifies(self):
        rng = np.random.default_rng(7)
        amp = rng.uniform(0, 5, (50, 8))
        out = apply_wiener(amp, rng.uniform(0, 5, (50, 8)), rng.uniform(0, 5, (50, 8)))
        assert np.all(out.values <= amp + 1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            apply_wiener(np.ones((5, 4)), np.ones((4, 4)), np.ones((4, 4)))
        with pytest.raises(DataError):
            apply_wiener(np.ones((4, 4)), np.ones((4, 4)), np.ones((4, 1)))


def _boundary_grids():
    """Amplitude, noise and noisy variance grids whose gains are clipped at
    0 and at 1, sit exactly on either bound, or divide by a zero or
    sub-floor noisy variance."""
    rng = np.random.default_rng(9)
    amp = rng.uniform(0, 3, (24, 5))
    sigma_y2 = rng.uniform(0.5, 4, (24, 5))
    sigma_v2 = rng.uniform(0, 6, (24, 5))    # gains inside (0, 1) and clipped at 0
    sigma_v2[:3] = -rng.uniform(0.1, 2, (3, 5))   # clipped at 1
    sigma_v2[3:6] = 0.0                      # on the bound 1
    sigma_y2[6:9] = sigma_v2[6:9] = 4.0      # on the bound 0
    sigma_y2[9:12] = 0.0
    sigma_y2[12:15] = 0.5 * VARIANCE_FLOOR
    sigma_v2[12, :2] = 0.0
    return amp, sigma_v2, sigma_y2


class TestFusedNode:
    """``apply_wiener`` is one node; the graph composition it replaced is the
    oracle for its value and its ``sigma_v2`` gradient, bit for bit."""

    @staticmethod
    def _run(fn, amp, sigma_v2, sigma_y2, target):
        v = ad.DiffArray(sigma_v2.copy())
        out = fn(amp, v, sigma_y2)
        ad.mean_square(out, target).backward()
        return out.values, v.grad

    def test_value_and_gradient_equal_the_composed_branch(self):
        amp, sigma_v2, sigma_y2 = _boundary_grids()
        x = 1.0 - sigma_v2 * (1.0 / np.maximum(sigma_y2, VARIANCE_FLOOR))
        assert np.any(x < 0) and np.any(x > 1) and np.any(x == 0) and np.any(x == 1)
        assert np.any((x > 0) & (x < 1))
        target = np.random.default_rng(10).uniform(0, 3, amp.shape)
        value, grad = self._run(apply_wiener, amp, sigma_v2, sigma_y2, target)
        want_value, want_grad = self._run(wiener_branch_composed, amp, sigma_v2,
                                          sigma_y2, target)
        assert np.array_equal(value, want_value)
        assert np.array_equal(grad, want_grad)
        assert np.any(grad != 0) and np.any(grad == 0)
        with ad.no_grad():
            assert np.array_equal(apply_wiener(amp, sigma_v2, sigma_y2).values, value)
