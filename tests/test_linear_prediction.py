import numpy as np
import pytest

from nkf.errors import DataError, NumericsError
from nkf.kalman import run_kf
from nkf.linear_prediction import autocorrelate, levinson_durbin, transition_matrix


def _normal_equation_oracle(r, order):
    """Direct Toeplitz solve of the forward-prediction normal equations."""
    toeplitz = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            toeplitz[i, j] = r[abs(i - j)]
    coeffs = np.linalg.solve(toeplitz, r[1:order + 1])
    residual = r[0] - coeffs @ r[1:order + 1]
    return coeffs, residual


def _random_autocorrelation(rng, max_lag, n=4096):
    """Valid (positive semidefinite) autocorrelation from a random signal."""
    x = rng.standard_normal(n)
    # color the signal a little so coefficients are nontrivial
    x = np.convolve(x, rng.uniform(0.2, 1.0, size=4), mode="same")
    return autocorrelate(x, max_lag)


class TestAutocorrelate:
    def test_hand_sum(self):
        np.testing.assert_allclose(autocorrelate([1, 1, 1, 1], 1), [1.0, 0.75])

    def test_zero_signal(self):
        assert np.all(autocorrelate(np.zeros(16), 4) == 0)

    def test_lag_zero_dominates(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = autocorrelate(rng.standard_normal(64), 8)
            assert np.all(r[0] >= np.abs(r[1:]) - 1e-12)

    def test_too_short(self):
        with pytest.raises(DataError):
            autocorrelate([1.0, 2.0], 2)

    def test_columns_are_tracks(self):
        # an N x F segment gives F x (lags); each row is its column's lags,
        # bit for bit, as a 1-D track and as an N x 1 segment
        rng = np.random.default_rng(3)
        seg = rng.standard_normal((50, 3))
        r = autocorrelate(seg, 4)
        assert r.shape == (3, 5)
        for f in range(3):
            assert np.array_equal(r[f], autocorrelate(seg[:, f], 4))
            assert np.array_equal(r[f:f + 1], autocorrelate(seg[:, f:f + 1], 4))


class TestLevinsonDurbin:
    def test_white_process(self):
        coeffs, residual = levinson_durbin([1.0, 0.0, 0.0], 2)
        np.testing.assert_allclose(coeffs, [0.0, 0.0])
        assert residual == pytest.approx(1.0)

    def test_ar1_analytic(self):
        # AR(1), a = 0.9, unit innovation: r(k) = 0.9^k / (1 - 0.81)
        r = 0.9 ** np.arange(3) / (1 - 0.81)
        coeffs, residual = levinson_durbin(r, 1)
        assert coeffs[0] == pytest.approx(0.9, abs=1e-9)
        assert residual == pytest.approx(1.0, abs=1e-9)

    def test_order2_matches_direct_solve(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            r = _random_autocorrelation(rng, 2)
            got, got_residual = levinson_durbin(r, 2)
            coeffs, residual = _normal_equation_oracle(r, 2)
            np.testing.assert_allclose(got, coeffs, atol=1e-9)
            assert got_residual == pytest.approx(residual, abs=1e-9)

    def test_matches_direct_solve_orders_up_to_8(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            order = int(rng.integers(1, 9))
            r = _random_autocorrelation(rng, order)
            got, got_residual = levinson_durbin(r, order)
            coeffs, residual = _normal_equation_oracle(r, order)
            np.testing.assert_allclose(got, coeffs, atol=1e-8)
            assert abs(got_residual - residual) < 1e-8

    def test_residual_nonincreasing_in_order(self):
        rng = np.random.default_rng(6)
        r = _random_autocorrelation(rng, 8)
        residuals = [levinson_durbin(r, p)[1] for p in range(1, 9)]
        assert np.all(np.diff(residuals) <= 1e-12)

    def test_degenerate_autocorrelation(self):
        # at or below the silence floor: the zero model, residual max(r0, 0)
        for r0 in (0.0, 1e-15, 1e-14, -1e-3):
            coeffs, residual = levinson_durbin([r0, 0.5 * r0, 0.0], 2)
            np.testing.assert_array_equal(coeffs, [0.0, 0.0])
            assert residual == max(r0, 0.0)

    def test_rows_are_tracks(self):
        # every row of an F x (lags) array is solved on its own: a silent
        # row beside live ones, each as its 1-D call
        rng = np.random.default_rng(7)
        r = np.stack([_random_autocorrelation(rng, 4), np.zeros(5),
                      _random_autocorrelation(rng, 4)])
        coeffs, residual = levinson_durbin(r, 4)
        assert coeffs.shape == (3, 4) and residual.shape == (3,)
        for f in range(3):
            want_coeffs, want_residual = levinson_durbin(r[f], 4)
            np.testing.assert_array_equal(coeffs[f], want_coeffs)
            assert residual[f] == want_residual
        assert not np.any(coeffs[1]) and residual[1] == 0.0

    def test_non_finite_reflection_coefficient_names_the_bins(self):
        r = np.ones((4, 3))
        r[2, 1] = np.nan
        with pytest.raises(NumericsError, match=r"non-finite .*bins \[2\]"):
            levinson_durbin(r, 2)

    def test_sequence_too_short(self):
        with pytest.raises(DataError):
            levinson_durbin([1.0, 0.5], 2)


class TestTransitionMatrix:
    def test_companion_form(self):
        np.testing.assert_array_equal(transition_matrix([0.5, -0.2, 0.1]),
                                      [[0.5, -0.2, 0.1], [1, 0, 0], [0, 1, 0]])

    def test_zero_coefficients(self):
        np.testing.assert_array_equal(transition_matrix(np.zeros(2)),
                                      [[0, 0], [1, 0]])
        np.testing.assert_array_equal(transition_matrix([0.7]), [[0.7]])

    def test_first_row_predicts(self):
        coeffs = np.array([0.4, 0.3, -0.1])
        state = np.array([2.0, -1.0, 0.5])
        a = transition_matrix(coeffs)
        assert (a @ state)[0] == pytest.approx(coeffs @ state)
        # rows below shift the state down unchanged
        np.testing.assert_array_equal((a @ state)[1:], state[:2])


class TestArReproduction:
    def test_exact_ar2_reproduction(self):
        # stationary autocovariance of AR(2) solves a 3x3 linear system;
        # feeding the exact r to the recursion must recover the true
        # coefficients, and the companion prediction then reproduces each
        # next sample up to the injected innovation.
        a1, a2, s2 = 0.9, -0.2, 1.0
        system = np.array([
            [1.0, -a1, -a2],
            [-a1, 1.0 - a2, 0.0],
            [-a2, -a1, 1.0],
        ])
        r0, r1, r2 = np.linalg.solve(system, np.array([s2, 0.0, 0.0]))
        coeffs, residual = levinson_durbin([r0, r1, r2], 2)
        np.testing.assert_allclose(coeffs, [a1, a2], atol=1e-10)
        assert residual == pytest.approx(s2, abs=1e-10)

        rng = np.random.default_rng(9)
        w = rng.standard_normal(500)
        x = np.zeros(500)
        for n in range(2, 500):
            x[n] = a1 * x[n - 1] + a2 * x[n - 2] + w[n]
        a = transition_matrix(coeffs)
        for n in range(10, 500, 37):
            predicted = (a @ np.array([x[n - 1], x[n - 2]]))[0]
            assert abs((x[n] - predicted) - w[n]) < 1e-8


class TestLpModelValidation:
    """``run_kf`` takes its LP model from outside and checks it."""

    def test_negative_variance_rejected(self):
        for residual_var in (-1.0, np.nan, np.inf):
            with pytest.raises(DataError):
                run_kf(np.ones(10), [0.5], residual_var, np.ones(10))

    def test_coefficient_length_checked(self):
        for coeffs in ([], [[0.5]], [[0.5, 0.2]]):
            with pytest.raises(DataError):
                run_kf(np.ones(10), coeffs, 1.0, np.ones(10))

    def test_non_finite_coefficients_rejected(self):
        for coeffs in ([0.5, np.nan], [np.inf]):
            with pytest.raises(DataError, match="finite"):
                run_kf(np.ones(10), coeffs, 1.0, np.ones(10))
