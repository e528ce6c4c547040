"""The bin-batched KF baseline against the per-bin plain numpy reference.

``kalman.filter_segmented`` (batched LP fit plus batched recursion) must match
``oracles.segmented_kf`` run bin by bin. The batched autocorrelation sums
in a different order than the scalar dot product, so LP coefficients, gains
and amplitudes are compared within ``TOL``. Given the same LP models, the
bins-first matmul recursion ``oracles.filter_bins_matmul`` reproduces the
scalar loop bit for bit. ``kalman.filter_bins`` runs the same recursion with
the bin axis last and uses the covariance as symmetric, so the prediction
is one weighted sum of its rows plus a shift instead of two matrix products.
It must match that oracle within ``RECURSION_TOL`` of the largest reference
magnitude, on the drawn cases and on 1500-frame, 129-bin tracks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nkf.kalman import filter_bins, filter_segmented
from nkf.linear_prediction import autocorrelate, levinson_durbin

from oracles import filter_bins_matmul, kf_track, segment_bounds, \
    segment_model, segmented_kf

TOL = 1e-10
RECURSION_TOL = 1e-12


@st.composite
def kf_cases(draw):
    """Random tracks with silent LP segments and zero-noise bins.

    Lengths run from T <= order (pass-through) to three segments plus a tail
    of up to ``order`` frames, which is merged into the last segment.
    """
    order = draw(st.integers(1, 8))
    n_bins = draw(st.integers(1, 4))
    seg_len = draw(st.integers(order + 1, order + 12))
    n_frames = draw(st.integers(0, 3 * seg_len + order))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    noisy = rng.uniform(0.05, 3.0, (n_frames, n_bins))
    lp_track = rng.uniform(0.05, 3.0, (n_frames, n_bins))
    sigma_v2 = rng.uniform(0.01, 2.0, (n_frames, n_bins))
    sigma_v2[:, rng.random(n_bins) < 0.3] = 0.0
    for lo, hi in segment_bounds(n_frames, seg_len, order):
        # digital silence, or a level whose r(0) is under the silence floor
        lp_track[lo:hi, rng.random(n_bins) < 0.3] *= rng.choice([0.0, 1e-9])
    return noisy, lp_track, sigma_v2, order, seg_len


def _fit(lp_track, order, bounds):
    """Each segment's models, as ``filter_segmented`` fits them."""
    return [(lo, hi, *levinson_durbin(autocorrelate(lp_track[lo:hi], order), order))
            for lo, hi in bounds]


def _scalar(noisy, lp_track, sigma_v2, order, seg_len):
    per_bin = [segmented_kf(noisy[:, f], lp_track[:, f], sigma_v2[:, f],
                            order, seg_len) for f in range(noisy.shape[1])]
    return (np.stack([o for o, _ in per_bin], axis=1),
            np.stack([g for _, g in per_bin], axis=1))


@settings(max_examples=60, deadline=None)
@given(kf_cases())
def test_segmented_filter_matches_scalar_path(case):
    noisy, lp_track, sigma_v2, order, seg_len = case
    out, gains = filter_segmented(noisy, lp_track, sigma_v2, order, seg_len)
    want_out, want_gains = _scalar(noisy, lp_track, sigma_v2, order, seg_len)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(gains))
    if len(noisy) <= order:
        assert np.array_equal(out, noisy) and not np.any(gains)
    scale = np.max(np.abs(want_out), initial=1.0)
    assert np.max(np.abs(out - want_out), initial=0.0) <= TOL * scale
    assert np.max(np.abs(gains - want_gains), initial=0.0) <= TOL


@settings(max_examples=60, deadline=None)
@given(kf_cases())
def test_lp_fit_matches_scalar_levinson(case):
    _, lp_track, _, order, seg_len = case
    bounds = segment_bounds(len(lp_track), seg_len, order)
    for lo, hi, coeffs, residual in _fit(lp_track, order, bounds):
        for f in range(lp_track.shape[1]):
            want_coeffs, want_residual = segment_model(lp_track[lo:hi, f], order)
            np.testing.assert_allclose(coeffs[f], want_coeffs, rtol=0, atol=TOL)
            assert residual[f] == pytest.approx(want_residual, rel=TOL, abs=1e-300)
            if not np.any(want_coeffs):   # a silent segment
                assert not np.any(coeffs[f])


@settings(max_examples=60, deadline=None)
@given(kf_cases())
def test_recursion_bit_identical_given_the_same_models(case):
    noisy, lp_track, sigma_v2, order, seg_len = case
    n_frames, n_bins = noisy.shape
    bounds = segment_bounds(n_frames, seg_len, order)
    models = [[(lo, hi, *segment_model(lp_track[lo:hi, f], order))
               for lo, hi in bounds] for f in range(n_bins)]
    segments = [(lo, hi, np.stack([models[f][i][2] for f in range(n_bins)]),
                 np.array([models[f][i][3] for f in range(n_bins)]))
                for i, (lo, hi) in enumerate(bounds)]
    out, gains = filter_bins_matmul(noisy, sigma_v2, segments, order)
    for f in range(n_bins):
        want_out, want_gains = kf_track(noisy[:, f], sigma_v2[:, f], order,
                                        models[f])
        assert np.array_equal(out[:, f], want_out)
        assert np.array_equal(gains[:, f], want_gains)


@settings(max_examples=100, deadline=None)
@given(kf_cases())
def test_companion_recursion_matches_matmul_oracle(case):
    noisy, lp_track, sigma_v2, order, seg_len = case
    segments = _fit(lp_track, order, segment_bounds(len(noisy), seg_len, order))
    out, gains = filter_bins(noisy, sigma_v2, segments, order)
    want_out, want_gains = filter_bins_matmul(noisy, sigma_v2, segments, order)
    for got, want in ((out, want_out), (gains, want_gains)):
        err = np.max(np.abs(got - want), initial=0.0)
        assert err <= RECURSION_TOL * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("order", [1, 2, 4, 8])
def test_long_wide_track_matches_matmul_oracle(order):
    # 1500 frames of 129 bins in 32-frame segments: drift over hundreds of
    # frames at a real bin count, which the drawn cases are too short to show
    rng = np.random.default_rng(order)
    n_frames, n_bins, seg_len = 1500, 129, 32
    noisy = rng.uniform(0.05, 3.0, (n_frames, n_bins))
    lp_track = rng.uniform(0.05, 3.0, (n_frames, n_bins))
    sigma_v2 = rng.uniform(0.01, 2.0, (n_frames, n_bins))
    sigma_v2[:, ::7] = 0.0
    bounds = segment_bounds(n_frames, seg_len, order)
    for i, (lo, hi) in enumerate(bounds):
        # digital silence and a level under the silence floor, in turn
        lp_track[lo:hi, i % 5::5] *= (0.0, 1e-9)[i % 2]
    segments = _fit(lp_track, order, bounds)
    out, gains = filter_bins(noisy, sigma_v2, segments, order)
    want_out, want_gains = filter_bins_matmul(noisy, sigma_v2, segments, order)
    for got, want in ((out, want_out), (gains, want_gains)):
        err = np.max(np.abs(got - want))
        assert err <= RECURSION_TOL * np.max(np.abs(want))


def test_silent_segment_with_zero_noise_keeps_the_prediction():
    # silent LP model (A = 0, residual 0) and zero noise: the gain
    # denominator is exactly 0, so g = 0 and the state is the zero prediction
    noisy = np.full((12, 2), 2.0)
    sigma_v2 = np.zeros((12, 2))
    segments = [(0, 12, np.zeros((2, 2)), np.zeros(2))]
    out, gains = filter_bins(noisy, sigma_v2, segments, 2)
    assert np.array_equal(out[2:], np.zeros((10, 2)))
    assert not np.any(gains)

