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

``kalman.filter_bins`` holds state and covariance as one augmented array;
``oracles.filter_bins_apart`` is the same recursion with the two held apart
in fresh arrays every frame, and ``oracles.lp_segments_one_by_one`` fits one
segment per call. Outputs, gains, LP models and error texts must be equal to
theirs, bit for bit. One bin alone is compared with the apart oracle run on
that bin twice over: from order 8 on, numpy sums a one-bin axis-0 reduction
pairwise, so the apart steps rounded a bin alone differently from the same
bin beside others, where the augmented steps add rows in order either way.
``autocorrelate`` adds each lag's products in frame order too, so a bin
fits and filters alike alone and beside others, LP fit included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nkf import kalman
from nkf.errors import DataError, NumericsError
from nkf.kalman import filter_bins, filter_segmented, lp_segments
from nkf.linear_prediction import autocorrelate, levinson_durbin

from oracles import filter_bins_apart, filter_bins_matmul, \
    filter_segmented_apart, kf_track, lp_segments_one_by_one, segment_bounds, \
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


def _long_wide_case(order):
    """1500 frames of 129 bins in 32-frame segments: drift over hundreds of
    frames at a real bin count, which the drawn cases are too short to show."""
    rng = np.random.default_rng(order)
    n_frames, n_bins, seg_len = 1500, 129, 32
    noisy = rng.uniform(0.05, 3.0, (n_frames, n_bins))
    lp_track = rng.uniform(0.05, 3.0, (n_frames, n_bins))
    sigma_v2 = rng.uniform(0.01, 2.0, (n_frames, n_bins))
    sigma_v2[:, ::7] = 0.0
    for i, (lo, hi) in enumerate(segment_bounds(n_frames, seg_len, order)):
        # digital silence and a level under the silence floor, in turn
        lp_track[lo:hi, i % 5::5] *= (0.0, 1e-9)[i % 2]
    return noisy, lp_track, sigma_v2, seg_len


@pytest.mark.parametrize("order", [1, 2, 4, 8])
def test_long_wide_track_matches_matmul_oracle(order):
    noisy, lp_track, sigma_v2, seg_len = _long_wide_case(order)
    segments = _fit(lp_track, order, segment_bounds(len(noisy), seg_len, order))
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



def _same_bits(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))


def _bins_apart(noisy, sigma_v2, segments, order):
    """``filter_bins_apart``; a lone bin runs twice over, and the first copy
    is kept (see the module docstring)."""
    if noisy.shape[1] != 1:
        return filter_bins_apart(noisy, sigma_v2, segments, order)
    doubled = [(lo, hi, np.repeat(coeffs, 2, axis=0), np.repeat(residual, 2))
               for lo, hi, coeffs, residual in segments]
    out, gains = filter_bins_apart(np.repeat(noisy, 2, axis=1),
                                   np.repeat(sigma_v2, 2, axis=1), doubled, order)
    return out[:, :1], gains[:, :1]


@settings(max_examples=100, deadline=None)
@given(kf_cases())
def test_augmented_recursion_bit_identical_to_the_apart_oracle(case):
    noisy, lp_track, sigma_v2, order, seg_len = case
    segments = list(lp_segments_one_by_one(lp_track, order, seg_len)) \
        if len(noisy) > order else []
    want = _bins_apart(noisy, sigma_v2, segments, order)
    assert _same_bits(filter_bins(noisy, sigma_v2, segments, order), want)
    assert _same_bits(filter_segmented(noisy, lp_track, sigma_v2, order, seg_len), want)
    if noisy.shape[1] > 1:
        assert _same_bits(want, filter_segmented_apart(noisy, lp_track, sigma_v2,
                                                       order, seg_len))


@pytest.mark.parametrize("order", [1, 2, 3, 8])
def test_long_wide_track_bit_identical_to_the_apart_oracle(order):
    noisy, lp_track, sigma_v2, seg_len = _long_wide_case(order)
    assert _same_bits(filter_segmented(noisy, lp_track, sigma_v2, order, seg_len),
                      filter_segmented_apart(noisy, lp_track, sigma_v2, order, seg_len))


@settings(max_examples=60, deadline=None)
@given(kf_cases())
def test_a_bin_filters_alike_alone_and_beside_others(case):
    # the recursion given the same models, and the LP fit with it
    noisy, lp_track, sigma_v2, order, seg_len = case
    segments = _fit(lp_track, order, segment_bounds(len(noisy), seg_len, order))
    out, gains = filter_bins(noisy, sigma_v2, segments, order)
    fit_out, fit_gains = filter_segmented(noisy, lp_track, sigma_v2, order, seg_len)
    for f in range(noisy.shape[1]):
        one = slice(f, f + 1)
        alone = filter_bins(noisy[:, one], sigma_v2[:, one],
                            [(lo, hi, coeffs[one], residual[one])
                             for lo, hi, coeffs, residual in segments], order)
        assert _same_bits(alone, (out[:, one], gains[:, one]))
        alone = filter_segmented(noisy[:, one], lp_track[:, one], sigma_v2[:, one],
                                 order, seg_len)
        assert _same_bits(alone, (fit_out[:, one], fit_gains[:, one]))


def test_negative_denominator_raises_the_oracles_error():
    # a negative residual variance (no LP fit makes one) drives the predicted
    # covariance below zero where the noise variance is zero: in bins 1 and
    # 3 from frame 6 on, in bin 2 from frame 9; the check runs every frame
    amp = np.ones((12, 4))
    sigma_v2 = np.ones((12, 4))
    sigma_v2[6:, 1] = sigma_v2[6:, 3] = sigma_v2[9:, 2] = 0.0
    segments = [(0, 12, np.zeros((4, 2)), np.array([0.5, -1.0, -1.0, -1.0]))]
    errors = []
    for fn in (filter_bins, filter_bins_apart):
        with pytest.raises(NumericsError) as info:
            fn(amp, sigma_v2, segments, 2)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].endswith("at frame 6, bins [1, 3]")


# -- the LP fit: every full-length segment in one call --------------------------


@st.composite
def lp_cases(draw):
    """Tracks of 1-5 segments, the last possibly short or merged with a
    tail, with silent bins."""
    order = draw(st.integers(1, 8))
    n_bins = draw(st.integers(1, 4))
    seg_len = draw(st.integers(order + 1, order + 12))
    n_segments = draw(st.integers(1, 5))
    n_frames = draw(st.integers(max(order + 1, (n_segments - 1) * seg_len + 1),
                                n_segments * seg_len + order))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lp_track = rng.uniform(0.05, 3.0, (n_frames, n_bins))
    for lo, hi in segment_bounds(n_frames, seg_len, order):
        lp_track[lo:hi, rng.random(n_bins) < 0.3] *= rng.choice([0.0, 1e-9])
    return lp_track, order, seg_len


@settings(max_examples=150, deadline=None)
@given(lp_cases())
def test_batched_lp_fits_equal_the_per_segment_fits(case):
    lp_track, order, seg_len = case
    got = list(lp_segments(lp_track, order, seg_len))
    want = list(lp_segments_one_by_one(lp_track, order, seg_len))
    assert [s[:2] for s in got] == [s[:2] for s in want]
    for (*_, coeffs, residual), (*_, want_coeffs, want_residual) in zip(got, want):
        assert _same_bits((coeffs, residual), (want_coeffs, want_residual))


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(kalman, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(kalman, name, counted)
    return calls


@pytest.mark.parametrize("n_frames,want_calls", [(160, 1), (170, 2), (163, 2), (31, 1)])
def test_one_fit_for_the_full_segments_and_one_for_the_last(n_frames, want_calls,
                                                           monkeypatch):
    # five 32-frame segments; a 10-frame last segment; a 3-frame tail merged
    # into the fifth; one short segment alone
    calls = _counting(monkeypatch, "levinson_durbin")
    rng = np.random.default_rng(0)
    grids = [rng.uniform(0.1, 2.0, (n_frames, 5)) for _ in range(3)]
    filter_segmented(*grids, 3, 32)
    assert len(calls) == want_calls


@pytest.mark.parametrize("k", range(5))
def test_a_segment_that_cannot_be_fit_is_named_when_the_recursion_reaches_it(k,
                                                                            monkeypatch):
    # five 20-frame segments, the last merged with a 2-frame tail; a NaN in
    # the k-th segment's LP track, bins 1 and 3
    lo = 20 * k
    track = np.ones((102, 4))
    track[lo + 5, 1] = track[lo + 9, 3] = np.nan
    amp = np.ones((102, 4))
    frames = _counting(monkeypatch, "kf_predict")
    named = rf"^LP segment at frame {lo}: .*bins \[1, 3\]$"
    with pytest.raises(NumericsError, match=named) as got:
        filter_segmented(amp, track, amp, 2, 20)
    assert len(frames) == max(lo - 2, 0)
    with pytest.raises(NumericsError) as want:
        filter_segmented_apart(amp, track, amp, 2, 20)
    assert str(got.value) == str(want.value)


def test_a_degenerate_gain_in_an_earlier_segment_is_raised_first(monkeypatch):
    # the third 20-frame segment cannot be fit; a gain in the first raises
    track = np.ones((60, 4))
    track[43, 2] = np.nan
    gain = kalman.kf_gain

    def failing(ree, sigma_v2, frame, out=None):
        if frame == 7:
            raise NumericsError(f"degenerate gain: negative denominator at frame {frame}")
        return gain(ree, sigma_v2, frame, out)

    monkeypatch.setattr(kalman, "kf_gain", failing)
    with pytest.raises(NumericsError, match="at frame 7$"):
        filter_segmented(np.ones((60, 4)), track, np.ones((60, 4)), 2, 20)


@pytest.mark.parametrize("fault", ["shape", "non-finite", "negative noise"])
def test_the_input_checks_come_before_any_fit(fault, monkeypatch):
    def never(*args):
        raise AssertionError("an LP fit ran before the input checks")

    monkeypatch.setattr(kalman, "autocorrelate", never)
    monkeypatch.setattr(kalman, "levinson_durbin", never)
    amp, sigma_v2 = np.ones((60, 4)), np.ones((60, 4))
    if fault == "shape":
        sigma_v2 = np.ones((50, 4))
    elif fault == "non-finite":
        amp[30, 2] = np.inf
    else:
        sigma_v2[40, 1] = -1.0
    with pytest.raises(DataError):
        filter_segmented(amp, np.ones((60, 4)), sigma_v2, 2, 20)
