"""Every enhancement method against its composition from public primitives.

The references below spell out each method's pipeline step by step (STFT,
the method's amplitude estimate, recombination with the noisy phase and a
frame-by-frame overlap-add), with the conventional KF as the per-bin
segmented predict/gain/update loop. The shared shell must reproduce them bit
for bit. The bin-batched KF baseline sums its LP autocorrelation lags in a
different order than the per-bin dot product, so its LP coefficients differ
in the last bits; it must match within ``KF_TOL`` of each array's largest
magnitude.
"""

import numpy as np
import pytest

from nkf import autodiff as ad
from nkf import data_io, enhancer, pipeline
from nkf.config import RunConfig
from nkf.enhancer import enhance, enhance_wiener, nkf_forward
from nkf.errors import ConfigError, DataError
from nkf.kalman import enhance_kf_baseline
from nkf.networks import build_model, noise_fnn_forward_grid
from nkf.pipeline import wiener_estimate
from nkf.signal_core import Waveform, recombine, stft
from nkf.wiener import VARIANCE_FLOOR, track_sigma_y, wiener_gain

from oracles import segmented_kf
from test_signal_core import _istft_loop_oracle, ola_envelope, ola_floor

CFG = RunConfig(window=64, hop=16, variance_span=8, utterance_seconds=0.5)
KF_TOL = 1e-12


def _model():
    return build_model(CFG.n_bins, lstm_units=(8,), fnn_hidden=16, context=5,
                       window=CFG.window, hop=CFG.hop,
                       variance_span=CFG.variance_span, seed=4)


# 600 samples make one LP segment with a merged tail; 7744 samples make 481
# frames, so a one-frame tail merges into the last of 15 segments.
@pytest.fixture(scope="module", params=[600, 7744, 8000])
def utterance(request):
    n = request.param
    rng = np.random.default_rng(n)
    speech = Waveform(data_io._synth_speech(rng, n, 16000))
    noise = Waveform(data_io._synth_noise(rng, "pink", n + 8000, 16000))
    noisy, scaled = data_io.mix_at_snr(speech, noise, 5.0, rng)
    return noisy, data_io.oracle_noise_variance(scaled, CFG)


def _resynthesize(noisy, spec, amplitude):
    out_spec = recombine(spec, amplitude)
    return _istft_loop_oracle(out_spec, len(noisy))


def _wiener_amp(spec, sigma_v2):
    sigma_y2 = track_sigma_y(spec.amplitude, CFG.variance_span)
    return wiener_gain(sigma_v2, sigma_y2) * spec.amplitude


def _kf_reference(noisy, sigma_v2=None, model=None, cfg=CFG):
    spec = stft(noisy, cfg.window, cfg.hop)
    if sigma_v2 is None:
        feats = spec.amplitude   # the test model reads raw amplitudes
        with ad.no_grad():
            sigma_v2 = noise_fnn_forward_grid(
                model, feats,
                track_sigma_y(spec.amplitude, model.variance_span)).values
    wiener = _wiener_amp(spec, sigma_v2)
    enhanced = np.empty_like(spec.amplitude)
    gains = np.empty_like(spec.amplitude)
    for f in range(spec.n_bins):
        enhanced[:, f], gains[:, f] = segmented_kf(
            spec.amplitude[:, f], wiener[:, f], sigma_v2[:, f],
            cfg.lp_order, cfg.lp_segment)
    grids = dict(amp_wiener=wiener, sigma_v2=sigma_v2, gain=gains,
                 amp_out=enhanced)
    return _resynthesize(noisy, spec, enhanced), grids


def _assert_same(result, waveform, grids, tol=0.0):
    """Bit-identical, or with ``tol`` within tol * max|reference| per array."""
    def same(got, want):
        if tol == 0.0:
            return np.array_equal(got, want)
        return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    assert same(result.waveform.samples, waveform)
    got = {k: v for k, v in vars(result.grids).items() if v is not None}
    assert set(got) == set(grids)
    for name, grid in grids.items():
        assert same(got[name], grid), name


#: The graph grids each model method computes, besides its output amp_out
METHOD_GRIDS = {"nkf": ("amp_lstm", "amp_wiener", "sigma_r2", "sigma_v2", "gain"),
                "lstm": ("amp_lstm",), "wiener": ("amp_wiener", "sigma_v2")}


@pytest.mark.parametrize("method,grid_name", [
    ("nkf", "amp_out"), ("lstm", "amp_lstm"), ("wiener", "amp_wiener")])
def test_model_methods(utterance, method, grid_name):
    # each method resynthesizes one grid of the whole graph, bit for bit, and
    # reports the graph grids it computed on its way there
    noisy, _ = utterance
    m = _model()
    spec = stft(noisy, m.window, m.hop)
    with ad.no_grad():
        est = nkf_forward(m, spec)
    grids = {k: getattr(est, k) for k in METHOD_GRIDS[method]}
    grids["amp_out"] = getattr(est, grid_name)
    _assert_same(enhance(m, noisy, method),
                 _resynthesize(noisy, spec, grids["amp_out"]), grids)


def _refuse(*args, **kwargs):
    raise AssertionError("this method must not run this network")


@pytest.mark.parametrize("method,unused", [
    ("lstm", "noise_fnn_forward_grid"), ("wiener", "lstm_forward")])
def test_model_methods_skip_the_other_network(utterance, monkeypatch, method,
                                              unused):
    noisy, _ = utterance
    for module in (enhancer, pipeline):
        if hasattr(module, unused):
            monkeypatch.setattr(module, unused, _refuse)
    enhance(_model(), noisy, method)


def test_oracle_wiener(utterance):
    noisy, grid = utterance
    spec = stft(noisy, CFG.window, CFG.hop)
    amp = _wiener_amp(spec, grid)
    _assert_same(enhance_wiener(noisy, CFG, grid), _resynthesize(noisy, spec, amp),
                 dict(amp_wiener=amp, sigma_v2=grid, amp_out=amp))


def test_kf_baseline_oracle_noise(utterance):
    noisy, grid = utterance
    _assert_same(enhance_kf_baseline(noisy, CFG, sigma_v2_grid=grid),
                 *_kf_reference(noisy, sigma_v2=grid), tol=KF_TOL)


# CFG runs order 2; these cover the first order, a middle one and the last
@pytest.mark.parametrize("order", [1, 4, 8])
def test_kf_baseline_lp_orders(utterance, order):
    noisy, grid = utterance
    cfg = CFG.replace(lp_order=order)
    _assert_same(enhance_kf_baseline(noisy, cfg, sigma_v2_grid=grid),
                 *_kf_reference(noisy, sigma_v2=grid, cfg=cfg), tol=KF_TOL)


def test_kf_baseline_model_noise(utterance):
    noisy, _ = utterance
    m = _model()
    _assert_same(enhance_kf_baseline(noisy, CFG, model=m),
                 *_kf_reference(noisy, model=m), tol=KF_TOL)


def test_kf_baseline_prefilter_is_the_graph_wiener_branch(utterance):
    # one Wiener formula: the KF's prefilter is the NKF graph's Wiener branch
    # bit for bit, also where the noisy variance is below VARIANCE_FLOOR (a
    # digitally silent start and a stretch at -200 dB)
    noisy, _ = utterance
    samples = noisy.samples.copy()
    samples[:160] = 0.0
    samples[160:320] *= 1e-10
    noisy = Waveform(samples)
    m = _model()
    m.params["fnn.b3"].values[:] = -8.0   # gains inside (0, 1)
    spec = stft(noisy, m.window, m.hop)
    with ad.no_grad():
        est = nkf_forward(m, spec)
    sigma_y2 = track_sigma_y(spec.amplitude, m.variance_span)
    assert np.any((sigma_y2 > 0) & (sigma_y2 < VARIANCE_FLOOR))
    h = est.amp_wiener[spec.amplitude > 0] / spec.amplitude[spec.amplitude > 0]
    assert np.any((h > 0) & (h < 1))
    grids = enhance_kf_baseline(noisy, CFG, model=m).grids
    assert np.array_equal(grids.amp_wiener, est.amp_wiener)
    assert np.array_equal(grids.sigma_v2, est.sigma_v2)


@pytest.mark.parametrize("framing", [dict(hop=32), dict(window=128),
                                     dict(variance_span=4)])
def test_kf_baseline_model_framing_mismatch(utterance, framing):
    # the noise net must only see frames and noisy variances of the framing
    # it was trained on
    noisy, _ = utterance
    with pytest.raises(ConfigError, match="framing differs from the model's"):
        enhance_kf_baseline(noisy, CFG.replace(**framing), model=_model())
    with pytest.raises(ConfigError, match="framing differs from the model's"):
        enhance_wiener(noisy, CFG.replace(**framing), model=_model())


def test_model_waveform_rate_mismatch_rejected():
    # a model runs only on waveforms at the rate it was trained at
    noisy = Waveform(np.random.default_rng(1).standard_normal(800) * 0.1, 8000)
    m = _model()
    for run in (lambda: enhance(m, noisy, "nkf"), lambda: enhance(m, noisy, "lstm"),
                lambda: enhance(m, noisy, "wiener"),
                lambda: enhance_wiener(noisy, CFG, model=m),
                lambda: enhance_kf_baseline(noisy, CFG, model=m)):
        with pytest.raises(DataError, match="8000 Hz differs from the framing's 16000 Hz"):
            run()


@pytest.mark.parametrize("run", [enhance_kf_baseline, enhance_wiener])
def test_oracle_noise_waveform_rate_mismatch_rejected(run):
    # with oracle noise no model is there to compare rates with: the config's
    # framing is for 16 kHz, so 8 kHz samples would be framed for the wrong rate
    noisy = Waveform(np.random.default_rng(2).standard_normal(800) * 0.1, 8000)
    grid = np.ones(stft(noisy, CFG.window, CFG.hop).amplitude.shape)
    with pytest.raises(DataError, match="8000 Hz differs from the framing's 16000 Hz"):
        run(noisy, CFG, grid)


def test_oracle_grid_wins_over_model():
    spec = stft(Waveform(np.ones(640) * 0.1), CFG.window, CFG.hop)
    oracle = np.ones(spec.amplitude.shape)
    sigma_v2, _ = wiener_estimate(spec, CFG.variance_span, oracle, _model())
    assert np.array_equal(sigma_v2, oracle)


@pytest.mark.parametrize("fault", ["shape", "nan", "inf", "negative"])
@pytest.mark.parametrize("run", [enhance_kf_baseline, enhance_wiener])
def test_bad_oracle_noise_grid_is_data_error(run, fault):
    # an oracle grid is the one variance grid that comes from outside: both
    # oracle-noise methods check it where it enters, in wiener_estimate
    noisy = Waveform(np.random.default_rng(3).standard_normal(800) * 0.1)
    grid = np.ones(stft(noisy, CFG.window, CFG.hop).amplitude.shape)
    if fault == "shape":
        grid, message = grid[:-1], "noise grid shape differs from spectrogram"
    else:
        grid[2, 3] = {"nan": np.nan, "inf": np.inf, "negative": -1e-9}[fault]
        message = "noise grid must be finite and nonnegative"
    with pytest.raises(DataError, match=message):
        run(noisy, CFG, grid)


def _desk_model():
    cfg = RunConfig(seed=0)
    return cfg, build_model(cfg.n_bins, lstm_units=cfg.lstm_unit_list,
                            fnn_hidden=cfg.fnn_hidden, context=cfg.context,
                            window=cfg.window, hop=cfg.hop,
                            variance_span=cfg.variance_span, seed=0)


@pytest.mark.parametrize("method", sorted(enhancer.METHODS))
def test_synthesis_floor_changes_only_samples_under_it(utterance, method):
    # against synthesis at the 1e-12 floor of before, every sample whose
    # Σ win² reaches the floor is bit for bit the same
    noisy, _ = utterance
    m = _model()
    result = enhancer.METHODS[method][0](m, noisy, CFG, None)
    spec = stft(noisy, CFG.window, CFG.hop)
    before = _istft_loop_oracle(recombine(spec, result.grids.amp_out), len(noisy),
                                floor=1e-12)
    kept = ola_envelope(CFG.window, CFG.hop, spec.n_frames, len(noisy)) \
        >= ola_floor(CFG.window, CFG.hop)
    assert kept.sum() > len(noisy) - 2 * CFG.window
    assert np.array_equal(result.waveform.samples[kept], before[kept])


_N = 8000   # 0.5 s at 16 kHz
_T = np.arange(_N) / 16000
_IMPULSE = np.zeros(_N)
_IMPULSE[_N // 2] = 1.0
_NOISE = np.random.default_rng(9).standard_normal(_N)
#: the degenerate inputs, and how far above its input's peak any method's
#: output may peak: 4 (an untrained desk model peaked at 2.0 on the square
#: wave, and at up to 1150 at the 1e-12 floor)
DEGENERATE = {
    "zeros": np.zeros(_N),
    "dc": np.full(_N, 0.5),
    "square": np.sign(np.sin(2 * np.pi * 200 * _T + 0.1)),
    "tone": 0.3 * np.sin(2 * np.pi * 1000 * _T),
    "impulse": _IMPULSE,
    "noise_1e-300": 1e-300 * _NOISE,
    "noise_1e150": 1e150 * _NOISE,
    "one_window": 0.1 * _NOISE[:256],
    "one_window_and_hop": 0.1 * _NOISE[:320],
}
PEAK_BOUND = 4.0


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_inputs_give_bounded_outputs(name):
    x = DEGENERATE[name]
    cfg, m = _desk_model()
    peaks = {}
    for method, (run, _) in sorted(enhancer.METHODS.items()):
        out = run(m, Waveform(x), cfg, None).waveform.samples
        assert out.shape == x.shape and np.all(np.isfinite(out)), method
        if x.any():
            peaks[method] = np.max(np.abs(out)) / np.max(np.abs(x))
        else:   # silence stays silent
            peaks[method] = np.inf if out.any() else 0.0
    assert all(peak <= PEAK_BOUND for peak in peaks.values()), peaks
