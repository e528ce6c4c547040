import dataclasses

import numpy as np
import pytest

from nkf import autodiff as ad
from nkf import data_io, enhancer
from nkf.config import RunConfig
from nkf.enhancer import (EnhancementResult, NkfFrameEstimates, enhance,
                          enhance_wiener, gradient_check, nkf_combine,
                          nkf_forward, nkf_gain, nkf_loss, train, _batch_loss,
                          _forward)
from nkf.errors import ConfigError, DataError, NumericsError
from nkf.networks import build_model
from nkf.signal_core import Waveform, stft
from nkf.wiener import (VARIANCE_FLOOR, VarianceTracks, apply_wiener,
                        track_sigma_y, wiener_gain)


def _tiny_model(seed=0, **kw):
    defaults = dict(lstm_units=(2,), fnn_hidden=8, context=3, window=6,
                    hop=3, variance_span=4, seed=seed)
    defaults.update(kw)
    return build_model(4, **defaults)


def _zeroed_model():
    m = _tiny_model()
    for p in m.parameters().values():
        p.values = np.zeros_like(p.values)
    return m


class TestGain:
    def test_limits(self):
        assert nkf_gain(1e-300, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert nkf_gain(1.0, 1e-300) == pytest.approx(1.0, abs=1e-12)

    def test_balanced(self):
        assert nkf_gain(0.7, 0.7) == pytest.approx(0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            nkf_gain(0.0, 1.0)

    def test_unit_interval_fuzz(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(1e-6, 1e3, 100000)
        v = rng.uniform(1e-6, 1e3, 100000)
        g = nkf_gain(r, v)
        assert np.all((g > 0) & (g < 1))


class TestCombine:
    def test_midpoint(self):
        assert nkf_combine(0.5, 2.0, 4.0) == pytest.approx(3.0)

    def test_endpoint_exact(self):
        assert nkf_combine(0.0, 5.0, 3.0) == 3.0
        assert nkf_combine(1.0, 5.0, 3.0) == 5.0

    def test_convexity_fuzz(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(0, 1, 100000)
        w = rng.uniform(0, 10, 100000)
        l = rng.uniform(0, 10, 100000)
        out = nkf_combine(g, w, l)
        assert np.all(out >= np.minimum(w, l))
        assert np.all(out <= np.maximum(w, l))


class TestLoss:
    def test_identical_grids(self):
        g = np.ones((3, 4))
        assert nkf_loss(g, g) == 0.0

    def test_unit_offset(self):
        g = np.zeros((5, 2))
        assert nkf_loss(g + 1.0, g) == pytest.approx(1.0)

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 3, (7, 5))
        b = rng.uniform(0, 3, (7, 5))
        total = 0.0
        for t in range(7):
            for f in range(5):
                total += (a[t, f] - b[t, f]) ** 2
        assert abs(nkf_loss(a, b) - total / 35.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            nkf_loss(np.ones((2, 2)), np.ones((3, 2)))


class TestForward:
    def test_zero_parameter_model_closed_form(self):
        m = _zeroed_model()
        rng = np.random.default_rng(3)
        amp = rng.uniform(0.5, 3.0, (6, 4))
        with ad.no_grad():
            (_, est), = _forward(m, [(amp, None)])
        sigma_v2 = np.log(2.0) + 1e-12  # softplus(0) + eps
        expected_gain = 1.0 / (1.0 + sigma_v2)
        np.testing.assert_array_equal(est.amp_lstm, 0.0)
        np.testing.assert_allclose(est.sigma_r2, 1.0)
        np.testing.assert_allclose(est.sigma_v2, sigma_v2)
        np.testing.assert_allclose(est.gain, expected_gain, rtol=1e-12)
        np.testing.assert_allclose(est.amp_out, expected_gain * est.amp_wiener,
                                   rtol=1e-12)
        assert expected_gain == pytest.approx(0.5906, abs=2e-4)

    def test_wiener_branch_matches_numpy_module(self):
        # bit for bit, also where the noisy variance is zero or below
        # VARIANCE_FLOOR: the first frames are silent, the next ones tiny
        m = _tiny_model(seed=5)
        rng = np.random.default_rng(4)
        amp = rng.uniform(0.5, 3.0, (10, 4))
        amp[:2] = 0.0
        amp[2:4] = 1e-9
        with ad.no_grad():
            (_, est), = _forward(m, [(amp, None)])
        sigma_y2 = track_sigma_y(amp, m.variance_span)
        assert np.any(sigma_y2 == 0) and np.any((sigma_y2 > 0) & (sigma_y2 < VARIANCE_FLOOR))
        gain = wiener_gain(est.sigma_v2, sigma_y2)
        assert np.any((gain > 0) & (gain < 1))
        np.testing.assert_array_equal(est.amp_wiener, gain * amp)
        tracks = VarianceTracks(sigma_y2=sigma_y2, sigma_v2=est.sigma_v2)
        np.testing.assert_array_equal(est.amp_wiener,
                                      apply_wiener(amp, tracks))

    def test_gain_limit_ratios(self):
        # as sigma_r2/sigma_v2 -> 0 output approaches the LSTM estimate and
        # vice versa, checked at ratio 1e-8 within 1e-6 absolute
        w, l = 4.0, 1.0
        near_lstm = nkf_combine(nkf_gain(1e-8, 1.0), w, l)
        near_wiener = nkf_combine(nkf_gain(1.0, 1e-8), w, l)
        assert abs(near_lstm - l) < 1e-6
        assert abs(near_wiener - w) < 1e-6

    def test_grid_invariants_random_model(self):
        m = _tiny_model(seed=7)
        rng = np.random.default_rng(8)
        amp = rng.uniform(0, 3.0, (12, 4))
        with ad.no_grad():
            (_, est), = _forward(m, [(amp, None)])
        assert np.all((est.gain > 0) & (est.gain < 1))
        assert np.all(est.sigma_r2 > 0)
        assert np.all(est.sigma_v2 > 0)
        lo = np.minimum(est.amp_wiener, est.amp_lstm)
        hi = np.maximum(est.amp_wiener, est.amp_lstm)
        assert np.all(est.amp_out >= lo) and np.all(est.amp_out <= hi)

    def test_graph_runs_the_numpy_formulas_bit_for_bit(self):
        # nkf_gain, nkf_combine and nkf_loss (acceptance criteria 5 and 6)
        # are the formulas the trained graph computes, not near relatives
        m = _tiny_model(seed=11)
        rng = np.random.default_rng(12)
        spec = stft(Waveform(rng.standard_normal(96) * 0.1), m.window, m.hop)
        clean = rng.uniform(0.0, 0.5, spec.amplitude.shape)
        (loss, est), = _forward(m, [(spec.amplitude, clean)])
        gain = nkf_gain(est.sigma_r2, est.sigma_v2)
        amp_out = nkf_combine(gain, est.amp_wiener, est.amp_lstm)
        np.testing.assert_array_equal(est.gain, gain)
        np.testing.assert_array_equal(est.amp_out, amp_out)
        assert float(loss.values) == nkf_loss(amp_out, clean)

    def test_dimension_mismatch(self):
        m = _tiny_model()
        with pytest.raises(DataError):
            _forward(m, [(np.ones((5, 7)), None)])

    def test_spectrogram_entry_point(self):
        m = _tiny_model()
        w = Waveform(np.random.default_rng(9).standard_normal(64) * 0.1)
        spec = stft(w, m.window, m.hop)
        with ad.no_grad():
            est = nkf_forward(m, spec)
        assert est.amp_out.shape == spec.amplitude.shape


def _independent_gradient_check(model, noisy_amp, clean_amp, step=1e-5):
    """Finite-difference oracle over every parameter of both networks, on the
    batch loss that training differentiates."""
    segments = [(noisy_amp, clean_amp)]
    model.zero_grad()
    _batch_loss(model, segments).backward()
    worst = 0.0
    for name, p in model.parameters().items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            with ad.no_grad():
                up = float(_batch_loss(model, segments).values)
            flat[i] = saved - step
            with ad.no_grad():
                down = float(_batch_loss(model, segments).values)
            flat[i] = saved
            numeric = (up - down) / (2 * step)
            a = analytic.reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
    return worst


class TestEndToEndGradients:
    def test_every_parameter_matches_finite_differences(self):
        # tiny configuration: F=4, one 2-unit LSTM layer, context 3, T=5
        model = _tiny_model(seed=0)
        rng = np.random.default_rng(105)
        noisy_amp = rng.uniform(0.5, 3.0, (5, 4))
        clean_amp = rng.uniform(0.1, 2.5, (5, 4))
        assert _independent_gradient_check(model, noisy_amp, clean_amp) < 1e-4

    def test_package_gradcheck_agrees(self):
        assert gradient_check(seed=0) < 1e-4

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            gradient_check(seed=-1)


def _training_cfg(**kw):
    defaults = dict(window=64, hop=16, lstm_units=8, lstm_layers=1,
                    fnn_hidden=16, context=5, variance_span=8,
                    train_count=4, dev_count=1, test_count=1,
                    utterance_seconds=0.5, batch=2, seq_len=48, epochs=1,
                    seed=3)
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    cfg = _training_cfg()
    manifest = data_io.synth_corpus(cfg, tmp_path_factory.mktemp("corpus"))
    return cfg, manifest


class TestTrainingLoop:
    def _model(self, cfg):
        return build_model(cfg.n_bins, lstm_units=cfg.lstm_unit_list,
                           fnn_hidden=cfg.fnn_hidden, context=cfg.context,
                           window=cfg.window, hop=cfg.hop,
                           variance_span=cfg.variance_span,
                           sample_rate=cfg.sample_rate, seed=cfg.seed)

    def test_last_step_gradients_released_before_the_graph_is_built(
            self, corpus, monkeypatch):
        cfg, manifest = corpus
        model = self._model(cfg)
        held = []
        build = enhancer._batch_loss

        def recording(m, segments):
            held.append(sum(p.grad is not None for p in m.parameters().values()))
            return build(m, segments)

        monkeypatch.setattr(enhancer, "_batch_loss", recording)
        train(model, manifest, cfg.replace(epochs=2), max_steps=3)
        assert held == [0, 0, 0]

    def test_zero_learning_rate_keeps_parameters(self, corpus):
        cfg, manifest = corpus
        cfg = cfg.replace(lr=1e-300)  # effectively zero; lr must be positive
        model = self._model(cfg)
        before = {k: p.values.copy() for k, p in model.parameters().items()}
        train(model, manifest, cfg, max_steps=2)
        for k, p in model.parameters().items():
            np.testing.assert_allclose(p.values, before[k], atol=1e-290)

    @pytest.mark.parametrize("framing", [dict(hop=32), dict(window=128),
                                         dict(sample_rate=8000),
                                         dict(variance_span=4)])
    def test_framing_differing_from_the_model_rejected(self, corpus, tmp_path,
                                                       framing):
        # the checkpoints would otherwise claim the model's framing for
        # weights trained on another
        cfg, manifest = corpus
        key, = framing
        with pytest.raises(ConfigError, match=f"framing differs .* {key} = "):
            train(self._model(cfg), manifest, cfg.replace(**framing),
                  out_dir=tmp_path / "run", max_steps=1)
        assert not (tmp_path / "run").exists()

    def test_same_seed_identical_history(self, corpus):
        cfg, manifest = corpus
        cfg = cfg.replace(epochs=2)
        _, h1 = train(self._model(cfg), manifest, cfg, max_steps=4)
        _, h2 = train(self._model(cfg), manifest, cfg, max_steps=4)
        assert h1 == h2
        assert len(h1) == 4

    def test_loss_decreases_on_smoke_run(self, corpus):
        cfg, manifest = corpus
        model = self._model(cfg)
        _, history = train(model, manifest, cfg.replace(epochs=30),
                           max_steps=40)
        assert np.mean(history[-5:]) < np.mean(history[:5])
        assert np.all(np.isfinite(history))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow intended
    def test_divergence_halts_with_checkpoints_on_disk(self, corpus, tmp_path):
        cfg, manifest = corpus
        model = self._model(cfg)
        out = tmp_path / "run"
        # step 0's update overflows the parameters, so step 1's loss is not
        # finite; the error numbers it as loss_history.csv numbers its rows
        with pytest.raises(NumericsError,
                           match="diverged: non-finite training loss at step 1$"):
            train(model, manifest, cfg.replace(lr=1e200, epochs=50), out_dir=out)
        assert (out / "epoch000.nkf").exists()
        rows = (out / "loss_history.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["step", "0"]

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_max_steps_below_one_rejected_before_any_step(self, corpus, tmp_path,
                                                          max_steps):
        cfg, manifest = corpus
        model = self._model(cfg)
        before = {k: p.values.copy() for k, p in model.parameters().items()}
        out = tmp_path / "never"
        with pytest.raises(DataError, match="max_steps"):
            train(model, manifest, cfg, out_dir=out, max_steps=max_steps)
        assert not out.exists()
        for k, p in model.parameters().items():
            assert np.array_equal(p.values, before[k]), k

    # training STFTs only the drawn segment's samples of each file, so the
    # whole files are compared first: a clean file that ends early or late
    # is rejected as eval rejects it
    @pytest.mark.parametrize("length", ["window-1", "window+3", "noisy+4000"])
    def test_clean_noisy_length_mismatch_rejected(self, corpus, tmp_path, length):
        cfg, manifest = corpus
        entries = []
        for e in manifest.split_entries("train"):
            clean = data_io.read_wav(e.clean_path)
            samples = {"window-1": clean.samples[:cfg.window - 1],
                       "window+3": clean.samples[:cfg.window + 3],
                       "noisy+4000": np.concatenate([clean.samples,
                                                     clean.samples[:4000]])}[length]
            path = str(tmp_path / f"{e.utt_id}.wav")
            data_io.write_wav(Waveform(samples, clean.sample_rate), path)
            entries.append(dataclasses.replace(e, clean_path=path))
        with pytest.raises(DataError, match=r"train utterance train_\d+: clean and "
                           r"noisy waveforms must have equal length, got \d+ and 8000"):
            train(self._model(cfg), data_io.CorpusManifest(entries), cfg,
                  max_steps=1)

    def test_trains_at_the_configured_sample_rate(self, tmp_path):
        cfg = _training_cfg(sample_rate=8000, train_count=2)
        manifest = data_io.synth_corpus(cfg, tmp_path)
        _, history = train(self._model(cfg), manifest, cfg, max_steps=1)
        assert len(history) == 1 and np.isfinite(history[0])

    def test_checkpoints_and_history_written(self, corpus, tmp_path):
        cfg, manifest = corpus
        out = tmp_path / "ok"
        train(self._model(cfg), manifest, cfg, out_dir=out, max_steps=2)
        assert (out / "model.nkf").exists()
        assert (out / "epoch000.nkf").exists()
        lines = (out / "loss_history.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 3


class TestEnhance:
    def test_output_length_and_grid_sanity(self):
        m = _tiny_model(seed=1)
        rng = np.random.default_rng(11)
        noisy = Waveform(0.1 * rng.standard_normal(200))
        result = enhance(m, noisy)
        assert isinstance(result, EnhancementResult)
        assert len(result.waveform) == len(noisy)
        est = result.grids
        for grid in (est.amp_lstm, est.amp_wiener, est.sigma_r2,
                     est.sigma_v2, est.gain, est.amp_out):
            assert np.all(np.isfinite(grid))
        assert np.all((est.gain >= 0) & (est.gain <= 1))

    def test_method_selects_grid(self):
        m = _tiny_model(seed=2)
        rng = np.random.default_rng(12)
        noisy = Waveform(0.1 * rng.standard_normal(200))
        wiener_out = enhance(m, noisy, method="wiener")
        lstm_out = enhance(m, noisy, method="lstm")
        nkf_out = enhance(m, noisy, method="nkf")
        assert not np.array_equal(wiener_out.waveform.samples,
                                  lstm_out.waveform.samples)
        assert not np.array_equal(nkf_out.waveform.samples,
                                  wiener_out.waveform.samples)

    def test_unknown_method(self):
        m = _tiny_model()
        with pytest.raises(DataError):
            enhance(m, Waveform(np.zeros(100)), method="magic")

    def test_converged_limits_pass_clean_input_through(self):
        # forcing the noise head to ~0 and the residual head huge drives
        # H -> 1 and the combination gain -> 1, so the output amplitude
        # equals the Wiener output equals the input amplitude
        m = _tiny_model()
        for p in m.parameters().values():
            p.values = np.zeros_like(p.values)
        m.params["fnn.b3"].values[:] = -40.0   # softplus -> ~4e-18
        m.params["head_res.b"].values[:] = 12.0  # sigma_r2 = e^12
        rng = np.random.default_rng(21)
        clean = Waveform(0.2 * np.sin(2 * np.pi * 0.07 * np.arange(300))
                         + 0.01 * rng.standard_normal(300))
        result = enhance(m, clean)
        interior = slice(m.window, 300 - m.window)
        err = np.max(np.abs(result.waveform.samples[interior]
                            - clean.samples[interior]))
        assert err < 1e-6
        np.testing.assert_allclose(result.grids.gain, 1.0, atol=1e-12)

    def test_oracle_wiener_zero_noise_identity(self):
        cfg = self._cfg()
        rng = np.random.default_rng(22)
        clean = Waveform(0.1 * rng.standard_normal(2000))
        grid_shape = (1 + (2000 - cfg.window) // cfg.hop, cfg.n_bins)
        result = enhance_wiener(clean, cfg, np.zeros(grid_shape))
        interior = slice(cfg.window, 2000 - cfg.window)
        err = np.max(np.abs(result.waveform.samples[interior]
                            - clean.samples[interior]))
        assert err < 1e-6 * np.max(np.abs(clean.samples))

    def test_oracle_wiener_grid_shape_checked(self):
        cfg = self._cfg()
        with pytest.raises(DataError):
            enhance_wiener(Waveform(np.ones(2000) * 0.1), cfg, np.zeros((3, 3)))

    @staticmethod
    def _cfg():
        return RunConfig(window=64, hop=16, utterance_seconds=0.5)

    def test_frame_estimates_validation(self):
        with pytest.raises(DataError):
            NkfFrameEstimates(amp_lstm=None, amp_wiener=None, sigma_r2=None,
                              sigma_v2=None, gain=np.array([1.5]),
                              amp_out=None)
