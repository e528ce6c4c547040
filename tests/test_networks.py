import os

import numpy as np
import pytest

from nkf import autodiff as ad
from nkf import networks
from nkf.errors import DataError, NumericsError
from nkf.networks import (LstmPredictor, NkfModel, NoiseFnn, build_model,
                          fnn_context_matrix, load_checkpoint, lstm_forward,
                          noise_fnn_forward_grid, optimizer_step,
                          save_checkpoint, NOISE_VAR_EPS)

from oracles import adam_step, noise_fnn_forward


def _zero_params(net):
    for p in net.params.values():
        p.values = np.zeros_like(p.values)


def _manual_lstm_cell(params, layer, u, x, h, c):
    """Straight textbook LSTM cell on raw ndarrays."""
    z = x @ params[f"lstm{layer}.wx"].values \
        + h @ params[f"lstm{layer}.wh"].values + params[f"lstm{layer}.b"].values

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i, f = sig(z[:u]), sig(z[u:2 * u])
    g, o = np.tanh(z[2 * u:3 * u]), sig(z[3 * u:])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


class TestLstmForward:
    def test_zero_parameters_zero_outputs(self):
        p = LstmPredictor(n_bins=6, units=(4,), rng=np.random.default_rng(0))
        _zero_params(p)
        amp, res = lstm_forward(p, np.random.default_rng(1).uniform(0, 2, (7, 6)))
        assert np.all(amp.values == 0)
        assert np.all(res.values == 0)

    def test_single_frame_equals_one_cell_step(self):
        rng = np.random.default_rng(2)
        p = LstmPredictor(n_bins=5, units=(3,), rng=rng)
        x = rng.uniform(0, 2, (1, 5))
        amp, res = lstm_forward(p, x)
        h, _ = _manual_lstm_cell(p.params, 0, 3, x[0], np.zeros(3), np.zeros(3))
        want_amp = np.maximum(
            h @ p.params["head_amp.w"].values + p.params["head_amp.b"].values, 0)
        want_res = np.clip(
            h @ p.params["head_res.w"].values + p.params["head_res.b"].values,
            -12, 12)
        np.testing.assert_allclose(amp.values[0], want_amp, atol=1e-12)
        np.testing.assert_allclose(res.values[0], want_res, atol=1e-12)

    def test_recurrence_matches_manual_two_layers(self):
        rng = np.random.default_rng(3)
        p = LstmPredictor(n_bins=4, units=(3, 2), rng=rng)
        x = rng.uniform(0, 2, (6, 4))
        amp, _ = lstm_forward(p, x)
        h1, c1 = np.zeros(3), np.zeros(3)
        h2, c2 = np.zeros(2), np.zeros(2)
        tops = []
        for t in range(6):
            h1, c1 = _manual_lstm_cell(p.params, 0, 3, x[t], h1, c1)
            h2, c2 = _manual_lstm_cell(p.params, 1, 2, h1, h2, c2)
            tops.append(h2)
        want = np.maximum(
            np.stack(tops) @ p.params["head_amp.w"].values
            + p.params["head_amp.b"].values, 0)
        np.testing.assert_allclose(amp.values, want, atol=1e-12)

    def test_causality(self):
        rng = np.random.default_rng(4)
        p = LstmPredictor(n_bins=4, units=(3,), rng=rng)
        x = rng.uniform(0, 2, (8, 4))
        amp0, res0 = lstm_forward(p, x)
        x2 = x.copy()
        x2[5] += 1.0
        amp1, res1 = lstm_forward(p, x2)
        np.testing.assert_array_equal(amp0.values[:5], amp1.values[:5])
        np.testing.assert_array_equal(res0.values[:5], res1.values[:5])
        assert not np.array_equal(amp0.values[5:], amp1.values[5:])

    def test_outputs_respect_ranges(self):
        rng = np.random.default_rng(5)
        p = LstmPredictor(n_bins=4, units=(3,), rng=rng)
        # inflate the residual head so the clamp actually engages
        p.params["head_res.w"].values *= 1e4
        amp, res = lstm_forward(p, rng.uniform(0, 5, (20, 4)))
        assert np.all(amp.values >= 0)
        assert np.all(np.abs(res.values) <= 12)

    def test_dimension_mismatch(self):
        p = LstmPredictor(n_bins=4, units=(3,))
        with pytest.raises(DataError):
            lstm_forward(p, np.zeros((5, 7)))

    def test_forget_gate_bias_init(self):
        p = LstmPredictor(n_bins=4, units=(3,), rng=np.random.default_rng(0))
        b = p.params["lstm0.b"].values
        np.testing.assert_array_equal(b[3:6], 1.0)
        np.testing.assert_array_equal(b[:3], 0.0)
        np.testing.assert_array_equal(b[6:], 0.0)


class TestNoiseFnn:
    def test_zero_parameters_give_softplus_zero(self):
        n = NoiseFnn(n_bins=5, context=3, hidden=4)
        _zero_params(n)
        out = noise_fnn_forward(n, np.zeros(15), np.zeros(5))
        np.testing.assert_allclose(out.values, np.log(2.0) + NOISE_VAR_EPS)

    def test_strictly_positive_for_random_parameters(self):
        rng = np.random.default_rng(6)
        for draw in range(10000):
            # cheap draw: rescale one shared network rather than rebuilding
            if draw % 100 == 0:
                n = NoiseFnn(n_bins=3, context=2, hidden=4,
                             rng=np.random.default_rng(draw))
            x = rng.uniform(-5, 5, 6)
            s = rng.uniform(0, 5, 3)
            assert np.all(noise_fnn_forward(n, x, s).values > 0)

    def test_grid_matches_per_frame_loop(self):
        rng = np.random.default_rng(7)
        n = NoiseFnn(n_bins=4, context=3, hidden=5, rng=rng)
        amp = rng.uniform(0, 3, (6, 4))
        sigma_y2 = rng.uniform(0, 2, (6, 4))
        grid = noise_fnn_forward_grid(n, amp, sigma_y2)
        ctx = fnn_context_matrix(amp, 3)
        for t in range(6):
            row = noise_fnn_forward(n, ctx[t], sigma_y2[t])
            np.testing.assert_allclose(grid.values[t], row.values, atol=1e-12)

    def test_context_matrix_repeats_first_frame(self):
        amp = np.arange(8.0).reshape(4, 2)
        ctx = fnn_context_matrix(amp, 3)
        # frame 0 sees itself three times
        np.testing.assert_array_equal(ctx[0], [0, 1, 0, 1, 0, 1])
        # frame 2 sees frames 0,1,2 oldest first
        np.testing.assert_array_equal(ctx[2], [0, 1, 2, 3, 4, 5])

    def test_gradient_matches_finite_differences(self):
        # seed chosen so every hidden unit is live and no ReLU preactivation
        # sits within finite-difference reach of its kink
        rng = np.random.default_rng(19)
        n = NoiseFnn(n_bins=3, context=2, hidden=8, rng=rng)
        amp = rng.uniform(0.1, 2, (5, 3))
        sigma_y2 = rng.uniform(0.1, 2, (5, 3))
        target = rng.uniform(0.1, 1, (5, 3))

        def loss_value():
            with ad.no_grad():
                out = noise_fnn_forward_grid(n, amp, sigma_y2)
                return float(ad.mean_square(out, ad.lift(target)).values)

        for p in n.params.values():
            p.grad = None
        ad.mean_square(noise_fnn_forward_grid(n, amp, sigma_y2),
                       ad.lift(target)).backward()
        step = 1e-5
        for name, p in n.params.items():
            analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
            flat = p.values.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + step
                up = loss_value()
                flat[i] = saved - step
                down = loss_value()
                flat[i] = saved
                numeric = (up - down) / (2 * step)
                a = analytic.reshape(-1)[i]
                assert abs(a - numeric) / max(abs(a), abs(numeric), 1e-6) < 1e-5

    def test_dimension_mismatch(self):
        n = NoiseFnn(n_bins=3, context=2, hidden=4)
        with pytest.raises(DataError):
            noise_fnn_forward(n, np.zeros(5), np.zeros(3))


class TestOptimizer:
    def _tiny_model(self, seed=0):
        return build_model(3, lstm_units=(2,), fnn_hidden=3, context=2,
                           window=4, hop=2, seed=seed)

    def test_zero_gradients_leave_parameters(self):
        m = self._tiny_model()
        before = {k: p.values.copy() for k, p in m.parameters().items()}
        grads = {k: np.zeros_like(p.values) for k, p in m.parameters().items()}
        optimizer_step(m, grads, lr=1e-3)
        assert m.adam_step == 1
        for k, p in m.parameters().items():
            np.testing.assert_array_equal(p.values, before[k])

    def test_first_step_is_bias_corrected(self):
        # one Adam step with constant unit gradient from zero moves the
        # parameter by -lr / (1 + eps), essentially -lr
        m = self._tiny_model()
        name = "head_amp.b"
        m.parameters()[name].values[:] = 0.0
        grads = {k: np.zeros_like(p.values) for k, p in m.parameters().items()}
        grads[name] = np.ones_like(grads[name])
        optimizer_step(m, grads, lr=1e-3)
        np.testing.assert_allclose(m.parameters()[name].values, -1e-3, rtol=1e-7)

    def test_identical_models_stay_identical(self):
        m1, m2 = self._tiny_model(3), self._tiny_model(3)
        rng = np.random.default_rng(9)
        grads = {k: rng.standard_normal(p.values.shape)
                 for k, p in m1.parameters().items()}
        optimizer_step(m1, dict(grads), lr=1e-3)
        optimizer_step(m2, dict(grads), lr=1e-3)
        for k in m1.parameters():
            np.testing.assert_array_equal(m1.parameters()[k].values,
                                          m2.parameters()[k].values)

    def test_in_place_update_matches_out_of_place_expressions(self):
        m = self._tiny_model(5)
        want = {k: (p.values.copy(), np.zeros_like(p.values),
                    np.zeros_like(p.values)) for k, p in m.parameters().items()}
        rng = np.random.default_rng(13)
        for t, lr in enumerate((1e-3, 1e-3, 3e-2, 1e-4, 1e-3), start=1):
            grads = {k: rng.standard_normal(p.values.shape) * 10.0 ** rng.integers(-6, 3)
                     for k, p in m.parameters().items()}
            optimizer_step(m, grads, lr=lr)
            for k, p in m.parameters().items():
                want[k] = adam_step(*want[k], grads[k], t, lr=lr)
                assert np.array_equal(p.values, want[k][0]), k
                assert np.array_equal(m.adam_m[k], want[k][1]), k
                assert np.array_equal(m.adam_v[k], want[k][2]), k

    def test_nonfinite_gradient_raises(self):
        m = self._tiny_model()
        grads = {k: np.zeros_like(p.values) for k, p in m.parameters().items()}
        optimizer_step(m, grads)
        before = {k: p.values.copy() for k, p in m.parameters().items()}
        # the first parameter in declared order is named, with the step
        grads["head_amp.b"][0] = np.nan
        grads["fnn.w3"][0, 0] = np.inf
        with pytest.raises(NumericsError, match=r"diverged: non-finite gradient "
                           r"for head_amp\.b at Adam step 2$"):
            optimizer_step(m, grads)
        assert m.adam_step == 1
        for k, p in m.parameters().items():
            assert np.array_equal(p.values, before[k]), k


class TestDeterminismAndCheckpoints:
    def test_same_seed_same_bits(self):
        m1 = build_model(9, lstm_units=(4, 4), fnn_hidden=6, context=3, seed=42)
        m2 = build_model(9, lstm_units=(4, 4), fnn_hidden=6, context=3, seed=42)
        for k in m1.parameters():
            np.testing.assert_array_equal(m1.parameters()[k].values,
                                          m2.parameters()[k].values)
        rng = np.random.default_rng(10)
        amp = rng.uniform(0, 2, (5, 9))
        with ad.no_grad():
            a1, _ = lstm_forward(m1.predictor, amp)
            a2, _ = lstm_forward(m2.predictor, amp)
        np.testing.assert_array_equal(a1.values, a2.values)

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        m = build_model(9, lstm_units=(4, 3), fnn_hidden=6, context=3,
                        window=16, hop=4, variance_span=7, log_features=True,
                        seed=11)
        # dirty the optimizer state so it is exercised too
        rng = np.random.default_rng(12)
        grads = {k: rng.standard_normal(p.values.shape)
                 for k, p in m.parameters().items()}
        optimizer_step(m, grads)
        path = tmp_path / "model.nkf"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.window == 16 and loaded.hop == 4
        assert loaded.variance_span == 7 and loaded.log_features is True
        assert loaded.adam_step == 1
        assert loaded.predictor.units == (4, 3)
        assert loaded.noise_net.context == 3
        for k, p in m.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[k].values, p.values)
            np.testing.assert_array_equal(loaded.adam_m[k], m.adam_m[k])
            np.testing.assert_array_equal(loaded.adam_v[k], m.adam_v[k])
        # and the file itself is stable: resaving produces identical bytes
        path2 = tmp_path / "model2.nkf"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nkf"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        m = build_model(5, lstm_units=(2,), fnn_hidden=3, context=2, seed=0)
        path = tmp_path / "model.nkf"
        save_checkpoint(m, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("moment", ["adam_m", "adam_v"])
    def test_moment_shape_mismatch_rejected(self, tmp_path, moment):
        m = build_model(5, lstm_units=(2,), fnn_hidden=3, context=2, seed=0)
        getattr(m, moment)["fnn.b3"] = np.zeros(7)   # fnn.b3 has shape (5,)
        path = tmp_path / "model.nkf"
        save_checkpoint(m, path)
        with pytest.raises(DataError, match=rf"malformed checkpoint: shape "
                           rf"mismatch for {moment}\.fnn\.b3$"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.nkf"
        save_checkpoint(build_model(5, lstm_units=(2,), fnn_hidden=3, context=2,
                                    seed=0), path)
        before = path.read_bytes()
        assert os.listdir(tmp_path) == ["model.nkf"]

        real_pack = networks._pack_tensor
        packed = []

        def pack_then_fail(name, arr):
            # header and five tensors reach the temporary file, then the write fails
            if len(packed) == 5:
                assert len(os.listdir(tmp_path)) == 2   # the partial temporary file
                raise OSError("disk full")
            packed.append(name)
            return real_pack(name, arr)

        monkeypatch.setattr(networks, "_pack_tensor", pack_then_fail)
        newer = build_model(5, lstm_units=(2,), fnn_hidden=3, context=2, seed=1)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(newer, path)
        assert len(packed) == 5
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.nkf"]
