import os
import struct
import tracemalloc

import numpy as np
import pytest

from nkf import autodiff as ad
from nkf import networks
from nkf.errors import ConfigError, DataError, NumericsError
from nkf.networks import (build_model, add_first_layer_gradient, fnn_features,
                          load_checkpoint, lstm_forward, noise_fnn_forward_grid,
                          optimizer_step, save_checkpoint, NOISE_VAR_EPS)
from nkf.enhancer import _batch_loss
from nkf.signal_core import block_bounds

from oracles import (adam_step, init_params, load_checkpoint_seeking, noise_fnn_forward,
                     noise_fnn_forward_grid_composed, reference_model,
                     save_checkpoint_copying, w1_grad_per_tap)


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
        p = reference_model(6, units=(4,), lstm_rng=np.random.default_rng(0))
        _zero_params(p)
        amp, res, _ = lstm_forward(p, np.random.default_rng(1).uniform(0, 2, (1, 7, 6)))
        assert np.all(amp.values == 0)
        assert np.all(res.values == 0)

    def test_single_frame_equals_one_cell_step(self):
        rng = np.random.default_rng(2)
        p = reference_model(5, units=(3,), lstm_rng=rng)
        x = rng.uniform(0, 2, (1, 5))
        amp, res, _ = lstm_forward(p, x[None])
        h, _ = _manual_lstm_cell(p.params, 0, 3, x[0], np.zeros(3), np.zeros(3))
        want_amp = np.maximum(
            h @ p.params["head_amp.w"].values + p.params["head_amp.b"].values, 0)
        want_res = np.clip(
            h @ p.params["head_res.w"].values + p.params["head_res.b"].values,
            -12, 12)
        np.testing.assert_allclose(amp.values[0, 0], want_amp, atol=1e-12)
        np.testing.assert_allclose(res.values[0, 0], want_res, atol=1e-12)

    def test_recurrence_matches_manual_two_layers(self):
        rng = np.random.default_rng(3)
        p = reference_model(4, units=(3, 2), lstm_rng=rng)
        x = rng.uniform(0, 2, (6, 4))
        amp, _, _ = lstm_forward(p, x[None])
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
        np.testing.assert_allclose(amp.values[0], want, atol=1e-12)

    def test_causality(self):
        rng = np.random.default_rng(4)
        p = reference_model(4, units=(3,), lstm_rng=rng)
        x = rng.uniform(0, 2, (8, 4))
        amp0, res0, _ = lstm_forward(p, x[None])
        x2 = x.copy()
        x2[5] += 1.0
        amp1, res1, _ = lstm_forward(p, x2[None])
        np.testing.assert_array_equal(amp0.values[0, :5], amp1.values[0, :5])
        np.testing.assert_array_equal(res0.values[0, :5], res1.values[0, :5])
        assert not np.array_equal(amp0.values[0, 5:], amp1.values[0, 5:])

    def test_outputs_respect_ranges(self):
        rng = np.random.default_rng(5)
        p = reference_model(4, units=(3,), lstm_rng=rng)
        # inflate the residual head so the clamp actually engages
        p.params["head_res.w"].values *= 1e4
        amp, res, _ = lstm_forward(p, rng.uniform(0, 5, (1, 20, 4)))
        assert np.all(amp.values >= 0)
        assert np.all(np.abs(res.values) <= 12)

    def test_dimension_mismatch(self):
        p = reference_model(4, units=(3,))
        with pytest.raises(DataError):
            lstm_forward(p, np.zeros((1, 5, 7)))
        with pytest.raises(DataError, match="B x T x 4"):   # one unbatched sequence
            lstm_forward(p, np.zeros((5, 4)))

    def test_forget_gate_bias_init(self):
        p = build_model(4, lstm_units=(3,), fnn_hidden=1, context=1)
        b = p.params["lstm0.b"].values
        np.testing.assert_array_equal(b[3:6], 1.0)
        np.testing.assert_array_equal(b[:3], 0.0)
        np.testing.assert_array_equal(b[6:], 0.0)


FNN_PARAMS = ("fnn.w1", "fnn.b1", "fnn.w2", "fnn.b2", "fnn.w3", "fnn.b3")


def _first_layer_against_oracle(n_bins, hidden, lo, hi):
    """Value and gradients of the noise net and of its composed oracle on
    rows lo..hi-1 of a 1400-frame grid, context 30."""
    rng = np.random.default_rng(29)
    amp, sigma_y2 = rng.uniform(0, 3, (2, 1400, n_bins))
    target = rng.uniform(0, 1, ((1400 if hi is None else hi) - lo, n_bins))
    results = []
    for forward in (noise_fnn_forward_grid, noise_fnn_forward_grid_composed):
        m = build_model(n_bins, lstm_units=(2,), fnn_hidden=hidden, context=30, seed=4)
        out = forward(m, amp, sigma_y2, lo, hi)
        ad.mean_square(out, ad.lift(target)).backward()
        results.append((out.values, m.gradients()))
    return results


class TestNoiseFnn:
    def test_zero_parameters_give_softplus_zero(self):
        n = reference_model(5, context=3, hidden=4)
        _zero_params(n)
        out = noise_fnn_forward(n, np.zeros(15), np.zeros(5))
        np.testing.assert_allclose(out.values, np.log(2.0) + NOISE_VAR_EPS)

    def test_strictly_positive_for_random_parameters(self):
        rng = np.random.default_rng(6)
        for draw in range(10000):
            # cheap draw: rescale one shared network rather than rebuilding
            if draw % 100 == 0:
                n = reference_model(3, context=2, hidden=4,
                                    fnn_rng=np.random.default_rng(draw))
            x = rng.uniform(-5, 5, 6)
            s = rng.uniform(0, 5, 3)
            assert np.all(noise_fnn_forward(n, x, s).values > 0)

    def test_grid_matches_per_frame_loop(self):
        rng = np.random.default_rng(7)
        n = reference_model(4, context=3, hidden=5, fnn_rng=rng)
        amp = rng.uniform(0, 3, (6, 4))
        sigma_y2 = rng.uniform(0, 2, (6, 4))
        grid = noise_fnn_forward_grid(n, amp, sigma_y2)
        features = fnn_features(amp, sigma_y2, 3)
        for t in range(6):
            row = noise_fnn_forward(n, features[t, :12], sigma_y2[t])
            np.testing.assert_allclose(grid.values[t], row.values, atol=1e-12)

    @pytest.mark.parametrize("lo, hi", [(0, None), (0, 1), (0, 300), (1, 2),
                                        (5, 40), (256, 300), (299, 300),
                                        (5, 1030), (300, 1324), (700, 1400)])
    def test_first_layer_node_matches_composed_oracle(self, lo, hi):
        # value and every fnn gradient bit for bit at the desk preset's widths,
        # over whole grids and row ranges whose context reaches back past lo
        # (context 30 > lo = 5), in one forward block and in several (ranges
        # of 512 rows or more)
        (got, got_grads), (want, want_grads) = _first_layer_against_oracle(
            129, 128, lo, hi)
        assert got.shape == ((1400 if hi is None else hi) - lo, 129)
        np.testing.assert_array_equal(got, want)
        for name in FNN_PARAMS:
            np.testing.assert_array_equal(got_grads[name], want_grads[name])

    def test_first_layer_gradient_at_narrow_widths_within_rounding(self):
        # at F = 9, H = 16 a per-tap w1 product over more than 384 frames
        # has few enough multiply-adds (F·H·T <= 1e6) for OpenBLAS's
        # small-matrix kernel, which sums in another order than the blocked
        # kernel of the whole feature product: w1's gradient may differ in
        # the last bits; everything else is bit for bit
        (got, got_grads), (want, want_grads) = _first_layer_against_oracle(
            9, 16, 0, None)
        np.testing.assert_array_equal(got, want)
        for name in FNN_PARAMS:
            scale = np.abs(want_grads[name]).max()
            np.testing.assert_allclose(got_grads[name], want_grads[name],
                                       rtol=1e-13, atol=1e-13 * scale)
            if name != "fnn.w1":
                np.testing.assert_array_equal(got_grads[name], want_grads[name])

    @pytest.mark.parametrize("n_rows, n_bins, hidden, context, lo", [
        (256, 129, 128, 30, 0), (147, 129, 128, 30, 0), (31, 129, 128, 30, 0),
        (1, 129, 128, 30, 0), (700, 129, 128, 30, 0), (997, 129, 128, 30, 0),
        (1324, 129, 128, 30, 0), (2048, 129, 1024, 30, 0), (32, 129, 1024, 30, 0),
        (1400, 9, 16, 30, 0), (500, 9, 16, 30, 0), (5, 4, 8, 3, 0), (300, 129, 128, 1, 0),
        (300, 129, 128, 30, 5), (700, 9, 16, 30, 700), (500, 9, 16, 30, 13)])
    def test_w1_gradient_batched_matches_per_tap_loop(self, n_rows, n_bins, hidden,
                                                      context, lo):
        # batched products over the taps' shifted views, 4 taps at a time,
        # added into zeros, are the per-tap loop bit for bit, at both presets'
        # widths, at the narrow widths where a tap over more than 384 rows
        # takes OpenBLAS's small-matrix kernel, and on ranges whose context
        # reaches back past lo or not (context 30, 3 and 1: several products
        # and a short last one, or one short product)
        rng = np.random.default_rng(n_rows + lo)
        amp, sigma_y2 = rng.uniform(0, 3, (2, lo + n_rows, n_bins))
        g = rng.standard_normal((n_rows, hidden))
        rows = networks._context_rows(amp, context, lo, lo + n_rows)
        got = np.zeros(((context + 1) * n_bins, hidden))
        add_first_layer_gradient(rows, sigma_y2[lo:], g, got,
                                 np.empty((4, n_bins, hidden)))
        np.testing.assert_array_equal(got, w1_grad_per_tap(rows, sigma_y2[lo:], g))

    @pytest.mark.parametrize("lo, hi", [(-1, 10), (5, 3), (0, 50), (38, 60), (10, 10)])
    def test_row_range_is_checked(self, lo, hi):
        m = build_model(4, lstm_units=(2,), fnn_hidden=3, context=30, seed=0)
        amp = np.ones((40, 4))
        with pytest.raises(DataError, match=f"lo = {lo}, hi = {hi} .*T = 40"):
            noise_fnn_forward_grid(m, amp, amp, lo, hi)

    def test_features_formed_per_forward_block_never_in_backward(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[3:5])
            return fnn_features(*args)

        monkeypatch.setattr(networks, "fnn_features", counted)
        rng = np.random.default_rng(3)
        amp, sigma_y2 = rng.uniform(0, 3, (2, 1024, 5))
        m = build_model(5, lstm_units=(2,), fnn_hidden=4, context=30, seed=0)
        out = noise_fnn_forward_grid(m, amp, sigma_y2)
        assert calls == block_bounds(1024)
        calls.clear()
        ad.mean_square(out, ad.lift(np.zeros_like(out.values))).backward()
        assert calls == [] and m.params["fnn.w1"].grad.any()

    @pytest.mark.parametrize("n_frames", [1, 2, 3, 7])
    def test_features_match_index_gather(self, n_frames):
        # fewer frames than the context window repeat frame 0 throughout;
        # the running variance of frame t fills the last F columns of row t
        rng = np.random.default_rng(n_frames)
        amp, sigma_y2 = rng.uniform(0, 3, (2, n_frames, 4))
        idx = np.maximum(np.arange(n_frames)[:, None] - np.arange(2, -1, -1), 0)
        features = fnn_features(amp, sigma_y2, 3)
        assert features.shape == (n_frames, 16)
        np.testing.assert_array_equal(features[:, :12], amp[idx].reshape(n_frames, 12))
        np.testing.assert_array_equal(features[:, 12:], sigma_y2)

    @pytest.mark.parametrize("n_frames, lo, hi", [
        (40, 0, 5), (40, 3, 40), (40, 28, 31), (40, 29, 40), (90, 0, 90), (90, 50, 90)])
    def test_row_range_features_match_index_gather(self, n_frames, lo, hi):
        # rows before frame 29 read frame 0 repeated, the others only the grid
        rng = np.random.default_rng(n_frames + lo)
        amp, sigma_y2 = rng.uniform(0, 3, (2, n_frames, 4))
        idx = np.maximum(np.arange(lo, hi)[:, None] - np.arange(29, -1, -1), 0)
        features = fnn_features(amp, sigma_y2, 30, lo, hi)
        np.testing.assert_array_equal(features[:, :120], amp[idx].reshape(hi - lo, 120))
        np.testing.assert_array_equal(features[:, 120:], sigma_y2[lo:hi])

    def test_context_matrix_repeats_first_frame(self):
        amp = np.arange(8.0).reshape(4, 2)
        features = fnn_features(amp, -amp, 3)
        # frame 0 sees itself three times
        np.testing.assert_array_equal(features[0], [0, 1, 0, 1, 0, 1, 0, -1])
        # frame 2 sees frames 0,1,2 oldest first
        np.testing.assert_array_equal(features[2], [0, 1, 2, 3, 4, 5, -4, -5])

    def test_gradient_matches_finite_differences(self):
        # seed chosen so every hidden unit is live and no ReLU preactivation
        # sits within finite-difference reach of its kink
        rng = np.random.default_rng(19)
        n = reference_model(3, context=2, hidden=8, fnn_rng=rng)
        amp = rng.uniform(0.1, 2, (5, 3))
        sigma_y2 = rng.uniform(0.1, 2, (5, 3))
        target = rng.uniform(0.1, 1, (5, 3))

        def loss_value():
            with ad.no_grad():
                out = noise_fnn_forward_grid(n, amp, sigma_y2)
                return float(ad.mean_square(out, ad.lift(target)).values)

        n.zero_grad()
        ad.mean_square(noise_fnn_forward_grid(n, amp, sigma_y2),
                       ad.lift(target)).backward()
        step = 1e-5
        for name, p in n.params.items():
            if not name.startswith("fnn."):
                continue
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
        n = reference_model(3, context=2, hidden=4)
        with pytest.raises(DataError):
            noise_fnn_forward(n, np.zeros(5), np.zeros(3))


class TestArena:
    """Four flat arrays hold every parameter's values, gradient and Adam
    moments in declared order; each parameter's ``values`` and ``grad`` are
    views of the first two at a fixed offset, never reallocated."""

    @pytest.mark.parametrize("units, hidden, size", [
        ((64, 64), 128, 644_611), ((1024, 1024), 1024, 18_661_763)], ids=["desk", "full"])
    def test_views_tile_the_arenas_in_declared_order(self, units, hidden, size):
        # the full preset's arenas are never written here, so never resident
        m = networks.NkfModel(n_bins=129, units=units, context=30, hidden=hidden,
                              window=256, hop=64, variance_span=20, sample_rate=16000,
                              log_features=False)
        assert [a.shape for a in (m.values, m.grads, m.adam_m, m.adam_v)] == [(size,)] * 4
        shapes = networks._param_shapes(129, units, 30, hidden)
        assert list(m.params) == list(m.layout) == list(shapes)
        at = 0
        for (name, p), (start, shape) in zip(m.params.items(), m.layout.values()):
            assert (start, shape) == (at, shapes[name])
            for view, arena in ((p.values, m.values), (p.grad, m.grads)):
                assert view.shape == shape and np.shares_memory(view, arena)
                assert view.ctypes.data == arena.ctypes.data + 8 * start
            at += p.values.size
        assert at == size

    def test_three_desk_steps_keep_every_gradient_view(self):
        # the same grad views of one arena throughout, zero_grad allocates no
        # array (its loop over the parameters' flags takes a Python iterator),
        # and a NaN planted in one view stops the next Adam step, named with
        # the step, before anything moves
        m = build_model(129, seed=0)
        rng = np.random.default_rng(3)
        segments = [tuple(rng.uniform(0.1, 2.0, (2, n, 129))) for n in (64, 40)]
        arena, views = m.grads, [p.grad for p in m.params.values()]
        for _ in range(3):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                m.zero_grad()
                grown = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert grown < 2 ** 10 and not arena.any()
            _batch_loss(m, segments).backward()
            optimizer_step(m)
            assert m.grads is arena and arena.any()
            assert all(p.grad is view for p, view in zip(m.params.values(), views))
        before = [a.copy() for a in (m.values, m.adam_m, m.adam_v)]
        m.gradients()["lstm1.wh"][5, 7] = np.nan
        with pytest.raises(NumericsError, match=r"non-finite gradient for lstm1\.wh "
                           r"at Adam step 4$"):
            optimizer_step(m)
        assert m.adam_step == 3
        for now, then in zip((m.values, m.adam_m, m.adam_v), before):
            assert np.array_equal(now, then)


def _set_gradients(m, grads):
    """Write ``grads`` (name -> array) into the model's gradient views."""
    for name, view in m.gradients().items():
        view[...] = grads[name]


class TestOptimizer:
    def _tiny_model(self, seed=0):
        return build_model(3, lstm_units=(2,), fnn_hidden=3, context=2,
                           window=4, hop=2, seed=seed)

    def test_zero_gradients_leave_parameters(self):
        m = self._tiny_model()
        before = {k: p.values.copy() for k, p in m.parameters().items()}
        optimizer_step(m, lr=1e-3)
        assert m.adam_step == 1
        for k, p in m.parameters().items():
            np.testing.assert_array_equal(p.values, before[k])

    def test_first_step_is_bias_corrected(self):
        # one Adam step with constant unit gradient from zero moves the
        # parameter by -lr / (1 + eps), essentially -lr
        m = self._tiny_model()
        name = "head_amp.b"
        m.parameters()[name].values[:] = 0.0
        m.gradients()[name][:] = 1.0
        optimizer_step(m, lr=1e-3)
        np.testing.assert_allclose(m.parameters()[name].values, -1e-3, rtol=1e-7)

    def test_identical_models_stay_identical(self):
        m1, m2 = self._tiny_model(3), self._tiny_model(3)
        rng = np.random.default_rng(9)
        grads = {k: rng.standard_normal(p.values.shape)
                 for k, p in m1.parameters().items()}
        for m in (m1, m2):
            _set_gradients(m, grads)
            optimizer_step(m, lr=1e-3)
        for k in m1.parameters():
            np.testing.assert_array_equal(m1.parameters()[k].values,
                                          m2.parameters()[k].values)

    def _assert_matches_out_of_place_expressions(self, m, steps, seed):
        want = {k: (p.values.copy(), np.zeros_like(p.values),
                    np.zeros_like(p.values)) for k, p in m.parameters().items()}
        rng = np.random.default_rng(seed)
        for t, lr in enumerate(steps, start=1):
            grads = {k: rng.standard_normal(p.values.shape) * 10.0 ** rng.integers(-6, 3)
                     for k, p in m.parameters().items()}
            _set_gradients(m, grads)
            optimizer_step(m, lr=lr)
            moments = m.views(m.adam_m), m.views(m.adam_v)
            for k, p in m.parameters().items():
                want[k] = adam_step(*want[k], grads[k], t, lr=lr)
                assert np.array_equal(p.values, want[k][0]), k
                assert np.array_equal(moments[0][k], want[k][1]), k
                assert np.array_equal(moments[1][k], want[k][2]), k

    def test_in_place_update_matches_out_of_place_expressions(self):
        self._assert_matches_out_of_place_expressions(
            self._tiny_model(5), (1e-3, 1e-3, 3e-2, 1e-4, 1e-3), 13)

    def test_nonfinite_gradient_raises(self):
        m = self._tiny_model()
        optimizer_step(m)
        before = {k: p.values.copy() for k, p in m.parameters().items()}
        # the first parameter in declared order is named, with the step
        m.gradients()["head_amp.b"][0] = np.nan
        m.gradients()["fnn.w3"][0, 0] = np.inf
        with pytest.raises(NumericsError, match=r"diverged: non-finite gradient "
                           r"for head_amp\.b at Adam step 2$"):
            optimizer_step(m)
        assert m.adam_step == 1
        for k, p in m.parameters().items():
            assert np.array_equal(p.values, before[k]), k

    @staticmethod
    def _model_over_chunks(seed=0):
        # 73,203 parameters: two whole _ADAM_CHUNK blocks, both ending inside
        # fnn.w1, and a tail that holds fnn.b3, the last parameter
        m = build_model(129, lstm_units=(8,), fnn_hidden=16, context=30, seed=seed)
        assert 2 * networks._ADAM_CHUNK < m.grads.size < 3 * networks._ADAM_CHUNK
        return m

    def test_chunked_update_matches_out_of_place_expressions(self):
        self._assert_matches_out_of_place_expressions(
            self._model_over_chunks(2), (1e-3, 3e-2, 1e-4), 17)

    def _snapshot(self, m):
        return [a.copy() for a in (m.values, m.adam_m, m.adam_v)]

    def _assert_unmoved(self, m, before, step):
        assert m.adam_step == step
        for now, then in zip((m.values, m.adam_m, m.adam_v), before):
            assert np.array_equal(now, then)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_in_last_block_of_last_parameter_moves_nothing(self, bad):
        m = self._model_over_chunks()
        _set_gradients(m, {k: np.random.default_rng(4).standard_normal(p.values.shape)
                           for k, p in m.parameters().items()})
        optimizer_step(m)
        before = self._snapshot(m)
        m.gradients()["fnn.b3"][-1] = bad
        with pytest.raises(NumericsError, match=r"non-finite gradient for fnn\.b3 "
                           r"at Adam step 2$"):
            optimizer_step(m)
        self._assert_unmoved(m, before, 1)

    def test_transient_memory_is_a_few_blocks(self):
        m = build_model(129, seed=0)   # the desk preset: 644,611 parameters
        m.grads[:] = np.random.default_rng(6).standard_normal(m.grads.size)
        optimizer_step(m)   # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            optimizer_step(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two work blocks of float64, plus bookkeeping; one temporary the
        # size of an arena would be 4.9 MiB
        assert peak - base <= 3 * networks._ADAM_CHUNK * 8


#: (``build_model`` arguments, whether Adam has stepped) of the checkpoints
#: that both writers, and both readers, must agree on
_CHECKPOINT_SHAPES = [
    pytest.param(dict(n_bins=129, lstm_units=(64, 64), fnn_hidden=128, context=30), False,
                 id="desk"),
    pytest.param(dict(n_bins=5, lstm_units=(2,), fnn_hidden=3, context=2), False,
                 id="one-layer"),
    pytest.param(dict(n_bins=7, lstm_units=(5, 3, 4), fnn_hidden=6, context=4), False,
                 id="three-layers"),
    pytest.param(dict(n_bins=5, lstm_units=(3,), fnn_hidden=4, context=2, window=8, hop=4,
                      log_features=True), False, id="log-features"),
    pytest.param(dict(n_bins=9, lstm_units=(4, 3), fnn_hidden=6, context=3,
                      variance_span=7), True, id="adam-step"),
]


def _add_one(blob, at):
    """``blob`` with one added to its u32 at ``at``."""
    blob = bytearray(blob)
    struct.pack_into("<I", blob, at, struct.unpack_from("<I", blob, at)[0] + 1)
    return bytes(blob)


def _duplicate_b3(blob):
    # one more tensor in the count, after one LSTM layer, and a second fnn.b3
    b3 = np.full(5, 123.0, "<f8")
    return (_add_one(blob, len(b"NKFCKPT1") + 4 + 7 * 4 + 1 + 4 + 4 + 8)
            + networks._pack_tensor("fnn.b3", b3) + b3.tobytes())


def _huge_shape(blob):
    # four dimensions of 2^32 - 1 for lstm0.wx: the product overflows 64 bits
    at = blob.index(b"lstm0.wx") + len(b"lstm0.wx")
    return blob[:at] + struct.pack("<B4I", 4, *[2**32 - 1] * 4) + blob[at + 9:]


def _misshaped(moment):
    def corrupt(blob):   # the moment record of fnn.b3, shape (5,), made (7,)
        blob = bytearray(blob)
        at = blob.index(f"{moment}.fnn.b3".encode()) + len(f"{moment}.fnn.b3") + 1
        struct.pack_into("<I", blob, at, 7)
        blob[at + 4 + 5 * 8:at + 4 + 5 * 8] = bytes(2 * 8)
        return bytes(blob)
    return corrupt


def _swap_records(blob):
    # lstm0.b's record and head_amp.w's, the next one, traded places
    a, b, c = (blob.index(networks._pack_tensor(name, np.empty(shape))) for name, shape in
               (("lstm0.b", (8,)), ("head_amp.w", (2, 5)), ("head_amp.b", (5,))))
    return blob[:a] + blob[b:c] + blob[a:b] + blob[c:]


#: the malformed files that the tests of ``TestDeterminismAndCheckpoints``
#: make from a one-layer model's checkpoint; None stands for no file at all
_MALFORMED = {
    "bad-magic": lambda blob: b"NOTACKPT" + b"\0" * 64,
    "truncated": lambda blob: blob[:40],
    "n_bins": lambda blob: _add_one(blob, 24),
    "context": lambda blob: _add_one(blob, 28),
    "fnn_hidden": lambda blob: _add_one(blob, 36),
    "units": lambda blob: _add_one(blob, 45),
    "trailing-garbage": lambda blob: blob + bytes(range(24)),
    "trailing-copy": lambda blob: blob + blob,
    "duplicate": _duplicate_b3,
    "missing": lambda blob: None,
    "huge-shape": _huge_shape,
    "non-utf8": lambda blob: blob.replace(b"lstm0.wx", b"\xfflstm0.x", 1),
    "adam_m-shape": _misshaped("adam_m"),
    "adam_v-shape": _misshaped("adam_v"),
}


class TestDeterminismAndCheckpoints:
    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            build_model(9, lstm_units=(4,), fnn_hidden=6, context=3, seed=-1)

    def test_same_seed_same_bits(self):
        m1 = build_model(9, lstm_units=(4, 4), fnn_hidden=6, context=3, seed=42)
        m2 = build_model(9, lstm_units=(4, 4), fnn_hidden=6, context=3, seed=42)
        for k in m1.parameters():
            np.testing.assert_array_equal(m1.parameters()[k].values,
                                          m2.parameters()[k].values)
        rng = np.random.default_rng(10)
        amp = rng.uniform(0, 2, (1, 5, 9))
        with ad.no_grad():
            a1, _, _ = lstm_forward(m1, amp)
            a2, _, _ = lstm_forward(m2, amp)
        np.testing.assert_array_equal(a1.values, a2.values)

    @pytest.mark.parametrize("shape", [
        dict(n_bins=9, lstm_units=(4, 4), fnn_hidden=6, context=3, seed=42),
        dict(n_bins=5, lstm_units=(3,), fnn_hidden=4, context=2, window=8, hop=4,
             log_features=True, seed=7),
        dict(n_bins=129, lstm_units=(64, 64), fnn_hidden=128, context=30, seed=0),
    ], ids=["two-layer", "log-features", "desk"])
    def test_build_model_draws_as_the_per_component_constructors(self, tmp_path, shape):
        m = build_model(**shape)
        rng = np.random.default_rng(shape["seed"])
        want = init_params(shape["n_bins"], shape["lstm_units"], shape["context"],
                           shape["fnn_hidden"], rng, rng)
        assert list(m.parameters()) == list(want)
        for k, p in m.parameters().items():
            assert np.array_equal(p.values, want[k]), k
        assert not (m.adam_m.any() or m.adam_v.any())
        save_checkpoint(m, tmp_path / "a.nkf")
        save_checkpoint(load_checkpoint(tmp_path / "a.nkf"), tmp_path / "b.nkf")
        assert (tmp_path / "a.nkf").read_bytes() == (tmp_path / "b.nkf").read_bytes()

    @pytest.mark.parametrize("units, context, hidden, what", [
        ((0,), 2, 3, "predictor"), ((), 2, 3, "predictor"),
        ((2,), 0, 3, "noise net"), ((2,), 2, 0, "noise net")])
    def test_nonpositive_dimensions_rejected(self, units, context, hidden, what):
        with pytest.raises(DataError, match=f"{what} dimensions must be positive"):
            build_model(5, lstm_units=units, fnn_hidden=hidden, context=context)

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path, monkeypatch):
        m = build_model(9, lstm_units=(4, 3), fnn_hidden=6, context=3,
                        window=16, hop=4, variance_span=7, log_features=True,
                        seed=11)
        # dirty the optimizer state so it is exercised too
        m.grads[:] = np.random.default_rng(12).standard_normal(m.grads.size)
        optimizer_step(m)
        path = tmp_path / "model.nkf"
        save_checkpoint(m, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load drew a model only to overwrite it")

        monkeypatch.setattr(networks, "build_model", refuse)
        loaded = load_checkpoint(path)
        assert loaded.window == 16 and loaded.hop == 4
        assert loaded.variance_span == 7 and loaded.log_features is True
        assert loaded.adam_step == 1
        assert loaded.units == (4, 3)
        assert loaded.context == 3 and loaded.hidden == 6 and loaded.n_bins == 9
        for k, p in m.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[k].values, p.values)
        np.testing.assert_array_equal(loaded.adam_m, m.adam_m)
        np.testing.assert_array_equal(loaded.adam_v, m.adam_v)
        # and the file itself is stable: resaving produces identical bytes
        path2 = tmp_path / "model2.nkf"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_load_holds_the_tensors_once(self, tmp_path):
        # each tensor is read straight into its array: reading the whole
        # file first and copying every tensor out of it peaked at twice this
        path = tmp_path / "model.nkf"
        save_checkpoint(build_model(129, seed=0), path)
        size = os.path.getsize(path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert loaded.n_bins == 129
        assert peak <= 1.1 * size, peak / size

    @pytest.mark.parametrize("shape, stepped", _CHECKPOINT_SHAPES)
    def test_save_writes_the_copying_writers_bytes(self, tmp_path, shape, stepped):
        m = build_model(**shape, seed=5)
        if stepped:
            m.grads[:] = np.random.default_rng(6).standard_normal(m.grads.size)
            optimizer_step(m)
            assert m.adam_step == 1
        save_checkpoint(m, tmp_path / "new.nkf")
        save_checkpoint_copying(m, tmp_path / "old.nkf")
        assert (tmp_path / "new.nkf").read_bytes() == (tmp_path / "old.nkf").read_bytes()
        for name in ("new.nkf", "old.nkf"):
            loaded = load_checkpoint(tmp_path / name)
            assert loaded.adam_step == m.adam_step
            for k, p in m.parameters().items():
                assert np.array_equal(loaded.parameters()[k].values, p.values), k
            assert np.array_equal(loaded.adam_m, m.adam_m)
            assert np.array_equal(loaded.adam_v, m.adam_v)

    def test_save_makes_no_tensor_sized_copy(self, tmp_path):
        # a 15.5 MB desk checkpoint; a writer that packs each tensor into
        # bytes before writing it peaks at about 7.8 MiB here
        m = build_model(129, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_checkpoint(m, tmp_path / "model.nkf")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak / 2 ** 20

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

    # header offsets of u32 fields: n_bins, context, fnn_hidden, first layer's
    # units; and the first record that the claim does not match, or, where the
    # claim's arenas need more than the file holds, truncation
    @pytest.mark.parametrize("offset, message", [
        (24, r"expected tensor lstm0\.wx of shape \(6, 8\)$"),
        (28, r"expected tensor fnn\.w1 of shape \(20, 3\)$"),
        (36, r"expected tensor fnn\.w1 of shape \(15, 4\)$"),
        (45, "truncated$")], ids=["n_bins", "context", "fnn_hidden", "units"])
    def test_header_dimensions_checked_before_building(self, tmp_path,
                                                       monkeypatch, offset, message):
        # the claim is one more than the tensors hold: harmless even if it were
        # built, but load must reject it from the tensor shapes alone
        path = tmp_path / "model.nkf"
        save_checkpoint(build_model(5, lstm_units=(2,), fnn_hidden=3, context=2,
                                    seed=0), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, offset, struct.unpack_from("<I", blob, offset)[0] + 1)
        path.write_bytes(bytes(blob))

        def refuse(*args, **kwargs):
            raise AssertionError("built a model from an unchecked header")

        monkeypatch.setattr(networks, "build_model", refuse)
        with pytest.raises(DataError, match="malformed checkpoint: " + message):
            load_checkpoint(path)

    @pytest.mark.parametrize("tail", ["garbage", "second copy"])
    def test_trailing_bytes_rejected(self, tmp_path, tail):
        path = tmp_path / "model.nkf"
        save_checkpoint(build_model(5, lstm_units=(2,), fnn_hidden=3, context=2,
                                    seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(blob + (bytes(range(24)) if tail == "garbage" else blob))
        with pytest.raises(DataError, match="malformed checkpoint: trailing bytes"):
            load_checkpoint(path)

    def test_duplicate_tensor_rejected(self, tmp_path):
        # one more tensor in the count, and a second fnn.b3 after the first
        path = tmp_path / "model.nkf"
        save_checkpoint(build_model(5, lstm_units=(2,), fnn_hidden=3, context=2,
                                    seed=0), path)
        blob = bytearray(path.read_bytes())
        at = len(b"NKFCKPT1") + 4 + 7 * 4 + 1 + 4 + 4 + 8   # one LSTM layer
        struct.pack_into("<I", blob, at, struct.unpack_from("<I", blob, at)[0] + 1)
        b3 = np.full(5, 123.0, "<f8")
        path.write_bytes(bytes(blob) + networks._pack_tensor("fnn.b3", b3) + b3.tobytes())
        with pytest.raises(DataError, match=r"malformed checkpoint: 40 tensors, expected 39$"):
            load_checkpoint(path)

    def test_unreadable_checkpoint_names_its_path(self, tmp_path):
        path = tmp_path / "missing.nkf"
        with pytest.raises(DataError, match=f"cannot read checkpoint {path}"):
            load_checkpoint(path)

    def test_huge_tensor_shape_is_truncation(self, tmp_path):
        # four dimensions of 2^32 - 1: the product overflows 64 bits
        path = tmp_path / "model.nkf"
        save_checkpoint(build_model(5, lstm_units=(2,), fnn_hidden=3, context=2,
                                    seed=0), path)
        blob = path.read_bytes()
        at = blob.index(b"lstm0.wx") + len(b"lstm0.wx")
        path.write_bytes(blob[:at] + struct.pack("<B4I", 4, *[2**32 - 1] * 4)
                         + blob[at + 9:])
        with pytest.raises(DataError, match=r"malformed checkpoint: expected tensor "
                           r"lstm0\.wx of shape \(5, 8\)$"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "model.nkf"
        save_checkpoint(build_model(5, lstm_units=(2,), fnn_hidden=3, context=2,
                                    seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"lstm0.wx", b"\xfflstm0.x", 1))
        with pytest.raises(DataError, match=r"malformed checkpoint: expected tensor "
                           r"lstm0\.wx of shape \(5, 8\)$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("moment", ["adam_m", "adam_v"])
    def test_moment_shape_mismatch_rejected(self, tmp_path, moment):
        # the file's moment record of fnn.b3, shape (5,), made a (7,) record
        path = tmp_path / "model.nkf"
        save_checkpoint(build_model(5, lstm_units=(2,), fnn_hidden=3, context=2,
                                    seed=0), path)
        blob = bytearray(path.read_bytes())
        at = blob.index(f"{moment}.fnn.b3".encode()) + len(f"{moment}.fnn.b3") + 1
        assert struct.unpack_from("<I", blob, at) == (5,)
        struct.pack_into("<I", blob, at, 7)
        blob[at + 4 + 5 * 8:at + 4 + 5 * 8] = bytes(2 * 8)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=rf"malformed checkpoint: expected tensor "
                           rf"{moment}\.fnn\.b3 of shape \(5,\)$"):
            load_checkpoint(path)

    # (file, whether the one-pass reader loads it, whether the seeking oracle does)
    @pytest.mark.parametrize("shape, stepped, corrupt, loads", [
        *(pytest.param(*case.values, None, (True, True), id=case.id)
          for case in _CHECKPOINT_SHAPES),
        *(pytest.param(dict(n_bins=5, lstm_units=(2,), fnn_hidden=3, context=2), False,
                       corrupt, (False, False), id=name)
          for name, corrupt in _MALFORMED.items()),
        # the one input the one-pass reader narrows: records out of declared order
        pytest.param(dict(n_bins=5, lstm_units=(2,), fnn_hidden=3, context=2), False,
                     _swap_records, (False, True), id="swapped"),
    ])
    def test_one_pass_reader_agrees_with_the_seeking_oracle(self, tmp_path, shape,
                                                            stepped, corrupt, loads):
        m = build_model(**shape, seed=0)
        if stepped:
            m.grads[:] = np.random.default_rng(6).standard_normal(m.grads.size)
            optimizer_step(m)
        path = tmp_path / "model.nkf"
        save_checkpoint(m, path)
        if corrupt is not None:
            blob = corrupt(path.read_bytes())
            if blob is None:
                path.unlink()
            else:
                path.write_bytes(blob)
        for reader, loads_it in zip((load_checkpoint, load_checkpoint_seeking), loads):
            if not loads_it:
                with pytest.raises(DataError):
                    reader(path)
                continue
            loaded = reader(path)
            assert [getattr(loaded, d) for d in networks._DIMS] == \
                [getattr(m, d) for d in networks._DIMS]
            assert (loaded.units, loaded.log_features, loaded.adam_step) == \
                (m.units, m.log_features, m.adam_step)
            for arena in ("values", "adam_m", "adam_v"):
                assert np.array_equal(getattr(loaded, arena), getattr(m, arena)), arena

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
