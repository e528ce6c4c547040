import dataclasses
import functools
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from nkf import autodiff as ad
from nkf import data_io, enhancer, networks, wiener
from nkf.config import RunConfig
from nkf.enhancer import (EnhancementResult, NkfFrameEstimates, enhance,
                          enhance_wiener, gradient_check, nkf_combine,
                          nkf_forward, nkf_gain, nkf_loss, train, _batch_loss,
                          _forward, _inputs)
from nkf.errors import ConfigError, DataError, NumericsError
from nkf.networks import build_model, build_model_from, fnn_features, \
    load_checkpoint, noise_fnn_forward_grid
from nkf.pipeline import run_blocks
from nkf.signal_core import Waveform, block_bounds, stft
from nkf.wiener import VARIANCE_FLOOR, apply_wiener, track_sigma_y, wiener_gain

import oracles
from test_autodiff import _bits, _fd_check


def _tiny_model(seed=0, **kw):
    defaults = dict(lstm_units=(2,), fnn_hidden=8, context=3, window=6,
                    hop=3, variance_span=4, seed=seed)
    defaults.update(kw)
    return build_model(4, **defaults)


def _desk_model():
    cfg = RunConfig(seed=0)   # the desk preset
    return cfg, build_model_from(cfg)


def _zeroed_model():
    m = _tiny_model()
    for p in m.parameters().values():
        p.values = np.zeros_like(p.values)
    return m


class TestGain:
    def test_limits(self):
        assert nkf_gain(1e-300, 1.0).values == pytest.approx(0.0, abs=1e-12)
        assert nkf_gain(1.0, 1e-300).values == pytest.approx(1.0, abs=1e-12)

    def test_balanced(self):
        assert nkf_gain(0.7, 0.7).values == pytest.approx(0.5)

    def test_unit_interval_fuzz(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(1e-6, 1e3, 100000)
        v = rng.uniform(1e-6, 1e3, 100000)
        g = nkf_gain(r, v).values
        assert np.all((g > 0) & (g < 1))


class TestCombine:
    def test_midpoint(self):
        assert nkf_combine(0.5, 2.0, 4.0).values == pytest.approx(3.0)

    def test_endpoint_exact(self):
        assert nkf_combine(0.0, 5.0, 3.0).values == 3.0
        assert nkf_combine(1.0, 5.0, 3.0).values == 5.0

    def test_convexity_fuzz(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(0, 1, 100000)
        w = rng.uniform(0, 10, 100000)
        l = rng.uniform(0, 10, 100000)
        out = nkf_combine(g, w, l).values
        assert np.all(out >= np.minimum(w, l))
        assert np.all(out <= np.maximum(w, l))


class TestOneNodeFormulas:
    """``nkf_gain``, ``nkf_combine`` and ``_batch_loss``'s mean are one node
    each; every value and gradient is the ``add``, ``sub``, ``mul`` and
    ``div`` chain's (``oracles``) bit for bit."""

    @staticmethod
    def _run(op, operands):
        """``op``'s value and each operand's gradient (None for a constant)
        under a mean-square loss; an operand is a python float, an array
        (made a leaf) or ``("slice", grid, b, t)``: ``[b, :t]`` of one leaf
        made from the B x T x F ``grid``, whose gradient comes last."""
        grid = next((o[1] for o in operands if isinstance(o, tuple)), None)
        source = None if grid is None else ad.DiffArray(grid.copy())
        leaves = [o if isinstance(o, float) else source[o[2], :o[3]]
                  if isinstance(o, tuple) else ad.DiffArray(o.copy()) for o in operands]
        with np.errstate(all="ignore"):   # the NaN, infinite and 0 / 0 entries
            out = op(*leaves)
            target = np.random.default_rng(1).standard_normal(out.shape)
            ad.mean_square(out, ad.lift(target)).backward()
        grads = [None if isinstance(o, float) else leaf.grad
                 for o, leaf in zip(operands, leaves) if not isinstance(o, tuple)]
        return [out.values] + grads + ([] if source is None else [source.grad])

    @staticmethod
    def _cases(n_operands):
        """Operand lists: 0-d leaves, 2-D grids, slices of a B x T x F leaf,
        and grids with python-float constants."""
        rng = np.random.default_rng(n_operands)
        grid = rng.uniform(0.0, 2.0, (2, 7, 5))
        return [
            [rng.uniform(0.1, 2.0, ()) for _ in range(n_operands)],
            [rng.uniform(0.0, 2.0, (9, 4)) for _ in range(n_operands)],
            [("slice", grid, b, t) for b, t in ((0, 6), (1, 6), (0, 6))][:n_operands],
            [rng.uniform(0.0, 2.0, (3, 5))] + [0.75] * (n_operands - 1),
            [0.25, rng.uniform(0.0, 2.0, (3, 5))] if n_operands == 2 else
            [rng.uniform(0.0, 2.0, (3, 5)), 0.25, rng.uniform(0.0, 2.0, (3, 5))],
        ]

    def _assert_matches(self, op, composed, operands):
        got, want = self._run(op, operands), self._run(composed, operands)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if a is None:
                assert b is None
            else:
                assert np.shape(a) == np.shape(b) and np.array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize("case", range(5))
    def test_gain_bit_identical_to_chain(self, case):
        operands = self._cases(2)[case]
        if case == 1:   # gains of exactly 0 and 1, a 0 / 0, NaN and infinities
            r, v = operands
            r[0, :4], v[0, :4] = [0.0, 1.5, 0.0, np.nan], [1.5, 0.0, 0.0, 1.0]
            r[1, :3], v[1, :3] = [np.inf, 1.0, np.inf], [1.0, np.inf, -np.inf]
        self._assert_matches(nkf_gain, oracles.nkf_gain_composed, operands)

    @pytest.mark.parametrize("case", range(5))
    def test_combine_bit_identical_to_chain(self, case):
        operands = self._cases(3)[case]
        if case == 1:   # gains of exactly 0 and 1, NaN and infinities
            gain, w, l = operands
            gain[0, :4] = [0.0, 1.0, np.nan, 0.5]
            w[1, :3], l[1, :3] = [np.inf, -np.inf, 1.0], [1.0, np.nan, -np.inf]
            gain[1, 3], l[1, 3] = 1.0, np.inf
        self._assert_matches(nkf_combine, oracles.nkf_combine_composed, operands)

    @pytest.mark.parametrize("lengths", [(9,), (9, 12), (9, 12, 7), (5, 9, 12, 7)])
    def test_batch_mean_bit_identical_to_chain(self, lengths):
        m = _tiny_model(seed=4)
        segments = _segments(40 + len(lengths), lengths)
        runs = []
        for mean in (lambda: _batch_loss(m, segments), lambda: oracles.batch_mean_composed(
                [loss for loss, _ in _forward(m, [_inputs(m, *s) for s in segments])[0]])):
            m.zero_grad()
            loss = mean()
            loss.backward()
            runs.append((loss.values, m.views(m.grads.copy())))
        (got, got_grads), (want, want_grads) = runs
        assert _bits(got) == _bits(want)
        for name, grad in got_grads.items():
            assert np.array_equal(_bits(grad), _bits(want_grads[name])), name

    def test_gradients_against_finite_differences(self):
        rng = np.random.default_rng(6)
        _fd_check(lambda xs: nkf_gain(xs[0], xs[1]),
                  [rng.uniform(0.1, 2.0, (3, 4)) for _ in range(2)])
        _fd_check(lambda xs: nkf_combine(xs[0], xs[1], xs[2]),
                  [rng.uniform(0.0, 1.0, (3, 4))] + [rng.uniform(0.0, 2.0, (3, 4))
                                                     for _ in range(2)])

    def test_shape_rule(self):
        # equal shapes, or a 0-d constant; a 0-d node meets no array
        x, y, c = ad.DiffArray(np.ones((2, 3))), ad.DiffArray(np.ones((3, 2))), \
            ad.DiffArray(np.array(0.5))
        for args in ((x, y), (x, c), (c, x)):
            with pytest.raises(ValueError, match="nkf_gain: shapes .* do not match"):
                nkf_gain(*args)
        for args in ((x, x, y), (c, x, x), (x, 0.5, y)):
            with pytest.raises(ValueError, match="nkf_combine: shapes .* do not match"):
                nkf_combine(*args)
        assert nkf_gain(x, 0.5).shape == nkf_combine(x, 0.5, x).shape == (2, 3)

    def test_desk_batch_graph_size(self, monkeypatch):
        # 74 when the gain, the combination and the mean were built from add,
        # sub, mul, div and a lifted constant: 5 more per utterance, 4 per batch
        cfg, m = _desk_model()
        made = []
        real_init = ad.DiffArray.__init__
        monkeypatch.setattr(ad.DiffArray, "__init__",
                            lambda self, *a, **kw: made.append(1) or real_init(self, *a, **kw))
        _batch_loss(m, _segments(8, (147, 247, 256, 256), cfg.n_bins))
        assert len(made) <= 50, len(made)


class TestLoss:
    def test_identical_grids(self):
        g = np.ones((3, 4))
        assert nkf_loss(g, g).values == 0.0

    def test_unit_offset(self):
        g = np.zeros((5, 2))
        assert nkf_loss(g + 1.0, g).values == pytest.approx(1.0)

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 3, (7, 5))
        b = rng.uniform(0, 3, (7, 5))
        total = 0.0
        for t in range(7):
            for f in range(5):
                total += (a[t, f] - b[t, f]) ** 2
        assert abs(nkf_loss(a, b).values - total / 35.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            nkf_loss(np.ones((2, 2)), np.ones((3, 2)))


class TestForward:
    def test_zero_parameter_model_closed_form(self):
        m = _zeroed_model()
        rng = np.random.default_rng(3)
        amp = rng.uniform(0.5, 3.0, (6, 4))
        with ad.no_grad():
            ((_, est),), _ = _forward(m, [_inputs(m, amp)])
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
            ((_, est),), _ = _forward(m, [_inputs(m, amp)])
        sigma_y2 = track_sigma_y(amp, m.variance_span)
        assert np.any(sigma_y2 == 0) and np.any((sigma_y2 > 0) & (sigma_y2 < VARIANCE_FLOOR))
        gain = wiener_gain(est.sigma_v2, sigma_y2)
        assert np.any((gain > 0) & (gain < 1))
        np.testing.assert_array_equal(est.amp_wiener, gain * amp)
        np.testing.assert_array_equal(est.amp_wiener,
                                      apply_wiener(amp, est.sigma_v2, sigma_y2).values)

    def test_gain_limit_ratios(self):
        # as sigma_r2/sigma_v2 -> 0 output approaches the LSTM estimate and
        # vice versa, checked at ratio 1e-8 within 1e-6 absolute
        w, l = 4.0, 1.0
        near_lstm = nkf_combine(nkf_gain(1e-8, 1.0), w, l).values
        near_wiener = nkf_combine(nkf_gain(1.0, 1e-8), w, l).values
        assert abs(near_lstm - l) < 1e-6
        assert abs(near_wiener - w) < 1e-6

    def test_grid_invariants_random_model(self):
        m = _tiny_model(seed=7)
        rng = np.random.default_rng(8)
        amp = rng.uniform(0, 3.0, (12, 4))
        with ad.no_grad():
            ((_, est),), _ = _forward(m, [_inputs(m, amp)])
        assert np.all((est.gain > 0) & (est.gain < 1))
        assert np.all(est.sigma_r2 > 0)
        assert np.all(est.sigma_v2 > 0)
        lo = np.minimum(est.amp_wiener, est.amp_lstm)
        hi = np.maximum(est.amp_wiener, est.amp_lstm)
        assert np.all(est.amp_out >= lo) and np.all(est.amp_out <= hi)

    def test_graph_runs_the_numpy_formulas_bit_for_bit(self):
        # the graph's gain, combination and loss (nkf_gain, nkf_combine and
        # nkf_loss, acceptance criteria 5 and 6) are these formulas, not
        # near relatives
        m = _tiny_model(seed=11)
        rng = np.random.default_rng(12)
        spec = stft(Waveform(rng.standard_normal(96) * 0.1), m.window, m.hop)
        clean = rng.uniform(0.0, 0.5, spec.amplitude.shape)
        ((loss, est),), _ = _forward(m, [_inputs(m, spec.amplitude, clean)])
        gain = est.sigma_r2 / (est.sigma_r2 + est.sigma_v2)
        amp_out = gain * est.amp_wiener + (1.0 - gain) * est.amp_lstm
        np.testing.assert_array_equal(est.gain, gain)
        np.testing.assert_array_equal(est.amp_out, amp_out)
        assert float(loss.values) == np.mean((amp_out - clean) ** 2)

    def test_dimension_mismatch(self):
        m = _tiny_model()
        with pytest.raises(DataError):
            _inputs(m, np.ones((5, 7)))

    def test_clean_grid_of_another_shape(self):
        # a longer clean grid is refused, not cut to the noisy one's frames
        m = _tiny_model()
        for clean in (np.ones((6, 4)), np.ones((4, 4)), np.ones((5, 3))):
            with pytest.raises(DataError, match="share one shape"):
                _inputs(m, np.ones((5, 4)), clean)

    def test_one_graph_for_training_and_blocked_inference(self, monkeypatch):
        # training and inference reach the gain, combination and loss only
        # through _forward: once per batch, once per block of frames
        cfg, m = _desk_model()
        calls, feeds, utts = [], [], []
        real, real_lstm = enhancer._forward, enhancer.lstm_forward
        monkeypatch.setattr(enhancer, "_forward", lambda *a, **kw:
                            calls.append(a[2:]) or utts.append(a[1]) or real(*a, **kw))
        monkeypatch.setattr(enhancer, "lstm_forward",
                            lambda m, x, state=None: feeds.append(x) or real_lstm(m, x, state))
        rng = np.random.default_rng(6)
        segments = [tuple(rng.uniform(0.1, 2.0, (2, n, cfg.n_bins)))
                    for n in (256, 256, 200, 256)]
        _batch_loss(m, segments)
        assert calls == [()]
        # a batch is a zero-padded copy; one utterance that has every row is
        # fed as a view of its own features
        assert not any(np.shares_memory(feeds[0], feats) for _, feats, *_ in utts[0])
        calls.clear()
        feeds.clear()
        n = (1023 - 1) * cfg.hop + cfg.window
        spec = stft(Waveform(rng.standard_normal(n) * 0.1), cfg.window, cfg.hop)
        assert spec.n_frames == 1023
        nkf_forward(m, spec)
        assert [c[:2] for c in calls] == block_bounds(1023)
        assert len(calls) == 3 == len(feeds)
        assert all(np.shares_memory(x, utts[-1][0][1]) for x in feeds)
        assert not hasattr(enhancer, "_combine")

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

    @pytest.mark.parametrize("units, lengths, log_features, per_param", [
        ((3, 3), (7, 5, 3), False, 6),
        ((3, 3, 3), (7, 5, 3), True, 6),
        ((3, 3), (40, 33, 1, 12), True, 6),
        ((3, 3, 3), (40, 33, 1, 12), False, 6),
        ((3, 3), (520,), False, 3),
    ], ids=["2-layers-7/5/3", "3-layers-7/5/3-log", "2-layers-40/33/1/12-log",
            "3-layers-40/33/1/12", "2-layers-520"])
    def test_training_shapes_match_finite_differences(self, units, lengths,
                                                      log_features, per_param):
        # _batch_loss as training runs it, the worker on: stacked LSTM layers,
        # unequal segments zero-padded to the longest, and a 520-frame
        # segment whose noise net forms two feature blocks; a fixed, seeded
        # sample of entries per parameter, each against central differences
        # with criterion 7's step and bound
        assert len(block_bounds(max(lengths))) == (2 if max(lengths) > 511 else 1)
        m = build_model(4, lstm_units=units, fnn_hidden=5, context=3, window=6, hop=3,
                        variance_span=4, log_features=log_features, seed=len(lengths))
        rng = np.random.default_rng(sum(lengths))
        segments = [(rng.uniform(0.5, 3.0, (n, 4)), rng.uniform(0.1, 2.5, (n, 4)))
                    for n in lengths]
        m.zero_grad()
        _batch_loss(m, segments).backward()
        step, worst = 1e-5, 0.0
        for name, p in m.parameters().items():
            analytic, flat = p.grad.reshape(-1).copy(), p.values.reshape(-1)
            for i in rng.choice(flat.size, min(flat.size, per_param), replace=False):
                saved, losses = flat[i], []
                for x in (saved + step, saved - step):
                    flat[i] = x
                    with ad.no_grad():
                        losses.append(float(_batch_loss(m, segments).values))
                flat[i] = saved
                numeric = (losses[0] - losses[1]) / (2 * step)
                rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-6)
                worst = max(worst, rel)
        assert worst < 1e-4, worst

    def test_package_gradcheck_agrees(self):
        assert gradient_check(seed=0) < 1e-4

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            gradient_check(seed=-1)


class _Boom(Exception):
    """Raised on purpose inside the graph."""


def _counting_features(monkeypatch):
    """Record the row range of every ``fnn_features`` call from now on."""
    calls = []
    monkeypatch.setattr(networks, "fnn_features", lambda *a: calls.append(a[3:5]) or
                        fnn_features(*a))
    return calls


class TestFirstLayerWorker:
    """The noise net's first-layer products run as one job on a worker thread
    while the calling thread runs the LSTM and builds every node; the results
    are those of the serial graph (``oracles.forward_serial``) bit for bit."""

    def test_training_graph_matches_serial_oracle(self, monkeypatch):
        cfg, m = _desk_model()
        rng = np.random.default_rng(21)
        utts = [_inputs(m, *rng.uniform(0.1, 2.0, (2, n, cfg.n_bins)))
                for n in (256, 200, 256, 31)]
        calls = _counting_features(monkeypatch)
        runs = []
        for forward in (_forward, oracles.forward_serial):
            m.zero_grad()
            out, _ = forward(m, utts)
            functools.reduce(oracles.add, [loss for loss, _ in out]).backward()
            runs.append((out, m.views(m.grads.copy())))
            assert calls == [(0, n) for n in (256, 200, 256, 31)]   # one block each
            calls.clear()
        (got, got_grads), (want, want_grads) = runs
        for (loss, est), (want_loss, want_est) in zip(got, want, strict=True):
            assert float(loss.values) == float(want_loss.values)
            for name, grid in vars(est).items():
                np.testing.assert_array_equal(grid, getattr(want_est, name))
        assert len(got_grads) == 16
        for name, grad in got_grads.items():
            np.testing.assert_array_equal(grad, want_grads[name])

    @pytest.mark.parametrize("n_frames", [1, 255, 256, 257, 511, 512, 513, 1023, 2497])
    def test_blocked_inference_matches_serial_oracle(self, monkeypatch, n_frames):
        cfg, m = _desk_model()
        n = (n_frames - 1) * cfg.hop + cfg.window
        spec = stft(Waveform(np.random.default_rng(25).standard_normal(n) * 0.1),
                    cfg.window, cfg.hop)
        calls = _counting_features(monkeypatch)
        got = nkf_forward(m, spec)
        assert calls == block_bounds(n_frames)
        calls.clear()
        utt = _inputs(m, spec.amplitude)

        def step(lo, hi, state):
            ((_, est),), state = oracles.forward_serial(m, [utt], lo, hi, state)
            return est, state

        want = run_blocks(n_frames, step)
        assert calls == block_bounds(n_frames)
        for name, grid in vars(got).items():
            np.testing.assert_array_equal(grid, getattr(want, name))

    def test_graph_is_built_on_the_calling_thread(self, monkeypatch):
        # only the first-layer products leave it: the tracer's spans and the
        # nodes stay on one thread
        threads = {}

        def record(owner, name):
            real = getattr(owner, name)

            def recorded(*a, **kw):
                threads.setdefault(name, set()).add(threading.get_ident())
                return real(*a, **kw)
            monkeypatch.setattr(owner, name, recorded)

        for owner, name in ((enhancer, "lstm_forward"), (enhancer, "noise_fnn_forward_grid"),
                            (wiener, "apply_wiener"), (ad.DiffArray, "__init__"),
                            (enhancer, "first_layer_product")):
            record(owner, name)
        m = _tiny_model(seed=2)
        rng = np.random.default_rng(22)
        enhance(m, Waveform(0.1 * rng.standard_normal(300)), "nkf")
        _batch_loss(m, [rng.uniform(0.1, 2.0, (2, n, 4)) for n in (9, 12)]).backward()
        caller = {threading.get_ident()}
        products = threads.pop("first_layer_product")
        assert threads.keys() == {"lstm_forward", "noise_fnn_forward_grid",
                                  "apply_wiener", "__init__"}
        assert all(seen == caller for seen in threads.values()), threads
        assert products and not products & caller

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        m = _tiny_model(seed=3)
        noisy = Waveform(0.1 * np.random.default_rng(23).standard_normal(300))
        clean = enhance(m, noisy, "nkf")
        raised_on = []

        def boom(*args):
            raised_on.append(threading.get_ident())
            raise _Boom

        monkeypatch.setattr(enhancer, "first_layer_product", boom)
        with pytest.raises(_Boom):
            enhance(m, noisy, "nkf")
        assert raised_on and threading.get_ident() not in raised_on
        monkeypatch.undo()
        again = enhance(m, noisy, "nkf")
        np.testing.assert_array_equal(again.waveform.samples, clean.waveform.samples)
        for name, grid in vars(again.grids).items():
            np.testing.assert_array_equal(grid, getattr(clean.grids, name))

    def test_product_joined_before_an_lstm_exception_leaves(self, monkeypatch):
        finished = []
        real = enhancer.first_layer_product

        def slow(*args):
            time.sleep(0.2)
            real(*args)
            finished.append(True)

        def failing(*args, **kwargs):
            raise _Boom

        monkeypatch.setattr(enhancer, "first_layer_product", slow)
        monkeypatch.setattr(enhancer, "lstm_forward", failing)
        m = _tiny_model(seed=4)
        with pytest.raises(_Boom):
            _forward(m, [_inputs(m, np.ones((8, 4)))])
        assert finished == [True]

    def test_lstm_exception_leaves_when_the_job_raises_too(self, monkeypatch):
        raised_on = []

        def boom(*args):
            time.sleep(0.1)   # still running when the LSTM raises
            raised_on.append(threading.get_ident())
            raise _Boom

        def failing(*args, **kwargs):
            raise ZeroDivisionError

        monkeypatch.setattr(enhancer, "first_layer_product", boom)
        monkeypatch.setattr(enhancer, "lstm_forward", failing)
        m = _tiny_model(seed=4)
        utt = _inputs(m, np.ones((8, 4)))
        with pytest.raises(ZeroDivisionError):
            _forward(m, [utt])
        assert len(raised_on) == 1 and threading.get_ident() not in raised_on
        monkeypatch.undo()
        ((_, got),), _ = _forward(m, [utt])
        ((_, want),), _ = oracles.forward_serial(m, [utt])
        np.testing.assert_array_equal(got.amp_out, want.amp_out)

    def test_features_formed_on_the_worker_in_one_buffer(self, monkeypatch):
        # one feature buffer per _forward call, allocated by the caller (a
        # worker's own allocations would grow a glibc arena of its own) and
        # freed when the job ends, before any node is built; tracemalloc
        # sees neither
        calls, jobs, kept = [], [], []

        def recorded(*a):
            work = a[5]
            assert work is not None   # raised on the worker, join() hands it over
            calls.append((threading.get_ident(), a[3:5], (id(work), work.shape),
                          weakref.ref(work)))
            return fnn_features(*a)

        def counted(fn):
            jobs.append(threading.get_ident())
            return networks.on_worker(fn)

        def first_node(*a):
            kept.extend(ref() is not None for *_, ref in calls)
            return noise_fnn_forward_grid(*a)

        monkeypatch.setattr(networks, "fnn_features", recorded)
        monkeypatch.setattr(enhancer, "on_worker", counted)
        monkeypatch.setattr(enhancer, "noise_fnn_forward_grid", first_node)
        m = _tiny_model(seed=6)
        rng = np.random.default_rng(26)
        utts = [_inputs(m, *rng.uniform(0.1, 2.0, (2, n, 4))) for n in (600, 200, 31)]
        _forward(m, utts)
        assert [rows for _, rows, _, _ in calls] == [(0, 256), (256, 600), (0, 200), (0, 31)]
        assert threading.get_ident() not in {thread for thread, *_ in calls}
        # the largest block is 256..600; each block's features are 4·4 wide
        assert {work for _, _, work, _ in calls} == {(calls[0][2][0], (344, 16))}
        assert jobs == [threading.get_ident()] and kept and not any(kept)
        calls.clear()
        jobs.clear()
        spec = stft(Waveform(0.1 * rng.standard_normal(1022 * 3 + 6)), 6, 3)
        nkf_forward(m, spec)   # 1023 frames: three blocks, so three calls
        assert jobs == [threading.get_ident()] * 3
        assert [rows for _, rows, _, _ in calls] == block_bounds(1023)
        assert threading.get_ident() not in {thread for thread, *_ in calls}

    def test_callers_on_several_threads_share_the_worker(self):
        # more calling threads than cores, switching often: every job runs
        # once, in its caller's buffers, and every join returns
        m = _tiny_model(seed=7)
        rng = np.random.default_rng(27)
        utts = [_inputs(m, rng.uniform(0.1, 2.0, (n, 4))) for n in (40, 300, 9, 600, 77, 256)]
        want = [oracles.forward_serial(m, [utt])[0][0][1].amp_out for utt in utts]
        right = []

        def run(i):
            for _ in range(5):
                ((_, est),), _ = _forward(m, [utts[i]])
                right.append(np.array_equal(est.amp_out, want[i]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(utts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert right == [True] * 5 * len(utts)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_starts_its_own_worker(self):
        m = _tiny_model(seed=5)
        noisy = Waveform(0.1 * np.random.default_rng(24).standard_normal(300))
        want = enhance(m, noisy, "nkf").waveform.samples   # the worker is running
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(enhance(m, noisy, "nkf").waveform.samples))
        child.start()
        try:
            assert recv.poll(60), "the forked child did not finish enhancing"
            got = recv.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        np.testing.assert_array_equal(got, want)


class _Jobs:
    """``networks.add_first_layer_gradient``, recorded: each call sleeps first, so
    a backward that returned before joining it would read ``w1``'s gradient
    early, then raises the next of ``fail``, if any is left, or runs.
    ``started`` and ``ended`` hold each call's thread, ``ended`` once it has
    returned or raised."""

    def __init__(self, monkeypatch, fail=()):
        self.started, self.ended, self.fail = [], [], list(fail)
        real = networks.add_first_layer_gradient

        def recorded(*args):
            self.started.append(threading.get_ident())
            try:
                time.sleep(0.05)
                if self.fail:
                    raise self.fail.pop(0)
                return real(*args)
            finally:
                self.ended.append(threading.get_ident())

        monkeypatch.setattr(networks, "add_first_layer_gradient", recorded)


def _segments(seed, lengths, n_bins=4):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(0.1, 2.0, (2, n, n_bins))) for n in lengths]


class TestBackwardWorker:
    """Backward hands each noise-net first layer's ``w1`` gradient to the
    worker as one job while the calling thread goes on to the LSTM's BPTT;
    ``DiffArray.backward`` joins every job before it returns or raises, so
    the gradients are the serial graph's (``oracles.forward_serial``, whose
    first layer forms ``w1``'s gradient inline) bit for bit."""

    def test_gradients_match_serial_oracle_over_two_backwards(self, monkeypatch):
        cfg, m = _desk_model()
        segments = _segments(31, (256, 200, 256, 31), cfg.n_bins)
        jobs = _Jobs(monkeypatch)
        runs = []
        for forward in (_forward, oracles.forward_serial):
            monkeypatch.setattr(enhancer, "_forward", forward)
            m.zero_grad()
            grads = []
            for _ in range(2):   # no zero_grad: the second backward adds to the first
                _batch_loss(m, segments).backward()
                grads.append(m.views(m.grads.copy()))
            runs.append(grads)
        assert len(jobs.ended) == 8   # 4 utterances, 2 backwards; none in the oracle
        for got, want in zip(*runs, strict=True):
            assert len(got) == 16
            for name, grad in got.items():
                np.testing.assert_array_equal(grad, want[name])

    @pytest.mark.parametrize("run", ["desk_batch", "gradient_check"])
    def test_first_contributions_are_fresh_arrays_of_the_nodes_shape(self, monkeypatch,
                                                                      run):
        # _accumulate keeps a node's first contribution as its grad, unchecked
        # and uncopied, so each must be a float64 array of the node's shape (a
        # numpy float64 scalar for a 0-d node) and no other node's grad. A
        # parameter has no first contribution: its grad is its view of the
        # model's gradient arena from the start, and every contribution goes
        # into that view
        firsts, models = [], []   # firsts: (node, delta, the grad it became)
        real = ad.DiffArray._accumulate

        def recorded(node, delta):
            first = node.grad is None and not node.constant
            real(node, delta)
            if first:
                firsts.append((node, delta, node.grad))

        monkeypatch.setattr(ad.DiffArray, "_accumulate", recorded)
        if run == "desk_batch":
            cfg, m = _desk_model()
            _batch_loss(m, _segments(31, (256, 200, 256, 31), cfg.n_bins)).backward()
        else:
            def recorded_build(*args, **kwargs):
                models.append(build_model(*args, **kwargs))
                return models[-1]

            monkeypatch.setattr(enhancer, "build_model", recorded_build)
            assert gradient_check(0) < 1e-4
            m, = models
        params = list(m.params.values())
        assert not any(node in params for node, _, _ in firsts)
        for node, delta, _ in firsts:
            if node.ndim == 0 and type(delta) is np.float64:
                continue
            assert type(delta) is np.ndarray, type(delta)
            assert (delta.dtype, delta.shape) == (np.float64, node.shape)
        grads = [grad for _, _, grad in firsts]
        for i, grad in enumerate(grads):
            assert not any(np.shares_memory(grad, other) for other in grads[:i])
        for i, p in enumerate(params):
            assert p.grad.shape == p.shape and np.shares_memory(p.grad, m.grads)
            assert not any(np.shares_memory(p.grad, other.grad) for other in params[:i])

    def test_w1_gradient_buffers_made_on_the_calling_thread(self, monkeypatch):
        # the one buffer of the noise net's w1 gradient, the model's scratch
        # (every context tap's block at desk widths), is allocated by the
        # calling thread at the first backward, before the job that writes it
        # runs; every job adds w1's gradient through it into w1.grad, w1's
        # view of the gradient arena, and no w1-sized array is made. A second
        # backward with no zero_grad allocates nothing and adds to the first
        cfg, m = _desk_model()
        w1 = m.params["fnn.w1"]
        scratch_shape = (cfg.context, cfg.n_bins, cfg.fnn_hidden)
        made, sized, jobs = [], [], []   # scratch allocations (thread, weakref); w1-sized
        # allocations; per job (thread, its scratch's index, whether it added into w1.grad)

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape, *a, **kw):
                arr = np.empty(shape, *a, **kw)
                if tuple(np.atleast_1d(shape)) == scratch_shape:
                    made.append((threading.get_ident(), weakref.ref(arr)))
                if tuple(np.atleast_1d(shape)) == w1.shape:
                    sized.append(shape)
                return arr

        real = networks.add_first_layer_gradient

        def recorded(rows, sigma_y2, g, grad, scratch):
            time.sleep(0.05)   # the later nodes' jobs queue behind this one
            jobs.append((threading.get_ident(),
                         [i for i, (_, ref) in enumerate(made) if ref() is scratch],
                         grad is w1.grad))
            return real(rows, sigma_y2, g, grad, scratch)

        monkeypatch.setattr(networks, "np", Numpy())
        monkeypatch.setattr(networks, "add_first_layer_gradient", recorded)
        segments = _segments(37, (147, 247, 256, 256), cfg.n_bins)
        m.zero_grad()
        _batch_loss(m, segments).backward()
        caller = threading.get_ident()
        assert [thread for thread, _ in made] == [caller]
        assert [job[1:] for job in jobs] == [([0], True)] * 4
        assert caller not in {thread for thread, *_ in jobs}
        assert np.shares_memory(w1.grad, m.grads)
        _batch_loss(m, segments).backward()   # no zero_grad
        assert [thread for thread, _ in made] == [caller] and sized == []
        assert [job[1:] for job in jobs[4:]] == [([0], True)] * 4
        got = w1.grad.copy()
        monkeypatch.undo()
        monkeypatch.setattr(enhancer, "_forward", oracles.forward_serial)
        m.zero_grad()
        for _ in range(2):
            _batch_loss(m, segments).backward()
        np.testing.assert_array_equal(got, w1.grad)

    def test_w1_products_run_off_the_calling_thread(self, monkeypatch):
        jobs = _Jobs(monkeypatch)
        made = set()
        real_init = ad.DiffArray.__init__

        def recorded_init(self, *a, **kw):
            made.add(threading.get_ident())
            real_init(self, *a, **kw)

        monkeypatch.setattr(ad.DiffArray, "__init__", recorded_init)
        m = _tiny_model(seed=8)
        _batch_loss(m, _segments(32, (9, 12))).backward()
        caller = threading.get_ident()
        assert len(jobs.ended) == 2 and caller not in jobs.started + jobs.ended
        assert made == {caller}

    def test_job_exception_reaches_the_caller_after_every_job(self, monkeypatch):
        jobs = _Jobs(monkeypatch, fail=[_Boom])
        m = _tiny_model(seed=9)
        loss = _batch_loss(m, _segments(33, (9, 12, 7)))
        with pytest.raises(_Boom):
            loss.backward()
        assert len(jobs.ended) == 3 and threading.get_ident() not in jobs.ended

    def test_node_exception_leaves_before_a_jobs(self, monkeypatch):
        jobs = _Jobs(monkeypatch, fail=[_Boom, _Boom])
        real = ad.lstm_layer

        def failing_backward(*args, **kwargs):
            node, state = real(*args, **kwargs)

            def backward(g):   # runs after both first-layer nodes handed off
                raise ZeroDivisionError

            node._backward = backward
            return node, state

        monkeypatch.setattr(ad, "lstm_layer", failing_backward)
        m = _tiny_model(seed=10)
        loss = _batch_loss(m, _segments(34, (9, 12)))
        with pytest.raises(ZeroDivisionError):
            loss.backward()
        assert len(jobs.ended) == 2   # both jobs raised, and both were joined

    def test_spent_graph_still_raises(self, monkeypatch):
        jobs = _Jobs(monkeypatch)
        m = _tiny_model(seed=11)
        loss = _batch_loss(m, _segments(35, (9, 12)))
        loss.backward()
        assert len(jobs.ended) == 2
        with pytest.raises(RuntimeError, match="second backward"):
            loss.backward()
        # the first-layer nodes handed off again before the LSTM's raised
        assert len(jobs.started) == len(jobs.ended) == 4

    def test_next_clean_step_equals_a_fresh_run(self, monkeypatch):
        segments = _segments(36, (9, 12))
        m = _tiny_model(seed=12)
        _Jobs(monkeypatch, fail=[_Boom])
        with pytest.raises(_Boom):
            _batch_loss(m, segments).backward()
        m.zero_grad()
        _batch_loss(m, segments).backward()
        fresh = _tiny_model(seed=12)
        _batch_loss(fresh, segments).backward()
        want = fresh.views(fresh.grads)
        for name, grad in m.views(m.grads).items():
            np.testing.assert_array_equal(grad, want[name])


class TestTrainingMemory:
    @staticmethod
    def _kept_after_forward(context, lengths=(256,) * 4):
        """Heap that a desk batch's graph (four 256-frame segments by
        default) keeps from forward to backward, weights outside the count."""
        rng = np.random.default_rng(8)
        segments = [tuple(rng.uniform(0.1, 2.0, (2, n, 129))) for n in lengths]
        m = build_model(129, lstm_units=(64, 64), fnn_hidden=128, context=context)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = _batch_loss(m, segments)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        return kept

    def test_graph_keeps_no_noise_net_features(self):
        # each segment's 256 x (context + 1)·129 feature matrix would add
        # 30.2 MiB here from context 30 to 60; the first layer forms it again
        # in backward instead of keeping it
        grown = self._kept_after_forward(60) - self._kept_after_forward(30)
        assert grown < 2 ** 20, grown / 2 ** 20

    def test_graph_keeps_one_array_per_dense_layer(self):
        # 18.1 MiB for segments of 147, 247, 256 and 256 frames; 21.7 MiB
        # when the gain and the combination were six nodes, keeping the sum,
        # both products and 1 - gain as grids besides, and 30.9 MiB when
        # each dense layer was a matmul, a row-vector add and an activation
        # node, each keeping an output of the layer's size
        kept = self._kept_after_forward(30, (147, 247, 256, 256))
        assert kept < 21 * 2 ** 20, kept / 2 ** 20


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
    def test_gradients_zeroed_in_their_arena_before_the_graph_is_built(
            self, corpus, monkeypatch):
        cfg, manifest = corpus
        model = build_model_from(cfg)
        arena, held = model.grads, []
        build = enhancer._batch_loss

        def recording(m, segments):
            held.append((m.grads is arena, not arena.any(),
                         all(np.shares_memory(p.grad, arena) for p in m.params.values())))
            return build(m, segments)

        monkeypatch.setattr(enhancer, "_batch_loss", recording)
        train(model, manifest, cfg.replace(epochs=2), max_steps=3)
        assert held == [(True, True, True)] * 3 and arena.any()

    def test_zero_learning_rate_keeps_parameters(self, corpus):
        cfg, manifest = corpus
        cfg = cfg.replace(lr=1e-300)  # effectively zero; lr must be positive
        model = build_model_from(cfg)
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
            train(build_model_from(cfg), manifest, cfg.replace(**framing),
                  out_dir=tmp_path / "run", max_steps=1)
        assert not (tmp_path / "run").exists()

    def test_same_seed_identical_history(self, corpus):
        cfg, manifest = corpus
        cfg = cfg.replace(epochs=2)
        _, h1 = train(build_model_from(cfg), manifest, cfg, max_steps=4)
        _, h2 = train(build_model_from(cfg), manifest, cfg, max_steps=4)
        assert h1 == h2
        assert len(h1) == 4

    def test_loss_decreases_on_smoke_run(self, corpus):
        cfg, manifest = corpus
        model = build_model_from(cfg)
        _, history = train(model, manifest, cfg.replace(epochs=30),
                           max_steps=40)
        assert np.mean(history[-5:]) < np.mean(history[:5])
        assert np.all(np.isfinite(history))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow intended
    def test_divergence_halts_with_checkpoints_on_disk(self, corpus, tmp_path):
        cfg, manifest = corpus
        model = build_model_from(cfg)
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
        model = build_model_from(cfg)
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
            train(build_model_from(cfg), data_io.CorpusManifest(entries), cfg,
                  max_steps=1)

    def test_trains_at_the_configured_sample_rate(self, tmp_path):
        cfg = _training_cfg(sample_rate=8000, train_count=2)
        manifest = data_io.synth_corpus(cfg, tmp_path)
        _, history = train(build_model_from(cfg), manifest, cfg, max_steps=1)
        assert len(history) == 1 and np.isfinite(history[0])

    def test_checkpoints_and_history_written(self, corpus, tmp_path):
        cfg, manifest = corpus
        out = tmp_path / "ok"
        train(build_model_from(cfg), manifest, cfg, out_dir=out, max_steps=2)
        assert (out / "model.nkf").exists()
        assert (out / "epoch000.nkf").exists()
        lines = (out / "loss_history.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 3

    # every checkpoint in out_dir sits beside the loss history that led to
    # it, and model.nkf is a copy of the last one
    def test_out_dir_changes_no_bit_of_training(self, corpus, tmp_path):
        cfg, manifest = corpus
        cfg = cfg.replace(epochs=3)   # 2 steps per epoch: 5 stop inside the third
        quiet, h_quiet = train(build_model_from(cfg), manifest, cfg, max_steps=5)
        saved, h_saved = train(build_model_from(cfg), manifest, cfg,
                               out_dir=tmp_path / "run", max_steps=5)
        assert h_quiet == h_saved and len(h_quiet) == 5
        for name, p in quiet.parameters().items():
            assert np.array_equal(p.values, saved.parameters()[name].values), name

    @pytest.mark.parametrize("max_steps, last", [(3, "epoch002.nkf"),
                                                 (None, "epoch003.nkf")])
    def test_model_file_is_the_last_checkpoint(self, corpus, tmp_path, max_steps,
                                               last):
        cfg, manifest = corpus
        cfg = cfg.replace(epochs=3)
        out = tmp_path / "run"
        model, history = train(build_model_from(cfg), manifest, cfg, out_dir=out,
                               max_steps=max_steps)
        names = ["epoch000.nkf", "epoch001.nkf", "epoch002.nkf", "epoch003.nkf"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            names[:names.index(last) + 1] + ["loss_history.csv", "model.nkf"])
        assert (out / "model.nkf").read_bytes() == (out / last).read_bytes()
        loaded = load_checkpoint(out / "model.nkf")
        assert loaded.adam_step == len(history)
        for name, p in model.parameters().items():
            assert np.array_equal(p.values, loaded.parameters()[name].values), name

    @pytest.mark.parametrize("stop_at, last, steps_saved", [(0, "epoch000.nkf", 0),
                                                            (3, "epoch001.nkf", 2)])
    def test_interrupted_run_leaves_checkpoint_beside_its_history(
            self, corpus, tmp_path, monkeypatch, stop_at, last, steps_saved):
        cfg, manifest = corpus
        out = tmp_path / "run"
        steps = []
        step = enhancer.optimizer_step

        def interrupted(*args, **kwargs):
            if len(steps) == stop_at:
                raise _Interrupt
            steps.append(step(*args, **kwargs))

        monkeypatch.setattr(enhancer, "optimizer_step", interrupted)
        with pytest.raises(_Interrupt):
            train(build_model_from(cfg), manifest, cfg.replace(epochs=3), out_dir=out)
        assert not (out / "model.nkf").exists()
        assert load_checkpoint(out / last).adam_step == steps_saved
        rows = (out / "loss_history.csv").read_text().splitlines()
        assert rows[0] == "step,loss" and len(rows) == 1 + steps_saved

    def test_failed_model_write_leaves_the_run_directory_whole(self, corpus, tmp_path,
                                                               monkeypatch):
        cfg, manifest = corpus
        train(build_model_from(cfg), manifest, cfg, out_dir=tmp_path / "ok", max_steps=2)
        replace = os.replace

        def refuse_model(src, dst):
            if os.path.basename(dst) == "model.nkf":
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse_model)
        out = tmp_path / "failed"
        with pytest.raises(OSError, match="disk full"):
            train(build_model_from(cfg), manifest, cfg, out_dir=out, max_steps=2)
        kept = ["epoch000.nkf", "epoch001.nkf", "loss_history.csv"]
        assert sorted(p.name for p in out.iterdir()) == kept
        for name in kept:
            assert (out / name).read_bytes() == (tmp_path / "ok" / name).read_bytes()

    def test_failed_history_write_keeps_the_previous_history(self, tmp_path, monkeypatch):
        path = tmp_path / "loss_history.csv"
        enhancer._write_history([1.5, 0.25], str(path))
        before = path.read_bytes()

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def writerows(self, rows):
                self.fh.write("step,loss\r\n")
                raise OSError("disk full")

        monkeypatch.setattr(enhancer.csv, "writer", HalfWriter)
        with pytest.raises(OSError, match="disk full"):
            enhancer._write_history([1.5, 0.25, 0.125], str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["loss_history.csv"]


class _Interrupt(Exception):
    """Stands for a run killed between two steps."""


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
        # kf is a --method, but its LP settings are not on the model
        m = _tiny_model()
        for method in ("magic", "kf"):
            with pytest.raises(DataError, match="'nkf', 'lstm' or 'wiener'"):
                enhance(m, Waveform(np.zeros(100)), method=method)

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
