"""The fused LSTM layer against the per-frame graph it replaced (kept in
``oracles``), and finite-difference tests of the sigmoid and tanh ops that
only the oracles use."""

import numpy as np
import pytest

from nkf import autodiff as ad
from nkf.enhancer import _batch_loss, _forward, _inputs
from nkf.networks import build_model, lstm_forward

from oracles import add, lstm_forward_per_frame, reference_model, sigmoid, tanh
from test_autodiff import _fd_check

FORWARD_ATOL = 1e-12
GRAD_RTOL = 1e-10


class TestOracleOps:
    def test_activations(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2.0, 2.0, (5,))
        for op in (sigmoid, tanh):
            _fd_check(lambda xs, op=op: op(xs[0]), [x])

    def test_sigmoid_derivative_at_zero(self):
        x = ad.DiffArray(np.array(0.0))
        y = sigmoid(x)
        y.backward()
        assert x.grad == pytest.approx(0.25)


def _loss(amp, res, amp_target, res_target):
    return add(ad.mean_square(amp, ad.lift(amp_target)),
                  ad.mean_square(res, ad.lift(res_target)))


def _grads(m):
    """The predictor's gradients; the noise net is not in these graphs."""
    out = {k: v.grad.copy() for k, v in m.params.items() if not k.startswith("fnn.")}
    m.zero_grad()
    return out


def _assert_grads_close(got, want):
    for name, g in want.items():
        scale = max(np.max(np.abs(g)), 1e-300)
        assert np.max(np.abs(got[name] - g)) <= GRAD_RTOL * scale, name


@pytest.mark.parametrize("units", [(2,), (64, 64)], ids=["2", "64x64"])
@pytest.mark.parametrize("lengths", [(1,), (9,), (1, 1, 1), (7, 12, 3)],
                         ids=["B1-T1", "B1-T9", "B3-T1", "B3-padded"])
def test_fused_matches_per_frame_oracle(units, lengths):
    n_bins = 5
    rng = np.random.default_rng(len(units) * 100 + sum(lengths))
    p = reference_model(n_bins, units=units, lstm_rng=rng)
    seqs = [rng.uniform(0, 2, (n, n_bins)) for n in lengths]
    targets = [(rng.uniform(0, 2, s.shape), rng.uniform(-1, 1, s.shape)) for s in seqs]

    batch = np.zeros((len(seqs), max(lengths), n_bins))
    for b, s in enumerate(seqs):
        batch[b, :len(s)] = s
    amp, res, _ = lstm_forward(p, batch)
    assert amp.shape == res.shape == batch.shape
    total = None
    for b, (s, (ta, tr)) in enumerate(zip(seqs, targets)):
        loss = _loss(amp[b, :len(s)], res[b, :len(s)], ta, tr)
        total = loss if total is None else add(total, loss)
    total.backward()
    fused = _grads(p)

    for b, (s, (ta, tr)) in enumerate(zip(seqs, targets)):
        want_amp, want_res = lstm_forward_per_frame(p, s)
        np.testing.assert_allclose(amp.values[b, :len(s)], want_amp.values,
                                   rtol=0, atol=FORWARD_ATOL)
        np.testing.assert_allclose(res.values[b, :len(s)], want_res.values,
                                   rtol=0, atol=FORWARD_ATOL)
        _loss(want_amp, want_res, ta, tr).backward()
    _assert_grads_close(fused, _grads(p))


def test_padded_batch_equals_each_utterance_alone():
    m = build_model(6, lstm_units=(4, 3), fnn_hidden=8, context=3, window=10,
                    hop=5, variance_span=4, seed=3)
    rng = np.random.default_rng(22)
    segments = [(rng.uniform(0.2, 3.0, (n, 6)), rng.uniform(0.1, 2.5, (n, 6)))
                for n in (11, 4, 8)]

    utts = [_inputs(m, noisy, clean) for noisy, clean in segments]
    batched, _ = _forward(m, utts)
    alone = []
    for (padded, _), utt in zip(batched, utts):
        ((single, _),), _ = _forward(m, [utt])
        np.testing.assert_allclose(float(padded.values), float(single.values),
                                   rtol=1e-13, atol=0)
        m.zero_grad()
        single.backward()
        alone.append(m.views(m.grads.copy()))

    m.zero_grad()
    loss = _batch_loss(m, segments)
    loss.backward()
    _assert_grads_close(m.views(m.grads),
                        {k: sum(g[k] for g in alone) / len(alone) for k in alone[0]})
