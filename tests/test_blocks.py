"""Inference in blocks of frames against the whole-utterance oracle.

Every method that runs the model infers in ``signal_core.BLOCK``-frame blocks
with carried state; ``oracles.enhance_whole`` runs each network over the
whole utterance at once. On the desk model's shapes the two must agree bit
for bit, on the waveform and on every grid: at frame counts that give one
block, blocks that divide evenly, a remainder of one frame and long inputs,
and on the twelve inputs of the benchmark's ``enhance-nkf`` workload.
"""

import numpy as np
import pytest

from nkf import autodiff as ad
from nkf import data_io, enhancer
from nkf.config import RunConfig
from nkf.networks import build_model, fnn_features, noise_fnn_forward_grid
from nkf.signal_core import BLOCK, Waveform, block_bounds

from oracles import enhance_whole

CFG = RunConfig(seed=0)   # the desk preset
METHODS = tuple(enhancer.METHODS)


@pytest.fixture(scope="module")
def model():
    return build_model(CFG.n_bins, lstm_units=CFG.lstm_unit_list,
                       fnn_hidden=CFG.fnn_hidden, context=CFG.context,
                       window=CFG.window, hop=CFG.hop,
                       variance_span=CFG.variance_span, seed=0)


def _noisy(n_frames: int) -> Waveform:
    n = (n_frames - 1) * CFG.hop + CFG.window + 17   # 17 samples past the last frame
    rng = np.random.default_rng(n_frames)
    speech = Waveform(data_io._synth_speech(rng, n, CFG.sample_rate))
    noise = Waveform(data_io._synth_noise(rng, "pink", n + 8000, CFG.sample_rate))
    return data_io.mix_at_snr(speech, noise, 5.0, rng)[0]


def _assert_matches_whole(m, noisy, method):
    got = enhancer.METHODS[method][0](m, noisy, CFG, None)
    want = enhance_whole(m, noisy, method, CFG)
    assert np.array_equal(got.waveform.samples, want.waveform.samples)
    got_grids, want_grids = vars(got.grids), vars(want.grids)
    assert [k for k, v in got_grids.items() if v is not None] == \
        [k for k, v in want_grids.items() if v is not None]
    for name, grid in want_grids.items():
        if grid is not None:
            assert np.array_equal(got_grids[name], grid), name


class TestBlockPlan:
    def test_blocks_cover_the_input_with_bounded_sizes(self):
        for n_frames in [*range(1, 3 * BLOCK + 2), 4 * BLOCK - 1, 4 * BLOCK,
                         10 * BLOCK + 7]:
            bounds = block_bounds(n_frames)
            assert bounds[0][0] == 0 and bounds[-1][1] == n_frames
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            if n_frames < 2 * BLOCK:
                assert bounds == [(0, n_frames)], n_frames
            else:
                assert all(BLOCK <= hi - lo < 2 * BLOCK for lo, hi in bounds), n_frames


class TestCarriedState:
    def test_lstm_layer_in_two_halves_equals_one_call(self, model):
        # desk shapes, both halves at least BLOCK frames
        x = np.random.default_rng(5).uniform(0, 3, (1, 600, CFG.n_bins))
        w = [model.params[f"lstm0.{k}"] for k in ("wx", "wh", "b")]
        with ad.no_grad():
            whole, (h, c) = ad.lstm_layer(x, *w)
            first, state = ad.lstm_layer(x[:, :BLOCK], *w)
            second, (h2, c2) = ad.lstm_layer(x[:, BLOCK:], *w, state)
        assert np.array_equal(np.concatenate([first.values, second.values], axis=1),
                              whole.values)
        assert np.array_equal(h2, h) and np.array_equal(c2, c)

    @pytest.mark.parametrize("lo,hi", [(0, 7), (3, 40), (28, 29), (29, 90), (50, 90)])
    def test_noise_net_rows_read_their_context_from_the_grid(self, lo, hi):
        # frames before the utterance start repeat frame 0; later ones are real
        rng = np.random.default_rng(lo)
        amp, sigma_y2 = rng.uniform(0, 2, (2, 90, 6))
        whole = fnn_features(amp, sigma_y2, 30)
        assert np.array_equal(fnn_features(amp, sigma_y2, 30, lo, hi), whole[lo:hi])
        m = build_model(6, lstm_units=(2,), fnn_hidden=5, context=30, seed=1)
        with ad.no_grad():
            assert np.array_equal(noise_fnn_forward_grid(m, amp, sigma_y2, lo, hi).values,
                                  noise_fnn_forward_grid(m, amp, sigma_y2).values[lo:hi])


@pytest.mark.parametrize("n_frames", [1, 4, 511, 512, 513, 767, 768, 1023, 2497])
def test_methods_match_whole_utterance(model, n_frames):
    noisy = _noisy(n_frames)
    assert 1 + (len(noisy) - CFG.window) // CFG.hop == n_frames
    for method in METHODS:
        _assert_matches_whole(model, noisy, method)


#: The benchmark's enhance-nkf inputs: samples per utterance, and the ones
#: given 3200 samples of digital silence in front
BENCH_LENGTHS = (448, 8000, 16000, 32000, 576, 24000, 12000, 40000, 640, 16000,
                 8000, 32000)
BENCH_LEAD_IN = (2, 6, 10)


def test_benchmark_inputs_match_whole_utterance(model, tmp_path):
    synth = CFG.replace(utterance_seconds=max(BENCH_LENGTHS) / CFG.sample_rate,
                        train_count=1, dev_count=1, test_count=len(BENCH_LENGTHS))
    corpus = data_io.synth_corpus(synth, tmp_path, seed=0)
    for i, (entry, n) in enumerate(zip(corpus.split_entries("test"), BENCH_LENGTHS)):
        lead = np.zeros(3200 if i in BENCH_LEAD_IN else 0)
        samples = data_io.read_wav(entry.noisy_path).samples[:n]
        noisy = Waveform(np.concatenate([lead, samples]))
        for method in METHODS:
            _assert_matches_whole(model, noisy, method)
