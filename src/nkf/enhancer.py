"""Gain-weighted combination of Wiener and LSTM estimates, trained end to end.

Per utterance the pipeline is: run the LSTM predictor on the noisy amplitude
grid, exponentiate its residual head into a prediction-residual variance,
estimate the noise variance with the feed-forward net, Wiener-filter the
noisy amplitudes with that estimate, weigh the two clean-amplitude estimates
by the gain sigma_r2 / (sigma_r2 + sigma_v2), and take the mean squared
amplitude error against the clean grid as the loss. ``_forward`` composes
that one differentiable graph over a block of frames, once for training,
``gradient_check`` and blocked inference (``nkf_forward``) alike; synthesis
with the noisy phase happens outside the loss path.
"""

from __future__ import annotations

import csv
import functools
import os

import numpy as np

from . import autodiff as ad
from . import data_io, kalman, signal_core, wiener
from .errors import ConfigError, DataError, NumericsError
from .networks import NkfModel, build_model, first_layer_product, lstm_forward, \
    noise_fnn_forward_grid, optimizer_step, save_checkpoint
from .pipeline import EnhancementResult, NkfFrameEstimates, check_framing, \
    enhance_with, lstm_features, run_blocks, wiener_estimate
from .worker import on_worker


def nkf_gain(sigma_r2, sigma_v2) -> ad.DiffArray:
    """Weight on the Wiener estimate, ``sigma_r2 / (sigma_r2 + sigma_v2)``: one
    node whose value and gradients round as the ``add``, ``div`` chain's did."""
    r, v = ad.lift(sigma_r2), ad.lift(sigma_v2)
    ad.check_shapes("nkf_gain", r, v)
    gain = r.values / (r.values + v.values)

    def backward(g):
        total = r.values + v.values
        g_total = -g * gain / total
        r._accumulate(g / total)
        r._accumulate(g_total)
        v._accumulate(g_total)

    return ad.make_node(gain, (r, v), backward)


def nkf_combine(gain, amp_wiener, amp_lstm) -> ad.DiffArray:
    """Convex per-bin combination ``gain * amp_wiener + (1 - gain) * amp_lstm``
    of the two clean-amplitude estimates: one node whose value and gradients
    round as the ``mul``, ``sub``, ``add`` chain's did."""
    k, w, l = ad.lift(gain), ad.lift(amp_wiener), ad.lift(amp_lstm)
    ad.check_shapes("nkf_combine", k, w, l)

    def backward(g):
        k._accumulate(g * w.values)
        k._accumulate(-(g * l.values))
        w._accumulate(g * k.values)
        l._accumulate(g * (1.0 - k.values))

    out = k.values * w.values + (1.0 - k.values) * l.values
    return ad.make_node(out, (k, w, l), backward)


def nkf_loss(amp_out, clean_amp) -> ad.DiffArray:
    """Mean squared amplitude error over all time-frequency bins."""
    amp_out, clean_amp = ad.lift(amp_out), ad.lift(clean_amp)
    if amp_out.shape != clean_amp.shape:
        raise DataError("loss grids must share one shape")
    return ad.mean_square(amp_out, clean_amp)


def _inputs(m: NkfModel, noisy_amp, clean_amp=None) -> tuple:
    """An utterance's whole grids, formed once: noisy amplitudes, network
    features, ``track_sigma_y``'s noisy variance, clean amplitudes or None."""
    noisy = np.asarray(noisy_amp, dtype=np.float64)
    if noisy.ndim != 2 or noisy.shape[1] != m.n_bins:
        raise DataError(f"model expects T x {m.n_bins} amplitudes")
    if clean_amp is not None and np.shape(clean_amp) != noisy.shape:
        raise DataError("loss grids must share one shape")
    return (noisy, lstm_features(noisy, m.log_features),
            wiener.track_sigma_y(noisy, m.variance_span), clean_amp)


def _forward(m: NkfModel, utts, lo: int = 0, hi: int | None = None, state=None):
    """The NKF graph over frames lo..hi-1 (by default all) of ``_inputs``
    tuples: the LSTM runs once from ``state`` on their features zero-padded at
    the end to ``hi - lo`` frames (exact: the LSTM is causal; one utterance
    that has every row runs on a view of its own), the rest per utterance on
    the rows it has, the noise net's context reaching before lo.

    While the LSTM runs, one job on the worker thread (``on_worker``) forms
    every utterance's noise-net first-layer product, block by block in one
    feature buffer that only the job holds. Every array it writes is
    allocated here and every node is built here, so every value is the
    serial graph's, bit for bit. The job is joined before any exception
    leaves, and an exception of the LSTM's leaves before one of the job's.
    At full width the LSTM's first recurrent product that it splits with the
    worker (``worker.split_matmul``) waits behind this job.

    Returns per utterance the loss node (None without a clean grid) and the
    grids, which are the nodes' own ``values``, not copies (no op writes a
    node's values once it is made: see ``autodiff``); then the LSTM's state."""
    hi = max(len(noisy) for noisy, *_ in utts) if hi is None else hi
    stops = [min(hi, len(noisy)) for noisy, *_ in utts]
    if len(utts) == 1 and stops[0] == hi:
        x = utts[0][1][None, lo:hi]
    else:
        x = np.zeros((len(utts), hi - lo, m.n_bins))
        for b, (_, feats, _, _) in enumerate(utts):
            x[b, :len(feats[lo:hi])] = feats[lo:hi]
    pres = [np.empty((stop - lo, m.hidden)) for stop in stops]
    rows = max(b - a for stop in stops for a, b in signal_core.block_bounds(stop - lo))

    def products(work):
        for (_, feats, sigma_y2, _), stop, pre in zip(utts, stops, pres):
            first_layer_product(m, feats, sigma_y2, lo, stop, pre, work)

    join = on_worker(functools.partial(
        products, np.empty((rows, (m.context + 1) * m.n_bins))))   # only the job holds it
    try:
        amp, res, state = lstm_forward(m, x, state)
    finally:
        error = join()
    if error is not None:
        raise error
    out = []
    for b, (noisy, feats, sigma_y2, clean) in enumerate(utts):
        stop, pre = stops[b], pres[b]
        sigma_v2 = noise_fnn_forward_grid(m, feats, sigma_y2, lo, stop, pre)
        amp_wiener = wiener.apply_wiener(noisy[lo:stop], sigma_v2, sigma_y2[lo:stop])
        amp_lstm, sigma_r2 = amp[b, :stop - lo], ad.exp(res[b, :stop - lo])
        gain = nkf_gain(sigma_r2, sigma_v2)
        amp_out = nkf_combine(gain, amp_wiener, amp_lstm)
        loss = None if clean is None else nkf_loss(amp_out, clean[lo:stop])
        out.append((loss, NkfFrameEstimates(*(node.values for node in (
            amp_lstm, amp_wiener, sigma_r2, sigma_v2, gain, amp_out)))))
    return out, state


def nkf_forward(m: NkfModel, noisy: signal_core.Spectrogram) -> NkfFrameEstimates:
    """The NKF grids of a noisy spectrogram: ``_forward`` on each
    ``signal_core.BLOCK`` frame block, the LSTM's state carried from block to
    block. The same as the graph over the whole utterance."""
    utt = _inputs(m, noisy.amplitude)

    def step(lo, hi, state):
        ((_, est),), state = _forward(m, [utt], lo, hi, state)
        return est, state

    return run_blocks(noisy.n_frames, step)


def enhance(m: NkfModel, noisy: signal_core.Waveform,
            method: str = "nkf") -> EnhancementResult:
    """Enhance one utterance, computing only what ``method``'s output reads:
    ``nkf`` the whole graph, ``lstm`` the predictor alone, ``wiener``
    ``enhance_wiener`` with the model's noise net and framing. The networks
    run in blocks of frames (``pipeline.run_blocks``)."""
    if method == "wiener":
        return enhance_wiener(noisy, m, model=m)   # the model carries its framing
    if method == "nkf":
        return enhance_with(noisy, m, functools.partial(nkf_forward, m), m)
    if method != "lstm":
        raise DataError(f"enhance runs 'nkf', 'lstm' or 'wiener', not {method!r}; 'kf' needs "
                        f"kalman.enhance_kf_baseline and a RunConfig for its LP settings")

    def estimate(spec):
        feats = lstm_features(spec.amplitude, m.log_features)

        def step(lo, hi, state):
            amp, _, state = lstm_forward(m, feats[None, lo:hi], state)
            return NkfFrameEstimates(amp_out=amp.values[0]), state

        amp = run_blocks(spec.n_frames, step).amp_out
        return NkfFrameEstimates(amp_lstm=amp, amp_out=amp)

    return enhance_with(noisy, m, estimate, m)


def enhance_wiener(noisy: signal_core.Waveform, cfg, sigma_v2_grid=None,
                   model: NkfModel | None = None) -> EnhancementResult:
    """Instantaneous Wiener pipeline with an oracle noise grid, else the
    model's noise estimate; ``cfg`` gives the framing, which must be the
    model's. Same inputs as ``kalman.enhance_kf_baseline``."""
    def estimate(spec):
        sigma_v2, amp = wiener_estimate(spec, cfg.variance_span, sigma_v2_grid, model)
        return NkfFrameEstimates(amp_wiener=amp, sigma_v2=sigma_v2, amp_out=amp)

    return enhance_with(noisy, cfg, estimate, model)


#: ``nkf enhance --method`` name -> (run(model, noisy, cfg, oracle noise grid
#: or None), whether an oracle noise grid may stand in for the model)
METHODS = {
    "nkf": (lambda m, noisy, cfg, grid: enhance(m, noisy, "nkf"), False),
    "kf": (lambda m, noisy, cfg, grid: kalman.enhance_kf_baseline(
        noisy, cfg, sigma_v2_grid=grid, model=m), True),
    "wiener": (lambda m, noisy, cfg, grid: enhance_wiener(noisy, cfg, grid, m), True),
    "lstm": (lambda m, noisy, cfg, grid: enhance(m, noisy, "lstm"), False),
}


def read_train_pair(entry, cfg):
    """``entry``'s (noisy, clean) waveforms at ``cfg``'s rate and frame count:
    whole files (a segment may end before either) of one length, one window at least."""
    noisy = data_io.read_wav(entry.noisy_path, cfg.sample_rate)
    clean = data_io.read_wav(entry.clean_path, cfg.sample_rate)
    if len(clean) != len(noisy):
        raise DataError(f"train utterance {entry.utt_id}: clean and noisy "
                        f"waveforms must have equal length, got "
                        f"{len(clean)} and {len(noisy)} samples")
    try:
        return noisy, clean, signal_core.frame_count(len(noisy), cfg.window, cfg.hop)
    except DataError as exc:
        raise DataError(f"train utterance {entry.utt_id}: {exc}") from exc


def _segment(entry, cfg, rng) -> tuple[np.ndarray, np.ndarray]:
    """``entry``'s (noisy, clean) amplitudes over ``cfg.seq_len`` frames from
    a random start, or over all of them if there are no more; one draw at most."""
    noisy, clean, n_frames = read_train_pair(entry, cfg)
    t0 = 0 if n_frames <= cfg.seq_len else int(
        rng.integers(0, n_frames - cfg.seq_len + 1))
    # the samples frames t0 .. t1 - 1 cover, and no more, are transformed
    t1 = min(n_frames, t0 + cfg.seq_len)
    cut = slice(t0 * cfg.hop, (t1 - 1) * cfg.hop + cfg.window)
    return tuple(signal_core.stft(signal_core.Waveform(w.samples[cut], w.sample_rate),
                                  cfg.window, cfg.hop).amplitude for w in (noisy, clean))


def _batch_loss(m: NkfModel, segments) -> ad.DiffArray:
    """Mean loss over (noisy, clean) segments: one node rounded as ``add``, ``div`` were."""
    out, _ = _forward(m, [_inputs(m, noisy, clean) for noisy, clean in segments])
    losses = tuple(loss for loss, _ in out)

    def backward(g):
        for loss in losses:
            loss._accumulate(g / len(losses))

    total = functools.reduce(lambda a, b: a + b, [loss.values for loss in losses])
    return ad.make_node(total / len(losses), losses, backward)


def _write_history(history, path):
    with data_io.replacing(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("step", "loss"), *enumerate(map(repr, history))])


def train(m: NkfModel, manifest: "data_io.CorpusManifest", cfg,
          out_dir=None, max_steps: int | None = None):
    """Minibatch training over the manifest's train split.

    ``cfg``'s framing must be the model's. Sequences longer than
    ``cfg.seq_len`` frames contribute one random truncated segment per visit
    (state reset per segment); one backward pass on the batch-mean loss
    precedes each Adam step. ``epoch000.nkf`` (the model as given) and one
    checkpoint per epoch go beside the history that led to them; ``model.nkf``
    equals the last. A non-finite loss halts training and writes the history.

    Returns the trained model and the per-step loss history.
    """
    if max_steps is not None and max_steps < 1:
        raise DataError("max_steps must be at least 1")
    check_framing(cfg, m)
    entries = manifest.split_entries("train")
    if not entries:
        raise DataError("manifest has no train entries")
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []

    def save(checkpoint=None):
        """Write the named checkpoint, if any, then the history that led to it."""
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            if checkpoint is not None:
                save_checkpoint(m, os.path.join(out_dir, checkpoint))
            _write_history(history, os.path.join(out_dir, "loss_history.csv"))

    save("epoch000.nkf")
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(entries))
        for lo in range(0, len(order), cfg.batch):
            if len(history) == max_steps:
                break
            segments = [_segment(entries[j], cfg, rng) for j in order[lo:lo + cfg.batch]]
            m.zero_grad()
            loss = _batch_loss(m, segments)
            loss_val = float(loss.values)
            if not np.isfinite(loss_val):
                save()
                raise NumericsError(  # numbered like loss_history.csv
                    f"diverged: non-finite training loss at step {len(history)}")
            loss.backward()
            del loss   # the batch graph goes before the next step builds one
            optimizer_step(m, lr=cfg.lr)
            history.append(loss_val)
        save(f"epoch{epoch:03d}.nkf")
        if len(history) == max_steps:
            break
    if out_dir is not None:
        save_checkpoint(m, os.path.join(out_dir, "model.nkf"))
    return m, history


#: gradient_check's segment length and central-difference step
_GRADCHECK_FRAMES, _GRADCHECK_STEP = 5, 1e-5


def gradient_check(seed: int = 0) -> float:
    """Compare every parameter's analytic gradient with central differences.

    Differentiates the training loss (``_batch_loss``) of a tiny model drawn
    from ``seed`` on one random segment, so the full check stays fast;
    returns the maximum relative error over all parameter entries.
    """
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    model = build_model(4, lstm_units=(2,), fnn_hidden=8, context=3,
                        window=6, hop=3, variance_span=4, seed=seed)
    rng = np.random.default_rng(seed + 1)
    noisy_amp = rng.uniform(0.5, 3.0, (_GRADCHECK_FRAMES, model.n_bins))
    clean_amp = rng.uniform(0.1, 2.5, (_GRADCHECK_FRAMES, model.n_bins))

    segments = [(noisy_amp, clean_amp)]
    _batch_loss(model, segments).backward()

    def loss_at() -> float:
        with ad.no_grad():
            return float(_batch_loss(model, segments).values)

    worst, values = 0.0, model.values   # every parameter entry, in declared order
    for i in range(values.size):
        saved = values[i]
        values[i] = saved + _GRADCHECK_STEP
        up = loss_at()
        values[i] = saved - _GRADCHECK_STEP
        down = loss_at()
        values[i] = saved
        numeric = (up - down) / (2.0 * _GRADCHECK_STEP)
        a = model.grads[i]
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
    return worst
