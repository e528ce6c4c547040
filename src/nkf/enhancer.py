"""Gain-weighted combination of Wiener and LSTM estimates, trained end to end.

Per utterance the pipeline is: run the LSTM predictor on the noisy amplitude
grid, exponentiate its residual head into a prediction-residual variance,
estimate the noise variance with the feed-forward net, Wiener-filter the
noisy amplitudes with that estimate, weigh the two clean-amplitude estimates
by the gain sigma_r2 / (sigma_r2 + sigma_v2), and take the mean squared
amplitude error against the clean grid as the loss. Everything up to the
output grid is one differentiable graph; synthesis with the noisy phase
happens outside the loss path.
"""

from __future__ import annotations

import csv
import functools
import os

import numpy as np

from . import autodiff as ad
from . import data_io, kalman, signal_core, wiener
from .errors import ConfigError, DataError, NumericsError
from .networks import NkfModel, build_model, lstm_forward, \
    noise_fnn_forward_grid, optimizer_step, save_checkpoint
from .pipeline import EnhancementResult, NkfFrameEstimates, enhance_with, \
    lstm_features, wiener_estimate


def nkf_gain(sigma_r2, sigma_v2):
    """Weight on the Wiener estimate: residual variance vs noise variance."""
    sigma_r2 = np.asarray(sigma_r2, dtype=np.float64)
    sigma_v2 = np.asarray(sigma_v2, dtype=np.float64)
    if np.any(sigma_r2 <= 0) or np.any(sigma_v2 <= 0):
        raise DataError("gain inputs must be strictly positive")
    return sigma_r2 / (sigma_r2 + sigma_v2)


def nkf_combine(gain, amp_wiener, amp_lstm):
    """Convex per-bin combination of the two clean-amplitude estimates."""
    gain = np.asarray(gain, dtype=np.float64)
    return gain * np.asarray(amp_wiener) + (1.0 - gain) * np.asarray(amp_lstm)


def nkf_loss(amp_out, clean_amp) -> float:
    """Mean squared amplitude error over all time-frequency bins."""
    amp_out = np.asarray(amp_out, dtype=np.float64)
    clean_amp = np.asarray(clean_amp, dtype=np.float64)
    if amp_out.shape != clean_amp.shape:
        raise DataError("loss grids must share one shape")
    return float(np.mean((amp_out - clean_amp) ** 2))


def _forward(m: NkfModel, segments) -> list:
    """Build the differentiable pipeline over (noisy, clean or None) amplitude
    grids: the LSTM runs once on them zero-padded at the end to the longest
    (exact: the LSTM is causal), the rest of the graph per utterance.

    Returns per utterance the loss node (None without a clean grid) and the
    grids. The grids are the graph nodes' own ``values``, not copies: no op
    writes a node's values once it is made (see ``autodiff``)."""
    noisy = [np.asarray(n, dtype=np.float64) for n, _ in segments]
    if any(n.ndim != 2 or n.shape[1] != m.n_bins for n in noisy):
        raise DataError(f"model expects T x {m.n_bins} amplitudes")
    feats = [lstm_features(n, m.log_features) for n in noisy]
    n_frames = max(len(f) for f in feats)
    amp, res = lstm_forward(m, np.stack(
        [np.pad(f, ((0, n_frames - len(f)), (0, 0))) for f in feats]))
    return [_combine(m, n, f, amp[b, :len(f)], res[b, :len(f)], clean)
            for b, (n, f, (_, clean)) in enumerate(zip(noisy, feats, segments))]


def _combine(m: NkfModel, noisy_amp, feats, amp_lstm, res_logvar,
             clean_amp) -> tuple[ad.DiffArray | None, NkfFrameEstimates]:
    """The pipeline after the LSTM: noise net, Wiener branch, gain, loss."""
    sigma_y2 = wiener.track_sigma_y(noisy_amp, m.variance_span)
    sigma_v2 = noise_fnn_forward_grid(m, feats, sigma_y2)
    inv_sy = 1.0 / np.maximum(sigma_y2, wiener.VARIANCE_FLOOR)
    h = ad.clamp(ad.sub(1.0, ad.mul(sigma_v2, ad.lift(inv_sy))), 0.0, 1.0)
    amp_wiener = ad.mul(h, ad.lift(noisy_amp))
    sigma_r2 = ad.exp(res_logvar)
    gain = ad.div(sigma_r2, ad.add(sigma_r2, sigma_v2))
    amp_out = ad.add(ad.mul(gain, amp_wiener), ad.mul(ad.sub(1.0, gain), amp_lstm))
    loss = None
    if clean_amp is not None:
        clean_amp = np.asarray(clean_amp, dtype=np.float64)
        if clean_amp.shape != noisy_amp.shape:
            raise DataError("clean grid shape differs from noisy grid")
        loss = ad.mean_square(amp_out, ad.lift(clean_amp))
    return loss, NkfFrameEstimates(
        amp_lstm=amp_lstm.values, amp_wiener=amp_wiener.values,
        sigma_r2=sigma_r2.values, sigma_v2=sigma_v2.values, gain=gain.values,
        amp_out=amp_out.values)


def nkf_forward(m: NkfModel, noisy: signal_core.Spectrogram) -> NkfFrameEstimates:
    """The NKF grids of a noisy spectrogram."""
    return _forward(m, [(noisy.amplitude, None)])[0][1]


def enhance(m: NkfModel, noisy: signal_core.Waveform,
            method: str = "nkf") -> EnhancementResult:
    """Enhance one utterance, computing only what ``method``'s output reads:
    ``nkf`` the whole graph, ``lstm`` the predictor alone, ``wiener``
    ``enhance_wiener`` with the model's noise net and framing."""
    if method == "wiener":
        return enhance_wiener(noisy, m, model=m)   # the model carries its framing
    if method not in ("nkf", "lstm"):
        raise DataError(f"unknown enhancement method {method!r}")

    def estimate(spec):
        with ad.no_grad():
            if method == "lstm":
                amp = lstm_forward(m, lstm_features(
                    spec.amplitude, m.log_features))[0].values
                return amp, NkfFrameEstimates(amp_lstm=amp, amp_out=amp)
            est = nkf_forward(m, spec)
        return est.amp_out, est

    return enhance_with(noisy, m.window, m.hop, estimate, m)


def enhance_wiener(noisy: signal_core.Waveform, cfg, sigma_v2_grid=None,
                   model: NkfModel | None = None) -> EnhancementResult:
    """Instantaneous Wiener pipeline with an oracle noise grid, else the
    model's noise estimate; ``cfg`` gives window, hop and variance span, which
    must be the model's. Same inputs as ``kalman.enhance_kf_baseline``."""
    def estimate(spec):
        sigma_v2, amp = wiener_estimate(spec, cfg.variance_span, sigma_v2_grid, model)
        return amp, NkfFrameEstimates(amp_wiener=amp, sigma_v2=sigma_v2, amp_out=amp)

    return enhance_with(noisy, cfg.window, cfg.hop, estimate, model)


#: ``nkf enhance --method`` name -> (run(model, noisy, cfg, oracle noise grid
#: or None), whether an oracle noise grid may stand in for the model)
METHODS = {
    "nkf": (lambda m, noisy, cfg, grid: enhance(m, noisy, "nkf"), False),
    "kf": (lambda m, noisy, cfg, grid: kalman.enhance_kf_baseline(
        noisy, cfg, sigma_v2_grid=grid, model=m), True),
    "wiener": (lambda m, noisy, cfg, grid: enhance_wiener(noisy, cfg, grid, m), True),
    "lstm": (lambda m, noisy, cfg, grid: enhance(m, noisy, "lstm"), False),
}


def check_framing(cfg, m: NkfModel):
    """Raise ``ConfigError`` where ``cfg``'s framing differs from the model's."""
    differ = [f"{k} = {getattr(cfg, k)} (model {getattr(m, k)})"
              for k in ("window", "hop", "sample_rate", "variance_span")
              if getattr(cfg, k) != getattr(m, k)]
    if differ:
        raise ConfigError("framing differs from the model's: " + ", ".join(differ))


def _segment_bounds(n_frames: int, seq_len: int, rng) -> tuple[int, int]:
    if n_frames <= seq_len:
        return 0, n_frames
    t0 = int(rng.integers(0, n_frames - seq_len + 1))
    return t0, t0 + seq_len


def _batch_loss(m: NkfModel, segments) -> ad.DiffArray:
    """Mean loss over (noisy, clean) amplitude segments."""
    losses = [loss for loss, _ in _forward(m, segments)]
    return ad.div(functools.reduce(ad.add, losses), float(len(losses)))


def _write_history(history, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for i, value in enumerate(history):
            writer.writerow([i, repr(value)])


def train(m: NkfModel, manifest: "data_io.CorpusManifest", cfg,
          out_dir=None, max_steps: int | None = None):
    """Minibatch training over the manifest's train split.

    ``cfg``'s framing must be the model's. Sequences longer than
    ``cfg.seq_len`` frames contribute one random truncated segment per visit
    (state reset per segment); one backward pass on the batch-mean loss
    precedes each Adam step. Checkpoints are written per epoch; a non-finite
    loss halts training with the last good checkpoint still on disk.

    Returns the trained model and the per-step loss history.
    """
    if max_steps is not None and max_steps < 1:
        raise DataError("max_steps must be at least 1")
    check_framing(cfg, m)
    entries = [e for e in manifest.entries if e.split == "train"]
    if not entries:
        raise DataError("manifest has no train entries")
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(m, os.path.join(out_dir, "epoch000.nkf"))
    steps = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(entries))
        for lo in range(0, len(order), cfg.batch):
            batch = order[lo:lo + cfg.batch]
            segments = []
            for j in batch:
                entry = entries[int(j)]
                noisy = data_io.read_wav(entry.noisy_path, cfg.sample_rate)
                clean = data_io.read_wav(entry.clean_path, cfg.sample_rate)
                # checked on whole files: the segment drawn below could end
                # before a longer clean file does
                if len(clean) != len(noisy):
                    raise DataError(f"train utterance {entry.utt_id}: clean and noisy "
                                    f"waveforms must have equal length, got "
                                    f"{len(clean)} and {len(noisy)} samples")
                t0, t1 = _segment_bounds(
                    signal_core.frame_count(len(noisy), cfg.window, cfg.hop),
                    cfg.seq_len, rng)
                segments.append(tuple(
                    signal_core.stft_amplitude(w, cfg.window, cfg.hop, t0, t1)
                    for w in (noisy, clean)))
            m.zero_grad()   # the last step's gradients go before this graph is built
            loss = _batch_loss(m, segments)
            loss_val = float(loss.values)
            if not np.isfinite(loss_val):
                if out_dir is not None:
                    _write_history(history, os.path.join(out_dir, "loss_history.csv"))
                raise NumericsError(  # numbered like loss_history.csv
                    f"diverged: non-finite training loss at step {len(history)}")
            loss.backward()
            del loss   # the batch graph goes before the next step builds one
            optimizer_step(m, m.gradients(), lr=cfg.lr)
            history.append(loss_val)
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        if out_dir is not None:
            save_checkpoint(m, os.path.join(out_dir, f"epoch{epoch + 1:03d}.nkf"))
            _write_history(history, os.path.join(out_dir, "loss_history.csv"))
        if max_steps is not None and steps >= max_steps:
            break
    if out_dir is not None:
        save_checkpoint(m, os.path.join(out_dir, "model.nkf"))
        _write_history(history, os.path.join(out_dir, "loss_history.csv"))
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
    analytic = model.gradients()

    def loss_at() -> float:
        with ad.no_grad():
            return float(_batch_loss(model, segments).values)

    worst = 0.0
    for name, p in model.parameters().items():
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + _GRADCHECK_STEP
            up = loss_at()
            flat[i] = saved - _GRADCHECK_STEP
            down = loss_at()
            flat[i] = saved
            numeric = (up - down) / (2.0 * _GRADCHECK_STEP)
            a = analytic[name].reshape(-1)[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, err)
    return worst
