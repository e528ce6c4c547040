"""Benchmark workloads: seeded inputs, set-up, the timed op loop and its checks.

Every workload calls the public nkf API from one process in a closed loop:
the next op starts when the previous one has returned. An op is one
training step (``train-*``) or one enhancement call (``enhance-*``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from nkf import autodiff, config, data_io, enhancer, kalman, metrics, networks
from nkf.errors import NkfError
from nkf.signal_core import Waveform

import tracing

SAMPLE_RATE = 16000

#: Digital silence put in front of some enhancement inputs. It covers the
#: first LP segment (32 frames of 64 samples plus one 256-sample window),
#: so there the oracle noise variance and the LP residual are both zero.
LEAD_IN = 3200


def _samples(seconds):
    return int(round(seconds * SAMPLE_RATE))


@dataclass(frozen=True)
class Spec:
    name: str
    method: str                  # "train", "nkf", "kf" or "wiener"
    lengths: tuple               # utterance lengths in samples, lead-in excluded
    lead_in: tuple = ()          # indices of utterances given a LEAD_IN prefix
    overrides: dict = field(default_factory=dict)   # RunConfig fields
    checkpoints: bool = False    # train with out_dir set
    loss_epoch: int = 2          # train_loss_end is this epoch's mean loss
    loss_must_fall: bool = True  # train_loss_end < train_loss_first is checked
    speed_exponent: float = 0.5  # how ops_per_s follows the reference speed
    setup_repeats: int = 3

    def config(self, seed):
        return config.RunConfig(seed=seed, epochs=10 ** 6, **self.overrides)


# Lengths mix inputs a few hops longer than one window with whole seconds;
# three of the twelve start with digital silence.
_ENHANCE = dict(
    lengths=(448, _samples(0.5), _samples(1.0), _samples(2.0), 576, _samples(1.5),
             _samples(0.75), _samples(2.5), 640, _samples(1.0), _samples(0.5),
             _samples(2.0)),
    lead_in=(2, 6, 10))

WORKLOADS = {spec.name: spec for spec in (
    # Desk preset; 0.6 s and 1.0 s are shorter than seq_len (256 frames).
    # Eight utterances make two steps per epoch, so epoch-end checkpoints
    # are written throughout the run.
    Spec("train-desk", "train",
         lengths=tuple(_samples(s) for s in (0.6, 1.0, 1.5, 2.5) * 2),
         checkpoints=True, loss_epoch=4),
    # Full-preset widths on 32-frame utterances, batch 2, no checkpoints.
    # At this width and lr 1e-3 the epoch-mean loss still rises and falls
    # over the first epochs, so only its finiteness is checked. Its op rate
    # is bound by memory and does not follow the reference kernel.
    Spec("train-wide", "train", lengths=(2240,) * 4,
         overrides=dict(lstm_units=1024, fnn_hidden=1024, batch=2, seq_len=32),
         loss_epoch=2, loss_must_fall=False, speed_exponent=0.0),
    Spec("enhance-nkf", "nkf", speed_exponent=1.0, **_ENHANCE),
    Spec("enhance-kf", "kf", **_ENHANCE),
    Spec("enhance-wiener", "wiener", **_ENHANCE),
)}


# -- inputs ---------------------------------------------------------------------


def _build_model(cfg):
    return networks.build_model(
        cfg.n_bins, lstm_units=cfg.lstm_unit_list, fnn_hidden=cfg.fnn_hidden,
        context=cfg.context, window=cfg.window, hop=cfg.hop,
        variance_span=cfg.variance_span, sample_rate=cfg.sample_rate,
        log_features=cfg.log_features, seed=cfg.seed)


def digest(root, seed):
    """SHA-256 of the seed and every input file under ``root``."""
    h = hashlib.sha256(f"seed={seed}\n".encode())
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\n")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def make_inputs(spec, seed, root):
    """Write the workload's inputs for ``seed`` under ``root``.

    Utterances come from ``data_io.synth_corpus``, cut to the spec's
    lengths, with digital silence put in front where the spec says so.
    Returns the input digest; ``root/spec.json`` records spec, seed and
    digest for the set-up code.
    """
    cfg = spec.config(seed)
    split = "train" if spec.method == "train" else "test"
    counts = dict(train_count=1, dev_count=1, test_count=1)
    counts[f"{split}_count"] = len(spec.lengths)
    synth_cfg = cfg.replace(utterance_seconds=max(spec.lengths) / SAMPLE_RATE, **counts)
    corpus = data_io.synth_corpus(synth_cfg, os.path.join(root, "corpus"), seed=seed)
    entries = corpus.split_entries(split)
    for i, (entry, n) in enumerate(zip(entries, spec.lengths)):
        lead = np.zeros(LEAD_IN if i in spec.lead_in else 0)
        for path in (entry.clean_path, entry.noisy_path, entry.noise_path):
            w = data_io.read_wav(path)
            data_io.write_wav(Waveform(np.concatenate([lead, w.samples[:n]]),
                                       w.sample_rate), path)
        if split == "test":
            grid = data_io.oracle_noise_variance(data_io.read_wav(entry.noise_path), cfg)
            np.save(os.path.join(root, f"grid{i:02d}.npy"), grid)
    data_io.write_manifest(data_io.CorpusManifest(entries),
                           os.path.join(root, "manifest.csv"))
    if spec.method == "nkf":
        networks.save_checkpoint(_build_model(cfg), os.path.join(root, "model.nkf"))
    sha = digest(root, seed)
    with open(os.path.join(root, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump({"spec": dataclasses.asdict(spec), "seed": seed, "digest": sha}, fh)
    return sha


# -- set-up ---------------------------------------------------------------------


@dataclass
class Utterance:
    noisy: Waveform
    clean: Waveform
    grid: np.ndarray


@dataclass
class State:
    spec: Spec
    cfg: config.RunConfig
    root: str
    manifest: data_io.CorpusManifest
    model: networks.NkfModel | None = None
    utts: list = field(default_factory=list)


def _nkf(state, utt):
    return enhancer.enhance(state.model, utt.noisy, "nkf")


def _kf(state, utt):
    return kalman.enhance_kf_baseline(utt.noisy, state.cfg, sigma_v2_grid=utt.grid)


def _wiener(state, utt):
    return enhancer.enhance_wiener(utt.noisy, state.cfg, utt.grid)


ENHANCE_OPS = {"nkf": _nkf, "kf": _kf, "wiener": _wiener}


def load_model(state):
    state.model = networks.load_checkpoint(os.path.join(state.root, "model.nkf"))


def set_up(root):
    """Build or load what the workload needs, then run one warm-up op.

    Train workloads build a seeded model and take one step on it; the
    enhancement workloads read their inputs, the NKF one loads its model,
    and each enhances the first (short, silence-free) utterance once.
    """
    with open(os.path.join(root, "spec.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    spec = Spec(**{**info["spec"], "lengths": tuple(info["spec"]["lengths"]),
                   "lead_in": tuple(info["spec"]["lead_in"])})
    cfg = spec.config(info["seed"])
    manifest = data_io.load_manifest(os.path.join(root, "manifest.csv"))
    state = State(spec=spec, cfg=cfg, root=root, manifest=manifest)
    if spec.method == "train":
        state.model = _build_model(cfg)
        enhancer.train(state.model, manifest, cfg, out_dir=None, max_steps=1)
        return state
    for i, entry in enumerate(manifest.split_entries("test")):
        state.utts.append(Utterance(
            noisy=data_io.read_wav(entry.noisy_path),
            clean=data_io.read_wav(entry.clean_path),
            grid=np.load(os.path.join(root, f"grid{i:02d}.npy"))))
    if spec.method == "nkf":
        load_model(state)
    ENHANCE_OPS[spec.method](state, state.utts[0])
    return state


# -- reference speed ------------------------------------------------------------
#
# On a shared machine the speed a core gives compute-bound code swings by up
# to 2x within seconds. Between ops the loop times a fixed reference kernel
# (a small-matrix recursion with object churn, like the KF and the autodiff
# graph, and an FFT, like the signal shell), and the op time since its
# previous run is rescaled to what it would have been at REFERENCE_S per
# kernel run. Workloads follow the kernel's speed to different degrees: the
# spec's ``speed_exponent`` is the slope of log op rate on log kernel speed
# over ten runs, rounded to 0, 0.5 or 1 (fitted: enhance-nkf 0.87,
# enhance-kf 0.56, enhance-wiener 0.59, train-desk 0.44, train-wide about
# 0). The kernel is benchmark code, so changes to nkf cannot change it.

#: Typical time of one ``reference_work()`` between ops on a 2-vCPU x86-64
#: VM with Python 3.11 and numpy 2.4; it only sets the scale of the
#: adjusted figures.
REFERENCE_S = 0.003
_REFERENCE_EVERY_S = 0.05

_REF_RNG = np.random.default_rng(0)
_REF_A2 = _REF_RNG.standard_normal((2, 2)) * 0.5
_REF_X = _REF_RNG.standard_normal((32, 256))


class _RefState:
    __slots__ = ("x", "r")

    def __init__(self, x, r):
        self.x = x
        self.r = r


def reference_work():
    """Time one run of the fixed reference kernel."""
    t0 = perf_counter()
    s = _RefState(np.ones(2), np.eye(2))
    for _ in range(150):
        x = _REF_A2 @ s.x
        r = _REF_A2 @ s.r @ _REF_A2.T
        r = 0.5 * (r + r.T) - 0.01 * np.outer(x, x)
        s = _RefState(x / (1.0 + abs(x[0])), r)
    np.abs(np.fft.rfft(_REF_X, axis=1))
    return perf_counter() - t0


# -- the timed loop -------------------------------------------------------------


@dataclass
class OpLog:
    """What a segment of the run did: one entry per attempted op."""

    seconds: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    audio_s: float = 0.0                        # audio of the ops that succeeded
    errors: dict = field(default_factory=dict)  # exception type -> count
    check_failures: dict = field(default_factory=dict)
    losses: list = field(default_factory=list)  # train: mean loss per step
    outputs: dict = field(default_factory=dict)  # enhance: first output per utterance
    speed_exponent: float = 0.0
    raw_rates: list = field(default_factory=list)       # per window, wall clock
    adjusted_rates: list = field(default_factory=list)  # per window, at REFERENCE_S
    speed: list = field(default_factory=list)           # per window, kernel speed
    _window_start: int = 0
    _unscaled_s: float = 0.0   # op time since the last kernel run
    _adjusted_s: float = 0.0   # this window's op time at the reference speed
    _speed_s: float = 0.0      # this window's op time times kernel speed
    _last_ref: float = 0.0

    def add(self, seconds, ok):
        self.seconds.append(seconds)
        self.ok.append(ok)
        self._unscaled_s += seconds

    def error(self, seconds, exc):
        self.add(seconds, False)
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1

    def check_failed(self, seconds, problems):
        self.add(seconds, False)
        for p in problems:
            self.check_failures[p] = self.check_failures.get(p, 0) + 1

    def sample_speed(self, force=False):
        """Run the reference kernel if none ran in the last 50 ms, and scale
        the op time since the previous run by the speed it shows."""
        if force or perf_counter() - self._last_ref >= _REFERENCE_EVERY_S:
            speed = REFERENCE_S / reference_work()
            self._adjusted_s += self._unscaled_s * speed ** self.speed_exponent
            self._speed_s += self._unscaled_s * speed
            self._unscaled_s = 0.0
            self._last_ref = perf_counter()

    def close_window(self):
        """End a window of identical work: one pass, or one training epoch."""
        self.sample_speed(force=True)
        seconds = sum(self.seconds[self._window_start:])
        ok = self.ok[self._window_start:].count(True)
        self.raw_rates.append(ok / seconds)
        self.adjusted_rates.append(ok / self._adjusted_s)
        self.speed.append(self._speed_s / seconds)
        self._window_start = len(self.seconds)
        self._adjusted_s = self._speed_s = 0.0

    def ops_per_s(self, adjusted):
        """Median over windows of successful ops per second of op time."""
        rates = self.adjusted_rates if adjusted else self.raw_rates
        if not rates:
            return (self.attempted - self.failed) / self.busy_s
        return statistics.median(rates)

    @property
    def attempted(self):
        return len(self.seconds)

    @property
    def failed(self):
        return self.ok.count(False)

    @property
    def busy_s(self):
        return sum(self.seconds)

    def op_s_p50(self):
        """Median op time; a failed op ranks as the slowest op of the run."""
        worst = max(self.seconds)
        return statistics.median(s if ok else worst
                                 for s, ok in zip(self.seconds, self.ok))


def output_problems(result, noisy):
    """Names of the output checks an enhancement result fails."""
    problems = []
    samples = result.waveform.samples
    if len(samples) != len(noisy):
        problems.append("output length differs from input length")
    if not np.all(np.isfinite(samples)):
        problems.append("non-finite output samples")
    g = result.grids
    for grid in (g.amp_lstm, g.amp_wiener, g.amp_out):
        if grid is not None and not (np.all(np.isfinite(grid)) and np.all(grid >= 0)):
            problems.append("amplitude grid not finite and >= 0")
    if g.gain is not None and not (np.all(g.gain >= 0) and np.all(g.gain <= 1)):
        problems.append("gain outside [0, 1]")
    return problems


def _enhance_segment(state, seconds, tracer, log):
    op = ENHANCE_OPS[state.spec.method]
    deadline = perf_counter() + seconds
    while True:
        for i, utt in enumerate(state.utts):
            if tracer is not None:
                tracer.op += 1
            t0 = perf_counter()
            try:
                result = op(state, utt)
            except NkfError as exc:
                log.error(perf_counter() - t0, exc)
                log.sample_speed()
                continue
            dt = perf_counter() - t0
            problems = output_problems(result, utt.noisy)
            if problems:
                log.check_failed(dt, problems)
                log.sample_speed()
                continue
            log.add(dt, True)
            log.audio_s += utt.noisy.duration
            log.outputs.setdefault(i, result.waveform)
            log.sample_speed()
        log.close_window()
        # whole passes only, so every run enhances the same mix of inputs
        if perf_counter() >= deadline:
            return


class _Deadline(Exception):
    """Ends a time-bounded ``enhancer.train`` call from the step hook."""


class StepClock:
    """Times training steps from outside ``enhancer.train``.

    The step ends when ``optimizer_step`` returns; the step's loss is the
    mean of the losses ``backward`` was called on since the previous step,
    summed in the same order ``train`` sums them.
    """

    def __init__(self, log, deadline, steps_per_epoch, min_epochs, tracer):
        self.log = log
        self.deadline = deadline
        self.steps_per_epoch = steps_per_epoch
        self.min_steps = steps_per_epoch * min_epochs
        self.tracer = tracer
        self.pending = []
        self.last = perf_counter()

    def install(self, patcher):
        patcher.patch(autodiff.DiffArray, "backward", self._backward)
        patcher.patch(enhancer, "optimizer_step", self._step)

    def _backward(self, fn):
        def backward(node):
            self.pending.append(float(node.values))
            return fn(node)
        return backward

    def _step(self, fn):
        def step(*args, **kwargs):
            result = fn(*args, **kwargs)
            now = perf_counter()
            loss = sum(self.pending) / len(self.pending)
            self.pending = []
            self.log.losses.append(loss)
            if np.isfinite(loss):
                self.log.add(now - self.last, True)
            else:
                self.log.check_failed(now - self.last, ["non-finite training loss"])
            if self.log.attempted % self.steps_per_epoch == 0:
                self.log.close_window()
            else:
                self.log.sample_speed()
            self.last = perf_counter()
            if self.tracer is not None:
                self.tracer.op += 1
            if now >= self.deadline and self.log.attempted >= self.min_steps:
                raise _Deadline
            return result
        return step


def steps_per_epoch(state):
    n_train = len(state.manifest.split_entries("train"))
    return -(-n_train // state.cfg.batch)


def _train_segment(state, seconds, tracer, log):
    out_dir = os.path.join(state.root, "checkpoints") if state.spec.checkpoints else None
    with tracing.patched() as patcher:
        if tracer is not None:
            tracing.install(patcher, tracer)
        clock = StepClock(log, perf_counter() + seconds, steps_per_epoch(state),
                          state.spec.loss_epoch, tracer)
        clock.install(patcher)
        try:
            enhancer.train(state.model, state.manifest, state.cfg, out_dir=out_dir)
        except _Deadline:
            pass
        except NkfError as exc:
            log.error(perf_counter() - clock.last, exc)


def run_segment(state, seconds, tracer=None):
    """Run ops for at least ``seconds``; trace them when given a tracer."""
    log = OpLog(speed_exponent=state.spec.speed_exponent)
    if state.spec.method == "train":
        _train_segment(state, seconds, tracer, log)
        return log
    with tracing.patched() as patcher:
        if tracer is not None:
            tracing.install(patcher, tracer)
            if state.spec.method == "nkf":
                load_model(state)   # the traced load gives load_checkpoint's time
        _enhance_segment(state, seconds, tracer, log)
    return log


# -- results that need no clock ---------------------------------------------------


def epoch_losses(state, log):
    spe = steps_per_epoch(state)
    return [float(np.mean(log.losses[i:i + spe]))
            for i in range(0, len(log.losses) - spe + 1, spe)]


def train_quality(state, log):
    """First-epoch and ``loss_epoch`` mean losses, and the run-level problems."""
    epochs = epoch_losses(state, log)
    problems = []
    if len(epochs) < state.spec.loss_epoch:
        return {}, ["training stopped before the loss epoch"]
    first, end = epochs[0], epochs[state.spec.loss_epoch - 1]
    if state.spec.loss_must_fall and not end < first:
        problems.append("train_loss_end is not below the first epoch's loss")
    if not all(np.all(np.isfinite(p.values)) for p in state.model.parameters().values()):
        problems.append("non-finite parameters after training")
    return {"train_loss_first": first, "train_loss_end": end}, problems


def fwsegsnr_gain_db(state, log):
    """Mean FwSegSNR of enhanced minus noisy over the utterances enhanced."""
    gains = [metrics.fwsegsnr(state.utts[i].clean, out)
             - metrics.fwsegsnr(state.utts[i].clean, state.utts[i].noisy)
             for i, out in sorted(log.outputs.items())]
    return float(np.mean(gains))
