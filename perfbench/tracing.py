"""Per-layer tracing of the nkf package from outside it.

The tracer replaces the attributes that nkf's own callers look up (for
example ``nkf.kalman.kf_predict`` or ``nkf.enhancer.lstm_forward``) with
wrappers (``install``), and ``patched`` puts every original back when its
block ends. Layer-boundary calls become spans (name, start, end, parent, op id); the
per-frame functions (the ``kf_*`` recursion, the LP fit and ``DiffArray``
construction) would cost more to trace one by one than they take, so they
are aggregated into a count and a total time on the enclosing span.
Spans stay in memory until ``write_spans`` is called at the end of a run.

A span's self time is its duration minus the time covered by its child
spans and by the aggregated calls made under it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter

from nkf import autodiff, data_io, enhancer, kalman, networks, signal_core, wiener


def _n_frames(args, result):
    return result.n_frames


def _frames_fed(args, result):
    return len(args[1])


def _bytes_written(args, result):
    return os.path.getsize(args[1])


# (owner, attribute, layer name, value recorded on the span after the call)
SPANS = [
    (enhancer, "train", "enhancer.train", None),
    (enhancer, "enhance", "enhancer.enhance", None),
    (enhancer, "nkf_forward", "enhancer.nkf_forward", None),
    (enhancer, "enhance_wiener", "enhancer.enhance_wiener", None),
    (enhancer, "lstm_forward", "networks.lstm_forward", _frames_fed),
    (enhancer, "noise_fnn_forward_grid", "networks.noise_fnn_forward_grid", None),
    (enhancer, "optimizer_step", "networks.optimizer_step", None),
    (enhancer, "save_checkpoint", "networks.save_checkpoint", _bytes_written),
    (networks, "load_checkpoint", "networks.load_checkpoint", None),
    (data_io, "read_wav", "data_io.read_wav", None),
    (kalman, "enhance_kf_baseline", "kalman.enhance_kf_baseline", None),
    (signal_core, "stft", "signal_core.stft", _n_frames),
    (signal_core, "istft", "signal_core.istft", None),
    (signal_core, "recombine", "signal_core.recombine", None),
    (wiener, "track_sigma_y", "wiener.track_sigma_y", None),
    (wiener, "apply_wiener", "wiener.apply_wiener", None),
    (autodiff.DiffArray, "backward", "autodiff.backward", None),
]

# (owner, attribute, layer name, timed): counted per enclosing span
AGGREGATED = [
    (kalman, "kf_predict", "kalman.kf_predict", True),
    (kalman, "kf_gain", "kalman.kf_gain", True),
    (kalman, "kf_update", "kalman.kf_update", True),
    (kalman, "autocorrelate", "linear_prediction.autocorrelate", True),
    (kalman, "levinson_durbin", "linear_prediction.levinson_durbin", True),
    (kalman, "transition_matrix", "linear_prediction.transition_matrix", True),
    # Constructing a node takes about a microsecond; it is counted, not timed.
    (autodiff.DiffArray, "__init__", "autodiff.nodes", False),
]


def patch_targets():
    """Every (owner, attribute) pair the tracer replaces."""
    return [(owner, attr) for owner, attr, *_ in SPANS + AGGREGATED]


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "child_s",
                 "agg", "failed", "value")

    def __init__(self, span_id, name, parent, op):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.agg = {}
        self.failed = False
        self.value = None

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    """Collects spans; ``op`` is the id the driving loop gives the current op."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.root = Span(0, "root", None, 0)
        self._next_id = 1

    def _current(self):
        return self.stack[-1] if self.stack else self.root

    def span(self, name, fn, record=None):
        def traced(*args, **kwargs):
            span = Span(self._next_id, name, self._current(), self.op)
            self._next_id += 1
            self.stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                self.stack.pop()
                span.parent.child_s += span.end - span.start
                self.spans.append(span)
            if record is not None:
                span.value = record(args, result)
            return result
        return traced

    def aggregate(self, name, fn, timed):
        if not timed:
            def counted(*args, **kwargs):
                entry = self._current().agg.setdefault(name, [0, 0.0])
                entry[0] += 1
                return fn(*args, **kwargs)
            return counted

        def timed_call(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                parent = self._current()
                entry = parent.agg.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += dt
                parent.child_s += dt
        return timed_call

    def totals(self):
        """Per layer name: calls, self seconds, failed calls, recorded value."""
        out = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                         "failed": 0, "value": 0})
        for span in self.spans:
            e = entry(span.name)
            e["calls"] += 1
            e["self_s"] += span.self_s
            e["failed"] += span.failed
            e["value"] += span.value or 0
        for span in self.spans + [self.root]:
            for name, (calls, seconds) in span.agg.items():
                e = entry(name)
                e["calls"] += calls
                e["self_s"] += seconds
        return out

    def write_spans(self, path):
        """One JSON line per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent.id,
                    "op": s.op, "start": s.start, "dur": s.end - s.start,
                    "self": s.self_s, "failed": s.failed, "value": s.value,
                    "agg": s.agg}) + "\n")


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextmanager
def patched():
    """A Patcher whose patches are undone when the block ends."""
    patcher = Patcher()
    try:
        yield patcher
    finally:
        patcher.restore()


def install(patcher, tracer):
    for owner, attr, name, record in SPANS:
        patcher.patch(owner, attr, lambda fn, n=name, r=record: tracer.span(n, fn, r))
    for owner, attr, name, timed in AGGREGATED:
        patcher.patch(owner, attr, lambda fn, n=name, t=timed: tracer.aggregate(n, fn, t))


def _per_op(field, name):
    return lambda t, ops: t.get(name, {}).get(field, 0) / ops


def _frame_use(t, ops):
    stft = t.get("signal_core.stft", {}).get("value", 0)
    fed = t.get("networks.lstm_forward", {}).get("value", 0)
    return fed / stft if stft else 0.0


def _per_load(t, ops):
    e = t.get("networks.load_checkpoint", {})
    return e["self_s"] / e["calls"] if e.get("calls") else 0.0


# Per-layer metric: (name, unit, better, value from totals and op count).
# Values are per op (one training step, or one enhancement call), except
# the load time (per load) and the ratios.
LAYER_METRICS = [
    ("autodiff.nodes", "count/op", "lower", _per_op("calls", "autodiff.nodes")),
    ("autodiff.backward.calls", "count/op", "lower", _per_op("calls", "autodiff.backward")),
    ("autodiff.backward.self_s", "s/op", "lower", _per_op("self_s", "autodiff.backward")),
    ("networks.lstm_forward.self_s", "s/op", "lower", _per_op("self_s", "networks.lstm_forward")),
    ("networks.noise_fnn_forward_grid.self_s", "s/op", "lower",
     _per_op("self_s", "networks.noise_fnn_forward_grid")),
    ("networks.optimizer_step.self_s", "s/op", "lower", _per_op("self_s", "networks.optimizer_step")),
    ("networks.save_checkpoint.calls", "count/op", "lower", _per_op("calls", "networks.save_checkpoint")),
    ("networks.save_checkpoint.self_s", "s/op", "lower", _per_op("self_s", "networks.save_checkpoint")),
    ("networks.save_checkpoint.bytes", "B/op", "lower", _per_op("value", "networks.save_checkpoint")),
    ("networks.load_checkpoint.self_s", "s", "lower", _per_load),
    ("data_io.read_wav.calls", "count/op", "lower", _per_op("calls", "data_io.read_wav")),
    ("data_io.read_wav.self_s", "s/op", "lower", _per_op("self_s", "data_io.read_wav")),
    ("enhancer.train.frame_use_ratio", "ratio", "higher", _frame_use),
    ("enhancer.train.self_s", "s/op", "lower", _per_op("self_s", "enhancer.train")),
    ("enhancer.enhance.self_s", "s/op", "lower", _per_op("self_s", "enhancer.enhance")),
    ("enhancer.nkf_forward.self_s", "s/op", "lower", _per_op("self_s", "enhancer.nkf_forward")),
    ("enhancer.enhance_wiener.self_s", "s/op", "lower", _per_op("self_s", "enhancer.enhance_wiener")),
    ("kalman.kf_predict.calls", "count/op", "lower", _per_op("calls", "kalman.kf_predict")),
    ("kalman.kf_predict.self_s", "s/op", "lower", _per_op("self_s", "kalman.kf_predict")),
    ("kalman.kf_gain.calls", "count/op", "lower", _per_op("calls", "kalman.kf_gain")),
    ("kalman.kf_gain.self_s", "s/op", "lower", _per_op("self_s", "kalman.kf_gain")),
    ("kalman.kf_update.calls", "count/op", "lower", _per_op("calls", "kalman.kf_update")),
    ("kalman.kf_update.self_s", "s/op", "lower", _per_op("self_s", "kalman.kf_update")),
    ("kalman.enhance_kf_baseline.self_s", "s/op", "lower", _per_op("self_s", "kalman.enhance_kf_baseline")),
    ("kalman.enhance_kf_baseline.failed", "count/op", "lower",
     _per_op("failed", "kalman.enhance_kf_baseline")),
    ("linear_prediction.levinson_durbin.calls", "count/op", "lower",
     _per_op("calls", "linear_prediction.levinson_durbin")),
    ("linear_prediction.levinson_durbin.self_s", "s/op", "lower",
     _per_op("self_s", "linear_prediction.levinson_durbin")),
    ("linear_prediction.autocorrelate.self_s", "s/op", "lower",
     _per_op("self_s", "linear_prediction.autocorrelate")),
    ("linear_prediction.transition_matrix.calls", "count/op", "lower",
     _per_op("calls", "linear_prediction.transition_matrix")),
    ("signal_core.stft.calls", "count/op", "lower", _per_op("calls", "signal_core.stft")),
    ("signal_core.stft.self_s", "s/op", "lower", _per_op("self_s", "signal_core.stft")),
    ("signal_core.istft.self_s", "s/op", "lower", _per_op("self_s", "signal_core.istft")),
    ("signal_core.recombine.self_s", "s/op", "lower", _per_op("self_s", "signal_core.recombine")),
    ("wiener.track_sigma_y.self_s", "s/op", "lower", _per_op("self_s", "wiener.track_sigma_y")),
    ("wiener.apply_wiener.self_s", "s/op", "lower", _per_op("self_s", "wiener.apply_wiener")),
]


def layer_metrics(tracer, ops):
    totals = tracer.totals()
    return {name: {"value": fn(totals, ops), "unit": unit}
            for name, unit, _, fn in LAYER_METRICS}
