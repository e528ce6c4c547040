"""The two learnable components, as one parameter table, and their plumbing.

The predictor is a stacked LSTM over noisy amplitude frames with two
fully-connected heads reading the top hidden state: one predicts the clean
amplitude per bin (ReLU, so nonnegative), the other the log variance of the
prediction residual (clamped to +-12 so its exponential stays finite).
The noise net is three ReLU feed-forward layers mapping a left-side context
window of amplitudes plus the current running noisy variance to a strictly
positive noise variance per bin (softplus output). Its first layer's
product, and in backward its ``fnn.w1`` gradient, run as jobs on the worker
thread, started on first use, while the caller does other work
(``worker.on_worker``); Adam updates half of every arena there.

``_param_shapes`` declares every weight once; ``NkfModel`` lays them out in
flat arrays and holds them as ``DiffArray`` leaves, so one ``backward()`` on
a downstream loss yields exact gradients for every weight. Training state
(Adam moments, step count) lives on ``NkfModel`` and round-trips bit-exactly
through the binary checkpoint format documented at the bottom of this file.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .data_io import replacing
from .errors import ConfigError, DataError, NumericsError
from .signal_core import block_bounds
from .worker import in_halves, on_worker

#: Additive floor keeping the estimated noise variance strictly positive.
NOISE_VAR_EPS = 1e-12

#: Log-variance clamp for the residual head.
LOGVAR_LIMIT = 12.0


def _param_shapes(n_bins: int, units, context: int, hidden: int) -> dict:
    """Every parameter's name and shape, in the order that initialization,
    Adam and the checkpoint use. Per LSTM layer of U units: ``wx``, ``wh``
    and ``b`` with the input, forget, cell and output gate blocks along 4U.
    """
    if n_bins < 1 or len(units) < 1 or any(u < 1 for u in units):
        raise DataError("predictor dimensions must be positive")
    if context < 1 or hidden < 1:
        raise DataError("noise net dimensions must be positive")
    shapes, in_dim = {}, n_bins
    for layer, u in enumerate(units):
        shapes.update({f"lstm{layer}.wx": (in_dim, 4 * u),
                       f"lstm{layer}.wh": (u, 4 * u), f"lstm{layer}.b": (4 * u,)})
        in_dim = u
    for head in ("head_amp", "head_res"):
        shapes.update({f"{head}.w": (in_dim, n_bins), f"{head}.b": (n_bins,)})
    fnn_in = (context + 1) * n_bins
    shapes.update({"fnn.w1": (fnn_in, hidden), "fnn.b1": (hidden,),
                   "fnn.w2": (hidden, hidden), "fnn.b2": (hidden,),
                   "fnn.w3": (hidden, n_bins), "fnn.b3": (n_bins,)})
    return shapes


def lstm_forward(m: NkfModel, noisy_amp,
                 state=None) -> tuple[ad.DiffArray, ad.DiffArray, list]:
    """Run the predictor over a B x T x F batch of sequences.

    Returns the nonnegative amplitude prediction and the clamped residual
    log variance, both B x T x F, and each layer's final ``(h, c)``. Hidden
    and cell states start from ``state``, one ``(h, c)`` per layer as
    returned here, or at zero in every sequence. Outputs at frame t depend
    only on frames up to t, so a sequence zero-padded at its end keeps its
    outputs, and one run in blocks, each from the last one's final state,
    gets the outputs of one run.
    """
    layer_in = np.asarray(noisy_amp, dtype=np.float64)
    if layer_in.ndim != 3 or layer_in.shape[2] != m.n_bins or layer_in.shape[1] < 1:
        raise DataError(f"predictor expects B x T x {m.n_bins}, T >= 1, "
                        f"got {layer_in.shape}")
    final = []
    for layer in range(len(m.units)):
        layer_in, layer_state = ad.lstm_layer(
            layer_in, m.params[f"lstm{layer}.wx"], m.params[f"lstm{layer}.wh"],
            m.params[f"lstm{layer}.b"], None if state is None else state[layer])
        final.append(layer_state)
    amp = ad.dense(layer_in, m.params["head_amp.w"], m.params["head_amp.b"], "relu")
    res_logvar = ad.dense(layer_in, m.params["head_res.w"], m.params["head_res.b"],
                          "clamp", limit=LOGVAR_LIMIT)
    return amp, res_logvar, final


def _context_rows(amplitude: np.ndarray, context: int, lo: int, hi: int) -> np.ndarray:
    """Amplitude frames lo-context+1..hi-1 of a T x F grid, frame 0 standing
    in for indices before the utterance start: rows k..k+hi-lo-1 are context
    frame k (oldest first) of frames lo..hi-1. A view when nothing repeats."""
    first = lo - (context - 1)
    if first >= 0:
        return amplitude[first:hi]
    return np.concatenate([np.repeat(amplitude[:1], -first, axis=0), amplitude[:hi]])


def fnn_features(amplitude: np.ndarray, sigma_y2: np.ndarray, context: int,
                 lo: int = 0, hi: int | None = None, work=None) -> np.ndarray:
    """The noise net's (hi-lo) x (context+1)·F input for frames lo..hi-1 of
    the T x F grids (all of them by default): per row, the amplitude frames
    t-context+1..t oldest first, then frame t of ``sigma_y2``. Written into
    the first hi-lo rows of ``work``, a C-contiguous array of (context+1)·F
    columns, when given.

    Indices before the utterance start repeat frame 0. Only rows before
    frame context-1 read a padded copy, of at most 2·context-2 frames; later
    rows read the grid itself. (Writing the repeated frames row by row takes
    a numpy call per row, and on the worker each call takes the GIL back from
    the LSTM running beside it.)
    """
    hi = len(amplitude) if hi is None else hi
    n_frames, n_bins = hi - lo, amplitude.shape[1]
    features = np.empty((n_frames, (context + 1) * n_bins)) if work is None \
        else work[:n_frames]
    blocks = features.reshape(n_frames, context + 1, n_bins)   # a view
    split = min(max(context - 1, lo), hi)   # the first row whose context is all real
    for a, b in ((lo, split), (split, hi)):
        if a < b:
            blocks[a - lo:b - lo, :context] = sliding_window_view(
                _context_rows(amplitude, context, a, b), context, axis=0).transpose(0, 2, 1)
    blocks[:, context] = sigma_y2[lo:hi]
    return features


#: Bytes of the ``fnn.w1`` jobs' scratch: 30 taps' F x H blocks at desk widths, 3 at full
_W1_SCRATCH_BYTES = 1 << 22


def add_first_layer_gradient(rows: np.ndarray, sigma_y2: np.ndarray, g: np.ndarray,
                             grad: np.ndarray, scratch: np.ndarray):
    """Add ``fnn.w1``'s gradient for frames lo..hi-1 into ``grad``, C-contiguous
    (context+1)·F x H: ``rows`` are the frames' ``_context_rows``, ``sigma_y2``
    the grid's rows lo..hi-1 and ``g`` the first layer's (hi-lo) x H output
    gradient. Context tap k's block is ``rows[k:k + hi - lo].T @ g``, formed
    ``len(scratch)`` taps at a time by one batched product over shifted views
    of ``rows`` (MEC; Cho & Brand, arXiv:1706.06873) into ``scratch``, taps x
    F x H, then added; the last block is ``sigma_y2.T @ g``. Makes no node, so
    it can run on the worker (``on_worker``)."""
    n_rows, n_bins = sigma_y2.shape
    windows = sliding_window_view(rows, n_rows, axis=0)   # tap k: rows[k:k + n_rows].T
    blocks = grad.reshape(-1, n_bins, grad.shape[1])   # a view, one block per tap
    for k in range(0, len(windows), len(scratch)):
        part = scratch[:len(windows) - k]
        np.matmul(windows[k:k + len(part)], g, out=part)
        blocks[k:k + len(part)] += part
    np.matmul(sigma_y2.T, g, out=scratch[0])
    blocks[-1] += scratch[0]


def first_layer_product(m: NkfModel, amplitude, sigma_y2, lo: int, hi: int,
                        out: np.ndarray, work=None) -> np.ndarray:
    """The noise net's first-layer product for frames lo..hi-1 of float64
    T x F grids into ``out``, (hi-lo) x H, which it returns: the
    ``fnn_features`` rows times ``fnn.w1``, one ``block_bounds`` row block at
    a time, each block's features in ``work`` (as ``fnn_features`` takes it,
    rows for the largest block) or in a new array. Makes no node, so it can
    run on the worker (``on_worker``)."""
    w1 = m.params["fnn.w1"].values
    for a, b in block_bounds(hi - lo):
        np.matmul(fnn_features(amplitude, sigma_y2, m.context, lo + a, lo + b, work),
                  w1, out=out[a:b])
    return out


def noise_fnn_forward_grid(m: NkfModel, amplitude: np.ndarray, sigma_y2: np.ndarray,
                           lo: int = 0, hi: int | None = None, pre=None) -> ad.DiffArray:
    """Noise variance estimate for frames lo..hi-1 (every frame by default)
    of a T x F grid; the context of frame lo reaches back into the grid.
    Raises ``DataError`` unless 0 <= lo < hi <= T.

    Each layer is one node. The first, ReLU(features @ ``fnn.w1`` + ``fnn.b1``),
    keeps no ``fnn_features`` matrix. Forward takes ``pre``, the product that
    ``first_layer_product(m, amplitude, sigma_y2, lo, hi, out)`` writes, or
    forms it so when None, and adds ``fnn.b1`` and applies the ReLU over it in
    place. Backward forms the pre-activation gradient, adds ``fnn.b1``'s, forms
    the padded context rows on the calling thread and hands ``w1``'s gradient to
    the worker as one job (``on_worker``): ``add_first_layer_gradient``,
    batched products over shifted views of those rows through
    ``m.w1_scratch``, added into ``w1.grad``. It returns the job's ``join``, which
    ``DiffArray.backward`` calls before it returns; the worker runs jobs in
    turn, so ``w1``'s gradient sums in node order. That is bit for bit the
    whole feature matrix's product at both presets' widths; far below them (a
    tap's product over more than 384 rows with F·H·(hi-lo) <= 1e6),
    OpenBLAS's small-matrix kernel can round ``w1``'s gradient differently in
    the last bits. The other two layers are ``autodiff.dense`` nodes."""
    amplitude = np.asarray(amplitude, dtype=np.float64)
    sigma_y2 = np.asarray(sigma_y2, dtype=np.float64)
    if amplitude.ndim != 2 or amplitude.shape != sigma_y2.shape \
            or amplitude.shape[1] != m.n_bins:
        raise DataError("amplitude / variance grids inconsistent with model")
    hi = len(amplitude) if hi is None else hi
    if not 0 <= lo < hi <= len(amplitude):
        raise DataError(f"noise net rows lo = {lo}, hi = {hi} need "
                        f"0 <= lo < hi <= T = {len(amplitude)}")
    w1, b1 = m.params["fnn.w1"], m.params["fnn.b1"]
    if pre is None:
        pre = first_layer_product(m, amplitude, sigma_y2, lo, hi,
                                  np.empty((hi - lo, m.hidden)))
    pre += b1.values
    np.maximum(pre, 0.0, out=pre)

    def backward(g):
        gz = g * (pre > 0)
        b1._accumulate(gz.sum(axis=0))
        rows = _context_rows(amplitude, m.context, lo, hi)   # here, not on the worker
        if m.w1_scratch is None:   # here: the worker's allocations stay in its glibc arena
            taps = min(m.context, max(1, _W1_SCRATCH_BYTES // (8 * m.n_bins * m.hidden)))
            m.w1_scratch = np.empty((taps, m.n_bins, m.hidden))
        scratch, w1.zeroed = m.w1_scratch, False   # the worker runs the jobs in turn
        return on_worker(lambda: add_first_layer_gradient(
            rows, sigma_y2[lo:hi], gz, w1.grad, scratch))

    h1 = ad.make_node(pre, (w1, b1), backward)
    h2 = ad.dense(h1, m.params["fnn.w2"], m.params["fnn.b2"], "relu")
    return ad.dense(h2, m.params["fnn.w3"], m.params["fnn.b3"], "softplus",
                    floor=NOISE_VAR_EPS)


class NkfModel:
    """The parameters in ``_param_shapes`` order, the dimensions that lay
    them out, Adam state and framing metadata. Four flat float64 arenas,
    ``values``, ``grads``, ``adam_m`` and ``adam_v``, hold each parameter at
    its offset in ``layout`` (name -> (offset, shape)); a parameter's
    ``values`` and ``grad`` are views. ``grads`` is an anonymous mapping, not
    heap memory that calloc may clear, so its pages are mapped on first write,
    and only backward writes it: a model that only enhances holds no resident
    gradients."""

    def __init__(self, *, units, log_features: bool, adam_step: int = 0, **dims):
        for d in _DIMS:
            setattr(self, d, int(dims[d]))
        self.units = tuple(int(u) for u in units)
        self.log_features, self.adam_step = bool(log_features), adam_step
        self.layout, size = {}, 0
        for name, shape in _param_shapes(self.n_bins, self.units, self.context,
                                         self.hidden).items():
            self.layout[name], size = (size, shape), size + math.prod(shape)
        self.values, self.adam_m, self.adam_v = np.zeros((3, size))
        self.grads = np.frombuffer(mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE))
        self.params = {name: ad.DiffArray(v) for name, v in self.views(self.values).items()}
        for p, grad in zip(self.params.values(), self.views(self.grads).values()):
            p.grad, p.zeroed = grad, True
        self.w1_scratch = None   # the fnn.w1 jobs' scratch, made at the first backward

    def views(self, arena: np.ndarray) -> dict[str, np.ndarray]:
        """Every parameter's reshaped view of ``arena``, one of the four."""
        return {name: arena[start:start + math.prod(shape)].reshape(shape)
                for name, (start, shape) in self.layout.items()}

    def parameters(self) -> dict[str, ad.DiffArray]:
        return self.params

    def zero_grad(self):
        self.grads.fill(0.0)
        for p in self.params.values():
            p.zeroed = True

    def gradients(self) -> dict[str, np.ndarray]:
        """Accumulated gradients: the views of ``grads``, not copies."""
        return self.views(self.grads)



def build_model(n_bins: int, *, lstm_units=(64, 64), fnn_hidden: int = 128,
                context: int = 30, window: int = 256, hop: int = 64,
                variance_span: int = 20, sample_rate: int = 16000,
                log_features: bool = False, seed: int = 0) -> NkfModel:
    """Deterministically initialize a model: same seed, same bits.

    Weights are drawn in declared order, uniform in +-1/sqrt(fan_in), their
    first dimension; biases are zero, but the LSTM forget-gate blocks are 1.0.
    """
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    m = NkfModel(n_bins=n_bins, units=lstm_units, context=context, hidden=fnn_hidden,
                 window=window, hop=hop, variance_span=variance_span,
                 sample_rate=sample_rate, log_features=log_features)
    for name, values in m.views(m.values).items():
        if values.ndim == 2:
            k = 1.0 / np.sqrt(values.shape[0])
            values[...] = rng.uniform(-k, k, size=values.shape)
        elif name.startswith("lstm"):   # lstm<layer>.b: its forget-gate block
            values[values.size // 4:values.size // 2] = 1.0
    return m


#: Floats in the Adam update's work buffers: each arena half is updated in
#: blocks of half this size, with two block-sized buffers per half (512 KiB
#: in all), so each block stays in cache while it goes through every pass.
_ADAM_CHUNK = 1 << 15
#: Adam's moment decay rates and the denominator's guard
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def optimizer_step(m: NkfModel, lr: float = 1e-3) -> NkfModel:
    """One Adam update of every parameter from its accumulated gradient.

    ``NumericsError`` names the first parameter, in declared order, whose
    gradient is not finite, before anything moves. Moments and values are
    then updated in place, the flat arenas' first half on this thread and the
    second on the worker (``in_halves``), each in blocks of ``_ADAM_CHUNK // 2``
    elements through two block-sized work buffers that this thread makes for
    both, bit-identical to ``m = beta1 * m + (1 - beta1) * g``,
    ``v = beta2 * v + (1 - beta2) * g * g`` and
    ``p = p - lr * m_hat / (sqrt(v_hat) + eps)`` (``_ADAM_BETA1``,
    ``_ADAM_BETA2``, ``_ADAM_EPS``): each element's update is elementwise.
    """
    t, grads = m.adam_step + 1, m.grads
    # min and max propagate NaN and show an infinity, without a temporary
    if not (np.isfinite(grads.min()) and np.isfinite(grads.max())):
        bad = int(np.argmin(np.isfinite(grads)))   # the first non-finite entry
        name = [n for n, (start, _) in m.layout.items() if start <= bad][-1]
        raise NumericsError(f"diverged: non-finite gradient for {name} at Adam step {t}")
    mid = grads.size // 2
    work = np.empty((2, 2, min(_ADAM_CHUNK // 2, grads.size - mid)))   # here, for both
    in_halves(lambda: _adam_pass(m, t, lr, 0, mid, work[0]),
              lambda: _adam_pass(m, t, lr, mid, grads.size, work[1]))
    m.adam_step = t
    return m


def _adam_pass(m: NkfModel, t: int, lr: float, lo: int, hi: int, work: np.ndarray):
    """Adam step ``t`` over elements lo..hi-1 of the arenas, a block of
    ``work``'s width at a time through its two rows."""
    correct1, correct2 = 1.0 - _ADAM_BETA1 ** t, 1.0 - _ADAM_BETA2 ** t
    for a in range(lo, hi, work.shape[1]):
        g, mom, var, val = (x[a:min(a + work.shape[1], hi)]
                            for x in (m.grads, m.adam_m, m.adam_v, m.values))
        step, denom = work[:, :g.size]
        mom *= _ADAM_BETA1
        np.multiply(1.0 - _ADAM_BETA1, g, out=step)
        mom += step
        np.multiply(1.0 - _ADAM_BETA2, g, out=step)
        step *= g
        var *= _ADAM_BETA2
        var += step
        np.divide(mom, correct1, out=step)
        step *= lr
        np.divide(var, correct2, out=denom)
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        step /= denom
        val -= step


# ---------------------------------------------------------------------------
# Checkpoint format (version 1), little-endian throughout:
#
#   _HEAD   magic b"NKFCKPT1", u32 format version (1), u32 x 7 the
#           dimensions named in _DIMS in that order, u8 log_features flag,
#           u32 number of LSTM layers
#   u32     per LSTM layer, its unit count
#   _TAIL   u64 Adam step count, u32 tensor count
#   then per tensor, in _records order:
#           u16 name length, name bytes (utf-8),
#           u8 ndim, u32 per dimension,
#           float64 data, C order
#
# _records gives every parameter in declared order, then the Adam first
# moments as "adam_m.<name>", then the second moments as "adam_v.<name>".
# The reader requires exactly that order. Save followed by load reproduces
# the model bit-exactly.
# ---------------------------------------------------------------------------

_MAGIC = b"NKFCKPT1"
_VERSION = 1
#: the header's seven u32 dimensions, as ``NkfModel`` attributes in file order
_DIMS = ("window", "hop", "sample_rate", "n_bins", "context", "variance_span", "hidden")
#: the fixed fields before the unit list, and those after it
_HEAD = struct.Struct(f"<{len(_MAGIC)}sI{len(_DIMS)}IBI")
_TAIL = struct.Struct("<QI")


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    """A tensor record up to its float64 data."""
    raw = name.encode("utf-8")
    return struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape)


def _records(m: NkfModel):
    """(record name, array) of every tensor in file order: each parameter's
    view of ``values``, then of ``adam_m``, then of ``adam_v``."""
    return [(prefix + name, arr)
            for prefix, arena in (("", m.values), ("adam_m.", m.adam_m), ("adam_v.", m.adam_v))
            for name, arr in m.views(arena).items()]


def save_checkpoint(m: NkfModel, path):
    """Write ``m`` with ``data_io.replacing``, each tensor from its view."""
    tensors = _records(m)
    with replacing(path) as fh:
        fh.write(_HEAD.pack(_MAGIC, _VERSION, *(getattr(m, d) for d in _DIMS),
                            m.log_features, len(m.units))
                 + struct.pack(f"<{len(m.units)}I", *m.units)
                 + _TAIL.pack(m.adam_step, len(tensors)))
        for name, arr in tensors:
            fh.write(_pack_tensor(name, arr))
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_checkpoint(path) -> NkfModel:
    """Read a checkpoint front to back, in the order ``save_checkpoint``
    writes it. The header's dimensions give the model; the file must hold
    24 bytes per parameter before its arenas are made, and then each record
    must be the one the writer packs for the next of ``_records``, its data
    read straight into that view, so loading holds the tensors once. The
    file must end with the last tensor."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size

            def take(n: int) -> bytes:   # the next n bytes, read once they exist
                data = fh.read(n) if fh.tell() + n <= size else b""
                if len(data) != n:
                    raise DataError("malformed checkpoint: truncated")
                return data

            magic, version, *dims, log_features, n_layers = _HEAD.unpack(take(_HEAD.size))
            if magic != _MAGIC:
                raise DataError("malformed checkpoint: bad magic string")
            if version != _VERSION:
                raise DataError(f"unsupported checkpoint version {version}")
            dims = dict(zip(_DIMS, dims))
            units = struct.unpack(f"<{n_layers}I", take(4 * n_layers))
            adam_step, n_tensors = _TAIL.unpack(take(_TAIL.size))
            shapes = _param_shapes(dims["n_bins"], units, dims["context"],
                                   dims["hidden"]).values()
            if n_tensors != 3 * len(shapes):
                raise DataError(f"malformed checkpoint: {n_tensors} tensors, "
                                f"expected {3 * len(shapes)}")
            # math.prod is exact: a product wrapped to 64 bits could pass
            if size - fh.tell() < 24 * sum(math.prod(s) for s in shapes):
                raise DataError("malformed checkpoint: truncated")
            m = NkfModel(units=units, log_features=log_features, adam_step=adam_step, **dims)
            for key, view in _records(m):
                record = _pack_tensor(key, view)
                if take(len(record)) != record:
                    raise DataError(f"malformed checkpoint: expected tensor {key} "
                                    f"of shape {view.shape}")
                if fh.readinto(view) != view.nbytes:
                    raise DataError("malformed checkpoint: truncated")
            if fh.read(1):
                raise DataError("malformed checkpoint: trailing bytes after the last tensor")
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if sys.byteorder != "little":   # the records hold little-endian float64
        for arena in (m.values, m.adam_m, m.adam_v):
            arena.byteswap(inplace=True)
    return m
