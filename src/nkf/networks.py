"""The two learnable components, as one parameter table, and their plumbing.

The predictor is a stacked LSTM over noisy amplitude frames with two
fully-connected heads reading the top hidden state: one predicts the clean
amplitude per bin (ReLU, so nonnegative), the other the log variance of the
prediction residual (clamped to +-12 so its exponential stays finite).
The noise net is three ReLU feed-forward layers mapping a left-side context
window of amplitudes plus the current running noisy variance to a strictly
positive noise variance per bin (softplus output).

``_param_shapes`` declares every weight once; ``NkfModel`` holds them as
``DiffArray`` leaves, so one ``backward()`` on a downstream loss yields exact
gradients for every weight. Training state (Adam moments, step count) lives
on ``NkfModel`` and round-trips bit-exactly through the binary checkpoint
format documented at the bottom of this file.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .errors import ConfigError, DataError, NumericsError

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


def lstm_forward(m: NkfModel, noisy_amp) -> tuple[ad.DiffArray, ad.DiffArray]:
    """Run the predictor over a T x F sequence or a B x T x F batch.

    Returns the nonnegative amplitude prediction and the clamped residual
    log variance, both shaped like the input. Hidden and cell states start
    at zero in every sequence, and outputs at frame t depend only on frames
    up to t, so a sequence zero-padded at its end keeps its outputs.
    """
    x = np.asarray(noisy_amp, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != m.n_bins or x.shape[-2] < 1:
        raise DataError(f"predictor expects [B x] T x {m.n_bins}, T >= 1, got {x.shape}")
    layer_in = x if x.ndim == 3 else x[None]
    for layer in range(len(m.units)):
        layer_in = ad.lstm_layer(layer_in, m.params[f"lstm{layer}.wx"],
                                 m.params[f"lstm{layer}.wh"], m.params[f"lstm{layer}.b"])
    amp = ad.relu(ad.add_rowvec(
        ad.matmul(layer_in, m.params["head_amp.w"]), m.params["head_amp.b"]))
    res_logvar = ad.clamp(ad.add_rowvec(
        ad.matmul(layer_in, m.params["head_res.w"]), m.params["head_res.b"]),
        -LOGVAR_LIMIT, LOGVAR_LIMIT)
    return (amp, res_logvar) if x.ndim == 3 else (amp[0], res_logvar[0])


def fnn_context_matrix(amplitude: np.ndarray, context: int,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Left-side context features: frames t-context+1..t flattened per row.

    The window includes the current frame; indices before the utterance
    start repeat frame 0. Within a row, frames are ordered oldest first.
    The rows are written into ``out`` when given: a T x context·F array or
    a column block of a wider one.
    """
    amplitude = np.asarray(amplitude, dtype=np.float64)
    n_frames, n_bins = amplitude.shape
    if out is None:
        out = np.empty((n_frames, context * n_bins))
    if n_frames:
        padded = np.concatenate(
            [np.repeat(amplitude[:1], context - 1, axis=0), amplitude])
        out.reshape(n_frames, context, n_bins)[...] = \
            sliding_window_view(padded, context, axis=0).transpose(0, 2, 1)
    return out


def noise_fnn_forward_grid(m: NkfModel, amplitude: np.ndarray,
                           sigma_y2: np.ndarray) -> ad.DiffArray:
    """Noise variance estimate for every frame of a T x F grid."""
    amplitude = np.asarray(amplitude, dtype=np.float64)
    sigma_y2 = np.asarray(sigma_y2, dtype=np.float64)
    if amplitude.shape != sigma_y2.shape or amplitude.shape[1] != m.n_bins:
        raise DataError("amplitude / variance grids inconsistent with model")
    features = np.empty((len(amplitude), (m.context + 1) * m.n_bins))
    fnn_context_matrix(amplitude, m.context, out=features[:, :-m.n_bins])
    features[:, -m.n_bins:] = sigma_y2
    h1 = ad.relu(ad.add_rowvec(
        ad.matmul(ad.lift(features), m.params["fnn.w1"]), m.params["fnn.b1"]))
    h2 = ad.relu(ad.add_rowvec(
        ad.matmul(h1, m.params["fnn.w2"]), m.params["fnn.b2"]))
    z = ad.add_rowvec(ad.matmul(h2, m.params["fnn.w3"]), m.params["fnn.b3"])
    return ad.add(ad.softplus(z), NOISE_VAR_EPS)


class NkfModel:
    """The parameter table in ``_param_shapes`` order, the dimensions that
    lay it out, Adam state and framing metadata."""

    def __init__(self, params: dict[str, ad.DiffArray], adam_m: dict[str, np.ndarray],
                 adam_v: dict[str, np.ndarray], *, n_bins: int, units, context: int,
                 hidden: int, window: int, hop: int, variance_span: int,
                 sample_rate: int, log_features: bool, adam_step: int = 0):
        self.params = params
        self.adam_m = adam_m
        self.adam_v = adam_v
        self.adam_step = adam_step
        self.n_bins = int(n_bins)
        self.units = tuple(int(u) for u in units)
        self.context = int(context)
        self.hidden = int(hidden)
        self.window = int(window)
        self.hop = int(hop)
        self.variance_span = int(variance_span)
        self.sample_rate = int(sample_rate)
        self.log_features = bool(log_features)

    def parameters(self) -> dict[str, ad.DiffArray]:
        return self.params

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Accumulated gradients (zero where untouched)."""
        return {name: p.grad if p.grad is not None else np.zeros_like(p.values)
                for name, p in self.params.items()}


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
    shapes = _param_shapes(n_bins, lstm_units, context, fnn_hidden)
    params = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            k = 1.0 / np.sqrt(shape[0])
            values = rng.uniform(-k, k, size=shape)
        else:
            values = np.zeros(shape)
            if name.startswith("lstm"):   # lstm<layer>.b: its forget-gate block
                values[shape[0] // 4:shape[0] // 2] = 1.0
        params[name] = ad.DiffArray(values)
    return NkfModel(
        params, {name: np.zeros_like(p.values) for name, p in params.items()},
        {name: np.zeros_like(p.values) for name, p in params.items()},
        n_bins=n_bins, units=lstm_units, context=context, hidden=fnn_hidden,
        window=window, hop=hop, variance_span=variance_span,
        sample_rate=sample_rate, log_features=log_features)


#: Elements per block of the Adam update: two float64 work buffers of this
#: size (512 KiB) stay in cache while each block goes through every pass.
_ADAM_CHUNK = 1 << 15
#: Adam's moment decay rates and the denominator's guard
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def optimizer_step(m: NkfModel, grads: dict[str, np.ndarray],
                   lr: float = 1e-3) -> NkfModel:
    """One Adam update over every parameter; raises on bad gradients.

    Every gradient is checked (present, shaped like its parameter, finite)
    before anything moves. Moments and parameters are then updated in place,
    in blocks of ``_ADAM_CHUNK`` elements of each flattened tensor, with two
    block-sized work buffers, bit-identical to
    ``m = beta1 * m + (1 - beta1) * g``, ``v = beta2 * v + (1 - beta2) * g * g``
    and ``p = p - lr * m_hat / (sqrt(v_hat) + eps)`` (``_ADAM_BETA1``,
    ``_ADAM_BETA2``, ``_ADAM_EPS``).
    """
    params = m.parameters()
    t = m.adam_step + 1
    flat = []   # per parameter: gradient, first moment, second moment, values
    for name, p in params.items():
        if name not in grads:
            raise DataError(f"missing gradient for parameter {name}")
        g = np.asarray(grads[name])
        if g.shape != p.values.shape:
            raise DataError(f"gradient for {name} has shape {g.shape}, "
                            f"parameter has {p.values.shape}")
        # min and max propagate NaN and show an infinity, without a temporary
        if not (np.isfinite(g.min()) and np.isfinite(g.max())):
            raise NumericsError(
                f"diverged: non-finite gradient for {name} at Adam step {t}")
        state = (m.adam_m[name], m.adam_v[name], p.values)
        if any(a.shape != g.shape or not a.flags.c_contiguous for a in state):
            raise DataError(f"Adam state of {name} must be C-contiguous {g.shape} arrays")
        flat.append([a.reshape(-1) for a in (g, *state)])
    correct1, correct2 = 1.0 - _ADAM_BETA1 ** t, 1.0 - _ADAM_BETA2 ** t
    work = np.empty((2, min(_ADAM_CHUNK, max(p.values.size for p in params.values()))))
    for arrays in flat:
        for lo in range(0, arrays[0].size, _ADAM_CHUNK):
            g, mom, var, val = (a[lo:lo + _ADAM_CHUNK] for a in arrays)
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
    m.adam_step = t
    return m


# ---------------------------------------------------------------------------
# Checkpoint format (version 1), little-endian throughout:
#
#   magic   8 bytes  b"NKFCKPT1"
#   u32     format version (1)
#   u32 x 7 window, hop, sample_rate, n_bins, context, variance_span, fnn_hidden
#   u8      log_features flag
#   u32     number of LSTM layers, then u32 per layer (unit count)
#   u64     Adam step count
#   u32     tensor count, then per tensor:
#              u16 name length, name bytes (utf-8),
#              u8 ndim, u32 per dimension,
#              float64 data, C order
#
# Tensors appear as every parameter in declared order, then the Adam first
# moments as "adam_m.<name>", then the second moments as "adam_v.<name>".
# Save followed by load reproduces the model bit-exactly.
# ---------------------------------------------------------------------------

_MAGIC = b"NKFCKPT1"
_VERSION = 1


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    raw = name.encode("utf-8")
    head = struct.pack("<H", len(raw)) + raw + struct.pack("<B", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + np.ascontiguousarray(arr, dtype="<f8").tobytes()


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.off + size > len(self.blob):
            raise DataError("malformed checkpoint: truncated")
        vals = struct.unpack_from(fmt, self.blob, self.off)
        self.off += size
        return vals

    def floats(self, shape) -> np.ndarray:
        """A read-only view of the next ``shape`` float64 values."""
        size = 8 * math.prod(shape)   # exact: a wrapped product could pass the check
        if self.off + size > len(self.blob):
            raise DataError("malformed checkpoint: truncated")
        self.off += size
        return np.frombuffer(self.blob, "<f8", size // 8, self.off - size).reshape(shape)


def save_checkpoint(m: NkfModel, path):
    """Write ``m`` to a temporary file beside ``path``, then move it over
    ``path``: a write that fails partway leaves an earlier file intact."""
    params = m.parameters()
    blob = [_MAGIC, struct.pack("<I", _VERSION)]
    blob.append(struct.pack(
        "<7I", m.window, m.hop, m.sample_rate, m.n_bins,
        m.context, m.variance_span, m.hidden))
    blob.append(struct.pack("<B", int(m.log_features)))
    blob.append(struct.pack(f"<I{len(m.units)}I", len(m.units), *m.units))
    blob.append(struct.pack("<Q", m.adam_step))
    tensors = [(name, p.values) for name, p in params.items()]
    tensors += [(f"adam_m.{name}", m.adam_m[name]) for name in params]
    tensors += [(f"adam_v.{name}", m.adam_v[name]) for name in params]
    blob.append(struct.pack("<I", len(tensors)))
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(blob))
            for name, arr in tensors:
                fh.write(_pack_tensor(name, arr))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> NkfModel:
    """Read a checkpoint; its header's dimensions must match its tensors'
    shapes, and the file must end with the last tensor."""
    try:
        with open(path, "rb") as fh:
            reader = _Reader(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if reader.take(f"{len(_MAGIC)}s")[0] != _MAGIC:
        raise DataError("malformed checkpoint: bad magic string")
    (version,) = reader.take("<I")
    if version != _VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    window, hop, sample_rate, n_bins, context, span, hidden = reader.take("<7I")
    (log_features,) = reader.take("<B")
    (n_layers,) = reader.take("<I")
    units = reader.take(f"<{n_layers}I")
    (adam_step,) = reader.take("<Q")
    targets: dict[str, np.ndarray] = {}
    (n_tensors,) = reader.take("<I")
    for _ in range(n_tensors):
        (name_len,) = reader.take("<H")
        try:
            name = reader.take(f"{name_len}s")[0].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError("malformed checkpoint: tensor name is not UTF-8") from exc
        if name in targets:
            raise DataError(f"malformed checkpoint: duplicate tensor {name}")
        (ndim,) = reader.take("<B")
        shape = reader.take(f"<{ndim}I") if ndim else ()
        # a view, copied once every check has passed: parsing copies nothing
        targets[name] = reader.floats(shape)
    if reader.off != len(reader.blob):
        raise DataError("malformed checkpoint: trailing bytes after the last tensor")
    shapes = _param_shapes(n_bins, units, context, hidden)
    expected = {prefix + name: shape for prefix in ("", "adam_m.", "adam_v.")
                for name, shape in shapes.items()}
    if sorted(targets) != sorted(expected):
        raise DataError("malformed checkpoint: tensor set mismatch")
    for key, shape in expected.items():
        if targets[key].shape != shape:
            raise DataError(f"malformed checkpoint: shape mismatch for {key}")
    data = {key: targets[key].astype(np.float64) for key in expected}
    return NkfModel(
        {name: ad.DiffArray(data[name]) for name in shapes},
        {name: data[f"adam_m.{name}"] for name in shapes},
        {name: data[f"adam_v.{name}"] for name in shapes}, n_bins=n_bins, units=units,
        context=context, hidden=hidden, window=window, hop=hop, variance_span=span,
        sample_rate=sample_rate, log_features=log_features, adam_step=adam_step)
