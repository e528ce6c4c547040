"""The two learnable components and their plumbing.

``LstmPredictor`` is a stacked LSTM over noisy amplitude frames with two
fully-connected heads reading the top hidden state: one predicts the clean
amplitude per bin (ReLU, so nonnegative), the other the log variance of the
prediction residual (clamped to +-12 so its exponential stays finite).
``NoiseFnn`` is a three-layer ReLU feed-forward net mapping a left-side
context window of amplitudes plus the current running noisy variance to a
strictly positive noise variance per bin (softplus output).

Parameters are ``DiffArray`` leaves; forward functions build the reverse-mode
graph, so one ``backward()`` on a downstream loss yields exact gradients for
every weight. Training state (Adam moments, step count) lives on ``NkfModel``
and round-trips bit-exactly through the binary checkpoint format documented
at the bottom of this file.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from . import autodiff as ad
from .errors import DataError, NumericsError

#: Additive floor keeping the estimated noise variance strictly positive.
NOISE_VAR_EPS = 1e-12

#: Log-variance clamp for the residual head.
LOGVAR_LIMIT = 12.0


def _uniform_init(rng, shape, fan_in):
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape)


class LstmPredictor:
    """Stacked LSTM with fused gate weights and two output heads.

    Per layer: ``wx`` (in_dim, 4U), ``wh`` (U, 4U) and ``b`` (4U,), with the
    gate blocks ordered input, forget, cell, output along the 4U axis. The
    forget-gate bias block starts at 1.0; everything else is uniform
    (-1/sqrt(fan_in), +1/sqrt(fan_in)).
    """

    def __init__(self, n_bins: int, units=(64, 64), rng=None):
        if n_bins < 1 or len(units) < 1 or any(u < 1 for u in units):
            raise DataError("predictor dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_bins = int(n_bins)
        self.units = tuple(int(u) for u in units)
        self.params: dict[str, ad.DiffArray] = {}
        in_dim = self.n_bins
        for layer, u in enumerate(self.units):
            b = np.zeros(4 * u)
            b[u:2 * u] = 1.0
            self.params[f"lstm{layer}.wx"] = ad.DiffArray(
                _uniform_init(rng, (in_dim, 4 * u), in_dim))
            self.params[f"lstm{layer}.wh"] = ad.DiffArray(
                _uniform_init(rng, (u, 4 * u), u))
            self.params[f"lstm{layer}.b"] = ad.DiffArray(b)
            in_dim = u
        top = self.units[-1]
        for head in ("head_amp", "head_res"):
            self.params[f"{head}.w"] = ad.DiffArray(
                _uniform_init(rng, (top, self.n_bins), top))
            self.params[f"{head}.b"] = ad.DiffArray(np.zeros(self.n_bins))


def lstm_forward(p: LstmPredictor, noisy_amp) -> tuple[ad.DiffArray, ad.DiffArray]:
    """Run the predictor over a T x F sequence or a B x T x F batch.

    Returns the nonnegative amplitude prediction and the clamped residual
    log variance, both shaped like the input. Hidden and cell states start
    at zero in every sequence, and outputs at frame t depend only on frames
    up to t, so a sequence zero-padded at its end keeps its outputs.
    """
    x = np.asarray(noisy_amp, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != p.n_bins or x.shape[-2] < 1:
        raise DataError(f"predictor expects [B x] T x {p.n_bins}, T >= 1, got {x.shape}")
    layer_in = x if x.ndim == 3 else x[None]
    for layer in range(len(p.units)):
        layer_in = ad.lstm_layer(layer_in, p.params[f"lstm{layer}.wx"],
                                 p.params[f"lstm{layer}.wh"], p.params[f"lstm{layer}.b"])
    amp = ad.relu(ad.add_rowvec(
        ad.matmul(layer_in, p.params["head_amp.w"]), p.params["head_amp.b"]))
    res_logvar = ad.clamp(ad.add_rowvec(
        ad.matmul(layer_in, p.params["head_res.w"]), p.params["head_res.b"]),
        -LOGVAR_LIMIT, LOGVAR_LIMIT)
    return (amp, res_logvar) if x.ndim == 3 else (amp[0], res_logvar[0])


class NoiseFnn:
    """Three fully-connected layers; ReLU hidden, softplus output."""

    def __init__(self, n_bins: int, context: int = 30, hidden: int = 128, rng=None):
        if n_bins < 1 or context < 1 or hidden < 1:
            raise DataError("noise net dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_bins = int(n_bins)
        self.context = int(context)
        self.hidden = int(hidden)
        in_dim = self.context * self.n_bins + self.n_bins
        self.params = {
            "fnn.w1": ad.DiffArray(_uniform_init(rng, (in_dim, hidden), in_dim)),
            "fnn.b1": ad.DiffArray(np.zeros(hidden)),
            "fnn.w2": ad.DiffArray(_uniform_init(rng, (hidden, hidden), hidden)),
            "fnn.b2": ad.DiffArray(np.zeros(hidden)),
            "fnn.w3": ad.DiffArray(_uniform_init(rng, (hidden, n_bins), hidden)),
            "fnn.b3": ad.DiffArray(np.zeros(n_bins)),
        }


def fnn_context_matrix(amplitude: np.ndarray, context: int) -> np.ndarray:
    """Left-side context features: frames t-context+1..t flattened per row.

    The window includes the current frame; indices before the utterance
    start repeat frame 0. Within a row, frames are ordered oldest first.
    """
    amplitude = np.asarray(amplitude, dtype=np.float64)
    n_frames = amplitude.shape[0]
    offsets = np.arange(context - 1, -1, -1)
    idx = np.maximum(np.arange(n_frames)[:, None] - offsets[None, :], 0)
    return amplitude[idx].reshape(n_frames, context * amplitude.shape[1])


def noise_fnn_forward_grid(n: NoiseFnn, amplitude: np.ndarray,
                           sigma_y2: np.ndarray) -> ad.DiffArray:
    """Noise variance estimate for every frame of a T x F grid."""
    amplitude = np.asarray(amplitude, dtype=np.float64)
    sigma_y2 = np.asarray(sigma_y2, dtype=np.float64)
    if amplitude.shape != sigma_y2.shape or amplitude.shape[1] != n.n_bins:
        raise DataError("amplitude / variance grids inconsistent with model")
    features = np.concatenate(
        [fnn_context_matrix(amplitude, n.context), sigma_y2], axis=1)
    h1 = ad.relu(ad.add_rowvec(
        ad.matmul(ad.lift(features), n.params["fnn.w1"]), n.params["fnn.b1"]))
    h2 = ad.relu(ad.add_rowvec(
        ad.matmul(h1, n.params["fnn.w2"]), n.params["fnn.b2"]))
    z = ad.add_rowvec(ad.matmul(h2, n.params["fnn.w3"]), n.params["fnn.b3"])
    return ad.add(ad.softplus(z), NOISE_VAR_EPS)


class NkfModel:
    """Predictor + noise net + optimizer state + framing metadata."""

    def __init__(self, predictor: LstmPredictor, noise_net: NoiseFnn, *,
                 window: int = 256, hop: int = 64, variance_span: int = 20,
                 sample_rate: int = 16000, log_features: bool = False):
        self.predictor = predictor
        self.noise_net = noise_net
        self.window = int(window)
        self.hop = int(hop)
        self.variance_span = int(variance_span)
        self.sample_rate = int(sample_rate)
        self.log_features = bool(log_features)
        self.adam_m = {k: np.zeros_like(p.values) for k, p in self.parameters().items()}
        self.adam_v = {k: np.zeros_like(p.values) for k, p in self.parameters().items()}
        self.adam_step = 0

    @property
    def n_bins(self) -> int:
        return self.predictor.n_bins

    def parameters(self) -> dict[str, ad.DiffArray]:
        merged = dict(self.predictor.params)
        merged.update(self.noise_net.params)
        return merged

    def zero_grad(self):
        for p in self.parameters().values():
            p.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Accumulated gradients (zero where untouched)."""
        return {name: p.grad if p.grad is not None else np.zeros_like(p.values)
                for name, p in self.parameters().items()}


def build_model(n_bins: int, *, lstm_units=(64, 64), fnn_hidden: int = 128,
                context: int = 30, window: int = 256, hop: int = 64,
                variance_span: int = 20, sample_rate: int = 16000,
                log_features: bool = False, seed: int = 0) -> NkfModel:
    """Deterministically initialize a model: same seed, same bits."""
    rng = np.random.default_rng(seed)
    predictor = LstmPredictor(n_bins, units=lstm_units, rng=rng)
    noise_net = NoiseFnn(n_bins, context=context, hidden=fnn_hidden, rng=rng)
    return NkfModel(predictor, noise_net, window=window, hop=hop,
                    variance_span=variance_span, sample_rate=sample_rate,
                    log_features=log_features)


def optimizer_step(m: NkfModel, grads: dict[str, np.ndarray],
                   lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> NkfModel:
    """One Adam update over every parameter; raises on non-finite gradients.

    Moments and parameters are updated in place, bit-identical to
    ``m = beta1 * m + (1 - beta1) * g``, ``v = beta2 * v + (1 - beta2) * g * g``
    and ``p = p - lr * m_hat / (sqrt(v_hat) + eps)``.
    """
    params = m.parameters()
    t = m.adam_step + 1
    for name in params:
        if name not in grads:
            raise DataError(f"missing gradient for parameter {name}")
        if not np.all(np.isfinite(grads[name])):
            raise NumericsError(
                f"diverged: non-finite gradient for {name} at Adam step {t}")
    for name, p in params.items():
        g, mom, var = grads[name], m.adam_m[name], m.adam_v[name]
        mom *= beta1
        mom += (1.0 - beta1) * g
        g2 = (1.0 - beta2) * g
        g2 *= g
        var *= beta2
        var += g2
        step = mom / (1.0 - beta1 ** t)
        step *= lr
        denom = var / (1.0 - beta2 ** t)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p.values -= step
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


def save_checkpoint(m: NkfModel, path):
    """Write ``m`` to a temporary file beside ``path``, then move it over
    ``path``: a write that fails partway leaves an earlier file intact."""
    params = m.parameters()
    blob = [_MAGIC, struct.pack("<I", _VERSION)]
    blob.append(struct.pack(
        "<7I", m.window, m.hop, m.sample_rate, m.n_bins,
        m.noise_net.context, m.variance_span, m.noise_net.hidden))
    blob.append(struct.pack("<B", int(m.log_features)))
    units = m.predictor.units
    blob.append(struct.pack(f"<I{len(units)}I", len(units), *units))
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
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
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
    model = build_model(
        n_bins, lstm_units=units, fnn_hidden=hidden, context=context,
        window=window, hop=hop, variance_span=span, sample_rate=sample_rate,
        log_features=bool(log_features), seed=0)
    model.adam_step = adam_step
    targets: dict[str, np.ndarray] = {}
    (n_tensors,) = reader.take("<I")
    for _ in range(n_tensors):
        (name_len,) = reader.take("<H")
        name = reader.take(f"{name_len}s")[0].decode("utf-8")
        (ndim,) = reader.take("<B")
        shape = reader.take(f"<{ndim}I") if ndim else ()
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        data = np.frombuffer(reader.take(f"{8 * count}s")[0], dtype="<f8")
        targets[name] = data.reshape(shape).astype(np.float64)
    params = model.parameters()
    expected = list(params) + [f"adam_m.{n}" for n in params] + \
        [f"adam_v.{n}" for n in params]
    if sorted(targets) != sorted(expected):
        raise DataError("malformed checkpoint: tensor set mismatch")
    for name, p in params.items():
        for key in (name, f"adam_m.{name}", f"adam_v.{name}"):
            if targets[key].shape != p.values.shape:
                raise DataError(f"malformed checkpoint: shape mismatch for {key}")
        p.values = targets[name]
        model.adam_m[name] = targets[f"adam_m.{name}"]
        model.adam_v[name] = targets[f"adam_v.{name}"]
    return model
