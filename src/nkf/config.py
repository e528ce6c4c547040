"""Run configuration: flat key = value files, presets, validation.

Every tunable in the toolkit lives on ``RunConfig``. Values are resolved in
order: preset defaults, then a config file, then explicit overrides; each
command echoes its fully-resolved configuration next to its outputs so runs
are reproducible from the artifacts alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .data_io import replacing
from .errors import ConfigError


@dataclass
class RunConfig:
    # framing
    window: int = 256
    hop: int = 64
    sample_rate: int = 16000
    # conventional KF baseline
    lp_order: int = 2
    lp_segment: int = 32
    # variance tracking / noise net context
    variance_span: int = 20
    context: int = 30
    # network sizes
    lstm_layers: int = 2
    lstm_units: int = 64
    fnn_hidden: int = 128
    log_features: bool = False
    # training
    lr: float = 1e-3
    batch: int = 4
    seq_len: int = 256
    epochs: int = 7
    seed: int = 0
    # corpus synthesis
    train_snrs: tuple = tuple(float(v) for v in range(-6, 22, 3))
    test_snrs: tuple = (-5.0, 0.0, 5.0, 10.0, 15.0)
    train_count: int = 120
    dev_count: int = 20
    test_count: int = 20
    utterance_seconds: float = 4.0

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.window <= 0 or self.window % 2 != 0:
            raise ConfigError("window must be a positive even number")
        if not 0 < self.hop <= self.window:
            raise ConfigError("hop must satisfy 0 < hop <= window")
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be positive")
        if not 1 <= self.lp_order <= 8:
            raise ConfigError("lp_order must be in 1..8")
        for name in ("lp_segment", "variance_span", "context", "lstm_layers",
                     "lstm_units", "fnn_hidden", "batch", "seq_len", "epochs",
                     "train_count", "dev_count", "test_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.lp_segment <= self.lp_order:
            raise ConfigError("lp_segment must be greater than lp_order")
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be positive and finite")
        if not 4 * self.window <= self.utterance_seconds * self.sample_rate < math.inf:
            raise ConfigError("utterances must be finite and cover at least four windows")
        snrs = (*self.train_snrs, *self.test_snrs)
        if not self.train_snrs or not self.test_snrs or not all(map(math.isfinite, snrs)):
            raise ConfigError("SNR grids must be nonempty and finite")

    @property
    def n_bins(self) -> int:
        return self.window // 2 + 1

    @property
    def lstm_unit_list(self) -> tuple:
        return (self.lstm_units,) * self.lstm_layers

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)


#: Full-size network and sequence settings; expect workstation-class runtimes.
FULL_PRESET = dict(lstm_units=1024, fnn_hidden=1024, batch=16,
                    seq_len=2048, epochs=20)


def _parse_scalar(field_type, raw: str):
    raw = raw.strip()
    if field_type is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"not a boolean: {raw!r}")
    if field_type is int:
        return int(raw)
    if field_type is float:
        return float(raw)
    return tuple(float(v) for v in raw.split(",") if v.strip())


#: each field's parser type: its default's, one of bool, int, float and tuple
_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}


def parse_assignments(pairs) -> dict:
    """Parse ``key=value`` strings into typed config fields."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            out[key] = _parse_scalar(_FIELD_TYPES[key], raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return out


def load_config(path=None, overrides: dict | None = None,
                preset: str | None = None) -> RunConfig:
    """Resolve a configuration from preset, file, and override layers."""
    values: dict = {}
    if preset == "full":
        values.update(FULL_PRESET)
    elif preset not in (None, "desk"):
        raise ConfigError(f"unknown preset {preset!r}")
    if path is not None:
        assignments = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(
                            f"{path}:{line_no}: expected key = value")
                    assignments.append(line)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        values.update(parse_assignments(assignments))
    if overrides:
        values.update(overrides)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def save_config(cfg: RunConfig, path):
    """Echo the fully-resolved configuration as key = value lines."""
    with replacing(path, "w", encoding="utf-8") as fh:
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            fh.write(f"{f.name} = {value}\n")
