import math
from pathlib import Path

import pytest

from nkf.config import (RunConfig, _FIELD_TYPES, load_config, parse_assignments,
                        save_config)
from nkf.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.window == 256 and cfg.hop == 64
        assert cfg.n_bins == 129
        assert cfg.variance_span == 20 and cfg.context == 30
        assert cfg.train_snrs == (-6, -3, 0, 3, 6, 9, 12, 15, 18, 21)
        assert cfg.test_snrs == (-5, 0, 5, 10, 15)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(window=255)
        with pytest.raises(ConfigError):
            RunConfig(hop=300)
        with pytest.raises(ConfigError):
            RunConfig(lp_order=9)
        with pytest.raises(ConfigError):
            RunConfig(lr=0.0)
        with pytest.raises(ConfigError):
            RunConfig(utterance_seconds=0.01)
        # numpy's generators take only nonnegative seeds
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("lr", math.nan), ("lr", math.inf), ("utterance_seconds", math.nan),
        ("utterance_seconds", math.inf), ("test_snrs", (math.nan,)),
        ("train_snrs", (0.0, -math.inf)), ("test_snrs", (5.0, math.inf)),
    ])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            RunConfig(**{field: value})

    def test_lp_segment_must_exceed_lp_order(self):
        # the KF baseline fits each LP model on one segment of lp_segment frames
        for segment, order in ((2, 2), (1, 3)):
            with pytest.raises(ConfigError, match="lp_segment.*lp_order"):
                RunConfig(lp_segment=segment, lp_order=order)
        assert RunConfig(lp_segment=3, lp_order=2).lp_segment == 3

    def test_lstm_unit_list(self):
        cfg = RunConfig(lstm_layers=3, lstm_units=32)
        assert cfg.lstm_unit_list == (32, 32, 32)


class TestAssignments:
    def test_typed_parsing(self):
        got = parse_assignments(["window=128", "lr=0.01", "log_features=true",
                                 "test_snrs=0,5"])
        assert got == {"window": 128, "lr": 0.01, "log_features": True,
                       "test_snrs": (0.0, 5.0)}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_assignments(["wibble=1"])

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_assignments(["window=ten"])

    def test_every_field_parses_as_its_default(self):
        # a field's parser is its default's type, so a default of a type
        # _parse_scalar does not know would parse as a tuple of floats
        assert set(_FIELD_TYPES.values()) == {bool, int, float, tuple}
        cfg = RunConfig()
        for name, ftype in _FIELD_TYPES.items():
            value = getattr(cfg, name)
            text = ",".join(map(str, value)) if ftype is tuple else str(value)
            assert parse_assignments([f"{name}={text}"]) == {name: value}, name

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_assignments(["window"])


class TestFiles:
    def test_roundtrip(self, tmp_path):
        cfg = RunConfig(window=128, hop=32, lstm_units=16, seed=7)
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nwindow = 128  # inline\nhop = 32\n")
        cfg = load_config(path)
        assert cfg.window == 128 and cfg.hop == 32

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window = 128\nhop = 32\n")
        cfg = load_config(path, overrides={"hop": 16})
        assert cfg.hop == 16

    def test_full_preset(self):
        cfg = load_config(preset="full")
        assert cfg.lstm_units == 1024 and cfg.fnn_hidden == 1024
        assert cfg.batch == 16 and cfg.seq_len == 2048 and cfg.epochs == 20

    def test_shipped_config_files_match_the_presets(self):
        assert load_config(CONFIGS / "desk.cfg") == RunConfig()
        assert load_config(CONFIGS / "full.cfg") == load_config(preset="full")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_unparseable_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            load_config(path)
