"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench

Each workload runs once untraced and once traced on tiny inputs; the
emitted metric names and units must match BENCHMARK.json, and the traced
run must leave every attribute it patched as it found it.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

run.one_blas_thread()
sys.path.insert(0, run.SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

TINY = dict(lengths=(448, 1200, 576), lead_in=(1,), setup_repeats=1)
TINY_TRAIN = dict(lengths=(1200, 2000), setup_repeats=1,
                  overrides=dict(lstm_layers=1, lstm_units=4, fnn_hidden=4,
                                 context=3, batch=1, seq_len=16))


def tiny(name):
    spec = workloads.WORKLOADS[name]
    return dataclasses.replace(spec, **(TINY_TRAIN if spec.method == "train" else TINY))


def _snapshot():
    return [(owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            for owner, attr in tracing.patch_targets()]


def _check_metrics(result, declared):
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert math.isfinite(m["value"])
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric(name, tmp_path):
    lines, result, record = run.measure(name, 3, 0.01, False, str(tmp_path), tiny(name))
    _check_metrics(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["input_sha256"]) == 64
    assert {"python", "numpy", "blas", "blas_threads", "nproc"} <= set(record["env"])
    assert any(line.startswith("# input_sha256 ") for line in lines)

    before = _snapshot()
    lines, result, record = run.measure(name, 3, 0.01, True, str(tmp_path), tiny(name))
    assert _snapshot() == before
    _check_metrics(result, BENCHMARK["per_layer"])
    assert os.path.getsize(record["spans"]) > 0


def test_inputs_follow_the_seed(tmp_path):
    spec = tiny("enhance-kf")
    digests = [workloads.make_inputs(spec, seed, str(tmp_path / f"{i}"))
               for i, seed in enumerate((5, 5, 6))]
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enhance-wiener",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
