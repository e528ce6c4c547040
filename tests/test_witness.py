"""``tests/witness.py``, the bit-identity fingerprints, run as its usage line
says at the TINY settings of ``test_cli``: two runs write equal files."""

import json
import os
import subprocess
import sys

from test_cli import TINY

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_two_runs_write_equal_fingerprints(tmp_path):
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    outs = [tmp_path / f"run{i}.json" for i in range(2)]
    for out in outs:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tests", "witness.py"), str(out), *TINY],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
    report = json.loads(outs[0].read_text())
    assert float(report["gradient_check"]) < 1e-6
    for run in ("desk", "seq_len_1024"):
        assert {"model.nkf", "model.nkf:content", "loss_history.csv"} <= report[run].keys()
    for key in ("nkf", "kf", "wiener", "lstm", "kf_oracle", "wiener_oracle"):
        files = report[f"enhance_{key}"]
        assert "test_0000.wav" in files and "test_0000_grids.npz:amp_out" in files
