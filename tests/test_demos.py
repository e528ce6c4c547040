"""The narrative demos run to completion against the installed package.

``06_train_and_evaluate.py`` trains for 600 steps (about 20 s on two cores)
and is left out of Tier-1 to keep its wall time down; CI runs it as a step
of its own.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_stft_roundtrip.py", "02_linear_prediction.py",
         "03_kalman_baseline.py", "04_wiener_filtering.py",
         "05_autodiff_engine.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
