"""Fingerprints of a checkout's training, gradient and enhancement outputs.

    PYTHONPATH=src python tests/witness.py OUT.json [--set KEY=VALUE ...]

writes, as JSON, the sha256 of every file that ``nkf train`` leaves in its
run directory (each checkpoint, ``loss_history.csv``, ``resolved.cfg``) for
a 9-step desk run on 2 s utterances and for a 3-step run on 17 s utterances
cut to ``seq_len`` 1024 frames, and beside each checkpoint's the sha256 of
its content as loaded (``<file>:content``: dimensions, units, feature flag,
Adam step and the three arenas' bytes); the repr of ``gradient_check(0)``
as a float; and, for each ``--method``, the sha256 of the WAV and of every
``--dump-grids`` grid that ``nkf enhance`` writes for the test split with
the desk run's model, and for ``kf`` and ``wiener`` with ``--oracle-noise``
too. A change that claims bit-identical outputs writes this file on its
parent's tree and on its own, and the two files compare equal with ``cmp``;
where the change is to the checkpoint format, only the ``.nkf`` file hashes
differ, and the content hashes are equal.

Each ``--set`` is applied to every run after the settings above. One BLAS
thread is used unless ``OPENBLAS_NUM_THREADS`` says otherwise, because the
thread count can change how a product rounds.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from nkf import enhancer, networks  # noqa: E402
from nkf.cli import main as nkf  # noqa: E402

#: (name, settings, training steps) of the two training runs
RUNS = [
    ("desk", ["train_count=8", "dev_count=1", "test_count=1", "utterance_seconds=2"], 9),
    ("seq_len_1024", ["train_count=4", "dev_count=1", "test_count=1",
                      "utterance_seconds=17", "seq_len=1024"], 3),
]

#: the methods that also run with ``--oracle-noise``, the noise grid from the
#: corpus's mixing metadata instead of the model's estimate
ORACLE_METHODS = ("kf", "wiener")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _content_hash(path) -> str:
    """sha256 of a checkpoint as loaded: its header fields, then its arenas."""
    m = networks.load_checkpoint(path)
    h = hashlib.sha256(repr(([getattr(m, d) for d in networks._DIMS], m.units,
                             m.log_features, m.adam_step)).encode())
    for arena in (m.values, m.adam_m, m.adam_v):
        h.update(np.ascontiguousarray(arena, dtype="<f8"))
    return h.hexdigest()


def _file_hashes(directory) -> dict:
    """sha256 per file, and per ``.nkf`` file of its content too, keyed
    ``file:content``; an ``.npz`` file per array (its zip entries carry
    timestamps), keyed ``file:array`` and covering dtype and shape too."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name.endswith(".nkf"):
            out[f"{name}:content"] = _content_hash(path)
        if name.endswith(".npz"):
            with np.load(path) as grids:
                for key in sorted(grids.files):
                    a = grids[key]
                    out[f"{name}:{key}"] = _sha256(
                        f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
        else:
            with open(path, "rb") as fh:
                out[name] = _sha256(fh.read())
    return out


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        status = nkf(argv)
    if status != 0:
        raise SystemExit(f"nkf {' '.join(argv)} exited {status}")


def witness(overrides, work) -> dict:
    """The fingerprints, with every run's files under ``work``."""
    report = {"gradient_check": repr(float(enhancer.gradient_check(0)))}
    for name, settings, steps in RUNS:
        sets = [a for s in settings + overrides for a in ("--set", s)]
        corpus, run = os.path.join(work, name, "corpus"), os.path.join(work, name, "run")
        _run(sets + ["synth", "--out", corpus])
        _run(sets + ["train", "--corpus", corpus, "--out", run, "--max-steps", str(steps)])
        report[name] = _file_hashes(run)
        if name != "desk":
            continue
        for method in enhancer.METHODS:
            out = os.path.join(work, name, f"enhance_{method}")
            _run(sets + ["enhance", "--checkpoint", os.path.join(run, "model.nkf"),
                         "--manifest", os.path.join(corpus, "manifest.csv"),
                         "--method", method, "--dump-grids", "--out", out])
            report[f"enhance_{method}"] = _file_hashes(out)
        for method in ORACLE_METHODS:
            out = os.path.join(work, name, f"enhance_{method}_oracle")
            _run(sets + ["enhance", "--manifest", os.path.join(corpus, "manifest.csv"),
                         "--method", method, "--oracle-noise", "--dump-grids",
                         "--out", out])
            report[f"enhance_{method}_oracle"] = _file_hashes(out)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="setting applied to every run, after the built-in ones")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        report = witness(args.set, work)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
