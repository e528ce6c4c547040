"""Benchmark of the nkf package; see perfbench/README.md.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The lines before it report the input digest, the
environment and every metric by name and unit.
"""

import time

# A set-up probe is timed from here, before numpy or nkf is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 120


def nproc():
    return len(os.sched_getaffinity(0))


def one_blas_thread():
    """Run BLAS on one thread: one process on one core is the whole load, and
    the reference kernel (see workloads.py) runs where the ops run.

    Must run before numpy is imported; set-up probes inherit the setting.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def environment():
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads if threads is not None
            else os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": nproc(), "cpu_count": os.cpu_count()}


def probe_setup(input_dir):
    """Body of a set-up probe process: time import, set-up and a warm-up op."""
    import workloads

    workloads.set_up(input_dir)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def setup_seconds(input_dir, repeats):
    """Set-up times of ``repeats`` fresh processes."""
    values = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup", input_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(log, setup_samples):
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_op_ratio": ((log.attempted - log.failed) / log.attempted, "ratio"),
        "ops_per_s": (log.ops_per_s(adjusted=True), "1/s"),
    }


def _named(state, log):
    """Wall-clock figures, under the names a user of each path knows them by."""
    import workloads

    out = {"ops_per_s_raw": (log.ops_per_s(adjusted=False), "1/s"),
           "reference_speed": (statistics.median(log.speed or [float("nan")]), "ratio"),
           "failed_op_ratio": (log.failed / log.attempted, "ratio")}
    problems = []
    method = state.spec.method
    if method == "train":
        losses, problems = workloads.train_quality(state, log)
        out["train_steps_per_s"] = out["ops_per_s_raw"]
        out["train_step_s_p50"] = (log.op_s_p50(), "s")
        for name, value in losses.items():
            out[name] = (value, "mse")
    else:
        out[f"{method}_rtf"] = (log.busy_s / log.audio_s if log.audio_s else float("nan"),
                                "s/s")
        if method in ("kf", "wiener"):
            gain = workloads.fwsegsnr_gain_db(state, log)
            out[f"{method}_fwsegsnr_gain_db"] = (gain, "dB")
            if not gain > 0:
                problems.append(f"{method} with oracle noise does not raise FwSegSNR")
    return out, problems


def measure(workload, seed, seconds, trace, work_dir=WORK_DIR, spec=None):
    """One benchmark run; returns (report lines, result object, full record)."""
    import tracing
    import workloads

    spec = spec or workloads.WORKLOADS[workload]
    os.makedirs(work_dir, exist_ok=True)
    input_dir = tempfile.mkdtemp(prefix=f"inputs-{spec.name}-", dir=work_dir)
    try:
        sha = workloads.make_inputs(spec, seed, input_dir)
        setup_samples = [] if trace else setup_seconds(input_dir, spec.setup_repeats)
        state = workloads.set_up(input_dir)
        record = {"workload": spec.name, "seed": seed, "seconds": seconds,
                  "trace": trace, "input_sha256": sha, "env": environment(),
                  "setup_samples_s": setup_samples}
        if trace:
            reference = workloads.run_segment(state, seconds / 2)
            tracer = tracing.Tracer()
            log = workloads.run_segment(state, seconds, tracer)
            ops = log.attempted
            metrics = {name: (v["value"], v["unit"])
                       for name, v in tracing.layer_metrics(tracer, ops).items()}
            metrics["trace.overhead_ratio"] = (
                reference.ops_per_s(adjusted=True) / log.ops_per_s(adjusted=True), "ratio")
            spans_path = os.path.join(work_dir, f"spans-{spec.name}-seed{seed}.jsonl")
            tracer.write_spans(spans_path)
            record["spans"] = spans_path
            named, problems = {}, []
            logs = [reference, log]
        else:
            log = workloads.run_segment(state, seconds)
            e2e = _end_to_end(log, setup_samples)
            named, problems = _named(state, log)
            metrics = e2e
            logs = [log]
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    check_failures = {}
    errors = {}
    for seg in logs:
        for k, v in seg.check_failures.items():
            check_failures[k] = check_failures.get(k, 0) + v
        for k, v in seg.errors.items():
            errors[k] = errors.get(k, 0) + v
    result = {
        "correct": not check_failures and not problems,
        "attempted": sum(seg.attempted for seg in logs),
        "failed": sum(seg.failed for seg in logs),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record.update(named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                  errors=errors, check_failures=check_failures,
                  run_problems=problems, result=result)
    lines = [f"# perfbench {spec.name} seed={seed} seconds={seconds} trace={int(trace)}",
             f"# input_sha256 {sha} seed={seed}",
             "# env " + " ".join(f"{k}={v}" for k, v in record["env"].items())]
    for k, v in errors.items():
        lines.append(f"# op errors: {v} x {k}")
    for k, v in check_failures.items():
        lines.append(f"# output check failed: {v} x {k}")
    lines += [f"# run check failed: {p}" for p in problems]
    lines += [f"{k} {v!r} {u}" for k, (v, u) in {**named, **metrics}.items()]
    return lines, result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="INPUT_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nkf", "__init__.py")):
        print(f"perfbench: no nkf sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    one_blas_thread()
    sys.path.insert(0, SRC)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    lines, result, record = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
