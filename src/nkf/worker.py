"""The worker thread, and the split of one piece of work between it and the
calling thread. A half handed to the worker (``in_halves``) waits behind the
jobs queued before it, such as a noise-net first-layer product or an
``fnn.w1`` gradient, so the caller's join waits for those too.
"""

from __future__ import annotations

import os
import queue
import threading

import numpy as np

#: ``split_matmul`` halves ``a @ w`` once ``w`` holds this many entries
#: (8 MiB of float64): every recurrent ``wh`` of the full preset (1024 x
#: 4096, 32 MiB, read once per frame) splits, and no product of the desk
#: preset's (``wh`` 64 x 256), which stay in cache and gain less than the
#: hand-off costs.
SPLIT_ENTRIES = 1 << 20


def _run(jobs: queue.SimpleQueue):
    while True:
        fn, done, error = jobs.get()
        try:
            fn()
        except BaseException as exc:   # join() hands it to the caller
            error.append(exc)
        finally:
            fn = None   # what the job holds goes before join() returns
            done.set()


#: The worker's job queue and thread, made on first use; a forked child
#: makes its own.
_jobs, _thread, _jobs_lock = None, None, threading.Lock()


def _forget_worker():
    global _jobs, _thread, _jobs_lock
    _jobs, _thread, _jobs_lock = None, None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def on_worker(fn):
    """Run ``fn()`` on the worker: one daemon thread, started on first use,
    that runs the jobs handed to it, from any thread, in turn. Returns
    ``join``; ``join()`` waits for ``fn`` and returns what it raised, or None.
    Once ``fn`` has run the worker drops it, and whatever only it held."""
    global _jobs, _thread
    done, error = threading.Event(), []
    with _jobs_lock:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            _thread = threading.Thread(target=_run, args=(_jobs,), name="nkf-worker",
                                       daemon=True)
            _thread.start()
        _jobs.put((fn, done, error))

    def join():
        done.wait()
        return error[0] if error else None
    return join


def in_halves(here, there):
    """Call ``here()`` on this thread while ``there()`` runs on the worker,
    and return once both have. ``here``'s exception leaves first, after the
    join; otherwise ``there``'s. Called on the worker, which cannot wait for a
    job queued behind its own, it calls both in turn itself."""
    if threading.current_thread() is _thread:
        here()
        there()
        return
    join = on_worker(there)
    try:
        here()
    finally:
        error = join()
    if error is not None:
        raise error


def split_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for a B x K ``a`` and a K x N ``w`` (a view, a transposed
    one too): the first N // 2 output columns formed here and the rest on the
    worker (``in_halves``) once ``w`` holds ``SPLIT_ENTRIES`` entries, so each
    thread reads half of ``w``. Every column is the whole product's, bit for
    bit."""
    if w.size < SPLIT_ENTRIES:
        return a @ w
    out, mid = np.empty((a.shape[0], w.shape[1])), w.shape[1] // 2
    in_halves(lambda: np.matmul(a, w[:, :mid], out=out[:, :mid]),
              lambda: np.matmul(a, w[:, mid:], out=out[:, mid:]))
    return out
