"""The split of one piece of work between the calling thread and the worker:
each half formed by the same arithmetic as the whole, exceptions handed over
after the join, and no wait on the worker for a job queued behind its own."""

import sys
import threading
import time

import numpy as np
import pytest

from nkf import autodiff as ad
from nkf import networks, worker
from nkf.errors import NumericsError
from nkf.networks import build_model, optimizer_step
from nkf.worker import in_halves, on_worker, split_matmul

#: the full preset's LSTM units; its recurrent ``wh`` is U x 4U
U = 1024


def _full_wh(seed=0):
    return np.random.default_rng(seed).uniform(-U ** -0.5, U ** -0.5, (U, 4 * U))


class _Halves:
    """``worker.in_halves``, counted: per call, the threads that ran ``here``
    and ``there``."""

    def __init__(self, monkeypatch, module):
        self.threads = []
        real = worker.in_halves

        def counted(here, there):
            ran = [None, None]

            def marked(half, fn):
                ran[half] = threading.get_ident()
                fn()

            real(lambda: marked(0, here), lambda: marked(1, there))
            self.threads.append(ran)

        monkeypatch.setattr(module, "in_halves", counted)


@pytest.mark.parametrize("batch", [1, 2, 4])
def test_split_product_equals_the_whole_at_full_width(monkeypatch, batch):
    # the forward product reads h from the B x (T+1) x U state array, BPTT's
    # reads wh transposed; both split, and each column is the whole's
    halves = _Halves(monkeypatch, worker)
    rng = np.random.default_rng(batch)
    wh = _full_wh(batch)
    h = rng.standard_normal((batch, 5, U))[:, 2]
    dz = rng.standard_normal((batch, 4 * U))
    assert wh.size >= worker.SPLIT_ENTRIES
    assert np.array_equal(split_matmul(h, wh), h @ wh)
    assert np.array_equal(split_matmul(dz, wh.T), dz @ wh.T)
    caller = threading.get_ident()
    assert [ran[0] == caller != ran[1] for ran in halves.threads] == [True, True]


def test_desk_products_do_not_split(monkeypatch):
    halves = _Halves(monkeypatch, worker)
    wh = np.random.default_rng(1).standard_normal((64, 256))   # the desk preset's
    h = np.random.default_rng(2).standard_normal((4, 64))
    assert np.array_equal(split_matmul(h, wh), h @ wh)
    assert halves.threads == []


def test_full_width_layer_equals_the_unsplit_layer(monkeypatch):
    # four frames of a 1024-unit layer over a batch of 2: outputs, final
    # state and every gradient, split and with every product formed whole here
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4, 129))
    wx = rng.uniform(-0.09, 0.09, (129, 4 * U))
    wh, b = _full_wh(6), rng.uniform(-0.1, 0.1, 4 * U)
    target = rng.standard_normal((2, 4, U))

    def run():
        leaves = [ad.DiffArray(a.copy()) for a in (x, wx, wh, b)]
        out, (h, c) = ad.lstm_layer(*leaves)
        ad.mean_square(out, target).backward()
        return [out.values, h, c] + [leaf.grad for leaf in leaves]

    halves = _Halves(monkeypatch, worker)
    got = run()
    assert len(halves.threads) == 8   # 4 frames forward, 4 backward
    monkeypatch.setattr(ad, "split_matmul", lambda a, w: a @ w)
    want = run()
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


class TestAdamHalves:
    @staticmethod
    def _model(seed):
        m = build_model(129, seed=seed)   # the desk preset: 644,611 parameters
        m.grads[:] = np.random.default_rng(seed).standard_normal(m.grads.size)
        return m

    def test_halves_equal_one_pass(self, monkeypatch):
        # one pass over the whole arenas in blocks of _ADAM_CHUNK, as one
        # thread ran it before the split
        got, want = self._model(3), self._model(3)
        halves = _Halves(monkeypatch, networks)
        for step, lr in enumerate((1e-3, 3e-2, 1e-4), start=1):
            optimizer_step(got, lr)
            networks._adam_pass(want, step, lr, 0, want.grads.size,
                                np.empty((2, networks._ADAM_CHUNK)))
            want.adam_step = step
            for a, b in zip((got.values, got.adam_m, got.adam_v),
                            (want.values, want.adam_m, want.adam_v)):
                assert np.array_equal(a, b)
        caller = threading.get_ident()
        assert [ran[0] == caller != ran[1] for ran in halves.threads] == [True] * 3

    def test_nonfinite_in_the_workers_half_moves_nothing(self):
        m = self._model(4)
        optimizer_step(m)
        before = [a.copy() for a in (m.values, m.adam_m, m.adam_v)]
        m.grads[-5] = np.nan   # in fnn.b3, the second half's last parameter
        with pytest.raises(NumericsError, match=r"for fnn\.b3 at Adam step 2$"):
            optimizer_step(m)
        assert m.adam_step == 1
        for now, then in zip((m.values, m.adam_m, m.adam_v), before):
            assert np.array_equal(now, then)


class _Boom(Exception):
    pass


class _Bang(Exception):
    pass


def test_workers_exception_is_raised_after_the_join():
    ended = []

    def there():
        time.sleep(0.05)   # a raise before the join would find this running
        ended.append(True)
        raise _Boom

    with pytest.raises(_Boom):
        in_halves(lambda: None, there)
    assert ended == [True]


def test_callers_exception_leaves_first():
    ended = []

    def here():
        raise _Bang

    def there():
        time.sleep(0.05)
        ended.append(True)
        raise _Boom

    with pytest.raises(_Bang):
        in_halves(here, there)
    assert ended == [True]


def test_split_on_the_worker_runs_there_inline():
    # a split product asked for by a job: its half cannot wait behind the job
    # that asks for it, so the worker forms both halves itself
    rng = np.random.default_rng(7)
    wh, h = _full_wh(7), rng.standard_normal((2, U))
    got, threads = [], []

    def job():
        got.append(split_matmul(h, wh))
        in_halves(lambda: threads.append(threading.get_ident()),
                  lambda: threads.append(threading.get_ident()))

    joined = []
    waiter = threading.Thread(target=lambda: joined.append(on_worker(job)()), daemon=True)
    waiter.start()
    waiter.join(30)
    assert joined == [None], "a split asked for on the worker did not finish"
    assert np.array_equal(got[0], h @ wh)
    assert len(set(threads)) == 1 and threading.get_ident() not in threads


def test_callers_on_several_threads_share_the_split():
    # more calling threads than cores, switching often: every split product
    # is the whole one, and every caller finishes
    rng = np.random.default_rng(8)
    wh = _full_wh(8)
    hs = [rng.standard_normal((2, U)) for _ in range(4)]
    right = []

    def run(h):
        for _ in range(5):
            right.append(np.array_equal(split_matmul(h, wh), h @ wh))

    threads = [threading.Thread(target=run, args=(h,)) for h in hs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert right == [True] * 5 * len(hs)
