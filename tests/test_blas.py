"""Runtime BLAS thread control: the one-thread pin, its restore rule, the
pinned task runner, and the thread invariance of the paths they serve."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import audioret.autodiff as ad
import audioret.blas as blas
from helpers import needs_openblas


def _threads():
    return blas.describe()["threads"]


@needs_openblas
def test_one_thread_pins_and_restores(two_threads):
    with blas.one_thread():
        assert _threads() == 1
    assert _threads() == 2


@needs_openblas
def test_one_thread_restores_on_exception(two_threads):
    with pytest.raises(KeyError):
        with blas.one_thread():
            raise KeyError("inside")
    assert _threads() == 2


@needs_openblas
def test_nested_entries_restore_at_the_outermost_exit(two_threads):
    with blas.one_thread():
        with ad.rowwise():
            with blas.one_thread():
                assert _threads() == 1
            assert _threads() == 1
        assert _threads() == 1
        with ad.rowwise(False):
            assert _threads() == 1
    assert _threads() == 2


@needs_openblas
def test_rowwise_pins_only_when_enabled(two_threads):
    with ad.rowwise():
        assert _threads() == 1
    assert _threads() == 2
    with ad.rowwise(False):
        assert _threads() == 2


@needs_openblas
def test_concurrent_entries_share_one_pin(two_threads):
    """Threads entering and leaving the pin in any interleaving all run on
    one thread, and the last exit restores the count."""
    seen, interval = [], sys.getswitchinterval()

    def worker():
        for _ in range(300):
            with blas.one_thread():
                seen.append(_threads())

    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(seen) == 1800 and set(seen) == {1}
    assert _threads() == 2


def test_one_thread_is_a_no_op_without_the_library(monkeypatch):
    api = blas._openblas()
    count = api and api[0]()
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    with blas.one_thread(), ad.rowwise():
        assert blas.describe() == {"library": None, "threads": None}
        assert (api and api[0]()) == count


@needs_openblas
def test_describe_names_the_library():
    info = blas.describe()
    assert info["library"].startswith("OpenBLAS ")
    assert info["threads"] >= 1


def _recording_task(value, seen, delay=0.0):
    def task():
        time.sleep(delay)
        seen.append((threading.get_ident(), _threads()))
        return value
    return task


@needs_openblas
def test_run_pinned_runs_tasks_on_pinned_workers_in_order(two_threads,
                                                          thread_starts):
    """At width 2 the caller runs task 0 and the rest run on the pool's one
    worker or are taken back by the caller, every one pinned, results in
    task order."""
    seen = []
    tasks = [_recording_task(i, seen, 0.002) for i in range(8)]
    assert blas.run_pinned(tasks, 2) == list(range(8))
    (worker,) = thread_starts
    assert len(seen) == 8 and {count for _, count in seen} == {1}
    assert {ident for ident, _ in seen} <= {threading.get_ident(), worker.ident}
    assert _threads() == 2


@needs_openblas
def test_run_pinned_serial_runs_in_the_caller(two_threads, thread_starts):
    """At width 1, or with one task, every task runs in the caller and no
    thread starts."""
    seen = []
    tasks = [_recording_task(i, seen) for i in range(3)]
    assert blas.run_pinned(tasks, 1) == [0, 1, 2]
    assert blas.run_pinned(tasks[:1], 2) == [0]
    assert thread_starts == []
    assert seen == [(threading.get_ident(), 1)] * 4
    assert _threads() == 2


@needs_openblas
def test_run_pinned_waits_for_every_task_when_one_fails(two_threads):
    """The first failure in task order is raised, only after every task
    has finished, and the thread count is restored."""
    done = []

    def task(i):
        def run():
            time.sleep(0.01 * (4 - i))
            done.append(i)
            if i in (1, 3):
                raise KeyError(f"task {i}")
        return run

    with pytest.raises(KeyError, match="task 1"):
        blas.run_pinned([task(i) for i in range(4)], 2)
    assert sorted(done) == [0, 1, 2, 3]
    assert _threads() == 2


@needs_openblas
def test_run_pinned_runs_the_first_task_in_the_caller(two_threads):
    """The caller runs task 0 while a worker runs task 1: task 0 returns
    only once task 1 has started elsewhere, so neither can be taken back
    into the caller before the other."""
    ran, started = {}, threading.Event()

    def task(i):
        def run():
            if i == 0:
                assert started.wait(5)
            else:
                started.set()
            ran[i] = (threading.get_ident(), _threads())
            return i
        return run

    assert blas.run_pinned([task(i) for i in range(2)], 2) == [0, 1]
    assert ran[0] == (threading.get_ident(), 1)
    assert ran[1][0] != threading.get_ident() and ran[1][1] == 1
    assert _threads() == 2


@needs_openblas
def test_run_pinned_takes_back_tasks_no_worker_started(two_threads):
    """With the pool's only worker blocked, the caller runs every task
    itself and returns; the blocker's wait is bounded, so a runner that
    waited for the worker instead would fail the test, not hang it."""
    release, seen = threading.Event(), []
    blocker = blas._pool(1).submit(release.wait, 30)
    try:
        tasks = [_recording_task(i, seen) for i in range(3)]
        assert blas.run_pinned(tasks, 2) == [0, 1, 2]
        assert not blocker.done()
    finally:
        release.set()
    assert seen == [(threading.get_ident(), 1)] * 3
    assert _threads() == 2


@needs_openblas
def test_run_pinned_waits_for_a_failing_worker_task(two_threads):
    """A task failing on the worker fails the call only after the caller's
    tasks have finished, with the first failure in task order raised and
    the count restored."""
    done, started = [], threading.Event()

    def task(i):
        def run():
            if i == 1:
                started.set()
                time.sleep(0.05)
            else:
                started.wait(5)
            done.append(i)
            if i in (1, 2):
                raise KeyError(f"task {i}")
        return run

    with pytest.raises(KeyError, match="task 1"):
        blas.run_pinned([task(i) for i in range(3)], 2)
    assert sorted(done) == [0, 1, 2]
    assert _threads() == 2


@needs_openblas
def test_run_pinned_tasks_see_the_callers_autodiff_flags(two_threads):
    """A task handed to a worker inside no_grad() and rowwise() sees both
    flags, as the task the caller runs does."""
    modes, started = {}, threading.Event()

    def task(i):
        def run():
            if i == 0:
                assert started.wait(5)
            else:
                started.set()
            modes[i] = (threading.get_ident(), ad._GRAD_MODE.get(),
                        ad._ROW_MODE.get())
        return run

    with ad.no_grad(), ad.rowwise():
        blas.run_pinned([task(i) for i in range(2)], 2)
    assert modes[0] == (threading.get_ident(), False, True)
    assert modes[1][0] != threading.get_ident()
    assert modes[1][1:] == (False, True)
    assert (ad._GRAD_MODE.get(), ad._ROW_MODE.get()) == (True, False)


@needs_openblas
def test_one_thread_is_a_plain_pin_over_nested_entries(two_threads):
    with blas.one_thread() as outer:
        with blas.one_thread() as inner:
            assert (outer, inner, _threads()) == (None, None, 1)
        assert _threads() == 1
    assert _threads() == 2


def test_one_thread_is_a_plain_no_op_without_the_library(monkeypatch):
    api = blas._openblas()
    count = api and api[0]()
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    with blas.one_thread() as pinned:
        assert pinned is None
        assert (api and api[0]()) == count
    assert (api and api[0]()) == count


def _spy_setter(monkeypatch) -> list[int]:
    """Every thread count blas sets from here on."""
    get, set_, config = blas._openblas()
    calls = []
    monkeypatch.setattr(blas, "_openblas", lambda: (
        get, lambda n: calls.append(n) or set_(n), config))
    return calls


@needs_openblas
def test_width_outside_a_pin_is_the_thread_count_from_the_cut_off(
        two_threads, monkeypatch):
    calls = _spy_setter(monkeypatch)
    assert blas.width(blas.POOL_MIN_WEIGHTS - 1) == 1
    assert blas.width(blas.POOL_MIN_WEIGHTS) == 2
    assert (_threads(), blas._depth, calls) == (2, 0, [])


@needs_openblas
def test_width_inside_a_pin_is_the_unpinned_count(two_threads, monkeypatch):
    """Under a pin, width reads the count the pin saved; it neither enters
    nor leaves the pin, so it sets no thread count."""
    with blas.one_thread():
        depth, calls = blas._depth, _spy_setter(monkeypatch)
        assert blas.width(blas.POOL_MIN_WEIGHTS - 1) == 1
        assert blas.width(blas.POOL_MIN_WEIGHTS) == 2
        assert (_threads(), blas._depth, calls) == (1, depth, [])
    assert _threads() == 2


def test_width_is_one_without_the_library(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert blas.width(1 << 62) == 1


def _digests(script: str) -> list[str]:
    """The script's output under 1 and under 2 BLAS threads."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", script],
                                env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        digests.append(result.stdout.strip())
    return digests


_QUERY_DIGEST = """
import hashlib
import numpy as np
from audioret import autodiff as ad
from audioret.experts import TextEmbedding
from audioret.models import build_model
rng = np.random.default_rng(4)
model = build_model("ce", ("p",), {"p": 8}, 300, rng)
tokens = rng.standard_normal((21, 300))
caption = TextEmbedding("q", tokens, np.ones(21, dtype=bool))
with ad.no_grad():
    batch = model.encode_text([caption])
digest = hashlib.sha256(batch.vectors.data.tobytes())
digest.update(batch.weights.data.tobytes())
print(digest.hexdigest())
"""


def test_single_caption_encoding_ignores_blas_thread_count():
    """A one-caption CE text side at width 20 x 300 = 6000, where a 32-row
    block's bits differ between 1 and 2 BLAS threads, gives the same bits
    under both."""
    first, second = _digests(_QUERY_DIGEST)
    assert first == second


_MATRIX_DIGEST = """
import hashlib
import numpy as np
from audioret.experts import AudioClip, TextEmbedding
from audioret.models import build_model, similarity_matrix
rng = np.random.default_rng(4)
model = build_model("ce", ("p",), {"p": 8}, 300, rng)
texts = [TextEmbedding(f"c{i}", rng.standard_normal((21, 300)),
                       np.ones(21, dtype=bool)) for i in range(40)]
clips = [AudioClip(f"a{j}", {"p": rng.standard_normal((6, 8))})
         for j in range(10)]
values = similarity_matrix(model, texts, clips).values
print(hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_similarity_matrix_ignores_blas_thread_count():
    """A 40-caption x 10-clip CE matrix at text width 20 x 300 = 6000, whose
    32-row text blocks differ between 1 and 2 unpinned BLAS threads, gives
    the same bits under both: every chunk runs on one pinned thread."""
    first, second = _digests(_MATRIX_DIGEST)
    assert first == second


@needs_openblas
def test_park_acts_only_under_a_pin(monkeypatch):
    calls = []
    monkeypatch.setattr(blas, "_thread_shutdown", lambda: lambda: calls.append(1))
    blas.park()
    with blas.one_thread():
        blas.park()
    blas.park()
    assert calls == [1]


def test_park_without_the_symbol_does_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_thread_shutdown", lambda: None)
    with blas.one_thread():
        blas.park()


@needs_openblas
def test_threaded_gemm_after_a_park_keeps_its_bits(two_threads):
    """park stops OpenBLAS's workers; the pin's exit restores the thread
    count, and the next threaded GEMM starts them and gives the same bits."""
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((600, 600)), rng.standard_normal((600, 600))
    before = a @ b
    with blas.one_thread():
        blas.park()
        blas.park()  # a second park, with no worker left, is harmless
        assert _threads() == 1
    assert _threads() == 2
    assert (a @ b).tobytes() == before.tobytes()
