"""Runtime control of numpy's bundled OpenBLAS thread count.

numpy's wheels link scipy-openblas, which exports
`scipy_openblas_{get,set}_num_threads64_`. The library is reached through
numpy's own extension module with ctypes on first use, never at import.
Where numpy runs on another BLAS, or the symbols are missing,
`one_thread()` pins nothing and `describe()` names no library.

`run_pinned` shares tasks out on one pool per width, made once for the
whole process; evaluation chunks, a search query's expert branches and
an optimizer update's shares use it, as wide as `width` gives for the
work's largest matrix. Its workers never pin themselves: a lifelong pin
would also pin training's GEMMs, which run outside run_pinned.

After a threaded BLAS call, OpenBLAS's own workers spin for about 2^28
cycles (0.12 s on a 2-core host) before they sleep, and a pin does not
stop them, so they take a core from the tasks of a fan-out that follows
at once. `park()` stops them, but the exit from a pin that parked starts
a worker again, which spins for about 0.12 s, whether or not a threaded
call came before the park. A pin that did not park leaves no spinner,
with or without a pinned call inside. So park belongs only where a threaded call
came just before, as in training after the backward pass; evaluation and
search never call it, since each exit from their pins would then leave a
fresh spinner behind.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import threading

import numpy as np

# work fans out only when its largest matrix has at least this many
# entries; below it each op is a few microseconds of Python holding the
# GIL, and a pool only adds overhead (crossovers measured in CHANGES.md)
POOL_MIN_WEIGHTS = 1 << 18

# the thread count is process-wide, so is the pin: entries from any thread
# share one depth, and the outermost exit restores the saved count
_lock = threading.Lock()
_depth = 0
_saved = 0


@functools.cache
def _openblas():
    """(get_num_threads, set_num_threads, get_config), or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
        config = lib.scipy_openblas_get_config64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    config.argtypes, config.restype = [], ctypes.c_char_p
    return get, set_, config


@functools.cache
def _thread_shutdown():
    """OpenBLAS's blas_thread_shutdown_, or None."""
    try:
        shutdown = ctypes.CDLL(
            np._core._multiarray_umath.__file__).blas_thread_shutdown_
    except (AttributeError, OSError):
        return None
    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
    return shutdown


@contextlib.contextmanager
def one_thread():
    """Run the block's BLAS calls on one OpenBLAS thread; without the
    library it does nothing. The count in force before the outermost entry
    is restored when that entry exits, also on an exception; nested and
    concurrent entries share that one pin."""
    global _depth, _saved
    api = _openblas()
    if api is None:
        yield
        return
    get, set_, _ = api
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)


def threads() -> int | None:
    """The OpenBLAS thread count in force now, 1 under a pin; None without
    the library."""
    api = _openblas()
    return None if api is None else api[0]()


def width(entries: int) -> int:
    """How many tasks wide work whose largest matrix has `entries` entries
    runs: 1 below POOL_MIN_WEIGHTS or without the library, else the thread
    count in force outside any pin. It neither enters nor leaves a pin."""
    api = _openblas()
    if api is None or entries < POOL_MIN_WEIGHTS:
        return 1
    with _lock:
        return _saved if _depth else api[0]()


def park() -> None:
    """Under a pin, stop OpenBLAS's idle worker threads, so that none spins
    on a core the block's own tasks need; the pin's exit starts a worker
    that spins again. Outside a pin, or without the library's
    blas_thread_shutdown_, it does nothing. Call it only after a threaded
    BLAS call (see the module docstring)."""
    shutdown = _thread_shutdown()
    with _lock:
        if _depth and shutdown is not None:
            shutdown()


@functools.cache
def _pool(workers: int):
    """The process-wide pool of `workers` threads that run_pinned shares
    out tasks on, made at its first use; its threads start as tasks
    arrive and stay for the life of the process."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="audioret-pinned")


def _run_here(task):
    """task() in the calling thread, its result or exception in a future."""
    from concurrent.futures import Future
    future = Future()
    try:
        future.set_result(task())
    except Exception as exc:
        future.set_exception(exc)
    return future


def run_pinned(tasks: list, width: int) -> list:
    """Call every task (a function of no arguments) on one pinned OpenBLAS
    thread and return the results in task order.

    The caller runs the first task; with a `width` above 1, a shared pool
    of width - 1 workers runs the rest, and once its own task is done the
    caller takes back and runs every task no worker has started. numpy
    releases the GIL inside BLAS calls and ufunc loops, so they share the
    cores. Each task runs in a copy of the caller's context, so it sees
    the caller's autodiff flags (no_grad, rowwise) and no other thread
    does. The thread count is process-wide, so the caller's pin covers the
    workers' tasks, and each task's bits are those of a one-thread run.
    Every task has finished when this returns or raises; a failure is
    raised from the first task that failed, in task order."""
    with one_thread():
        if width <= 1 or len(tasks) <= 1:
            return [task() for task in tasks]
        from concurrent.futures import wait
        pool = _pool(width - 1)
        queued = [pool.submit(contextvars.copy_context().run, task)
                  for task in tasks[1:]]
        futures = [_run_here(tasks[0])] + [
            _run_here(task) if future.cancel() else future
            for task, future in zip(tasks[1:], queued)]
        wait(futures)
        return [future.result() for future in futures]


def describe() -> dict:
    """The BLAS numpy runs on and its thread count, both None when it is
    not numpy's bundled OpenBLAS."""
    api = _openblas()
    if api is None:
        return {"library": None, "threads": None}
    get, _, config = api
    return {"library": " ".join(config().decode().split()), "threads": get()}
