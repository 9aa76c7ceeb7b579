"""Runtime control of numpy's bundled OpenBLAS thread count.

numpy's wheels link scipy-openblas, which exports
`scipy_openblas_{get,set}_num_threads64_`. The library is reached through
numpy's own extension module with ctypes on first use, never at import.
Where numpy runs on another BLAS, or the symbols are missing,
`one_thread()` pins nothing and reports a count of 1, and `describe()`
names no library.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np

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


@contextlib.contextmanager
def one_thread():
    """Run the block's BLAS calls on one OpenBLAS thread, and yield the
    count in force before the outermost entry (1 without the library).
    That count is restored when the outermost entry exits, also on an
    exception; nested and concurrent entries share that one pin."""
    global _depth, _saved
    api = _openblas()
    if api is None:
        yield 1
        return
    get, set_, _ = api
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
        threads = _saved
    try:
        yield threads
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)


def run_pinned(tasks: list, workers: int) -> list:
    """Call every task (a function of no arguments) on one pinned OpenBLAS
    thread and return the results in task order.

    The tasks run on up to `workers` threads; numpy releases the GIL
    inside BLAS calls and ufunc loops, so the workers share the cores.
    With one worker or one task they run in the caller, one after
    another, and no thread starts. Each task's bits are those of a
    one-thread run either way. Every task has finished when this returns
    or raises; a failure is raised from the first task that failed, in
    task order."""
    with one_thread():
        width = min(workers, len(tasks))
        if width <= 1:
            return [task() for task in tasks]
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(width) as pool:  # its exit waits for all
            futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]


def _run_here(task):
    """task() in the calling thread, its result or exception in a future."""
    from concurrent.futures import Future
    future = Future()
    try:
        future.set_result(task())
    except Exception as exc:
        future.set_exception(exc)
    return future


def run_pinned_on(executor, tasks: list) -> list:
    """Call every task (a function of no arguments) on one pinned OpenBLAS
    thread and return the results in task order.

    The caller runs the first task and `executor`'s long-lived workers the
    rest; once its own is done, the caller takes back and runs every task
    no worker has started. Without an executor all of them run in the
    caller and no thread starts. Each task's bits are those of a one-thread
    run either way. Every task has finished when this returns or raises; a
    failure is raised from the first task that failed, in task order."""
    with one_thread():
        if executor is None:
            return [task() for task in tasks]
        from concurrent.futures import wait
        queued = [executor.submit(task) for task in tasks[1:]]
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
