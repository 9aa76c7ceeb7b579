"""Runtime control of numpy's bundled OpenBLAS thread count.

numpy's wheels link scipy-openblas, which exports
`scipy_openblas_{get,set}_num_threads64_`. The library is reached through
numpy's own extension module with ctypes on first use, never at import.
Where numpy runs on another BLAS, or the symbols are missing,
`one_thread()` does nothing and `describe()` names no library.
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
    """Run the block's BLAS calls on one OpenBLAS thread. The count in
    force before the outermost entry is restored when it exits, also on an
    exception; nested and concurrent entries share that one pin."""
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


def describe() -> dict:
    """The BLAS numpy runs on and its thread count, both None when it is
    not numpy's bundled OpenBLAS."""
    api = _openblas()
    if api is None:
        return {"library": None, "threads": None}
    get, _, config = api
    return {"library": " ".join(config().decode().split()), "threads": get()}
