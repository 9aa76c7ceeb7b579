"""Runtime BLAS thread control: the one-thread pin, its restore rule, and
the thread invariance of the batch-of-one path it serves."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import audioret.autodiff as ad
import audioret.blas as blas

needs_openblas = pytest.mark.skipif(
    blas.describe()["threads"] is None,
    reason="numpy does not run on its bundled OpenBLAS")


@pytest.fixture
def two_threads():
    """Run the test at 2 BLAS threads, so that a pin to 1 shows."""
    get, set_, _ = blas._openblas()
    before = get()
    set_(2)
    yield
    set_(before)


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
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", _QUERY_DIGEST],
                                env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        digests.append(result.stdout.strip())
    assert digests[0] == digests[1]
