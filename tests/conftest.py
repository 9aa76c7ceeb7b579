"""Fixtures shared across test modules."""

import threading

import pytest

import audioret.blas as blas
from helpers import drop_pools


@pytest.fixture
def two_threads():
    """Run the test at 2 BLAS threads, so that a pin to 1 shows and a
    fan-out is 2 wide: the caller and one pool worker."""
    get, set_, _ = blas._openblas()
    before = get()
    set_(2)
    yield
    set_(before)


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started during the test, which starts with no worker
    pool, so that one left by an earlier test cannot hide its own."""
    drop_pools()
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    yield started
    drop_pools()
