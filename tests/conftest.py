"""Fixtures shared across test modules."""

import threading

import pytest

import audioret.blas as blas


@pytest.fixture
def two_threads():
    """Run the test at 2 BLAS threads, so that a pin to 1 shows and the
    evaluation pool is 2 workers wide."""
    get, set_, _ = blas._openblas()
    before = get()
    set_(2)
    yield
    set_(before)


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started during the test."""
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return started
