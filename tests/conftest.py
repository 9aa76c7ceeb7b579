"""Fixtures shared across test modules."""

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
