"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(call) -> int:
    """tracemalloc's peak over call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The function that takes tracemalloc's peak over call(), for the tests
    that hold a byte charge to what a call measures."""
    return _traced_peak
