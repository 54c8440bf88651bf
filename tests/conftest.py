"""Fixtures shared by the test modules."""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

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


# Run in a fresh interpreter, so the allocator starts from a heap no other
# test has shaped.  Warm-up calls set glibc's dynamic thresholds; the calls
# after them are counted.
_WARM_FAULTS = """
import resource
{setup}
for _ in range(3):
    {call}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    {call}
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def _warm_faults(setup: str, call: str) -> float:
    """Minor page faults per warm call of the statement call, after setup,
    in a fresh interpreter that imports holoris from this checkout."""
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("glibc's malloc thresholds")
    src = Path(__file__).resolve().parent.parent / "src"
    # A set malloc threshold turns glibc's dynamic thresholds off; leave them on.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, "-c", _WARM_FAULTS.format(setup=setup, call=call)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


@pytest.fixture
def warm_faults():
    """The function that counts a warm call's page faults in a fresh
    interpreter, for the tests that hold a kernel to none once warm."""
    return _warm_faults
