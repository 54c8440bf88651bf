"""The gate scripts of tools/ against their checked-in golden outputs.

tools/golden/manifest_gate.txt is the output of tools/manifest_gate.py
(every suite's manifest at seeds 0 and 1, default and canonical configs)
under a first line naming the Python and numpy versions that made it.
Artifact bytes depend on numpy's FFT and the platform libm, so under other
versions the test fails with both named instead of comparing.  A change
that moves an artifact regenerates the golden file in its own diff:

    python3 tests/test_gates.py > tools/golden/manifest_gate.txt
"""

from __future__ import annotations

import contextlib
import difflib
import importlib.util
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"
GOLDEN = TOOLS / "golden" / "manifest_gate.txt"


def _versions() -> str:
    return f"# python {platform.python_version()} numpy {np.__version__}"


def _manifest_gate(work: Path) -> tuple[int, str]:
    """Exit code and standard output of tools/manifest_gate.py, run in-process."""
    spec = importlib.util.spec_from_file_location("manifest_gate", TOOLS / "manifest_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = gate.run(work)
    return code, out.getvalue()


def test_manifest_gate_matches_golden(tmp_path):
    made_with, _, want = GOLDEN.read_text().partition("\n")
    assert made_with == _versions(), (
        f"{GOLDEN.name} was made with {made_with[2:]!r}, this is {_versions()[2:]!r}: "
        "regenerate it under these versions from a checkout known to be right"
    )
    code, got = _manifest_gate(tmp_path)
    if got != want:
        diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                    "golden", "now", n=0, lineterm="")
        first = [line[:200] for _, line in zip(range(12), diff)]
        raise AssertionError(f"manifest_gate output differs from {GOLDEN.name}:\n"
                             + "\n".join(first))
    assert code == 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        code, text = _manifest_gate(Path(tmp))
    print(_versions())
    print(text, end="")
    sys.exit(code)
