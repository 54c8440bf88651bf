"""The gate scripts of tools/ against their checked-in golden outputs.

tools/golden/<gate>.txt is the standard output of tools/<gate>.py under a
first line naming the Python and numpy versions that made it:

- manifest_gate: every suite's manifest at seeds 0 and 1 under the default,
  canonical and clipping-AGC detector configs;
- refine_gate: the coarse and ml_refine angles and the steered beam of 576
  fixed placements;
- config_gate: how parse_config reads a fixed corpus of documents.

Artifact bytes depend on numpy's FFT and the platform libm, so under other
versions the test fails with both named instead of comparing.  A change
that moves a gate's output regenerates its golden file in its own diff:

    python3 tests/test_gates.py manifest_gate > tools/golden/manifest_gate.txt
"""

from __future__ import annotations

import contextlib
import difflib
import io
import platform
import runpy
import sys
from collections import Counter
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _versions() -> str:
    return f"# python {platform.python_version()} numpy {np.__version__}"


def _gate(name: str) -> tuple[int, str]:
    """Exit code and standard output of tools/<name>.py, run in-process as a script."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            runpy.run_path(str(TOOLS / f"{name}.py"), run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _moved_fields(want: list[str], got: list[str]) -> str:
    """The key= fields that differ between the lines of want and got, taken
    line by line, each with the number of lines it moved on, and any change
    in the line count.  A differing line with no differing key= field counts
    as "other"."""
    moved = Counter()
    for old, new in zip(want, got):
        if old != new:
            fields = [dict(token.split("=", 1) for token in line.split() if "=" in token)
                      for line in (old, new)]
            moved.update(sorted(f"{key}=" for key in fields[0].keys() | fields[1].keys()
                                if fields[0].get(key) != fields[1].get(key)) or ["other"])
    parts = [f"{key} on {count} line{'s' * (count != 1)}" for key, count in sorted(moved.items())]
    if len(got) != len(want):
        parts.append(f"{len(got) - len(want):+d} lines")
    return ", ".join(parts)


def _check_golden(name: str) -> None:
    golden = TOOLS / "golden" / f"{name}.txt"
    made_with, _, want = golden.read_text().partition("\n")
    assert made_with == _versions(), (
        f"{golden.name} was made with {made_with[2:]!r}, this is {_versions()[2:]!r}: "
        "regenerate it under these versions from a checkout known to be right"
    )
    code, got = _gate(name)
    if got != want:
        diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                    "golden", "now", n=0, lineterm="")
        first = [line[:200] for _, line in zip(range(12), diff)]
        raise AssertionError(f"{name} output differs from {golden.name}: "
                             f"{_moved_fields(want.splitlines(), got.splitlines())}\n"
                             + "\n".join(first))
    assert code == 0


def test_moved_fields_names_each_field_and_its_line_count():
    want = ["seed=0 i=0 peak=1 hpbw=2 power=3", "seed=0 i=1 peak=1 hpbw=2 power=3", "# a note"]
    got = ["seed=0 i=0 peak=1 hpbw=5 power=4", "seed=0 i=1 peak=1 hpbw=2 power=6", "# a nose"]
    assert _moved_fields(want, got) == "hpbw= on 1 line, other on 1 line, power= on 2 lines"
    assert _moved_fields(want, got[:2]) == "hpbw= on 1 line, power= on 2 lines, -1 lines"
    assert _moved_fields(want, want) == ""


def test_manifest_gate_matches_golden():
    _check_golden("manifest_gate")


def test_refine_gate_matches_golden():
    _check_golden("refine_gate")


def test_config_gate_matches_golden():
    _check_golden("config_gate")


if __name__ == "__main__":
    code, text = _gate(sys.argv[1])
    print(_versions())
    print(text, end="")
    sys.exit(code)
