"""Print the manifests of the experiment suites, to compare two checkouts.

    python3 tools/manifest_gate.py > manifests.txt

Runs ``holoris experiment`` for the grid, gain, ber and showcase suites at
seeds 0 and 1 under three configurations: the default one, the calibrated
canonical one (calibrated detector, significance threshold 2.0, 20 trials)
and one whose detector clips at a floor and a ceiling and rescales each
capture to the ceiling (AGC), so that the detector arithmetic is pinned too.
It prints each run's whole manifest (suite, status, seed, config and every
``artifact=... sha256=...`` line) under a header naming the run.  The
program is imported from the ``src/`` directory of the checkout holding this
script.  Run it in two checkouts and ``diff`` the outputs: a change that
keeps behaviour prints identical bytes.
Exits 1 when any run fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from holoris.cli import main  # noqa: E402

SUITES = ("grid", "gain", "ber", "showcase")
SEEDS = (0, 1)
CONFIGS = {
    "default": {},
    "canonical": {
        "detector": {"noise_std": 6.9, "phase_jitter_std": 0.2},
        "localization": {"significance_threshold": 2.0},
        "experiment": {"trials": 20},
    },
    "detector": {
        "detector": {"noise_std": 1.0, "floor": 0.5, "ceiling": 6.0, "agc_enabled": True,
                     "phase_jitter_std": 0.1},
    },
}


def run(work: Path) -> int:
    failed = 0
    for name, document in CONFIGS.items():
        config = work / f"{name}.json"
        config.write_text(json.dumps(document))
        for suite in SUITES:
            for seed in SEEDS:
                out = work / f"{name}-{suite}-{seed}"
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main(["experiment", "--suite", suite, "--config", str(config),
                                 "--seed", str(seed), "--output-dir", str(out), "--quiet"])
                print(f"# config={name} suite={suite} seed={seed} exit={code}")
                if code != 0:
                    failed += 1
                    print(f"# {err.getvalue().strip()}")
                    continue
                print((out / "manifest.txt").read_text(), end="")
    return 1 if failed else 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(run(Path(tmp)))
