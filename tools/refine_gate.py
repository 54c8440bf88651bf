"""Print every ml_refine result on a fixed set of placements, to compare two checkouts.

    python3 tools/refine_gate.py > refined.txt

For each of seeds 0, 1 and 7, draws 192 placements on the default 32x32
panel: a paper BS position and a user uniform over theta in [-30, 30] and
phi in [-60, 60], at least 10 deg from the BS so its fringe clears the DC
guard.  Each placement is synthesized with detector noise 1.0 and its own
capture seed, localized at zero-pad 2 and DC guard 2 with the oracle
policy, and refined by ``ml_refine`` on its three levels (+-6 steps of 1, then
0.2, then 0.04 deg).
Prints one line per placement with the BS, the user, the coarse and the
refined angles as ``float.hex``, or the error localization raised.  For a
refined placement the line also holds the ``pattern`` of the 1-bit coding
steered at the refined angles, on the 121x121 grid over -60..60 deg in
both axes: its peak and both half-power beamwidths as ``float.hex`` and
the SHA-256 of its power grid.  The peak is the first cell in row-major
order whose power is within a relative 1e-12 of the maximum, so a
broadside BS's two mirror lobes, equal but for rounding, print the same
peak whatever the rounding.  The program is imported from the ``src/``
directory of the checkout holding this script.  Run it in two checkouts
and ``diff`` the outputs: a change that keeps the refined angles and the
beams prints identical bytes.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from holoris.beamforming import farfield_phase_profile, pattern, quantize_1bit  # noqa: E402
from holoris.errors import AllCandidatesInfeasible, NoPeak  # noqa: E402
from holoris.experiments import paper_bs_locations  # noqa: E402
from holoris.geometry import AngularLocation, default_geometry  # noqa: E402
from holoris.localization import OraclePolicy, localize, ml_refine  # noqa: E402
from holoris.wavefield import DetectorModel, Source, synthesize_hologram  # noqa: E402

SEEDS = (0, 1, 7)
PLACEMENTS = 192
NOISE_STD = 1.0
ZERO_PAD = 2
DC_GUARD = 2
MIN_SEPARATION_DEG = 10.0
PATTERN_GRID_DEG = np.linspace(-60.0, 60.0, 121)


def placements(seed: int):
    """(bs, ue, capture seed) triples drawn from one seeded generator."""
    rng = random.Random(seed)
    bs_set = paper_bs_locations()
    drawn = []
    while len(drawn) < PLACEMENTS:
        bs = rng.choice(bs_set)
        ue = AngularLocation(rng.uniform(-30.0, 30.0), rng.uniform(-60.0, 60.0))
        if math.hypot(ue.theta_deg - bs.theta_deg,
                      ue.phi_deg - bs.phi_deg) < MIN_SEPARATION_DEG:
            continue
        drawn.append((bs, ue, rng.getrandbits(31)))
    return drawn


def _pair(loc: AngularLocation) -> str:
    return f"{loc.theta_deg.hex()},{loc.phi_deg.hex()}"


def run() -> int:
    geom = default_geometry()
    detector = DetectorModel(noise_std=NOISE_STD)
    for seed in SEEDS:
        for i, (bs, ue, capture) in enumerate(placements(seed)):
            head = f"seed={seed} i={i} bs={_pair(bs)} ue={_pair(ue)}"
            holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)],
                                       geom, detector, seed=capture)[0]
            try:
                coarse = localize(holo, bs, zero_pad_factor=ZERO_PAD, dc_guard=DC_GUARD,
                                  disambiguation=OraclePolicy(truth=ue)).chosen
            except (NoPeak, AllCandidatesInfeasible) as exc:
                print(f"{head} error={type(exc).__name__}")
                continue
            refined = ml_refine(holo, bs, coarse)
            coding = quantize_1bit(farfield_phase_profile(bs, refined, geom))
            beam = pattern(coding, Source.far_field(bs), geom, PATTERN_GRID_DEG,
                           PATTERN_GRID_DEG)
            power = hashlib.sha256(np.ascontiguousarray(beam.power).tobytes()).hexdigest()
            print(f"{head} coarse={_pair(coarse)} refined={_pair(refined)} "
                  f"peak={_pair(beam.peak)} hpbw={beam.hpbw_theta_deg.hex()},"
                  f"{beam.hpbw_phi_deg.hex()} power={power}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
