"""Print how the config parser reads a fixed corpus of documents, to compare two checkouts.

    python3 tools/config_gate.py > configs.txt

Each document of the corpus below goes through ``parse_config``.  One line
per document is printed: its label, then ``json.dumps(config_as_dict(cfg),
sort_keys=True)`` when it parses, ``ConfigError: <message>`` when it is
rejected, or the name of any other exception that escapes.  The corpus
holds every error path of every section, integers beyond the float range,
NaN and infinities, ``null`` where it is accepted or not, valid
non-default documents, and documents with several errors (the first one in
read order is the one reported).  The program is imported from the
``src/`` directory of the checkout holding this script.  Run it in two
checkouts and ``diff`` the outputs: a change that keeps the config's
behaviour prints identical bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from holoris.config import config_as_dict, parse_config  # noqa: E402
from holoris.errors import ConfigError  # noqa: E402

BIG = 10**400  # a JSON integer literal beyond the float range
NAN = float("nan")
INF = float("inf")
FAR = {"kind": "far_field", "theta_deg": 0.0, "phi_deg": 0.0}
NEAR = {"kind": "near_field", "position_m": [0.1, 2.0, 0.3]}


def far(**keys):
    return {"sources": [{**FAR, **keys}]}


def near(**keys):
    return {"sources": [{**NEAR, **keys}]}


def section(name, **keys):
    return {name: keys}


CORPUS = [
    # the document and its sections
    ("empty", {}),
    ("root-list", []),
    ("root-string", "config"),
    ("root-unknown", {"geomerty": {}}),
    ("geometry-not-object", {"geometry": [32, 32]}),
    ("detector-not-object", {"detector": None}),
    ("localization-not-object", {"localization": 2}),
    ("experiment-not-object", {"experiment": "grid"}),
    # geometry
    ("geometry-unknown", section("geometry", n_y=4)),
    ("geometry-n_z-string", section("geometry", n_z="many")),
    ("geometry-n_z-float", section("geometry", n_z=16.0)),
    ("geometry-n_z-bool", section("geometry", n_z=True)),
    ("geometry-n_z-zero", section("geometry", n_z=0)),
    ("geometry-n_z-null", section("geometry", n_z=None)),
    ("geometry-n_z-big", section("geometry", n_z=BIG)),
    ("geometry-n_x-negative", section("geometry", n_x=-3)),
    ("geometry-d_z_m-string", section("geometry", d_z_m="0.02")),
    ("geometry-d_z_m-zero", section("geometry", d_z_m=0)),
    ("geometry-d_z_m-negative", section("geometry", d_z_m=-0.01)),
    ("geometry-d_z_m-bool", section("geometry", d_z_m=False)),
    ("geometry-d_z_m-big", section("geometry", d_z_m=BIG)),
    ("geometry-d_z_m-inf", section("geometry", d_z_m=INF)),
    ("geometry-d_x_m-nan", section("geometry", d_x_m=NAN)),
    ("geometry-d_x_m--inf", section("geometry", d_x_m=-INF)),
    ("geometry-f_c_hz-float", section("geometry", f_c_hz=3.5e9)),
    ("geometry-f_c_hz-zero", section("geometry", f_c_hz=0)),
    ("geometry-f_c_hz-big", section("geometry", f_c_hz=BIG)),
    ("geometry-f_c_hz-inf", section("geometry", f_c_hz=INF)),
    # beside the default n_x, n_z = 2**40 alone is past the panel's byte budget
    ("geometry-size-tie", section("geometry", n_z=2**40, n_x=2**40)),
    # n_z = 2**20 fits beside the default n_x: the product fails at n_x
    ("geometry-size-at-n_x", section("geometry", n_z=2**20, n_x=2**20)),
    # n_z = 2**31 alone is past the panel's byte budget, before any spectrum
    ("geometry-spectrum-beyond-default-pad", section("geometry", n_z=2**31, n_x=2**31)),
    # a panel within its byte budget whose spectrum, at the default padding, is not
    ("geometry-spectrum-6000", section("geometry", n_z=6000, n_x=6000)),
    ("geometry-valid", section("geometry", n_z=16, n_x=24, d_z_m=0.015, d_x_m=1,
                                f_c_hz=2_600_000_000)),
    # detector
    ("detector-unknown", section("detector", noise=1.0)),
    ("detector-noise_std-negative", section("detector", noise_std=-1.0)),
    ("detector-noise_std-string", section("detector", noise_std="high")),
    ("detector-noise_std-nan", section("detector", noise_std=NAN)),
    ("detector-noise_std-inf", section("detector", noise_std=INF)),
    ("detector-noise_std-big", section("detector", noise_std=BIG)),
    ("detector-floor-negative", section("detector", floor=-0.5)),
    ("detector-ceiling-null", section("detector", ceiling=None)),
    ("detector-ceiling-inf", section("detector", ceiling=INF)),
    ("detector-ceiling--inf", section("detector", ceiling=-INF)),
    ("detector-ceiling-nan", section("detector", ceiling=NAN)),
    ("detector-ceiling-string", section("detector", ceiling="none")),
    ("detector-ceiling-not-above-floor", section("detector", floor=2.0, ceiling=2)),
    ("detector-floor-above-ceiling", section("detector", floor=5.0, ceiling=3.0)),
    ("detector-agc-string", section("detector", agc_enabled="yes")),
    ("detector-agc-int", section("detector", agc_enabled=1)),
    ("detector-agc-unbounded", section("detector", agc_enabled=True)),
    ("detector-agc-ceiling-null", section("detector", ceiling=None, agc_enabled=True)),
    ("detector-phase_jitter_std-negative", section("detector", phase_jitter_std=-0.1)),
    ("detector-phase_jitter_std-nan", section("detector", phase_jitter_std=NAN)),
    ("detector-valid", section("detector", noise_std=6.9, floor=0.5, ceiling=50,
                                agc_enabled=True, phase_jitter_std=0.2)),
    # sources
    ("sources-not-list", {"sources": {"kind": "far_field"}}),
    ("sources-empty", {"sources": []}),
    ("sources-null", {"sources": None}),
    ("sources-entry-not-object", {"sources": [FAR, 3]}),
    ("source-kind-unknown", {"sources": [{"kind": "plane"}]}),
    ("source-kind-null", {"sources": [{"kind": None}]}),
    ("far-unknown", far(position_m=[0, 1, 0])),
    ("far-no-angles", {"sources": [{"kind": "far_field"}]}),
    ("far-no-phi", {"sources": [{"theta_deg": 0.0}]}),
    ("far-theta-string", far(theta_deg="0")),
    ("far-theta-null", far(theta_deg=None)),
    ("far-theta-big", far(theta_deg=BIG)),
    ("far-theta-inf", far(theta_deg=INF)),
    ("far-phi-nan", far(phi_deg=NAN)),
    ("far-theta-out-of-range", far(theta_deg=95.0)),
    ("far-phi-out-of-range", far(phi_deg=-90)),
    ("far-amplitude-negative", far(amplitude=-1.0)),
    ("far-amplitude-string", far(amplitude="1")),
    ("far-amplitude-inf", far(amplitude=INF)),
    ("far-amplitude-nan", far(amplitude=NAN)),
    ("far-amplitude-big", far(amplitude=BIG)),
    ("far-amplitude-huge", far(amplitude=1e200)),  # a finite power needs <= 1e146
    ("far-phase-string", far(phase_rad="pi")),
    ("far-phase-nan", far(phase_rad=NAN)),
    ("far-phase--inf", far(phase_rad=-INF)),
    ("far-tag-negative", far(frequency_tag=-1)),
    ("far-tag-float", far(frequency_tag=1.0)),
    ("far-tag-bool", far(frequency_tag=True)),
    ("far-tag-big", far(frequency_tag=BIG)),
    ("near-unknown", near(theta_deg=0.0)),
    ("near-no-position", {"sources": [{"kind": "near_field"}]}),
    ("near-position-short", near(position_m=[1.0, 2.0])),
    ("near-position-empty", near(position_m=[])),
    ("near-position-string", near(position_m="0,1,0")),
    ("near-position-bool", near(position_m=[0, True, 0])),
    ("near-position-behind", near(position_m=[0.0, -1.0, 0.0])),
    ("near-position-on-panel", near(position_m=[0.0, 0, 0.0])),
    ("near-position-big", near(position_m=[0.0, BIG, 0.0])),
    ("near-position-inf", near(position_m=[0.0, INF, 0.0])),
    ("near-position-nan", near(position_m=[NAN, 1.0, 0.0])),
    ("near-position-far", near(position_m=[0.0, 1e170, 0.0])),  # 1e-9 to 1e9 m
    ("near-position-near", near(position_m=[0.0, 1e-200, 0.0])),
    ("near-amplitude-negative", near(amplitude=-0.5)),
    ("near-phase-inf", near(phase_rad=INF)),
    ("near-tag-negative", near(frequency_tag=-2)),
    ("sources-valid", {"sources": [
        {"kind": "far_field", "theta_deg": -10, "phi_deg": 20.5, "amplitude": 0.7,
         "phase_rad": -1.25, "frequency_tag": 1},
        {"theta_deg": 0, "phi_deg": 0, "frequency_tag": 1},
        {"kind": "near_field", "position_m": [0, 3, -0.2], "amplitude": 2,
         "phase_rad": 3, "frequency_tag": 0},
        {**FAR, "frequency_tag": 0},
    ]}),
    # localization
    ("localization-unknown", section("localization", disambiguation="oracle")),
    ("localization-zero_pad-zero", section("localization", zero_pad_factor=0)),
    ("localization-zero_pad-float", section("localization", zero_pad_factor=2.0)),
    ("localization-zero_pad-big", section("localization", zero_pad_factor=BIG)),
    ("localization-dc_guard-negative", section("localization", dc_guard=-1)),
    ("localization-dc_guard-string", section("localization", dc_guard="2")),
    ("localization-threshold-negative", section("localization", significance_threshold=-3)),
    ("localization-threshold-nan", section("localization", significance_threshold=NAN)),
    ("localization-threshold-inf", section("localization", significance_threshold=INF)),
    ("localization-threshold-big", section("localization", significance_threshold=BIG)),
    ("localization-valid", section("localization", zero_pad_factor=4, dc_guard=0,
                                    significance_threshold=2)),
    # experiment
    ("experiment-unknown", section("experiment", suite="grid")),
    ("experiment-trials-zero", section("experiment", trials=0)),
    ("experiment-trials-float", section("experiment", trials=2.0)),
    ("experiment-trials-big", section("experiment", trials=BIG)),
    # the default panel's padded spectra hold 2**14 captures in the byte budget
    ("experiment-trials-past-budget", section("experiment", trials=2**14 + 1)),
    # at pad 1 the spectra of 4 captures of a 4096x4096 panel fit the byte budget, and
    # the synthesis of the suites' pair of sources does not
    ("experiment-synthesis-past-budget", {"geometry": {"n_z": 4096, "n_x": 4096},
                                          "localization": {"zero_pad_factor": 1},
                                          "experiment": {"trials": 4}}),
    # on a 2x2 panel at pad 1, 2**20 captures fit as spectra and synthesis, and their
    # seeds over the default grid's 4x27 placements do not
    ("experiment-seeds-past-budget", {"geometry": {"n_z": 2, "n_x": 2},
                                      "localization": {"zero_pad_factor": 1},
                                      "experiment": {"trials": 2**20}}),
    # trials is read after the location lists, so the seeds of the document's own
    # 1x1 grid are counted: 300,000 of them fit
    ("experiment-seeds-of-its-own-grid", {"geometry": {"n_z": 2, "n_x": 2},
                                          "localization": {"zero_pad_factor": 1},
                                          "experiment": {"trials": 300000,
                                                         "bs_locations_deg": [[0, 0]],
                                                         "ue_locations_deg": [[0, 30]]}}),
    ("experiment-seed-negative", section("experiment", seed=-1)),
    ("experiment-seed-null", section("experiment", seed=None)),
    ("experiment-seed-big", section("experiment", seed=BIG)),
    ("experiment-output_dir-empty", section("experiment", output_dir="")),
    ("experiment-output_dir-number", section("experiment", output_dir=5)),
    ("experiment-output_dir-null", section("experiment", output_dir=None)),
    ("experiment-bs-not-list", section("experiment", bs_locations_deg="0,0")),
    ("experiment-bs-empty", section("experiment", bs_locations_deg=[])),
    ("experiment-bs-short-pair", section("experiment", bs_locations_deg=[[0.0]])),
    ("experiment-bs-string-angle", section("experiment", bs_locations_deg=[["a", 0]])),
    ("experiment-bs-out-of-range", section("experiment", bs_locations_deg=[[0, 0], [95, 0]])),
    ("experiment-bs-nan", section("experiment", bs_locations_deg=[[0.0, NAN]])),
    ("experiment-bs-big", section("experiment", bs_locations_deg=[[BIG, 0]])),
    ("experiment-ue-inf", section("experiment", ue_locations_deg=[[0.0, INF]])),
    ("experiment-ue-null", section("experiment", ue_locations_deg=None)),
    ("experiment-gain_phi-null", section("experiment", gain_phi_deg=None)),
    ("experiment-gain_phi-empty", section("experiment", gain_phi_deg=[])),
    ("experiment-gain_phi-string", section("experiment", gain_phi_deg="0")),
    ("experiment-gain_phi-bool", section("experiment", gain_phi_deg=[0, True])),
    ("experiment-gain_phi-big", section("experiment", gain_phi_deg=[0.0, BIG])),
    ("experiment-gain_phi-inf", section("experiment", gain_phi_deg=[INF])),
    ("experiment-gain_phi-nan", section("experiment", gain_phi_deg=[0, NAN])),
    ("experiment-gain_phi-out-of-range", section("experiment", gain_phi_deg=[0.0, 95.0])),
    ("experiment-ber_snr-null", section("experiment", ber_snr_db=None)),
    ("experiment-ber_snr-empty", section("experiment", ber_snr_db=[])),
    ("experiment-ber_snr--inf", section("experiment", ber_snr_db=[-INF, 0])),
    ("experiment-ber_gain-string", section("experiment", ber_gain_db="16")),
    ("experiment-ber_gain-null", section("experiment", ber_gain_db=None)),
    ("experiment-ber_gain-big", section("experiment", ber_gain_db=BIG)),
    ("experiment-ber_gain-nan", section("experiment", ber_gain_db=NAN)),
    ("experiment-ber_gain-inf", section("experiment", ber_gain_db=INF)),
    ("experiment-order-32", section("experiment", ber_modulation_order=32)),
    ("experiment-order-2", section("experiment", ber_modulation_order=2)),
    ("experiment-order-256", section("experiment", ber_modulation_order=256)),
    ("experiment-order-float", section("experiment", ber_modulation_order=16.0)),
    ("experiment-order-big", section("experiment", ber_modulation_order=BIG)),
    ("experiment-valid", section("experiment", trials=3, seed=11, output_dir="runs/a",
                                  bs_locations_deg=[[0, 0], [-15.5, 10]],
                                  ue_locations_deg=[[5, 30]], gain_phi_deg=[-30, 0, 30.5],
                                  ber_snr_db=[0, 10], ber_gain_db=12,
                                  ber_modulation_order=16)),
    # valid documents
    ("valid-canonical", {"detector": {"noise_std": 6.9, "phase_jitter_std": 0.2},
                         "localization": {"significance_threshold": 2.0},
                         "experiment": {"trials": 20}}),
    ("valid-everything", {
        "geometry": {"n_z": 8, "n_x": 12, "d_z_m": 0.03, "d_x_m": 0.025,
                     "f_c_hz": 28_000_000_000},
        "detector": {"noise_std": 0, "floor": 0, "ceiling": None, "agc_enabled": False,
                     "phase_jitter_std": 0},
        "sources": [{"kind": "near_field", "position_m": [1, 1, 1]}],
        "localization": {"zero_pad_factor": 1, "dc_guard": 3,
                         "significance_threshold": 0},
        "experiment": {"trials": 1, "seed": 0, "ber_modulation_order": 4,
                       "ber_gain_db": -3.5, "gain_phi_deg": [0], "ber_snr_db": [-1e3]},
    }),
    # several errors: the first in read order is reported
    ("multi-root-unknown-and-geometry", {"geometry": {"n_z": 0}, "extra": 1}),
    ("multi-geometry-unknown-and-n_z", section("geometry", n_z=0, n_y=1)),
    ("multi-geometry-f_c_hz-big-and-n_z", section("geometry", f_c_hz=BIG, n_z=0)),
    ("multi-geometry-f_c_hz-and-d_x_m", section("geometry", f_c_hz=0, d_x_m=-1)),
    ("multi-geometry-n_x-and-d_z_m", section("geometry", d_z_m="x", n_x=0)),
    # a size bound is the rule of the key that makes the size: it comes before a later key's
    ("multi-geometry-size-and-d_z_m", section("geometry", n_z=BIG, d_z_m=-1)),
    ("multi-geometry-then-detector", {"geometry": {"d_x_m": 0}, "detector": {"floor": -1}}),
    ("multi-detector-floor-and-noise", section("detector", floor=-1, noise_std=-1)),
    ("multi-detector-ceiling-and-jitter", section("detector", ceiling=0, phase_jitter_std=-1)),
    ("multi-detector-build-then-sources", {"detector": {"ceiling": 0}, "sources": "x"}),
    ("multi-detector-agc-and-jitter", section("detector", agc_enabled=True,
                                              phase_jitter_std=-1)),
    ("multi-far-unknown-and-theta", far(theta_deg="x", extra=1)),
    ("multi-far-missing-and-amplitude", {"sources": [{"phi_deg": 0, "amplitude": -1}]}),
    ("multi-far-angles-and-amplitude", far(theta_deg=95, amplitude=-1)),
    ("multi-far-theta-and-phi", far(theta_deg="x", phi_deg="y")),
    ("multi-far-amplitude-and-tag", far(amplitude=-1, frequency_tag=-1)),
    ("multi-far-phase-and-amplitude", far(phase_rad="x", amplitude="y")),
    ("multi-near-unknown-and-position", near(position_m=[0, 1], theta_deg=0)),
    ("multi-near-position-and-amplitude", near(position_m=[0, 1], amplitude=-1)),
    ("multi-near-behind-and-amplitude", near(position_m=[0, -1, 0], amplitude=-1)),
    ("multi-sources-first-entry", {"sources": [far(amplitude=-1)["sources"][0],
                                               {"kind": "plane"}]}),
    ("multi-sources-then-localization", {"sources": [{"kind": "x"}],
                                         "localization": {"dc_guard": -1}}),
    ("multi-localization-pad-and-guard", section("localization", dc_guard=-1,
                                                 zero_pad_factor=0)),
    ("multi-localization-pad-size-and-guard", section("localization", zero_pad_factor=BIG,
                                                      dc_guard=-1)),
    ("multi-localization-then-experiment", {"localization": {"significance_threshold": -1},
                                            "experiment": {"trials": 0}}),
    ("multi-experiment-unknown-and-trials", section("experiment", trials=0, runs=2)),
    ("multi-experiment-output_dir-and-gain_phi", section("experiment", gain_phi_deg="x",
                                                         output_dir="")),
    ("multi-experiment-gain_phi-and-snr", section("experiment", ber_snr_db=[],
                                                  gain_phi_deg=[])),
    ("multi-experiment-snr-and-order", section("experiment", ber_modulation_order=8,
                                               ber_snr_db="x")),
    ("multi-experiment-order-and-trials", section("experiment", trials=0,
                                                  ber_modulation_order=8)),
    ("multi-experiment-order-min-and-seed", section("experiment", seed=-1,
                                                    ber_modulation_order=2)),
    ("multi-experiment-output_dir-and-trials", section("experiment", trials=0,
                                                       output_dir=None)),
    ("multi-experiment-trials-and-seed", section("experiment", seed=-1, trials=0)),
    ("multi-experiment-trials-size-and-seed", section("experiment", trials=10**50, seed=-1)),
    ("multi-experiment-seed-and-bs", section("experiment", bs_locations_deg=[],
                                             seed="x")),
    ("multi-experiment-bs-and-ue", section("experiment", ue_locations_deg=[],
                                           bs_locations_deg=[[95, 0]])),
    ("multi-experiment-ue-and-ber_gain", section("experiment", ber_gain_db="x",
                                                 ue_locations_deg="x")),
    ("multi-experiment-trials-and-ber_gain", section("experiment", ber_gain_db="x",
                                                     trials=0)),
    ("multi-experiment-order-and-ber_gain", section("experiment", ber_gain_db="x",
                                                    ber_modulation_order=32)),
    ("multi-experiment-ber_gain-nan-and-trials", section("experiment", ber_gain_db=NAN,
                                                         trials=0)),
    ("multi-experiment-gain_phi-inf-and-order", section("experiment",
                                                        gain_phi_deg=[INF],
                                                        ber_modulation_order=8)),
]


def describe(document) -> str:
    try:
        cfg = parse_config(document)
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    except Exception as exc:  # the gate reports any escape, it does not stop on it
        return type(exc).__name__
    return json.dumps(config_as_dict(cfg), sort_keys=True)


def main() -> int:
    for label, document in CORPUS:
        print(f"{label}: {describe(document)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
