"""JSON config validation and the four CLI subcommands.

Exit code contract: 0 success, 2 usage/config errors, 3 file I/O and
format errors, 4 no significant peak / no feasible candidate, 5 sector
disambiguation failures.
"""

import contextlib
import importlib.util
import io
import json
import math
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoris.beamforming import read_coding_file
from holoris.cli import main
from holoris.config import (
    _DETECTOR,
    _EXPERIMENT,
    _GEOMETRY,
    _LOCALIZATION,
    _SOURCE,
    RunConfig,
    config_as_dict,
    load_config,
    parse_config,
)
from holoris.errors import ConfigError
from holoris.experiments import (
    ExperimentConfig,
    calibrated_detector,
    run_localization_grid,
    write_cdf_csv,
    write_grid_records_csv,
    write_statistics_txt,
)
from holoris.geometry import AngularLocation, ArrayGeometry, default_geometry
from holoris.wavefield import DetectorModel, Source, read_hologram_csv

FIXTURE_PHI = "32.367221606087334"


# ------------------------------------------------------------------- config

def test_empty_config_gives_defaults():
    cfg = parse_config({})
    assert cfg.experiment.geometry.shape == (32, 32)
    assert len(cfg.sources) == 2     # broadside reference + (0, 30) terminal
    assert cfg.experiment.detector.noise_std == 0.0
    assert cfg.experiment.zero_pad_factor == 2
    assert cfg.experiment.dc_guard == 2
    assert cfg.experiment.trials == 1


def test_empty_config_is_the_default_experiment_config():
    # The suite defaults are stated once, on ExperimentConfig.
    assert parse_config({}).experiment == ExperimentConfig()


def test_manifest_gate_canonical_document_is_the_canonical_experiment():
    path = Path(__file__).resolve().parent.parent / "tools" / "manifest_gate.py"
    spec = importlib.util.spec_from_file_location("manifest_gate", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    assert parse_config(gate.CONFIGS["canonical"]).experiment == ExperimentConfig(
        detector=calibrated_detector(), trials=20, significance_threshold=2.0
    )


def test_unknown_keys_are_rejected_with_field_path():
    with pytest.raises(ConfigError, match="config"):
        parse_config({"geomerty": {}})
    with pytest.raises(ConfigError, match="detector"):
        parse_config({"detector": {"noise": 1.0}})
    with pytest.raises(ConfigError, match="geometry.n_x"):
        parse_config({"geometry": {"n_x": "many"}})
    with pytest.raises(ConfigError, match="sources"):
        parse_config({"sources": [{"kind": "far_field"}]})


def test_source_validation():
    with pytest.raises(ConfigError, match="position_m"):
        parse_config({"sources": [{"kind": "near_field"}]})
    with pytest.raises(ConfigError, match="position_m"):
        parse_config({"sources": [{"kind": "near_field", "position_m": [1.0, 2.0]}]})
    with pytest.raises(ConfigError):
        parse_config({"sources": [{"kind": "near_field", "position_m": [0.0, -1.0, 0.0]}]})
    cfg = parse_config({"sources": [
        {"kind": "far_field", "theta_deg": 0.0, "phi_deg": 0.0},
        {"kind": "near_field", "position_m": [0.5, 3.0, -0.2], "frequency_tag": 1},
    ]})
    assert cfg.sources[1].kind == "near_field"


REMOVED_LOCALIZATION_KEYS = {
    "disambiguation": "oracle",
    "oracle_deg": [0.0, 30.0],
    "sector_theta_deg": [-10.0, 10.0],
    "sector_phi_deg": [0.0, 90.0],
}


@pytest.mark.parametrize("key", sorted(REMOVED_LOCALIZATION_KEYS))
def test_removed_localization_keys_are_unknown(key):
    # A twin-selection policy exists only on `holoris localize`.
    with pytest.raises(ConfigError, match=f"^localization.{key}: unknown key$"):
        parse_config({"localization": {key: REMOVED_LOCALIZATION_KEYS[key]}})


def test_experiment_settings_validation():
    with pytest.raises(ConfigError, match="ber_modulation_order"):
        parse_config({"experiment": {"ber_modulation_order": 32}})
    with pytest.raises(ConfigError, match="output_dir"):
        parse_config({"experiment": {"output_dir": ""}})
    with pytest.raises(ConfigError, match="trials"):
        parse_config({"experiment": {"trials": 0}})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_dict_round_trip():
    cfg = parse_config({
        "geometry": {"n_z": 16, "n_x": 24, "f_c_hz": 2_600_000_000},
        "detector": {"noise_std": 1.5, "agc_enabled": True, "ceiling": 50.0},
        "sources": [
            {"kind": "far_field", "theta_deg": -10.0, "phi_deg": 20.0},
            {"kind": "near_field", "position_m": [0.1, 2.0, 0.3], "amplitude": 0.7},
        ],
        "localization": {"zero_pad_factor": 1, "dc_guard": 0},
        "experiment": {"trials": 3, "seed": 11, "ber_gain_db": 12.5},
    })
    assert_round_trips(cfg)


def assert_round_trips(cfg):
    again = parse_config(config_as_dict(cfg))
    assert again.experiment == cfg.experiment
    assert (again.output_dir, again.gain_phi_deg, again.ber_snr_db,
            again.ber_gain_db, again.ber_modulation_order) == \
        (cfg.output_dir, cfg.gain_phi_deg, cfg.ber_snr_db,
         cfg.ber_gain_db, cfg.ber_modulation_order)
    assert len(again.sources) == len(cfg.sources)
    for a, b in zip(again.sources, cfg.sources):
        assert (a.kind, a.angles, a.amplitude, a.phase_rad, a.frequency_tag) == \
            (b.kind, b.angles, b.amplitude, b.phase_rad, b.frequency_tag)
        assert (a.position is None) == (b.position is None)
        if a.position is not None:
            assert np.array_equal(a.position, b.position)


# Documents built from the real key names, each value either of the form
# the key takes (mostly valid) or any JSON value at all, NaN, infinities and
# integers beyond the float range included.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
ANGLE = st.floats(-89.9, 89.9)


def like(value):
    """Values of the form of the default ``value``."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.just(value) | st.integers(value - 1, value + 40)
    if isinstance(value, float):
        return st.just(value) | st.floats(0.0, 60.0, exclude_min=True)
    if isinstance(value, str):
        return st.just(value) | st.text(max_size=4)
    if value is None:
        return st.none() | st.floats(0.0, 100.0)
    if isinstance(value[0], list):
        return st.lists(st.lists(ANGLE, min_size=2, max_size=2), min_size=1, max_size=2)
    return st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=len(value))


EDGE = st.sampled_from([10**400, -10**400, math.nan, math.inf, -math.inf, True, None, ""])


def mostly(strategy):
    """``strategy`` most of the time, an edge case or any JSON value otherwise."""
    return st.integers(0, 9).flatmap(
        lambda i: ANY_JSON if i == 3 else EDGE if i == 7 else strategy)


def config_section(template, required=()):
    values = {key: mostly(like(value)) for key, value in template.items()}
    return st.fixed_dictionaries({key: values.pop(key) for key in required}, optional=values)


DEFAULT_DOCUMENT = config_as_dict(parse_config({}))
SHARED_SOURCE_KEYS = {"amplitude": 1.0, "phase_rad": 0.0, "frequency_tag": 0}
SOURCE = st.one_of(
    config_section({**SHARED_SOURCE_KEYS, "theta_deg": 0.0, "phi_deg": 30.0},
                   required=("theta_deg", "phi_deg")),
    config_section({**SHARED_SOURCE_KEYS, "kind": "near_field", "position_m": [0.5, 3.0, 0.2]},
                   required=("kind", "position_m")),
)
CONFIG_DOCUMENTS = st.fixed_dictionaries({}, optional={
    **{name: mostly(config_section(DEFAULT_DOCUMENT[name]))
       for name in ("geometry", "detector", "localization", "experiment")},
    "sources": mostly(st.lists(SOURCE, min_size=1, max_size=3)),
})


@settings(max_examples=400, deadline=None)
@given(CONFIG_DOCUMENTS)
def test_any_document_parses_and_round_trips_or_raises_config_error(document):
    try:
        cfg = parse_config(document)
    except ConfigError:
        return
    assert_round_trips(cfg)


def holder_error(section: str, key: str, value) -> str:
    """The ValueError message of the type that holds ``section.key``, built from
    its defaults with the key set to ``value``."""
    holders = {"geometry": default_geometry(), "detector": DetectorModel(),
               "sources": Source.far_field(AngularLocation(0.0, 0.0))}
    holder = holders.get(section, ExperimentConfig())
    if not hasattr(holder, key):
        holder = RunConfig(experiment=ExperimentConfig(), sources=())
    with pytest.raises(ValueError) as exc:
        replace(holder, **{key: value})
    return str(exc.value)


# An out-of-range value for every table key with a bound, as the config reads it
# (a float where the key is a float).  The other keys take any value of their form.
UNBOUNDED_KEYS = {"phase_rad", "output_dir", "ber_snr_db", "ber_gain_db"}
OUT_OF_RANGE = [
    ("geometry", "f_c_hz", 0), ("geometry", "f_c_hz", 10**400), ("geometry", "n_z", 0),
    ("geometry", "n_z", 10**400), ("geometry", "n_x", 2**62), ("geometry", "d_z_m", 0.0),
    ("geometry", "d_x_m", -1.0),
    ("detector", "noise_std", -1.0), ("detector", "floor", -1.0),
    ("detector", "phase_jitter_std", -1.0), ("detector", "ceiling", 0.0),
    ("detector", "agc_enabled", True),
    ("sources", "amplitude", -1.0), ("sources", "frequency_tag", -1),
    ("sources", "frequency_tag", 10**400),
    ("localization", "zero_pad_factor", 0), ("localization", "zero_pad_factor", 10**400),
    ("localization", "dc_guard", -1), ("localization", "significance_threshold", -1.0),
    ("experiment", "trials", 0), ("experiment", "trials", 10**50),
    ("experiment", "seed", -1), ("experiment", "ber_modulation_order", 256),
    ("experiment", "gain_phi_deg", [0.0, 95.0]), ("experiment", "gain_phi_deg", [-90.0]),
]


@pytest.mark.parametrize("section, key, value", OUT_OF_RANGE,
                         ids=[f"{s}.{k}={v if len(str(v)) < 20 else f'1e{len(str(v)) - 1}'}"
                              for s, k, v in OUT_OF_RANGE])
def test_a_rejected_value_carries_its_holding_types_own_message(section, key, value):
    # one rule per value: the config reports the type's ValueError at the key's path
    if section == "sources":
        document = {"sources": [{"theta_deg": 0.0, "phi_deg": 0.0, key: value}]}
        path = f"sources[0].{key}"
    else:
        document, path = {section: {key: value}}, f"{section}.{key}"
    with pytest.raises(ConfigError) as exc:
        parse_config(document)
    assert str(exc.value) == f"{path}: {holder_error(section, key, value)}"


def test_the_values_of_several_keys_carry_their_holding_types_own_message():
    # a panel within its own byte budget whose spectrum, at the default
    # padding, is past it
    geometry = ArrayGeometry(n_z=6000, n_x=6000, d_z_m=0.02, d_x_m=0.02,
                             f_c_hz=3_500_000_000)
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(geometry=geometry)
    with pytest.raises(ConfigError, match="^geometry: ") as got:
        parse_config({"geometry": {"n_z": 6000, "n_x": 6000}})
    assert str(got.value) == f"geometry: {exc.value}"
    # an angle pair is held to AngularLocation's rule at its index
    with pytest.raises(ValueError) as exc:
        AngularLocation(95.0, 0.0)
    with pytest.raises(ConfigError) as got:
        parse_config({"experiment": {"ue_locations_deg": [[0, 0], [95, 0]]}})
    assert str(got.value) == f"experiment.ue_locations_deg[1]: {exc.value}"


def test_every_bounded_table_key_has_an_out_of_range_case():
    keys = {key.name for table in (_GEOMETRY, _DETECTOR, _SOURCE, _LOCALIZATION, _EXPERIMENT)
            for key in table}
    covered = {key for _, key, _ in OUT_OF_RANGE}
    assert covered | UNBOUNDED_KEYS | {"bs_locations_deg", "ue_locations_deg"} == keys


# ---------------------------------------------------------------- simulate

def write_config(tmp_path, document, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_simulate_writes_hologram(tmp_path, capsys):
    cfg = write_config(tmp_path, {})
    out = tmp_path / "holo.csv"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    holo = read_hologram_csv(out)
    assert holo.values.shape == (32, 32)
    assert "wrote" in capsys.readouterr().out


def test_simulate_multi_tag_suffixes(tmp_path):
    cfg = write_config(tmp_path, {"sources": [
        {"kind": "far_field", "theta_deg": 0.0, "phi_deg": 0.0},
        {"kind": "far_field", "theta_deg": 0.0, "phi_deg": 30.0},
        {"kind": "far_field", "theta_deg": 0.0, "phi_deg": 0.0, "frequency_tag": 1},
        {"kind": "far_field", "theta_deg": 10.0, "phi_deg": -20.0, "frequency_tag": 1},
    ]})
    out = tmp_path / "multi.csv"
    assert main(["simulate", "--config", cfg, "--output", str(out), "--quiet"]) == 0
    assert not out.exists()
    assert (tmp_path / "multi_tag0.csv").exists()
    assert (tmp_path / "multi_tag1.csv").exists()
    assert read_hologram_csv(tmp_path / "multi_tag1.csv").frequency_tag == 1


def test_simulate_bad_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"detector": {"noise_std": -1.0}})
    assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2


def test_simulate_oversized_carrier_exits_2(tmp_path, capsys):
    # an integer JSON literal beyond the float range
    cfg = write_config(tmp_path, {"geometry": {"f_c_hz": 10**400}})
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
    assert "geometry.f_c_hz" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_tag_beyond_float_exits_2(tmp_path, capsys):
    # the hologram reader could not read such a tag back, so it is refused
    # where it enters
    tagged = {"theta_deg": 0.0, "frequency_tag": 10**400}
    cfg = write_config(tmp_path, {"sources": [{**tagged, "phi_deg": 0.0},
                                              {**tagged, "phi_deg": 30.0}]})
    out = tmp_path / "h.csv"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: sources[0].frequency_tag: frequency_tag is too large to convert to a float\n")
    assert not out.exists()


@pytest.mark.parametrize("suite, document, field", [
    ("ber", {"experiment": {"ber_gain_db": 10**400}}, "experiment.ber_gain_db"),
    ("gain", {"experiment": {"gain_phi_deg": [0.0, 10**400]}},
     "experiment.gain_phi_deg[1]"),
    ("showcase", {"sources": [{"kind": "near_field", "position_m": [0.0, 10**400, 0.0]}]},
     "sources[0].position_m[1]"),
    ("showcase", {"sources": [{"kind": "far_field", "theta_deg": 10**400, "phi_deg": 0.0}]},
     "sources[0].theta_deg"),
])
def test_experiment_oversized_float_field_exits_2(tmp_path, capsys, suite, document, field):
    # an integer JSON literal beyond the float range, where a float is read
    cfg = write_config(tmp_path, document)
    out = tmp_path / "out"
    assert main(["experiment", "--suite", suite, "--config", cfg,
                 "--output-dir", str(out), "--quiet"]) == 2
    assert f"{field}: too large to convert to a float" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("data", [
    b'{"experiment": {"seed": ' + b"7" * 5000 + b"}}",   # past Python's digit limit
    b"[" * 100000 + b"]" * 100000,                        # past the recursion limit
    b"\xff\xfe",                                          # not UTF-8
], ids=["5000-digit-seed", "nested-100000-deep", "not-utf-8"])
def test_undecodable_config_exits_2(tmp_path, capsys, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    out = tmp_path / "out"
    assert main(["experiment", "--suite", "ber", "--config", str(cfg),
                 "--output-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}: invalid JSON: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    ('{"geometry": {"n_z": 16, "n_z": 32}}', "n_z"),
    ('{"experiment": {"trials": 2}, "experiment": {"trials": 3}}', "experiment"),
    ('{"sources": [{"kind": "far_field", "theta_deg": 0, "phi_deg": 0, "phi_deg": 30}]}',
     "phi_deg"),
], ids=["geometry-n_z", "experiment-section", "source-phi_deg"])
def test_duplicate_config_key_exits_2(tmp_path, capsys, text, key):
    # json keeps only a repeated key's last value; the config would then ignore the first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out" / "h.csv"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config {cfg}: duplicate key {key!r}\n"
    assert not out.parent.exists()


def test_simulate_infinite_pitch_exits_2(tmp_path, capsys):
    # json writes float("inf") as the literal Infinity, which json reads back
    cfg = write_config(tmp_path, {"geometry": {"d_z_m": float("inf")}})
    assert "Infinity" in Path(cfg).read_text()
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
    assert "geometry.d_z_m: must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, document, message", [
    ("ber", {"experiment": {"ber_gain_db": float("nan")}},
     "experiment.ber_gain_db: must be finite, got nan"),
    ("gain", {"experiment": {"gain_phi_deg": [0.0, float("inf")]}},
     "experiment.gain_phi_deg[1]: must be finite, got inf"),
    ("simulate", {"sources": [{"kind": "far_field", "theta_deg": 0.0, "phi_deg": 0.0,
                               "amplitude": float("inf")}]},
     "sources[0].amplitude: must be finite, got inf"),
    ("grid", {"detector": {"ceiling": float("inf")}},
     "detector.ceiling: must be finite, got inf"),
], ids=["ber_gain_db-nan", "gain_phi_deg-inf", "amplitude-inf", "ceiling-inf"])
def test_non_finite_config_number_exits_2(tmp_path, capsys, command, document, message):
    # json reads the literals NaN, Infinity and -Infinity; null is how the
    # config says "unbounded"
    cfg = write_config(tmp_path, document)
    assert "NaN" in Path(cfg).read_text() or "Infinity" in Path(cfg).read_text()
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--config", cfg, "--output", str(out / "h.csv")]
    else:
        argv = ["experiment", "--suite", command, "--config", cfg, "--output-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# The size rule's message at each figure: a panel's, a stack's padded spectra's.
PANEL_BYTES = "n_z*n_x must be at most 2147483648 bytes at 24 bytes each"
SPECTRA_BYTES = ("trials*(zero_pad_factor*n_z)*(zero_pad_factor*n_x) must be at most "
                 "2147483648 bytes at 32 bytes each")
SYNTHESIS_BYTES = "synthesis of n_z*n_x must be at most 2147483648 bytes at {} bytes each"
SEEDS_BYTES = "placements*trials seeds must be at most 2147483648 bytes at 80 bytes each"
PAD_1 = {"zero_pad_factor": 1}


@pytest.mark.parametrize("command, document, message", [
    ("simulate", {"geometry": {"n_z": 10**400}}, f"geometry.n_z: {PANEL_BYTES}"),
    # beside the default n_x, n_z = 2**40 alone is past the panel's budget
    ("simulate", {"geometry": {"n_z": 2**40, "n_x": 2**40}}, f"geometry.n_z: {PANEL_BYTES}"),
    # n_z = 2**20 fits beside the default n_x: the product fails at n_x
    ("simulate", {"geometry": {"n_z": 2**20, "n_x": 2**20}}, f"geometry.n_x: {PANEL_BYTES}"),
    # a panel within its budget whose spectrum at the default padding is not
    ("simulate", {"geometry": {"n_z": 6000, "n_x": 6000}}, f"geometry: {SPECTRA_BYTES}"),
    ("showcase", {"localization": {"zero_pad_factor": 10**400}},
     f"localization.zero_pad_factor: {SPECTRA_BYTES}"),
    ("grid", {"experiment": {"trials": 10**50}}, f"experiment.trials: {SPECTRA_BYTES}"),
    # the panel is past its budget before the trials are read
    ("grid", {"geometry": {"n_z": 2**20, "n_x": 2**20}, "experiment": {"trials": 2**23}},
     f"geometry.n_x: {PANEL_BYTES}"),
    ("grid", {"experiment": {"trials": 2**14 + 1}}, f"experiment.trials: {SPECTRA_BYTES}"),
    # at pad 1 the spectra of 4 captures fit; the synthesis of the suites' pair does not
    ("grid", {"geometry": {"n_z": 4096, "n_x": 4096}, "localization": PAD_1,
              "experiment": {"trials": 4}}, f"experiment.trials: {SYNTHESIS_BYTES.format(176)}"),
    # 2**24 captures of a 2x2 panel at two placements: the synthesis, then ~13 GB of
    # generators, are past the budget
    ("grid", {"geometry": {"n_z": 2, "n_x": 2}, "localization": PAD_1,
              "experiment": {"trials": 2**24, "bs_locations_deg": [[0.0, 0.0]],
                             "ue_locations_deg": [[0.0, 30.0], [0.0, -30.0]]}},
     f"experiment.trials: {SYNTHESIS_BYTES.format(536870960)}"),
    # the seeds of the default 4x27 grid's 2**20 captures each take ~9 GB
    ("grid", {"geometry": {"n_z": 2, "n_x": 2}, "localization": PAD_1,
              "experiment": {"trials": 2**20}}, f"experiment.trials: {SEEDS_BYTES}"),
], ids=["n_z-10**400", "n_z-n_x-2**40", "n_z-n_x-2**20", "spectrum-6000x6000",
        "zero_pad_factor-10**400", "trials-10**50", "trials-n_z-n_x-2**63", "trials-2**14+1",
        "synthesis-4096x4096-pad-1", "trials-2**24-2x2-pad-1", "seeds-2**20-2x2-pad-1"])
def test_array_size_beyond_numpy_exits_2(tmp_path, capsys, command, document, message):
    # a size past the byte budget fails at its field, before any array is built
    cfg = write_config(tmp_path, document)
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--config", cfg, "--output", str(out / "h.csv")]
    else:
        argv = ["experiment", "--suite", command, "--config", cfg, "--output-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_trials_are_counted_over_the_documents_own_grid():
    # experiment.trials is read after the location lists, so the seeds check counts
    # the document's 1x1 grid (300,000 seeds, 24 MB), not the default 4x27 (~2.6 GB)
    cfg = parse_config({"geometry": {"n_z": 2, "n_x": 2}, "localization": PAD_1,
                        "experiment": {"trials": 300000, "bs_locations_deg": [[0, 0]],
                                       "ue_locations_deg": [[0, 30]]}})
    assert cfg.experiment.trials == 300000
    assert cfg.experiment.bs_locations == (AngularLocation(0.0, 0.0),)
    assert cfg.experiment.ue_locations == (AngularLocation(0.0, 30.0),)


@pytest.mark.parametrize("flag", ["--seed=-1", "--trials=0"])
def test_config_errors_are_reported_before_flag_errors(tmp_path, capsys, flag):
    # the flags are read after the whole document
    cfg = write_config(tmp_path, {"geometry": {"d_z_m": -1}})
    out = tmp_path / "out"
    assert main(["experiment", "--suite", "grid", "--config", cfg, "--output-dir", str(out),
                 flag]) == 2
    assert capsys.readouterr().err == (
        "error: geometry.d_z_m: d_z_m must be finite and > 0, got -1.0\n")
    assert not out.exists()


def test_trials_flag_beyond_numpy_exits_2(tmp_path, capsys):
    # the flag is read by the experiment.trials rule, bound included
    cfg = write_config(tmp_path, {})
    out = tmp_path / "out"
    assert main(["experiment", "--suite", "grid", "--config", cfg, "--output-dir", str(out),
                 "--trials", str(10**50)]) == 2
    assert capsys.readouterr().err == f"error: --trials: {SPECTRA_BYTES}\n"
    assert not out.exists()


# ---------------------------------------------------------------- localize

@pytest.fixture()
def fixture_csv(tmp_path):
    cfg = write_config(tmp_path, {})
    out = tmp_path / "fixture.csv"
    assert main(["simulate", "--config", cfg, "--output", str(out), "--quiet"]) == 0
    return str(out)


def test_localize_prints_report(fixture_csv, capsys):
    assert main(["localize", fixture_csv, "--bs", "0,0"]) == 0
    out = capsys.readouterr().out
    assert f"candidate_1_phi_deg={FIXTURE_PHI}" in out
    assert f"candidate_2_phi_deg=-{FIXTURE_PHI}" in out
    assert "chosen_phi_deg=none" in out
    assert "peak_bin_x=5" in out


def test_localize_sector_picks_positive_twin(fixture_csv, capsys):
    assert main(["localize", fixture_csv, "--bs", "0,0", "--sector", "0:90"]) == 0
    assert f"chosen_phi_deg={FIXTURE_PHI}" in capsys.readouterr().out


def test_localize_oracle_truth(fixture_csv, capsys):
    assert main(["localize", fixture_csv, "--bs", "0,0",
                 "--oracle-truth", "0,-30"]) == 0
    assert f"chosen_phi_deg=-{FIXTURE_PHI}" in capsys.readouterr().out


def test_localize_sector_failures_exit_5(fixture_csv):
    # the  --sector=  form keeps argparse from reading "-90:90" as a flag
    assert main(["localize", fixture_csv, "--bs", "0,0", "--sector=-90:90"]) == 5
    assert main(["localize", fixture_csv, "--bs", "0,0", "--sector", "40:50"]) == 5


def test_localize_infinite_sector_bounds_stay_valid(fixture_csv):
    # both fixture twins lie in (-inf, inf): ambiguous, not a usage error
    assert main(["localize", fixture_csv, "--bs", "0,0", "--sector=-inf:inf"]) == 5


@pytest.mark.parametrize("command, flag", [
    ("localize", "--seed=7"), ("localize", "--quiet"), ("codegen", "--seed=99"),
])
def test_flags_a_command_would_ignore_exit_2(fixture_csv, tmp_path, capsys, command, flag):
    # --seed exists only where a seed is drawn (simulate, experiment) and
    # --quiet only where progress is printed (simulate, codegen, experiment)
    out = tmp_path / "c.txt"
    argv = {
        "localize": ["localize", fixture_csv, "--bs", "0,0"],
        "codegen": ["codegen", "--mode", "far", "--bs", "0,0", "--ue", "0,30",
                    "--output", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv + [flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_localize_flag_conflicts_exit_2(fixture_csv):
    assert main(["localize", fixture_csv, "--bs", "0,0",
                 "--sector", "0:90", "--oracle-truth", "0,30"]) == 2
    assert main(["localize", fixture_csv, "--bs", "zero,zero"]) == 2
    assert main(["localize", fixture_csv, "--bs", "0,0", "--sector", "garbage"]) == 2


@pytest.mark.filterwarnings("ignore::holoris.errors.DegenerateInterference")
def test_localize_no_peak_exits_4(tmp_path):
    cfg = write_config(tmp_path, {"sources": [
        {"kind": "far_field", "theta_deg": 0.0, "phi_deg": 0.0},
        {"kind": "far_field", "theta_deg": 0.0, "phi_deg": 0.0},
    ]})
    out = tmp_path / "flat.csv"
    assert main(["simulate", "--config", cfg, "--output", str(out), "--quiet"]) == 0
    assert main(["localize", str(out), "--bs", "0,0"]) == 4


def test_localize_guard_past_the_spectrum_exits_4_at_once(fixture_csv, capsys):
    # the guard's mask is built per axis, so a guard of 10**9 bins costs what one of 2 does
    start = time.perf_counter()
    assert main(["localize", fixture_csv, "--bs", "0,0", "--dc-guard", "1000000000"]) == 4
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: NoPeak: search region is empty\n"


def test_simulate_past_the_synthesis_budget_exits_2_before_any_field(tmp_path, capsys,
                                                                       monkeypatch):
    def built(*args):
        raise AssertionError("a field was built")
    monkeypatch.setattr("holoris.wavefield.complex_field_at_array", built)
    # the config's 4096x4096 panel holds the suites' pair; its 20 sources take ~6.2 GB
    sources = [{"kind": "far_field", "theta_deg": 0.0, "phi_deg": float(phi)}
               for phi in range(20)]
    cfg = write_config(tmp_path, {"geometry": {"n_z": 4096, "n_x": 4096}, "sources": sources})
    out = tmp_path / "out" / "h.csv"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {SYNTHESIS_BYTES.format(368)}\n"
    assert not out.parent.exists()


def test_simulate_past_the_budget_in_holograms_exits_2_before_any_field(tmp_path, capsys,
                                                                         monkeypatch):
    def built(*args):
        raise AssertionError("a field was built")
    monkeypatch.setattr("holoris.wavefield.complex_field_at_array", built)
    # each of 100 two-source tags fits alone (~1.3 GB on 4096x4096), but the 99
    # holograms alive while the last tag is synthesized take 8 bytes an element each
    # beside the largest tag's 80
    sources = [{"kind": "far_field", "theta_deg": 0.0, "phi_deg": phi, "frequency_tag": tag}
               for tag in range(100) for phi in (0.0, 30.0)]
    cfg = write_config(tmp_path, {"geometry": {"n_z": 4096, "n_x": 4096}, "sources": sources})
    out = tmp_path / "out" / "h.csv"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {SYNTHESIS_BYTES.format(872)}\n"
    assert not out.parent.exists()


def test_localize_io_errors_exit_3(tmp_path, fixture_csv, capsys):
    assert main(["localize", str(tmp_path / "nope.csv"), "--bs", "0,0"]) == 3
    lines = Path(fixture_csv).read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    lines[data_start] = "1.0,2.0"
    bad = tmp_path / "corrupt.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["localize", str(bad), "--bs", "0,0"]) == 3
    assert f"line {data_start + 1}" in capsys.readouterr().err


def test_localize_non_finite_intensity_exits_3(tmp_path, fixture_csv, capsys):
    lines = Path(fixture_csv).read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    cells = lines[data_start + 2].split(",")
    cells[0] = "nan"
    lines[data_start + 2] = ",".join(cells)
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["localize", str(bad), "--bs", "0,0"]) == 3
    err = capsys.readouterr().err
    assert f"line {data_start + 3}: hologram intensities must be finite" in err


def test_localize_undecodable_bytes_exit_3(tmp_path, fixture_csv, capsys):
    data = Path(fixture_csv).read_bytes().split(b"\n")
    data[9] = b"\xff\xfe" + data[9]
    bad = tmp_path / "bytes.csv"
    bad.write_bytes(b"\n".join(data))
    capsys.readouterr()
    assert main(["localize", str(bad), "--bs", "0,0"]) == 3
    assert "line 10" in capsys.readouterr().err


def test_localize_invalid_header_value_exits_3(tmp_path, fixture_csv, capsys):
    lines = Path(fixture_csv).read_text().splitlines()
    assert lines[2].startswith("# d_x_m=")
    lines[2] = "# d_x_m=-0.02"
    bad = tmp_path / "pitch.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["localize", str(bad), "--bs", "0,0"]) == 3
    assert "line 3: d_x_m must be finite and > 0" in capsys.readouterr().err


def test_localize_overflowing_intensity_sum_exits_3(tmp_path, fixture_csv, capsys):
    # Each row of 32 values 1e306 sums to 3.2e307; the sixth row takes the
    # running sum past the float range, on line 7 header lines + 6.
    lines = Path(fixture_csv).read_text().splitlines()
    data_start = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert data_start == 7
    lines[data_start:] = [",".join(["1e306"] * 32)] * 32
    bad = tmp_path / "huge.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["localize", str(bad), "--bs", "0,0"]) == 3
    assert "line 13: hologram intensity sum overflows" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--zero-pad", "0"),
    ("--dc-guard", "-1"),
    ("--dc-guard", "-40"),
    ("--significance-threshold", "nan"),
    ("--significance-threshold", "-3"),
    ("--sector", "nan:1"),
    ("--sector", "5:1"),
    ("--sector", "0:90,nan:nan"),
])
def test_localize_invalid_peak_parameters_exit_2(fixture_csv, capsys, flag, value):
    capsys.readouterr()
    assert main(["localize", fixture_csv, "--bs", "0,0", f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("flag", ["--zero-pad=0", "--dc-guard=-1", "--significance-threshold=nan"])
def test_localize_reads_the_hologram_before_the_peak_flags(tmp_path, flag):
    assert main(["localize", str(tmp_path / "nope.csv"), "--bs", "0,0", flag]) == 3


# ----------------------------------------------------------------- codegen

def test_codegen_far(tmp_path, capsys):
    out = tmp_path / "coding.txt"
    assert main(["codegen", "--mode", "far", "--bs", "0,0", "--ue", "0,30",
                 "--output", str(out)]) == 0
    coding = read_coding_file(out)
    assert coding.states.shape == (32, 32)
    text = capsys.readouterr().out
    assert "target_power_db=" in text and "allzero_power_db=" in text


@pytest.mark.parametrize("where, target_db, allzero_db", [
    (["--mode", "far", "--bs", "0,0", "--ue", "0,30"], "56.047", "36.368"),
    (["--mode", "near", "--bs", "0,0", "--ue", "0,30", "--bs-range", "5.0",
      "--ue-range", "2.0"], "56.096", "35.864"),
    (["--mode", "near", "--bs-pos", "0,5,0", "--ue-pos", "1,2,0.5"], "56.149", "27.814"),
], ids=["far", "near-range", "near-position"])
def test_codegen_prints_the_coding_and_all_zero_powers(tmp_path, capsys, where,
                                                        target_db, allzero_db):
    out = tmp_path / "coding.txt"
    assert main(["codegen", *where, "--output", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {out}", f"target_power_db={target_db}", f"allzero_power_db={allzero_db}"]


def test_codegen_near_requires_range_or_position(tmp_path, capsys):
    out = tmp_path / "c.txt"
    for where in ([], ["--bs", "0,0"]):  # no position, and not both angles
        assert main(["codegen", "--mode", "near", *where, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: near mode needs --bs/--ue angles or --bs-pos/--ue-pos\n")
    assert main(["codegen", "--mode", "near", "--bs", "0,0", "--ue", "0,30",
                 "--bs-range", "5.0", "--output", str(out)]) == 2  # no --ue-range
    assert main(["codegen", "--mode", "near", "--bs", "0,0", "--ue", "0,30",
                 "--bs-range", "5.0", "--ue-range", "2.0",
                 "--output", str(out)]) == 0
    assert main(["codegen", "--mode", "near",
                 "--bs-pos", "0,5,0", "--ue-pos", "1,2,0.5",
                 "--output", str(out)]) == 0
    # positions must be in front of the panel
    assert main(["codegen", "--mode", "near",
                 "--bs-pos", "0,-5,0", "--ue-pos", "1,2,0.5",
                 "--output", str(out)]) == 2


@pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["", "quiet"])
@pytest.mark.parametrize("flag, where", [
    ("--bs-pos", ["--bs-pos", "nan,5,0", "--ue-pos", "1,2,0.5"]),
    ("--ue-pos", ["--bs-pos", "0,5,0", "--ue-pos", "1,2,inf"]),
    ("--bs-range", ["--bs", "0,0", "--ue", "0,30", "--bs-range", "nan", "--ue-range", "2"]),
    ("--ue-range", ["--bs", "0,0", "--ue", "0,30", "--bs-range", "5", "--ue-range", "inf"]),
], ids=["bs-pos-nan", "ue-pos-inf", "bs-range-nan", "ue-range-inf"])
def test_codegen_near_non_finite_exits_2(tmp_path, capsys, flag, where, quiet):
    out = tmp_path / "c.txt"
    assert main(["codegen", "--mode", "near", *where, "--output", str(out), *quiet]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["codegen", "--mode", "far", "--bs", "0,0", "--ue", "0,95"], "--ue"),
    (["codegen", "--mode", "far", "--bs", "0,95", "--ue", "0,0"], "--bs"),
    (["codegen", "--mode", "near", "--bs-pos", "0,5,0", "--ue-pos", "1,-2,0"], "--ue-pos"),
    (["localize", "{csv}", "--bs", "0,0", "--oracle-truth", "0,95"], "--oracle-truth"),
    (["localize", "{csv}", "--bs", "0,0", "--sector", "5:1"], "--sector"),
    # a point 1e-9 to 1e9 m from the panel centre, by position or by range
    (["codegen", "--mode", "near", "--bs-pos", "0,1,0", "--ue-pos", "0,1e170,0"], "--ue-pos"),
    (["codegen", "--mode", "near", "--bs-pos", "0,1e-200,0", "--ue-pos", "0,1,0"], "--bs-pos"),
    (["codegen", "--mode", "near", "--bs", "0,0", "--ue", "0,30", "--bs-range", "5",
      "--ue-range", "1e170"], "--ue-range"),
], ids=["codegen-ue", "codegen-bs", "codegen-ue-pos", "localize-oracle", "localize-sector",
        "codegen-ue-pos-far", "codegen-bs-pos-near", "codegen-ue-range-far"])
def test_value_errors_name_their_flag(fixture_csv, tmp_path, capsys, argv, flag):
    # the library checks the value; the CLI says which flag carried it
    out = tmp_path / "c.txt"
    argv = [fixture_csv if a == "{csv}" else a for a in argv]
    if argv[0] == "codegen":
        argv += ["--output", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding the fixture hologram, for the flag property."""
    path = tmp_path_factory.mktemp("flags")
    cfg = write_config(path, {})
    assert main(["simulate", "--config", cfg, "--output", str(path / "fixture.csv"),
                 "--quiet"]) == 0
    return path


# Flag values as a user may type them: modest and extreme floats, integers
# past the float range, non-finite spellings, and empty and junk strings.
_NUMBER = st.one_of(st.floats(-100.0, 100.0).map(repr), st.floats().map(repr),
                    st.integers(-10**400, 10**400).map(str),
                    st.sampled_from(["nan", "inf", "-inf", "1e170", "1e-200", "-0.0"]))
_ANY = st.one_of(_NUMBER, st.just(""), st.text(max_size=6))


def _numbers(count, sep=","):
    """Mostly the text of count numbers joined by sep, else any text."""
    joined = st.lists(_NUMBER, min_size=count, max_size=count).map(sep.join)
    return st.one_of(joined, joined, joined, _ANY)


# Each optional flag and what may follow it.  The flags argparse types take
# values of that type (an integer, or any number for a float), so every argv
# reaches holoris' own checks rather than argparse's usage message.
_LOCALIZE_FLAGS = {
    "--zero-pad": st.integers(-10**400, 10**400).map(str),
    "--dc-guard": st.integers(-10**400, 10**400).map(str),
    "--significance-threshold": _NUMBER,
    "--sector": st.one_of(_numbers(2, ":"),
                          st.tuples(_numbers(2, ":"), _numbers(2, ":")).map(",".join)),
    "--oracle-truth": _numbers(2),
}
_CODEGEN_FLAGS = {
    "--bs": _numbers(2), "--ue": _numbers(2), "--bs-range": _NUMBER, "--ue-range": _NUMBER,
    "--bs-pos": _numbers(3), "--ue-pos": _numbers(3), "--quiet": st.none(),
}
# The flags of each way codegen takes its points, one of which is always drawn.
_CODEGEN_POINTS = (("--bs", "--ue"), ("--bs-pos", "--ue-pos"),
                   ("--bs", "--ue", "--bs-range", "--ue-range"))


@st.composite
def _argv(draw):
    """A localize or codegen argv; {dir} stands for the directory of fuzz_dir."""
    if draw(st.booleans()):
        argv = ["localize", "{dir}/fixture.csv", "--bs=" + draw(_numbers(2))]
        flags = _LOCALIZE_FLAGS
        chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
        if "--oracle-truth" in chosen and "--sector" in chosen:
            chosen.remove("--sector")  # argparse takes one disambiguation flag
    else:
        argv = ["codegen", "--mode=" + draw(st.sampled_from(["far", "near"])),
                "--output={dir}/coding.txt"]
        flags = _CODEGEN_FLAGS
        chosen = sorted(set(draw(st.sampled_from(_CODEGEN_POINTS))) | set(
            draw(st.lists(st.sampled_from(sorted(flags))))))
    for flag in chosen:
        value = draw(flags[flag])
        argv.append(flag if value is None else f"{flag}={value}")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
# Points whose distance from the panel centre overflowed or underflowed the
# near-field arithmetic, with numpy warnings, before they were bounded.
@example(argv=["codegen", "--mode=near", "--output={dir}/coding.txt", "--bs-pos=0,1,0",
               "--ue-pos=0,1e170,0"])
@example(argv=["codegen", "--mode=near", "--output={dir}/coding.txt", "--bs-pos=0,1e-200,0",
               "--ue-pos=0,1,0"])
def test_localize_and_codegen_flags_exit_by_the_contract(fuzz_dir, argv):
    """Over drawn localize and codegen flag values: the exit code is one of
    the contract's, stderr is empty or one error line, and no warning is raised."""
    argv = [a.replace("{dir}", str(fuzz_dir)) for a in argv]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
    assert [str(w.message) for w in caught] == []


def test_codegen_far_requires_both_directions(tmp_path):
    assert main(["codegen", "--mode", "far", "--bs", "0,0",
                 "--output", str(tmp_path / "c.txt")]) == 2


# -------------------------------------------------------------- experiment

def experiment_config(tmp_path, out_name="run_out", extra=None):
    doc = {"experiment": {"trials": 1, "seed": 0,
                          "output_dir": str(tmp_path / out_name)}}
    if extra:
        doc.update(extra)
    return write_config(tmp_path, doc, name=f"{out_name}.json")


def test_experiment_grid_suite(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    assert main(["experiment", "--suite", "grid", "--config", cfg]) == 0
    out_dir = tmp_path / "run_out"
    for name in ("grid_records.csv", "grid_statistics.txt", "grid_cdf.csv",
                 "manifest.txt"):
        assert (out_dir / name).exists()
    assert "fraction_within_9deg" in capsys.readouterr().out


def test_experiment_grid_matches_run_localization_grid(tmp_path):
    cfg = experiment_config(tmp_path, extra={
        "detector": {"noise_std": 6.9, "phase_jitter_std": 0.2},
        "localization": {"significance_threshold": 2.0},
    })
    assert main(["experiment", "--suite", "grid", "--config", cfg, "--quiet",
                 "--trials", "3", "--seed", "5"]) == 0
    stats, records = run_localization_grid(ExperimentConfig(
        detector=calibrated_detector(), trials=3, seed=5, significance_threshold=2.0,
    ))
    ref = tmp_path / "ref"
    ref.mkdir()
    write_grid_records_csv(ref / "grid_records.csv", records)
    write_statistics_txt(ref / "grid_statistics.txt", stats)
    write_cdf_csv(ref / "grid_cdf.csv", stats)
    for name in ("grid_records.csv", "grid_statistics.txt", "grid_cdf.csv"):
        assert (tmp_path / "run_out" / name).read_bytes() == (ref / name).read_bytes()


@pytest.mark.parametrize("command", ["simulate", "grid", "gain", "ber", "showcase"])
def test_negative_seed_exits_2_before_writing(tmp_path, capsys, command):
    cfg = experiment_config(tmp_path)
    if command == "simulate":
        argv = ["simulate", "--config", cfg, "--output", str(tmp_path / "sim" / "h.csv")]
    else:
        argv = ["experiment", "--suite", command, "--config", cfg]
    assert main(argv + ["--seed", "-1"]) == 2
    assert "--seed: seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()
    assert not (tmp_path / "run_out").exists()


def test_experiment_rerun_is_byte_identical(tmp_path):
    cfg = experiment_config(tmp_path)
    assert main(["experiment", "--suite", "grid", "--config", cfg, "--quiet"]) == 0
    first = (tmp_path / "run_out" / "manifest.txt").read_bytes()
    assert main(["experiment", "--suite", "grid", "--config", cfg, "--quiet"]) == 0
    assert (tmp_path / "run_out" / "manifest.txt").read_bytes() == first


def test_experiment_seed_override_changes_noisy_manifest(tmp_path):
    cfg = experiment_config(tmp_path, extra={
        "detector": {"noise_std": 6.9, "phase_jitter_std": 0.2},
        "localization": {"significance_threshold": 2.0},
    })
    assert main(["experiment", "--suite", "grid", "--config", cfg, "--quiet"]) == 0
    first = (tmp_path / "run_out" / "manifest.txt").read_bytes()
    assert main(["experiment", "--suite", "grid", "--config", cfg, "--quiet",
                 "--seed", "99"]) == 0
    assert (tmp_path / "run_out" / "manifest.txt").read_bytes() != first


def test_experiment_other_suites(tmp_path):
    cfg = experiment_config(tmp_path, out_name="gain_out")
    assert main(["experiment", "--suite", "gain", "--config", cfg, "--quiet"]) == 0
    assert (tmp_path / "gain_out" / "gain_sweep.csv").exists()

    cfg = experiment_config(tmp_path, out_name="ber_out")
    assert main(["experiment", "--suite", "ber", "--config", cfg, "--quiet"]) == 0
    assert (tmp_path / "ber_out" / "ber_curves.csv").exists()

    cfg = experiment_config(tmp_path, out_name="show_out")
    assert main(["experiment", "--suite", "showcase", "--config", cfg, "--quiet"]) == 0
    assert (tmp_path / "show_out" / "sample_1" / "hologram.csv").exists()
    assert (tmp_path / "show_out" / "manifest.txt").exists()


@pytest.mark.parametrize("suite, code, error", [
    ("showcase", 4, "error=NoPeak: "),
    ("grid", 2, "error=ValueError: need at least two successful records"),
])
def test_failed_suite_writes_a_failed_manifest_without_artifacts(tmp_path, suite, code, error):
    # no spectral peak is 1e9 times its median, so every localization fails
    cfg = experiment_config(tmp_path, extra={"localization": {"significance_threshold": 1e9}})
    assert main(["experiment", "--suite", suite, "--config", cfg, "--quiet"]) == code
    lines = (tmp_path / "run_out" / "manifest.txt").read_text().splitlines()
    assert lines[1:3] == [f"suite={suite}", "status=FAILED"]
    assert [line for line in lines if line.startswith("error=")][0].startswith(error)
    assert not [line for line in lines if line.startswith("artifact=")]


def test_experiment_ber_suite_beyond_the_float_range_exits_0(tmp_path):
    # 4000 dB over the proxy grid takes 10**(snr_db/10) beyond the float range
    cfg = write_config(tmp_path, {"experiment": {"ber_gain_db": 4000}})
    out = tmp_path / "out"
    assert main(["experiment", "--suite", "ber", "--config", cfg, "--output-dir", str(out),
                 "--quiet"]) == 0
    rows = (out / "ber_curves.csv").read_text().splitlines()[2:]
    assert rows and all(row.endswith(",0.0") for row in rows)


def test_experiment_empty_output_dir_flag_exits_2_before_writing(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    assert main(["experiment", "--suite", "ber", "--config", cfg, "--output-dir", ""]) == 2
    assert capsys.readouterr().err == "error: --output-dir: expected a non-empty string\n"
    assert not (tmp_path / "run_out").exists()
    # a redirected run still records the configured directory
    other = tmp_path / "other"
    assert main(["experiment", "--suite", "ber", "--config", cfg, "--output-dir", str(other),
                 "--quiet"]) == 0
    assert f'"output_dir": {json.dumps(str(tmp_path / "run_out"))}' in (
        other / "manifest.txt").read_text()


def test_experiment_unknown_suite_exits_2(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    assert main(["experiment", "--suite", "warp", "--config", cfg]) == 2
    err = capsys.readouterr().err
    for suite in ("grid", "gain", "ber", "showcase"):
        assert suite in err


@pytest.mark.parametrize("key", sorted(REMOVED_LOCALIZATION_KEYS))
def test_simulate_and_experiment_reject_removed_keys(tmp_path, capsys, key):
    extra = {"localization": {key: REMOVED_LOCALIZATION_KEYS[key]}}
    cfg = experiment_config(tmp_path, extra=extra)
    out = tmp_path / "holo.csv"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
    assert f"localization.{key}: unknown key" in capsys.readouterr().err
    assert not out.exists()
    assert main(["experiment", "--suite", "grid", "--config", cfg]) == 2
    assert f"localization.{key}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "run_out" / "manifest.txt").exists()


def test_missing_subcommand_exits_2():
    assert main([]) == 2
