"""Run configuration: a strict JSON schema over the pipeline knobs.

A configuration document is a JSON object with optional sections
geometry, detector, sources, localization, and experiment.  Every key has
a documented default matching the reference hardware (32x32 panel, 0.02 m
pitch, 3.5 GHz carrier); unknown keys are rejected with the offending
field path so typos never silently fall back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .experiments import ExperimentConfig, paper_bs_locations, paper_ue_locations
from .geometry import AngularLocation, ArrayGeometry
from .wavefield import DetectorModel, Source


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration document.

    ``experiment`` is the ExperimentConfig the suites take: the geometry,
    detector, localization section and the suite keys of the experiment
    section.  The other fields are what single commands need beside it.
    """

    experiment: ExperimentConfig
    sources: tuple
    output_dir: str = "holoris_out"
    gain_phi_deg: tuple = tuple(float(p) for p in range(-60, 61, 15))
    ber_snr_db: tuple = tuple(float(s) for s in range(-10, 31))
    ber_gain_db: float = 16.4
    ber_modulation_order: int = 64


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _reject_unknown(section: dict, allowed, path: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"{path}.{name}: unknown key")


def _float(value, path: str) -> float:
    """A JSON number as a float; an integer beyond the float range is rejected."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}: too large to convert to a float") from None


def _get_number(section: dict, key: str, default, path: str, minimum=None,
                strict_min=False, allow_none_as=None):
    if key not in section:
        return default
    value = section[key]
    if value is None and allow_none_as is not None:
        return allow_none_as
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    value = _float(value, f"{path}.{key}")
    if minimum is not None:
        if strict_min and not value > minimum:
            raise ConfigError(f"{path}.{key}: must be > {minimum}")
        if not strict_min and not value >= minimum:
            raise ConfigError(f"{path}.{key}: must be >= {minimum}")
    return value


def _get_int(section: dict, key: str, default, path: str, minimum=None):
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}")
    return value


def _get_bool(section: dict, key: str, default, path: str):
    if key not in section:
        return default
    value = section[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected true or false")
    return value


def _numbers(value, path: str, expected: str, length=None) -> tuple:
    """A non-empty list of numbers (of ``length`` if given) as floats."""
    if (
        not isinstance(value, (list, tuple))
        or not value
        or (length is not None and len(value) != length)
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ConfigError(f"{path}: expected {expected}")
    return tuple(_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _angle_pair(value, path: str) -> AngularLocation:
    theta, phi = _numbers(value, path, "[theta_deg, phi_deg]", length=2)
    try:
        return AngularLocation(theta, phi)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_geometry(section: dict) -> ArrayGeometry:
    _reject_unknown(section, {"n_x", "n_z", "d_x_m", "d_z_m", "f_c_hz"}, "geometry")
    f_c_hz = _get_int(section, "f_c_hz", 3_500_000_000, "geometry", minimum=1)
    _float(f_c_hz, "geometry.f_c_hz")  # the wavelength and wavenumber are floats
    try:
        return ArrayGeometry(
            n_z=_get_int(section, "n_z", 32, "geometry", minimum=1),
            n_x=_get_int(section, "n_x", 32, "geometry", minimum=1),
            d_z_m=_get_number(section, "d_z_m", 0.02, "geometry", minimum=0.0,
                              strict_min=True),
            d_x_m=_get_number(section, "d_x_m", 0.02, "geometry", minimum=0.0,
                              strict_min=True),
            f_c_hz=f_c_hz,
        )
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None


def _parse_detector(section: dict) -> DetectorModel:
    _reject_unknown(
        section,
        {"noise_std", "floor", "ceiling", "agc_enabled", "phase_jitter_std"},
        "detector",
    )
    try:
        return DetectorModel(
            noise_std=_get_number(section, "noise_std", 0.0, "detector", minimum=0.0),
            floor=_get_number(section, "floor", 0.0, "detector", minimum=0.0),
            ceiling=_get_number(section, "ceiling", math.inf, "detector",
                                allow_none_as=math.inf),
            agc_enabled=_get_bool(section, "agc_enabled", False, "detector"),
            phase_jitter_std=_get_number(section, "phase_jitter_std", 0.0,
                                         "detector", minimum=0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"detector: {exc}") from None


def _parse_source(entry, path: str) -> Source:
    section = _expect_mapping(entry, path)
    kind = section.get("kind", "far_field")
    if kind == "far_field":
        _reject_unknown(
            section,
            {"kind", "theta_deg", "phi_deg", "amplitude", "phase_rad", "frequency_tag"},
            path,
        )
        if "theta_deg" not in section or "phi_deg" not in section:
            raise ConfigError(f"{path}: far_field source needs theta_deg and phi_deg")
        theta = _get_number(section, "theta_deg", None, path)
        phi = _get_number(section, "phi_deg", None, path)
        try:
            return Source.far_field(
                AngularLocation(theta, phi),
                amplitude=_get_number(section, "amplitude", 1.0, path, minimum=0.0),
                phase_rad=_get_number(section, "phase_rad", 0.0, path),
                frequency_tag=_get_int(section, "frequency_tag", 0, path, minimum=0),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if kind == "near_field":
        _reject_unknown(
            section,
            {"kind", "position_m", "amplitude", "phase_rad", "frequency_tag"},
            path,
        )
        pos = _numbers(section.get("position_m"), f"{path}.position_m",
                       "[x_m, y_m, z_m]", length=3)
        try:
            return Source.near_field(
                pos,
                amplitude=_get_number(section, "amplitude", 1.0, path, minimum=0.0),
                phase_rad=_get_number(section, "phase_rad", 0.0, path),
                frequency_tag=_get_int(section, "frequency_tag", 0, path, minimum=0),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}.kind: expected 'far_field' or 'near_field'")


def _default_sources() -> tuple:
    return (
        Source.far_field(AngularLocation(0.0, 0.0)),
        Source.far_field(AngularLocation(0.0, 30.0)),
    )


def _parse_locations(section: dict, key: str, default: tuple, path: str) -> tuple:
    if key not in section:
        return default
    value = section[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}.{key}: expected a non-empty list of angle pairs")
    return tuple(
        _angle_pair(entry, f"{path}.{key}[{i}]") for i, entry in enumerate(value)
    )


def parse_config(document: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    root = _expect_mapping(document, "config")
    _reject_unknown(
        root,
        {"geometry", "detector", "sources", "localization", "experiment"},
        "config",
    )
    geometry = _parse_geometry(_expect_mapping(root.get("geometry", {}), "geometry"))
    detector = _parse_detector(_expect_mapping(root.get("detector", {}), "detector"))
    if "sources" in root:
        raw = root["sources"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("sources: expected a non-empty list")
        sources = tuple(
            _parse_source(entry, f"sources[{i}]") for i, entry in enumerate(raw)
        )
    else:
        sources = _default_sources()

    loc = _expect_mapping(root.get("localization", {}), "localization")
    _reject_unknown(
        loc, {"zero_pad_factor", "dc_guard", "significance_threshold"}, "localization"
    )
    zero_pad_factor = _get_int(loc, "zero_pad_factor", ExperimentConfig.zero_pad_factor,
                               "localization", minimum=1)
    dc_guard = _get_int(loc, "dc_guard", ExperimentConfig.dc_guard, "localization",
                        minimum=0)
    significance_threshold = _get_number(
        loc, "significance_threshold", ExperimentConfig.significance_threshold,
        "localization", minimum=0.0)

    section = _expect_mapping(root.get("experiment", {}), "experiment")
    _reject_unknown(
        section,
        {
            "trials",
            "seed",
            "output_dir",
            "bs_locations_deg",
            "ue_locations_deg",
            "gain_phi_deg",
            "ber_snr_db",
            "ber_gain_db",
            "ber_modulation_order",
        },
        "experiment",
    )
    output_dir = section.get("output_dir", RunConfig.output_dir)
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("experiment.output_dir: expected a non-empty string")
    gain_phi = section.get("gain_phi_deg")
    if gain_phi is None:
        gain_phi = RunConfig.gain_phi_deg
    else:
        gain_phi = _numbers(gain_phi, "experiment.gain_phi_deg", "a list of degrees")
    snr = section.get("ber_snr_db")
    if snr is None:
        snr = RunConfig.ber_snr_db
    else:
        snr = _numbers(snr, "experiment.ber_snr_db", "a list of dB values")
    order = _get_int(section, "ber_modulation_order", RunConfig.ber_modulation_order,
                     "experiment", minimum=4)
    if order not in (4, 16, 64):
        raise ConfigError("experiment.ber_modulation_order: expected 4, 16, or 64")
    experiment = ExperimentConfig(
        geometry=geometry,
        detector=detector,
        trials=_get_int(section, "trials", ExperimentConfig.trials, "experiment",
                        minimum=1),
        seed=_get_int(section, "seed", ExperimentConfig.seed, "experiment", minimum=0),
        bs_locations=_parse_locations(
            section, "bs_locations_deg", paper_bs_locations(), "experiment"
        ),
        ue_locations=_parse_locations(
            section, "ue_locations_deg", paper_ue_locations(), "experiment"
        ),
        zero_pad_factor=zero_pad_factor,
        dc_guard=dc_guard,
        significance_threshold=significance_threshold,
    )
    return RunConfig(
        experiment=experiment,
        sources=sources,
        output_dir=output_dir,
        gain_phi_deg=gain_phi,
        ber_snr_db=snr,
        ber_gain_db=_get_number(section, "ber_gain_db", RunConfig.ber_gain_db,
                                "experiment"),
        ber_modulation_order=order,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON: {exc}") from None
    return parse_config(document)


def config_as_dict(cfg: RunConfig) -> dict:
    """Canonical dict form of a validated config, for manifests."""
    sources = []
    for s in cfg.sources:
        entry = {
            "kind": s.kind,
            "amplitude": s.amplitude,
            "phase_rad": s.phase_rad,
            "frequency_tag": s.frequency_tag,
        }
        if s.kind == "far_field":
            entry["theta_deg"] = s.angles.theta_deg
            entry["phi_deg"] = s.angles.phi_deg
        else:
            entry["position_m"] = list(s.position)
        sources.append(entry)
    exp = cfg.experiment
    return {
        "geometry": {
            "n_z": exp.geometry.n_z,
            "n_x": exp.geometry.n_x,
            "d_z_m": exp.geometry.d_z_m,
            "d_x_m": exp.geometry.d_x_m,
            "f_c_hz": exp.geometry.f_c_hz,
        },
        "detector": {
            "noise_std": exp.detector.noise_std,
            "floor": exp.detector.floor,
            "ceiling": (
                None if math.isinf(exp.detector.ceiling) else exp.detector.ceiling
            ),
            "agc_enabled": exp.detector.agc_enabled,
            "phase_jitter_std": exp.detector.phase_jitter_std,
        },
        "sources": sources,
        "localization": {
            "zero_pad_factor": exp.zero_pad_factor,
            "dc_guard": exp.dc_guard,
            "significance_threshold": exp.significance_threshold,
        },
        "experiment": {
            "trials": exp.trials,
            "seed": exp.seed,
            "output_dir": cfg.output_dir,
            "bs_locations_deg": [[b.theta_deg, b.phi_deg] for b in exp.bs_locations],
            "ue_locations_deg": [[u.theta_deg, u.phi_deg] for u in exp.ue_locations],
            "gain_phi_deg": list(cfg.gain_phi_deg),
            "ber_snr_db": list(cfg.ber_snr_db),
            "ber_gain_db": cfg.ber_gain_db,
            "ber_modulation_order": cfg.ber_modulation_order,
        },
    }
