"""Run configuration: a strict JSON schema over the pipeline knobs.

A configuration document is a JSON object with optional sections
geometry, detector, sources, localization, and experiment.  Each section's
keys are listed once, in a table below, and read in table order; a key
left out takes the default of the dataclass attribute it sets.  Unknown
keys are rejected with the offending field path so typos never silently
fall back to defaults, and every number must be finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .experiments import ExperimentConfig
from .geometry import AngularLocation, default_geometry
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


class _Key(NamedTuple):
    """One key of a section table; it is also the name of the attribute it sets.

    ``type`` is bool, int, float or str (non-empty), or a function
    ``(value, path)`` that reads a key of another form.  A number below
    ``minimum``, or equal to it when ``strict``, is rejected.  Where ``null``
    is set, a JSON null means the default.
    """

    name: str
    type: object
    minimum: float | None = None
    strict: bool = False
    null: bool = False


_EXPECTED = {bool: "true or false", int: "an integer", float: "a number",
             str: "a non-empty string"}


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _reject_unknown(section: dict, allowed, path: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key")


def _build(cls, path: str, *args, **kwargs):
    """``cls(*args, **kwargs)``, with its ValueError reported at ``path``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _float(value, path: str) -> float:
    """A JSON number as a finite float; an integer beyond the float range is rejected."""
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: too large to convert to a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {number!r}")
    return number


def _value(value, path: str, kind, minimum=None, strict=False):
    """``value`` read as ``kind``: the one reader of every table key."""
    if kind not in _EXPECTED:
        return kind(value, path)
    if kind is bool:
        valid = isinstance(value, bool)
    elif kind is str:
        valid = isinstance(value, str) and value != ""
    else:  # a JSON true or false is no number
        accepted = (int, float) if kind is float else int
        valid = isinstance(value, accepted) and not isinstance(value, bool)
    if not valid:
        raise ConfigError(f"{path}: expected {_EXPECTED[kind]}")
    if kind is float:
        value = _float(value, path)
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise ConfigError(f"{path}: must be {'>' if strict else '>='} {minimum}")
    return value


def _read(section: dict, table, path: str) -> dict:
    """The keys of ``table`` that ``section`` sets, read in table order."""
    return {
        key.name: _value(section[key.name], f"{path}.{key.name}", key.type,
                         key.minimum, key.strict)
        for key in table
        if key.name in section and not (key.null and section[key.name] is None)
    }


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


def _locations(value, path: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of angle pairs")
    return tuple(
        _build(AngularLocation, f"{path}[{i}]",
               *_numbers(entry, f"{path}[{i}]", "[theta_deg, phi_deg]", length=2))
        for i, entry in enumerate(value)
    )


def _float_int(value, path: str, minimum: int) -> int:
    """An integer >= minimum that converts to a float."""
    number = _value(value, path, int, minimum)
    _float(number, path)
    return number


def _modulation_order(value, path: str) -> int:
    order = _value(value, path, int, 4)
    if order not in (4, 16, 64):
        raise ConfigError(f"{path}: expected 4, 16, or 64")
    return order


# Each table lists its keys in read order: of several errors, the first met is reported.
# The size bounds (n_z*n_x, zero_pad_factor, trials) run after their whole section is
# read, and the trials bound after the --seed and --trials flags are applied.
_GEOMETRY = (
    _Key("f_c_hz", partial(_float_int, minimum=1)),  # wavelength and wavenumber are floats
    _Key("n_z", int, 1),
    _Key("n_x", int, 1),
    _Key("d_z_m", float, 0.0, strict=True),
    _Key("d_x_m", float, 0.0, strict=True),
)
_DETECTOR = (
    _Key("noise_std", float, 0.0),
    _Key("floor", float, 0.0),
    _Key("ceiling", float, null=True),  # the default is unbounded
    _Key("agc_enabled", bool),
    _Key("phase_jitter_std", float, 0.0),
)
_SOURCE = (  # the keys both source kinds take
    _Key("amplitude", float, 0.0),
    _Key("phase_rad", float),
    _Key("frequency_tag", partial(_float_int, minimum=0)),  # as Hologram requires
)
_LOCALIZATION = (
    _Key("zero_pad_factor", int, 1),
    _Key("dc_guard", int, 0),
    _Key("significance_threshold", float, 0.0),
)
# The experiment section sets RunConfig and ExperimentConfig attributes; its location
# lists carry their unit in the key (bs_locations_deg sets bs_locations).
_EXPERIMENT = (
    _Key("output_dir", str),
    _Key("gain_phi_deg", partial(_numbers, expected="a list of degrees"), null=True),
    _Key("ber_snr_db", partial(_numbers, expected="a list of dB values"), null=True),
    _Key("ber_modulation_order", _modulation_order),
    _Key("trials", int, 1),
    _Key("seed", int, 0),
    _Key("bs_locations_deg", _locations),
    _Key("ue_locations_deg", _locations),
    _Key("ber_gain_db", float),
)


# The most elements an array can have: numpy indexes with np.intp.
_MAX_ELEMENTS = int(np.iinfo(np.intp).max)


def _check_elements(path: str, what: str, count: int) -> None:
    if count > _MAX_ELEMENTS:
        raise ConfigError(f"{path}: {what} must be at most {_MAX_ELEMENTS} elements")


def _section(root: dict, name: str, table) -> dict:
    """Section ``name`` of the document, read by ``table``."""
    section = _expect_mapping(root.get(name, {}), name)
    _reject_unknown(section, [key.name for key in table], name)
    return _read(section, table, name)


def _parse_source(entry, path: str) -> Source:
    section = _expect_mapping(entry, path)
    kind = section.get("kind", "far_field")
    shared = [key.name for key in _SOURCE]
    if kind == "far_field":
        _reject_unknown(section, ["kind", "theta_deg", "phi_deg", *shared], path)
        if "theta_deg" not in section or "phi_deg" not in section:
            raise ConfigError(f"{path}: far_field source needs theta_deg and phi_deg")
        make = Source.far_field
        where = _build(AngularLocation, path, *(
            _value(section[k], f"{path}.{k}", float) for k in ("theta_deg", "phi_deg")
        ))
    elif kind == "near_field":
        _reject_unknown(section, ["kind", "position_m", *shared], path)
        make = Source.near_field
        where = _numbers(section.get("position_m"), f"{path}.position_m",
                         "[x_m, y_m, z_m]", length=3)
    else:
        raise ConfigError(f"{path}.kind: expected 'far_field' or 'near_field'")
    return _build(make, path, where, **_read(section, _SOURCE, path))


def parse_config(document: dict, *, seed=None, trials=None) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    ``seed`` and ``trials``, where not None, replace the experiment keys of
    the same name and are read by the same rules, with the CLI flag
    (``--seed``, ``--trials``) as their path.  Keys are read in table order;
    the size bounds on ``n_z*n_x``, ``zero_pad_factor`` and ``trials`` run
    after their whole section is read (for ``trials``, after the flags are
    applied), so another error in that section is reported first.  The flags
    are read after the whole document, so an error anywhere in the document
    is reported before one in a flag.
    """
    root = _expect_mapping(document, "config")
    _reject_unknown(root, ("geometry", "detector", "sources", "localization", "experiment"),
                    "config")
    geometry = _build(replace, "geometry", default_geometry(),
                      **_section(root, "geometry", _GEOMETRY))
    n_z, n_x = geometry.shape
    _check_elements(f"geometry.{'n_z' if n_z >= n_x else 'n_x'}", "n_z*n_x", n_z * n_x)
    detector = _build(DetectorModel, "detector", **_section(root, "detector", _DETECTOR))
    if "sources" in root:
        raw = root["sources"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("sources: expected a non-empty list")
        sources = tuple(_parse_source(entry, f"sources[{i}]") for i, entry in enumerate(raw))
    else:  # a broadside reference and a user at (0, 30)
        sources = (Source.far_field(AngularLocation(0.0, 0.0)),
                   Source.far_field(AngularLocation(0.0, 30.0)))
    localization = _section(root, "localization", _LOCALIZATION)
    pad = localization.get("zero_pad_factor", ExperimentConfig.zero_pad_factor)
    _check_elements("localization.zero_pad_factor",
                    "(zero_pad_factor*n_z)*(zero_pad_factor*n_x)", pad * n_z * pad * n_x)
    values = _section(root, "experiment", _EXPERIMENT)
    flags = {"seed": seed, "trials": trials}
    values.update({key.name: _value(flags[key.name], f"--{key.name}", key.type,
                                    key.minimum, key.strict)
                   for key in _EXPERIMENT if flags.get(key.name) is not None})
    _check_elements("experiment.trials" if trials is None else "--trials", "trials*n_z*n_x",
                    values.get("trials", ExperimentConfig.trials) * n_z * n_x)
    run = {f.name: values.pop(f.name) for f in fields(RunConfig) if f.name in values}
    experiment = ExperimentConfig(
        geometry=geometry, detector=detector, **localization,
        **{name.removesuffix("_deg"): value for name, value in values.items()})
    return RunConfig(experiment=experiment, sources=sources, **run)


def load_config(path, *, seed=None, trials=None) -> RunConfig:
    """Read and validate a JSON configuration file; see ``parse_config``."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON: {exc}") from None
    return parse_config(document, seed=seed, trials=trials)


def _as_dict(owner, table) -> dict:
    """The attributes of ``owner`` that ``table`` names."""
    return {key.name: getattr(owner, key.name) for key in table if hasattr(owner, key.name)}


def config_as_dict(cfg: RunConfig) -> dict:
    """Canonical dict form of a validated config, for manifests."""
    exp = cfg.experiment
    detector = _as_dict(exp.detector, _DETECTOR)
    if math.isinf(detector["ceiling"]):
        detector["ceiling"] = None
    sources = []
    for s in cfg.sources:
        if s.kind == "far_field":
            where = {"theta_deg": s.angles.theta_deg, "phi_deg": s.angles.phi_deg}
        else:
            where = {"position_m": list(s.position)}
        sources.append({"kind": s.kind, **_as_dict(s, _SOURCE), **where})
    return {
        "geometry": _as_dict(exp.geometry, _GEOMETRY),
        "detector": detector,
        "sources": sources,
        "localization": _as_dict(exp, _LOCALIZATION),
        "experiment": {
            **_as_dict(exp, _EXPERIMENT),
            **_as_dict(cfg, _EXPERIMENT),
            "gain_phi_deg": list(cfg.gain_phi_deg),
            "ber_snr_db": list(cfg.ber_snr_db),
            "bs_locations_deg": [[b.theta_deg, b.phi_deg] for b in exp.bs_locations],
            "ue_locations_deg": [[u.theta_deg, u.phi_deg] for u in exp.ue_locations],
        },
    }
