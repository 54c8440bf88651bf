"""Run configuration: a closed JSON schema over the pipeline knobs.

A configuration document is a JSON object with optional sections
geometry, detector, sources, localization, and experiment.  Each section's
keys are listed once, in a table below, and read in table order; a key
left out takes the default of the dataclass attribute it sets.  Unknown
keys are rejected with the offending field path so typos never silently
fall back to defaults, and every number must be finite.  Its bounds are
the rules of the type a value is set on, reported at the key's path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

from .errors import ConfigError
from .experiments import ExperimentConfig, _check_modulation_order
from .geometry import AngularLocation, default_geometry
from .wavefield import DetectorModel, Source, _front_position


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration document.

    ``experiment`` is the ExperimentConfig the suites take: the geometry,
    detector, localization section and the suite keys of the experiment
    section.  The other fields are what single commands need beside it; each
    gain_phi_deg azimuth is a user direction at theta 0, an AngularLocation.
    """

    experiment: ExperimentConfig
    sources: tuple
    output_dir: str = "holoris_out"
    gain_phi_deg: tuple = tuple(float(p) for p in range(-60, 61, 15))
    ber_snr_db: tuple = tuple(float(s) for s in range(-10, 31))
    ber_gain_db: float = 16.4
    ber_modulation_order: int = 64

    def __post_init__(self):
        for phi in self.gain_phi_deg:
            AngularLocation(0.0, phi)
        _check_modulation_order(self.ber_modulation_order)


class _Key(NamedTuple):
    """One key of a section table; it is also the name of the attribute it sets.

    ``type`` is bool, int, float or str (non-empty), or a function
    ``(value, path)`` that reads a key of another form.  Where ``null`` is
    set, a JSON null means the default.
    """

    name: str
    type: object
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


def _value(value, path: str, kind):
    """``value`` read as ``kind``, its JSON type and finiteness: the one reader
    of every table key.  Its bounds are the rules of the type it is set on."""
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
    return _float(value, path) if kind is float else value


def _set(owner, name: str, value, path: str):
    """``owner`` with attribute ``name`` set to ``value``, by its type's rules; a
    RunConfig sets the attributes it lacks on its experiment (without the unit
    suffix: bs_locations_deg sets bs_locations)."""
    if isinstance(owner, RunConfig) and not hasattr(owner, name):
        return replace(owner, experiment=_set(owner.experiment, name.removesuffix("_deg"),
                                              value, path))
    return _build(replace, path, owner, **{name: value})


def _read(owner, section: dict, table, prefix: str):
    """``owner`` with each key of ``table`` that ``section`` sets read and set in
    table order, at path ``prefix + name``."""
    for key in table:
        if key.name in section and not (key.null and section[key.name] is None):
            path = prefix + key.name
            owner = _set(owner, key.name, _value(section[key.name], path, key.type), path)
    return owner


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


# Each table lists its keys in read order.  A key is set on a value whose
# later keys still hold their defaults, and of several errors the first met is
# reported: the detector's rules on one key come before those comparing two.
_GEOMETRY = (
    _Key("f_c_hz", int),
    _Key("n_z", int),
    _Key("n_x", int),
    _Key("d_z_m", float),
    _Key("d_x_m", float),
)
_DETECTOR = (
    _Key("noise_std", float),
    _Key("floor", float),
    _Key("phase_jitter_std", float),
    _Key("ceiling", float, null=True),  # the default is unbounded
    _Key("agc_enabled", bool),
)
_SOURCE = (  # the keys both source kinds take
    _Key("amplitude", float),
    _Key("phase_rad", float),
    _Key("frequency_tag", int),
)
_LOCALIZATION = (
    _Key("zero_pad_factor", int),
    _Key("dc_guard", int),
    _Key("significance_threshold", float),
)
# The experiment section sets RunConfig and ExperimentConfig attributes; its location
# lists carry their unit in the key (bs_locations_deg sets bs_locations).
_EXPERIMENT = (
    _Key("output_dir", str),
    _Key("gain_phi_deg", partial(_numbers, expected="a list of degrees"), null=True),
    _Key("ber_snr_db", partial(_numbers, expected="a list of dB values"), null=True),
    _Key("ber_modulation_order", int),
    _Key("seed", int),
    _Key("bs_locations_deg", _locations),
    _Key("ue_locations_deg", _locations),
    _Key("trials", int),  # after the grid its seeds are counted for
    _Key("ber_gain_db", float),
)


def _section(root: dict, name: str, table, owner):
    """``owner`` with section ``name`` of the document read onto it by ``table``."""
    section = _expect_mapping(root.get(name, {}), name)
    _reject_unknown(section, [key.name for key in table], name)
    return _read(owner, section, table, f"{name}.")


# A broadside reference: the default a source's keys are set on.
_REFERENCE = Source.far_field(AngularLocation(0.0, 0.0))


def _parse_source(entry, path: str) -> Source:
    section = _expect_mapping(entry, path)
    kind = section.get("kind", "far_field")
    shared = [key.name for key in _SOURCE]
    if kind == "far_field":
        _reject_unknown(section, ["kind", "theta_deg", "phi_deg", *shared], path)
        if "theta_deg" not in section or "phi_deg" not in section:
            raise ConfigError(f"{path}: far_field source needs theta_deg and phi_deg")
        where = {"angles": _build(AngularLocation, path, *(
            _value(section[k], f"{path}.{k}", float) for k in ("theta_deg", "phi_deg")
        ))}
    elif kind == "near_field":
        _reject_unknown(section, ["kind", "position_m", *shared], path)
        position = _numbers(section.get("position_m"), f"{path}.position_m",
                            "[x_m, y_m, z_m]", length=3)
        where = {"kind": "near_field", "angles": None}
    else:
        raise ConfigError(f"{path}.kind: expected 'far_field' or 'near_field'")
    # the shared keys are read before the position is held to the source's rules
    source = _read(_REFERENCE, section, _SOURCE, f"{path}.")
    if kind == "near_field":
        where["position"] = _build(_front_position, f"{path}.position_m", position)
    return _build(replace, path, source, **where)


def parse_config(document: dict, *, seed=None, trials=None) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig.

    Each section is set on the type that holds it one key at a time, in
    table order, from that type's defaults; the first key its type rejects
    is reported.  The geometry is set on the ExperimentConfig, at path
    ``geometry``, before the localization keys.  ``seed`` and ``trials``,
    where not None, are set after the whole document by the same rules, at
    the CLI flag's name (``--seed``, ``--trials``).
    """
    root = _expect_mapping(document, "config")
    _reject_unknown(root, ("geometry", "detector", "sources", "localization", "experiment"),
                    "config")
    geometry = _section(root, "geometry", _GEOMETRY, default_geometry())
    detector = _section(root, "detector", _DETECTOR, DetectorModel())
    if "sources" in root:
        raw = root["sources"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("sources: expected a non-empty list")
        sources = tuple(_parse_source(entry, f"sources[{i}]") for i, entry in enumerate(raw))
    else:  # a broadside reference and a user at (0, 30)
        sources = (_REFERENCE, Source.far_field(AngularLocation(0.0, 30.0)))
    experiment = _build(ExperimentConfig, "geometry", geometry=geometry, detector=detector)
    experiment = _section(root, "localization", _LOCALIZATION, experiment)
    run = _section(root, "experiment", _EXPERIMENT,
                   RunConfig(experiment=experiment, sources=sources))
    flags = {"seed": seed, "trials": trials}
    return _read(run, {k: v for k, v in flags.items() if v is not None}, _EXPERIMENT, "--")


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; ConfigError if a key repeats, as json
    would otherwise keep only its last value."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise ConfigError(f"duplicate key {key!r}")
        document[key] = value
    return document


def load_config(path, *, seed=None, trials=None) -> RunConfig:
    """Read and validate a JSON configuration file; see ``parse_config``.
    An object that repeats a key is a ConfigError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        document = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, or an integer literal beyond
        # Python's digit limit; RecursionError: arrays or objects nested
        # deeper than the decoder's recursion limit.
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
