"""Coherent field synthesis and the power-detector hologram model.

Each detector reports intensity |sum of incident fields|^2.  Two coherent
sources sharing a frequency tag produce an interference hologram whose
fringe frequency is the difference of their spatial frequencies; sources on
different tags are separated ideally and never mix.

Spherical waves follow the exp(i*(phase - k0*r)) convention.  The far-field
limit of a near-field source therefore matches the plane-wave form used by
``spatial_frequencies``, which keeps hologram fringes, localization, and
beamforming mutually consistent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInterference, FileFormatError
from .geometry import (
    AngularLocation,
    ArrayGeometry,
    _check_bytes,
    _check_integer,
    _real,
    element_positions,
    spatial_frequencies,
)

_HOLOGRAM_MAGIC = "# holoris-hologram v1"
# synthesize_trials' work arrays, in bytes per panel element
_FIELD_BYTES = 16  # a complex source field, or the sum of all fields but the last
_CAPTURE_BYTES = 16 + 8 + 8  # per capture: its complex total, intensity and noise
# a near field's float64 positions, their offsets and squares, the summed squares and roots
_NEAR_FIELD_BYTES = 3 * 24 + 2 * 8
_HOLOGRAM_BYTES = 8  # a Hologram's float64 values, per panel element


# A near-field point's distance from the panel centre, in meters.  Beyond
# 1e9 m float64 distances are spaced 1.2e-7 m, so the phase k0*r keeps no
# more than ~1e-5 rad at 3.5 GHz (~2.5e-3 rad at 1 THz), and a farther point
# has no phase its direction lacks.  The spreading r/|position| divides by
# the distance, whose square underflows below ~1e-154 m; 1e-9 m is far
# nearer than any point the spherical model is meant for.
_MIN_RANGE_M, _MAX_RANGE_M = 1e-9, 1e9


def _front_position(position) -> np.ndarray:
    """``position`` as a finite 3-vector in front of the panel (y > 0), meters,
    _MIN_RANGE_M to _MAX_RANGE_M from its centre."""
    pos = np.asarray(_real("position", position), dtype=float)
    if pos.shape != (3,) or not np.isfinite(pos).all():
        raise ValueError(f"position must be a finite 3-vector, got {position!r}")
    if pos[1] <= 0:
        raise ValueError("source must lie in front of the panel (y > 0)")
    if not _MIN_RANGE_M <= math.hypot(*pos) <= _MAX_RANGE_M:
        raise ValueError(f"position must lie {_MIN_RANGE_M:g} to {_MAX_RANGE_M:g} m from "
                         f"the panel centre, got {position!r}")
    return pos


# A received power is |the sum of one source's field over the panel|**2, at
# most (amplitude*n_z*n_x)**2: this bound keeps it below the float range,
# (1e146 * 2**31/24)**2 ~ 8e307, over the largest panel _check_bytes admits.
_MAX_AMPLITUDE = 1e146


@dataclass(frozen=True)
class Source:
    """One coherent emitter illuminating the panel.

    kind is "far_field" (direction only) or "near_field" (finite 3D position
    with y > 0, meters, held to _front_position).  amplitude is finite, >= 0
    and at most _MAX_AMPLITUDE, phase_rad finite, and
    frequency_tag an integer >= 0 that converts to a float.  Sources
    interfere only with sources sharing their frequency_tag.
    """

    kind: str
    angles: AngularLocation | None = None
    position: np.ndarray | None = None
    amplitude: float = 1.0
    phase_rad: float = 0.0
    frequency_tag: int = 0

    def __post_init__(self):
        if self.kind not in ("far_field", "near_field"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "far_field" and self.angles is None:
            raise ValueError("far_field source requires angles")
        if self.kind == "near_field":
            if self.position is None:
                raise ValueError("near_field source requires a position")
            object.__setattr__(self, "position", _front_position(self.position))
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude!r}")
        if self.amplitude > _MAX_AMPLITUDE:
            raise ValueError(f"amplitude must be at most {_MAX_AMPLITUDE:g}, "
                             f"got {self.amplitude!r}")
        if not math.isfinite(self.phase_rad):
            raise ValueError(f"phase_rad must be finite, got {self.phase_rad!r}")
        _check_integer("frequency_tag", self.frequency_tag, 0)

    @staticmethod
    def far_field(
        angles: AngularLocation,
        amplitude: float = 1.0,
        phase_rad: float = 0.0,
        frequency_tag: int = 0,
    ) -> "Source":
        return Source(
            kind="far_field",
            angles=angles,
            amplitude=amplitude,
            phase_rad=phase_rad,
            frequency_tag=frequency_tag,
        )

    @staticmethod
    def near_field(
        position,
        amplitude: float = 1.0,
        phase_rad: float = 0.0,
        frequency_tag: int = 0,
    ) -> "Source":
        return Source(
            kind="near_field",
            position=position,
            amplitude=amplitude,
            phase_rad=phase_rad,
            frequency_tag=frequency_tag,
        )


@dataclass(frozen=True)
class DetectorModel:
    """Power-detector imperfections applied to ideal intensities.

    noise_std, floor and phase_jitter_std are finite and >= 0.
    noise_std: std of additive Gaussian noise on intensity.
    floor/ceiling: reporting range; sub-floor values clamp to floor,
        values above ceiling saturate.
    agc_enabled: rescale each captured hologram so its maximum maps to
        ceiling, preserving relative intensity magnitudes (requires a
        finite ceiling).
    phase_jitter_std: std (radians) of a per-capture global phase offset
        applied to one source of each tag, modeling imperfect carrier
        synchronization between sources.
    """

    noise_std: float = 0.0
    floor: float = 0.0
    ceiling: float = math.inf
    agc_enabled: bool = False
    phase_jitter_std: float = 0.0

    def __post_init__(self):
        for name in ("noise_std", "floor", "phase_jitter_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not self.ceiling > self.floor:
            raise ValueError("ceiling must exceed floor")
        if self.agc_enabled and not math.isfinite(self.ceiling):
            raise ValueError("agc_enabled requires a finite ceiling")

    @staticmethod
    def ideal() -> "DetectorModel":
        return DetectorModel()


@dataclass(frozen=True)
class Hologram:
    """Captured intensity matrix for one frequency tag.

    values is a read-only float copy, so the checks made here hold for the
    hologram's lifetime; a complex array is a ValueError, not a warning that
    drops its imaginary part.  frequency_tag follows the rule of
    Source.frequency_tag.
    """

    values: np.ndarray
    geometry: ArrayGeometry
    frequency_tag: int = 0

    def __post_init__(self):
        _check_integer("frequency_tag", self.frequency_tag, 0)
        values = np.array(_real("Hologram values", self.values), dtype=float)
        if values.shape != self.geometry.shape:
            raise ValueError(
                f"values shape {values.shape} does not match geometry "
                f"{self.geometry.shape}"
            )
        _intensity_sums(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _intensity_sums(values: np.ndarray) -> np.ndarray:
    """The sum of each trailing (n_z, n_x) capture of values.

    Raises ValueError unless every intensity is finite and non-negative and
    every sum is finite (finite intensities can still sum beyond the float
    range, and the spectral analysis takes each capture's mean).
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("hologram intensities must be finite")
    if np.any(values < 0):
        raise ValueError("hologram intensities must be non-negative")
    with np.errstate(over="ignore"):
        sums = values.sum(axis=(-2, -1))
    if not np.all(np.isfinite(sums)):
        raise ValueError("hologram intensity sum overflows the float range")
    return sums


def complex_field_at_array(source: Source, geom: ArrayGeometry) -> np.ndarray:
    """Complex field of one source at every element, shape (n_z, n_x).

    far_field: amplitude * exp(i*(phase + m*omega_z + n*omega_x)) with the
    spatial frequencies of the source direction (m, n zero-based here; the
    index origin only shifts a global phase), built as the outer product of
    its z and x factors, so n_z + n_x complex exps.

    near_field: amplitude * exp(i*(phase - k0*r_mn)) / max(r_mn/r_ref, 1)
    with r_mn the element distance and r_ref the distance to the panel
    center, so spherical spreading is normalized to the center distance and
    never amplifies.
    """
    if source.kind == "far_field":
        freqs = spatial_frequencies(source.angles, geom)
        along_z = np.exp(1j * (source.phase_rad + np.arange(geom.n_z) * freqs.omega_z))
        along_x = np.exp(1j * (np.arange(geom.n_x) * freqs.omega_x))
        return np.outer(source.amplitude * along_z, along_x)
    pos = element_positions(geom)
    r = np.linalg.norm(pos - source.position[np.newaxis, np.newaxis, :], axis=2)
    r_ref = float(np.linalg.norm(source.position))
    spreading = np.maximum(r / r_ref, 1.0)
    return (
        source.amplitude
        * np.exp(1j * (source.phase_rad - geom.wavenumber * r))
        / spreading
    )


def _tag_signature(source: Source, geom: ArrayGeometry):
    if source.kind == "far_field":
        f = spatial_frequencies(source.angles, geom)
        return ("far_field", f.omega_z, f.omega_x)
    return ("near_field", *source.position.tolist())


def _synthesis_bytes(trials: int, kinds) -> int:
    """synthesize_trials' work arrays in bytes per panel element, for sources of
    the given kinds: a field per source, their sum and trials captures or,
    if larger, a near field's build beside the fields built before it.  A
    near field's temporaries are freed before the captures are made."""
    kinds = list(kinds)
    captures = _FIELD_BYTES * (len(kinds) + 1) + _CAPTURE_BYTES * trials
    near = _FIELD_BYTES * (len(kinds) - 1) + _NEAR_FIELD_BYTES if "near_field" in kinds else 0
    return max(captures, near)


def _check_synthesis(shape, item_bytes: int) -> None:
    """Raise ValueError unless _check_bytes admits item_bytes per element of a panel of shape."""
    _check_bytes("synthesis of n_z*n_x", math.prod(shape), item_bytes)


def synthesize_trials(
    sources,
    geom: ArrayGeometry,
    detector: DetectorModel | None,
    seeds,
) -> np.ndarray:
    """Captures of one frequency tag, one per seed, shape (T, n_z, n_x).

    Each of seeds is anything np.random.default_rng takes: a seed, or a
    Generator, which capture t then draws from as it is.  All sources must
    share one frequency tag; the work arrays are held to _check_synthesis
    before any generator is built.  The source fields are computed once and
    the stack formed by broadcasting: the sum of all fields but the last,
    plus the last times each capture's exp(1j*jitter) (1 without jitter,
    which at most flips the sign of a zero that abs erases).  The detector
    then adds Gaussian noise, clamps to [floor, ceiling] and optionally
    scales each capture by ceiling/max (an all-zero capture by 1).  Each
    capture draws from its own generator, jitter scalar first and then the
    noise matrix, so it depends only on that generator's state.

    Emits DegenerateInterference when all sources share one spatial
    signature (the captures then carry no fringes).
    """
    if detector is None:
        detector = DetectorModel.ideal()
    sources = list(sources)
    if not sources:
        raise ValueError("at least one source is required")
    if len({s.frequency_tag for s in sources}) != 1:
        raise ValueError("synthesize_trials takes the sources of one frequency tag")
    _check_synthesis(geom.shape, _synthesis_bytes(len(seeds), (s.kind for s in sources)))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if len({_tag_signature(s, geom) for s in sources}) == 1:
        warnings.warn(
            f"tag {sources[0].frequency_tag}: all sources share one spatial "
            "signature; hologram carries no interference fringes",
            DegenerateInterference,
            stacklevel=2,
        )
    fields = [complex_field_at_array(s, geom) for s in sources]
    head = np.zeros(geom.shape, dtype=complex)
    for fld in fields[:-1]:
        head += fld
    jitters = np.zeros(len(rngs))
    if detector.phase_jitter_std > 0:
        jitters[:] = [detector.phase_jitter_std * rng.standard_normal() for rng in rngs]
    total = np.multiply(fields[-1], np.exp(1j * jitters)[:, np.newaxis, np.newaxis])
    total += head
    intensity = np.abs(total)
    np.square(intensity, out=intensity)
    if detector.noise_std > 0:
        noise = np.empty_like(intensity)
        for rng, out in zip(rngs, noise):
            rng.standard_normal(out=out)
        noise *= detector.noise_std
        intensity += noise
    np.clip(intensity, detector.floor, detector.ceiling, out=intensity)
    if detector.agc_enabled:
        peaks = intensity.max(axis=(1, 2))
        peaks[peaks == 0] = detector.ceiling
        intensity *= (detector.ceiling / peaks)[:, np.newaxis, np.newaxis]
    return intensity


def synthesize_hologram(
    sources,
    geom: ArrayGeometry,
    detector: DetectorModel | None = None,
    seed: int = 0,
) -> list[Hologram]:
    """Capture one hologram per distinct frequency tag, sorted by tag.

    Each tag, in ascending order, is synthesize_trials of its sources, with
    its checks and warning, on one generator seeded with seed, which serves
    the tags in turn; identical inputs and seed yield bit-identical holograms.
    Before any generator or field is built, the holograms of all tags but the
    last, which are alive while a later tag is synthesized, and the largest
    tag's work arrays are held to _check_synthesis together; the last tag's
    intensity is already in that work.
    """
    sources = list(sources)
    # no tag at all still reaches synthesize_trials, which rejects an empty source list
    tags = sorted({s.frequency_tag for s in sources}) or [0]
    groups = [[s for s in sources if s.frequency_tag == tag] for tag in tags]
    _check_synthesis(geom.shape, _HOLOGRAM_BYTES * (len(tags) - 1)
                     + max(_synthesis_bytes(1, (s.kind for s in group)) for group in groups))
    rng = np.random.default_rng(seed)
    return [Hologram(synthesize_trials(group, geom, detector, [rng])[0], geom, tag)
            for tag, group in zip(tags, groups)]


def _write_lines(path, lines) -> None:
    """Write each line followed by a newline: the one text writer of holoris."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_MISSING = "none"  # how every holoris text file spells a missing number


def _number(value) -> str:
    """A number as holoris text files spell it: repr(float), or none for None."""
    return _MISSING if value is None else repr(float(value))


def _float_rows(matrix: np.ndarray):
    """The rows of a 2D float array, each as comma-separated repr(float) values."""
    return (",".join(map(repr, row.tolist())) for row in matrix)


def _write_matrix_file(path, magic: str, header, fields, rows) -> None:
    """Write the magic line, one '# key=value' line per header key, then the rows.

    The holoris text formats (hologram CSV, coding file, spectrum CSV) all
    share this layout.  header is the format's table of (key, number form)
    pairs in file order, and a key's value is its form of fields[key]; rows
    are the already formatted data lines.
    """
    _write_lines(path, [magic, *(f"# {key}={form(fields[key])}" for key, form in header),
                        *rows])


# The hologram header, (key, number form) in file order, as both
# write_hologram_csv and read_hologram_csv follow it: the geometry's fields,
# then the hologram's frequency_tag.
_HOLOGRAM_HEADER = (("f_c_hz", int), ("d_x_m", float), ("d_z_m", float),
                    ("n_x", int), ("n_z", int), ("frequency_tag", int))


def write_hologram_csv(path, holo: Hologram) -> None:
    """Write a hologram in the v1 interchange format.

    Header lines pin the capture geometry; data lines are n_z rows of n_x
    comma-separated intensities in shortest round-trip decimal form, row
    index along z.
    """
    fields = {**vars(holo.geometry), "frequency_tag": holo.frequency_tag}
    _write_matrix_file(path, _HOLOGRAM_MAGIC, _HOLOGRAM_HEADER, fields,
                       _float_rows(holo.values))


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; FileFormatError at an undecodable line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # The bytes before the first bad one decode; the bad byte sits on the
        # line a character appended to them would start or continue.
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise FileFormatError(f"not UTF-8 text: {exc.reason}", lineno) from None


def _at_line(make, lineno: int, *args, **kwargs):
    """``make(*args, **kwargs)``, with its ValueError a FileFormatError at ``lineno``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise FileFormatError(str(exc), lineno) from None


# A 1x1 panel and a hologram on it: the references a file's header values are
# set on, so that each is held to the rule of the type that holds it.
_REFERENCE_PANEL = ArrayGeometry(n_z=1, n_x=1, d_z_m=1.0, d_x_m=1.0, f_c_hz=1)
_REFERENCE_HOLOGRAM = Hologram(values=np.zeros((1, 1)), geometry=_REFERENCE_PANEL)


def _read_matrix_file(path, magic: str, header, sep: str, form, make, check):
    """make(values, geometry, fields) of a file written by _write_matrix_file.

    Only the layout is checked here: the magic line, one '# key=value' line
    per (key, number form) pair of the header table, then n_z data lines of
    n_x cells, split at sep ('' for one cell per character), each read by
    form.  Each header value is set, in file order, on the 1x1 reference
    panel, or the key a panel lacks on the reference hologram, so it is held
    to its type's rule at its line; the panel so built is make's geometry.
    When make rejects the values, the error is check's at the first row k
    whose prefix values[:k] check rejects, found by bisection: a rejected prefix stays
    rejected as rows are added, but for a sum overflowing near the float maximum (numpy
    sums each prefix in its own order).  Every error is a FileFormatError at its line.
    """
    lines = _read_lines(path)
    if not lines or lines[0] != magic:
        raise FileFormatError(f"missing magic header {magic!r}", 1)
    geom, fields = _REFERENCE_PANEL, {}
    for lineno, (key, key_form) in enumerate(header, start=2):
        if lineno > len(lines):
            raise FileFormatError("truncated header", len(lines))
        line, prefix = lines[lineno - 1], f"# {key}="
        if not line.startswith(prefix):
            raise FileFormatError(f"expected header {prefix!r}, got {line!r}", lineno)
        fields[key] = value = _at_line(key_form, lineno, line[len(prefix):])
        if hasattr(geom, key):
            geom = _at_line(replace, lineno, geom, **{key: value})
        else:
            _at_line(replace, lineno, _REFERENCE_HOLOGRAM, **{key: value})
    first = len(header) + 2
    data = lines[first - 1:]
    if len(data) != geom.n_z:
        raise FileFormatError(f"expected {geom.n_z} data rows, found {len(data)}", len(lines))
    rows = []
    for lineno, line in enumerate(data, start=first):
        cells = line.split(sep) if sep else line
        if len(cells) != geom.n_x:
            raise FileFormatError(f"expected {geom.n_x} values, found {len(cells)}", lineno)
        rows.append(_at_line(list, lineno, map(form, cells)))
    values = np.array(rows)
    try:
        return make(values, geom, fields)
    except ValueError:
        lo, hi = 0, len(values)  # check accepts values[:lo]; values[:hi] is rejected, as make did
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                check(values[:mid])
            except ValueError:
                hi = mid
            else:
                lo = mid
        _at_line(check, first + hi - 1, values[:hi])
        raise


def read_hologram_csv(path) -> Hologram:
    """Parse a v1 hologram file; FileFormatError carries the line number."""
    return _read_matrix_file(
        path, _HOLOGRAM_MAGIC, _HOLOGRAM_HEADER, ",", float,
        lambda values, geom, fields: Hologram(values, geom, fields["frequency_tag"]),
        _intensity_sums,
    )
