"""Reflection phase profiles, 1-bit coding, and link evaluation.

A continuous profile is the conjugate of the total element phase picked up
on the reference-to-element and element-to-target legs, so applying it
aligns every element's contribution at the target.  One-bit hardware
quantizes that profile to the nearer of the two realizable states 0 and pi,
costing about (pi^2)/4 (3 to 5 dB) of target power.  All phases follow the
exp(i*(phase - k0*r)) propagation convention of the wavefield module;
negating a profile leaves its 1-bit quantization unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    AngularLocation,
    ArrayGeometry,
    _check_bytes,
    _first_tied,
    _frequency_grid,
    _real,
    element_positions,
    unit_direction,
)
from .wavefield import (
    Source,
    _front_position,
    _read_matrix_file,
    _write_matrix_file,
    complex_field_at_array,
)

_CODING_MAGIC = "# holoris-coding v1"
# The most plan rows by phi columns a block of pattern's x axis holds, unless
# one plan row holds more.  Its sums then take at most 64 KB, half of glibc's
# default mmap threshold, so a call's transients fit in the heap its caller
# already holds: on the 121x121 grid of perfbench's closed-loop workload, one
# block of all 61 plan rows raised its peak RSS by ~0.4 MB and blocks of 16
# did not, at the same speed.
_BLOCK_POINTS = 2048
# exp(i*pi*s) for the states s = 0 and 1, built as a CodingMatrix's were.
_ONE_BIT_FACTORS = np.exp(1j * (math.pi * np.arange(2)))
_ONE_BIT_FACTORS.flags.writeable = False


@dataclass(frozen=True)
class PhaseProfile:
    """Continuous per-element reflection phases in radians, each finite."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(_real("PhaseProfile values", self.values), dtype=float)
        if values.ndim != 2:
            raise ValueError("phase profile must be a 2D matrix")
        if not np.isfinite(values).all():
            raise ValueError("phase profile must hold finite phases")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CodingMatrix:
    """Per-element 1-bit states; state s realizes phase pi*s.

    states is a non-empty 2D int8 copy of the given array, read-only so
    that every state stays the 0 or 1 checked here.
    """

    states: np.ndarray

    def __post_init__(self):
        states = _real("CodingMatrix states", self.states)
        if states.ndim != 2 or states.size == 0:
            raise ValueError("coding matrix must be 2D and non-empty")
        if not ((states == 0) | (states == 1)).all():
            raise ValueError("states must be 0 or 1")
        states = states.astype(np.int8)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @staticmethod
    def all_zero(shape: tuple[int, int]) -> "CodingMatrix":
        return CodingMatrix(states=np.zeros(shape, dtype=np.int8))


@dataclass(frozen=True)
class LinkGainResult:
    """Gain in dB over the baseline coding, with an underflow flag.

    baseline_floored marks runs whose baseline power underflowed and was
    replaced by a floor substitute, making gain_db a lower-bound-free
    diagnostic rather than a measured ratio.
    """

    gain_db: float
    baseline_floored: bool = False


@dataclass(frozen=True)
class PatternResult:
    """Received power over an angular grid plus beam diagnostics."""

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    power: np.ndarray
    peak: AngularLocation
    hpbw_theta_deg: float
    hpbw_phi_deg: float


def farfield_phase_profile(
    bs: AngularLocation, ue: AngularLocation, geom: ArrayGeometry
) -> PhaseProfile:
    """Continuous profile focusing a far reference onto a far target.

    phase(m, n) = -k0 * (u_bs + u_ue) . p_mn with u the unit vectors from
    the panel toward each terminal, i.e. the conjugate of the incident
    plus outgoing plane-wave phase at each element.
    """
    u_sum = unit_direction(bs) + unit_direction(ue)
    pos = element_positions(geom)
    values = -geom.wavenumber * (pos @ u_sum)
    return PhaseProfile(values=values)


def nearfield_phase_profile(bs_pos, ue_pos, geom: ArrayGeometry) -> PhaseProfile:
    """Continuous profile focusing between two points at finite range.

    phase(m, n) = k0 * (|bs_pos - p_mn| + |ue_pos - p_mn|), the conjugate
    of the spherical round-trip phase.  Converges to the far-field profile
    (up to a constant) as both ranges grow.  Both points must be finite and
    in front of the panel (y > 0), as a near-field ``Source`` must.
    """
    bs_pos, ue_pos = _front_position(bs_pos), _front_position(ue_pos)
    pos = element_positions(geom)
    r_bs = np.linalg.norm(pos - bs_pos, axis=2)
    r_ue = np.linalg.norm(pos - ue_pos, axis=2)
    return PhaseProfile(values=geom.wavenumber * (r_bs + r_ue))


def quantize_1bit(profile: PhaseProfile) -> CodingMatrix:
    """Quantize each phase to the nearer of the states {0, pi}.

    State 0 wins when the wrapped phase lies within [-pi/2, pi/2]; the
    ties at exactly +/-pi/2 resolve to state 0.
    """
    wrapped = profile.values - 2.0 * math.pi * np.round(profile.values / (2.0 * math.pi))
    return CodingMatrix(states=(np.abs(wrapped) > math.pi / 2).astype(np.int8))


def _target_field(ue, geom: ArrayGeometry) -> np.ndarray:
    """Unit-excitation propagation factor from every element to the target."""
    if isinstance(ue, AngularLocation):
        probe = Source.far_field(ue)
    else:
        probe = Source.near_field(ue)
    return complex_field_at_array(probe, geom)


def _reflection(phase, geom: ArrayGeometry) -> np.ndarray:
    """exp(i*phase) per element of a CodingMatrix (phase pi*state) or PhaseProfile.

    A CodingMatrix's factors are read from _ONE_BIT_FACTORS by state, the
    same bits as an exp of each element's pi*state, without its exps.
    TypeError for any other phase, ValueError unless its shape is geom.shape.
    """
    if isinstance(phase, CodingMatrix):
        values = phase.states
    elif isinstance(phase, PhaseProfile):
        values = phase.values
    else:
        raise TypeError("phase must be a CodingMatrix or PhaseProfile")
    if values.shape != geom.shape:
        raise ValueError(f"phase shape {values.shape} does not match {geom.shape}")
    if isinstance(phase, CodingMatrix):
        return _ONE_BIT_FACTORS.take(values)
    return np.exp(1j * values)


def received_power(
    phase: CodingMatrix | PhaseProfile,
    bs_src: Source,
    ue,
    geom: ArrayGeometry,
) -> float:
    """Power collected at the target for a given reflection state.

    Coherently sums incident field x element phase x propagation factor
    over the panel; ue may be an AngularLocation (plane-wave leg) or a 3D
    position (spherical leg).  The result is relative to a single
    unit-amplitude element, so a fully aligned n_z*n_x panel tops out at
    (n_z*n_x)^2.
    """
    return _received_powers((phase,), bs_src, ue, geom)[0]


def _received_powers(phases, bs_src: Source, ue, geom: ArrayGeometry) -> list[float]:
    """received_power of each phase on one link, whose incident field and
    target propagation factor are built once for all of them."""
    factors = [_reflection(phase, geom) for phase in phases]
    incident = complex_field_at_array(bs_src, geom)
    outgoing = _target_field(ue, geom)
    return [float(np.abs(np.sum(incident * factor * outgoing)) ** 2) for factor in factors]


def _hpbw(axis_deg: np.ndarray, cut: np.ndarray, i: int) -> float:
    """Half-power beamwidth along one cut through its peak at index i,
    linear interpolation at -3 dB.

    Each edge interpolates towards the first sample below half power from
    the peak.  NaN when either half-power crossing lies outside the grid.
    """
    half = cut[i] / 2.0
    edges = [np.nan, np.nan]
    for side, scan in enumerate((range(i - 1, -1, -1), range(i + 1, len(cut)))):
        for j in scan:
            if cut[j] < half:
                lo, hi = (j, j + 1) if side == 0 else (j - 1, j)
                frac = (half - cut[lo]) / (cut[hi] - cut[lo])
                edges[side] = axis_deg[lo] + frac * (axis_deg[hi] - axis_deg[lo])
                break
    return float(edges[1] - edges[0])


def _fold(y: np.ndarray) -> np.ndarray:
    """The rows of y (..., n_x) folded about their centre column, as the
    real (2, ..., 2H) rows [Re even | -Im odd] over [Im even | Re odd].

    even and odd are y[hi] + y[lo] and y[hi] - y[lo] for the H = ceil(n_x/2)
    columns hi at or right of the centre, at k = hi - (n_x - 1)/2 >= 0, and
    their mirrors lo.  A row's sum of y[n]*exp(i*n*w) is exp(i*(n_x - 1)*w/2)
    times that of even*cos(k*w) + i*odd*sin(k*w), so the two rows times
    [cos(k*w); sin(k*w)] (a centre column, held twice in even, at half
    weight) are its real and imaginary parts up to that unit phase.
    """
    h = (y.shape[-1] + 1) // 2
    hi, lo = y[..., -h:], y[..., h - 1::-1]
    z = np.concatenate((hi + lo, 1j * (hi - lo)), axis=-1)
    return np.stack((z.real, z.imag))


def _magnitudes(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |angle| of grid in first-seen order, and each angle's
    index among them (0.0 and -0.0 are one).  A dict rather than np.unique:
    nothing else pattern's callers run sorts, and the sort kernels' code
    alone keeps ~190 KB resident in a process that first calls them."""
    first = {}
    index = [first.setdefault(angle, len(first)) for angle in np.abs(grid).tolist()]
    return np.array(list(first)), np.array(index)


@functools.lru_cache(maxsize=1)
def _pattern_plan(
    geom: ArrayGeometry, theta_key: bytes, phi_key: bytes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What pattern needs of a grid besides the excitation, as (e_z, table, rows).

    The keys are the float64 bytes of the 1-D theta (T,) and phi (P,)
    grids.  w_x = K*cos(theta)*sin(phi) depends on theta only through
    |theta|, so the x-axis factors are kept for the U distinct |theta|
    (plan rows) by the grid's own P phi columns: table[u] = [cos(k*w);
    sin(k*w)] for the H = ceil(n_x/2) centred columns k >= 0 of _fold, of
    shape (U, 2H, P), built one plan row at a time.  For an odd n_x the
    centre column, k = 0, is its own mirror, so its cosine row is weighted
    1/2.  A plan row has two slots, |theta| and -|theta|, and e_z =
    exp(i*outer(w_z, m)), the z-axis DTFT factor, has one row a slot, of
    shape (2U, n_z); rows (T,) is the slot of each grid row.  All three are
    read-only, as every call on the grid shares them.  A plan holds
    16*U*(H*P + 2*n_z) + 8*T bytes, and the cache one plan, the last
    grid's.  Raises ValueError naming the grid unless it holds at least one
    angle and each is finite with |angle| < 90, and, before any exp, unless
    _check_bytes admits the table and the rest of the plan and a call
    (_pattern_bytes), so a grid is checked once per plan.
    """
    theta, phi = np.frombuffer(theta_key), np.frombuffer(phi_key)
    for name, grid in (("theta_grid_deg", theta), ("phi_grid_deg", phi)):
        if not (grid.size and (np.abs(grid) < 90.0).all()):  # False for NaN
            raise ValueError(
                f"{name} must hold at least one angle, each finite with |angle| < 90 deg"
            )
    theta_abs, theta_row = _magnitudes(theta)
    u, p, h = theta_abs.size, phi.size, (geom.n_x + 1) // 2
    _check_bytes("pattern's grid", u * p, 16 * h, _pattern_bytes(geom, theta.size, p, u))
    w_z, w_x = _frequency_grid(theta_abs, phi, geom)  # w_z is odd in theta, w_x even
    e_z = np.multiply.outer(np.stack([w_z, -w_z], axis=1).ravel(), 1j * np.arange(geom.n_z))
    np.exp(e_z, out=e_z)
    k = np.arange(geom.n_x - h, geom.n_x)[:, np.newaxis] - (geom.n_x - 1) / 2
    table = np.empty((u, 2 * h, p))
    for plan_row, w in zip(table, w_x):
        arg = k * w
        np.cos(arg, out=plan_row[:h])
        np.sin(arg, out=plan_row[h:])
    if geom.n_x % 2:
        table[:, 0] *= 0.5
    rows = 2 * theta_row + (theta < 0.0)
    for factor in (e_z, table, rows):
        factor.setflags(write=False)
    return e_z, table, rows


def _block_rows(p: int) -> int:
    """The plan rows of a block of pattern's x axis, with P columns a row."""
    return max(1, _BLOCK_POINTS // p)


def _pattern_bytes(geom: ArrayGeometry, t: int, p: int, u: int) -> int:
    """The bytes pattern takes beside its plan's table, on a grid of T by P
    angles with U distinct |theta|.

    The plan's e_z and rows, and the larger of what its build holds beside
    them (its (U, P) w_x and a plan row's (H, P) exp argument) and what a
    call holds: its complex (2U, n_x) z-axis rows with their folded complex
    copies and float rows (_fold, 128 bytes a plan row and folded column),
    then the float rows, the (U, 2, P) slot powers and a block's sums, then
    the slot powers, the float (T, P) power grid and the peak search's bool
    mask of it.
    """
    h = (geom.n_x + 1) // 2
    build = 8 * u * p + 8 * h * p
    call = max(32 * u * geom.n_x + 128 * u * h,
               64 * u * h + 16 * u * p + 32 * min(u, _block_rows(p)) * p,
               16 * u * p + 9 * t * p)
    return 32 * u * geom.n_z + 8 * t + max(build, call)


def pattern(
    coding: CodingMatrix | PhaseProfile,
    bs_src: Source,
    geom: ArrayGeometry,
    theta_grid_deg,
    phi_grid_deg,
) -> PatternResult:
    """Far-field received power over a (theta, phi) grid.

    Reports the peak direction, the first cell in row-major order whose
    power is within a relative 1e-12 of the maximum, and the half-power
    beamwidth of the cuts through that cell along each axis.

    The power over the whole grid is one 2D DTFT of the panel excitation,
    |sum_{m,n} e[m, n]*exp(i*(m*w_z(theta) + n*w_x(theta, phi)))|^2: a
    matrix product along z into complex rows y, one a plan slot, folded
    about their centre column (_fold), then along x, for each block of plan
    rows (_block_rows), one batched real matrix product of each plan row's
    folded rows by its cos/sin table, whose squared halves sum to the power
    of each slot.  The plan's rows place those slots on the grid.  Its
    factors depend only on the geometry and the grids, so _pattern_plan
    builds them once per (geom, theta grid, phi grid) and a call computes
    only what depends on the coding and the source.

    Like received_power, raises TypeError unless coding is a CodingMatrix
    or PhaseProfile and ValueError unless its shape is geom.shape.  Raises
    ValueError naming theta_grid_deg or phi_grid_deg unless that grid is
    1-D, non-empty and finite with every |angle| < 90.  The result's
    theta_deg and phi_deg are read-only float64 copies of the two grids.
    """
    excitation = complex_field_at_array(bs_src, geom) * _reflection(coding, geom)
    theta_grid_deg = np.asarray(_real("theta_grid_deg", theta_grid_deg), dtype=float)
    phi_grid_deg = np.asarray(_real("phi_grid_deg", phi_grid_deg), dtype=float)
    for name, grid in (("theta_grid_deg", theta_grid_deg), ("phi_grid_deg", phi_grid_deg)):
        if grid.ndim != 1:  # the plan's key, the grid's bytes, drops its shape
            raise ValueError(f"{name} must be 1-D, got shape {grid.shape}")
    theta_key, phi_key = theta_grid_deg.tobytes(), phi_grid_deg.tobytes()
    e_z, table, rows = _pattern_plan(geom, theta_key, phi_key)
    # Views of the keys, which the caller cannot reach.
    theta_grid_deg, phi_grid_deg = np.frombuffer(theta_key), np.frombuffer(phi_key)
    u, p = table.shape[0], table.shape[2]
    stack = _fold((e_z @ excitation).reshape(u, 2, geom.n_x))
    slots = np.empty((u, 2, p))
    step = _block_rows(p)
    for b in range(0, u, step):
        block = slice(b, b + step)
        sums = stack[:, block] @ table[block]  # Re A over Im A, each (B, 2, P)
        np.square(sums, out=sums)
        np.add(sums[0], sums[1], out=slots[block])
        del sums  # before the next block's
    del stack
    power = slots.reshape(2 * u, p)[rows]
    # The first tied cell, as in the peak search: a real excitation's mirror lobes tie.
    i, j = divmod(int(_first_tied(power.ravel(), power.max())), power.shape[1])
    peak = AngularLocation(
        theta_deg=float(theta_grid_deg[i]), phi_deg=float(phi_grid_deg[j])
    )
    return PatternResult(
        theta_deg=theta_grid_deg,
        phi_deg=phi_grid_deg,
        power=power,
        peak=peak,
        hpbw_theta_deg=_hpbw(theta_grid_deg, power[:, j], i),
        hpbw_phi_deg=_hpbw(phi_grid_deg, power[i, :], j),
    )


def link_gain(
    coding: CodingMatrix | PhaseProfile,
    baseline: CodingMatrix | PhaseProfile | None,
    bs_src: Source,
    ue,
    geom: ArrayGeometry,
) -> LinkGainResult:
    """Target-power gain of a coding over a baseline, in dB.

    baseline None means the all-zero coding.  Both powers are those of
    received_power, from one incident field and one target propagation
    factor built for the pair, with bs_src at unit amplitude: the gain does
    not depend on it, and a tiny amplitude would underflow the powers.  A
    baseline power below 1e-12 times the coding power is replaced by that
    floor and flagged.  A ratio below the least positive float, as for a
    coding power of exactly 0, is taken at that float (about -3233 dB), and
    two powers of 0 give 0.0 dB, flagged, so the gain is always finite.
    """
    if baseline is None:
        baseline = CodingMatrix.all_zero(geom.shape)
    unit_src = replace(bs_src, amplitude=1.0)
    p_coding, p_baseline = _received_powers((coding, baseline), unit_src, ue, geom)
    floor = 1e-12 * p_coding
    floored = p_baseline < floor
    if floored:
        p_baseline = floor
    if p_baseline == 0.0:
        return LinkGainResult(gain_db=0.0, baseline_floored=True)
    gain_db = 10.0 * math.log10(max(p_coding / p_baseline, math.ulp(0.0)))
    return LinkGainResult(gain_db=gain_db, baseline_floored=floored)


# The coding header, (key, number form) in file order, as both
# write_coding_file and read_coding_file follow it.
_CODING_HEADER = (("n_x", int), ("n_z", int))


def write_coding_file(path, coding: CodingMatrix) -> None:
    """Write a coding matrix in the v1 format: header plus 0/1 rows."""
    n_z, n_x = coding.states.shape
    digits = (coding.states + ord("0")).astype(np.uint8)  # the ASCII of each 0/1 state
    rows = (row.tobytes().decode("ascii") for row in digits)
    _write_matrix_file(path, _CODING_MAGIC, _CODING_HEADER, {"n_x": n_x, "n_z": n_z}, rows)


def read_coding_file(path) -> CodingMatrix:
    """Parse a v1 coding file; FileFormatError carries the line number."""
    return _read_matrix_file(path, _CODING_MAGIC, _CODING_HEADER, "", int,
                             lambda states, geom, fields: CodingMatrix(states=states),
                             CodingMatrix)
