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
_X_BLOCK = 8  # columns in a block of pattern's x-axis DTFT (_blocked_dtft)
_T_BLOCK = 64  # theta rows pattern and its plan evaluate at a time
# The bytes a pattern call takes per grid point beside its plan: the float
# power grid.  A block of _T_BLOCK rows takes _BLOCK_ROW_BYTES a point more:
# its complex sum and one column block's complex product (a panel of at most
# _X_BLOCK columns has one column block, and no product), or, while the plan
# is built, its float exp argument and the complex one made from it.
_PATTERN_BYTES = 8
_BLOCK_ROW_BYTES = 16 + 16
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


def _blocked_dtft(y: np.ndarray, powers: np.ndarray, step: np.ndarray) -> np.ndarray:
    """sum_n y[t, n] * z[t, p]**n for every (t, p), in blocks of k columns.

    y is (T, N); powers[t, j, p] = z[t, p]**j for j < k, shape (T, k, P),
    and step = z**k, shape (T, P).  With n = k*b + j the sum is Horner's rule
    in z**k over the blocks (Estrin's scheme), each block one stacked
    (T, 1, k) @ (T, k, P) matrix product; the top block takes the columns
    left over, N mod k of them or k.  The x axis of pattern's 2D DTFT, whose
    z axis is a matrix product, taking the powers precomputed so calls on
    one grid can share them.  Each row t is its own products and Horner
    steps, so a block of rows gives the same bits as those rows of all T.
    """
    k = powers.shape[1]
    top = (y.shape[1] - 1) // k * k
    acc = y[:, np.newaxis, top:] @ powers[:, :y.shape[1] - top]
    for b in range(top - k, -1, -k):
        acc *= step[:, np.newaxis]
        acc += y[:, np.newaxis, b:b + k] @ powers
    return acc[:, 0]


@functools.lru_cache(maxsize=1)
def _pattern_plan(
    geom: ArrayGeometry, theta_key: bytes, phi_key: bytes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What pattern needs of a grid besides the excitation, as (e_z, powers, step).

    The keys are the float64 bytes of the 1-D theta (T,) and phi (P,)
    grids.  For the grid's frequencies w_z (T,) and w_x (T, P), e_z =
    exp(i*outer(w_z, m)) of shape (T, n_z) is the z-axis DTFT factor, and
    powers[:, j] = exp(i*j*w_x) for j < k = min(_X_BLOCK, n_x), of shape
    (T, k, P), and step = exp(i*k*w_x) of shape (T, P) are the x-axis ones
    _blocked_dtft takes, each power from its own exp, _T_BLOCK theta rows
    at a time; all three are read-only, as every call on the grid shares
    them.  A plan holds 16*T*(n_z + (k + 1)*P) bytes, and the cache one
    plan, the last grid's.  Raises ValueError naming the grid unless it
    holds at least one angle and each is finite with |angle| < 90, and,
    before any exp, unless _check_bytes admits the plan and a call's power
    grid (_PATTERN_BYTES) and block of rows (_BLOCK_ROW_BYTES), so a grid
    is checked once per plan.
    """
    theta, phi = np.frombuffer(theta_key), np.frombuffer(phi_key)
    for name, grid in (("theta_grid_deg", theta), ("phi_grid_deg", phi)):
        if not (grid.size and (np.abs(grid) < 90.0).all()):  # False for NaN
            raise ValueError(
                f"{name} must hold at least one angle, each finite with |angle| < 90 deg"
            )
    k = min(_X_BLOCK, geom.n_x)
    # Per point the plan's k + 1 complex x-axis factors; per theta its z-axis
    # factor row and a call's complex (T, n_x) z-axis sums; per point of a
    # block of rows its transients.
    _check_bytes("pattern's grid", theta.size * phi.size, 16 * (k + 1) + _PATTERN_BYTES,
                 16 * theta.size * (geom.n_z + geom.n_x)
                 + _BLOCK_ROW_BYTES * min(theta.size, _T_BLOCK) * phi.size)
    w_z, w_x = _frequency_grid(theta, phi, geom)
    e_z = np.exp(1j * np.outer(w_z, np.arange(geom.n_z)))
    powers = np.empty((theta.size, k, phi.size), complex)
    step = np.empty((theta.size, phi.size), complex)
    # A block of rows at a time, so the exp arguments take no more than a call's block.
    for t in range(0, theta.size, _T_BLOCK):
        rows = slice(t, t + _T_BLOCK)
        for j in range(k):
            np.exp(1j * (j * w_x[rows]), out=powers[rows, j])
        np.exp(1j * (k * w_x[rows]), out=step[rows])
    for factor in (e_z, powers, step):
        factor.flags.writeable = False
    return e_z, powers, step


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
    matrix product along z, then blocks of stacked matrix products along x
    (_blocked_dtft), taken _T_BLOCK theta rows at a time into one float
    power grid, so a block's slice of the x-axis powers stays in cache
    across its column blocks.  Each row's arithmetic is that of the whole
    grid at once, so the power is the same bits.  Its exp factors depend
    only on the geometry and the grids, so _pattern_plan builds them once
    per (geom, theta grid, phi grid) and a call computes only what depends
    on the coding and the source.

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
    e_z, powers, step = _pattern_plan(geom, theta_key, phi_key)
    # Views of the keys, which the caller cannot reach.
    theta_grid_deg, phi_grid_deg = np.frombuffer(theta_key), np.frombuffer(phi_key)
    y = e_z @ excitation
    power = np.empty(step.shape)
    for t in range(0, theta_grid_deg.size, _T_BLOCK):
        rows = slice(t, t + _T_BLOCK)
        block = power[rows]
        np.square(np.abs(_blocked_dtft(y[rows], powers[rows], step[rows]), out=block), out=block)
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
    rows = ("".join(str(int(s)) for s in row) for row in coding.states)
    _write_matrix_file(path, _CODING_MAGIC, _CODING_HEADER, {"n_x": n_x, "n_z": n_z}, rows)


def read_coding_file(path) -> CodingMatrix:
    """Parse a v1 coding file; FileFormatError carries the line number."""
    return _read_matrix_file(path, _CODING_MAGIC, _CODING_HEADER, "", int,
                             lambda states, geom, fields: CodingMatrix(states=states),
                             CodingMatrix)
