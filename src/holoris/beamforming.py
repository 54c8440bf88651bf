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

import math
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError
from .geometry import (
    AngularLocation,
    ArrayGeometry,
    _frequency_grid,
    element_positions,
    unit_direction,
)
from .localization import _dtft2
from .wavefield import (
    Source,
    _front_position,
    _read_matrix_file,
    _write_matrix_file,
    complex_field_at_array,
)

_CODING_MAGIC = "# holoris-coding v1"


@dataclass(frozen=True)
class PhaseProfile:
    """Continuous per-element reflection phases in radians, each finite."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("phase profile must be a 2D matrix")
        if not np.isfinite(values).all():
            raise ValueError("phase profile must hold finite phases")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CodingMatrix:
    """Per-element 1-bit states; state s realizes phase pi*s."""

    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states)
        if states.ndim != 2:
            raise ValueError("coding matrix must be 2D")
        if not np.isin(states, (0, 1)).all():
            raise ValueError("states must be 0 or 1")
        object.__setattr__(self, "states", states.astype(np.int8))

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

    TypeError for any other phase, ValueError unless its shape is geom.shape.
    """
    if isinstance(phase, CodingMatrix):
        values = math.pi * phase.states
    elif isinstance(phase, PhaseProfile):
        values = phase.values
    else:
        raise TypeError("phase must be a CodingMatrix or PhaseProfile")
    if values.shape != geom.shape:
        raise ValueError(f"phase shape {values.shape} does not match {geom.shape}")
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
    factor = _reflection(phase, geom)
    incident = complex_field_at_array(bs_src, geom)
    outgoing = _target_field(ue, geom)
    total = np.sum(incident * factor * outgoing)
    return float(np.abs(total) ** 2)


def _hpbw(axis_deg: np.ndarray, cut: np.ndarray) -> float:
    """Half-power beamwidth along one cut, linear interpolation at -3 dB.

    NaN when either half-power crossing lies outside the sampled grid.
    """
    i = int(np.argmax(cut))
    half = cut[i] / 2.0
    left = np.nan
    for j in range(i, 0, -1):
        if cut[j - 1] < half <= cut[j]:
            frac = (half - cut[j - 1]) / (cut[j] - cut[j - 1])
            left = axis_deg[j - 1] + frac * (axis_deg[j] - axis_deg[j - 1])
            break
    right = np.nan
    for j in range(i, len(cut) - 1):
        if cut[j + 1] < half <= cut[j]:
            frac = (cut[j] - half) / (cut[j] - cut[j + 1])
            right = axis_deg[j] + frac * (axis_deg[j + 1] - axis_deg[j])
            break
    return float(right - left)


def pattern(
    coding: CodingMatrix | PhaseProfile,
    bs_src: Source,
    geom: ArrayGeometry,
    theta_grid_deg,
    phi_grid_deg,
) -> PatternResult:
    """Far-field received power over a (theta, phi) grid.

    Reports the peak direction and the half-power beamwidth of the cuts
    through the peak along each axis.

    The power over the whole grid is one 2D DTFT of the panel excitation,
    |sum_{m,n} e[m, n]*exp(i*(m*w_z(theta) + n*w_x(theta, phi)))|^2,
    evaluated by Horner's rule along x with no per-theta loop (see
    localization._dtft2).  Like received_power, raises TypeError unless
    coding is a CodingMatrix or PhaseProfile and ValueError unless its shape
    is geom.shape.
    """
    excitation = complex_field_at_array(bs_src, geom) * _reflection(coding, geom)
    theta_grid_deg = np.asarray(theta_grid_deg, dtype=float)
    phi_grid_deg = np.asarray(phi_grid_deg, dtype=float)
    w_z, w_x = _frequency_grid(theta_grid_deg, phi_grid_deg, geom)
    power = np.abs(_dtft2(excitation, w_z, w_x)) ** 2
    i, j = np.unravel_index(int(np.argmax(power)), power.shape)
    peak = AngularLocation(
        theta_deg=float(theta_grid_deg[i]), phi_deg=float(phi_grid_deg[j])
    )
    return PatternResult(
        theta_deg=theta_grid_deg,
        phi_deg=phi_grid_deg,
        power=power,
        peak=peak,
        hpbw_theta_deg=_hpbw(theta_grid_deg, power[:, j]),
        hpbw_phi_deg=_hpbw(phi_grid_deg, power[i, :]),
    )


def link_gain(
    coding: CodingMatrix | PhaseProfile,
    baseline: CodingMatrix | PhaseProfile | None,
    bs_src: Source,
    ue,
    geom: ArrayGeometry,
) -> LinkGainResult:
    """Target-power gain of a coding over a baseline, in dB.

    baseline None means the all-zero coding.  A baseline power below
    1e-12 times the coding power is replaced by that floor and flagged,
    keeping the dB ratio finite.
    """
    if baseline is None:
        baseline = CodingMatrix.all_zero(geom.shape)
    p_coding = received_power(coding, bs_src, ue, geom)
    p_baseline = received_power(baseline, bs_src, ue, geom)
    floor = 1e-12 * p_coding
    floored = False
    if p_baseline < floor:
        floored = True
        p_baseline = floor
    if p_baseline == 0.0:
        return LinkGainResult(gain_db=0.0, baseline_floored=True)
    return LinkGainResult(
        gain_db=10.0 * math.log10(p_coding / p_baseline), baseline_floored=floored
    )


def write_coding_file(path, coding: CodingMatrix) -> None:
    """Write a coding matrix in the v1 format: header plus 0/1 rows."""
    n_z, n_x = coding.states.shape
    rows = ("".join(str(int(s)) for s in row) for row in coding.states)
    _write_matrix_file(path, _CODING_MAGIC, (("n_x", n_x), ("n_z", n_z)), rows)


def read_coding_file(path) -> CodingMatrix:
    """Parse a v1 coding file; FileFormatError carries the line number."""
    header, numbered_rows = _read_matrix_file(
        path, _CODING_MAGIC, (("n_x", int), ("n_z", int))
    )
    n_x = header["n_x"]
    for lineno, row in numbered_rows:
        if len(row) != n_x or any(c not in "01" for c in row):
            raise FileFormatError(
                f"expected {n_x} characters of 0/1, got {row!r}", lineno
            )
    states = np.array([[int(c) for c in row] for _, row in numbered_rows], dtype=np.int8)
    return CodingMatrix(states=states)
