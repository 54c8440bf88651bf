"""Angular localization from one interference hologram.

The hologram of a reference wave at known angles plus one unknown wave is

    I(m, n) = A + C*exp(i*(m*dz + n*dx)) + conj(C)*exp(-i*(m*dz + n*dx))

with (dz, dx) the difference of the two spatial-frequency pairs.  Its 2D
DFT concentrates into a DC term and one conjugate pair of peaks; the peak
bin recovers the fringe frequency up to sign, and adding/subtracting it
from the known reference frequencies yields two twin direction candidates.
A disambiguation policy (ground-truth oracle, an admissible angular sector,
or none) selects one.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllCandidatesInfeasible,
    InfeasibleFrequency,
    NoPeak,
    SectorAmbiguous,
    SectorEmpty,
)
from .geometry import (
    AngularLocation,
    ArrayGeometry,
    SpatialFrequencyPair,
    _check_bytes,
    _first_tied,
    _is_int,
    _real,
    angles_from_frequencies,
    angular_distance_deg,
    spatial_frequencies,
)
from .wavefield import Hologram, _intensity_sums, _number

_SPECTRUM_BIN_BYTES = 2 * 16  # _transform's complex spectra and z pass, as large at pad 1


@dataclass(frozen=True)
class Spectrum:
    """Unnormalized 2D DFT of a hologram (optionally zero padded)."""

    values: np.ndarray


@dataclass(frozen=True)
class OraclePolicy:
    """Pick the candidate closer to a supplied ground truth."""

    truth: AngularLocation

    def __post_init__(self):
        if not isinstance(self.truth, AngularLocation):
            raise TypeError(f"truth must be an AngularLocation, got {self.truth!r}")


@dataclass(frozen=True)
class SectorPolicy:
    """Pick the unique candidate inside an admissible angular sector.

    Either range may be None, meaning that axis is unrestricted.  Bounds are
    a pair (lo, hi) of real inclusive degrees, lo <= hi; infinite ones are valid.
    """

    theta_range_deg: tuple[float, float] | None = None
    phi_range_deg: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("theta_range_deg", "phi_range_deg"):
            bounds = getattr(self, name)
            if bounds is None:
                continue
            if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2 and all(
                    isinstance(v, numbers.Real) and not isinstance(v, bool) for v in bounds)):
                raise ValueError(f"{name} must be a pair of real numbers (lo, hi), got {bounds!r}")
            if not bounds[0] <= bounds[1]:
                raise ValueError(f"sector bounds must satisfy lo <= hi, got {bounds}")

    def contains(self, loc: AngularLocation) -> bool:
        if self.theta_range_deg is not None:
            lo, hi = self.theta_range_deg
            if not (lo <= loc.theta_deg <= hi):
                return False
        if self.phi_range_deg is not None:
            lo, hi = self.phi_range_deg
            if not (lo <= loc.phi_deg <= hi):
                return False
        return True


@dataclass(frozen=True)
class LocalizationResult:
    """Twin candidates, the policy choice, and peak diagnostics.

    candidate_1 is the plus combination regulate(omega_bs + omega_peak),
    candidate_2 the minus combination; either is None when it violates the
    propagating-wave bound.  peak_bin is 1-based (i_z, i_x).
    """

    candidate_1: AngularLocation | None
    candidate_2: AngularLocation | None
    chosen: AngularLocation | None
    peak_bin: tuple[int, int]
    peak_to_median_ratio: float


def regulate(x: float) -> float:
    """Wrap a frequency into [-pi, pi]: x - 2*pi*round(x/(2*pi)).

    Half-integer multiples round away from zero, so regulate(3*pi/2) is
    -pi/2 and regulate(-pi) is +pi.
    """
    q = x / (2.0 * math.pi)
    r = math.copysign(math.floor(abs(q) + 0.5), q)
    return x - 2.0 * math.pi * r


def _check_spectral_settings(shape=(1, 1), zero_pad_factor=1, dc_guard=0,
                             significance_threshold=0.0) -> None:
    """Raise ValueError unless zero_pad_factor is a positive integer padding a (T, n_z,
    n_x) stack to spectra _check_bytes admits, dc_guard an integer >= 0 and the threshold >= 0."""
    if not (_is_int(zero_pad_factor) and zero_pad_factor >= 1):
        raise ValueError("zero_pad_factor must be a positive integer")
    _check_bytes("trials*(zero_pad_factor*n_z)*(zero_pad_factor*n_x)",
                 zero_pad_factor**2 * math.prod(shape), _SPECTRUM_BIN_BYTES)
    if not (_is_int(dc_guard) and dc_guard >= 0):
        raise ValueError("dc_guard must be a non-negative integer")
    if not significance_threshold >= 0:
        raise ValueError("significance_threshold must be a number >= 0")


def _transform(values: np.ndarray, zero_pad_factor: int, remove_mean: bool,
               full: bool = False) -> np.ndarray:
    """The half spectrum of every capture of a (T, n_z, n_x) stack: the rows
    k <= M_z//2 of its (M_z, M_x) = zero_pad_factor*(n_z, n_x) DFT, by one
    rfftn call, which takes the last axis listed first: rfft along z, then fft along x.

    A capture is real, so its spectrum is Hermitian, X[-k, -l] = conj(X[k, l]),
    and the other rows only mirror these.  full=True returns all M_z rows,
    by one fftn call.
    """
    _, n_z, n_x = values.shape
    _check_spectral_settings(values.shape, zero_pad_factor)
    if n_z < 2 or n_x < 2:
        raise ValueError("spectral analysis needs at least a 2x2 hologram")
    if remove_mean:
        values = values - values.mean(axis=(1, 2), keepdims=True)
    return (np.fft.fftn if full else np.fft.rfftn)(
        values, s=(zero_pad_factor * n_x, zero_pad_factor * n_z), axes=(2, 1))


def fft2(holo: Hologram, zero_pad_factor: int = 1, remove_mean: bool = False) -> Spectrum:
    """The 2D DFT of a hologram, one FFT call (along z, then along x).

    zero_pad_factor >= 1 pads each axis to factor*N before transforming,
    refining the frequency grid without changing the underlying spectrum.

    remove_mean subtracts the sample mean first.  On the unpadded grid this
    only zeroes the DC bin (a constant transforms to DC exactly); on padded
    grids it also removes the rectangular-window skirt the constant term
    would otherwise smear over the refined bins, where it can out-peak a
    weak fringe.  Peak search goes through localize, which enables it.
    """
    return Spectrum(values=_transform(holo.values[np.newaxis], zero_pad_factor,
                                      remove_mean, full=True)[0])


def _guard_complement(shape: tuple[int, int], dc_guard: int) -> np.ndarray:
    """True outside the (2g+1)^2 torus neighborhood of the DC bin: where the row
    or the column lies more than g bins from 0 around its axis."""
    m_z, m_x = shape
    k_z, k_x = np.ogrid[:m_z, :m_x]
    return (np.minimum(k_z, m_z - k_z) > dc_guard) | (np.minimum(k_x, m_x - k_x) > dc_guard)


@functools.lru_cache(maxsize=1)
def _peak_plan(shape: tuple[int, int], dc_guard: int) -> tuple[np.ndarray, int, int, int]:
    """How _peaks reads the half spectrum (rows k <= M_z//2) of an (M_z, M_x)
    spectrum, as (guard, mirror_stop, masked, searched).

    guard holds the flat indices of the half spectrum's bins inside the DC
    guard, in row-major order, read-only as every caller shares it; the
    search is the searched bins outside it.  The median's population is the
    bins outside the guard of the whole spectrum.  The DC guard is symmetric
    under (k, l) -> (-k, -l), so row M_z - k outside it holds the magnitudes
    of row k outside it; the rows 1..ceil(M_z/2)-1, which have a mirror, are
    the flat slice [M_x, mirror_stop) of the half spectrum, and the
    population is the half spectrum followed by that slice, less the masked
    guard bins the two hold.
    """
    m_z, m_x = shape
    guard = np.flatnonzero(~_guard_complement(shape, dc_guard)[:m_z // 2 + 1])
    guard.flags.writeable = False
    mirror_stop = (m_z + 1) // 2 * m_x
    masked = guard.size + int(np.count_nonzero((guard >= m_x) & (guard < mirror_stop)))
    return guard, mirror_stop, masked, (m_z // 2 + 1) * m_x - guard.size


def _row_medians(a: np.ndarray, skip: int) -> np.ndarray:
    """np.median of each row of a 2D array without its skip smallest values,
    its -inf entries; the array is partitioned in place.

    One partition at skip + K//2, for the K values left, places the upper
    middle value; for even K the lower one is the maximum of the values
    before it, and the median is their mean, as np.median computes it.
    """
    count = a.shape[1] - skip
    half = skip + count // 2
    a.partition(half, axis=1)
    upper = a[:, half]
    if count % 2:
        return upper
    return (a[:, :half].max(axis=1) + upper) / 2


def _peaks(mags: np.ndarray, m_z: int, dc_guard: int, significance_threshold: float,
           min_magnitudes) -> list:
    """find_peak over a (T, m_z//2 + 1, M_x) stack of half-spectrum magnitudes,
    the spectra being m_z rows tall.  mags is overwritten: its DC-guard bins
    are set to -inf.

    Returns per spectrum ((i_z, i_x), ratio) or the NoPeak it raises.
    """
    _check_spectral_settings(dc_guard=dc_guard, significance_threshold=significance_threshold)
    n, half, m_x = mags.shape
    guard, mirror_stop, masked, searched = _peak_plan((m_z, m_x), dc_guard)
    if not searched:
        return [NoPeak("search region is empty") for _ in range(n)]
    flat = mags.reshape(n, half * m_x)
    # A masked bin is never a peak (-inf >= 0 is false) and sorts first in
    # the median's population, so whole contiguous rows are searched.
    flat[:, guard] = -np.inf
    peak_mags = flat.max(axis=1)
    # The first tied bin in row-major order is the lexicographically smallest.
    firsts = _first_tied(flat, peak_mags[:, np.newaxis])
    medians = _row_medians(np.concatenate([flat, flat[:, m_x:mirror_stop]], axis=1), masked)
    out = []
    for peak_mag, median, first, floor in zip(
        peak_mags.tolist(), medians.tolist(), firsts.tolist(), min_magnitudes
    ):
        if median > 0:
            ratio = peak_mag / median
        else:
            ratio = math.inf if peak_mag > 0 else 0.0
        if peak_mag <= max(floor, 0.0):
            out.append(NoPeak("no off-DC energy in the spectrum"))
        elif ratio < significance_threshold:
            out.append(NoPeak(
                f"peak/median ratio {ratio:.3g} below significance threshold "
                f"{significance_threshold:g}"
            ))
        else:
            k, l = divmod(first, m_x)
            out.append(((k + 1, l + 1), ratio))
    return out


def find_peak(
    spec: Spectrum,
    dc_guard: int = 0,
    significance_threshold: float = 6.0,
    min_magnitude: float = 0.0,
) -> tuple[tuple[int, int], float]:
    """Locate the dominant off-DC bin; returns ((i_z, i_x), peak/median ratio).

    The bin is 1-based.  The search excludes a (2*dc_guard+1)^2 torus
    neighborhood of DC (the DC bin itself always), restricts rows to the
    lower half-spectrum k <= M_z/2, and breaks magnitude ties by the
    lexicographically smallest (k, l).  The ratio is the peak magnitude over
    the median magnitude outside the DC guard (inf for a zero median).
    Raises NoPeak when the best bin is <= min_magnitude (so rounding residue
    of a nominally constant hologram never counts as a fringe) or the ratio
    falls below significance_threshold.

    Only the rows k <= M_z/2 are read: the spectrum is taken to be Hermitian,
    as that of a real hologram is, so each other row mirrors one of them.
    Raises ValueError for a spectrum holding a NaN or infinite value, which
    no fft2 of a Hologram holds and for which no bin or ratio is meaningful.
    """
    if not np.isfinite(spec.values).all():
        raise ValueError("spectrum values must be finite")
    m_z = spec.values.shape[0]
    # float64 magnitudes of any spectrum dtype, as _peaks masks them with -inf
    half = np.abs(spec.values[:m_z // 2 + 1], dtype=float)
    peak = _peaks(half[np.newaxis], m_z, dc_guard, significance_threshold,
                  [min_magnitude])[0]
    if isinstance(peak, NoPeak):
        raise peak
    return peak


def candidate_frequencies(
    bs_freqs: SpatialFrequencyPair,
    peak_bin: tuple[int, int],
    padded_shape: tuple[int, int],
) -> tuple[SpatialFrequencyPair, SpatialFrequencyPair]:
    """Twin frequency candidates regulate(omega_bs +/- omega_peak) per axis."""
    m_z, m_x = padded_shape
    w_z = 2.0 * math.pi * (peak_bin[0] - 1) / m_z
    w_x = 2.0 * math.pi * (peak_bin[1] - 1) / m_x
    plus = SpatialFrequencyPair(
        omega_z=regulate(bs_freqs.omega_z + w_z),
        omega_x=regulate(bs_freqs.omega_x + w_x),
    )
    minus = SpatialFrequencyPair(
        omega_z=regulate(bs_freqs.omega_z - w_z),
        omega_x=regulate(bs_freqs.omega_x - w_x),
    )
    return plus, minus


def disambiguate(
    candidate_1: AngularLocation | None,
    candidate_2: AngularLocation | None,
    policy: OraclePolicy | SectorPolicy | None,
) -> AngularLocation | None:
    """Apply a twin-image disambiguation policy to the surviving candidates.

    oracle: the candidate with the smaller wrapped angular distance to the
    truth (candidate_1 on ties).  sector: the unique candidate inside the
    sector, raising SectorEmpty/SectorAmbiguous when zero or both qualify.
    None: no choice is made.
    """
    present = [c for c in (candidate_1, candidate_2) if c is not None]
    if policy is None:
        return None
    if isinstance(policy, OraclePolicy):
        return min(present, key=lambda c: angular_distance_deg(c, policy.truth))
    if isinstance(policy, SectorPolicy):
        inside = [c for c in present if policy.contains(c)]
        if not inside:
            raise SectorEmpty("no candidate inside the admissible sector")
        if len(inside) > 1:
            raise SectorAmbiguous(
                "both candidates inside the admissible sector; widen knowledge "
                "of the terminal or narrow the sector"
            )
        return inside[0]
    raise TypeError(f"unknown disambiguation policy {policy!r}")


def localize_trials(
    values,
    geom: ArrayGeometry,
    bs: AngularLocation,
    zero_pad_factor: int = 1,
    disambiguation: OraclePolicy | SectorPolicy | None = None,
    dc_guard: int = 0,
    significance_threshold: float = 6.0,
) -> list:
    """Localize every capture of a (T, n_z, n_x) intensity stack.

    The one localization path: localize and multiuser_localize are this
    call on their holograms' stack.  All captures share the geometry, the
    reference and the policy.  The stack is validated once (real, finite,
    non-negative, a finite sum per capture, trailing shape geom.shape;
    ValueError otherwise, a complex stack included) and transformed by one
    FFT call.  Returns, in stack order, one LocalizationResult per capture,
    or the localization error (NoPeak, AllCandidatesInfeasible, SectorEmpty,
    SectorAmbiguous) localize would raise on it.
    """
    values = np.asarray(_real("localize_trials values", values), dtype=float)
    if values.ndim != 3 or values.shape[1:] != geom.shape:
        raise ValueError(
            f"expected a (T, {geom.n_z}, {geom.n_x}) stack of captures, "
            f"got shape {values.shape}"
        )
    totals = _intensity_sums(values)
    bs_freqs = spatial_frequencies(bs, geom)
    padded_shape = (zero_pad_factor * geom.n_z, zero_pad_factor * geom.n_x)
    mags = np.abs(_transform(values, zero_pad_factor, remove_mean=True))
    # Fringe contrast below ~1e-9 of the total captured power is rounding
    # residue (a constant hologram is constant only to the last ulp), not
    # an interference pattern.
    peaks = _peaks(mags, padded_shape[0], dc_guard, significance_threshold,
                   (1e-9 * totals).tolist())
    # Captures of one stack share few peak bins, so each bin is mapped once.
    outcome_of_bin: dict = {}
    out: list = []
    for peak in peaks:
        if isinstance(peak, NoPeak):
            out.append(peak)
            continue
        peak_bin, ratio = peak
        if peak_bin not in outcome_of_bin:
            outcome_of_bin[peak_bin] = _bin_outcome(bs_freqs, peak_bin, padded_shape,
                                                    geom, disambiguation)
        outcome = outcome_of_bin[peak_bin]  # a new object for every capture
        out.append(type(outcome)(*outcome.args) if isinstance(outcome, Exception)
                   else LocalizationResult(*outcome, peak_bin, ratio))
    return out


def _bin_outcome(bs_freqs, peak_bin, padded_shape, geom, disambiguation):
    """(candidate_1, candidate_2, chosen) of a capture whose peak is peak_bin, or
    its localization error: they depend on the bin alone, not on the ratio."""
    candidates: list[AngularLocation | None] = []
    for freqs in candidate_frequencies(bs_freqs, peak_bin, padded_shape):
        try:
            candidates.append(angles_from_frequencies(freqs, geom))
        except InfeasibleFrequency:
            candidates.append(None)
    candidate_1, candidate_2 = candidates
    if candidate_1 is None and candidate_2 is None:
        return AllCandidatesInfeasible("both twin candidates fall outside the "
                                       "propagating-wave region")
    try:
        chosen = disambiguate(candidate_1, candidate_2, disambiguation)
    except (SectorEmpty, SectorAmbiguous) as exc:
        return exc
    return candidate_1, candidate_2, chosen


def localize(
    holo: Hologram,
    bs: AngularLocation,
    zero_pad_factor: int = 1,
    disambiguation: OraclePolicy | SectorPolicy | None = None,
    dc_guard: int = 0,
    significance_threshold: float = 6.0,
) -> LocalizationResult:
    """Estimate the unknown direction interfering with a known reference.

    Transforms the hologram, finds the dominant off-DC bin, forms the twin
    frequency candidates, discards any that violate the propagating-wave
    bound, converts the rest to angles, and applies the disambiguation
    policy.  Raises NoPeak (no significant fringe energy) or
    AllCandidatesInfeasible (both candidates evanescent).  It is
    localize_trials on the one-capture stack of holo, raising the outcome
    when it is an error; the stack's check repeats the Hologram's (~12 us
    on a 32x32 capture).
    """
    out = localize_trials(holo.values[np.newaxis], holo.geometry, bs, zero_pad_factor,
                          disambiguation, dc_guard, significance_threshold)[0]
    if isinstance(out, Exception):
        raise out
    return out


# ml_refine's schedule: levels of 13 points an axis (6 steps either side of
# the centre), one per step, each centred on the previous level's best point.
# That point can be a whole step off the truth, so a level's step is a fifth
# of the last one's: its window spans 1.2 of the last step either side.
_REFINE_HALF_STEPS, _REFINE_STEPS_DEG = 6, (1.0, 0.2, 0.04)


def ml_refine(holo: Hologram, bs: AngularLocation, coarse: AngularLocation) -> AngularLocation:
    """Coarse-to-fine grid-search refinement of a coarse estimate.

    Three levels, each a grid uniform in the spatial frequencies: 6 steps
    either side of its centre, a step being 1, then 0.2, then 0.04 deg in
    theta along z and in phi along x at the coarse point.  The first level
    is centred on the coarse estimate's frequencies, each later one on the
    previous level's best point.  At every point the fringe model A +
    B*cos(Phi) + C*sin(Phi), Phi(m, n) = m*dz + n*dx, is fitted by linear
    least squares (_refine_objective), and the smallest residual wins.
    Points outside the propagating disk, (omega_z/k_z)**2 + (omega_x/k_x)**2
    >= 1 with k = 2*pi*d/lambda, get no score.  A level's centre is always
    scored and wins ties, so the score never falls below the coarse point's
    and refinement never loses to the coarse estimate on-model.  When no
    level moves off the coarse point it is returned as given; otherwise the
    last level's best point goes through angles_from_frequencies.  A coarse
    estimate further than the first level (about 6 deg) from the truth is
    refined at most to its edge.

    Raises ValueError, before any array is built, for a panel whose level
    work arrays (see _REFINE_POINT_BYTES), factors and copy of I pass
    _MAX_BYTES.
    """
    geom = holo.geometry
    c = _REFINE_HALF_STEPS  # the centre's index on both axes
    per_axis = 2 * c + 1
    # One level's points, as levels run one after another, plus 16 B an
    # element of the complex I - total/g00 held through the call, of a
    # level's complex factors e_z (T, n_z) and e_x (n_x, P), and of the
    # larger complex transient beside them: the (T, n_x) projection of I,
    # or an exp's argument or a square of a factor (T = P); and 8 B an
    # element of the index ranges m and n.
    n_z, n_x = geom.shape
    _check_bytes("ml_refine's (theta, phi) grid", per_axis * per_axis, _REFINE_POINT_BYTES,
                 16 * (n_z * n_x + per_axis * (n_z + n_x + max(n_z, n_x))) + 8 * (n_z + n_x))
    I = holo.values
    g00 = I.size + 1e-9 * I.size  # the constant's normal equation, regularized
    centred = np.subtract(I, float(I.sum()) / g00, dtype=complex)
    m, n = np.arange(n_z), np.arange(n_x)
    bs_freqs = spatial_frequencies(bs, geom)
    k_z, k_x = (2.0 * math.pi * d / geom.wavelength_m for d in (geom.d_z_m, geom.d_x_m))
    cos_theta = math.cos(math.radians(coarse.theta_deg))
    cos_phi = math.cos(math.radians(coarse.phi_deg))
    best = spatial_frequencies(coarse, geom)
    moved = False
    for step_deg in _REFINE_STEPS_DEG:
        steps = math.radians(step_deg) * np.arange(-c, c + 1)
        # d(omega_z)/d(theta) = -k_z*cos(theta), d(omega_x)/d(phi) = k_x*cos(theta)*cos(phi)
        w_z = best.omega_z + k_z * (cos_theta * steps)
        w_x = best.omega_x + k_x * (cos_theta * cos_phi * steps)
        score = _refine_objective(centred, g00, m, n, w_z - bs_freqs.omega_z,
                                  w_x - bs_freqs.omega_x)
        # (w_z/k_z)**2 + (w_x/k_x)**2 >= 1 as (w_x/k_x)**2 >= 1 - (w_z/k_z)**2
        outside = np.less_equal.outer(1.0 - (w_z / k_z) ** 2, (w_x / k_x) ** 2)
        outside[c, c] = False
        score[outside] = -np.inf
        a, b = divmod(int(np.argmax(score)), per_axis)
        if score[a, b] > score[c, c]:
            best, moved = SpatialFrequencyPair(float(w_z[a]), float(w_x[b])), True
    return angles_from_frequencies(best, geom) if moved else coarse


# The bytes a level's point takes in ml_refine at the peak of a call:
# _refine_objective's complex u and v and float p, and in its closed form
# the float p*|u|**2, the complex v*conj(u)**2 and the float half of its
# real part, beside the previous level's float score and bool disk mask.
# numpy reuses a temporary of 256 KB or more in place, so on a level of
# under 2**14 points conj(u) and its square are both live, 8 bytes a point
# more: ~1.4 KB on the 13x13 level.
_REFINE_POINT_BYTES = 16 + 16 + 8 + 8 + 16 + 8 + 8 + 1


def _refine_objective(centred: np.ndarray, g00: float, m: np.ndarray, n: np.ndarray,
                      dz: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """ml_refine's score of every point of a level, as a (T, P) array: the
    energy of the hologram its fringe fit explains, less a term the same at
    every point.  The fringe frequencies are dz (T,) by dx (P,), and m, n
    the panel's row and column indices.

    On the level exp(-i*Phi) is e_z[t, m]*e_x[n, q], so the projection of
    a hologram on it is (e_z @ I) @ e_x, and the sums of exp(-i*Phi) and
    exp(-2i*Phi) over the panel are s1 = outer(a, b), for a = sum e_z and b
    = sum e_x, and s2 = outer(sum e_z**2, sum e_x**2).  The normal equations
    of the basis [1, cos(Phi), sin(Phi)], regularized by reg = 1e-9*n_el on
    the diagonal, explain total**2/g00 (dropped) plus r.H^-1.r, with H the
    2x2 Schur complement of g00 = n_el + reg and r the cos/sin part of the
    right-hand side with the constant eliminated.  Write H = p*I + [[d, e],
    [e, -d]], d = (h_cc - h_ss)/2 and e = h_cs; then w = d + i*e = conj(v)/2
    and r_c + i*r_s = conj(u), and

        r.H^-1.r = (p*|u|**2 - Re(v*conj(u)**2)/2) / (p**2 - |v|**2/4),

    for u the projection of centred, the complex I - total/g00 (a
    projection is linear in I), and v = s2 - s1**2/g00 and p = n_el/2 +
    reg - |s1|**2/(2*g00).
    """
    n_el = centred.size
    e_z = np.exp((-1j * dz)[:, None] * m)  # (T, n_z)
    e_x = np.exp(n[:, None] * (-1j * dx))  # (n_x, P)
    a, b = e_z.sum(axis=1), e_x.sum(axis=0)  # s1 = outer(a, b)
    u = (e_z @ centred) @ e_x
    v = ((e_z * e_z).sum(axis=1)[:, None] * (e_x * e_x).sum(axis=0)
         - (a * a / g00)[:, None] * (b * b))
    p = (g00 - n_el / 2) - (np.abs(a) ** 2 / (2 * g00))[:, None] * np.abs(b) ** 2
    return (p * np.abs(u) ** 2 - (v * np.conj(u) ** 2).real / 2) / (p * p - np.abs(v) ** 2 / 4)


def multiuser_localize(
    holograms,
    bs: AngularLocation,
    zero_pad_factor: int = 1,
    disambiguation: OraclePolicy | SectorPolicy | None = None,
    dc_guard: int = 0,
    significance_threshold: float = 6.0,
) -> dict:
    """Localize one user per frequency tag, isolating per-tag failures.

    holograms: a mapping tag -> Hologram, or a sequence of Holograms keyed
    by their frequency_tag.  Each tag appears once and every hologram has
    one geometry (ValueError otherwise); the captures are localized as one
    stack, by localize_trials.  Returns a dict, in ascending tag order,
    mapping each tag to its LocalizationResult or to the localization error
    localize would raise on it; one degenerate tag never affects the others.
    """
    if isinstance(holograms, Mapping):
        items = list(holograms.items())
    else:
        items = [(h.frequency_tag, h) for h in holograms]
    if len({tag for tag, _ in items}) != len(items):
        raise ValueError("multiuser_localize takes one hologram per frequency tag")
    if not items:
        return {}
    items.sort(key=lambda item: item[0])
    geometries = {h.geometry for _, h in items}
    if len(geometries) != 1:
        raise ValueError("multiuser_localize takes holograms of one geometry")
    outcomes = localize_trials(np.stack([h.values for _, h in items]), geometries.pop(), bs,
                               zero_pad_factor, disambiguation, dc_guard,
                               significance_threshold)
    return {tag: outcome for (tag, _), outcome in zip(items, outcomes)}


def format_report(result: LocalizationResult) -> str:
    """Flat key=value record of a localization result."""
    lines = [
        f"{name}_{axis}={_number(getattr(cand, axis, None))}"
        for name, cand in (("candidate_1", result.candidate_1),
                           ("candidate_2", result.candidate_2), ("chosen", result.chosen))
        for axis in ("theta_deg", "phi_deg")
    ]
    lines += [f"peak_bin_z={result.peak_bin[0]}", f"peak_bin_x={result.peak_bin[1]}",
              f"peak_to_median_ratio={_number(result.peak_to_median_ratio)}"]
    return "\n".join(lines) + "\n"
