"""Spectral peak search, twin candidates, and disambiguation.

The reference fixture throughout is the default 32x32 panel with the
reference wave at broadside and the unknown terminal at (0, 30): its
fringe sits between bins, the dominant bin is (1, 5) 1-based, and the twin
azimuth candidates are +/-32.367221606087334 degrees.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from holoris import localization
from holoris.errors import (
    AllCandidatesInfeasible,
    DegenerateInterference,
    InfeasibleFrequency,
    NoPeak,
    SectorAmbiguous,
    SectorEmpty,
)
from holoris.geometry import (
    AngularLocation,
    ArrayGeometry,
    SpatialFrequencyPair,
    _check_bytes,
    angles_from_frequencies,
    default_geometry,
    spatial_frequencies,
)
from holoris.localization import (
    LocalizationResult,
    OraclePolicy,
    SectorPolicy,
    Spectrum,
    _guard_complement,
    _peak_plan,
    _peaks,
    _refine_objective,
    _row_medians,
    _transform,
    candidate_frequencies,
    disambiguate,
    fft2,
    find_peak,
    format_report,
    localize,
    localize_trials,
    ml_refine,
    multiuser_localize,
    regulate,
)
from holoris.wavefield import (
    DetectorModel,
    Hologram,
    Source,
    read_hologram_csv,
    synthesize_hologram,
    synthesize_trials,
    write_hologram_csv,
)

GEOM = default_geometry()
FIXTURE_PHI = 32.367221606087334  # asin((4/32) / (d/lambda)) in degrees


def fixture_hologram():
    return synthesize_hologram(
        [Source.far_field(AngularLocation(0.0, 0.0)),
         Source.far_field(AngularLocation(0.0, 30.0))],
        GEOM,
    )[0]


# ---------------------------------------------------------------- regulate

def test_regulate_examples():
    assert regulate(0.0) == 0.0
    assert regulate(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert regulate(4.0 * math.pi - 0.1) == pytest.approx(-0.1, abs=1e-12)
    assert abs(regulate(math.pi)) == pytest.approx(math.pi)


@settings(max_examples=500, deadline=None)
@given(x=st.floats(-200.0, 200.0))
def test_regulate_range_and_congruence(x):
    r = regulate(x)
    assert -math.pi <= r <= math.pi
    k = (x - r) / (2.0 * math.pi)
    assert abs(k - round(k)) < 1e-9


# ---------------------------------------------------------------- transform

def test_parseval_and_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for pad in (1, 2):
        values = rng.uniform(0.0, 5.0, size=(16, 16))
        holo = Hologram(values=values, geometry=ArrayGeometry(
            n_z=16, n_x=16, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000))
        spec = fft2(holo, zero_pad_factor=pad)
        m_z, m_x = spec.values.shape
        assert m_z == 16 * pad and m_x == 16 * pad
        lhs = np.sum(np.abs(spec.values) ** 2)
        rhs = m_z * m_x * np.sum(values ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # real input: X[-k, -l] = conj(X[k, l])
        flipped = np.conj(spec.values[(-np.arange(m_z)) % m_z][:, (-np.arange(m_x)) % m_x])
        assert np.allclose(spec.values, flipped, rtol=1e-9, atol=1e-9 * np.abs(spec.values).max())


def test_remove_mean_equals_zeroed_dc_at_pad_one():
    rng = np.random.default_rng(8)
    values = rng.uniform(0.0, 3.0, size=(8, 8))
    holo = Hologram(values=values, geometry=ArrayGeometry(
        n_z=8, n_x=8, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000))
    raw = fft2(holo).values.copy()
    raw[0, 0] = 0.0
    removed = fft2(holo, remove_mean=True).values
    assert np.allclose(removed, raw, atol=1e-9 * np.abs(raw).max())


def test_fft2_validation():
    holo = fixture_hologram()
    with pytest.raises(ValueError):
        fft2(holo, zero_pad_factor=0)
    one = ArrayGeometry(n_z=1, n_x=1, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    with pytest.raises(ValueError):
        fft2(Hologram(values=np.ones((1, 1)), geometry=one))


# ------------------------------------------------------------- peak search

def brute_force_dft_peak(values):
    """By-definition O(N^4) DFT, independent of any FFT library."""
    n_z, n_x = values.shape
    out = np.zeros((n_z, n_x), dtype=complex)
    centered = values - values.mean()
    for k in range(n_z):
        for l in range(n_x):
            acc = 0.0 + 0.0j
            for m in range(n_z):
                for n in range(n_x):
                    acc += centered[m, n] * np.exp(-2j * math.pi * (k * m / n_z + l * n / n_x))
            out[k, l] = acc
    mags = np.abs(out)
    mags[0, 0] = 0.0
    half = mags[: n_z // 2 + 1]
    return np.unravel_index(np.argmax(half), half.shape)


def test_fixture_peak_matches_by_definition_dft():
    holo = fixture_hologram()
    # oracle computed on a decimated 8x8 sub-grid to keep O(N^4) affordable;
    # 4x decimation quadruples the per-sample frequency (0.734 -> 2.93 rad,
    # still below pi) and leaves the fractional bin index 3.736 unchanged
    sub = holo.values[::4, ::4]
    k, l = brute_force_dft_peak(sub)
    assert (k, l) == (0, 4)
    spec = fft2(holo, remove_mean=True)
    assert find_peak(spec)[0] == (1, 5)


def test_localize_fixture_candidates():
    res = localize(fixture_hologram(), AngularLocation(0.0, 0.0))
    assert res.peak_bin == (1, 5)
    assert res.candidate_1.phi_deg == pytest.approx(FIXTURE_PHI, abs=1e-12)
    assert res.candidate_2.phi_deg == pytest.approx(-FIXTURE_PHI, abs=1e-12)
    assert res.candidate_1.theta_deg == pytest.approx(0.0, abs=1e-12)
    assert res.chosen is None
    assert math.isinf(res.peak_to_median_ratio)


def test_find_peak_tie_breaks_lexicographically():
    values = np.zeros((16, 16), dtype=complex)
    values[4, 7] = 2.0
    values[1, 2] = 2.0
    values[2, 2] = 2.0 * (1.0 - 1e-14)  # inside the tie tolerance
    assert find_peak(Spectrum(values=values))[0] == (2, 3)


def test_find_peak_respects_dc_guard_and_half_spectrum():
    values = np.zeros((16, 16), dtype=complex)
    values[1, 1] = 5.0   # inside a guard of 1
    values[4, 2] = 3.0
    assert find_peak(Spectrum(values=values), dc_guard=1)[0] == (5, 3)
    # energy only in the upper half (conjugate rows) is not a usable peak
    upper = np.zeros((16, 16), dtype=complex)
    upper[13, 3] = 4.0
    with pytest.raises(NoPeak):
        find_peak(Spectrum(values=upper))


def test_find_peak_significance_and_floor():
    flat = np.ones((16, 16), dtype=complex)
    with pytest.raises(NoPeak):
        find_peak(Spectrum(values=flat))  # ratio 1 < default threshold 6
    tiny = np.zeros((16, 16), dtype=complex)
    tiny[2, 3] = 1e-20
    assert find_peak(Spectrum(values=tiny))[0] == (3, 4)
    with pytest.raises(NoPeak):
        find_peak(Spectrum(values=tiny), min_magnitude=1e-12)
    lifted = np.ones((16, 16), dtype=complex)
    lifted[2, 3] = 12.0  # median outside DC is 1
    assert find_peak(Spectrum(values=lifted)) == ((3, 4), 12.0)


def test_find_peak_on_an_integer_spectrum():
    # integer magnitudes are taken as floats, which hold the -inf guard mask
    values = np.ones((16, 16), dtype=int)
    values[2, 3] = 12
    assert find_peak(Spectrum(values=values)) == ((3, 4), 12.0)


@pytest.mark.parametrize("bad, where", [
    (complex(math.nan, 0.0), (5, 6)),
    (complex(math.inf, 0.0), (5, 6)),
    (complex(0.0, -math.inf), (5, 6)),
    (complex(math.nan, 0.0), (12, 3)),  # a row the search does not read
], ids=["nan", "inf", "-inf-imag", "nan-upper-half"])
def test_find_peak_rejects_a_non_finite_spectrum(bad, where):
    values = np.ones((16, 16), dtype=complex)
    values[2, 3] = 12
    values[where] = bad
    with pytest.raises(ValueError, match="spectrum values must be finite"):
        find_peak(Spectrum(values=values))


def test_peak_to_median_ratio_on_fixture():
    _, ratio = find_peak(fft2(fixture_hologram(), remove_mean=True))
    assert math.isinf(ratio)
    # with the DC term left in, the median is still dominated by zeros
    _, ratio_raw = find_peak(fft2(fixture_hologram()))
    assert ratio_raw > 6.0


def test_extract_peaks_fixture():
    spec = fft2(fixture_hologram(), remove_mean=True)
    peak_bin, _ = find_peak(spec)
    assert peak_bin == (1, 5)
    assert find_peak(fft2(fixture_hologram()))[0] == (1, 5)
    # the bin's frequency offset is what candidate_frequencies adds to omega_bs
    pair, _ = candidate_frequencies(
        SpatialFrequencyPair(omega_z=0.0, omega_x=0.0), peak_bin, spec.values.shape)
    assert pair.omega_z == 0.0
    assert pair.omega_x == pytest.approx(2.0 * math.pi * 4 / 32)


# ---------------------------------------------------------------- candidates

@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(0, 31), l=st.integers(0, 31),
    theta=st.floats(-60.0, 60.0), phi=st.floats(-60.0, 60.0),
)
def test_candidate_set_invariant_under_bin_conjugation(k, l, theta, phi):
    """The twin pair from bin (k, l) equals the pair from (-k, -l) as a set."""
    bs = spatial_frequencies(AngularLocation(theta, phi), GEOM)
    shape = (32, 32)
    a_plus, a_minus = candidate_frequencies(bs, (k + 1, l + 1), shape)
    conj_bin = ((-k) % 32 + 1, (-l) % 32 + 1)
    b_plus, b_minus = candidate_frequencies(bs, conj_bin, shape)

    def key(p):
        # continuous at the +/-pi seam, unlike any mod-2pi representative
        return tuple(round(f(w), 9) for w in (p.omega_z, p.omega_x)
                     for f in (math.cos, math.sin))

    assert {key(a_plus), key(a_minus)} == {key(b_plus), key(b_minus)}


def test_disambiguate_oracle_and_sector():
    c1 = AngularLocation(0.0, FIXTURE_PHI)
    c2 = AngularLocation(0.0, -FIXTURE_PHI)
    assert disambiguate(c1, c2, OraclePolicy(truth=AngularLocation(0.0, 30.0))) is c1
    assert disambiguate(c1, c2, OraclePolicy(truth=AngularLocation(0.0, -30.0))) is c2
    assert disambiguate(c1, c2, SectorPolicy(phi_range_deg=(0.0, 90.0))) is c1
    assert disambiguate(c1, c2, None) is None
    with pytest.raises(SectorAmbiguous):
        disambiguate(c1, c2, SectorPolicy(phi_range_deg=(-90.0, 90.0)))
    with pytest.raises(SectorEmpty):
        disambiguate(c1, c2, SectorPolicy(phi_range_deg=(40.0, 50.0)))
    # a single surviving candidate passes a sector test on its own
    assert disambiguate(c1, None, SectorPolicy(phi_range_deg=(0.0, 90.0))) is c1
    with pytest.raises(TypeError, match="^unknown disambiguation policy 'sector'$"):
        disambiguate(c1, c2, "sector")


@pytest.mark.parametrize("bounds", [(5.0, 1.0), (math.nan, 1.0), (0.0, math.nan)])
def test_sector_policy_rejects_reversed_or_nan_bounds(bounds):
    with pytest.raises(ValueError, match="lo <= hi"):
        SectorPolicy(phi_range_deg=bounds)
    with pytest.raises(ValueError, match="lo <= hi"):
        SectorPolicy(theta_range_deg=bounds, phi_range_deg=(0.0, 90.0))
    # a range that is not a pair of real numbers is named
    for bad in ((0.0,), (0.0, 1.0, 2.0), "ab", (0.0, "1"), (False, True), (0.0, 1j), 5.0):
        with pytest.raises(ValueError, match="^phi_range_deg must be a pair of real numbers"):
            SectorPolicy(phi_range_deg=bad)
        with pytest.raises(ValueError, match="^theta_range_deg must be a pair of real numbers"):
            SectorPolicy(theta_range_deg=bad, phi_range_deg=(0.0, 90.0))
    # infinite bounds, a single-point sector, integers, numpy floats and a list stay valid
    SectorPolicy(theta_range_deg=(-math.inf, math.inf), phi_range_deg=(1.0, 1.0))
    SectorPolicy(theta_range_deg=(0, 30), phi_range_deg=[np.float64(-1.0), np.float32(1.0)])


@pytest.mark.parametrize("truth", [(0, 30), None, "0,30"])
def test_oracle_policy_rejects_a_truth_that_is_not_an_angular_location(truth):
    with pytest.raises(TypeError, match="^truth must be an AngularLocation"):
        OraclePolicy(truth=truth)


def test_localize_sector_fixture():
    res = localize(fixture_hologram(), AngularLocation(0.0, 0.0),
                   disambiguation=SectorPolicy(phi_range_deg=(0.0, 90.0)))
    assert res.chosen.phi_deg == pytest.approx(FIXTURE_PHI, abs=1e-12)


# ------------------------------------------------------------ failure modes

def test_constant_hologram_has_no_peak_at_any_padding():
    holo = Hologram(values=np.full((32, 32), 4.0), geometry=GEOM)
    for pad in (1, 2, 3):
        with pytest.raises(NoPeak):
            localize(holo, AngularLocation(0.0, 0.0), zero_pad_factor=pad)


def test_coincident_sources_have_no_peak():
    """A physically degenerate pair is constant only to the last ulp; the
    magnitude floor must still reject its rounding residue."""
    loc = AngularLocation(-15.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInterference)
        holo = synthesize_hologram(
            [Source.far_field(loc), Source.far_field(loc)], GEOM)[0]
    for pad in (1, 2):
        with pytest.raises(NoPeak):
            localize(holo, loc, zero_pad_factor=pad,
                     disambiguation=OraclePolicy(truth=loc))


def test_all_candidates_infeasible():
    # sparse panel (d = 0.15 lambda): a fringe at half the sampling rate
    # maps both twins outside the propagating region |u| <= 1
    lam = 299792458.0 / 3.5e9
    geom = ArrayGeometry(n_z=32, n_x=32, d_z_m=0.15 * lam, d_x_m=0.15 * lam,
                         f_c_hz=3_500_000_000)
    n = np.arange(32)[np.newaxis, :]
    values = 2.0 + np.cos(n * (math.pi / 2.0)) * np.ones((32, 1))
    holo = Hologram(values=values, geometry=geom)
    with pytest.raises(AllCandidatesInfeasible):
        localize(holo, AngularLocation(0.0, 0.0))


# ----------------------------------------------------------- stacked core

def _outcome(fn):
    """_bits of what fn returns or of the localization error it raises."""
    try:
        return _bits(fn())
    except (NoPeak, AllCandidatesInfeasible, SectorEmpty, SectorAmbiguous) as exc:
        return _bits(exc)


def _bits(res):
    """A localization result or error, reduced to comparable bits."""
    if isinstance(res, Exception):
        return type(res), str(res)
    return (res.peak_bin, float(res.peak_to_median_ratio).hex(),
            res.candidate_1, res.candidate_2, res.chosen)


def _sparse_panel_stack():
    """Captures on a sparse panel (d = 0.15 lambda): noisy two-source ones,
    one constant (NoPeak) and one fringe at half the sampling rate whose
    twins are both evanescent (AllCandidatesInfeasible)."""
    lam = 299792458.0 / 3.5e9
    geom = ArrayGeometry(n_z=32, n_x=32, d_z_m=0.15 * lam, d_x_m=0.15 * lam,
                         f_c_hz=3_500_000_000)
    bs = AngularLocation(0.0, 0.0)
    noisy = synthesize_trials(
        [Source.far_field(bs), Source.far_field(AngularLocation(20.0, 40.0))],
        geom, DetectorModel(noise_std=1.0, phase_jitter_std=0.2), range(4))
    n = np.arange(32)[np.newaxis, :]
    infeasible = 2.0 + np.cos(n * (math.pi / 2.0)) * np.ones((32, 1))
    constant = np.full((32, 32), 4.0)
    return geom, bs, np.concatenate([noisy, constant[None], infeasible[None]])


@pytest.mark.parametrize("pad, guard", [(1, 0), (2, 2)])
@pytest.mark.parametrize("policy", [
    None,
    OraclePolicy(truth=AngularLocation(20.0, 40.0)),
    SectorPolicy(phi_range_deg=(0.0, 89.0)),
    SectorPolicy(phi_range_deg=(-89.0, 89.0)),
], ids=["none", "oracle", "sector", "sector-wide"])
def test_localize_trials_matches_localize(pad, guard, policy):
    geom, bs, stack = _sparse_panel_stack()
    kw = dict(zero_pad_factor=pad, disambiguation=policy, dc_guard=guard,
              significance_threshold=2.0)
    got = [_bits(r) for r in localize_trials(stack, geom, bs, **kw)]
    want = [_outcome(lambda: localize(Hologram(values=v, geometry=geom), bs, **kw))
            for v in stack]
    assert got == want
    # the noisy captures localize (or fail the sector), the other two do not
    kinds = {w[0] if isinstance(w[0], type) else "ok" for w in want}
    assert {NoPeak, AllCandidatesInfeasible} <= kinds and len(kinds) >= 3


MEMO_USERS = (AngularLocation(20.0, 50.0), AngularLocation(-20.0, 50.0),
              AngularLocation(0.0, 30.0))


def _memo_bank():
    """Captures on the default panel whose peak bins recur: three users, three
    trials each, a capture whose twins are both evanescent and a constant one."""
    bs = AngularLocation(0.0, 0.0)
    n = np.arange(32)[np.newaxis, :]
    infeasible = 2.0 + np.cos(n * (math.pi / 2.0)) * np.ones((32, 1))
    det = DetectorModel(noise_std=1.0, phase_jitter_std=0.2)
    return np.concatenate(
        [synthesize_trials([Source.far_field(bs), Source.far_field(ue)], GEOM, det, range(3))
         for ue in MEMO_USERS]
        + [infeasible[None], np.full((1, 32, 32), 4.0)])


MEMO_BANK = _memo_bank()


@pytest.mark.parametrize("policy, failures", [
    (None, set()),
    (OraclePolicy(truth=MEMO_USERS[0]), set()),
    # with the reference at broadside the twins mirror through it: the first
    # user has one twin inside, the second none, the third both
    (SectorPolicy(theta_range_deg=(-5.0, 89.0), phi_range_deg=(-40.0, 89.0)),
     {SectorEmpty, SectorAmbiguous}),
], ids=["none", "oracle", "sector"])
def test_localize_trials_on_recurring_bins_matches_localize(policy, failures):
    """A stack of repeated, permuted captures, so that peak bins recur within
    one call: every record equals per-capture localize, and records that fail
    on one bin carry distinct errors."""
    bs = AngularLocation(0.0, 0.0)
    order = np.random.default_rng(9).permutation(np.tile(np.arange(len(MEMO_BANK)), 3))
    stack = MEMO_BANK[order]
    kw = dict(zero_pad_factor=2, disambiguation=policy, dc_guard=2, significance_threshold=2.0)
    got = localize_trials(stack, GEOM, bs, **kw)
    want = [_outcome(lambda: localize(Hologram(values=v, geometry=GEOM), bs, **kw))
            for v in stack]
    assert [_bits(r) for r in got] == want
    assert {type(r) for r in got} == {LocalizationResult, AllCandidatesInfeasible, NoPeak,
                                      *failures}
    bins = [r.peak_bin for r in got if isinstance(r, LocalizationResult)]
    assert len(set(bins)) < len(bins)
    errors = [r for r in got if isinstance(r, Exception)]
    assert len({id(e) for e in errors}) == len(errors)
    for kind in (AllCandidatesInfeasible, *failures):
        assert sum(isinstance(e, kind) for e in errors) >= 3


def test_localize_trials_gives_each_capture_its_own_outcome():
    """Captures that share a peak bin get distinct objects: a LocalizationResult
    each, with its own capture's ratio, or a new error each, of one type and
    one args."""
    bs = AngularLocation(0.0, 0.0)
    noise = np.random.default_rng(3).uniform(0.0, 0.05, (4,) + GEOM.shape)
    stack = fixture_hologram().values + noise
    results = localize_trials(stack, GEOM, bs)
    assert {r.peak_bin for r in results} == {(1, 5)}
    assert len({id(r) for r in results}) == len(results)
    ratios = [r.peak_to_median_ratio for r in results]
    assert len(set(ratios)) == len(ratios)
    assert ratios == [localize(Hologram(values=v, geometry=GEOM), bs).peak_to_median_ratio
                      for v in stack]
    # the twins sit at phi = +/-32.4: none inside the first sector, both inside the second
    for phi_range, kind in (((-10.0, 10.0), SectorEmpty), ((-40.0, 40.0), SectorAmbiguous)):
        errors = localize_trials(stack, GEOM, bs,
                                 disambiguation=SectorPolicy(phi_range_deg=phi_range))
        assert {type(e) for e in errors} == {kind}
        assert len({e.args for e in errors}) == 1
        assert len({id(e) for e in errors}) == len(errors)


def reference_peak(values, pad, guard):
    """Peak bin and ratio by whole-array numpy: |DFT| of the centered capture
    (z axis, then x), the maximum over the guarded lower half-spectrum with
    the first row-major tie, over np.median outside the guard."""
    n_z, n_x = values.shape
    spec = np.fft.fft(np.fft.fft(values - values.mean(), n=pad * n_z, axis=0),
                      n=pad * n_x, axis=1)
    mags = np.abs(spec)
    m_z, m_x = mags.shape
    outside = np.ones(mags.shape, dtype=bool)
    outside[np.ix_(np.arange(-guard, guard + 1) % m_z, np.arange(-guard, guard + 1) % m_x)] = False
    search = outside.copy()
    search[m_z // 2 + 1:] = False
    allowed = np.where(search, mags, -1.0)
    peak = allowed.max()
    k, l = np.unravel_index(np.argmax(allowed >= peak * (1.0 - 1e-12)), mags.shape)
    return (int(k) + 1, int(l) + 1), float(peak / np.median(mags[outside]))


@pytest.mark.parametrize("bs, ue", [
    (AngularLocation(-15.0, -30.0), AngularLocation(15.0, 60.0)),
    (AngularLocation(0.0, 0.0), AngularLocation(-15.0, 45.0)),
    (AngularLocation(0.0, -30.0), AngularLocation(15.0, -60.0)),
])
def test_localize_trials_matches_localize_on_calibrated_captures(bs, ue):
    det = DetectorModel(noise_std=6.9, phase_jitter_std=0.2)
    srcs = [Source.far_field(bs), Source.far_field(ue)]
    seeds = list(range(20))
    kw = dict(zero_pad_factor=2, disambiguation=OraclePolicy(truth=ue), dc_guard=2,
              significance_threshold=2.0)
    stack = synthesize_trials(srcs, GEOM, det, seeds)
    results = localize_trials(stack, GEOM, bs, **kw)
    want = [_outcome(lambda: localize(synthesize_hologram(srcs, GEOM, det, seed=s)[0],
                                      bs, **kw))
            for s in seeds]
    assert [_bits(r) for r in results] == want
    for values, res in zip(stack, results):
        if not isinstance(res, Exception):
            # The half-spectrum transform moves the ratio in its last ulps.
            peak_bin, ratio = reference_peak(values, 2, 2)
            assert res.peak_bin == peak_bin
            assert math.isclose(res.peak_to_median_ratio, ratio, rel_tol=1e-13)


@pytest.mark.parametrize("n_z, n_x, pad", [(5, 7, 1), (31, 32, 1), (6, 9, 2), (7, 4, 3)])
@pytest.mark.parametrize("guard", [0, 1, 2])
def test_peaks_on_the_half_spectrum_match_the_full_spectrum(n_z, n_x, pad, guard):
    # Odd and even padded heights: the median counts the rows with a mirror
    # twice, and row 0 and (for even M_z) row M_z/2 once.
    geom = ArrayGeometry(n_z=n_z, n_x=n_x, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    stack = synthesize_trials(
        [Source.far_field(AngularLocation(0.0, 0.0)),
         Source.far_field(AngularLocation(12.0, 35.0))],
        geom, DetectorModel(noise_std=0.5), range(6))
    mags = np.abs(_transform(stack, pad, remove_mean=True))
    assert mags.shape == (6, pad * n_z // 2 + 1, pad * n_x)
    got = _peaks(mags, pad * n_z, guard, 0.0, [0.0] * len(stack))
    for values, (peak_bin, ratio) in zip(stack, got):
        want_bin, want_ratio = reference_peak(values, pad, guard)
        assert peak_bin == want_bin
        assert math.isclose(ratio, want_ratio, rel_tol=1e-13)


ORDER_POLICIES = (None, OraclePolicy(truth=MEMO_USERS[1]),
                  SectorPolicy(theta_range_deg=(-5.0, 89.0), phi_range_deg=(-40.0, 89.0)))


@given(picks=st.lists(st.integers(0, len(MEMO_BANK) - 1), min_size=1, max_size=8),
       data=st.data(), policy=st.sampled_from(ORDER_POLICIES),
       pad_guard=st.sampled_from([(1, 0), (2, 2), (3, 1)]))
@settings(max_examples=60, deadline=None)
def test_localize_trials_commutes_with_stack_order(picks, data, policy, pad_guard):
    """A permuted stack gives the permuted outcomes, bit-exact, and each
    outcome is that of localize on its capture alone."""
    pad, guard = pad_guard
    stack = MEMO_BANK[picks]
    perm = data.draw(st.permutations(range(len(picks))))
    kw = dict(zero_pad_factor=pad, disambiguation=policy, dc_guard=guard,
              significance_threshold=2.0)
    bs = AngularLocation(0.0, 0.0)
    got = [_bits(r) for r in localize_trials(stack, GEOM, bs, **kw)]
    permuted = [_bits(r) for r in localize_trials(stack[perm], GEOM, bs, **kw)]
    assert permuted == [got[i] for i in perm]
    assert got == [_outcome(lambda: localize(Hologram(values=v, geometry=GEOM), bs, **kw))
                   for v in stack]


def test_localize_trials_validation():
    bs = AngularLocation(0.0, 0.0)
    good = np.ones((2, 32, 32))
    assert localize_trials(np.ones((0, 32, 32)), GEOM, bs) == []
    for bad in (np.ones((32, 32)), np.ones((2, 32, 31)), np.ones((1, 2, 32, 32))):
        with pytest.raises(ValueError, match="stack"):
            localize_trials(bad, GEOM, bs)
    for value, match in ((math.nan, "finite"), (math.inf, "finite"), (-1.0, "non-negative")):
        stack = good.copy()
        stack[1, 3, 4] = value
        with pytest.raises(ValueError, match=match):
            localize_trials(stack, GEOM, bs)
    with pytest.raises(ValueError, match="zero_pad_factor"):
        localize_trials(good, GEOM, bs, zero_pad_factor=0)


def test_localize_trials_rejects_complex_values():
    # np.ones + 1j would otherwise be localized as all 1.0, to NoPeak
    with pytest.raises(ValueError,
                       match="^localize_trials values must be real, got dtype complex128$"):
        localize_trials(np.ones((1, 32, 32)) + 1j, GEOM, AngularLocation(0.0, 0.0))
    # an object stack holding a complex value, whose conversion raises TypeError
    stack = np.ones((1, 32, 32), dtype=object)
    stack[0, 5, 7] = 1 + 0j
    with pytest.raises(ValueError, match="^localize_trials values must be real, got dtype object$"):
        localize_trials(stack, GEOM, AngularLocation(0.0, 0.0))


SPECTRA_BYTES = r"^trials\*\(zero_pad_factor\*n_z\)\*\(zero_pad_factor\*n_x\) must be at most "


def test_spectra_are_held_to_the_byte_budget(monkeypatch):
    # A 32x32 capture padded twice is 64*64 bins at 32 bytes: 131,072 bytes.
    # The budget holds one such capture, not two, nor one padded three times.
    holo, bs = fixture_hologram(), AngularLocation(0.0, 0.0)
    stack = np.stack([holo.values] * 2)
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 2 * 64 * 64 * 32 - 1)
    assert len(localize_trials(stack[:1], GEOM, bs, zero_pad_factor=2)) == 1
    assert fft2(holo, zero_pad_factor=2).values.shape == (64, 64)
    with pytest.raises(ValueError, match=SPECTRA_BYTES + "262143 bytes at 32 bytes each$"):
        localize_trials(stack, GEOM, bs, zero_pad_factor=2)
    with pytest.raises(ValueError, match=SPECTRA_BYTES):
        fft2(holo, zero_pad_factor=3)


@pytest.mark.parametrize("pad", [1, 2])
def test_spectra_charge_covers_both_transform_paths(pad, traced_peak):
    """_SPECTRUM_BIN_BYTES against tracemalloc's peak over a call: the slope
    of the peak per padded bin, from 8 to 16 captures of 64x64 through
    localize_trials (the half spectrum) and from a 64x64 to a 128x128
    hologram through fft2 (the full spectrum), is at most the charge.

    The half-spectrum path reads ~20.7 bytes a bin at pad 1 and ~14.2 at
    pad 2 (the mean-removed copy stays alive through rfftn's x pass), the
    full-spectrum path 24-32.
    """
    bs, rng = AngularLocation(0.0, 0.0), np.random.default_rng(5)
    stacks = [rng.uniform(0.0, 4.0, (trials, 64, 64)) for trials in (8, 16)]
    geom64 = ArrayGeometry(n_z=64, n_x=64, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    peaks = [traced_peak(lambda: localize_trials(stack, geom64, bs, zero_pad_factor=pad))
             for stack in stacks]
    slope = (peaks[1] - peaks[0]) / (8 * (64 * pad) ** 2)
    assert slope <= localization._SPECTRUM_BIN_BYTES

    holograms = [Hologram(values=rng.uniform(0.0, 4.0, (n, n)), geometry=ArrayGeometry(
        n_z=n, n_x=n, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)) for n in (64, 128)]
    peaks = [traced_peak(lambda: fft2(holo, zero_pad_factor=pad)) for holo in holograms]
    slope = (peaks[1] - peaks[0]) / ((128 * pad) ** 2 - (64 * pad) ** 2)
    assert slope <= localization._SPECTRUM_BIN_BYTES


def test_overflowing_sums_and_bad_peak_parameters_are_rejected():
    bs = AngularLocation(0.0, 0.0)
    good = np.ones((2, 32, 32))
    # finite intensities whose sum is not: the capture mean would overflow
    with pytest.raises(ValueError, match="sum overflows"):
        localize_trials(np.full((2, 32, 32), 1e306), GEOM, bs)
    for kw, match in (({"dc_guard": -1}, "dc_guard"),
                      ({"significance_threshold": math.nan}, "significance_threshold"),
                      ({"significance_threshold": -3.0}, "significance_threshold")):
        with pytest.raises(ValueError, match=match):
            localize_trials(good, GEOM, bs, **kw)
        with pytest.raises(ValueError, match=match):
            find_peak(fft2(fixture_hologram()), **kw)


@pytest.mark.parametrize("k", [1, 2, 29, 34, 35])
def test_row_medians_match_np_median(k):
    rng = np.random.default_rng(k)
    rows = np.concatenate([rng.random((6, k)), rng.integers(0, 3, (6, k)).astype(float)])
    assert _row_medians(rows.copy(), 0).tolist() == np.median(rows, axis=1).tolist()


@pytest.mark.parametrize("k", [1, 2, 29, 34, 35])
@pytest.mark.parametrize("skip", [1, 4])
def test_row_medians_leave_out_the_skipped_minus_inf_entries(k, skip):
    rng = np.random.default_rng(k)
    rows = np.concatenate([rng.random((6, k)), rng.integers(0, 3, (6, k)).astype(float)])
    masked = np.full((len(rows), k + skip), -np.inf)
    for row, values in zip(masked, rows):
        row[np.sort(rng.permutation(k + skip)[:k])] = values
    assert _row_medians(masked, skip).tolist() == np.median(rows, axis=1).tolist()


def ix_guard_complement(shape, dc_guard):
    """True outside the (2g+1)^2 torus neighborhood of the DC bin, by assigning
    False at every one of its (2g+1)^2 index pairs."""
    m_z, m_x = shape
    mask = np.ones(shape, dtype=bool)
    rows = np.arange(-dc_guard, dc_guard + 1) % m_z
    cols = np.arange(-dc_guard, dc_guard + 1) % m_x
    mask[np.ix_(rows, cols)] = False
    return mask


def test_guard_complement_is_the_torus_neighborhood_of_dc():
    for m_z in range(1, 14):
        for m_x in range(1, 14):
            for guard in range(16):
                assert np.array_equal(_guard_complement((m_z, m_x), guard),
                                      ix_guard_complement((m_z, m_x), guard))


def test_peak_plan_cache_keeps_one_plan():
    _peak_plan((8, 8), 1)
    _peak_plan((8, 10), 2)
    assert _peak_plan.cache_info().currsize == 1


def gather_peaks(mags, m_z, dc_guard, significance_threshold, min_magnitudes):
    """The peak search by index gathers, as _peaks did it before it masked
    the guard bins in place: the searched bins and the median's population
    (the rows with a mirror gathered twice) are fancy-indexed copies, and the
    median is np.median of the population.  mags is left as it is."""
    n, half, m_x = mags.shape
    search = np.flatnonzero(ix_guard_complement((m_z, m_x), dc_guard)[:m_z // 2 + 1])
    if not search.size:
        return [NoPeak("search region is empty") for _ in range(n)]
    mirrored = search[(search >= m_x) & (search < (m_z + 1) // 2 * m_x)]
    flat = mags.reshape(n, half * m_x)
    searched = flat[:, search]
    peak_mags = searched.max(axis=1)
    medians = np.median(flat[:, np.concatenate([search, mirrored])], axis=1)
    firsts = np.argmax(searched >= (peak_mags * (1.0 - 1e-12))[:, np.newaxis], axis=1)
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
            k, l = divmod(int(search[first]), m_x)
            out.append(((k + 1, l + 1), ratio))
    return out


def _peak_bits(peak):
    """A _peaks outcome, reduced to comparable bits."""
    if isinstance(peak, NoPeak):
        return str(peak)
    peak_bin, ratio = peak
    return peak_bin, ratio.hex()


# Few distinct magnitudes make exact ties, near ties within _TIE_RTOL and
# equal medians common.
MAGNITUDES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.0 * (1.0 - 1e-14), 3.0, 7.25])


@st.composite
def _magnitude_spectrum(draw, size):
    """One spectrum's magnitudes: all zero, all equal, drawn from MAGNITUDES
    or uniform."""
    kind = draw(st.sampled_from(["zero", "equal", "pool", "uniform"]))
    if kind == "zero":
        return [0.0] * size
    if kind == "equal":
        return [draw(MAGNITUDES)] * size
    element = MAGNITUDES if kind == "pool" else st.floats(0.0, 1e3)
    return draw(st.lists(element, min_size=size, max_size=size))


@given(data=st.data(), m_z=st.integers(2, 9), m_x=st.integers(2, 9),
       trials=st.integers(1, 4),
       threshold=st.sampled_from([0.0, 1.0, 2.0, 6.0]))
@settings(max_examples=300, deadline=None)
def test_peaks_match_the_gather_search(data, m_z, m_x, trials, threshold):
    """Bins, ratio bits and NoPeak messages are those of the index-gather
    search, for odd and even heights and guards up to past the half width,
    where the search region is empty."""
    half = m_z // 2 + 1
    guard = data.draw(st.integers(0, max(m_z, m_x) // 2 + 1), label="dc_guard")
    mags = np.array([data.draw(_magnitude_spectrum(half * m_x), label="spectrum")
                     for _ in range(trials)]).reshape(trials, half, m_x)
    floors = data.draw(st.lists(st.sampled_from([0.0, 0.5, 3.0]),
                                min_size=trials, max_size=trials), label="floors")
    want = gather_peaks(mags, m_z, guard, threshold, floors)
    got = _peaks(mags.copy(), m_z, guard, threshold, floors)
    assert [_peak_bits(p) for p in got] == [_peak_bits(p) for p in want]


@pytest.mark.parametrize("m_z, m_x, guard", [(4, 5, 2), (5, 3, 2), (2, 2, 1)])
def test_peaks_on_an_empty_search_region(m_z, m_x, guard):
    mags = np.ones((2, m_z // 2 + 1, m_x))
    assert [str(p) for p in _peaks(mags, m_z, guard, 0.0, [0.0, 0.0])] == [
        "search region is empty"] * 2


@pytest.mark.parametrize("n_x", [6, 7])  # K = 29 and 34 bins outside the DC bin
def test_find_peak_ratio_uses_the_exact_median(n_x):
    geom = ArrayGeometry(n_z=5, n_x=n_x, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    holo = synthesize_hologram(
        [Source.far_field(AngularLocation(0.0, 0.0)),
         Source.far_field(AngularLocation(10.0, 25.0))],
        geom, DetectorModel(noise_std=0.3), seed=3)[0]
    spec = fft2(holo, remove_mean=True)
    mags = np.abs(spec.values)
    outside = _guard_complement(mags.shape, 0)
    assert outside.sum() == 5 * n_x - 1
    peak_bin, ratio = find_peak(spec, significance_threshold=0.0)
    assert ratio == mags[peak_bin[0] - 1, peak_bin[1] - 1] / np.median(mags[outside])


# ---------------------------------------------------------------- ml refine

def test_ml_refine_recovers_off_grid_angle():
    bs = AngularLocation(0.0, -30.0)
    ue = AngularLocation(7.3, 12.9)
    holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)], GEOM)[0]
    res = localize(holo, bs, disambiguation=OraclePolicy(truth=ue))
    coarse_err = math.hypot(res.chosen.theta_deg - ue.theta_deg,
                            res.chosen.phi_deg - ue.phi_deg)
    fine = ml_refine(holo, bs, res.chosen)
    fine_err = math.hypot(fine.theta_deg - ue.theta_deg, fine.phi_deg - ue.phi_deg)
    assert fine_err <= coarse_err
    assert fine_err <= 0.1


def test_ml_refine_keeps_exact_on_grid_coarse():
    bs = AngularLocation(0.0, 0.0)
    k = 4
    sin_phi = (2.0 * math.pi * k / 32) / (2.0 * math.pi * GEOM.d_x_m / GEOM.wavelength_m)
    ue = AngularLocation(0.0, math.degrees(math.asin(sin_phi)))
    holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)], GEOM)[0]
    res = localize(holo, bs, disambiguation=OraclePolicy(truth=ue))
    fine = ml_refine(holo, bs, res.chosen)
    assert fine is res.chosen  # no level beats the coarse point, so it is returned as given
    assert fine.phi_deg == pytest.approx(ue.phi_deg, abs=1e-9)
    assert fine.theta_deg == pytest.approx(0.0, abs=1e-9)


REFINE_HALF_STEPS, REFINE_STEPS_DEG = 6, (1.0, 0.2, 0.04)  # ml_refine's schedule, restated


def refine_grid(geom, coarse, centre, step_deg):
    """One level of ml_refine's schedule, restated: the frequencies (w_z, w_x)
    of its rows and columns about centre, a SpatialFrequencyPair, each a list.

    One step is step_deg in theta along z and in phi along x at the coarse
    point, REFINE_HALF_STEPS of them either side; the level is not clipped,
    so it may hold points outside the propagating disk (see scored).
    """
    half = REFINE_HALF_STEPS
    k_z = 2.0 * math.pi * geom.d_z_m / geom.wavelength_m
    k_x = 2.0 * math.pi * geom.d_x_m / geom.wavelength_m
    cos_t = math.cos(math.radians(coarse.theta_deg))
    cos_p = math.cos(math.radians(coarse.phi_deg))
    step = math.radians(step_deg)
    w_z = [centre.omega_z + k_z * (cos_t * (step * j)) for j in range(-half, half + 1)]
    w_x = [centre.omega_x + k_x * ((cos_t * cos_p) * (step * j)) for j in range(-half, half + 1)]
    return w_z, w_x


def refine_steps(geom, coarse, step_deg):
    """The frequency steps along z and along x of a level of step_deg."""
    w_z, w_x = refine_grid(geom, coarse, spatial_frequencies(coarse, geom), step_deg)
    return w_z[1] - w_z[0], w_x[1] - w_x[0]


def scored(geom, w_z, w_x, a, b):
    """Whether ml_refine scores point (a, b) of a level: inside the
    propagating disk, or the centre."""
    k_z = 2.0 * math.pi * geom.d_z_m / geom.wavelength_m
    k_x = 2.0 * math.pi * geom.d_x_m / geom.wavelength_m
    return (w_z[a] / k_z) ** 2 + (w_x[b] / k_x) ** 2 < 1.0 or a == b == REFINE_HALF_STEPS


def scheduled_refine(holo, coarse, level_score):
    """ml_refine's schedule, restated around a reference level_score(w_z,
    w_x), a level's (T, P) scores, the larger the better.

    Each level is centred on the previous one's choice: its first best
    scored point in row-major order, or its centre where the centre ties
    it.  Returns each level's (w_z, w_x, level_score(w_z, w_x)) and the
    last choice as angles, or coarse if no level moved off it.
    """
    geom, half = holo.geometry, REFINE_HALF_STEPS
    centre, moved, levels = spatial_frequencies(coarse, geom), False, []
    for step_deg in REFINE_STEPS_DEG:
        w_z, w_x = refine_grid(geom, coarse, centre, step_deg)
        score = level_score(w_z, w_x)
        levels.append((w_z, w_x, score))
        score = np.where([[scored(geom, w_z, w_x, a, b) for b in range(len(w_x))]
                          for a in range(len(w_z))], score, -np.inf)
        a, b = np.unravel_index(int(np.argmax(score)), score.shape)
        if score[a, b] > score[half, half]:
            centre, moved = SpatialFrequencyPair(w_z[a], w_x[b]), True
    return levels, angles_from_frequencies(centre, geom) if moved else coarse


def lstsq_refine(holo, bs, coarse):
    """Independent oracle: per-point lstsq fit of [1, cos Phi, sin Phi] on
    the restated schedule, scored by minus its residual, -inf where a point
    gets no score.  Returns the levels and the choice of scheduled_refine.
    """
    geom = holo.geometry
    w_bs = spatial_frequencies(bs, geom)
    m = np.arange(geom.n_z)[:, None]
    n = np.arange(geom.n_x)[None, :]

    def level_score(w_z, w_x):
        score = np.full((len(w_z), len(w_x)), -np.inf)
        for a, b in np.ndindex(score.shape):
            if scored(geom, w_z, w_x, a, b):
                fringe = (m * (w_z[a] - w_bs.omega_z) + n * (w_x[b] - w_bs.omega_x)).ravel()
                basis = np.stack([np.ones_like(fringe), np.cos(fringe), np.sin(fringe)], axis=1)
                _, res, _, _ = np.linalg.lstsq(basis, holo.values.ravel(), rcond=None)
                score[a, b] = -res[0]
        return score

    return scheduled_refine(holo, coarse, level_score)


PANEL_6X9 = ArrayGeometry(n_z=6, n_x=9, d_z_m=0.02, d_x_m=0.025, f_c_hz=3_500_000_000)


@pytest.mark.parametrize("bs, ue, coarse", [
    ((0.0, -20.0), (12.34, 17.61), (12.1, 17.9)),
    ((5.0, 10.0), (89.6, 30.0), (89.8, 30.2)),
    ((-5.0, 10.0), (-89.5, -40.0), (-89.8, -40.0)),
])
def test_ml_refine_matches_lstsq_grid_search(bs, ue, coarse):
    bs, ue, coarse = AngularLocation(*bs), AngularLocation(*ue), AngularLocation(*coarse)
    holo = synthesize_hologram(
        [Source.far_field(bs), Source.far_field(ue)], PANEL_6X9,
        detector=DetectorModel(noise_std=0.3), seed=4,
    )[0]
    fine = ml_refine(holo, bs, coarse)
    levels, best = lstsq_refine(holo, bs, coarse)
    assert [score.shape for _, _, score in levels] == [(13, 13)] * 3
    # near theta = +-90 deg part of the first level lies outside the propagating disk
    assert np.isinf(levels[0][2]).any() == (abs(coarse.theta_deg) > 89)
    assert fine == best


def test_ml_refine_reaches_a_coarse_point_more_than_5_degrees_off():
    """A coarse point 5.5 deg off in phi, inside the first level's +-6 deg,
    refines on a noiseless capture to within the last level's step of the
    truth on both frequency axes."""
    bs = AngularLocation(0.0, -30.0)
    ue = AngularLocation(7.3, 12.9)
    holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)], GEOM)[0]
    coarse = AngularLocation(ue.theta_deg, ue.phi_deg + 5.5)
    est = spatial_frequencies(ml_refine(holo, bs, coarse), GEOM)
    truth = spatial_frequencies(ue, GEOM)
    step_z, step_x = refine_steps(GEOM, coarse, REFINE_STEPS_DEG[-1])
    assert abs(est.omega_z - truth.omega_z) <= abs(step_z)
    assert abs(est.omega_x - truth.omega_x) <= abs(step_x)


def test_ml_refine_rejects_a_panel_memory_cannot_hold(monkeypatch):
    # On a 1x5,000,000 panel the hologram's complex copy and a level's
    # factor arrays take 16*(5,000,000 + 13*5,000,001 + 13*5,000,000) bytes,
    # ~2.16 GB, beside the level's ~14 KB.  Should the check let it through,
    # reaching the objective fails before its work arrays are built.
    def reached(*args):
        raise AssertionError("the grid reached _refine_objective")
    monkeypatch.setattr(localization, "_refine_objective", reached)
    geom = ArrayGeometry(n_z=1, n_x=5_000_000, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    holo = Hologram(np.broadcast_to(1.0, geom.shape), geom)
    with pytest.raises(ValueError, match="^ml_refine's \\(theta, phi\\) grid must be at most"):
        ml_refine(holo, AngularLocation(0.0, 0.0), AngularLocation(0.0, 30.0))


@pytest.mark.parametrize("step", [1e-3, 1e-5])
def test_ml_refine_rejects_a_grid_memory_cannot_hold(monkeypatch, step):
    # A level of +-5 deg in these steps has 1e8 and 1e12 points, ~8.1 GB and
    # ~81 TB of work arrays, which numpy could index.  Should the check let
    # one through, reaching the objective fails before its work arrays are
    # built.
    def reached(*args):
        raise AssertionError("the grid reached _refine_objective")
    monkeypatch.setattr(localization, "_refine_objective", reached)
    monkeypatch.setattr(localization, "_REFINE_STEPS_DEG", (step,))
    monkeypatch.setattr(localization, "_REFINE_HALF_STEPS", round(5.0 / step))
    with pytest.raises(ValueError, match="^ml_refine's \\(theta, phi\\) grid must be at most"):
        ml_refine(fixture_hologram(), AngularLocation(0.0, 0.0), AngularLocation(0.0, 30.0))


@pytest.mark.parametrize("step", [1e-3, 1e-5])
def test_ml_refine_rejects_a_grid_over_a_lowered_budget(monkeypatch, step):
    # +-6 steps of any size in any number of levels: 13**2 points at 81
    # bytes and 36,864 bytes of the 32x32 panel's arrays, ~50 KB, against a
    # budget of 2**15 bytes.  A broken check computes these small levels,
    # never an oversized one.
    holo = fixture_hologram()
    monkeypatch.setattr(localization, "_REFINE_STEPS_DEG", (step,) * 4)
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 2**15)
    with pytest.raises(ValueError, match="^ml_refine's \\(theta, phi\\) grid must be at most 32768 "):
        ml_refine(holo, AngularLocation(0.0, 0.0), AngularLocation(0.0, 30.0))


def test_ml_refine_budget_admits_a_grid_of_exactly_its_bytes(monkeypatch):
    # A level is 13 points per axis at 81 bytes; on the 32x32 panel the
    # hologram's complex copy takes 1024*16 bytes more, a level's factor
    # arrays and their larger transient 13*(32 + 32 + 32)*16, and the index
    # ranges (32 + 32)*8: 50,553 bytes.  The three levels run one after
    # another, so one level is charged.
    holo, bs, coarse = fixture_hologram(), AngularLocation(0.0, 0.0), AngularLocation(0.0, 30.0)
    want = ml_refine(holo, bs, coarse)
    charge = 13 * 13 * 81 + 1024 * 16 + 13 * (32 + 32 + 32) * 16 + (32 + 32) * 8
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", charge)
    assert ml_refine(holo, bs, coarse) == want
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", charge - 1)
    with pytest.raises(ValueError, match="^ml_refine's \\(theta, phi\\) grid must be at most"):
        ml_refine(holo, bs, coarse)


def test_ml_refine_charges_the_bytes_a_grid_point_takes(monkeypatch, traced_peak):
    """_REFINE_POINT_BYTES against tracemalloc's peak over a call, on levels
    of 201**2 and 401**2 points on a 2x2 panel, set through the module's
    level constant.

    The slope of the peak per level point, less 256 bytes an axis point for
    the arrays of both axes (~130 measured: steps, w_z, w_x, dz and dx, a
    and b, and the 2x2 panel's factors e_z and e_x), is at most the charge
    (no undercharge) and at least the charge less 1 byte (no overcharge).
    The peak is a later level's objective beside the previous level's score
    and disk mask, over ~8 KB that do not grow with the level.
    """
    geom = ArrayGeometry(n_z=2, n_x=2, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    bs, coarse = AngularLocation(0.0, 0.0), AngularLocation(5.0, 30.0)
    holo = synthesize_hologram([Source.far_field(bs), Source.far_field(coarse)], geom)[0]
    peaks = []
    for half_steps in (100, 200):  # 201 and 401 points per axis
        monkeypatch.setattr(localization, "_REFINE_HALF_STEPS", half_steps)
        peaks.append(traced_peak(lambda: ml_refine(holo, bs, coarse)))
    slope = (peaks[1] - peaks[0] - 256 * (401 - 201)) / (401**2 - 201**2)
    assert slope <= localization._REFINE_POINT_BYTES <= slope + 1


@pytest.mark.parametrize("panels, half_steps", [
    (((2, 2048), (2, 4096)), 50),  # wide: e_x grows
    (((256, 256), (512, 512)), 1),  # square: the hologram's copy grows, 3 points per axis
    (((256, 256), (512, 512)), 50),  # square: the copy, the projection and both factors grow
    (((2048, 2), (4096, 2)), 50),  # tall: e_z and its square grow
])
def test_ml_refine_charges_its_factor_arrays_and_the_hologram_copy(monkeypatch, panels,
                                                                    half_steps, traced_peak):
    """ml_refine's charge beside a level, 16 bytes an element of the
    hologram's complex copy, of e_z (T, n_z) and e_x (n_x, P) and of the
    larger complex transient beside them (the (T, n_x) projection, or an
    exp's argument or a factor's square), and 8 an element of the index
    ranges, against tracemalloc's peak over a call, on one level size, set
    through the level constant, and two panels.

    The rise in the peak from the smaller panel to the larger is at most the
    rise in the charge the size check is given (no undercharge) and at least
    that less 1 byte an element of the factor arrays and of the panel (no
    overcharge).  The levels have 101 points an axis, so numpy's buffers
    for the broadcast operands of an exp's argument, at most 8192 elements
    each, are full at both panels (on 13-point levels they still grow with a
    square panel of 256 or 512).  The wide and tall pairs read ~170 bytes
    under their charge; the square pair ~235 KB, as its smaller panel peaks
    in the closed form over the level's points, and ~41 KB on a 3x3 level.
    """
    charges = []

    def check_bytes(what, count, item_bytes, extra_bytes=0):
        charges.append(count * item_bytes + extra_bytes)
        return _check_bytes(what, count, item_bytes, extra_bytes)

    monkeypatch.setattr(localization, "_check_bytes", check_bytes)
    monkeypatch.setattr(localization, "_REFINE_HALF_STEPS", half_steps)
    per_axis = 2 * half_steps + 1
    peaks, elements = [], []
    for n_z, n_x in panels:
        geom = ArrayGeometry(n_z=n_z, n_x=n_x, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
        bs, coarse = AngularLocation(0.0, 0.0), AngularLocation(5.0, 30.0)
        holo = synthesize_hologram([Source.far_field(bs), Source.far_field(coarse)], geom)[0]
        peaks.append(traced_peak(lambda: ml_refine(holo, bs, coarse)))
        elements.append(per_axis * (n_z + n_x) + n_z * n_x)
    rise = peaks[1] - peaks[0]
    assert len(charges) == 2
    assert rise <= charges[1] - charges[0] <= rise + (elements[1] - elements[0])


def three_dtft_refine(holo, bs, coarse):
    """Reference for ml_refine on the restated schedule: the projection and
    both sums, three DTFTs, each taken term by term over the panel at every
    point of a level, and the 3x3 normal equations solved in their cos/sin
    form.  Each term exp(-i*Phi) = exp(-i*m*dz)*exp(-i*n*dx) is the product
    of its two axes' exps, a quarter of the time of one exp of the sum.

    Returns the levels and the choice of scheduled_refine.
    """
    geom = holo.geometry
    bs_freqs = spatial_frequencies(bs, geom)
    values = holo.values
    total = float(values.sum())
    n_el = values.size
    m = np.arange(geom.n_z)[None, :, None]

    def level_score(w_z, w_x):
        e_x = np.exp(-1j * np.outer(np.array(w_x) - bs_freqs.omega_x, np.arange(geom.n_x)))
        e_x = e_x[:, None, :]  # (P, 1, n_x)
        t, s1, s2 = (np.empty((len(w_z), len(w_x)), complex) for _ in range(3))
        for a, dz in enumerate(np.array(w_z) - bs_freqs.omega_z):
            terms = np.exp(-1j * m * dz) * e_x  # exp(-i*Phi) over the panel, per column
            t[a] = (terms * values).sum(axis=(1, 2))
            s1[a] = terms.sum(axis=(1, 2))
            s2[a] = (terms * terms).sum(axis=(1, 2))
        reg = 1e-9 * n_el
        g00 = n_el + reg
        sc, ss = s1.real, -s1.imag
        r_c = t.real - (total / g00) * sc
        r_s = -t.imag - (total / g00) * ss
        h_cc = 0.5 * (n_el + s2.real) + reg - sc * sc / g00
        h_ss = 0.5 * (n_el - s2.real) + reg - ss * ss / g00
        h_cs = -0.5 * s2.imag - sc * ss / g00
        return (h_ss * r_c**2 - 2.0 * h_cs * r_c * r_s + h_cc * r_s**2) / (h_cc * h_ss - h_cs**2)

    return scheduled_refine(holo, coarse, level_score)


def _matches_three_dtft_reference(holo, bs, coarse):
    """ml_refine picks the reference's point, and its objective on each
    level of the restated schedule is the reference's score to 1e-10 of the
    largest score where the fringe frequency (dz, dx) is at least 0.1 rad
    from 0, and to 1e-7 of it everywhere.  Near a zero fringe the basis
    degenerates and both lose digits: 2.5e-8 at 0.006 rad on a 6x9 panel.
    """
    levels, best = three_dtft_refine(holo, bs, coarse)
    values = holo.values
    g00 = values.size + 1e-9 * values.size
    centred = np.subtract(values, float(values.sum()) / g00, dtype=complex)
    m, n = np.arange(holo.geometry.n_z), np.arange(holo.geometry.n_x)
    bs_freqs = spatial_frequencies(bs, holo.geometry)
    for w_z, w_x, explained in levels:
        dz, dx = np.array(w_z) - bs_freqs.omega_z, np.array(w_x) - bs_freqs.omega_x
        score = _refine_objective(centred, g00, m, n, dz, dx)
        apart = np.hypot(dz[:, None], dx[None, :]) >= 0.1
        largest = np.abs(explained).max()
        assert np.allclose(score, explained, rtol=0, atol=1e-7 * largest)
        assert np.allclose(score[apart], explained[apart], rtol=0, atol=1e-10 * largest)
    assert ml_refine(holo, bs, coarse) == best


def test_ml_refine_matches_three_dtft_reference_on_noisy_32x32():
    rng = np.random.default_rng(11)
    bs_set = [AngularLocation(0.0, -30.0), AngularLocation(10.0, 20.0)]
    placements = []
    while len(placements) < 40:
        bs = bs_set[len(placements) % 2]
        ue = AngularLocation(float(rng.uniform(-30, 30)), float(rng.uniform(-60, 60)))
        if math.hypot(ue.theta_deg - bs.theta_deg, ue.phi_deg - bs.phi_deg) >= 10.0:
            placements.append((bs, ue))
    # Users on the BS's x-frequency, so the search grid crosses dx = 0.
    for theta in (-25.0, 15.0, 25.0):
        sin_phi = math.sin(math.radians(-30.0)) / math.cos(math.radians(theta))
        ue = AngularLocation(theta, math.degrees(math.asin(sin_phi)))
        placements.append((bs_set[0], ue))
    refined = 0
    for i, (bs, ue) in enumerate(placements):
        holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)], GEOM,
                                   DetectorModel(noise_std=1.0), seed=i)[0]
        try:
            coarse = localize(holo, bs, zero_pad_factor=2, dc_guard=2,
                              disambiguation=OraclePolicy(truth=ue)).chosen
        except (NoPeak, AllCandidatesInfeasible):
            continue
        _matches_three_dtft_reference(holo, bs, coarse)
        refined += 1
    assert refined >= 40


@pytest.mark.parametrize("geom", [
    PANEL_6X9,
    ArrayGeometry(n_z=5, n_x=7, d_z_m=0.02, d_x_m=0.03, f_c_hz=3_500_000_000),
])
def test_ml_refine_matches_three_dtft_reference_on_small_panels(geom):
    rng = np.random.default_rng(5)
    for i in range(12):
        bs = AngularLocation(float(rng.uniform(-20, 20)), float(rng.uniform(-40, 40)))
        ue = AngularLocation(float(rng.uniform(-60, 60)), float(rng.uniform(-80, 80)))
        coarse = AngularLocation(
            float(np.clip(ue.theta_deg + rng.uniform(-3, 3), -89.9, 89.9)),
            float(np.clip(ue.phi_deg + rng.uniform(-3, 3), -89.9, 89.9)))
        holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)], geom,
                                   DetectorModel(noise_std=0.3), seed=i)[0]
        _matches_three_dtft_reference(holo, bs, coarse)


def refine_placement(geom, bs, coarse, f_z, f_x):
    """A placement whose user lies (f_z, f_x) first-level steps from the
    coarse point in frequency: the panel, the BS, the coarse point, the
    user's frequencies, and the first and the last level's steps."""
    centre = spatial_frequencies(coarse, geom)
    first = refine_steps(geom, coarse, REFINE_STEPS_DEG[0])
    last = refine_steps(geom, coarse, REFINE_STEPS_DEG[-1])
    truth = SpatialFrequencyPair(centre.omega_z + f_z * first[0], centre.omega_x + f_x * first[1])
    return geom, bs, coarse, truth, first, last


@st.composite
def _refine_placement(draw):
    """A refine_placement on either panel, with a coarse point of |omega/k|
    <= 0.95 and a user on ml_refine's first level about it, at least a step
    inside it."""
    geom = draw(st.sampled_from((GEOM, PANEL_6X9)))
    radius = draw(st.floats(0.0, 0.95))
    angle = draw(st.floats(-math.pi, math.pi))
    u_z, u_x = radius * math.sin(angle), radius * math.cos(angle)
    theta = -math.degrees(math.asin(u_z))
    coarse = AngularLocation(theta, math.degrees(math.asin(u_x / math.cos(math.radians(theta)))))
    half = REFINE_HALF_STEPS
    f_z, f_x = (draw(st.floats(-(half - 1.0), half - 1.0)) for _ in range(2))
    bs = AngularLocation(draw(st.floats(-60.0, 60.0)), draw(st.floats(-60.0, 60.0)))
    return refine_placement(geom, bs, coarse, f_z, f_x)


@given(placement=_refine_placement())
# The user lies on the first level along z and half a step off it along x, and
# the best point of every level is a whole step off the user along z.
@example(placement=refine_placement(PANEL_6X9, AngularLocation(2.0, 0.0),
                                    AngularLocation(-43.296807709477505, 3.8313190522739804),
                                    0.0, 1.5))
@settings(max_examples=150, deadline=None)
def test_noiseless_refinement_is_within_a_grid_step_of_the_truth(placement):
    """On a noiseless on-model capture whose fringe the first level holds,
    and not its twin, the estimate lies within one last-level step of the
    truth per frequency axis."""
    geom, bs, coarse, truth, first, last = placement
    try:
        ue = angles_from_frequencies(truth, geom)
    except InfeasibleFrequency:
        assume(False)
    w_bs = spatial_frequencies(bs, geom)
    fringe = (truth.omega_z - w_bs.omega_z, truth.omega_x - w_bs.omega_x)
    # The fringe completes a cycle over the panel along some axis, so the
    # basis [1, cos(Phi), sin(Phi)] is far from degenerate.
    assume(any(abs(f) * n >= 2 * math.pi for f, n in zip(fringe, geom.shape)))
    # The twin, the fringe's conjugate, fits as well: it must lie off the first
    # level, more than the level's width from the truth on some axis, its
    # frequency 2*fringe away taken modulo 2*pi as the panel samples it.
    assume(any(abs(regulate(2 * f)) > 2 * half_width for f, half_width in
               zip(fringe, (s * REFINE_HALF_STEPS for s in first))))
    holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)], geom)[0]
    est = spatial_frequencies(ml_refine(holo, bs, coarse), geom)
    assert abs(est.omega_z - truth.omega_z) <= abs(last[0]) * (1 + 1e-9)
    assert abs(est.omega_x - truth.omega_x) <= abs(last[1]) * (1 + 1e-9)


def test_ml_refine_takes_no_page_faults_once_warm(warm_faults):
    setup = """
from holoris.geometry import AngularLocation, default_geometry
from holoris.localization import ml_refine
from holoris.wavefield import Source, synthesize_hologram

bs = AngularLocation(0.0, 0.0)
holo = synthesize_hologram([Source.far_field(bs), Source.far_field(AngularLocation(0.0, 30.0))],
                           default_geometry())[0]
coarse = AngularLocation(1.0, 31.0)
"""
    assert warm_faults(setup, "ml_refine(holo, bs, coarse)") < 5


# ---------------------------------------------------------------- multiuser

def test_multiuser_isolates_failing_tag():
    bs = AngularLocation(0.0, 0.0)
    users = {0: AngularLocation(10.0, 25.0), 1: bs, 2: AngularLocation(-12.0, -40.0)}
    sources = []
    for tag, loc in users.items():
        sources.append(Source.far_field(bs, frequency_tag=tag))
        sources.append(Source.far_field(loc, frequency_tag=tag))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInterference)
        holos = synthesize_hologram(sources, GEOM)
    out = multiuser_localize(holos, bs)
    assert isinstance(out[1], NoPeak)
    for tag in (0, 2):
        assert out[tag].peak_bin is not None
    # the failing tag leaves the others bit-identical to single-user runs
    solo = localize(synthesize_hologram(
        [Source.far_field(bs), Source.far_field(users[0])], GEOM)[0], bs)
    assert out[0].candidate_1 == solo.candidate_1
    assert out[0].peak_bin == solo.peak_bin


def _tagged_holograms():
    """Four tags against a broadside reference on a noisy detector; tag 2
    carries the reference twice and has no fringe."""
    bs = AngularLocation(0.0, 0.0)
    users = (AngularLocation(10.0, 25.0), AngularLocation(-12.0, -40.0), bs,
             AngularLocation(14.0, 55.0))
    sources = [src for tag, ue in enumerate(users)
               for src in (Source.far_field(bs, frequency_tag=tag),
                           Source.far_field(ue, frequency_tag=tag))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInterference)
        holos = synthesize_hologram(sources, GEOM, DetectorModel(noise_std=0.2), seed=3)
    return bs, holos


@pytest.mark.parametrize("kw", [
    {},
    dict(zero_pad_factor=2, dc_guard=2,
         disambiguation=SectorPolicy(phi_range_deg=(0.0, 89.0))),
], ids=["raw", "padded-sector"])
def test_multiuser_localize_matches_localize(kw):
    bs, holos = _tagged_holograms()
    want = [_outcome(lambda: localize(h, bs, **kw)) for h in holos]
    assert [isinstance(w[0], type) for w in want] == [False, False, True, False]
    assert want[2][0] is NoPeak
    got = multiuser_localize(list(reversed(holos)), bs, **kw)
    assert list(got) == [0, 1, 2, 3]
    assert [_bits(r) for r in got.values()] == want
    # a mapping keeps its own keys as tags, in ascending order
    keyed = multiuser_localize({40 - 10 * h.frequency_tag: h for h in holos}, bs, **kw)
    assert list(keyed) == [10, 20, 30, 40]
    assert [_bits(r) for r in keyed.values()] == want[::-1]


def test_multiuser_localize_validation():
    bs, holos = _tagged_holograms()
    assert multiuser_localize([], bs) == {}
    retagged = Hologram(values=holos[1].values, geometry=GEOM, frequency_tag=0)
    for repeated in ([holos[0], retagged], [holos[0], holos[0]]):
        with pytest.raises(ValueError, match="one hologram per frequency tag"):
            multiuser_localize(repeated, bs)
    pitch = ArrayGeometry(n_z=32, n_x=32, d_z_m=0.02, d_x_m=0.015,
                          f_c_hz=GEOM.f_c_hz)
    other = Hologram(values=holos[1].values, geometry=pitch, frequency_tag=1)
    for mixed in ([holos[0], other], {0: holos[0], 1: other}):
        with pytest.raises(ValueError, match="one geometry"):
            multiuser_localize(mixed, bs)


# ---------------------------------------------------------- pipeline accuracy

def _tone_bins(geom, bs, ue, pad):
    """The fringe frequency ue - bs per axis (z, x), in bins of the pad-times
    padded transform."""
    bs_f, ue_f = spatial_frequencies(bs, geom), spatial_frequencies(ue, geom)
    return [(u - b) * (pad * n) / (2 * math.pi)
            for u, b, n in zip((ue_f.omega_z, ue_f.omega_x), (bs_f.omega_z, bs_f.omega_x),
                               geom.shape)]


def _error_bins(geom, ue, est, pad):
    """The estimate's frequency error per axis (z, x), in padded bins; the
    fringe is ue - bs, so its error is the estimate's."""
    ue_f, est_f = spatial_frequencies(ue, geom), spatial_frequencies(est, geom)
    return [abs(regulate(e - u)) * (pad * n) / (2 * math.pi)
            for e, u, n in zip((est_f.omega_z, est_f.omega_x), (ue_f.omega_z, ue_f.omega_x),
                               geom.shape)]


@given(panel=st.sampled_from(((GEOM, 0), (GEOM, 1), (GEOM, 2), (PANEL_6X9, 0))),
       bs=st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
       ue=st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
       amplitude=st.floats(0.3, 3.0), pad=st.sampled_from([1, 2]))
@settings(max_examples=300, deadline=None)
def test_noiseless_oracle_estimate_is_within_a_padded_bin_of_the_truth(panel, bs, ue, amplitude,
                                                                       pad):
    """A noiseless two-source capture gives an oracle estimate whose fringe
    frequency is within one padded bin of the truth per axis.  It is within
    half a bin on an axis where the tone lies within a quarter bin of a bin
    centre, if on some axis the tone lies at least two unpadded bins
    (2*pad padded bins) from both DC and the Nyquist frequency.

    That second condition is on the input, and has a reason: the capture
    also holds the conjugate twin at -tone, which lies 2*|tone| from the
    tone around the circle of the transform, so close to the tone when the
    tone is near DC or Nyquist.  Through the aperture's sidelobes the twin
    adds to the tone's bins, and on a small panel it can move the peak
    just past half a bin, to where the spectrum has its maximum (see the
    explicit-DFT test below).  Random draws put such failures within 1.41
    unpadded bins of DC or Nyquist on both axes, none at two or more.

    The placement is one whose tone lies beyond the DC guard, and whose
    truth lies far enough inside the propagating disk that every candidate
    within a padded bin per axis is feasible.  No significance threshold
    applies: it decides whether there is a peak, not where it is.
    """
    geom, guard = panel
    bs, ue = AngularLocation(*bs), AngularLocation(*ue)
    padded = (pad * geom.n_z, pad * geom.n_x)
    ue_f = spatial_frequencies(ue, geom)
    tone = _tone_bins(geom, bs, ue, pad)
    assume(max(abs(t) for t in tone) > guard + 1)
    # The truth's direction cosines, each moved a padded bin outward, inside
    # the propagating disk u_z**2 + u_x**2 <= 1.
    lam = geom.wavelength_m
    reach = [abs(w) * lam / (2 * math.pi * d) + lam / (m * d)
             for w, d, m in zip((ue_f.omega_z, ue_f.omega_x), (geom.d_z_m, geom.d_x_m), padded)]
    assume(math.hypot(*reach) < 1.0)
    holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue, amplitude=amplitude)],
                               geom)[0]
    est = localize(holo, bs, zero_pad_factor=pad, dc_guard=guard, significance_threshold=0.0,
                   disambiguation=OraclePolicy(truth=ue)).chosen
    # Per axis, the tone's distance from the nearer of DC and Nyquist.
    clear = max(min(abs(t) % (m / 2), m / 2 - abs(t) % (m / 2)) for t, m in zip(tone, padded))
    for t, error in zip(tone, _error_bins(geom, ue, est, pad)):
        assert error <= 1.0 + 1e-9
        if abs(t - round(t)) <= 0.25 and clear >= 2 * pad:
            assert error <= 0.5 + 1e-9


def test_a_tone_near_dc_peaks_where_the_explicit_dft_does():
    """On the 6x9 panel at pad 2, an x tone 1.23 padded bins out (0.23 from
    a bin centre) is estimated 0.77 bin off, with the z tone at 0.63 bin:
    both lie within two unpadded bins of DC.  The peak is where an explicit
    matrix DFT of the mean-removed capture has its maximum, so the twin
    moves it, not the program."""
    bs, ue = AngularLocation(0.0, -12.5), AngularLocation(-13.0, 1.0)
    holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)], PANEL_6X9)[0]
    res = localize(holo, bs, zero_pad_factor=2, dc_guard=0, significance_threshold=0.0,
                   disambiguation=OraclePolicy(truth=ue))
    tone, error = _tone_bins(PANEL_6X9, bs, ue, 2), _error_bins(PANEL_6X9, ue, res.chosen, 2)
    assert np.round(tone + error, 2).tolist() == [0.63, 1.23, 0.37, 0.77]
    (n_z, n_x), (m_z, m_x) = PANEL_6X9.shape, (12, 18)
    centred = holo.values - holo.values.mean()
    dft_z = np.exp(-2j * math.pi * np.outer(np.arange(m_z // 2 + 1), np.arange(n_z)) / m_z)
    dft_x = np.exp(-2j * math.pi * np.outer(np.arange(n_x), np.arange(m_x)) / m_x)
    mags = np.abs(dft_z @ centred @ dft_x)  # the half spectrum, rows k <= m_z // 2
    peak = np.unravel_index(int(np.argmax(mags)), mags.shape)
    assert res.peak_bin == (peak[0] + 1, peak[1] + 1) == (2, 3)


# ---------------------------------------------------------- pipeline order

@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@given(geom=st.sampled_from((GEOM, PANEL_6X9)),
       bs=st.sampled_from((AngularLocation(0.0, 0.0), AngularLocation(10.0, -30.0))),
       ue=st.tuples(st.floats(-40.0, 40.0), st.floats(-70.0, 70.0)),
       detector=st.sampled_from((None, DetectorModel(noise_std=1.0),
                                 DetectorModel(noise_std=0.5, phase_jitter_std=0.2))),
       tag=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       kw=st.sampled_from(({}, dict(zero_pad_factor=2, dc_guard=2, significance_threshold=2.0),
                           dict(zero_pad_factor=3, dc_guard=1,
                                disambiguation=SectorPolicy(phi_range_deg=(0.0, 89.0))))))
@settings(max_examples=60, deadline=None)
def test_localize_after_a_hologram_csv_round_trip_is_bit_exact(round_trip_dir, geom, bs, ue,
                                                                detector, tag, seed, kw):
    """write_hologram_csv -> read_hologram_csv -> localize is localize on the
    hologram written, to the last bit of its ratio, or the same error."""
    sources = [Source.far_field(bs, frequency_tag=tag),
               Source.far_field(AngularLocation(*ue), frequency_tag=tag)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInterference)
        holo = synthesize_hologram(sources, geom, detector, seed=seed)[0]
    path = round_trip_dir / "holo.csv"
    write_hologram_csv(path, holo)
    again = read_hologram_csv(path)
    assert again.frequency_tag == tag
    assert _outcome(lambda: localize(again, bs, **kw)) == _outcome(lambda: localize(holo, bs, **kw))


@given(data=st.data(), picks=st.lists(st.integers(0, len(MEMO_BANK) - 1), min_size=1, max_size=7),
       as_mapping=st.booleans(), policy=st.sampled_from(ORDER_POLICIES),
       pad_guard=st.sampled_from([(1, 0), (2, 2)]))
@settings(max_examples=60, deadline=None)
def test_multiuser_localize_is_the_same_for_any_input_order(data, picks, as_mapping, policy,
                                                            pad_guard):
    """The same holograms in any order, as a sequence or as a mapping built
    in that order, give the same results under the same tags, in ascending
    tag order."""
    tags = data.draw(st.lists(st.integers(0, 10**6), min_size=len(picks), max_size=len(picks),
                              unique=True))
    holos = [Hologram(values=MEMO_BANK[i], geometry=GEOM, frequency_tag=tag)
             for i, tag in zip(picks, tags)]
    pad, guard = pad_guard
    kw = dict(zero_pad_factor=pad, dc_guard=guard, disambiguation=policy,
              significance_threshold=2.0)

    def outcomes(ordered):
        given_holos = {h.frequency_tag: h for h in ordered} if as_mapping else ordered
        out = multiuser_localize(given_holos, AngularLocation(0.0, 0.0), **kw)
        return [(tag, _bits(result)) for tag, result in out.items()]

    want = outcomes(sorted(holos, key=lambda h: h.frequency_tag))
    assert [tag for tag, _ in want] == sorted(tags)
    perm = data.draw(st.permutations(range(len(holos))))
    assert outcomes([holos[i] for i in perm]) == want


# ------------------------------------------------------------------- report

def _report_fields(text):
    return dict(line.split("=", 1) for line in text.splitlines())


def test_report_round_trip():
    res = localize(fixture_hologram(), AngularLocation(0.0, 0.0),
                   disambiguation=SectorPolicy(phi_range_deg=(0.0, 90.0)))
    text = format_report(res)
    assert text.endswith("\n")
    fields = _report_fields(text)
    assert list(fields) == [
        f"{name}_{axis}_deg" for name in ("candidate_1", "candidate_2", "chosen")
        for axis in ("theta", "phi")
    ] + ["peak_bin_z", "peak_bin_x", "peak_to_median_ratio"]
    assert float(fields["candidate_1_phi_deg"]) == res.candidate_1.phi_deg
    assert float(fields["chosen_phi_deg"]) == res.chosen.phi_deg
    assert fields["peak_bin_z"] == "1" and fields["peak_bin_x"] == "5"
    assert fields["peak_to_median_ratio"] == "inf"


def test_report_encodes_missing_choice_as_none():
    res = localize(fixture_hologram(), AngularLocation(0.0, 0.0))
    fields = _report_fields(format_report(res))
    assert fields["chosen_theta_deg"] == "none"
    assert fields["chosen_phi_deg"] == "none"
    assert float(fields["candidate_2_phi_deg"]) == res.candidate_2.phi_deg
