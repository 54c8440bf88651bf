"""End-to-end acceptance criteria for the holographic localization pipeline.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantity, so `pytest -s tests/test_acceptance.py -v`
reads as the acceptance checklist.  Tolerances are pinned in-line.
"""

import math
import time
import warnings

import numpy as np
import pytest

from holoris.beamforming import (
    CodingMatrix,
    farfield_phase_profile,
    quantize_1bit,
    received_power,
)
from holoris.errors import NoPeak
from holoris.experiments import (
    CALIBRATED_SIGNIFICANCE_THRESHOLD,
    ExperimentConfig,
    ber_curve,
    calibrated_detector,
    gain_sweep,
    qam_ber,
    run_localization_grid,
)
from holoris.geometry import (
    AngularLocation,
    ArrayGeometry,
    SpatialFrequencyPair,
    angles_from_frequencies,
    default_geometry,
    spatial_frequencies,
    unit_direction,
    wrap_degrees,
)
from holoris.localization import (
    OraclePolicy,
    Spectrum,
    candidate_frequencies,
    fft2,
    find_peak,
    localize,
    ml_refine,
    multiuser_localize,
    regulate,
)
from holoris.wavefield import (
    Hologram,
    Source,
    read_hologram_csv,
    synthesize_hologram,
    write_hologram_csv,
)
from holoris.beamforming import read_coding_file, write_coding_file

pytestmark = pytest.mark.filterwarnings("ignore::holoris.errors.DegenerateInterference")

GEOM = default_geometry()


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def total_error_deg(est, truth):
    return math.hypot(wrap_degrees(est.theta_deg - truth.theta_deg),
                      wrap_degrees(est.phi_deg - truth.phi_deg))


def pair_hologram(bs, ue, geom=GEOM):
    return synthesize_hologram(
        [Source.far_field(bs), Source.far_field(ue)], geom)[0]


def test_criterion_01_on_grid_exactness():
    """Bin-aligned fringes: 3 nonzero bins, twin exact to 1e-9 degrees, < 5 s."""
    rng = np.random.default_rng(20260817)
    t0 = time.perf_counter()
    worst_leak = 0.0
    worst_twin = 0.0
    done = 0
    while done < 20:
        n_z = int(rng.integers(16, 49))
        n_x = int(rng.integers(16, 49))
        lam = 299792458.0 / 3.5e9
        d = float(rng.uniform(0.25, 0.45)) * lam
        geom = ArrayGeometry(n_z=n_z, n_x=n_x, d_z_m=d, d_x_m=d, f_c_hz=3_500_000_000)
        bs = AngularLocation(float(rng.uniform(-40, 40)), float(rng.uniform(-40, 40)))
        wbs = spatial_frequencies(bs, geom)
        k_z = int(rng.integers(1, n_z // 2))
        k_x = int(rng.integers(0, n_x))
        if (2 * k_x) % n_x == 0 and (2 * k_z) % n_z == 0:
            continue  # self-conjugate bin: pair and twin coincide
        freqs = SpatialFrequencyPair(
            omega_z=regulate(wbs.omega_z + 2 * math.pi * k_z / n_z),
            omega_x=regulate(wbs.omega_x + 2 * math.pi * k_x / n_x),
        )
        kappa = 2 * math.pi * d / lam
        if (freqs.omega_z / kappa) ** 2 + (freqs.omega_x / kappa) ** 2 >= 0.98:
            continue  # keep the constructed terminal clearly propagating
        ue = angles_from_frequencies(freqs, geom)
        holo = pair_hologram(bs, ue, geom)
        mags = np.sort(np.abs(fft2(holo).values).ravel())[::-1]
        worst_leak = max(worst_leak, float(mags[3] / mags[0]))
        res = localize(holo, bs, disambiguation=OraclePolicy(truth=ue))
        twin = min(total_error_deg(c, ue)
                   for c in (res.candidate_1, res.candidate_2) if c is not None)
        worst_twin = max(worst_twin, twin)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst_leak < 1e-9 and worst_twin < 1e-9 and elapsed < 5.0
    assert report(1, ok,
                  f"20 geometries: residual bins {worst_leak:.2e} of peak, "
                  f"twin error {worst_twin:.2e} deg, {elapsed:.2f} s")


def test_criterion_02_grid_within_9_degrees():
    """Noiseless placement grid: 100% of estimates within 9 degrees, < 30 s."""
    t0 = time.perf_counter()
    stats, records = run_localization_grid(ExperimentConfig(trials=1, seed=0))
    elapsed = time.perf_counter() - t0
    worst = max(r.err_total_deg for r in records if r.status == "ok")
    ok = (stats.fraction_within_9deg == 1.0 and stats.n_failures == 0
          and elapsed < 30.0)
    assert report(2, ok,
                  f"fraction within 9 deg = {stats.fraction_within_9deg:.4f} "
                  f"({stats.n_samples} records, worst {worst:.3f} deg), {elapsed:.2f} s")


def test_criterion_03_resolution_bracket():
    """Worst noiseless error over dense near-broadside sweeps in [3.3, 4.5] deg."""
    def sweep_worst(bs, locs):
        worst = 0.0
        for ue in locs:
            res = localize(pair_hologram(bs, ue), bs,
                           disambiguation=OraclePolicy(truth=ue))
            worst = max(worst, total_error_deg(res.chosen, ue))
        return worst

    offsets = np.arange(-15.0, 15.0 + 1e-9, 0.25)
    worst_az = sweep_worst(AngularLocation(0.0, -30.0),
                           [AngularLocation(0.0, float(p)) for p in offsets])
    worst_el = sweep_worst(AngularLocation(-25.0, 0.0),
                           [AngularLocation(float(t), 0.0) for t in offsets])
    worst = max(worst_az, worst_el)
    ok = 3.3 <= worst <= 4.5
    assert report(3, ok,
                  f"worst sweep error {worst:.4f} deg "
                  f"(azimuth {worst_az:.4f}, elevation {worst_el:.4f}), "
                  f"bracket [3.3, 4.5]")


def test_criterion_04_noise_error_ordering():
    """Calibrated noise: mean deviation in [5, 6.5] deg; azimuth STD >= elevation
    STD in every seeded run of >= 500 samples."""
    det = calibrated_detector()
    runs = []
    stats, _ = run_localization_grid(ExperimentConfig(
        trials=20, seed=1, detector=det,
        significance_threshold=CALIBRATED_SIGNIFICANCE_THRESHOLD))
    runs.append(stats)
    for seed in range(2, 8):
        s, _ = run_localization_grid(ExperimentConfig(
            trials=10, seed=seed, detector=det,
            significance_threshold=CALIBRATED_SIGNIFICANCE_THRESHOLD))
        runs.append(s)
    tad = runs[0].total_avg_deviation_deg
    in_window = 5.0 <= tad <= 6.5
    enough = all(s.n_samples >= 500 for s in runs)
    ordered = all(s.std_phi_deg >= s.std_theta_deg for s in runs)
    ok = in_window and enough and ordered
    assert report(4, ok,
                  f"total avg deviation {tad:.3f} deg (window [5, 6.5]); "
                  f"azimuth >= elevation STD in {len(runs)}/{len(runs)} runs "
                  f"(min n = {min(s.n_samples for s in runs)})")


def test_criterion_05_gain_sweep():
    """Closed-loop link gain >= 15 dB at every non-specular azimuth, < 60 s."""
    t0 = time.perf_counter()
    points = gain_sweep(ExperimentConfig(trials=1, seed=0),
                        phi_range_deg=tuple(range(-60, 61, 15)))
    elapsed = time.perf_counter() - t0
    by_phi = {p.phi_deg: p for p in points}
    specular_flagged = by_phi[0.0].status != "ok"
    steered = [p for p in points if p.phi_deg != 0.0]
    min_gain = min(p.gain_db for p in steered)
    ok = (specular_flagged and all(p.status == "ok" for p in steered)
          and min_gain >= 15.0 and elapsed < 60.0)
    assert report(5, ok,
                  f"min gain {min_gain:.2f} dB over {len(steered)} azimuths "
                  f"(threshold 15 dB), specular point flagged "
                  f"{'yes' if specular_flagged else 'NO'}, {elapsed:.2f} s")


def test_criterion_06_one_bit_loss():
    """Mean 1-bit vs continuous coding deficit in [3, 5] dB over 100 geometries."""
    rng = np.random.default_rng(42)
    losses = []
    while len(losses) < 100:
        n = int(rng.integers(24, 41))
        lam = 299792458.0 / 3.5e9
        d = float(rng.uniform(0.25, 0.45)) * lam
        geom = ArrayGeometry(n_z=n, n_x=n, d_z_m=d, d_x_m=d, f_c_hz=3_500_000_000)
        bs = AngularLocation(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
        ue = AngularLocation(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
        s = unit_direction(bs) + unit_direction(ue)
        if math.hypot(s[0], s[2]) < 0.2:
            continue  # near-specular: the ideal profile is flat, 1-bit is lossless
        prof = farfield_phase_profile(bs, ue, geom)
        src = Source.far_field(bs)
        p_cont = received_power(prof, src, ue, geom)
        p_1bit = received_power(quantize_1bit(prof), src, ue, geom)
        losses.append(10.0 * math.log10(p_cont / p_1bit))
    mean = float(np.mean(losses))
    ok = 3.0 <= mean <= 5.0
    assert report(6, ok,
                  f"mean quantization loss {mean:.3f} dB over {len(losses)} "
                  f"geometries (window [3, 5])")


def test_criterion_07_invariant_suite(tmp_path):
    """Seven structural invariants, 1000 randomized cases each."""
    rng = np.random.default_rng(1234)
    cases = 1000

    # Parseval and conjugate symmetry of the transform
    for _ in range(cases):
        values = rng.uniform(0.0, 4.0, size=(8, 8))
        holo = Hologram(values=values, geometry=ArrayGeometry(
            n_z=8, n_x=8, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000))
        spec = fft2(holo).values
        assert np.sum(np.abs(spec) ** 2) == pytest.approx(
            64.0 * np.sum(values ** 2), rel=1e-9)
        flipped = np.conj(spec[(-np.arange(8)) % 8][:, (-np.arange(8)) % 8])
        assert np.allclose(spec, flipped, rtol=1e-9, atol=1e-9 * np.abs(spec).max())

    # regulate: wrapped into [-pi, pi], congruent mod 2 pi
    xs = rng.uniform(-100.0, 100.0, size=cases)
    for x in xs:
        r = regulate(float(x))
        assert -math.pi <= r <= math.pi
        k = (x - r) / (2.0 * math.pi)
        assert abs(k - round(k)) < 1e-9

    # geometry round trip to 1e-9 degrees
    lam = 299792458.0 / 3.5e9
    for _ in range(cases):
        geom = ArrayGeometry(n_z=8, n_x=8,
                             d_z_m=float(rng.uniform(0.1, 0.5)) * lam,
                             d_x_m=float(rng.uniform(0.1, 0.5)) * lam,
                             f_c_hz=3_500_000_000)
        truth = AngularLocation(float(rng.uniform(-80, 80)), float(rng.uniform(-80, 80)))
        back = angles_from_frequencies(spatial_frequencies(truth, geom), geom)
        assert total_error_deg(back, truth) < 1e-9

    # amplitude scaling never moves the spectral argmax
    for _ in range(cases):
        values = rng.uniform(0.0, 4.0, size=(8, 8))
        scale = float(rng.uniform(1e-3, 1e3))
        a = find_peak(Spectrum(values=np.fft.fft2(values - values.mean())),
                      significance_threshold=0.0)[0]
        b = find_peak(Spectrum(values=np.fft.fft2(scale * values - scale * values.mean())),
                      significance_threshold=0.0)[0]
        assert a == b

    # twin candidate set is invariant under bin conjugation
    for _ in range(cases):
        bs = spatial_frequencies(
            AngularLocation(float(rng.uniform(-60, 60)), float(rng.uniform(-60, 60))),
            GEOM)
        k = int(rng.integers(0, 32))
        l = int(rng.integers(0, 32))
        a = candidate_frequencies(bs, (k + 1, l + 1), (32, 32))
        b = candidate_frequencies(bs, ((-k) % 32 + 1, (-l) % 32 + 1), (32, 32))

        def key(p):
            return tuple(round(f(w), 9) for w in (p.omega_z, p.omega_x)
                         for f in (math.cos, math.sin))

        assert {key(a[0]), key(a[1])} == {key(b[0]), key(b[1])}

    # flipping every 1-bit state is a global pi shift: power is unchanged
    small = ArrayGeometry(n_z=8, n_x=8, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    src = Source.far_field(AngularLocation(0.0, 0.0))
    ue = AngularLocation(5.0, 20.0)
    for _ in range(cases):
        states = rng.integers(0, 2, size=(8, 8))
        coding = CodingMatrix(states=states)
        flipped = CodingMatrix(states=1 - states)
        assert received_power(flipped, src, ue, small) == pytest.approx(
            received_power(coding, src, ue, small), rel=1e-9)

    # file round trips are bit-exact
    holo_path = tmp_path / "roundtrip_holo.csv"
    code_path = tmp_path / "roundtrip_coding.txt"
    for _ in range(cases):
        values = rng.uniform(0.0, 9.0, size=(4, 4))
        holo = Hologram(values=values, geometry=ArrayGeometry(
            n_z=4, n_x=4, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000))
        write_hologram_csv(holo_path, holo)
        assert np.array_equal(read_hologram_csv(holo_path).values, values)
        coding = CodingMatrix(states=rng.integers(0, 2, size=(4, 4)))
        write_coding_file(code_path, coding)
        assert np.array_equal(read_coding_file(code_path).states, coding.states)

    assert report(7, True, f"7 invariants x {cases} randomized cases")


def test_criterion_08_ml_dominance():
    """Grid-search refinement never loses to the FFT candidate; <= 0.1 deg."""
    rng = np.random.default_rng(7)
    bs = AngularLocation(0.0, -30.0)
    worst_fine = 0.0
    dominated = True
    for _ in range(12):
        ue = AngularLocation(float(rng.uniform(-30, 30)), float(rng.uniform(-45, 45)))
        holo = pair_hologram(bs, ue)
        res = localize(holo, bs, disambiguation=OraclePolicy(truth=ue))
        coarse = total_error_deg(res.chosen, ue)
        fine = total_error_deg(ml_refine(holo, bs, res.chosen), ue)
        worst_fine = max(worst_fine, fine)
        dominated = dominated and fine <= coarse + 1e-12
    ok = dominated and worst_fine <= 0.1
    assert report(8, ok,
                  f"refined error <= coarse on 12/12 angles, "
                  f"worst refined {worst_fine:.4f} deg (bound 0.1)")


def test_criterion_09_ber_model():
    """Monotone waterfall, exact gain shift, quadrature cross-check to 1e-6."""
    from scipy.integrate import quad
    from scipy.stats import norm

    grid = np.arange(-10.0, 30.25, 0.25)
    bers = [qam_ber(float(s), 64) for s in grid]
    monotone = all(a >= b - 1e-15 for a, b in zip(bers, bers[1:]))

    gain = 16.4
    shifted = ber_curve(grid, gain_db=gain, modulation_order=64)
    shift_exact = all(b == qam_ber(float(s) + gain, 64) for (s, b) in shifted)

    # independent oracle at 20 dB: integrate the Gaussian over every
    # mis-decided Gray interval of the 8-level in-phase axis
    snr_db = 20.0
    side, bits = 8, 3
    es = 2.0 * (side * side - 1) / 3.0
    sigma = math.sqrt(es / (2.0 * 10.0 ** (snr_db / 10.0)))
    levels = [2 * i - (side - 1) for i in range(side)]
    gray = [i ^ (i >> 1) for i in range(side)]
    total = 0.0
    for i, li in enumerate(levels):
        for j, lj in enumerate(levels):
            weight = bin(gray[i] ^ gray[j]).count("1")
            if weight == 0:
                continue
            lo = -math.inf if j == 0 else (levels[j - 1] + lj) / 2.0
            hi = math.inf if j == side - 1 else (lj + levels[j + 1]) / 2.0
            if math.isinf(lo):
                p = norm.cdf(hi, loc=li, scale=sigma)
            elif math.isinf(hi):
                p = norm.sf(lo, loc=li, scale=sigma)
            else:
                p, _ = quad(lambda x: norm.pdf(x, loc=li, scale=sigma), lo, hi)
            total += weight * p
    oracle = total / (side * bits)
    diff = abs(qam_ber(snr_db, 64) - oracle)
    ok = monotone and shift_exact and diff <= 1e-6
    assert report(9, ok,
                  f"monotone {'yes' if monotone else 'NO'}, gain shift exact "
                  f"{'yes' if shift_exact else 'NO'}, 64-QAM @ 20 dB vs "
                  f"quadrature |diff| = {diff:.2e}")


def test_criterion_10_multiuser_isolation():
    """K = 4 tags: each within its quantization ceiling; one degenerate tag
    fails alone."""
    bs = AngularLocation(0.0, 0.0)
    users = {
        0: AngularLocation(10.0, 25.0),
        1: AngularLocation(-12.0, -40.0),
        2: bs,                       # degenerate: no fringes on this tag
        3: AngularLocation(14.0, 55.0),
    }
    sources = []
    for tag, loc in users.items():
        sources.append(Source.far_field(bs, frequency_tag=tag))
        sources.append(Source.far_field(loc, frequency_tag=tag))
    holos = synthesize_hologram(sources, GEOM)
    combined = multiuser_localize(holos, bs)
    by_tag = {h.frequency_tag: h for h in holos}

    def quantization_ceiling(truth):
        # the estimator returns reference +/- an on-grid differential; the 4
        # rounding corners around the true differential bound its error
        wbs = spatial_frequencies(bs, GEOM)
        wue = spatial_frequencies(truth, GEOM)
        worst = 0.0

        def corners(delta, m):
            lo = math.floor(delta * m / (2.0 * math.pi)) * 2.0 * math.pi / m
            return (lo, lo + 2.0 * math.pi / m)
        for dz in corners(regulate(wue.omega_z - wbs.omega_z), 32):
            for dx in corners(regulate(wue.omega_x - wbs.omega_x), 32):
                est = angles_from_frequencies(SpatialFrequencyPair(
                    omega_z=regulate(wbs.omega_z + dz),
                    omega_x=regulate(wbs.omega_x + dx)), GEOM)
                worst = max(worst, total_error_deg(est, truth))
        return worst + 1e-9

    degenerate_isolated = (isinstance(combined[2], NoPeak) and
                           not any(isinstance(combined[t], Exception)
                                   for t in (0, 1, 3)))
    errors = {}
    bounded = True
    unaffected = True
    for tag in (0, 1, 3):
        res = localize(by_tag[tag], bs,
                       disambiguation=OraclePolicy(truth=users[tag]))
        err = total_error_deg(res.chosen, users[tag])
        errors[tag] = err
        bounded = bounded and err <= quantization_ceiling(users[tag])
        solo = localize(pair_hologram(bs, users[tag]), bs,
                        disambiguation=OraclePolicy(truth=users[tag]))
        unaffected = (unaffected and solo.chosen == res.chosen
                      and combined[tag].candidate_1 == res.candidate_1
                      and combined[tag].candidate_2 == res.candidate_2)
    ok = degenerate_isolated and bounded and unaffected
    assert report(10, ok,
                  f"errors deg: " +
                  ", ".join(f"tag{t}={errors[t]:.3f}" for t in sorted(errors)) +
                  f"; degenerate tag isolated {'yes' if degenerate_isolated else 'NO'}"
                  f", others bit-identical to single-user runs "
                  f"{'yes' if unaffected else 'NO'}")
