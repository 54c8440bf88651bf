"""Placement-grid statistics, gain sweep, BER model, and artifact writers.

Frozen expectations below come from independent recomputation: grid error
statistics from per-record brute-force field sums, BER values from
numerical quadrature of the Gray-mapped decision regions (see
test_qam_ber_matches_quadrature_oracle), and gains from the direct power
evaluation in test_beamforming.
"""

import math
import warnings

import numpy as np
import pytest

from holoris.experiments import (
    CALIBRATED_NOISE_STD,
    CALIBRATED_SIGNIFICANCE_THRESHOLD,
    ErrorStatistics,
    ExperimentConfig,
    GridRecord,
    _PCG64State,
    _capture_seeds,
    _pcg64_states,
    _placement_generators,
    ber_curve,
    calibrated_detector,
    gain_sweep,
    paper_bs_locations,
    paper_ue_locations,
    qam_ber,
    run_localization_grid,
    showcase_samples,
    showcase_three_samples,
    write_ber_csv,
    write_cdf_csv,
    write_grid_records_csv,
    write_manifest,
    write_spectrum_csv,
    write_statistics_txt,
    write_sweep_csv,
)
from holoris.geometry import AngularLocation, ArrayGeometry

pytestmark = pytest.mark.filterwarnings("ignore::holoris.errors.DegenerateInterference")

# Noiseless placement grid, bare transform (no padding, no DC guard).
PAD1_FRACTION_WITHIN_9 = 0.9807692307692307
PAD1_TAD_DEG = 3.3632719461803005
PAD1_WORST_DEG = 9.348124339394321
PAD1_EXAMPLE_ERR_PHI = 2.367221606087327   # broadside BS, user at (0, 30)
# Same grid at the suite defaults (2x zero padding, DC guard 2).
DEFAULT_FRACTION_WITHIN_9 = 1.0
DEFAULT_TAD_DEG = 1.935914376772312
DEFAULT_WORST_DEG = 4.967324478583732


def test_placement_grid_shapes():
    bs = paper_bs_locations()
    ue = paper_ue_locations()
    assert len(bs) == 4 and len(ue) == 27
    assert AngularLocation(0.0, 0.0) in ue  # the coincident pairs are skipped per-BS


def test_noiseless_grid_frozen_statistics_pad1():
    cfg = ExperimentConfig(trials=1, seed=0, zero_pad_factor=1, dc_guard=0)
    stats, records = run_localization_grid(cfg)
    assert len(records) == 104          # 4 BS x 27 UE minus 4 coincident pairs
    assert stats.n_failures == 0
    assert stats.fraction_within_9deg == pytest.approx(PAD1_FRACTION_WITHIN_9, abs=1e-12)
    assert stats.total_avg_deviation_deg == pytest.approx(PAD1_TAD_DEG, abs=1e-9)
    worst = max(r.err_total_deg for r in records)
    assert worst == pytest.approx(PAD1_WORST_DEG, abs=1e-9)
    ex = [r for r in records
          if (r.bs.theta_deg, r.bs.phi_deg) == (0.0, 0.0)
          and (r.ue.theta_deg, r.ue.phi_deg) == (0.0, 30.0)]
    assert ex[0].err_phi_deg == pytest.approx(PAD1_EXAMPLE_ERR_PHI, abs=1e-12)


def test_noiseless_grid_frozen_statistics_defaults():
    stats, records = run_localization_grid(ExperimentConfig(trials=1, seed=0))
    assert stats.fraction_within_9deg == DEFAULT_FRACTION_WITHIN_9
    assert stats.total_avg_deviation_deg == pytest.approx(DEFAULT_TAD_DEG, abs=1e-9)
    assert max(r.err_total_deg for r in records) == pytest.approx(DEFAULT_WORST_DEG, abs=1e-9)


def test_grid_runs_are_seed_reproducible():
    det = calibrated_detector()
    cfg = ExperimentConfig(trials=2, seed=7, detector=det,
                           significance_threshold=CALIBRATED_SIGNIFICANCE_THRESHOLD)
    a_stats, a_recs = run_localization_grid(cfg)
    b_stats, b_recs = run_localization_grid(cfg)
    assert a_stats == b_stats
    assert a_recs == b_recs
    c_stats, _ = run_localization_grid(
        ExperimentConfig(trials=2, seed=8, detector=det,
                         significance_threshold=CALIBRATED_SIGNIFICANCE_THRESHOLD))
    assert c_stats != a_stats


@pytest.mark.parametrize("seed", [0, 1])
def test_grid_records_match_per_record_oracle(seed):
    """The stacked grid equals one synthesize_hologram + localize per record."""
    from holoris.errors import AllCandidatesInfeasible, NoPeak
    from holoris.geometry import wrap_degrees
    from holoris.localization import OraclePolicy, localize
    from holoris.wavefield import Source, synthesize_hologram

    cfg = ExperimentConfig(trials=3, seed=seed, detector=calibrated_detector(),
                           significance_threshold=CALIBRATED_SIGNIFICANCE_THRESHOLD)
    want = []
    pairs = [(bs, ue) for bs in cfg.bs_locations for ue in cfg.ue_locations if bs != ue]
    for index, (bs, ue) in enumerate(pairs):
        for trial in range(cfg.trials):
            capture = int(np.random.SeedSequence([seed, index, trial]).generate_state(1)[0])
            holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)],
                                       cfg.geometry, cfg.detector, seed=capture)[0]
            try:
                res = localize(holo, bs, zero_pad_factor=cfg.zero_pad_factor,
                               disambiguation=OraclePolicy(truth=ue), dc_guard=cfg.dc_guard,
                               significance_threshold=cfg.significance_threshold)
            except (NoPeak, AllCandidatesInfeasible) as exc:
                want.append(GridRecord(bs=bs, ue=ue, trial=trial, status=type(exc).__name__))
                continue
            err_t = wrap_degrees(res.chosen.theta_deg - ue.theta_deg)
            err_p = wrap_degrees(res.chosen.phi_deg - ue.phi_deg)
            want.append(GridRecord(
                bs=bs, ue=ue, trial=trial, status="ok", estimate=res.chosen,
                err_theta_deg=err_t, err_phi_deg=err_p,
                err_total_deg=math.hypot(err_t, err_p), peak_bin=res.peak_bin,
                peak_to_median_ratio=res.peak_to_median_ratio))
    _, got = run_localization_grid(cfg)
    assert len(got) == len(want) == 104 * 3
    for g, w in zip(got, want):  # by repr: the NaN fields of failures never compare equal
        assert repr(g) == repr(w)
    assert {r.status for r in want} == {"ok", "AllCandidatesInfeasible"}


def test_gain_sweep_matches_per_azimuth_localize():
    """gain_sweep equals one synthesize_hologram + localize per azimuth."""
    from holoris.errors import AllCandidatesInfeasible, NoPeak
    from holoris.localization import OraclePolicy, localize
    from holoris.wavefield import Source, synthesize_hologram

    cfg = ExperimentConfig(seed=4, detector=calibrated_detector(),
                           significance_threshold=CALIBRATED_SIGNIFICANCE_THRESHOLD)
    phis = tuple(float(p) for p in range(-60, 61, 15))
    bs = cfg.bs_locations[0]
    want = []
    for index, phi in enumerate(phis):
        ue = AngularLocation(0.0, phi)
        seed = int(np.random.SeedSequence([cfg.seed, index, 0]).generate_state(1)[0])
        holo = synthesize_hologram([Source.far_field(bs), Source.far_field(ue)],
                                   cfg.geometry, cfg.detector, seed=seed)[0]
        try:
            res = localize(holo, bs, zero_pad_factor=cfg.zero_pad_factor,
                           disambiguation=OraclePolicy(truth=ue), dc_guard=cfg.dc_guard,
                           significance_threshold=cfg.significance_threshold)
        except (NoPeak, AllCandidatesInfeasible) as exc:
            want.append((phi, type(exc).__name__, None))
            continue
        want.append((phi, "ok", res.chosen))
    points = gain_sweep(cfg, phis)
    assert [(p.phi_deg, p.status, p.estimate) for p in points] == want
    assert sum(p.status == "ok" for p in points) >= 6


def test_capture_seeds_match_seed_sequence():
    """The vectorized seeding equals SeedSequence([master, i, t]).generate_state(1)
    on 10**5 random 32-bit triples and on masters of several 32-bit words."""
    rng = np.random.default_rng(20)
    masters = rng.integers(0, 2**32, size=100, dtype=np.uint64)
    masters[:2] = (0, 2**32 - 1)
    pairs = rng.integers(0, 2**32, size=(100, 1000, 2), dtype=np.uint64)
    got = np.stack([_capture_seeds(int(m), ij[:, 0], ij[:, 1])[0]
                    for m, ij in zip(masters, pairs)])
    # Entropy of words below 2**32 enters SeedSequence as those words, so an
    # array of them stands for the list [master, i, t] and is built faster.
    triples = np.concatenate([np.broadcast_to(masters[:, None, None], (100, 1000, 1)), pairs],
                             axis=2).astype(np.uint32)
    want = np.array([np.random.SeedSequence(t).generate_state(1)[0]
                     for t in triples.reshape(-1, 3)]).reshape(100, 1000)
    assert np.array_equal(got, want)
    for master in (0, 2**32 - 1, 2**32, 2**40 + 7, 10**40):
        i, t = pairs[0, :20, 0], pairs[0, :20, 1]
        want = [np.random.SeedSequence([master, int(a), int(b)]).generate_state(1)[0]
                for a, b in zip(i, t)]
        assert _capture_seeds(master, i, t)[0].tolist() == want
    with pytest.raises(ValueError):
        _capture_seeds(0, [2**32], 0)


@pytest.mark.parametrize("request_args", [(4,), (8, np.uint64), (4, np.uint32), (2, np.uint64)])
def test_pcg64_state_hands_out_only_4_uint64_words(request_args):
    state = _pcg64_states(np.zeros(1, dtype=np.uint32))[0]
    assert np.array_equal(_PCG64State(state).generate_state(4, np.uint64), state)
    with pytest.raises(ValueError, match="^holds a PCG64 state only: 4 uint64 words$"):
        _PCG64State(state).generate_state(*request_args)


def test_placement_generators_draw_as_default_rng():
    """The suites' generators draw what np.random.default_rng(seed) draws, for
    derived seeds and for seed 0."""
    seeds = _capture_seeds(7, np.arange(4)[:, None], np.arange(5))[0].ravel().tolist()
    gens = [g for placement in _placement_generators(7, range(4), 5) for g in placement]
    seeds.append(0)
    gens.append(np.random.Generator(np.random.PCG64(
        _PCG64State(_pcg64_states(np.zeros(1, dtype=np.uint32))[0]))))
    assert len(gens) == 21
    for seed, gen in zip(seeds, gens):
        ref = np.random.default_rng(seed)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.standard_normal(8), ref.standard_normal(8))
        assert np.array_equal(gen.integers(0, 2**62, 8), ref.integers(0, 2**62, 8))


def test_calibrated_detector_values():
    det = calibrated_detector()
    assert det.noise_std == CALIBRATED_NOISE_STD == 6.9
    assert det.phase_jitter_std == 0.2
    assert CALIBRATED_SIGNIFICANCE_THRESHOLD == 2.0


def test_phase_jitter_never_moves_the_peak():
    """A global per-capture phase offset shifts fringes but not |spectrum| bins."""
    from holoris.localization import localize
    from holoris.wavefield import DetectorModel, Source, synthesize_hologram
    from holoris.geometry import default_geometry

    geom = default_geometry()
    bs = AngularLocation(0.0, 0.0)
    ue = AngularLocation(4.0, 27.0)
    clean = synthesize_hologram(
        [Source.far_field(bs), Source.far_field(ue)], geom)[0]
    ref_bin = localize(clean, bs).peak_bin
    for seed in range(8):
        jittered = synthesize_hologram(
            [Source.far_field(bs), Source.far_field(ue)], geom,
            detector=DetectorModel(phase_jitter_std=0.4), seed=seed)[0]
        assert localize(jittered, bs).peak_bin == ref_bin


def test_error_statistics_from_records_oracle():
    def rec(et, ep):
        return GridRecord(
            bs=AngularLocation(0.0, 0.0), ue=AngularLocation(0.0, 10.0),
            trial=0, status="ok",
            estimate=AngularLocation(et, 10.0 + ep),
            err_theta_deg=et, err_phi_deg=ep,
            err_total_deg=math.hypot(et, ep),
        )

    records = [rec(1.0, 2.0), rec(-1.0, 0.5), rec(0.5, -2.5),
               GridRecord(bs=AngularLocation(0.0, 0.0), ue=AngularLocation(0.0, 10.0),
                          trial=1, status="NoPeak")]
    stats = ErrorStatistics.from_records(records)
    # deviations about the truth, N-1 normalization
    std_t = math.sqrt((1.0 + 1.0 + 0.25) / 2.0)
    std_p = math.sqrt((4.0 + 0.25 + 6.25) / 2.0)
    assert stats.std_theta_deg == pytest.approx(std_t, rel=1e-12)
    assert stats.std_phi_deg == pytest.approx(std_p, rel=1e-12)
    assert stats.total_avg_deviation_deg == pytest.approx(math.hypot(std_t, std_p), rel=1e-12)
    assert stats.n_samples == 3 and stats.n_failures == 1
    assert stats.fraction_within_9deg == 1.0
    # cdf is a nondecreasing curve ending at 1
    fracs = [f for _, f in stats.cdf]
    assert fracs == sorted(fracs) and fracs[-1] == 1.0
    with pytest.raises(ValueError):
        ErrorStatistics.from_records(records[:1])  # not enough samples for N-1


# ---------------------------------------------------------------- gain sweep

def test_gain_sweep_frozen_values():
    cfg = ExperimentConfig(trials=1, seed=0)
    points = gain_sweep(cfg, phi_range_deg=tuple(range(-60, 61, 15)))
    by_phi = {p.phi_deg: p for p in points}
    assert by_phi[0.0].status == "NoPeak"          # degenerate: user on the reference
    expected = {
        -60.0: 21.79860424595466,
        -45.0: 21.338007418320835,
        -30.0: 18.907600132413783,
        -15.0: 25.228783804019205,
        15.0: 25.228783804019205,
        30.0: 18.90760013241378,
        45.0: 21.338007418320835,
        60.0: 21.79860424595466,
    }
    for phi, gain in expected.items():
        p = by_phi[phi]
        assert p.status == "ok"
        assert p.gain_db == pytest.approx(gain, rel=1e-12)
        # coding built from the estimate loses little over coding from truth
        assert abs(p.gain_db - p.gain_from_truth_db) <= 3.0
        assert not p.baseline_floored


# ----------------------------------------------------------------------- BER

QAM64_FROZEN = {
    0.0: 0.35986269696117196,
    10.0: 0.1525464332754717,
    20.0: 0.00848643010592024,
    25.0: 3.04009240092951e-05,
}


def test_qam_ber_frozen_values():
    for snr, ber in QAM64_FROZEN.items():
        assert qam_ber(snr, 64) == pytest.approx(ber, rel=1e-12)
    assert qam_ber(10.0, 4) == pytest.approx(0.0007827011290012635, rel=1e-12)
    assert qam_ber(10.0, 16) == pytest.approx(0.05899272526791441, rel=1e-12)
    assert qam_ber(-40.0, 64) == pytest.approx(0.49883916678660184, rel=1e-12)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_qam_ber_beyond_the_float_range_is_the_curve_limit(order):
    # 10**(snr_db/10) overflows at +4000 dB and underflows to 0 at -4000 dB
    for snr_db in (4000.0, math.inf):
        assert qam_ber(snr_db, order) == 0.0
        assert qam_ber(-snr_db, order) == 0.5
    # the limits the computed curve already reaches exactly
    assert qam_ber(3000.0, order) == 0.0
    assert qam_ber(-3000.0, order) == 0.5


def test_qam_ber_matches_quadrature_oracle():
    """Integrate the noise density over every mis-labeled decision region.

    Per in-phase axis of Gray-coded square QAM: transmit level l, decide
    level m when the noisy sample falls in m's interval; accumulate the
    Hamming weight of the Gray label difference times that probability.
    """
    from scipy.integrate import quad
    from scipy.stats import norm

    def oracle(snr_db, order):
        side = int(round(math.sqrt(order)))
        bits_per_axis = int(math.log2(side))
        es = 2.0 * (side * side - 1) / 3.0      # mean symbol energy at unit spacing
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
        return total / (side * bits_per_axis)

    for snr in (0.0, 10.0, 20.0):
        assert abs(qam_ber(snr, 64) - oracle(snr, 64)) < 1e-9
    assert abs(qam_ber(12.0, 16) - oracle(12.0, 16)) < 1e-9


def test_ber_curve_monotone_and_gain_shift():
    grid = np.arange(-10.0, 30.5, 0.5)
    base = ber_curve(grid, gain_db=0.0, modulation_order=64)
    bers = [b for _, b in base]
    assert all(b1 >= b2 - 1e-15 for b1, b2 in zip(bers, bers[1:]))
    gained = ber_curve(grid, gain_db=16.4, modulation_order=64)
    for (s, b0), (s2, b1) in zip(base, gained):
        assert s == s2
        assert b1 == qam_ber(s + 16.4, 64)   # exact left shift by the gain
    assert qam_ber(-60.0, 64) == pytest.approx(0.5, abs=1e-2)
    assert qam_ber(60.0, 64) == 0.0


def test_qam_ber_validation():
    with pytest.raises(ValueError):
        qam_ber(10.0, 8)    # not a square constellation
    with pytest.raises(ValueError):
        qam_ber(10.0, 0)


# ------------------------------------------------------------------ showcase

def test_showcase_frozen_results(tmp_path):
    assert showcase_samples() == (
        (AngularLocation(0.0, -30.0), AngularLocation(0.0, 15.0)),
        (AngularLocation(-15.0, 0.0), AngularLocation(15.0, 15.0)),
        (AngularLocation(0.0, 0.0), AngularLocation(0.0, 30.0)),
    )
    samples = showcase_three_samples(ExperimentConfig(trials=1, seed=0), tmp_path)
    errors = [s.error_deg for s in samples]
    assert errors == pytest.approx(
        [1.343671401971875, 1.575974438905296, 2.0678452320767917], abs=1e-9)
    gains = [s.gain_db for s in samples]
    assert gains == pytest.approx(
        [14.741594234141683, 18.422083771709254, 18.90760013241378], abs=1e-9)
    for s in samples:
        for art in s.artifacts:
            assert art.exists()
        names = sorted(p.name for p in s.artifacts)
        assert names == ["coding.txt", "hologram.csv", "localization.txt", "spectrum.csv"]


# ------------------------------------------------------------------- writers

def _noiseless_grid():
    cfg = ExperimentConfig(trials=1, seed=0)
    return run_localization_grid(cfg)


def test_grid_records_csv(tmp_path):
    stats, records = _noiseless_grid()
    path = tmp_path / "records.csv"
    write_grid_records_csv(path, records)
    lines = path.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + len(records)    # header row + one per record
    header = data[0].split(",")
    row = dict(zip(header, data[1].split(",")))
    assert row["status"] == "ok"
    assert float(row["err_total_deg"]) == pytest.approx(records[0].err_total_deg)

    # a failed record has no estimate and no peak bin, and NaN errors and ratio
    failed = GridRecord(bs=records[0].bs, ue=records[0].ue, trial=0, status="NoPeak")
    write_grid_records_csv(path, [failed])
    row = dict(zip(header, path.read_text().splitlines()[1].split(",")))
    assert [row[k] for k in ("est_theta_deg", "est_phi_deg", "peak_bin_z", "peak_bin_x")] \
        == ["none"] * 4
    assert [row[k] for k in ("err_theta_deg", "err_phi_deg", "err_total_deg",
                             "peak_to_median_ratio")] == ["nan"] * 4


def test_statistics_and_cdf_files(tmp_path):
    stats, _ = _noiseless_grid()
    stats_path = tmp_path / "stats.txt"
    write_statistics_txt(stats_path, stats)
    text = stats_path.read_text()
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    assert float(fields["total_avg_deviation_deg"]) == stats.total_avg_deviation_deg
    assert int(fields["n_samples"]) == stats.n_samples

    cdf_path = tmp_path / "cdf.csv"
    write_cdf_csv(cdf_path, stats)
    rows = [l.split(",") for l in cdf_path.read_text().splitlines()[1:]]
    fracs = [float(f) for _, f in rows]
    assert fracs == sorted(fracs) and fracs[-1] == 1.0


def test_sweep_and_ber_files(tmp_path):
    cfg = ExperimentConfig(trials=1, seed=0)
    points = gain_sweep(cfg, phi_range_deg=(-30.0, 0.0, 30.0))
    sweep_path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep_path, points)
    lines = sweep_path.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 3
    # the user at the reference direction leaves no fringe: no estimate, NaN gains
    assert data[1] == "0.0,NoPeak,none,none,nan,nan,0"

    grid = np.arange(-10.0, 31.0, 5.0)
    ber_path = tmp_path / "ber.csv"
    write_ber_csv(ber_path,
                  ber_curve(grid, 0.0, 64),
                  ber_curve(grid, 16.4, 64),
                  gain_db=16.4)
    rows = [l for l in ber_path.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == len(grid)
    snr, base, enh = rows[4].split(",")
    assert float(base) == qam_ber(float(snr), 64)
    assert float(enh) == qam_ber(float(snr) + 16.4, 64)


def test_manifest_is_deterministic(tmp_path):
    art_a = tmp_path / "a" / "file.txt"
    art_a.parent.mkdir()
    art_a.write_text("payload\n")
    man_a = tmp_path / "a" / "manifest.txt"
    write_manifest(man_a, suite="grid", seed=3,
                   config={"seed": 3, "trials": 1}, artifacts=[art_a])

    art_b = tmp_path / "b" / "file.txt"
    art_b.parent.mkdir()
    art_b.write_text("payload\n")
    man_b = tmp_path / "b" / "manifest.txt"
    write_manifest(man_b, suite="grid", seed=3,
                   config={"trials": 1, "seed": 3}, artifacts=[art_b])
    # key order and directory placement must not leak into the bytes
    assert man_a.read_bytes() == man_b.read_bytes()

    text = man_a.read_text()
    assert "suite=grid" in text and "status=OK" in text
    assert "sha256=" in text

    man_f = tmp_path / "a" / "failed.txt"
    write_manifest(man_f, suite="grid", seed=3, config={}, artifacts=[],
                   status="FAILED", error="NoPeak: nothing there")
    assert "status=FAILED" in man_f.read_text()


def test_experiment_config_is_held_to_the_byte_budget(monkeypatch):
    with pytest.raises(ValueError):
        ExperimentConfig(trials=10**9)
    # At the default padding a 32x32 capture's spectrum takes 64*64*32 bytes,
    # 2**17: a budget of 2**20 holds 8 captures, not 9.
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 2**20)
    assert ExperimentConfig(trials=8).trials == 8
    spectra = r"^trials\*\(zero_pad_factor\*n_z\)\*\(zero_pad_factor\*n_x\) must be at most "
    with pytest.raises(ValueError, match=spectra + "1048576 bytes at 32 bytes each$"):
        ExperimentConfig(trials=9)


SEEDS = r"^placements\*trials seeds must be at most "
GENERATORS = r"^trials generators must be at most "
PANEL_2X2 = ArrayGeometry(n_z=2, n_x=2, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)


def test_the_grid_seeds_and_generators_are_held_to_the_byte_budget(monkeypatch):
    def built(*args):
        raise AssertionError("_capture_seeds ran")
    monkeypatch.setattr("holoris.experiments._capture_seeds", built)
    # one placement's 2**24 generators would take ~13 GB
    with pytest.raises(ValueError, match=GENERATORS + "2147483648 bytes at 800 bytes each$"):
        next(_placement_generators(0, range(1), 2**24))
    # a capture's seed takes 80 bytes below a 2**32 master and 4 more per word above
    with pytest.raises(ValueError, match=SEEDS + "2147483648 bytes at 80 bytes each$"):
        next(_placement_generators(0, range(104), 2**20))
    with pytest.raises(ValueError, match=SEEDS + "2147483648 bytes at 84 bytes each$"):
        next(_placement_generators(2**32, range(104), 2**20))


def test_experiment_config_charges_the_seeds_of_its_whole_grid(monkeypatch):
    assert ExperimentConfig(seed=np.int64(2**40)).seed == 2**40  # a numpy seed's words
    # the default grid is 4 BS by 27 UE placements, 3 trials each
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 4 * 27 * 3 * 80)
    assert ExperimentConfig(geometry=PANEL_2X2, trials=3, zero_pad_factor=1).trials == 3
    with pytest.raises(ValueError, match=SEEDS + "25920 bytes at 80 bytes each$"):
        ExperimentConfig(geometry=PANEL_2X2, trials=4, zero_pad_factor=1)
    with pytest.raises(ValueError, match=SEEDS + "25920 bytes at 84 bytes each$"):
        ExperimentConfig(geometry=PANEL_2X2, trials=3, zero_pad_factor=1, seed=2**32)
    one = {"bs_locations": (AngularLocation(0.0, 0.0),),
           "ue_locations": (AngularLocation(0.0, 30.0),)}
    monkeypatch.setattr("holoris.geometry._MAX_BYTES", 3 * 800)
    assert ExperimentConfig(geometry=PANEL_2X2, trials=3, zero_pad_factor=1, **one).trials == 3
    with pytest.raises(ValueError, match=GENERATORS + "2400 bytes at 800 bytes each$"):
        ExperimentConfig(geometry=PANEL_2X2, trials=4, zero_pad_factor=1, **one)


def test_experiment_config_charges_the_synthesis_of_the_suites_pair():
    # at pad 1 the spectra of 4 captures of a 4096x4096 panel fit the budget
    # exactly; the pair's 3 fields and 4 captures take 176 bytes an element
    panel = ArrayGeometry(n_z=4096, n_x=4096, d_z_m=0.02, d_x_m=0.02, f_c_hz=3_500_000_000)
    with pytest.raises(ValueError, match=r"^synthesis of n_z\*n_x must be at most "
                                         "2147483648 bytes at 176 bytes each$"):
        ExperimentConfig(geometry=panel, trials=4, zero_pad_factor=1)


def test_experiment_config_validation():
    for bad in ({"trials": 0}, {"trials": 1.5}, {"seed": -1}, {"seed": 2.0},
                {"zero_pad_factor": 0}, {"dc_guard": -1},
                {"significance_threshold": math.nan},
                # placements are checked before the seeds are charged, so no
                # IndexError or AttributeError surfaces later in a suite
                {"bs_locations": ()}, {"bs_locations": ((0.0, 0.0),)}, {"bs_locations": None},
                {"ue_locations": []}, {"ue_locations": (AngularLocation(0.0, 0.0), None)},
                {"ue_locations": AngularLocation(0.0, 0.0)}, {"ue_locations": "ab"}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ExperimentConfig(**bad)
    ExperimentConfig(bs_locations=[AngularLocation(0.0, 0.0)])
    # the suites always pick each record's twin with its own truth, and the
    # output directory belongs to the caller: neither is a config field
    for removed in ("disambiguation", "output_dir"):
        with pytest.raises(TypeError):
            ExperimentConfig(**{removed: "oracle"})
