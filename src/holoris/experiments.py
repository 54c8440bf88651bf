"""Reproducible experiment suites built on the simulation pipeline.

Four suites mirror the headline evaluations: a localization Monte Carlo
over a BS x UE placement grid, an autonomous localize-then-beamform gain
sweep, an analytic QAM bit-error waterfall, and a three-sample showcase
that emits the full artifact chain.  Every suite is deterministic in
(config, seed) and records its outputs plus checksums in a run manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .beamforming import (
    farfield_phase_profile,
    link_gain,
    quantize_1bit,
    write_coding_file,
)
from .errors import DegenerateInterference
from .geometry import (
    AngularLocation,
    ArrayGeometry,
    _check_bytes,
    _is_int,
    angular_distance_deg,
    default_geometry,
    wrap_degrees,
)
from .localization import (
    OraclePolicy,
    _check_spectral_settings,
    fft2,
    format_report,
    localize_trials,
)
from .wavefield import (
    DetectorModel,
    Hologram,
    Source,
    _MISSING,
    _check_synthesis,
    _float_rows,
    _number,
    _synthesis_bytes,
    _write_lines,
    _write_matrix_file,
    synthesize_trials,
    write_hologram_csv,
)

_MANIFEST_MAGIC = "# holoris-manifest v1"
_SPECTRUM_MAGIC = "# holoris-spectrum v1"
_SPECTRUM_HEADER = (("n_z", int), ("n_x", int), ("zero_pad_factor", int))


def paper_bs_locations() -> tuple[AngularLocation, ...]:
    """The four reference-transmitter placements of the headline study."""
    return (
        AngularLocation(0.0, 0.0),
        AngularLocation(-15.0, 0.0),
        AngularLocation(-15.0, -30.0),
        AngularLocation(0.0, -30.0),
    )


def paper_ue_locations() -> tuple[AngularLocation, ...]:
    """User grid: theta in {0, +/-15}, phi in {0, +/-15, +/-30, +/-45, +/-60}."""
    thetas = (0.0, 15.0, -15.0)
    phis = (0.0, 15.0, -15.0, 30.0, -30.0, 45.0, -45.0, 60.0, -60.0)
    return tuple(AngularLocation(t, p) for t in thetas for p in phis)


def calibrated_detector() -> DetectorModel:
    """Detector imperfections calibrated to the measured error regime.

    Intensity noise plus carrier-phase jitter tuned so the localization
    grid's total average deviation lands between 5 and 6.5 degrees for
    unit-amplitude sources (fringe swing 4 in intensity units).  The
    deviation statistic is heavy-tailed (dominated by rare off-peak
    records), so the calibration is quoted for the canonical run
    (seed 1, 20 trials per pair); azimuth STD stays above elevation STD
    across seeds regardless.
    """
    return DetectorModel(noise_std=CALIBRATED_NOISE_STD, phase_jitter_std=0.2)


# Frozen by an empirical sweep: 6.9 intensity units against the fringe
# swing of 4 puts the spectral peak near the noise-extreme level, the
# regime where the deviation statistic matches measured panels.
CALIBRATED_NOISE_STD = 6.9
# Noisy spectra sit well below the clean-fixture significance ratio.
CALIBRATED_SIGNIFICANCE_THRESHOLD = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Placement grids, imperfections, and reproducibility knobs, checked on construction:
    trials >= 1, seed >= 0, placements non-empty sequences of AngularLocation, and each size
    rule a run meets: the spectra and synthesis of trials captures, the seeds and generators."""

    geometry: ArrayGeometry = field(default_factory=default_geometry)
    detector: DetectorModel = field(default_factory=DetectorModel.ideal)
    bs_locations: tuple = field(default_factory=paper_bs_locations)
    ue_locations: tuple = field(default_factory=paper_ue_locations)
    trials: int = 1
    seed: int = 0
    # Suites default to a refined spectral grid: 2x zero padding halves the
    # FFT quantization step (extreme-angle pairs otherwise exceed 9 deg
    # total error), and the DC guard excludes the padding-induced Dirichlet
    # skirt of the DC term, which otherwise out-peaks weak fringes.
    zero_pad_factor: int = 2
    dc_guard: int = 2
    significance_threshold: float = 6.0

    def __post_init__(self):
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        _check_spectral_settings((self.trials, *self.geometry.shape), self.zero_pad_factor,
                                 self.dc_guard, self.significance_threshold)
        _check_synthesis(self.geometry.shape,  # the suites' BS and UE
                         _synthesis_bytes(self.trials, ("far_field", "far_field")))
        for name in ("bs_locations", "ue_locations"):
            locations = getattr(self, name)
            if not (isinstance(locations, Sequence) and locations
                    and all(isinstance(loc, AngularLocation) for loc in locations)):
                raise ValueError(f"{name} must be a non-empty sequence of AngularLocation")
        _check_seeds(self.seed, len(self.bs_locations) * len(self.ue_locations), self.trials)


@dataclass(frozen=True)
class GridRecord:
    """One localization trial of the placement grid."""

    bs: AngularLocation
    ue: AngularLocation
    trial: int
    status: str
    estimate: AngularLocation | None = None
    err_theta_deg: float = math.nan
    err_phi_deg: float = math.nan
    err_total_deg: float = math.nan
    peak_bin: tuple[int, int] | None = None
    peak_to_median_ratio: float = math.nan


@dataclass(frozen=True)
class ErrorStatistics:
    """Deviation statistics over the successful grid records.

    Per-axis standard deviations follow sqrt(sum(err^2)/(N-1)) about the
    truth (not the sample mean); the total average deviation is their
    root-sum-square.  cdf is the empirical (error_deg, fraction) curve of
    the per-record total errors.
    """

    std_theta_deg: float
    std_phi_deg: float
    total_avg_deviation_deg: float
    fraction_within_9deg: float
    n_samples: int
    n_failures: int
    cdf: tuple = ()

    @staticmethod
    def from_records(records) -> "ErrorStatistics":
        ok = [r for r in records if r.status == "ok"]
        n = len(ok)
        failures = len(records) - n
        if n < 2:
            raise ValueError("need at least two successful records for statistics")
        et = np.array([r.err_theta_deg for r in ok])
        ep = np.array([r.err_phi_deg for r in ok])
        tot = np.array([r.err_total_deg for r in ok])
        std_t = math.sqrt(float(np.sum(et**2)) / (n - 1))
        std_p = math.sqrt(float(np.sum(ep**2)) / (n - 1))
        order = np.sort(tot)
        cdf = tuple((float(e), (i + 1) / n) for i, e in enumerate(order))
        return ErrorStatistics(
            std_theta_deg=std_t,
            std_phi_deg=std_p,
            total_avg_deviation_deg=math.hypot(std_t, std_p),
            fraction_within_9deg=float(np.mean(tot <= 9.0)),
            n_samples=n,
            n_failures=failures,
            cdf=cdf,
        )


# numpy's SeedSequence follows O'Neill's seed_seq design ("Developing a
# seed_seq Alternative", pcg-random.org, 2015), and NEP 19 freezes its output:
# a pool of four 32-bit words, hashed and mixed with these constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _seed_pool(entropy: list) -> list:
    """SeedSequence's pool for a batch of entropies, one word at a time.

    entropy lists the entropy words, each a uint32 array over the batch;
    returns the pool's words likewise.  Words beyond the pool size are mixed
    into every pool word, as SeedSequence mixes a long entropy.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state(n_words) of a batch of pools, word by word."""
    hash_const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        out.append(value ^ (value >> 16))
    return out


def _capture_seeds(master: int, config_index, trial) -> tuple[np.ndarray, np.ndarray]:
    """The suites' per-capture seeding, for whole arrays of captures at once.

    Capture trial[j] of placement config_index[j] is seeded with
    SeedSequence([master, config_index[j], trial[j]]).generate_state(1)[0]
    (master, an ExperimentConfig seed, is >= 0), and its generator starts
    from the PCG64 state np.random.default_rng draws from that seed.  Both
    stages run SeedSequence's own arithmetic over the arrays, broadcast
    together.  Returns (seeds, states): uint32 of their shape S and uint64
    of shape (*S, 4).
    """
    config_index, trial = np.broadcast_arrays(np.asarray(config_index),
                                              np.asarray(trial))
    if config_index.size and max(config_index.max(), trial.max()) > _MASK32:
        raise ValueError("placement and trial indices must be below 2**32")
    words = []  # an integer enters SeedSequence as its 32-bit words, least first
    while True:
        words.append(np.full(config_index.shape, master & _MASK32, dtype=np.uint32))
        master >>= 32
        if not master:
            break
    words += [config_index.astype(np.uint32), trial.astype(np.uint32)]
    (seeds,) = _generate_state(_seed_pool(words), 1)
    return seeds, _pcg64_states(seeds)


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """The PCG64 state np.random.default_rng(seed) starts from, per uint32 seed.

    PCG64 takes SeedSequence(seed).generate_state(4, uint64): the first 8
    words in pairs, the first of each pair low.  Returns shape (*seeds.shape, 4).
    """
    words = _generate_state(_seed_pool([seeds]), 8)
    states = np.empty((*seeds.shape, 4), dtype=np.uint64)
    for k in range(4):
        column = states[..., k]
        column[...] = words[2 * k + 1]
        column <<= np.uint64(32)
        column |= words[2 * k]
    return states


class _PCG64State(ISeedSequence):
    """Hands np.random.PCG64 a state _pcg64_states computed."""

    def __init__(self, state: np.ndarray):
        self.state = np.ascontiguousarray(state, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype != np.uint64:
            raise ValueError("holds a PCG64 state only: 4 uint64 words")
        return self.state


_STATE_BYTES = 4 + 8 * 4 + 8 * 4  # _capture_seeds' seed, its 8 state words and PCG64 state
_GENERATOR_BYTES = 800  # a Generator over PCG64, 781 bytes by tracemalloc


def _check_seeds(master: int, placements: int, trials: int) -> None:
    """Raise ValueError unless _check_bytes admits placements*trials captures' seeds, at
    4 bytes per entropy word plus _STATE_BYTES, and one placement's trials generators."""
    _check_bytes("placements*trials seeds", placements * trials,
                 4 * (int(master).bit_length() // 32 + 3) + _STATE_BYTES)
    _check_bytes("trials generators", trials, _GENERATOR_BYTES)


def _placement_generators(master: int, indices, trials: int = 1):
    """Per placement index, the generators of its captures 0 .. trials-1.

    The seeds and states of all placements come from one _capture_seeds
    pass, held to _check_seeds first; each placement's generators are built
    when the iteration reaches it, so one placement's are alive at a time.
    """
    _check_seeds(master, len(indices), trials)
    _, states = _capture_seeds(master, np.asarray(indices)[:, np.newaxis],
                               np.arange(trials))
    for placement in states:
        yield [np.random.Generator(np.random.PCG64(_PCG64State(s))) for s in placement]


def _localize_pair(cfg: ExperimentConfig, bs: AngularLocation, ue: AngularLocation,
                   rngs) -> tuple:
    """Capture the BS/UE pair once per generator and localize the captures.

    The captures are synthesized by synthesize_trials and localized as one
    stack with the configured spectral settings and the per-record oracle
    policy.  Returns (captures, outcomes): the (T, n_z, n_x) stack and, per
    capture, its LocalizationResult or localization error, which under the
    oracle policy is NoPeak or AllCandidatesInfeasible.
    """
    captures = synthesize_trials(
        [Source.far_field(bs), Source.far_field(ue)], cfg.geometry, cfg.detector, rngs
    )
    outcomes = localize_trials(
        captures,
        cfg.geometry,
        bs,
        zero_pad_factor=cfg.zero_pad_factor,
        disambiguation=OraclePolicy(truth=ue),
        dc_guard=cfg.dc_guard,
        significance_threshold=cfg.significance_threshold,
    )
    return captures, outcomes


def run_localization_grid(cfg: ExperimentConfig):
    """Monte Carlo localization over every non-coincident BS x UE pair.

    Each trial synthesizes a fresh two-source hologram, localizes with the
    per-record oracle policy, and records wrapped per-axis errors.  The
    trials of one placement are synthesized and localized as one stack,
    one placement at a time.  Failures (NoPeak and friends) are recorded,
    never fatal.  Returns (ErrorStatistics, records).

    Seeds: with the non-coincident pairs numbered i = 0, 1, ... in (BS, UE)
    order, capture t of pair i is synthesized with the generator
    np.random.default_rng(SeedSequence([cfg.seed, i, t]).generate_state(1)[0]).
    The seeds and generator states of the whole grid are derived in one
    vectorized pass, and each placement's generators are built from them
    when it runs.
    """
    pairs = [(bs, ue) for bs in cfg.bs_locations for ue in cfg.ue_locations if bs != ue]
    records = []
    for (bs, ue), rngs in zip(pairs, _placement_generators(cfg.seed, range(len(pairs)),
                                                           cfg.trials)):
        _, outcomes = _localize_pair(cfg, bs, ue, rngs)
        for trial, result in enumerate(outcomes):
            if isinstance(result, Exception):
                records.append(GridRecord(bs=bs, ue=ue, trial=trial,
                                          status=type(result).__name__))
                continue
            est = result.chosen
            err_t = wrap_degrees(est.theta_deg - ue.theta_deg)
            err_p = wrap_degrees(est.phi_deg - ue.phi_deg)
            records.append(
                GridRecord(
                    bs=bs,
                    ue=ue,
                    trial=trial,
                    status="ok",
                    estimate=est,
                    err_theta_deg=err_t,
                    err_phi_deg=err_p,
                    err_total_deg=math.hypot(err_t, err_p),
                    peak_bin=result.peak_bin,
                    peak_to_median_ratio=result.peak_to_median_ratio,
                )
            )
    return ErrorStatistics.from_records(records), records


@dataclass(frozen=True)
class SweepPoint:
    """One azimuth of the autonomous localize-then-beamform sweep."""

    phi_deg: float
    status: str
    estimate: AngularLocation | None = None
    gain_db: float = math.nan
    gain_from_truth_db: float = math.nan
    baseline_floored: bool = False


def gain_sweep(cfg: ExperimentConfig, phi_range_deg) -> list[SweepPoint]:
    """Close the loop at theta = 0 across a span of user azimuths.

    For each azimuth a fresh hologram is captured, the user localized, a
    1-bit far-field coding generated from the estimate (never the truth),
    and the link gain over the all-zero baseline evaluated at the true
    user direction.  The estimate's twin, though, is picked by the truth:
    OraclePolicy(truth=ue), as in every suite.  The gain of the
    truth-derived coding is kept for comparison.  Degenerate azimuths (user
    at the reference direction) are flagged and skipped, not fatal.
    """
    bs = cfg.bs_locations[0]
    bs_src = Source.far_field(bs)
    phis = list(phi_range_deg)
    points = []
    for phi, rngs in zip(phis, _placement_generators(cfg.seed, range(len(phis)))):
        ue = AngularLocation(0.0, float(phi))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateInterference)
            _, (result,) = _localize_pair(cfg, bs, ue, rngs)
        if isinstance(result, Exception):
            points.append(SweepPoint(phi_deg=float(phi), status=type(result).__name__))
            continue
        est = result.chosen
        coding = quantize_1bit(farfield_phase_profile(bs, est, cfg.geometry))
        gain = link_gain(coding, None, bs_src, ue, cfg.geometry)
        truth_coding = quantize_1bit(farfield_phase_profile(bs, ue, cfg.geometry))
        gain_truth = link_gain(truth_coding, None, bs_src, ue, cfg.geometry)
        points.append(
            SweepPoint(
                phi_deg=float(phi),
                status="ok",
                estimate=est,
                gain_db=gain.gain_db,
                gain_from_truth_db=gain_truth.gain_db,
                baseline_floored=gain.baseline_floored,
            )
        )
    return points


def _check_modulation_order(modulation_order: int) -> int:
    """The constellation side of a supported square QAM order: 4, 16 or 64."""
    if not (_is_int(modulation_order) and modulation_order in (4, 16, 64)):
        raise ValueError("modulation_order must be 4, 16 or 64")
    return math.isqrt(modulation_order)


def qam_ber(snr_db: float, modulation_order: int) -> float:
    """Exact bit error rate of Gray-mapped square QAM over AWGN.

    snr_db is the symbol SNR Es/N0.  Enumerates, per in-phase axis level
    and bit position, the Gaussian probability mass of every decision
    interval whose Gray label differs, which converges to 0.5 as the SNR
    vanishes and covers both axes by symmetry.  Beyond +/-3000 dB, where
    10**(snr_db/10) leaves the float range, it returns the limits the curve
    has already reached exactly: 0 at high SNR and 0.5 at low SNR.
    """
    side = _check_modulation_order(modulation_order)
    if abs(snr_db) > 3000.0:
        return 0.0 if snr_db > 0 else 0.5
    bits = side.bit_length() - 1
    levels = np.arange(side) * 2.0 - (side - 1)
    gray = np.arange(side) ^ (np.arange(side) >> 1)
    es = 2.0 * (side * side - 1) / 3.0
    snr = 10.0 ** (snr_db / 10.0)
    sigma = math.sqrt(es / snr / 2.0)

    def q(x: float) -> float:
        return 0.5 * math.erfc(x / math.sqrt(2.0))

    total = 0.0
    for v in range(side):
        # P(decode w | sent v) over decision intervals [b_{w-1}, b_w]
        upper = [q((levels[w] + 1.0 - levels[v]) / sigma) for w in range(side - 1)]
        probs = np.empty(side)
        probs[0] = 1.0 - upper[0]
        for w in range(1, side - 1):
            probs[w] = upper[w - 1] - upper[w]
        probs[side - 1] = upper[side - 2]
        for i in range(bits):
            sent_bit = (gray[v] >> i) & 1
            wrong = (gray >> i) & 1 != sent_bit
            total += float(probs[wrong].sum())
    return total / (side * bits)


def ber_curve(snr_db_grid, gain_db: float, modulation_order: int):
    """Analytic waterfall: rows (tx_power_proxy_db, ber at proxy + gain)."""
    _check_modulation_order(modulation_order)
    return [
        (float(s), qam_ber(float(s) + gain_db, modulation_order))
        for s in snr_db_grid
    ]


@dataclass(frozen=True)
class ShowcaseSample:
    """Full artifact chain for one BS/UE placement."""

    bs: AngularLocation
    ue: AngularLocation
    estimate: AngularLocation
    error_deg: float
    gain_db: float
    artifacts: tuple


def showcase_samples() -> tuple:
    """Three near-broadside placements with small quantization error."""
    return (
        (AngularLocation(0.0, -30.0), AngularLocation(0.0, 15.0)),
        (AngularLocation(-15.0, 0.0), AngularLocation(15.0, 15.0)),
        (AngularLocation(0.0, 0.0), AngularLocation(0.0, 30.0)),
    )


def write_spectrum_csv(path, holo: Hologram, zero_pad_factor: int = 1) -> None:
    """Spectrum magnitudes as CSV with a small descriptive header."""
    mags = np.abs(fft2(holo, zero_pad_factor=zero_pad_factor).values)
    n_z, n_x = mags.shape
    fields = {"n_z": n_z, "n_x": n_x, "zero_pad_factor": zero_pad_factor}
    _write_matrix_file(path, _SPECTRUM_MAGIC, _SPECTRUM_HEADER, fields, _float_rows(mags))


def showcase_three_samples(cfg: ExperimentConfig, out_dir) -> list[ShowcaseSample]:
    """Emit hologram, spectrum, report, and coding files for three samples.

    Per sample the chain runs synthesize -> localize -> codegen and the
    link gain of the estimate-derived coding over the all-zero baseline is
    evaluated at the true user direction.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    placements = showcase_samples()
    rngs_of = _placement_generators(cfg.seed, range(1001, 1001 + len(placements)))
    samples = []
    for index, ((bs, ue), rngs) in enumerate(zip(placements, rngs_of), start=1):
        captures, (result,) = _localize_pair(cfg, bs, ue, rngs)
        if isinstance(result, Exception):
            raise result
        holo = Hologram(values=captures[0], geometry=cfg.geometry)
        est = result.chosen
        coding = quantize_1bit(farfield_phase_profile(bs, est, cfg.geometry))
        gain = link_gain(coding, None, Source.far_field(bs), ue, cfg.geometry)
        base = out / f"sample_{index}"
        base.mkdir(exist_ok=True)
        holo_path = base / "hologram.csv"
        spec_path = base / "spectrum.csv"
        report_path = base / "localization.txt"
        coding_path = base / "coding.txt"
        write_hologram_csv(holo_path, holo)
        write_spectrum_csv(spec_path, holo, zero_pad_factor=cfg.zero_pad_factor)
        _write_lines(report_path, format_report(result).splitlines())
        write_coding_file(coding_path, coding)
        samples.append(
            ShowcaseSample(
                bs=bs,
                ue=ue,
                estimate=est,
                error_deg=angular_distance_deg(est, ue),
                gain_db=gain.gain_db,
                artifacts=(holo_path, spec_path, report_path, coding_path),
            )
        )
    return samples


def write_grid_records_csv(path, records) -> None:
    lines = [
        "bs_theta_deg,bs_phi_deg,ue_theta_deg,ue_phi_deg,trial,status,"
        "est_theta_deg,est_phi_deg,err_theta_deg,err_phi_deg,err_total_deg,"
        "peak_bin_z,peak_bin_x,peak_to_median_ratio"
    ]
    for r in records:
        bin_z, bin_x = (_MISSING, _MISSING) if r.peak_bin is None else r.peak_bin
        lines.append(",".join([
            repr(float(r.bs.theta_deg)), repr(float(r.bs.phi_deg)),
            repr(float(r.ue.theta_deg)), repr(float(r.ue.phi_deg)), str(r.trial), r.status,
            _number(getattr(r.estimate, "theta_deg", None)),
            _number(getattr(r.estimate, "phi_deg", None)),
            repr(float(r.err_theta_deg)), repr(float(r.err_phi_deg)),
            repr(float(r.err_total_deg)), str(bin_z), str(bin_x),
            repr(float(r.peak_to_median_ratio)),
        ]))
    _write_lines(path, lines)


def write_statistics_txt(path, stats: ErrorStatistics) -> None:
    """One name=value line per field but cdf, in declaration order."""
    _write_lines(path, (f"{f.name}={getattr(stats, f.name)!r}"
                        for f in fields(stats) if f.name != "cdf"))


def write_cdf_csv(path, stats: ErrorStatistics) -> None:
    _write_lines(path, ["error_deg,fraction",
                        *(f"{err!r},{frac!r}" for err, frac in stats.cdf)])


def write_sweep_csv(path, points) -> None:
    lines = ["phi_deg,status,est_theta_deg,est_phi_deg,gain_db,gain_from_truth_db,"
             "baseline_floored"]
    for p in points:
        lines.append(",".join([
            repr(float(p.phi_deg)), p.status,
            _number(getattr(p.estimate, "theta_deg", None)),
            _number(getattr(p.estimate, "phi_deg", None)),
            repr(float(p.gain_db)), repr(float(p.gain_from_truth_db)),
            str(int(p.baseline_floored)),
        ]))
    _write_lines(path, lines)


def write_ber_csv(path, baseline_curve, enhanced_curve, gain_db: float) -> None:
    """Two waterfalls on one proxy grid: without and with the gain shift."""
    lines = [f"# gain_db={float(gain_db)!r}", "tx_power_proxy_db,ber_baseline,ber_enhanced"]
    for (snr, b0), (_, b1) in zip(baseline_curve, enhanced_curve):
        lines.append(f"{snr!r},{b0!r},{b1!r}")
    _write_lines(path, lines)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    path,
    suite: str,
    seed: int,
    config: dict,
    artifacts,
    status: str = "OK",
    error: str | None = None,
) -> None:
    """Record suite identity, config, and artifact checksums.

    Artifact paths are stored relative to the manifest directory and
    sorted, so reruns with identical inputs produce identical bytes.
    """
    base = Path(path).parent
    lines = [
        _MANIFEST_MAGIC,
        f"suite={suite}",
        f"status={status}",
        f"seed={seed}",
        f"config={json.dumps(config, sort_keys=True)}",
    ]
    if error is not None:
        lines.append(f"error={error}")
    entries = []
    for art in artifacts:
        rel = Path(art).relative_to(base)
        entries.append(f"artifact={rel.as_posix()} sha256={_sha256(art)}")
    lines.extend(sorted(entries))
    _write_lines(path, lines)
