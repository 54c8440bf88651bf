"""Command-line front end binding the pipeline stages.

Subcommands: simulate (config -> hologram CSVs), localize (hologram CSV ->
report), codegen (target locations -> 1-bit coding file), experiment
(config -> suite CSVs + manifest).  All numerics flow through files, so
any stage can be replayed with externally supplied holograms.

Exit codes: 0 success; 2 invalid config or usage; 3 I/O or malformed
file; 4 NoPeak / AllCandidatesInfeasible; 5 sector disambiguation failed
(empty or ambiguous).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .beamforming import (
    CodingMatrix,
    farfield_phase_profile,
    nearfield_phase_profile,
    quantize_1bit,
    received_power,
    write_coding_file,
)
from .config import config_as_dict, load_config
from .errors import (
    AllCandidatesInfeasible,
    ConfigError,
    FileFormatError,
    NoPeak,
    SectorAmbiguous,
    SectorEmpty,
)
from .experiments import (
    ber_curve,
    gain_sweep,
    run_localization_grid,
    showcase_three_samples,
    write_ber_csv,
    write_cdf_csv,
    write_grid_records_csv,
    write_manifest,
    write_statistics_txt,
    write_sweep_csv,
)
from .geometry import AngularLocation, default_geometry, position_at
from .localization import OraclePolicy, SectorPolicy, format_report, localize
from .wavefield import Source, read_hologram_csv, synthesize_hologram, write_hologram_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_PEAK = 4
EXIT_SECTOR = 5

SUITES = ("grid", "gain", "ber", "showcase")


def _parse_angles(text: str, flag: str) -> AngularLocation:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{flag}: expected 'theta_deg,phi_deg', got {text!r}")
    try:
        return AngularLocation(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _parse_position(text: str, flag: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{flag}: expected 'x_m,y_m,z_m', got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{flag}: expected three numbers, got {text!r}") from None


def _parse_sector(text: str) -> SectorPolicy:
    """'plo:phi' bounds azimuth only; 'tlo:thi,plo:phi' bounds both axes."""

    def _bounds(segment: str) -> tuple[float, float]:
        bits = segment.split(":")
        if len(bits) != 2:
            raise ConfigError(f"--sector: expected 'lo:hi', got {segment!r}")
        try:
            lo, hi = float(bits[0]), float(bits[1])
        except ValueError:
            raise ConfigError(f"--sector: non-numeric bound in {segment!r}") from None
        if lo > hi:
            raise ConfigError(f"--sector: lo > hi in {segment!r}")
        return lo, hi

    parts = text.split(",")
    if len(parts) == 1:
        return SectorPolicy(phi_range_deg=_bounds(parts[0]))
    if len(parts) == 2:
        return SectorPolicy(
            theta_range_deg=_bounds(parts[0]), phi_range_deg=_bounds(parts[1])
        )
    raise ConfigError("--sector: expected 'plo:phi' or 'tlo:thi,plo:phi'")


def _db(power: float) -> float:
    return 10.0 * math.log10(power) if power > 0 else -math.inf


def _check_seed(seed) -> None:
    if seed is not None and seed < 0:
        raise ConfigError("--seed: must be >= 0")


def cmd_simulate(args) -> int:
    _check_seed(args.seed)
    cfg = load_config(args.config)
    exp = cfg.experiment
    seed = exp.seed if args.seed is None else args.seed
    holos = synthesize_hologram(
        list(cfg.sources), exp.geometry, detector=exp.detector, seed=seed
    )
    output = Path(args.output)
    if output.parent and not output.parent.exists():
        output.parent.mkdir(parents=True, exist_ok=True)
    if len(holos) == 1:
        paths = [output]
    else:
        suffix = output.suffix or ".csv"
        paths = [
            output.with_name(f"{output.stem}_tag{h.frequency_tag}{suffix}")
            for h in holos
        ]
    for holo, path in zip(holos, paths):
        write_hologram_csv(path, holo)
        if not args.quiet:
            print(f"wrote {path}")
    return EXIT_OK


def cmd_localize(args) -> int:
    if args.sector is not None and args.oracle_truth is not None:
        raise ConfigError("--sector and --oracle-truth are mutually exclusive")
    policy: OraclePolicy | SectorPolicy | None = None
    if args.oracle_truth is not None:
        policy = OraclePolicy(truth=_parse_angles(args.oracle_truth, "--oracle-truth"))
    elif args.sector is not None:
        policy = _parse_sector(args.sector)
    bs = _parse_angles(args.bs, "--bs")
    holo = read_hologram_csv(args.hologram)
    result = localize(
        holo,
        bs,
        zero_pad_factor=args.zero_pad,
        disambiguation=policy,
        dc_guard=args.dc_guard,
        significance_threshold=args.significance_threshold,
    )
    sys.stdout.write(format_report(result))
    return EXIT_OK


def cmd_codegen(args) -> int:
    geometry = (
        load_config(args.config).experiment.geometry if args.config
        else default_geometry()
    )
    if args.mode == "far":
        if args.bs is None or args.ue is None:
            raise ConfigError("far mode needs --bs and --ue angles")
        bs = _parse_angles(args.bs, "--bs")
        ue = _parse_angles(args.ue, "--ue")
        profile = farfield_phase_profile(bs, ue, geometry)
        bs_src = Source.far_field(bs)
        target = ue
    else:
        if args.bs_pos is not None or args.ue_pos is not None:
            if args.bs_pos is None or args.ue_pos is None:
                raise ConfigError("near mode with positions needs both --bs-pos and --ue-pos")
            bs_pos = _parse_position(args.bs_pos, "--bs-pos")
            ue_pos = _parse_position(args.ue_pos, "--ue-pos")
            if bs_pos[1] <= 0 or ue_pos[1] <= 0:
                raise ConfigError("positions must lie in front of the panel (y > 0)")
        else:
            if args.bs is None or args.ue is None:
                raise ConfigError("near mode needs --bs/--ue angles or --bs-pos/--ue-pos")
            if args.bs_range is None or args.ue_range is None:
                raise ConfigError("near mode with angles needs --bs-range and --ue-range")
            if args.bs_range <= 0 or args.ue_range <= 0:
                raise ConfigError("ranges must be positive")
            bs_pos = position_at(_parse_angles(args.bs, "--bs"), args.bs_range)
            ue_pos = position_at(_parse_angles(args.ue, "--ue"), args.ue_range)
        profile = nearfield_phase_profile(bs_pos, ue_pos, geometry)
        bs_src = Source.near_field(bs_pos)
        target = ue_pos
    coding = quantize_1bit(profile)
    output = Path(args.output)
    if output.parent and not output.parent.exists():
        output.parent.mkdir(parents=True, exist_ok=True)
    write_coding_file(output, coding)
    if not args.quiet:
        p_coding = received_power(coding, bs_src, target, geometry)
        p_zero = received_power(
            CodingMatrix.all_zero(geometry.shape), bs_src, target, geometry
        )
        print(f"wrote {output}")
        print(f"target_power_db={_db(p_coding):.3f}")
        print(f"allzero_power_db={_db(p_zero):.3f}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    _check_seed(args.seed)
    cfg = load_config(args.config)
    seed = cfg.experiment.seed if args.seed is None else args.seed
    trials = cfg.experiment.trials if args.trials is None else args.trials
    if trials < 1:
        raise ConfigError("--trials: must be >= 1")
    cfg = dataclasses.replace(
        cfg, experiment=dataclasses.replace(cfg.experiment, seed=seed, trials=trials)
    )
    out_dir = Path(args.output_dir or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Manifest config reflects the numbers that produced the artifacts; the
    # output directory is pure redirection and stays as configured so reruns
    # into different directories stay byte-identical.
    cfg_dict = config_as_dict(cfg)
    manifest_path = out_dir / "manifest.txt"
    artifacts: list[Path] = []
    try:
        summary = _run_suite(args.suite, cfg, out_dir, artifacts)
    except Exception as exc:
        write_manifest(
            manifest_path,
            args.suite,
            seed,
            cfg_dict,
            [a for a in artifacts if a.exists()],
            status="FAILED",
            error=f"{type(exc).__name__}: {exc}",
        )
        raise
    write_manifest(manifest_path, args.suite, seed, cfg_dict, artifacts)
    if not args.quiet:
        for line in summary:
            print(line)
        print(f"wrote {manifest_path}")
    return EXIT_OK


def _run_suite(suite, cfg, out_dir: Path, artifacts: list) -> list:
    exp = cfg.experiment
    if suite == "grid":
        stats, records = run_localization_grid(exp)
        paths = (
            out_dir / "grid_records.csv",
            out_dir / "grid_statistics.txt",
            out_dir / "grid_cdf.csv",
        )
        write_grid_records_csv(paths[0], records)
        write_statistics_txt(paths[1], stats)
        write_cdf_csv(paths[2], stats)
        artifacts.extend(paths)
        return [
            f"grid: n_samples={stats.n_samples} n_failures={stats.n_failures} "
            f"total_avg_deviation_deg={stats.total_avg_deviation_deg:.3f} "
            f"fraction_within_9deg={stats.fraction_within_9deg:.4f}"
        ]
    if suite == "gain":
        points = gain_sweep(exp, cfg.gain_phi_deg)
        path = out_dir / "gain_sweep.csv"
        write_sweep_csv(path, points)
        artifacts.append(path)
        ok = [p.gain_db for p in points if p.status == "ok"]
        mean = sum(ok) / len(ok) if ok else math.nan
        return [f"gain: points={len(points)} ok={len(ok)} mean_gain_db={mean:.3f}"]
    if suite == "ber":
        order = cfg.ber_modulation_order
        gain_db = cfg.ber_gain_db
        baseline = ber_curve(cfg.ber_snr_db, 0.0, order)
        enhanced = ber_curve(cfg.ber_snr_db, gain_db, order)
        path = out_dir / "ber_curves.csv"
        write_ber_csv(path, baseline, enhanced, gain_db)
        artifacts.append(path)
        return [
            f"ber: modulation_order={order} gain_db={gain_db:g} "
            f"points={len(baseline)}"
        ]
    if suite == "showcase":
        samples = showcase_three_samples(exp, out_dir)
        lines = []
        for i, s in enumerate(samples, start=1):
            artifacts.extend(Path(a) for a in s.artifacts)
            lines.append(
                f"showcase sample_{i}: bs=({s.bs.theta_deg:g},{s.bs.phi_deg:g}) "
                f"ue=({s.ue.theta_deg:g},{s.ue.phi_deg:g}) "
                f"error_deg={s.error_deg:.3f} gain_db={s.gain_db:.3f}"
            )
        return lines
    raise ConfigError(f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}")


def build_parser() -> argparse.ArgumentParser:
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress progress output")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="override the configured seed")

    parser = argparse.ArgumentParser(
        prog="holoris",
        description="Holographic RIS pipeline: synthesize interference "
        "holograms, localize terminals, generate 1-bit codings, run suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", parents=[quiet, seed], help="synthesize hologram CSVs from a config"
    )
    p_sim.add_argument("--config", required=True, help="JSON run configuration")
    p_sim.add_argument(
        "--output",
        required=True,
        help="output CSV path; multiple frequency tags get a _tag<k> suffix",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_loc = sub.add_parser("localize", help="localize from a hologram CSV")
    p_loc.add_argument("hologram", help="hologram CSV path")
    p_loc.add_argument(
        "--bs", required=True, help="reference direction 'theta_deg,phi_deg'"
    )
    p_loc.add_argument("--zero-pad", type=int, default=1, help="FFT zero-pad factor")
    p_loc.add_argument("--dc-guard", type=int, default=0, help="DC guard half-width")
    p_loc.add_argument(
        "--significance-threshold",
        type=float,
        default=6.0,
        help="minimum peak/median ratio",
    )
    p_loc.add_argument(
        "--sector",
        default=None,
        help="admissible sector 'plo:phi' or 'tlo:thi,plo:phi' (degrees)",
    )
    p_loc.add_argument(
        "--oracle-truth",
        default=None,
        help="ground truth 'theta_deg,phi_deg' for oracle disambiguation",
    )
    p_loc.set_defaults(func=cmd_localize)

    p_gen = sub.add_parser(
        "codegen", parents=[quiet], help="generate a 1-bit coding file"
    )
    p_gen.add_argument("--mode", required=True, choices=("far", "near"))
    p_gen.add_argument("--bs", default=None, help="'theta_deg,phi_deg'")
    p_gen.add_argument("--ue", default=None, help="'theta_deg,phi_deg'")
    p_gen.add_argument(
        "--bs-range", type=float, default=None, help="near mode: BS range in meters"
    )
    p_gen.add_argument(
        "--ue-range", type=float, default=None, help="near mode: UE range in meters"
    )
    p_gen.add_argument("--bs-pos", default=None, help="near mode: 'x_m,y_m,z_m'")
    p_gen.add_argument("--ue-pos", default=None, help="near mode: 'x_m,y_m,z_m'")
    p_gen.add_argument("--output", required=True, help="coding file path")
    p_gen.add_argument(
        "--config", default=None, help="optional config supplying the geometry"
    )
    p_gen.set_defaults(func=cmd_codegen)

    p_exp = sub.add_parser(
        "experiment", parents=[quiet, seed], help="run an experiment suite"
    )
    p_exp.add_argument("--suite", required=True, choices=SUITES)
    p_exp.add_argument("--config", required=True, help="JSON run configuration")
    p_exp.add_argument(
        "--output-dir", default=None, help="override the configured output directory"
    )
    p_exp.add_argument(
        "--trials", type=int, default=None, help="override the configured trial count"
    )
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NoPeak, AllCandidatesInfeasible) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NO_PEAK
    except (SectorEmpty, SectorAmbiguous) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SECTOR


if __name__ == "__main__":
    sys.exit(main())
