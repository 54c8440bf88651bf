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
import math
import re
import sys
from pathlib import Path

from .beamforming import (
    CodingMatrix,
    _received_powers,
    farfield_phase_profile,
    nearfield_phase_profile,
    quantize_1bit,
    write_coding_file,
)
from .config import _build, _value, config_as_dict, load_config
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
from .localization import (OraclePolicy, SectorPolicy, _check_spectral_settings,
                           format_report, localize)
from .wavefield import (Source, _front_position, read_hologram_csv, synthesize_hologram,
                        write_hologram_csv)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_PEAK = 4
EXIT_SECTOR = 5

_SEPARATORS = re.compile("[,:]")
_ANGLES = "theta_deg,phi_deg"
_POSITION = "x_m,y_m,z_m"


def _floats(text: str, flag: str, form: str, make):
    """``make`` of the numbers of a flag's ``text``, which has the ``,`` and ``:`` of ``form``.

    Only the form is checked here; ``make`` checks the values.
    """
    if _SEPARATORS.findall(text) == _SEPARATORS.findall(form):
        try:
            numbers = [float(part) for part in _SEPARATORS.split(text)]
        except ValueError:
            pass
        else:
            return _build(make, flag, *numbers)
    raise ConfigError(f"{flag}: expected {form!r}, got {text!r}")


def _sector(*bounds) -> SectorPolicy:
    # 'plo:phi' bounds azimuth only; 'tlo:thi,plo:phi' bounds both axes
    return SectorPolicy(theta_range_deg=bounds[:2] if len(bounds) == 4 else None,
                        phi_range_deg=bounds[-2:])


def _db(power: float) -> float:
    return 10.0 * math.log10(power) if power > 0 else -math.inf


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    exp = cfg.experiment
    holos = synthesize_hologram(
        list(cfg.sources), exp.geometry, detector=exp.detector, seed=exp.seed
    )
    output = Path(args.output)
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
    policy: OraclePolicy | SectorPolicy | None = None
    if args.oracle_truth is not None:
        truth = _floats(args.oracle_truth, "--oracle-truth", _ANGLES, AngularLocation)
        policy = OraclePolicy(truth=truth)
    elif args.sector is not None:
        form = "tlo:thi,plo:phi" if "," in args.sector else "plo:phi"
        policy = _floats(args.sector, "--sector", form, _sector)
    bs = _floats(args.bs, "--bs", _ANGLES, AngularLocation)
    holo = read_hologram_csv(args.hologram)
    # the spectral flags are held to localize's rules after the file is read,
    # so a bad file is reported first, and at their own names
    _build(_check_spectral_settings, "--zero-pad", holo.geometry.shape,
           zero_pad_factor=args.zero_pad)
    _build(_check_spectral_settings, "--dc-guard", dc_guard=args.dc_guard)
    _build(_check_spectral_settings, "--significance-threshold",
           significance_threshold=args.significance_threshold)
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
        bs = _floats(args.bs, "--bs", _ANGLES, AngularLocation)
        ue = _floats(args.ue, "--ue", _ANGLES, AngularLocation)
        profile = farfield_phase_profile(bs, ue, geometry)
        bs_src = Source.far_field(bs)
        target = ue
    else:
        if args.bs_pos is not None or args.ue_pos is not None:
            if args.bs_pos is None or args.ue_pos is None:
                raise ConfigError("near mode with positions needs both --bs-pos and --ue-pos")
            bs_pos, ue_pos = (_floats(text, flag, _POSITION, lambda *xyz: _front_position(xyz))
                              for flag, text in (("--bs-pos", args.bs_pos),
                                                 ("--ue-pos", args.ue_pos)))
        else:
            if args.bs is None or args.ue is None:
                raise ConfigError("near mode needs --bs/--ue angles or --bs-pos/--ue-pos")
            if args.bs_range is None or args.ue_range is None:
                raise ConfigError("near mode with angles needs --bs-range and --ue-range")
            bs = _floats(args.bs, "--bs", _ANGLES, AngularLocation)
            ue = _floats(args.ue, "--ue", _ANGLES, AngularLocation)
            bs_pos, ue_pos = (
                _build(_front_position, flag, tuple(_build(position_at, flag, loc, r).tolist()))
                for flag, loc, r in (("--bs-range", bs, args.bs_range),
                                     ("--ue-range", ue, args.ue_range)))
        profile = nearfield_phase_profile(bs_pos, ue_pos, geometry)
        bs_src = Source.near_field(bs_pos)
        target = ue_pos
    coding = quantize_1bit(profile)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    write_coding_file(output, coding)
    if not args.quiet:
        p_coding, p_zero = _received_powers(
            (coding, CodingMatrix.all_zero(geometry.shape)), bs_src, target, geometry
        )
        print(f"wrote {output}")
        print(f"target_power_db={_db(p_coding):.3f}")
        print(f"allzero_power_db={_db(p_zero):.3f}")
    return EXIT_OK


def _grid_suite(cfg, out_dir: Path):
    stats, records = run_localization_grid(cfg.experiment)
    paths = [out_dir / "grid_records.csv", out_dir / "grid_statistics.txt",
             out_dir / "grid_cdf.csv"]
    write_grid_records_csv(paths[0], records)
    write_statistics_txt(paths[1], stats)
    write_cdf_csv(paths[2], stats)
    return paths, [
        f"grid: n_samples={stats.n_samples} n_failures={stats.n_failures} "
        f"total_avg_deviation_deg={stats.total_avg_deviation_deg:.3f} "
        f"fraction_within_9deg={stats.fraction_within_9deg:.4f}"
    ]


def _gain_suite(cfg, out_dir: Path):
    points = gain_sweep(cfg.experiment, cfg.gain_phi_deg)
    path = out_dir / "gain_sweep.csv"
    write_sweep_csv(path, points)
    ok = [p.gain_db for p in points if p.status == "ok"]
    mean = sum(ok) / len(ok) if ok else math.nan
    return [path], [f"gain: points={len(points)} ok={len(ok)} mean_gain_db={mean:.3f}"]


def _ber_suite(cfg, out_dir: Path):
    order = cfg.ber_modulation_order
    gain_db = cfg.ber_gain_db
    baseline = ber_curve(cfg.ber_snr_db, 0.0, order)
    enhanced = ber_curve(cfg.ber_snr_db, gain_db, order)
    path = out_dir / "ber_curves.csv"
    write_ber_csv(path, baseline, enhanced, gain_db)
    return [path], [
        f"ber: modulation_order={order} gain_db={gain_db:g} points={len(baseline)}"
    ]


def _showcase_suite(cfg, out_dir: Path):
    samples = showcase_three_samples(cfg.experiment, out_dir)
    return [a for s in samples for a in s.artifacts], [
        f"showcase sample_{i}: bs=({s.bs.theta_deg:g},{s.bs.phi_deg:g}) "
        f"ue=({s.ue.theta_deg:g},{s.ue.phi_deg:g}) "
        f"error_deg={s.error_deg:.3f} gain_db={s.gain_db:.3f}"
        for i, s in enumerate(samples, start=1)
    ]


# The suites of `holoris experiment`, in help order.  Each writes its
# artifacts into the output directory and returns (artifact paths, summary
# lines); a suite that raises has recorded no artifact.
SUITES = {"grid": _grid_suite, "gain": _gain_suite, "ber": _ber_suite,
          "showcase": _showcase_suite}


def cmd_experiment(args) -> int:
    cfg = load_config(args.config, seed=args.seed, trials=args.trials)
    seed = cfg.experiment.seed
    out_dir = Path(cfg.output_dir if args.output_dir is None
                   else _value(args.output_dir, "--output-dir", str))
    out_dir.mkdir(parents=True, exist_ok=True)
    # Manifest config reflects the numbers that produced the artifacts; the
    # output directory is pure redirection and stays as configured so reruns
    # into different directories stay byte-identical.
    cfg_dict = config_as_dict(cfg)
    manifest_path = out_dir / "manifest.txt"
    try:
        artifacts, summary = SUITES[args.suite](cfg, out_dir)
    except Exception as exc:
        write_manifest(manifest_path, args.suite, seed, cfg_dict, [], status="FAILED",
                       error=f"{type(exc).__name__}: {exc}")
        raise
    write_manifest(manifest_path, args.suite, seed, cfg_dict, artifacts)
    if not args.quiet:
        for line in summary:
            print(line)
        print(f"wrote {manifest_path}")
    return EXIT_OK


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
    policy = p_loc.add_mutually_exclusive_group()
    policy.add_argument(
        "--sector",
        default=None,
        help="admissible sector 'plo:phi' or 'tlo:thi,plo:phi' (degrees)",
    )
    policy.add_argument(
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
    except (FileFormatError, OSError) as exc:
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
