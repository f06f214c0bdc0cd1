"""Command line front end: calibrate theta tables, run experiments, sweep n0."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .calibration import estimate_theta_table, table_to_dict
from .codec import write_csv, write_json
from .experiment import (
    NOISE_MODES,
    PRESETS,
    ExperimentConfig,
    NoiseMode,
    emit_report,
    load_config,
    run_experiment,
)


def _cmd_theta(args) -> int:
    config = load_config(args.config) if args.config is not None else PRESETS["sig-noise-62"]
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.samples is not None:
        changes["calibration_positions"], changes["calibration_sets"] = args.samples
    if args.noise_mode is not None or args.sigma is not None:
        changes["noise_mode"] = NoiseMode(args.noise_mode or config.noise_mode.mode, args.sigma)
    meta = replace(config, **changes).calibration_meta()
    table = estimate_theta_table(config.n if args.n is None else args.n, meta, workers=args.workers)
    write_json(args.out, table_to_dict(table))
    print(f"theta_star={table.theta_star} samples={len(table.samples)} -> {args.out}")
    return 0


def _base_config(args) -> ExperimentConfig:
    if args.config is not None:
        return load_config(args.config)
    return PRESETS[args.preset]


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.trials is not None:
        config = replace(config, trials=args.trials)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_run(args) -> int:
    config = _apply_overrides(_base_config(args), args)
    report = run_experiment(config, workers=args.workers)
    print(
        f"n={config.n} n0={config.n0} filter={config.filter_mode} "
        f"theta_star={report.theta_star} trials={config.trials} "
        f"success_rate={report.success_rate:.3f} "
        f"mean_genuine_retained={report.mean_genuine_retained:.2f} "
        f"mean_passes={report.mean_rounds:.2f}"
    )
    if args.report is not None:
        emit_report(report, args.format, args.report)
        print(f"report -> {args.report}")
    return 0


def _parse_span(text: str) -> range:
    parts = text.split(":")
    try:
        lo, hi, step = map(int, parts if len(parts) == 3 else parts + ["1"])
    except ValueError:  # a part that is not an integer, or too few or many parts
        raise ValueError(f"bad span {text!r}, want lo:hi or lo:hi:step") from None
    if step < 1 or hi < lo:
        raise ValueError(f"bad span {text!r}")
    return range(lo, hi + 1, step)


def _cmd_sweep(args) -> int:
    base = _apply_overrides(_base_config(args), args)
    # every point's config first, so a bad n0 fails before any point runs
    configs = [replace(base, n0=n0) for n0 in _parse_span(args.n0)]
    rows = []
    for config in configs:
        report = run_experiment(config, workers=args.workers)
        rows.append(
            {
                "n0": config.n0,
                "success_rate": report.success_rate,
                "mean_genuine_retained": report.mean_genuine_retained,
                "mean_passes": report.mean_rounds,
            }
        )
        print(
            f"n0={config.n0}: success_rate={report.success_rate:.3f} "
            f"mean_genuine_retained={report.mean_genuine_retained:.2f}"
        )
    if args.report is not None:
        if args.format == "json":
            write_json(args.report, rows)
        else:
            write_csv(args.report, list(rows[0]), (list(r.values()) for r in rows))
        print(f"report -> {args.report}")
    return 0


def _add_source_flags(sub: argparse.ArgumentParser) -> None:
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="experiment config JSON")
    src.add_argument("--preset", choices=sorted(PRESETS))
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--report", help="write a report file")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posverify",
        description="Position verification for wireless sensor networks: "
        "calibrate the deception allowance, run filtering experiments, "
        "and sweep the genuine-node count.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # unset options take the config's value; without --config, the
    # presets' deployment in significant noise
    theta = commands.add_parser("theta", help="calibrate a theta table and save it")
    theta.add_argument("--config", help="experiment config JSON")
    theta.add_argument("--n", type=int)
    theta.add_argument("--noise-mode", choices=NOISE_MODES)
    theta.add_argument("--sigma", type=float)
    theta.add_argument("--samples", type=int, nargs=2, metavar=("X0", "SETS"))
    theta.add_argument("--seed", type=int)
    theta.add_argument("--workers", type=int, default=1)
    theta.add_argument("--out", required=True)
    theta.set_defaults(func=_cmd_theta)

    run = commands.add_parser("run", help="run one experiment")
    _add_source_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep = commands.add_parser("sweep", help="run an experiment per n0 value")
    _add_source_flags(sweep)
    sweep.add_argument("--n0", required=True, help="span lo:hi or lo:hi:step")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
