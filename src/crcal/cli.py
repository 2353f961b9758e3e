"""Command-line harness: simulate, fit, score, recalibrate, benchmark.

Subcommands exchange data through the cohort/bundle CSV formats and JSON
reports, so external models can participate by emitting bundle CSVs for
the published split ids. Exit codes: 0 success, 2 invalid input, 3
numeric domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .calibration import MetricParams
from .curves import aalen_johansen, marginal_bundle
from .data import (
    CifBundle,
    Cohort,
    TimeGrid,
    _table,
    bundle_to_csv,
    cohort_to_csv,
    parse_bundle,
    parse_cohort,
    quantile_grid,
    split_cohort,
)
from .errors import CrcalError, NumericError, ValidationError
from .evaluate import evaluate_bundle, mean_incidence_csv
from .recalibrate import RecalibratedBundle, apply_offsets, apply_temperature, fit_aj_offsets, fit_temperature
from .report import calibration_report
from .synthetic import (
    WeibullConfig,
    generate_cohort,
    latents_to_csv,
    oracle_bundle,
    oracle_grid,
    square_distort,
)

DEFAULT_GRID_SIZE = 64
DEFAULT_FRACTIONS = (0.4, 0.4, 0.2)


def _read(path: str) -> str:
    """A file's UTF-8 text, less a leading BOM, with its line ends as
    written, so that the CSV reader sees a CR inside a quoted field."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def cmd_simulate(args) -> int:
    config = WeibullConfig(censoring_scale=args.censoring_scale)
    cohort, latents = generate_cohort(config, args.n, args.seed)
    grid = oracle_grid(cohort, latents, args.grid_size)
    bundle = oracle_bundle(latents, grid, cohort.ids)
    _write(args.out / "cohort.csv", cohort_to_csv(cohort))
    _write(args.out / "oracle_bundle.csv", bundle_to_csv(bundle))
    _write(args.out / "latents.csv", latents_to_csv(cohort.ids, latents))
    print(f"wrote cohort ({cohort.n} records), oracle bundle and latents to {args.out}")
    return 0


def cmd_aj(args) -> int:
    if args.replicate_for and args.bundle_out is None:
        raise ValidationError("--replicate-for requires --bundle-out")
    cohort = parse_cohort(_read(args.cohort), args.k_events)
    curves = aalen_johansen(cohort)
    if args.replicate_for:
        target = parse_cohort(_read(args.replicate_for), args.k_events)
        bundle = marginal_bundle(curves, quantile_grid(cohort, args.grid_size), target.ids)
    _write(args.out / "km.csv", curves.km.to_csv())
    _write(args.out / "censoring.csv", curves.censoring.to_csv())
    for k in range(1, cohort.k_events + 1):
        _write(args.out / f"cif_{k}.csv", curves.cif(k).to_csv())
    if args.replicate_for:
        _write(args.bundle_out, bundle_to_csv(bundle))
        print(f"wrote replicated bundle for {target.n} samples to {args.bundle_out}")
    print(f"wrote marginal curves to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    cohort = parse_cohort(_read(args.cohort), args.k_events)
    bundle = parse_bundle(_read(args.bundle), args.k_events)
    params = MetricParams(alpha=args.alpha, rho_steps=args.rho_steps)
    report = calibration_report(bundle, cohort, params, args.level, args.seed)
    _write(args.out, report.to_json())
    print(f"d_cal total {report.total_d:.6f} | pi_cal total {report.total_pi:.6f} -> {args.out}")
    return 0


def _recalibrate(
    method: str, cal_cohort: Cohort, cal_bundle: CifBundle, bundle: CifBundle, grid_size: int
) -> tuple[dict, RecalibratedBundle]:
    """Fit ``method`` ("aj" or "ts") on the cal split's duration quantiles inside the
    bundle horizon and apply it; returns (map JSON with the repair count, bundle)."""
    grid_times = quantile_grid(cal_cohort, grid_size).times
    grid_times = grid_times[grid_times <= cal_bundle.grid.t_max]
    if grid_times.size == 0:
        raise ValidationError("no calibration quantile falls inside the bundle horizon")
    grid = TimeGrid(grid_times)
    if method == "aj":
        rmap = fit_aj_offsets(cal_cohort, cal_bundle, grid)
        recal = apply_offsets(bundle, rmap)
    else:
        rmap = fit_temperature(cal_cohort, cal_bundle, grid)
        recal = apply_temperature(bundle, rmap)
    return {**rmap.to_dict(), "clip_events": recal.repairs}, recal


def cmd_recalibrate(args) -> int:
    cal_cohort = parse_cohort(_read(args.cal_cohort), args.k_events)
    cal_bundle = parse_bundle(_read(args.cal_bundle), args.k_events)
    test_bundle = parse_bundle(_read(args.test_bundle), args.k_events)
    fitted, recal = _recalibrate(args.method, cal_cohort, cal_bundle, test_bundle, args.grid_size)
    _write(args.out / "map.json", json.dumps(fitted, indent=2))
    _write(args.out / "recalibrated_bundle.csv", bundle_to_csv(recal))
    print(f"method {args.method}: {recal.repairs} repaired entries -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cohort = parse_cohort(_read(args.cohort), args.k_events)
    bundle = parse_bundle(_read(args.bundle), args.k_events)
    result = evaluate_bundle(cohort, bundle, args.horizons)
    _write(args.out, result.to_json())
    _write(args.out.with_suffix(".mean_incidence.csv"), mean_incidence_csv(bundle))
    print(f"ibs {result.ibs:.6f} -> {args.out}")
    return 0


def _bench_settings(text: str) -> dict:
    """Typed bench config with its defaults; malformed input raises ValidationError."""
    try:
        config = json.loads(text)
        if not isinstance(config, dict):
            raise TypeError("the config must be a JSON object")

        def integer(key: str, default=None) -> int:
            value = config[key] if default is None else config.get(key, default)
            if type(value) is not int:
                raise TypeError(f"{key} must be an integer, got {value!r}")
            return value

        model = config.get("model", "aj")
        if model not in ("aj", "oracle", "distorted"):
            raise ValueError(f"unknown model {model!r}")
        scale = config.get("censoring_scale")
        return {
            "n": integer("n"),
            "seed": integer("seed", 0),
            "grid_size": integer("grid_size", DEFAULT_GRID_SIZE),
            "model": model,
            "params": MetricParams(float(config.get("alpha", 2.0)), integer("rho_steps", 100)),
            "level": float(config.get("level", 0.05)),
            "fractions": tuple(float(f) for f in config.get("fractions", DEFAULT_FRACTIONS)),
            "weibull": WeibullConfig(censoring_scale=None if scale is None else float(scale)),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed bench config ({type(exc).__name__}: {exc})") from None


def _bench_seed(config: dict, seed: int, out_dir: Path) -> dict:
    """One benchmark replicate: simulate, split, model, score, recalibrate.
    Returns each variant's metrics in summary order; writes the seed's files
    only once every variant is scored."""
    grid_size, model = config["grid_size"], config["model"]
    cohort, latents = generate_cohort(config["weibull"], config["n"], seed)
    train, cal, test = split_cohort(cohort, seed, config["fractions"])

    if model == "aj":
        curves, grid = aalen_johansen(train), quantile_grid(train, grid_size)
        cal_bundle, test_bundle = (marginal_bundle(curves, grid, part.ids) for part in (cal, test))
    else:
        grid = oracle_grid(train, latents, grid_size)
        cal_bundle, test_bundle = (
            oracle_bundle([latents[int(s) - 1] for s in part.ids], grid, part.ids) for part in (cal, test)
        )
        if model == "distorted":
            cal_bundle = square_distort(cal_bundle)
            test_bundle = square_distort(test_bundle)

    variants, files = {"base": test_bundle}, {}
    for method in ("aj", "ts"):
        fitted, variants[method] = _recalibrate(method, cal, cal_bundle, test_bundle, grid_size)
        files[f"map_{method}.json"] = fitted

    row = {}
    for name, bundle in variants.items():
        rep = calibration_report(bundle, test, config["params"], config["level"], seed)
        ev = evaluate_bundle(test, bundle)
        files[f"report_{name}.json"] = {**rep.to_dict(), "evaluation": ev.to_dict()}
        row[name] = {
            "total_d": rep.total_d,
            "total_pi": rep.total_pi,
            "ibs": ev.ibs,
            "c_index_mean": float(np.nanmean(list(ev.c_index_mean.values()))),
            "d_test_passed": rep.d_overall,
            "pi_test_passed": rep.pi_overall,
        }
    files["splits.json"] = {
        "train_ids": list(train.ids),
        "cal_ids": list(cal.ids),
        "test_ids": list(test.ids),
        "disjoint": len(set(train.ids) | set(cal.ids) | set(test.ids)) == cohort.n,
    }
    for name, content in files.items():
        _write(out_dir / name, json.dumps(content, indent=2))
    return row


def _aggregate(rows: list[dict]) -> dict:
    """Per variant and metric across seeds: the mean and standard deviation,
    or the pass rate of a test verdict (a bool)."""
    summary: dict = {}
    for variant, metrics in rows[0].items():
        block = summary[variant] = {}
        for metric, first in metrics.items():
            vals = [r[variant][metric] for r in rows]
            if isinstance(first, bool):
                block[metric] = {"pass_rate": sum(vals) / len(vals)}
            else:
                block[metric] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
    return summary


def _summary_csv(summary: dict) -> str:
    rows = (
        (variant, metric, repr(cell["mean"]), repr(cell["std"]))
        if "mean" in cell
        else (variant, metric, repr(cell["pass_rate"]), "")
        for variant, block in summary.items()
        for metric, cell in block.items()
    )
    return _table(["variant", "metric", "mean", "std"], rows)


def cmd_bench(args) -> int:
    config = _bench_settings(_read(args.config))
    if args.seeds < 1:
        raise ValidationError("--seeds must be at least 1")
    seeds = [config["seed"] + i for i in range(args.seeds)]
    summary = _aggregate([_bench_seed(config, seed, args.out / f"seed_{seed}") for seed in seeds])
    _write(args.out / "summary.json", json.dumps({"seeds": seeds, **summary}, indent=2))
    _write(args.out / "summary.csv", _summary_csv(summary))
    base = summary["base"]
    print(
        f"{args.seeds} seeds | base d_cal {base['total_d']['mean']:.4f} "
        f"pi_cal {base['total_pi']['mean']:.4f} -> {args.out}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """A malformed command line raises ValidationError, so that ``main``
    reports it like any other invalid input: one ``error:`` line, exit 2."""

    def error(self, message):
        raise ValidationError(message)


def _times(text: str) -> list[float]:
    """The ``--horizons`` converter: comma-separated numbers, none empty."""
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # options that several subcommands share, each declared once
    out, events, grid, scored = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    out.add_argument("--out", type=Path, required=True)
    events.add_argument("--k-events", type=int, default=3)
    grid.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    scored.add_argument("--cohort", required=True)
    scored.add_argument("--bundle", required=True)

    p = sub.add_parser("simulate", parents=[out, grid], help="generate a synthetic cohort with its oracle bundle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--censoring-scale", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("aj", parents=[out, events, grid],
                       help="fit marginal curves, optionally replicate them as a bundle")
    p.add_argument("--cohort", required=True)
    p.add_argument("--replicate-for")
    p.add_argument("--bundle-out", type=Path)
    p.set_defaults(func=cmd_aj)

    p = sub.add_parser("metrics", parents=[scored, events, out], help="calibration metrics and tests for a bundle")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--rho-steps", type=int, default=100)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("recalibrate", parents=[events, grid, out],
                       help="fit a recalibration on the cal split, apply to a bundle")
    p.add_argument("--method", choices=("aj", "ts"), required=True)
    p.add_argument("--cal-cohort", required=True)
    p.add_argument("--cal-bundle", required=True)
    p.add_argument("--test-bundle", required=True)
    p.set_defaults(func=cmd_recalibrate)

    p = sub.add_parser("evaluate", parents=[scored, events, out], help="C-index, Brier and IBS for a bundle")
    p.add_argument("--horizons", type=_times, default=None, help="comma-separated times")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", parents=[out], help="seeded end-to-end benchmark from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except CrcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
