"""Command-line harness: simulate, fit, score, recalibrate, benchmark.

Subcommands exchange data through the cohort/bundle CSV formats and JSON
reports, so external models can participate by emitting bundle CSVs for
the published split ids. Exit codes: 0 success, 2 invalid input, 3
numeric domain error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import shutil
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
from .synthetic import WeibullConfig, generate_cohort, latents_to_csv, oracle_bundle, oracle_grid, square_distort

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


def _write_all(files: dict[Path, str | dict]) -> None:
    """Write every file as UTF-8, or none: encode each value that is not text as strict JSON,
    stage each file as ``<name>.part`` beside its target, rename them into place once all are
    written, and on a failure remove what was staged or made."""
    texts = {}
    for path, value in files.items():
        try:
            texts[path] = value if isinstance(value, str) else json.dumps(value, indent=2, allow_nan=False)
        except ValueError as exc:  # a NaN or an infinity, which strict JSON readers reject
            raise NumericError(f"cannot encode {path}: {exc}") from None
    staged, made = [], []
    try:
        for path in files:  # Path("") is "."; a rename would replace a device or a pipe
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            if path.exists() and not path.is_file():
                raise OSError("not a regular file")
        for path, text in texts.items():
            made += [d for d in path.parents if not d.exists()][-1:]  # the outermost one this run makes
            path.parent.mkdir(parents=True, exist_ok=True)
            staged.append(part := path.with_name(path.name + ".part"))
            part.write_text(text, encoding="utf-8")
        for part, path in zip(staged, files):
            part.replace(path)
    except OSError as exc:
        for part in staged:
            part.unlink(missing_ok=True)
        for d in made:
            shutil.rmtree(d, ignore_errors=True)
        raise ValidationError(f"cannot write {path}: {exc}") from None


def cmd_simulate(args) -> tuple[dict[Path, str | dict], str]:
    config = WeibullConfig(censoring_scale=args.censoring_scale)
    cohort, latents = generate_cohort(config, args.n, args.seed)
    grid = oracle_grid(cohort, latents, args.grid_size)
    bundle = oracle_bundle(latents, grid, cohort.ids)
    files = {args.out / "cohort.csv": cohort_to_csv(cohort), args.out / "oracle_bundle.csv": bundle_to_csv(bundle),
             args.out / "latents.csv": latents_to_csv(cohort.ids, latents)}
    return files, f"wrote cohort ({cohort.n} records), oracle bundle and latents to {args.out}"


def cmd_aj(args) -> tuple[dict[Path, str | dict], str]:
    if args.replicate_for and args.bundle_out is None:
        raise ValidationError("--replicate-for requires --bundle-out")
    if args.bundle_out is not None and not args.replicate_for:
        raise ValidationError("--bundle-out requires --replicate-for")
    cohort = parse_cohort(_read(args.cohort), args.k_events)
    curves = aalen_johansen(cohort)
    files = {args.out / "km.csv": curves.km.to_csv(), args.out / "censoring.csv": curves.censoring.to_csv()}
    for k in range(1, cohort.k_events + 1):
        files[args.out / f"cif_{k}.csv"] = curves.cif(k).to_csv()
    message = f"wrote marginal curves to {args.out}"
    if args.replicate_for:
        target = parse_cohort(_read(args.replicate_for), args.k_events)
        bundle = marginal_bundle(curves, quantile_grid(cohort, args.grid_size), target.ids)
        files[args.bundle_out] = bundle_to_csv(bundle)
        message = f"wrote replicated bundle for {target.n} samples to {args.bundle_out}\n{message}"
    return files, message


def cmd_metrics(args) -> tuple[dict[Path, str | dict], str]:
    cohort = parse_cohort(_read(args.cohort), args.k_events)
    bundle = parse_bundle(_read(args.bundle), args.k_events)
    params = MetricParams(alpha=args.alpha, rho_steps=args.rho_steps)
    report = calibration_report(bundle, cohort, params, args.level)
    message = f"d_cal total {report.total_d:.6f} | pi_cal total {report.total_pi:.6f} -> {args.out}"
    return {args.out: report.to_dict()}, message


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


def cmd_recalibrate(args) -> tuple[dict[Path, str | dict], str]:
    cal_cohort = parse_cohort(_read(args.cal_cohort), args.k_events)
    cal_bundle = parse_bundle(_read(args.cal_bundle), args.k_events)
    test_bundle = parse_bundle(_read(args.test_bundle), args.k_events)
    fitted, recal = _recalibrate(args.method, cal_cohort, cal_bundle, test_bundle, args.grid_size)
    files = {args.out / "map.json": fitted, args.out / "recalibrated_bundle.csv": bundle_to_csv(recal)}
    return files, f"method {args.method}: {recal.repairs} repaired entries -> {args.out}"


def cmd_evaluate(args) -> tuple[dict[Path, str | dict], str]:
    cohort = parse_cohort(_read(args.cohort), args.k_events)
    bundle = parse_bundle(_read(args.bundle), args.k_events)
    result = evaluate_bundle(cohort, bundle, args.horizons)
    # the parent and stem, not with_suffix, which raises on a path with no name such as "."
    incidence = args.out.parent / f"{args.out.stem}.mean_incidence.csv"
    files = {args.out: result.to_dict(), incidence: mean_incidence_csv(bundle)}
    return files, f"ibs {result.ibs:.6f} -> {args.out}"


_BENCH_DEFAULTS = {"seed": 0, "grid_size": DEFAULT_GRID_SIZE, "model": "aj", "alpha": 2.0, "rho_steps": 100,
                   "level": 0.05, "fractions": DEFAULT_FRACTIONS, "censoring_scale": None}


def _bench_settings(text: str) -> dict:
    """Typed bench config with its defaults; malformed input, an unknown key
    included, raises ValidationError."""
    try:
        config = json.loads(text)
        if not isinstance(config, dict):
            raise TypeError("the config must be a JSON object")
        unknown = config.keys() - _BENCH_DEFAULTS.keys() - {"n"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        config = {**_BENCH_DEFAULTS, **config}

        def integer(key: str) -> int:
            if type(config[key]) is not int:
                raise TypeError(f"{key} must be an integer, got {config[key]!r}")
            return config[key]

        def number(value, name: str) -> float:  # a bool or a string is not one
            if type(value) not in (int, float):
                raise TypeError(f"{name} must be a number, got {value!r}")
            return float(value)

        model = config["model"]
        if model not in ("aj", "oracle", "distorted"):
            raise ValueError(f"unknown model {model!r}")
        scale = config["censoring_scale"]
        return {
            "n": integer("n"),
            "seed": integer("seed"),
            "grid_size": integer("grid_size"),
            "model": model,
            "params": MetricParams(number(config["alpha"], "alpha"), integer("rho_steps")),
            "level": number(config["level"], "level"),
            "fractions": tuple(number(f, "a fraction") for f in config["fractions"]),
            "weibull": WeibullConfig(censoring_scale=None if scale is None else number(scale, "censoring_scale")),
        }
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # float() of a huge JSON integer overflows
        raise ValidationError(f"malformed bench config ({type(exc).__name__}: {exc})") from None


def _bench_seed(config: dict, seed: int, out_dir: Path) -> tuple[dict, dict[Path, dict]]:
    """One benchmark replicate: simulate, split, model, score, recalibrate.
    Returns each variant's metrics in summary order, None where undefined, and the seed's files."""
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
        files[out_dir / f"map_{method}.json"] = fitted

    row = {}
    for name, bundle in variants.items():
        rep = calibration_report(bundle, test, config["params"], config["level"], seed)
        ev = evaluate_bundle(test, bundle)
        files[out_dir / f"report_{name}.json"] = {**rep.to_dict(), "evaluation": ev.to_dict()}
        defined = [v for v in ev.c_index_mean.values() if v is not None]
        row[name] = {
            "total_d": rep.total_d,
            "total_pi": rep.total_pi,
            "ibs": ev.ibs,
            "c_index_mean": float(np.mean(defined)) if defined else None,
            "d_test_passed": rep.d_overall,
            "pi_test_passed": rep.pi_overall,
        }
    files[out_dir / "splits.json"] = {
        "train_ids": list(train.ids),
        "cal_ids": list(cal.ids),
        "test_ids": list(test.ids),
        "disjoint": len(set(train.ids) | set(cal.ids) | set(test.ids)) == cohort.n,
    }
    return row, files


def _aggregate(rows: list[dict]) -> dict:
    """Per variant and metric across seeds: the mean and standard deviation, both
    None when a seed's value is, or the pass rate of a test verdict (a bool)."""
    summary: dict = {}
    for variant, metrics in rows[0].items():
        block = summary[variant] = {}
        for metric, first in metrics.items():
            vals = [r[variant][metric] for r in rows]
            if isinstance(first, bool):
                block[metric] = {"pass_rate": sum(vals) / len(vals)}
            elif None in vals:
                block[metric] = {"mean": None, "std": None}
            else:
                block[metric] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
    return summary


def _summary_csv(summary: dict) -> str:
    def field(value) -> str:  # an undefined value and a pass rate's std are empty fields
        return "" if value is None else repr(value)

    rows = (
        (variant, metric, field(cell.get("mean", cell.get("pass_rate"))), field(cell.get("std")))
        for variant, block in summary.items()
        for metric, cell in block.items()
    )
    return _table(["variant", "metric", "mean", "std"], rows)


def cmd_bench(args) -> tuple[dict[Path, str | dict], str]:
    config = _bench_settings(_read(args.config))
    if args.seeds < 1:
        raise ValidationError("--seeds must be at least 1")
    seeds = [config["seed"] + i for i in range(args.seeds)]
    runs = [_bench_seed(config, seed, args.out / f"seed_{seed}") for seed in seeds]
    summary = _aggregate([row for row, _ in runs])
    files = {path: value for _, seed_files in runs for path, value in seed_files.items()}
    files[args.out / "summary.json"] = {"seeds": seeds, **summary}
    files[args.out / "summary.csv"] = _summary_csv(summary)
    base = summary["base"]
    return files, (f"{args.seeds} seeds | base d_cal {base['total_d']['mean']:.4f} "
                   f"pi_cal {base['total_pi']['mean']:.4f} -> {args.out}")


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
        files, message = args.func(args)
        _write_all(files)
        print(message)
        return 0
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except CrcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError too: a request too large for this machine
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
