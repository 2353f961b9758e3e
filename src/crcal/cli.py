"""Command-line harness: simulate, fit, score, recalibrate, benchmark.

Subcommands exchange data through the cohort/bundle CSV formats and JSON
reports, so external models can participate by emitting bundle CSVs for
the published split ids. Exit codes: 0 success, 2 invalid input, 3
numeric domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .calibration import MetricParams
from .curves import aalen_johansen, marginal_bundle
from .data import (
    CifBundle,
    Cohort,
    TimeGrid,
    bundle_to_csv,
    cohort_to_csv,
    parse_bundle,
    parse_cohort,
    quantile_grid,
    split_cohort,
)
from .errors import CrcalError, NumericError, ValidationError
from .evaluate import evaluate_bundle, mean_incidence_csv
from .recalibrate import apply_offsets, apply_temperature, fit_aj_offsets, fit_temperature
from .report import calibration_report
from .synthetic import (
    WeibullConfig,
    generate_cohort,
    latents_to_csv,
    oracle_bundle,
    square_distort,
    survival_horizon,
)

DEFAULT_GRID_SIZE = 64
DEFAULT_FRACTIONS = (0.4, 0.4, 0.2)


def _read(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"file not found: {path}")
    return p.read_text()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _load_cohort(path: str, k_events: int) -> Cohort:
    return parse_cohort(_read(path), k_events)


def _load_bundle(path: str, k_events: int) -> CifBundle:
    return parse_bundle(_read(path), k_events)


def _sim_grid(cohort: Cohort, latents, grid_size: int) -> TimeGrid:
    """Quantile grid of the cohort extended by the terminal-mass horizon."""
    grid = quantile_grid(cohort, grid_size)
    horizon = survival_horizon(latents)
    if horizon > grid.t_max:
        return TimeGrid(np.append(grid.times, horizon))
    return grid


def cmd_simulate(args) -> int:
    config = WeibullConfig(censoring_scale=args.censoring_scale)
    cohort, latents = generate_cohort(config, args.n, args.seed)
    grid = _sim_grid(cohort, latents, args.grid_size)
    bundle = oracle_bundle(latents, grid, cohort.ids)
    out = Path(args.out)
    _write(out / "cohort.csv", cohort_to_csv(cohort))
    _write(out / "oracle_bundle.csv", bundle_to_csv(bundle))
    _write(out / "latents.csv", latents_to_csv(cohort.ids, latents))
    print(f"wrote cohort ({cohort.n} records), oracle bundle and latents to {out}")
    return 0


def cmd_aj(args) -> int:
    cohort = _load_cohort(args.cohort, args.k_events)
    curves = aalen_johansen(cohort)
    out = Path(args.out)
    _write(out / "km.csv", curves.km.to_csv())
    _write(out / "censoring.csv", curves.censoring.to_csv())
    for k in range(1, cohort.k_events + 1):
        _write(out / f"cif_{k}.csv", curves.cif(k).to_csv())
    if args.replicate_for:
        if not args.bundle_out:
            raise ValidationError("--replicate-for requires --bundle-out")
        target = _load_cohort(args.replicate_for, args.k_events)
        grid = quantile_grid(cohort, args.grid_size)
        bundle = marginal_bundle(curves, grid, target.ids)
        _write(Path(args.bundle_out), bundle_to_csv(bundle))
        print(f"wrote replicated bundle for {target.n} samples to {args.bundle_out}")
    print(f"wrote marginal curves to {out}")
    return 0


def cmd_metrics(args) -> int:
    cohort = _load_cohort(args.cohort, args.k_events)
    bundle = _load_bundle(args.bundle, args.k_events)
    alpha = math.inf if args.alpha in ("inf", "INF") else float(args.alpha)
    params = MetricParams(alpha=alpha, rho_steps=args.rho_steps)
    report = calibration_report(bundle, cohort, params, args.level, args.seed)
    _write(Path(args.out), report.to_json())
    print(f"d_cal total {report.total_d:.6f} | pi_cal total {report.total_pi:.6f} -> {args.out}")
    return 0


def cmd_recalibrate(args) -> int:
    cal_cohort = _load_cohort(args.cal_cohort, args.k_events)
    cal_bundle = _load_bundle(args.cal_bundle, args.k_events)
    test_bundle = _load_bundle(args.test_bundle, args.k_events)
    grid_times = quantile_grid(cal_cohort, args.grid_size).times
    grid_times = grid_times[grid_times <= cal_bundle.grid.t_max]
    if grid_times.size == 0:
        raise ValidationError("no calibration quantile falls inside the bundle horizon")
    grid = TimeGrid(grid_times)
    if args.method == "aj":
        rmap = fit_aj_offsets(cal_cohort, cal_bundle, grid)
        recal = apply_offsets(test_bundle, rmap)
    else:
        rmap = fit_temperature(cal_cohort, cal_bundle, grid)
        recal = apply_temperature(test_bundle, rmap)
    out = Path(args.out)
    _write(out / "map.json", json.dumps(rmap.to_dict(), indent=2))
    _write(out / "recalibrated_bundle.csv", bundle_to_csv(recal))
    print(f"method {args.method}: {rmap.clip_events} repaired entries -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    cohort = _load_cohort(args.cohort, args.k_events)
    bundle = _load_bundle(args.bundle, args.k_events)
    try:
        horizons = [float(h) for h in args.horizons.split(",")] if args.horizons else None
    except ValueError:
        raise ValidationError(f"--horizons must be comma-separated numbers, got {args.horizons!r}") from None
    result = evaluate_bundle(cohort, bundle, horizons)
    _write(Path(args.out), result.to_json())
    _write(Path(args.out).with_suffix(".mean_incidence.csv"), mean_incidence_csv(bundle))
    print(f"ibs {result.ibs:.6f} -> {args.out}")
    return 0


def _bench_seed(config: dict, seed: int, out_dir: Path) -> dict:
    """One benchmark replicate: simulate, split, model, score, recalibrate."""
    n = config["n"]
    grid_size = config.get("grid_size", DEFAULT_GRID_SIZE)
    model = config.get("model", "aj")
    params = MetricParams(
        alpha=math.inf if config.get("alpha") == "inf" else float(config.get("alpha", 2.0)),
        rho_steps=int(config.get("rho_steps", 100)),
    )
    level = float(config.get("level", 0.05))
    fractions = tuple(config.get("fractions", DEFAULT_FRACTIONS))

    wconfig = WeibullConfig(censoring_scale=config.get("censoring_scale"))
    cohort, latents = generate_cohort(wconfig, n, seed)
    train, cal, test = split_cohort(cohort, seed, fractions)
    by_id = {sid: latents[int(sid) - 1] for sid in cohort.ids}

    if model == "aj":
        curves = aalen_johansen(train)
        grid = quantile_grid(train, grid_size)
        cal_bundle = marginal_bundle(curves, grid, cal.ids)
        test_bundle = marginal_bundle(curves, grid, test.ids)
    elif model in ("oracle", "distorted"):
        grid = _sim_grid(train, latents, grid_size)
        cal_bundle = oracle_bundle([by_id[s] for s in cal.ids], grid, cal.ids)
        test_bundle = oracle_bundle([by_id[s] for s in test.ids], grid, test.ids)
        if model == "distorted":
            cal_bundle = square_distort(cal_bundle)
            test_bundle = square_distort(test_bundle)
    else:
        raise ValidationError(f"unknown model {model!r}")

    recal_times = quantile_grid(cal, grid_size).times
    recal_times = recal_times[recal_times <= cal_bundle.grid.t_max]
    recal_grid = TimeGrid(recal_times)
    offsets = fit_aj_offsets(cal, cal_bundle, recal_grid)
    aj_bundle = apply_offsets(test_bundle, offsets)
    temps = fit_temperature(cal, cal_bundle, recal_grid)
    ts_bundle = apply_temperature(test_bundle, temps)

    variants = {"base": test_bundle, "aj": aj_bundle, "ts": ts_bundle}
    row: dict = {"seed": seed}
    for name, bundle in variants.items():
        rep = calibration_report(bundle, test, params, level, seed)
        ev = evaluate_bundle(test, bundle)
        combined = rep.to_dict()
        combined["evaluation"] = ev.to_dict()
        _write(out_dir / f"report_{name}.json", json.dumps(combined, indent=2))
        row[name] = {
            "total_d": rep.total_d,
            "total_pi": rep.total_pi,
            "d_test_passed": rep.d_overall,
            "pi_test_passed": rep.pi_overall,
            "ibs": ev.ibs,
            "c_index_mean": float(np.nanmean(list(ev.c_index_mean.values()))),
        }
    _write(out_dir / "map_aj.json", json.dumps(offsets.to_dict(), indent=2))
    _write(out_dir / "map_ts.json", json.dumps(temps.to_dict(), indent=2))
    splits = {
        "train_ids": list(train.ids),
        "cal_ids": list(cal.ids),
        "test_ids": list(test.ids),
        "disjoint": len(set(train.ids) | set(cal.ids) | set(test.ids)) == cohort.n,
    }
    _write(out_dir / "splits.json", json.dumps(splits, indent=2))
    return row


def _aggregate(rows: list[dict]) -> dict:
    """Mean and standard deviation per variant and metric across seeds."""
    summary: dict = {"seeds": [r["seed"] for r in rows]}
    for variant in ("base", "aj", "ts"):
        block: dict = {}
        for metric in ("total_d", "total_pi", "ibs", "c_index_mean"):
            vals = np.array([r[variant][metric] for r in rows], dtype=float)
            block[metric] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
        for metric in ("d_test_passed", "pi_test_passed"):
            vals = [bool(r[variant][metric]) for r in rows]
            block[metric] = {"pass_rate": sum(vals) / len(vals)}
        summary[variant] = block
    return summary


def _summary_csv(summary: dict) -> str:
    lines = ["variant,metric,mean,std"]
    for variant in ("base", "aj", "ts"):
        for metric, cell in summary[variant].items():
            if "mean" in cell:
                lines.append(f"{variant},{metric},{cell['mean']!r},{cell['std']!r}")
            else:
                lines.append(f"{variant},{metric},{cell['pass_rate']!r},")
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    config = json.loads(_read(args.config))
    base_seed = int(config.get("seed", 0))
    out = Path(args.out)
    rows = []
    for i in range(args.seeds):
        seed = base_seed + i
        rows.append(_bench_seed(config, seed, out / f"seed_{seed}"))
    summary = _aggregate(rows)
    _write(out / "summary.json", json.dumps(summary, indent=2))
    _write(out / "summary.csv", _summary_csv(summary))
    base = summary["base"]
    print(
        f"{args.seeds} seeds | base d_cal {base['total_d']['mean']:.4f} "
        f"pi_cal {base['total_pi']['mean']:.4f} -> {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort with its oracle bundle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--censoring-scale", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("aj", help="fit marginal curves, optionally replicate them as a bundle")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k-events", type=int, default=3)
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--replicate-for")
    p.add_argument("--bundle-out")
    p.set_defaults(func=cmd_aj)

    p = sub.add_parser("metrics", help="calibration metrics and tests for a bundle")
    p.add_argument("--cohort", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--k-events", type=int, default=3)
    p.add_argument("--alpha", default="2.0")
    p.add_argument("--rho-steps", type=int, default=100)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("recalibrate", help="fit a recalibration on the cal split, apply to a bundle")
    p.add_argument("--method", choices=("aj", "ts"), required=True)
    p.add_argument("--cal-cohort", required=True)
    p.add_argument("--cal-bundle", required=True)
    p.add_argument("--test-bundle", required=True)
    p.add_argument("--k-events", type=int, default=3)
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_recalibrate)

    p = sub.add_parser("evaluate", help="C-index, Brier and IBS for a bundle")
    p.add_argument("--cohort", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--k-events", type=int, default=3)
    p.add_argument("--horizons", default=None, help="comma-separated times")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="seeded end-to-end benchmark from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except CrcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
