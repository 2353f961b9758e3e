"""Condense parent/change benchmark runs into one ``BENCH_<short-sha>.json``.

    python3 tools/bench_summary.py PARENT_RESULTS CHANGE_RESULTS [--out PATH]

Each argument is a ``perfbench/results`` directory: the parent commit's runs
and the change's runs, made with the same benchmark code and settings. An
untraced run ``<workload>_seed<N>_trace0.json`` found on both sides is one
pair; runs without a partner are ignored, and traced runs are not read.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the file
holds, per side, the median and quartiles (``statistics.quantiles(n=4)``)
over the paired runs, and the number of pairs the change won: pairs where it
is better in the metric's direction, ties counting for neither side.
``gain_resolved`` is true when the change won at least nine tenths of the
pairs and its median is better than the parent's by more than the parent's
interquartile distance. It also
holds the seeds, the ops attempted and failed per side, and each side's
``src_sha256``, git commit, nproc, python and numpy versions, as the runs
recorded them.

The default output is ``BENCH_<short-sha>.json`` at the repository root,
``<short-sha>`` being the first 7 hex digits of the change's ``src_sha256``,
which a run records whether or not its checkout was committed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_NAME = re.compile(r"(?P<workload>\w+)_seed(?P<seed>\d+)_trace0\.json")
PROVENANCE = ("src_sha256", "git_commit", "nproc", "python", "numpy")


def _runs(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*_trace0.json")):
        match = RUN_NAME.fullmatch(path.name)
        if match:
            runs[match["workload"], int(match["seed"])] = json.loads(path.read_text())
    return runs


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def _side(runs: list[dict]) -> dict:
    """What every run of one side recorded alike, or each run's value where
    they differ."""
    info = {}
    for key in PROVENANCE:
        values = list(dict.fromkeys(run["provenance"].get(key) for run in runs))
        info[key] = values[0] if len(values) == 1 else values
    info["attempted"] = sum(run["attempted"] for run in runs)
    info["failed"] = sum(run["failed"] for run in runs)
    return info


def summarize(parent: dict, change: dict, metrics: list[dict]) -> dict:
    pairs = sorted(parent.keys() & change.keys())
    if not pairs:
        raise ValueError("no run appears on both sides")
    workloads = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        sides = {name: [runs[workload, s] for s in seeds] for name, runs in (("parent", parent), ("change", change))}
        rows = {}
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {side: [run["metrics"][name]["value"] for run in runs] for side, runs in sides.items()}
            before, after = _spread(values["parent"]), _spread(values["change"])
            won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            rows[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": before,
                "change": after,
                "pairs_won": won,
                "pairs": len(seeds),
                "gain_resolved": won >= 0.9 * len(seeds)
                and sign * (after["median"] - before["median"]) > before["q3"] - before["q1"],
            }
        workloads[workload] = {
            "seeds": seeds,
            "metrics": rows,
            **{side: _side(runs) for side, runs in sides.items()},
        }
    return {"workloads": workloads}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = _runs(args.parent), _runs(args.change)
    try:
        summary = summarize(parent, change, metrics)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shas = {change[pair]["provenance"]["src_sha256"] for pair in parent.keys() & change.keys()}
    if args.out is None and len(shas) != 1:
        print("error: the change runs come from more than one source tree; pass --out", file=sys.stderr)
        return 2
    out = args.out or ROOT / f"BENCH_{shas.pop()[:7]}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
