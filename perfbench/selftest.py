"""Self-test of the benchmark at the smoke size.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, reports every metric that
   ``BENCHMARK.json`` names, with its unit, and no op fails.
2. A perturbed output, one CIF of one sample lowered by 1e-3, makes the
   output check fail (error_rate > 0) on every workload, and every failed op
   fails on a value mismatch with the reference, not on a raise.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from unittest import mock

import numpy as np

from run import ROOT, import_crcal, run_workload, summary_lines
from workloads import WORKLOADS

NUDGE = 1e-3
SECONDS = 0.5
# a value mismatch as ``workloads.compare`` reports it
MISMATCH = re.compile(r"^/\S*: \S+ != reference \S+$")


def nudged(fn):
    """Wrap a bundle-returning function so one CIF of its output moves down by
    NUDGE; lowering the largest CIF keeps the bundle valid."""

    def wrapper(*args, **kwargs):
        bundle = fn(*args, **kwargs)
        values = bundle.values.copy()
        i, k = np.unravel_index(values[:, :, -1].argmax(), values.shape[:2])
        values[i, k, :] = np.maximum(values[i, k, :] - NUDGE, 0.0)
        return type(bundle)(bundle.grid, values, bundle.sample_ids)

    return wrapper


def check_metrics(name: str, trace: bool, spec: dict) -> list[str]:
    out = run_workload(name, seed=0, seconds=SECONDS, trace=trace, size="smoke")
    for line in summary_lines(name, out):
        print(line)
    wanted = spec["per_layer" if trace else "end_to_end"]
    problems = [f"{name}: {e}" for e in out["errors"]]
    for metric in wanted:
        got = out["metrics"].get(metric["name"])
        if got is None or not isinstance(got["value"], (int, float)):
            problems.append(f"{name} trace={int(trace)}: no value for {metric['name']}")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{name}: {metric['name']} has unit {got['unit']}, not {metric['unit']}")
    return problems


def check_perturbation(name: str) -> list[str]:
    import crcal.cli
    import crcal.synthetic

    if name == "score":  # the scored bundle is a model's output
        target = mock.patch.object(
            crcal.synthetic, "square_distort", nudged(crcal.synthetic.square_distort)
        )
    else:  # the temperature-scaled bundle is recalibrate's output
        target = mock.patch.object(crcal.cli, "apply_temperature", nudged(crcal.cli.apply_temperature))
    with target:
        out = run_workload(name, seed=0, seconds=SECONDS, trace=False, size="smoke")
    rate = out["failed"] / out["attempted"]
    print(f"perturbed {name}: error_rate {rate:.3g} ({out['failed']}/{out['attempted']})")
    if rate == 0:
        return [f"{name}: a CIF nudged by {NUDGE} went undetected"]
    return [
        f"{name}: perturbed op {e['op']} failed other than by a mismatch: {e['problems']}"
        for e in out["errors"]
        if e["raised"] or not all(MISMATCH.match(p) for p in e["problems"])
    ]


def main() -> int:
    import_crcal()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            problems += check_metrics(name, trace, spec)
        problems += check_perturbation(name)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
