"""Closed-loop benchmark of crcal.

    python3 perfbench/run.py --workload {protocol,score,files} --seed N --seconds S --trace {0,1}

One process, one op at a time: the next op starts when the previous one has
ended and been checked against its recorded reference output.  Ops call only
crcal's public entry points, ``crcal.cli.main(argv)`` and module functions.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced and the second half
traced (see ``spans.py``), and the last line holds the per-layer metrics.
Results, spans and scratch files go under ``perfbench/`` only.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from here, before any import below

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from spans import Tracer, layer_metrics, metric_units
from workloads import POOL, SIZES, WORKLOADS, compare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
RESULTS = BENCH / "results"
SETUP_PASSES = 3
MIN_OPS = 3
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {"op_s_p50": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here (no crcal sources, no reference)."""


def import_crcal() -> None:
    """Import crcal from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "crcal" / "__init__.py").is_file():
        raise BenchError(f"no crcal sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import crcal.cli

    if Path(crcal.cli.__file__).resolve().parent != (src / "crcal").resolve():
        raise BenchError(f"imported crcal from {crcal.cli.__file__}, not from {src}")


def load_reference(size: str) -> dict:
    path = BENCH / "reference.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())[size]


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, size: str, seed: int, indices: list[int]) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crcal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "workload": workload,
        "size": size,
        "sizes": SIZES[size][workload],
        "seed": seed,
        "pool": POOL,
        "op_pool_indices": indices,
    }


def run_phase(wl, seed: int, seconds: float, reference: dict, tracer: Tracer | None = None) -> dict:
    """Closed loop for ``seconds`` (and at least MIN_OPS ops); each op's output
    is checked, and a raise or a mismatch counts as a failed op."""
    walls: list[float] = []
    indices: list[int] = []
    errors: list[dict] = []
    start = perf_counter()
    while len(indices) < MIN_OPS or perf_counter() - start < seconds:
        idx = (seed + len(indices)) % POOL
        indices.append(idx)
        raised = False
        try:
            wl.prepare(idx)
            if tracer is not None:
                tracer.op = len(indices)
            t0 = perf_counter()
            try:
                wl.run(idx)
            finally:
                wall = perf_counter() - t0
                if tracer is not None:
                    tracer.op = None
            walls.append(wall)
            problems = compare(wl.result(idx), reference[wl.key(idx)])
        except Exception as exc:  # an op's failure is counted, never ends the run
            traceback.print_exc(file=sys.stderr)
            raised = True
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            errors.append({"op": len(indices), "pool_index": idx, "raised": raised, "problems": problems[:5]})
            print(f"check failed: {errors[-1]}", file=sys.stderr)
    return {"walls": walls, "indices": indices, "errors": errors}


def set_up(name: str, seed: int, size: str):
    """One set-up pass: import crcal, load the reference, run a smoke-size
    warm-up op and make the run's inputs.  Returns the workload and its reference."""
    import_crcal()
    reference = load_reference(size)[name]
    warm = WORKLOADS[name]("smoke", WORK)
    warm.setup(0)
    warm.prepare(0)
    warm.run(0)
    wl = WORKLOADS[name](size, WORK)
    wl.setup(seed)
    return wl, reference


def fresh_setup_s(name: str, seed: int, size: str) -> float:
    """Seconds of one set-up pass in a fresh interpreter, timed as in ``main``."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only", size],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 started: float | None = None) -> dict:
    """Set up, run the timed phase(s) and derive the metrics of one run.

    ``setup_s`` is the time from ``started`` to the first op.  Untraced runs
    add SETUP_PASSES - 1 passes in fresh interpreters once the timed phase is
    over, so that none of them delays the first op, and report the median."""
    started = perf_counter() if started is None else started
    wl, reference = set_up(name, seed, size)
    setup_times = [perf_counter() - started]

    tracer = None
    if trace:
        plain = run_phase(wl, seed, seconds / 2, reference)
        tracer = Tracer()
        tracer.install()
        try:
            phase = run_phase(wl, seed, seconds / 2, reference, tracer)
        finally:
            tracer.uninstall()
        phases = [plain, phase]
    else:
        phase = run_phase(wl, seed, seconds, reference)
        phases = [phase]

    walls = phase["walls"]
    attempted = sum(len(p["indices"]) for p in phases)
    errors = [e for p in phases for e in p["errors"]]
    if trace:
        units = metric_units()
        values = layer_metrics(tracer, walls) if walls else {}
        if walls and plain["walls"]:
            values["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain["walls"])
    else:
        units = END_TO_END_UNITS
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += [fresh_setup_s(name, seed, size) for _ in range(SETUP_PASSES - 1)]
        values = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb}
        if walls:
            values["op_s_p50"] = statistics.median(walls)
            values["samples_per_s"] = wl.samples * len(walls) / sum(walls)
    metrics = {key: {"value": values.get(key), "unit": unit} for key, unit in units.items()}
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
        "errors": errors,
        "op_walls": [p["walls"] for p in phases],
        "setup_times": setup_times,
        "provenance": provenance(name, size, seed, phases[0]["indices"]),
        "tracer": tracer,
    }


def summary_lines(name: str, out: dict) -> list[str]:
    lines = [
        f"workload {name}: {out['attempted']} ops attempted, {out['failed']} failed, "
        f"error_rate {out['failed'] / out['attempted']:.4g}"
    ]
    for key, metric in out["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {key} = {shown} {metric['unit']}")
    lines.append(f"  op_s_p50 samples: {len(out['op_walls'][-1])}")
    return lines


def write_results(name: str, seed: int, trace: bool, out: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    tracer = out["tracer"]
    if tracer is not None:
        (RESULTS / f"spans_{stem}.json").write_text(json.dumps(tracer.spans))
    record = {k: v for k, v in out.items() if k != "tracer"}
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", choices=sorted(SIZES), metavar="SIZE",
                        help="time one set-up pass at SIZE, print its seconds and exit (run_workload uses it)")
    args = parser.parse_args(argv)
    if args.seconds is None and args.setup_only is None:
        parser.error("--seconds is required")
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, args.setup_only)
            print(perf_counter() - STARTED)
            return 0
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), started=STARTED)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(args.workload, out):
        print(line)
    print(f"  provenance: {json.dumps(out['provenance'])}")
    print(f"  results: {write_results(args.workload, args.seed, bool(args.trace), out).relative_to(ROOT)}")
    print(json.dumps({key: out[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
