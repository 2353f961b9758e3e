"""The benchmark's workloads: inputs made from a seed, one timed op, its output.

Ops draw their seeds from a fixed pool of ``POOL`` indices, and the outputs of
every pool index were recorded at the commit that defined the benchmark
(``reference.json``, written by ``record_reference.py``).  Every op's output
is compared with that record within ``REL_TOL``/``ABS_TOL``: loose enough for
a change of summation order or of quadrature rule at the 1e-7 level, tight
enough that lowering one CIF by 1e-3 fails the check (``selftest.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

POOL = 32
REL_TOL = 1e-6
ABS_TOL = 1e-12

SIZES = {
    "full": {
        "protocol": {"n": 2000},
        "score": {"n": 10000},
        "files": {"n_train": 200, "n_test": 150},
    },
    "smoke": {
        "protocol": {"n": 500},
        "score": {"n": 400},
        "files": {"n_train": 200, "n_test": 100},
    },
}

# base seeds; pool index i uses base + i
PROTOCOL_SEED = 3000
SCORE_SEED = 4000
FILES_TRAIN_SEED = 1000
FILES_TEST_SEED = 2000
K_EVENTS = 3


class OpFailed(Exception):
    """An op finished without raising but reported failure (non-zero exit)."""


def _cli(argv: list[str]) -> None:
    from crcal import cli

    with contextlib.redirect_stdout(io.StringIO()):  # keep the result line last on stdout
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"crcal {argv[0]} exited with {rc}")


def _reset(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


class Workload:
    """``setup`` makes the run's inputs, ``prepare`` clears the op's outputs
    (untimed), ``run`` is the timed op, ``result`` reads its outputs back."""

    name = ""

    def __init__(self, size: str, work: Path):
        self.size = size
        self.sizes = SIZES[size][self.name]
        self.work = work / self.name / size

    def setup(self, seed: int) -> None:
        _reset(self.work)

    def prepare(self, idx: int) -> None:
        pass

    def run(self, idx: int) -> None:
        raise NotImplementedError

    def result(self, idx: int) -> dict:
        raise NotImplementedError

    def key(self, idx: int) -> str:
        """Reference entry that an op with pool index ``idx`` must match."""
        return str(idx)

    @property
    def samples(self) -> int:
        """Cohort samples one op processes."""
        return sum(self.sizes.values())


class Protocol(Workload):
    """``crcal bench`` for one seed: the paper's full protocol, no CSV I/O."""

    name = "protocol"

    def setup(self, seed: int) -> None:
        _reset(self.work)
        for idx in range(POOL):
            config = {"n": self.sizes["n"], "model": "distorted", "seed": PROTOCOL_SEED + idx}
            (self.work / f"config_{idx}.json").write_text(json.dumps(config))

    def prepare(self, idx: int) -> None:
        shutil.rmtree(self.work / "bench_out", ignore_errors=True)

    def run(self, idx: int) -> None:
        _cli(["bench", "--config", str(self.work / f"config_{idx}.json"), "--seeds", "1",
              "--out", str(self.work / "bench_out")])

    def result(self, idx: int) -> dict:
        return _load(self.work / "bench_out" / "summary.json")


class Score(Workload):
    """``calibration_report`` + ``evaluate_bundle`` on one distorted oracle
    bundle built in setup: scoring a model's bundle."""

    name = "score"

    def setup(self, seed: int) -> None:
        import numpy as np

        from crcal import data, synthetic

        self.idx = seed % POOL
        cohort, latents = synthetic.generate_cohort(
            synthetic.WeibullConfig(), self.sizes["n"], SCORE_SEED + self.idx
        )
        grid = data.quantile_grid(cohort, 64)
        horizon = synthetic.survival_horizon(latents)
        if horizon > grid.t_max:
            grid = data.TimeGrid(np.append(grid.times, horizon))
        self.cohort = cohort
        self.bundle = synthetic.square_distort(synthetic.oracle_bundle(latents, grid, cohort.ids))

    def run(self, idx: int) -> None:
        from crcal import evaluate, report

        self.last = (
            report.calibration_report(self.bundle, self.cohort),
            evaluate.evaluate_bundle(self.cohort, self.bundle),
        )

    def result(self, idx: int) -> dict:
        rep, ev = self.last
        out = rep.to_dict()
        out["evaluation"] = ev.to_dict()
        return json.loads(json.dumps(out))

    def key(self, idx: int) -> str:
        return str(self.idx)


class Files(Workload):
    """The CLI file pipeline: simulate, aj --replicate-for, recalibrate --method ts
    (AJ bundle as calibration bundle, so TS fits on identical rows), metrics,
    evaluate."""

    name = "files"

    def prepare(self, idx: int) -> None:
        _reset(self.work / "op")

    def run(self, idx: int) -> None:
        w = self.work / "op"
        train, test = w / "train", w / "test"
        recal = w / "recal" / "recalibrated_bundle.csv"
        _cli(["simulate", "--n", str(self.sizes["n_train"]), "--seed", str(FILES_TRAIN_SEED + idx),
              "--out", str(train)])
        _cli(["simulate", "--n", str(self.sizes["n_test"]), "--seed", str(FILES_TEST_SEED + idx),
              "--out", str(test)])
        _cli(["aj", "--cohort", str(train / "cohort.csv"), "--out", str(w / "aj"),
              "--replicate-for", str(test / "cohort.csv"), "--bundle-out", str(w / "aj_bundle.csv")])
        _cli(["recalibrate", "--method", "ts", "--cal-cohort", str(test / "cohort.csv"),
              "--cal-bundle", str(w / "aj_bundle.csv"),
              "--test-bundle", str(test / "oracle_bundle.csv"), "--out", str(w / "recal")])
        _cli(["metrics", "--cohort", str(test / "cohort.csv"), "--bundle", str(recal),
              "--out", str(w / "metrics.json")])
        _cli(["evaluate", "--cohort", str(test / "cohort.csv"), "--bundle", str(recal),
              "--out", str(w / "evaluation.json")])

    def result(self, idx: int) -> dict:
        from crcal import data

        w = self.work / "op"
        text = (w / "recal" / "recalibrated_bundle.csv").read_text()
        return {
            "metrics": _load(w / "metrics.json"),
            "evaluation": _load(w / "evaluation.json"),
            "bundle_round_trip": data.bundle_to_csv(data.parse_bundle(text, K_EVENTS)) == text,
        }


WORKLOADS = {cls.name: cls for cls in (Protocol, Score, Files)}


def compare(got, want, path: str = "") -> list[str]:
    """Mismatches between an op's output and its reference, one line each."""
    where = path or "/"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [m for key in want for m in compare(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in compare(g, w, f"{path}/{i}")]
    if isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{where}: expected a number, got {got!r}"]
        if math.isnan(want) and math.isnan(got):
            return []
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]
