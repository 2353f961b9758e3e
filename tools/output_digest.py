"""Print one SHA-256 per output of a fixed set of crcal runs.

    python3 tools/output_digest.py [ROOT] > digests.txt

ROOT is the checkout whose ``src/`` is imported (default: the checkout this
script sits in), so the same script can digest an older tree. Running it on
two checkouts and diffing the two listings shows which outputs a change
moved, to the last bit. Each line is ``<label> <sha256>``. The set:

- ``score/<pool>/<model>/{report,evaluation}``: the calibration report and
  evaluation JSON of the benchmark's ``score`` inputs (n = 10000, seeds
  4000 + pool for pool 0-2), for the oracle and the square-distorted bundle;
- ``c_index/<k>/<tau>``: ``cr_c_index`` of the distorted pool-0 bundle at
  every event and the default horizons, as ``float.hex``;
- ``bench/<file>``: every file of a 2-seed ``crcal bench`` tree
  (n = 2000, distorted model, seed 3000);
- ``files/<file>``: every file of the CLI pipeline simulate, aj
  --replicate-for, recalibrate --method ts, recalibrate --method aj (into
  ``recal_aj/``), metrics, evaluate (n = 200 + 150, seeds 1000 and 2000);
- ``stdout/recalibrate_<method>``: the line each recalibrate run prints,
  which carries its repair count, with the scratch directory masked.

Scratch files go to a temporary directory (``TMPDIR``) that is removed at
the end.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _tree(label: str, root: Path) -> list[tuple[str, str]]:
    return [
        (f"{label}/{path.relative_to(root).as_posix()}", _sha(path.read_bytes()))
        for path in sorted(root.rglob("*"))
        if path.is_file()
    ]


def score_outputs() -> list[tuple[str, str]]:
    import numpy as np

    from crcal import data, evaluate, report, synthetic
    from crcal.curves import censoring_survival

    out = []
    for pool in range(3):
        cohort, latents = synthetic.generate_cohort(synthetic.WeibullConfig(), 10000, 4000 + pool)
        grid = data.quantile_grid(cohort, 64)
        horizon = synthetic.survival_horizon(latents)
        if horizon > grid.t_max:
            grid = data.TimeGrid(np.append(grid.times, horizon))
        oracle = synthetic.oracle_bundle(latents, grid, cohort.ids)
        distorted = synthetic.square_distort(oracle)
        for model, bundle in (("oracle", oracle), ("distorted", distorted)):
            rep = report.calibration_report(bundle, cohort)
            ev = evaluate.evaluate_bundle(cohort, bundle)
            out.append((f"score/{pool}/{model}/report", _sha(rep.to_json())))
            out.append((f"score/{pool}/{model}/evaluation", _sha(ev.to_json())))
        if pool == 0:
            g = censoring_survival(cohort)
            for k in range(1, cohort.k_events + 1):
                for tau in evaluate.default_horizons(cohort):
                    value = evaluate.cr_c_index(cohort, distorted, k, tau, g)
                    out.append((f"c_index/{k}/{tau!r}", _sha(float(value).hex())))
    return out


def cli_outputs(work: Path) -> list[tuple[str, str]]:
    from crcal import cli

    def run(*argv: str) -> str:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = cli.main(list(argv))
        if rc != 0:
            raise SystemExit(f"crcal {argv[0]} exited with {rc}")
        return stdout.getvalue().replace(str(work), "<work>")

    config = work / "bench.json"
    config.write_text(json.dumps({"n": 2000, "model": "distorted", "seed": 3000}))
    run("bench", "--config", str(config), "--seeds", "2", "--out", str(work / "bench"))

    w = work / "files"
    train, test = w / "train", w / "test"
    run("simulate", "--n", "200", "--seed", "1000", "--out", str(train))
    run("simulate", "--n", "150", "--seed", "2000", "--out", str(test))
    run("aj", "--cohort", str(train / "cohort.csv"), "--out", str(w / "aj"),
        "--replicate-for", str(test / "cohort.csv"), "--bundle-out", str(w / "aj_bundle.csv"))
    printed = []
    for method, out in (("ts", "recal"), ("aj", "recal_aj")):
        line = run("recalibrate", "--method", method, "--cal-cohort", str(test / "cohort.csv"),
                   "--cal-bundle", str(w / "aj_bundle.csv"), "--test-bundle", str(test / "oracle_bundle.csv"),
                   "--out", str(w / out))
        printed.append((f"stdout/recalibrate_{method}", _sha(line)))
    recal = str(w / "recal" / "recalibrated_bundle.csv")
    run("metrics", "--cohort", str(test / "cohort.csv"), "--bundle", recal, "--out", str(w / "metrics.json"))
    run("evaluate", "--cohort", str(test / "cohort.csv"), "--bundle", recal, "--out", str(w / "evaluation.json"))
    return _tree("bench", work / "bench") + _tree("files", w) + printed


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parents[1]
    src = root / "src"
    if not (src / "crcal" / "__init__.py").is_file():
        print(f"no crcal sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    with tempfile.TemporaryDirectory() as tmp:
        lines = score_outputs() + cli_outputs(Path(tmp))
    for label, digest in lines:
        print(label, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
