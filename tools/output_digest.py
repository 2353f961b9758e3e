"""Print one SHA-256 per output of a fixed set of crcal runs, or how they moved.

    python3 tools/output_digest.py [ROOT] > digests.txt
    python3 tools/output_digest.py [ROOT] --against OTHER

ROOT is the checkout whose ``src/`` is imported (default: the checkout this
script sits in), so the same script can digest an older tree. Each line is
``<label> <sha256>``, and a change moved an output, to the last bit, where
two checkouts' lines differ.

``--against OTHER`` runs every case on OTHER and on ROOT, each in a fresh
process, and lists how ROOT's outputs moved from OTHER's: each case whose
digest moved, and in it each part that moved (a file, or the run's exit
code and stderr), with its count of moved numbers and their largest
relative and absolute move. A part that is JSON on both sides also gets its
added and removed keys (dotted paths, ``[]`` for a list's items); the exit
status is 1 when any key set changed. Against itself it reports nothing
moved. The set:

- ``score/<pool>/<model>/{report,evaluation}``: the calibration report and
  evaluation, as ``json.dumps(x.to_dict(), indent=2)``, of the benchmark's
  ``score`` inputs (n = 10000, seeds 4000 + pool for pool 0-2), for the
  oracle and the square-distorted bundle;
- ``c_index/<k>/<tau>``: ``cr_c_index`` of the distorted pool-0 bundle at
  every event and the default horizons, as ``float.hex``;
- ``bench/<file>``: every file of a 2-seed ``crcal bench`` tree
  (n = 2000, distorted model, seed 3000); ``bench/aj_model/<file>``, the
  same with the default model, the AJ marginal replicated for every sample,
  from seed 3002 (seed 3001 stops with exit 3 on this model);
- ``files/<file>``: every file of the CLI pipeline simulate, aj
  --replicate-for, recalibrate --method ts, recalibrate --method aj (into
  ``recal_aj/``), metrics, evaluate (n = 200 + 150, seeds 1000 and 2000);
- ``stdout/recalibrate_<method>``: the line each recalibrate run prints,
  which carries its repair count, with the scratch directory masked;
- ``edge/replicated_scored_bundle/<file>``: ``metrics``, ``evaluate`` and
  ``recalibrate --method aj|ts`` (with the lines those print) with the
  ``files`` pipeline's parsed ``aj_bundle.csv`` as the scored, calibration
  and test bundle: a replicated bundle read from CSV, scored and repaired;
- ``error/<cohort|bundle>/<fault>``: the exit code and stderr of ``crcal
  metrics`` on a fixed set of malformed cohort and bundle CSVs, each read
  beside a valid file of the other kind, so the parsers' error path is
  compared as well;
- ``edge/<case>``: the exit code and stderr of crcal runs on unreadable and
  unwritable paths, a negative seed, a NaN censoring scale and a record
  spanning two lines; ``edge/huge_grid/<file>``, every file of a
  ``simulate --grid-size 10**15`` run; ``edge/quoted_ids``, a cohort and a
  bundle whose ids need quoting, written and read back;
  ``edge/oracle_survival``, the closed-form survival of 5 samples on a
  5-point grid; ``edge/oracle_per_sample``, the oracle's CIFs of 37 samples
  at per-sample (37, 9) read times from 0 to far past the truncated domain;
  and, each with the file the run writes, ``crcal metrics``
  on a CRLF cohort and bundle (``edge/crlf_metrics``), on a cohort with
  bare CR line ends (``edge/bare_cr_cohort``) and on a bundle whose short
  row and long row add up to two rows' fields
  (``edge/short_then_long_bundle``), and ``crcal aj --replicate-for`` on
  a cohort with a CR inside a quoted id (``edge/quoted_cr_replication``);
  ``edge/late_irregular_bundle``, a 150-sample written bundle with one
  blank line after ~100 KB, parsed, and the error of the same text with a
  non-numeric cif on row 4 and a short row after the blank line;
  ``edge/ts_split``, the ``fit_temperature`` betas and the bundle they
  recalibrate, with its repair count, for the square-distorted oracle
  bundle of 1200 samples on a 65-time ``oracle_grid``: a fit large enough
  to be split by grid times on two or more CPUs; ``edge/bad_inputs/<case>``,
  what each library call with an input outside its rules returns (NaN,
  infinite or non-positive horizons, events outside 1..K, non-finite,
  negative or scalar oracle read times, non-finite or negative times of the
  closed-form survival, a NaN pi-calibration time, a survival-horizon eps
  outside (0, 1)), and the exit code and stderr of a ``crcal bench`` whose
  split fractions hold a NaN;
- ``edge/cli/<case>``: the exit code, stderr and every file left in the
  run's own directory, for malformed command lines (a non-numeric
  ``--rho-steps``, ``--n`` or ``--alpha``, a missing ``--out``, an unknown
  subcommand, ``--horizons`` of ``1.0,`` or the empty string), runs that
  fail after some work (``aj --replicate-for`` without ``--bundle-out`` and
  ``--bundle-out`` without ``--replicate-for``, ``aj --replicate-for ""``
  with and without ``--bundle-out``, a
  bench whose test level is 2, a bench of an unknown model), runs whose
  later output cannot be written (``aj --bundle-out ""``, ``simulate``
  whose ``oracle_bundle.csv`` and ``evaluate`` whose
  ``.mean_incidence.csv`` target is a directory), a two-seed bench whose
  fourth ``evaluate_bundle`` call raises ``NumericError``, a two-seed n = 30
  oracle bench whose C-index is undefined in every seed, a bench config with
  an unknown key, a ``simulate`` and a bench config whose n is too large for
  an array, and ``crcal metrics`` on a cohort and a bundle that start with a
  UTF-8 BOM. Each run's working directory is its own directory.

A case that raises where a run or call should return is digested as
``raised <ExceptionType>``, so one tree's failure shows in the diff without
stopping the listing.

Scratch files go to a temporary directory (``TMPDIR``) that is removed at
the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import struct
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock


# a listing line's label and digest, with the texts a value diff compares, by part name
Case = tuple[str, str, dict[str, str]]


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _case(label: str, data: str | bytes, parts: dict[str, str] | None = None) -> Case:
    """The case of ``data``; its parts default to one part "" holding ``data``."""
    if parts is None:
        parts = {"": data if isinstance(data, str) else data.decode("utf-8", "replace")}
    return label, _sha(data), parts


def _raised(label: str, exc: BaseException) -> Case:
    """The line of a case that raised where it should return: the exception's type, not a hash."""
    text = f"raised {type(exc).__name__}"
    return label, text, {"": text}


def _floats(values) -> str:
    """An array's shape and values as text, each value the shortest repr of its bits."""
    return f"{values.shape} " + " ".join(map(repr, values.ravel().tolist()))


def _array(label: str, values) -> Case:
    """The line of a float array: the digest of its shape and bits, compared as ``_floats``."""
    return _case(label, f"{values.shape} {values.tobytes().hex()}", {"": _floats(values)})


def _tree(label: str, root: Path) -> list[Case]:
    return [
        _case(f"{label}/{path.relative_to(root).as_posix()}", path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    ]


def score_outputs() -> list[Case]:
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
            out.append(_case(f"score/{pool}/{model}/report", json.dumps(rep.to_dict(), indent=2)))
            out.append(_case(f"score/{pool}/{model}/evaluation", json.dumps(ev.to_dict(), indent=2)))
        if pool == 0:
            g = censoring_survival(cohort)
            for k in range(1, cohort.k_events + 1):
                for tau in evaluate.default_horizons(cohort):
                    value = float(evaluate.cr_c_index(cohort, distorted, k, tau, g))
                    out.append(_case(f"c_index/{k}/{tau!r}", value.hex(), {"": repr(value)}))
    return out


def cli_outputs(work: Path) -> list[Case]:
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
    config.write_text(json.dumps({"n": 2000, "seed": 3002}))
    run("bench", "--config", str(config), "--seeds", "2", "--out", str(work / "bench_aj"))

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
        printed.append(_case(f"stdout/recalibrate_{method}", line))
    recal = str(w / "recal" / "recalibrated_bundle.csv")
    run("metrics", "--cohort", str(test / "cohort.csv"), "--bundle", recal, "--out", str(w / "metrics.json"))
    run("evaluate", "--cohort", str(test / "cohort.csv"), "--bundle", recal, "--out", str(w / "evaluation.json"))

    # the parsed replicated bundle as the bundle that is scored and recalibrated
    rep, cohort, bundle = work / "replicated", str(test / "cohort.csv"), str(w / "aj_bundle.csv")
    run("metrics", "--cohort", cohort, "--bundle", bundle, "--out", str(rep / "metrics.json"))
    run("evaluate", "--cohort", cohort, "--bundle", bundle, "--out", str(rep / "evaluation.json"))
    for method in ("aj", "ts"):
        line = run("recalibrate", "--method", method, "--cal-cohort", cohort, "--cal-bundle", bundle,
                   "--test-bundle", bundle, "--out", str(rep / f"recal_{method}"))
        printed.append(_case(f"edge/replicated_scored_bundle/stdout/recalibrate_{method}", line))
    return (_tree("bench", work / "bench") + _tree("bench/aj_model", work / "bench_aj") + _tree("files", w)
            + printed + _tree("edge/replicated_scored_bundle", rep))


COHORT = ["id,time,event", "a,1.0,1", "b,2.0,0", "c,3.0,1"]
BUNDLE = ["sample_id,event,time,cif"] + [f"{s},1,{t},{c}" for s in "abc" for t, c in ((1, 0.1), (2, 0.3))]


def _edit(lines: list[str], i: int, line: str | None) -> list[str]:
    """``lines`` with line i replaced by ``line``, or dropped when it is None."""
    return lines[:i] + ([] if line is None else [line]) + lines[i + 1:]


MALFORMED = {
    "cohort": {
        "empty": [],
        "header": _edit(COHORT, 0, "id,event,time"),
        "field_count": _edit(COHORT, 2, "b,2.0"),
        "duplicate_id": _edit(COHORT, 3, "a,3.0,1"),
        "non_numeric_time": _edit(COHORT, 1, "a,soon,1"),
        "negative_time": _edit(COHORT, 1, "a,-1.0,1"),
        "nan_time": _edit(COHORT, 1, "a,nan,1"),
        "inf_time": _edit(COHORT, 1, "a,inf,1"),
        "non_numeric_event": _edit(COHORT, 1, "a,1.0,x"),
        "event_range": _edit(COHORT, 1, "a,1.0,2"),
        "non_numeric_covariate": ["id,time,event,x1", "a,1.0,1,0.5", "b,2.0,0,y", "c,3.0,1,1"],
        "no_records": COHORT[:1],
    },
    "bundle": {
        "empty": [],
        "header": _edit(BUNDLE, 0, "sample_id,time,event,cif"),
        "field_count": _edit(BUNDLE, 3, "b,1,1"),
        "non_numeric": _edit(BUNDLE, 3, "b,1,1,low"),
        "event_range": _edit(BUNDLE, 3, "b,2,1,0.1"),
        "time_zero": _edit(BUNDLE, 3, "b,1,0,0.1"),
        "time_nan": _edit(BUNDLE, 3, "b,1,nan,0.1"),
        "cif_range": _edit(BUNDLE, 3, "b,1,1,1.5"),
        "duplicate_time": _edit(BUNDLE, 4, "b,1,1,0.3"),
        "ragged_grid": _edit(BUNDLE, 4, None),
        "missing_sample_event": BUNDLE + ["d,1,1,0.1"],
        "no_rows": BUNDLE[:1],
        "decreasing": _edit(BUNDLE, 4, "b,1,2,0.05"),
        "terminal_zero": _edit(_edit(BUNDLE, 3, "b,1,1,0"), 4, "b,1,2,0"),
        "misaligned_ids": [line.replace("c,", "d,") for line in BUNDLE],
    },
}


def _exit(work: Path, *argv) -> str:
    """Exit code and stderr of one crcal run, or the exception it raised."""
    from crcal import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as stderr:
        try:
            rc = cli.main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:
            return f"raised {type(exc).__name__}"
    return f"{rc} {stderr.getvalue()}".replace(str(work), "<work>")


def _write_csv(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines))
    return path


def error_outputs(work: Path) -> list[Case]:
    out = []
    for kind, faults in MALFORMED.items():
        for fault, lines in faults.items():
            files = {"cohort": COHORT, "bundle": BUNDLE, kind: lines}
            for name, text in files.items():
                _write_csv(work / f"{name}.csv", text)
            result = _exit(work, "metrics", "--cohort", work / "cohort.csv", "--bundle", work / "bundle.csv",
                           "--k-events", "1", "--out", work / "metrics.json")
            out.append(_case(f"error/{kind}/{fault}", result))
    return out


def edge_outputs(work: Path) -> list[Case]:
    import numpy as np

    from crcal import data, recalibrate, synthetic
    from crcal.errors import ValidationError

    cohort = _write_csv(work / "edge_cohort.csv", COHORT)
    bundle = _write_csv(work / "edge_bundle.csv", BUNDLE)
    two_lines = _write_csv(work / "two_lines.csv", ["id,time,event", '"a', 'b",1.0,1', "c,-1,0"])
    (work / "not_utf8.csv").write_bytes(b"id,time,event\n\xff,1.0,1\n")
    (work / "taken").write_text("")
    (work / "bench.json").write_text(json.dumps({"n": 300, "seed": -1}))
    metrics = ("metrics", "--k-events", "1", "--bundle", bundle)
    runs = {
        "read_directory": (*metrics, "--cohort", work, "--out", work / "m.json"),
        "read_not_utf8": (*metrics, "--cohort", work / "not_utf8.csv", "--out", work / "m.json"),
        "write_directory": (*metrics, "--cohort", cohort, "--out", work),
        "simulate_into_a_file": ("simulate", "--n", "20", "--seed", "1", "--out", work / "taken"),
        "simulate_negative_seed": ("simulate", "--n", "20", "--seed", "-1", "--out", work / "neg"),
        "bench_negative_seed": ("bench", "--config", work / "bench.json", "--seeds", "1", "--out", work / "neg"),
        "simulate_nan_censoring": ("simulate", "--n", "20", "--seed", "1", "--censoring-scale", "nan",
                                   "--out", work / "nan"),
        "record_on_two_lines": (*metrics, "--cohort", two_lines, "--out", work / "m.json"),
    }
    out = [_case(f"edge/{name}", _exit(work, *argv)) for name, argv in runs.items()]

    huge = work / "huge_grid"
    result = _exit(work, "simulate", "--n", "50", "--seed", "5", "--grid-size", str(10**15), "--out", huge)
    out.append(_case("edge/huge_grid", result))
    if huge.is_dir():
        out += _tree("edge/huge_grid", huge)

    try:
        quoted = data.parse_cohort('id,time,event\n"a,b",1.0,1\n"c""d",2.0,0\n"e\nf",3.0,1\n', 1)
        text = data.cohort_to_csv(quoted)
        again = data.parse_cohort(text, 1)
        grid = data.TimeGrid(np.array([1.0, 2.0]))
        texts = [text, data.bundle_to_csv(data.CifBundle(grid, np.full((3, 1, 2), 0.5), again.ids))]
        texts.append(repr(data.parse_bundle(texts[1], 1).sample_ids))
        out.append(_case("edge/quoted_ids", "".join(texts)))
    except Exception as exc:
        out.append(_raised("edge/quoted_ids", exc))

    # line ends: CRLF files, a CR inside a quoted id, bare CR line ends, and a
    # short row followed by a long one, whose fields add up to two rows
    ended = {
        "crlf_cohort": (COHORT, "\r\n"),
        "crlf_bundle": (BUNDLE, "\r\n"),
        "cr_cohort": (COHORT, "\r"),
        "cr_id_cohort": (["id,time,event", '"a\rb",1.0,1', "c,2.0,0", "d,3.0,1"], "\n"),
    }
    for name, (lines, end) in ended.items():
        (work / f"{name}.csv").write_bytes("".join(line + end for line in lines).encode())
    short_long = _write_csv(work / "short_long.csv", BUNDLE[:3] + ["b,1,1", "0.1,b,1,2,0.3"] + BUNDLE[5:])
    cr_id = work / "cr_id_cohort.csv"
    runs = {  # each run's arguments end with the option naming the file it writes
        "crlf_metrics": ("metrics", "--k-events", "1", "--cohort", work / "crlf_cohort.csv",
                         "--bundle", work / "crlf_bundle.csv", "--out"),
        "quoted_cr_replication": ("aj", "--k-events", "1", "--cohort", cr_id, "--out", work / "cr_curves",
                                  "--replicate-for", cr_id, "--bundle-out"),
        "bare_cr_cohort": (*metrics, "--cohort", work / "cr_cohort.csv", "--out"),
        "short_then_long_bundle": ("metrics", "--k-events", "1", "--cohort", cohort, "--bundle", short_long, "--out"),
    }
    for name, argv in runs.items():
        written = work / f"{name}.out"
        result, left = _exit(work, *argv, written), written.read_bytes() if written.is_file() else b""
        parts = {"": result, written.name: left.decode("utf-8", "replace")} if left else None
        out.append(_case(f"edge/{name}", result.encode() + left, parts))

    _, latents = synthetic.generate_cohort(synthetic.WeibullConfig(), 5, 6)
    surv = synthetic.oracle_survival(latents, np.linspace(0.2, 1.0, 5))
    out.append(_array("edge/oracle_survival", surv))

    # 37 samples leave a partial row block; each reads at 0, in its head
    # piece (which ends at a quarter of its smallest scale), in its body, and
    # far past its truncated domain
    _, latents = synthetic.generate_cohort(synthetic.WeibullConfig(), 37, 7)
    lams, _ = synthetic.latent_arrays(latents)
    steps = np.array([0.0, 0.01, 0.1, 0.24, 0.5, 1.0, 2.0, 10.0, 1e6])
    vals = synthetic.oracle_values(latents, lams.min(axis=1)[:, None] * steps)
    out.append(_array("edge/oracle_per_sample", vals))

    # a blank line far into a plain bundle: the rows before it are read as
    # plain text, the rest by csv; the faulty copy has a bad value before the
    # blank line and a short row after it, and the bad value must be named
    def parsed(lines: list[str]) -> tuple[bytes, str]:
        try:
            bundle = data.parse_bundle("\n".join(lines), 3)
        except ValidationError as exc:
            return str(exc).encode(), str(exc)
        except Exception as exc:
            return f"raised {type(exc).__name__}".encode(), f"raised {type(exc).__name__}"
        ids, times, values = repr(bundle.sample_ids), bundle.grid.times, bundle.values
        return ids.encode() + times.tobytes() + values.tobytes(), f"{ids}\n{_floats(times)}\n{_floats(values)}"

    rng = np.random.default_rng(8)
    values = np.sort(rng.uniform(0.01, 0.33, (150, 3, 65)), axis=2)
    grid = data.TimeGrid(np.cumsum(rng.uniform(0.01, 0.2, 65)))
    text = data.bundle_to_csv(data.CifBundle(grid, values, tuple(f"s{i}" for i in range(150))))
    cut = text.index("\n", 100_000) + 1
    lines = (text[:cut] + "\n" + text[cut:]).split("\n")
    clean = parsed(lines)
    blank = lines.index("")
    lines[3] = lines[3].rsplit(",", 1)[0] + ",low"
    lines[blank + 1] = lines[blank + 1].rsplit(",", 1)[0]
    faulty = parsed(lines)
    out.append(_case("edge/late_irregular_bundle", clean[0] + b"\n" + faulty[0],
                     {"clean": clean[1], "faulty": faulty[1]}))

    cohort, latents = synthetic.generate_cohort(synthetic.WeibullConfig(), 1200, 9)
    grid = synthetic.oracle_grid(cohort, latents, 64)
    distorted = synthetic.square_distort(synthetic.oracle_bundle(latents, grid, cohort.ids))
    try:
        rmap = recalibrate.fit_temperature(cohort, distorted, grid)
        applied = recalibrate.apply_temperature(distorted, rmap)
        head, betas, values = f"{grid.d} {applied.repairs} ", rmap.temperatures, applied.values
        out.append(_case("edge/ts_split", head.encode() + betas.tobytes() + values.tobytes(),
                         {"": head, "temperatures": _floats(betas), "values": _floats(values)}))
    except Exception as exc:
        out.append(_raised("edge/ts_split", exc))
    return out + bad_input_outputs(work) + cli_edge_outputs(work)


def _outcome(label: str, call) -> Case:
    """The line of what ``call()`` returns, or of the exception it raised."""
    import numpy as np

    try:
        with np.errstate(all="ignore"):
            value = np.asarray(call(), dtype=float)
    except Exception as exc:
        return _raised(label, exc)
    return _array(label, value)


def bad_input_outputs(work: Path) -> list[Case]:
    import numpy as np

    from crcal import calibration, evaluate, synthetic
    from crcal.curves import aalen_johansen, censoring_survival

    cohort, latents = synthetic.generate_cohort(synthetic.WeibullConfig(), 300, 1)
    grid = synthetic.oracle_grid(cohort, latents, 16)
    bundle = synthetic.oracle_bundle(latents, grid, cohort.ids)
    g, aj = censoring_survival(cohort), aalen_johansen(cohort)
    tau = float(np.median(cohort.times))
    one_inf = np.append(grid.times[:-1], np.inf)
    calls = {
        "brier_score_nan": lambda: evaluate.brier_score(cohort, bundle, 1, np.nan, g),
        "brier_scores_zero": lambda: evaluate.brier_scores(cohort, bundle, [tau, 0.0], g),
        "cr_c_index_inf": lambda: evaluate.cr_c_index(cohort, bundle, 1, np.inf, g),
        "c_indices_negative": lambda: evaluate.c_indices(cohort, bundle, [tau, -1.0], g),
        "evaluate_bundle_nan": lambda: evaluate.evaluate_bundle(cohort, bundle, [tau, np.nan]).ibs,
        "oracle_cif_event_0": lambda: synthetic.oracle_cif(latents[0], 0, tau),
        "oracle_cif_event_4": lambda: synthetic.oracle_cif(latents[0], 4, tau),
        "oracle_cif_nan": lambda: synthetic.oracle_cif(latents[0], 1, np.nan),
        "oracle_cif_inf": lambda: synthetic.oracle_cif(latents[0], 1, np.inf),
        "oracle_cif_negative": lambda: synthetic.oracle_cif(latents[0], 1, -1.0),
        "oracle_values_inf": lambda: synthetic.oracle_values(latents, one_inf),
        "oracle_values_nan": lambda: synthetic.oracle_values(latents, np.append(grid.times, np.nan)),
        "oracle_values_scalar": lambda: synthetic.oracle_values(latents, tau),
        "oracle_survival_negative": lambda: synthetic.oracle_survival(latents[:3], [-1.0]),
        "oracle_survival_nan": lambda: synthetic.oracle_survival(latents[:3], [np.nan]),
        "oracle_survival_inf": lambda: synthetic.oracle_survival(latents[:3], [np.inf]),
        "pi_cal_tau_nan": lambda: calibration.pi_cal_tau(bundle, aj, 1, np.nan),
    }
    for eps in (0.0, 1.0, 2.0, -1.0):
        calls[f"survival_horizon_eps_{eps!r}"] = lambda eps=eps: synthetic.survival_horizon(latents[:200], eps)
    out = [_outcome(f"edge/bad_inputs/{name}", call) for name, call in calls.items()]

    config = work / "nan_fractions.json"
    config.write_text('{"n": 300, "fractions": [NaN, 0.5, 0.5]}')
    result = _exit(work, "bench", "--config", config, "--seeds", "1", "--out", work / "nan_fractions")
    out.append(_case("edge/bad_inputs/bench_nan_fractions", result))
    return out


@contextlib.contextmanager
def _inside(directory: Path):
    """Run the block in ``directory`` (``contextlib.chdir`` needs Python 3.11)."""
    old = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(old)


def _fourth_call_fails(call):
    """``call`` that raises NumericError on its fourth call."""
    from crcal.errors import NumericError

    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise NumericError("fourth call")
        return call(*args, **kwargs)

    return wrapped


def cli_edge_outputs(work: Path) -> list[Case]:
    from crcal import cli

    cohort = _write_csv(work / "cli_cohort.csv", COHORT)
    bundle = _write_csv(work / "cli_bundle.csv", BUNDLE)
    for name, lines in (("bom_cohort", COHORT), ("bom_bundle", BUNDLE)):
        (work / f"{name}.csv").write_bytes(b"\xef\xbb\xbf" + "".join(line + "\n" for line in lines).encode())
    configs = {"bench_level_two": {"n": 300, "level": 2}, "bench_unknown_model": {"n": 300, "model": "nope"},
               "bench_second_seed_numeric": {"n": 400, "model": "oracle", "grid_size": 8},
               "bench_undefined_c_index": {"n": 30, "model": "oracle", "seed": 3},
               "bench_unknown_key": {"n": 300, "model": "oracle", "alpah": 7},
               "bench_n_too_large": {"n": 10**20, "model": "oracle"}}
    for name, config in configs.items():
        (work / f"{name}.json").write_text(json.dumps(config))
    scored = ("--k-events", "1", "--cohort", cohort, "--bundle", bundle)
    runs = {  # "out" and "out.json" name paths in the run's own directory
        "metrics_rho_steps_abc": ("metrics", *scored, "--rho-steps", "abc", "--out", "out.json"),
        "metrics_alpha_abc": ("metrics", *scored, "--alpha", "abc", "--out", "out.json"),
        "simulate_n_x": ("simulate", "--n", "x", "--seed", "1", "--out", "out"),
        "simulate_missing_out": ("simulate", "--n", "20", "--seed", "1"),
        "simulate_n_too_large": ("simulate", "--n", str(10**20), "--seed", "1", "--out", "out"),
        "unknown_subcommand": ("nope", "--out", "out"),
        "evaluate_horizons_trailing_comma": ("evaluate", *scored, "--horizons", "1.0,", "--out", "out.json"),
        "evaluate_horizons_empty": ("evaluate", *scored, "--horizons", "", "--out", "out.json"),
        "aj_replicate_without_bundle_out": ("aj", "--k-events", "1", "--cohort", cohort, "--out", "out",
                                            "--replicate-for", cohort),
        "aj_bundle_out_without_replicate": ("aj", "--k-events", "1", "--cohort", cohort, "--out", "out",
                                            "--bundle-out", "out.json"),
        "aj_replicate_for_empty": ("aj", "--k-events", "1", "--cohort", cohort, "--out", "out",
                                   "--replicate-for", ""),
        "aj_replicate_for_empty_with_bundle_out": ("aj", "--k-events", "1", "--cohort", cohort, "--out", "out",
                                                   "--replicate-for", "", "--bundle-out", "out.json"),
        "bench_level_two": ("bench", "--config", work / "bench_level_two.json", "--seeds", "1", "--out", "out"),
        "bench_unknown_model": ("bench", "--config", work / "bench_unknown_model.json", "--seeds", "1",
                                "--out", "out"),
        "metrics_bom_files": ("metrics", "--k-events", "1", "--cohort", work / "bom_cohort.csv",
                              "--bundle", work / "bom_bundle.csv", "--out", "out.json"),
        "aj_bundle_out_empty": ("aj", "--k-events", "1", "--cohort", cohort, "--out", "out",
                                "--replicate-for", cohort, "--bundle-out", ""),
        "simulate_bundle_directory": ("simulate", "--n", "20", "--seed", "1", "--out", "out"),
        "evaluate_incidence_directory": ("evaluate", *scored, "--out", "out.json"),
        "bench_second_seed_numeric": ("bench", "--config", work / "bench_second_seed_numeric.json",
                                      "--seeds", "2", "--out", "out"),
        "bench_undefined_c_index": ("bench", "--config", work / "bench_undefined_c_index.json",
                                    "--seeds", "2", "--out", "out"),
        "bench_unknown_key": ("bench", "--config", work / "bench_unknown_key.json", "--seeds", "1",
                              "--out", "out"),
        "bench_n_too_large": ("bench", "--config", work / "bench_n_too_large.json", "--seeds", "1",
                              "--out", "out"),
    }
    directories = {"simulate_bundle_directory": "out/oracle_bundle.csv",
                   "evaluate_incidence_directory": "out.mean_incidence.csv"}
    out = []
    for name, argv in runs.items():
        case = work / "cli" / name
        (case / directories.get(name, "")).mkdir(parents=True)
        fault = (mock.patch.object(cli, "evaluate_bundle", _fourth_call_fails(cli.evaluate_bundle))
                 if name == "bench_second_seed_numeric" else contextlib.nullcontext())
        with _inside(case), fault:
            result = _exit(work, *(case / a if a in ("out", "out.json") else a for a in argv))
        left = _tree(name, case)
        listing = "".join(f"{label} {digest}\n" for label, digest, _ in left)
        out.append(_case(f"edge/cli/{name}", result + listing, {"": result, **{f: p[""] for f, _, p in left}}))
    return out


def collect(root: Path) -> list[Case]:
    """Every case of the checkout ``root``: its label, digest and parts."""
    sys.path.insert(0, str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        return score_outputs() + cli_outputs(Path(tmp)) + error_outputs(Path(tmp)) + edge_outputs(Path(tmp))


# a decimal number, or the words Python and JSON write for a NaN or an infinity
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf|NaN|Infinity)\b")


def _moves(before: str, after: str) -> str:
    """How a part's text moved: its count of moved numbers (of different bits) with their
    largest relative and absolute move, and whether the text around them moved."""
    old, new = _NUMBER.findall(before), _NUMBER.findall(after)
    text = _NUMBER.sub("#", before) != _NUMBER.sub("#", after)
    if len(old) != len(new):
        return f"{len(old)} numbers before, {len(new)} after; text moved"
    pairs = [(float(x), float(y)) for x, y in zip(old, new) if x != y]
    moved = [(x, y) for x, y in pairs if struct.pack("<d", x) != struct.pack("<d", y)]
    text = text or len(moved) < len(pairs)  # "1.0" for "1", say
    absolute = relative = 0.0
    for x, y in moved:
        d = abs(x - y)
        d = math.inf if math.isnan(d) else d  # a NaN, or infinities of opposite signs
        absolute = max(absolute, d)
        relative = max(relative, d / max(abs(x), abs(y)) if math.isfinite(d) and d else d)
    line = f"{len(moved)} of {len(old)} numbers moved"
    if moved:
        line += f", largest relative {relative:.3g}, absolute {absolute:.3g}"
    return line + ("; text moved" if text else "")


def _keys(value, path: str = "") -> set[str]:
    """The dotted key paths of a JSON value, ``[]`` standing for any item of a list."""
    if isinstance(value, dict):
        return {key for k, v in value.items() for key in {f"{path}.{k}".lstrip(".")} | _keys(v, f"{path}.{k}")}
    if isinstance(value, list):
        return {key for v in value for key in _keys(v, f"{path}[]")}
    return set()


def _json(text: str):
    """The JSON object or array ``text`` holds, else None."""
    try:
        value = json.loads(text)
    except ValueError:
        return None
    return value if isinstance(value, (dict, list)) else None


def diff(before: list[Case], after: list[Case]) -> int:
    """Print each case that moved from ``before`` to ``after`` and how; 1 when a JSON key set changed."""
    old = {label: (digest, parts) for label, digest, parts in before}
    new = {label: (digest, parts) for label, digest, parts in after}
    moved, keys_changed = 0, False
    for label in [*new, *(label for label in old if label not in new)]:
        if label not in old or label not in new:
            print(f"{'added' if label in new else 'removed'} {label}")
            continue
        (digest, parts), (old_digest, old_parts) = new[label], old[label]
        if digest == old_digest:
            continue
        moved += 1
        print(f"moved {label}")
        for name in sorted(parts.keys() | old_parts.keys()):
            a, b = old_parts.get(name), parts.get(name)
            if a == b:
                continue
            shown = name or "(output)"
            if a is None or b is None:
                print(f"  {shown}: only {'after' if a is None else 'before'}")
                continue
            print(f"  {shown}: {_moves(a, b)}")
            ja, jb = _json(a), _json(b)
            if ja is not None and jb is not None and _keys(ja) != _keys(jb):
                keys_changed = True
                print(f"    keys added {sorted(_keys(jb) - _keys(ja))}, removed {sorted(_keys(ja) - _keys(jb))}")
    print(f"{moved} of {len(new)} cases moved" + ("; a JSON key set changed" if keys_changed else ""))
    return int(keys_changed)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Digest crcal's outputs, or diff them against another tree.")
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--against", type=Path, help="a checkout to diff ROOT's outputs against")
    args = parser.parse_args(argv)
    trees = [args.root.resolve()] + ([] if args.against is None else [args.against.resolve()])
    for tree in trees:
        if not (tree / "src" / "crcal" / "__init__.py").is_file():
            print(f"no crcal sources under {tree / 'src'}", file=sys.stderr)
            return 2
    if args.against is None:
        for label, digest, _ in collect(trees[0]):
            print(label, digest)
        return 0
    # each tree in a fresh interpreter of its own, as one process can import only one crcal
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as here, ProcessPoolExecutor(1, mp_context=spawn) as there:
        after, before = here.submit(collect, trees[0]), there.submit(collect, trees[1])
        return diff(before.result(), after.result())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
