import argparse
import json
import math
import os
import stat
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from crcal import cli
from crcal.cli import _times, build_parser, main
from crcal.data import CifBundle, TimeGrid, bundle_to_csv, parse_bundle, parse_cohort
from crcal.errors import NumericError


def run(argv):
    return main([str(a) for a in argv])


class TestSimulateAndMetrics:
    def test_simulate_outputs(self, tmp_path):
        assert run(["simulate", "--n", 120, "--seed", 3, "--out", tmp_path, "--grid-size", 8]) == 0
        # every staged file was renamed into place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv", "latents.csv", "oracle_bundle.csv"]

    def test_metrics_report(self, tmp_path):
        run(["simulate", "--n", 150, "--seed", 4, "--out", tmp_path, "--grid-size", 8])
        code = run(
            [
                "metrics",
                "--cohort", tmp_path / "cohort.csv",
                "--bundle", tmp_path / "oracle_bundle.csv",
                "--out", tmp_path / "report.json",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert list(report) == ["params", "n", "seed", "d_cal", "pi_cal", "tests"]
        assert report["n"] == 150
        assert set(report["d_cal"]["per_event"]) == {"1", "2", "3"}
        assert report["tests"]["d_cal"]["overall_passed"] in (True, False)

    # metrics draws nothing at random, so it takes no seed and reports none
    def test_metrics_report_seed_is_null(self, tmp_path):
        run(["simulate", "--n", 60, "--seed", 4, "--out", tmp_path, "--grid-size", 8])
        args = ["metrics", "--cohort", tmp_path / "cohort.csv", "--bundle", tmp_path / "oracle_bundle.csv"]
        assert run([*args, "--out", tmp_path / "report.json"]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["seed"] is None

    def test_metrics_takes_no_seed(self, tmp_path, capsys):
        run(["simulate", "--n", 60, "--seed", 4, "--out", tmp_path, "--grid-size", 8])
        args = ["metrics", "--cohort", tmp_path / "cohort.csv", "--bundle", tmp_path / "oracle_bundle.csv"]
        assert run([*args, "--seed", 4, "--out", tmp_path / "report.json"]) == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --seed 4\n"
        assert not (tmp_path / "report.json").exists()

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,event\n1,-2.0,1\n")
        code = run(["aj", "--cohort", bad, "--out", tmp_path, "--k-events", 1])
        assert code == 2

    def test_missing_file_exit_code(self, tmp_path):
        code = run(["metrics", "--cohort", tmp_path / "nope.csv", "--bundle", tmp_path / "nope2.csv", "--out", tmp_path / "r.json"])
        assert code == 2

    # the cohort is read first, so the bundle need not exist
    def test_cohort_path_is_a_directory(self, tmp_path, capsys):
        code = run(["metrics", "--cohort", tmp_path, "--bundle", tmp_path / "b.csv", "--out", tmp_path / "r.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}: ")

    def test_cohort_file_not_utf8(self, tmp_path, capsys):
        (tmp_path / "cohort.csv").write_bytes(b"id,time,event\n\xff,1.0,1\n")
        code = run(["metrics", "--cohort", tmp_path / "cohort.csv", "--bundle", tmp_path / "b.csv",
                    "--out", tmp_path / "r.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path / 'cohort.csv'}: ")

    def test_out_path_is_a_directory(self, tmp_path, capsys):
        run(["simulate", "--n", 150, "--seed", 4, "--out", tmp_path, "--grid-size", 8])
        capsys.readouterr()
        code = run(["metrics", "--cohort", tmp_path / "cohort.csv", "--bundle", tmp_path / "oracle_bundle.csv",
                    "--out", tmp_path])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv", "latents.csv", "oracle_bundle.csv"]

    # a rename would replace the pipe (or a device such as /dev/null) with a file
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_out_path_is_a_pipe(self, tmp_path, capsys):
        run(["simulate", "--n", 150, "--seed", 4, "--out", tmp_path, "--grid-size", 8])
        capsys.readouterr()
        os.mkfifo(tmp_path / "pipe")
        code = run(["metrics", "--cohort", tmp_path / "cohort.csv", "--bundle", tmp_path / "oracle_bundle.csv",
                    "--out", tmp_path / "pipe"])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {tmp_path / 'pipe'}: not a regular file\n"
        assert stat.S_ISFIFO((tmp_path / "pipe").stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv", "latents.csv", "oracle_bundle.csv", "pipe"]

    def test_simulate_out_is_an_existing_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        code = run(["simulate", "--n", 50, "--seed", 4, "--out", tmp_path / "taken"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'taken' / 'cohort.csv'}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_simulate_writes_nothing_when_a_later_target_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "out" / "oracle_bundle.csv").mkdir(parents=True)
        code = run(["simulate", "--n", 50, "--seed", 4, "--out", tmp_path / "out"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'out' / 'oracle_bundle.csv'}: ")
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["oracle_bundle.csv"]

    @pytest.mark.parametrize("settings, message", [
        (["--seed", -1], "seed must be nonnegative"),
        (["--seed", 4, "--censoring-scale", "nan"], "censoring scale must be positive"),
    ])
    def test_simulate_rejects_bad_settings(self, tmp_path, capsys, settings, message):
        assert run(["simulate", "--n", 50, "--out", tmp_path / "out", *settings]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_simulate_too_large_n_is_one_error_line(self, tmp_path, capsys):
        assert run(["simulate", "--n", 10**20, "--seed", 1, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: n = 100000000000000000000 is too large for an array\n"
        assert not (tmp_path / "out").exists()

    # numpy's _ArrayMemoryError is a MemoryError; nothing is allocated here. It is raised
    # while the command forms the bundle, or while the writer encodes it
    @pytest.mark.parametrize("name", ["oracle_bundle", "bundle_to_csv"])
    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 745. GiB for an array"), "Unable to allocate 745. GiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch, exc, message, name):
        def fail(*args):
            raise exc
        monkeypatch.setattr(cli, name, fail)
        assert run(["simulate", "--n", 20, "--seed", 1, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["metrics", "--rho-steps", "abc"], "argument --rho-steps: invalid int value: 'abc'"),
        (["simulate", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["simulate", "--n", "5", "--seed", "1"], "the following arguments are required: --out"),
        (["nope"], "argument command: invalid choice: 'nope'"),
    ])
    def test_malformed_command_line_is_one_error_line(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: crcal metrics")

    def test_numeric_error_exit_code(self, tmp_path):
        # a censored record whose predicted survival is below the floor
        (tmp_path / "cohort.csv").write_text("id,time,event\n1,1.0,0\n2,2.0,1\n")
        (tmp_path / "bundle.csv").write_text(
            "sample_id,event,time,cif\n"
            "1,1,1.0,0.9999999999999\n1,1,2.0,1.0\n"
            "2,1,1.0,0.5\n2,1,2.0,0.9\n"
        )
        code = run(
            [
                "metrics",
                "--cohort", tmp_path / "cohort.csv",
                "--bundle", tmp_path / "bundle.csv",
                "--k-events", 1,
                "--out", tmp_path / "r.json",
            ]
        )
        assert code == 3


class TestLineEnds:
    def test_crlf_and_bom_files_give_the_lf_report(self, tmp_path):
        run(["simulate", "--n", 150, "--seed", 4, "--out", tmp_path, "--grid-size", 8])
        reports = []
        for name, head, line_end in (("lf", b"", b"\n"), ("crlf", b"", b"\r\n"), ("bom", b"\xef\xbb\xbf", b"\n")):
            paths = []
            for csv_name in ("cohort.csv", "oracle_bundle.csv"):
                path = tmp_path / f"{name}_{csv_name}"
                path.write_bytes(head + (tmp_path / csv_name).read_bytes().replace(b"\n", line_end))
                paths.append(path)
            out = tmp_path / f"{name}.json"
            assert run(["metrics", "--cohort", paths[0], "--bundle", paths[1], "--out", out]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_cr_in_a_quoted_id_survives_replication(self, tmp_path):
        (tmp_path / "cohort.csv").write_bytes(b'id,time,event\n"a\rb",1.0,1\nc,2.0,0\nd,3.0,1\n')
        code = run(["aj", "--cohort", tmp_path / "cohort.csv", "--out", tmp_path / "curves", "--k-events", 1,
                    "--replicate-for", tmp_path / "cohort.csv", "--bundle-out", tmp_path / "bundle.csv"])
        assert code == 0
        text = (tmp_path / "bundle.csv").read_bytes().decode()
        assert parse_bundle(text, k_events=1).sample_ids == ("a\rb", "c", "d")

    def test_bare_cr_line_ends_are_malformed(self, tmp_path, capsys):
        (tmp_path / "cohort.csv").write_bytes(b"id,time,event\r1,1.0,1\r2,2.0,0\r")
        code = run(["aj", "--cohort", tmp_path / "cohort.csv", "--out", tmp_path / "curves", "--k-events", 1])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 1: malformed CSV (")
        assert not (tmp_path / "curves").exists()


class TestAjCommand:
    def test_curves_and_replication(self, tmp_path):
        run(["simulate", "--n", 100, "--seed", 5, "--out", tmp_path, "--grid-size", 8])
        code = run(
            [
                "aj",
                "--cohort", tmp_path / "cohort.csv",
                "--out", tmp_path / "curves",
                "--grid-size", 6,
                "--replicate-for", tmp_path / "cohort.csv",
                "--bundle-out", tmp_path / "aj_bundle.csv",
            ]
        )
        assert code == 0
        assert (tmp_path / "curves" / "km.csv").exists()
        assert (tmp_path / "curves" / "cif_3.csv").exists()
        assert (tmp_path / "curves" / "censoring.csv").exists()
        assert (tmp_path / "aj_bundle.csv").exists()

    @pytest.mark.parametrize("target, more, message", [
        ("cohort.csv", [], "error: --replicate-for requires --bundle-out\n"),
        (None, ["--bundle-out", "bundle.csv"], "error: --bundle-out requires --replicate-for\n"),
        # an empty path is a path: given, and unreadable
        ("", [], "error: --replicate-for requires --bundle-out\n"),
        ("", ["--bundle-out", "bundle.csv"], "error: cannot read : "),
        ("missing.csv", ["--bundle-out", "bundle.csv"], "error: cannot read missing.csv: "),
        # the bundle's target is checked before any file is staged; Path("") is "."
        ("cohort.csv", ["--bundle-out", ""], "error: cannot write .: "),
        # the bundle fails after the curves are staged in a directory made for them
        ("cohort.csv", ["--bundle-out", "cohort.csv/bundle.csv"], "error: cannot write cohort.csv/bundle.csv: "),
    ])
    def test_a_failing_replication_writes_nothing(self, tmp_path, monkeypatch, capsys, target, more, message):
        monkeypatch.chdir(tmp_path)
        Path("cohort.csv").write_text("id,time,event\na,1.0,1\nb,2.0,0\nc,3.0,1\n")
        replicate = [] if target is None else ["--replicate-for", target]
        code = run(["aj", "--cohort", "cohort.csv", "--out", "curves", "--k-events", 1, *replicate, *more])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cohort.csv"]

    def test_uncensored_single_event_cohort(self, tmp_path):
        # float accumulation alone takes this AJ curve to 1.0000000000000002
        rows = "".join(f"{i},{i}.0,1\n" for i in range(1, 19))
        (tmp_path / "cohort.csv").write_text("id,time,event\n" + rows)
        code = run(
            [
                "aj",
                "--cohort", tmp_path / "cohort.csv",
                "--out", tmp_path / "curves",
                "--k-events", 1,
                "--replicate-for", tmp_path / "cohort.csv",
                "--bundle-out", tmp_path / "aj_bundle.csv",
            ]
        )
        assert code == 0
        assert (tmp_path / "curves" / "cif_1.csv").read_text().splitlines()[-1] == "18,1"
        assert (tmp_path / "aj_bundle.csv").read_text().splitlines()[-1].endswith(",1")


class TestRecalibrateAndEvaluate:
    def _setup(self, tmp_path):
        run(["simulate", "--n", 300, "--seed", 6, "--out", tmp_path, "--grid-size", 8])
        run(
            [
                "aj",
                "--cohort", tmp_path / "cohort.csv",
                "--out", tmp_path / "curves",
                "--grid-size", 8,
                "--replicate-for", tmp_path / "cohort.csv",
                "--bundle-out", tmp_path / "aj_bundle.csv",
            ]
        )

    @pytest.mark.parametrize("method", ["aj", "ts"])
    def test_recalibrate(self, tmp_path, method):
        self._setup(tmp_path)
        code = run(
            [
                "recalibrate",
                "--method", method,
                "--cal-cohort", tmp_path / "cohort.csv",
                "--cal-bundle", tmp_path / "aj_bundle.csv",
                "--test-bundle", tmp_path / "aj_bundle.csv",
                "--grid-size", 6,
                "--out", tmp_path / f"recal_{method}",
            ]
        )
        assert code == 0
        rmap = json.loads((tmp_path / f"recal_{method}" / "map.json").read_text())
        assert rmap["method"] == ("aj_offset" if method == "aj" else "temperature")
        assert (tmp_path / f"recal_{method}" / "recalibrated_bundle.csv").exists()

    def test_an_encoded_bundle_is_released_before_staging(self, tmp_path, monkeypatch):
        self._setup(tmp_path)
        apply_temperature, write_text = cli.apply_temperature, Path.write_text
        recal, alive = [], []

        def apply(*args):
            bundle = apply_temperature(*args)
            recal.append(weakref.ref(bundle))
            return bundle

        def staged(path, *args, **kwargs):
            alive.append(recal[0]() is not None)
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(cli, "apply_temperature", apply)
        monkeypatch.setattr(Path, "write_text", staged)
        code = run(
            [
                "recalibrate",
                "--method", "ts",
                "--cal-cohort", tmp_path / "cohort.csv",
                "--cal-bundle", tmp_path / "aj_bundle.csv",
                "--test-bundle", tmp_path / "oracle_bundle.csv",
                "--out", tmp_path / "recal",
            ]
        )
        assert code == 0
        assert alive == [False, False]

    @pytest.mark.parametrize("method", ["aj", "ts"])
    def test_map_json_carries_the_printed_repair_count(self, tmp_path, capsys, method):
        self._setup(tmp_path)
        out = tmp_path / f"recal_{method}"
        code = run(
            [
                "recalibrate",
                "--method", method,
                "--cal-cohort", tmp_path / "cohort.csv",
                "--cal-bundle", tmp_path / "aj_bundle.csv",
                "--test-bundle", tmp_path / "oracle_bundle.csv",
                "--out", out,
            ]
        )
        assert code == 0
        rmap = json.loads((out / "map.json").read_text())
        assert list(rmap) == ["method", "grid", "offsets" if method == "aj" else "temperatures", "clip_events"]
        assert f"method {method}: {rmap['clip_events']} repaired entries" in capsys.readouterr().out

    def test_recalibrate_rejects_a_bundle_ending_before_every_quantile(self, tmp_path, capsys):
        self._setup(tmp_path)
        cohort = parse_cohort((tmp_path / "cohort.csv").read_text(), 3)
        early = TimeGrid(np.array([cohort.times.min() / 2]))
        bundle = CifBundle(early, np.full((cohort.n, 3, 1), 0.1), cohort.ids)
        (tmp_path / "early.csv").write_text(bundle_to_csv(bundle))
        code = run(
            [
                "recalibrate",
                "--method", "aj",
                "--cal-cohort", tmp_path / "cohort.csv",
                "--cal-bundle", tmp_path / "early.csv",
                "--test-bundle", tmp_path / "early.csv",
                "--out", tmp_path / "recal",
            ]
        )
        assert code == 2
        assert "no calibration quantile falls inside the bundle horizon" in capsys.readouterr().err

    def test_recalibrate_keeps_an_event_that_offsets_clip_to_zero(self, tmp_path, capsys):
        # one event in four records puts the AJ curve at 0.25 against a mean
        # prediction of 0.5, so the offsets of -0.25 clip sample x to zero
        (tmp_path / "cal.csv").write_text("id,time,event\na,1,1\nb,2,0\nc,3,0\nd,4,0\n")
        cal = CifBundle(TimeGrid(np.arange(1.0, 5.0)), np.full((4, 1, 4), 0.5), tuple("abcd"))
        (tmp_path / "cal_bundle.csv").write_text(bundle_to_csv(cal))
        test = CifBundle(cal.grid, np.array([[[0.01, 0.02, 0.03, 0.04]], [[0.5, 0.5, 0.6, 0.7]]]), ("x", "y"))
        (tmp_path / "test_bundle.csv").write_text(bundle_to_csv(test))
        code = run(
            [
                "recalibrate",
                "--method", "aj",
                "--cal-cohort", tmp_path / "cal.csv",
                "--cal-bundle", tmp_path / "cal_bundle.csv",
                "--test-bundle", tmp_path / "test_bundle.csv",
                "--k-events", 1,
                "--out", tmp_path / "recal",
            ]
        )
        assert code == 0
        assert "method aj: 5 repaired entries" in capsys.readouterr().out
        recal = parse_bundle((tmp_path / "recal" / "recalibrated_bundle.csv").read_text(), 1)
        assert recal.values[0, 0].tolist() == [0.0, 0.0, 0.0, np.nextafter(0.0, 1.0)]
        assert np.array_equal(recal.values[1], test.values[1] - 0.25)

    def test_evaluate(self, tmp_path):
        self._setup(tmp_path)
        code = run(
            [
                "evaluate",
                "--cohort", tmp_path / "cohort.csv",
                "--bundle", tmp_path / "oracle_bundle.csv",
                "--out", tmp_path / "eval.json",
            ]
        )
        assert code == 0
        ev = json.loads((tmp_path / "eval.json").read_text())
        assert set(ev) == {"c_index", "c_index_mean", "brier", "ibs"}
        assert (tmp_path / "eval.mean_incidence.csv").exists()

    def test_evaluate_writes_no_report_when_its_incidence_target_is_a_directory(self, tmp_path, capsys):
        self._setup(tmp_path)
        (tmp_path / "eval.mean_incidence.csv").mkdir()
        code = run(["evaluate", "--cohort", tmp_path / "cohort.csv", "--bundle", tmp_path / "oracle_bundle.csv",
                    "--out", tmp_path / "eval.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'eval.mean_incidence.csv'}: ")
        assert not (tmp_path / "eval.json").exists()
        assert not list(tmp_path.rglob("*.part"))

    # "." has no name to derive the incidence file's name from, and is a directory
    @pytest.mark.parametrize("out", ["", "."])
    def test_evaluate_out_is_the_working_directory(self, tmp_path, monkeypatch, capsys, out):
        self._setup(tmp_path)
        before = sorted(tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        assert run(["evaluate", "--cohort", "cohort.csv", "--bundle", "oracle_bundle.csv", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write .: ")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("horizons", ["abc", "1.0,", "", "nan", "inf", "-1", "0", "0.5,nan"])
    def test_evaluate_rejects_bad_horizons(self, tmp_path, capsys, horizons):
        self._setup(tmp_path)
        code = run(
            [
                "evaluate",
                "--cohort", tmp_path / "cohort.csv",
                "--bundle", tmp_path / "oracle_bundle.csv",
                "--horizons", horizons,
                "--out", tmp_path / "eval.json",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            (["metrics", "--alpha", "abc"], None),
            (["bench", "--seeds", 1], "{not json"),
            (["bench", "--seeds", 1], "[1]"),
            (["bench", "--seeds", 1], '{"model": "oracle"}'),
            (["bench", "--seeds", 1], '{"n": "x"}'),
            (["bench", "--seeds", 1], '{"n": 300, "alpha": "abc"}'),
            (["bench", "--seeds", 0], '{"n": 300}'),
            (["bench", "--seeds", 1], '{"n": 300, "seed": -1}'),
            (["bench", "--seeds", 1], '{"n": 300.7, "seed": 2.9, "grid_size": 8.5, "model": "oracle"}'),
            (["bench", "--seeds", 1], '{"n": 300.7, "model": "oracle"}'),
            (["bench", "--seeds", 1], '{"n": "300", "model": "oracle"}'),
            (["bench", "--seeds", 1], '{"n": true, "model": "oracle"}'),
            (["bench", "--seeds", 1], '{"n": 300, "seed": 2.9, "model": "oracle"}'),
            (["bench", "--seeds", 1], '{"n": 300, "seed": false, "model": "oracle"}'),
            (["bench", "--seeds", 1], '{"n": 300, "grid_size": 8.5, "model": "oracle"}'),
            (["bench", "--seeds", 1], '{"n": 300, "rho_steps": 10.5, "model": "oracle"}'),
            (["bench", "--seeds", 1], '{"n": 300, "fractions": [NaN, 0.5, 0.5]}'),
            (["bench", "--seeds", 1], '{"n": 300, "model": "nope"}'),
            (["bench", "--seeds", 1], '{"n": 300, "level": 2}'),
            (["bench", "--seeds", 1], '{"n": 300, "model": "oracle", "alpah": 7}'),
            (["bench", "--seeds", 1], '{"n": 300, "model": "oracle", "censoring_scale": true}'),
            (["bench", "--seeds", 1], '{"n": 300, "model": "oracle", "level": "0.05"}'),
            (["bench", "--seeds", 1], '{"n": 300, "model": "oracle", "alpha": 1' + "0" * 400 + "}"),
            (["bench", "--seeds", 1], '{"n": 100000000000000000000, "model": "oracle"}'),
        ],
    )
    def test_malformed_input_exits_two(self, tmp_path, capsys, command, config):
        if config is None:
            self._setup(tmp_path)
            paths = ["--cohort", tmp_path / "cohort.csv", "--bundle", tmp_path / "oracle_bundle.csv"]
        else:
            (tmp_path / "bench.json").write_text(config)
            paths = ["--config", tmp_path / "bench.json"]
        capsys.readouterr()
        assert run(command + paths + ["--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestParser:
    # every subcommand's options as (type, default, required), shared options
    # included; declaring a shared option once must not change this table
    OPTIONS = {
        "simulate": {
            "--n": (int, None, True),
            "--seed": (int, None, True),
            "--out": (Path, None, True),
            "--grid-size": (int, 64, False),
            "--censoring-scale": (float, None, False),
        },
        "aj": {
            "--cohort": (None, None, True),
            "--out": (Path, None, True),
            "--k-events": (int, 3, False),
            "--grid-size": (int, 64, False),
            "--replicate-for": (None, None, False),
            "--bundle-out": (Path, None, False),
        },
        "metrics": {
            "--cohort": (None, None, True),
            "--bundle": (None, None, True),
            "--k-events": (int, 3, False),
            "--alpha": (float, 2.0, False),
            "--rho-steps": (int, 100, False),
            "--level": (float, 0.05, False),
            "--out": (Path, None, True),
        },
        "recalibrate": {
            "--method": (None, None, True),
            "--cal-cohort": (None, None, True),
            "--cal-bundle": (None, None, True),
            "--test-bundle": (None, None, True),
            "--k-events": (int, 3, False),
            "--grid-size": (int, 64, False),
            "--out": (Path, None, True),
        },
        "evaluate": {
            "--cohort": (None, None, True),
            "--bundle": (None, None, True),
            "--k-events": (int, 3, False),
            "--horizons": (_times, None, False),
            "--out": (Path, None, True),
        },
        "bench": {
            "--config": (None, None, True),
            "--seeds": (int, None, True),
            "--out": (Path, None, True),
        },
    }

    def test_options_are_unchanged(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.OPTIONS)
        for name, parser in sub.choices.items():
            options = {
                flag: (action.type, action.default, action.required)
                for action in parser._actions
                for flag in action.option_strings
                if action.dest != "help"
            }
            assert options == self.OPTIONS[name], name
        method = next(a for a in sub.choices["recalibrate"]._actions if a.dest == "method")
        assert method.choices == ("aj", "ts")


class TestBench:
    def _config(self, tmp_path, model="oracle", n=400):
        cfg = {"n": n, "model": model, "grid_size": 8, "seed": 9}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_bench_outputs(self, tmp_path):
        cfg = self._config(tmp_path)
        code = run(["bench", "--config", cfg, "--seeds", 2, "--out", tmp_path / "bench"])
        assert code == 0
        summary = json.loads((tmp_path / "bench" / "summary.json").read_text())
        assert summary["seeds"] == [9, 10]
        assert set(summary["base"]) >= {"total_d", "total_pi", "ibs", "c_index_mean"}
        for seed in (9, 10):
            d = tmp_path / "bench" / f"seed_{seed}"
            for f in ("report_base.json", "report_aj.json", "report_ts.json", "splits.json"):
                assert (d / f).exists()
            splits = json.loads((d / "splits.json").read_text())
            assert splits["disjoint"]
            assert not (set(splits["cal_ids"]) & set(splits["test_ids"]))

    def test_bench_reports_carry_their_seed(self, tmp_path):
        (tmp_path / "bench.json").write_text('{"n": 300, "model": "oracle", "grid_size": 8, "seed": 5}')
        assert run(["bench", "--config", tmp_path / "bench.json", "--seeds", 2, "--out", tmp_path / "out"]) == 0
        for seed in (5, 6):
            for variant in ("base", "aj", "ts"):
                report = json.loads((tmp_path / "out" / f"seed_{seed}" / f"report_{variant}.json").read_text())
                assert report["seed"] == seed

    def test_bench_model_defaults_to_aj(self, tmp_path):
        # a config without "model" benches the AJ marginal model
        (tmp_path / "bench.json").write_text('{"n": 300, "seed": 1}')
        (tmp_path / "aj.json").write_text('{"n": 300, "seed": 1, "model": "aj"}')
        for name in ("bench", "aj"):
            assert run(["bench", "--config", tmp_path / f"{name}.json", "--seeds", 1, "--out", tmp_path / name]) == 0
        for f in ("summary.json", "seed_1/report_base.json", "seed_1/map_ts.json"):
            assert (tmp_path / "bench" / f).read_bytes() == (tmp_path / "aj" / f).read_bytes()

    def test_unknown_model_fails_before_simulating(self, tmp_path, capsys, monkeypatch):
        def simulate(*args):
            raise AssertionError("generate_cohort ran")

        monkeypatch.setattr(cli, "generate_cohort", simulate)
        (tmp_path / "bench.json").write_text('{"n": 300, "model": "nope"}')
        assert run(["bench", "--config", tmp_path / "bench.json", "--seeds", 1, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: malformed bench config (ValueError: unknown model 'nope')\n"

    def test_a_failing_seed_leaves_no_seed(self, tmp_path, capsys, monkeypatch):
        # each seed scores three variants, so the fourth call is the second seed's first
        real, calls = cli.evaluate_bundle, []

        def evaluate_bundle(*args):
            calls.append(args)
            if len(calls) == 4:
                raise NumericError("fourth evaluation")
            return real(*args)

        monkeypatch.setattr(cli, "evaluate_bundle", evaluate_bundle)
        cfg = self._config(tmp_path)
        assert run(["bench", "--config", cfg, "--seeds", 2, "--out", tmp_path / "bench"]) == 3
        assert capsys.readouterr().err == "numeric error: fourth evaluation\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]

    def test_an_undefined_metric_is_null_in_every_file(self, tmp_path):
        # at n = 30 seed 3's test split has no usable C-index pair for any event, so its
        # c_index_mean, and with it the summary's, is undefined; seed 4's has one for event 1
        (tmp_path / "bench.json").write_text('{"n": 30, "model": "oracle", "seed": 3}')
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["bench", "--config", tmp_path / "bench.json", "--seeds", 2, "--out", tmp_path / "out"]) == 0

        def strict(constant):
            raise ValueError(f"{constant} is not JSON")

        # per seed two maps, three reports and the splits, then the summary
        files = sorted((tmp_path / "out").rglob("*.json"))
        assert len(files) == 13
        parsed = [json.loads(path.read_text(), parse_constant=strict) for path in files]
        summary = parsed[files.index(tmp_path / "out" / "summary.json")]
        for variant in ("base", "aj", "ts"):
            assert summary[variant]["c_index_mean"] == {"mean": None, "std": None}
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert {f"{variant},c_index_mean,," for variant in ("base", "aj", "ts")} <= set(rows)

    def test_a_non_finite_value_stops_the_writer(self, tmp_path, capsys, monkeypatch):
        real = cli._aggregate

        def aggregate(rows):
            summary = real(rows)
            summary["base"]["ibs"]["mean"] = math.nan
            return summary

        monkeypatch.setattr(cli, "_aggregate", aggregate)
        cfg = self._config(tmp_path, n=300)
        assert run(["bench", "--config", cfg, "--seeds", 1, "--out", tmp_path / "bench"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric error: cannot encode {tmp_path / 'bench' / 'summary.json'}: ")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]

    def test_bench_deterministic(self, tmp_path):
        cfg = self._config(tmp_path, n=300)
        run(["bench", "--config", cfg, "--seeds", 1, "--out", tmp_path / "b1"])
        run(["bench", "--config", cfg, "--seeds", 1, "--out", tmp_path / "b2"])
        a = (tmp_path / "b1" / "summary.json").read_bytes()
        b = (tmp_path / "b2" / "summary.json").read_bytes()
        assert a == b

    def test_bench_distorted_model_improves_after_recalibration(self, tmp_path):
        cfg = self._config(tmp_path, model="distorted", n=900)
        run(["bench", "--config", cfg, "--seeds", 1, "--out", tmp_path / "bench"])
        summary = json.loads((tmp_path / "bench" / "summary.json").read_text())
        for method in ("aj", "ts"):
            assert summary[method]["total_d"]["mean"] < summary["base"]["total_d"]["mean"]
            assert summary[method]["total_pi"]["mean"] < summary["base"]["total_pi"]["mean"]
