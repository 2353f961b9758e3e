import json
from pathlib import Path

import numpy as np
import pytest

from crcal.cli import main


def run(argv):
    return main([str(a) for a in argv])


class TestSimulateAndMetrics:
    def test_simulate_outputs(self, tmp_path):
        assert run(["simulate", "--n", 120, "--seed", 3, "--out", tmp_path, "--grid-size", 8]) == 0
        for name in ("cohort.csv", "oracle_bundle.csv", "latents.csv"):
            assert (tmp_path / name).exists()

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

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,event\n1,-2.0,1\n")
        code = run(["aj", "--cohort", bad, "--out", tmp_path, "--k-events", 1])
        assert code == 2

    def test_missing_file_exit_code(self, tmp_path):
        code = run(["metrics", "--cohort", tmp_path / "nope.csv", "--bundle", tmp_path / "nope2.csv", "--out", tmp_path / "r.json"])
        assert code == 2

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

    @pytest.mark.parametrize("horizons", ["abc", "1.0,", "nan", "inf", "-1", "0", "0.5,nan"])
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
