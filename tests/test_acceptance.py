"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all). The runs are fully seeded; numbers quoted in assertions come from
the criterion statements, not from tuning.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_bundle, make_cohort

from crcal.calibration import INFINITY, MetricParams, cr_d_hat, interval_bucket, pi_cal_alpha
from crcal.curves import aalen_johansen, censoring_survival, kaplan_meier, marginal_bundle
from crcal.data import CifBundle, TimeGrid, quantile_grid, split_cohort
from crcal.evaluate import cr_c_index, evaluate_bundle
from crcal.kstests import d_cal_test, ks_uniform
from crcal.recalibrate import apply_offsets, apply_temperature, fit_aj_offsets, fit_temperature
from crcal.synthetic import (
    LatentRecord,
    WeibullConfig,
    generate_cohort,
    oracle_bundle,
    oracle_values,
    square_distort,
    survival_horizon,
)

PARAMS = MetricParams(alpha=2.0, rho_steps=100)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def oracle_bundle_for(cohort, latents, grid_size=64):
    grid = quantile_grid(cohort, grid_size)
    horizon = survival_horizon(latents)
    if horizon > grid.t_max:
        grid = TimeGrid(np.append(grid.times, horizon))
    return oracle_bundle(latents, grid, cohort.ids)


def test_01_properness(capsys):
    # oracle bundles are distribution-calibrated: per-event median <= 0.06
    # at n = 20000 and the total median decreases over {2k, 10k, 20k}
    import time

    start = time.time()
    cfg = WeibullConfig()
    medians = {}
    totals = {}
    for n in (2000, 10_000, 20_000):
        rows = []
        for seed in range(10):
            cohort, latents = generate_cohort(cfg, n, seed=seed)
            bundle = oracle_bundle_for(cohort, latents)
            per, total = cr_d_hat(bundle, cohort, PARAMS)
            rows.append([per[1], per[2], per[3], total])
        arr = np.median(np.array(rows), axis=0)
        medians[n], totals[n] = arr[:3], arr[3]
    elapsed = time.time() - start
    level_ok = bool((medians[20_000] <= 0.06).all())
    trend_ok = totals[2000] > totals[10_000] > totals[20_000]
    runtime_ok = elapsed <= 120.0
    ok = level_ok and trend_ok and runtime_ok
    with capsys.disabled():
        report(
            1,
            ok,
            f"per-event medians at 20k {np.round(medians[20_000], 4).tolist()} <= 0.06; "
            f"total medians {totals[2000]:.4f} > {totals[10_000]:.4f} > {totals[20_000]:.4f}; "
            f"runtime {elapsed:.0f}s <= 120s",
        )
    assert ok


def test_02_aj_self_calibration(capsys):
    # the AJ model scored with its own curves as the plug-in reference:
    # total pi-calibration <= 0.01 and total d-hat <= 0.15, 5 seeds
    worst_pi = 0.0
    worst_d = 0.0
    for seed in range(1, 6):
        cohort, _ = generate_cohort(WeibullConfig(), 25_000, seed=seed)
        train, cal, test = split_cohort(cohort, seed)
        curves = aalen_johansen(train)
        grid = quantile_grid(train, 64)
        bundle = marginal_bundle(curves, grid, test.ids)
        _, total_pi = pi_cal_alpha(bundle, curves, PARAMS, grid)
        _, total_d = cr_d_hat(bundle, test, PARAMS)
        worst_pi = max(worst_pi, total_pi)
        worst_d = max(worst_d, total_d)
    ok = worst_pi <= 0.01 and worst_d <= 0.15
    with capsys.disabled():
        report(2, ok, f"worst total pi {worst_pi:.2e} <= 0.01; worst total d {worst_d:.4f} <= 0.15")
    assert ok


def test_03_alpha_inf_reduction(capsys):
    # alpha = infinity metric equals the KS test statistic bitwise
    rng = np.random.default_rng(30)
    inf_params = MetricParams(alpha=INFINITY, rho_steps=100)
    equal = True
    for trial in range(50):
        n = int(rng.integers(5, 80))
        times = np.round(rng.uniform(0.2, 5.0, n), 1)
        events = rng.integers(0, 3, n)
        events[:2] = (1, 2)
        cohort = make_cohort(times, events, k=2)
        incr = rng.uniform(0.01, 1.0, size=(n, 2, 6))
        vals = np.cumsum(incr, axis=2)
        vals *= rng.uniform(0.5, 0.95) / vals[:, :, -1:].sum(axis=1, keepdims=True)
        bundle = make_bundle(np.linspace(0.5, 5.5, 6), vals, cohort.ids)
        per, _ = cr_d_hat(bundle, cohort, inf_params)
        tests, _ = d_cal_test(bundle, cohort, rho_steps=100)
        for k in (1, 2):
            if per[k] != tests[k].statistic:
                equal = False
    with capsys.disabled():
        report(3, equal, "sup-norm metric equals test statistic bitwise on 50 random cohorts")
    assert equal


def test_04_c_index_invariance(capsys):
    # additive recalibration with zero repairs preserves the C-index to
    # the last bit at every horizon
    all_zero_clip = True
    all_identical = True
    for seed in range(1, 11):
        cohort, latents = generate_cohort(WeibullConfig(), 8000, seed=seed)
        times = np.sort(cohort.times)
        horizons = [float(times[int(math.ceil(q * times.size)) - 1]) for q in (0.25, 0.5, 0.75)]
        grid = TimeGrid(np.unique(horizons))
        oracle = oracle_bundle(latents, grid, cohort.ids)
        model = CifBundle(grid, oracle.values * 0.7, cohort.ids)
        rmap = fit_aj_offsets(cohort, model, grid)
        recal = apply_offsets(model, rmap)
        if recal.repairs != 0:
            all_zero_clip = False
            continue
        sub = np.arange(0, cohort.n, 5)[:1500]
        sub_cohort = cohort.subset(sub)
        g = censoring_survival(sub_cohort)
        before = CifBundle(grid, model.values[sub], sub_cohort.ids)
        after = CifBundle(grid, recal.values[sub], sub_cohort.ids)
        for k in (1, 2, 3):
            for tau in grid.times:
                a = cr_c_index(sub_cohort, before, k, float(tau), g)
                b = cr_c_index(sub_cohort, after, k, float(tau), g)
                same = (a == b) or (math.isnan(a) and math.isnan(b))
                if not same:
                    all_identical = False
    ok = all_zero_clip and all_identical
    with capsys.disabled():
        report(
            4,
            ok,
            f"zero repairs on all seeds: {all_zero_clip}; C-index bitwise identical: {all_identical}",
        )
    assert ok


def test_05_temperature_identity(capsys):
    # fitting on a bundle that replicates the AJ curves returns beta = 1
    cohort, _ = generate_cohort(WeibullConfig(), 2000, seed=50)
    curves = aalen_johansen(cohort)
    grid = quantile_grid(cohort, 16)
    bundle = marginal_bundle(curves, grid, cohort.ids)
    rmap = fit_temperature(cohort, bundle, grid)
    lo, hi = rmap.temperatures.min(), rmap.temperatures.max()
    ok = bool(np.all((rmap.temperatures >= 0.999) & (rmap.temperatures <= 1.001)))
    with capsys.disabled():
        report(5, ok, f"fitted temperatures within [{lo:.6f}, {hi:.6f}] at every grid time")
    assert ok


def test_06_recalibration_improves(capsys):
    # squared-distorted oracle, n = 10k: both methods should cut the total
    # pi-calibration by >= 80 percent, reduce total d-hat, and not raise
    # the IBS by more than 1e-3
    rows = []
    for seed in (1, 2):
        cohort, latents = generate_cohort(WeibullConfig(), 10_000, seed=seed)
        train, cal, test = split_cohort(cohort, seed)
        by_id = {sid: latents[int(sid) - 1] for sid in cohort.ids}
        rgrid = quantile_grid(cal, 64)
        horizon = survival_horizon(latents)
        bgrid = TimeGrid(np.append(rgrid.times, horizon)) if horizon > rgrid.t_max else rgrid
        cal_b = square_distort(oracle_bundle([by_id[s] for s in cal.ids], bgrid, cal.ids))
        test_b = square_distort(oracle_bundle([by_id[s] for s in test.ids], bgrid, test.ids))
        aj_b = apply_offsets(test_b, fit_aj_offsets(cal, cal_b, rgrid))
        ts_b = apply_temperature(test_b, fit_temperature(cal, cal_b, rgrid))
        curves = aalen_johansen(test)
        pigrid = quantile_grid(test, 64)
        out = {}
        for name, b in (("base", test_b), ("aj", aj_b), ("ts", ts_b)):
            _, pi = pi_cal_alpha(b, curves, PARAMS, pigrid)
            _, d = cr_d_hat(b, test, PARAMS)
            ibs = evaluate_bundle(test, b).ibs
            out[name] = (pi, d, ibs)
        rows.append(out)
    reductions = {
        m: min(1 - r[m][0] / r["base"][0] for r in rows) for m in ("aj", "ts")
    }
    d_reduced = all(r[m][1] < r["base"][1] for r in rows for m in ("aj", "ts"))
    ibs_ok = all(r[m][2] <= r["base"][2] + 1e-3 for r in rows for m in ("aj", "ts"))
    pi_ok = all(v >= 0.80 for v in reductions.values())
    ok = pi_ok and d_reduced and ibs_ok
    with capsys.disabled():
        report(
            6,
            ok,
            f"pi reduction aj {reductions['aj'] * 100:.1f}% ts {reductions['ts'] * 100:.1f}% "
            f"(need >= 80%); d-hat reduced: {d_reduced}; IBS within 1e-3: {ibs_ok}",
        )
    assert ok


def _fixed_draws(rec, n_draws, seed):
    """Latent event and censoring draws for one fixed covariate vector."""
    rng = np.random.default_rng(seed)
    lams = np.asarray(rec.lambdas)
    shapes = np.asarray(rec.shapes)
    event_times = lams * rng.weibull(np.broadcast_to(shapes, (n_draws, 3)))
    tstar = event_times.min(axis=1)
    dstar = event_times.argmin(axis=1) + 1
    censor = rng.exponential(scale=1.5 * tstar.mean(), size=n_draws)
    observed = tstar <= censor
    times = np.where(observed, tstar, censor)
    deltas = np.where(observed, dstar, 0)
    return times, deltas, tstar


def _fixed_x_bundle_chunks(rec, times, deltas, grid_times, chunk=10_000):
    """Chunked cohorts plus broadcast single-curve bundles for one x."""
    curve = oracle_values([rec], grid_times)
    grid = TimeGrid(grid_times)
    for start in range(0, times.size, chunk):
        sl = slice(start, start + chunk)
        t, d = times[sl], deltas[sl]
        cohort = make_cohort(t, d, k=3)
        values = np.broadcast_to(curve, (t.size, 3, grid_times.size))
        yield cohort, CifBundle(grid, values, cohort.ids)


FIXED_X = [
    LatentRecord((0.65, 1.0, 1.3), (4.0, 2.5, 2.2), 0.0, 1, 0.0),
    LatentRecord((0.8, 1.0, 1.2), (2.5, 1.6, 2.8), 0.0, 1, 0.0),
]


def test_07_bucket_expectation(capsys):
    # Monte-Carlo mean of the interval bucket equals (b - a) F_k(inf | x)
    # within 2 percent relative error at 1e5 draws (checked through the
    # normalized interval bucket, whose target is b - a)
    worst = 0.0
    for xi, rec in enumerate(FIXED_X):
        times, deltas, _ = _fixed_draws(rec, 100_000, seed=70 + xi)
        horizon = survival_horizon([rec])
        grid_times = np.append(np.linspace(horizon / 400, horizon, 400), horizon * 1.001)
        for a, b in ((0.0, 0.5), (0.25, 0.75)):
            for k in (1, 2, 3):
                vals = [
                    interval_bucket(bundle, cohort, k, a, b)
                    for cohort, bundle in _fixed_x_bundle_chunks(rec, times, deltas, grid_times)
                ]
                estimate = float(np.mean(vals))
                rel = abs(estimate - (b - a)) / (b - a)
                worst = max(worst, rel)
    ok = worst <= 0.02
    with capsys.disabled():
        report(7, ok, f"worst relative error of E[B_[a,b]] {worst * 100:.2f}% <= 2%")
    assert ok


def test_08_uniform_ratio(capsys):
    # conditional on the event type, the normalized oracle ratio at the
    # true event time is uniform: KS test at level 0.01 per event
    rec = FIXED_X[0]
    rng = np.random.default_rng(80)
    lams = np.asarray(rec.lambdas)
    shapes = np.asarray(rec.shapes)
    event_times = lams * rng.weibull(np.broadcast_to(shapes, (100_000, 3)))
    tstar = event_times.min(axis=1)
    dstar = event_times.argmin(axis=1) + 1
    horizon = survival_horizon([rec])
    cif_at_t = oracle_values([rec], tstar[None, :])[0]
    cif_at_inf = oracle_values([rec], np.asarray([horizon]))[0, :, 0]
    min_p = 1.0
    for k in (1, 2, 3):
        ratios = cif_at_t[k - 1, dstar == k] / cif_at_inf[k - 1]
        _, p = ks_uniform(np.clip(ratios, 0.0, 1.0))
        min_p = min(min_p, p)
    ok = min_p >= 0.01
    with capsys.disabled():
        report(8, ok, f"smallest per-event KS p-value {min_p:.4f} >= 0.01 at 1e5 draws")
    assert ok


def test_09_null_calibration(capsys):
    # the KS test holds its level: rejection rate within [0.03, 0.07]
    rng = np.random.default_rng(90)
    rejections = sum(ks_uniform(rng.uniform(size=200))[1] < 0.05 for _ in range(1000))
    rate = rejections / 1000
    ok = 0.03 <= rate <= 0.07
    with capsys.disabled():
        report(9, ok, f"null rejection rate {rate:.3f} in [0.03, 0.07] over 1000 trials")
    assert ok


def test_10_estimator_identities(capsys):
    # sum of AJ incidences plus KM survival is 1 at every jump time, and
    # the hand-computed examples match exactly
    rng = np.random.default_rng(100)
    identity_ok = True
    for trial in range(100):
        n = int(rng.integers(2, 150))
        times = rng.choice(np.linspace(0.25, 3.0, 8), size=n)  # many ties
        events = rng.choice([0, 0, 0, 1, 2, 3], size=n)  # heavy censoring
        if not events.any():
            events[0] = 1
        cohort = make_cohort(times, events, k=3)
        curves = aalen_johansen(cohort)
        gap = np.abs(curves.aj_cif.sum(axis=0) + curves.km_survival - 1.0).max()
        if gap >= 1e-9:
            identity_ok = False
    km = kaplan_meier(make_cohort([1, 2, 3], [1, 1, 1]))
    hand_ok = km.at(np.array([1.0, 2.0, 3.0])).tolist() == [2 / 3, 1 / 3, 0.0]
    km2 = kaplan_meier(make_cohort([1, 2, 3], [1, 0, 1]))
    hand_ok &= km2.at(np.array([1.0, 2.0, 3.0])).tolist() == [2 / 3, 2 / 3, 0.0]
    aj = aalen_johansen(make_cohort([1, 2, 3], [1, 2, 1], k=2))
    hand_ok &= float(aj.cif(1).at(1.0)) == 1 / 3
    hand_ok &= float(aj.cif(2).at(2.0)) == 1 / 3
    hand_ok &= float(aj.cif(1).at(3.0)) == 1 / 3 + 1 / 3
    g = censoring_survival(make_cohort([1.0, 1.0], [0, 1]))
    hand_ok &= float(g.at(1.0)) == 0.0
    ok = identity_ok and bool(hand_ok)
    with capsys.disabled():
        report(10, ok, f"sum identity within 1e-9 on 100 cohorts: {identity_ok}; hand examples exact: {bool(hand_ok)}")
    assert ok


def test_11_bench_determinism(tmp_path, capsys):
    # the benchmark is bitwise reproducible, also across thread counts
    config = {"n": 400, "model": "oracle", "grid_size": 8, "seed": 3}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config))

    def run(out_dir, threads):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = str(threads)
        env["OPENBLAS_NUM_THREADS"] = str(threads)
        env["MKL_NUM_THREADS"] = str(threads)
        subprocess.run(
            [sys.executable, "-m", "crcal.cli", "bench", "--config", str(cfg_path),
             "--seeds", "2", "--out", str(out_dir)],
            check=True,
            env=env,
            capture_output=True,
        )

    run(tmp_path / "a", 1)
    run(tmp_path / "b", 4)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    ok = files_a == files_b and all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files_a
    )
    with capsys.disabled():
        report(11, ok, f"{len(files_a)} report files bitwise identical across runs and thread counts")
    assert ok


class TestSupportingInvariants:
    """Module-level invariants that back the numbered criteria."""

    def test_aj_marginal_consistency(self, capsys):
        # sup gap between the AJ curves and the quadrature population
        # marginal shrinks with n and is at most 0.02 at n = 50k
        cfg = WeibullConfig()
        _, ref_latents = generate_cohort(cfg, 30_000, seed=777)
        check_times = np.linspace(0.05, 2.5, 40)
        reference = oracle_values(ref_latents, check_times).mean(axis=0)
        gaps = {}
        for n in (1000, 10_000, 50_000):
            sup = []
            for seed in range(20):
                cohort, _ = generate_cohort(cfg, n, seed=1000 + seed)
                curves = aalen_johansen(cohort)
                fitted = np.stack([curves.cif(k).at(check_times) for k in (1, 2, 3)])
                sup.append(np.abs(fitted - reference).max())
            gaps[n] = float(np.median(sup))
        ok = gaps[1000] > gaps[10_000] > gaps[50_000] and gaps[50_000] <= 0.02
        with capsys.disabled():
            report(
                "S1",
                ok,
                f"AJ sup-norm gap medians {gaps[1000]:.4f} > {gaps[10_000]:.4f} > "
                f"{gaps[50_000]:.4f} <= 0.02",
            )
        assert ok

    def test_d_cal_pass_rate_uncensored_oracle(self, capsys):
        # the KS calibration test should accept the oracle on uncensored
        # data in at least 8 of 10 seeds (scored on the protocol's test
        # split, with an evaluation grid fine enough that step
        # interpolation is immaterial)
        cfg = WeibullConfig(censoring_scale=1e12)
        passes = 0
        for seed in range(10):
            cohort, latents = generate_cohort(cfg, 10_000, seed=seed)
            _, _, test = split_cohort(cohort, seed)
            test_latents = [latents[int(sid) - 1] for sid in test.ids]
            bundle = oracle_bundle_for(test, test_latents, grid_size=512)
            _, overall = d_cal_test(bundle, test, level=0.05)
            passes += overall
        ok = passes >= 8
        with capsys.disabled():
            report("S2", ok, f"oracle passed the distribution-calibration test in {passes}/10 seeds")
        assert ok
