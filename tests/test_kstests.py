import math
import warnings

import numpy as np
import pytest
import scipy.special

from conftest import make_bundle, make_cohort, uniform_ratio_case

from crcal.calibration import INFINITY, MetricParams, cr_d_hat
from crcal.curves import aalen_johansen, marginal_bundle
from crcal.data import quantile_grid
from crcal.errors import ValidationError
from crcal.kstests import d_cal_test, d_cal_verdicts, kolmogorov_p, ks_uniform, pi_cal_test
from crcal.report import calibration_report


class TestKolmogorovP:
    def test_against_scipy(self):
        for lam in (0.3, 0.5, 1.0, 1.36, 2.0, 3.0):
            assert kolmogorov_p(lam) == pytest.approx(float(scipy.special.kolmogorov(lam)), abs=1e-10)

    def test_series_value_at_half(self):
        # lambda = sqrt(100) * 0.05 = 0.5
        assert kolmogorov_p(math.sqrt(100) * 0.05) == pytest.approx(0.9639, abs=1e-4)

    def test_extremes(self):
        assert kolmogorov_p(0.0) == 1.0
        assert kolmogorov_p(1e-4) == 1.0
        assert kolmogorov_p(10.0) == pytest.approx(0.0, abs=1e-12)


class TestKsUniform:
    def test_single_point(self):
        d, _ = ks_uniform([0.5])
        assert d == 0.5

    def test_perfect_spacing(self):
        for n in (4, 10, 57):
            u = np.arange(1, n + 1) / (n + 1)
            d, _ = ks_uniform(u)
            assert d == pytest.approx(1 / (n + 1))

    def test_sorting_invariance(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(size=200)
        assert ks_uniform(u) == ks_uniform(np.sort(u)[::-1])

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            ks_uniform([])
        with pytest.raises(ValidationError):
            ks_uniform([0.5, 1.2])
        # NaN sorts last; let through, it would start a tail series that never ends
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            ks_uniform([0.2, math.nan, 0.7])
        with pytest.raises(ValidationError):
            kolmogorov_p(math.nan)
        cohort = make_cohort([1.0, 2.0], [1, 0], k=1)
        for level in (0.0, 1.0, math.nan):
            with pytest.raises(ValidationError, match=r"^level must lie in \(0, 1\)$"):
                d_cal_verdicts(np.zeros((1, 10)), cohort, level)

    def test_null_rejection_rate(self):
        # light version of the null calibration check (full one is in the
        # acceptance suite): 300 trials at n = 200
        rng = np.random.default_rng(42)
        rejections = sum(ks_uniform(rng.uniform(size=200))[1] < 0.05 for _ in range(300))
        assert 0.02 <= rejections / 300 <= 0.09


class TestDCalTest:
    def test_perfectly_calibrated_passes(self):
        cohort, bundle = uniform_ratio_case(20)
        results, overall = d_cal_test(bundle, cohort, level=0.05, rho_steps=20)
        assert results[1].statistic == 0.0
        assert results[1].p_value == 1.0
        assert overall

    def test_adversarial_fails(self):
        n = 1000
        times = np.arange(1.0, n + 1)
        cohort = make_cohort(times, np.ones(n, dtype=int), k=1)
        values = np.zeros((n, 1, 2))
        values[:, 0, 0] = 0.01
        values[:, 0, 1] = 1.0
        bundle = make_bundle([times[-1] / 2, times[-1]], values, cohort.ids)
        results, overall = d_cal_test(bundle, cohort)
        assert results[1].statistic == pytest.approx(0.99, abs=2e-3)
        assert results[1].p_value < 1e-12
        assert not overall

    def test_unseen_event_not_testable(self):
        # event 2 exists in the bundle but never occurs in the cohort
        cohort, bundle = uniform_ratio_case(12)
        values = np.concatenate(
            [bundle.values * (1.0 - 2e-6), np.full_like(bundle.values, 1e-6)], axis=1
        )
        two_event = make_bundle(bundle.grid.times, values, cohort.ids)
        two_cohort = make_cohort(cohort.times, cohort.events, k=2)
        results, overall = d_cal_test(two_event, two_cohort)
        assert not results[2].testable
        assert results[1].passed and overall
        # the report marks the untestable event and only it
        tests = calibration_report(two_event, two_cohort).to_dict()["tests"]["d_cal"]
        assert tests["2"]["not_testable"] is True and tests["2"]["D"] is None
        assert "not_testable" not in tests["1"]

    def test_untestable_event_is_data_not_a_warning(self):
        # the report's not_testable entry names the event; nothing is warned
        cohort, bundle = uniform_ratio_case(12)
        values = np.concatenate(
            [bundle.values * (1.0 - 2e-6), np.full_like(bundle.values, 1e-6)], axis=1
        )
        two_event = make_bundle(bundle.grid.times, values, cohort.ids)
        two_cohort = make_cohort(cohort.times, cohort.events, k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results, _ = d_cal_test(two_event, two_cohort)
            tests = calibration_report(two_event, two_cohort).to_dict()["tests"]["d_cal"]
        assert not results[2].testable
        assert tests["2"]["not_testable"] is True

    def test_all_censored_cohort_is_reported_without_warnings(self):
        # no event occurs, so every event of both tests is untestable
        n = 20
        rng = np.random.default_rng(0)
        cohort = make_cohort(np.arange(1.0, n + 1), np.zeros(n, dtype=int), k=2)
        vals = np.sort(rng.uniform(0.0, 0.45, (n, 2, 4)), axis=2)
        bundle = make_bundle([2.0, 5.0, 10.0, 20.0], vals, cohort.ids)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tests = calibration_report(bundle, cohort).to_dict()["tests"]
        for name in ("d_cal", "pi_cal"):
            for k in ("1", "2"):
                assert tests[name][k]["not_testable"] is True and tests[name][k]["n"] == 0

    def test_statistic_matches_metric_sup_norm(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(5, 60))
            times = np.round(rng.uniform(0.5, 5.0, n), 2)
            events = rng.integers(0, 3, n)
            events[0] = 1
            events[1 if n > 1 else 0] = 2
            cohort = make_cohort(times, events, k=2)
            incr = rng.uniform(0.01, 1.0, size=(n, 2, 7))
            vals = np.cumsum(incr, axis=2)
            vals *= 0.92 / vals[:, :, -1:].sum(axis=1, keepdims=True)
            bundle = make_bundle(np.linspace(0.5, 5.5, 7), vals, cohort.ids)
            per, _ = cr_d_hat(bundle, cohort, MetricParams(alpha=INFINITY, rho_steps=100))
            results, _ = d_cal_test(bundle, cohort, rho_steps=100)
            for k in (1, 2):
                assert per[k] == results[k].statistic  # bitwise


class TestPiCalTest:
    def _setup(self):
        cohort = make_cohort([1, 2, 3, 4, 5, 6], [1, 2, 1, 0, 2, 1], k=2)
        curves = aalen_johansen(cohort)
        grid = quantile_grid(cohort, d=6)
        bundle = marginal_bundle(curves, grid, cohort.ids)
        return cohort, curves, bundle

    def test_self_comparison_passes(self):
        cohort, curves, bundle = self._setup()
        results, overall = pi_cal_test(bundle, curves, cohort)
        for k in (1, 2):
            assert results[k].statistic == pytest.approx(0.0, abs=1e-14)
            assert results[k].p_value == 1.0
        assert overall

    def test_constant_gap_value(self):
        # gap 0.1 with terminal 0.5 gives D = 0.2; with n_eff = 100 the
        # Kolmogorov tail at lambda = 2 is about 6.7e-4
        n = 100
        cohort = make_cohort([0.5] * n + [9.0] * n, [1] * n + [0] * n, k=1)
        curves = aalen_johansen(cohort)
        assert curves.cif(1).at(9.0) == pytest.approx(0.5)
        vals = np.full((2 * n, 1, 2), 0.4)
        bundle = make_bundle([1.0, 2.0], vals, cohort.ids)
        results, overall = pi_cal_test(bundle, curves, cohort)
        assert results[1].statistic == pytest.approx(0.2)
        assert results[1].n_effective == n
        assert results[1].p_value == pytest.approx(0.000671, abs=2e-6)
        assert not results[1].passed

    def test_rejects_a_cohort_that_is_not_the_bundles(self):
        cohort, curves, bundle = self._setup()
        renamed = make_cohort(cohort.times, cohort.events, k=2, ids=[f"x{i}" for i in range(cohort.n)])
        more_events = make_cohort(cohort.times, [1, 2, 3, 0, 2, 1], k=3)
        for other in (renamed, more_events):
            with pytest.raises(ValidationError, match="misaligned|disagree"):
                pi_cal_test(bundle, curves, other)

    def test_zero_terminal_not_testable(self):
        cohort = make_cohort([1, 2, 3], [1, 1, 1], k=2)
        curves = aalen_johansen(cohort)
        vals = np.ones((3, 2, 2)) * np.array([[[0.2, 0.4], [0.1, 0.2]]])
        bundle = make_bundle([1.0, 3.0], vals, cohort.ids)
        results, overall = pi_cal_test(bundle, curves, cohort)
        assert not results[2].testable

    def test_untestable_event_is_data_not_a_warning(self):
        cohort = make_cohort([1, 2, 3], [1, 1, 1], k=2)
        curves = aalen_johansen(cohort)
        vals = np.ones((3, 2, 2)) * np.array([[[0.2, 0.4], [0.1, 0.2]]])
        bundle = make_bundle([1.0, 3.0], vals, cohort.ids)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results, _ = pi_cal_test(bundle, curves, cohort)
        assert results[1].testable and not results[2].testable
