import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_bundle, make_cohort, scored_cohorts, uniform_ratio_case

from crcal.calibration import (
    INFINITY,
    SURVIVAL_FLOOR,
    MetricParams,
    bucket_deviations,
    bucket_mass,
    cr_d_hat,
    interval_bucket,
    pi_cal_alpha,
    pi_cal_tau,
)
from crcal.curves import aalen_johansen, marginal_bundle
from crcal.data import TimeGrid, quantile_grid
from crcal.errors import NumericError, ValidationError
from crcal.kstests import d_cal_test
from crcal.report import calibration_report
from crcal.synthetic import WeibullConfig, generate_cohort, oracle_bundle, survival_horizon


def two_sample_toy():
    """Two uncensored samples, K=2: sample A has event 1 with ratio 1/4
    and terminal masses (0.6, 0.3); sample B has event 2 and F1 terminal
    0.4, so the event-1 denominator is exactly 1."""
    cohort = make_cohort([1.0, 1.0], [1, 2], k=2)
    values = np.array(
        [
            [[0.15, 0.6], [0.1, 0.3]],
            [[0.1, 0.4], [0.2, 0.5]],
        ]
    )
    bundle = make_bundle([1.0, 2.0], values)
    return cohort, bundle


class TestBucketMass:
    def test_uncensored_indicator(self):
        cohort, bundle = two_sample_toy()
        assert bucket_mass(bundle, cohort, 1, 0.2) == 0.0
        assert bucket_mass(bundle, cohort, 1, 0.25) == 1.0  # closed interval
        assert bucket_mass(bundle, cohort, 1, 0.9) == 1.0

    def test_censored_adjustment_value(self):
        # one censored sample: F1(inf)=0.5, F1(t)=0.1, S(t)=0.8; at rho=0.5
        # the adjustment is (0.25 - 0.1) / 0.8 = 0.1875, normalized by 0.5
        cohort = make_cohort([1.0], [0], k=2)
        values = np.array([[[0.1, 0.5], [0.1, 0.3]]])
        bundle = make_bundle([1.0, 2.0], values)
        assert bucket_mass(bundle, cohort, 1, 0.5) == pytest.approx(0.1875 / 0.5)

    def test_empty_bucket_at_zero(self):
        cohort, bundle = two_sample_toy()
        assert bucket_mass(bundle, cohort, 1, 0.0) == 0.0

    def test_low_survival_rejected(self):
        cohort = make_cohort([1.0], [0], k=1)
        values = np.array([[[1.0 - 1e-12, 1.0]]])
        bundle = make_bundle([1.0, 2.0], values)
        with pytest.raises(NumericError, match="survival"):
            bucket_mass(bundle, cohort, 1, 0.5)

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            cohort, bundle = random_case(rng)
            rhos = np.linspace(0, 1, 23)
            vals = [bucket_mass(bundle, cohort, 1, r) for r in rhos]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_telescoping_total(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            cohort, bundle = random_case(rng)
            f_t = bundle.values_at_own_times(cohort.times)[:, 0]
            f_inf = bundle.terminal()[:, 0]
            surv = 1.0 - bundle.values_at_own_times(cohort.times).sum(axis=1)
            cens = cohort.events == 0
            expected = ((cohort.events == 1).sum() + ((f_inf - f_t)[cens] / surv[cens]).sum()) / f_inf.sum()
            assert bucket_mass(bundle, cohort, 1, 1.0) == pytest.approx(expected, rel=1e-12)


class TestBucketMassProperties:
    @given(scored_cohorts(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
    def test_monotone_in_rho_property(self, case, rhos):
        cohort, bundle = case
        rhos = sorted(rhos)
        for k in range(1, cohort.k_events + 1):
            masses = [bucket_mass(bundle, cohort, k, rho) for rho in rhos]
            assert np.all(np.diff(masses) >= -1e-12)

    @given(scored_cohorts(), st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3, unique=True))
    def test_interval_buckets_telescope_property(self, case, cuts):
        cohort, bundle = case
        a, b, c = sorted(cuts)
        for k in range(1, cohort.k_events + 1):
            joined = interval_bucket(bundle, cohort, k, a, b) + interval_bucket(bundle, cohort, k, b, c)
            assert joined == pytest.approx(interval_bucket(bundle, cohort, k, a, c), rel=0.0, abs=1e-12)


def random_case(rng, n=None, k=2):
    """Random small cohort and compatible bundle with censoring."""
    n = n or int(rng.integers(3, 40))
    times = np.round(rng.uniform(0.2, 4.8, n), 1)
    events = rng.integers(0, k + 1, n)
    cohort = make_cohort(times, events, k=k)
    grid = np.unique(np.concatenate([np.round(np.linspace(0.2, 5.0, 9), 2), [5.5]]))
    increments = rng.uniform(0.01, 1.0, size=(n, k, grid.size))
    vals = np.cumsum(increments, axis=2)
    vals *= 0.9 / vals[:, :, -1:].sum(axis=1, keepdims=True)
    bundle = make_bundle(grid, vals)
    return cohort, bundle


def literal_bucket(bundle, cohort, k, rho):
    """Direct per-sample transcription of the bucket accumulation."""
    f_t = bundle.values_at_own_times(cohort.times)[:, k - 1]
    f_inf = bundle.terminal()[:, k - 1]
    surv = 1.0 - bundle.values_at_own_times(cohort.times).sum(axis=1)
    count = 0.0
    cens = 0.0
    for i in range(cohort.n):
        ratio = f_t[i] / f_inf[i]
        if ratio <= rho:
            if cohort.events[i] == k:
                count += 1.0
            elif cohort.events[i] == 0:
                cens += (f_inf[i] * rho - f_t[i]) / surv[i]
    return (count + cens) / f_inf.sum()


def per_event_buckets(bundle, cohort, k, rhos):
    """Bucket masses of one event at each rho, each event gathering the CIFs
    at the samples' own times and checking the survival floor again."""
    own = bundle.values_at_own_times(cohort.times)
    f_t = own[:, k - 1]
    f_inf = bundle.terminal()[:, k - 1]
    ratio = f_t / f_inf
    obs_sorted = np.sort(ratio[cohort.events == k])
    cens = cohort.events == 0
    if cens.any():
        surv = (1.0 - own.sum(axis=1))[cens]
        if np.any(surv <= SURVIVAL_FLOOR):
            raise NumericError("predicted survival at a censoring time is below the floor")
        order = np.argsort(ratio[cens], kind="stable")
        cens_sorted = ratio[cens][order]
        prefix_finf = np.concatenate(([0.0], np.cumsum((f_inf[cens] / surv)[order])))
        prefix_ft = np.concatenate(([0.0], np.cumsum((f_t[cens] / surv)[order])))
    else:
        cens_sorted = np.empty(0)
        prefix_finf = np.zeros(1)
        prefix_ft = np.zeros(1)
    count = np.searchsorted(obs_sorted, rhos, side="right")
    j = np.searchsorted(cens_sorted, rhos, side="right")
    cens_sum = rhos * prefix_finf[j] - prefix_ft[j]
    return (count + cens_sum) / float(f_inf.sum())


class TestBucketAgainstLiteralLoop:
    def test_matches_for_random_cases_and_rhos(self):
        rng = np.random.default_rng(17)
        for trial in range(12):
            cohort, bundle = random_case(rng)
            for rho in (0.0, 0.17, 0.5, 0.83, 1.0):
                got = bucket_mass(bundle, cohort, 1, rho)
                want = literal_bucket(bundle, cohort, 1, rho)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestIntervalBucket:
    def test_subtraction_contract(self):
        rng = np.random.default_rng(2)
        cohort, bundle = random_case(rng)
        lo = bucket_mass(bundle, cohort, 1, 0.3)
        hi = bucket_mass(bundle, cohort, 1, 0.7)
        assert interval_bucket(bundle, cohort, 1, 0.3, 0.7) == pytest.approx(hi - lo)

    def test_full_interval_uncensored(self):
        cohort, bundle = two_sample_toy()
        assert interval_bucket(bundle, cohort, 1, 0.0, 1.0) == pytest.approx(1.0)
        assert interval_bucket(bundle, cohort, 2, 0.0, 1.0) == pytest.approx(1.0 / 0.8)

    @pytest.mark.parametrize("call, message", [
        (lambda bundle, cohort: interval_bucket(bundle, cohort, 1, 0.5, 0.5), "need 0 <= a < b <= 1"),
        (lambda bundle, cohort: bucket_mass(bundle, cohort, 1, 1.5), "rho must lie in [0, 1]"),
    ])
    def test_bad_interval_rejected(self, call, message):
        cohort, bundle = two_sample_toy()
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(bundle, cohort)


class TestCrDHat:
    def test_indicator_toy_alpha2(self):
        # single ratio at 1/4 gives b(rho) = 1{rho >= 1/4}; with alpha=2,
        # integral of |b - rho|^2 is int_0^.25 rho^2 + int_.25^1 (1-rho)^2
        cohort = make_cohort([1.0], [1], k=1)
        bundle = make_bundle([1.0, 2.0], np.array([[[0.25, 1.0]]]))
        per, total = cr_d_hat(bundle, cohort, MetricParams(alpha=2.0, rho_steps=100_000))
        closed = (0.25**3 / 3 + 0.75**3 / 3) ** 0.5
        assert per[1] == pytest.approx(closed, abs=2e-3)
        assert total == per[1]

    def test_perfectly_calibrated_is_zero(self):
        cohort, bundle = uniform_ratio_case(20)
        for alpha in (2.0, 3.5, INFINITY):
            per, total = cr_d_hat(bundle, cohort, MetricParams(alpha=alpha, rho_steps=20))
            assert total == 0.0

    def test_indicator_toy_alpha_inf(self):
        cohort = make_cohort([1.0], [1], k=1)
        bundle = make_bundle([1.0, 2.0], np.array([[[0.25, 1.0]]]))
        per, _ = cr_d_hat(bundle, cohort, MetricParams(alpha=INFINITY, rho_steps=100))
        assert per[1] == pytest.approx(0.75)

    @pytest.mark.parametrize("fields, message", [
        ({"alpha": 1.0}, "alpha must exceed 1 (or be INFINITY)"),
        ({"rho_steps": 9}, "rho_steps must be at least 10"),
        ({"rho_steps": 10.5}, "rho_steps must be an integer, got 10.5"),
        ({"rho_steps": True}, "rho_steps must be an integer, got True"),
    ])
    def test_bad_params_rejected(self, fields, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            MetricParams(**fields)

    @pytest.mark.parametrize("rho_steps", [0, 5, 9, 10.5, True])
    def test_every_d_cal_entry_point_keeps_the_rho_rule(self, rho_steps):
        cohort, bundle = two_sample_toy()
        for call in (bucket_deviations, lambda b, c, r: d_cal_test(b, c, rho_steps=r)):
            with pytest.raises(ValidationError, match="^rho_steps must be"):
                call(bundle, cohort, rho_steps)

    def test_numpy_integer_rho_steps_scores_like_an_int(self):
        cohort, bundle = two_sample_toy()
        assert np.array_equal(bucket_deviations(bundle, cohort, np.int64(12)), bucket_deviations(bundle, cohort, 12))
        report = calibration_report(bundle, cohort, MetricParams(rho_steps=np.int32(12)))
        assert type(report.to_dict()["params"]["rho_steps"]) is int

    def test_scaling_one_event_keeps_ratios(self):
        # downscaling one event's CIF (survival absorbing the rest) leaves
        # the normalized ratios, hence every observed-count term, unchanged
        rng = np.random.default_rng(3)
        cohort, bundle = random_case(rng)
        uncensored = cohort.events != 0
        cohort = cohort.subset(np.flatnonzero(uncensored))
        bundle_vals = bundle.values[uncensored]
        b1 = make_bundle(bundle.grid.times, bundle_vals, cohort.ids)
        scaled = bundle_vals.copy()
        scaled[:, 0, :] *= 0.5
        b2 = make_bundle(bundle.grid.times, scaled, cohort.ids)
        r1 = b1.values_at_own_times(cohort.times)[:, 0] / b1.terminal()[:, 0]
        r2 = b2.values_at_own_times(cohort.times)[:, 0] / b2.terminal()[:, 0]
        assert np.array_equal(r1, r2)
        mask = cohort.events == 1
        for rho in np.linspace(0, 1, 11):
            assert (r1[mask] <= rho).sum() == (r2[mask] <= rho).sum()


class TestOneDeviationPass:
    @given(scored_cohorts(), st.sampled_from([2.0, 3.5, INFINITY]), st.sampled_from([10, 37, 100]))
    def test_report_matches_metric_test_and_per_event_reference_property(self, case, alpha, rho_steps):
        cohort, bundle = case
        params = MetricParams(alpha, rho_steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = calibration_report(bundle, cohort, params)
            tests, overall = d_cal_test(bundle, cohort, rho_steps=rho_steps)
        per, total = cr_d_hat(bundle, cohort, params)
        assert rep.per_event_d == per and rep.total_d == total  # bitwise
        assert rep.d_overall == overall
        devs = bucket_deviations(bundle, cohort, rho_steps)
        assert devs.shape == (cohort.k_events, rho_steps)
        rhos = np.arange(1, rho_steps + 1) / rho_steps
        for k in range(1, cohort.k_events + 1):
            want = per_event_buckets(bundle, cohort, k, rhos) - rhos
            assert np.array_equal(devs[k - 1], want)
            for rho in (0.0, 0.37, 1.0):
                assert bucket_mass(bundle, cohort, k, rho) == float(per_event_buckets(bundle, cohort, k, rho))
            absolute = np.abs(want)
            norm = absolute.max() if math.isinf(alpha) else np.mean(absolute**alpha) ** (1.0 / alpha)
            assert per[k] == float(norm)
            got, ref = rep.d_tests[k], tests[k]
            assert (got.n_effective, got.passed, got.testable) == (ref.n_effective, ref.passed, ref.testable)
            if ref.testable:
                assert got.statistic == ref.statistic == float(absolute.max())
                assert got.p_value == ref.p_value
            else:
                assert math.isnan(got.statistic) and math.isnan(ref.statistic)


class TestPiCal:
    def _aj_setup(self):
        cohort = make_cohort([1, 2, 3, 4, 5], [1, 2, 1, 0, 2], k=2)
        curves = aalen_johansen(cohort)
        grid = quantile_grid(cohort, d=5)
        bundle = marginal_bundle(curves, grid, cohort.ids)
        return cohort, curves, grid, bundle

    def test_tau_gap(self):
        cohort, curves, grid, bundle = self._aj_setup()
        vals = bundle.values.copy()
        vals[:, 0, :] = vals[:, 0, :] - 0.1
        assert vals.min() >= 0.0
        shifted = make_bundle(grid.times, vals, cohort.ids)
        gap = pi_cal_tau(shifted, curves, 1, grid.times[1])
        assert gap == pytest.approx(0.1)

    def test_self_comparison_zero(self):
        cohort, curves, grid, bundle = self._aj_setup()
        for tau in grid.times:
            assert pi_cal_tau(bundle, curves, 1, tau) == pytest.approx(0.0, abs=1e-12)
        per, total = pi_cal_alpha(bundle, curves, MetricParams(), grid)
        assert total == pytest.approx(0.0, abs=1e-12)

    # the step lookup would sort NaN past the last grid time
    @pytest.mark.parametrize("tau, message", [
        (float("nan"), "tau must not be NaN"),
        (99.0, "tau is beyond both the bundle grid and the marginal support"),
    ])
    def test_bad_tau_rejected(self, tau, message):
        cohort, curves, grid, bundle = self._aj_setup()
        with pytest.raises(ValidationError, match=f"^{message}$"):
            pi_cal_tau(bundle, curves, 1, tau)

    def test_before_first_jump(self):
        cohort, curves, grid, bundle = self._aj_setup()
        vals = np.full((2, 2, 2), 0.05)
        vals[:, :, 1] = 0.3
        early = make_bundle([0.5, 9.9], vals, ("a", "b"))
        assert pi_cal_tau(early, curves, 1, 0.5) == pytest.approx(0.05)

    def test_constant_gap_closed_form(self):
        # gap 0.1 on (0, 2] with alpha=2 integrates to sqrt(0.02)
        grid = TimeGrid(np.array([1.0, 2.0]))
        vals = np.array([[[0.3, 0.3]]])
        bundle = make_bundle(grid.times, vals)
        curves_cohort = make_cohort([0.5] * 10 + [9.0] * 15, [1] * 10 + [0] * 15, k=1)
        curves = aalen_johansen(curves_cohort)
        aj_at = curves.cif(1).at(grid.times)
        assert np.allclose(aj_at, 0.4)  # 10 events at 0.5 out of 25 at risk
        per, total = pi_cal_alpha(bundle, curves, MetricParams(alpha=2.0), grid)
        assert per[1] == pytest.approx(math.sqrt(0.1**2 * 2.0))

    def test_grid_beyond_bundle_rejected(self):
        cohort, curves, grid, bundle = self._aj_setup()
        far = TimeGrid(np.array([1.0, 99.0]))
        with pytest.raises(ValidationError):
            pi_cal_alpha(bundle, curves, MetricParams(), far)


class TestOracleProperness:
    def test_d_hat_small_on_oracle_bundle(self):
        # the true CIFs evaluated on their own synthetic draw are
        # distribution-calibrated up to sampling noise
        cfg = WeibullConfig()
        cohort, latents = generate_cohort(cfg, 4000, seed=21)
        grid = quantile_grid(cohort, d=64)
        horizon = survival_horizon(latents)
        full_grid = TimeGrid(np.append(grid.times, max(horizon, grid.t_max * 1.0001)))
        bundle = oracle_bundle(latents, full_grid, cohort.ids)
        per, total = cr_d_hat(bundle, cohort, MetricParams(alpha=2.0, rho_steps=100))
        assert all(v < 0.08 for v in per.values())
