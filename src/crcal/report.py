"""Calibration report: both metric families plus their tests, as JSON."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calibration import MetricParams, bucket_deviations, d_hat_from_deviations, pi_cal_alpha
from .curves import aalen_johansen
from .data import CifBundle, Cohort, TimeGrid, quantile_grid
from .errors import ValidationError
from .kstests import TestResult, d_cal_verdicts, pi_cal_test


@dataclass(frozen=True)
class CalibrationReport:
    params: MetricParams
    n: int
    seed: int | None
    per_event_d: dict[int, float]
    total_d: float
    per_event_pi: dict[int, float]
    total_pi: float
    d_tests: dict[int, TestResult]
    d_overall: bool
    pi_tests: dict[int, TestResult]
    pi_overall: bool
    level: float

    def to_dict(self) -> dict:
        """Stable-key-order dictionary ready for JSON serialization."""
        alpha = "inf" if math.isinf(self.params.alpha) else self.params.alpha
        return {
            "params": {"alpha": alpha, "rho_steps": int(self.params.rho_steps), "level": self.level},
            "n": self.n,
            "seed": self.seed,
            "d_cal": {
                "per_event": {str(k): v for k, v in sorted(self.per_event_d.items())},
                "total": self.total_d,
            },
            "pi_cal": {
                "per_event": {str(k): v for k, v in sorted(self.per_event_pi.items())},
                "total": self.total_pi,
            },
            "tests": {
                "d_cal": _tests_dict(self.d_tests, self.d_overall, self.level),
                "pi_cal": _tests_dict(self.pi_tests, self.pi_overall, self.level),
            },
        }


def _tests_dict(tests: dict[int, TestResult], overall: bool, level: float) -> dict:
    k_events = len(tests)
    out: dict = {}
    for k, r in sorted(tests.items()):
        entry = {
            "D": None if math.isnan(r.statistic) else r.statistic,
            "n": r.n_effective,
            "p": None if math.isnan(r.p_value) else r.p_value,
            "passed": r.passed,
        }
        if not r.testable:
            entry["not_testable"] = True
        out[str(k)] = entry
    out["overall_passed"] = overall
    # both correction rules are reported; `passed` uses level / K
    out["threshold_bonferroni"] = level / k_events
    out["threshold_times_k"] = min(1.0, level * k_events)
    out["overall_passed_times_k_rule"] = all(
        r.p_value >= min(1.0, level * k_events) for r in tests.values() if r.testable
    )
    return out


def calibration_report(
    bundle: CifBundle,
    cohort: Cohort,
    params: MetricParams = MetricParams(),
    level: float = 0.05,
    seed: int | None = None,
) -> CalibrationReport:
    """Compute both calibration metrics and their tests for one bundle.

    The plug-in marginal is the Aalen-Johansen fit on the scored cohort
    itself, and the marginal gaps are integrated over the cohort's
    duration quantiles (clipped to the bundle horizon), where the data
    actually lives.
    """
    marginal = aalen_johansen(cohort)
    try:
        pi_times = quantile_grid(cohort, 64).times
        pi_times = pi_times[pi_times <= bundle.grid.t_max]
        pi_grid = TimeGrid(pi_times) if pi_times.size else bundle.grid
    except ValidationError:
        pi_grid = bundle.grid
    devs = bucket_deviations(bundle, cohort, params.rho_steps)
    per_d, total_d = d_hat_from_deviations(devs, params.alpha)
    per_pi, total_pi = pi_cal_alpha(bundle, marginal, params, pi_grid)
    d_tests, d_overall = d_cal_verdicts(devs, cohort, level)
    pi_tests, pi_overall = pi_cal_test(bundle, marginal, cohort, level)
    return CalibrationReport(
        params=params,
        n=cohort.n,
        seed=seed,
        per_event_d=per_d,
        total_d=total_d,
        per_event_pi=per_pi,
        total_pi=total_pi,
        d_tests=d_tests,
        d_overall=d_overall,
        pi_tests=pi_tests,
        pi_overall=pi_overall,
        level=level,
    )
