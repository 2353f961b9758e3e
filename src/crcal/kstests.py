"""Kolmogorov-Smirnov tests for both calibration notions.

Each competing event is tested separately and the family-wise verdict
applies a Bonferroni correction: an event passes when its p-value is at
least level / K. P-values use the asymptotic Kolmogorov tail,
2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2) at lambda = sqrt(n) D.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .calibration import bucket_deviations, marginal_gaps
from .curves import MarginalCurveSet
from .data import CifBundle, Cohort
from .errors import ValidationError

_TERM_TOL = 1e-12


@dataclass(frozen=True)
class TestResult:
    statistic: float
    n_effective: int
    p_value: float
    passed: bool
    level: float
    testable: bool = True


def kolmogorov_p(lam: float) -> float:
    """Asymptotic Kolmogorov survival probability at lambda = sqrt(n) D.

    Below lambda = 1e-3 the tail equals 1 to double precision, which also
    sidesteps the slow convergence of the alternating series there.
    """
    if lam <= 1e-3:
        return 1.0
    total = 0.0
    sign = 1.0
    j = 1
    while True:
        term = math.exp(-2.0 * j * j * lam * lam)
        if term < _TERM_TOL:
            break
        total += sign * term
        sign = -sign
        j += 1
    return min(1.0, max(0.0, 2.0 * total))


def ks_uniform(samples) -> tuple[float, float]:
    """Exact KS statistic against Uniform(0,1) plus its asymptotic p-value.

    D = max_i max(i/n - u_(i), u_(i) - (i-1)/n) over the order statistics.
    """
    u = np.sort(np.asarray(samples, dtype=float))
    n = u.size
    if n == 0:
        raise ValidationError("empty sample")
    if u[0] < 0.0 or u[-1] > 1.0:
        raise ValidationError("samples must lie in [0, 1]")
    i = np.arange(1, n + 1)
    d = float(np.maximum(i / n - u, u - (i - 1) / n).max())
    return d, kolmogorov_p(math.sqrt(n) * d)


def _overall(results: dict[int, TestResult]) -> bool:
    testable = [r for r in results.values() if r.testable]
    if not testable:
        warnings.warn("no event was testable; overall verdict is vacuous")
    return all(r.passed for r in testable)


def d_cal_test(
    bundle: CifBundle, cohort: Cohort, level: float = 0.05, rho_steps: int = 100
) -> tuple[dict[int, TestResult], bool]:
    """KS test of distribution calibration, one test per event.

    The statistic is the largest absolute bucket deviation on the rho
    grid, so censored mass enters exactly as in the metric; the effective
    sample size is the number of observed event-k records.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError("level must lie in (0, 1)")
    k_events = cohort.k_events
    results: dict[int, TestResult] = {}
    for k in range(1, k_events + 1):
        n_eff = int((cohort.events == k).sum())
        if n_eff == 0:
            warnings.warn(f"event {k} has no observed occurrences; not testable")
            results[k] = TestResult(math.nan, 0, math.nan, False, level, testable=False)
            continue
        devs = np.abs(bucket_deviations(bundle, cohort, k, rho_steps))
        stat = float(devs.max())
        p = kolmogorov_p(math.sqrt(n_eff) * stat)
        results[k] = TestResult(stat, n_eff, p, p >= level / k_events, level)
    return results, _overall(results)


def pi_cal_test(
    bundle: CifBundle, marginal: MarginalCurveSet, cohort: Cohort, level: float = 0.05
) -> tuple[dict[int, TestResult], bool]:
    """KS-style test of the marginal gaps against the plug-in estimator.

    Both curves are normalized by the plug-in terminal value so the
    statistic compares CDF-like functions on [0, 1]; the supremum is taken
    over the bundle grid.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError("level must lie in (0, 1)")
    k_events = cohort.k_events
    gaps = marginal_gaps(bundle, marginal, bundle.grid.times)
    results: dict[int, TestResult] = {}
    for k in range(1, k_events + 1):
        n_eff = int((cohort.events == k).sum())
        terminal = float(marginal.cif(k).at(bundle.grid.t_max))
        if terminal <= 0.0 or n_eff == 0:
            warnings.warn(f"event {k} is not testable against the plug-in marginal")
            results[k] = TestResult(math.nan, n_eff, math.nan, False, level, testable=False)
            continue
        stat = float(gaps[k - 1].max()) / terminal
        p = kolmogorov_p(math.sqrt(n_eff) * stat)
        results[k] = TestResult(stat, n_eff, p, p >= level / k_events, level)
    return results, _overall(results)
