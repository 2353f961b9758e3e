"""Kolmogorov-Smirnov tests for both calibration notions.

Each competing event is tested separately and the family-wise verdict
applies a Bonferroni correction: an event passes when its p-value is at
least level / K. P-values use the asymptotic Kolmogorov tail,
2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2) at lambda = sqrt(n) D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import bucket_deviations, marginal_gaps
from .curves import MarginalCurveSet
from .data import CifBundle, Cohort, check_aligned
from .errors import ValidationError

_TERM_TOL = 1e-12


@dataclass(frozen=True)
class TestResult:
    statistic: float
    n_effective: int
    p_value: float
    passed: bool
    testable: bool = True


def kolmogorov_p(lam: float) -> float:
    """Asymptotic Kolmogorov survival probability at lambda = sqrt(n) D.

    Below lambda = 1e-3 the tail equals 1 to double precision, which also
    sidesteps the slow convergence of the alternating series there.
    """
    if math.isnan(lam):
        raise ValidationError("lambda must not be NaN")
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
    # NaN sorts last and fails the upper bound
    if not (u[0] >= 0.0 and u[-1] <= 1.0):
        raise ValidationError("samples must lie in [0, 1]")
    i = np.arange(1, n + 1)
    d = float(np.maximum(i / n - u, u - (i - 1) / n).max())
    return d, kolmogorov_p(math.sqrt(n) * d)


def _verdicts(
    stats: list[float | None], cohort: Cohort, level: float
) -> tuple[dict[int, TestResult], bool]:
    """Per-event KS verdicts at level / K, and the family-wise verdict. An
    event with no observed record or a None statistic is not testable: its
    result says so and the family-wise verdict leaves it out."""
    if not 0.0 < level < 1.0:
        raise ValidationError("level must lie in (0, 1)")
    n_eff = np.bincount(cohort.events, minlength=cohort.k_events + 1)[1:].tolist()
    results: dict[int, TestResult] = {}
    for k, (stat, n) in enumerate(zip(stats, n_eff), start=1):
        if stat is None or n == 0:
            results[k] = TestResult(math.nan, n, math.nan, False, testable=False)
        else:
            p = kolmogorov_p(math.sqrt(n) * stat)
            results[k] = TestResult(stat, n, p, p >= level / cohort.k_events)
    return results, all(r.passed for r in results.values() if r.testable)


def d_cal_verdicts(
    devs: np.ndarray, cohort: Cohort, level: float = 0.05
) -> tuple[dict[int, TestResult], bool]:
    """``d_cal_test`` on the (K, M) deviations of ``bucket_deviations``, so
    that the metric and its test share one computation."""
    stats = np.abs(devs).max(axis=1).tolist()
    return _verdicts(stats, cohort, level)


def d_cal_test(
    bundle: CifBundle, cohort: Cohort, level: float = 0.05, rho_steps: int = 100
) -> tuple[dict[int, TestResult], bool]:
    """KS test of distribution calibration, one test per event.

    The statistic is the largest absolute bucket deviation on the rho
    grid, so censored mass enters exactly as in the metric; the effective
    sample size is the number of observed event-k records.
    """
    return d_cal_verdicts(bucket_deviations(bundle, cohort, rho_steps), cohort, level)


def pi_cal_test(
    bundle: CifBundle, marginal: MarginalCurveSet, cohort: Cohort, level: float = 0.05
) -> tuple[dict[int, TestResult], bool]:
    """KS-style test of the marginal gaps against the plug-in estimator.

    Both curves are normalized by the plug-in terminal value so the
    statistic compares CDF-like functions on [0, 1]; the supremum is taken
    over the bundle grid.
    """
    check_aligned(bundle, cohort)
    gaps = marginal_gaps(bundle, marginal, bundle.grid.times)
    terminals = marginal.cifs_at([bundle.grid.t_max])[:, 0].tolist()
    stats = [float(row.max()) / t if t > 0.0 else None for row, t in zip(gaps, terminals)]
    return _verdicts(stats, cohort, level)
