"""Calibration metrics for competing-risks CIF predictions.

Two families are implemented. The distribution-calibration family checks,
per event k, that the normalized ratios F_k(t_i|x_i) / F_k(t_max|x_i) of
the samples that experienced event k are uniform, with censored samples
contributing their conditional mass (F_k(t_max)rho - F_k(t_i)) / S(t_i)
to every bucket [0, rho] their ratio falls into; bucket masses are
normalized by the total predicted terminal mass. The marginal family
compares the across-sample mean predicted CIF with a population-level
plug-in curve (Aalen-Johansen) at every time, aggregated by a
time-integrated alpha-norm. Each metric shares its input with its KS
test, one array over every event built in one pass per (bundle, cohort):
``bucket_deviations`` for the first family, ``marginal_gaps`` here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import MarginalCurveSet
from .data import CifBundle, Cohort, TimeGrid, check_aligned, check_event, check_integer
from .errors import NumericError, ValidationError

INFINITY = math.inf
SURVIVAL_FLOOR = 1e-10


@dataclass(frozen=True)
class MetricParams:
    """Norm exponent alpha (> 1 or INFINITY) and bucket resolution."""

    alpha: float = 2.0
    rho_steps: int = 100

    def __post_init__(self):
        if not (self.alpha > 1.0):
            raise ValidationError("alpha must exceed 1 (or be INFINITY)")
        _check_rho_steps(self.rho_steps)


def _check_rho_steps(rho_steps) -> None:
    """The bucket resolution that every distribution-calibration entry point
    takes: an integer of at least 10."""
    check_integer(rho_steps, "rho_steps")
    if rho_steps < 10:
        raise ValidationError("rho_steps must be at least 10")


def _bucket_masses(bundle: CifBundle, cohort: Cohort, rhos) -> np.ndarray:
    """Bucket masses b_[0, rho] of every event at each rho, shape (K, len(rhos)).

    One gather of each sample's CIFs at its own time and one check of the
    implied survival of the censored samples serve every event.
    """
    check_aligned(bundle, cohort)
    rhos = np.asarray(rhos, dtype=float)
    own = bundle.values_at_own_times(cohort.times)
    cens = cohort.events == 0
    surv = (1.0 - own.sum(axis=1))[cens]
    if np.any(surv <= SURVIVAL_FLOOR):
        bad = np.flatnonzero(cens)[np.argmin(surv)]
        raise NumericError(
            f"predicted survival at the censoring time of sample "
            f"{cohort.ids[bad]!r} is below {SURVIVAL_FLOOR}; the censored-mass "
            "adjustment is undefined for this bundle"
        )
    f_inf = bundle.terminal()
    ratios = own / f_inf
    finf_over_s = f_inf[cens] / surv[:, None]
    ft_over_s = own[cens] / surv[:, None]
    out = np.empty((bundle.k_events, rhos.size))
    for k in range(bundle.k_events):
        # censored samples in ratio order, with prefix sums of F_inf/S and F_t/S
        order = np.argsort(ratios[cens, k], kind="stable")
        prefix_finf = np.concatenate(([0.0], np.cumsum(finf_over_s[order, k])))
        prefix_ft = np.concatenate(([0.0], np.cumsum(ft_over_s[order, k])))
        j = np.searchsorted(ratios[cens, k][order], rhos, side="right")
        count = np.searchsorted(np.sort(ratios[cohort.events == k + 1, k]), rhos, side="right")
        out[k] = (count + (rhos * prefix_finf[j] - prefix_ft[j])) / float(f_inf[:, k].sum())
    return out


def bucket_mass(bundle: CifBundle, cohort: Cohort, k: int, rho: float) -> float:
    """Estimated bucket mass b_[0, rho] for event k.

    Counts samples with event k whose normalized prediction ratio is at
    most rho (closed interval), adds the censored-mass adjustment for
    censored samples whose ratio is at most rho, and divides by the total
    predicted terminal mass of event k.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValidationError("rho must lie in [0, 1]")
    check_event(k, cohort.k_events)
    return float(_bucket_masses(bundle, cohort, [rho])[k - 1, 0])


def interval_bucket(bundle: CifBundle, cohort: Cohort, k: int, a: float, b: float) -> float:
    """Bucket mass of the interval [a, b], b_[0,b] - b_[0,a]."""
    if not 0.0 <= a < b <= 1.0:
        raise ValidationError("need 0 <= a < b <= 1")
    check_event(k, cohort.k_events)
    lo, hi = _bucket_masses(bundle, cohort, [a, b])[k - 1]
    return float(hi - lo)


def bucket_deviations(bundle: CifBundle, cohort: Cohort, rho_steps: int) -> np.ndarray:
    """Deviations b_[0, j/M] - j/M of every event on the Riemann grid
    j = 1..M, shape (K, M).

    This array is the common input of the distribution-calibration metric
    and its KS test, so the two stay exactly consistent.
    """
    _check_rho_steps(rho_steps)
    rhos = np.arange(1, rho_steps + 1) / rho_steps
    return _bucket_masses(bundle, cohort, rhos) - rhos


def _alpha_norms(rows: np.ndarray, alpha: float, integral) -> tuple[dict[int, float], float]:
    """Per-event integral(row**alpha) ** (1/alpha) of nonnegative rows (the
    row maximum when alpha is INFINITY), and their sum over events."""
    per_event = {
        k: float(row.max() if math.isinf(alpha) else integral(row**alpha) ** (1.0 / alpha))
        for k, row in enumerate(rows, start=1)
    }
    return per_event, float(sum(per_event.values()))


def d_hat_from_deviations(devs: np.ndarray, alpha: float) -> tuple[dict[int, float], float]:
    """Distribution-calibration estimate per event and in total from the
    (K, M) bucket deviations: per event, the alpha-norm Riemann mean of the
    absolute deviations (the maximum when alpha is INFINITY)."""
    return _alpha_norms(np.abs(devs), alpha, np.mean)


def cr_d_hat(
    bundle: CifBundle, cohort: Cohort, params: MetricParams = MetricParams()
) -> tuple[dict[int, float], float]:
    """Distribution-calibration estimate per event and in total, the
    ``d_hat_from_deviations`` of ``bucket_deviations``."""
    return d_hat_from_deviations(bucket_deviations(bundle, cohort, params.rho_steps), params.alpha)


def marginal_gaps(bundle: CifBundle, marginal: MarginalCurveSet, taus) -> np.ndarray:
    """Gaps |AJ_k(tau) - mean_i F_k(tau | x_i)|, shape (K, len(taus)): the
    common input of the marginal-calibration metric and its KS test."""
    taus = np.asarray(taus, dtype=float)
    if np.isnan(taus).any():
        raise ValidationError("tau must not be NaN")
    return np.abs(marginal.cifs_at(taus) - bundle.mean_at(taus))


def pi_cal_tau(bundle: CifBundle, marginal: MarginalCurveSet, k: int, tau: float) -> float:
    """Absolute gap at one time between the plug-in marginal CIF and the
    mean predicted CIF."""
    if tau > bundle.grid.t_max and (marginal.event_times.size == 0 or tau > marginal.event_times[-1]):
        raise ValidationError("tau is beyond both the bundle grid and the marginal support")
    check_event(k, bundle.k_events)
    return float(marginal_gaps(bundle, marginal, [tau])[k - 1, 0])


def pi_cal_alpha(
    bundle: CifBundle,
    marginal: MarginalCurveSet,
    params: MetricParams,
    grid: TimeGrid,
) -> tuple[dict[int, float], float]:
    """Time-integrated alpha-norm of the marginal gaps, per event and total.

    The integral is a Riemann sum over the grid anchored at tau_0 = 0,
    sum_j gap(tau_j)^alpha (tau_j - tau_{j-1}), taken to the 1/alpha power.
    """
    if grid.t_max > bundle.grid.t_max * (1 + 1e-12):
        raise ValidationError("integration grid extends past the bundle horizon")
    deltas = np.diff(np.concatenate(([0.0], grid.times)))
    gaps = marginal_gaps(bundle, marginal, grid.times)
    return _alpha_norms(gaps, params.alpha, lambda powered: (powered * deltas).sum())
