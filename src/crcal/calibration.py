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
test: ``bucket_deviations`` for the first family, ``marginal_gaps`` here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import MarginalCurveSet
from .data import CifBundle, Cohort, TimeGrid
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
        if self.rho_steps < 10:
            raise ValidationError("rho_steps must be at least 10")


def check_aligned(bundle: CifBundle, cohort: Cohort) -> None:
    if bundle.sample_ids != cohort.ids:
        raise ValidationError("bundle and cohort sample ids are misaligned")
    if bundle.k_events != cohort.k_events:
        raise ValidationError("bundle and cohort disagree on the number of events")


@dataclass(frozen=True)
class _EventTerms:
    """Per-event precomputation shared by every bucket evaluation."""

    obs_sorted: np.ndarray       # sorted ratios of samples with event k
    cens_sorted: np.ndarray      # sorted ratios of censored samples
    prefix_finf: np.ndarray      # cumsum of F_inf/S in that order, leading 0
    prefix_ft: np.ndarray        # cumsum of F_t/S in that order, leading 0
    denom: float                 # sum over all samples of F_k(t_max)


def _event_terms(bundle: CifBundle, cohort: Cohort, k: int) -> _EventTerms:
    if not 1 <= k <= cohort.k_events:
        raise ValidationError(f"event {k} out of range 1..{cohort.k_events}")
    own = bundle.values_at_own_times(cohort.times)
    f_t = own[:, k - 1]
    f_inf = bundle.terminal()[:, k - 1]
    ratio = f_t / f_inf
    obs_sorted = np.sort(ratio[cohort.events == k])
    cens = cohort.events == 0
    if cens.any():
        surv = (1.0 - own.sum(axis=1))[cens]
        if np.any(surv <= SURVIVAL_FLOOR):
            bad = np.flatnonzero(cens)[np.argmin(surv)]
            raise NumericError(
                f"predicted survival at the censoring time of sample "
                f"{cohort.ids[bad]!r} is below {SURVIVAL_FLOOR}; the censored-mass "
                "adjustment is undefined for this bundle"
            )
        order = np.argsort(ratio[cens], kind="stable")
        cens_sorted = ratio[cens][order]
        finf_over_s = (f_inf[cens] / surv)[order]
        ft_over_s = (f_t[cens] / surv)[order]
        prefix_finf = np.concatenate(([0.0], np.cumsum(finf_over_s)))
        prefix_ft = np.concatenate(([0.0], np.cumsum(ft_over_s)))
    else:
        cens_sorted = np.empty(0)
        prefix_finf = np.zeros(1)
        prefix_ft = np.zeros(1)
    return _EventTerms(obs_sorted, cens_sorted, prefix_finf, prefix_ft, float(f_inf.sum()))


def _bucket_bulk(terms: _EventTerms, rhos: np.ndarray) -> np.ndarray:
    """Bucket masses b_[0, rho] for an array of rho values."""
    count = np.searchsorted(terms.obs_sorted, rhos, side="right")
    j = np.searchsorted(terms.cens_sorted, rhos, side="right")
    cens_sum = rhos * terms.prefix_finf[j] - terms.prefix_ft[j]
    return (count + cens_sum) / terms.denom


def bucket_mass(bundle: CifBundle, cohort: Cohort, k: int, rho: float) -> float:
    """Estimated bucket mass b_[0, rho] for event k.

    Counts samples with event k whose normalized prediction ratio is at
    most rho (closed interval), adds the censored-mass adjustment for
    censored samples whose ratio is at most rho, and divides by the total
    predicted terminal mass of event k.
    """
    check_aligned(bundle, cohort)
    if not 0.0 <= rho <= 1.0:
        raise ValidationError("rho must lie in [0, 1]")
    terms = _event_terms(bundle, cohort, k)
    return float(_bucket_bulk(terms, np.asarray([rho]))[0])


def interval_bucket(bundle: CifBundle, cohort: Cohort, k: int, a: float, b: float) -> float:
    """Bucket mass of the interval [a, b], b_[0,b] - b_[0,a]."""
    if not 0.0 <= a < b <= 1.0:
        raise ValidationError("need 0 <= a < b <= 1")
    check_aligned(bundle, cohort)
    terms = _event_terms(bundle, cohort, k)
    lo, hi = _bucket_bulk(terms, np.asarray([a, b]))
    return float(hi - lo)


def bucket_deviations(bundle: CifBundle, cohort: Cohort, k: int, rho_steps: int) -> np.ndarray:
    """Deviations b_[0, j/M] - j/M on the Riemann grid j = 1..M.

    This array is the common input of the distribution-calibration metric
    and its KS test, so the two stay exactly consistent.
    """
    check_aligned(bundle, cohort)
    terms = _event_terms(bundle, cohort, k)
    rhos = np.arange(1, rho_steps + 1) / rho_steps
    return _bucket_bulk(terms, rhos) - rhos


def cr_d_hat(
    bundle: CifBundle, cohort: Cohort, params: MetricParams = MetricParams()
) -> tuple[dict[int, float], float]:
    """Distribution-calibration estimate per event and in total.

    Per event, the absolute bucket deviations over the rho grid are
    aggregated by the alpha-norm Riemann mean (the maximum when alpha is
    INFINITY); the total is the sum over events.
    """
    check_aligned(bundle, cohort)
    per_event: dict[int, float] = {}
    for k in range(1, cohort.k_events + 1):
        devs = np.abs(bucket_deviations(bundle, cohort, k, params.rho_steps))
        if math.isinf(params.alpha):
            per_event[k] = float(devs.max())
        else:
            per_event[k] = float(np.mean(devs**params.alpha) ** (1.0 / params.alpha))
    return per_event, float(sum(per_event.values()))


def marginal_gaps(bundle: CifBundle, marginal: MarginalCurveSet, taus) -> np.ndarray:
    """Gaps |AJ_k(tau) - mean_i F_k(tau | x_i)|, shape (K, len(taus)): the
    common input of the marginal-calibration metric and its KS test."""
    taus = np.asarray(taus, dtype=float)
    return np.abs(marginal.cifs_at(taus) - bundle.mean_at(taus))


def pi_cal_tau(bundle: CifBundle, marginal: MarginalCurveSet, k: int, tau: float) -> float:
    """Absolute gap at one time between the plug-in marginal CIF and the
    mean predicted CIF."""
    if tau > bundle.grid.t_max and (marginal.event_times.size == 0 or tau > marginal.event_times[-1]):
        raise ValidationError("tau is beyond both the bundle grid and the marginal support")
    if not 1 <= k <= bundle.k_events:
        raise ValidationError(f"event {k} out of range 1..{bundle.k_events}")
    return float(marginal_gaps(bundle, marginal, [tau])[k - 1, 0])


def pi_cal_alpha(
    bundle: CifBundle,
    marginal: MarginalCurveSet,
    params: MetricParams = MetricParams(),
    grid: TimeGrid | None = None,
) -> tuple[dict[int, float], float]:
    """Time-integrated alpha-norm of the marginal gaps, per event and total.

    The integral is a Riemann sum over the grid anchored at tau_0 = 0,
    sum_j gap(tau_j)^alpha (tau_j - tau_{j-1}), taken to the 1/alpha power.
    """
    if grid is None:
        grid = bundle.grid
    if grid.t_max > bundle.grid.t_max * (1 + 1e-12):
        raise ValidationError("integration grid extends past the bundle horizon")
    deltas = np.diff(np.concatenate(([0.0], grid.times)))
    per_event: dict[int, float] = {}
    for k, gaps in enumerate(marginal_gaps(bundle, marginal, grid.times), start=1):
        if math.isinf(params.alpha):
            per_event[k] = float(gaps.max())
        else:
            per_event[k] = float((gaps**params.alpha * deltas).sum() ** (1.0 / params.alpha))
    return per_event, float(sum(per_event.values()))
