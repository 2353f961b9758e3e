"""Nonparametric marginal estimators: Kaplan-Meier and Aalen-Johansen.

All curves are right-continuous step functions with explicit left limits.
Ties at equal times follow the standard convention: events are processed
with the full risk set, censorings leave the risk set after the events at
that time. The censoring-survival curve G mirrors this with the roles of
event and censoring flipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Cohort, CifBundle, TimeGrid, _fmt, _table, check_event, step_values
from .errors import ValidationError


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous step function with value ``initial_value`` before
    the first jump time."""

    jump_times: np.ndarray
    values: np.ndarray
    initial_value: float

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)
        if jt.shape != vals.shape or jt.ndim != 1 or not jt.size:
            raise ValidationError("jump_times and values must be aligned, non-empty 1-D arrays")
        if np.any(np.diff(jt) <= 0):
            raise ValidationError("jump times must be strictly increasing")

    def at(self, t) -> np.ndarray:
        """Value at time t (right-continuous)."""
        return step_values(self.jump_times, self.values, t, self.initial_value)

    def at_left(self, t) -> np.ndarray:
        """Left limit, the value just before time t: the value at the float below t."""
        return self.at(np.nextafter(np.asarray(t, dtype=float), -np.inf))

    def to_csv(self) -> str:
        rows = zip(map(_fmt, self.jump_times.tolist()), map(_fmt, self.values.tolist()))
        return _table(["time", "value"], [("0", _fmt(self.initial_value)), *rows])


@dataclass(frozen=True)
class MarginalCurveSet:
    """Population-level step curves sharing one set of jump times.

    ``km_survival`` is the Kaplan-Meier survival, ``aj_cif[k-1]`` the
    Aalen-Johansen incidence of event k, and ``censoring_survival`` the
    Kaplan-Meier curve of the censoring distribution. At every jump time
    the construction identity sum_k AJ_k(t) + KM(t) = 1 holds when no
    record remains at risk past the last event, and more generally the
    three pieces are built from one shared risk-set pass.
    """

    event_times: np.ndarray
    km_survival: np.ndarray
    aj_cif: np.ndarray
    censoring_survival: np.ndarray

    @property
    def k_events(self) -> int:
        return self.aj_cif.shape[0]

    @property
    def km(self) -> StepCurve:
        return StepCurve(self.event_times, self.km_survival, 1.0)

    def cif(self, k: int) -> StepCurve:
        check_event(k, self.k_events)
        return StepCurve(self.event_times, self.aj_cif[k - 1], 0.0)

    def cifs_at(self, t) -> np.ndarray:
        """Every event's incidence at times t (right-continuous), shape (K, len(t))."""
        return step_values(self.event_times, self.aj_cif, t)

    @property
    def censoring(self) -> StepCurve:
        return StepCurve(self.event_times, self.censoring_survival, 1.0)


def kaplan_meier(cohort: Cohort) -> StepCurve:
    """Kaplan-Meier survival of the time to any event, ``aalen_johansen(cohort).km``."""
    return aalen_johansen(cohort).km


def censoring_survival(cohort: Cohort) -> StepCurve:
    """Kaplan-Meier censoring survival G, ``aalen_johansen(cohort).censoring``."""
    return aalen_johansen(cohort).censoring


def aalen_johansen(cohort: Cohort) -> MarginalCurveSet:
    """Aalen-Johansen cause-specific CIFs with matching KM and G curves.

    One risk-set pass gives all three. S(t) = prod_{t_i <= t} (Y(t_i) -
    d(t_i)) / Y(t_i), with d counting all failures at t_i and Y the number
    at risk there; F_k(t) = sum_{t_i <= t} S(t_i-) d_k(t_i) / Y(t_i),
    clamped at 1, so at every jump time sum_k F_k + S equals 1 up to float
    accumulation. G swaps the roles of censoring and failure; at tied
    times the failures leave the risk set first.
    """
    if cohort.n == 0:
        raise ValidationError("cohort is empty")
    utimes, inverse = np.unique(cohort.times, return_inverse=True)
    m = utimes.size
    k1 = cohort.k_events + 1
    flat = np.bincount(cohort.events * m + inverse, minlength=k1 * m)
    counts = flat.reshape(k1, m)
    at_risk = cohort.n - np.concatenate(([0], np.cumsum(counts.sum(axis=0))[:-1]))
    d_any = counts[1:, :].sum(axis=0)
    surv = np.cumprod((at_risk - d_any) / at_risk)
    surv_left = np.concatenate(([1.0], surv[:-1]))
    increments = surv_left[None, :] * counts[1:, :] / at_risk[None, :]
    aj = np.minimum(np.cumsum(increments, axis=1), 1.0)
    c = counts[0, :]
    risk_g = at_risk - d_any
    factors = np.where(risk_g > 0, (risk_g - c) / np.where(risk_g > 0, risk_g, 1), 1.0)
    return MarginalCurveSet(utimes, surv, aj, np.cumprod(factors))


def marginal_bundle(curves: MarginalCurveSet, grid: TimeGrid, sample_ids) -> CifBundle:
    """Bundle that predicts the population AJ curves for every sample.

    This is the Aalen-Johansen estimator used as a (covariate-free) model.
    """
    vals = curves.cifs_at(grid.times)
    if np.any(vals[:, -1] <= 0.0):
        raise ValidationError("marginal CIF is zero at t_max for some event; cannot form a bundle")
    values = np.broadcast_to(vals[None, :, :], (len(sample_ids), curves.k_events, grid.d))
    return CifBundle(grid, values, tuple(sample_ids))
