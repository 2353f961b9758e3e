"""Post-hoc recalibration of CIF bundles.

Two methods. Additive offset recalibration shifts every sample's CIF at
each grid time by the gap between the Aalen-Johansen curve of the
calibration cohort and the model's mean prediction there, making the
recalibrated mean match the population curve exactly when no feasibility
repair triggers. Temperature scaling instead fits one exponent beta per
grid time, applied to the full probability vector (survival plus events,
so each recalibrated vector sums to one), that minimizes the summed
marginal gaps; one batched search fits a slice of grid times together in
a few (K+1) x d x n float64 arrays, samples innermost. A mean prediction
is numpy's pairwise sum over one (event, time) row of contiguous samples,
divided by n. A large fit splits the grid times into one contiguous slice
per worker (see ``data._workers``) and fits the slices in parallel; a
slice keeps every row whole, so the bits do not depend on the split.
Fits and applications read a bundle's distinct ``rows``.

A fitted map is immutable and can be applied to any number of bundles.
Each application projects its values back onto the feasible set (values
in [0, 1], nondecreasing in time, event sum at most one) and returns a
:class:`RecalibratedBundle` whose ``repairs`` counts the entries it had to
repair; the exactness guarantees (mean match, rank preservation) hold only
for an application with zero repairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .curves import aalen_johansen
from .data import CifBundle, Cohort, TimeGrid, _run_shares, _workers, check_aligned, step_values
from .errors import ValidationError

AJ_OFFSET = "aj_offset"
TEMPERATURE = "temperature"

_LOGIT_EPS = 1e-12
_BETA_GRID = np.logspace(-3.0, 3.0, 61)
_BETA_ONE = _BETA_GRID.tolist().index(1.0)  # the scan's beta of exactly 1
_IDENTITY_SLACK = 1e-10
# elements of the (K+1, d, n) vectors that each share of a split TS fit must
# hold: below about this many, thread start-up and the interpreter lock cost
# more than a second core saves (2-core Xeon, d = 65, K = 3, split in two:
# n = 200, 26k elements a share, 6% slower; n = 250, 33k, 12% faster)
_SHARE_SIZE = 1 << 15


@dataclass(frozen=True)
class RecalibrationMap:
    """Fitted correction: per-time offsets (with a survival row 0) for the
    additive method, or per-time temperatures for power scaling."""

    method: str
    grid: TimeGrid
    offsets: np.ndarray | None = None
    temperatures: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in (AJ_OFFSET, TEMPERATURE):
            raise ValidationError(f"unknown recalibration method {self.method!r}")
        if self.method == AJ_OFFSET:
            if self.offsets is None or self.offsets.shape[1] != self.grid.d:
                raise ValidationError("offsets must align with the grid")
            if not np.all(np.isfinite(self.offsets)):
                raise ValidationError("offsets must be finite")
        else:
            if self.temperatures is None or self.temperatures.shape != (self.grid.d,):
                raise ValidationError("temperatures must align with the grid")
            if not np.all(np.isfinite(self.temperatures) & (self.temperatures > 0)):
                raise ValidationError("temperatures must be finite and positive")

    def to_dict(self) -> dict:
        out: dict = {"method": self.method, "grid": self.grid.times.tolist()}
        if self.offsets is not None:
            out["offsets"] = self.offsets.tolist()
        if self.temperatures is not None:
            out["temperatures"] = self.temperatures.tolist()
        return out


@dataclass(frozen=True)
class RecalibratedBundle(CifBundle):
    """A bundle produced by applying a map; ``repairs`` counts the entries
    the application had to repair to keep it a valid bundle."""

    repairs: int = 0


def _recalibrated(bundle: CifBundle, rows: np.ndarray, repairs: int) -> RecalibratedBundle:
    """``bundle`` with the recalibrated values of its ``rows``, broadcast to
    every sample; a row's repairs count once per sample it stands for."""
    values = np.broadcast_to(rows, bundle.values.shape)
    return RecalibratedBundle(bundle.grid, values, bundle.sample_ids, repairs * (bundle.n // len(rows)))


def _check_fit_inputs(cal_cohort: Cohort, cal_bundle: CifBundle, grid: TimeGrid):
    check_aligned(cal_bundle, cal_cohort)
    if grid.t_max > cal_bundle.grid.t_max * (1 + 1e-12):
        raise ValidationError("recalibration grid extends past the calibration bundle horizon")


def fit_aj_offsets(cal_cohort: Cohort, cal_bundle: CifBundle, grid: TimeGrid) -> RecalibrationMap:
    """Per-event, per-time additive corrections toward the AJ curves.

    Row 0 holds the survival offset (Kaplan-Meier minus mean implied
    survival); rows 1..K hold the event offsets. The event rows and the
    survival row sum to zero at every time by construction.
    """
    _check_fit_inputs(cal_cohort, cal_bundle, grid)
    curves = aalen_johansen(cal_cohort)
    mean_pred = cal_bundle.mean_at(grid.times)
    offsets = np.empty((cal_bundle.k_events + 1, grid.d))
    offsets[0] = curves.km.at(grid.times) - (1.0 - mean_pred.sum(axis=0))
    offsets[1:] = curves.cifs_at(grid.times) - mean_pred
    return RecalibrationMap(AJ_OFFSET, grid, offsets=offsets)


_SUM_HEADROOM = 1e-9


def _feasible_projection(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Project shifted values onto valid bundles, counting repairs.

    Forward pass over the grid: clip into [0, 1], lift below the running
    maximum, and scale down the per-time increments of any sample whose
    event sum would exceed one. Repaired sums land slightly below one so
    the implied survival stays above the metrics' floor. An event left at
    zero everywhere gets the smallest positive terminal value, which keeps
    it possible. A sample that needs no repair comes back bitwise unchanged.
    """
    n, k, d = raw.shape
    target = 1.0 - _SUM_HEADROOM
    out = np.empty_like(raw)
    prev = np.zeros((n, k))
    prev_total = np.zeros(n)
    repairs = 0
    for j in range(d):
        col = raw[:, :, j]
        cur = np.clip(col, 0.0, 1.0)
        repairs += int(np.count_nonzero(cur != col))
        lifted = np.maximum(prev, cur)
        repairs += int(np.count_nonzero(lifted != cur))
        total = lifted.sum(axis=1)
        over = total > 1.0
        if over.any():
            gain = np.maximum(total[over] - prev_total[over], 1e-300)
            scale = np.clip((target - prev_total[over]) / gain, 0.0, 1.0)
            lifted[over] = prev[over] + (lifted[over] - prev[over]) * scale[:, None]
            total[over] = lifted[over].sum(axis=1)
            repairs += int(over.sum())
        out[:, :, j] = lifted
        prev = lifted
        prev_total = total
    zero = out[:, :, -1] == 0.0
    out[:, :, -1][zero] = np.nextafter(0.0, 1.0)
    return out, repairs + int(np.count_nonzero(zero))


def apply_offsets(bundle: CifBundle, rmap: RecalibrationMap) -> RecalibratedBundle:
    """Shift a bundle by fitted offsets, step-extended over its grid.

    Before the first offset time no correction applies. The result carries
    its repair count; with zero repairs it equals the plain shift bitwise.
    """
    if rmap.method != AJ_OFFSET:
        raise ValidationError("map method mismatch: expected additive offsets")
    if bundle.k_events + 1 != rmap.offsets.shape[0]:
        raise ValidationError("offset rows do not match the bundle events")
    shift = step_values(rmap.grid.times, rmap.offsets[1:], bundle.grid.times)
    return _recalibrated(bundle, *_feasible_projection(bundle.rows + shift[None, :, :]))


def _log_vectors(bundle: CifBundle, taus: np.ndarray) -> np.ndarray:
    """Logs of the normalized (survival, events) probability vectors of the
    bundle's ``rows``, shape (K+1, d, m) for the d times taus and the m
    rows: samples innermost."""
    preds = np.ascontiguousarray(step_values(bundle.grid.times, bundle.rows, taus).transpose(1, 2, 0))
    surv = np.clip(1.0 - preds.sum(axis=0), 0.0, None)
    p = np.concatenate([surv[None], preds])
    p /= p.sum(axis=0)
    p += _LOGIT_EPS
    return np.log(p, out=p)


def _power_scale(log_p: np.ndarray, top: np.ndarray, beta: np.ndarray, z=None, totals=None) -> np.ndarray:
    """Event shares, shape (K, d, n), of the log vectors log_p (K+1, d, n),
    survival first, raised to beta, shape (d, 1), and renormalized. ``top``
    is log_p.max(axis=0): fl(beta x) is monotone in x for beta > 0. ``z``
    (K+1, d, n) and ``totals`` (d, n) are buffers for the work, or None."""
    z = np.multiply(beta, log_p, out=z)
    z -= np.multiply(beta, top, out=totals)
    np.exp(z, out=z)
    z[1:] /= z.sum(axis=0, out=totals)
    return z[1:]


def fit_temperature(cal_cohort: Cohort, cal_bundle: CifBundle, grid: TimeGrid) -> RecalibrationMap:
    """Per-time exponent beta minimizing the summed marginal gaps.

    The scaling map raises the normalized (survival, events) vector to a
    power and renormalizes; beta is found by a log-spaced grid scan over
    [1e-3, 1e3] refined by golden section to a relative tolerance of 1e-6.
    A beta of exactly 1 is kept whenever it is within numerical slack of
    the optimum, so already-calibrated inputs are left untouched. The grid
    times are split into contiguous slices, one per worker but each with at
    least _SHARE_SIZE of the (K+1) x d x n vectors, fitted in parallel; a
    slice's times are fitted together, each gap evaluation scoring all of
    them at once in buffers made once per slice. A gap's mean prediction
    sums each (event, time) row over its contiguous samples, pairwise, and
    a slice keeps every row whole, so every time's beta is the same, to the
    bit, however the times are split.
    """
    _check_fit_inputs(cal_cohort, cal_bundle, grid)
    curves = aalen_johansen(cal_cohort)
    targets = curves.cifs_at(grid.times)
    log_p = _log_vectors(cal_bundle, grid.times)
    top = log_p.max(axis=0)
    w = max(1, min(_workers(), grid.d, log_p.size // _SHARE_SIZE))
    betas = np.concatenate(_run_shares(_fit_columns, _shares(log_p, top, targets, w)))
    return RecalibrationMap(TEMPERATURE, grid, temperatures=betas)


def _shares(log_p: np.ndarray, top: np.ndarray, targets: np.ndarray, w: int) -> list:
    """A TS fit's grid times cut into w contiguous slices: each slice's log
    vectors, their maxima and AJ targets, and the buffers of its gap
    evaluation, made here so that no pool thread allocates them."""
    k1, d, n = log_p.shape
    cuts = [d * i // w for i in range(w + 1)]
    return [
        (log_p[:, lo:hi], top[lo:hi], targets[:, lo:hi], np.empty((k1, hi - lo, n)), np.empty((hi - lo, n)))
        for lo, hi in zip(cuts, cuts[1:])
    ]


def _gap(share, beta) -> np.ndarray:
    """Summed marginal gap at each of a share's grid times after scaling
    with beta, a scalar or one value per time."""
    log_p, top, targets, z, totals = share
    means = _power_scale(log_p, top, np.reshape(beta, (-1, 1)), z, totals).mean(axis=2)
    return np.abs(means - targets).sum(axis=0)


def _fit_columns(share) -> np.ndarray:
    """The betas of one share's grid times: a scan over _BETA_GRID, then
    golden section on each time's bracket."""
    gap = partial(_gap, share)

    def gap_at_log(lb: np.ndarray) -> np.ndarray:
        return gap(np.fromiter(map(math.exp, lb), float, lb.size))

    log_grid = np.log(_BETA_GRID)
    scan = np.array([gap(b) for b in _BETA_GRID])
    best = scan.argmin(axis=0)
    a = log_grid[np.maximum(best - 1, 0)]
    b = log_grid[np.minimum(best + 1, log_grid.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = gap_at_log(x1), gap_at_log(x2)
    # golden section; a time's bracket stops moving once it is narrow enough
    while (active := b - a > 1e-6).any():
        left = f1 <= f2
        lo, hi = active & left, active & ~left
        b[lo], x2[lo], f2[lo] = x2[lo], x1[lo], f1[lo]
        a[hi], x1[hi], f1[hi] = x1[hi], x2[hi], f2[hi]
        probe = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        f = gap_at_log(probe)
        x1[lo], f1[lo] = probe[lo], f[lo]
        x2[hi], f2[hi] = probe[hi], f[hi]
    betas = np.fromiter(map(math.exp, 0.5 * (a + b)), float, a.size)
    betas[scan[_BETA_ONE] <= gap(betas) + _IDENTITY_SLACK] = 1.0
    return betas


def apply_temperature(bundle: CifBundle, rmap: RecalibrationMap) -> RecalibratedBundle:
    """Rescale each sample's probability vector with the fitted exponents.

    Beta is step-extended over the bundle grid and treated as 1 before the
    first fitted time; the event coordinates of the scaled vector become
    the new CIFs, then the feasibility projection restores monotonicity.
    The result carries its repair count, saturated sums included.
    """
    if rmap.method != TEMPERATURE:
        raise ValidationError("map method mismatch: expected temperatures")
    taus = bundle.grid.times
    beta = step_values(rmap.grid.times, rmap.temperatures, taus, 1.0)
    log_p = _log_vectors(bundle, taus)
    events = np.ascontiguousarray(_power_scale(log_p, log_p.max(axis=0), beta[:, None]).transpose(2, 0, 1))
    # an underflowed survival coordinate would leave the event sum at
    # exactly one; keep the same headroom as the projection repairs
    sums = events.sum(axis=1, keepdims=True)
    saturated = sums > 1.0 - _SUM_HEADROOM
    extra = int(np.count_nonzero(saturated))
    if extra:
        factor = (1.0 - _SUM_HEADROOM) / np.where(saturated, sums, 1.0)
        events = np.where(saturated, events * factor, events)
    values, repairs = _feasible_projection(events)
    return _recalibrated(bundle, values, repairs + extra)
