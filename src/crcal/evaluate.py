"""Discrimination and probabilistic-accuracy metrics with IPCW weighting.

The concordance index for competing risks compares, at a horizon tau, the
predicted CIF ordering of every informative pair: pairs where i fails
from event k before j (weighted by the inverse product of censoring
survival at the left limits), plus pairs where j fails earlier from a
different event. Both weights are 2-D dominance sums over (time,
prediction), so the index is computed by a merge sweep in O(n log^2 n)
time and O(n) memory, where comparing every (case, sample) pair took
O(cases * n) time and a 256 x n block of pair weights.

The Brier score reweights observed outcomes by the censoring survival so
that censored mass does not bias the quadratic error, and the integrated
version averages its time integral over events. One pass scores every
event at every requested time, one event slice at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .calibration import check_aligned
from .curves import StepCurve, censoring_survival
from .data import CifBundle, Cohort, TimeGrid, _fmt, step_indices
from .errors import NumericError, ValidationError

@dataclass(frozen=True)
class EvaluationResult:
    c_index: dict[int, dict[float, float]]
    c_index_mean: dict[int, float]
    brier: dict[int, dict[float, float]]
    ibs: float
    mean_curves: np.ndarray
    grid: TimeGrid

    def to_dict(self) -> dict:
        def fmt_map(m):
            return {
                str(k): {repr(float(t)): (None if math.isnan(v) else v) for t, v in sorted(vals.items())}
                for k, vals in sorted(m.items())
            }

        return {
            "c_index": fmt_map(self.c_index),
            "c_index_mean": {
                str(k): (None if math.isnan(v) else v) for k, v in sorted(self.c_index_mean.items())
            },
            "brier": fmt_map(self.brier),
            "ibs": self.ibs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def cr_c_index(
    cohort: Cohort, bundle: CifBundle, k: int, tau: float, censoring: StepCurve
) -> float:
    """Concordance for event k at horizon tau; NaN when no pair is usable.

    Informative cases are samples with an observed event k by tau. A pair
    (i, j) counts through the first weight when j outlasts i (or is
    censored at the tie), and through the second when j failed earlier
    but from a different cause; concordance requires the predicted CIF of
    i to strictly exceed that of j at tau.
    """
    check_aligned(bundle, cohort)
    if float(censoring.at_left(tau)) <= 0.0:
        raise NumericError("censoring survival vanishes before the horizon; IPCW undefined")
    times, events = cohort.times, cohort.events
    head = times <= tau
    case = head & (events == k)
    if not case.any():
        return math.nan
    preds = bundle.values_at(np.asarray([tau]))[:, k - 1, 0]
    t_unique, t_rank = np.unique(times, return_inverse=True)
    p_rank = np.unique(preds, return_inverse=True)[1]
    inv_g = 1.0 / censoring.at_left(t_unique)
    other = (events != 0) & (events != k)
    # per distinct time: records strictly later, censorings tied there, and
    # the summed 1/G(t_j-) of other-cause failures up to and including it
    d = t_unique.size
    later = times.size - np.cumsum(np.bincount(t_rank, minlength=d))
    tied = np.bincount(t_rank[events == 0], minlength=d)
    earlier = np.cumsum(np.bincount(t_rank[other], weights=inv_g[t_rank[other]], minlength=d))
    ci = t_rank[case]
    w_first, w_second = inv_g[ci] ** 2, inv_g[ci]
    denom = float(np.sum((later[ci] + tied[ci]) * w_first + earlier[ci] * w_second))
    if denom == 0.0:
        return math.nan
    # records after tau outlast every case; the rest go through the sweep
    numer = float(np.sum(np.searchsorted(np.sort(p_rank[~head]), p_rank[case]) * w_first))
    n_data, n_case = int(head.sum()), int(ci.size)
    # data items are the records up to tau, query items the cases; at a tied
    # time failures come before the cases' queries and censorings after them
    seq_key = 3 * np.concatenate((t_rank[head], ci))
    seq_key[:n_data] += np.where(events[head] == 0, 2, 0)
    seq_key[n_data:] += 1
    # at a tied prediction the query ranks first, so ties never count
    rank_key = 2 * np.concatenate((p_rank[head], p_rank[case]))
    rank_key[:n_data] += 1
    w = np.zeros((2, n_data + n_case))
    w[0, :n_data] = 1.0
    w[1, :n_data] = np.where(other[head], inv_g[t_rank[head]], 0.0)
    s = np.zeros((2, n_data + n_case))
    s[0, n_data:] = w_first
    s[1, n_data:] = w_second
    return (numer + _dominance_sum(seq_key, rank_key, w, s)) / denom


def _dominance_sum(seq_key: np.ndarray, rank_key: np.ndarray, w: np.ndarray, s: np.ndarray) -> float:
    """Sum over item pairs (q, d) with rank_key[d] < rank_key[q] of
    s[0, q] w[0, d] when d follows q in seq_key order and s[1, q] w[1, d]
    when d precedes it.

    Every item is either data (s = 0) or a query (w = 0), and no data item
    shares a key with a query. A bottom-up merge sweep over sequence
    positions: at level L each block of 2^(L+1) positions pairs its left
    half with its right half, and a block-wise running sum in rank order
    gives each query the weight of the lower-ranked data in the other half.
    O(n log^2 n) time, O(n) memory.
    """
    n = seq_key.size
    seq = np.argsort(seq_key)
    # sequence positions in rank order; a small dtype keeps the per-level
    # stable argsort on numpy's radix path
    pos = np.argsort(rank_key[seq]).astype(np.min_scalar_type(n))
    item = seq[pos]
    w, s = np.take(w, item, axis=1), np.take(s, item, axis=1)
    # row 0 keeps right-half data for left-half queries, row 1 the reverse
    half = np.array([[1], [0]], dtype=pos.dtype)
    total = 0.0
    for level in range((n - 1).bit_length()):
        by_block = np.argsort(pos >> (level + 1), kind="stable")
        keep = ((np.take(pos, by_block) >> level) & 1) == half
        size = 2 << level
        x = np.zeros((2, -(-n // size) * size))
        np.multiply(np.take(w, by_block, axis=1), keep, out=x[:, :n])
        run = x.reshape(2, -1, size).cumsum(axis=2).reshape(2, -1)[:, :n]
        total += float(np.einsum("ij,ij,ij->", run, np.take(s, by_block, axis=1), ~keep))
    return total


def brier_scores(
    cohort: Cohort, bundle: CifBundle, taus, censoring: StepCurve
) -> np.ndarray:
    """IPCW Brier score of every event at every time in taus, shape (K, len(taus))."""
    check_aligned(bundle, cohort)
    taus = np.asarray(taus, dtype=float)
    g_tau = censoring.at(taus)
    if np.any(g_tau <= 0.0):
        raise NumericError("censoring survival is zero at the evaluation time")
    times, events = cohort.times, cohort.events
    failed = events != 0
    known = np.where(failed, 1.0, 0.0) / np.where(failed, censoring.at_left(times), 1.0)
    done = times[None, :] <= taus[:, None]
    weights = np.where(done, known, 1.0 / g_tau[:, None])
    idx = step_indices(bundle.grid.times, taus)
    out = np.empty((bundle.k_events, taus.size))
    for k in range(bundle.k_events):
        # (len(taus), n) predictions of one event, turned in place into the
        # weighted squared errors
        err = bundle.values[:, k, :].T[np.maximum(idx, 0)]
        err[idx < 0] = 0.0
        err -= done & (events == k + 1)
        err *= err
        err *= weights
        out[k] = err.mean(axis=1)
    return out


def brier_score(
    cohort: Cohort, bundle: CifBundle, k: int, tau: float, censoring: StepCurve
) -> float:
    """IPCW Brier score of event k at time tau."""
    return float(brier_scores(cohort, bundle, [tau], censoring)[k - 1, 0])


def _integrate(scores: np.ndarray, grid: TimeGrid) -> float:
    """Mean over events of the Riemann sums of (K, d) scores on the grid,
    normalized by the grid horizon."""
    deltas = np.diff(np.concatenate(([0.0], grid.times)))
    return float(np.mean((scores * deltas).sum(axis=1) / grid.t_max))


def integrated_brier(
    cohort: Cohort, bundle: CifBundle, grid: TimeGrid, censoring: StepCurve
) -> float:
    """Mean over events of the Riemann time integral of the Brier score,
    normalized by the grid horizon."""
    return _integrate(brier_scores(cohort, bundle, grid.times, censoring), grid)


def mean_incidence(bundle: CifBundle) -> np.ndarray:
    """Across-sample mean CIF per event and grid time, shape (K, d)."""
    return bundle.values.mean(axis=0)


def mean_incidence_csv(bundle: CifBundle) -> str:
    """Plot-ready CSV ``event,time,mean_cif`` of the marginal predictions."""
    curves = mean_incidence(bundle)
    lines = ["event,time,mean_cif"]
    for k in range(bundle.k_events):
        for j, t in enumerate(bundle.grid.times):
            lines.append(f"{k + 1},{_fmt(t)},{_fmt(curves[k, j])}")
    return "\n".join(lines) + "\n"


def default_horizons(cohort: Cohort) -> list[float]:
    """25/50/75 percent duration quantiles (lower interpolation)."""
    times = np.sort(cohort.times)
    n = times.size
    idx = [max(int(math.ceil(q * n)) - 1, 0) for q in (0.25, 0.5, 0.75)]
    return sorted(set(float(times[i]) for i in idx))


def evaluate_bundle(
    cohort: Cohort,
    bundle: CifBundle,
    horizons: list[float] | None = None,
) -> EvaluationResult:
    """C-index at the requested horizons, Brier there too, IBS over the
    IPCW-valid part of the bundle grid, and the mean incidence curves."""
    check_aligned(bundle, cohort)
    censoring = censoring_survival(cohort)
    if horizons is None:
        horizons = default_horizons(cohort)
    elif not all(math.isfinite(tau) and tau > 0 for tau in horizons):
        raise ValidationError("horizons must be finite and positive")
    c_index: dict[int, dict[float, float]] = {}
    c_mean: dict[int, float] = {}
    for k in range(1, bundle.k_events + 1):
        c_index[k] = {tau: cr_c_index(cohort, bundle, k, tau, censoring) for tau in horizons}
        defined = [v for v in c_index[k].values() if not math.isnan(v)]
        c_mean[k] = float(np.mean(defined)) if defined else math.nan
    valid = bundle.grid.times[censoring.at(bundle.grid.times) > 0.0]
    if valid.size == 0:
        raise NumericError("no grid time lies inside the IPCW-valid horizon")
    # one Brier pass covers the horizons and the IBS grid
    scores = brier_scores(cohort, bundle, np.concatenate((horizons, valid)), censoring)
    h = len(horizons)
    brier = {k: dict(zip(horizons, scores[k - 1, :h].tolist())) for k in c_index}
    ibs = _integrate(scores[:, h:], TimeGrid(valid))
    return EvaluationResult(c_index, c_mean, brier, ibs, mean_incidence(bundle), bundle.grid)
