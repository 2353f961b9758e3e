import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_bundle, make_cohort, scored_cohorts

from crcal.curves import censoring_survival
from crcal.data import CifBundle, TimeGrid
from crcal.errors import NumericError, ValidationError
from crcal.evaluate import (
    _dominance_sum,
    brier_score,
    brier_scores,
    c_indices,
    cr_c_index,
    default_horizons,
    evaluate_bundle,
    integrated_brier,
    mean_incidence,
    mean_incidence_csv,
)
from crcal.synthetic import WeibullConfig, generate_cohort, oracle_bundle, square_distort, survival_horizon


def brute_force_c_index(cohort, bundle, k, tau, censoring):
    """Direct double loop over the concordance definition."""
    times, events = cohort.times, cohort.events
    preds = bundle.values_at(np.asarray([tau]))[:, k - 1, 0]
    g = censoring.at_left(times)
    num = den = 0.0
    n = cohort.n
    for i in range(n):
        if not (times[i] <= tau and events[i] == k):
            continue
        for j in range(n):
            a = times[i] < times[j] or (times[i] == times[j] and events[j] == 0)
            b = times[i] >= times[j] and events[j] not in (0, k)
            w = 0.0
            if a:
                w += 1.0 / (g[i] * g[i])
            if b:
                w += 1.0 / (g[i] * g[j])
            if w == 0.0:
                continue
            q = 1.0 if preds[i] > preds[j] else 0.0
            num += w * q
            den += w
    return num / den if den else math.nan


def blocked_c_index(cohort, bundle, k, tau, censoring, block=256):
    """Pairwise weights for blocks of cases against every sample:
    O(cases * n) time and a block x n working set."""
    times, events = cohort.times, cohort.events
    g_left = censoring.at_left(times)
    cases = np.flatnonzero((times <= tau) & (events == k))
    if cases.size == 0:
        return math.nan
    preds = bundle.values_at(np.asarray([tau]))[:, k - 1, 0]
    other = (events != 0) & (events != k)
    numer = 0.0
    denom = 0.0
    for start in range(0, cases.size, block):
        rows = cases[start:start + block]
        t_i = times[rows][:, None]
        g_i = g_left[rows][:, None]
        a = (t_i < times[None, :]) | ((t_i == times[None, :]) & (events[None, :] == 0))
        b = (t_i >= times[None, :]) & other[None, :]
        w = a / (g_i * g_i) + np.where(b, 1.0, 0.0) / np.where(b, g_i * g_left[None, :], 1.0)
        q = preds[rows][:, None] > preds[None, :]
        numer += float((w * q).sum())
        denom += float(w.sum())
    if denom == 0.0:
        return math.nan
    return numer / denom


def per_call_c_index(cohort, bundle, k, tau, censoring):
    """The O(n log^2 n) C-index of one (event, horizon) that redoes the
    per-cohort set-up on every call."""
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
    d = t_unique.size
    later = times.size - np.cumsum(np.bincount(t_rank, minlength=d))
    tied = np.bincount(t_rank[events == 0], minlength=d)
    earlier = np.cumsum(np.bincount(t_rank[other], weights=inv_g[t_rank[other]], minlength=d))
    ci = t_rank[case]
    w_first, w_second = inv_g[ci] ** 2, inv_g[ci]
    denom = float(np.sum((later[ci] + tied[ci]) * w_first + earlier[ci] * w_second))
    if denom == 0.0:
        return math.nan
    numer = float(np.sum(np.searchsorted(np.sort(p_rank[~head]), p_rank[case]) * w_first))
    n_data, n_case = int(head.sum()), int(ci.size)
    seq_key = 3 * np.concatenate((t_rank[head], ci))
    seq_key[:n_data] += np.where(events[head] == 0, 2, 0)
    seq_key[n_data:] += 1
    rank_key = 2 * np.concatenate((p_rank[head], p_rank[case]))
    rank_key[:n_data] += 1
    w = np.zeros((2, n_data + n_case))
    w[0, :n_data] = 1.0
    w[1, :n_data] = np.where(other[head], inv_g[t_rank[head]], 0.0)
    s = np.zeros((2, n_data + n_case))
    s[0, n_data:] = w_first
    s[1, n_data:] = w_second
    return (numer + _dominance_sum(seq_key, rank_key, w, s)) / denom


def per_tau_brier(cohort, bundle, k, tau, censoring):
    """IPCW Brier score of event k at one time, straight from the definition."""
    times, events = cohort.times, cohort.events
    g_left = censoring.at_left(times)
    known = (times <= tau) & (events != 0)
    later = times > tau
    weights = np.where(known, 1.0, 0.0) / np.where(known, g_left, 1.0) + later / float(censoring.at(tau))
    outcome = ((times <= tau) & (events == k)).astype(float)
    preds = bundle.values_at(np.asarray([tau]))[:, k - 1, 0]
    return float(np.mean(weights * (outcome - preds) ** 2))


TAUS = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def prediction_bundle(preds_at_tau, grid_times, k=1):
    """Single-event bundle whose value at every grid time is the given
    per-sample constant (terminal forced to a positive maximum)."""
    n = len(preds_at_tau)
    d = len(grid_times)
    vals = np.zeros((n, 1, d))
    for i, p in enumerate(preds_at_tau):
        vals[i, 0, :] = max(p, 1e-9)
    return make_bundle(grid_times, vals)


class TestCIndex:
    def test_perfect_concordance(self):
        cohort = make_cohort([1, 2, 3], [1, 1, 1], k=1)
        bundle = prediction_bundle([0.9, 0.6, 0.3], [3.0])
        g = censoring_survival(cohort)
        assert cr_c_index(cohort, bundle, 1, 3.0, g) == 1.0

    def test_anti_concordance(self):
        cohort = make_cohort([1, 2, 3], [1, 1, 1], k=1)
        bundle = prediction_bundle([0.3, 0.6, 0.9], [3.0])
        g = censoring_survival(cohort)
        assert cr_c_index(cohort, bundle, 1, 3.0, g) == 0.0

    def test_matches_brute_force_with_competitor(self):
        cohort = make_cohort([1, 2, 2, 4], [1, 2, 1, 0], k=2)
        rng = np.random.default_rng(0)
        grid = [4.0]
        n = cohort.n
        vals = np.zeros((n, 2, 1))
        vals[:, 0, 0] = rng.uniform(0.1, 0.5, n)
        vals[:, 1, 0] = rng.uniform(0.1, 0.4, n)
        bundle = make_bundle(grid, vals, cohort.ids)
        g = censoring_survival(cohort)
        got = cr_c_index(cohort, bundle, 1, 3.0, g)
        want = brute_force_c_index(cohort, bundle, 1, 3.0, g)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            n = int(rng.integers(5, 40))
            cohort = make_cohort(
                np.round(rng.uniform(0.5, 4.0, n), 1), rng.integers(0, 3, n), k=2
            )
            vals = np.sort(rng.uniform(0.0, 0.45, size=(n, 2, 3)), axis=2) + 1e-6
            bundle = make_bundle([1.0, 2.5, 4.5], vals, cohort.ids)
            g = censoring_survival(cohort)
            tau = float(rng.uniform(1.0, 3.9))
            if float(g.at_left(tau)) <= 0.0:
                continue
            got = cr_c_index(cohort, bundle, 1, tau, g)
            want = brute_force_c_index(cohort, bundle, 1, tau, g)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        n = 30
        cohort = make_cohort(np.round(rng.uniform(0.5, 4.0, n), 1), rng.integers(0, 2, n), k=1)
        vals = np.sort(rng.uniform(0.05, 0.9, size=(n, 1, 2)), axis=2)
        b1 = make_bundle([2.0, 4.5], vals, cohort.ids)
        b2 = make_bundle([2.0, 4.5], vals**2, cohort.ids)  # strictly increasing map
        g = censoring_survival(cohort)
        assert cr_c_index(cohort, b1, 1, 3.0, g) == cr_c_index(cohort, b2, 1, 3.0, g)

    def test_no_cases_is_nan(self):
        cohort = make_cohort([1, 2], [0, 2], k=2)
        bundle = prediction_bundle([0.5, 0.4], [2.0])
        two = make_bundle([2.0], np.repeat(bundle.values, 2, axis=1) / 2, cohort.ids)
        g = censoring_survival(cohort)
        assert math.isnan(cr_c_index(cohort, two, 1, 1.5, g))
        # one case, with no record after it, no censoring tied with it and
        # no earlier other-cause failure: it pairs with nothing
        lone = make_cohort([1.0, 2.0], [0, 1], k=1)
        assert math.isnan(cr_c_index(lone, bundle, 1, 2.0, censoring_survival(lone)))


class TestBrier:
    def test_perfect_onehot_zero(self):
        cohort = make_cohort([1, 2], [1, 1], k=1)
        vals = np.array([[[1.0, 1.0]], [[1e-9, 1.0]]])
        bundle = make_bundle([1.5, 2.0], vals, cohort.ids)
        g = censoring_survival(cohort)
        assert brier_score(cohort, bundle, 1, 1.5, g) == pytest.approx(0.0, abs=1e-17)

    def test_constant_prediction_closed_form(self):
        # uncensored: BS = q (1-p)^2 + (1-q) p^2 with q the event fraction
        n, p = 40, 0.3
        events = np.ones(n, dtype=int)
        times = np.concatenate([np.full(10, 0.5), np.full(30, 5.0)])
        cohort = make_cohort(times, events, k=1)
        bundle = prediction_bundle([p] * n, [1.0, 6.0])
        g = censoring_survival(cohort)
        q = 0.25
        want = q * (1 - p) ** 2 + (1 - q) * p**2
        assert brier_score(cohort, bundle, 1, 1.0, g) == pytest.approx(want)

    def test_censored_weight(self):
        # samples still at risk past tau carry weight 1 / G(tau) = 1.25
        cohort = make_cohort([0.5, 2.0, 2.0, 2.0, 2.0], [0, 1, 1, 1, 1], k=1)
        g = censoring_survival(cohort)
        tau = 1.0
        assert float(g.at(tau)) == pytest.approx(0.8)
        bundle = prediction_bundle([0.2] * 5, [1.0, 2.5])
        got = brier_score(cohort, bundle, 1, tau, g)
        want = (4 * 1.25 * 0.2**2) / 5
        assert got == pytest.approx(want)

    def test_no_censoring_reduces_to_plain(self):
        rng = np.random.default_rng(3)
        n = 25
        cohort = make_cohort(rng.uniform(0.5, 3.0, n), np.ones(n, dtype=int), k=1)
        preds = rng.uniform(0.05, 0.95, n)
        bundle = prediction_bundle(preds, [2.0, 3.5])
        g = censoring_survival(cohort)
        tau = 2.0
        outcome = (cohort.times <= tau).astype(float)
        want = float(np.mean((outcome - bundle.values_at(np.array([tau]))[:, 0, 0]) ** 2))
        assert brier_score(cohort, bundle, 1, tau, g) == pytest.approx(want, rel=1e-12)

    def test_zero_censoring_survival_rejected(self):
        cohort = make_cohort([1.0, 2.0], [1, 0], k=1)
        g = censoring_survival(cohort)
        bundle = prediction_bundle([0.5, 0.5], [3.0])
        assert float(g.at(2.5)) == 0.0
        with pytest.raises(NumericError):
            brier_score(cohort, bundle, 1, 2.5, g)
        # the last record is censored, so G is 0 at the bundle's only time
        with pytest.raises(NumericError, match="^no grid time lies inside the IPCW-valid horizon$"):
            evaluate_bundle(cohort, bundle)


class TestIntegratedBrier:
    def test_riemann_normalization(self):
        rng = np.random.default_rng(4)
        n = 20
        times = rng.uniform(0.5, 3.0, n)
        events = rng.integers(0, 2, n)
        events[np.argmax(times)] = 1  # keep G positive over the whole grid
        times[np.argmax(times)] = 3.0
        cohort = make_cohort(times, events, k=1)
        vals = np.sort(rng.uniform(0.05, 0.8, size=(n, 1, 3)), axis=2)
        bundle = make_bundle([1.0, 2.0, 3.0], vals, cohort.ids)
        g = censoring_survival(cohort)
        grid = TimeGrid(np.array([1.0, 2.0, 3.0]))
        want = 0.0
        deltas = [1.0, 1.0, 1.0]
        for tau, dt in zip(grid.times, deltas):
            want += brier_score(cohort, bundle, 1, tau, g) * dt
        want /= grid.t_max
        assert integrated_brier(cohort, bundle, grid, g) == pytest.approx(want, rel=1e-12)

    def test_oracle_beats_distorted(self):
        # strictly proper score: the true probabilities win
        cohort, latents = generate_cohort(WeibullConfig(), 3000, seed=14)
        horizon = survival_horizon(latents)
        grid = TimeGrid(np.unique(np.quantile(cohort.times, np.linspace(0.1, 0.9, 12))))
        oracle = oracle_bundle(latents, grid, cohort.ids)
        distorted = square_distort(oracle)
        g = censoring_survival(cohort)
        assert integrated_brier(cohort, oracle, grid, g) < integrated_brier(cohort, distorted, grid, g)


@st.composite
def uniform_bundles(draw):
    """Bundles of up to 300 samples, K in {1, 2, 3} and up to 8 grid times,
    with sorted uniform CIF draws divided by K."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k, d = draw(st.integers(1, 300)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    values = np.sort(rng.uniform(0.01, 1.0, (n, k, d)), axis=2) / k
    return make_bundle(np.arange(1.0, d + 1), values)


class TestMeanIncidence:
    @given(uniform_bundles())
    def test_is_the_bundle_mean(self, bundle):
        # the same sample mean as pi-calibration's, to the last bit
        assert np.array_equal(mean_incidence(bundle), bundle.mean_at(bundle.grid.times))

    def test_identical_samples(self):
        vals = np.tile(np.array([[[0.1, 0.3], [0.05, 0.2]]]), (4, 1, 1))
        bundle = make_bundle([1.0, 2.0], vals)
        assert mean_incidence(bundle) == pytest.approx(vals[0])

    def test_two_sample_average(self):
        f = np.array([0.1, 0.4])
        g = np.array([0.3, 0.6])
        bundle = make_bundle([1.0, 2.0], np.stack([f, g]).reshape(2, 1, 2))
        assert mean_incidence(bundle)[0] == pytest.approx((f + g) / 2)

    def test_csv_shape(self):
        vals = np.tile(np.array([[[0.1, 0.3], [0.05, 0.2]]]), (2, 1, 1))
        bundle = make_bundle([1.0, 2.0], vals)
        lines = mean_incidence_csv(bundle).splitlines()
        assert lines[0] == "event,time,mean_cif"
        assert len(lines) == 1 + 2 * 2

    def test_oracle_mean_tracks_population_marginal(self):
        # the across-sample mean of true CIFs at n = 20k stays within 0.01
        # of an independently drawn Monte-Carlo population marginal
        from crcal.synthetic import oracle_values

        cfg = WeibullConfig()
        cohort, latents = generate_cohort(cfg, 20_000, seed=16)
        check_times = np.linspace(0.05, 2.5, 30)
        _, ref_latents = generate_cohort(cfg, 30_000, seed=900)
        reference = oracle_values(ref_latents, check_times).mean(axis=0)
        grid = TimeGrid(check_times)
        bundle = oracle_bundle(latents, grid, cohort.ids)
        gap = np.abs(mean_incidence(bundle) - reference).max()
        assert gap <= 0.01


class TestEvaluateBundle:
    def test_structure_and_defaults(self):
        cohort, latents = generate_cohort(WeibullConfig(), 400, seed=15)
        grid = TimeGrid(np.unique(np.quantile(cohort.times, [0.2, 0.4, 0.6, 0.8])))
        bundle = oracle_bundle(latents, grid, cohort.ids)
        result = evaluate_bundle(cohort, bundle)
        assert set(result.c_index) == {1, 2, 3}
        hs = default_horizons(cohort)
        assert all(set(result.c_index[k]) == set(hs) for k in result.c_index)
        assert result.ibs > 0
        d = result.to_dict()
        assert set(d) == {"c_index", "c_index_mean", "brier", "ibs"}

    # every entry point reaches the one horizon gate of c_indices and
    # brier_scores; the evaluate_bundle ids carry the bad horizon alone
    @pytest.mark.parametrize("entry, bad", [
        pytest.param(entry, bad, id=str(bad) if entry == "evaluate_bundle" else f"{entry}-{bad}")
        for entry in ("evaluate_bundle", "c_indices", "brier_scores", "cr_c_index", "brier_score")
        for bad in (math.nan, math.inf, -math.inf, -1.0, 0.0)
    ])
    def test_rejects_non_finite_or_non_positive_horizons(self, entry, bad):
        cohort, latents = generate_cohort(WeibullConfig(), 200, seed=15)
        grid = TimeGrid(np.unique(np.quantile(cohort.times, [0.3, 0.6, 0.9])))
        bundle = oracle_bundle(latents, grid, cohort.ids)
        g = censoring_survival(cohort)
        taus = [float(np.median(cohort.times)), bad]
        calls = {
            "evaluate_bundle": lambda: evaluate_bundle(cohort, bundle, taus),
            "c_indices": lambda: c_indices(cohort, bundle, taus, g),
            "brier_scores": lambda: brier_scores(cohort, bundle, taus, g),
            "cr_c_index": lambda: cr_c_index(cohort, bundle, 1, bad, g),
            "brier_score": lambda: brier_score(cohort, bundle, 1, bad, g),
        }
        with pytest.raises(ValidationError, match="horizons must be finite and positive"):
            calls[entry]()

    def test_default_horizons_leave_out_time_zero(self):
        # a cohort may hold zero times; here 30% are zero, so the lower
        # quartile is 0, which the horizon gate would reject
        rng = np.random.default_rng(0)
        times = np.concatenate((np.zeros(12), rng.uniform(0.5, 3.0, 28)))
        events = np.concatenate((np.ones(12, dtype=int), rng.integers(0, 3, 28)))
        cohort = make_cohort(times, events, k=2)
        hs = default_horizons(cohort)
        assert hs and min(hs) > 0.0
        bundle = make_bundle([1.0, 2.0, 3.0], np.sort(rng.uniform(0.01, 0.4, (40, 2, 3)), axis=2), cohort.ids)
        result = evaluate_bundle(cohort, bundle)
        assert all(list(result.c_index[k]) == hs for k in (1, 2))


class TestEventNumber:
    @pytest.mark.parametrize("k", [0, 4])
    def test_rejects_event_outside_one_to_k(self, k):
        cohort, latents = generate_cohort(WeibullConfig(), 300, seed=15)
        grid = TimeGrid(np.unique(np.quantile(cohort.times, [0.3, 0.6, 0.9])))
        bundle = oracle_bundle(latents, grid, cohort.ids)
        g = censoring_survival(cohort)
        tau = float(np.median(cohort.times))
        with pytest.raises(ValidationError, match="out of range"):
            cr_c_index(cohort, bundle, k, tau, g)
        with pytest.raises(ValidationError, match="out of range"):
            brier_score(cohort, bundle, k, tau, g)


class TestCIndexReferences:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_matches_blocked_on_generated_cohorts(self, seed):
        cohort, latents = generate_cohort(WeibullConfig(), 2000, seed=seed)
        grid = TimeGrid(np.unique(np.quantile(cohort.times, np.linspace(0.1, 0.9, 12))))
        oracle = oracle_bundle(latents, grid, cohort.ids)
        g = censoring_survival(cohort)
        for bundle in (oracle, square_distort(oracle)):
            for k in (1, 2, 3):
                for tau in default_horizons(cohort):
                    got = cr_c_index(cohort, bundle, k, tau, g)
                    want = blocked_c_index(cohort, bundle, k, tau, g)
                    assert got == pytest.approx(want, rel=1e-12)

    @given(scored_cohorts(), st.sampled_from(TAUS))
    def test_matches_brute_force_property(self, case, tau):
        cohort, bundle = case
        g = censoring_survival(cohort)
        for k in range(1, cohort.k_events + 1):
            if float(g.at_left(tau)) <= 0.0:
                with pytest.raises(NumericError):
                    cr_c_index(cohort, bundle, k, tau, g)
                continue
            got = cr_c_index(cohort, bundle, k, tau, g)
            want = brute_force_c_index(cohort, bundle, k, tau, g)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-12)


class TestCIndexTable:
    @given(scored_cohorts(), st.lists(st.sampled_from(TAUS), min_size=1, max_size=4))
    def test_matches_per_call_reference_property(self, case, taus):
        cohort, bundle = case
        g = censoring_survival(cohort)
        if np.any(g.at_left(taus) <= 0.0):
            with pytest.raises(NumericError):
                c_indices(cohort, bundle, taus, g)
            return
        table = c_indices(cohort, bundle, taus, g)
        assert table.shape == (cohort.k_events, len(taus))
        for k in range(1, cohort.k_events + 1):
            for j, tau in enumerate(taus):
                want = per_call_c_index(cohort, bundle, k, tau, g)
                if math.isnan(want):
                    assert math.isnan(table[k - 1, j])
                else:
                    assert table[k - 1, j] == want  # bitwise

    def test_evaluate_bundle_matches_per_call_reference(self):
        cohort, latents = generate_cohort(WeibullConfig(), 600, seed=16)
        grid = TimeGrid(np.unique(np.quantile(cohort.times, [0.2, 0.4, 0.6, 0.8])))
        bundle = square_distort(oracle_bundle(latents, grid, cohort.ids))
        g = censoring_survival(cohort)
        result = evaluate_bundle(cohort, bundle)
        for k in (1, 2, 3):
            for tau, value in result.c_index[k].items():
                assert value == per_call_c_index(cohort, bundle, k, tau, g)


class TestBrierPass:
    @given(scored_cohorts(), st.lists(st.sampled_from(TAUS), min_size=1, max_size=4))
    def test_matches_per_tau_property(self, case, taus):
        cohort, bundle = case
        g = censoring_survival(cohort)
        if np.any(g.at(taus) <= 0.0):
            with pytest.raises(NumericError):
                brier_scores(cohort, bundle, taus, g)
            return
        scores = brier_scores(cohort, bundle, taus, g)
        assert scores.shape == (cohort.k_events, len(taus))
        for k in range(1, cohort.k_events + 1):
            for j, tau in enumerate(taus):
                assert scores[k - 1, j] == pytest.approx(per_tau_brier(cohort, bundle, k, tau, g), rel=1e-12)

    def test_evaluate_bundle_uses_the_same_scores(self):
        cohort, latents = generate_cohort(WeibullConfig(), 400, seed=15)
        grid = TimeGrid(np.unique(np.quantile(cohort.times, [0.2, 0.4, 0.6, 0.8])))
        bundle = oracle_bundle(latents, grid, cohort.ids)
        g = censoring_survival(cohort)
        result = evaluate_bundle(cohort, bundle)
        for k in (1, 2, 3):
            for tau, value in result.brier[k].items():
                assert value == pytest.approx(per_tau_brier(cohort, bundle, k, tau, g), rel=1e-12)
        assert result.ibs == pytest.approx(integrated_brier(cohort, bundle, grid, g), rel=1e-12)
