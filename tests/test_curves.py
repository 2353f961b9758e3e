import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crcal.curves import StepCurve, aalen_johansen, censoring_survival, kaplan_meier, marginal_bundle
from crcal.data import Cohort, TimeGrid, quantile_grid
from crcal.errors import ValidationError


def make_cohort(times, events, k=None):
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    k = k or max(int(events.max()), 1)
    return Cohort(tuple(str(i) for i in range(times.size)), times, events, k)


def risk_table(cohort):
    """Unique times with event counts per type, censor counts, risk sets."""
    utimes, inverse = np.unique(cohort.times, return_inverse=True)
    m = utimes.size
    k1 = cohort.k_events + 1
    flat = np.bincount(cohort.events * m + inverse, minlength=k1 * m)
    counts = flat.reshape(k1, m)
    at_risk = cohort.n - np.concatenate(([0], np.cumsum(counts.sum(axis=0))[:-1]))
    return utimes, counts, at_risk


def standalone_kaplan_meier(cohort):
    """Kaplan-Meier survival of the time to any event from its own risk table."""
    utimes, counts, at_risk = risk_table(cohort)
    d_any = counts[1:, :].sum(axis=0)
    surv = np.cumprod((at_risk - d_any) / at_risk)
    return StepCurve(utimes, surv, 1.0)


def standalone_censoring_survival(cohort):
    """Kaplan-Meier censoring survival G from its own risk table; real events
    leave the risk set first at tied times."""
    utimes, counts, at_risk = risk_table(cohort)
    d_any = counts[1:, :].sum(axis=0)
    c = counts[0, :]
    risk_g = at_risk - d_any
    factors = np.where(risk_g > 0, (risk_g - c) / np.where(risk_g > 0, risk_g, 1), 1.0)
    return StepCurve(utimes, np.cumprod(factors), 1.0)


@st.composite
def cohorts(draw):
    """Cohorts with K in {1, 2, 3}, tied times, censorings tied with events,
    and latest records that may fail or be censored."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.choice(np.linspace(0.1, 3.0, draw(st.integers(1, 30))), size=n)
    events = rng.integers(0, k + 1, n) if draw(st.booleans()) else rng.integers(1, k + 1, n)
    return make_cohort(times, events, k=k)


class TestKaplanMeier:
    def test_all_events(self):
        km = kaplan_meier(make_cohort([1, 2, 3], [1, 1, 1]))
        assert km.at(np.array([1.0, 2.0, 3.0])).tolist() == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_censoring_does_not_drop(self):
        km = kaplan_meier(make_cohort([1, 2, 3], [1, 0, 1]))
        assert km.at(np.array([1.0, 2.0, 3.0])).tolist() == pytest.approx([2 / 3, 2 / 3, 0.0])

    def test_all_censored(self):
        km = kaplan_meier(make_cohort([1, 2, 3], [0, 0, 0], k=1))
        assert np.all(km.at(np.array([0.5, 1.0, 3.0, 9.0])) == 1.0)

    def test_before_first_jump(self):
        km = kaplan_meier(make_cohort([1, 2], [1, 1]))
        assert km.at(0.5) == 1.0
        assert km.at_left(1.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            kaplan_meier(make_cohort([], [], k=1))


class TestCensoringSurvival:
    def test_role_flip(self):
        g = censoring_survival(make_cohort([1, 2], [0, 1]))
        assert g.at(np.array([1.0, 2.0])).tolist() == pytest.approx([0.5, 0.5])

    def test_no_censoring(self):
        g = censoring_survival(make_cohort([1, 2], [1, 1]))
        assert np.all(g.at(np.array([1.0, 2.0, 5.0])) == 1.0)

    def test_tie_events_first(self):
        # at a tied time the event leaves the risk set before the censoring
        g = censoring_survival(make_cohort([1, 1], [0, 1]))
        assert g.at(1.0) == pytest.approx(0.0)


class TestAalenJohansen:
    def test_hand_computed(self):
        curves = aalen_johansen(make_cohort([1, 2, 3], [1, 2, 1], k=2))
        f1, f2 = curves.cif(1), curves.cif(2)
        assert f1.at(1.0) == pytest.approx(1 / 3)
        assert f2.at(2.0) == pytest.approx(1 / 3)
        assert f1.at(3.0) == pytest.approx(2 / 3)

    def test_single_record(self):
        curves = aalen_johansen(make_cohort([1.0], [1]))
        assert curves.cif(1).at(1.0) == pytest.approx(1.0)

    def test_single_event_collapses_to_km(self):
        cohort = make_cohort([1, 2, 3, 4], [1, 1, 1, 1])
        curves = aalen_johansen(cohort)
        km = kaplan_meier(cohort)
        t = np.array([1.0, 2.5, 4.0])
        assert curves.cif(1).at(t) == pytest.approx(1.0 - km.at(t))

    def test_before_first_jump_is_zero(self):
        curves = aalen_johansen(make_cohort([1, 2], [1, 2], k=2))
        assert curves.cif(1).at(0.5) == 0.0
        assert curves.cif(2).at_left(1.0) == 0.0

    def test_sum_identity_random_cohorts(self):
        # sum_k AJ_k + KM = 1 at every jump time, with ties and censoring
        rng = np.random.default_rng(123)
        for trial in range(100):
            n = int(rng.integers(2, 120))
            times = rng.choice(np.linspace(0.2, 3.0, 12), size=n)
            events = rng.choice([0, 0, 1, 2, 3], size=n)
            if not events.any():
                events[0] = 1
            cohort = make_cohort(times, events, k=3)
            curves = aalen_johansen(cohort)
            total = curves.aj_cif.sum(axis=0) + curves.km_survival
            assert np.abs(total - 1.0).max() < 1e-9

    def test_censoring_matches_standalone(self):
        cohort = make_cohort([1, 1, 2, 3, 3], [1, 0, 2, 0, 1], k=2)
        curves = aalen_johansen(cohort)
        g = standalone_censoring_survival(cohort)
        assert np.array_equal(curves.censoring_survival, g.values)

    @given(cohorts())
    def test_views_match_standalone_estimators(self, cohort):
        for view, standalone in (
            (kaplan_meier(cohort), standalone_kaplan_meier(cohort)),
            (censoring_survival(cohort), standalone_censoring_survival(cohort)),
        ):
            assert np.array_equal(view.jump_times, standalone.jump_times)
            assert np.array_equal(view.values, standalone.values)

    @given(cohorts())
    def test_sum_identity_property(self, cohort):
        # sum_k AJ_k + KM = 1 at every jump time, and no incidence passes one
        curves = aalen_johansen(cohort)
        assert np.abs(curves.aj_cif.sum(axis=0) + curves.km_survival - 1.0).max() <= 1e-12
        assert curves.aj_cif.max() <= 1.0

    def test_uncensored_single_event_ends_at_one(self):
        # float accumulation alone reaches 1.0000000000000002 on this cohort
        curves = aalen_johansen(make_cohort(np.arange(1.0, 19.0), np.ones(18), k=1))
        assert curves.aj_cif[0, -1] == 1.0
        assert np.all(np.diff(curves.aj_cif[0]) >= 0.0)


def padded_left_limit(curve, t):
    """The left limit by a left-sided search over the values with the initial
    value in front: the reference for ``StepCurve.at_left``."""
    padded = np.concatenate(([curve.initial_value], curve.values))
    return padded[np.searchsorted(curve.jump_times, np.asarray(t, dtype=float), side="left")]


# reads a left limit must get right besides the jump times and their
# neighbors: zero of both signs, the smallest subnormals, the infinities, NaN
EDGE_TIMES = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]


class TestStepCurve:
    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8, unique=True),
        st.floats(0.0, 1.0),
        st.data(),
    )
    def test_left_limit_matches_padded_search(self, jumps, initial, picks):
        jt = np.sort(jumps)
        values = picks.draw(st.lists(st.floats(0.0, 1.0), min_size=jt.size, max_size=jt.size))
        curve = StepCurve(jt, values, initial)
        pool = [*jt.tolist(), *np.nextafter(jt, np.inf).tolist(), *np.nextafter(jt, -np.inf).tolist(), *EDGE_TIMES]
        t = picks.draw(st.lists(st.sampled_from(pool) | st.floats(), min_size=1, max_size=10))
        assert np.array_equal(curve.at_left(t), padded_left_limit(curve, t))
        for x in t:
            assert curve.at_left(x) == padded_left_limit(curve, x)

    def test_reads_never_write_into_the_curve(self):
        # a scalar read before the first jump gets the initial value in an
        # array of its own
        c = StepCurve(np.array([1.0, 2.0]), np.array([0.6, 0.2]), 1.0)
        for read in (c.at, c.at_left):
            for t in (0.5, np.float64(0.5), 1.0, 2.5, np.array([0.5, 1.5])):
                assert not np.shares_memory(read(t), c.values)
                assert c.values.tolist() == [0.6, 0.2]
        assert c.at(0.5) == c.at_left(1.0) == 1.0

    def test_left_limits(self):
        c = StepCurve(np.array([1.0, 2.0]), np.array([0.6, 0.2]), 1.0)
        assert c.at_left(1.0) == 1.0
        assert c.at(1.0) == 0.6
        assert c.at_left(2.0) == 0.6
        assert c.at_left(1.5) == 0.6

    def test_csv_round_trip_values(self):
        c = StepCurve(np.array([1.0, 2.0]), np.array([0.6, 0.2]), 1.0)
        lines = c.to_csv().splitlines()
        assert lines[0] == "time,value"
        assert lines[1].startswith("0,")
        assert len(lines) == 4

    @pytest.mark.parametrize("jump_times, message", [
        ([], "jump_times and values must be aligned, non-empty 1-D arrays"),
        ([2.0, 1.0], "jump times must be strictly increasing"),
    ])
    def test_bad_jumps_rejected(self, jump_times, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            StepCurve(np.array(jump_times), np.full(len(jump_times), 0.5), 1.0)


class TestMarginalBundle:
    def test_replication(self):
        cohort = make_cohort([1, 2, 3, 4], [1, 2, 1, 2], k=2)
        curves = aalen_johansen(cohort)
        grid = quantile_grid(cohort, d=4)
        bundle = marginal_bundle(curves, grid, ["a", "b"])
        assert bundle.values.shape == (2, 2, 4)
        assert np.array_equal(bundle.values[0], bundle.values[1])
        for k in (1, 2):
            assert bundle.values[0, k - 1] == pytest.approx(curves.cif(k).at(grid.times))

    def test_zero_terminal_rejected(self):
        cohort = make_cohort([1, 2], [1, 1], k=2)  # event 2 never occurs
        curves = aalen_johansen(cohort)
        with pytest.raises(ValidationError):
            marginal_bundle(curves, TimeGrid(np.array([1.0, 2.0])), ["a"])
