import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_bundle, make_cohort

import crcal.recalibrate as rc
from crcal import data
from crcal.calibration import MetricParams, pi_cal_alpha
from crcal.curves import aalen_johansen, marginal_bundle
from crcal.data import CifBundle, TimeGrid, quantile_grid, split_cohort, step_indices
from crcal.errors import ValidationError
from crcal.recalibrate import (
    _BETA_GRID,
    _IDENTITY_SLACK,
    _LOGIT_EPS,
    _SUM_HEADROOM,
    AJ_OFFSET,
    TEMPERATURE,
    RecalibrationMap,
    apply_offsets,
    _feasible_projection,
    apply_temperature,
    fit_aj_offsets,
    fit_temperature,
)
from crcal.synthetic import WeibullConfig, generate_cohort, oracle_bundle, square_distort


def aj_replicated_case(n=40, seed=0, k=2):
    rng = np.random.default_rng(seed)
    times = np.round(rng.uniform(0.2, 5.0, n), 2)
    events = rng.integers(0, k + 1, n)
    events[:k] = np.arange(1, k + 1)
    cohort = make_cohort(times, events, k=k)
    grid = quantile_grid(cohort, d=8)
    curves = aalen_johansen(cohort)
    bundle = marginal_bundle(curves, grid, cohort.ids)
    return cohort, curves, grid, bundle


def power_mean_gap(log_p, targets, beta):
    """Summed marginal gap after scaling all (n, K+1) vectors with exponent
    beta; each event's mean is the pairwise sum of its contiguous column."""
    z = beta * log_p
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    g = e / e.sum(axis=1, keepdims=True)
    return float(np.abs(np.ascontiguousarray(g[:, 1:].T).mean(axis=1) - targets).sum())


def golden_section(fun, lo, hi, tol=1e-6):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
    return 0.5 * (a + b)


def sample_major_vectors(bundle, taus):
    """Per-sample (survival, events) probability vectors, shape (n, K+1, m)."""
    preds = bundle.values_at(taus)
    surv = np.clip(1.0 - preds.sum(axis=1), 0.0, None)
    p = np.concatenate([surv[:, None, :], preds], axis=1)
    return p / p.sum(axis=1, keepdims=True)


def per_time_temperature(cal_cohort, cal_bundle, grid):
    """Temperatures fitted one grid time at a time: a scan of the beta grid,
    golden section on the bracket around its minimum, then the identity
    check, all on that time's (n, K+1) sample-major vectors."""
    p = sample_major_vectors(cal_bundle, grid.times)
    curves = aalen_johansen(cal_cohort)
    targets_all = np.stack([curves.cif(k).at(grid.times) for k in range(1, cal_bundle.k_events + 1)])
    log_grid = np.log(_BETA_GRID)
    betas = np.empty(grid.d)
    for j in range(grid.d):
        log_p = np.log(p[:, :, j] + _LOGIT_EPS)
        targets = targets_all[:, j]

        def gap_at_log_beta(lb):
            return power_mean_gap(log_p, targets, math.exp(lb))

        scan = np.array([power_mean_gap(log_p, targets, b) for b in _BETA_GRID])
        best = int(scan.argmin())
        lo = log_grid[max(best - 1, 0)]
        hi = log_grid[min(best + 1, log_grid.size - 1)]
        beta = math.exp(golden_section(gap_at_log_beta, lo, hi))
        candidate = power_mean_gap(log_p, targets, beta)
        if power_mean_gap(log_p, targets, 1.0) <= candidate + _IDENTITY_SLACK:
            beta = 1.0
        betas[j] = beta
    return betas


def sample_major_apply_temperature(bundle, rmap):
    """Recalibrated values and repair count of a temperature map, scaled on
    the (n, K+1, d) sample-major vectors."""
    idx = step_indices(rmap.grid.times, bundle.grid.times)
    beta = np.where(idx >= 0, rmap.temperatures[np.maximum(idx, 0)], 1.0)
    p = sample_major_vectors(bundle, bundle.grid.times)
    z = beta[None, None, :] * np.log(p + _LOGIT_EPS)
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    g = e / e.sum(axis=1, keepdims=True)
    events = g[:, 1:, :]
    sums = events.sum(axis=1, keepdims=True)
    saturated = sums > 1.0 - _SUM_HEADROOM
    extra = int(np.count_nonzero(saturated))
    if extra:
        factor = (1.0 - _SUM_HEADROOM) / np.where(saturated, sums, 1.0)
        events = np.where(saturated, events * factor, events)
    values, repairs = _feasible_projection(events)
    return values, repairs + extra


BUNDLE_TIMES = np.linspace(0.5, 5.0, 6)


@st.composite
def temperature_cases(draw):
    """A cohort with K in {1, 2, 3}, a bundle on BUNDLE_TIMES and a fit grid
    of its last 1 to 6 times. The rows are the cohort's own AJ curves
    (identical and calibrated) or drawn per sample (distinct); the vectors
    are then raised to a power from flattening to sharpening, which moves
    the best beta past either end of the beta grid."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.round(rng.uniform(0.2, 5.0, n), 1)
    events = rng.integers(0, k + 1, n)
    events[:k] = np.arange(1, k + 1)
    cohort = make_cohort(times, events, k=k)
    grid = TimeGrid(BUNDLE_TIMES)
    if draw(st.booleans()):
        bundle = marginal_bundle(aalen_johansen(cohort), grid, cohort.ids)
    else:
        values = np.cumsum(rng.uniform(0.0, 1.0, (n, k, grid.d)), axis=2)
        values *= rng.uniform(0.3, 0.95, (n, 1, 1)) / values[:, :, -1:].sum(axis=1, keepdims=True)
        bundle = make_bundle(grid.times, values, cohort.ids)
    power = draw(st.sampled_from([1.0, 1e-5, 0.2, 5.0, 100.0]))
    if power != 1.0:
        rmap = RecalibrationMap(TEMPERATURE, grid, temperatures=np.full(grid.d, power))
        bundle = apply_temperature(bundle, rmap)
    d = draw(st.integers(1, grid.d))
    return cohort, bundle, TimeGrid(grid.times[-d:])


class TestFitOffsets:
    @pytest.mark.parametrize("fit", [fit_aj_offsets, fit_temperature])
    def test_grid_past_the_bundle_horizon_rejected(self, fit):
        cohort, _, grid, bundle = aj_replicated_case()
        far = TimeGrid(np.append(grid.times, 2 * grid.t_max))
        with pytest.raises(ValidationError, match="^recalibration grid extends past the calibration bundle horizon$"):
            fit(cohort, bundle, far)

    def test_self_match_gives_zero_offsets(self):
        cohort, curves, grid, bundle = aj_replicated_case()
        rmap = fit_aj_offsets(cohort, bundle, grid)
        assert np.abs(rmap.offsets).max() < 1e-12

    def test_offset_value(self):
        cohort, curves, grid, bundle = aj_replicated_case()
        vals = np.clip(bundle.values - 0.1, 0.0, 1.0)
        vals = np.maximum.accumulate(vals, axis=2) + 1e-9
        low = make_bundle(grid.times, vals, cohort.ids)
        rmap = fit_aj_offsets(cohort, low, grid)
        aj1 = curves.cif(1).at(grid.times)
        mean1 = low.values_at(grid.times)[:, 0, :].mean(axis=0)
        assert rmap.offsets[1] == pytest.approx(aj1 - mean1)

    def test_event_offsets_balance_survival_offset(self):
        cohort, curves, grid, bundle = aj_replicated_case(seed=3)
        rng = np.random.default_rng(4)
        vals = bundle.values * rng.uniform(0.6, 0.95, size=(1, 2, 1))
        skewed = make_bundle(grid.times, vals, cohort.ids)
        rmap = fit_aj_offsets(cohort, skewed, grid)
        assert rmap.offsets[1:].sum(axis=0) == pytest.approx(-rmap.offsets[0], abs=1e-12)


class TestApplyOffsets:
    def test_zero_offsets_identity(self):
        cohort, curves, grid, bundle = aj_replicated_case()
        rmap = RecalibrationMap(AJ_OFFSET, grid, offsets=np.zeros((3, grid.d)))
        out = apply_offsets(bundle, rmap)
        assert np.array_equal(out.values, bundle.values)
        assert out.repairs == 0

    def test_simple_shift(self):
        grid = TimeGrid(np.array([1.0]))
        bundle = make_bundle([1.0], np.array([[[0.4]]]))
        rmap = RecalibrationMap(AJ_OFFSET, grid, offsets=np.array([[-0.1], [0.1]]))
        out = apply_offsets(bundle, rmap)
        assert out.values[0, 0, 0] == pytest.approx(0.5)

    def test_clipping_counted(self):
        grid = TimeGrid(np.array([1.0]))
        bundle = make_bundle([1.0], np.array([[[0.95]]]))
        rmap = RecalibrationMap(AJ_OFFSET, grid, offsets=np.array([[-0.1], [0.1]]))
        out = apply_offsets(bundle, rmap)
        assert out.values[0, 0, 0] == 1.0
        assert out.repairs >= 1

    @pytest.mark.parametrize("apply, method, fields, message", [
        (apply_offsets, TEMPERATURE, {"temperatures": np.array([1.0])}, "map method mismatch: expected additive offsets"),
        (apply_offsets, AJ_OFFSET, {"offsets": np.zeros((3, 1))}, "offset rows do not match the bundle events"),
        (apply_temperature, AJ_OFFSET, {"offsets": np.zeros((2, 1))}, "map method mismatch: expected temperatures"),
    ])
    def test_map_mismatch(self, apply, method, fields, message):
        rmap = RecalibrationMap(method, TimeGrid(np.array([1.0])), **fields)
        bundle = make_bundle([1.0], np.array([[[0.4]]]))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            apply(bundle, rmap)

    def test_marginal_match_after_recalibration(self):
        # with zero clipping the recalibrated calibration-set mean equals
        # the AJ curve, so the plug-in metric vanishes on the offset grid;
        # a downscaled oracle on a mid-range grid keeps every offset
        # increment positive so no repair triggers
        cohort, latents = generate_cohort(WeibullConfig(), 8000, seed=2)
        times = np.sort(cohort.times)
        qs = [times[int(np.ceil(q * times.size)) - 1] for q in (0.25, 0.5, 0.75)]
        grid = TimeGrid(np.unique(qs))
        oracle = oracle_bundle(latents, grid, cohort.ids)
        bundle = make_bundle(grid.times, oracle.values * 0.7, cohort.ids)
        rmap = fit_aj_offsets(cohort, bundle, grid)
        recal = apply_offsets(bundle, rmap)
        assert recal.repairs == 0
        curves = aalen_johansen(cohort)
        per, total = pi_cal_alpha(recal, curves, MetricParams(), grid)
        assert total < 1e-9


@st.composite
def projection_inputs(draw):
    """Shifted values of shape (n, K, d) anywhere in [-0.5, 1.5], or (with
    ``valid``) values that already form a bundle with event sums at most one."""
    n, k, d = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    valid = draw(st.booleans())
    if valid:
        raw = np.cumsum(rng.uniform(0.0, 1.0, (n, k, d)), axis=2)
        raw *= rng.uniform(0.0, 1.0, (n, 1, 1)) / raw[:, :, -1:].sum(axis=1, keepdims=True)
        raw[rng.uniform(size=raw.shape) < 0.2] = 0.0
        raw = np.maximum.accumulate(raw, axis=2)
    else:
        raw = rng.uniform(-0.5, 1.5, (n, k, d))
    return raw, valid


class TestFeasibleProjection:
    @given(projection_inputs())
    def test_yields_valid_values_and_is_identity_on_valid_input(self, case):
        raw, valid = case
        out, repairs = _feasible_projection(raw)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(np.diff(out, axis=2) >= 0.0)
        assert np.all(out.sum(axis=1) <= 1.0)
        if valid:
            # an event that stays at zero is the one repair a valid input gets
            zero = raw[:, :, -1] == 0.0
            expected = raw.copy()
            expected[:, :, -1][zero] = np.nextafter(0.0, 1.0)
            assert repairs == np.count_nonzero(zero)
            assert np.array_equal(out, expected)
        grid = np.arange(1.0, raw.shape[2] + 1)
        assert np.array_equal(make_bundle(grid, out).values, out)

    def test_rescales_only_the_samples_over_one(self):
        # only sample 0's event sum goes over one; the other samples are
        # valid and must come back bitwise. 0.03 + (0.3 - 0.03) * 1.0 is not
        # 0.3 in floating point, so a scale of 1.0 still moves a value
        small = np.array([[[0.4, 0.6], [0.3, 0.6]], [[0.03, 0.3], [0.1, 0.2]]])
        out, repairs = _feasible_projection(small)
        assert repairs == 1
        assert np.array_equal(out[1], small[1])
        rng = np.random.default_rng(3)
        for _ in range(200):
            raw = np.sort(rng.uniform(0.0, 1.0 / 3.0, (6, 3, 4)), axis=2)
            raw[0, :, 1:] *= 1.5
            raw = np.maximum.accumulate(raw, axis=2)
            out, repairs = _feasible_projection(raw)
            assert np.all(out[0].sum(axis=0) <= 1.0)
            assert np.array_equal(out[1:], raw[1:])


class TestTemperature:
    def test_replicated_bundle_beta_one(self):
        cohort, curves, grid, bundle = aj_replicated_case(n=60, seed=5)
        rmap = fit_temperature(cohort, bundle, grid)
        assert np.all(np.abs(rmap.temperatures - 1.0) <= 1e-3)

    def test_beta_one_is_identity_up_to_normalization(self):
        cohort, curves, grid, bundle = aj_replicated_case(n=30, seed=6)
        rmap = RecalibrationMap(TEMPERATURE, grid, temperatures=np.ones(grid.d))
        out = apply_temperature(bundle, rmap)
        assert np.abs(out.values - bundle.values).max() < 1e-8

    def test_symmetric_two_class_fixed_point(self):
        grid = TimeGrid(np.array([1.0]))
        bundle = make_bundle([1.0], np.array([[[0.5]]]))
        rmap = RecalibrationMap(TEMPERATURE, grid, temperatures=np.array([7.0]))
        out = apply_temperature(bundle, rmap)
        assert out.values[0, 0, 0] == pytest.approx(0.5, abs=1e-9)

    def test_power_two_vector(self):
        # (S, F1, F2) = (0.25, 0.25, 0.5) at beta 2 becomes (1/6, 1/6, 2/3)
        grid = TimeGrid(np.array([1.0]))
        bundle = make_bundle([1.0], np.array([[[0.25], [0.5]]]))
        rmap = RecalibrationMap(TEMPERATURE, grid, temperatures=np.array([2.0]))
        out = apply_temperature(bundle, rmap)
        assert out.values[0, 0, 0] == pytest.approx(1 / 6, abs=1e-9)
        assert out.values[0, 1, 0] == pytest.approx(2 / 3, abs=1e-9)

    def test_large_beta_one_hot(self):
        grid = TimeGrid(np.array([1.0]))
        bundle = make_bundle([1.0], np.array([[[0.2], [0.7]]]))  # survival 0.1
        rmap = RecalibrationMap(TEMPERATURE, grid, temperatures=np.array([400.0]))
        out = apply_temperature(bundle, rmap)
        assert out.values[0, 1, 0] == pytest.approx(1.0, abs=1e-9)
        assert out.values[0, 0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_output_sums_to_one_with_survival(self):
        cohort, curves, grid, bundle = aj_replicated_case(n=25, seed=7)
        rng = np.random.default_rng(8)
        vals = np.clip(bundle.values * rng.uniform(0.5, 1.0, size=bundle.values.shape[:2] + (1,)), 1e-6, 1.0)
        vals = np.maximum.accumulate(vals, axis=2)
        warped = make_bundle(grid.times, vals, cohort.ids)
        rmap = fit_temperature(cohort, warped, grid)
        out = apply_temperature(warped, rmap)
        assert np.all(out.values.sum(axis=1) <= 1.0 + 1e-9)


class TestBatchedTemperature:
    @given(temperature_cases(), st.booleans())
    def test_matches_per_time_property(self, case, calibrated):
        cohort, bundle, grid = case
        if calibrated:
            bundle = marginal_bundle(aalen_johansen(cohort), bundle.grid, cohort.ids)
        got = fit_temperature(cohort, bundle, grid).temperatures
        assert np.array_equal(got, per_time_temperature(cohort, bundle, grid))
        if calibrated:
            assert np.all(got == 1.0)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_matches_per_time_on_generated_cohorts(self, seed):
        cohort, latents = generate_cohort(WeibullConfig(), 2000, seed=seed)
        grid = TimeGrid(np.unique(np.quantile(cohort.times, np.linspace(0.1, 0.9, 12))))
        bundle = square_distort(oracle_bundle(latents, grid, cohort.ids))
        got = fit_temperature(cohort, bundle, grid).temperatures
        assert np.array_equal(got, per_time_temperature(cohort, bundle, grid))
        assert np.all(got != 1.0)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.5, 400.0])
    def test_apply_matches_sample_major_scaling(self, beta):
        cohort, latents = generate_cohort(WeibullConfig(), 300, seed=33)
        grid = TimeGrid(np.unique(np.quantile(cohort.times, np.linspace(0.1, 1.0, 10))))
        bundle = square_distort(oracle_bundle(latents, grid, cohort.ids))
        # the map starts after the first bundle time, which keeps beta 1 there
        rmap = RecalibrationMap(TEMPERATURE, TimeGrid(grid.times[1::2]), temperatures=np.full(5, beta))
        out = apply_temperature(bundle, rmap)
        values, repairs = sample_major_apply_temperature(bundle, rmap)
        assert np.array_equal(out.values, values)
        assert out.values.flags.c_contiguous
        assert out.repairs == repairs


@st.composite
def replicated_cases(draw):
    """A cohort with K in {1, 2, 3}, one (K, d) row on BUNDLE_TIMES for each of
    its samples, given as a stride-0 view or as a copy, and a fit grid of its
    last 1 to 6 times. The row is the cohort's own AJ curves, another
    cohort's or a draw, raised to a power as in :func:`temperature_cases`."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cohort_of(size):
        times = np.round(rng.uniform(0.2, 5.0, size), 1)
        events = rng.integers(0, k + 1, size)
        events[:k] = np.arange(1, k + 1)
        return make_cohort(times, events, k=k)

    cohort = cohort_of(n)
    grid = TimeGrid(BUNDLE_TIMES)
    source = draw(st.sampled_from(["own", "other", "drawn"]))
    if source == "drawn":
        row = np.cumsum(rng.uniform(0.0, 1.0, (k, grid.d)), axis=1)
        row *= rng.uniform(0.3, 0.95) / row[:, -1].sum()
    else:
        row = aalen_johansen(cohort if source == "own" else cohort_of(draw(st.integers(k, 40)))).cifs_at(grid.times)
    power = draw(st.sampled_from([1.0, 1e-5, 0.2, 5.0, 100.0]))
    if power != 1.0:
        rmap = RecalibrationMap(TEMPERATURE, grid, temperatures=np.full(grid.d, power))
        row = apply_temperature(make_bundle(grid.times, row[None]), rmap).values[0]
    values = np.broadcast_to(row, (n, *row.shape))
    bundle = make_bundle(grid.times, values.copy() if draw(st.booleans()) else values, cohort.ids)
    return cohort, bundle, TimeGrid(grid.times[-draw(st.integers(1, grid.d)):])


def full_rows(fn, *args):
    """``fn(*args)`` with the one-row paths off, so that every row is read."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data.CifBundle, "rows", property(lambda b: b.values))
        return fn(*args)


class TestOneRow:
    """Fits and applications on a bundle whose rows are all the same read its
    one row; each agrees with the same call reading every row."""

    @given(replicated_cases())
    def test_offsets_within_ulps_of_the_full_rows(self, case):
        # an offset is a target less the mean, and the full-row mean of n
        # equal floats is within a few ulps of that float (the largest offset
        # move seen in 1,000 draws is 8.9e-16)
        cohort, bundle, grid = case
        got = fit_aj_offsets(cohort, bundle, grid).offsets
        want = full_rows(fit_aj_offsets, cohort, bundle, grid).offsets
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    @given(replicated_cases())
    def test_temperatures_fit_the_full_rows_as_well(self, case):
        # a mean a few ulps off can flip a scan or golden section comparison
        # where the gap is flat, so a moved beta is scored on every row: its
        # gap is within 1e-7 of the full-row fit's. In 1,000 draws 12 moved a
        # beta, by up to 95%; in 4,000 the largest gap move was 1.3e-8
        cohort, bundle, grid = case
        got = fit_temperature(cohort, bundle, grid).temperatures
        want = full_rows(fit_temperature, cohort, bundle, grid).temperatures
        p = sample_major_vectors(bundle, grid.times)
        targets = aalen_johansen(cohort).cifs_at(grid.times)
        for j in np.flatnonzero(got != want):
            log_p = np.log(p[:, :, j] + _LOGIT_EPS)
            gaps = [power_mean_gap(log_p, targets[:, j], beta) for beta in (got[j], want[j])]
            assert abs(gaps[0] - gaps[1]) <= 1e-7

    @given(replicated_cases(), st.integers(0, 2**32 - 1))
    def test_applications_equal_the_full_rows(self, case, seed):
        # offsets up to 0.4 and temperatures up to 400 clip, lift, rescale
        # and saturate some entries
        cohort, bundle, grid = case
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-0.4, 0.4, (bundle.k_events + 1, grid.d))
        temperatures = np.exp(rng.uniform(-5.0, 6.0, grid.d))
        for apply, rmap in ((apply_offsets, RecalibrationMap(AJ_OFFSET, grid, offsets=offsets)),
                            (apply_temperature, RecalibrationMap(TEMPERATURE, grid, temperatures=temperatures))):
            got, want = apply(bundle, rmap), full_rows(apply, bundle, rmap)
            assert got.values.strides[0] == 0
            assert np.array_equal(got.values, want.values)
            assert got.repairs == want.repairs


class TestStepExtension:
    def test_reads_before_the_map_grid_leave_the_map_alone(self):
        # the bundle's first time precedes both maps' grids, where the step
        # extension reads beta 1 and offset 0 into its own array
        bundle = make_bundle([0.5, 1.0], np.array([[[0.2, 0.4], [0.1, 0.3]]]))
        grid = TimeGrid(np.array([1.0]))
        tmap = RecalibrationMap(TEMPERATURE, grid, temperatures=np.array([2.0]))
        omap = RecalibrationMap(AJ_OFFSET, grid, offsets=np.array([[-0.1], [0.05], [0.05]]))
        scaled, shifted = apply_temperature(bundle, tmap), apply_offsets(bundle, omap)
        assert tmap.temperatures.tolist() == [2.0]
        assert omap.offsets.tolist() == [[-0.1], [0.05], [0.05]]
        assert np.array_equal(shifted.values[:, :, 0], bundle.values[:, :, 0])
        assert np.abs(scaled.values[:, :, 0] - bundle.values[:, :, 0]).max() < 1e-8


class TestSplitFit:
    # each case holds at least two shares' worth of the (K+1) x n x d vectors
    # and so is split on two or more CPUs, except d = 1, which cannot split;
    # d = 3 on three CPUs and d = 2 on two are slices of one time, fewer
    # times than seven CPUs, and K = 1 leaves one event row per time
    @pytest.mark.parametrize("k, d, n", [(3, 65, 1000), (3, 3, 8192), (3, 1, 1000), (1, 65, 1000), (1, 2, 16384)])
    def test_betas_do_not_depend_on_the_worker_count(self, k, d, n):
        config = WeibullConfig(WeibullConfig().scale_ranges[:k], WeibullConfig().shape_ranges[:k])
        cohort, _ = generate_cohort(config, n, seed=50 + d)
        rng = np.random.default_rng(d)
        values = np.sort(rng.uniform(0.01, 1.0, (n, k, d)), axis=2) / (k + 1)
        grid = TimeGrid(cohort.times.max() * np.arange(1, d + 1) / d)
        bundle = CifBundle(grid, values, cohort.ids)
        fits, shares = [], []
        run_shares = rc._run_shares
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rc, "_run_shares", lambda fn, parts: shares.append(len(parts)) or run_shares(fn, parts))
            for workers in (1, 2, 3, 7):
                patch.setattr(rc, "_workers", lambda: workers)
                fits.append(fit_temperature(cohort, bundle, grid).temperatures)
        assert shares[0] == 1 and (d == 1 or shares[1] == 2)
        assert shares[3] == max(1, min(7, d, (k + 1) * n * d // rc._SHARE_SIZE))
        assert all(np.array_equal(fit, fits[0]) for fit in fits)
        assert np.any(fits[0] != 1.0)

    # a gap differs from another in its last bits long before a golden
    # section comparison flips, so the gap itself is compared: in the fit's
    # (K+1, d, n) layout a slice of times sums each (event, time) row of
    # samples as the whole does
    @pytest.mark.parametrize("k, d", [(1, 7), (2, 7), (3, 7), (1, 2), (3, 1)])
    def test_gap_does_not_depend_on_the_slices(self, k, d):
        rng = np.random.default_rng(k * d)
        p = np.ascontiguousarray(rng.dirichlet(np.ones(k + 1), (d, 200)).transpose(2, 0, 1))
        log_p = np.log(p + _LOGIT_EPS)
        targets = rng.uniform(0.0, 1.0 / (k + 1), (k, d))
        whole = rc._shares(log_p, log_p.max(axis=0), targets, 1)[0]
        betas = [0.3, 1.0, 7.0, rng.uniform(0.1, 10.0, d)]
        for w in range(2, d + 1):
            shares = rc._shares(log_p, log_p.max(axis=0), targets, w)
            cuts = np.cumsum([0] + [share[2].shape[1] for share in shares])
            for beta in betas:
                parts = [rc._gap(share, beta if np.isscalar(beta) else beta[lo:hi])
                         for share, lo, hi in zip(shares, cuts, cuts[1:])]
                assert np.array_equal(np.concatenate(parts), rc._gap(whole, beta))


class TestFrozenMap:
    @given(temperature_cases(), st.integers(0, 2**32 - 1), st.sampled_from(["aj", "ts"]))
    def test_one_map_applied_to_two_bundles_property(self, case, seed, method):
        cohort, bundle, grid = case
        fit, apply = (fit_aj_offsets, apply_offsets) if method == "aj" else (fit_temperature, apply_temperature)
        rmap = fit(cohort, bundle, grid)
        # a second bundle on the same grid, every CIF scaled down
        scale = np.random.default_rng(seed).uniform(0.5, 1.0, bundle.values.shape[:2] + (1,))
        other = make_bundle(bundle.grid.times, bundle.values * scale, bundle.sample_ids)
        fitted = rmap.offsets if method == "aj" else rmap.temperatures
        kept = fitted.copy()

        first, second = apply(bundle, rmap).repairs, apply(other, rmap).repairs
        # each count is the one the bundle gets from a map applied to it alone
        assert first == apply(bundle, fit(cohort, bundle, grid)).repairs
        assert second == apply(other, fit(cohort, bundle, grid)).repairs
        assert np.array_equal(fitted, kept)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rmap.grid = TimeGrid(np.array([1.0]))


class TestEventLeftAtZero:
    """An application that leaves some sample's event at zero everywhere
    gives it the smallest positive terminal CIF and counts that as a repair,
    so valid input yields a valid bundle."""

    TINY = np.nextafter(0.0, 1.0)

    def test_temperature_underflow(self):
        bundle = make_bundle([1.0, 2.0], [[[0.2, 0.3]], [[0.5, 0.6]]])
        rmap = RecalibrationMap(TEMPERATURE, bundle.grid, temperatures=np.array([1000.0, 1000.0]))
        out = apply_temperature(bundle, rmap)
        # (0.3 / 0.7) ** 1000 underflows, so sample 0's event share is 0
        assert out.values[0, 0].tolist() == [0.0, self.TINY]
        assert out.values[1, 0].tolist() == [0.5, 1.0 - _SUM_HEADROOM]
        assert out.repairs == 2  # sample 1's saturated sum and sample 0's terminal lift

    def test_offsets_clip_a_sample_to_zero(self):
        bundle = make_bundle([1.0, 2.0], [[[0.02, 0.05]], [[0.5, 0.6]]])
        rmap = RecalibrationMap(AJ_OFFSET, bundle.grid, offsets=np.array([[0.2, 0.2], [-0.2, -0.2]]))
        out = apply_offsets(bundle, rmap)
        assert out.values[0, 0].tolist() == [0.0, self.TINY]
        assert np.array_equal(out.values[1], bundle.values[1] - 0.2)
        assert out.repairs == 3  # two clipped values and the terminal lift


class TestRecalibrationMap:
    @pytest.mark.parametrize("method, fields, message", [
        *((TEMPERATURE, {"temperatures": np.array([1.0, bad])}, "temperatures must be finite and positive")
          for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0)),
        ("platt", {}, "unknown recalibration method 'platt'"),
        (AJ_OFFSET, {}, "offsets must align with the grid"),
        (AJ_OFFSET, {"offsets": np.zeros((2, 3))}, "offsets must align with the grid"),
        (AJ_OFFSET, {"offsets": np.array([[0.0, np.nan], [0.0, 0.0]])}, "offsets must be finite"),
        (TEMPERATURE, {"temperatures": np.ones(3)}, "temperatures must align with the grid"),
    ])
    def test_rejects(self, method, fields, message):
        grid = TimeGrid(np.array([1.0, 2.0]))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            RecalibrationMap(method, grid, **fields)
