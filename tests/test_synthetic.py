import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crcal.synthetic as syn
from crcal.data import Cohort, TimeGrid, quantile_grid
from crcal.errors import ValidationError
from crcal.synthetic import (
    LatentRecord,
    WeibullConfig,
    generate_cohort,
    latents_to_csv,
    oracle_bundle,
    oracle_cif,
    oracle_grid,
    oracle_survival,
    oracle_values,
    square_distort,
    survival_horizon,
)


def equal_shape_cif(lams, shape, k, t):
    """Closed form when all shapes coincide: with R = sum_j L_j^-S,
    F_k(t) = (L_k^-S / R) (1 - exp(-R t^S))."""
    rate = sum(l ** -shape for l in lams)
    return (lams[k] ** -shape / rate) * (1.0 - np.exp(-rate * t**shape))


def buffered_f_nodes(lams, shapes, s, out, eos):
    """Integrand values f_k at positive nodes, written into ``out``."""
    sh = shapes[:, :, None]
    with np.errstate(over="ignore"):
        np.divide(s[:, None, :], lams[:, :, None], out=out)
        np.power(out, sh, out=out)
        np.minimum(out, 1e300, out=out)
        out.sum(axis=1, out=eos)
        np.minimum(eos, 745.0, out=eos)
        np.negative(eos, out=eos)
        np.exp(eos, out=eos)
        eos /= s
        out *= sh
        out *= eos[:, None, :]
    return out


def f_and_fprime(lams, shapes, s):
    """Integrands f_k(s) and derivatives f_k'(s) at positive nodes, with
    f_k' = f_k ((S_k - 1) - sum_j S_j P_j) / s and P_j = (s / L_j)^(S_j)."""
    sh = shapes[:, :, None]
    with np.errstate(over="ignore"):
        p = s[:, None, :] / lams[:, :, None]
        np.power(p, sh, out=p)
        np.minimum(p, 1e300, out=p)
        eos = p.sum(axis=1)
        np.minimum(eos, 745.0, out=eos)
        np.negative(eos, out=eos)
        np.exp(eos, out=eos)
        eos /= s
        p *= sh
        f = p * eos[:, None, :]
        qs = p.sum(axis=1)
        fp = p
        np.subtract(sh - 1.0, qs[:, None, :], out=fp)
        fp *= f
        fp /= s[:, None, :]
    return f, fp


def reference_workspace(c, k):
    mn = syn.N_HEAD + syn.N_BODY + 1
    v = np.linspace(0.0, 1.0, syn.N_HEAD + 1)[1:]
    return {
        "v2": v**2,
        "v3": v**3,
        "w": np.linspace(0.0, 1.0, syn.N_BODY + 1),
        "s_nodes": np.empty((c, mn)),
        "fbuf": np.empty((c, k, mn)),
        "eos": np.empty((c, mn)),
        "incr": np.empty((c, k, syn.N_HEAD + syn.N_BODY)),
        "table": np.zeros((c, k, syn.N_HEAD + syn.N_BODY + 1)),
    }


def reference_chunk_values(lams, shapes, read_times, ws):
    """The former one-level chunk: it builds the whole chunk's table at once."""
    n_head, n_body = syn.N_HEAD, syn.N_BODY
    c, k = lams.shape
    m = read_times.shape[1]
    t_top = np.maximum(read_times.max(axis=1), 1e-30)
    h_at_top = syn._cum_hazard(lams, shapes, t_top)
    s_hi = np.where(h_at_top > syn.H_CUT, syn._hazard_inverse(lams, shapes, syn.H_CUT, t_top), t_top)
    s1 = np.minimum(0.25 * lams.min(axis=1), s_hi)
    dv = 1.0 / n_head
    db = (s_hi - s1) / n_body

    s_nodes = ws["s_nodes"][:c]
    np.multiply(s1[:, None], ws["v3"][None, :], out=s_nodes[:, :n_head])
    np.multiply((s_hi - s1)[:, None], ws["w"][None, :], out=s_nodes[:, n_head:])
    s_nodes[:, n_head:] += s1[:, None]
    np.maximum(s_nodes, 1e-300, out=s_nodes)
    f = buffered_f_nodes(lams, shapes, s_nodes, ws["fbuf"][:c], ws["eos"][:c])

    g = f[:, :, :n_head] * (1.5 * dv) * s1[:, None, None] * ws["v2"][None, None, :]
    incr = ws["incr"][:c]
    incr[:, :, 0] = g[:, :, 0]
    np.add(g[:, :, :-1], g[:, :, 1:], out=incr[:, :, 1:n_head])
    np.add(f[:, :, n_head:-1], f[:, :, n_head + 1:], out=incr[:, :, n_head:])
    incr[:, :, n_head:] *= (0.5 * db)[:, None, None]
    table = ws["table"][:c]
    np.cumsum(incr, axis=2, out=table[:, :, 1:])

    with np.errstate(divide="ignore", invalid="ignore"):
        frac_head = np.cbrt(np.clip(read_times / s1[:, None], 0.0, 1.0))
        frac_body = np.clip((read_times - s1[:, None]) / (s_hi - s1)[:, None], 0.0, 1.0)
    frac_head = np.nan_to_num(frac_head, nan=1.0)
    frac_body = np.nan_to_num(frac_body, nan=1.0)
    in_head = read_times <= s1[:, None]
    pos = np.where(in_head, frac_head * n_head, n_head + frac_body * n_body)
    i0 = np.clip(pos.astype(np.int64), 0, n_head + n_body - 1)
    base = np.take_along_axis(table, np.broadcast_to(i0[:, None, :], (c, k, m)), axis=2)

    v_lo = i0 * dv
    s_lo = np.where(in_head, s1[:, None] * v_lo**3, s1[:, None] + (i0 - n_head) * db[:, None])
    extras = np.maximum(np.concatenate([s_lo, read_times, s1[:, None], s_hi[:, None]], axis=1), 1e-300)
    f_x, fp_x = f_and_fprime(lams, shapes, extras)
    f_lo, f_t = f_x[:, :, :m], f_x[:, :, m:2 * m]
    fp_lo = fp_x[:, :, :m]
    f_s1, fp_s1 = f_x[:, :, 2 * m], fp_x[:, :, 2 * m]
    fp_shi = fp_x[:, :, 2 * m + 1]
    s1_3 = s1[:, None, None]

    gp_lo = 6.0 * s1_3 * v_lo[:, None, :] * f_lo + 9.0 * s1_3**2 * v_lo[:, None, :] ** 4 * fp_lo
    gp_one = 6.0 * s1_3[:, :, 0] * f_s1 + 9.0 * s1_3[:, :, 0] ** 2 * fp_s1
    corr_head = dv * dv / 12.0 * gp_lo
    corr_body = (dv * dv / 12.0) * gp_one[:, :, None] + (db * db)[:, None, None] / 12.0 * (fp_lo - fp_s1[:, :, None])
    corr = np.where(in_head[:, None, :], corr_head, corr_body)

    g_lo = 3.0 * s1_3 * v_lo[:, None, :] ** 2 * f_lo
    g_t = 3.0 * s1_3 * frac_head[:, None, :] ** 2 * f_t
    span_head = frac_head - v_lo
    span_body = (frac_body - (i0 - n_head) / n_body) * (s_hi - s1)[:, None]
    span = np.clip(np.where(in_head, span_head, span_body), 0.0, None)
    partial = 0.5 * span[:, None, :] * np.where(in_head[:, None, :], g_lo + g_t, f_lo + f_t)

    vals = base - corr + partial
    end_val = table[:, :, -1] - (dv * dv / 12.0) * gp_one - (db * db)[:, None] / 12.0 * (fp_shi - fp_s1)
    truncated = read_times > s_hi[:, None] * (1.0 + 1e-12)
    if truncated.any():
        vals = np.where(truncated[:, None, :], end_val[:, :, None], vals)
    return np.clip(vals, 0.0, 1.0)


def reference_oracle_values(latents, read_times):
    """The slow reference oracle: 256-row chunks, each with its whole table."""
    lams, shapes = syn.latent_arrays(latents)
    n, k = lams.shape
    m = read_times.shape[-1]
    out = np.empty((n, k, m))
    ws = reference_workspace(min(n, 256), k)
    for start in range(0, n, 256):
        stop = min(start + 256, n)
        rt = read_times if read_times.ndim == 2 else np.broadcast_to(read_times, (n, m))
        rt = np.ascontiguousarray(rt[start:stop])
        out[start:stop] = reference_chunk_values(lams[start:stop], shapes[start:stop], rt, ws)
    return out


@st.composite
def oracle_reads(draw):
    """Latent records of n samples and K events, n at the row-block edges and
    past the reference's 256-row chunk, with a common grid or per-sample
    (n, m) read times. The times run from zero to far past every sample's
    truncated domain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 31, 32, 33, 63, 64, 65, 257]))
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    lams = rng.uniform(0.4, 3.0, (n, k))
    shapes = rng.uniform(1.0, 20.0, (n, k))
    latents = [LatentRecord(tuple(l), tuple(s), 1.0, 1, 1.0) for l, s in zip(lams, shapes)]
    shape = (m,) if draw(st.booleans()) else (n, m)
    times = np.exp(rng.uniform(np.log(1e-4), np.log(1e3), shape))
    times.flat[0] = draw(st.sampled_from([0.0, 1e-300, 1e6]))
    return latents, times


def unpruned_horizon(latents, eps):
    """survival_horizon's slow form: the doubled brackets, then _hazard_inverse
    over every sample."""
    lams, shapes = syn.latent_arrays(latents)
    target = float(-np.log(eps))
    upper = np.full(len(latents), 1.0)
    for _ in range(200):
        low = syn._cum_hazard(lams, shapes, upper) < target
        if not low.any():
            break
        upper[low] *= 2.0
    return float(syn._hazard_inverse(lams, shapes, target, upper).max())


@st.composite
def horizon_cases(draw):
    """Latent records of n samples and K events, some of them repeated, so
    that samples tie, and an eps in (0, 1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 300)), draw(st.integers(1, 4))
    lams = rng.uniform(0.05, 5.0, (n, k))
    shapes = rng.uniform(1.0, 20.0, (n, k))
    rows = rng.integers(0, n, n) if draw(st.booleans()) else np.arange(n)
    latents = [LatentRecord(tuple(lams[i]), tuple(shapes[i]), 1.0, 1, 1.0) for i in rows]
    return latents, draw(st.floats(1e-15, 0.999))


@st.composite
def integrand_nodes(draw):
    """Weibull parameters of c samples and K events with positive nodes that
    run from the clamped origin 1e-300 to far past the survival support."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, k, m = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(3, 40))
    lams = rng.uniform(0.4, 3.0, (c, k))
    shapes = rng.uniform(1.0, 20.0, (c, k))
    s = np.sort(np.exp(rng.uniform(np.log(1e-6), np.log(10.0), (c, m))), axis=1)
    s[:, 0], s[:, -1] = 1e-300, 1e20
    return lams, shapes, s


class TestIntegrandKernel:
    @given(integrand_nodes())
    def test_matches_old_kernels(self, case):
        lams, shapes, s = case
        f, fp = syn._integrand(lams, shapes, s)
        want_f, want_fp = f_and_fprime(lams, shapes, s)
        assert np.array_equal(f, want_f) and np.array_equal(fp, want_fp)
        assert np.array_equal(f, buffered_f_nodes(lams, shapes, s, np.empty_like(f), np.empty_like(s)))


class TestGenerate:
    def test_deterministic(self):
        cfg = WeibullConfig()
        a, la = generate_cohort(cfg, 1000, seed=1)
        b, lb = generate_cohort(cfg, 1000, seed=1)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.events, b.events)
        assert la[5] == lb[5]
        c, _ = generate_cohort(cfg, 1000, seed=2)
        assert not np.array_equal(a.times, c.times)

    def test_exponential_minimum_mean(self):
        # all shapes 1: latent times exponential, min of three has mean L/3
        lam = 0.8
        cfg = WeibullConfig(
            scale_ranges=((lam, lam),) * 3,
            shape_ranges=((1.0, 1.0),) * 3,
            censoring_scale=1e12,
        )
        _, latents = generate_cohort(cfg, 100_000, seed=3)
        tstar = np.array([r.true_time for r in latents])
        assert tstar.mean() == pytest.approx(lam / 3, rel=0.05)

    def test_huge_censoring_scale_means_no_censoring(self):
        cfg = WeibullConfig(censoring_scale=1e12)
        cohort, _ = generate_cohort(cfg, 2000, seed=4)
        assert (cohort.events == 0).sum() == 0

    def test_default_censoring_rate_is_moderate(self):
        cohort, _ = generate_cohort(WeibullConfig(), 5000, seed=5)
        frac = (cohort.events == 0).mean()
        assert 0.2 < frac < 0.7

    @pytest.mark.parametrize("n, seed, message", [
        (10, -1, "seed must be nonnegative"),
        (0, 1, "n must be at least 1"),
        (2.5, 1, "n must be an integer, got 2.5"),
        (True, 1, "n must be an integer, got True"),
        (10, 2.5, "seed must be an integer, got 2.5"),
        (10, False, "seed must be an integer, got False"),
        (10**20, 1, "n = 100000000000000000000 is too large for an array"),
    ])
    def test_bad_size_or_seed_rejected(self, n, seed, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            generate_cohort(WeibullConfig(), n, seed=seed)

    @pytest.mark.parametrize("fields, message", [
        *(({"censoring_scale": scale}, "censoring scale must be positive") for scale in (float("nan"), 0.0, -1.0)),
        ({"scale_ranges": ((0.4, 0.9),)}, "scale and shape ranges must align per event"),
        ({"scale_ranges": (), "shape_ranges": ()}, "scale and shape ranges must align per event"),
        ({"scale_ranges": ((0.4, 0.9), (0.0, 1.0), (1.2, 3.0))}, "scale ranges must be positive and ordered"),
        ({"scale_ranges": ((0.9, 0.4), (1.0, 1.0), (1.2, 3.0))}, "scale ranges must be positive and ordered"),
        ({"shape_ranges": ((1.0, 20.0), (0.5, 10.0), (1.5, 5.0))}, "shape ranges must be >= 1 and ordered"),
    ])
    def test_config_rejected(self, fields, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            WeibullConfig(**fields)

    def test_covariates_skip_constant_parameters(self):
        cohort, _ = generate_cohort(WeibullConfig(), 50, seed=6)
        # lambda_2 is constant in the default config: 2 scales + 3 shapes
        assert cohort.covariates.shape == (50, 5)


class TestOracleCif:
    def test_unit_exponential_value(self):
        rec = LatentRecord((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0.1, 1, 1.0)
        assert oracle_cif(rec, 1, 1.0) == pytest.approx((1 - np.exp(-3)) / 3, abs=1e-9)
        assert oracle_cif(rec, 1, 1.0) == pytest.approx(0.316738, abs=5e-7)

    def test_symmetric_parameters(self):
        rec = LatentRecord((0.7, 0.7, 0.7), (2.5, 2.5, 2.5), 0.1, 1, 1.0)
        vals = [oracle_cif(rec, k, 1.3) for k in (1, 2, 3)]
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)
        assert vals[1] == pytest.approx(vals[2], abs=1e-12)

    def test_zero_time(self):
        rec = LatentRecord((0.5, 1.0, 2.0), (3.0, 1.5, 2.0), 0.1, 1, 1.0)
        assert oracle_cif(rec, 2, 0.0) == 0.0

    # the event is checked by check_event, the time by oracle_values
    @pytest.mark.parametrize("k, t", [(0, 1.0), (4, 1.0), (0, 0.0), (1, np.nan), (1, np.inf), (1, -1.0)])
    def test_rejects_an_event_outside_one_to_k_or_a_bad_time(self, k, t):
        rec = LatentRecord((0.5, 1.0, 2.0), (3.0, 1.5, 2.0), 0.1, 1, 1.0)
        with pytest.raises(ValidationError):
            oracle_cif(rec, k, t)

    def test_equal_shape_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lams = tuple(rng.uniform(0.4, 3.0, 3))
            shape = float(rng.uniform(1.0, 8.0))
            rec = LatentRecord(lams, (shape,) * 3, 0.1, 1, 1.0)
            t = float(rng.uniform(0.05, 6.0))
            k = int(rng.integers(0, 3))
            assert oracle_cif(rec, k + 1, t) == pytest.approx(
                equal_shape_cif(lams, shape, k, t), abs=1e-6
            )

    def test_step_doubling(self, monkeypatch):
        # halving every panel must not move any value by more than 1e-6
        _, latents = generate_cohort(WeibullConfig(), 40, seed=8)
        times = np.linspace(0.05, 4.0, 17)
        coarse = oracle_values(latents, times)
        monkeypatch.setattr(syn, "N_HEAD", 2 * syn.N_HEAD)
        monkeypatch.setattr(syn, "N_BODY", 2 * syn.N_BODY)
        fine = oracle_values(latents, times)
        assert np.abs(coarse - fine).max() < 1e-6


class TestOracleBundle:
    def test_single_latent_single_time(self):
        rec = LatentRecord((0.5, 1.0, 2.0), (3.0, 1.5, 2.0), 0.1, 1, 1.0)
        bundle = oracle_bundle([rec], TimeGrid(np.array([1.0])))
        assert bundle.values.shape == (1, 3, 1)

    # n == m: a grid as long as the sample count is still a common grid
    @pytest.mark.parametrize("n, m", [(300, 40), (40, 40)])
    def test_conservation_against_closed_form_survival(self, n, m):
        _, latents = generate_cohort(WeibullConfig(), n, seed=9)
        grid = np.linspace(0.03, 6.0, m)
        vals = oracle_values(latents, grid)
        surv = oracle_survival(latents, grid)
        assert surv.shape == (n, m)
        assert np.abs(vals.sum(axis=1) + surv - 1.0).max() < 1e-5

    def test_horizon_realizes_terminal_mass(self):
        _, latents = generate_cohort(WeibullConfig(), 200, seed=10)
        horizon = survival_horizon(latents, eps=1e-6)
        assert oracle_survival(latents, horizon).max() <= 1e-6 * 1.0001
        bundle = oracle_bundle(latents, TimeGrid(np.array([0.5, horizon])))
        assert bundle.values[:, :, -1].sum(axis=1).min() >= 1 - 1e-5

    # the search drops each sample whose bracket lies below another's
    @settings(max_examples=100, deadline=None)
    @given(horizon_cases())
    def test_horizon_equals_the_unpruned_search(self, case):
        latents, eps = case
        assert survival_horizon(latents, eps) == unpruned_horizon(latents, eps)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0, -1.0, np.nan])
    def test_horizon_rejects_eps_outside_zero_one(self, eps):
        _, latents = generate_cohort(WeibullConfig(), 200, seed=10)
        with pytest.raises(ValidationError, match="eps"):
            survival_horizon(latents, eps=eps)

    def test_oracle_grid_appends_a_later_horizon(self):
        cohort, latents = generate_cohort(WeibullConfig(), 200, seed=10)
        grid = oracle_grid(cohort, latents, 16)
        assert grid.times[:-1].tolist() == quantile_grid(cohort, 16).times.tolist()
        assert grid.t_max == survival_horizon(latents) > cohort.times.max()

    def test_oracle_grid_keeps_a_quantile_grid_past_the_horizon(self):
        _, latents = generate_cohort(WeibullConfig(), 3, seed=10)
        late = 2.0 * survival_horizon(latents)
        cohort = Cohort(("1", "2", "3"), np.array([0.5, 1.0, late]), np.array([1, 0, 2]), 3)
        assert oracle_grid(cohort, latents, 16).times.tolist() == [0.5, 1.0, late]

    def test_event_frequencies_match_terminal_mass(self):
        cfg = WeibullConfig(censoring_scale=1e12)
        cohort, latents = generate_cohort(cfg, 100_000, seed=11)
        freq = np.bincount(cohort.events, minlength=4)[1:] / cohort.n
        sub = latents[:5000]
        horizon = survival_horizon(sub, eps=1e-6)
        terminal = oracle_values(sub, np.array([horizon]))[:, :, 0].mean(axis=0)
        assert np.abs(freq - terminal).max() < 0.01


class TestOracleReadTimes:
    # a common grid or one row per latent, each time finite and nonnegative;
    # the closed-form survival takes times of any shape, scalars included,
    # under the same rule for each time
    @pytest.mark.parametrize("entry, times", [
        pytest.param(oracle_values, np.array([0.5, np.nan]), id="nan"),
        pytest.param(oracle_values, np.array([0.5, np.inf]), id="inf"),
        pytest.param(oracle_values, np.array([-0.5, 1.0]), id="negative"),
        pytest.param(oracle_values, np.full((5, 2), 0.5) + [0.0, np.inf], id="per-sample-inf"),
        pytest.param(oracle_values, np.array(0.5), id="scalar"),
        pytest.param(oracle_values, np.array([]), id="empty"),
        pytest.param(oracle_values, np.full((4, 2), 0.5), id="too-few-rows"),
        pytest.param(oracle_values, np.full((5, 2, 1), 0.5), id="three-d"),
        pytest.param(oracle_survival, [-1.0], id="survival-negative"),
        pytest.param(oracle_survival, [0.5, np.nan], id="survival-nan"),
        pytest.param(oracle_survival, np.inf, id="survival-inf"),
    ])
    def test_rejects(self, entry, times):
        _, latents = generate_cohort(WeibullConfig(), 5, seed=12)
        with pytest.raises(ValidationError, match="read times"):
            entry(latents, times)


class TestAgainstReferenceOracle:
    # live table rows (_BLOCK) and read cells (_READ): the default, then one,
    # three and seven, which leave a partial last block or tile at most sizes;
    # workers: the default count (ids without a worker count), then one, two,
    # three and seven, which cut the live rows into smaller blocks, deal some
    # workers a block fewer than others and, at small n, outnumber the blocks
    @pytest.mark.parametrize("block, workers", [
        pytest.param(block, workers, id=str(block) if workers is None else f"{block}-{workers}")
        for workers in (None, 1, 2, 3, 7) for block in (None, 1, 3, 7)
    ])
    @settings(max_examples=40, deadline=None)
    @given(oracle_reads())
    def test_bitwise_equal(self, block, workers, case):
        latents, times = case
        want = oracle_values(latents, times)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(syn, "_BLOCK", block)
                patch.setattr(syn, "_READ", block)
            if workers is not None:
                patch.setattr(syn, "_workers", lambda: workers)
            got = oracle_values(latents, times)
        assert np.array_equal(got, want)

    def test_every_tile_is_taken_once_under_frequent_switches(self, monkeypatch):
        # seven workers share 1-row blocks and 3-cell read tiles while the
        # interpreter switches threads every microsecond
        _, latents = generate_cohort(WeibullConfig(), 120, seed=16)
        grid = np.linspace(0.0, 5.0, 9)
        want = oracle_values(latents, grid)
        monkeypatch.setattr(syn, "_BLOCK", 7)
        monkeypatch.setattr(syn, "_READ", 21)
        monkeypatch.setattr(syn, "_workers", lambda: 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = oracle_values(latents, grid)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    # the oracle adds each row's panels in segments between its reads, the
    # reference in one running table; in runs of 400 drawn cases the largest
    # move was at most 5.8e-15
    @settings(max_examples=100, deadline=None)
    @given(oracle_reads())
    def test_within_bound_of_reference(self, case):
        latents, times = case
        assert np.abs(oracle_values(latents, times) - reference_oracle_values(latents, times)).max() <= 1e-13


@st.composite
def reordered_reads(draw):
    """Latent records, sorted distinct read times (a common grid or one row
    per sample) that start at zero and run far past every sample's truncated
    domain, and indices that permute and repeat them, each time at least
    once. Some draws hold more times than the oracle has nodes, so that many
    times share a panel."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    m = int(rng.integers(2050, 2100)) if draw(st.booleans()) else draw(st.integers(2, 12))
    lams = rng.uniform(0.4, 3.0, (n, k))
    shapes = rng.uniform(1.0, 20.0, (n, k))
    latents = [LatentRecord(tuple(l), tuple(s), 1.0, 1, 1.0) for l, s in zip(lams, shapes)]
    rows = 1 if draw(st.booleans()) else n
    times = np.sort(np.exp(rng.uniform(np.log(1e-4), np.log(1e3), (rows, m))), axis=1)
    times[:, 0], times[:, -1] = 0.0, 1e6
    extra = draw(st.integers(0, 12))
    idx = np.stack([rng.permutation(np.append(np.arange(m), rng.integers(0, m, extra))) for _ in range(rows)])
    return latents, (times[0], idx[0]) if rows == 1 else (times, idx)


class TestReadOrder:
    @settings(max_examples=60, deadline=None)
    @given(reordered_reads())
    def test_permuted_and_repeated_reads(self, case):
        # the same times read in another order, some of them repeated
        latents, (times, idx) = case
        want = oracle_values(latents, times)
        got = oracle_values(latents, np.take_along_axis(times, idx, axis=-1))
        rows = np.broadcast_to(idx, (len(latents), idx.shape[-1]))
        assert np.array_equal(got, np.take_along_axis(want, rows[:, None, :], axis=2))
        assert np.abs(want - reference_oracle_values(latents, times)).max() <= 1e-13


def _peak_beside_output(call):
    """The traced memory peak of ``call()`` less the array it returns."""
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()


class TestOracleMemory:
    def test_working_set_is_fixed_in_n(self):
        _, latents = generate_cohort(WeibullConfig(), 2048, seed=14)
        grid = np.linspace(0.05, 4.0, 65)
        small = _peak_beside_output(lambda: oracle_values(latents[:256], grid))
        large = _peak_beside_output(lambda: oracle_values(latents, grid))
        # beside the output only the (n, K) parameters and the (n,) meshes grow with n
        assert abs(large - small) < 0.25e6
        assert large < 10e6

    def test_bundle_holds_one_output_sized_array(self):
        # the running maximum and the bundle's checks add no array of the
        # output's size, which at n = 8192 (12.8 MB) would break the bound
        cohort, latents = generate_cohort(WeibullConfig(), 8192, seed=15)
        grid = oracle_grid(cohort, latents, 64)
        assert grid.d == 65
        assert _peak_beside_output(lambda: oracle_bundle(latents, grid).values) < 10e6

    def test_fine_read_grid_stays_under_the_bound(self):
        # a table block's sort, segment and sum temporaries grow with its
        # rows times the read times, so the bound is also checked on a
        # 513-time grid
        _, latents = generate_cohort(WeibullConfig(), 2048, seed=14)
        grid = np.linspace(0.05, 4.0, 513)
        assert _peak_beside_output(lambda: oracle_values(latents, grid)) < 10e6


class TestOracleWorkerMemory:
    # the workers' blocks share _BLOCK rows, so more workers than the cap
    # lets run, even more than _BLOCK, add no workspace rows
    @pytest.mark.parametrize("workers", [3, 8, 64])
    def test_peak_does_not_grow_with_workers(self, workers, monkeypatch):
        _, latents = generate_cohort(WeibullConfig(), 2048, seed=14)
        grid = np.linspace(0.05, 4.0, 65)
        monkeypatch.setattr(syn, "_workers", lambda: workers)
        assert _peak_beside_output(lambda: oracle_values(latents, grid)) < 10e6


class TestDistortAndCsv:
    def test_square_distort(self):
        _, latents = generate_cohort(WeibullConfig(), 5, seed=12)
        bundle = oracle_bundle(latents, TimeGrid(np.array([0.5, 1.0, 2.0])))
        distorted = square_distort(bundle)
        assert distorted.values == pytest.approx(bundle.values**2)

    def test_latents_csv(self):
        _, latents = generate_cohort(WeibullConfig(), 3, seed=13)
        text = latents_to_csv(["1", "2", "3"], latents)
        lines = text.splitlines()
        assert lines[0] == "id,l1,l2,l3,s1,s2,s3,tstar,dstar,ctime"
        assert len(lines) == 4
        parts = lines[1].split(",")
        assert float(parts[7]) == latents[0].true_time

    @pytest.mark.parametrize("call, message", [
        (lambda latents: latents_to_csv(["1", "2"], latents), "ids must align with latent records"),
        (lambda latents: oracle_bundle(latents[:0], TimeGrid(np.array([1.0]))), "no latent records"),
    ])
    def test_rejects_misaligned_or_missing_latents(self, call, message):
        _, latents = generate_cohort(WeibullConfig(), 3, seed=13)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call(latents)
