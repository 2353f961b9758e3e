"""Weibull competing-risks generator and exact conditional-CIF oracle.

Each sample draws per-event Weibull scale and shape parameters from
configured ranges; latent event times are Weibull, censoring is
exponential with scale 1.5 times the mean first-event time (estimated
once per run from a seeded pre-sample). The oracle evaluates the true
conditional CIFs

    F_k(t | x) = integral_0^t h_k(s) exp(-H(s)) ds,
    h_k(s) = (S_k / L_k) (s / L_k)^(S_k - 1),
    H(s)   = sum_j (s / L_j)^(S_j),

by composite trapezoid quadrature with 2048 panels split into a cubic-
substituted head piece (absorbs the s^(S-1) origin behavior for shapes
below 2) and a uniform body piece, both with Euler-Maclaurin endpoint
corrections; the domain is truncated where H exceeds 40 (mass below
e^-40). Absolute error is below 1e-6 across the configured ranges.
The oracle sets up every sample's mesh at once. Its table blocks go to the
workers (see ``data._run_shares``), each worker taking the next block when
it is done with one, with a workspace of its own allocated up front; each
worker's blocks hold _BLOCK // workers rows (half of _BLOCK on one worker,
which halves its memory, not its time), so the workspaces hold at most
_BLOCK rows together. A table block writes each read's sum over the
panels below it into the output. Then, with the workspaces freed, the
same workers add each read's endpoint corrections and partial panel in
tiles of at most _READ // workers cells. A value depends only on its own
row, so the output is bitwise the same for any worker count, block and
tile size.
Beside its output and two length-n vectors the oracle holds under 10 MB
whatever n is, on read grids of up to 513 times: a table block's sort,
segment and sum temporaries grow with its rows times the read times, so
the bound depends on the number of read times as well as on n.
``oracle_values``, which ``oracle_cif`` and ``oracle_bundle`` reach, and
``oracle_survival`` take finite, nonnegative read times; others raise
ValidationError.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .data import (CifBundle, Cohort, TimeGrid, _csv_id, _fmt, _run_shares, _table, _workers, check_event,
                   check_integer, quantile_grid)
from .errors import ValidationError

N_HEAD = 512
N_BODY = 1536
H_CUT = 40.0
_BLOCK = 64  # rows of the table blocks live at once, across all workers
_READ = 8192  # (row, read time) cells of the read tiles live at once, across all workers

DEFAULT_SCALE_RANGES = ((0.4, 0.9), (1.0, 1.0), (1.2, 3.0))
DEFAULT_SHAPE_RANGES = ((1.0, 20.0), (1.0, 10.0), (1.5, 5.0))


@dataclass(frozen=True)
class WeibullConfig:
    """Parameter ranges of the three-event Weibull generator."""

    scale_ranges: tuple[tuple[float, float], ...] = DEFAULT_SCALE_RANGES
    shape_ranges: tuple[tuple[float, float], ...] = DEFAULT_SHAPE_RANGES
    censoring_scale: float | None = None

    def __post_init__(self):
        if len(self.scale_ranges) != len(self.shape_ranges) or not self.scale_ranges:
            raise ValidationError("scale and shape ranges must align per event")
        for lo, hi in self.scale_ranges:
            if not 0 < lo <= hi:
                raise ValidationError("scale ranges must be positive and ordered")
        for lo, hi in self.shape_ranges:
            if not 1.0 <= lo <= hi:
                raise ValidationError("shape ranges must be >= 1 and ordered")
        if self.censoring_scale is not None and not self.censoring_scale > 0:
            raise ValidationError("censoring scale must be positive")

    @property
    def k_events(self) -> int:
        return len(self.scale_ranges)


@dataclass(frozen=True)
class LatentRecord:
    """One sample's latent parameters and outcome.

    The observed record derives as T = min(true_time, censor_time) and
    event = true_event if the true time came first, else 0.
    """

    lambdas: tuple[float, ...]
    shapes: tuple[float, ...]
    true_time: float
    true_event: int
    censor_time: float


def _draw_params(rng: np.random.Generator, config: WeibullConfig, n: int):
    k = config.k_events
    lams = np.empty((n, k))
    shapes = np.empty((n, k))
    for j in range(k):
        lo, hi = config.scale_ranges[j]
        lams[:, j] = lo if lo == hi else rng.uniform(lo, hi, size=n)
        lo, hi = config.shape_ranges[j]
        shapes[:, j] = lo if lo == hi else rng.uniform(lo, hi, size=n)
    return lams, shapes


def _draw_event_times(rng: np.random.Generator, lams: np.ndarray, shapes: np.ndarray) -> np.ndarray:
    return lams * rng.weibull(shapes)


def generate_cohort(config: WeibullConfig, n: int, seed: int) -> tuple[Cohort, list[LatentRecord]]:
    """Draw a cohort of n samples; deterministic for a fixed seed.

    Covariates are the non-constant generator parameters per sample, in
    the order scales-then-shapes. Returns the observed cohort plus the
    latent records needed by the oracle.
    """
    check_integer(n, "n")
    if n < 1:
        raise ValidationError("n must be at least 1")
    check_integer(seed, "seed")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    root = np.random.SeedSequence(seed)
    pre_ss, main_ss = root.spawn(2)
    lam0 = config.censoring_scale
    if lam0 is None:
        pre = np.random.default_rng(pre_ss)
        lams_p, shapes_p = _draw_params(pre, config, 10_000)
        lam0 = 1.5 * float(_draw_event_times(pre, lams_p, shapes_p).min(axis=1).mean())
    rng = np.random.default_rng(main_ss)
    try:
        lams, shapes = _draw_params(rng, config, n)
    except ValueError as exc:  # numpy's "Maximum allowed dimension exceeded"
        raise ValidationError(f"n = {n} is too large for an array") from exc
    event_times = _draw_event_times(rng, lams, shapes)
    tstar = event_times.min(axis=1)
    dstar = event_times.argmin(axis=1) + 1
    censor = rng.exponential(scale=lam0, size=n)
    observed = tstar <= censor
    times = np.where(observed, tstar, censor)
    events = np.where(observed, dstar, 0)
    cov_cols = [lams[:, j] for j in range(config.k_events) if config.scale_ranges[j][0] != config.scale_ranges[j][1]]
    cov_cols += [shapes[:, j] for j in range(config.k_events) if config.shape_ranges[j][0] != config.shape_ranges[j][1]]
    covariates = np.column_stack(cov_cols) if cov_cols else None
    cohort = Cohort(
        ids=tuple(str(i + 1) for i in range(n)),
        times=times,
        events=events,
        k_events=config.k_events,
        covariates=covariates,
    )
    fields = (zip(*lams.T.tolist()), zip(*shapes.T.tolist()), tstar.tolist(), dstar.tolist(), censor.tolist())
    return cohort, list(map(LatentRecord, *fields))


def latent_arrays(latents) -> tuple[np.ndarray, np.ndarray]:
    """Stack latent parameters into (n, K) scale and shape matrices."""
    if not latents:
        raise ValidationError("no latent records")
    lams = np.asarray([rec.lambdas for rec in latents], dtype=float)
    shapes = np.asarray([rec.shapes for rec in latents], dtype=float)
    return lams, shapes


def _cum_hazard(lams: np.ndarray, shapes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """H(s) for s of shape (c,); lams, shapes of shape (c, K), or any that broadcast so."""
    with np.errstate(over="ignore"):
        return ((s[..., None] / lams) ** shapes).sum(axis=-1)

def _hazard_inverse(lams: np.ndarray, shapes: np.ndarray, target: float, hi: np.ndarray) -> np.ndarray:
    """Solve H(s) = target per sample by bisection on [0, hi]."""
    lo = np.zeros_like(hi)
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        over = _cum_hazard(lams, shapes, mid) > target
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    return hi


def _integrand(lams, shapes, s):
    """Integrands f_k(s) and their derivatives f_k'(s) at positive nodes.

    lams, shapes: (c, K); s: (c, m) with s > 0; both results (c, K, m).
    Everything derives from one power per event and node,
    P_j = (s / L_j)^(S_j): with Q_j = S_j P_j,

        f_k  = Q_k / s * exp(-sum_j P_j),
        f_k' = f_k * ((S_k - 1) - sum_j Q_j) / s.

    Overflowing P (far past the survival support) is clamped; there the
    exponential factor drives f below 1e-20, which the quadrature treats
    as zero mass.
    """
    sh = shapes[:, :, None]
    with np.errstate(over="ignore"):
        q = np.minimum(np.power(s[:, None, :] / lams[:, :, None], sh), 1e300)
        eos = np.exp(-np.minimum(q.sum(axis=1), 745.0)) / s
        q *= sh                          # q now holds Q_k = S_k P_k
        f = q * eos[:, None, :]
        fp = (sh - 1.0 - q.sum(axis=1)[:, None, :]) * f / s[:, None, :]
    return f, fp


def _workspaces(w: int, c: int, k: int) -> list:
    """w sets of node buffers, each reused across row blocks of up to c
    samples; they share one set of mesh constants."""
    v = np.linspace(0.0, 1.0, N_HEAD + 1)[1:]
    mesh = {"log_v3": 3.0 * np.log(v), "head_w": 1.5 / N_HEAD / v, "w": np.linspace(0.0, 1.0, N_BODY + 1)}
    return [{**mesh, "log_s": np.empty((c, N_HEAD + N_BODY + 1)),
             "nodes": np.zeros((c, k, N_HEAD + N_BODY + 2))}  # a zero, then the weighted nodes
            for _ in range(w)]


def _positions(read_times, s1, s_hi):
    """Each read's analytic mesh position for reads (c, m) on meshes (s1,
    s_hi): its head and body fractions, whether it lies in the head, the
    panel i0 below it, and whether it lies past the truncated domain."""
    # each fraction is clipped to [0, 1] with a NaN (0 / 0) taken as 1
    with np.errstate(divide="ignore", invalid="ignore"):
        frac_head = np.cbrt(np.fmax(np.fmin(read_times / s1[:, None], 1.0), 0.0))
        frac_body = np.fmax(np.fmin((read_times - s1[:, None]) / (s_hi - s1)[:, None], 1.0), 0.0)
    in_head = read_times <= s1[:, None]
    pos = np.where(in_head, frac_head * N_HEAD, N_HEAD + frac_body * N_BODY)
    i0 = np.clip(pos.astype(np.int64), 0, N_HEAD + N_BODY - 1)
    return frac_head, frac_body, in_head, i0, read_times > s_hi[:, None] * (1.0 + 1e-12)


def _panel_sums(lams, shapes, read_times, s1, s_hi, ws, out):
    """Write into ``out`` (c, K, m) one row block's trapezoid sums over the
    panels below each read's panel i0, or over all panels past the truncated
    domain. A node holds f_k / S_k times its trapezoid weight, so a panel's
    sum is its two nodes' sum: with the nodes led by a zero as Y and
    A(c) = sum(Y[:c]), the sum below panel b is 2 A(c) + Y[c] at c = b in the
    head, and at c = b + 1 in the body less the body's and the head's node at
    s1. A comes from segment sums between the row's sorted cuts
    (``np.add.reduceat``, which releases the interpreter lock)."""
    c, k = lams.shape
    log_s = ws["log_s"][:c]
    np.add(np.log(s1)[:, None], ws["log_v3"], out=log_s[:, :N_HEAD])
    body = log_s[:, N_HEAD:]  # built in place: two temporaries here were 0.8 MB a worker
    np.multiply((s_hi - s1)[:, None], ws["w"], out=body)
    body += s1[:, None]
    np.log(body, out=body)
    nodes = ws["nodes"][:c]
    p = nodes[:, :, 1:]
    np.subtract(log_s[:, None, :], np.log(lams)[:, :, None], out=p)
    p *= shapes[:, :, None]
    np.exp(p, out=p)  # P_k = (s / L_k)^S_k, at most H_CUT at nodes up to s_hi
    # per node: exp(-H) / s times the panel weight, the head's 1 / s = 1 / (s1 v^3)
    # folded with its Jacobian 3 s1 v^2 and half panel dv / 2 into 1.5 dv / v;
    # log s is spent, so its storage takes H on the head and H + log s on the body
    eos = log_s
    eos[:, N_HEAD:] += p[:, :, N_HEAD:].sum(axis=1)
    p[:, :, :N_HEAD].sum(axis=1, out=eos[:, :N_HEAD])
    np.exp(np.negative(eos, out=eos), out=eos)
    eos[:, :N_HEAD] *= ws["head_w"]
    eos[:, N_HEAD:] *= (0.5 / N_BODY * (s_hi - s1))[:, None]
    p *= eos[:, None, :]

    _, _, in_head, i0, truncated = _positions(read_times, s1, s_hi)
    cut = np.where(truncated, N_HEAD + N_BODY, i0) + ~in_head
    order = np.argsort(cut.astype(np.uint16), axis=1, kind="stable")  # a radix sort
    cut = np.take_along_axis(cut, order, axis=1)
    flat = np.arange(0, nodes.size, nodes.shape[2]).reshape(c, k, 1)
    flat = np.concatenate([flat, flat + cut[:, None, :]], axis=2)
    seg = np.add.reduceat(nodes.reshape(-1), flat.reshape(-1)).reshape(flat.shape)[:, :, :-1]
    # a repeated cut makes an empty segment, which gives its first node, not zero
    np.copyto(seg[:, :, 1:], 0.0, where=(cut[:, 1:] == cut[:, :-1])[:, None, :])
    sums = 2.0 * np.cumsum(seg, axis=2) + nodes.reshape(-1)[flat[:, :, 1:]]
    np.subtract(sums, (nodes[:, :, N_HEAD] + nodes[:, :, N_HEAD + 1])[:, :, None], out=sums,
                where=(cut > N_HEAD)[:, None, :])
    sums *= shapes[:, :, None]
    np.put_along_axis(out, order[:, None, :], sums, axis=2)


def _block_values(lams, shapes, read_times, s1, s_hi, base):
    """Turn ``base``, one row block's trapezoid sums from ``_panel_sums``,
    into the oracle CIF values at its per-sample read times (c, m), in place.

    ``s1`` and ``s_hi`` are the block's mesh: its head piece ends at s1 and
    its domain at s_hi. Each sum is read with Euler-Maclaurin endpoint
    corrections and a partial-panel trapezoid.
    """
    m = read_times.shape[1]
    dv = 1.0 / N_HEAD
    db = (s_hi - s1) / N_BODY
    frac_head, frac_body, in_head, i0, truncated = _positions(read_times, s1, s_hi)

    # integrand and derivative at the node below each read, the read time
    # itself, and the piece boundaries (for the endpoint corrections)
    v_lo = i0 * dv
    s_lo = np.where(in_head, s1[:, None] * v_lo**3, s1[:, None] + (i0 - N_HEAD) * db[:, None])
    extras = np.maximum(np.concatenate([s_lo, read_times, s1[:, None], s_hi[:, None]], axis=1), 1e-300)
    f_x, fp_x = _integrand(lams, shapes, extras)
    f_lo, f_t = f_x[:, :, :m], f_x[:, :, m:2 * m]
    fp_lo = fp_x[:, :, :m]
    f_s1, fp_s1 = f_x[:, :, 2 * m], fp_x[:, :, 2 * m]
    fp_shi = fp_x[:, :, 2 * m + 1]
    s1_3 = s1[:, None, None]

    # Euler-Maclaurin corrections at the read position; body reads carry
    # the full head correction gp(1) plus their own in-body term
    gp_lo = 6.0 * s1_3 * v_lo[:, None, :] * f_lo + 9.0 * s1_3**2 * v_lo[:, None, :] ** 4 * fp_lo
    gp_one = 6.0 * s1_3[:, :, 0] * f_s1 + 9.0 * s1_3[:, :, 0] ** 2 * fp_s1
    corr_head = dv * dv / 12.0 * gp_lo
    corr_body = (dv * dv / 12.0) * gp_one[:, :, None] + (db * db)[:, None, None] / 12.0 * (fp_lo - fp_s1[:, :, None])
    corr = np.where(in_head[:, None, :], corr_head, corr_body)

    # partial panel from the node below, in the local coordinate
    g_lo = 3.0 * s1_3 * v_lo[:, None, :] ** 2 * f_lo
    g_t = 3.0 * s1_3 * frac_head[:, None, :] ** 2 * f_t
    span_head = frac_head - v_lo
    span_body = (frac_body - (i0 - N_HEAD) / N_BODY) * (s_hi - s1)[:, None]
    span = np.clip(np.where(in_head, span_head, span_body), 0.0, None)
    partial = 0.5 * span[:, None, :] * np.where(in_head[:, None, :], g_lo + g_t, f_lo + f_t)

    vals = base - corr + partial
    # reads past the truncated domain hold the whole mesh's sum and return
    # the terminal value, so the curve stays exactly flat there
    if truncated.any():
        end_corr = (dv * dv / 12.0) * gp_one + (db * db)[:, None] / 12.0 * (fp_shi - fp_s1)
        vals = np.where(truncated[:, None, :], base - end_corr[:, :, None], vals)
    np.clip(vals, 0.0, 1.0, out=base)


def _meshes(lams, shapes, read_times):
    """Each sample's mesh (s1, s_hi): 2048 panels up to its last read time,
    the head piece ending at s1 and the domain cut at s_hi, where the total
    cumulative hazard exceeds H_CUT."""
    t_top = np.maximum(read_times.max(axis=1), 1e-30)
    h_at_top = _cum_hazard(lams, shapes, t_top)
    s_hi = np.where(h_at_top > H_CUT, _hazard_inverse(lams, shapes, H_CUT, t_top), t_top)
    return np.minimum(0.25 * lams.min(axis=1), s_hi), s_hi


def _check_read_times(times: np.ndarray) -> None:
    """Reject a read time that is negative, NaN or infinite."""
    if not ((0.0 <= times) & (times < np.inf)).all():
        raise ValidationError("read times must be finite and nonnegative")


def oracle_values(latents, read_times: np.ndarray) -> np.ndarray:
    """True CIFs for every latent record at given times.

    ``read_times`` is either a common 1-D grid, or an (n, m) matrix of
    per-sample times. Returns an (n, K, m) array.
    """
    lams, shapes = latent_arrays(latents)
    n, k = lams.shape
    read_times = np.asarray(read_times, dtype=float)
    if read_times.ndim not in (1, 2) or read_times.shape[:-1] not in ((), (n,)) or not read_times.size:
        raise ValidationError("read times must be a non-empty common grid or one row per latent")
    # checked as given, before the broadcast: a common grid costs m elements
    _check_read_times(read_times)
    m = read_times.shape[-1]
    read_times = np.broadcast_to(read_times, (n, m))
    s1, s_hi = _meshes(lams, shapes, read_times)
    # each block takes its own rows' parameters from latents, so that beside
    # the output only the (n,) meshes grow with n
    del lams, shapes
    out = np.empty((n, k, m))
    w = min(_workers(), _BLOCK)

    def deal(fn, rows, cols, spaces):
        # one worker per space, at most one per tile, each taking the output's
        # next (rows, cols) tile until none is left: the workers finish
        # together however fast each runs
        tiles = [(slice(i, i + rows), slice(j, j + cols)) for i in range(0, n, rows) for j in range(0, m, cols)]
        spaces = spaces[:len(tiles)]
        lock, tiles = threading.Lock(), iter(tiles)

        def take():
            with lock:
                return next(tiles, None)

        def share(space):
            while tile := take():
                r, t = tile
                lams, shapes = latent_arrays(latents[r])
                fn(lams, shapes, np.ascontiguousarray(read_times[r, t]), s1[r], s_hi[r], *space, out[r, :, t])

        _run_shares(share, spaces)

    # each worker's table blocks hold _BLOCK // w rows, so the workspaces
    # hold at most _BLOCK rows together. A lone worker's blocks hold half
    # that for memory, not speed: its traced peak beside the output at
    # n = 2048 fell from 5.22 to 3.58 MB at 65 read times and from 8.87 to
    # 4.51 MB at 513, and its time stayed (800 against 793 ms at n = 10,000).
    # The workspaces are made here, in the calling thread: workers that made
    # their own, in malloc arenas of their own, raised the peak RSS of eight
    # n = 2000 bench seeds by 4%
    size = max(1, _BLOCK // max(w, 2))
    deal(_panel_sums, size, m, [(ws,) for ws in _workspaces(min(w, -(-n // size)), min(n, size), k)])
    # the reads run once the workspaces are freed, in tiles of at most
    # _READ // w cells: their temporaries, per cell the largest, have the
    # memory to themselves
    cells = max(1, _READ // w)
    deal(_block_values, max(1, cells // m), min(m, cells), [()] * w)
    return out


def oracle_cif(latent: LatentRecord, k: int, t: float) -> float:
    """True F_k(t | x) for one latent record."""
    check_event(k, len(latent.lambdas))
    return float(oracle_values([latent], [t])[0, k - 1, 0])


def oracle_survival(latents, times) -> np.ndarray:
    """Closed-form survival exp(-H(t)) of each latent record at common times, shape (n, *times.shape)."""
    lams, shapes = latent_arrays(latents)
    times = np.asarray(times, dtype=float)
    _check_read_times(times)
    h = _cum_hazard(lams[:, None, :], shapes[:, None, :], times.reshape(1, -1))
    return np.exp(-np.minimum(h, 745.0)).reshape(lams.shape[0], *times.shape)


def oracle_bundle(latents, grid: TimeGrid, sample_ids=None) -> CifBundle:
    """Bundle of true CIFs on a grid, satisfying all bundle invariants."""
    values = oracle_values(latents, grid.times)
    np.maximum.accumulate(values, axis=2, out=values)
    if sample_ids is None:
        sample_ids = tuple(str(i + 1) for i in range(len(latents)))
    return CifBundle(grid, values, tuple(sample_ids))


def survival_horizon(latents, eps: float = 1e-6) -> float:
    """Smallest t with closed-form survival below eps for every sample.

    Realizes the "infinite" prediction horizon: beyond this time every
    sample's CIFs have reached their terminal mass up to eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps must lie in (0, 1)")
    lams, shapes = latent_arrays(latents)
    target = float(-np.log(eps))
    upper = np.full(lams.shape[0], 1.0)
    for _ in range(200):
        low = _cum_hazard(lams, shapes, upper) < target
        if not low.any():
            break
        upper[low] *= 2.0
    # _hazard_inverse's bisection, less each sample whose bracket lies below
    # another's: its top can no longer be the maximum, and a survivor's steps
    # are its own, so the maximum keeps its bits
    lo, hi = np.zeros_like(upper), upper
    for _ in range(70):
        keep = hi >= lo.max()
        if not keep.all():
            lams, shapes, lo, hi = lams[keep], shapes[keep], lo[keep], hi[keep]
        mid = 0.5 * (lo + hi)
        over = _cum_hazard(lams, shapes, mid) > target
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    return float(hi.max())


def oracle_grid(cohort: Cohort, latents, d: int) -> TimeGrid:
    """The cohort's quantile grid of size d, extended by the survival horizon
    of ``latents`` when that lies past the last quantile (terminal mass)."""
    grid = quantile_grid(cohort, d)
    horizon = survival_horizon(latents)
    if horizon > grid.t_max:
        return TimeGrid(np.append(grid.times, horizon))
    return grid


def square_distort(bundle: CifBundle) -> CifBundle:
    """Miscalibrated copy of a bundle: every CIF squared, survival absorbs
    the freed mass. Used to exercise the recalibration methods."""
    return CifBundle(bundle.grid, bundle.values**2, bundle.sample_ids)


def latents_to_csv(ids, latents) -> str:
    """Audit CSV ``id,l1,..,s1,..,tstar,dstar,ctime`` of latent records."""
    if len(ids) != len(latents):
        raise ValidationError("ids must align with latent records")
    k = len(latents[0].lambdas)
    head = ["id"] + [f"l{j + 1}" for j in range(k)] + [f"s{j + 1}" for j in range(k)]
    head += ["tstar", "dstar", "ctime"]
    rows = (
        [_csv_id(str(sid)), *map(_fmt, rec.lambdas), *map(_fmt, rec.shapes),
         _fmt(rec.true_time), str(rec.true_event), _fmt(rec.censor_time)]
        for sid, rec in zip(ids, latents)
    )
    return _table(head, rows)
