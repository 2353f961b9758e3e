"""Core data model: cohorts, time grids, CIF bundles, CSV ingestion.

A cohort holds observed records ``(time, event)`` with ``event = 0``
meaning censored and ``event in 1..K`` one of the K competing events.
A bundle holds per-sample, per-event cumulative incidence values on a
shared time grid; the implied survival at any time is one minus the sum
of the event CIFs there.
"""

from __future__ import annotations

import csv
import math
import os
import re
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, cycle, islice, repeat
from operator import add

import numpy as np

from .errors import ValidationError

SUM_TOL = 1e-6
_BUNDLE_COLUMNS = ["sample_id", "event", "time", "cif"]


def _fmt(x: float) -> str:
    """Format a float with 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Cohort:
    """Observed records of a competing-risks study.

    Attributes
    ----------
    ids : tuple of str
        Unique sample identifiers, in file/row order.
    times : ndarray, shape (n,)
        Nonnegative observed durations (event or censoring times).
    events : ndarray, shape (n,)
        Integer labels in ``0..k_events``; 0 marks a censored record.
    k_events : int
        Number of competing events K.
    covariates : ndarray of shape (n, d), optional
        Passthrough covariate matrix; never interpreted by this package.
    """

    ids: tuple[str, ...]
    times: np.ndarray
    events: np.ndarray
    k_events: int
    covariates: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        events = np.asarray(self.events, dtype=np.int64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events)
        if self.k_events < 1:
            raise ValidationError("k_events must be a positive integer")
        if times.ndim != 1 or events.shape != times.shape:
            raise ValidationError("times and events must be 1-D and aligned")
        if len(self.ids) != times.size:
            raise ValidationError("ids must align with records")
        if times.size and not np.all(np.isfinite(times)):
            raise ValidationError("non-finite time")
        if np.any(times < 0):
            raise ValidationError("negative time")
        if np.any((events < 0) | (events > self.k_events)):
            raise ValidationError("event label out of range 0..K")
        if self.covariates is not None:
            cov = np.asarray(self.covariates, dtype=float)
            object.__setattr__(self, "covariates", cov)
            if cov.ndim != 2 or cov.shape[0] != times.size:
                raise ValidationError("covariate row count must equal record count")

    @property
    def n(self) -> int:
        return self.times.size

    def subset(self, index: np.ndarray) -> "Cohort":
        """Select records by integer index, preserving the given order."""
        index = np.asarray(index, dtype=np.int64)
        cov = None if self.covariates is None else self.covariates[index]
        return Cohort(
            ids=tuple(self.ids[i] for i in index),
            times=self.times[index],
            events=self.events[index],
            k_events=self.k_events,
            covariates=cov,
        )


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing evaluation times; ``t_max`` is the last one."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 1:
            raise ValidationError("grid needs at least one time")
        if not np.all(np.isfinite(times)):
            raise ValidationError("grid times must be finite")
        if np.any(times <= 0):
            raise ValidationError("grid times must be positive")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("grid times must be strictly increasing")

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    @property
    def d(self) -> int:
        return self.times.size


def step_indices(grid_times: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Index of the last grid time <= t, or -1 when t precedes the grid.

    This is the shared right-continuous step convention: a curve known at
    grid times is flat between them and zero (CIF) before the first one.
    """
    return np.searchsorted(grid_times, np.asarray(t, dtype=float), side="right") - 1


def step_values(grid_times: np.ndarray, values: np.ndarray, t, before: float = 0.0) -> np.ndarray:
    """Right-continuous lookup of ``values`` (last axis on ``grid_times``) at t,
    ``before`` ahead of the grid, in one new array, even for a scalar t."""
    idx = step_indices(grid_times, t)
    out = values[..., np.maximum(idx, 0).ravel()].reshape(values.shape[:-1] + idx.shape)
    if np.any(idx < 0):
        np.copyto(out, before, where=idx < 0)
    return out


# threads a kernel runs on at most. Two are measured: on a 2-core Xeon the
# oracle at n = 10,000 on a 65-time grid takes 793 ms on one and 527 ms on
# two (README, "CPUs"). More are not: many of the oracle's and the TS fit's
# short numpy calls hold the interpreter lock, so a third thread may add
# little. The cap also keeps a CPU quota, which the affinity mask does not
# show, from meeting one thread per host CPU. Raise it with a sweep on more
# cores.
_MAX_WORKERS = 2


def _workers() -> int:
    """Threads a kernel splits into: the CPUs this process may run on (its
    affinity mask, which ``taskset`` sets), at most _MAX_WORKERS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _run_shares(fn, shares: list) -> list:
    """``[fn(share) for share in shares]``, share 0 in the calling thread and
    each other share on a pool thread of its own. Each share must write only
    what it alone owns; the gain comes from numpy kernels, which release the
    interpreter lock."""
    if len(shares) == 1:
        return [fn(shares[0])]
    with ThreadPoolExecutor(len(shares) - 1) as pool:
        rest = [pool.submit(fn, share) for share in shares[1:]]
        return [fn(shares[0]), *(future.result() for future in rest)]


def _one_row(values: np.ndarray) -> bool:
    """Whether every sample's (K, d) row has the bits of row 0: at once for a
    stride-0 view, after row 1 alone when it differs, else in one pass."""
    if values.strides[0] == 0 or len(values) < 2:
        return True
    bits = values.view(np.uint64)
    return bool(np.array_equal(bits[1], bits[0]) and (bits[2:] == bits[0]).all())


@dataclass(frozen=True)
class CifBundle:
    """Per-sample, per-event CIF values on a common grid.

    ``values[i, k-1, j]`` is the predicted probability that sample ``i``
    experiences event ``k`` by grid time ``j``. Values are validated to be
    probabilities, nondecreasing in time, jointly bounded by one, and
    strictly positive at the terminal grid time (every event must remain
    possible for every sample). Values whose rows all have the bits of row
    0 (:func:`_one_row`), such as a model that predicts one row for every
    sample, are stored as a stride-0 view of a copy of that row, and
    :attr:`rows` gives the distinct rows. ``values`` is a read-only view.
    """

    grid: TimeGrid
    values: np.ndarray
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3:
            raise ValidationError("bundle values must have shape (n, K, d)")
        n, k, d = values.shape
        if n < 1 or k < 1:
            raise ValidationError("bundle must contain samples and events")
        if d != self.grid.d:
            raise ValidationError("bundle values do not match grid length")
        if len(self.sample_ids) != n:
            raise ValidationError("sample_ids must align with values")
        # broadcast_to returns a read-only view, of the same array or of the row
        values = np.broadcast_to(values[0].copy() if _one_row(values) else values, values.shape)
        object.__setattr__(self, "values", values)
        values = self.rows
        lo, hi = values.min(), values.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("non-finite CIF value")
        if lo < 0.0 or hi > 1.0:
            raise ValidationError("CIF values must lie in [0, 1]")
        if np.any(values[:, :, 1:] < values[:, :, :-1]):
            raise ValidationError("CIF not nondecreasing along the grid")
        # nondecreasing CIFs add up to their most at the last grid time
        if np.any(values[:, :, -1].sum(axis=1) > 1.0 + SUM_TOL):
            raise ValidationError("event probabilities exceed 1")
        if np.any(values[:, :, -1] <= 0.0):
            raise ValidationError("terminal CIF must be positive for every sample and event")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k_events(self) -> int:
        return self.values.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """The distinct rows: shape (1, K, d) for a bundle stored as one row, else every row."""
        return self.values[:1] if self.values.strides[0] == 0 else self.values

    def values_at(self, t: np.ndarray) -> np.ndarray:
        """Step-evaluate all CIFs at arbitrary times, shape (n, K, len(t))."""
        return step_values(self.grid.times, self.values, t)

    def mean_at(self, t: np.ndarray) -> np.ndarray:
        """Across-sample mean CIFs at arbitrary times, shape (K, len(t))."""
        return step_values(self.grid.times, self.rows.mean(axis=0), t)

    def values_at_own_times(self, t: np.ndarray) -> np.ndarray:
        """Step-evaluate each sample's CIFs at its own time, shape (n, K)."""
        t = np.asarray(t, dtype=float)
        if t.shape != (self.n,):
            raise ValidationError("per-sample times must align with bundle samples")
        idx = step_indices(self.grid.times, t)[:, None, None]
        picked = np.take_along_axis(self.values, np.maximum(idx, 0), axis=2)
        return np.where(idx >= 0, picked, 0.0)[:, :, 0]

    def terminal(self) -> np.ndarray:
        """CIF values at t_max, shape (n, K); stands in for F_k(inf)."""
        return self.values[:, :, -1]


def check_integer(value, name: str) -> None:
    """Reject a count or seed that is not an int or a numpy integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_event(k: int, k_events: int) -> None:
    """Reject an event number outside 1..k_events."""
    if not 1 <= k <= k_events:
        raise ValidationError(f"event {k} out of range 1..{k_events}")


def check_aligned(bundle: CifBundle, cohort: Cohort) -> None:
    """Reject a bundle whose samples or event count differ from the cohort's."""
    if bundle.sample_ids != cohort.ids:
        raise ValidationError("bundle and cohort sample ids are misaligned")
    if bundle.k_events != cohort.k_events:
        raise ValidationError("bundle and cohort disagree on the number of events")


def _csv_id(sid: str) -> str:
    """An id as a CSV field: quoted, inner quotes doubled, when it holds a
    comma, a quote or a line break; any other id keeps its bytes."""
    if any(c in sid for c in ',"\r\n'):
        return '"' + sid.replace('"', '""') + '"'
    return sid


def _table(header, rows) -> str:
    """CSV text of a header and rows, each a sequence of field strings."""
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


_LINES = re.compile(r"[^\n]*\n|[^\n]+")


def _csv_records(csv_text: str, kind: str, columns: list[str], prefix: bool = False, pos: int = 0):
    """``(row_no, row)`` for each non-blank row of a cohort or bundle file,
    ``row_no`` being the file line the row starts on. The stripped header
    must equal ``columns`` (start with them when ``prefix``) and every row
    must have as many fields as the header; a malformed file raises
    ValidationError. csv is fed the text's lines one at a time, each with
    its LF, so no copy of the text is made. A ``pos`` past 0 is the start of
    a line after a header already found to be ``columns``: csv is fed the
    text from there on, and the lines before it are counted, not read."""
    reader = csv.reader(map(re.Match.group, _LINES.finditer(csv_text, pos)))
    before = csv_text.count("\n", 0, pos)  # file lines ahead of the reader's first
    try:
        if pos:
            header = columns
        else:
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"empty {kind} file")
            header = [h.strip() for h in header]
            if (header[: len(columns)] if prefix else header) != columns:
                raise ValidationError(f"{kind} header must {'start with' if prefix else 'be'} {','.join(columns)}")
        end = before + reader.line_num
        for row in reader:
            row_no, end = end + 1, before + reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                # bundle messages keep their established wording: the width alone
                got = f", got {len(row)}" if prefix else ""
                raise ValidationError(f"row {row_no}: expected {len(header)} fields{got}")
            yield row_no, row
    except csv.Error as exc:
        # csv's hint for a CR that no LF follows names Python's open modes
        bare_cr = "new-line character seen in unquoted field" in str(exc)
        detail = "bare CR line end; end lines with LF or CRLF" if bare_cr else exc
        raise ValidationError(f"line {before + reader.line_num}: malformed CSV ({detail})") from None


def parse_cohort(csv_text: str, k_events: int) -> Cohort:
    """Parse cohort CSV with header ``id,time,event[,x1,...,xd]``."""
    ids: list[str] = []
    seen: set[str] = set()
    times: list[float] = []
    events: list[int] = []
    covs: list[list[float]] = []
    for row_no, row in _csv_records(csv_text, "cohort", ["id", "time", "event"], prefix=True):
        rid = row[0].strip()
        if rid in seen:
            raise ValidationError(f"row {row_no}: duplicate id {rid!r}")
        seen.add(rid)
        try:
            t = float(row[1])
        except ValueError:
            raise ValidationError(f"row {row_no}: non-numeric time {row[1]!r}") from None
        if not math.isfinite(t):
            raise ValidationError(f"row {row_no}: time must be finite and nonnegative")
        if t < 0:
            raise ValidationError(f"row {row_no}: negative time")
        try:
            ev = int(row[2])
        except ValueError:
            raise ValidationError(f"row {row_no}: non-numeric event {row[2]!r}") from None
        if not 0 <= ev <= k_events:
            raise ValidationError(f"row {row_no}: event label out of range 0..{k_events}")
        try:
            covs.append([float(v) for v in row[3:]])
        except ValueError:
            raise ValidationError(f"row {row_no}: non-numeric covariate") from None
        ids.append(rid)
        times.append(t)
        events.append(ev)
    if not ids:
        raise ValidationError("cohort has no records")
    covariates = np.asarray(covs, dtype=float) if covs[0] else None
    return Cohort(tuple(ids), np.asarray(times), np.asarray(events), k_events, covariates)


def cohort_to_csv(cohort: Cohort) -> str:
    """Serialize a cohort; inverse of :func:`parse_cohort`."""
    d = 0 if cohort.covariates is None else cohort.covariates.shape[1]
    covs = cohort.covariates.tolist() if d else [[]] * cohort.n
    rows = (
        [_csv_id(rid), _fmt(t), str(ev), *map(_fmt, x)]
        for rid, t, ev, x in zip(cohort.ids, cohort.times.tolist(), cohort.events.tolist(), covs)
    )
    return _table(["id", "time", "event"] + [f"x{j + 1}" for j in range(d)], rows)


def parse_bundle(csv_text: str, k_events: int) -> CifBundle:
    """Parse long-format bundle CSV ``sample_id,event,time,cif``.

    Every (sample, event) pair must cover the identical set of times; the
    grid is the sorted set of distinct times. Row order is free; samples
    keep the order in which they first appear. This is the one converter:
    it takes the field columns of :func:`_field_blocks` a block at a time,
    turns each distinct id, event and time string into a value once and
    names a bad value by the first row that holds one. After the last block
    one tail builds the grid, checks that every cell is filled exactly once
    and scatters the cifs into the (n, K, d) array.
    """
    index: dict[str, int] = {}  # stripped id -> sample
    time_of: dict[str, int] = {}  # time field -> position in times
    times: list[float] = []
    row_blocks = []  # each block's row numbers, for the duplicate message
    cells, time_cols, cifs = array("q"), array("q"), array("d")
    for row_nos, ids, evs, ts, cs in _field_blocks(csv_text):
        fresh = len(times)
        try:
            event_of = {ev: int(ev) - 1 for ev in set(evs)}
            for t in set(ts).difference(time_of):
                time_of[t] = len(times)
                times.append(float(t))
            block_cifs = np.fromiter(map(float, cs), float, len(cs))
            good = (all(0 <= ev < k_events for ev in event_of.values())
                    and all(0 < t < math.inf for t in times[fresh:])
                    and 0.0 <= block_cifs.min() <= block_cifs.max() <= 1.0)
        except ValueError:
            good = False
        if not good:
            for row_no, *fields in zip(row_nos, evs, ts, cs):
                if fault := _row_fault(*fields, k_events):
                    raise ValidationError(f"row {row_no}: {fault}")
        sample_of = {sid: index.setdefault(sid.strip(), len(index)) * k_events for sid in dict.fromkeys(ids)}
        block_cells = np.fromiter(map(sample_of.__getitem__, ids), np.int64, len(ids))
        block_cells += np.fromiter(map(event_of.__getitem__, evs), np.int64, len(ids))
        cells.frombytes(block_cells.tobytes())
        time_cols.frombytes(np.fromiter(map(time_of.__getitem__, ts), np.int64, len(ids)).tobytes())
        cifs.frombytes(block_cifs.tobytes())
        row_blocks.append(row_nos)
    if not index:
        raise ValidationError("bundle has no rows")
    ids = tuple(index)
    grid_times, col = np.unique(np.array(times), return_inverse=True)
    n, d = len(ids), grid_times.size
    size = n * k_events * d
    flat = np.frombuffer(cells, dtype=np.int64) * d + col[np.frombuffer(time_cols, dtype=np.int64)]
    filled = np.zeros(size, dtype=bool)
    filled[flat] = True
    if flat.size != size or not filled.all():
        order = np.argsort(flat, kind="stable")
        repeats = order[1:][np.diff(flat[order]) == 0]
        if repeats.size:
            first = int(repeats.min())
            sample, ev = divmod(cells[first], k_events)
            row_no = next(islice(chain.from_iterable(row_blocks), first, None))
            raise ValidationError(f"row {row_no}: duplicate time for sample {ids[sample]!r} event {ev + 1}")
        sample, ev = divmod(int(np.argmin(filled)) // d, k_events)
        raise ValidationError(f"ragged grid: sample {ids[sample]!r} event {ev + 1} does not cover all times")
    values = np.empty(size)
    values[flat] = np.frombuffer(cifs)
    return CifBundle(TimeGrid(grid_times), values.reshape(n, k_events, d), ids)


def _row_fault(ev: str, t: str, cif: str, k_events: int) -> str | None:
    """What is wrong with a row's event, time and cif fields, checked in that
    order once all three read as numbers, or None."""
    try:
        ev, t, cif = int(ev), float(t), float(cif)
    except ValueError:
        return "non-numeric field"
    if not 1 <= ev <= k_events:
        return f"event label out of range 1..{k_events}"
    if not math.isfinite(t) or t <= 0:
        return "time must be positive and finite"
    if not 0.0 <= cif <= 1.0:
        return "cif outside [0, 1]"
    return None


_BLOCK = 1 << 16  # characters per slice of plain bundle text; each slice ends at a line end
_ROWS = 4096  # rows per block of a bundle read by csv, and per slice of one written


def _field_blocks(csv_text: str):
    """``(row_nos, ids, events, times, cifs)`` for each block of a bundle
    file's rows: the field strings by column, and the file lines the rows
    start on. Plain text is split with str methods in ~``_BLOCK``-character
    slices, whose row numbers are a range. Plain means no quote, CR or NUL
    (which some Python versions' csv rejects), the bundle header, three
    commas on every line and no field over csv's size limit. From the first
    slice that is not plain on, the rows come from :func:`_csv_records`,
    ``_ROWS`` at a time, which starts at that slice: with no quote in the
    text, no field spans its first line end. A block ends early where the
    reader raises, and the error follows the block, so every fault is met
    in file order."""
    start = csv_text.find("\n") + 1
    stop = len(csv_text) - csv_text.endswith("\n")
    done = 0  # rows yielded
    plain = (start and not any(c in csv_text for c in '"\r\0')
             and [h.strip() for h in csv_text[: start - 1].split(",")] == _BUNDLE_COLUMNS)
    if plain:
        limit = csv.field_size_limit()
        while start < stop:
            end = csv_text.find("\n", start + _BLOCK, stop)
            block = csv_text[start : stop if end < 0 else end]
            if set(map(str.count, block.split("\n"), repeat(","))) != {3}:
                break
            fields = block.replace("\n", ",").split(",")
            if len(block) > limit and max(map(len, fields)) > limit:
                break
            yield range(done + 2, done + 2 + len(fields) // 4), *(fields[j::4] for j in range(4))
            done += len(fields) // 4
            start += len(block) + 1
        else:
            return
    records = _csv_records(csv_text, "bundle", _BUNDLE_COLUMNS, pos=start if plain else 0)
    while True:
        row_nos, rows = array("q"), []
        try:
            for row_no, row in islice(records, _ROWS):
                row_nos.append(row_no)
                rows.append(row)
        except ValidationError:
            if rows:  # the rows read before the error go first
                yield row_nos, *zip(*rows)
            raise
        if not rows:
            return
        yield row_nos, *zip(*rows)


def bundle_to_csv(bundle: CifBundle) -> str:
    """Serialize a bundle; inverse of :func:`parse_bundle`. Each grid time and
    each (sample, event) head is formatted once, each of the bundle's
    :attr:`~CifBundle.rows` is formatted once, and the rows are joined a
    slice of samples at a time, so no list of every row is held."""
    n, k, d = bundle.values.shape
    times = [f",{t}," for t in map(_fmt, bundle.grid.times.tolist())]
    heads = [f"{sid},{ev}" for sid in map(_csv_id, bundle.sample_ids) for ev in range(1, k + 1)]
    step = max(1, _ROWS // d)
    # tolist gives Python floats, on which format(x, ".17g") is _fmt(x)
    one = len(bundle.rows) == 1
    if one:  # each slice takes the next len(slice) * d cifs of the row, cycled
        row = cycle(map(format, bundle.rows.ravel().tolist(), repeat(".17g")))
    else:
        values = bundle.values.reshape(n * k, d)
    parts = [",".join(_BUNDLE_COLUMNS)]
    for i in range(0, n * k, step):
        lines = heads[i : i + step]
        prefixes = map(add, chain.from_iterable(map(repeat, lines, repeat(d))), cycle(times))
        cifs = islice(row, len(lines) * d) if one else map(format, values[i : i + step].ravel().tolist(), repeat(".17g"))
        parts.append("\n".join(map(add, prefixes, cifs)))
    return "\n".join([*parts, ""])


def split_cohort(
    cohort: Cohort, seed: int, fractions: tuple[float, float, float] = (0.4, 0.4, 0.2)
) -> tuple[Cohort, Cohort, Cohort]:
    """Random disjoint partition into (train, cal, test) cohorts.

    Sizes follow largest-remainder rounding of ``n * fraction`` and the
    permutation is a pure function of ``seed``.
    """
    if cohort.n == 0:
        raise ValidationError("cannot split an empty cohort")
    check_integer(seed, "seed")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or not all(f > 0 for f in fractions):
        raise ValidationError("fractions must be three positive reals")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValidationError("fractions must sum to 1")
    n = cohort.n
    exact = [n * f for f in fractions]
    sizes = [int(math.floor(e)) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    for _ in range(n - sum(sizes)):
        j = max(range(3), key=lambda i: (remainders[i], -i))
        sizes[j] += 1
        remainders[j] = -1.0
    perm = np.random.default_rng(seed).permutation(n)
    bounds = np.cumsum([0] + sizes)
    parts = tuple(cohort.subset(np.sort(perm[bounds[i]:bounds[i + 1]])) for i in range(3))
    return parts


def quantile_grid(cohort: Cohort, d: int) -> TimeGrid:
    """Evaluation grid at duration quantiles 1/d, 2/d, ..., 1.

    Uses lower interpolation (the ceil(q*n)-th order statistic) so every
    grid point is an observed time; duplicates and non-positive times are
    dropped. The last point equals the maximum observed duration. Any d >= n
    gives the grid of all distinct positive times, so d is capped at n.
    """
    if cohort.n == 0:
        raise ValidationError("cohort is empty")
    check_integer(d, "grid size d")
    if d < 2:
        raise ValidationError("grid size d must be at least 2")
    times = np.sort(cohort.times)
    n = times.size
    d = min(d, n)
    idx = np.ceil(np.arange(1, d + 1) * n / d).astype(int) - 1
    grid = np.unique(times[idx])
    grid = grid[grid > 0]
    if grid.size < 2:
        raise ValidationError("degenerate duration distribution: grid collapses to one point")
    return TimeGrid(grid)
