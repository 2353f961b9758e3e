import csv
import io
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crcal.data import (
    CifBundle,
    Cohort,
    TimeGrid,
    bundle_to_csv,
    cohort_to_csv,
    parse_bundle,
    parse_cohort,
    quantile_grid,
    split_cohort,
    _field_blocks,
)
from crcal import data
from crcal.errors import ValidationError


# ids the CSV writer emits unquoted and the parser reads back unchanged
IDS = st.text(st.characters(codec="ascii", categories=("L", "N")) | st.sampled_from("_-."), min_size=1, max_size=8)
# ids the writer must quote, mixed with plain ones; the parsers strip an id's
# leading and trailing whitespace, so those are left out
CSV_IDS = st.text(st.sampled_from('ab1 ,"\r\n'), max_size=6).filter(lambda s: s == s.strip())
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def cohorts(draw, ids=IDS):
    n = draw(st.integers(1, 20))
    k = draw(st.integers(1, 3))
    d = draw(st.integers(0, 3))
    return Cohort(
        ids=tuple(draw(st.lists(ids, min_size=n, max_size=n, unique=True))),
        times=draw(hnp.arrays(float, n, elements=st.floats(0.0, allow_infinity=False))),
        events=draw(hnp.arrays(np.int64, n, elements=st.integers(0, k))),
        k_events=k,
        covariates=draw(hnp.arrays(float, (n, d), elements=FLOATS)) if d else None,
    )


@st.composite
def bundles(draw, ids=IDS):
    """Valid bundles with arbitrary float values: a sorted draw per
    (sample, event), divided by K so the event sums stay at most one."""
    n, k, d = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    times = draw(hnp.arrays(float, d, elements=st.floats(1e-300, 1e300), unique=True))
    values = np.sort(draw(hnp.arrays(float, (n, k, d), elements=st.floats(0.0, 1.0))), axis=2) / k
    values[:, :, -1] = np.maximum(values[:, :, -1], 0.5 / k)
    ids = tuple(draw(st.lists(ids, min_size=n, max_size=n, unique=True)))
    return CifBundle(TimeGrid(np.sort(times)), values, ids)


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def _fmt(x):
    return format(float(x), ".17g")


def _reference_rows(csv_text):
    reader = csv.reader(io.StringIO(csv_text))
    try:
        yield from reader
    except csv.Error as exc:
        raise ValidationError(f"line {reader.line_num}: malformed CSV ({exc})") from None


def reference_parse_bundle(csv_text, k_events):
    """The former dict-per-(sample, event) parser, kept as the reference. A
    file's faults are named in the program's order: the first row fault (a
    malformed line, a wrong field count or a bad field), else the first row
    that repeats a cell, else the first (sample, event) missing a time."""
    reader = _reference_rows(csv_text)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty bundle file") from None
    if [h.strip() for h in header] != ["sample_id", "event", "time", "cif"]:
        raise ValidationError("bundle header must be sample_id,event,time,cif")
    entries = {}
    duplicate = None
    order = []
    seen_samples = set()
    all_times = set()
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ValidationError(f"row {row_no}: expected 4 fields")
        sid = row[0].strip()
        try:
            ev = int(row[1])
            t = float(row[2])
            cif = float(row[3])
        except ValueError:
            raise ValidationError(f"row {row_no}: non-numeric field") from None
        if not 1 <= ev <= k_events:
            raise ValidationError(f"row {row_no}: event label out of range 1..{k_events}")
        if not math.isfinite(t) or t <= 0:
            raise ValidationError(f"row {row_no}: time must be positive and finite")
        if not 0.0 <= cif <= 1.0:
            raise ValidationError(f"row {row_no}: cif outside [0, 1]")
        if sid not in seen_samples:
            seen_samples.add(sid)
            order.append(sid)
        cell = entries.setdefault((sid, ev), {})
        if t in cell:
            duplicate = duplicate or f"row {row_no}: duplicate time for sample {sid!r} event {ev}"
        cell[t] = cif
        all_times.add(t)
    if not order:
        raise ValidationError("bundle has no rows")
    if duplicate:
        raise ValidationError(duplicate)
    grid_times = np.asarray(sorted(all_times))
    d = grid_times.size
    n = len(order)
    values = np.empty((n, k_events, d))
    for i, sid in enumerate(order):
        for ev in range(1, k_events + 1):
            cell = entries.get((sid, ev))
            if cell is None or len(cell) != d:
                raise ValidationError(f"ragged grid: sample {sid!r} event {ev} does not cover all times")
            values[i, ev - 1, :] = [cell[t] for t in grid_times]
    return CifBundle(TimeGrid(grid_times), values, tuple(order))


def reference_bundle_to_csv(bundle):
    """The former per-cell writer, kept as the reference."""
    lines = ["sample_id,event,time,cif"]
    for i, sid in enumerate(bundle.sample_ids):
        for k in range(bundle.k_events):
            for j, t in enumerate(bundle.grid.times):
                lines.append(f"{sid},{k + 1},{_fmt(t)},{_fmt(bundle.values[i, k, j])}")
    return "\n".join(lines) + "\n"


def parsed(parse, text, k_events):
    """What a bundle parser makes of text: the message of the ValidationError
    it raises, or the ids, grid bits and value bits of the bundle."""
    try:
        bundle = parse(text, k_events)
    except ValidationError as exc:
        return str(exc)
    return bundle.sample_ids, bits(bundle.grid.times), bits(bundle.values)


FAULTS = {
    "event": ["0", "-1", "4", "x"],
    "time": ["0", "-0.5", "nan", "inf", "-inf", "t"],
    "cif": ["-0.5", "1.5", "nan", "inf", "c"],
}


ROW_FAULTS = ["short", "long", *FAULTS]


def _faulted(draw, row, fault):
    """A row cut short, made long, or with one field out of range."""
    if fault == "short":
        return row.rsplit(",", 1)[0]
    if fault == "long":
        return row + ",0"
    fields = row.split(",")
    fields[["event", "time", "cif"].index(fault) + 1] = draw(st.sampled_from(FAULTS[fault]))
    return ",".join(fields)


@st.composite
def faulty_bundle_texts(draw):
    """(K, text) of a valid bundle's CSV with its rows shuffled and one fault:
    one or two rows dropped or repeated, or one row fault (see ``_faulted``),
    and at times a second row fault on a later row. Two drops or repeats, or
    a second fault, tell which fault is named first; a row fault after a
    repeat is named before it."""
    bundle = draw(bundles())
    header, *rows = bundle_to_csv(bundle).splitlines()
    rows = draw(st.permutations(rows))
    i = draw(st.integers(0, len(rows) - 1))
    fault = draw(st.sampled_from(["drop", "repeat", *ROW_FAULTS]))
    if fault in ("drop", "repeat"):
        for _ in range(draw(st.integers(1, 2))):
            i = draw(st.integers(0, len(rows) - 1)) if rows else 0
            if fault == "drop" and rows:
                del rows[i]
            elif fault == "repeat":
                rows.insert(draw(st.integers(0, len(rows))), rows[i])
    else:
        rows[i] = _faulted(draw, rows[i], fault)
    second = draw(st.sampled_from([None, *ROW_FAULTS]))
    if second and i + 1 < len(rows):
        j = draw(st.integers(i + 1, len(rows) - 1))
        rows[j] = _faulted(draw, rows[j], second)
    return bundle.k_events, "\n".join([header, *rows]) + "\n"


# CSV-like text: header lines of either file, numbers, separators, quotes and
# bare carriage returns inside fields
CSV_TEXT = st.lists(
    st.sampled_from(["id,time,event", "sample_id,event,time,cif", ",", "\n", "\r", '"', "1", "0.5", "-2", "nan",
                     "inf", "x", " ", "1e400", "\x00"]) | st.text(max_size=5),
    max_size=30,
).map("".join)


class TestParsersOnArbitraryText:
    @given(CSV_TEXT, st.integers(1, 3))
    def test_only_validation_errors(self, text, k):
        for parse in (parse_cohort, parse_bundle):
            try:
                parse(text, k_events=k)
            except ValidationError:
                pass

    @pytest.mark.parametrize("parse, header", [(parse_cohort, "id,time,event"), (parse_bundle, "sample_id,event,time,cif")])
    def test_bare_carriage_return_in_field(self, parse, header):
        with pytest.raises(ValidationError, match="line 2"):
            parse(header + "\n1,1\rx,1\n", k_events=1)


class TestRoundTripProperty:
    @given(cohorts(CSV_IDS))
    def test_cohort_bit_exact(self, cohort):
        again = parse_cohort(cohort_to_csv(cohort), cohort.k_events)
        assert again.ids == cohort.ids
        assert bits(again.times) == bits(cohort.times)
        assert np.array_equal(again.events, cohort.events)
        if cohort.covariates is None:
            assert again.covariates is None
        else:
            assert bits(again.covariates) == bits(cohort.covariates)

    @given(bundles(CSV_IDS))
    def test_bundle_bit_exact(self, bundle):
        again = parse_bundle(bundle_to_csv(bundle), bundle.k_events)
        assert again.sample_ids == bundle.sample_ids
        assert bits(again.grid.times) == bits(bundle.grid.times)
        assert bits(again.values) == bits(bundle.values)


class TestAgainstReference:
    @given(bundles())
    def test_writer_bytes(self, bundle):
        assert bundle_to_csv(bundle) == reference_bundle_to_csv(bundle)

    @given(bundles(), st.randoms(use_true_random=False))
    def test_parser_on_shuffled_rows(self, bundle, rnd):
        header, *rows = bundle_to_csv(bundle).splitlines()
        rnd.shuffle(rows)
        text = "\n".join([header, *rows]) + "\n"
        got = parsed(parse_bundle, text, bundle.k_events)
        assert not isinstance(got, str)
        assert got == parsed(reference_parse_bundle, text, bundle.k_events)

    # enough examples that two drops or repeats often land in different cells
    @settings(max_examples=500)
    @given(faulty_bundle_texts())
    def test_parser_on_single_faults(self, case):
        k, text = case
        assert parsed(parse_bundle, text, k) == parsed(reference_parse_bundle, text, k)


def _peak_bytes(fn, *args):
    """The traced memory peak of one call, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _block_kinds(text):
    """The type of each block's row numbers: range for plain slices."""
    return {type(row_nos) for row_nos, *_ in _field_blocks(text)}


class TestWorkers:
    def test_affinity_mask_up_to_the_cap(self, monkeypatch):
        # raising=False: platforms without sched_getaffinity get one here
        for cpus, want in ((1, 1), (2, 2), (64, data._MAX_WORKERS)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            assert data._workers() == want


class TestPlainPath:
    @given(bundles())
    def test_takes_the_writers_output(self, bundle):
        # ids of IDS need no quoting, so the writer's text is plain, with or
        # without its last line end
        text = bundle_to_csv(bundle)
        want = parsed(reference_parse_bundle, text, bundle.k_events)
        for plain_text in (text, text[:-1]):
            assert _block_kinds(plain_text) == {range}
            assert parsed(parse_bundle, plain_text, bundle.k_events) == want

    @given(bundles(CSV_IDS))
    def test_crlf_line_ends_take_the_row_path(self, bundle):
        text = bundle_to_csv(bundle).replace("\n", "\r\n")
        assert range not in _block_kinds(text)
        got = parsed(parse_bundle, text, bundle.k_events)
        assert not isinstance(got, str)
        assert got == parsed(reference_parse_bundle, text, bundle.k_events)

    @pytest.mark.parametrize("block", [1, 10, 100])
    @settings(max_examples=100)
    @given(faulty_bundle_texts(), st.sampled_from(["", "\n", "\n\n", "drop", "mid"]))
    def test_slice_size_and_text_end(self, block, case, end):
        # small slices make a slice end at the last line end; a blank last
        # line or none at all must still be read as the row parser reads it,
        # and a blank line in mid-text hands over to csv after slices that
        # were already converted
        k, text = case
        if end == "mid":
            lines = text.split("\n")
            text = "\n".join([*lines[: len(lines) // 2 + 1], "", *lines[len(lines) // 2 + 1 :]])
        else:
            text = text[:-1] if end == "drop" else text + end
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_BLOCK", block)
            assert parsed(parse_bundle, text, k) == parsed(reference_parse_bundle, text, k)

    @pytest.mark.parametrize("rows", [["a,1,1.0", "0.2,a,1,2.0,0.5"], ["1,1,0.5", "0.5,1,1,0.5,0.5"]])
    def test_short_row_then_long_row(self, rows):
        # the two lines hold 8 fields, as two good rows would
        text = "\n".join(["sample_id,event,time,cif", *rows]) + "\n"
        with pytest.raises(ValidationError, match=r"^row 2: expected 4 fields$"):
            parse_bundle(text, k_events=1)

    def test_repeated_row_in_place_of_a_missing_one(self):
        # as many rows as cells, but not one per cell
        text = "sample_id,event,time,cif\na,1,1,0.1\na,1,2,0.3\nb,1,1,0.1\nb,1,1,0.1\n"
        with pytest.raises(ValidationError, match=r"^row 5: duplicate time for sample 'b' event 1$"):
            parse_bundle(text, k_events=1)

    def test_field_over_the_csv_size_limit(self):
        sid = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(ValidationError, match="^line 2: malformed CSV"):
            parse_bundle(f"sample_id,event,time,cif\n{sid},1,1.0,0.5\n", k_events=1)

    def test_memory_peak_and_many_slices(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.uniform(0.01, 0.33, (150, 3, 65)), axis=2)
        grid = TimeGrid(np.cumsum(rng.uniform(0.01, 0.2, 65)))
        bundle = CifBundle(grid, values, tuple(str(i) for i in range(1, 151)))
        text = bundle_to_csv(bundle)
        # the text spans many of the parser's slices
        assert text == reference_bundle_to_csv(bundle)
        assert parsed(parse_bundle, text, 3) == parsed(reference_parse_bundle, text, 3)
        # a writer holds its parts and their join, so it cannot go below 2x
        assert _peak_bytes(parse_bundle, text, 3) < 2 * len(text)
        assert _peak_bytes(bundle_to_csv, bundle) < 3 * len(text)

    def test_csv_starts_at_the_first_irregular_slice(self, monkeypatch):
        # a blank last line hands the last slice to csv, which is fed the
        # text from that slice on and none of the rows already converted
        rng = np.random.default_rng(2)
        values = np.sort(rng.uniform(0.01, 0.33, (100, 3, 20)), axis=2)
        grid = TimeGrid(np.cumsum(rng.uniform(0.01, 0.2, 20)))
        text = bundle_to_csv(CifBundle(grid, values, tuple(str(i) for i in range(100)))) + "\n"
        want = parsed(reference_parse_bundle, text, 3)
        fed = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda lines: reader(fed.append(line) or line for line in lines))
        monkeypatch.setattr(data, "_BLOCK", 1000)
        assert parsed(parse_bundle, text, 3) == want
        tail = "".join(fed)
        assert text.endswith(tail) and text[-len(tail) - 1] == "\n"
        assert 0 < len(tail) < 2000 < len(text)

    def test_crlf_memory_peak(self):
        # csv reads the lines of the text one by one, with no copy of it
        rng = np.random.default_rng(1)
        values = np.sort(rng.uniform(0.01, 0.33, (1000, 3, 20)), axis=2)
        grid = TimeGrid(np.cumsum(rng.uniform(0.01, 0.2, 20)))
        bundle = CifBundle(grid, values, tuple(str(i) for i in range(1000)))
        text = bundle_to_csv(bundle).replace("\n", "\r\n")
        assert _peak_bytes(parse_bundle, text, 3) < 2 * len(text)


class TestRecordChecks:
    # each case breaks one rule of a constructor whose other inputs are valid
    @pytest.mark.parametrize("fields, message", [
        ({"k_events": 0}, "k_events must be a positive integer"),
        ({"events": [[1, 0]]}, "times and events must be 1-D and aligned"),
        ({"ids": ("a",)}, "ids must align with records"),
        ({"times": [1.0, np.nan]}, "non-finite time"),
        ({"times": [1.0, -1.0]}, "negative time"),
        ({"events": [1, 2]}, "event label out of range 0..K"),
        ({"covariates": [[0.5]]}, "covariate row count must equal record count"),
    ])
    def test_cohort_messages(self, fields, message):
        valid = {"ids": ("a", "b"), "times": [1.0, 2.0], "events": [1, 0], "k_events": 1}
        with pytest.raises(ValidationError) as exc:
            Cohort(**{**valid, **fields})
        assert str(exc.value) == message

    @pytest.mark.parametrize("times, message", [
        ([], "grid needs at least one time"),
        ([[1.0, 2.0]], "grid needs at least one time"),
        ([1.0, np.inf], "grid times must be finite"),
        ([0.0, 1.0], "grid times must be positive"),
        ([1.0, 1.0], "grid times must be strictly increasing"),
    ])
    def test_grid_messages(self, times, message):
        with pytest.raises(ValidationError) as exc:
            TimeGrid(np.array(times))
        assert str(exc.value) == message


class TestParseCohort:
    def test_basic_parse(self):
        cohort = parse_cohort("id,time,event\n1,1.0,1\n2,2.0,0\n", k_events=2)
        assert cohort.n == 2
        assert cohort.events.tolist() == [1, 0]
        assert cohort.times.tolist() == [1.0, 2.0]
        assert cohort.covariates is None

    def test_bare_cr_line_ends_are_named(self):
        message = r"^line 1: malformed CSV \(bare CR line end; end lines with LF or CRLF\)$"
        with pytest.raises(ValidationError, match=message):
            parse_cohort("id,time,event\r1,1.0,1\r2,2.0,0\r", k_events=1)

    def test_event_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            parse_cohort("id,time,event\n1,1.0,3\n", k_events=2)

    def test_covariates(self):
        cohort = parse_cohort("id,time,event,x1\n1,1.0,1,0.5\n", k_events=1)
        assert cohort.covariates.shape == (1, 1)
        assert cohort.covariates[0, 0] == 0.5

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError, match="row 2"):
            parse_cohort("id,time,event\n1,-1.0,1\n", k_events=1)

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(ValidationError, match="row 2: time must be finite and nonnegative"):
            parse_cohort(f"id,time,event\n1,{time},1\n", k_events=1)

    def test_row_number_is_the_line_a_record_starts_on(self):
        with pytest.raises(ValidationError, match="row 4: negative time"):
            parse_cohort('id,time,event\n"a\nb",1.0,1\nc,-1,0\n', k_events=1)

    def test_quoted_ids_written_quoted(self):
        text = 'id,time,event\n"a,b",1.0,1\n"c""d",2.0,0\n"e\nf",3.0,1\ng h,4.0,0\n'
        cohort = parse_cohort(text, k_events=1)
        assert cohort.ids == ("a,b", 'c"d', "e\nf", "g h")
        assert cohort_to_csv(cohort) == 'id,time,event\n"a,b",1,1\n"c""d",2,0\n"e\nf",3,1\ng h,4,0\n'

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate id"):
            parse_cohort("id,time,event\n1,1.0,1\n1,2.0,0\n", k_events=1)

    @pytest.mark.parametrize("text, message", [
        ("id,time,event\n1,abc,1\n", "row 2: non-numeric time 'abc'"),
        ("id,time,event\n1,1.0,x\n", "row 2: non-numeric event 'x'"),
        ("id,time,event,x1\n1,1.0,1,y\n", "row 2: non-numeric covariate"),
    ])
    def test_non_numeric_rejected(self, text, message):
        with pytest.raises(ValidationError) as exc:
            parse_cohort(text, k_events=1)
        assert str(exc.value) == message

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        cohort = Cohort(
            ids=tuple(str(i) for i in range(20)),
            times=rng.exponential(1.0, 20),
            events=rng.integers(0, 3, 20),
            k_events=2,
            covariates=rng.normal(size=(20, 3)),
        )
        again = parse_cohort(cohort_to_csv(cohort), k_events=2)
        assert again.ids == cohort.ids
        assert np.array_equal(again.times, cohort.times)
        assert np.array_equal(again.events, cohort.events)
        assert np.array_equal(again.covariates, cohort.covariates)


class TestParseBundle:
    def test_basic_parse(self):
        text = "sample_id,event,time,cif\n1,1,1.0,0.2\n1,1,2.0,0.5\n"
        bundle = parse_bundle(text, k_events=1)
        assert bundle.grid.times.tolist() == [1.0, 2.0]
        assert bundle.values.shape == (1, 1, 2)

    def test_non_monotone_rejected(self):
        text = "sample_id,event,time,cif\n1,1,1.0,0.5\n1,1,2.0,0.4\n"
        with pytest.raises(ValidationError, match="nondecreasing"):
            parse_bundle(text, k_events=1)

    def test_sum_above_one_rejected(self):
        text = (
            "sample_id,event,time,cif\n"
            "1,1,2.0,0.7\n"
            "1,2,2.0,0.6\n"
        )
        with pytest.raises(ValidationError, match="exceed 1"):
            parse_bundle(text, k_events=2)

    def test_ragged_grid_rejected(self):
        text = (
            "sample_id,event,time,cif\n"
            "1,1,1.0,0.2\n1,1,2.0,0.5\n"
            "2,1,1.0,0.3\n"
        )
        with pytest.raises(ValidationError, match="ragged"):
            parse_bundle(text, k_events=1)

    def test_terminal_zero_rejected(self):
        text = "sample_id,event,time,cif\n1,1,1.0,0.0\n1,1,2.0,0.0\n"
        with pytest.raises(ValidationError, match="terminal"):
            parse_bundle(text, k_events=1)

    def test_cif_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            parse_bundle("sample_id,event,time,cif\n1,1,1.0,1.2\n", k_events=1)

    def test_row_order_free_and_round_trip(self):
        rng = np.random.default_rng(1)
        grid = TimeGrid(np.array([0.5, 1.0, 2.0]))
        vals = np.sort(rng.uniform(0.05, 0.45, size=(3, 2, 3)), axis=2)
        bundle = CifBundle(grid, vals, ("a", "b", "c"))
        text = bundle_to_csv(bundle)
        lines = text.splitlines()
        shuffled = [lines[0]] + [lines[i + 1] for i in rng.permutation(len(lines) - 1)]
        again = parse_bundle("\n".join(shuffled) + "\n", k_events=2)
        order = [again.sample_ids.index(s) for s in bundle.sample_ids]
        assert np.array_equal(again.values[order], bundle.values)
        assert np.array_equal(again.grid.times, bundle.grid.times)


class TestBundleChecks:
    @pytest.mark.parametrize("bad, message", [
        ([np.nan], "non-finite CIF value"),
        ([np.inf], "non-finite CIF value"),
        ([-np.inf], "non-finite CIF value"),
        ([-0.1], r"CIF values must lie in \[0, 1\]"),
        ([1.1], r"CIF values must lie in \[0, 1\]"),
        ([np.nan, -0.1], "non-finite CIF value"),
    ])
    def test_value_messages(self, bad, message):
        values = np.full((3, 2, 4), 0.2)
        values.flat[[5, 17][: len(bad)]] = bad
        with pytest.raises(ValidationError, match=f"^{message}$"):
            CifBundle(TimeGrid(np.arange(1.0, 5.0)), values, ("a", "b", "c"))

    @pytest.mark.parametrize("shape, ids, message", [
        ((1, 2), ("a",), "bundle values must have shape (n, K, d)"),
        ((0, 1, 2), (), "bundle must contain samples and events"),
        ((1, 0, 2), ("a",), "bundle must contain samples and events"),
        ((1, 1, 3), ("a",), "bundle values do not match grid length"),
        ((1, 1, 2), ("a", "b"), "sample_ids must align with values"),
    ])
    def test_shape_messages(self, shape, ids, message):
        with pytest.raises(ValidationError) as exc:
            CifBundle(TimeGrid(np.array([1.0, 2.0])), np.full(shape, 0.2), ids)
        assert str(exc.value) == message

    def test_memory_peak(self):
        # the checks make no temporary near the size of the values
        rng = np.random.default_rng(2)
        values = np.sort(rng.uniform(0.01, 0.33, (8192, 3, 65)), axis=2)
        grid = TimeGrid(np.cumsum(rng.uniform(0.01, 0.2, 65)))
        ids = tuple(map(str, range(8192)))
        assert _peak_bytes(CifBundle, grid, values, ids) < 0.2 * values.nbytes


@st.composite
def replicated(draw, ids=IDS):
    """A grid, one valid (K, d) row drawn as in :func:`bundles`, and 1 to 40
    sample ids for the row to be replicated over."""
    n, k, d = draw(st.integers(1, 40)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    times = draw(hnp.arrays(float, d, elements=st.floats(1e-300, 1e300), unique=True))
    row = np.sort(draw(hnp.arrays(float, (k, d), elements=st.floats(0.0, 1.0))), axis=1) / k
    row[:, -1] = np.maximum(row[:, -1], 0.5 / k)
    return TimeGrid(np.sort(times)), row, tuple(draw(st.lists(ids, min_size=n, max_size=n, unique=True)))


def as_view(row, n):
    return np.broadcast_to(row, (n, *row.shape))


def check_outcome(grid, values, ids):
    try:
        CifBundle(grid, values, ids)
    except ValidationError as exc:
        return str(exc)
    return None


class TestOneRow:
    """A bundle whose rows are all the same takes one-row paths; each must
    agree with the path that reads every row, for the rows given as a stride-0
    view and as a materialized copy."""

    @given(replicated(), st.data())
    def test_predicate_is_bitwise_row_equality(self, case, draws):
        grid, row, ids = case
        values = as_view(row, len(ids)).copy()
        if len(ids) > 1 and draws.draw(st.booleans()):
            # one cell of a later row moves by one ulp or to the other zero
            cell = (draws.draw(st.integers(1, len(ids) - 1)), *divmod(draws.draw(st.integers(0, row.size - 1)),
                                                                      row.shape[1]))
            values[cell] = -0.0 if values[cell] == 0.0 else np.nextafter(values[cell], 0.0)
        assert data._one_row(values) == (len({r.tobytes() for r in values}) == 1)
        assert data._one_row(as_view(row, len(ids)))

    def test_distinct_rows_stop_at_row_one(self):
        rng = np.random.default_rng(4)
        values = np.sort(rng.uniform(0.0, 0.3, (8192, 3, 65)), axis=2)
        assert _peak_bytes(data._one_row, values) < 2048
        values[1:-1] = values[0]
        assert not data._one_row(values)

    @given(replicated(), st.data())
    def test_view_is_checked_as_its_copy(self, case, draws):
        grid, row, ids = case
        if draws.draw(st.booleans()):
            cell = divmod(draws.draw(st.integers(0, row.size - 1)), row.shape[1])
            row[cell] = draws.draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.1, 1.1, 1.0, 0.0, -0.0]))
        view = as_view(row, len(ids))
        assert check_outcome(grid, view, ids) == check_outcome(grid, view.copy(), ids)

    @given(replicated(), st.data())
    def test_mean_at_reads_the_row(self, case, draws):
        # the full-row mean of n equal floats is that float or within a few
        # ulps of it (the largest move seen in 2,000 draws is 1.3e-15 relative)
        grid, row, ids = case
        t = np.asarray(draws.draw(st.lists(st.sampled_from([0.0, *grid.times, grid.t_max * 2]), min_size=1)))
        want = data.step_values(grid.times, row, t)
        for values in (as_view(row, len(ids)), as_view(row, len(ids)).copy()):
            bundle = CifBundle(grid, values, ids)
            got = bundle.mean_at(t)
            assert bits(got) == bits(want)
            full = bundle.values_at(t).mean(axis=0)
            np.testing.assert_allclose(got, full, rtol=1e-13, atol=0.0)

    @given(replicated(), st.integers(1, 13))
    def test_writer_bytes(self, case, rows):
        # a few rows a slice cut the one-row text at every offset in the row
        grid, row, ids = case
        want = reference_bundle_to_csv(CifBundle(grid, as_view(row, len(ids)).copy(), ids))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_ROWS", rows)
            for values in (as_view(row, len(ids)), as_view(row, len(ids)).copy()):
                assert bundle_to_csv(CifBundle(grid, values, ids)) == want

    @given(replicated())
    def test_a_replicated_copy_is_stored_as_its_row(self, case):
        grid, row, ids = case
        values = as_view(row, len(ids)).copy()
        bundle = CifBundle(grid, values, ids)
        assert bundle.values.shape == values.shape and bundle.values.strides[0] == 0
        assert len(bundle.rows) == 1 and bits(bundle.rows) == bits(row)
        assert not np.shares_memory(bundle.values, values)
        with pytest.raises(ValueError):
            bundle.values[-1, 0, 0] = 0.5

    @given(replicated(), st.data())
    def test_a_later_row_that_differs_keeps_every_row(self, case, draws):
        # the first time's cif moves down by one ulp, or from 0.0 to -0.0,
        # which keeps the bundle valid
        grid, row, ids = case
        assume(len(ids) > 1)
        values = as_view(row, len(ids)).copy()
        cell = (draws.draw(st.integers(1, len(ids) - 1)), draws.draw(st.integers(0, len(row) - 1)), 0)
        values[cell] = -0.0 if values[cell] == 0.0 else np.nextafter(values[cell], 0.0)
        bundle = CifBundle(grid, values, ids)
        assert bundle.rows.shape == values.shape and bits(bundle.rows) == bits(values)
        with pytest.raises(ValueError):
            bundle.values[0, 0, 0] = 0.5

    @given(replicated())
    def test_a_parsed_replicated_csv_is_stored_as_its_row(self, case):
        grid, row, ids = case
        bundle = parse_bundle(reference_bundle_to_csv(CifBundle(grid, as_view(row, len(ids)).copy(), ids)), len(row))
        assert bundle.values.strides[0] == 0 and len(bundle.rows) == 1 and bits(bundle.rows) == bits(row)


class TestBundleEvaluation:
    def setup_method(self):
        grid = TimeGrid(np.array([1.0, 2.0, 4.0]))
        vals = np.array([[[0.1, 0.2, 0.4], [0.05, 0.1, 0.2]]])
        self.bundle = CifBundle(grid, vals, ("s1",))

    def test_step_interpolation(self):
        out = self.bundle.values_at(np.array([0.5, 1.0, 1.5, 3.0, 9.0]))
        assert out[0, 0].tolist() == [0.0, 0.1, 0.1, 0.2, 0.4]

    @given(st.integers(1, 300), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_mean_at_matches_mean_of_values_at(self, n, k, d, seed, data):
        # n reaches the sizes where numpy's pairwise summation differs from
        # adding the samples in order. For K >= 2 both means add the samples
        # in order. For K = 1 the read's times-outermost layout makes its
        # mean pairwise: two sums of at most 300 nonnegative values differ
        # by less than 1e-13 relative (the largest move seen is 1.6e-15)
        rng = np.random.default_rng(seed)
        grid = np.cumsum(rng.uniform(0.1, 1.0, d))
        values = np.sort(rng.uniform(0.0, 0.9 / k, (n, k, d)), axis=2)
        values[:, :, -1] += 1e-3
        bundle = CifBundle(TimeGrid(grid), values, tuple(str(i) for i in range(n)))
        between = (grid[:-1] + grid[1:]) / 2
        pool = np.concatenate(([grid[0] / 2, 0.0], grid, between, [grid[-1] * 1.5]))
        t = np.asarray(data.draw(st.lists(st.sampled_from(pool.tolist()), min_size=1, max_size=8)))
        got, want = bundle.mean_at(t), bundle.values_at(t).mean(axis=0)
        if k == 1:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        else:
            assert np.array_equal(got, want)

    def test_reads_never_write_into_the_bundle(self):
        # a scalar read or one before the grid gets an array of its own
        for t in (np.float64(0.5), 0.5, 2.5, np.array([0.5, 3.0])):
            out = self.bundle.values_at(t)
            assert not np.shares_memory(out, self.bundle.values)
            assert self.bundle.values.tolist() == [[[0.1, 0.2, 0.4], [0.05, 0.1, 0.2]]]
        assert self.bundle.values_at(np.float64(0.5)).tolist() == [[0.0, 0.0]]

    def test_values_at_own_times(self):
        assert self.bundle.values_at_own_times(np.array([2.5])).tolist() == [[0.2, 0.1]]
        assert self.bundle.values_at_own_times(np.array([0.5])).tolist() == [[0.0, 0.0]]
        with pytest.raises(ValidationError, match="^per-sample times must align with bundle samples$"):
            self.bundle.values_at_own_times(np.array([0.5, 2.5]))


def where_step_values(grid_times, values, t, before=0.0):
    """The step lookup as a gather and then ``np.where``, two output-sized
    arrays: the reference for ``data.step_values``."""
    idx = np.searchsorted(grid_times, np.asarray(t, dtype=float), side="right") - 1
    return np.where(idx >= 0, values[..., np.maximum(idx, 0)], before)


class TestStepValues:
    @given(st.integers(1, 6), st.sampled_from([(), (3,), (4, 2)]), st.integers(0, 2**32 - 1), st.data())
    def test_matches_the_where_form(self, d, lead, seed, picks):
        rng = np.random.default_rng(seed)
        grid = np.cumsum(rng.uniform(0.1, 1.0, d))
        values = rng.uniform(0.0, 1.0, lead + (d,))
        between = (grid[:-1] + grid[1:]) / 2
        pool = np.concatenate((grid, between, [grid[0] / 2, 0.0, -0.0, grid[-1] * 2, np.inf, -np.inf, np.nan]))
        t = picks.draw(st.lists(st.sampled_from(pool.tolist()), min_size=1, max_size=8))
        before = picks.draw(st.sampled_from([0.0, 1.0, 0.25]))
        for read in (np.asarray(t), t[0], np.float64(t[0])):
            got, want = data.step_values(grid, values, read, before), where_step_values(grid, values, read, before)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, values)
        # times outermost, as the where form lays them out (a stride of a
        # length-1 axis says nothing about the layout): brier_scores takes
        # .T of a read, so each time's samples are contiguous and its mean is
        # numpy's pairwise sum; a C-order read would sum them in order
        got = data.step_values(grid, values, np.asarray(t), before)
        want = where_step_values(grid, values, np.asarray(t), before)
        assert [s for s, n in zip(got.strides, got.shape) if n > 1] == [
            s for s, n in zip(want.strides, want.shape) if n > 1
        ]


class TestSplitCohort:
    def _cohort(self, n):
        rng = np.random.default_rng(42)
        return Cohort(
            ids=tuple(str(i) for i in range(n)),
            times=rng.exponential(1.0, n),
            events=rng.integers(0, 3, n),
            k_events=2,
        )

    def test_sizes_and_determinism(self):
        cohort = self._cohort(10)
        parts = split_cohort(cohort, seed=7, fractions=(0.4, 0.4, 0.2))
        assert tuple(p.n for p in parts) == (4, 4, 2)
        again = split_cohort(cohort, seed=7, fractions=(0.4, 0.4, 0.2))
        for a, b in zip(parts, again):
            assert a.ids == b.ids

    @pytest.mark.parametrize("n, fractions, message", [
        (10, (0.5, 0.5, 0.1), "fractions must sum to 1"),
        (0, (0.4, 0.4, 0.2), "cannot split an empty cohort"),
    ])
    def test_bad_inputs_rejected(self, n, fractions, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            split_cohort(self._cohort(n), seed=0, fractions=fractions)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            split_cohort(self._cohort(10), seed=-1)

    @pytest.mark.parametrize("seed", [2.5, True, "1"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            split_cohort(self._cohort(10), seed=seed)

    def test_numpy_integer_seed_splits_like_an_int(self):
        parts = split_cohort(self._cohort(10), seed=np.int64(3))
        assert [p.ids for p in parts] == [p.ids for p in split_cohort(self._cohort(10), seed=3)]

    @pytest.mark.parametrize("fractions", [(float("nan"), 0.5, 0.5), (0.5, 0.5, float("nan"))])
    def test_nan_fraction_rejected(self, fractions):
        with pytest.raises(ValidationError, match="three positive reals"):
            split_cohort(self._cohort(10), seed=0, fractions=fractions)

    def test_largest_remainder(self):
        parts = split_cohort(self._cohort(5), seed=3, fractions=(0.4, 0.4, 0.2))
        assert tuple(p.n for p in parts) == (2, 2, 1)

    def test_partition_property(self):
        # disjoint and exhaustive for many n, fractions, seeds
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(3, 200))
            cohort = self._cohort(n)
            raw = rng.dirichlet(np.ones(3))
            fractions = tuple(raw / raw.sum())
            parts = split_cohort(cohort, seed=trial, fractions=fractions)
            ids = [i for p in parts for i in p.ids]
            assert len(ids) == n
            assert set(ids) == set(cohort.ids)


class TestQuantileGrid:
    def _cohort(self, times):
        times = np.asarray(times, dtype=float)
        return Cohort(
            ids=tuple(str(i) for i in range(times.size)),
            times=times,
            events=np.ones(times.size, dtype=int),
            k_events=1,
        )

    def test_order_statistic_small(self):
        grid = quantile_grid(self._cohort([1, 2, 3, 4]), d=2)
        assert grid.times.tolist() == [2.0, 4.0]

    def test_order_statistic_hundred(self):
        grid = quantile_grid(self._cohort(np.arange(1, 101)), d=4)
        assert grid.times.tolist() == [25.0, 50.0, 75.0, 100.0]

    @pytest.mark.parametrize("times, d, message", [
        ([5.0] * 8, 4, "degenerate duration distribution: grid collapses to one point"),
        ([], 4, "cohort is empty"),
        ([1.0, 2.0], 1, "grid size d must be at least 2"),
        ([1.0, 2.0], 8.5, "grid size d must be an integer, got 8.5"),
        ([1.0, 2.0], True, "grid size d must be an integer, got True"),
    ])
    def test_bad_inputs_rejected(self, times, d, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            quantile_grid(self._cohort(times), d=d)

    @pytest.mark.parametrize("n", [7, 50, 333])
    def test_matches_the_uncapped_rule(self, n):
        # the former body, which allocated d indices for any d
        def reference(cohort, d):
            times = np.sort(cohort.times)
            idx = np.ceil(np.arange(1, d + 1) * n / d).astype(int) - 1
            grid = np.unique(times[idx])
            return grid[grid > 0]

        rng = np.random.default_rng(n)
        # ties and zero times, so that some grids collapse
        cohort = self._cohort(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 7.5], size=n))
        for d in range(2, 3000):
            want = reference(cohort, d)
            if want.size < 2:
                with pytest.raises(ValidationError, match="degenerate"):
                    quantile_grid(cohort, d)
            else:
                assert bits(quantile_grid(cohort, d).times) == bits(want)

    def test_huge_d_gives_every_distinct_positive_time(self):
        times = np.array([0.0, 3.0, 1.0, 3.0, 2.0, 0.5])
        # at the former body, d = 10**15 raised MemoryError
        grid = quantile_grid(self._cohort(times), d=10**15)
        assert grid.times.tolist() == [0.5, 1.0, 2.0, 3.0]

    def test_strictly_increasing_and_max(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            times = rng.choice([0.5, 1.0, 1.5, 2.0, 5.0, 7.5], size=int(rng.integers(5, 60)))
            cohort = self._cohort(times)
            grid = quantile_grid(cohort, d=int(rng.integers(2, 12)))
            assert np.all(np.diff(grid.times) > 0)
            assert grid.t_max == times.max()
