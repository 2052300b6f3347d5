import contextlib
import csv
import io
import json
import logging
import math
import re
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobsynth import dataio, geogrid
from mobsynth.dataio import (Corpus, GridTrace, SimulatorParams, _population,
                             _rule, _walk, hour_of_day, ingest,
                             simulate_ground_truth)
from mobsynth.errors import (DomainError, FormatVersionError,
                             IncompatibilityError, ParseError)
from mobsynth.geogrid import GridSpec, decode

SPEC = GridSpec(45.8, 47.8, 5.9, 10.5, level=8)


def _csv(rows, header=True):
    lines = ["user_id,timestamp,lat,lon"] if header else []
    lines += [",".join(str(c) for c in r) for r in rows]
    return io.BytesIO(("\n".join(lines) + "\n").encode("utf-8"))


def _centres(*cells):
    """(lat, lon) of each cell centre, as Python floats."""
    lat, lon = decode(SPEC, list(cells))
    return list(zip(lat.tolist(), lon.tolist()))


# -- per-row reference: the parser and regularizer the column code replaced --

_logger = logging.getLogger("mobsynth.dataio")


def ref_parse_rows(reader, spec):
    per_user = {}
    n_oob = 0
    for lineno, row in enumerate(reader, start=1):
        if lineno == 1 and row and row[0].strip().lower() == "user_id":
            continue
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 4:
            raise ParseError(f"expected 4 columns, got {len(row)}", line=lineno)
        user_id = row[0].strip()
        try:
            ts = int(row[1])
            lat = float(row[2])
            lon = float(row[3])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if ts < 0:
            raise ParseError(f"negative timestamp {ts}", line=lineno)
        if ts > 2 ** 63 - 1:
            raise ParseError(f"timestamp {ts} does not fit in 64 bits", line=lineno)
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise ParseError(f"non-finite coordinate ({row[2].strip()}, {row[3].strip()})",
                             line=lineno)
        if not (spec.lat_min <= lat <= spec.lat_max and spec.lon_min <= lon <= spec.lon_max):
            n_oob += 1
            continue
        cell = int(geogrid.encode(spec, lat, lon))
        per_user.setdefault(user_id, []).append((ts, cell))
    if n_oob:
        _logger.warning("dropped %d point(s) outside the grid bounding box", n_oob)
    return per_user


def ref_regularize(per_user, sampling_period):
    traces = []
    n_short = 0
    for user_id, rows in per_user.items():
        rows.sort(key=lambda r: r[0])
        dedup = {}
        for ts, cell in rows:
            dedup[ts] = cell  # keep last
        ts = np.fromiter(dedup.keys(), dtype=np.int64)
        cells = np.fromiter(dedup.values(), dtype=np.int64)
        order = np.argsort(ts)
        ts, cells = ts[order], cells[order]
        if ts.size < 2:
            n_short += 1
            continue
        grid_ts = np.arange(ts[0], ts[-1] + 1, sampling_period, dtype=np.int64)
        idx = np.searchsorted(ts, grid_ts, side="right") - 1
        traces.append(GridTrace(user_id, cells[idx], grid_ts))
    if n_short:
        _logger.warning("dropped %d user(s) with fewer than 2 surviving points", n_short)
    return traces


def ref_load_targets(text, period):
    """The targets reader the column label check replaced: (traces, members
    first, and the number of members)."""
    labels = {}

    def labelled(reader):
        for lineno, row in enumerate(reader, start=1):
            if (row and not (len(row) == 1 and not row[0].strip())
                    and not (lineno == 1 and row[0].strip().lower() == "user_id")):
                if len(row) < 5:
                    raise ParseError("targets file needs user_id,timestamp,lat,lon,is_member",
                                     line=lineno)
                user, is_member = row[0].strip(), row[4].strip() in ("1", "true", "yes")
                if labels.setdefault(user, is_member) != is_member:
                    raise ParseError(f"user_id {user!r} is labelled both member and "
                                     "non-member", line=lineno)
            yield row

    traces = ref_regularize(ref_parse_rows(labelled(_text_reader(text)), SPEC), period)
    by_user = {t.user_id: t for t in traces}
    members = [by_user[u] for u, m in labels.items() if m and u in by_user]
    return members + [by_user[u] for u, m in labels.items() if not m and u in by_user], \
        len(members)


def _text_reader(text):
    """A csv reader over text, as over a file opened with newline=""."""
    return csv.reader(io.StringIO(text, newline=""))


@contextlib.contextmanager
def _logged():
    """Messages the dataio logger emits inside the block."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    _logger.addHandler(handler)
    try:
        yield records
    finally:
        _logger.removeHandler(handler)


def _run(read, text, period):
    """(traces as plain tuples, or the ParseError's (line, message)), log
    lines; ``read(text, period)`` gives traces, or (traces, member count)."""
    with _logged() as records:
        try:
            got = read(text, period)
            traces, extra = got if isinstance(got, tuple) else (got, None)
            out = ([(t.user_id, t.cells.tolist(), t.timestamps.tolist()) for t in traces], extra)
        except ParseError as exc:
            out = (exc.line, str(exc))
    return out, [r.getMessage() for r in records]


def _reference(text, period):
    return ref_regularize(ref_parse_rows(_text_reader(text), SPEC), period)


def _per_row(text, period):
    """ingest with the file's rows read by the per-row reader alone."""
    lines = dataio.text_lines(io.BytesIO(text.encode("utf-8")))
    points = dataio._parse_rows(csv.reader(lines), len(dataio.CSV_HEADER))
    return dataio._regularize(dataio._inside(points, SPEC), SPEC, period).traces


def _bytes_reader(text, period):
    """ingest of the file's bytes: the array reader, or the per-row one
    where the array reader leaves the file."""
    return ingest(io.BytesIO(text.encode("utf-8")), SPEC, period).traces


def _targets_reader(text, period):
    targets, n_members = dataio.load_targets(io.BytesIO(text.encode("utf-8")), SPEC, period)
    return targets.traces, n_members


_IN_BOX = st.sampled_from(_centres(0, 1, 7, 300, 65535)) | st.tuples(
    st.floats(SPEC.lat_min, SPEC.lat_max), st.floats(SPEC.lon_min, SPEC.lon_max))
_OUT_OF_BOX = st.sampled_from([(SPEC.lat_max + 0.5, 7.0), (46.0, SPEC.lon_min - 1e-9),
                               (SPEC.lat_min - 1.0, SPEC.lon_max + 1.0)])
_ROW = st.tuples(st.sampled_from(["u0", "u1", "u2", "u3", " u1 ", "user_id"]),
                 st.integers(0, 12).map(lambda k: 300 * k),
                 _IN_BOX | _OUT_OF_BOX)
_BAD_FIELDS = st.sampled_from([("zero", "46.0", "7.0"), ("-600", "46.0", "7.0"),
                               ("600", "nan", "7.0"), ("600", "46.0", "-inf"),
                               ("600", "north", "7.0")])


class TestGridTrace:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridTrace("u", [], [])
        with pytest.raises(DomainError):
            GridTrace("u", [1, 2], [0])
        with pytest.raises(DomainError):
            GridTrace("u", [1, 2], [600, 600])
        with pytest.raises(DomainError):
            GridTrace("u", [1, 2], [600, 0])

    def test_hour_of_day(self):
        hours = hour_of_day(np.array([0, 3600, 86400 + 7200]))
        assert hours.tolist() == [0.0, 1.0, 2.0]


_GRID_TRACES = st.lists(
    st.tuples(st.lists(st.integers(0, SPEC.n_cells - 1), min_size=1, max_size=12),
              st.integers(0, 10 ** 6), st.sampled_from([1, 600, 3600])),
    max_size=6).map(lambda rows: [
        GridTrace(f"u{i}", cells, start + step * np.arange(len(cells)))
        for i, (cells, start, step) in enumerate(rows)])


def _plain(traces):
    return [(t.user_id, t.cells.tolist(), t.timestamps.tolist()) for t in traces]


class TestColumnarCorpus:
    @settings(max_examples=200, deadline=None)
    @given(traces=_GRID_TRACES)
    def test_columns_concatenate_the_traces(self, traces):
        # one-point traces and the empty corpus both come up
        corpus = Corpus(SPEC, traces, 600)
        assert corpus.cells.dtype == corpus.timestamps.dtype == np.int64
        assert corpus.cells.tolist() == [c for t in traces for c in t.cells.tolist()]
        assert corpus.timestamps.tolist() == [x for t in traces for x in t.timestamps.tolist()]
        assert corpus.offsets.tolist() == np.cumsum([0] + [len(t) for t in traces]).tolist()
        assert len(corpus) == len(traces)
        assert corpus.n_points() == sum(len(t) for t in traces)
        assert corpus.trace_index().tolist() == [k for k, t in enumerate(traces)
                                                 for _ in range(len(t))]
        assert corpus.trace_positions().tolist() == [j for t in traces for j in range(len(t))]
        assert _plain(corpus.traces) == _plain(traces)
        again = Corpus(SPEC, corpus.traces, 600)
        assert _plain(again.traces) == _plain(traces)
        assert again.offsets.tolist() == corpus.offsets.tolist()

    def test_every_producer_gives_views_of_its_columns(self):
        from mobsynth.generators import MarkovGenerator, VineGenerator

        sim = simulate_ground_truth(SPEC, 6, 60, 10, seed=3)
        (lat, lon), (lat2, lon2) = _centres(100, 200)
        ingested = ingest(_csv([("u1", 0, lat, lon), ("u1", 1800, lat2, lon2),
                                ("u2", 600, lat2, lon2), ("u2", 700, lat, lon)]), SPEC, 600)
        vine = VineGenerator.fit(sim, window=2, max_scores=200, max_rows=500)
        corpora = [sim, ingested, MarkovGenerator.fit(sim).generate(4, 30, 0, seed=1),
                   vine.generate(4, 30, 0, seed=1)]
        for corpus in corpora:
            assert len(corpus.traces) == len(corpus) > 1
            for trace in corpus.traces:
                assert np.shares_memory(trace.cells, corpus.cells)
                assert np.shares_memory(trace.timestamps, corpus.timestamps)


class TestColumnParserExactness:
    """Column parse + regularize against the per-row reference above."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ROW, max_size=40), st.sampled_from([300, 600, 1000]), st.data())
    def test_matches_per_row_reference(self, rows, period, data):
        # shuffled feeds: duplicate timestamps, out-of-box first rows and
        # one-point users all come up; a header only counts on line 1
        lines = [[u, str(t), repr(la), repr(lo)] for u, t, (la, lo) in rows]
        if data.draw(st.booleans()):
            lines.insert(0, ["user_id", "timestamp", "lat", "lon"])
        if lines and data.draw(st.integers(0, 4)) == 0:
            at = data.draw(st.integers(0, len(lines) - 1))
            lines[at] = [lines[at][0], *data.draw(_BAD_FIELDS)]
        buf = io.StringIO()
        csv.writer(buf).writerows(lines)
        text = buf.getvalue() + data.draw(st.sampled_from(["", "\n", "u9,0\n"]))
        expected = _run(_reference, text, period)
        assert _run(_per_row, text, period) == expected
        assert _run(_bytes_reader, text, period) == expected

    def test_trace_order_is_first_point_inside_the_box(self):
        (a,), (b,) = _centres(5), _centres(9)
        text = _csv([("u1", 0, 0.0, 0.0), ("u2", 0, *a), ("u1", 600, *b),
                     ("u2", 600, *a), ("u1", 1200, *b)]).getvalue().decode()
        expected = _run(_reference, text, 600)
        assert [t[0] for t in expected[0][0]] == ["u2", "u1"]
        assert _run(_per_row, text, 600) == expected
        assert _run(_bytes_reader, text, 600) == expected

    @pytest.mark.parametrize("budget", [None, 64, 150])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), period=st.sampled_from([300, 600]))
    def test_array_reader_matches_per_row_reference(self, budget, data, period):
        # with a budget of a few lines, every block boundary comes up
        text = data.draw(_raw_files(n_fields=4))
        with _block_bytes(budget):
            assert _run(_bytes_reader, text, period) == _run(_reference, text, period)

    @pytest.mark.parametrize("budget", [None, 64, 150])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_targets_match_per_row_reference(self, budget, data):
        text = data.draw(_raw_files(n_fields=5))
        with _block_bytes(budget):
            assert _run(_targets_reader, text, 600) == _run(ref_load_targets, text, 600)

    def test_uneven_commas_that_add_up_leave_the_file_to_the_per_row_reader(self):
        # four commas, then two: the block's count is right for two rows
        text = "user_id,timestamp,lat,lon\nu1,0,46.0,7.0,9\nu1,600,46.0\n"
        assert dataio._parse_blocks(io.BytesIO(text.encode()), 4) is None
        assert _run(_bytes_reader, text, 600)[0] == (3, "line 3: expected 4 columns, got 3")
        # no cast reads a label, so only the comma positions show that the
        # row of line 3 would begin at line 2's extra comma, with "5\n " as
        # its timestamp
        text = "user_id,timestamp,lat,lon,is_member\nu1,0,46.0,7.0,1,5\n ,600,46.0,7.0\n"
        assert dataio._parse_blocks(io.BytesIO(text.encode()), 5) is None
        expected = _run(ref_load_targets, text, 600)
        assert expected[0][0] == 3 and _run(_targets_reader, text, 600) == expected

    def test_a_field_that_widens_the_block_past_its_budget_leaves_it_to_the_per_row_reader(self):
        # one 104-byte user field sets the width of all 22 lines' user column,
        # so the block's S columns pass four times a budget of the file's size
        rows = ["user_id,timestamp,lat,lon", "u1" + " " * 102 + ",0,46.0,7.0"]
        rows += [f"u1,{600 * k},46.0,7.0" for k in range(1, 21)]
        text = "\n".join(rows) + "\n"
        assert dataio._parse_blocks(io.BytesIO(text.encode()), 4) is not None
        with _block_bytes(len(text)):
            assert dataio._parse_blocks(io.BytesIO(text.encode()), 4) is None
            got = _run(_bytes_reader, text, 600)
        assert got == _run(_per_row, text, 600)
        assert len(got[0][0][0][1]) == 21

    def test_each_text_column_is_as_wide_as_its_widest_field(self):
        # the user column's widest field is on one line, the label column's
        # on another; a label cut to the user ids' width would read "yes"
        label = "yes" + " " * 17 + "x"
        text = ("user_id,timestamp,lat,lon,is_member\n"
                "a_long_user_id,0,46.0,7.0,1\na_long_user_id,600,46.0,7.0,1\n"
                f"u2,0,46.0,7.0,{label}\nu2,600,46.0,7.0,{label}\n")
        assert dataio._plain_lines(text.encode()) == (5, 14, 21)
        got = dataio._parse_blocks(io.BytesIO(text.encode()), 5)
        lines = dataio.text_lines(io.BytesIO(text.encode()))
        want = dataio._parse_rows(csv.reader(lines), 5)
        assert got.names == want.names == ["a_long_user_id", "u2"]
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a, b)
        assert got.member.tolist() == [True, True, False, False]
        assert _run(_targets_reader, text, 600) == _run(ref_load_targets, text, 600)

    def test_first_of_a_label_clash_and_a_bad_row_is_the_error(self):
        rows = ["u1,0,46.0,7.0,1", "u1,600,46.0,7.0,0", "u2,bad,46.0,7.0,0"]
        for text, line in (("\n".join(rows), 2), ("\n".join(rows[::-1]), 1)):
            expected = _run(ref_load_targets, text, 600)
            assert expected[0][0] == line
            assert _run(_targets_reader, text, 600) == expected

    def test_oversize_field_is_parse_error_after_a_label_clash(self):
        # csv refuses the field while reading its row, before the row's checks run
        rows = ["u1,0,46.0,7.0,1", "u" * (csv.field_size_limit() + 1) + ",0,46.0,7.0,1"]
        for text, line, message in (("\n".join(rows), 2, "field larger than field limit"),
                                    ("\n".join([rows[0], "u1,600,46.0,7.0,0", rows[1]]), 2,
                                     "labelled both member and non-member")):
            with pytest.raises(ParseError, match=message) as err:
                _targets_reader(text, 600)
            assert err.value.line == line

    def test_array_reader_reads_every_file_of_a_pass(self, tmp_path, monkeypatch):
        # a raw feed as the benchmark writes it, a corpus file and a targets
        # file are each read whole by the array reader
        sim = simulate_ground_truth(SPEC, 12, 80, 20, seed=4)
        corpus_path, raw, targets = (tmp_path / n for n in ("c.csv", "raw.csv", "t.csv"))
        dataio.save_corpus(sim, corpus_path)
        rng = np.random.default_rng(5)
        lat, lon = decode(SPEC, sim.cells)
        rows = [[u, t, repr(a), repr(o)] for u, t, a, o in zip(
            np.repeat(sim.user_ids, np.diff(sim.offsets)).tolist(), sim.timestamps.tolist(),
            (lat + rng.uniform(-1e-4, 1e-4, lat.size)).tolist(), lon.tolist())]
        rows += [["gt_0", 60, repr(SPEC.lat_max + 0.5), "7.0"], ["short", 0, "46.0", "7.0"]]
        for path, header, body in ((raw, dataio.CSV_HEADER, rows),
                                   (targets, dataio.CSV_HEADER + ["is_member"],
                                    [r + [int(r[0] in sim.user_ids[:5])] for r in rows])):
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([header] + [body[i] for i in rng.permutation(len(body))])
        want = [ingest(raw, SPEC, 600), dataio.load_corpus(corpus_path),
                dataio.load_targets(targets, SPEC, 600)]

        def per_row(*args):
            raise AssertionError("the per-row reader ran")

        monkeypatch.setattr(dataio, "_parse_rows", per_row)
        got = [ingest(raw, SPEC, 600), dataio.load_corpus(corpus_path),
               dataio.load_targets(targets, SPEC, 600)]
        assert want[2][1] == got[2][1] == 5
        for a, b in zip([*want[:2], want[2][0]], [*got[:2], got[2][0]]):
            assert _plain(a.traces) == _plain(b.traces) and len(a) > 5

    def test_array_reader_peak_memory(self, tmp_path, monkeypatch):
        # a 72,000-row corpus file, read whole by each reader in turn
        path = tmp_path / "c.csv"
        dataio.save_corpus(simulate_ground_truth(SPEC, 500, 144, 286, seed=6), path)

        def peak():
            tracemalloc.start()
            try:
                corpus = dataio.load_corpus(path)
                return tracemalloc.get_traced_memory()[1], corpus
            finally:
                tracemalloc.stop()

        array_peak, by_blocks = peak()
        monkeypatch.setattr(dataio, "_parse_blocks", lambda fh, n_fields: None)
        per_row_peak, by_rows = peak()
        assert by_blocks.n_points() == by_rows.n_points() == 72_000
        assert np.array_equal(by_blocks.cells, by_rows.cells)
        assert array_peak <= per_row_peak

    def test_non_utf8_line_is_parse_error(self):
        head = "user_id,timestamp,lat,lon\nu1,0,46.0,7.0\n".encode()
        with pytest.raises(ParseError, match="not UTF-8: byte 0xe9") as err:
            ingest(io.BytesIO(head + b"u\xe9,600,46.0,7.0\n"), SPEC, 600)
        assert err.value.line == 3
        # a bad row before it is the first error
        with pytest.raises(ParseError, match="negative timestamp") as err:
            ingest(io.BytesIO(head + b"u1,-1,46.0,7.0\nu\xe9,600,46.0,7.0\n"), SPEC, 600)
        assert err.value.line == 3


_PLAIN_FIELDS = (st.sampled_from(["u0", "u1", "u2", " u1 "]),
                 st.integers(0, 12).map(lambda k: str(300 * k)),
                 (_IN_BOX | _OUT_OF_BOX).map(lambda p: repr(p[0])),
                 (_IN_BOX | _OUT_OF_BOX).map(lambda p: repr(p[1])),
                 st.sampled_from(["1", "0", "true", "yes", " 1 ", "no"]))
# fields the per-row reader takes apart from the array reader, or refuses
_ODD_FIELDS = (st.sampled_from(['"u,1"', '"u1"', "u\u00e9", "", "user_id", "u\t1"]),
               st.sampled_from([" 600 ", "6_00", "+600", "0600", "-600", "-0", "600.0",
                                "9223372036854775808", "", "\u0663\u0660\u0660", "1e3"]),
               st.sampled_from([" 46.5 ", "4_6.5", "+46.5", "46.5e0", "inf", "nan", "1e400",
                                "-inf", "north", "", "\t46.5"]),
               st.sampled_from([" 7.5 ", "7_0.5", "7.", "1e400", "NaN", "-Infinity", ""]),
               st.sampled_from(["TRUE", "1 ", "", '"1"']))


@st.composite
def _raw_files(draw, n_fields):
    """A CSV's text: mostly plain rows, now and then an odd field, a row of
    another field count, a blank or whitespace-only line, a lone CR or a
    header past line 1; LF or CRLF lines, with or without a final newline."""
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(dataio.CSV_HEADER + ["is_member"][:n_fields - 4]))
    for _ in range(draw(st.integers(0, 25))):
        fields = [draw(f) for f in _PLAIN_FIELDS[:n_fields]]
        odd = draw(st.integers(0, 30))
        if odd < n_fields:
            fields[odd] = draw(_ODD_FIELDS[odd])
        elif odd == 6:
            fields = fields[:3] if draw(st.booleans()) else fields + ["x"]
        lines.append(",".join(fields))
        if odd == 7:
            lines.append(draw(st.sampled_from(["", " ", "\t", "user_id,timestamp,lat,lon"])))
        elif odd == 8:
            lines[-1] += "\r"
    ends = draw(st.sampled_from(["\n", "\r\n"]))
    return ends.join(lines) + draw(st.sampled_from(["", ends]))


@contextlib.contextmanager
def _block_bytes(budget):
    """The array reader's block budget set to ``budget`` (None: left as it is)."""
    with mock.patch.object(dataio, "_BLOCK_BYTES", budget or dataio._BLOCK_BYTES):
        yield


# strings on which the array reader must read a number as int() and float()
# read it, or leave the file to the per-row reader
_CAST_EDGES = ["0", "5", "-5", "+5", " 5", "5 ", "\t5\t", "\x0b5\x0c", "\x1c5\x1f", "007",
               "1_0", "1__0", "_10", "10_", "0x10", "0b1", "1e3", "1.0", "", " ", "+", "-",
               "- 5", "1 5", "1,5", "9223372036854775807", "9223372036854775808",
               "-9223372036854775808", "-9223372036854775809", "1" * 30, "1.5", ".5", "5.",
               "-1.5e-5", "1E+5", "1e400", "-1e400", "1e-400", "inf", "-inf", "+Inf",
               "infinity", "-Infinity", "infi", "nan", "-nan", "NaN", "nan(1)", "1.5e", "e5",
               "1.5.5", "1_0.5", "1_000.000_1", "1.5_", "1._5", "1e1_0", "0x1p3", "1d5",
               "1.5f", "  1.5  ", "46.123456789012345678901234", "2.2250738585072011e-308",
               "4.9406564584124654e-324", "2.4703282292062328e-324", "1.7976931348623157e308",
               "1.7976931348623159e308", "9007199254740993", "0." + "1" * 60]


def _block_reads(text):
    """The array reader's columns for a file's text, or None where it
    leaves the file to the per-row reader."""
    return dataio._parse_blocks(io.BytesIO(text.encode()), 4)


class TestCastContract:
    """The array reader reads each number as int() and float() read it, or
    leaves the file to the per-row reader, which calls them."""

    @pytest.mark.parametrize("text", _CAST_EDGES)
    def test_block_reader_reads_numbers_as_int_and_float_do(self, text):
        points = _block_reads(f"u1,{text},46.5,7.5\n")
        if points is not None:
            assert points.ts.tolist() == [int(text)]
        points = _block_reads(f"u1,600,{text},7.5\n")
        if points is not None:
            assert points.lat.tobytes() == struct.pack("<d", float(text))

    @pytest.mark.parametrize("ts, lat", [("600", "46.5"), ("0", "-46.5"), ("007", "1E+5"),
                                         ("9223372036854775807", "4.9406564584124654e-324")])
    def test_block_reader_takes_plain_numbers(self, ts, lat):
        points = _block_reads(f"u1,{ts},{lat},7.5\n")
        assert points.ts.tolist() == [int(ts)]
        assert points.lat.tobytes() == struct.pack("<d", float(lat))

    def test_float_cast_rounds_as_float_does(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-180, 180, 20_000)
        texts = ([repr(v) for v in x.tolist()] + [f"{v:.25f}" for v in x[:5000].tolist()]
                 + [f"{v:.3e}" for v in x[:5000].tolist()])
        points = _block_reads("".join(f"u1,0,{t},7.5\n" for t in texts))
        assert points.lat.tobytes() == np.array([float(t) for t in texts]).tobytes()

    def test_numpy_meets_the_floor_the_contract_was_checked_on(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        floor = tuple(int(x) for x in re.search(r'"numpy>=([0-9.]+)"', pyproject)[1].split("."))
        assert floor >= (2, 4)
        assert tuple(int(x) for x in np.__version__.split(".")[:len(floor)]) >= floor


class TestIngest:
    def test_resampling_carry_forward(self):
        (lat, lon), (lat2, lon2) = _centres(100, 200)
        corpus = ingest(_csv([
            ("u1", 0, lat, lon),
            ("u1", 1800, lat2, lon2),
        ]), SPEC, sampling_period=600)
        assert len(corpus) == 1
        trace = corpus.traces[0]
        assert trace.timestamps.tolist() == [0, 600, 1200, 1800]
        assert trace.cells.tolist() == [100, 100, 100, 200]

    def test_long_legal_gap_resamples(self):
        # a million-step gap stays under MAX_GRID_POINTS and is carried forward
        (lat, lon), (lat2, lon2) = _centres(100, 200)
        gap = 10 ** 6
        corpus = ingest(_csv([
            ("u1", 0, lat, lon),
            ("u1", gap * 600, lat2, lon2),
        ]), SPEC, sampling_period=600)
        trace, = corpus.traces
        assert np.array_equal(trace.timestamps, np.arange(gap + 1) * 600)
        assert np.all(trace.cells[:-1] == 100) and trace.cells[-1] == 200

    def test_corpus_grid_is_capped(self, monkeypatch):
        # each user is legal alone, two reach MAX_GRID_POINTS, three pass it
        monkeypatch.setattr(dataio, "MAX_GRID_POINTS", 1000)
        (lat, lon), = _centres(10)
        rows = [(u, t * 600, lat, lon) for u in ("u1", "u2", "u3") for t in (0, 499)]
        with pytest.raises(DomainError, match="'u3' spans 500 grid points"):
            ingest(_csv(rows), SPEC, sampling_period=600)
        assert len(ingest(_csv(rows[:4]), SPEC, sampling_period=600)) == 2

    def test_unsorted_and_duplicate_rows(self):
        (lat, lon), (lat2, lon2) = _centres(5, 6)
        corpus = ingest(_csv([
            ("u1", 600, lat, lon),
            ("u1", 0, lat, lon),
            ("u1", 600, lat2, lon2),  # duplicate timestamp: last one wins
        ]), SPEC, sampling_period=600)
        assert corpus.traces[0].cells.tolist() == [5, 6]

    def test_out_of_bounds_dropped(self):
        (lat, lon), = _centres(10)
        corpus = ingest(_csv([
            ("u1", 0, lat, lon),
            ("u1", 600, 0.0, 0.0),
            ("u1", 1200, lat, lon),
        ]), SPEC, sampling_period=600)
        assert corpus.traces[0].cells.tolist() == [10, 10, 10]

    def test_single_point_user_dropped(self):
        (lat, lon), = _centres(10)
        corpus = ingest(_csv([
            ("u1", 0, lat, lon),
            ("u2", 0, lat, lon),
            ("u2", 600, lat, lon),
        ]), SPEC, sampling_period=600)
        assert [t.user_id for t in corpus.traces] == ["u2"]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            ingest(_csv([("u1", "zero", 46.0, 7.0)]), SPEC, 600)
        assert err.value.line == 2
        with pytest.raises(ParseError):
            ingest(_csv([("u1", 0)]), SPEC, 600)
        with pytest.raises(ParseError):
            ingest(_csv([("u1", -5, 46.0, 7.0)]), SPEC, 600)
        # a non-finite coordinate is malformed, not "outside the bounding box"
        for bad in [("u1", 600, "nan", 7.0), ("u1", 600, 46.0, "inf"),
                    ("u1", 600, "-inf", 7.0)]:
            with pytest.raises(ParseError) as err:
                ingest(_csv([("u1", 0, 46.0, 7.0), bad]), SPEC, 600)
            assert err.value.line == 3

    def test_line_numbers_count_file_lines_not_records(self):
        # the quoted user id "a\nb" spans lines 2 and 3, so the next row is line 4
        head = 'user_id,timestamp,lat,lon\n"a\nb",0,46.0,7.0\n'
        with pytest.raises(ParseError, match="line 4: invalid literal") as err:
            ingest(io.BytesIO((head + "u1,bad,46.0,7.0\n").encode()), SPEC, 600)
        assert err.value.line == 4
        # csv refuses a field while reading its row
        oversize = "u" * (csv.field_size_limit() + 1) + ",0,46.0,7.0\n"
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            ingest(io.BytesIO((head + oversize).encode()), SPEC, 600)
        assert err.value.line == 4
        # a targets file's line column names the line of a label clash
        text = ('user_id,timestamp,lat,lon,is_member\n"a\nb",0,46.0,7.0,1\n'
                'u1,0,46.0,7.0,1\nu1,600,46.0,7.0,0\n')
        with pytest.raises(ParseError, match="line 5: user_id 'u1' is labelled both") as err:
            _targets_reader(text, 600)
        assert err.value.line == 5

    def test_non_finite_target_is_parse_error(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("user_id,timestamp,lat,lon,is_member\n"
                        "u1,0,46.0,7.0,1\nu1,600,46.0,nan,1\n")
        with pytest.raises(ParseError) as err:
            dataio.load_targets(path, SPEC, 600)
        assert err.value.line == 3

    def test_whitespace_only_target_row_is_skipped(self, tmp_path):
        rows = ["user_id,timestamp,lat,lon,is_member", "u1,0,46.0,7.0,1",
                "u1,600,46.0,7.0,1", "u2,0,46.5,8.0,0", "u2,600,46.5,8.0,0"]
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text("\n".join(rows) + "\n")
        blank.write_text("\n".join(rows[:2] + ["   "] + rows[2:] + ["\t"]) + "\n")
        want, n_want = dataio.load_targets(plain, SPEC, 600)
        got, n_got = dataio.load_targets(blank, SPEC, 600)
        assert got.user_ids == want.user_ids == ["u1", "u2"] and n_got == n_want == 1
        assert np.array_equal(got.cells, want.cells)
        assert np.array_equal(got.offsets, want.offsets)

    def test_bad_sampling_period(self):
        with pytest.raises(DomainError):
            ingest(_csv([]), SPEC, 0)


# -- scalar reference: the simulator the array step replaced, one user and
#    one step at a time, with the exact transition rows of README section 7 --

class ScalarSimulator:
    def __init__(self, spec, n_users, n_hotspots, seed, population_seed=None, params=None):
        self.params = params or SimulatorParams()
        pop_rng = np.random.default_rng(seed if population_seed is None else population_seed)
        self.hotspots = np.sort(pop_rng.choice(spec.n_cells, size=n_hotspots, replace=False))
        weights = 1.0 / np.arange(1, n_hotspots + 1) ** self.params.popularity_exponent
        pop_rng.shuffle(weights)
        self.popularity = weights / weights.sum()
        self._pop_cdf = np.cumsum(self.popularity)
        self._pop_cdf[-1] = 1.0
        self.homes = np.array([self._draw_pop(pop_rng) for _ in range(n_users)])
        self.works = np.empty(n_users, dtype=np.int64)
        for i in range(n_users):
            w = self._draw_pop(pop_rng)
            while w == self.homes[i]:
                w = self._draw_pop(pop_rng)
            self.works[i] = w
        self.n_users = n_users
        self.rng = np.random.default_rng(seed)

    def _draw_pop(self, rng):
        return int(np.searchsorted(self._pop_cdf, rng.uniform()))

    def anchor(self, user, hour):
        h = hour % 24
        if h >= 20 or h < 8:
            return int(self.homes[user])
        if 9 <= h < 17:
            return int(self.works[user])
        # transit: heading to work in the morning, home in the evening
        return int(self.works[user]) if h < 12 else int(self.homes[user])

    def _noise_weight(self, hour):
        h = hour % 24
        in_regime = h >= 20 or h < 8 or 9 <= h < 17
        return 1.0 if in_regime else 3.0  # transit hours are noisier

    def _stay(self, state, a, noise):
        p = self.params
        stay = p.stay_at_anchor if state == a else p.stay_elsewhere
        return stay ** noise if noise > 1 else stay

    def _step(self, state, a, u, v, noise):
        stay = self._stay(state, a, noise)
        if u < stay:
            return state
        rest = 1.0 - stay
        if state != a:
            if u < stay + rest * self.params.pull_to_anchor:
                return a
        return int(np.searchsorted(self._pop_cdf, v))

    def transition_row(self, user, state, hour):
        """Next-hotspot distribution from ``state`` at ``hour``: stay, else
        away from the anchor a ``pull_to_anchor`` share of the rest goes to
        it, and what is left is spread by popularity."""
        a = self.anchor(user, hour)
        stay = self._stay(state, a, self._noise_weight(hour))
        row = (1.0 - stay) * self.popularity
        if state != a:
            row *= 1.0 - self.params.pull_to_anchor
            row[a] += (1.0 - stay) * self.params.pull_to_anchor
        row[state] += stay
        return row

    def transition_matrix(self, user, hour):
        return np.stack([self.transition_row(user, j, hour) for j in range(self.hotspots.size)])

    def stationary_distribution(self, user, hour):
        """pi with pi P = pi and sum(pi) = 1, P the fixed-hour matrix."""
        m = self.hotspots.size
        lhs = self.transition_matrix(user, hour).T - np.eye(m)
        lhs[-1] = 1.0
        return np.linalg.solve(lhs, np.eye(m)[-1])

    def simulate(self, trace_len, sampling_period, start_time=0):
        """(cells, timestamps) with one row of cells per user."""
        timestamps = start_time + sampling_period * np.arange(trace_len, dtype=np.int64)
        hours = hour_of_day(timestamps)
        states = self.homes.copy()
        path = np.empty((self.n_users, trace_len), dtype=np.int64)
        for i in range(trace_len):
            h = hours[i]
            noise = self._noise_weight(h)
            u = self.rng.uniform(size=self.n_users)
            v = self.rng.uniform(size=self.n_users)
            for k in range(self.n_users):
                a = self.anchor(k, h)
                states[k] = self._step(states[k], a, u[k], v[k], noise)
            path[:, i] = states
        return self.hotspots[path], timestamps


def _fixed_hour_walk(ref, hour, n_copies, n_steps, seed):
    """``_walk`` of ``n_copies`` copies of ``ref``'s user 0 with the hour
    held fixed: (copies, steps) hotspot indices."""
    homes, works = (np.full(n_copies, a[0]) for a in (ref.homes, ref.works))
    return _walk(homes, works, ref._pop_cdf, ref.params, np.full(n_steps, hour),
                 np.random.default_rng(seed))


# hours 08-09 and 17-20 are the transit hours, where the anchor changes and
# the noise is raised; these starts put a trace's first steps around them
_TRANSIT_STARTS = [0, 7 * 3600 + 1800, 8 * 3600, 8 * 3600 + 1800, 9 * 3600 - 600,
                   16 * 3600 + 3000, 17 * 3600, 19 * 3600 + 1800, 20 * 3600 - 600]


class TestSimulatorExactness:
    """The array simulator against the scalar reference above, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(n_users=st.integers(1, 30), n_hotspots=st.integers(2, 40),
           seed=st.integers(0, 2 ** 32 - 1),
           population_seed=st.none() | st.integers(0, 2 ** 32 - 1),
           params=st.sampled_from([
               None, SimulatorParams(0.95, 0.3),          # default, gates
               SimulatorParams(0.0, 0.0, 0.0, 1.0),      # never stays, never pulled
               SimulatorParams(1.0, 1.0, 1.0, 1.0),      # always stays
               SimulatorParams(1.0, 0.0, 1.0, 0.5),      # always pulled home
               SimulatorParams(0.0, 1.0, 0.5, 0.0),      # uniform popularity
               SimulatorParams(0.999, 0.001, 0.999, 3.0)]),
           period=st.sampled_from([600, 1800, 3600, 86400]),
           start=st.sampled_from(_TRANSIT_STARTS) | st.integers(0, 3 * 86400),
           trace_len=st.integers(1, 60))
    def test_matches_scalar_reference(self, n_users, n_hotspots, seed, population_seed,
                                      params, period, start, trace_len):
        ref = ScalarSimulator(SPEC, n_users, n_hotspots, seed,
                              population_seed=population_seed, params=params)
        hotspots, pop_cdf, homes, works = _population(
            SPEC, n_users, n_hotspots, seed if population_seed is None else population_seed,
            ref.params)
        assert np.array_equal(hotspots, ref.hotspots)
        assert np.array_equal(pop_cdf, ref._pop_cdf)
        assert np.array_equal(homes, ref.homes)
        assert np.array_equal(works, ref.works)
        corpus = simulate_ground_truth(SPEC, n_users, trace_len, n_hotspots, seed,
                                       sampling_period=period, start_time=start,
                                       population_seed=population_seed, params=params)
        cells, timestamps = ref.simulate(trace_len, period, start_time=start)
        assert [t.user_id for t in corpus.traces] == [f"gt_{k}" for k in range(n_users)]
        for trace, want in zip(corpus.traces, cells, strict=True):
            assert np.array_equal(trace.cells, want)
            assert np.array_equal(trace.timestamps, timestamps)
        for hour in np.arange(0.0, 48.0, 0.25):
            assert _rule(hour, homes, works, ref.params)[0].tolist() == \
                [ref.anchor(k, hour) for k in range(n_users)]

    @pytest.mark.parametrize("seed", range(5))
    def test_two_hotspots_where_most_work_draws_clash(self, seed):
        # popularity 8:1, so about 8 in 10 users have the popular home and
        # each work draw of theirs clashes with it with chance 8/9
        params = SimulatorParams(popularity_exponent=3.0)
        _, _, homes, works = _population(SPEC, 300, 2, seed, params)
        ref = ScalarSimulator(SPEC, 300, 2, seed, params=params)
        assert np.count_nonzero(homes == np.argmax(ref.popularity)) > 200
        assert np.array_equal(homes, ref.homes)
        assert np.array_equal(works, ref.works)
        assert np.all(works != homes)


class _LargestDraw:
    """A generator whose every uniform draw is the largest one, 1 - 2^-53."""

    def uniform(self, size=None):
        return np.full(size, np.nextafter(1.0, 0.0))


class TestSimulator:
    def test_largest_draw_picks_the_last_hotspot(self):
        # at population seed 4 the popularity CDF of 3,000 hotspots sums to
        # 1 - 5 * 2^-53, below the largest draw; every user leaves its anchor
        params = SimulatorParams()
        hotspots, pop_cdf, homes, works = _population(SPEC, 3, 3000, 4, params)
        path = _walk(homes, works, pop_cdf, params, hour_of_day(np.array([0, 600])),
                     _LargestDraw())
        assert np.all(hotspots[path] == hotspots[-1])

    def test_determinism(self):
        a = simulate_ground_truth(SPEC, 5, 50, 20, seed=9)
        b = simulate_ground_truth(SPEC, 5, 50, 20, seed=9)
        for ta, tb in zip(a.traces, b.traces):
            assert np.array_equal(ta.cells, tb.cells)
            assert np.array_equal(ta.timestamps, tb.timestamps)
        c = simulate_ground_truth(SPEC, 5, 50, 20, seed=10)
        assert any(not np.array_equal(ta.cells, tc.cells)
                   for ta, tc in zip(a.traces, c.traces))

    def test_population_seed_pins_layout_and_anchors(self):
        hotspots, _, homes, _ = _population(SPEC, 4, 20, 77, SimulatorParams())
        # users who always stay keep their home whatever the trajectory seed
        still = SimulatorParams(1.0, 1.0, 1.0, 1.0)
        for seed in (1, 2):
            corpus = simulate_ground_truth(SPEC, 4, 30, 20, seed=seed, population_seed=77,
                                           params=still)
            assert np.array_equal(corpus.cells, np.repeat(hotspots[homes], 30))
            moving = simulate_ground_truth(SPEC, 4, 30, 20, seed=seed, population_seed=77)
            assert np.isin(moving.cells, hotspots).all()

    def test_transition_rows_are_distributions(self):
        ref = ScalarSimulator(SPEC, 2, 12, seed=4)
        for hour in (3.0, 11.0, 18.5):
            mat = ref.transition_matrix(0, hour)
            assert np.allclose(mat.sum(axis=1), 1.0)
            assert np.all(mat >= 0)

    def test_transition_matrix_recovered_from_counts(self):
        # count-based estimate from 200,000 fixed-hour steps of the array
        # walk must match the analytic transition rows within 0.02 per entry
        ref = ScalarSimulator(SPEC, 1, 8, seed=4)
        path = _fixed_hour_walk(ref, 11.0, 2000, 101, seed=0)
        m = ref.hotspots.size
        counts = np.zeros((m, m))
        np.add.at(counts, (path[:, :-1], path[:, 1:]), 1.0)
        rows = counts.sum(axis=1)
        est = counts / np.maximum(rows, 1.0)[:, None]
        truth = ref.transition_matrix(0, 11.0)
        well_sampled = rows > 5000
        assert well_sampled.any()
        assert np.max(np.abs(est[well_sampled] - truth[well_sampled])) < 0.02

    def test_stationary_distribution_matches_long_run(self):
        # 1,000 walks from the anchor, each counted after 50 steps
        ref = ScalarSimulator(SPEC, 1, 8, seed=4)
        path = _fixed_hour_walk(ref, 23.0, 1000, 150, seed=1)[:, 50:]
        emp = np.bincount(path.ravel(), minlength=ref.hotspots.size) / path.size
        pi = ref.stationary_distribution(0, 23.0)
        assert 0.5 * np.abs(emp - pi).sum() < 0.05

    def test_circadian_anchors(self):
        params = SimulatorParams()
        _, _, homes, works = _population(SPEC, 3, 20, 4, params)
        for hour, want in ((23.0, homes), (2.0, homes), (11.0, works),
                           (8.5, works),     # morning transit: to work
                           (18.0, homes)):   # evening transit: home
            assert np.array_equal(_rule(hour, homes, works, params)[0], want)

    def test_validation(self):
        with pytest.raises(DomainError):
            simulate_ground_truth(SPEC, 1, 10, 1, seed=0)
        with pytest.raises(DomainError):
            simulate_ground_truth(GridSpec(0, 1, 0, 1, level=1), 1, 10, 5, seed=0)


def _reference_save_corpus(corpus, path):
    """save_corpus's CSV as one csv.writer row per point."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataio.CSV_HEADER)
        if corpus.traces:
            lat, lon = geogrid.decode(
                corpus.spec, np.concatenate([t.cells for t in corpus.traces]))
            ts = np.concatenate([t.timestamps for t in corpus.traces])
            users = [t.user_id for t in corpus.traces for _ in range(len(t))]
            writer.writerows(zip(users, ts.tolist(),
                                 map(repr, lat.tolist()), map(repr, lon.tolist())))


def _writer_corpus(users, lengths, seed):
    """Traces over a few cells, each seen many times, both grid corners included."""
    rng = np.random.default_rng(seed)
    cells = np.array([0, 1, 777, 40000, SPEC.n_cells - 1])
    return Corpus(spec=SPEC, sampling_period=600, traces=[
        GridTrace(user, rng.choice(cells, size=n), rng.integers(0, 10 ** 9) + 600 * np.arange(n))
        for user, n in zip(users, lengths)])


class TestCorpusWriterExactness:
    @pytest.mark.parametrize("users, lengths", [
        (["a,b", 'say "hi"', "x\ny", "", " pad ", "plain"], [3, 2, 4, 2, 5, 6]),
        ([], []),                                   # header only
        (["u0", "u1", "a,b"], [1, 1, 1]),           # one-point traces
    ])
    def test_bytes_equal_row_writer(self, tmp_path, users, lengths):
        corpus = _writer_corpus(users, lengths, seed=len(users))
        dataio.save_corpus(corpus, tmp_path / "got.csv")
        _reference_save_corpus(corpus, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(users=st.lists(st.text(alphabet='ab ,"\r\n\u00e9', max_size=5), max_size=5),
           data=st.data())
    def test_any_user_ids_bytes_equal_row_writer(self, tmp_path_factory, users, data):
        lengths = data.draw(st.lists(st.integers(1, 4), min_size=len(users),
                                     max_size=len(users)))
        corpus = _writer_corpus(users, lengths, seed=data.draw(st.integers(0, 99)))
        d = tmp_path_factory.mktemp("writer")
        dataio.save_corpus(corpus, d / "got.csv")
        _reference_save_corpus(corpus, d / "want.csv")
        assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()

    def test_round_trip(self, tmp_path):
        corpus = _writer_corpus(["a,b", 'say "hi"', "x\ny", "one", "plain"],
                                [3, 2, 4, 1, 6], seed=3)
        dataio.save_corpus(corpus, tmp_path / "c.csv")
        loaded = dataio.load_corpus(tmp_path / "c.csv")
        kept = [t for t in corpus.traces if len(t) >= 2]  # ingest drops one-point users
        assert [t.user_id for t in loaded.traces] == [t.user_id for t in kept]
        for a, b in zip(kept, loaded.traces, strict=True):
            assert np.array_equal(a.cells, b.cells)
            assert np.array_equal(a.timestamps, b.timestamps)


class TestPersistence:
    def test_array_roundtrip(self):
        for a in (np.arange(5, dtype=np.int64),
                  np.linspace(0, 1, 7).reshape(1, 7),
                  np.empty((0,), dtype=float)):
            b = dataio.decode_array(dataio.encode_array(a))
            assert b.dtype == a.dtype
            assert np.array_equal(a, b)

    def test_corpus_roundtrip(self, tmp_path):
        corpus = simulate_ground_truth(SPEC, 3, 40, 15, seed=2)
        path = tmp_path / "corpus.csv"
        dataio.save_corpus(corpus, path)
        loaded = dataio.load_corpus(path)
        assert loaded.spec == SPEC
        assert loaded.sampling_period == corpus.sampling_period
        for a, b in zip(corpus.traces, loaded.traces):
            assert a.user_id == b.user_id
            assert np.array_equal(a.cells, b.cells)
            assert np.array_equal(a.timestamps, b.timestamps)

    def test_corpus_spec_mismatch(self, tmp_path):
        corpus = simulate_ground_truth(SPEC, 2, 20, 10, seed=2)
        path = tmp_path / "corpus.csv"
        dataio.save_corpus(corpus, path)
        other = GridSpec(45.8, 47.8, 5.9, 10.5, level=7)
        with pytest.raises(IncompatibilityError):
            dataio.load_corpus(path, expected_spec=other)

    def test_corpus_missing_sidecar(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dataio.load_corpus(tmp_path / "nope.csv")

    def test_future_format_version_rejected(self, tmp_path):
        corpus = simulate_ground_truth(SPEC, 2, 20, 10, seed=2)
        path = tmp_path / "corpus.csv"
        dataio.save_corpus(corpus, path)
        meta_file = f"{path}.meta.json"
        meta = json.loads(open(meta_file).read())
        meta["format_version"] = 99
        open(meta_file, "w").write(json.dumps(meta))
        with pytest.raises(FormatVersionError):
            dataio.load_corpus(path)

    def test_report_roundtrip(self, tmp_path):
        report = {"topn": {"tv": 0.1}, "mmd": {"p": 0.5},
                  "mi_decay": {"taus": [1, 2]}, "privacy": {"auc": 0.5}}
        path = tmp_path / "r.json"
        dataio.write_json(report, path, indent=1)
        loaded = dataio.read_json(path, "report")
        assert loaded == {**report, "format_version": dataio.FORMAT_VERSION}
        assert path.read_text() == json.dumps(loaded, indent=1, sort_keys=True) + "\n"

    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        # RFC 8259 has no NaN or Infinity; finite values keep their bytes
        finite = [0.1, 1e-300, -2.5, np.float64(1 / 3), 7, True, "nan"]
        report = {"a": float("nan"), "b": [float("inf"), (-np.inf, 0.25)],
                  "c": {"d": np.float64("nan"), "e": finite}}
        path = tmp_path / "r.json"
        dataio.write_json(report, path)

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        loaded = json.loads(path.read_text(), parse_constant=refuse)
        assert loaded == {"a": None, "b": [None, [None, 0.25]],
                          "c": {"d": None, "e": json.loads(json.dumps(finite))},
                          "format_version": dataio.FORMAT_VERSION}
        assert json.dumps(finite) in path.read_text()
