"""Corpus ingestion, ground-truth simulation and file persistence.

A corpus on disk is a CSV in the ingestion schema
(``user_id,timestamp,lat,lon``) plus a ``<name>.meta.json`` sidecar that
carries the grid spec and sampling period, so downstream consumers can
verify compatibility without re-deriving anything.  This module owns every
file format: each JSON file is written by :func:`write_json` and read by
:func:`read_json`, and each CLI table is written by :func:`write_table`.

In memory a :class:`Corpus` holds every trace end to end in flat int64
columns, which ingestion, the simulator and the generators write.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import logging
import math
import os
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import geogrid
from .errors import (DomainError, FormatVersionError, IncompatibilityError,
                     InsufficientDataError, ParseError)
from .geogrid import GridSpec

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1
CSV_HEADER = ["user_id", "timestamp", "lat", "lon"]

SECONDS_PER_DAY = 86400
_INT64_MAX = 2 ** 63 - 1
# grid points a regularized corpus may hold: 800 MB of cells and timestamps
MAX_GRID_POINTS = 10 ** 8


@dataclass
class GridTrace:
    """One user's trajectory: parallel cell and timestamp arrays."""

    user_id: str
    cells: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        if self.cells.size == 0:
            raise DomainError("trace must be non-empty")
        if self.cells.shape != self.timestamps.shape:
            raise DomainError("cells and timestamps must have equal length")
        if self.timestamps.size > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise DomainError(f"trace {self.user_id}: timestamps must strictly increase")

    def __len__(self):
        return self.cells.size


class Corpus:
    """Traces as flat int64 columns: trace k is rows ``offsets[k]:offsets[k + 1]``
    of ``cells`` and ``timestamps`` and belongs to ``user_ids[k]``.  Each of
    ``traces``, built on first use, is a GridTrace over views of its rows."""

    def __init__(self, spec: GridSpec, traces=(), sampling_period: int = 600):
        empty = [np.empty(0, dtype=np.int64)]
        self.spec = spec
        self.sampling_period = sampling_period
        self.user_ids = [t.user_id for t in traces]
        self.cells = np.concatenate(empty + [t.cells for t in traces])
        self.timestamps = np.concatenate(empty + [t.timestamps for t in traces])
        self.offsets = np.cumsum([0] + [len(t) for t in traces])

    @classmethod
    def _from_columns(cls, spec, user_ids, cells, timestamps, offsets, sampling_period):
        """The corpus over ready-made columns, which every producer builds."""
        corpus = cls(spec, sampling_period=sampling_period)
        corpus.user_ids, corpus.cells, corpus.timestamps, corpus.offsets = (
            user_ids, cells, timestamps, offsets)
        return corpus

    @cached_property
    def traces(self) -> list[GridTrace]:
        bounds = self.offsets.tolist()
        return [GridTrace(u, self.cells[a:b], self.timestamps[a:b])
                for u, a, b in zip(self.user_ids, bounds[:-1], bounds[1:])]

    def __len__(self):
        return self.offsets.size - 1

    def n_points(self) -> int:
        return self.cells.size

    def trace_index(self) -> np.ndarray:
        """The index of the trace each point belongs to."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def trace_positions(self) -> np.ndarray:
        """The index of each point within its trace."""
        return np.arange(self.cells.size) - self.offsets[self.trace_index()]


def grid_corpus(spec: GridSpec, prefix: str, cells, timestamps, sampling_period) -> Corpus:
    """n traces on one time grid, as simulated or generated: row k of the
    (n, len(timestamps)) ``cells`` is the trace of user ``{prefix}{k}``."""
    n, length = cells.shape
    return Corpus._from_columns(spec, [f"{prefix}{k}" for k in range(n)], cells.ravel(),
                                np.tile(timestamps, n), np.arange(n + 1) * length,
                                sampling_period)


def time_grid(start_time: int, sampling_period: int, n: int) -> np.ndarray:
    """The n int64 timestamps start_time + k * sampling_period of a generated
    or simulated trace.  A negative start, a period outside [1, 2^63 - 1],
    or a last timestamp past 2^63 - 1, is a DomainError."""
    check_period(sampling_period)
    if start_time < 0:
        raise DomainError(f"start_time must be >= 0, got {start_time}")
    if int(start_time) + int(sampling_period) * (n - 1) > _INT64_MAX:
        raise DomainError(f"start_time {start_time} puts the last of {n} timestamps "
                          "past 2^63 - 1")
    return start_time + sampling_period * np.arange(n, dtype=np.int64)


def check_period(sampling_period: int) -> None:
    """A sampling period outside [1, 2^63 - 1] is a DomainError."""
    if not 0 < sampling_period <= _INT64_MAX:
        raise DomainError(f"sampling_period must be in [1, 2^63 - 1], got {sampling_period}")


def check_grid_size(n_traces: int, trace_len: int) -> None:
    """A DomainError where n_traces traces of trace_len points would hold more
    than MAX_GRID_POINTS, raised before the simulator or a generator
    allocates them."""
    if n_traces * trace_len > MAX_GRID_POINTS:
        raise DomainError(f"{n_traces} traces x {trace_len} points is more than the "
                          f"{MAX_GRID_POINTS} grid points a corpus holds")


def hour_of_day(timestamps) -> np.ndarray:
    """Fractional hour in [0, 24) for epoch-second timestamps."""
    return (np.asarray(timestamps) % SECONDS_PER_DAY) / 3600.0


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def ingest(csv_source, spec: GridSpec, sampling_period: int) -> Corpus:
    """Read raw points, grid-project and regularize onto a uniform time step.

    ``csv_source`` is a path or a binary file (see :func:`_read_points`).
    Per user: rows are sorted by time, duplicate timestamps collapse to the
    last row, and gaps are filled by previous-observation carry-forward.
    Out-of-bounds points are dropped and counted; users left with fewer than
    two points are dropped with a warning.
    """
    check_period(sampling_period)
    return _regularize(_inside(_read_points(csv_source, len(CSV_HEADER)), spec), spec,
                       int(sampling_period))


def load_targets(path, spec: GridSpec, sampling_period: int):
    """Labelled targets CSV: the ingestion schema plus an ``is_member``
    column (1, true or yes for a member).  Each user_id carries one label;
    a user_id seen with both labels is a ParseError.

    Rows go through the same parsing and regularization as :func:`ingest`.
    Returns the targets as one corpus, members first and then non-members,
    each in order of first appearance, and the number of members.
    """
    points = _read_points(path, len(CSV_HEADER) + 1)
    is_member = _user_labels(points.names, points.user, points.member, points.line)
    members = set(compress(points.names, is_member))
    n_users = is_member.size
    inside = _inside(points, spec, rank=np.where(is_member, 0, n_users) + np.arange(n_users))
    del points  # not held while the grid is filled
    corpus = _regularize(inside, spec, sampling_period)
    return corpus, sum(u in members for u in corpus.user_ids)


def _regularize(parsed, spec: GridSpec, sampling_period) -> Corpus:
    names, user, ts, cells = parsed
    # stable, so the last row of each (user, timestamp) run is the file's last
    order = np.lexsort((ts, user))
    user, ts, cells = user[order], ts[order], cells[order]
    last = np.ones(user.size, dtype=bool)
    last[:-1] = (user[1:] != user[:-1]) | (ts[1:] != ts[:-1])
    user, ts, cells = user[last], ts[last], cells[last]
    bounds = np.searchsorted(user, np.arange(len(names) + 1))
    lo, hi = bounds[:-1], bounds[1:]
    # steps after each user's first point: no value past the last one, so no int64 wrap
    spans = (ts[hi - 1] - ts[lo]) // sampling_period
    kept = hi - lo >= 2
    # each user's grid points, capped so that their running total cannot wrap
    n = np.where(kept, np.minimum(spans, MAX_GRID_POINTS) + 1, 0)
    offsets = np.cumsum(np.append(0, n))
    if offsets[-1] > MAX_GRID_POINTS:
        k = int(np.argmax(offsets[1:] > MAX_GRID_POINTS))
        raise DomainError(f"user {names[k]!r} spans {int(spans[k]) + 1} grid points at "
                          f"sampling period {sampling_period} s; a corpus holds at most "
                          f"{MAX_GRID_POINTS}")
    if not kept.all():
        logger.warning("dropped %d user(s) with fewer than 2 surviving points",
                       np.count_nonzero(~kept))
    # carry-forward: grid point offsets[u] + j takes user u's last point at or
    # before ts[lo[u]] + j * sampling_period.  Keyed by the first grid point at
    # or after it, the points ascend over the corpus, so one search finds them
    keys = offsets[user] - (ts[lo][user] - ts) // sampling_period
    at = np.searchsorted(keys, np.arange(offsets[-1]), side="right") - 1
    step = np.arange(offsets[-1]) - np.repeat(offsets[:-1], n)
    return Corpus._from_columns(spec, np.array(names, dtype=object)[kept].tolist(), cells[at],
                                np.repeat(ts[lo], n) + step * sampling_period,
                                offsets[np.append(kept, True)], sampling_period)


# ---------------------------------------------------------------------------
# CSV readers
# ---------------------------------------------------------------------------

# the array reader parses a file in blocks of whole lines of at most this many
# bytes; a block's table of rows takes a few times as much
_BLOCK_BYTES = 2 ** 16
_LF, _CR, _COMMA, _LAST_ASCII = ord("\n"), ord("\r"), ord(","), 0x7e
_LONE_CR = re.compile("(?<=\r)(?!\n)")
_MEMBER_LABELS = ("1", "true", "yes")


class _Points(NamedTuple):
    """Every data row of a CSV file as columns.  ``user`` indexes ``names``,
    the stripped user ids in order of first appearance; a targets file adds
    each row's label and line number."""

    names: list
    user: np.ndarray
    ts: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    member: np.ndarray | None = None
    line: np.ndarray | None = None


def _read_points(source, n_fields: int) -> _Points:
    """The rows of a CSV of ``n_fields`` columns, from a path or a binary
    file.  They go through the array reader, or whole through the per-row
    reader where the array reader leaves the file."""
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            return _read_points(fh, n_fields)
    start = source.tell()
    points = _parse_blocks(source, n_fields)
    if points is None:
        source.seek(start)
        points = _parse_rows(csv.reader(text_lines(source)), n_fields)
    return points


def text_lines(fh):
    """A binary file's lines as text, split where ``open(..., newline="")``
    splits them: after LF, CRLF or a lone CR.  A line that is not UTF-8 is a
    ParseError naming it.  CSV input and the CLI's config file are read
    through it."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: byte 0x{raw[exc.start]:02x} at byte {exc.start + 1} "
                             "of the line", line=lineno) from exc
        if raw.count(b"\r") == raw.endswith(b"\r\n"):  # no lone CR
            yield line
        else:
            yield from filter(None, _LONE_CR.split(line))


def _blank(row: list[str]) -> bool:
    """An empty or whitespace-only CSV row, which every reader skips."""
    return not row or (len(row) == 1 and not row[0].strip())


def _parse_rows(reader, n_fields: int) -> _Points:
    """The per-row reader: each row of a csv reader checked as it is read,
    with a ParseError naming the first bad line.  It reads every file the
    array reader leaves, so its results and errors are the reference."""
    labelled = n_fields > len(CSV_HEADER)
    names: dict[str, int] = {}
    user, ts, lat, lon = array("q"), array("q"), array("d"), array("d")
    member, line = array("b"), array("q")
    try:
        for record, row in enumerate(reader):
            # the row's last line: a quoted field may span several
            lineno = reader.line_num
            if record == 0 and row and row[0].strip().lower() == "user_id":
                continue
            if _blank(row):
                continue
            if len(row) < n_fields:
                raise ParseError("targets file needs user_id,timestamp,lat,lon,is_member"
                                 if labelled else f"expected 4 columns, got {len(row)}",
                                 line=lineno)
            user.append(names.setdefault(row[0].strip(), len(names)))
            if labelled:  # a row's label counts before its values are checked
                member.append(row[4].strip() in _MEMBER_LABELS)
                line.append(lineno)
            try:
                t, la, lo = int(row[1]), float(row[2]), float(row[3])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            if t < 0:
                raise ParseError(f"negative timestamp {t}", line=lineno)
            if t > _INT64_MAX:
                raise ParseError(f"timestamp {t} does not fit in 64 bits", line=lineno)
            if not (math.isfinite(la) and math.isfinite(lo)):
                raise ParseError(f"non-finite coordinate ({row[2].strip()}, {row[3].strip()})",
                                 line=lineno)
            ts.append(t)
            lat.append(la)
            lon.append(lo)
    except (ParseError, csv.Error) as exc:
        if labelled:  # a user labelled both ways on an earlier line is the first error
            _user_labels(list(names), np.frombuffer(user, dtype=np.int64),
                         np.frombuffer(member, dtype=bool), np.frombuffer(line, dtype=np.int64))
        if isinstance(exc, csv.Error):  # raised reading the next row: a field too long, say
            raise ParseError(str(exc), line=reader.line_num) from exc
        raise
    return _Points(list(names), np.frombuffer(user, dtype=np.int64),
                   np.frombuffer(ts, dtype=np.int64), np.frombuffer(lat), np.frombuffer(lon),
                   *((np.frombuffer(member, dtype=bool), np.frombuffer(line, dtype=np.int64))
                     if labelled else ()))


def _parse_blocks(fh, n_fields: int) -> _Points | None:
    """The array reader: the rows of a binary CSV file, parsed in blocks of
    whole lines of at most ``_BLOCK_BYTES`` by numpy's text reader.  It
    returns what the per-row reader would, or None, and leaves the file to
    the per-row reader, where a block is not plain (see :func:`_plain_lines`)
    or its S columns pass four times the budget, the text reader refuses a
    line, a value fails a check, or one line fills the budget.  On printable
    ASCII the text reader's int64 and float64 converters give what ``int()``
    and ``float()`` give, or raise."""
    labelled = n_fields > len(CSV_HEADER)
    # a row per line at most, so the columns are filled in place and never grown
    start = fh.tell()
    n_lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(_BLOCK_BYTES), b""))
    fh.seek(start)
    dtypes = (np.int64, np.int64, np.float64, np.float64, bool, np.int64)[:4 + 2 * labelled]
    columns = [np.empty(n_lines, dtype) for dtype in dtypes]
    names: dict[str, int] = {}
    rest, lines, rows = b"", 0, 0
    while True:
        chunk = fh.read(_BLOCK_BYTES - len(rest))
        block = rest + chunk
        if not block:
            break
        cut = block.rfind(b"\n") + 1 if chunk else len(block)  # at EOF, the last line
        if not cut:
            return None
        block, rest = block[:cut], block[cut:]
        plain = _plain_lines(block)
        if plain is None:
            return None
        n, first, last = plain
        if n * (first + last * labelled) > 4 * _BLOCK_BYTES:  # the S columns' bytes
            return None
        header = int(lines == 0 and block.split(b"\n", 1)[0].split(b",", 1)[0].strip().lower()
                     == b"user_id")
        fields = [("user", f"S{first}"), ("ts", np.int64), ("lat", np.float64),
                  ("lon", np.float64), ("label", f"S{last}")][:n_fields]
        try:  # loadtxt warns on a block with no data line, the header alone
            table = (np.loadtxt(io.BytesIO(block), dtype=fields, delimiter=",", comments=None,
                                quotechar=None, skiprows=header, encoding="ascii", ndmin=1)
                     if n > header else np.empty(0, fields))
        except (ValueError, OverflowError):
            return None
        ts, lat, lon = table["ts"], table["lat"], table["lon"]
        if (ts.size != n - header or np.any(ts < 0)
                or not np.all(np.isfinite(lat) & np.isfinite(lon))):
            return None
        # users numbered by first appearance: the block's in order of first row
        uniq, first_row, user = np.unique(table["user"], return_index=True, return_inverse=True)
        order = np.argsort(first_row)
        ids = np.empty(uniq.size, dtype=np.int64)
        ids[order] = [names.setdefault(u.decode().strip(), len(names))
                      for u in uniq[order].tolist()]
        values = [ids[user], ts, lat, lon]
        if labelled:
            uniq, label = np.unique(table["label"], return_inverse=True)
            values.append(np.array([u.decode().strip() in _MEMBER_LABELS
                                    for u in uniq.tolist()], dtype=bool)[label])
            values.append(lines + header + 1 + np.arange(ts.size))
        for column, block_values in zip(columns, values):
            column[rows:rows + ts.size] = block_values
        rows += ts.size
        lines += n
    return _Points(list(names), *(column[:rows] for column in columns))


def _plain_lines(block: bytes):
    """(lines, widest first field, widest last field) of a block of whole
    lines, or None where the block is not plain: it holds a quote, a byte
    past ASCII's last printable one, a control byte other than LF and the CR
    of a CRLF, an empty line, which numpy's text reader would skip, or a
    line wider than csv allows a field."""
    b = np.frombuffer(block, dtype=np.uint8)
    if b'"' in block or b.max() > _LAST_ASCII:
        return None
    # the commas and line feeds, after a line feed before the block
    sep = np.append(-1, np.flatnonzero((b == _COMMA) | (b == _LF)))
    at = np.flatnonzero(b[sep[1:]] == _LF) + 1
    lf = sep[at]
    crlf = b[lf - 1] == _CR
    crlf[lf == 0] = False
    if np.count_nonzero(b < 0x20) != lf.size + np.count_nonzero(crlf):
        return None
    if block[-1] != _LF:  # the file's last line, with no newline
        sep, at = np.append(sep, b.size), np.append(at, sep.size)
        lf, crlf = sep[at], np.append(crlf, False)
    width = np.diff(lf, prepend=-1) - 1 - crlf
    if width.min() == 0 or width.max() > csv.field_size_limit():
        return None
    # a line's first field ends at the separator after its start, or at its
    # end; its last field starts after the separator before its end
    end = lf - crlf
    first = np.minimum(sep[np.append(0, at[:-1]) + 1], end) - (end - width)
    last = end - 1 - sep[at - 1]
    return width.size, max(1, int(first.max())), max(1, int(last.max()))


def _user_labels(names, user, member, line) -> np.ndarray:
    """Each user's label, by index into ``names``, from the rows' ``user``,
    ``member`` and ``line`` columns.  A user_id labelled both member and
    non-member is a ParseError at its first row whose label differs from
    its first row's."""
    _, first_row = np.unique(user, return_index=True)
    labels = member[first_row]
    clash = np.flatnonzero(member != labels[user])
    if clash.size:
        k = clash[0]
        raise ParseError(f"user_id {names[user[k]]!r} is labelled both member and non-member",
                         line=int(line[k]))
    return labels


def _inside(points: _Points, spec: GridSpec, rank=None):
    """The rows inside the grid's box, as :func:`_regularize` takes them:
    (user names, user index, timestamp, cell).  Users are numbered by
    ``rank``, one value per name, or else by their first row inside the box."""
    names, user, ts, lat, lon = points[:5]
    del points  # then rebinding user below frees the raw column before encode runs
    inside = ((spec.lat_min <= lat) & (lat <= spec.lat_max)
              & (spec.lon_min <= lon) & (lon <= spec.lon_max))
    n_oob = inside.size - np.count_nonzero(inside)
    if n_oob:
        logger.warning("dropped %d point(s) outside the grid bounding box", n_oob)
    seen, first_row, user = np.unique(user[inside], return_index=True, return_inverse=True)
    order = np.argsort(first_row if rank is None else rank[seen])
    return ([names[u] for u in seen[order]], np.argsort(order)[user], ts[inside],
            geogrid.encode(spec, lat[inside], lon[inside]))


# ---------------------------------------------------------------------------
# ground-truth simulator
# ---------------------------------------------------------------------------

@dataclass
class SimulatorParams:
    stay_at_anchor: float = 0.9
    stay_elsewhere: float = 0.4
    pull_to_anchor: float = 0.8
    popularity_exponent: float = 1.0


def simulate_ground_truth(spec: GridSpec, n_users: int, trace_len: int,
                          n_hotspots: int, seed: int, sampling_period: int = 600,
                          start_time: int = 0, population_seed=None,
                          params: SimulatorParams | None = None) -> Corpus:
    """Seeded time-inhomogeneous Markov mobility model over hotspot cells.

    Each user has a home and a work hotspot drawn from a Zipf popularity
    law; the hour of day sets which one pulls (:func:`_rule`).  The
    population (hotspots, popularity, anchors) is drawn from
    ``population_seed``, ``seed`` when it is None, so disjoint trajectory
    samples can share one population; the walk draws from ``seed`` alone.
    """
    params = params or SimulatorParams()
    hotspots, pop_cdf, homes, works = _population(
        spec, n_users, n_hotspots, seed if population_seed is None else population_seed, params)
    if trace_len < 1:
        raise DomainError("trace_len must be >= 1")
    check_grid_size(n_users, trace_len)
    timestamps = time_grid(start_time, sampling_period, trace_len)
    path = _walk(homes, works, pop_cdf, params, hour_of_day(timestamps),
                 np.random.default_rng(seed))
    return grid_corpus(spec, "gt_", hotspots[path], timestamps, int(sampling_period))


def _population(spec: GridSpec, n_users: int, n_hotspots: int, seed, params: SimulatorParams):
    """(sorted hotspot cells, popularity CDF, home and work hotspot index of
    each user), all drawn from one generator seeded with ``seed``."""
    if n_users < 1:
        raise DomainError(f"need at least 1 user, got {n_users}")
    if n_hotspots < 2:
        raise DomainError(f"need at least 2 hotspots, got {n_hotspots}")
    if n_hotspots > spec.n_cells:
        raise DomainError("more hotspots than grid cells")
    check_grid_size(n_users, 1)  # every user's trace holds a point
    pop_rng = np.random.default_rng(seed)
    hotspots = np.sort(pop_rng.choice(spec.n_cells, size=n_hotspots, replace=False))
    weights = 1.0 / np.arange(1, n_hotspots + 1) ** params.popularity_exponent
    pop_rng.shuffle(weights)
    pop_cdf = np.cumsum(weights / weights.sum())
    pop_cdf[-1] = 1.0  # rounding can leave it below the largest uniform draw
    homes = np.searchsorted(pop_cdf, pop_rng.uniform(size=n_users))
    # each user in turn draws works until one differs from home: at a
    # clash, that user and each later one move on to the next draw
    works = np.searchsorted(pop_cdf, pop_rng.uniform(size=n_users))
    clash = np.flatnonzero(works == homes)
    while clash.size:
        k = clash[0]
        works[k:] = np.append(works[k + 1:], np.searchsorted(pop_cdf, pop_rng.uniform()))
        clash = k + np.flatnonzero(works[k:] == homes[k:])
    return hotspots, pop_cdf, homes, works


def _rule(hour: float, homes, works, params: SimulatorParams):
    """(every user's anchor, stay chance at it, stay chance elsewhere) at
    ``hour``: the anchor is work from 08 to 17 and home otherwise, and the
    transit hours 08-09 and 17-20 are noisier, with both chances cubed."""
    h = hour % 24
    anchors = works if 8 <= h < 17 else homes
    if 8 <= h < 9 or 17 <= h < 20:
        return anchors, params.stay_at_anchor ** 3.0, params.stay_elsewhere ** 3.0
    return anchors, params.stay_at_anchor, params.stay_elsewhere


def _walk(homes, works, pop_cdf, params: SimulatorParams, hours, rng) -> np.ndarray:
    """(users, len(hours)) hotspot indices of a walk from home that moves
    every user at once per hour: with u and v drawn in turn, u < stay keeps
    the state, then away from the anchor a ``pull_to_anchor`` share of the
    rest goes to it, and otherwise v picks a hotspot by popularity."""
    states = homes
    path = np.empty((homes.size, len(hours)), dtype=np.int64)
    for i, hour in enumerate(hours):
        u = rng.uniform(size=homes.size)
        v = rng.uniform(size=homes.size)
        anchors, stay_at_anchor, stay_elsewhere = _rule(hour, homes, works, params)
        to_anchor = stay_elsewhere + (1.0 - stay_elsewhere) * params.pull_to_anchor
        at = states == anchors
        stay = np.where(at, stay_at_anchor, stay_elsewhere)
        moved = np.where(~at & (u < to_anchor), anchors, np.searchsorted(pop_cdf, v))
        states = np.where(u < stay, states, moved)
        path[:, i] = states
    return path


# ---------------------------------------------------------------------------
# array <-> json helpers
# ---------------------------------------------------------------------------

def encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_array(d: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(d["data"])
        return np.frombuffer(raw, dtype=np.dtype(d["dtype"])).reshape(d["shape"]).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed encoded array: {exc}") from exc


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------

def _meta_path(path) -> str:
    return f"{os.fspath(path)}.meta.json"


def save_corpus(corpus: Corpus, path) -> None:
    """CSV in the ingestion schema plus a .meta.json sidecar."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        if len(corpus):
            cells, at = np.unique(corpus.cells, return_inverse=True)
            lat, lon = geogrid.decode(corpus.spec, cells)
            # each cell's ",lat,lon" row end as csv.writer writes it: repr of
            # a Python float, not of np.float64 ("np.float64(...)")
            ends = [f",{la!r},{lo!r}\r\n" for la, lo in zip(lat.tolist(), lon.tolist())]
            at = at.tolist()
            buf = io.StringIO()
            quote = csv.writer(buf)
            bounds = corpus.offsets.tolist()
            # one string per trace: one per corpus would hold every row at once
            for user_id, start, stop in zip(corpus.user_ids, bounds[:-1], bounds[1:]):
                # "user_id," as csv.writer starts a row of several fields
                buf.seek(0)
                buf.truncate()
                quote.writerow([user_id, ""])
                user = buf.getvalue()[:-2]
                fh.write("".join([f"{user}{t}{ends[c]}" for t, c in zip(
                    corpus.timestamps[start:stop].tolist(), at[start:stop])]))
    write_json({"grid_spec": corpus.spec.to_dict(), "sampling_period": corpus.sampling_period},
               _meta_path(path), indent=1)


def load_corpus(path, expected_spec: GridSpec | None = None) -> Corpus:
    spec, sampling_period = _read_header(read_json(_meta_path(path), "corpus metadata"))
    if expected_spec is not None and spec != expected_spec:
        raise IncompatibilityError(
            f"corpus grid spec {spec} does not match expected {expected_spec}")
    return ingest(path, spec, sampling_period)


# ---------------------------------------------------------------------------
# model / report files
# ---------------------------------------------------------------------------

def save_model(model, path) -> None:
    """JSON envelope around a generator's payload (see generators module)."""
    write_json({"model_type": model.model_type, "grid_spec": model.spec.to_dict(),
                "sampling_period": model.sampling_period, "payload": model.to_payload()},
               path)


def load_model(path):
    """The generator a model file holds.  ``generators`` reads the payload,
    each array through :func:`read_array` and each other field through
    :func:`read_scalar`; a field that fails is a ParseError naming it."""
    from . import generators

    envelope = read_json(path, "model file")
    spec, sampling_period = _read_header(envelope)
    try:
        return generators.generator_from_payload(
            envelope["model_type"], spec, sampling_period, envelope["payload"])
    except KeyError as exc:
        raise ParseError(f"model file is missing key {exc}") from exc


def write_json(envelope: dict, path, indent=None) -> None:
    """Every JSON file the package writes: ``envelope`` stamped with
    ``format_version``, keys sorted, each non-finite float (a metric with no
    defined value) as ``null``, and one final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null({**envelope, "format_version": FORMAT_VERSION}), fh,
                  indent=indent, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finite_or_null(value):
    """``value`` with each NaN or infinite float in it replaced by None; every
    other value is kept as it is, so it is written with the same bytes."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def read_json(path, what: str) -> dict:
    """A file :func:`write_json` wrote, as a dict of this build's format
    version.  A file that is not UTF-8 or not JSON is a ParseError naming
    ``what``; a JSON value that is not an object is a ParseError too, and
    another version a FormatVersionError."""
    # parsed from the text handle: reading the bytes first would hold the file twice
    with open(path, "r", encoding="utf-8") as fh:
        try:
            envelope = json.load(fh)
        except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
            raise ParseError(f"corrupted {what}: {exc}") from exc
    if not isinstance(envelope, dict):
        raise ParseError(f"{what}: expected a JSON object, got {type(envelope).__name__}")
    version = envelope.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"unsupported format_version {version!r}; this build reads {FORMAT_VERSION}")
    return envelope


def write_table(path, header, rows) -> None:
    """A CSV table of plotting or score rows under ``header``.  Values go in as
    csv.writer writes them, so a float must be a Python float: np.float64
    would be written as its repr, "np.float64(...)"."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_header(envelope):
    """Grid spec and sampling period of a corpus sidecar or model file, checked."""
    return (GridSpec.from_dict(envelope.get("grid_spec")),
            read_scalar(envelope, "sampling_period", int, "an integer in [1, 2^63 - 1]",
                        lambda x: 0 < x <= _INT64_MAX))


def read_scalar(obj, name: str, kinds, expected: str, valid=None):
    """One plain JSON field of a file, checked: an instance of ``kinds`` (JSON
    true/false is no number) for which ``valid`` holds.  ``name`` is its dotted
    path, ending in its key in the object ``obj`` or its ``[index]`` in the
    list ``obj``; a missing field reads None."""
    if isinstance(obj, list):
        value = obj[int(name[name.rindex("[") + 1:-1])]
    else:
        value = obj.get(name.rpartition(".")[2]) if isinstance(obj, dict) else None
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or (valid is not None and not valid(value))):
        raise ParseError(f"{name}: expected {expected}, got {value!r:.80}")
    return value


def read_array(obj, name: str, kinds: str, ndim: int) -> np.ndarray:
    """One encoded array field of a file, checked: the array twin of
    :func:`read_scalar`.  Its dtype kind is one of ``kinds`` ("iu" for
    integers, "f" for floats) and its rank is ``ndim``."""
    value = read_scalar(obj, name, dict, "an encoded array")
    try:
        a = decode_array(value)
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}") from exc
    if a.dtype.kind not in kinds or a.ndim != ndim:
        kind = {"iu": "integer", "f": "float"}.get(kinds, kinds)
        raise ParseError(f"{name}: expected a {ndim}-d {kind} array, "
                         f"got {a.dtype} of shape {a.shape}")
    return a
