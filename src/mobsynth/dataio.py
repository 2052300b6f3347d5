"""Corpus ingestion, ground-truth simulation and file persistence.

A corpus on disk is a CSV in the ingestion schema
(``user_id,timestamp,lat,lon``) plus a ``<name>.meta.json`` sidecar that
carries the grid spec and sampling period, so downstream consumers can
verify compatibility without re-deriving anything.

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
from array import array
from dataclasses import dataclass
from functools import cached_property

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
    or simulated trace.  A negative start, or a last timestamp past
    2^63 - 1, is a DomainError."""
    if start_time < 0:
        raise DomainError(f"start_time must be >= 0, got {start_time}")
    if int(start_time) + int(sampling_period) * (n - 1) > _INT64_MAX:
        raise DomainError(f"start_time {start_time} puts the last of {n} timestamps "
                          "past 2^63 - 1")
    return start_time + sampling_period * np.arange(n, dtype=np.int64)


def hour_of_day(timestamps) -> np.ndarray:
    """Fractional hour in [0, 24) for epoch-second timestamps."""
    return (np.asarray(timestamps) % SECONDS_PER_DAY) / 3600.0


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def ingest(csv_source, spec: GridSpec, sampling_period: int) -> Corpus:
    """Read raw points, grid-project and regularize onto a uniform time step.

    Per user: rows are sorted by time, duplicate timestamps collapse to the
    last row, and gaps are filled by previous-observation carry-forward.
    Out-of-bounds points are dropped and counted; users left with fewer than
    two points are dropped with a warning.
    """
    if sampling_period <= 0:
        raise DomainError(f"sampling_period must be positive, got {sampling_period}")
    close = False
    if isinstance(csv_source, (str, os.PathLike)):
        fh = open(csv_source, "r", encoding="utf-8", newline="")
        close = True
    else:
        fh = csv_source
    try:
        rows = _parse_rows(csv.reader(fh), spec)
    finally:
        if close:
            fh.close()
    return _regularize(rows, spec, int(sampling_period))


def load_targets(path, spec: GridSpec, sampling_period: int):
    """Labelled targets CSV: the ingestion schema plus an ``is_member``
    column (1, true or yes for a member).  Each user_id carries one label;
    a user_id seen with both labels is a ParseError.

    Rows go through the same parsing and regularization as :func:`ingest`.
    Returns (members, nonmembers), each in order of first appearance.
    """
    labels: dict[str, bool] = {}

    def labelled(reader):
        for lineno, row in enumerate(reader, start=1):
            if not _blank(row) and not (lineno == 1 and row[0].strip().lower() == "user_id"):
                if len(row) < 5:
                    raise ParseError("targets file needs user_id,timestamp,lat,lon,is_member",
                                     line=lineno)
                user, is_member = row[0].strip(), row[4].strip() in ("1", "true", "yes")
                if labels.setdefault(user, is_member) != is_member:
                    raise ParseError(f"user_id {user!r} is labelled both member and "
                                     "non-member", line=lineno)
            yield row

    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _parse_rows(labelled(csv.reader(fh)), spec)
    corpus = _regularize(rows, spec, sampling_period)
    by_user = dict(zip(corpus.user_ids, corpus.traces))
    members = [by_user[u] for u, is_member in labels.items() if is_member and u in by_user]
    nonmembers = [by_user[u] for u, is_member in labels.items() if not is_member and u in by_user]
    return members, nonmembers


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


def _blank(row: list[str]) -> bool:
    """An empty or whitespace-only CSV row, which every reader skips."""
    return not row or (len(row) == 1 and not row[0].strip())


def _parse_rows(reader, spec: GridSpec):
    """Validated rows inside the box as columns: (user names, user index,
    timestamp, cell); users are numbered by their first row inside the box."""
    names: dict[str, int] = {}
    user, ts, lat, lon = array("q"), array("q"), array("d"), array("d")
    for lineno, row in enumerate(reader, start=1):
        if lineno == 1 and row and row[0].strip().lower() == "user_id":
            continue
        if _blank(row):
            continue
        if len(row) < 4:
            raise ParseError(f"expected 4 columns, got {len(row)}", line=lineno)
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
        user.append(names.setdefault(row[0].strip(), len(names)))
        ts.append(t)
        lat.append(la)
        lon.append(lo)
    lat, lon = np.frombuffer(lat), np.frombuffer(lon)
    inside = ((spec.lat_min <= lat) & (lat <= spec.lat_max)
              & (spec.lon_min <= lon) & (lon <= spec.lon_max))
    n_oob = inside.size - np.count_nonzero(inside)
    if n_oob:
        logger.warning("dropped %d point(s) outside the grid bounding box", n_oob)
    seen, first_row, user = np.unique(np.frombuffer(user, dtype=np.int64)[inside],
                                      return_index=True, return_inverse=True)
    order = np.argsort(first_row)
    by_index = list(names)
    return ([by_index[u] for u in seen[order]], np.argsort(order)[user],
            np.frombuffer(ts, dtype=np.int64)[inside],
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


class GroundTruthSimulator:
    """Seeded time-inhomogeneous Markov mobility model over hotspot cells.

    Each user has a home and a work hotspot drawn from a Zipf popularity
    law; the hour of day sets which one pulls (:meth:`_rule`).  The
    per-user transition matrix at any hour is exposed for oracle tests.
    """

    def __init__(self, spec: GridSpec, n_users: int, n_hotspots: int, seed: int,
                 population_seed=None, params: SimulatorParams | None = None):
        if n_users < 1:
            raise DomainError(f"need at least 1 user, got {n_users}")
        if n_hotspots < 2:
            raise DomainError(f"need at least 2 hotspots, got {n_hotspots}")
        if n_hotspots > spec.n_cells:
            raise DomainError("more hotspots than grid cells")
        self.spec = spec
        self.params = params or SimulatorParams()
        pop_rng = np.random.default_rng(seed if population_seed is None else population_seed)
        self.hotspots = np.sort(pop_rng.choice(spec.n_cells, size=n_hotspots, replace=False))
        weights = 1.0 / np.arange(1, n_hotspots + 1) ** self.params.popularity_exponent
        pop_rng.shuffle(weights)
        self.popularity = weights / weights.sum()
        self._pop_cdf = np.cumsum(self.popularity)
        self._pop_cdf[-1] = 1.0  # rounding can leave it below the largest uniform draw

        # anchors belong to the population: the same population_seed yields
        # the same users, so disjoint trajectory draws stay comparable
        self.homes = np.searchsorted(self._pop_cdf, pop_rng.uniform(size=n_users))
        self.works = self.homes.copy()
        for i in range(n_users):  # redraw until work differs from home
            while self.works[i] == self.homes[i]:
                self.works[i] = np.searchsorted(self._pop_cdf, pop_rng.uniform())
        self.n_users = n_users
        self.n_hotspots = n_hotspots

        self.rng = np.random.default_rng(seed)

    def _rule(self, hour: float):
        """(every user's anchor, stay chance at it, stay chance elsewhere) at
        ``hour``: the anchor is work from 08 to 17 and home otherwise, and the
        transit hours 08-09 and 17-20 are noisier, with both chances cubed."""
        h = hour % 24
        anchors = self.works if 8 <= h < 17 else self.homes
        p = self.params
        if 8 <= h < 9 or 17 <= h < 20:
            return anchors, p.stay_at_anchor ** 3.0, p.stay_elsewhere ** 3.0
        return anchors, p.stay_at_anchor, p.stay_elsewhere

    def anchor(self, user: int, hour: float) -> int:
        return int(self._rule(hour)[0][user])

    def transition_row(self, user: int, state: int, hour: float) -> np.ndarray:
        """Exact next-hotspot distribution from ``state`` at ``hour``."""
        anchors, stay_at_anchor, stay_elsewhere = self._rule(hour)
        a = anchors[user]
        stay = stay_at_anchor if state == a else stay_elsewhere
        row = np.zeros(self.n_hotspots)
        rest = 1.0 - stay
        row[state] += stay
        if state != a:
            row[a] += rest * self.params.pull_to_anchor
            rest *= (1.0 - self.params.pull_to_anchor)
        row += rest * self.popularity
        return row

    def transition_matrix(self, user: int, hour: float) -> np.ndarray:
        return np.stack([self.transition_row(user, j, hour) for j in range(self.n_hotspots)])

    def stationary_distribution(self, user: int, hour: float) -> np.ndarray:
        """Leading left eigenvector of the fixed-hour transition matrix."""
        mat = self.transition_matrix(user, hour)
        vals, vecs = np.linalg.eig(mat.T)
        k = int(np.argmin(np.abs(vals - 1.0)))
        pi = np.real(vecs[:, k])
        pi = np.abs(pi)
        return pi / pi.sum()

    def _step(self, states, hour, u, v) -> np.ndarray:
        """Every user's next hotspot index at ``hour``: u < stay keeps the
        state, then away from the anchor a ``pull_to_anchor`` share of the
        rest goes to it, and otherwise v picks a hotspot by popularity."""
        anchors, stay_at_anchor, stay_elsewhere = self._rule(hour)
        to_anchor = stay_elsewhere + (1.0 - stay_elsewhere) * self.params.pull_to_anchor
        at = states == anchors
        stay = np.where(at, stay_at_anchor, stay_elsewhere)
        moved = np.where(~at & (u < to_anchor), anchors, np.searchsorted(self._pop_cdf, v))
        return np.where(u < stay, states, moved)

    def simulate(self, trace_len: int, sampling_period: int, start_time: int = 0) -> Corpus:
        if trace_len < 1:
            raise DomainError("trace_len must be >= 1")
        if sampling_period <= 0:
            raise DomainError(f"sampling_period must be positive, got {sampling_period}")
        timestamps = time_grid(start_time, sampling_period, trace_len)
        states = self.homes
        path = np.empty((self.n_users, trace_len), dtype=np.int64)
        for i, hour in enumerate(hour_of_day(timestamps)):
            u = self.rng.uniform(size=self.n_users)
            v = self.rng.uniform(size=self.n_users)
            states = self._step(states, hour, u, v)
            path[:, i] = states
        return grid_corpus(self.spec, "gt_", self.hotspots[path], timestamps, int(sampling_period))


def simulate_ground_truth(spec: GridSpec, n_users: int, trace_len: int,
                          n_hotspots: int, seed: int, sampling_period: int = 600,
                          start_time: int = 0, population_seed=None,
                          params: SimulatorParams | None = None) -> Corpus:
    """Seeded stand-in corpus; ``population_seed`` pins the hotspot layout and
    user anchors so disjoint trajectory samples share one population."""
    sim = GroundTruthSimulator(spec, n_users, n_hotspots, seed,
                               population_seed=population_seed, params=params)
    return sim.simulate(trace_len, sampling_period, start_time=start_time)


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
    meta = {
        "format_version": FORMAT_VERSION,
        "grid_spec": corpus.spec.to_dict(),
        "sampling_period": corpus.sampling_period,
    }
    with open(_meta_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_corpus(path, expected_spec: GridSpec | None = None) -> Corpus:
    with open(_meta_path(path), "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"corrupted corpus metadata: {exc}") from exc
    spec, sampling_period = _read_header(meta)
    if expected_spec is not None and spec != expected_spec:
        raise IncompatibilityError(
            f"corpus grid spec {spec} does not match expected {expected_spec}")
    return ingest(path, spec, sampling_period)


# ---------------------------------------------------------------------------
# model / report files
# ---------------------------------------------------------------------------

def save_model(model, path) -> None:
    """JSON envelope around a generator's payload (see generators module)."""
    envelope = {
        "format_version": FORMAT_VERSION,
        "model_type": model.model_type,
        "grid_spec": model.spec.to_dict(),
        "sampling_period": model.sampling_period,
        "payload": model.to_payload(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """The generator a model file holds.  ``generators`` reads the payload,
    each array through :func:`read_array` and each other field through
    :func:`read_scalar`; a field that fails is a ParseError naming it."""
    from . import generators

    with open(path, "r", encoding="utf-8") as fh:
        try:
            envelope = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"corrupted model file: {exc}") from exc
    spec, sampling_period = _read_header(envelope)
    try:
        return generators.generator_from_payload(
            envelope["model_type"], spec, sampling_period, envelope["payload"])
    except KeyError as exc:
        raise ParseError(f"model file is missing key {exc}") from exc


REPORT_BLOCKS = ("topn", "mmd", "mi_decay", "privacy")


def save_report(report: dict, path) -> None:
    if "format_version" not in report:
        report = {"format_version": FORMAT_VERSION, **report}
    missing = [b for b in REPORT_BLOCKS if b not in report]
    if missing:
        raise DomainError(f"report is missing metric blocks: {missing}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=_jsonify)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"corrupted report file: {exc}") from exc
    _check_version(report)
    missing = [b for b in REPORT_BLOCKS if b not in report]
    if missing:
        raise ParseError(f"report is missing metric blocks: {missing}")
    return report


def _read_header(envelope):
    """Grid spec and sampling period of a corpus sidecar or model file, checked."""
    _check_version(envelope)
    return (GridSpec.from_dict(envelope.get("grid_spec")),
            read_scalar(envelope, "sampling_period", int, "an integer > 0", lambda x: x > 0))


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


def _check_version(envelope) -> None:
    if not isinstance(envelope, dict):
        raise ParseError(f"expected a JSON object, got {type(envelope).__name__}")
    version = envelope.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"unsupported format_version {version!r}; this build reads {FORMAT_VERSION}")


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")

