"""Corpus ingestion, ground-truth simulation and file persistence.

A corpus on disk is a CSV in the ingestion schema
(``user_id,timestamp,lat,lon``) plus a ``<name>.meta.json`` sidecar that
carries the grid spec and sampling period, so downstream consumers can
verify compatibility without re-deriving anything.
"""

from __future__ import annotations

import base64
import csv
import json
import logging
import math
import os
from array import array
from dataclasses import dataclass, field

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


@dataclass
class Corpus:
    spec: GridSpec
    traces: list[GridTrace] = field(default_factory=list)
    sampling_period: int = 600

    def __len__(self):
        return len(self.traces)

    def n_points(self) -> int:
        return int(sum(len(t) for t in self.traces))


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
    return Corpus(spec=spec, traces=_regularize(rows, sampling_period),
                  sampling_period=int(sampling_period))


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
            if row and not (lineno == 1 and row[0].strip().lower() == "user_id"):
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
    by_user = {t.user_id: t for t in _regularize(rows, sampling_period)}
    members, nonmembers = [], []
    for user, is_member in labels.items():
        if user in by_user:
            (members if is_member else nonmembers).append(by_user[user])
    return members, nonmembers


def _regularize(parsed, sampling_period) -> list[GridTrace]:
    names, user, ts, cells = parsed
    # stable, so the last row of each (user, timestamp) run is the file's last
    order = np.lexsort((ts, user))
    user, ts, cells = user[order], ts[order], cells[order]
    last = np.ones(user.size, dtype=bool)
    last[:-1] = (user[1:] != user[:-1]) | (ts[1:] != ts[:-1])
    user, ts, cells = user[last], ts[last], cells[last]
    bounds = np.searchsorted(user, np.arange(len(names) + 1))
    traces = []
    n_short = 0
    for name, lo, hi in zip(names, bounds[:-1], bounds[1:]):
        if hi - lo < 2:
            n_short += 1
            continue
        # stepped up from the first point: no value past the last one, so no int64 wrap
        steps = np.arange((ts[hi - 1] - ts[lo]) // sampling_period + 1, dtype=np.int64)
        grid_ts = ts[lo] + steps * sampling_period
        idx = np.searchsorted(ts[lo:hi], grid_ts, side="right") - 1
        traces.append(GridTrace(name, cells[lo:hi][idx], grid_ts))
    if n_short:
        logger.warning("dropped %d user(s) with fewer than 2 surviving points", n_short)
    return traces


def _parse_rows(reader, spec: GridSpec):
    """Validated rows inside the box as columns: (user names, user index,
    timestamp, cell); users are numbered by their first row inside the box."""
    names: dict[str, int] = {}
    user, ts, lat, lon = array("q"), array("q"), array("d"), array("d")
    for lineno, row in enumerate(reader, start=1):
        if lineno == 1 and row and row[0].strip().lower() == "user_id":
            continue
        if not row or (len(row) == 1 and not row[0].strip()):
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
    law.  Hours 20-08 pull toward home, 09-17 toward work, the rest toward
    the upcoming anchor with extra noise.  The per-user transition matrix
    at any hour is exposed for oracle tests.
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

        # anchors belong to the population: the same population_seed yields
        # the same users, so disjoint trajectory draws stay comparable
        m = n_hotspots
        self.homes = np.array([self._draw_pop(pop_rng) for _ in range(n_users)])
        self.works = np.empty(n_users, dtype=np.int64)
        for i in range(n_users):
            w = self._draw_pop(pop_rng)
            while w == self.homes[i] and m > 1:
                w = self._draw_pop(pop_rng)
            self.works[i] = w
        self.n_users = n_users
        self.n_hotspots = m

        self.rng = np.random.default_rng(seed)

    def _draw_pop(self, rng) -> int:
        return int(np.searchsorted(self._pop_cdf, rng.uniform()))

    def anchor(self, user: int, hour: float) -> int:
        h = hour % 24
        if h >= 20 or h < 8:
            return int(self.homes[user])
        if 9 <= h < 17:
            return int(self.works[user])
        # transit: heading to work in the morning, home in the evening
        return int(self.works[user]) if h < 12 else int(self.homes[user])

    def _noise_weight(self, hour: float) -> float:
        h = hour % 24
        in_regime = h >= 20 or h < 8 or 9 <= h < 17
        return 1.0 if in_regime else 3.0  # transit hours are noisier

    def transition_row(self, user: int, state: int, hour: float) -> np.ndarray:
        """Exact next-hotspot distribution from ``state`` at ``hour``."""
        p = self.params
        a = self.anchor(user, hour)
        noise = self._noise_weight(hour)
        stay = p.stay_at_anchor if state == a else p.stay_elsewhere
        stay = stay ** noise if noise > 1 else stay
        row = np.zeros(self.n_hotspots)
        rest = 1.0 - stay
        row[state] += stay
        if state != a:
            row[a] += rest * p.pull_to_anchor
            rest *= (1.0 - p.pull_to_anchor)
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

    def simulate_chain(self, user: int, n_steps: int, hour: float, rng) -> np.ndarray:
        """Fixed-hour hotspot-index chain, for count-based oracle checks."""
        p = self.params
        a = self.anchor(user, hour)
        noise = self._noise_weight(hour)
        out = np.empty(n_steps, dtype=np.int64)
        state = a
        u = rng.uniform(size=n_steps)
        v = rng.uniform(size=n_steps)
        for i in range(n_steps):
            state = self._step(state, a, u[i], v[i], noise, p)
            out[i] = state
        return out

    def _step(self, state, a, u, v, noise, p) -> int:
        stay = p.stay_at_anchor if state == a else p.stay_elsewhere
        stay = stay ** noise if noise > 1 else stay
        if u < stay:
            return state
        rest = 1.0 - stay
        if state != a:
            if u < stay + rest * p.pull_to_anchor:
                return a
        return int(np.searchsorted(self._pop_cdf, v))

    def simulate(self, trace_len: int, sampling_period: int, start_time: int = 0) -> Corpus:
        if trace_len < 1:
            raise DomainError("trace_len must be >= 1")
        if sampling_period <= 0:
            raise DomainError(f"sampling_period must be positive, got {sampling_period}")
        timestamps = start_time + sampling_period * np.arange(trace_len, dtype=np.int64)
        hours = hour_of_day(timestamps)
        p = self.params
        states = self.homes.copy()
        path = np.empty((self.n_users, trace_len), dtype=np.int64)
        for i in range(trace_len):
            h = hours[i]
            noise = self._noise_weight(h)
            u = self.rng.uniform(size=self.n_users)
            v = self.rng.uniform(size=self.n_users)
            for k in range(self.n_users):
                a = self.anchor(k, h)
                states[k] = self._step(states[k], a, u[k], v[k], noise, p)
            path[:, i] = states
        traces = [
            GridTrace(f"gt_{k}", self.hotspots[path[k]], timestamps)
            for k in range(self.n_users)
        ]
        return Corpus(spec=self.spec, traces=traces, sampling_period=int(sampling_period))


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
    except (TypeError, ValueError) as exc:
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
        if corpus.traces:
            lat, lon = geogrid.decode(
                corpus.spec, np.concatenate([t.cells for t in corpus.traces]))
            ts = np.concatenate([t.timestamps for t in corpus.traces])
            users = [t.user_id for t in corpus.traces for _ in range(len(t))]
            # repr of a Python float, not of np.float64 ("np.float64(...)")
            writer.writerows(zip(users, ts.tolist(),
                                 map(repr, lat.tolist()), map(repr, lon.tolist())))
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
            read_scalar(envelope, "sampling_period", int, lambda x: x > 0, "an integer > 0"))


def read_scalar(obj: dict, name: str, kinds, valid, expected: str):
    """One scalar field of a JSON file, checked (missing reads None, JSON true/false
    is no number); ``name`` is its dotted path, ending in its key in ``obj``."""
    value = obj.get(name.rpartition(".")[2])
    if isinstance(value, bool) or not isinstance(value, kinds) or not valid(value):
        raise ParseError(f"{name}: expected {expected}, got {value!r}")
    return value


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

