import contextlib
import csv
import io
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobsynth import dataio, geogrid
from mobsynth.dataio import (Corpus, GridTrace, GroundTruthSimulator,
                             SimulatorParams, hour_of_day, ingest,
                             simulate_ground_truth)
from mobsynth.errors import (DomainError, FormatVersionError,
                             IncompatibilityError, ParseError)
from mobsynth.geogrid import GridSpec, decode

SPEC = GridSpec(45.8, 47.8, 5.9, 10.5, level=8)


def _csv(rows, header=True):
    lines = ["user_id,timestamp,lat,lon"] if header else []
    lines += [",".join(str(c) for c in r) for r in rows]
    return io.StringIO("\n".join(lines) + "\n")


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


def _regularize(parsed, period):
    """The column regularizer's traces, as the reference returns them."""
    return dataio._regularize(parsed, SPEC, period).traces


def _run(parse, regularize, text, period):
    """(traces as plain tuples, or the ParseError's (line, message)), log lines."""
    with _logged() as records:
        try:
            traces = regularize(parse(csv.reader(io.StringIO(text)), SPEC), period)
            out = [(t.user_id, t.cells.tolist(), t.timestamps.tolist()) for t in traces]
        except ParseError as exc:
            out = (exc.line, str(exc))
    return out, [r.getMessage() for r in records]


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
        expected = _run(ref_parse_rows, ref_regularize, text, period)
        assert _run(dataio._parse_rows, _regularize, text, period) == expected

    def test_trace_order_is_first_point_inside_the_box(self):
        (a,), (b,) = _centres(5), _centres(9)
        text = _csv([("u1", 0, 0.0, 0.0), ("u2", 0, *a), ("u1", 600, *b),
                     ("u2", 600, *a), ("u1", 1200, *b)]).getvalue()
        expected = _run(ref_parse_rows, ref_regularize, text, 600)
        assert [t[0] for t in expected[0]] == ["u2", "u1"]
        assert _run(dataio._parse_rows, _regularize, text, 600) == expected


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
        want = dataio.load_targets(plain, SPEC, 600)
        got = dataio.load_targets(blank, SPEC, 600)
        for a, b in zip(want, got):
            assert [t.user_id for t in a] == [t.user_id for t in b] and len(a) == 1
            assert np.array_equal(a[0].cells, b[0].cells)

    def test_bad_sampling_period(self):
        with pytest.raises(DomainError):
            ingest(_csv([]), SPEC, 0)


# -- scalar reference: the simulator the array step replaced, one user and
#    one step at a time --

class ScalarSimulator:
    def __init__(self, spec, n_users, n_hotspots, seed, population_seed=None, params=None):
        self.params = params or SimulatorParams()
        pop_rng = np.random.default_rng(seed if population_seed is None else population_seed)
        self.hotspots = np.sort(pop_rng.choice(spec.n_cells, size=n_hotspots, replace=False))
        weights = 1.0 / np.arange(1, n_hotspots + 1) ** self.params.popularity_exponent
        pop_rng.shuffle(weights)
        self._pop_cdf = np.cumsum(weights / weights.sum())
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

    def _step(self, state, a, u, v, noise, p):
        stay = p.stay_at_anchor if state == a else p.stay_elsewhere
        stay = stay ** noise if noise > 1 else stay
        if u < stay:
            return state
        rest = 1.0 - stay
        if state != a:
            if u < stay + rest * p.pull_to_anchor:
                return a
        return int(np.searchsorted(self._pop_cdf, v))

    def simulate_chain(self, user, n_steps, hour, rng):
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

    def simulate(self, trace_len, sampling_period, start_time=0):
        """(cells, timestamps) with one row of cells per user."""
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
        return self.hotspots[path], timestamps


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
        sim = GroundTruthSimulator(SPEC, n_users, n_hotspots, seed,
                                   population_seed=population_seed, params=params)
        ref = ScalarSimulator(SPEC, n_users, n_hotspots, seed,
                              population_seed=population_seed, params=params)
        assert np.array_equal(sim.homes, ref.homes)
        assert np.array_equal(sim.works, ref.works)
        corpus = sim.simulate(trace_len, period, start_time=start)
        cells, timestamps = ref.simulate(trace_len, period, start_time=start)
        assert [t.user_id for t in corpus.traces] == [f"gt_{k}" for k in range(n_users)]
        for trace, want in zip(corpus.traces, cells, strict=True):
            assert np.array_equal(trace.cells, want)
            assert np.array_equal(trace.timestamps, timestamps)
        for hour in np.arange(0.0, 48.0, 0.25):
            assert [sim.anchor(k, hour) for k in range(n_users)] == \
                [ref.anchor(k, hour) for k in range(n_users)]


class _LargestDraw:
    """A generator whose every uniform draw is the largest one, 1 - 2^-53."""

    def uniform(self, size=None):
        return np.full(size, np.nextafter(1.0, 0.0))


class TestSimulator:
    def test_largest_draw_picks_the_last_hotspot(self):
        # at population seed 4 the popularity CDF of 3,000 hotspots sums to
        # 1 - 5 * 2^-53, below the largest draw; every user leaves its anchor
        sim = GroundTruthSimulator(SPEC, 3, 3000, seed=0, population_seed=4)
        sim.rng = _LargestDraw()
        corpus = sim.simulate(2, 600)
        assert np.all(corpus.cells == sim.hotspots[-1])

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
        s1 = GroundTruthSimulator(SPEC, 4, 20, seed=1, population_seed=77)
        s2 = GroundTruthSimulator(SPEC, 4, 20, seed=2, population_seed=77)
        assert np.array_equal(s1.hotspots, s2.hotspots)
        assert np.array_equal(s1.popularity, s2.popularity)
        assert np.array_equal(s1.homes, s2.homes)
        assert np.array_equal(s1.works, s2.works)

    def test_transition_rows_are_distributions(self):
        sim = GroundTruthSimulator(SPEC, 2, 12, seed=4)
        for hour in (3.0, 11.0, 18.5):
            mat = sim.transition_matrix(0, hour)
            assert np.allclose(mat.sum(axis=1), 1.0)
            assert np.all(mat >= 0)

    def test_transition_matrix_recovered_from_counts(self):
        # count-based estimate from a long fixed-hour chain must match the
        # analytic transition rows within 0.02 per entry
        sim = GroundTruthSimulator(SPEC, 1, 8, seed=4)
        rng = np.random.default_rng(0)
        chain = ScalarSimulator(SPEC, 1, 8, seed=4).simulate_chain(0, 200_000, hour=11.0, rng=rng)
        m = sim.n_hotspots
        counts = np.zeros((m, m))
        np.add.at(counts, (chain[:-1], chain[1:]), 1.0)
        rows = counts.sum(axis=1)
        est = counts / np.maximum(rows, 1.0)[:, None]
        truth = sim.transition_matrix(0, 11.0)
        well_sampled = rows > 5000
        assert well_sampled.any()
        assert np.max(np.abs(est[well_sampled] - truth[well_sampled])) < 0.02

    def test_stationary_distribution_matches_long_run(self):
        sim = GroundTruthSimulator(SPEC, 1, 8, seed=4)
        rng = np.random.default_rng(1)
        chain = ScalarSimulator(SPEC, 1, 8, seed=4).simulate_chain(0, 100_000, hour=23.0, rng=rng)
        emp = np.bincount(chain, minlength=sim.n_hotspots) / chain.size
        pi = sim.stationary_distribution(0, 23.0)
        assert 0.5 * np.abs(emp - pi).sum() < 0.05

    def test_circadian_anchors(self):
        sim = GroundTruthSimulator(SPEC, 3, 20, seed=4)
        for u in range(3):
            assert sim.anchor(u, 23.0) == sim.homes[u]
            assert sim.anchor(u, 2.0) == sim.homes[u]
            assert sim.anchor(u, 11.0) == sim.works[u]
            assert sim.anchor(u, 8.5) == sim.works[u]    # morning transit: to work
            assert sim.anchor(u, 18.0) == sim.homes[u]   # evening transit: home

    def test_validation(self):
        with pytest.raises(DomainError):
            GroundTruthSimulator(SPEC, 1, 1, seed=0)
        with pytest.raises(DomainError):
            GroundTruthSimulator(GridSpec(0, 1, 0, 1, level=1), 1, 5, seed=0)


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

    def test_report_requires_all_blocks(self, tmp_path):
        with pytest.raises(DomainError):
            dataio.save_report({"topn": {}, "mmd": {}}, tmp_path / "r.json")

    def test_report_roundtrip(self, tmp_path):
        report = {"topn": {"tv": 0.1}, "mmd": {"p": 0.5},
                  "mi_decay": {"taus": [1, 2]}, "privacy": {"auc": 0.5}}
        path = tmp_path / "r.json"
        dataio.save_report(report, path)
        loaded = dataio.load_report(path)
        assert loaded["topn"] == {"tv": 0.1}
        assert loaded["format_version"] == dataio.FORMAT_VERSION
