import io
import json

import numpy as np
import pytest

from mobsynth import dataio
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


class TestIngest:
    def test_resampling_carry_forward(self):
        lat, lon = decode(SPEC, 100)
        lat2, lon2 = decode(SPEC, 200)
        corpus = ingest(_csv([
            ("u1", 0, lat, lon),
            ("u1", 1800, lat2, lon2),
        ]), SPEC, sampling_period=600)
        assert len(corpus) == 1
        trace = corpus.traces[0]
        assert trace.timestamps.tolist() == [0, 600, 1200, 1800]
        assert trace.cells.tolist() == [100, 100, 100, 200]

    def test_unsorted_and_duplicate_rows(self):
        lat, lon = decode(SPEC, 5)
        lat2, lon2 = decode(SPEC, 6)
        corpus = ingest(_csv([
            ("u1", 600, lat, lon),
            ("u1", 0, lat, lon),
            ("u1", 600, lat2, lon2),  # duplicate timestamp: last one wins
        ]), SPEC, sampling_period=600)
        assert corpus.traces[0].cells.tolist() == [5, 6]

    def test_out_of_bounds_dropped(self):
        lat, lon = decode(SPEC, 10)
        corpus = ingest(_csv([
            ("u1", 0, lat, lon),
            ("u1", 600, 0.0, 0.0),
            ("u1", 1200, lat, lon),
        ]), SPEC, sampling_period=600)
        assert corpus.traces[0].cells.tolist() == [10, 10, 10]

    def test_single_point_user_dropped(self):
        lat, lon = decode(SPEC, 10)
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

    def test_bad_sampling_period(self):
        with pytest.raises(DomainError):
            ingest(_csv([]), SPEC, 0)


class TestSimulator:
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
        chain = sim.simulate_chain(0, 200_000, hour=11.0, rng=rng)
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
        chain = sim.simulate_chain(0, 100_000, hour=23.0, rng=rng)
        emp = np.bincount(chain, minlength=sim.n_hotspots) / chain.size
        pi = sim.stationary_distribution(0, 23.0)
        assert 0.5 * np.abs(emp - pi).sum() < 0.05

    def test_circadian_anchors(self):
        sim = GroundTruthSimulator(SPEC, 3, 20, seed=4)
        for u in range(3):
            assert sim.anchor(u, 23.0) == sim.homes[u]
            assert sim.anchor(u, 2.0) == sim.homes[u]
            assert sim.anchor(u, 11.0) == sim.works[u]

    def test_validation(self):
        with pytest.raises(DomainError):
            GroundTruthSimulator(SPEC, 1, 1, seed=0)
        with pytest.raises(DomainError):
            GroundTruthSimulator(GridSpec(0, 1, 0, 1, level=1), 1, 5, seed=0)


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
