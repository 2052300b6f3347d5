import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobsynth import dataio, generators
from mobsynth.copula import vine_fit
from mobsynth.dataio import Corpus, GridTrace, hour_of_day, simulate_ground_truth
from mobsynth.errors import (DomainError, IncompatibilityError,
                             InsufficientDataError)
from mobsynth.generators import MarkovGenerator, VineGenerator
from mobsynth.geogrid import GridSpec, curve_position

SPEC = GridSpec(45.8, 47.8, 5.9, 10.5, level=8)
DATA = Path(__file__).parent / "data"


def _small_corpus(seed=1, users=6, steps=120):
    return simulate_ground_truth(SPEC, users, steps, 10, seed=seed)


def _same_corpus(a: Corpus, b: Corpus) -> bool:
    if len(a) != len(b):
        return False
    return all(np.array_equal(x.cells, y.cells)
               and np.array_equal(x.timestamps, y.timestamps)
               for x, y in zip(a.traces, b.traces))


class TestMarkovGenerator:
    def test_fit_validation(self):
        with pytest.raises(InsufficientDataError):
            MarkovGenerator.fit(Corpus(spec=SPEC))
        corpus = _small_corpus()
        with pytest.raises(DomainError):
            MarkovGenerator.fit(corpus, order=-1)
        with pytest.raises(DomainError):
            MarkovGenerator.fit(corpus, alpha=0.0)

    def test_deterministic_generation(self):
        model = MarkovGenerator.fit(_small_corpus(), order=1)
        a = model.generate(4, 50, 0, seed=5)
        b = model.generate(4, 50, 0, seed=5)
        c = model.generate(4, 50, 0, seed=6)
        assert _same_corpus(a, b)
        assert not _same_corpus(a, c)

    def test_order0_reproduces_bucket_marginals(self):
        # order-0 rows are i.i.d. per time bucket, so generated frequencies
        # must match the per-bucket training distribution
        corpus = _small_corpus(users=10, steps=400)
        model = MarkovGenerator.fit(corpus, order=0)
        syn = model.generate(200, 144, 0, seed=7)
        train_counts = {}
        for trace in corpus.traces:
            hours = dataio.hour_of_day(trace.timestamps).astype(int)
            for c, h in zip(trace.cells, hours):
                if h == 3:
                    train_counts[int(c)] = train_counts.get(int(c), 0) + 1
        total = sum(train_counts.values())
        syn_counts = {}
        for trace in syn.traces:
            hours = dataio.hour_of_day(trace.timestamps).astype(int)
            for c, h in zip(trace.cells, hours):
                if h == 3:
                    syn_counts[int(c)] = syn_counts.get(int(c), 0) + 1
        syn_total = sum(syn_counts.values())
        cells = set(train_counts) | set(syn_counts)
        tv = 0.5 * sum(abs(train_counts.get(c, 0) / total
                           - syn_counts.get(c, 0) / syn_total) for c in cells)
        assert tv < 0.05

    def test_transition_matrix_rows_normalized(self):
        model = MarkovGenerator.fit(_small_corpus(), order=1)
        mat = model.transition_matrix(bucket=3)
        assert np.allclose(mat.sum(axis=1), 1.0)
        assert np.all(mat > 0)          # smoothing leaves no zero entries
        pi = model.stationary_distribution(bucket=3)
        assert pi.sum() == pytest.approx(1.0)

    def test_order1_learns_alternation(self):
        cells = np.tile([11, 22], 200)
        trace = GridTrace("u", cells, np.arange(cells.size) * 600)
        corpus = Corpus(spec=SPEC, traces=[trace], sampling_period=600)
        model = MarkovGenerator.fit(corpus, order=1, time_buckets=1)
        mat = model.transition_matrix(bucket=0)
        i, j = model.alphabet.tolist().index(11), model.alphabet.tolist().index(22)
        assert mat[i, j] > 0.99
        assert mat[j, i] > 0.99

    def test_backoff_handles_unseen_context(self):
        model = MarkovGenerator.fit(_small_corpus(), order=2)
        dist = model._distributions([(99999,)], bucket=0)[0]
        assert dist.sum() == pytest.approx(1.0)

    def test_payload_roundtrip(self, tmp_path):
        model = MarkovGenerator.fit(_small_corpus(), order=1)
        path = tmp_path / "markov.json"
        dataio.save_model(model, path)
        loaded = dataio.load_model(path)
        assert isinstance(loaded, MarkovGenerator)
        assert _same_corpus(model.generate(3, 40, 0, seed=2),
                            loaded.generate(3, 40, 0, seed=2))

    def test_trace_len_validation(self):
        model = MarkovGenerator.fit(_small_corpus(), order=0)
        with pytest.raises(DomainError):
            model.generate(1, 0, 0, seed=1)

    def test_n_traces_validation(self):
        model = MarkovGenerator.fit(_small_corpus(), order=0)
        with pytest.raises(DomainError):
            model.generate(0, 10, 0, seed=1)

    def test_chunked_draws_match_one_block(self, monkeypatch):
        # each trace draws from its own stream, so the chunk size of the
        # (traces x alphabet) blocks must not change any trace
        model = MarkovGenerator.fit(_small_corpus(), order=2)
        whole = model.generate(7, 30, 0, seed=4)
        monkeypatch.setattr(generators, "_CHUNK_CELLS", 3 * model.alphabet.size)
        assert _same_corpus(whole, model.generate(7, 30, 0, seed=4))

    @pytest.mark.parametrize("one_trace_blocks", [False, True])
    def test_small_cdf_cache_matches_the_default(self, monkeypatch, one_trace_blocks):
        # the CDF cache is cleared whenever it fills, and a row's bits do not
        # depend on when or beside which rows it was built
        model = MarkovGenerator.fit(_small_corpus(), order=2)
        whole = model.generate(7, 30, 0, seed=4)
        v = model.alphabet.size
        monkeypatch.setattr(generators, "_CACHE_CELLS", v)
        if one_trace_blocks:  # a block of one trace: the cache holds one row
            monkeypatch.setattr(generators, "_CHUNK_CELLS", v)
        assert _same_corpus(whole, model.generate(7, 30, 0, seed=4))

    def test_draw_stays_inside_alphabet(self, monkeypatch):
        # a distribution that sums below 1 stands in for rounding in cumsum:
        # a uniform draw above the total must not become symbol index V
        model = MarkovGenerator.fit(_small_corpus(), order=1)
        v = model.alphabet.size
        sources, rows = model._sources, model._rows
        contexts = []

        def record(batch, bucket):
            contexts.extend(batch)
            return sources(batch, bucket)

        monkeypatch.setattr(model, "_sources", record)
        monkeypatch.setattr(model, "_rows", lambda keys: 0.5 * rows(keys))
        syn = model.generate(3, 40, 0, seed=1)
        assert contexts and all(s < v for ctx in contexts for s in ctx)
        assert all(np.isin(t.cells, model.alphabet).all() for t in syn.traces)


def _reference_fit(corpus, order, time_buckets):
    """The earlier fit: one dense count vector per seen (bucket, context)."""
    alphabet = np.unique(np.concatenate([t.cells for t in corpus.traces]))
    index = {int(c): i for i, c in enumerate(alphabet)}
    v = alphabet.size
    counts = [dict() for _ in range(order + 1)]
    global_counts = np.zeros(v)
    for trace in corpus.traces:
        sym = np.array([index[int(c)] for c in trace.cells])
        buckets = generators._bucket_of(trace.timestamps, time_buckets)
        np.add.at(global_counts, sym, 1.0)
        for t in range(1, len(sym)):
            b = int(buckets[t])
            s = int(sym[t])
            for k in range(0, order + 1):
                if t - k < 0:
                    break
                ctx = tuple(int(x) for x in sym[t - k:t])
                key = (b, ctx)
                vec = counts[k].get(key)
                if vec is None:
                    vec = np.zeros(v)
                    counts[k][key] = vec
                vec[s] += 1.0
    return alphabet, counts, global_counts


def _reference_tables(corpus, order, time_buckets):
    """The count tables as np.unique(axis=0) builds them: each distinct
    (bucket, ctx_1..ctx_k, next) row once, sorted, with its count."""
    _, sym = np.unique(np.concatenate([t.cells for t in corpus.traces]),
                       return_inverse=True)
    buckets = generators._bucket_of(np.concatenate([t.timestamps for t in corpus.traces]),
                                    time_buckets)
    pos = np.concatenate([np.arange(len(t)) for t in corpus.traces])
    tables = []
    for k in range(order + 1):
        at = np.flatnonzero(pos >= max(k, 1))
        steps = np.column_stack([buckets[at]] + [sym[at - j] for j in range(k, -1, -1)])
        rows, n = np.unique(steps, axis=0, return_counts=True)
        tables.append(np.column_stack([rows, n]))
    return tables


def _reference_distribution(ref, order, alpha, context, bucket):
    """The earlier one-context distribution over _reference_fit's dense vectors."""
    _, counts, global_counts = ref
    v = global_counts.size
    for k in range(min(order, len(context)), -1, -1):
        ctx = context[len(context) - k:]
        vec = counts[k].get((bucket, ctx))
        if vec is not None:
            return (vec + alpha) / (vec.sum() + alpha * v)
    return (global_counts + alpha) / (global_counts.sum() + alpha * v)


_traces = st.lists(
    st.tuples(st.integers(0, 2 * 86400),              # start time
              st.lists(st.integers(0, 5), min_size=1, max_size=25)),
    min_size=1, max_size=4)


def _hourly_corpus(traces):
    """A corpus of one hourly trace per (start time, symbols) pair."""
    return Corpus(spec=SPEC, sampling_period=3600, traces=[
        GridTrace(f"u{i}", 37 * np.array(cells) + 5, t0 + 3600 * np.arange(len(cells)))
        for i, (t0, cells) in enumerate(traces)])


class TestCountTableExactness:
    @settings(max_examples=60, deadline=None)
    @given(traces=_traces, order=st.sampled_from([0, 1, 2]),
           time_buckets=st.sampled_from([1, 3, 24]),
           period=st.sampled_from([600, 3600, 5400]),
           alpha=st.sampled_from([0.01, 1.0]))
    def test_matches_dense_reference(self, traces, order, time_buckets, period, alpha):
        corpus = Corpus(spec=SPEC, sampling_period=period, traces=[
            GridTrace(f"u{i}", 37 * np.array(cells) + 5,
                      start + period * np.arange(len(cells)))
            for i, (start, cells) in enumerate(traces)])
        model = MarkovGenerator.fit(corpus, order=order, time_buckets=time_buckets,
                                    alpha=alpha)
        ref = _reference_fit(corpus, order, time_buckets)
        assert np.array_equal(model.alphabet, ref[0])
        v = model.alphabet.size
        tables = _reference_tables(corpus, order, time_buckets)
        assert len(model.counts) == len(tables)
        for got, want in zip(model.counts, tables):
            assert got.shape == want.shape and np.array_equal(got, want)

        def same(context, bucket):
            return np.array_equal(model._distributions([context], bucket)[0],
                                  _reference_distribution(ref, order, alpha, context, bucket))

        for k, level in enumerate(ref[1]):
            for bucket, ctx in level:
                assert same(ctx, bucket)
                # an unseen symbol in front backs off to exactly this level
                assert same((v,) * (order - k) + ctx, bucket)
        assert same((v,) * order, time_buckets - 1)
        for bucket in range(time_buckets):
            assert np.array_equal(model.stationary_distribution(bucket),
                                  _reference_distribution(ref, order, alpha, (), bucket))
            assert np.array_equal(model.transition_matrix(bucket), np.stack(
                [_reference_distribution(ref, order, alpha, (j,), bucket)
                 for j in range(v)]))

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "markov.json")
            dataio.save_model(model, path)
            loaded = dataio.load_model(path)
        assert len(loaded.counts) == order + 1
        assert all(np.array_equal(a, b) for a, b in zip(loaded.counts, model.counts))
        assert np.array_equal(loaded.global_counts, model.global_counts)
        for bucket in range(time_buckets):
            assert np.array_equal(loaded.transition_matrix(bucket),
                                  model.transition_matrix(bucket))

    @settings(max_examples=100, deadline=None)
    @given(traces=_traces, order=st.sampled_from([0, 1, 2, 3]),
           time_buckets=st.sampled_from([1, 3, 24]), data=st.data())
    def test_one_batch_mixes_every_backoff_level(self, traces, order, time_buckets, data):
        corpus = _hourly_corpus(traces)
        model = MarkovGenerator.fit(corpus, order=order, time_buckets=time_buckets,
                                    alpha=0.5)
        ref = _reference_fit(corpus, order, time_buckets)
        v = model.alphabet.size
        # a context length j below the order backs off from level j; a
        # bucket no trace reaches backs off to the global counts
        j = data.draw(st.integers(0, order))
        bucket = data.draw(st.integers(0, time_buckets - 1))
        # the contexts seen at each level k <= j, behind j - k copies of the
        # symbol V no trace holds, back off to exactly level k
        batch = [(v,) * (j - k) + ctx for k in range(j + 1)
                 for b, ctx in ref[1][k] if b == bucket]
        batch += data.draw(st.lists(st.tuples(*[st.integers(0, v)] * j), max_size=12))
        batch = data.draw(st.permutations(batch + [(v,) * j]))
        got = model._distributions(np.array(batch, dtype=np.int64).reshape(len(batch), j),
                                   bucket)
        for row, ctx in zip(got, batch):
            assert np.array_equal(row, _reference_distribution(ref, order, 0.5, ctx, bucket))

    @settings(max_examples=60, deadline=None)
    @given(traces=_traces, order=st.sampled_from([0, 1, 2]),
           time_buckets=st.sampled_from([1, 3, 24]), data=st.data())
    def test_rows_do_not_depend_on_their_batch(self, traces, order, time_buckets, data):
        corpus = _hourly_corpus(traces)
        model = MarkovGenerator.fit(corpus, order=order, time_buckets=time_buckets)
        ref = _reference_fit(corpus, order, time_buckets)
        v = model.alphabet.size
        # a bucket no trace reaches backs off to the global counts, and the
        # symbol V, outside the alphabet, is never seen
        bucket = data.draw(st.integers(0, time_buckets - 1))
        j = data.draw(st.integers(0, order))
        contexts = data.draw(st.lists(st.tuples(*[st.integers(0, v)] * j),
                                      min_size=1, max_size=12))
        keys = model._sources(np.array(contexts, dtype=np.int64).reshape(len(contexts), j),
                              bucket)
        # each context's row, then the row of every distribution the model holds
        batch = np.concatenate([keys, model._groups])
        rows = model._rows(batch)
        cdf = np.cumsum(rows, axis=1)
        for ctx, row in zip(contexts, rows):
            assert np.array_equal(row, _reference_distribution(ref, order, 0.01, ctx, bucket))
        for key, row, cdf_row in zip(batch, rows, cdf):
            alone = model._rows(np.array([key]))
            assert np.array_equal(alone[0], row)
            assert np.array_equal(np.cumsum(alone, axis=1)[0], cdf_row)

    @settings(max_examples=60, deadline=None)
    @given(traces=_traces, order=st.sampled_from([0, 1, 2]),
           time_buckets=st.sampled_from([1, 3, 24]), n_traces=st.integers(1, 6),
           trace_len=st.integers(1, 30), start=st.integers(0, 86_400),
           cache_rows=st.sampled_from([1, 2, None]), seed=st.integers(0, 2 ** 16))
    def test_generate_matches_a_draw_per_trace_and_step(self, traces, order, time_buckets,
                                                        n_traces, trace_len, start,
                                                        cache_rows, seed):
        corpus = _hourly_corpus(traces)
        model = MarkovGenerator.fit(corpus, order=order, time_buckets=time_buckets)
        want = _reference_generate(model, n_traces, trace_len, start, seed)
        v = model.alphabet.size
        with pytest.MonkeyPatch.context() as mp:
            if cache_rows:  # blocks of cache_rows traces, and a cache of one block
                mp.setattr(generators, "_CHUNK_CELLS", cache_rows * v)
                mp.setattr(generators, "_CACHE_CELLS", v)
            got = model.generate(n_traces, trace_len, start, seed)
        assert np.array_equal(got.cells.reshape(n_traces, trace_len), want)


def _reference_generate(model, n_traces, trace_len, start_time, seed):
    """The earlier draw: each step builds every trace's distribution, takes
    its cumsum and counts the CDF values below the trace's uniform."""
    v = model.alphabet.size
    timestamps = dataio.time_grid(start_time, model.sampling_period, trace_len)
    buckets = generators._bucket_of(timestamps, model.time_buckets)
    u = np.stack([np.random.default_rng([seed, i]).uniform(size=trace_len)
                  for i in range(n_traces)])
    sym = np.empty((n_traces, trace_len), dtype=np.int64)
    for t in range(trace_len):
        contexts = sym[:, max(0, t - model.order):t]
        cdf = np.cumsum(model._distributions(contexts, int(buckets[t])), axis=1)
        sym[:, t] = np.minimum((cdf < u[:, t, None]).sum(axis=1), v - 1)
    return model.alphabet[sym]


class TestEarlierModelFile:
    """tests/data holds an order-2 Markov model file, and a corpus generated
    from it, both written while the count tables were built by
    np.unique(axis=0) and corpora written by one csv.writer row per point."""

    def test_loads_and_generates_the_same_bytes(self, tmp_path):
        model = dataio.load_model(DATA / "markov_order2.json")
        dataio.save_corpus(model.generate(5, 40, 0, seed=2), tmp_path / "syn.csv")
        assert (tmp_path / "syn.csv").read_bytes() == \
            (DATA / "markov_order2_syn.csv").read_bytes()

    def test_fit_writes_the_same_model_file(self, tmp_path):
        model = MarkovGenerator.fit(_small_corpus(), order=2, time_buckets=3)
        dataio.save_model(model, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == \
            (DATA / "markov_order2.json").read_bytes()


@pytest.fixture(scope="module")
def fitted():
    corpus = simulate_ground_truth(SPEC, 8, 250, 10, seed=3)
    return VineGenerator.fit(corpus, window=4, max_scores=200, seed=0)


class TestVineGenerator:

    def test_fit_and_generation_match_recorded_digests(self):
        # Golden digests of the kernel copula's output bits at the CLI's fit
        # defaults: the tree-2 scores come from h-functions, the corpus from
        # h-functions and conditional draws.  They were taken by running this
        # body on commit 46a22c9, the last one whose kernel built (rows,
        # width) blocks and summed them with cumsum, under numpy 2.4.6 and
        # scipy 1.17.1 on x86-64, and printing the two hexdigests.  The
        # (width, rows) blocks must give the same bits; a change of numpy or
        # scipy that moves exp, ndtr or a reduction's order shows up here.
        corpus = simulate_ground_truth(SPEC, 12, 300, 20, seed=11)
        model = VineGenerator.fit(corpus, window=4, seed=12)
        syn = model.generate(60, 80, 0, seed=13)
        scores = b"".join(e.scores.astype("<f8").tobytes() for level in model.vine.trees
                          for e in level)
        assert [e.scores.shape for level in model.vine.trees for e in level] == [(3552, 2)] * 3
        assert hashlib.sha256(syn.cells.astype("<i8").tobytes()).hexdigest() == (
            "18b1de6c1d45254a8224dcc33dee4789b7e2cd4fe61b0495b4966a0c087d0b57")
        assert hashlib.sha256(scores).hexdigest() == (
            "8461ae0e14fbd79ddc2841fabc11e161ad956c8b607a4ddd0a12043e4e8f1a3a")

    def test_fit_validation(self):
        with pytest.raises(DomainError):
            VineGenerator.fit(_small_corpus(), window=0)
        tiny = Corpus(spec=SPEC,
                      traces=[GridTrace("u", [1, 2], [0, 600])],
                      sampling_period=600)
        with pytest.raises(InsufficientDataError):
            VineGenerator.fit(tiny, window=4)

    def test_max_rows_thins_the_fit_rows_evenly(self):
        corpus = simulate_ground_truth(SPEC, 8, 250, 10, seed=3)
        model = VineGenerator.fit(corpus, window=4, max_scores=200, max_rows=150, seed=0)
        rows = VineGenerator._path_rows(corpus, 4, 3, np.random.default_rng(0))
        assert rows.shape[0] > 150
        kept = rows[np.linspace(0, rows.shape[0] - 1, 150).astype(int)]
        for j, margin in enumerate(model.vine.margins):
            assert margin.n == 150
            assert np.array_equal(margin.sorted_sample, np.sort(kept[:, j]))

    def test_generated_corpus_shape(self, fitted):
        syn = fitted.generate(5, 60, 0, seed=4)
        assert len(syn) == 5
        for t in syn.traces:
            assert len(t) == 60
            assert np.all((t.cells >= 0) & (t.cells < SPEC.n_cells))
            assert t.timestamps[0] == 0
            assert np.all(np.diff(t.timestamps) == 600)

    def test_deterministic_generation(self, fitted):
        a = fitted.generate(4, 40, 0, seed=5)
        b = fitted.generate(4, 40, 0, seed=5)
        c = fitted.generate(4, 40, 0, seed=6)
        assert _same_corpus(a, b)
        assert not _same_corpus(a, c)

    def test_trace_len_must_exceed_window(self, fitted):
        with pytest.raises(DomainError):
            fitted.generate(2, 4, 0, seed=1)

    def test_n_traces_validation(self, fitted):
        with pytest.raises(DomainError):
            fitted.generate(0, 10, 0, seed=1)

    def test_payload_roundtrip(self, fitted, tmp_path):
        path = tmp_path / "vine.json"
        dataio.save_model(fitted, path)
        loaded = dataio.load_model(path)
        assert isinstance(loaded, VineGenerator)
        assert loaded.window == fitted.window
        assert _same_corpus(fitted.generate(3, 30, 0, seed=8),
                            loaded.generate(3, 30, 0, seed=8))

    def test_start_windows_come_from_training_cells(self, fitted):
        seen = set()
        for row in fitted.start_windows[:, :-1]:
            seen.update(int(c) for c in row)
        train_cells = set()
        corpus = simulate_ground_truth(SPEC, 8, 250, 10, seed=3)
        for t in corpus.traces:
            train_cells.update(int(c) for c in t.cells)
        assert seen <= train_cells

    def test_starts_without_the_start_hour_come_from_every_window(self, fitted):
        # every start window opens at hour 5, none at the start hour 0, so
        # the pool falls back to all of them
        windows = fitted.start_windows.copy()
        windows[:, -1] = 5
        model = VineGenerator(SPEC, fitted.sampling_period, fitted.window, fitted.vine,
                              windows)
        w = model.window
        syn = model.generate(20, w + 1, 0, seed=10)
        rows = {tuple(row) for row in windows[:, :-1].tolist()}
        assert all(tuple(t.cells[:w].tolist()) in rows for t in syn.traces)

    def test_generated_cells_follow_training_support(self, fitted):
        # jitter plus flooring can step into neighbour cells, but the bulk of
        # the mass must stay on cells the model was trained on
        corpus = simulate_ground_truth(SPEC, 8, 250, 10, seed=3)
        train_cells = set()
        for t in corpus.traces:
            train_cells.update(int(c) for c in t.cells)
        syn = fitted.generate(6, 100, 0, seed=9)
        total = known = 0
        for t in syn.traces:
            total += len(t)
            known += sum(int(c) in train_cells for c in t.cells)
        assert known / total > 0.8


def _full_window_fit(corpus, window, trunc_level, max_scores, bandwidth_scale=0.00625,
                     max_rows=25000, seed=0):
    """Reference: the vine fitted on all window + 2 path variables, as the
    generator once fitted it, wrapped in a VineGenerator."""
    w = window
    usable = [t for t in corpus.traces if len(t) >= w + 1]
    rng = np.random.default_rng(seed)
    period_hours = corpus.sampling_period / 3600.0
    rows = []
    for trace in usable:
        pos = curve_position(corpus.spec, trace.cells, rng.uniform(size=len(trace)))
        tod = (hour_of_day(trace.timestamps)
               + rng.uniform(0.0, period_hours, size=len(trace))) % 24
        n = len(trace)
        rows.append(np.column_stack([pos[k:n - w + k] for k in range(w - 1)]
                                    + [tod[w:], pos[w - 1:n - 1], pos[w:]]))
    data = np.concatenate(rows, axis=0)
    if max_rows and data.shape[0] > max_rows:
        data = data[np.linspace(0, data.shape[0] - 1, max_rows).astype(int)]
    vine = vine_fit(data, trunc_level=trunc_level, max_scores=max_scores,
                    bandwidth_scale=bandwidth_scale)
    return VineGenerator(corpus.spec, corpus.sampling_period, w, vine,
                         VineGenerator._collect_start_windows(
                             Corpus(corpus.spec, usable, corpus.sampling_period), w))


def _loop_start_windows(traces, w, cap=5000):
    """Reference: the per-trace, per-window loop the array code replaced."""
    rows = []
    for trace in traces:
        hours = hour_of_day(trace.timestamps).astype(int)
        n = len(trace)
        for t in range(0, n - w, max(1, (n - w) // 64)):
            rows.append(np.concatenate([trace.cells[t:t + w], [hours[t]]]))
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape[0] > cap:
        keep = np.linspace(0, rows.shape[0] - 1, cap).astype(int)
        rows = rows[keep]
    return rows


class TestStartWindowsExactness:
    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(1, 300), min_size=1, max_size=6),
           w=st.integers(1, 6), cap=st.sampled_from([3, 40, 5000]), seed=st.integers(0, 99))
    def test_equals_per_window_loop(self, lengths, w, cap, seed):
        # traces shorter than the window, and long ones that start a window
        # only every few points, both come up
        rng = np.random.default_rng(seed)
        corpus = Corpus(SPEC, [GridTrace(f"u{i}", rng.integers(0, 50, size=n),
                                         rng.integers(0, 86400) + 600 * np.arange(n))
                               for i, n in enumerate(lengths)], 600)
        got = VineGenerator._collect_start_windows(corpus, w, cap)
        want = _loop_start_windows(corpus.traces, w, cap)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want.reshape(-1, w + 1))


class TestTruncatedVineExactness:
    """The generator keeps the sub-vine over the last trunc_level + 1 path
    variables; every kept margin and edge, and every corpus, must equal the
    full-window vine's."""

    @pytest.mark.parametrize("window, trunc_level", [(4, 1), (4, 2), (2, 3), (4, 5), (4, 6)])
    def test_sub_vine_and_corpus_equal_full_window_fit(self, window, trunc_level):
        corpus = _small_corpus(seed=7, users=6, steps=150)
        kw = dict(max_scores=200, max_rows=3000, seed=4)
        model = VineGenerator.fit(corpus, window=window, trunc_level=trunc_level, **kw)
        ref = _full_window_fit(corpus, window, trunc_level, **kw)
        d = min(trunc_level, window + 1) + 1
        skip = window + 2 - d
        assert model.vine.dim == d and model.vine.depth == ref.vine.depth == d - 1
        for got, want in zip(model.vine.margins, ref.vine.margins[skip:], strict=True):
            assert np.array_equal(got.sorted_sample, want.sorted_sample)
        for level, ref_level in zip(model.vine.trees, ref.vine.trees, strict=True):
            for got, want in zip(level, ref_level[skip:], strict=True):
                assert np.array_equal(got.scores, want.scores)
                assert got.bandwidth == want.bandwidth
        assert np.array_equal(model.start_windows, ref.start_windows)
        assert _same_corpus(model.generate(5, 40, 0, seed=11), ref.generate(5, 40, 0, seed=11))

    def test_full_window_model_file_still_loads(self, tmp_path):
        corpus = _small_corpus(seed=7, users=6, steps=150)
        kw = dict(max_scores=200, max_rows=3000, seed=4)
        ref = _full_window_fit(corpus, 4, 2, **kw)
        path = tmp_path / "full.json"
        dataio.save_model(ref, path)
        payload = json.loads(path.read_text())["payload"]
        assert len(payload["margins"]) == 6 and len(payload["var_names"]) == 6
        loaded = dataio.load_model(path)
        assert loaded.vine.dim == 6
        model = VineGenerator.fit(corpus, window=4, trunc_level=2, **kw)
        assert _same_corpus(loaded.generate(5, 40, 0, seed=12),
                            model.generate(5, 40, 0, seed=12))


class TestModelFiles:
    @pytest.mark.parametrize("model_type", ["markov", "vine"])
    def test_save_load_save_is_byte_identical(self, fitted, tmp_path, model_type):
        model = (fitted if model_type == "vine"
                 else MarkovGenerator.fit(_small_corpus(), order=2))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        dataio.save_model(model, first)
        dataio.save_model(dataio.load_model(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestPayloadDispatch:
    def test_unknown_model_type(self):
        with pytest.raises(IncompatibilityError):
            generators.generator_from_payload("nope", SPEC, 600, {})
