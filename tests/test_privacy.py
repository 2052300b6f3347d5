import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobsynth import privacy
from mobsynth.dataio import Corpus, GridTrace, simulate_ground_truth
from mobsynth.errors import DomainError
from mobsynth.generators import MarkovGenerator, _bucket_of
from mobsynth.geogrid import GridSpec
from mobsynth.metrics import corpus_runs
from mobsynth.privacy import (HIDDEN, ObfuscatedTrace, hide_locations,
                              membership_attack, membership_scores,
                              reconstruct_trace, run_sequence_attack,
                              sequence_attack, _auc_lower_is_member,
                              _best_threshold)

SPEC = GridSpec(45.8, 47.8, 5.9, 10.5, level=8)


def _trace(cells, user="u"):
    cells = np.asarray(cells, dtype=np.int64)
    return GridTrace(user, cells, np.arange(cells.size, dtype=np.int64) * 600)


def _corpus(traces):
    return Corpus(spec=SPEC, traces=traces, sampling_period=600)


def _targets(members, nonmembers):
    """One targets corpus: the members' traces, then the non-members'."""
    return _corpus(members.traces + nonmembers.traces)


def _uniform_corpus(m_cells, n_traces, length, seed):
    rng = np.random.default_rng(seed)
    return _corpus([_trace(rng.integers(0, m_cells, size=length), user=f"u{i}")
                    for i in range(n_traces)])


class TestHideLocations:
    def test_bounds(self):
        with pytest.raises(DomainError):
            hide_locations(_trace([1, 2]), -0.1, np.random.default_rng(0))
        with pytest.raises(DomainError):
            hide_locations(_trace([1, 2]), 1.1, np.random.default_rng(0))

    def test_extremes(self):
        t = _trace(np.arange(50))
        none = hide_locations(t, 0.0, np.random.default_rng(1))
        assert not none.hidden_mask.any()
        allh = hide_locations(t, 1.0, np.random.default_rng(1))
        assert allh.hidden_mask.all()
        assert np.all(allh.cells == HIDDEN)

    def test_rate(self):
        t = _trace(np.arange(5000))
        obf = hide_locations(t, 0.3, np.random.default_rng(2))
        assert abs(obf.hidden_mask.mean() - 0.3) < 0.03
        kept = ~obf.hidden_mask
        assert np.array_equal(obf.cells[kept], t.cells[kept])


class TestSequenceAttack:
    def test_uniform_prior_hits_random_floor(self):
        # with everything hidden and a flat prior the attack cannot beat 1/m
        m = 8
        prior = MarkovGenerator.fit(_uniform_corpus(m, 10, 500, seed=3), order=1,
                                    time_buckets=1)
        truth = _uniform_corpus(m, 10, 500, seed=4)
        rng = np.random.default_rng(5)
        acc = run_sequence_attack(truth, prior, p_hide=1.0, rng=rng)
        assert abs(acc - 1.0 / m) < 0.02

    def test_deterministic_pattern_fully_recovered(self):
        pattern = np.tile([7, 9], 100)
        corpus = _corpus([_trace(pattern)])
        prior = MarkovGenerator.fit(corpus, order=1, time_buckets=1)
        obf = hide_locations(corpus.traces[0], 0.4, np.random.default_rng(6))
        recovered = reconstruct_trace(obf, prior)
        assert np.array_equal(recovered, pattern)

    def test_informative_prior_beats_floor(self):
        corpus = simulate_ground_truth(SPEC, 6, 300, 12, seed=7)
        prior = MarkovGenerator.fit(corpus, order=1)
        m = len(np.unique(np.concatenate([t.cells for t in corpus.traces])))
        rng = np.random.default_rng(8)
        acc = run_sequence_attack(corpus, prior, p_hide=0.3, rng=rng)
        assert acc > 1.0 / m
        acc2 = run_sequence_attack(corpus, prior, p_hide=0.3,
                                   rng=np.random.default_rng(9))
        assert abs(acc - acc2) < 0.03

    def test_nothing_hidden_raises(self):
        corpus = _corpus([_trace([1, 2, 3])])
        prior = MarkovGenerator.fit(corpus, order=1)
        obf = [hide_locations(t, 0.0, np.random.default_rng(0))
               for t in corpus.traces]
        with pytest.raises(DomainError):
            sequence_attack(corpus, obf, prior)

    def test_alignment_checked(self):
        corpus = _corpus([_trace([1, 2, 3])])
        prior = MarkovGenerator.fit(corpus, order=1)
        # a trace missing, and a trace shorter than its truth
        short = hide_locations(_trace([1, 2]), 1.0, np.random.default_rng(0))
        for obfuscated in ([], [short]):
            with pytest.raises(DomainError):
                sequence_attack(corpus, obfuscated, prior)

    def test_unknown_observed_cells_tolerated(self):
        corpus = _corpus([_trace([1, 2, 1, 2, 1, 2])])
        prior = MarkovGenerator.fit(corpus, order=1, time_buckets=1)
        stranger = _trace([1, 5, 1, 2, 1, 2])  # cell 5 unknown to the prior
        obf = hide_locations(stranger, 0.5, np.random.default_rng(10))
        recovered = reconstruct_trace(obf, prior)
        assert recovered.shape == stranger.cells.shape

    def test_attack_holds_no_alphabet_squared_array(self):
        # one dense 3,000 x 3,000 float matrix is 72 MB
        prior = MarkovGenerator.fit(_uniform_corpus(3000, 20, 1000, seed=20), order=1)
        assert prior.alphabet.size > 2900
        truth = _uniform_corpus(3000, 5, 200, seed=21)
        rng = np.random.default_rng(22)
        # and one fully hidden trace: a single 200-step run
        obfuscated = [hide_locations(t, 0.5 if i < 4 else 1.0, rng)
                      for i, t in enumerate(truth.traces)]
        tracemalloc.start()
        try:
            sequence_attack(truth, obfuscated, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def _log_trans(prior, bucket):
    """Reference: the dense V x V log transition matrix of one bucket."""
    return np.log(prior.transition_matrix(int(bucket)))


def _dense_viterbi_segment(prior, buckets, i, j, left, right):
    """Reference: Viterbi with a dense column argmax (lowest index on ties)."""
    v = prior.alphabet.size
    length = j - i
    score = (np.log(prior.stationary_distribution(int(buckets[i]))) if left is None
             else _log_trans(prior, buckets[i])[left])
    back = np.empty((length, v), dtype=np.int64)
    for t in range(1, length):
        cand = score[:, None] + _log_trans(prior, buckets[i + t])
        back[t] = np.argmax(cand, axis=0)
        score = cand[back[t], np.arange(v)]
    final = score if right is None else score + _log_trans(prior, buckets[j])[:, right]
    states = np.empty(length, dtype=np.int64)
    states[-1] = int(np.argmax(final))
    for t in range(length - 1, 0, -1):
        states[t - 1] = back[t, states[t]]
    return states


def _sparse_viterbi_segment(prior, buckets, i, j, left, right):
    """Reference: one segment at a time through the sparse bucket views,
    each step on a single score row."""
    v = prior.alphabet.size
    length = j - i

    def view(bucket):
        return privacy._BucketView(prior, int(bucket))

    score = view(buckets[i]).rows(np.array([-1 if left is None else left]))
    back = np.empty((length, v), dtype=np.int64)
    for t in range(1, length):
        score, back[t] = view(buckets[i + t]).step(score)
    final = score[0]
    if right is not None:
        final = final + view(buckets[j]).columns(np.array([right]))[0]
    states = np.empty(length, dtype=np.int64)
    states[-1] = int(np.argmax(final))
    for t in range(length - 1, 0, -1):
        states[t - 1] = back[t, states[t]]
    return states


def _free_runs(obf, prior):
    """Reference: each maximal run [i, j) of points that are hidden or that
    the prior does not know (a dict lookup), with its pinned anchors, None
    at an end of the trace."""
    n = len(obf.cells)
    index = {int(c): i for i, c in enumerate(prior.alphabet)}
    known = [-1 if hidden else index.get(int(c), -1)
             for c, hidden in zip(obf.cells, obf.hidden_mask)]
    i = 0
    while i < n:
        if known[i] >= 0:
            i += 1
            continue
        j = i
        while j < n and known[j] < 0:
            j += 1
        yield i, j, known[i - 1] if i > 0 else None, known[j] if j < n else None
        i = j


def _segment_reconstruct(obf, prior, viterbi_segment):
    """Reference: decode each run of free points on its own."""
    buckets = _bucket_of(obf.timestamps, prior.time_buckets)
    out = obf.cells.copy()
    for i, j, left, right in _free_runs(obf, prior):
        states = viterbi_segment(prior, buckets, i, j, left=left, right=right)
        out[i:j] = prior.alphabet[states]
    return out


def _problems(obfuscated, prior):
    """Reference: the distinct Viterbi problems of the free runs, each the
    anchors, the bucket of every point and of a pinned right anchor."""
    keys = set()
    for obf in obfuscated:
        buckets = _bucket_of(obf.timestamps, prior.time_buckets).tolist()
        for i, j, left, right in _free_runs(obf, prior):
            keys.add((left, right, None if right is None else buckets[j],
                      tuple(buckets[i:j])))
    return keys


def _decode_counting_runs(obfuscated, prior):
    """``_reconstruct`` of the obfuscated traces, and the runs it decoded."""
    decoded = []
    decode_chunk = privacy._decode_chunk

    def counting(views, buckets, lo, *args):
        decoded.append(lo.size)
        return decode_chunk(views, buckets, lo, *args)

    offsets = np.cumsum([0] + [o.cells.size for o in obfuscated])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(privacy, "_decode_chunk", counting)
        got = privacy._reconstruct(np.concatenate([o.cells for o in obfuscated]),
                                   np.concatenate([o.timestamps for o in obfuscated]),
                                   offsets, prior)
    return got, sum(decoded)


def _dense_reconstruct(obf, prior):
    return _segment_reconstruct(obf, prior, _dense_viterbi_segment)


def _obfuscated(cells, hours):
    return ObfuscatedTrace("u", cells, np.asarray(hours, dtype=np.int64) * 3600)


@st.composite
def _priors(draw):
    """Small random Markov priors with small integer counts, so that ties
    are common.  Each bucket may lack order-1 rows, order-0 rows or both
    (then it backs off to the global counts); sparse rows leave columns
    that only the smoothing floor reaches."""
    v = draw(st.integers(1, 6))
    time_buckets = draw(st.integers(1, 3))
    order = draw(st.integers(0, 1))
    alpha = draw(st.sampled_from([0.01, 0.5, 1.0, 3.0]))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tables = [[], []]
    for b in range(time_buckets):
        for k in range(order + 1):
            if draw(st.booleans()):
                shape = (v,) * (k + 1)
                n = rng.integers(1, 3, size=shape) * (rng.uniform(size=shape) < density)
                n[tuple(rng.integers(0, v, size=k + 1))] += 1   # at least one row
                keys = np.argwhere(n > 0)
                tables[k].append(np.column_stack([np.full(len(keys), b), keys,
                                                  n[n > 0]]))
    counts = [np.concatenate(t) if t else np.empty((0, k + 3), dtype=np.int64)
              for k, t in enumerate(tables[:order + 1])]
    return MarkovGenerator(SPEC, 600, order, time_buckets, alpha,
                           np.arange(10, 10 + v), counts,
                           rng.integers(0, 3, size=v))


class TestSparseViterbiExactness:
    @settings(max_examples=300, deadline=None)
    @given(prior=_priors(), data=st.data())
    def test_step_matches_dense_columns(self, prior, data):
        v = prior.alphabet.size
        bucket = data.draw(st.integers(0, prior.time_buckets - 1))
        dense = np.log(prior.transition_matrix(bucket))
        view = privacy._BucketView(prior, bucket)
        # every state, then some repeated and in any order; -1 (no context)
        # is the start row
        drawn = data.draw(st.lists(st.integers(0, v - 1), max_size=2 * v))
        picks = np.concatenate([np.arange(v), np.array(drawn, dtype=np.int64)])
        assert np.array_equal(view.rows(picks), dense[picks])
        assert np.array_equal(view.rows(np.array([-1, picks[0]])),
                              [np.log(prior.stationary_distribution(bucket)),
                               dense[picks[0]]])
        assert np.array_equal(view.columns(picks), dense[:, picks].T)
        # K rows of scores a few ulps apart: where adding a log probability
        # carries a sum past a power of two, unequal scores can round to
        # equal sums, and a lower unseen context a few ulps below the best
        # one can tie with it
        base = data.draw(st.sampled_from([-0.7, -1.9, -7.9, -15.6, -31.3]))
        ulps = data.draw(st.lists(st.lists(st.sampled_from([0, 1, 2, 3, 8, 2 ** 40]),
                                           min_size=v, max_size=v),
                                  min_size=2, max_size=6))
        score = base + np.asarray(ulps) * np.spacing(base)
        best, back = view.step(score)
        for s, b, k in zip(score, best, back):
            cand = s[:, None] + dense
            assert np.array_equal(b, cand.max(axis=0))
            assert np.array_equal(k, np.argmax(cand, axis=0))

    @pytest.mark.parametrize("alpha", [0.5, 1e17])
    def test_best_floor_row_with_observed_columns(self, alpha):
        # context 1 (score 0) has the best floor and observes columns 0 and
        # 2, where the floor merged into every column meets its observed
        # entry; at alpha 1e17, 1 + alpha rounds to alpha and the two tie
        counts = [np.array([[0, 0, 1], [0, 3, 2]]),
                  np.array([[0, 1, 0, 3], [0, 1, 2, 1], [0, 2, 2, 5]])]
        prior = MarkovGenerator(SPEC, 600, 1, 1, alpha, np.arange(10, 14), counts,
                                np.array([1, 1, 2, 1]))
        dense = np.log(prior.transition_matrix(0))
        view = privacy._BucketView(prior, 0)
        score = np.array([[-9.0, 0.0, -9.0, -9.0],
                          [-0.5, 0.0, -0.5, -0.5],
                          [0.0, 0.0, 0.0, 0.0]])
        floor = score[:, view.seen] + view.log_floor
        assert np.all(view.seen[np.argmax(floor, axis=1)] == 1)
        best, back = view.step(score)
        for s, b, k in zip(score, best, back):
            cand = s[:, None] + dense
            assert np.array_equal(b, cand.max(axis=0))
            assert np.array_equal(k, np.argmax(cand, axis=0))

    @settings(max_examples=300, deadline=None)
    @given(prior=_priors(), data=st.data())
    def test_paths_equal_dense_decoder(self, prior, data):
        length = data.draw(st.integers(1, 8))
        hours = data.draw(st.lists(st.integers(0, 23), min_size=length + 2,
                                   max_size=length + 2))
        # one hidden run between optional pinned anchors
        anchor = st.just([]) | st.sampled_from(prior.alphabet.tolist()).map(lambda c: [c])
        left, right = data.draw(anchor), data.draw(anchor)
        cells = left + [HIDDEN] * length + right
        obf = _obfuscated(cells, hours[1 - len(left):length + 1 + len(right)])
        assert np.array_equal(reconstruct_trace(obf, prior), _dense_reconstruct(obf, prior))

        # whole traces, with observed cells the prior does not know (9)
        cells = data.draw(st.lists(st.sampled_from([HIDDEN, 9, *prior.alphabet.tolist()]),
                                   min_size=length, max_size=length))
        obf = _obfuscated(cells, hours[:length])
        assert np.array_equal(reconstruct_trace(obf, prior), _dense_reconstruct(obf, prior))

    @settings(max_examples=300, deadline=None)
    @given(prior=_priors(), data=st.data())
    def test_corpus_decode_equals_per_segment_decoder(self, prior, data):
        v = prior.alphabet.size
        # truth cells, with cells the prior does not know (9), and which of
        # them are hidden; some traces are hidden throughout
        point = st.tuples(st.sampled_from([9, *prior.alphabet.tolist()]),
                          st.sampled_from([True, True, False]))
        traces = data.draw(st.lists(st.lists(point, min_size=1, max_size=12),
                                    min_size=1, max_size=6))
        if data.draw(st.booleans()):
            traces.append([(c, True) for c, _ in traces[0]])
        truth, obfuscated = [], []
        for i, points in enumerate(traces):
            cells, hidden = (np.array(x) for x in zip(*points))
            # steps of up to 5 h, so a run can change time bucket inside
            step = data.draw(st.sampled_from([600, 3600, 5 * 3600]))
            ts = data.draw(st.integers(0, 86_400)) + step * np.arange(cells.size)
            truth.append(GridTrace(f"u{i}", cells, ts))
            obfuscated.append(ObfuscatedTrace(f"u{i}", np.where(hidden, HIDDEN, cells), ts))
        want = [_segment_reconstruct(o, prior, _sparse_viterbi_segment) for o in obfuscated]
        # a 1-byte budget gives each run a chunk of its own; at 100 or 300
        # bytes a state a chunk holds a few short runs, and a run of over 9
        # points overruns the smaller one
        cap = data.draw(st.sampled_from([1, 100 * v, 300 * v, privacy._CHUNK_BYTES]))
        corpus = _corpus(truth)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(privacy, "_CHUNK_BYTES", cap)
            got = privacy._reconstruct(np.concatenate([o.cells for o in obfuscated]),
                                       corpus.timestamps, corpus.offsets,
                                       prior)
            assert np.array_equal(got, np.concatenate(want))
            mask = np.concatenate([o.hidden_mask for o in obfuscated])
            if mask.any():
                hits = sum(int(np.sum(w[o.hidden_mask] == t.cells[o.hidden_mask]))
                           for w, o, t in zip(want, obfuscated, truth))
                assert sequence_attack(corpus, obfuscated, prior) == hits / int(mask.sum())


    @settings(max_examples=200, deadline=None)
    @given(prior=_priors(), data=st.data())
    def test_repeated_runs_are_decoded_once(self, prior, data):
        # traces that repeat one pattern of hidden and pinned points pose
        # the same problems, each decoded once and its path copied
        point = st.tuples(st.sampled_from([9, *prior.alphabet.tolist()]),
                          st.sampled_from([True, True, False]))
        patterns = data.draw(st.lists(st.lists(point, min_size=1, max_size=10),
                                      min_size=1, max_size=3))
        obfuscated = []
        for points in data.draw(st.lists(st.sampled_from(patterns), min_size=2,
                                         max_size=8)):
            cells, hidden = (np.array(x) for x in zip(*points))
            ts = data.draw(st.sampled_from([0, 3600, 43_200])) + 3600 * np.arange(cells.size)
            obfuscated.append(ObfuscatedTrace("u", np.where(hidden, HIDDEN, cells), ts))
        want = [_segment_reconstruct(o, prior, _sparse_viterbi_segment) for o in obfuscated]
        got, decoded = _decode_counting_runs(obfuscated, prior)
        assert np.array_equal(got, np.concatenate(want))
        assert decoded == len(_problems(obfuscated, prior))

    def test_runs_with_other_buckets_are_not_merged(self):
        # in bucket h every context moves to state h % 4, so a run's path
        # follows the buckets of its points
        v, buckets = 4, 24
        order1 = [[b, c, b % v, 5] for b in range(buckets) for c in range(v)]
        order0 = [[b, b % v, 5] for b in range(buckets)]
        prior = MarkovGenerator(SPEC, 600, 1, buckets, 0.1, np.arange(10, 10 + v),
                                [np.array(order0), np.array(order1)], np.ones(v, dtype=int))
        # one anchor cell, three hidden points from 01:00, the same anchor
        # after them: each trace shares the anchors, the length and the first
        # hidden timestamp, but not the buckets of the rest or of the anchor
        cells = [10, HIDDEN, HIDDEN, HIDDEN, 10]
        hours = [[0, 1, 2, 3, 4], [0, 1, 1.05, 1.1, 4], [0, 1, 2, 3, 5], [0, 1, 2, 3, 4]]
        obfuscated = [ObfuscatedTrace(f"u{i}", cells, (3600 * np.array(h)).astype(np.int64))
                      for i, h in enumerate(hours)]
        want = [_segment_reconstruct(o, prior, _sparse_viterbi_segment) for o in obfuscated]
        assert want[0][1:4].tolist() == [11, 12, 13] and want[1][1:4].tolist() == [11] * 3
        got, decoded = _decode_counting_runs(obfuscated, prior)
        assert np.array_equal(got, np.concatenate(want))
        assert decoded == 3   # the first and the last trace pose one problem


def visit_runs(trace):
    """(cell, start row, length) of each maximal run of one cell in ``trace``."""
    return corpus_runs(Corpus(None, [trace]))[1:]


def visit_frequency(trace):
    """Reference: normalized per-cell visit (run) frequencies as a dict."""
    run_cells, _, _ = visit_runs(trace)
    freq = {}
    for c in run_cells:
        freq[int(c)] = freq.get(int(c), 0.0) + 1.0
    return {c: k / run_cells.size for c, k in freq.items()}


def _tv_sparse(p, q):
    """Reference: total variation between two frequency dicts."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(c, 0.0) - q.get(c, 0.0)) for c in keys)


def _exact_tv(p_trace, q_trace):
    """Reference: the TV distance between run frequencies as a fraction."""
    p, q = (Counter(visit_runs(t)[0].tolist()) for t in (p_trace, q_trace))
    a, b = sum(p.values()), sum(q.values())
    return sum(abs(Fraction(p[c], a) - Fraction(q[c], b)) for c in set(p) | set(q)) / 2


def _loop_auc(member, nonmember):
    """Reference: half-win count, one member score at a time."""
    wins = 0.0
    for s in member:
        wins += np.sum(s < nonmember) + 0.5 * np.sum(s == nonmember)
    return float(wins / (member.size * nonmember.size))


def _loop_threshold(member, nonmember):
    """Reference: the first candidate whose accuracy beats all before it."""
    pooled = np.unique(np.concatenate([member, nonmember]))
    candidates = np.concatenate([[pooled[0] - 1e-9],
                                 (pooled[:-1] + pooled[1:]) / 2,
                                 [pooled[-1] + 1e-9]])
    best_t, best_acc = candidates[0], -1.0
    for t in candidates:
        acc = (np.sum(member <= t) + np.sum(nonmember > t)) / (member.size + nonmember.size)
        if acc > best_acc:
            best_acc, best_t = acc, t
    return float(best_t)


# few distinct values, so most scores tie; adjacent floats, whose midpoint
# rounds onto one of them
_tied_scores = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3, np.nextafter(0.3, 1)]),
                        min_size=1, max_size=30).map(np.array)


class TestMembership:
    def test_visit_frequency(self):
        # the scores count the runs corpus_runs finds: 4 | 4, 9, 4, since a
        # run never crosses into the next trace
        corpus = _corpus([_trace([4, 4], user="a"), _trace([4, 9, 9, 4], user="b")])
        trace_of_run, run_cells, _, _ = corpus_runs(corpus)
        assert Counter(zip(trace_of_run.tolist(), run_cells.tolist())) == {
            (0, 4): 1, (1, 4): 2, (1, 9): 1}
        assert visit_frequency(_trace([4, 9, 9, 4])) == {4: 2 / 3, 9: 1 / 3}

    @settings(max_examples=200, deadline=None)
    @given(syn=st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=30),
                        min_size=1, max_size=6),
           targets=st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=30),
                            min_size=1, max_size=5))
    def test_scores_match_dict_tv(self, syn, targets):
        syn = _corpus([_trace(c, user=f"s{i}") for i, c in enumerate(syn)])
        targets = _corpus([_trace(c, user=f"t{i}") for i, c in enumerate(targets)])
        got = membership_scores(syn, targets)
        want = [min(_tv_sparse(visit_frequency(t), visit_frequency(s)) for s in syn.traces)
                for t in targets.traces]
        assert np.all(np.abs(got - want) <= 1e-12)
        # and each score is the exact rational distance, correctly rounded
        exact = [min(_exact_tv(t, s) for s in syn.traces) for t in targets.traces]
        assert got.tolist() == [float(x) for x in exact]

    def test_disjoint_support_scores_exactly_one(self):
        # ten runs of 1/10 each: a float sum of the frequencies is not 1
        syn = _corpus([_trace([50, 51])])
        assert membership_scores(syn, _corpus([_trace(np.arange(10))])).tolist() == [1.0]

    @settings(max_examples=300, deadline=None)
    @given(member=_tied_scores, nonmember=_tied_scores)
    def test_auc_and_threshold_match_loops(self, member, nonmember):
        assert _auc_lower_is_member(member, nonmember) == _loop_auc(member, nonmember)
        assert _best_threshold(member, nonmember) == _loop_threshold(member, nonmember)

    def test_auc_oracle(self):
        member = np.array([0.1, 0.2])
        nonmember = np.array([0.3, 0.4])
        assert _auc_lower_is_member(member, nonmember) == 1.0
        assert _auc_lower_is_member(nonmember, member) == 0.0
        assert _auc_lower_is_member(member, member) == 0.5

    def test_member_replay_is_detected(self):
        corpus = simulate_ground_truth(SPEC, 12, 200, 10, seed=11,
                                       population_seed=50)
        other = simulate_ground_truth(SPEC, 12, 200, 10, seed=12,
                                      population_seed=51)
        result = membership_attack(corpus, _targets(corpus, other), len(corpus),
                                   np.random.default_rng(13))
        assert result.auc > 0.9
        assert result.accuracy > 0.7
        # members sit on their own synthetic twins
        assert np.all(result.member_scores < 1e-12)

    def test_one_member_and_one_nonmember_are_scored_on_calibration(self):
        # each side's only score goes to the calibration split, which then
        # stands in for the empty evaluation split
        syn = _uniform_corpus(20, 5, 50, seed=23)
        targets = _corpus([syn.traces[0], _trace([99] * 50)])
        result = membership_attack(syn, targets, 1, np.random.default_rng(0))
        assert (result.accuracy, result.auc, result.threshold) == (1.0, 1.0, 0.5)

    def test_uninformative_synthetic_gives_chance_auc(self):
        syn = _uniform_corpus(200, 30, 200, seed=14)
        members = _uniform_corpus(200, 30, 200, seed=15)
        nonmembers = _uniform_corpus(200, 30, 200, seed=16)
        result = membership_attack(syn, _targets(members, nonmembers), len(members),
                                   np.random.default_rng(17))
        assert 0.3 < result.auc < 0.7

    def test_scores_shape(self):
        syn = _uniform_corpus(20, 5, 50, seed=18)
        scores = membership_scores(syn, _corpus(syn.traces[:3]))
        assert scores.shape == (3,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_empty_sets_rejected(self):
        syn = _uniform_corpus(20, 5, 50, seed=19)
        with pytest.raises(DomainError):
            membership_attack(syn, syn, 0, np.random.default_rng(0))
        with pytest.raises(DomainError):
            membership_attack(syn, syn, len(syn), np.random.default_rng(0))
