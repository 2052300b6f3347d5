import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mobsynth import privacy
from mobsynth.dataio import Corpus, GridTrace, simulate_ground_truth
from mobsynth.errors import DomainError
from mobsynth.generators import MarkovGenerator, _bucket_of
from mobsynth.geogrid import GridSpec
from mobsynth.privacy import (HIDDEN, ObfuscatedTrace, hide_locations,
                              membership_attack, membership_scores,
                              reconstruct_trace, run_sequence_attack,
                              sequence_attack, visit_frequency,
                              _auc_lower_is_member)

SPEC = GridSpec(45.8, 47.8, 5.9, 10.5, level=8)


def _trace(cells, user="u"):
    cells = np.asarray(cells, dtype=np.int64)
    return GridTrace(user, cells, np.arange(cells.size, dtype=np.int64) * 600)


def _corpus(traces):
    return Corpus(spec=SPEC, traces=traces, sampling_period=600)


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

    def test_mask_consistency_enforced(self):
        with pytest.raises(DomainError):
            ObfuscatedTrace("u", np.array([1, HIDDEN]), np.array([0, 600]),
                            np.array([True, True]))


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
        with pytest.raises(DomainError):
            sequence_attack(corpus, [], prior)

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
        truth = _uniform_corpus(3000, 4, 200, seed=21)
        rng = np.random.default_rng(22)
        obfuscated = [hide_locations(t, 0.5, rng) for t in truth.traces]
        tracemalloc.start()
        try:
            sequence_attack(truth, obfuscated, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class _DenseViterbiPrior:
    """Reference: one dense V x V log transition matrix per bucket."""

    def __init__(self, prior):
        self.prior = prior
        self.alphabet = prior.alphabet
        self.index = {int(c): i for i, c in enumerate(prior.alphabet)}

    def log_trans(self, bucket):
        return np.log(self.prior.transition_matrix(bucket))

    def log_init(self, bucket):
        return np.log(self.prior.stationary_distribution(bucket))


def _dense_viterbi_segment(vp, buckets, i, j, left, right):
    """Reference: Viterbi with a dense column argmax (lowest index on ties)."""
    v = vp.alphabet.size
    length = j - i
    score = vp.log_init(int(buckets[i])) if left is None else vp.log_trans(int(buckets[i]))[left]
    back = np.empty((length, v), dtype=np.int64)
    for t in range(1, length):
        cand = score[:, None] + vp.log_trans(int(buckets[i + t]))
        back[t] = np.argmax(cand, axis=0)
        score = cand[back[t], np.arange(v)]
    final = score if right is None else score + vp.log_trans(int(buckets[j]))[:, right]
    states = np.empty(length, dtype=np.int64)
    states[-1] = int(np.argmax(final))
    for t in range(length - 1, 0, -1):
        states[t - 1] = back[t, states[t]]
    return states


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
        view = privacy._ViterbiPrior(prior).view(bucket)
        for i in range(v):
            assert np.array_equal(view.row(i), dense[i])
            assert np.array_equal(view.column(i), dense[:, i])
        # scores a few ulps apart: where adding a log probability carries a
        # sum past a power of two, unequal scores can round to equal sums
        base = data.draw(st.sampled_from([-0.7, -1.9, -7.9, -15.6, -31.3]))
        ulps = data.draw(st.lists(st.sampled_from([0, 1, 2, 3, 8, 2 ** 40]),
                                  min_size=v, max_size=v))
        score = base + np.asarray(ulps) * np.spacing(base)
        back = np.empty(v, dtype=np.int64)
        best = view.step(score, back)
        cand = score[:, None] + dense
        assert np.array_equal(best, cand.max(axis=0))
        assert np.array_equal(back, np.argmax(cand, axis=0))

    @settings(max_examples=300, deadline=None)
    @given(prior=_priors(), data=st.data())
    def test_paths_equal_dense_decoder(self, prior, data):
        v = prior.alphabet.size
        length = data.draw(st.integers(1, 8))
        hours = data.draw(st.lists(st.integers(0, 23), min_size=length + 1,
                                   max_size=length + 1))
        buckets = _bucket_of(np.asarray(hours) * 3600, prior.time_buckets)
        anchor = st.none() | st.integers(0, v - 1)
        left, right = data.draw(anchor), data.draw(anchor)
        got = privacy._viterbi_segment(privacy._ViterbiPrior(prior), buckets,
                                       0, length, left, right)
        want = _dense_viterbi_segment(_DenseViterbiPrior(prior), buckets,
                                      0, length, left, right)
        assert np.array_equal(got, want)

        # whole traces, with observed cells the prior does not know (9)
        cells = np.asarray(data.draw(st.lists(
            st.sampled_from([HIDDEN, 9, *prior.alphabet.tolist()]),
            min_size=length, max_size=length)))
        obf = ObfuscatedTrace("u", cells, np.asarray(hours[:length]) * 3600,
                              cells == HIDDEN)
        got = reconstruct_trace(obf, prior)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(privacy, "_ViterbiPrior", _DenseViterbiPrior)
            mp.setattr(privacy, "_viterbi_segment", _dense_viterbi_segment)
            want = reconstruct_trace(obf, prior)
        assert np.array_equal(got, want)


class TestMembership:
    def test_visit_frequency(self):
        freq = visit_frequency(_trace([4, 4, 9, 4]))
        # runs: 4, 9, 4
        assert freq == {4: pytest.approx(2 / 3), 9: pytest.approx(1 / 3)}

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
        result = membership_attack(corpus, corpus.traces, other.traces,
                                   np.random.default_rng(13))
        assert result.auc > 0.9
        assert result.accuracy > 0.7
        # members sit on their own synthetic twins
        assert np.all(result.member_scores < 1e-12)

    def test_uninformative_synthetic_gives_chance_auc(self):
        syn = _uniform_corpus(200, 30, 200, seed=14)
        members = _uniform_corpus(200, 30, 200, seed=15).traces
        nonmembers = _uniform_corpus(200, 30, 200, seed=16).traces
        result = membership_attack(syn, members, nonmembers,
                                   np.random.default_rng(17))
        assert 0.3 < result.auc < 0.7

    def test_scores_shape(self):
        syn = _uniform_corpus(20, 5, 50, seed=18)
        scores = membership_scores(syn, syn.traces[:3])
        assert scores.shape == (3,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_empty_sets_rejected(self):
        syn = _uniform_corpus(20, 5, 50, seed=19)
        with pytest.raises(DomainError):
            membership_attack(syn, [], syn.traces, np.random.default_rng(0))
