import numpy as np
import pytest

from mobsynth.dataio import Corpus, GridTrace, simulate_ground_truth
from mobsynth.errors import DomainError
from mobsynth.generators import MarkovGenerator
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
