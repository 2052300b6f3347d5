import math

import numpy as np
import pytest

from mobsynth.dataio import Corpus, GridTrace, simulate_ground_truth
from mobsynth.errors import (DomainError, IncompatibilityError,
                             InsufficientDataError)
from mobsynth.geogrid import GridSpec
from mobsynth.metrics import (lagged_mi_bits, mi_decay, mmd_test, topn_report,
                              visit_runs)

SPEC = GridSpec(45.8, 47.8, 5.9, 10.5, level=8)


def _trace(cells, user="u", period=600):
    cells = np.asarray(cells, dtype=np.int64)
    return GridTrace(user, cells, np.arange(cells.size, dtype=np.int64) * period)


def _corpus(traces):
    return Corpus(spec=SPEC, traces=traces, sampling_period=600)


class TestVisitRuns:
    def test_runs(self):
        cells, starts, lengths = visit_runs(_trace([7, 7, 7, 2, 2, 7]))
        assert cells.tolist() == [7, 2, 7]
        assert starts.tolist() == [0, 3, 5]
        assert lengths.tolist() == [3, 2, 1]

    def test_single_run(self):
        cells, starts, lengths = visit_runs(_trace([4, 4]))
        assert cells.tolist() == [4]
        assert lengths.tolist() == [2]


class TestTopNReport:
    def test_identical_corpora_have_zero_distance(self):
        corpus = simulate_ground_truth(SPEC, 5, 200, 12, seed=1)
        rep = topn_report(corpus, corpus, n=10)
        assert rep.tv_visit == 0.0
        assert rep.tv_visit_time == 0.0
        assert rep.tv_dwell == 0.0

    def test_known_visit_probabilities(self):
        real = _corpus([_trace([1, 1, 2, 1, 3])])   # runs: 1, 2, 1, 3
        syn = _corpus([_trace([2, 2, 2, 3, 2])])    # runs: 2, 3, 2
        rep = topn_report(real, syn, n=3)
        assert rep.cells.tolist() == [1, 2, 3]      # ties break on cell id
        assert rep.real_probs.tolist() == pytest.approx([0.5, 0.25, 0.25])
        assert rep.syn_probs.tolist() == pytest.approx([0.0, 2 / 3, 1 / 3])
        expected_tv = 0.5 * (0.5 + abs(0.25 - 2 / 3) + abs(0.25 - 1 / 3))
        assert rep.tv_visit == pytest.approx(expected_tv)

    def test_n_clamped_to_distinct_cells(self):
        real = _corpus([_trace([1, 2, 1])])
        rep = topn_report(real, real, n=50)
        assert rep.n == 2

    def test_spec_mismatch(self):
        other = Corpus(spec=GridSpec(0, 1, 0, 1, level=4),
                       traces=[_trace([0, 1])], sampling_period=600)
        with pytest.raises(IncompatibilityError):
            topn_report(_corpus([_trace([0, 1])]), other)

    def test_dwell_histogram_totals(self):
        real = _corpus([_trace([5, 5, 5, 9])])
        rep = topn_report(real, real, n=2)
        assert rep.real_dwell.sum() == 2.0          # one run per ranked cell
        assert rep.real_visit_time.sum() == 2.0


class TestMmd:
    def test_identical_corpora(self):
        corpus = simulate_ground_truth(SPEC, 10, 100, 12, seed=2)
        res = mmd_test(corpus, corpus, n_permutations=100)
        assert res.mmd2_biased == pytest.approx(0.0, abs=1e-12)
        assert res.mmd2_unbiased <= 0.0 + 1e-12
        assert res.p_value > 0.5

    def test_detects_different_processes(self):
        a = simulate_ground_truth(SPEC, 15, 150, 12, seed=3, population_seed=1)
        b = simulate_ground_truth(SPEC, 15, 150, 12, seed=4, population_seed=2)
        res = mmd_test(a, b, n_permutations=200)
        assert res.p_value < 0.05

    def test_null_is_not_rejected_typically(self):
        a = simulate_ground_truth(SPEC, 15, 150, 12, seed=5, population_seed=3)
        b = simulate_ground_truth(SPEC, 15, 150, 12, seed=6, population_seed=3)
        res = mmd_test(a, b, n_permutations=200)
        assert res.p_value > 0.05

    def test_validations(self):
        small = _corpus([_trace([1, 2])] * 3)
        big = _corpus([_trace([1, 2])] * 6)
        with pytest.raises(InsufficientDataError):
            mmd_test(small, big)
        other = Corpus(spec=SPEC, traces=[_trace([1, 2], period=300)],
                       sampling_period=300)
        with pytest.raises(IncompatibilityError):
            mmd_test(big, other)

    def test_no_permutations_gives_nan_p(self):
        corpus = simulate_ground_truth(SPEC, 6, 50, 12, seed=10)
        res = mmd_test(corpus, corpus, n_permutations=0)
        assert math.isnan(res.p_value)
        assert res.n_permutations == 0


def _binary_markov_trace(n, stay, seed):
    rng = np.random.default_rng(seed)
    flips = rng.uniform(size=n) >= stay
    return np.bitwise_xor.accumulate(flips.astype(np.int64)) % 2


class TestMiDecay:
    def test_binary_chain_matches_closed_form(self):
        # symmetric 2-state chain, stay 0.9: I(1) = 1 - H_b(0.9) bits
        cells = _binary_markov_trace(100_000, 0.9, seed=11)
        corpus = _corpus([_trace(cells)])
        curve = mi_decay(corpus, tau_max=10)
        h_b = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert abs(curve.mi_bits[0] - (1.0 - h_b)) < 0.02
        assert curve.exponential_r2 > curve.powerlaw_r2
        # I(tau) ~ lambda^(2 tau) / (2 ln 2) for lambda = 2*stay - 1, so the
        # log-linear slope approaches 2 log lambda (steeper near tau=1 where
        # the small-correlation expansion is loose)
        assert curve.exponential_rate == pytest.approx(2 * math.log(0.8),
                                                       abs=0.08)

    def test_iid_sequences_have_no_mi(self):
        rng = np.random.default_rng(12)
        traces = [_trace(rng.integers(0, 6, size=20_000), user=f"u{i}")
                  for i in range(3)]
        curve = mi_decay(_corpus(traces), tau_max=8)
        assert np.all(curve.mi_bits < 0.01)

    def test_lag_clamped_to_trace_length(self):
        corpus = _corpus([_trace([1, 2, 1, 2, 1])])
        curve = mi_decay(corpus, tau_max=50)
        assert curve.lags.max() == 4

    def test_rare_cells_merge_into_other(self):
        cells = np.array([3] * 30 + [9] * 30 + list(range(100, 105)))
        curve = mi_decay(_corpus([_trace(cells)]), tau_max=2, min_count=10)
        assert curve.mi_bits.shape == (2,)

    def test_tau_validation(self):
        with pytest.raises(DomainError):
            mi_decay(_corpus([_trace([1, 2])]), tau_max=0)

    def test_lagged_mi_nonnegative(self):
        sym = [np.array([0, 1, 0, 1, 0, 1])]
        assert lagged_mi_bits(sym, 2, 1) >= 0.0
        assert lagged_mi_bits(sym, 2, 10) == 0.0
