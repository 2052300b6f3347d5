import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import linregress

from mobsynth import metrics
from mobsynth.dataio import Corpus, GridTrace, hour_of_day, simulate_ground_truth
from mobsynth.errors import (DomainError, IncompatibilityError,
                             InsufficientDataError)
from mobsynth.geogrid import GridSpec
from mobsynth.metrics import (corpus_runs, lagged_mi_bits, mi_decay, mmd_test,
                              topn_report)

SPEC = GridSpec(45.8, 47.8, 5.9, 10.5, level=8)


def _trace(cells, user="u", period=600):
    cells = np.asarray(cells, dtype=np.int64)
    return GridTrace(user, cells, np.arange(cells.size, dtype=np.int64) * period)


def visit_runs(trace):
    """(cell, start row, length) of each maximal run of one cell in ``trace``."""
    return corpus_runs(Corpus(None, [trace]))[1:]


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

    @pytest.mark.parametrize("side", ["real", "synthetic"])
    def test_empty_corpus(self, side):
        full, empty = _corpus([_trace([1, 2, 1])]), _corpus([])
        real, syn = (empty, full) if side == "real" else (full, empty)
        with pytest.raises(InsufficientDataError, match=f"the {side} corpus"):
            topn_report(real, syn)

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
        res = mmd_test(corpus, corpus, n_permutations=100, rng=np.random.default_rng(0))
        assert res.mmd2_biased == pytest.approx(0.0, abs=1e-12)
        assert res.mmd2_unbiased <= 0.0 + 1e-12
        assert res.p_value > 0.5

    def test_detects_different_processes(self):
        a = simulate_ground_truth(SPEC, 15, 150, 12, seed=3, population_seed=1)
        b = simulate_ground_truth(SPEC, 15, 150, 12, seed=4, population_seed=2)
        res = mmd_test(a, b, n_permutations=200, rng=np.random.default_rng(0))
        assert res.p_value < 0.05

    def test_null_is_not_rejected_typically(self):
        a = simulate_ground_truth(SPEC, 15, 150, 12, seed=5, population_seed=3)
        b = simulate_ground_truth(SPEC, 15, 150, 12, seed=6, population_seed=3)
        res = mmd_test(a, b, n_permutations=200, rng=np.random.default_rng(0))
        assert res.p_value > 0.05

    def test_validations(self):
        small = _corpus([_trace([1, 2])] * 3)
        big = _corpus([_trace([1, 2])] * 6)
        with pytest.raises(InsufficientDataError):
            mmd_test(small, big, 500, np.random.default_rng(0))
        other = Corpus(spec=SPEC, traces=[_trace([1, 2], period=300)],
                       sampling_period=300)
        with pytest.raises(IncompatibilityError):
            mmd_test(big, other, 500, np.random.default_rng(0))

    def test_no_permutations_gives_nan_p(self):
        corpus = simulate_ground_truth(SPEC, 6, 50, 12, seed=10)
        res = mmd_test(corpus, corpus, n_permutations=0, rng=np.random.default_rng(0))
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
        with pytest.raises(InsufficientDataError, match="no traces"):
            mi_decay(_corpus([]), tau_max=2)

    def test_lagged_mi_nonnegative(self):
        sym, trace_id = np.array([0, 1, 0, 1, 0, 1]), np.zeros(6, dtype=np.int64)
        assert lagged_mi_bits(sym, trace_id, 2, 1) >= 0.0
        assert lagged_mi_bits(sym, trace_id, 2, 10) == 0.0


# ---------------------------------------------------------------------------
# the array code against the per-trace loops it replaced
# ---------------------------------------------------------------------------

def _loop_topn(real, syn, n):
    """Reference: runs counted per trace in Python; returns the ranked cells
    and both corpora's (probs, visit_time, dwell)."""
    counts = {}
    for trace in real.traces:
        for c in visit_runs(trace)[0]:
            counts[int(c)] = counts.get(int(c), 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:min(n, len(counts))]
    cells = np.array([c for c, _ in ranked], dtype=np.int64)
    edges = np.geomspace(real.sampling_period, metrics.MAX_DWELL_SECONDS,
                         metrics.DWELL_BINS + 1)

    def stats(corpus):
        index = {int(c): i for i, c in enumerate(cells)}
        visits = np.zeros(cells.size)
        visit_time = np.zeros((cells.size, 24))
        dwell = np.zeros((cells.size, metrics.DWELL_BINS))
        total_runs = 0
        for trace in corpus.traces:
            run_cells, starts, lengths = visit_runs(trace)
            total_runs += run_cells.size
            hours = hour_of_day(trace.timestamps[starts]).astype(int)
            dwell_sec = lengths.astype(float) * corpus.sampling_period
            bins = np.clip(np.searchsorted(edges, dwell_sec, side="right") - 1,
                           0, metrics.DWELL_BINS - 1)
            for c, h, b in zip(run_cells, hours, bins):
                i = index.get(int(c))
                if i is not None:
                    visits[i] += 1
                    visit_time[i, h] += 1
                    dwell[i, b] += 1
        return visits / max(total_runs, 1), visit_time, dwell

    return cells, stats(real), stats(syn)


@st.composite
def _run_corpora(draw):
    """Two corpora over a few cells, so runs repeat, tie in count and cross
    trace boundaries with the same cell; start times spread over the day."""
    period = draw(st.sampled_from([600, 1800, 3600]))

    def corpus():
        traces = []
        for i in range(draw(st.integers(1, 6))):
            cells = draw(st.lists(st.integers(0, 5), min_size=1, max_size=25))
            start = draw(st.integers(0, 10 ** 6))
            traces.append(GridTrace(f"u{i}", np.asarray(cells, dtype=np.int64),
                                    start + period * np.arange(len(cells))))
        return Corpus(spec=SPEC, traces=traces, sampling_period=period)

    return corpus(), corpus()


class TestTopNExactness:
    @settings(max_examples=200, deadline=None)
    @given(corpora=_run_corpora(), n=st.integers(1, 8))
    def test_equals_loop_reference(self, corpora, n):
        real, syn = corpora
        rep = topn_report(real, syn, n=n)
        cells, (rp, rvt, rdw), (sp, svt, sdw) = _loop_topn(real, syn, n)
        assert np.array_equal(rep.cells, cells)
        for got, want in [(rep.real_probs, rp), (rep.real_visit_time, rvt),
                          (rep.real_dwell, rdw), (rep.syn_probs, sp),
                          (rep.syn_visit_time, svt), (rep.syn_dwell, sdw)]:
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_runs_split_at_trace_boundaries(self):
        traces = [_trace([3, 3]), _trace([3, 4, 4]), _trace([4])]
        trace_of_run, cells, starts, lengths = metrics.corpus_runs(_corpus(traces))
        assert trace_of_run.tolist() == [0, 1, 1, 2]
        assert cells.tolist() == [3, 3, 4, 4]
        assert starts.tolist() == [0, 2, 3, 5]
        assert lengths.tolist() == [2, 1, 2, 1]


def _gather_mmd_test(real, syn, n_permutations, rng):
    """Reference: the kernel built as mmd_test builds it, and each permuted
    statistic from a copy of the permuted kernel."""
    length = min(min(len(t) for t in real.traces), min(len(t) for t in syn.traces))
    pooled = np.vstack([metrics.embed_corpus(real, length),
                        metrics.embed_corpus(syn, length)])
    n, m = len(real.traces), len(syn.traces)
    sq = np.sum(pooled * pooled, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * pooled @ pooled.T, 0.0)
    tri = d2[np.triu_indices_from(d2, k=1)]
    sigma = float(np.sqrt(np.median(tri))) if tri.size else 1.0
    if sigma <= 0:
        sigma = 1.0
    k = np.exp(-d2 / (2.0 * sigma * sigma))
    unbiased, _ = metrics._mmd_stats(k, n, m)
    perms = [rng.permutation(n + m) for _ in range(n_permutations)]
    stats = np.array([metrics._mmd_stats(k[np.ix_(p, p)], n, m)[0] for p in perms])
    p_value = (1.0 + float(np.sum(stats >= unbiased))) / (n_permutations + 1.0)
    return unbiased, stats, p_value


@st.composite
def _mmd_corpora(draw):
    """Unequal sides of 5-9 traces over 4 cells: at length 1 every trace is
    constant, and short traces over few cells repeat one another."""
    length = draw(st.integers(1, 4))

    def corpus(k):
        return _corpus([_trace(draw(st.lists(st.integers(0, 3), min_size=length,
                                             max_size=length)), user=f"u{i}")
                        for i in range(k)])

    return corpus(draw(st.integers(5, 9))), corpus(draw(st.integers(5, 9)))


class TestMmdExactness:
    @settings(max_examples=150, deadline=None)
    @given(corpora=_mmd_corpora(), n_permutations=st.integers(1, 70),
           block=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
    def test_permuted_stats_match_gather(self, corpora, n_permutations, block, seed):
        real, syn = corpora
        # small blocks: n_permutations rarely a multiple of the block width
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "PERMUTATION_BLOCK", block)
            got = mmd_test(real, syn, n_permutations, np.random.default_rng(seed))
        unbiased, stats, p_value = _gather_mmd_test(real, syn, n_permutations,
                                                    np.random.default_rng(seed))
        assert got.mmd2_unbiased == unbiased
        assert got.perm_stats.shape == stats.shape
        assert np.all(np.abs(got.perm_stats - stats)
                      <= 1e-12 * np.maximum(1.0, np.abs(stats)))
        if not np.any(np.abs(stats - unbiased) <= 1e-12):
            assert got.p_value == p_value

    def test_permutations_copy_no_kernel(self):
        # one permuted copy of the kernel would be 32 MB more
        real, syn = _pooled_2000()
        block_bytes = 8 * 8 * metrics.PERMUTATION_BLOCK
        # the null alone, given the kernel, stays inside a few blocks
        k = np.random.default_rng(30).uniform(size=(2000, 2000))
        assert _peak(lambda: metrics._permuted_mmd2(
            k, 1100, 900, 500, np.random.default_rng(31))) < block_bytes
        # and mmd_test with 500 permutations peaks where building the kernel does
        rng = np.random.default_rng(0)
        built = _peak(lambda: mmd_test(real, syn, 0, rng))
        tested = _peak(lambda: mmd_test(real, syn, 500, np.random.default_rng(32)))
        assert built > KERNEL_BYTES_2000
        assert tested < built + block_bytes

    def test_kernel_built_in_place(self):
        # the kernel takes one (n+m)^2 buffer; the median bandwidth reads its
        # upper triangle, half a kernel more
        real, syn = _pooled_2000()
        rng = np.random.default_rng(0)
        assert _peak(lambda: mmd_test(real, syn, 0, rng)) < 3 * KERNEL_BYTES_2000


KERNEL_BYTES_2000 = 8 * 2000 ** 2


def _pooled_2000():
    """1,100 real and 900 synthetic 12-step traces: a 32 MB kernel."""
    rng = np.random.default_rng(30)
    real = _corpus([_trace(rng.integers(0, 4000, size=12), user=f"r{i}")
                    for i in range(1100)])
    syn = _corpus([_trace(rng.integers(0, 4000, size=12), user=f"s{i}")
                   for i in range(900)])
    return real, syn


def _peak(fn):
    """Peak bytes ``tracemalloc`` sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _loop_symbolize(corpus, min_count):
    """Reference: per-point dict lookups, one symbol array per trace."""
    values, counts = np.unique(np.concatenate([t.cells for t in corpus.traces]),
                               return_counts=True)
    keep = values[counts >= min_count]
    mapping = {int(c): i for i, c in enumerate(keep)}
    out = [np.array([mapping.get(int(c), len(keep)) for c in t.cells])
           for t in corpus.traces]
    return out, max(len(keep) + (1 if np.any(counts < min_count) else 0), 1)


def _loop_lagged_mi_bits(symbol_traces, n_symbols, lag):
    """Reference: one bincount per trace per lag, summed as floats."""
    joint = np.zeros(n_symbols * n_symbols)
    total = 0
    for sym in symbol_traces:
        if sym.size <= lag:
            continue
        joint += np.bincount(sym[:-lag] * n_symbols + sym[lag:],
                             minlength=n_symbols * n_symbols)
        total += sym.size - lag
    if total == 0:
        return 0.0
    jm = joint.reshape(n_symbols, n_symbols)
    return max(metrics._entropy_mm(jm.sum(axis=1), total)
               + metrics._entropy_mm(jm.sum(axis=0), total)
               - metrics._entropy_mm(joint, total), 0.0)


class TestMiDecayExactness:
    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=40),
                          min_size=1, max_size=6),
           min_count=st.integers(1, 6))
    def test_equals_per_trace_loop(self, cells, min_count):
        corpus = _corpus([_trace(c, user=f"u{i}") for i, c in enumerate(cells)])
        symbols, trace_id, n_symbols = metrics._symbolize(corpus, min_count)
        ref_traces, ref_n = _loop_symbolize(corpus, min_count)
        assert n_symbols == ref_n
        assert np.array_equal(symbols, np.concatenate(ref_traces))
        # lags up to and past every trace's length
        longest = max(len(c) for c in cells)
        for lag in range(1, longest + 3):
            got = lagged_mi_bits(symbols, trace_id, n_symbols, lag)
            assert got == _loop_lagged_mi_bits(ref_traces, n_symbols, lag)
        shortest = min(len(c) for c in cells)
        if shortest >= 2:
            curve = mi_decay(corpus, tau_max=shortest - 1, min_count=min_count)
            want = [_loop_lagged_mi_bits(ref_traces, n_symbols, t) for t in curve.lags]
            assert curve.mi_bits.tolist() == want


def _dense_lagged_mi_bits(symbols, trace_id, n_symbols, lag):
    """Reference: the pair counts as one dense n_symbols^2 table."""
    same = trace_id[:-lag] == trace_id[lag:]
    joint = np.bincount(symbols[:-lag][same] * n_symbols + symbols[lag:][same],
                        minlength=n_symbols * n_symbols)
    total = int(np.count_nonzero(same))
    if total == 0:
        return 0.0
    jm = joint.reshape(n_symbols, n_symbols)
    h_a = metrics._entropy_mm(jm.sum(axis=1), total)
    h_b = metrics._entropy_mm(jm.sum(axis=0), total)
    h_ab = metrics._entropy_mm(joint, total)
    return max(h_a + h_b - h_ab, 0.0)


class TestSparseMutualInformation:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_symbols=st.integers(1, 60),
           lengths=st.lists(st.integers(1, 80), min_size=1, max_size=8))
    def test_equals_dense_table(self, data, n_symbols, lengths):
        # skewed symbols, so some never occur and some pairs repeat often
        symbols = np.asarray(data.draw(st.lists(
            st.integers(0, n_symbols - 1) | st.sampled_from([0, n_symbols - 1]),
            min_size=sum(lengths), max_size=sum(lengths))), dtype=np.int64)
        trace_id = np.repeat(np.arange(len(lengths)), lengths)
        for lag in data.draw(st.lists(st.integers(1, max(lengths) + 2),
                                      min_size=4, max_size=4)):
            assert (lagged_mi_bits(symbols, trace_id, n_symbols, lag)
                    == _dense_lagged_mi_bits(symbols, trace_id, n_symbols, lag))

    def test_holds_no_alphabet_squared_array(self):
        # about 4,000 symbols: one dense table of their pairs is 128 MB
        rng = np.random.default_rng(40)
        corpus = _corpus([_trace(rng.integers(0, 4000, size=2500), user=f"u{i}")
                          for i in range(40)])
        assert metrics._symbolize(corpus, metrics.MI_MIN_SYMBOL_COUNT)[2] > 3990
        assert _peak(lambda: mi_decay(corpus, tau_max=2)) < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# the decay fit's regression helper against scipy.stats.linregress
# ---------------------------------------------------------------------------

def _linregress_decay(lags, mi):
    """Reference: ``_fit_decay`` as two ``scipy.stats.linregress`` calls."""
    mask = mi > 0
    if mask.sum() < 3:
        return (float("nan"),) * 4
    tau = lags[mask].astype(float)
    log_i = np.log(mi[mask])
    pl = linregress(np.log(tau), log_i)
    ex = linregress(tau, log_i)
    return float(pl.slope), float(pl.rvalue ** 2), float(ex.slope), float(ex.rvalue ** 2)


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


class TestSlopeAndR:
    @staticmethod
    def _assert_matches_linregress(x, y):
        slope, r = metrics._slope_and_r(x, y)
        with np.errstate(all="ignore"):  # its standard errors may overflow
            want = linregress(x, y)
        assert _bits(slope, r ** 2) == _bits(want.slope, want.rvalue ** 2)
        return r

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(3, 40))
    def test_matches_linregress(self, data, n):
        x = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n,
                                        unique=True)))
        y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        self._assert_matches_linregress(x, y)

    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(st.integers(-50, 50), min_size=3, max_size=40, unique=True),
           c=st.integers(-100, 100))
    def test_constant_y_has_nan_r(self, x, c):
        x = np.array(x, dtype=float)
        assert np.isnan(self._assert_matches_linregress(x, np.full(x.size, float(c))))

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(st.integers(-50, 50), min_size=3, max_size=40, unique=True),
           a=st.integers(-5, 5), b=st.integers(-9, 9).filter(bool),
           scale=st.sampled_from([0.1, 0.3, 1.0, 7.0]))
    def test_collinear_points_have_r_clamped_to_one(self, x, a, b, scale):
        x = np.array(x, dtype=float)
        r = self._assert_matches_linregress(x, a + b * x * scale)
        assert abs(r) <= 1.0 and abs(r) == pytest.approx(1.0)

    def test_clamp_is_reached(self):
        # rounding puts r's raw quotient one ulp past -1 here
        x = np.array([12.0, 8.0, 39.0, -21.0, 40.0, 17.0])
        y = np.array([-248.0, -164.0, -815.0, 445.0, -836.0, -353.0])
        ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
        assert ssxym / np.sqrt(ssxm * ssym) < -1.0
        assert self._assert_matches_linregress(x, y) == -1.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), tau_max=st.integers(3, 40))
    def test_fit_decay_matches_linregress(self, data, tau_max):
        # MI curves as mi_decay builds them: some lags at 0 bits, the rest
        # positive, often decaying
        mi = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1e-6]) | st.floats(1e-9, 3.0),
            min_size=tau_max, max_size=tau_max)))
        if data.draw(st.booleans()):
            mi = np.sort(mi)[::-1]
        lags = np.arange(1, tau_max + 1)
        assert _bits(*metrics._fit_decay(lags, mi)) == _bits(*_linregress_decay(lags, mi))
