"""Realism battery: topN visit statistics, MMD two-sample permutation test
on time-aligned trace embeddings, and mutual-information decay over lags.

All three run on the corpus columns: visit runs and MI lag pairs come from
the flat cells, split at the trace offsets.  The MMD permutation
null takes each permuted U-statistic from ``k @ A``, A a block of 0/1
indicator columns of the permuted X sides, so it matches a sum over the
permuted kernel ``k[p][:, p]`` to about 1e-15, not bit for bit.  TopN
counts and MI values are exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import geogrid
from .dataio import Corpus, hour_of_day
from .errors import DomainError, IncompatibilityError, InsufficientDataError

logger = logging.getLogger(__name__)

DWELL_BINS = 12
MAX_DWELL_SECONDS = 86400
MI_MIN_SYMBOL_COUNT = 10
# elements of one block of permutation indicator columns: the cache-sized
# block cap copula._row_windows uses, 93 permutations at 700 pooled traces
PERMUTATION_BLOCK = 2 ** 16
# permutations an MMD test draws at most: a p-value resolution of 1e-6
MAX_PERMUTATIONS = 10 ** 6


# ---------------------------------------------------------------------------
# visit runs
# ---------------------------------------------------------------------------

def corpus_runs(corpus: Corpus):
    """Maximal runs of identical cells in every trace, in trace order: arrays
    (trace index, cell, start row in the corpus columns, length).  A run
    never crosses from one trace into the next."""
    cells = corpus.cells
    first = np.zeros(cells.size, dtype=bool)
    first[corpus.offsets[:-1]] = True
    first[1:] |= cells[1:] != cells[:-1]
    starts = np.flatnonzero(first)
    return (corpus.trace_index()[starts], cells[starts], starts,
            np.diff(np.append(starts, cells.size)))


def _total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


@dataclass
class TopNReport:
    n: int
    cells: np.ndarray                 # top-N cells ranked by real visit count
    real_probs: np.ndarray
    syn_probs: np.ndarray
    real_visit_time: np.ndarray       # (N, 24) per-cell visit-start-hour histograms
    syn_visit_time: np.ndarray
    real_dwell: np.ndarray            # (N, DWELL_BINS) log-spaced dwell histograms
    syn_dwell: np.ndarray
    dwell_bin_edges: np.ndarray
    tv_visit: float
    tv_visit_time: float
    tv_dwell: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "cells": self.cells.tolist(),
            "real_probs": self.real_probs.tolist(),
            "syn_probs": self.syn_probs.tolist(),
            "tv_visit": self.tv_visit,
            "tv_visit_time": self.tv_visit_time,
            "tv_dwell": self.tv_dwell,
            "dwell_bin_edges": self.dwell_bin_edges.tolist(),
        }

    def plotting_rows(self):
        """(rank, cell, real_p, syn_p) rows for the topN curve CSV."""
        for rank, (cell, rp, sp) in enumerate(zip(self.cells, self.real_probs, self.syn_probs), 1):
            yield rank, int(cell), float(rp), float(sp)


def _corpus_run_stats(corpus: Corpus, cells_of_interest: np.ndarray, edges: np.ndarray):
    """Visit probabilities, visit-time and dwell histograms for given cells."""
    _, run_cells, starts, lengths = corpus_runs(corpus)
    n = cells_of_interest.size
    order = np.argsort(cells_of_interest)
    # cells are >= 0, so a run whose cell is not of interest lands on the -1
    ascending = np.append(cells_of_interest[order], -1)
    pos = np.searchsorted(ascending[:-1], run_cells)
    hit = ascending[pos] == run_cells
    row = order[pos[hit]]
    hours = hour_of_day(corpus.timestamps[starts[hit]]).astype(int)
    dwell_sec = lengths[hit].astype(float) * corpus.sampling_period
    bins = np.clip(np.searchsorted(edges, dwell_sec, side="right") - 1, 0, DWELL_BINS - 1)
    visit_counts = np.bincount(row, minlength=n).astype(float)
    visit_time = np.bincount(row * 24 + hours, minlength=n * 24).reshape(n, 24).astype(float)
    dwell = np.bincount(row * DWELL_BINS + bins,
                        minlength=n * DWELL_BINS).reshape(n, DWELL_BINS).astype(float)
    probs = visit_counts / max(run_cells.size, 1)
    return probs, visit_time, dwell


def topn_report(real: Corpus, syn: Corpus, n: int = 50) -> TopNReport:
    """Rank cells by real-corpus visit count and compare run statistics."""
    if real.spec != syn.spec:
        raise IncompatibilityError("corpora must share the grid spec")
    if n < 1:
        raise DomainError(f"topn: n must be >= 1, got {n}")
    for side, corpus in (("real", real), ("synthetic", syn)):
        if not len(corpus):
            raise InsufficientDataError(f"topn: the {side} corpus has no traces")
    values, counts = np.unique(corpus_runs(real)[1], return_counts=True)
    if n > values.size:
        logger.warning("topN=%d exceeds %d distinct real cells; clamping", n, values.size)
        n = values.size
    # values ascend, so a stable sort by -count ranks by (-count, cell)
    cells = values[np.argsort(-counts, kind="stable")[:n]]

    edges = np.geomspace(real.sampling_period, MAX_DWELL_SECONDS, DWELL_BINS + 1)
    real_p, real_vt, real_dw = _corpus_run_stats(real, cells, edges)
    syn_p, syn_vt, syn_dw = _corpus_run_stats(syn, cells, edges)

    def _norm(h):
        s = h.sum()
        return h / s if s > 0 else h

    return TopNReport(
        n=n, cells=cells,
        real_probs=real_p, syn_probs=syn_p,
        real_visit_time=real_vt, syn_visit_time=syn_vt,
        real_dwell=real_dw, syn_dwell=syn_dw,
        dwell_bin_edges=edges,
        tv_visit=_total_variation(real_p, syn_p),
        tv_visit_time=_total_variation(_norm(real_vt).ravel(), _norm(syn_vt).ravel()),
        tv_dwell=_total_variation(_norm(real_dw).ravel(), _norm(syn_dw).ravel()),
    )


# ---------------------------------------------------------------------------
# MMD two-sample test
# ---------------------------------------------------------------------------

@dataclass
class MmdResult:
    mmd2_unbiased: float
    mmd2_biased: float
    p_value: float
    n_permutations: int
    sigma: float
    perm_stats: np.ndarray = field(default_factory=lambda: np.empty(0))

    def to_dict(self) -> dict:
        return {
            "mmd2_unbiased": self.mmd2_unbiased,
            "mmd2_biased": self.mmd2_biased,
            "p_value": self.p_value,
            "n_permutations": self.n_permutations,
            "sigma": self.sigma,
        }


def embed_corpus(corpus: Corpus, length: int) -> np.ndarray:
    """Each trace's first ``length`` points as a row of curve positions."""
    return geogrid.curve_position(
        corpus.spec, corpus.cells[corpus.offsets[:-1, None] + np.arange(length)])


def _mmd_stats(k: np.ndarray, n: int, m: int):
    k_xx = k[:n, :n]
    k_yy = k[n:, n:]
    k_xy = k[:n, n:]
    biased = (k_xx.mean() + k_yy.mean() - 2.0 * k_xy.mean())
    unbiased = ((k_xx.sum() - np.trace(k_xx)) / (n * (n - 1))
                + (k_yy.sum() - np.trace(k_yy)) / (m * (m - 1))
                - 2.0 * k_xy.mean())
    return float(unbiased), float(biased)


def mmd_test(real: Corpus, syn: Corpus, n_permutations: int, rng) -> MmdResult:
    """RBF-kernel MMD with median-heuristic bandwidth and a permutation null.

    Traces are truncated to the common minimum length so the embeddings are
    aligned on the time axis.  Reports both the unbiased U-statistic and the
    biased V-statistic; the p-value permutes labels of the unbiased one.
    """
    if real.sampling_period != syn.sampling_period:
        raise IncompatibilityError("corpora must share the sampling period")
    if not 0 <= n_permutations <= MAX_PERMUTATIONS:
        raise DomainError(f"n_permutations must be in [0, {MAX_PERMUTATIONS}], "
                          f"got {n_permutations}")
    n, m = len(real), len(syn)
    if n < 5 or m < 5:
        raise InsufficientDataError("mmd_test needs at least 5 traces per side")
    length = int(min(np.diff(real.offsets).min(), np.diff(syn.offsets).min()))
    x = embed_corpus(real, length)
    y = embed_corpus(syn, length)
    pooled = np.vstack([x, y])

    # one (n+m)^2 buffer holds the kernel, built in place by the float operations
    # of exp(-max(sq_i + sq_j - (2 x) @ x.T, 0) / (2 sigma^2)); the sums over
    # sq_i + sq_j take row blocks of PERMUTATION_BLOCK elements
    size = n + m
    sq = np.sum(pooled * pooled, axis=1)
    d2 = 2.0 * pooled @ pooled.T
    rows = max(1, PERMUTATION_BLOCK // size)
    for lo in range(0, size, rows):
        block = d2[lo:lo + rows]
        np.subtract(sq[lo:lo + rows, None] + sq, block, out=block)
    np.maximum(d2, 0.0, out=d2)
    tri = d2[~np.tri(size, dtype=bool)]  # the upper triangle, diagonal excluded
    sigma = float(np.sqrt(np.median(tri, overwrite_input=True))) if tri.size else 1.0
    if sigma <= 0:
        sigma = 1.0
    k = np.negative(d2, out=d2)
    k /= 2.0 * sigma * sigma
    np.exp(k, out=k)

    unbiased, biased = _mmd_stats(k, n, m)
    if n_permutations == 0:
        return MmdResult(unbiased, biased, float("nan"), 0, sigma)

    perm_stats = _permuted_mmd2(k, n, m, n_permutations, rng)
    p_value = (1.0 + float(np.sum(perm_stats >= unbiased))) / (n_permutations + 1.0)
    return MmdResult(unbiased, biased, p_value, n_permutations, sigma, perm_stats)


def _permuted_mmd2(k: np.ndarray, n: int, m: int, n_permutations: int, rng) -> np.ndarray:
    """Unbiased MMD^2 under ``n_permutations`` label permutations, each
    ``rng.permutation(n + m)`` in turn, whose first n entries form the X side.

    With a the 0/1 indicator of the X side, s_xx = a'ka, s_xy = a'(k1) - s_xx
    and s_yy = 1'k1 - s_xx - 2 s_xy; the diagonal comes off s_xx and s_yy.
    A block of indicator columns A gives all of its a'ka from one k @ A.
    """
    size = n + m
    row_sums = k.sum(axis=1)
    diag = k.diagonal()
    width = max(1, PERMUTATION_BLOCK // size)
    stats = np.empty(n_permutations)
    for lo in range(0, n_permutations, width):
        a = np.zeros((size, min(width, n_permutations - lo)))
        for j in range(a.shape[1]):
            a[rng.permutation(size)[:n], j] = 1.0
        s_xx = np.einsum("ij,ij->j", a, k @ a)
        s_xy = row_sums @ a - s_xx
        s_yy = row_sums.sum() - s_xx - 2.0 * s_xy
        d_x = diag @ a
        stats[lo:lo + a.shape[1]] = ((s_xx - d_x) / (n * (n - 1))
                                     + (s_yy - (diag.sum() - d_x)) / (m * (m - 1))
                                     - 2.0 * s_xy / (n * m))
    return stats


# ---------------------------------------------------------------------------
# mutual-information decay
# ---------------------------------------------------------------------------

@dataclass
class MiDecayCurve:
    lags: np.ndarray
    mi_bits: np.ndarray
    powerlaw_exponent: float
    powerlaw_r2: float
    exponential_rate: float
    exponential_r2: float

    def to_dict(self) -> dict:
        return {
            "lags": self.lags.tolist(),
            "mi_bits": self.mi_bits.tolist(),
            "powerlaw_exponent": self.powerlaw_exponent,
            "powerlaw_r2": self.powerlaw_r2,
            "exponential_rate": self.exponential_rate,
            "exponential_r2": self.exponential_r2,
        }


def _symbolize(corpus: Corpus, min_count: int):
    """Cells seen >= min_count times keep their own symbol, the rest merge.

    Returns the symbols of all traces concatenated, the trace index of each
    point, and the alphabet size.
    """
    _, inverse, counts = np.unique(corpus.cells, return_inverse=True, return_counts=True)
    kept = counts >= min_count
    # kept cells are numbered in cell order; the merged symbol comes after them
    symbols = np.where(kept, np.cumsum(kept) - 1, np.count_nonzero(kept))[inverse]
    return symbols, corpus.trace_index(), np.count_nonzero(kept) + (0 if kept.all() else 1)


def _entropy_mm(counts: np.ndarray, n: int) -> float:
    """Plug-in entropy in bits with the Miller-Madow bias correction."""
    p = counts[counts > 0] / n
    h = -np.sum(p * np.log2(p))
    k = p.size
    return float(h + (k - 1) / (2.0 * n * np.log(2.0)))


def lagged_mi_bits(symbols: np.ndarray, trace_id: np.ndarray, n_symbols: int,
                   lag: int) -> float:
    """Bias-corrected plug-in I(X_t; X_{t+lag}) pooled across traces: the
    pairs (t, t + lag) of concatenated symbols that lie in one trace.  Only
    pairs seen are counted, in the row-major order of the n_symbols^2 table,
    so each entropy sums the same terms in the same order the table would."""
    same = trace_id[:-lag] == trace_id[lag:]
    a, b = symbols[:-lag][same], symbols[lag:][same]
    if a.size == 0:
        return 0.0
    h_a = _entropy_mm(np.bincount(a), a.size)
    h_b = _entropy_mm(np.bincount(b), a.size)
    h_ab = _entropy_mm(np.unique(a * n_symbols + b, return_counts=True)[1], a.size)
    return max(h_a + h_b - h_ab, 0.0)


def _slope_and_r(x: np.ndarray, y: np.ndarray):
    """Least-squares slope of y on x and the correlation r, with the
    arithmetic of ``scipy.stats.linregress``, bit for bit.  Where x or y has
    zero spread, r is nan if the covariance is 0 too and 0.0 if not;
    otherwise it is clamped to [-1, 1] against rounding."""
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    return ssxym / ssxm, r


def _fit_decay(lags: np.ndarray, mi: np.ndarray):
    mask = mi > 0
    if mask.sum() < 3:
        return (float("nan"),) * 4
    tau = lags[mask].astype(float)
    log_i = np.log(mi[mask])
    pl_slope, pl_r = _slope_and_r(np.log(tau), log_i)
    ex_slope, ex_r = _slope_and_r(tau, log_i)
    return float(pl_slope), float(pl_r ** 2), float(ex_slope), float(ex_r ** 2)


def mi_decay(corpus: Corpus, tau_max: int, min_count: int = MI_MIN_SYMBOL_COUNT) -> MiDecayCurve:
    if tau_max < 1:
        raise DomainError("tau_max must be >= 1")
    if not len(corpus):
        raise InsufficientDataError("mi_decay: the corpus has no traces")
    shortest = int(np.diff(corpus.offsets).min())
    if tau_max >= shortest:
        logger.warning("tau_max %d >= shortest trace %d; clamping", tau_max, shortest)
        tau_max = shortest - 1
    symbols, trace_id, n_symbols = _symbolize(corpus, min_count)
    usable = int(np.maximum(np.diff(corpus.offsets) - tau_max, 0).sum())
    if usable < 50 * n_symbols ** 2:
        logger.warning("only %d pairs at tau_max=%d for alphabet %d; MI may be noisy",
                       usable, tau_max, n_symbols)
    lags = np.arange(1, tau_max + 1)
    mi = np.array([lagged_mi_bits(symbols, trace_id, n_symbols, int(t)) for t in lags])
    pl_slope, pl_r2, ex_rate, ex_r2 = _fit_decay(lags, mi)
    return MiDecayCurve(lags, mi, pl_slope, pl_r2, ex_rate, ex_r2)
