"""Realism battery: topN visit statistics, MMD two-sample permutation test
on time-aligned trace embeddings, and mutual-information decay over lags.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import linregress

from . import geogrid
from .dataio import Corpus, GridTrace, hour_of_day
from .errors import DomainError, IncompatibilityError, InsufficientDataError

logger = logging.getLogger(__name__)

DWELL_BINS = 12
MAX_DWELL_SECONDS = 86400
MI_MIN_SYMBOL_COUNT = 10
OTHER_SYMBOL = -1


# ---------------------------------------------------------------------------
# visit runs
# ---------------------------------------------------------------------------

def visit_runs(trace: GridTrace):
    """Maximal runs of identical cells: arrays (cell, start_index, length)."""
    cells = trace.cells
    change = np.flatnonzero(np.diff(cells) != 0)
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change + 1, [cells.size]])
    return cells[starts], starts, ends - starts


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
    cell_index = {int(c): i for i, c in enumerate(cells_of_interest)}
    n = cells_of_interest.size
    visit_counts = np.zeros(n)
    visit_time = np.zeros((n, 24))
    dwell = np.zeros((n, DWELL_BINS))
    total_runs = 0
    for trace in corpus.traces:
        run_cells, starts, lengths = visit_runs(trace)
        total_runs += run_cells.size
        hours = hour_of_day(trace.timestamps[starts]).astype(int)
        dwell_sec = lengths.astype(float) * corpus.sampling_period
        bins = np.clip(np.searchsorted(edges, dwell_sec, side="right") - 1, 0, DWELL_BINS - 1)
        for c, h, b in zip(run_cells, hours, bins):
            i = cell_index.get(int(c))
            if i is None:
                continue
            visit_counts[i] += 1
            visit_time[i, h] += 1
            dwell[i, b] += 1
    probs = visit_counts / max(total_runs, 1)
    return probs, visit_time, dwell


def topn_report(real: Corpus, syn: Corpus, n: int = 50) -> TopNReport:
    """Rank cells by real-corpus visit count and compare run statistics."""
    if real.spec != syn.spec:
        raise IncompatibilityError("corpora must share the grid spec")
    counts: dict[int, int] = {}
    for trace in real.traces:
        run_cells, _, _ = visit_runs(trace)
        for c in run_cells:
            counts[int(c)] = counts.get(int(c), 0) + 1
    distinct = len(counts)
    if n > distinct:
        logger.warning("topN=%d exceeds %d distinct real cells; clamping", n, distinct)
        n = distinct
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    cells = np.array([c for c, _ in ranked], dtype=np.int64)

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
    """Each trace as its curve-position vector over the common time grid."""
    return np.stack([geogrid.curve_position(corpus.spec, t.cells[:length])
                     for t in corpus.traces])


def _mmd_stats(k: np.ndarray, n: int, m: int):
    k_xx = k[:n, :n]
    k_yy = k[n:, n:]
    k_xy = k[:n, n:]
    biased = (k_xx.mean() + k_yy.mean() - 2.0 * k_xy.mean())
    unbiased = ((k_xx.sum() - np.trace(k_xx)) / (n * (n - 1))
                + (k_yy.sum() - np.trace(k_yy)) / (m * (m - 1))
                - 2.0 * k_xy.mean())
    return float(unbiased), float(biased)


def mmd_test(real: Corpus, syn: Corpus, n_permutations: int = 500,
             rng=None) -> MmdResult:
    """RBF-kernel MMD with median-heuristic bandwidth and a permutation null.

    Traces are truncated to the common minimum length so the embeddings are
    aligned on the time axis.  Reports both the unbiased U-statistic and the
    biased V-statistic; the p-value permutes labels of the unbiased one.
    """
    if real.sampling_period != syn.sampling_period:
        raise IncompatibilityError("corpora must share the sampling period")
    n, m = len(real.traces), len(syn.traces)
    if n < 5 or m < 5:
        raise InsufficientDataError("mmd_test needs at least 5 traces per side")
    length = min(min(len(t) for t in real.traces), min(len(t) for t in syn.traces))
    x = embed_corpus(real, length)
    y = embed_corpus(syn, length)
    pooled = np.vstack([x, y])

    sq = np.sum(pooled * pooled, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * pooled @ pooled.T, 0.0)
    tri = d2[np.triu_indices_from(d2, k=1)]
    sigma = float(np.sqrt(np.median(tri))) if tri.size else 1.0
    if sigma <= 0:
        sigma = 1.0
    k = np.exp(-d2 / (2.0 * sigma * sigma))

    unbiased, biased = _mmd_stats(k, n, m)
    if n_permutations <= 0:
        return MmdResult(unbiased, biased, float("nan"), 0, sigma)

    if rng is None:
        rng = np.random.default_rng(0)
    perms = [rng.permutation(n + m) for _ in range(n_permutations)]
    perm_stats = np.fromiter((_mmd_stats(k[np.ix_(p, p)], n, m)[0] for p in perms),
                             dtype=float, count=n_permutations)
    p_value = (1.0 + float(np.sum(perm_stats >= unbiased))) / (n_permutations + 1.0)
    return MmdResult(unbiased, biased, p_value, n_permutations, sigma, perm_stats)


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
    """Cells seen >= min_count times keep their own symbol, the rest merge."""
    all_cells = np.concatenate([t.cells for t in corpus.traces])
    values, counts = np.unique(all_cells, return_counts=True)
    keep = values[counts >= min_count]
    mapping = {int(c): i for i, c in enumerate(keep)}
    other = len(keep)
    has_other = np.any(counts < min_count)
    out = []
    for trace in corpus.traces:
        out.append(np.array([mapping.get(int(c), other) for c in trace.cells]))
    n_symbols = other + (1 if has_other else 0)
    return out, max(n_symbols, 1)


def _entropy_mm(counts: np.ndarray, n: int) -> float:
    """Plug-in entropy in bits with the Miller-Madow bias correction."""
    p = counts[counts > 0] / n
    h = -np.sum(p * np.log2(p))
    k = p.size
    return float(h + (k - 1) / (2.0 * n * np.log(2.0)))


def lagged_mi_bits(symbol_traces, n_symbols: int, lag: int) -> float:
    """Bias-corrected plug-in I(X_t; X_{t+lag}) pooled across traces."""
    joint = np.zeros(n_symbols * n_symbols)
    total = 0
    for sym in symbol_traces:
        if sym.size <= lag:
            continue
        a = sym[:-lag]
        b = sym[lag:]
        joint += np.bincount(a * n_symbols + b, minlength=n_symbols * n_symbols)
        total += a.size
    if total == 0:
        return 0.0
    jm = joint.reshape(n_symbols, n_symbols)
    h_a = _entropy_mm(jm.sum(axis=1), total)
    h_b = _entropy_mm(jm.sum(axis=0), total)
    h_ab = _entropy_mm(joint, total)
    return max(h_a + h_b - h_ab, 0.0)


def _fit_decay(lags: np.ndarray, mi: np.ndarray):
    mask = mi > 0
    if mask.sum() < 3:
        return (float("nan"),) * 4
    tau = lags[mask].astype(float)
    log_i = np.log(mi[mask])
    pl = linregress(np.log(tau), log_i)
    ex = linregress(tau, log_i)
    return float(pl.slope), float(pl.rvalue ** 2), float(ex.slope), float(ex.rvalue ** 2)


def mi_decay(corpus: Corpus, tau_max: int, min_count: int = MI_MIN_SYMBOL_COUNT) -> MiDecayCurve:
    if tau_max < 1:
        raise DomainError("tau_max must be >= 1")
    shortest = min(len(t) for t in corpus.traces)
    if tau_max >= shortest:
        logger.warning("tau_max %d >= shortest trace %d; clamping", tau_max, shortest)
        tau_max = shortest - 1
    symbol_traces, n_symbols = _symbolize(corpus, min_count)
    usable = sum(max(s.size - tau_max, 0) for s in symbol_traces)
    if usable < 50 * n_symbols ** 2:
        logger.warning("only %d pairs at tau_max=%d for alphabet %d; MI may be noisy",
                       usable, tau_max, n_symbols)
    lags = np.arange(1, tau_max + 1)
    mi = np.array([lagged_mi_bits(symbol_traces, n_symbols, int(t)) for t in lags])
    pl_slope, pl_r2, ex_rate, ex_r2 = _fit_decay(lags, mi)
    return MiDecayCurve(lags, mi, pl_slope, pl_r2, ex_rate, ex_r2)
