"""Trajectory generators: vine copula and k-order Markov with time-of-day
buckets.  Both offer ``fit``, ``generate``, ``to_payload``/``from_payload``
and the ``model_type``, ``spec`` and ``sampling_period`` a model file keeps.

Generation is autoregressive on the sampling grid: the model conditions on
time-of-day but never generates timestamps; cells map back to coordinates
only on export.
"""

from __future__ import annotations

import math

import numpy as np

from . import dataio, geogrid
from .dataio import Corpus, grid_corpus, hour_of_day
from .errors import (DomainError, IncompatibilityError, InsufficientDataError,
                     ParseError)

HOURS_PER_DAY = 24
# one time bucket per second of the day: timestamps are whole seconds, so a
# finer bucket could hold no timestamp of its own
MAX_TIME_BUCKETS = dataio.SECONDS_PER_DAY
# cells of one (traces x alphabet) block of Markov draws, about 32 MB
_CHUNK_CELLS = 1 << 22
# cells of cached Markov CDF rows, 2 MB, or one block of rows if that is more
_CACHE_CELLS = 1 << 18


# ---------------------------------------------------------------------------
# Markov baseline
# ---------------------------------------------------------------------------

class MarkovGenerator:
    """k-order Markov chain over cells, bucketed by time of day, with additive
    smoothing and back-off down to order 0.  ``counts[k]`` has one sorted row
    (bucket, ctx_1..ctx_k, next, count) per observed order-k transition."""

    model_type = "markov"

    def __init__(self, spec, sampling_period, order, time_buckets, alpha,
                 alphabet, counts, global_counts):
        self.spec = spec
        self.sampling_period = int(sampling_period)
        if order < 0:
            raise DomainError("order must be >= 0")
        if not 0 < alpha < math.inf:
            raise DomainError(f"smoothing alpha must be a finite number > 0, got {alpha}")
        self.order = int(order)
        self.time_buckets = int(time_buckets)
        self.alpha = float(alpha)
        self.alphabet = np.asarray(alphabet, dtype=np.int64)
        # column-major, so the column slices the lookups read are contiguous
        self.counts = [np.asfortranarray(table, dtype=np.int64) for table in counts]
        self.global_counts = np.asarray(global_counts, dtype=np.int64)
        self._prefixes = [_prefix_keys(table, self.alphabet.size) for table in self.counts]
        # the tables end to end: counts[k] starts at row base[k], and groups
        # holds the first row of each (bucket, context) of every order, then
        # the row count base[-1]
        self._base = np.cumsum([0] + [len(table) for table in self.counts])
        self._groups = np.concatenate([b + starts for b, (_, starts)
                                       in zip(self._base, self._prefixes)]
                                      + [self._base[-1:]])
        self._next = np.concatenate([table[:, -2] for table in self.counts])
        self._count = np.concatenate([table[:, -1] for table in self.counts])
        # a smoothed distribution divides by its count total plus alpha * V;
        # no total exceeds the sum of its table or of the global counts
        largest = max([self.global_counts.sum(dtype=float)]
                      + [table[:, -1].sum(dtype=float) for table in self.counts])
        if not math.isfinite(self.alpha * self.alphabet.size + largest):
            raise DomainError(f"smoothing alpha {alpha} times the alphabet size "
                              f"{self.alphabet.size} plus the count totals is not finite")

    @classmethod
    def fit(cls, corpus: Corpus, order: int = 1, time_buckets: int = 24,
            alpha: float = 0.01) -> "MarkovGenerator":
        if not len(corpus):
            raise InsufficientDataError("corpus is empty")
        if not 1 <= time_buckets <= MAX_TIME_BUCKETS:
            raise DomainError(f"time_buckets must be in [1, {MAX_TIME_BUCKETS}], "
                              f"got {time_buckets}")
        alphabet, sym = np.unique(corpus.cells, return_inverse=True)
        buckets = _bucket_of(corpus.timestamps, time_buckets)
        pos = corpus.trace_positions()
        counts = []
        for k in range(order + 1):
            # a trace's first point is no transition, so even order 0 skips it
            at = np.flatnonzero(pos >= max(k, 1))
            steps = np.column_stack([buckets[at]] + [sym[at - j] for j in range(k, -1, -1)])
            steps = steps[np.lexsort(steps.T[::-1])]
            new = np.ones(len(steps), dtype=bool)
            new[1:] = np.any(steps[1:] != steps[:-1], axis=1)
            first = np.flatnonzero(new)
            counts.append(np.column_stack([steps[first], np.diff(first, append=len(steps))]))
        return cls(corpus.spec, corpus.sampling_period, order, time_buckets,
                   alpha, alphabet, counts, np.bincount(sym, minlength=alphabet.size))

    def _distributions(self, contexts, bucket: int) -> np.ndarray:
        """Smoothed next-symbol distribution of each row of an (n, j) block
        of contexts, backing off k, k-1, ..., 0 to its longest suffix seen
        in ``bucket``.  A symbol outside the alphabet is never seen."""
        return self._rows(self._sources(contexts, bucket))

    def _sources(self, contexts, bucket: int) -> np.ndarray:
        """The key of the distribution each row of an (n, j) block of
        contexts draws from, backing off to its longest suffix seen in
        ``bucket``: ``base[k] + lo`` when that suffix has the rows [lo, hi)
        of ``counts[k]``, or ``base[-1]`` for the global counts."""
        contexts = np.asarray(contexts, dtype=np.int64)
        j = contexts.shape[1]
        keys = np.full(len(contexts), self._base[-1])
        todo = np.arange(len(contexts))
        for k in range(min(self.order, j), -1, -1):
            at, lo = self._seen(k, bucket, contexts[todo, j - k:])
            keys[todo[at]] = self._base[k] + lo
            todo = np.delete(todo, at)
        return keys

    def _rows(self, keys: np.ndarray) -> np.ndarray:
        """The smoothed distribution of each key of :meth:`_sources`.  A row
        depends on its own counts alone: an exact sum of integer-valued
        floats and elementwise steps, whatever rows it is built with."""
        counts = np.zeros((keys.size, self.alphabet.size))
        table = np.flatnonzero(keys < self._base[-1])
        lo = keys[table]
        hi = self._groups[np.searchsorted(self._groups, lo) + 1]
        rows = _ranges(lo, hi)
        counts[np.repeat(table, hi - lo), self._next[rows]] = self._count[rows]
        counts[keys == self._base[-1]] = self.global_counts
        total = counts.sum(axis=1, keepdims=True) + self.alpha * self.alphabet.size
        counts += self.alpha
        return np.divide(counts, total, out=counts)

    def _seen(self, k: int, bucket: int, contexts: np.ndarray):
        """The rows of an (m, k) block of contexts seen in ``bucket`` at
        order k, and the first of the ``counts[k]`` rows each one has."""
        keys, starts = self._prefixes[k]
        v = self.alphabet.size
        g = np.searchsorted(keys[0], bucket)
        if g == keys[0].size or keys[0][g] != bucket:
            return np.empty((2, 0), dtype=np.int64)
        at, rank = np.arange(len(contexts)), np.full(len(contexts), g)
        for col, key in enumerate(keys[1:]):
            x = contexts[at, col]
            q = rank * v + x
            rank = np.searchsorted(key, q)
            hit = (0 <= x) & (x < v) & (rank < key.size)
            hit[hit] = key[rank[hit]] == q[hit]
            at, rank = at[hit], rank[hit]
        return at, starts[rank]

    def transition_matrix(self, bucket: int) -> np.ndarray:
        """Order-1 reduction: smoothed P(next | current, bucket)."""
        return self._distributions(np.arange(self.alphabet.size)[:, None], bucket)

    def stationary_distribution(self, bucket: int) -> np.ndarray:
        return self._distributions(np.empty((1, 0), dtype=np.int64), bucket)[0]

    def sparse_transitions(self, bucket: int):
        """``transition_matrix(bucket)`` without the V x V array.

        Returns the contexts seen in the bucket's order-1 rows (ascending),
        each one's probability off its observed rows, and the observed
        (context, next, probability) rows sorted by context, then next.
        Every other row is ``stationary_distribution(bucket)``.  Each
        probability is the float ``transition_matrix`` holds.
        """
        v = self.alphabet.size
        table = self.counts[1] if self.order else np.empty((0, 4), dtype=np.int64)
        table = table[slice(*table[:, 0].searchsorted([bucket, bucket + 1]))]
        ctx, nxt, n = table[:, 1], table[:, 2], table[:, 3]
        seen = np.unique(ctx)
        total = np.bincount(ctx, weights=n, minlength=v) + self.alpha * v
        return seen, self.alpha / total[seen], ctx, nxt, (n + self.alpha) / total[ctx]

    def generate(self, n_traces, trace_len, start_time, seed) -> Corpus:
        if n_traces < 1:
            raise DomainError(f"n_traces must be >= 1, got {n_traces}")
        if trace_len < 1:
            raise DomainError("trace_len must be >= 1")
        dataio.check_grid_size(n_traces, trace_len)
        v = self.alphabet.size
        timestamps = dataio.time_grid(start_time, self.sampling_period, trace_len)
        buckets = _bucket_of(timestamps, self.time_buckets)
        sym = np.empty((n_traces, trace_len), dtype=np.int64)
        # trace i draws one uniform per step from its own stream, so the
        # traces can be drawn in blocks that bound the (traces x V) arrays
        per_block = max(1, _CHUNK_CELLS // v)
        # the CDF row of each distribution key met so far, built on first use
        cdf = np.empty((max(_CACHE_CELLS // v, min(n_traces, per_block)), v))
        slot = np.full(self._base[-1] + 1, -1)
        used = 0
        for lo in range(0, n_traces, per_block):
            block = sym[lo:lo + per_block]
            u = np.stack([np.random.default_rng([seed, i]).uniform(size=trace_len)
                          for i in range(lo, lo + len(block))])
            for t in range(trace_len):
                keys = self._sources(block[:, max(0, t - self.order):t], int(buckets[t]))
                new = np.unique(keys[slot[keys] < 0])
                if used + new.size > len(cdf):
                    slot.fill(-1)
                    used, new = 0, np.unique(keys)
                if new.size:
                    np.cumsum(self._rows(new), axis=1, out=cdf[used:used + new.size])
                    slot[new] = np.arange(used, used + new.size)
                    used += new.size
                # rounding can leave a CDF row's last value below the draw
                block[:, t] = np.minimum((cdf[slot[keys]] < u[:, t, None]).sum(axis=1), v - 1)
        return grid_corpus(self.spec, "syn_", self.alphabet[sym], timestamps, self.sampling_period)

    def to_payload(self) -> dict:
        return {
            "order": self.order,
            "time_buckets": self.time_buckets,
            "alpha": self.alpha,
            "alphabet": dataio.encode_array(self.alphabet),
            "global_counts": dataio.encode_array(self.global_counts),
            "counts": [dataio.encode_array(table) for table in self.counts],
        }

    @classmethod
    def from_payload(cls, spec, sampling_period, payload) -> "MarkovGenerator":
        order = dataio.read_scalar(payload, "payload.order", int, "an integer >= 0",
                                   lambda x: x >= 0)
        time_buckets = dataio.read_scalar(payload, "payload.time_buckets", int,
                                          f"an integer in [1, {MAX_TIME_BUCKETS}]",
                                          lambda x: 1 <= x <= MAX_TIME_BUCKETS)
        alpha = dataio.read_scalar(payload, "payload.alpha", (int, float), "a number")
        alphabet = dataio.read_array(payload, "payload.alphabet", "iu", 1).astype(np.int64)
        if (alphabet.size == 0 or np.any(np.diff(alphabet) <= 0) or alphabet[0] < 0
                or alphabet[-1] >= spec.n_cells):
            raise ParseError(f"payload.alphabet: expected strictly increasing cells in "
                             f"[0, {spec.n_cells})")
        counts, global_counts = _read_counts(payload, order, time_buckets, alphabet.size)
        return _checked("payload.alpha", cls, spec, sampling_period, order, time_buckets,
                        alpha, alphabet, counts, global_counts)


def _prefix_keys(table: np.ndarray, v: int):
    """Ascending keys of the distinct row prefixes (bucket, ctx_1..ctx_j) of
    a sorted order-k count table, one array for each j = 0..k, and the first
    row of each full (bucket, context) prefix.

    A bucket is its own key; a longer prefix's key is the rank of its
    one-shorter prefix among those keys, times v, plus ctx_j.  Looking up a
    context one column at a time is then one ``searchsorted`` per column,
    at any order, with no key past (rows * v).
    """
    key, keys = table[:, 0], []
    for j in range(table.shape[1] - 2):
        if j:
            key = rank * v + table[:, j]
        new = np.ones(key.size, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        keys.append(key[new])
        rank = np.cumsum(new) - 1
    return keys, np.flatnonzero(new)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The index ranges [lo, hi) end to end."""
    n = hi - lo
    return np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)


def _read_counts(payload, order: int, time_buckets: int, v: int):
    """The count tables and global counts of a model file, checked; a table in
    the earlier layout, a list of per-(bucket, context) entries, is no array."""
    tables = dataio.read_scalar(payload, "payload.counts", list,
                                f"a list of order+1 = {order + 1} count tables",
                                lambda x: len(x) == order + 1)
    counts = []
    for k in range(order + 1):
        where = f"payload.counts[{k}]"
        table = dataio.read_array(tables, where, "iu", 2)
        if table.shape[1] != k + 3:
            raise ParseError(f"{where}: expected {k + 3} columns, got {table.shape[1]}")
        table = table.astype(np.int64)
        bucket, symbols, n = table[:, 0], table[:, 1:-1], table[:, -1]
        if np.any((bucket < 0) | (bucket >= time_buckets)):
            raise ParseError(f"{where}: bucket outside [0, {time_buckets})")
        if np.any((symbols < 0) | (symbols >= v)):
            raise ParseError(f"{where}: symbol outside [0, {v})")
        if np.any(n < 1):
            raise ParseError(f"{where}: count below 1")
        # strictly increasing keys: sorted, and no repeated (bucket, ctx, next)
        step = np.diff(table[:, :-1], axis=0)
        if np.any(step[np.arange(len(step)), np.argmax(step != 0, axis=1)] <= 0):
            raise ParseError(f"{where}: rows out of order or a repeated "
                             "(bucket, context, next) row")
        counts.append(table)
    global_counts = dataio.read_array(payload, "payload.global_counts", "iu", 1)
    if global_counts.size != v or np.any(global_counts < 0):
        raise ParseError(f"payload.global_counts: expected {v} non-negative counts, "
                         f"got {global_counts.size}")
    return counts, global_counts


def _checked(where: str, build, *args):
    """``build(*args)`` while reading a model file: a value its checks refuse
    is a ParseError naming ``where``."""
    try:
        return build(*args)
    except (DomainError, InsufficientDataError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _bucket_of(timestamps, time_buckets) -> np.ndarray:
    hours = hour_of_day(timestamps)
    return np.minimum((hours / (HOURS_PER_DAY / time_buckets)).astype(int), time_buckets - 1)


# ---------------------------------------------------------------------------
# vine copula generator
# ---------------------------------------------------------------------------

class VineGenerator:
    """D-vine autoregression over jittered curve positions and time of day.

    The lag window ``w`` orders the path (x_{t-w}, ..., x_{t-2}, tod_t,
    x_{t-1}, x_t): the newest position is the last variable, so a draw of
    it given the others is a closed chain of h-functions and mixture draws.
    The previous position sits right next to it because lag-1 dependence
    (staying put) dominates; time of day comes one step further in.  In a
    D-vine truncated at level k the last variable depends on the others
    only through its k nearest path neighbours, so the generator fits,
    stores and draws from the D-vine over the last k + 1 path variables
    alone.  ``w`` also sets how many cells a start window holds.
    """

    model_type = "vine"

    def __init__(self, spec, sampling_period, window, vine: copula.VineModel,
                 start_windows: np.ndarray):
        self.spec = spec
        self.sampling_period = int(sampling_period)
        if window < 1:
            raise DomainError("window must be >= 1")
        self.window = int(window)
        self.vine = vine
        self.start_windows = np.asarray(start_windows, dtype=np.int64)

    @classmethod
    def fit(cls, corpus: Corpus, window: int = 4, trunc_level=2,
            max_scores: int = 25000, bandwidth_scale: float = 0.00625,
            max_rows: int = 25000, seed: int = 0) -> "VineGenerator":
        from . import copula  # scipy.special: a Markov-only process never loads it

        w = int(window)
        if w < 1:
            raise DomainError("window must be >= 1")
        if trunc_level < 1:
            raise DomainError(f"trunc_level must be >= 1, got {trunc_level}")
        d = min(trunc_level, w + 1) + 1  # the last d path variables
        if max_rows < 0:
            raise DomainError(f"max_rows must be >= 0 (0: no cap), got {max_rows}")
        data = cls._path_rows(corpus, w, d, np.random.default_rng(seed))
        if max_rows and data.shape[0] > max_rows:
            # even thinning keeps every trace represented and bounds fit cost
            keep = np.linspace(0, data.shape[0] - 1, max_rows).astype(int)
            data = data[keep]
        vine = copula.vine_fit(data, trunc_level=d - 1, max_scores=max_scores,
                               bandwidth_scale=bandwidth_scale, var_names=_var_names(d))

        start_windows = cls._collect_start_windows(corpus, w)
        return cls(corpus.spec, corpus.sampling_period, w, vine, start_windows)

    @staticmethod
    def _path_rows(corpus, w, d, rng) -> np.ndarray:
        """One row of the last d jittered path variables per point with a full window."""
        lengths = np.diff(corpus.offsets)
        usable = lengths >= w + 1
        if not usable.any():
            raise InsufficientDataError(f"no trace is longer than the window w={w}")
        # the jitter stream: per usable trace, one draw per point for its position,
        # then one per point for its time of day; uniform(0, h) is h * uniform()
        points = np.repeat(usable, lengths)
        u = rng.uniform(size=2 * np.count_nonzero(points))
        of_tod = np.repeat(np.arange(2 * lengths.size) % 2 == 1, np.repeat(lengths * usable, 2))
        pos = geogrid.curve_position(corpus.spec, corpus.cells[points], u[~of_tod])
        tod = (hour_of_day(corpus.timestamps[points])
               + corpus.sampling_period / 3600.0 * u[of_tod]) % HOURS_PER_DAY
        at = np.flatnonzero(corpus.trace_positions()[points] >= w)
        path = [(pos, w - k) for k in range(w - 1)] + [(tod, 0), (pos, 1), (pos, 0)]
        return np.column_stack([x[at - lag] for x, lag in path[-d:]])

    @staticmethod
    def _collect_start_windows(corpus, w, cap=5000) -> np.ndarray:
        """(window cells..., start hour bucket) rows pooled over the corpus: a
        trace of n points starts one every max(1, (n - w) // 64) points below n - w."""
        position = corpus.trace_positions()
        n = np.diff(corpus.offsets)[corpus.trace_index()] - w
        start = np.flatnonzero((position < n) & (position % np.maximum(1, n // 64) == 0))
        rows = np.column_stack([corpus.cells[start[:, None] + np.arange(w)],
                                hour_of_day(corpus.timestamps[start]).astype(int)])
        if rows.shape[0] > cap:
            keep = np.linspace(0, rows.shape[0] - 1, cap).astype(int)
            rows = rows[keep]
        return rows

    def _pick_starts(self, n_traces, start_time, rng) -> np.ndarray:
        start_hour = int(hour_of_day(np.asarray([start_time]))[0])
        pool = self.start_windows[self.start_windows[:, -1] == start_hour]
        if pool.shape[0] == 0:
            pool = self.start_windows
        idx = rng.integers(0, pool.shape[0], size=n_traces)
        return pool[idx, :-1]

    def generate(self, n_traces, trace_len, start_time, seed) -> Corpus:
        if n_traces < 1:
            raise DomainError(f"n_traces must be >= 1, got {n_traces}")
        w = self.window
        if trace_len < w + 1:
            raise DomainError(f"trace_len must be >= window+1 = {w + 1}, got {trace_len}")
        dataio.check_grid_size(n_traces, trace_len)
        rng = np.random.default_rng(seed)
        spec = self.spec
        timestamps = dataio.time_grid(start_time, self.sampling_period, trace_len)
        hours = hour_of_day(timestamps)
        period_hours = self.sampling_period / 3600.0

        start_cells = self._pick_starts(n_traces, start_time, rng)
        positions = np.empty((n_traces, trace_len))
        positions[:, :w] = geogrid.curve_position(spec, start_cells,
                                                  rng.uniform(size=start_cells.shape))
        for t in range(w, trace_len):
            tod = (hours[t] + rng.uniform(0.0, period_hours, size=n_traces)) % HOURS_PER_DAY
            cond = np.column_stack([positions[:, t - w:t - 1], tod,
                                    positions[:, t - 1]])
            raw = self.vine.conditional_sample(cond[:, 1 - self.vine.dim:], rng)
            cell_t = geogrid.cell_from_position(spec, raw)
            # re-jitter so the autoregressive state keeps the
            # within-cell-uniform distribution the vine was fitted on
            positions[:, t] = geogrid.curve_position(spec, cell_t, rng.uniform(size=n_traces))
        return grid_corpus(spec, "syn_", geogrid.cell_from_position(spec, positions), timestamps,
                           self.sampling_period)

    def to_payload(self) -> dict:
        return {
            "window": self.window,
            "var_names": _var_names(self.vine.dim),
            "margins": [dataio.encode_array(m.sorted_sample) for m in self.vine.margins],
            "trees": [[{"scores": dataio.encode_array(e.scores), "bandwidth": e.bandwidth}
                       for e in level] for level in self.vine.trees],
            "start_windows": dataio.encode_array(self.start_windows),
        }

    @classmethod
    def from_payload(cls, spec, sampling_period, payload) -> "VineGenerator":
        from . import copula

        w = dataio.read_scalar(payload, "payload.window", int, "an integer >= 1",
                               lambda x: x >= 1)
        # the vine covers the last d path variables (all w + 2 in older files)
        names = dataio.read_scalar(payload, "payload.var_names", list, "a list of names")
        d = min(max(len(names), 2), w + 2)
        if names != _var_names(d):
            raise ParseError(f"payload.var_names: expected the last 2 to {w + 2} names of "
                             f"window {w}, here {_var_names(d)}, got {names!r:.80}")
        margins = dataio.read_scalar(payload, "payload.margins", list,
                                     f"a list of {d} margins, one per var_name",
                                     lambda x: len(x) == d)
        margins = [_checked(f"payload.margins[{j}]", copula.EmpiricalMargin,
                            dataio.read_array(margins, f"payload.margins[{j}]", "f", 1))
                   for j in range(d)]
        trees = dataio.read_scalar(payload, "payload.trees", list, "a list of trees")
        trees = [_read_tree(trees, f"payload.trees[{t}]") for t in range(len(trees))]
        vine = _checked("payload.trees", copula.VineModel, margins, trees)
        starts = dataio.read_array(payload, "payload.start_windows", "iu", 2)
        if (starts.shape[0] < 1 or starts.shape[1] != w + 1
                or np.any(starts[:, :-1] < 0) or np.any(starts[:, :-1] >= spec.n_cells)
                or np.any(starts[:, -1] < 0) or np.any(starts[:, -1] >= HOURS_PER_DAY)):
            raise ParseError(f"payload.start_windows: expected rows of {w} cells in "
                             f"[0, {spec.n_cells}) and an hour in [0, {HOURS_PER_DAY}), "
                             f"got shape {starts.shape}")
        return cls(spec, sampling_period, w, vine, starts)


def _var_names(d: int) -> list:
    """The last d path variables, in order, which a vine model covers.  For
    any lag window w >= d - 2 they are the same names, so w never enters."""
    return [f"pos_lag{k}" for k in range(d - 2, 1, -1)] + ["time_of_day", "pos_lag1", "pos"][-d:]


def _read_tree(trees, where: str) -> list:
    """One tree of a vine model file: a list of pair copulas, each checked."""
    from . import copula

    edges = dataio.read_scalar(trees, where, list, "a list of edges")
    level = []
    for i in range(len(edges)):
        edge = dataio.read_scalar(edges, f"{where}[{i}]", dict, "an object")
        scores = dataio.read_array(edge, f"{where}[{i}].scores", "f", 2)
        bandwidth = dataio.read_scalar(edge, f"{where}[{i}].bandwidth", (int, float),
                                       "a number")
        level.append(_checked(f"{where}[{i}]", copula.KernelPairCopula, scores, bandwidth))
    return level


def generator_from_payload(model_type, spec, sampling_period, payload):
    if model_type == "markov":
        return MarkovGenerator.from_payload(spec, sampling_period, payload)
    if model_type == "vine":
        return VineGenerator.from_payload(spec, sampling_period, payload)
    raise IncompatibilityError(f"unknown model_type {model_type!r}")
