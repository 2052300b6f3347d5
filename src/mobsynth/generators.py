"""Trajectory generators behind one interface: vine copula and k-order
Markov with time-of-day buckets.

Generation is autoregressive on the sampling grid: the model conditions on
time-of-day but never generates timestamps; cells map back to coordinates
only on export.
"""

from __future__ import annotations

import numpy as np

from . import copula, dataio
from .dataio import Corpus, GridTrace, hour_of_day
from .errors import DomainError, IncompatibilityError, InsufficientDataError
from .geogrid import GridSpec

HOURS_PER_DAY = 24


class Generator:
    """Common interface: deterministic corpus synthesis given a seed."""

    model_type = "base"

    def __init__(self, spec: GridSpec, sampling_period: int):
        self.spec = spec
        self.sampling_period = int(sampling_period)

    def generate(self, n_traces: int, trace_len: int, start_time: int, seed: int) -> Corpus:
        raise NotImplementedError

    def to_payload(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Markov baseline
# ---------------------------------------------------------------------------

class MarkovGenerator(Generator):
    """k-order Markov chain over cells, bucketed by time of day, with
    additive smoothing and back-off to shorter contexts down to order 0."""

    model_type = "markov"

    def __init__(self, spec, sampling_period, order, time_buckets, alpha,
                 alphabet, counts, global_counts):
        super().__init__(spec, sampling_period)
        if order < 0:
            raise DomainError("order must be >= 0")
        if alpha <= 0:
            raise DomainError("smoothing alpha must be positive")
        self.order = int(order)
        self.time_buckets = int(time_buckets)
        self.alpha = float(alpha)
        self.alphabet = np.asarray(alphabet, dtype=np.int64)
        self._index = {int(c): i for i, c in enumerate(self.alphabet)}
        # counts[k][(bucket, ctx_tuple)] -> count vector over the alphabet
        self.counts = counts
        self.global_counts = np.asarray(global_counts, dtype=float)

    @classmethod
    def fit(cls, corpus: Corpus, order: int = 1, time_buckets: int = 24,
            alpha: float = 0.01) -> "MarkovGenerator":
        if not corpus.traces:
            raise InsufficientDataError("corpus is empty")
        alphabet = np.unique(np.concatenate([t.cells for t in corpus.traces]))
        index = {int(c): i for i, c in enumerate(alphabet)}
        v = alphabet.size
        counts = [dict() for _ in range(order + 1)]
        global_counts = np.zeros(v)
        for trace in corpus.traces:
            sym = np.array([index[int(c)] for c in trace.cells])
            buckets = _bucket_of(trace.timestamps, time_buckets)
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
        return cls(corpus.spec, corpus.sampling_period, order, time_buckets,
                   alpha, alphabet, counts, global_counts)

    def _distribution(self, context: tuple, bucket: int) -> np.ndarray:
        """Smoothed next-symbol distribution with back-off k, k-1, ..., 0."""
        v = self.alphabet.size
        for k in range(min(self.order, len(context)), -1, -1):
            ctx = context[len(context) - k:]
            vec = self.counts[k].get((bucket, ctx))
            if vec is not None:
                return (vec + self.alpha) / (vec.sum() + self.alpha * v)
        return (self.global_counts + self.alpha) / (self.global_counts.sum() + self.alpha * v)

    def transition_matrix(self, bucket: int) -> np.ndarray:
        """Order-1 reduction: smoothed P(next | current, bucket)."""
        v = self.alphabet.size
        return np.stack([self._distribution((j,), bucket) for j in range(v)])

    def stationary_distribution(self, bucket: int) -> np.ndarray:
        return self._distribution((), bucket)

    def generate(self, n_traces, trace_len, start_time, seed) -> Corpus:
        if n_traces < 1:
            raise DomainError(f"n_traces must be >= 1, got {n_traces}")
        if trace_len < 1:
            raise DomainError("trace_len must be >= 1")
        v = self.alphabet.size
        timestamps = start_time + self.sampling_period * np.arange(trace_len, dtype=np.int64)
        buckets = _bucket_of(timestamps, self.time_buckets)
        traces = []
        for i in range(n_traces):
            rng = np.random.default_rng([seed, i])
            sym = np.empty(trace_len, dtype=np.int64)
            for t in range(trace_len):
                ctx = tuple(int(x) for x in sym[max(0, t - self.order):t])
                dist = self._distribution(ctx, int(buckets[t]))
                # rounding can leave cumsum(dist)[-1] below the uniform draw
                sym[t] = min(np.searchsorted(np.cumsum(dist), rng.uniform()), v - 1)
            traces.append(GridTrace(f"syn_{i}", self.alphabet[sym], timestamps))
        return Corpus(spec=self.spec, traces=traces, sampling_period=self.sampling_period)

    def to_payload(self) -> dict:
        return {
            "order": self.order,
            "time_buckets": self.time_buckets,
            "alpha": self.alpha,
            "alphabet": dataio.encode_array(self.alphabet),
            "global_counts": dataio.encode_array(self.global_counts),
            "counts": [
                [
                    {"bucket": b, "context": list(ctx), "counts": dataio.encode_array(vec)}
                    for (b, ctx), vec in sorted(level.items())
                ]
                for level in self.counts
            ],
        }

    @classmethod
    def from_payload(cls, spec, sampling_period, payload) -> "MarkovGenerator":
        counts = []
        for level in payload["counts"]:
            d = {}
            for entry in level:
                d[(int(entry["bucket"]), tuple(int(x) for x in entry["context"]))] = \
                    dataio.decode_array(entry["counts"])
            counts.append(d)
        return cls(spec, sampling_period, payload["order"], payload["time_buckets"],
                   payload["alpha"], dataio.decode_array(payload["alphabet"]),
                   counts, dataio.decode_array(payload["global_counts"]))


def _bucket_of(timestamps, time_buckets) -> np.ndarray:
    hours = hour_of_day(timestamps)
    return np.minimum((hours / (HOURS_PER_DAY / time_buckets)).astype(int), time_buckets - 1)


# ---------------------------------------------------------------------------
# vine copula generator
# ---------------------------------------------------------------------------

class VineGenerator(Generator):
    """D-vine autoregression over jittered curve positions and time of day.

    The vine's path order is (x_{t-w}, ..., x_{t-2}, tod_t, x_{t-1}, x_t):
    the newest position is the last variable, so its conditional distribution
    is a closed chain of h-inversions.  The previous position sits right next
    to it because lag-1 dependence (staying put) dominates; time of day comes
    one step further in, still inside the truncation depth.
    """

    model_type = "vine"

    def __init__(self, spec, sampling_period, window, vine: copula.VineModel,
                 start_windows: np.ndarray):
        super().__init__(spec, sampling_period)
        if window < 1:
            raise DomainError("window must be >= 1")
        self.window = int(window)
        self.vine = vine
        self.start_windows = np.asarray(start_windows, dtype=np.int64)

    @classmethod
    def fit(cls, corpus: Corpus, window: int = 4, trunc_level=2,
            max_scores: int = 25000, bandwidth_scale: float = 0.00625,
            max_rows: int = 25000, seed: int = 0) -> "VineGenerator":
        w = int(window)
        if w < 1:
            raise DomainError("window must be >= 1")
        usable = [t for t in corpus.traces if len(t) >= w + 1]
        if not usable:
            raise InsufficientDataError(f"no trace is longer than the window w={w}")
        rng = np.random.default_rng(seed)
        spec = corpus.spec
        period_hours = corpus.sampling_period / 3600.0

        rows = []
        for trace in usable:
            pos = (trace.cells + rng.uniform(size=len(trace))) / spec.n_cells
            tod = (hour_of_day(trace.timestamps)
                   + rng.uniform(0.0, period_hours, size=len(trace))) % HOURS_PER_DAY
            n = len(trace)
            if n < w + 1:
                continue
            block = np.column_stack(
                [pos[k:n - w + k] for k in range(w - 1)]
                + [tod[w:], pos[w - 1:n - 1], pos[w:]])
            rows.append(block)
        data = np.concatenate(rows, axis=0)
        if max_rows and data.shape[0] > max_rows:
            # even thinning keeps every trace represented and bounds fit cost
            keep = np.linspace(0, data.shape[0] - 1, max_rows).astype(int)
            data = data[keep]
        names = ([f"pos_lag{w - k}" for k in range(w - 1)]
                 + ["time_of_day", "pos_lag1", "pos"])
        vine = copula.vine_fit(data, window=w, trunc_level=trunc_level,
                               max_scores=max_scores, bandwidth_scale=bandwidth_scale,
                               var_names=names)

        start_windows = cls._collect_start_windows(usable, w)
        return cls(spec, corpus.sampling_period, w, vine, start_windows)

    @staticmethod
    def _collect_start_windows(traces, w, cap=5000) -> np.ndarray:
        """(window cells..., start hour bucket) rows pooled over the corpus."""
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
        rng = np.random.default_rng(seed)
        spec = self.spec
        timestamps = start_time + self.sampling_period * np.arange(trace_len, dtype=np.int64)
        hours = hour_of_day(timestamps)
        period_hours = self.sampling_period / 3600.0

        start_cells = self._pick_starts(n_traces, start_time, rng)
        positions = np.empty((n_traces, trace_len))
        positions[:, :w] = (start_cells + rng.uniform(size=start_cells.shape)) / spec.n_cells
        for t in range(w, trace_len):
            tod = (hours[t] + rng.uniform(0.0, period_hours, size=n_traces)) % HOURS_PER_DAY
            cond = np.column_stack([positions[:, t - w:t - 1], tod,
                                    positions[:, t - 1]])
            # atoms=True keeps the draw on observed positions: interpolating
            # the margin between hotspot atoms would fabricate grid cells
            # that never occur in training
            raw = self.vine.conditional_sample(cond, rng, atoms=True)
            cell_t = np.clip((raw * spec.n_cells).astype(np.int64), 0, spec.n_cells - 1)
            # re-jitter so the autoregressive state keeps the
            # within-cell-uniform distribution the vine was fitted on
            positions[:, t] = (cell_t + rng.uniform(size=n_traces)) / spec.n_cells
        cells = np.clip((positions * spec.n_cells).astype(np.int64), 0, spec.n_cells - 1)
        traces = [GridTrace(f"syn_{i}", cells[i], timestamps) for i in range(n_traces)]
        return Corpus(spec=spec, traces=traces, sampling_period=self.sampling_period)

    def to_payload(self) -> dict:
        vp = self.vine.to_payload()
        return {
            "window": self.window,
            "var_names": vp["var_names"],
            "margins": [dataio.encode_array(m) for m in vp["margins"]],
            "trees": [
                [
                    None if e is None else {
                        "scores": dataio.encode_array(e["scores"]),
                        "bandwidth": e["bandwidth"],
                    }
                    for e in level
                ]
                for level in vp["trees"]
            ],
            "start_windows": dataio.encode_array(self.start_windows),
        }

    @classmethod
    def from_payload(cls, spec, sampling_period, payload) -> "VineGenerator":
        margins = [copula.EmpiricalMargin(dataio.decode_array(m)) for m in payload["margins"]]
        trees = [
            [
                None if e is None else copula.KernelPairCopula(
                    dataio.decode_array(e["scores"]), e["bandwidth"])
                for e in level
            ]
            for level in payload["trees"]
        ]
        vine = copula.VineModel(margins, trees, window=payload["window"],
                                var_names=payload["var_names"])
        return cls(spec, sampling_period, payload["window"], vine,
                   dataio.decode_array(payload["start_windows"]))


def generator_from_payload(model_type, spec, sampling_period, payload) -> Generator:
    if model_type == "markov":
        return MarkovGenerator.from_payload(spec, sampling_period, payload)
    if model_type == "vine":
        return VineGenerator.from_payload(spec, sampling_period, payload)
    raise IncompatibilityError(f"unknown model_type {model_type!r}")
