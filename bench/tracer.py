"""Spans and counts around the public entry points of each mobsynth module.

Used only by the traced run (``--trace 1``).  ``install_entry_points``
replaces each entry point with a wrapper that records a span (name, start,
end, parent) and returns a function that puts the originals back.  Spans and
counts stay in memory and are written out when the run ends.  ``geogrid``
encode/decode run once per point, so they are aggregated (time and calls)
instead of kept as single spans; their time still counts as child time of
the span that called them.  An entry point that no longer exists is
reported as missing and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("geogrid", "dataio", "copula", "generators", "metrics", "privacy", "cli")


def _arg(a, k, i, name):
    return k[name] if name in k else a[i]


def _rows(i, name):
    return lambda a, k, r: {"rows": np.size(_arg(a, k, i, name))}


def _steps(a, k, r):
    return {"steps": _arg(a, k, 1, "n_traces") * _arg(a, k, 2, "trace_len")}


# (module, attribute path, counter or None); geogrid leaves are aggregated
ENTRY_POINTS = (
    ("geogrid", "encode", None),
    ("geogrid", "decode", None),
    ("dataio", "ingest", lambda a, k, r: {"points": r.n_points()}),
    ("dataio", "load_corpus", None),
    ("dataio", "save_corpus", None),
    ("dataio", "save_model", None),
    ("dataio", "load_model", None),
    ("dataio", "simulate_ground_truth", None),
    ("copula", "KernelPairCopula.h_u_given_v", _rows(1, "u")),
    ("copula", "KernelPairCopula.h_v_given_u", _rows(1, "v")),
    ("copula", "KernelPairCopula.sample_v_given_u", _rows(1, "q")),
    ("copula", "KernelPairCopula.sample_u_given_v", _rows(1, "q")),
    ("copula", "vine_fit", None),
    ("copula", "VineModel.conditional_sample", None),
    ("generators", "VineGenerator.fit", None),
    ("generators", "VineGenerator.generate", _steps),
    ("generators", "MarkovGenerator.fit", None),
    ("generators", "MarkovGenerator.generate", _steps),
    ("generators", "MarkovGenerator.transition_matrix", None),
    ("metrics", "topn_report", None),
    ("metrics", "mmd_test", lambda a, k, r: {"permutations": r.n_permutations}),
    ("metrics", "mi_decay", None),
    ("privacy", "run_sequence_attack", None),
    ("privacy", "sequence_attack", lambda a, k, r: {
        "hidden": sum(int(o.hidden_mask.sum()) for o in _arg(a, k, 1, "obfuscated")),
        "alphabet": _arg(a, k, 2, "prior").alphabet.size}),
    ("privacy", "membership_attack", None),
    ("privacy", "membership_scores", lambda a, k, r: {
        "pairs": len(_arg(a, k, 0, "syn").traces) * len(_arg(a, k, 1, "targets"))}),
)
LEAVES = ("geogrid.encode", "geogrid.decode")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent span index or -1]
        self._stack = []       # [span index, seconds covered by child spans]
        self.rounds = []       # (kind, totals, selfs, counts) per round
        self.missing = []
        self.reset()

    def reset(self):
        self.totals = defaultdict(float)   # inclusive seconds per entry point
        self.selfs = defaultdict(float)    # seconds minus child spans
        self.counts = defaultdict(float)

    def enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def exit(self, name):
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        seconds = span[2] - span[1]
        self.totals[name] += seconds
        self.selfs[name] += seconds - child
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += seconds

    def leaf(self, name, seconds):
        self.totals[name] += seconds
        self.selfs[name] += seconds
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += seconds

    @contextlib.contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit(name)

    def end_round(self, kind):
        self.rounds.append((kind, dict(self.totals), dict(self.selfs), dict(self.counts)))
        self.reset()

    def per_layer_metrics(self, round_times, untraced) -> dict:
        """Medians over the traced pipeline rounds (setup rounds for simulate)."""
        pipe = [r for r in self.rounds if r[0] == "pipeline"]
        setup = [r for r in self.rounds if r[0] == "setup"]

        def med(fn, rounds=pipe):
            return float(statistics.median(fn(*r[1:]) for r in rounds))

        def tot(*names):
            return lambda t, s, c: sum(t.get(n, 0.0) for n in names)

        def slf(name):
            return lambda t, s, c: s.get(name, 0.0)

        def cnt(*names):
            return lambda t, s, c: sum(c.get(n, 0.0) for n in names)

        def per_row(time_fn, rows_fn):
            return lambda t, s, c: (1e6 * time_fn(t, s, c) / rows_fn(t, s, c)
                                    if rows_fn(t, s, c) else 0.0)

        h = ("copula.KernelPairCopula.h_u_given_v", "copula.KernelPairCopula.h_v_given_u")
        smp = ("copula.KernelPairCopula.sample_v_given_u",
               "copula.KernelPairCopula.sample_u_given_v")
        gen = ("generators.VineGenerator.generate", "generators.MarkovGenerator.generate")
        seq = "privacy.sequence_attack"
        m = {
            "copula.h_s": (med(tot(*h)), "s"),
            "copula.h_calls": (med(cnt(*(n + ".calls" for n in h))), "count"),
            "copula.h_rows": (med(cnt(*(n + ".rows" for n in h))), "count"),
            "copula.h_us_per_row": (med(per_row(tot(*h), cnt(*(n + ".rows" for n in h)))), "us"),
            "copula.sample_s": (med(tot(*smp)), "s"),
            "copula.sample_calls": (med(cnt(*(n + ".calls" for n in smp))), "count"),
            "copula.sample_rows": (med(cnt(*(n + ".rows" for n in smp))), "count"),
            "copula.sample_us_per_row": (
                med(per_row(tot(*smp), cnt(*(n + ".rows" for n in smp)))), "us"),
            "copula.vine_fit_s": (med(tot("copula.vine_fit")), "s"),
            "copula.conditional_sample_s": (
                med(tot("copula.VineModel.conditional_sample")), "s"),
            "generators.vine_fit_s": (med(slf("generators.VineGenerator.fit")), "s"),
            "generators.vine_generate_s": (
                med(slf("generators.VineGenerator.generate")), "s"),
            "generators.steps_generated": (med(cnt(*(n + ".steps" for n in gen))), "count"),
            "generators.markov_fit_s": (med(tot("generators.MarkovGenerator.fit")), "s"),
            "generators.markov_fit_calls": (
                med(cnt("generators.MarkovGenerator.fit.calls")), "count"),
            "generators.markov_generate_s": (
                med(tot("generators.MarkovGenerator.generate")), "s"),
            "generators.transition_matrix_s": (
                med(tot("generators.MarkovGenerator.transition_matrix")), "s"),
            "generators.transition_matrix_calls": (
                med(cnt("generators.MarkovGenerator.transition_matrix.calls")), "count"),
            "privacy.sequence_attack_s": (med(slf(seq)), "s"),
            "privacy.hidden_points": (med(cnt(seq + ".hidden")), "count"),
            "privacy.alphabet_size": (med(lambda t, s, c: c.get(seq + ".alphabet", 0.0)
                                          / max(c.get(seq + ".calls", 0.0), 1.0)), "count"),
            "privacy.membership_s": (med(tot("privacy.membership_scores")), "s"),
            "privacy.membership_pairs": (med(cnt("privacy.membership_scores.pairs")), "count"),
            "metrics.topn_s": (med(tot("metrics.topn_report")), "s"),
            "metrics.mmd_s": (med(tot("metrics.mmd_test")), "s"),
            "metrics.mmd_permutations": (med(cnt("metrics.mmd_test.permutations")), "count"),
            "metrics.mi_decay_s": (med(tot("metrics.mi_decay")), "s"),
            "dataio.ingest_s": (med(slf("dataio.ingest")), "s"),
            "dataio.points_ingested": (med(cnt("dataio.ingest.points")), "count"),
            "geogrid.encode_s": (med(tot("geogrid.encode")), "s"),
            "geogrid.encode_calls": (med(cnt("geogrid.encode.calls")), "count"),
            "dataio.load_corpus_s": (med(tot("dataio.load_corpus")), "s"),
            "dataio.save_corpus_s": (med(tot("dataio.save_corpus")), "s"),
            "geogrid.decode_s": (med(tot("geogrid.decode")), "s"),
            "geogrid.decode_calls": (med(cnt("geogrid.decode.calls")), "count"),
            "dataio.save_model_s": (med(tot("dataio.save_model")), "s"),
            "dataio.load_model_s": (med(tot("dataio.load_model")), "s"),
            "dataio.simulate_s": (med(tot("dataio.simulate_ground_truth"), setup), "s"),
            "cli.self_s": (med(slf("cli.main")), "s"),
        }
        for mod in MODULES:
            if mod != "cli":
                m[f"{mod}.self_s"] = (med(lambda t, s, c, mod=mod: sum(
                    v for k, v in s.items() if k.split(".")[0] == mod)), "s")
        for stage in round_times[0]:
            m[f"cli.{stage}_s"] = (statistics.median(r[stage] for r in round_times), "s")
        walls = [sum(r.values()) for r in round_times]
        traced = statistics.median(walls)
        base = sum(untraced.values())
        accounted = statistics.median(sum(r[2].values()) / t for r, t in zip(pipe, walls))
        m["trace.pipeline_s"] = (traced, "s")
        m["trace.untraced_pipeline_s"] = (base, "s")
        m["trace.overhead_pct"] = (100.0 * (traced / base - 1.0), "%")
        leaf_cost, span_cost = _wrapper_costs()
        spans = med(lambda t, s, c: sum(v for k, v in c.items() if k.endswith(".calls")
                                        and k[:-len(".calls")] not in LEAVES))
        leaf_calls = med(cnt(*(n + ".calls" for n in LEAVES)))
        m["trace.overhead_est_pct"] = (
            100.0 * (leaf_calls * leaf_cost + spans * span_cost) / base, "%")
        m["trace.accounted_pct"] = (100.0 * accounted, "%")
        m["trace.spans_per_round"] = (spans, "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write(self, path, metrics) -> None:
        payload = {"missing": self.missing, "metrics": metrics,
                   "rounds": [{"kind": k, "totals": t, "self": s, "counts": c}
                              for k, t, s, c in self.rounds],
                   "spans": self.spans}
        path.write_text(json.dumps(payload) + "\n")


def _wrapper_costs(n=50_000):
    """Seconds that one aggregated leaf call and one span add to a no-op."""
    def noop(x):
        return x

    tracer = Tracer()
    costs = []
    for fn in (noop, _wrapped(noop, LEAVES[0], tracer, None),
               _wrapped(noop, "noop", tracer, None)):
        t0 = time.perf_counter()
        for i in range(n):
            fn(i)
        costs.append((time.perf_counter() - t0) / n)
    return costs[1] - costs[0], costs[2] - costs[0]


def install_entry_points(tracer: Tracer):
    """Wrap every entry point; returns a function that restores them."""
    undo = []
    for module, path, counter in ENTRY_POINTS:
        name = f"{module}.{path}"
        owner = importlib.import_module(f"mobsynth.{module}")
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            if name not in tracer.missing:
                tracer.missing.append(name)
                print(f"bench: entry point {name} is missing", file=sys.stderr)
            continue
        undo.append((owner, attr, raw))
        setattr(owner, attr, _wrapped(raw, name, tracer, counter))

    def restore():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
    return restore


def _wrapped(raw, name, tracer, counter):
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrapped(raw.__func__, name, tracer, counter))
    fn = raw
    if name in LEAVES:
        @functools.wraps(fn)
        def leaf(*a, **k):
            t0 = time.perf_counter()
            result = fn(*a, **k)
            tracer.leaf(name, time.perf_counter() - t0)
            return result
        return leaf

    @functools.wraps(fn)
    def spanned(*a, **k):
        tracer.enter(name)
        try:
            result = fn(*a, **k)
        finally:
            tracer.exit(name)
        if counter is not None:
            for key, value in counter(a, k, result).items():
                tracer.counts[f"{name}.{key}"] += value
        return result
    return spanned
