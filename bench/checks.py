"""Correctness checks on one round's outputs, run outside the timed region.

Each check compares an output with a computation made here from the
simulator's ground truth and the method's definition, or with a property
the method must have.  None compares with stored output.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.spatial.distance import cdist

from mobsynth import generators, privacy
from mobsynth.dataio import Corpus, GridTrace
from workloads import PERIOD, SPEC, cell_rows_cols

TOPN = 50                 # the CLI's evaluate --topn default
P_HIDE = 0.3              # the CLI's --p-hide default
GATE2_TV = 0.15           # acceptance gate 2: top-N TV of the vine generator
VITERBI_TRACES = 3        # targets whose hidden segments are decoded twice
TOL = 1e-9


def run_all(w, inputs, workdir) -> dict:
    """{check name: (passed, detail)} for the outputs under ``workdir``."""
    train_cells = np.unique(np.concatenate([t.cells for t in inputs.train.traces]))
    report = json.loads((workdir / "report" / "report.json").read_text())
    priv = json.loads((workdir / "priv.json").read_text())["privacy"]
    ingested = read_corpus_csv(workdir / "train.csv", train_cells)
    syn = read_corpus_csv(workdir / "syn.csv", train_cells)
    real = cells_of(inputs.train)
    syn_cells = [c for _, _, c in syn.values()]
    out = {
        "ingest_matches_simulator": check_ingest(inputs.train, ingested),
        "synthetic_shape_and_support": check_synthetic(w, syn),
        "topn_matches_run_count": check_topn(report["topn"], real, syn_cells),
        "mmd_matches_u_statistic": check_mmd(report["mmd"], w, real, syn_cells),
        "membership_matches_min_tv": check_membership(
            workdir / "priv_scores.csv", inputs, syn_cells),
        "sequence_attack_beats_random": (
            priv["sequence_attack_accuracy"] > priv["random_baseline_sequence"]
            and report["privacy"]["sequence_attack_accuracy"]
            > report["privacy"]["random_baseline_sequence"],
            f"attack {priv['sequence_attack_accuracy']:.4f} vs "
            f"{priv['random_baseline_sequence']:.5f}, evaluate "
            f"{report['privacy']['sequence_attack_accuracy']:.4f}"),
        "viterbi_is_optimal": check_viterbi(syn, inputs),
    }
    if w.model_type == "vine":
        tv = topn_stats(cells_of(inputs.held), syn_cells)[3]
        out["heldout_topn_tv_below_gate2"] = (tv < GATE2_TV, f"tv={tv:.4f}")
    return out


def cells_of(corpus):
    return [t.cells for t in corpus.traces]


def read_corpus_csv(path, known_cells):
    """{user_id: (timestamps, lat/lon centers, cells)}; cell -1 marks a point
    at no known cell's center."""
    rows, cols = cell_rows_cols(known_cells, SPEC.level)
    centers = {key: int(c) for key, c in zip(
        zip(np.round(SPEC.lat_min + (rows + 0.5) * SPEC.cell_height, 9),
            np.round(SPEC.lon_min + (cols + 0.5) * SPEC.cell_width, 9)), known_cells)}
    per_user = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for user, ts, lat, lon in reader:
            per_user.setdefault(user, []).append((int(ts), float(lat), float(lon)))
    out = {}
    for user, pts in per_user.items():
        arr = np.array(pts)
        ll = arr[:, 1:]
        cells = np.array([centers.get(k, -1) for k in
                          zip(np.round(ll[:, 0], 9), np.round(ll[:, 1], 9))])
        out[user] = (arr[:, 0].astype(np.int64), ll, cells)
    return out


def check_ingest(train, ingested):
    if set(ingested) != {t.user_id for t in train.traces}:
        return False, f"users {sorted(ingested)[:5]}... differ from the simulator's"
    for t in train.traces:
        ts, ll, cells = ingested[t.user_id]
        rows, cols = cell_rows_cols(t.cells, SPEC.level)
        lat = SPEC.lat_min + (rows + 0.5) * SPEC.cell_height
        lon = SPEC.lon_min + (cols + 0.5) * SPEC.cell_width
        if not (np.array_equal(ts, t.timestamps) and np.array_equal(cells, t.cells)
                and np.allclose(ll[:, 0], lat, rtol=0, atol=TOL)
                and np.allclose(ll[:, 1], lon, rtol=0, atol=TOL)):
            return False, f"user {t.user_id} differs from the simulator"
    return True, f"{len(train.traces)} users, {train.n_points()} points equal"


def check_synthetic(w, syn):
    grid = PERIOD * np.arange(w.gen_steps, dtype=np.int64)
    if len(syn) != w.gen_traces:
        return False, f"{len(syn)} traces, expected {w.gen_traces}"
    for user, (ts, _, cells) in syn.items():
        if not np.array_equal(ts, grid):
            return False, f"{user}: timestamps are not the regular grid"
        if np.any(cells < 0):
            return False, f"{user}: cells outside the training corpus"
    return True, f"{w.gen_traces} x {w.gen_steps}, all cells seen in training"


def run_cells(cells: np.ndarray) -> np.ndarray:
    return cells[np.concatenate([[True], cells[1:] != cells[:-1]])]


def topn_stats(real, syn, n=TOPN):
    """Top-n cells by real run count, their run probabilities and the TV."""
    real_runs = np.concatenate([run_cells(c) for c in real])
    syn_runs = np.concatenate([run_cells(c) for c in syn])
    cells, counts = np.unique(real_runs, return_counts=True)
    order = np.lexsort((cells, -counts))[:min(n, cells.size)]
    top = cells[order]
    real_p = counts[order] / real_runs.size
    s_cells, s_counts = np.unique(syn_runs, return_counts=True)
    hit = np.isin(top, s_cells)
    syn_p = np.zeros(top.size)
    syn_p[hit] = s_counts[np.searchsorted(s_cells, top[hit])] / syn_runs.size
    return top, real_p, syn_p, 0.5 * float(np.abs(real_p - syn_p).sum())


def check_topn(block, real, syn):
    top, real_p, syn_p, tv = topn_stats(real, syn)
    ok = (block["cells"] == top.tolist()
          and np.allclose(block["real_probs"], real_p, rtol=0, atol=1e-12)
          and np.allclose(block["syn_probs"], syn_p, rtol=0, atol=1e-12)
          and abs(block["tv_visit"] - tv) < 1e-12)
    return ok, f"n={top.size} tv_visit={block['tv_visit']:.6f} vs {tv:.6f}"


def check_mmd(block, w, real, syn):
    length = min(min(c.size for c in real), min(c.size for c in syn))
    x = np.stack([(c[:length] + 0.5) / SPEC.n_cells for c in real])
    y = np.stack([(c[:length] + 0.5) / SPEC.n_cells for c in syn])
    sigma = block["sigma"]

    def k(a, b):
        return np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * sigma * sigma))

    n, m = len(x), len(y)
    kxx, kyy = k(x, x), k(y, y)
    u = ((kxx.sum() - np.trace(kxx)) / (n * (n - 1))
         + (kyy.sum() - np.trace(kyy)) / (m * (m - 1)) - 2.0 * k(x, y).mean())
    p = block["p_value"]
    perms = block["n_permutations"]
    ok = (abs(block["mmd2_unbiased"] - u) <= 1e-8 * max(1.0, abs(u))
          and perms == w.n_permutations and 1.0 / (perms + 1) <= p <= 1.0)
    return ok, f"mmd2_unbiased={block['mmd2_unbiased']:.6g} vs {u:.6g}, p={p:.4f}"


def visit_freqs(traces, index):
    out = np.zeros((len(traces), len(index)))
    for i, cells in enumerate(traces):
        runs = run_cells(cells)
        np.add.at(out[i], [index[int(c)] for c in runs], 1.0 / runs.size)
    return out


def check_membership(path, inputs, syn):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {(int(r["is_member"]), int(r["target_index"])): float(r["score"]) for r in rows}
    members = [t.cells for t in inputs.members]
    nonmembers = [t.cells for t in inputs.nonmembers]
    alphabet = np.unique(np.concatenate(members + nonmembers + syn))
    index = {int(c): i for i, c in enumerate(alphabet)}
    f_syn = visit_freqs(syn, index)
    worst = 0.0
    for flag, targets in ((1, members), (0, nonmembers)):
        want = 0.5 * cdist(visit_freqs(targets, index), f_syn, "cityblock").min(axis=1)
        for i, s in enumerate(want):
            if (flag, i) not in got:
                return False, f"no score for target {flag}/{i}"
            worst = max(worst, abs(got[(flag, i)] - s))
    n = len(members) + len(nonmembers)
    ok = len(got) == n and worst < 1e-12
    return ok, f"{n} targets x {len(syn)} synthetic traces, max |diff|={worst:.2e}"


class DenseLogPrior:
    """Order-1 prior from its definition: per hour bucket, counts + alpha
    smoothed, backing off to the bucket's order-0 counts for an unseen
    context and to the global counts for an unseen bucket."""

    def __init__(self, syn_cells, alpha=0.01, buckets=24):
        self.alphabet = np.unique(np.concatenate(syn_cells))
        v = self.v = self.alphabet.size
        self.alpha, self.buckets = alpha, buckets
        self.c1 = {}
        self.c0 = np.zeros((buckets, v))
        self.glob = np.zeros(v)
        for cells in syn_cells:
            sym = np.searchsorted(self.alphabet, cells)
            b = self.bucket(PERIOD * np.arange(sym.size))
            np.add.at(self.glob, sym, 1.0)
            np.add.at(self.c0, (b[1:], sym[1:]), 1.0)
            for bb, i, j in zip(b[1:], sym[:-1], sym[1:]):
                self.c1.setdefault(int(bb), {}).setdefault(int(i), np.zeros(v))[j] += 1.0
        self._cache = {}

    def bucket(self, ts):
        return np.minimum((ts % 86400) // (86400 // self.buckets), self.buckets - 1)

    def _smooth(self, c):
        return np.log((c + self.alpha) / (c.sum() + self.alpha * self.v))

    def log_init(self, b):
        c = self.c0[b] if self.c0[b].sum() > 0 else self.glob
        return self._smooth(c)

    def log_trans(self, b):
        if b not in self._cache:
            if len(self._cache) > 4:
                self._cache.clear()
            fallback = self.log_init(b)
            rows = self.c1.get(b, {})
            self._cache[b] = np.stack([self._smooth(rows[i]) if i in rows else fallback
                                       for i in range(self.v)])
        return self._cache[b]

    def path_score(self, states, b, left):
        if np.any(states < 0):
            return -np.inf
        s = self.log_init(b[0])[states[0]] if left is None else \
            self.log_trans(b[0])[left, states[0]]
        for t in range(1, states.size):
            s += self.log_trans(b[t])[states[t - 1], states[t]]
        return s

    def best_score(self, b, left, right, b_right):
        score = self.log_init(b[0]) if left is None else self.log_trans(b[0])[left].copy()
        for t in range(1, b.size):
            score = np.max(score[:, None] + self.log_trans(b[t]), axis=0)
        if right is not None:
            score = score + self.log_trans(b_right)[:, right]
        return float(np.max(score))


def check_viterbi(syn, inputs):
    """Decode hidden segments of a few targets with the program's attack and
    score each decoded path under a prior built here from its definition:
    it must be optimal, hence no worse than the true path."""
    syn_cells = [c for _, _, c in syn.values()]
    dense = DenseLogPrior(syn_cells)
    prior = generators.MarkovGenerator.fit(
        _corpus_of(syn, inputs.train.spec), order=1, time_buckets=24)
    rng = np.random.default_rng(7)
    segments = worse = not_optimal = 0
    for trace in (inputs.members + inputs.nonmembers)[:VITERBI_TRACES]:
        obf = privacy.hide_locations(trace, P_HIDE, rng)
        decoded = privacy.reconstruct_trace(obf, prior)
        n = len(trace)
        idx = {int(c): i for i, c in enumerate(dense.alphabet)}
        known = np.array([-1 if obf.hidden_mask[i] else idx.get(int(obf.cells[i]), -1)
                          for i in range(n)])
        b = dense.bucket(trace.timestamps)
        i = 0
        while i < n:
            if known[i] >= 0:
                i += 1
                continue
            j = i
            while j < n and known[j] < 0:
                j += 1
            left = int(known[i - 1]) if i > 0 else None
            right = int(known[j]) if j < n else None
            b_right = int(b[j]) if j < n else None
            got = _score(dense, decoded[i:j], idx, b[i:j], left, right, b_right)
            true = _score(dense, trace.cells[i:j], idx, b[i:j], left, right, b_right)
            best = dense.best_score(b[i:j], left, right, b_right)
            segments += 1
            worse += got < true - TOL
            not_optimal += abs(got - best) > TOL * max(1.0, abs(best))
            i = j
    ok = segments > 0 and worse == 0 and not_optimal == 0
    return ok, (f"{segments} segments at V={dense.v}: {worse} below the true path, "
                f"{not_optimal} off the dense optimum")


def _score(dense, cells, idx, b, left, right, b_right):
    states = np.array([idx.get(int(c), -1) for c in cells])
    s = dense.path_score(states, b, left)
    if right is not None and np.isfinite(s):
        s += dense.log_trans(b_right)[states[-1], right]
    return s


def _corpus_of(syn, spec):
    traces = [GridTrace(u, cells, ts) for u, (ts, _, cells) in syn.items()]
    return Corpus(spec=spec, traces=traces, sampling_period=PERIOD)
