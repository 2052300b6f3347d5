"""Privacy-leakage battery: location hiding, Viterbi sequence reconstruction
against a Markov prior, and nearest-trace membership inference.

The adversary prior is meant to be trained on the *published* synthetic
corpus: the attacks measure what the released data alone leaks about the
individuals behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .dataio import Corpus, GridTrace
from .errors import DomainError
from .generators import MarkovGenerator, _bucket_of
from .metrics import corpus_runs

HIDDEN = -1


@dataclass
class ObfuscatedTrace:
    """Trace with independently suppressed points; HIDDEN marks suppressed cells."""

    user_id: str
    cells: np.ndarray          # observed cell id, or HIDDEN
    timestamps: np.ndarray
    hidden_mask: np.ndarray

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.hidden_mask = np.asarray(self.hidden_mask, dtype=bool)
        if not np.array_equal(self.hidden_mask, self.cells == HIDDEN):
            raise DomainError("hidden_mask must mark exactly the HIDDEN entries")


def check_p_hide(p_hide: float) -> None:
    """A hiding probability outside [0, 1], or NaN, is a DomainError."""
    if not 0.0 <= p_hide <= 1.0:
        raise DomainError(f"p_hide must lie in [0, 1], got {p_hide}")


def hide_locations(trace: GridTrace, p_hide: float, rng) -> ObfuscatedTrace:
    """Replace each point by HIDDEN independently with probability p_hide."""
    check_p_hide(p_hide)
    mask = rng.uniform(size=len(trace)) < p_hide
    cells = np.where(mask, HIDDEN, trace.cells)
    return ObfuscatedTrace(trace.user_id, cells, trace.timestamps.copy(), mask)


# ---------------------------------------------------------------------------
# sequence reconstruction attack
# ---------------------------------------------------------------------------

class _ViterbiPrior:
    """Log-space order-1 reduction of a Markov prior, one sparse view per
    time bucket, built on first use."""

    def __init__(self, prior: MarkovGenerator):
        self.prior = prior
        self.alphabet = prior.alphabet
        self._views: dict[int, _BucketView] = {}

    def view(self, bucket: int) -> "_BucketView":
        if bucket not in self._views:
            self._views[bucket] = _BucketView(self.prior, bucket)
        return self._views[bucket]


class _BucketView:
    """log P(j | i) of one time bucket in O(nnz + V) memory.

    Row i of the dense matrix is ``log_seen`` at the observed (i, j) rows
    and ``log_floor[i]`` elsewhere when i is a context seen in the bucket,
    and ``log_p0``, the log start distribution, when it is not.  Every
    value is the one ``np.log(prior.transition_matrix(bucket))`` holds.
    """

    def __init__(self, prior: MarkovGenerator, bucket: int):
        self.log_p0 = np.log(prior.stationary_distribution(bucket))
        self.seen, floor, ctx, self.next, p = prior.sparse_transitions(bucket)
        self.log_floor, self.log_seen = np.log(floor), np.log(p)
        self.unseen = np.setdiff1d(np.arange(self.log_p0.size), self.seen)
        # rows of seen[k] are [row_bounds[k], row_bounds[k + 1])
        self.row_bounds = np.searchsorted(ctx, np.append(self.seen, self.log_p0.size))
        # the same rows sorted by (next, context): one group per column
        by_col = np.lexsort((ctx, self.next))
        self.col_ctx, self.col_log = ctx[by_col], self.log_seen[by_col]
        self.cols, self.col_starts = np.unique(self.next[by_col], return_index=True)
        self.col_bounds = np.append(self.col_starts, ctx.size)
        # no log value is positive, so this is the largest |log_p0|
        self.p0_span = -float(self.log_p0.min())

    def row(self, i: int) -> np.ndarray:
        k = np.searchsorted(self.seen, i)
        if k == self.seen.size or self.seen[k] != i:
            return self.log_p0
        out = np.full(self.log_p0.size, self.log_floor[k])
        lo, hi = self.row_bounds[k], self.row_bounds[k + 1]
        out[self.next[lo:hi]] = self.log_seen[lo:hi]
        return out

    def column(self, j: int) -> np.ndarray:
        out = np.full(self.log_p0.size, self.log_p0[j])
        out[self.seen] = self.log_floor
        k = np.searchsorted(self.cols, j)
        if k < self.cols.size and self.cols[k] == j:
            lo, hi = self.col_bounds[k], self.col_bounds[k + 1]
            out[self.col_ctx[lo:hi]] = self.col_log[lo:hi]
        return out

    def step(self, score: np.ndarray, back: np.ndarray) -> np.ndarray:
        """max_i (score_i + log P(j | i)) for every j, with the lowest
        maximizing i written to ``back``, as a dense column argmax finds it."""
        v = score.size
        best = np.full(v, -np.inf)
        back[:] = 0
        if self.unseen.size:
            # every unseen i adds the same log_p0[j], and rounding is
            # monotone, so the largest score attains each column's max ...
            s = score[self.unseen]
            k = int(np.argmax(s))
            best = s[k] + self.log_p0
            back[:] = self.unseen[k]
            # ... and a lower i with a score a few ulps below it can tie
            tol = 4 * np.finfo(float).eps * (abs(s[k]) + self.p0_span)
            for i in self.unseen[:k][s[:k] >= s[k] - tol][::-1]:
                back[score[i] + self.log_p0 == best] = i
        if self.seen.size:
            # the floor: a seen row's observed entries exceed its floor, so
            # the best floor only counts in the columns its row leaves empty
            floor = score[self.seen] + self.log_floor
            k = int(np.argmax(floor))
            off = np.ones(v, dtype=bool)
            off[self.next[self.row_bounds[k]:self.row_bounds[k + 1]]] = False
            _merge(best, back, np.flatnonzero(off), floor[k], self.seen[k])
            # the observed rows, reduced per column; lowest context on ties
            vals = score[self.col_ctx] + self.col_log
            top = np.maximum.reduceat(vals, self.col_starts)
            hit = vals == np.repeat(top, np.diff(self.col_bounds))
            arg = np.minimum.reduceat(np.where(hit, self.col_ctx, v), self.col_starts)
            _merge(best, back, self.cols, top, arg)
        return best


def _merge(best, back, cols, val, arg) -> None:
    """Take (val, arg) in ``cols`` where it beats (best, back): a larger
    value, or an equal one from a lower index."""
    cur = best[cols]
    take = (val > cur) | ((val == cur) & (arg < back[cols]))
    best[cols] = np.where(take, val, cur)
    back[cols] = np.where(take, arg, back[cols])


def reconstruct_trace(obf: ObfuscatedTrace, prior: MarkovGenerator) -> np.ndarray:
    """Most probable completion of the hidden cells under the prior.

    Viterbi runs only over maximal hidden segments; observed points pin the
    state (observed cells unknown to the prior leave the step unconstrained).
    """
    vp = _ViterbiPrior(prior)
    return _reconstruct(obf, vp)


def _reconstruct(obf: ObfuscatedTrace, vp: _ViterbiPrior) -> np.ndarray:
    n = len(obf.cells)
    buckets = _bucket_of(obf.timestamps, vp.prior.time_buckets)
    # pinned state index, -1 = free: hidden, or a cell the prior does not know
    known = np.minimum(np.searchsorted(vp.alphabet, obf.cells), vp.alphabet.size - 1)
    known[obf.hidden_mask | (vp.alphabet[known] != obf.cells)] = -1

    out = obf.cells.copy()
    i = 0
    while i < n:
        if known[i] >= 0:
            i += 1
            continue
        j = i
        while j < n and known[j] < 0:
            j += 1
        # decode segment [i, j) with anchors at i-1 and j when pinned
        states = _viterbi_segment(vp, buckets, i, j,
                                  left=known[i - 1] if i > 0 and known[i - 1] >= 0 else None,
                                  right=known[j] if j < n else None)
        out[i:j] = vp.alphabet[states]
        i = j
    return out


def _viterbi_segment(vp: _ViterbiPrior, buckets, i, j, left, right) -> np.ndarray:
    v = vp.alphabet.size
    length = j - i
    first = vp.view(int(buckets[i]))
    score = first.log_p0 if left is None else first.row(left)
    back = np.empty((length, v), dtype=np.int64)
    for t in range(1, length):
        score = vp.view(int(buckets[i + t])).step(score, back[t])
    if right is not None:
        # one more transition into the pinned right anchor
        final = score + vp.view(int(buckets[j])).column(right)
    else:
        final = score
    states = np.empty(length, dtype=np.int64)
    states[-1] = int(np.argmax(final))
    for t in range(length - 1, 0, -1):
        states[t - 1] = back[t, states[t]]
    return states


def sequence_attack(truth: Corpus, obfuscated: list[ObfuscatedTrace],
                    prior: MarkovGenerator) -> float:
    """Fraction of hidden cells recovered exactly; traces without hidden
    points are excluded."""
    if len(truth.traces) != len(obfuscated):
        raise DomainError("truth corpus and obfuscated list must align")
    vp = _ViterbiPrior(prior)
    correct = 0
    total = 0
    for trace, obf in zip(truth.traces, obfuscated):
        if not obf.hidden_mask.any():
            continue
        recovered = _reconstruct(obf, vp)
        mask = obf.hidden_mask
        correct += int(np.sum(recovered[mask] == trace.cells[mask]))
        total += int(mask.sum())
    if total == 0:
        raise DomainError("nothing to attack: no hidden points in the corpus")
    return correct / total


def run_sequence_attack(truth: Corpus, prior: MarkovGenerator, p_hide: float,
                        rng) -> float:
    """Hide-then-reconstruct convenience wrapper."""
    obfuscated = [hide_locations(t, p_hide, rng) for t in truth.traces]
    return sequence_attack(truth, obfuscated, prior)


# ---------------------------------------------------------------------------
# membership inference attack
# ---------------------------------------------------------------------------

def _run_counts(traces: list[GridTrace], cells: np.ndarray) -> sparse.csr_matrix:
    """Sparse (traces x cells) matrix of each trace's visit (run) counts per
    cell; ``cells`` ascends and holds every cell the traces visit."""
    trace_of_run, run_cells, _, _ = corpus_runs(traces)
    return sparse.coo_matrix((np.ones(run_cells.size, dtype=np.int64),
                              (trace_of_run, np.searchsorted(cells, run_cells))),
                             shape=(len(traces), cells.size)).tocsr()


def membership_scores(syn: Corpus, targets: list[GridTrace]) -> np.ndarray:
    """Min over synthetic traces of the TV distance between visit (run)
    frequencies.

    For a target with counts a (total A) and a synthetic trace with counts
    b (total B), 2AB TV = sum over the target's cells of |a B - b A|, plus
    A times the synthetic runs off those cells.  That integer is exact, so
    each target reads only its own cells' synthetic columns, and equal
    distances give equal scores.
    """
    cells = np.unique(np.concatenate([t.cells for t in syn.traces + targets]))
    q = _run_counts(syn.traces, cells).tocsc()
    q_runs = np.asarray(q.sum(axis=1)).ravel()
    p = _run_counts(targets, cells)
    scores = np.empty(len(targets))
    for i in range(len(targets)):
        support = slice(p.indptr[i], p.indptr[i + 1])
        a = p.data[support]
        a_runs = a.sum()
        q_supp = q[:, p.indices[support]].toarray()
        scaled = (np.abs(np.outer(q_runs, a) - q_supp * a_runs).sum(axis=1)
                  + (q_runs - q_supp.sum(axis=1)) * a_runs)
        scores[i] = np.min(scaled / (2.0 * a_runs * q_runs))
    return scores


@dataclass
class MembershipResult:
    accuracy: float
    auc: float
    threshold: float
    member_scores: np.ndarray = field(default_factory=lambda: np.empty(0))
    nonmember_scores: np.ndarray = field(default_factory=lambda: np.empty(0))

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "auc": self.auc, "threshold": self.threshold}


def _auc_lower_is_member(member: np.ndarray, nonmember: np.ndarray) -> float:
    """Mann-Whitney AUC of the rule 'member iff score is small'."""
    ranked = np.sort(nonmember)
    below = np.searchsorted(ranked, member, side="left")
    upto = np.searchsorted(ranked, member, side="right")
    # a member score wins against each larger non-member score, half against a tie
    half_wins = int(np.sum(2 * ranked.size - below - upto))
    return float(half_wins / 2.0 / (member.size * nonmember.size))


def membership_attack(syn: Corpus, members: list[GridTrace],
                      nonmembers: list[GridTrace], rng,
                      calibration_fraction: float = 0.2) -> MembershipResult:
    """Threshold the nearest-synthetic-trace distance; the threshold is tuned
    on a held-out calibration split, accuracy and AUC reported on the rest."""
    if not members or not nonmembers:
        raise DomainError("need non-empty member and non-member sets")
    m_scores = membership_scores(syn, members)
    n_scores = membership_scores(syn, nonmembers)

    def _split(scores):
        k = max(1, int(round(calibration_fraction * scores.size)))
        perm = rng.permutation(scores.size)
        return scores[perm[:k]], scores[perm[k:]]

    m_cal, m_eval = _split(m_scores)
    n_cal, n_eval = _split(n_scores)
    if m_eval.size == 0:
        m_eval = m_cal
    if n_eval.size == 0:
        n_eval = n_cal

    threshold = _best_threshold(m_cal, n_cal)
    correct = np.sum(m_eval <= threshold) + np.sum(n_eval > threshold)
    accuracy = float(correct / (m_eval.size + n_eval.size))
    auc = _auc_lower_is_member(m_eval, n_eval)
    return MembershipResult(accuracy, auc, threshold, m_scores, n_scores)


def _best_threshold(member: np.ndarray, nonmember: np.ndarray) -> float:
    """The first candidate threshold with the most calibration scores on the
    right side of it (members at or below, non-members above)."""
    pooled = np.unique(np.concatenate([member, nonmember]))
    candidates = np.concatenate([[pooled[0] - 1e-9],
                                 (pooled[:-1] + pooled[1:]) / 2,
                                 [pooled[-1] + 1e-9]])
    correct = (np.searchsorted(np.sort(member), candidates, side="right")
               + nonmember.size
               - np.searchsorted(np.sort(nonmember), candidates, side="right"))
    return float(candidates[np.argmax(correct)])


def battery(syn: Corpus, truth: Corpus, p_hide: float, rng,
            members: list[GridTrace] | None = None,
            nonmembers: list[GridTrace] | None = None):
    """The privacy battery against a published synthetic corpus.

    Fits the adversary's order-1, 24-bucket Markov prior on ``syn``, hides
    and reconstructs the points of ``truth``, and runs the membership attack
    when targets are given.  ``rng`` is drawn from in that order.  Returns
    the report block and the MembershipResult (None without targets).
    """
    prior = MarkovGenerator.fit(syn, order=1, time_buckets=24)
    block = {
        "sequence_attack_accuracy": run_sequence_attack(truth, prior, p_hide, rng),
        "random_baseline_sequence": 1.0 / prior.alphabet.size,
        "hide_probability": p_hide,
        "random_baseline_membership": 0.5,
        "membership": {"skipped": True},
    }
    mem = None
    if members is not None or nonmembers is not None:
        mem = membership_attack(syn, members, nonmembers, rng)
        block["membership"] = mem.to_dict()
    return block, mem
