"""Privacy-leakage battery: location hiding, Viterbi sequence reconstruction
against a Markov prior, and nearest-trace membership inference.

The adversary prior is meant to be trained on the *published* synthetic
corpus: the attacks measure what the released data alone leaks about the
individuals behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import Corpus, GridTrace
from .errors import DomainError
from .generators import MarkovGenerator, _bucket_of, _ranges
from .metrics import corpus_runs

HIDDEN = -1
# share of each of the member and non-member scores that tunes the
# membership threshold; the rest measures it
CALIBRATION_FRACTION = 0.2


@dataclass
class ObfuscatedTrace:
    """Trace with independently suppressed points; HIDDEN marks suppressed cells."""

    user_id: str
    cells: np.ndarray          # observed cell id, or HIDDEN
    timestamps: np.ndarray
    hidden_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.hidden_mask = self.cells == HIDDEN


def check_p_hide(p_hide: float, attack: bool = False) -> None:
    """A hiding probability outside [0, 1], or NaN, is a DomainError; so is
    0 for an ``attack``, which would leave no hidden point to decode."""
    above_low = p_hide > 0.0 if attack else p_hide >= 0.0
    if not (above_low and p_hide <= 1.0):
        raise DomainError(f"p_hide must lie in {'(0' if attack else '[0'}, 1], got {p_hide}")


def hide_locations(trace: GridTrace, p_hide: float, rng) -> ObfuscatedTrace:
    """Replace each point by HIDDEN independently with probability p_hide."""
    check_p_hide(p_hide)
    mask = rng.uniform(size=len(trace)) < p_hide
    cells = np.where(mask, HIDDEN, trace.cells)
    return ObfuscatedTrace(trace.user_id, cells, trace.timestamps.copy())


# ---------------------------------------------------------------------------
# sequence reconstruction attack
# ---------------------------------------------------------------------------

# an unseen context's score this close below the best one, relative to
# their size, may still tie with it after adding a log probability
_TIE_ULPS = 4 * np.finfo(float).eps


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
        self.unseen = np.delete(np.arange(self.log_p0.size, dtype=np.int32), self.seen)
        # rows of seen[k] are [row_bounds[k], row_bounds[k + 1])
        self.row_bounds = np.searchsorted(ctx, np.append(self.seen, self.log_p0.size))
        # the same rows sorted by (next, context): one group per column
        by_col = np.lexsort((ctx, self.next))
        self.col_ctx, self.col_log = ctx[by_col].astype(np.int32), self.log_seen[by_col]
        self.cols, self.col_starts = np.unique(self.next[by_col], return_index=True)
        self.col_bounds = np.append(self.col_starts, ctx.size)
        self.col_counts = np.diff(self.col_bounds)
        # no log value is positive, so this is the largest |log_p0|
        self.p0_span = -float(self.log_p0.min())

    def rows(self, ctx: np.ndarray) -> np.ndarray:
        """Rows ``ctx`` of the dense log matrix as a (K, V) array; an unseen
        context, or -1 for none at a trace start, gives ``log_p0``."""
        out = np.tile(self.log_p0, (ctx.size, 1))
        at, k = _lookup(self.seen, ctx)
        out[at] = self.log_floor[k, None]
        lo, hi = self.row_bounds[k], self.row_bounds[k + 1]
        obs = _ranges(lo, hi)
        out[np.repeat(at, hi - lo), self.next[obs]] = self.log_seen[obs]
        return out

    def columns(self, nxt: np.ndarray) -> np.ndarray:
        """Columns ``nxt`` of the dense log matrix, one per row of a (K, V)
        array."""
        out = np.empty((nxt.size, self.log_p0.size))
        out[:] = self.log_p0[nxt, None]
        out[:, self.seen] = self.log_floor
        at, k = _lookup(self.cols, nxt)
        lo, hi = self.col_bounds[k], self.col_bounds[k + 1]
        obs = _ranges(lo, hi)
        out[np.repeat(at, hi - lo), self.col_ctx[obs]] = self.col_log[obs]
        return out

    def step(self, score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row of a (K, V) score matrix, max_i (score_i + log P(j | i))
        for every j and the lowest maximizing i, as a dense column max and
        argmax find them."""
        n, v = score.shape
        rows = np.arange(n)
        if self.unseen.size:
            # every unseen i adds the same log_p0[j], and rounding is
            # monotone, so the largest score attains each column's max ...
            s = score[:, self.unseen]
            k = np.argmax(s, axis=1)
            top = s[rows, k]
            best = top[:, None] + self.log_p0
            back = np.repeat(self.unseen[k, None], v, axis=1)
            # ... and a lower i with a score a few ulps below it can tie,
            # where the lowest tying i wins
            tol = _TIE_ULPS * (np.abs(top) + self.p0_span)
            r, m = np.nonzero((s >= (top - tol)[:, None])
                              & (np.arange(self.unseen.size) < k[:, None]))
            if r.size:
                tie = s[r, m, None] + self.log_p0 == best[r]
                low = np.where(tie, self.unseen[m, None], v)
                first = np.flatnonzero(np.diff(r, prepend=-1))
                low = np.minimum.reduceat(low, first, axis=0)
                r = r[first]
                back[r] = np.where(low < v, low, back[r])
        else:
            best = np.full((n, v), -np.inf)
            back = np.zeros((n, v), dtype=np.int32)
        if self.seen.size:
            # the floor: the best floor is merged into every column.  In a
            # column its row observed, that row's observed entry is no lower
            # than its floor (rounding is monotone) and carries the same
            # index, so the floor there never wins nor breaks a tie that the
            # observed rows, reduced below, would not
            floor = score[:, self.seen] + self.log_floor
            k = np.argmax(floor, axis=1)
            val, arg = floor[rows, k, None], self.seen[k, None]
            take = _beats(val, arg, best, back)
            np.copyto(best, val, where=take)
            np.copyto(back, arg, where=take)
            # the observed rows, reduced per column; lowest context on ties
            vals = score[:, self.col_ctx]
            vals += self.col_log
            top = np.maximum.reduceat(vals, self.col_starts, axis=1)
            hit = vals == np.repeat(top, self.col_counts, axis=1)
            arg = np.minimum.reduceat(np.where(hit, self.col_ctx, v), self.col_starts,
                                      axis=1)
            cur, cur_back = best[:, self.cols], back[:, self.cols]
            take = _beats(top, arg, cur, cur_back)
            best[:, self.cols] = np.where(take, top, cur)
            back[:, self.cols] = np.where(take, arg, cur_back)
        return best, back


def _beats(val, arg, best, back) -> np.ndarray:
    """Where (val, arg) beats (best, back): a larger value, or an equal one
    from a lower index."""
    return (val > best) | ((val == best) & (arg < back))


def _lookup(keys: np.ndarray, x: np.ndarray):
    """The positions of ``x`` whose value the ascending ``keys`` holds, and
    where it holds them."""
    k = np.searchsorted(keys, x)
    at = np.flatnonzero(k < keys.size)
    at = at[keys[k[at]] == x[at]]
    return at, k[at]


def _groups(views: dict, buckets: np.ndarray):
    """(view, rows) for each time bucket in ``buckets``."""
    for b in np.unique(buckets):
        yield views[int(b)], np.flatnonzero(buckets == b)


# the memory a decode chunk may take: each run of length L holds L int32
# back pointers per state, and its rows of a step's score arrays about eight
# float64 values per state.  A chunk closes once its runs pass a multiple of
# the budget, so a run longer than the budget is the last run of its chunk.
_CHUNK_BYTES = 2 ** 21


def reconstruct_trace(obf: ObfuscatedTrace, prior: MarkovGenerator) -> np.ndarray:
    """Most probable completion of the hidden cells under the prior.

    Viterbi runs only over maximal hidden segments; observed points pin the
    state (observed cells unknown to the prior leave the step unconstrained).
    """
    return _reconstruct(obf.cells, obf.timestamps, np.array([0, obf.cells.size]), prior)


def _reconstruct(cells: np.ndarray, timestamps: np.ndarray, offsets: np.ndarray,
                 prior: MarkovGenerator) -> np.ndarray:
    """:func:`reconstruct_trace` of every trace, end to end, in one decode;
    trace k is rows ``offsets[k]:offsets[k + 1]`` of the columns ``cells``
    (observed cell or HIDDEN) and ``timestamps``, as in a Corpus.

    The free runs of all traces are decoded together, each distinct
    problem once: sorted by the time bucket of their first point, longest
    first, cut into chunks of about ``_CHUNK_BYTES``, and each chunk
    advanced one position at a time.  A repeated run copies the path.
    """
    buckets = _bucket_of(timestamps, prior.time_buckets)
    n = cells.size
    head = np.zeros(n + 1, dtype=bool)   # the first point of a trace, and n
    head[offsets] = True
    tail = head[1:]                      # the last point of a trace
    # state index of each point, -1 = free: hidden, or a cell the prior
    # does not know; decoding fills in the free ones
    state = np.minimum(np.searchsorted(prior.alphabet, cells), prior.alphabet.size - 1)
    state[(cells == HIDDEN) | (prior.alphabet[state] != cells)] = -1
    free = state < 0
    # maximal free runs [lo, hi) within a trace, anchored at lo - 1 and hi
    # when those are pinned points of the same trace
    lo = np.flatnonzero(free & (head[:n] | ~np.roll(free, 1)))
    hi = np.flatnonzero(free & (tail | ~np.roll(free, -1))) + 1
    if not lo.size:
        return cells.copy()
    left = np.where(head[lo], -1, state[lo - 1])
    after = np.minimum(hi, n - 1)
    right = np.where(tail[hi - 1], -1, state[after])
    # the right anchor's bucket, or -1 when no anchor is pinned there
    right_bucket = np.where(right >= 0, buckets[after], -1)
    # log-space order-1 views of the buckets the decode steps through
    views = {int(b): _BucketView(prior, int(b))
             for b in np.union1d(buckets[free], right_bucket[right >= 0])}

    length = hi - lo
    first = _first_of_same(buckets, lo, length, left, right, right_bucket)
    own = first == np.arange(lo.size)
    distinct = np.flatnonzero(own)
    order = distinct[np.lexsort((-length[distinct], buckets[lo[distinct]]))]
    size = (4 * length[order] + 64) * prior.alphabet.size
    chunk = (np.cumsum(size) - size) // _CHUNK_BYTES
    for runs in np.split(order, np.flatnonzero(np.diff(chunk)) + 1):
        runs = runs[np.argsort(-length[runs], kind="stable")]
        _decode_chunk(views, buckets, lo[runs], length[runs], left[runs], right[runs],
                      right_bucket[runs], state)
    # every other run takes the path of the first run of its problem
    copy = np.flatnonzero(~own)
    src = lo[first[copy]]
    state[_ranges(lo[copy], hi[copy])] = state[_ranges(src, src + length[copy])]
    return prior.alphabet[state]


def _first_of_same(buckets, lo, length, left, right, right_bucket) -> np.ndarray:
    """For each free run, the first run that poses the same Viterbi problem:
    the same anchors, length, bucket at every point and right-anchor bucket.
    Each run's decode depends on these alone, so the two paths are equal."""
    first = np.arange(lo.size)
    by_length = np.argsort(length, kind="stable")
    for runs in np.split(by_length, np.flatnonzero(np.diff(length[by_length])) + 1):
        key = np.column_stack([left[runs], right[runs], right_bucket[runs],
                               buckets[lo[runs, None] + np.arange(length[runs[0]])]])
        _, at, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
        first[runs] = runs[at[inverse]]
    return first


def _decode_chunk(views, buckets, lo, length, left, right, right_buckets, state) -> None:
    """Viterbi over K free runs in lock-step, writing their state indices
    into ``state``.  The runs come longest first, so those still running at
    position t are a prefix: the first ``running[t]``."""
    running = np.searchsorted(-length, -np.arange(length[0]))
    v = next(iter(views.values())).log_p0.size
    score = np.empty((lo.size, v))
    for view, rows in _groups(views, buckets[lo]):
        score[rows] = view.rows(left[rows])
    last = np.empty_like(score)   # each run's score at its last point
    backs = []
    for t in range(1, length[0]):
        k = running[t]
        last[k:running[t - 1]] = score[k:]
        best, back = np.empty((k, v)), np.empty((k, v), dtype=np.int32)
        for view, rows in _groups(views, buckets[lo[:k] + t]):
            best[rows], back[rows] = view.step(score[:k][rows])
        score = best
        backs.append(back)
    last[:running[-1]] = score
    # one more transition into the pinned right anchor
    pinned = np.flatnonzero(right >= 0)
    if pinned.size:
        for view, rows in _groups(views, right_buckets[pinned]):
            at = pinned[rows]
            last[at] += view.columns(right[at])
    cur = np.argmax(last, axis=1)
    for t in range(length[0] - 1, 0, -1):
        k = running[t]
        state[lo[:k] + t] = cur[:k]
        cur[:k] = backs[t - 1][np.arange(k), cur[:k]]
    state[lo] = cur


def sequence_attack(truth: Corpus, obfuscated: list[ObfuscatedTrace],
                    prior: MarkovGenerator) -> float:
    """Fraction of hidden cells recovered exactly; ``obfuscated[k]`` hides
    points of trace k of ``truth``."""
    if [o.cells.size for o in obfuscated] != np.diff(truth.offsets).tolist():
        raise DomainError("truth corpus and obfuscated list must align")
    cells = np.concatenate([truth.cells[:0], *(o.cells for o in obfuscated)])
    hidden = cells == HIDDEN
    if not hidden.any():
        raise DomainError("nothing to attack: no hidden points in the corpus")
    recovered = _reconstruct(cells, truth.timestamps, truth.offsets, prior)
    return int(np.sum(recovered[hidden] == truth.cells[hidden])) / int(hidden.sum())


def run_sequence_attack(truth: Corpus, prior: MarkovGenerator, p_hide: float,
                        rng) -> float:
    """Hide-then-reconstruct convenience wrapper."""
    obfuscated = [hide_locations(t, p_hide, rng) for t in truth.traces]
    return sequence_attack(truth, obfuscated, prior)


# ---------------------------------------------------------------------------
# membership inference attack
# ---------------------------------------------------------------------------

def membership_scores(syn: Corpus, targets: Corpus) -> np.ndarray:
    """Each target trace's min over synthetic traces of the TV distance
    between visit (run) frequencies.

    For a target with counts a (total A) and a synthetic trace with counts
    b (total B), 2AB TV = sum over the target's cells of |a B - b A|, plus
    A times the synthetic runs off those cells.  That integer is exact, so
    each target reads only its own cells' synthetic runs, and equal
    distances give equal scores.
    """
    syn_trace, syn_cells, _, _ = corpus_runs(syn)
    q_runs = np.bincount(syn_trace, minlength=len(syn))
    # the synthetic runs by cell: a cell's runs are one slice
    by_cell = np.argsort(syn_cells, kind="stable")
    syn_cells, syn_trace = syn_cells[by_cell], syn_trace[by_cell]
    target_of_run, target_cells, _, _ = corpus_runs(targets)
    bounds = np.searchsorted(target_of_run, np.arange(len(targets) + 1))
    scores = np.empty(len(targets))
    for i in range(len(targets)):
        cells, a = np.unique(target_cells[bounds[i]:bounds[i + 1]], return_counts=True)
        a_runs = a.sum()
        lo = np.searchsorted(syn_cells, cells, side="left")
        hi = np.searchsorted(syn_cells, cells, side="right")
        # (synthetic traces x target cells) run counts
        at = syn_trace[_ranges(lo, hi)] * cells.size + np.repeat(np.arange(cells.size), hi - lo)
        q_supp = np.bincount(at, minlength=len(syn) * cells.size).reshape(len(syn), cells.size)
        scaled = (np.abs(np.outer(q_runs, a) - q_supp * a_runs).sum(axis=1)
                  + (q_runs - q_supp.sum(axis=1)) * a_runs)
        scores[i] = np.min(scaled / (2.0 * a_runs * q_runs))
    return scores


@dataclass
class MembershipResult:
    accuracy: float
    auc: float
    threshold: float
    member_scores: np.ndarray
    nonmember_scores: np.ndarray

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


def membership_attack(syn: Corpus, targets: Corpus, n_members: int, rng) -> MembershipResult:
    """Threshold the nearest-synthetic-trace distance; the threshold is tuned
    on a held-out calibration split, accuracy and AUC reported on the rest.
    The first ``n_members`` traces of ``targets`` are the members."""
    if not 0 < n_members < len(targets):
        raise DomainError("need non-empty member and non-member sets")
    scores = membership_scores(syn, targets)
    m_scores, n_scores = scores[:n_members], scores[n_members:]

    def _split(scores):
        k = max(1, int(round(CALIBRATION_FRACTION * scores.size)))
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
            targets: Corpus | None = None, n_members: int = 0):
    """The privacy battery against a published synthetic corpus.

    Fits the adversary's order-1, 24-bucket Markov prior on ``syn``, hides
    and reconstructs the points of ``truth``, and runs the membership attack
    when ``targets`` are given, of which the first ``n_members`` are members.
    ``rng`` is drawn from in that order.  Returns the report block and the
    MembershipResult (None without targets).
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
    if targets is not None:
        mem = membership_attack(syn, targets, n_members, rng)
        block["membership"] = mem.to_dict()
    return block, mem
