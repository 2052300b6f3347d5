"""Empirical margins, probit-transformation kernel pair copulas and D-vines.

The joint model follows the two-step Sklar decomposition: margins are
estimated by the empirical distribution function, dependence by a kernel
density estimate on the normal-score (probit) scale.  Conditional CDFs
(h-functions) are closed-form mixtures of Gaussian CDFs, which makes
sequential D-vine fitting exact.  Sampling is exact too: a conditional draw
picks a mixture component by its weight and then draws from that Gaussian,
with no root find.  Only the h-inverse solves for a root, by Brent's method
on the probit scale.  ``vine_fit`` and ``VineModel`` share one tree step of
the D-vine h-recursion (``_next_level``).

Each row of an h-function, h-inverse or conditional draw is a mixture over
the kernel centers inside that row's own tail window: the centers whose
weight given the row's conditioning value is above ``tail`` of the total.
The tail is 1e-10 for h and h-inverse, so h moves by at most about 1e-10
against the mixture over every center, and 1e-5 for draws, far below
sampling noise.

Rows are evaluated in blocks laid out (width, rows), C-ordered: a row's
window is one column, copied out of the sorted centers through a strided
view, and its weights are built in place there.  numpy's ``add.reduce``
down axis 0 then sums every column top to bottom, one block row at a time,
vectorised across columns (:func:`_row_sum`), and draws take their
cumulative weights by ``cumsum`` down axis 0, which also runs top to
bottom.  Padding has weight 0 and comes last, so every row's result
depends on that row alone:
permuting the rows of a call, or splitting them across calls, leaves each
output bit for bit the same.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError, InsufficientDataError

_EPS_U = 1e-9           # clamp for values entering the probit transform
_Z_BOUND = 9.0          # h-inverse searches z in [-9, 9]; ndtr(9) rounds to 1
_Z_TOL = 1e-14          # h-inverse root tolerance on the probit scale
_BLOCK_ELEMENTS = 2 ** 16  # per block: each float64 temporary, 512 KiB, stays in cache
_BLOCK_COST = 8192      # padded elements that cost as much time as one more block
_EXP_FLOOR = -700.0     # exp() stays normal, and fast, above this


class EmpiricalMargin:
    """ECDF/quantile pair for one continuous variable.

    The probability integral transform uses the rank/(n+1) convention with
    linear interpolation between sample atoms and clamping to
    [1/(n+1), n/(n+1)] outside the observed range.  The quantile maps back
    onto the sample atoms themselves.
    """

    def __init__(self, sample):
        sample = np.asarray(sample, dtype=float)
        if sample.ndim != 1:
            sample = sample.ravel()
        if sample.size < 2:
            raise InsufficientDataError(f"margin needs n >= 2 samples, got {sample.size}")
        if not np.all(np.isfinite(sample)):
            raise DomainError("margin sample contains non-finite values")
        self.sorted_sample = np.sort(sample)
        self.n = sample.size
        self._probs = np.arange(1, self.n + 1) / (self.n + 1)

    def pit(self, x):
        """F(x) on the rank/(n+1) scale; accepts scalars or arrays."""
        lo = self._probs[0]
        hi = self._probs[-1]
        u = np.interp(x, self.sorted_sample, self._probs, left=lo, right=hi)
        return u

    def quantile(self, u):
        """Inverse ECDF onto the sample atoms (no interpolation); u must lie
        in (0, 1).

        The vine's positions are discrete underneath their continuous
        relaxation, and interpolating between atoms would fabricate values
        between the observed categories, so this always returns an observed
        sample value.  It inverts :meth:`pit` on the atoms.
        """
        u_arr = _inside_unit(u, "quantile argument")
        idx = np.clip((u_arr * self.n).astype(np.int64), 0, self.n - 1)
        x = self.sorted_sample[idx]
        return x if u_arr.ndim else float(x)


def pseudo_observations(data):
    """Column-wise rank/(n+1) transform, strictly inside (0, 1); tied values
    rank in the order they come."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    order = np.argsort(data, axis=0, kind="stable")
    ranks = np.empty(order.shape)
    first_to_last = np.arange(1.0, n + 1).reshape((n,) + (1,) * (data.ndim - 1))
    np.put_along_axis(ranks, order, first_to_last, axis=0)
    return ranks / (n + 1)


def _to_scores(u):
    return ndtri(np.clip(u, _EPS_U, 1.0 - _EPS_U))


class KernelPairCopula:
    """Bivariate copula density estimated by a Gaussian KDE on normal scores.

    Scores are variance-corrected so that the smoothed score distribution
    keeps the sample covariance: a plain KDE inflates both variances by b^2,
    which attenuates the dependence the copula is supposed to capture.
    """

    def __init__(self, scores, bandwidth):
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] != 2:
            raise DomainError(f"scores must be an (m, 2) array with m >= 1, got {scores.shape}")
        if not np.all(np.isfinite(scores)):
            raise DomainError("scores must be finite")
        if not 0 < bandwidth < np.inf:
            raise DomainError(f"bandwidth must be a finite number > 0, got {bandwidth}")
        # a kernel weight squares (z - c) / b for the score z of any (0, 1)
        # input and any center c; the farthest pair must keep it finite
        z_lo, z_hi = _to_scores(np.array([0.0, 1.0]))
        with np.errstate(over="ignore"):
            farthest = np.square(max(z_hi - scores.min(), scores.max() - z_lo) / bandwidth)
        if not np.isfinite(farthest):
            raise DomainError(f"bandwidth {bandwidth} is too small for scores in "
                              f"[{scores.min()}, {scores.max()}]: kernel weights overflow")
        self.scores = scores
        self.bandwidth = float(bandwidth)
        self._axis_cache = {}

    @classmethod
    def fit(cls, u_sample, v_sample, *, max_scores: int,
            bandwidth_scale: float) -> "KernelPairCopula":
        u = np.asarray(u_sample, dtype=float)
        v = np.asarray(v_sample, dtype=float)
        if u.shape != v.shape or u.ndim != 1:
            raise DomainError(f"samples must be equal-length 1-d arrays, got {u.shape} vs {v.shape}")
        if max_scores < 2:
            raise DomainError(f"max_scores must be >= 2, got {max_scores}")
        if u.size < 10:
            raise InsufficientDataError(f"pair copula needs n >= 10, got {u.size}")
        if np.any(u <= 0) or np.any(u >= 1) or np.any(v <= 0) or np.any(v >= 1):
            raise DomainError("copula inputs must lie strictly inside (0, 1); use pseudo-observations")

        n = u.size
        # bandwidth follows the full sample size even when scores are thinned
        sigma = np.sqrt(0.5 * (np.var(ndtri(u)) + np.var(ndtri(v))))
        b = n ** (-1.0 / 6.0) * max(sigma, 1e-12) * bandwidth_scale
        if n > max_scores:
            keep = np.unique(np.linspace(0, n - 1, max_scores).astype(int))
            u, v = u[keep], v[keep]
        scores = np.column_stack([ndtri(u), ndtri(v)])
        scores = _variance_correct(scores, b)
        return cls(scores, b)

    # -- h-functions ------------------------------------------------------

    def h_u_given_v(self, u, v):
        """Conditional CDF P(U <= u | V = v) of 1-d arrays u and v of one length."""
        return self._per_row(u, v, 1, self._h_rows)

    def h_v_given_u(self, v, u):
        """Conditional CDF P(V <= v | U = u)."""
        return self._per_row(v, u, 0, self._h_rows)

    def h_inverse_u_given_v(self, p, v):
        """u such that h_u_given_v(u, v) = p, p in (0, 1): one Brent root
        find per row on the probit scale (:func:`_invert_mixture`)."""
        return self._per_row(_inside_unit(p, "h_inverse target"), v, 1,
                             self._h_inverse_rows)

    def h_inverse_v_given_u(self, p, u):
        """v such that h_v_given_u(v, u) = p; see :meth:`h_inverse_u_given_v`."""
        return self._per_row(_inside_unit(p, "h_inverse target"), u, 0,
                             self._h_inverse_rows)

    def sample_v_given_u(self, q, u):
        """Draw V | U = u with q in (0, 1) as the source of randomness.

        One exact draw from the conditional Gaussian mixture per row: the
        mixture component is picked by inverting the cumulative weights at
        q, and the leftover rank within the component gives the normal
        quantile.  For uniform q it is equal in distribution to
        h_inverse_v_given_u(q, u), with a single weight evaluation in place
        of a root find.
        """
        # a 1e-5 relative tail is far below sampling noise
        return self._per_row(_inside_unit(q, "sampling rank"), u, 0,
                             self._draw_rows, tail=1e-5)

    def sample_u_given_v(self, q, v):
        """Draw U | V = v; see :meth:`sample_v_given_u`."""
        return self._per_row(_inside_unit(q, "sampling rank"), v, 1,
                             self._draw_rows, tail=1e-5)

    def _sorted_centers(self, cond_axis, width=1):
        """The kernel centers sorted along ``cond_axis``, and their values
        on the other axis in the same order, each followed by at least
        ``width - 1`` copies of its last value, so that a run of ``width``
        centers from any real start is one strided read.  Cached per axis;
        the padding grows by powers of two."""
        m = self.scores.shape[0]
        cached = self._axis_cache.get(cond_axis)
        if cached is None:
            order = np.argsort(self.scores[:, cond_axis], kind="stable")
            cached = (self.scores[order, cond_axis], self.scores[order, 1 - cond_axis])
        if cached[0].size < m + width - 1:
            pad = 1 << (width - 1).bit_length()
            cached = tuple(np.pad(vals[:m], (0, pad), mode="edge") for vals in cached)
        self._axis_cache[cond_axis] = cached
        return cached

    def _row_windows(self, cond, cond_axis, tail):
        """Yield (rows, others, first, weights, width) blocks that cover each
        row once.

        Row ``rows[i]`` keeps only the ``width[i]`` kernel centers inside
        its own tail reach along the conditioning axis: those whose
        posterior weight given the row's conditioning value exceeds roughly
        ``tail`` of the total.  They are the sorted centers from
        ``first[i]`` on, and ``others[first[i] + j]`` is the j-th one's
        value on the other axis.

        ``weights`` is a (width, rows) C-ordered block: column i holds row
        ``rows[i]``'s normalised weights, padded to the block's widest row
        with weight exactly 0.  It is built in one buffer per call: the
        centers are copied in through a strided view of the padded sorted
        centers (:func:`_runs`), then turned into weights in place.  Each
        column's least squared distance is known beforehand, and exponents
        are floored at ``_EXP_FLOOR`` so the padding, whose centers lie
        beyond the window, keeps ``exp`` off its slow underflow path before
        it is zeroed.  Each column is summed top to bottom
        (:func:`_row_sum`), so padding cannot change a sum.  The block is
        overwritten by the next one.

        Rows are taken widest first, in blocks of at most
        ``_BLOCK_ELEMENTS`` elements so the temporaries stay in cache, and a
        block ends early where the rows after it are so much narrower that
        a block of their own saves more than ``_BLOCK_COST`` padded
        elements.
        """
        z = _to_scores(cond)
        if not z.size:
            return
        b = self.bandwidth
        m = self.scores.shape[0]
        c_sorted = self._sorted_centers(cond_axis)[0][:m]
        # searching sorted keys walks the centers once, not once per row
        order = np.argsort(z)
        z = z[order]
        # distance to the nearest center along the conditioning axis bounds
        # how far relevant components can sit: anything beyond
        # sqrt(d_min^2 + 2 b^2 log(m / tail)) holds < tail relative weight
        pos = np.searchsorted(c_sorted, z)
        d_min = np.minimum(np.abs(z - c_sorted[np.maximum(pos - 1, 0)]),
                           np.abs(z - c_sorted[np.minimum(pos, m - 1)]))
        reach = np.sqrt(d_min * d_min + 2.0 * b * b * np.log(m / tail))
        lo = np.minimum(np.searchsorted(c_sorted, z - reach), m - 1)
        hi = np.maximum(np.searchsorted(c_sorted, z + reach), lo + 1)
        width = hi - lo
        # the window's least squared distance, at one of the two window
        # centers next to z; subtracting it keeps exp() from underflowing
        last = hi - 1
        near = np.minimum(np.abs(z - c_sorted[np.minimum(np.maximum(pos - 1, lo), last)]),
                          np.abs(z - c_sorted[np.minimum(np.maximum(pos, lo), last)])) / b
        least = near * near
        by_width = np.argsort(width, kind="stable")[::-1]
        # each row's values in block order, so that a block takes slices
        widths, z, least, lo = width[by_width], z[by_width], least[by_width], lo[by_width]
        rows = order[by_width]
        c_sorted, others = self._sorted_centers(cond_axis, int(widths[0]))
        buf = np.empty(min(max(_BLOCK_ELEMENTS, int(widths[0])), int(widths[0]) * z.size))
        start = 0
        while start < z.size:
            widest = int(widths[start])
            stop = min(z.size, start + max(1, _BLOCK_ELEMENTS // widest))
            saved = (widest - widths[start:stop]) * np.arange(stop - start, 0, -1)
            split = int(np.argmax(saved))
            if saved[split] > _BLOCK_COST:
                stop = start + split
            block = slice(start, stop)
            start = stop
            n = widths[block]
            w = buf[:widest * n.size].reshape(widest, n.size)
            np.copyto(w, _runs(c_sorted, lo[block], widest).T)
            np.subtract(z[block], w, out=w)
            w /= b
            np.square(w, out=w)
            w -= least[block]
            w *= -0.5
            # only padding reaches this floor: a window center's exponent
            # is at least about -log(m / tail), far above it
            np.maximum(w, _EXP_FLOOR, out=w)
            np.exp(w, out=w)
            if n[-1] < widest:
                np.copyto(w[n[-1]:], 0.0, where=np.arange(n[-1], widest)[:, None] >= n)
            w /= _row_sum(w)
            yield rows[block], others, lo[block], w, n

    def _per_row(self, x, cond, cond_axis, kernel, tail=1e-10):
        """The per-row loop shared by h, h-inverse and draws: evaluate
        ``kernel(x_rows, others, first, weights, width)`` on each block of
        :meth:`_row_windows` and clip to [1e-12, 1 - 1e-12].  ``x`` and ``cond``
        must be 1-d arrays of one length; any other shape is a DomainError."""
        x = np.asarray(x, dtype=float)
        cond = np.asarray(cond, dtype=float)
        if x.ndim != 1 or x.shape != cond.shape:
            raise DomainError("pair-copula arguments must be two 1-d arrays of one length, "
                              f"got shapes {x.shape} and {cond.shape}")
        out = np.empty(x.size)
        for rows, *block in self._row_windows(cond, cond_axis, tail):
            out[rows] = kernel(x[rows], *block)
        return np.clip(out, 1e-12, 1.0 - 1e-12)

    def _h_rows(self, x, others, first, w, n):
        arg = np.empty_like(w)
        np.copyto(arg, _runs(others, first, w.shape[0]).T)
        np.subtract(_to_scores(x), arg, out=arg)
        arg /= self.bandwidth
        _ndtr(arg, out=arg)
        arg *= w
        return _row_sum(arg)

    def _h_inverse_rows(self, p, others, first, w, n):
        return _invert_mixture(p, _runs(others, first, w.shape[0]), w.T, self.bandwidth)

    def _draw_rows(self, q, others, first, w, n):
        # the component is the first whose cumulative weight reaches q, and
        # a row's last center takes what rounding leaves over; cumulative
        # weights never fall down a column, so counting those below q and
        # stopping at the last center finds it
        cum = np.cumsum(w, axis=0)
        k = np.minimum(np.count_nonzero(cum < q, axis=0), n - 1)
        at = np.arange(k.size)
        prev = np.where(k > 0, cum[k - 1, at], 0.0)
        r = np.clip((q - prev) / np.maximum(w[k, at], 1e-300), 1e-12, 1.0 - 1e-12)
        return ndtr(others[first + k] + self.bandwidth * ndtri(r))


def _inside_unit(x, what):
    """x as a float array, which must lie strictly inside (0, 1)."""
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < 1.0)):  # NaN is outside too
        raise DomainError(f"{what} must lie strictly inside (0, 1)")
    return x


def _ndtr(x, out=None):
    """``ndtr(x)``, evaluated only where it is not exactly 0 or 1: in float64
    it rounds to 1.0 from x = 8.3 on and underflows to 0.0 up to x = -37.7.
    ``out`` may be ``x`` itself."""
    high = x >= 9.0
    mid = np.flatnonzero(~(high | (x <= -40.0)))
    vals = ndtr(x.flat[mid])
    if out is None:
        out = np.empty(x.shape)
    np.copyto(out, high)
    out.flat[mid] = vals
    return out


def _runs(vals, first, width):
    """A (len(first), width) array whose row i is vals[first[i]:first[i] + width],
    copied row by row out of a strided view of the contiguous 1-d ``vals``."""
    step = vals.strides[0]
    view = np.ndarray((vals.size - width + 1, width), vals.dtype, vals, 0, (step, step))
    return view[first]


def _row_sum(cols):
    """The sum of each column of a (width, rows) block, taken top to bottom,
    bit for bit ``np.cumsum(cols.T, axis=1)[:, -1]``.

    numpy's pairwise ``sum`` rounds by length, so trailing zeros could
    change it; it sums pairwise along a contiguous axis only.  So the block
    is made C-ordered, which ``add.reduce`` then sums one row of the block
    at a time, vectorised across columns.  A (width, 1) block is contiguous
    along its only column and takes the sequential ``cumsum`` instead.
    """
    cols = np.ascontiguousarray(cols)
    if cols.shape[1] == 1:
        return np.cumsum(cols[:, 0])[-1:]
    return np.add.reduce(cols, axis=0)


def _mixture_gap(z, centers, w, b, p):
    """One row's mixture CDF at z, sum_i w[0, i] * Phi((z - centers[0, i]) / b),
    minus p."""
    return _row_sum((w * _ndtr((z - centers) / b)).T)[0] - p


def _invert_mixture(p, centers, w, b):
    """Solve sum_i w[r, i] * Phi((z - centers[r, i]) / b) = p[r] for z in
    [-9, 9], one Brent root find (``scipy.optimize.brentq``) per row r.

    Returns Phi(z), the root on the uniform scale.  Where p[r] lies outside
    the mixture's values at -9 and 9, z is the nearer bound.
    """
    from scipy.optimize import brentq

    z = np.empty(p.size)
    for r in range(p.size):
        args = (centers[r:r + 1], w[r:r + 1], b, p[r])
        if _mixture_gap(-_Z_BOUND, *args) >= 0.0:
            z[r] = -_Z_BOUND
        elif _mixture_gap(_Z_BOUND, *args) <= 0.0:
            z[r] = _Z_BOUND
        else:
            z[r] = brentq(_mixture_gap, -_Z_BOUND, _Z_BOUND, args=args, xtol=_Z_TOL)
    return ndtr(z)


def _variance_correct(scores, b):
    """Shrink kernel centers so KDE covariance matches the sample covariance."""
    mu = scores.mean(axis=0)
    centered = scores - mu
    cov = np.cov(centered.T)
    lam, q = np.linalg.eigh(cov)
    target = np.maximum(lam - b * b, 1e-6)
    scale = np.sqrt(target / np.maximum(lam, 1e-12))
    a = q @ np.diag(scale) @ q.T
    return centered @ a.T + mu


class VineModel:
    """D-vine over an ordered variable list with empirical margins.

    ``trees[t]`` holds the pair copulas of tree t+1, with d-1-t edges.  Trees
    beyond the truncation depth are independence and simply absent.  Variable
    names and the model file belong to ``generators.VineGenerator``.
    """

    def __init__(self, margins, trees):
        self.margins = list(margins)
        self.trees = [list(level) for level in trees]
        d = len(self.margins)
        if d < 2:
            raise DomainError("vine needs at least 2 variables")
        for t, level in enumerate(self.trees):
            if len(level) != d - 1 - t:
                raise DomainError(f"tree {t + 1} must have {d - 1 - t} edges, got {len(level)}")

    @property
    def dim(self) -> int:
        return len(self.margins)

    @property
    def depth(self) -> int:
        return len(self.trees)

    def _cond_cdfs(self, u_cond):
        """Values a_t = F(u_{d-1-t} | u_{d-t..d-2}) for the h-chain of the
        last variable given u_cond (n, d-1) on the uniform scale; returns
        a list indexed by t-1 for t = 1..min(depth, d-1).  Only the last
        min(depth, d-1) columns enter, so a truncated wide vine pays only
        for the h-functions its draw needs."""
        k = min(self.depth, self.dim - 1)
        start = self.dim - 1 - k
        left = [u_cond[:, j] for j in range(start, self.dim - 1)]
        right = left[1:]
        a = left[-1:]  # empty for the independence vine
        for t in range(k - 1):
            left, right = _next_level(self.trees[t][start:], left, right)
            a.append(left[-1])
        return a

    # -- public sampling ----------------------------------------------------

    def conditional_sample(self, cond_values, rng):
        """Draw the last variable given data-scale values of all others, by
        the inverse Rosenblatt transform with exact mixture draws.

        ``cond_values`` is an (n, d-1) matrix, one conditioning row per
        draw; the n draws are training-sample atoms of the last margin.
        """
        cond = np.asarray(cond_values, dtype=float)
        if cond.ndim != 2 or cond.shape[1] != self.dim - 1:
            raise DomainError(f"expected an (n, {self.dim - 1}) matrix of conditioning "
                              f"values, got shape {cond.shape}")
        u_cond = np.column_stack(
            [np.clip(self.margins[j].pit(cond[:, j]), _EPS_U, 1 - _EPS_U) for j in range(self.dim - 1)]
        )
        p = rng.uniform(size=cond.shape[0])
        q = np.clip(p, _EPS_U, 1 - _EPS_U)
        a = self._cond_cdfs(u_cond)
        for t in reversed(range(len(a))):
            # tree t+1's last edge pairs the last variable with u_{d-2-t}
            q = self.trees[t][-1].sample_v_given_u(q, a[t])
        return self.margins[-1].quantile(q)


def _next_level(level, left, right):
    """One D-vine h-recursion step: from the arguments left[j] = F(x_j | between)
    and right[j] = F(x_{j+t} | between) of the edges ``level`` of tree t, the
    arguments of tree t+1, each list one shorter."""
    new_left = [level[j].h_u_given_v(left[j], right[j]) for j in range(len(left) - 1)]
    new_right = [level[j + 1].h_v_given_u(right[j + 1], left[j + 1])
                 for j in range(len(right) - 1)]
    return new_left, new_right


def vine_fit(data, *, trunc_level, max_scores, bandwidth_scale,
             var_names=None) -> VineModel:
    """Fit a D-vine with the column order as path order.

    Tree 1 pairs adjacent columns; deeper trees use the sequential
    h-transform recursion on pseudo-observations.  ``trunc_level`` (>= 1,
    capped at d-1) is the number of trees fitted; ``var_names`` only name
    the columns in error messages.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DomainError("vine_fit expects an (n, d) matrix")
    n, d = data.shape
    if d < 2:
        raise DomainError("vine_fit needs at least 2 columns")
    if n < 100:
        raise InsufficientDataError(f"vine_fit needs n >= 100 rows, got {n}")
    for j in range(d):
        if np.ptp(data[:, j]) == 0:
            name = var_names[j] if var_names else f"column {j}"
            raise DomainError(f"{name} is constant; cannot fit a margin")

    if trunc_level < 1:
        raise DomainError(f"trunc_level must be >= 1, got {trunc_level}")
    trunc_level = min(trunc_level, d - 1)

    margins = [EmpiricalMargin(data[:, j]) for j in range(d)]
    u = pseudo_observations(data)

    trees = []
    left = [u[:, j] for j in range(d - 1)]       # F(x_j | between)
    right = [u[:, j + 1] for j in range(d - 1)]  # F(x_{j+t} | between)
    for t in range(1, trunc_level + 1):
        if t > 1:
            left, right = _next_level(trees[-1], left, right)
        level = []
        for j in range(d - t):
            level.append(KernelPairCopula.fit(
                np.clip(left[j], _EPS_U, 1 - _EPS_U),
                np.clip(right[j], _EPS_U, 1 - _EPS_U),
                max_scores=max_scores,
                bandwidth_scale=bandwidth_scale,
            ))
        trees.append(level)
    return VineModel(margins, trees)
