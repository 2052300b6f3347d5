"""Empirical margins, probit-transformation kernel pair copulas and D-vines.

The joint model follows the two-step Sklar decomposition: margins are
estimated by the empirical distribution function, dependence by a kernel
density estimate on the normal-score (probit) scale.  Conditional CDFs
(h-functions) are closed-form mixtures of Gaussian CDFs, which makes
sequential D-vine fitting and inverse-Rosenblatt sampling exact up to a
monotone root find.

Each row of an h-function, h-inverse or conditional draw is a mixture over
the kernel centers inside that row's own tail window: the centers whose
weight given the row's conditioning value is above ``tail`` of the total.
The tail is 1e-10 for h and h-inverse, so h moves by at most about 1e-10
against the mixture over every center, and 1e-5 for draws, far below
sampling noise.  Rows are evaluated in padded blocks with left-to-right
sums, so every row's result depends on that row alone: permuting the rows
of a call, or splitting them across calls, leaves each output bit for bit
the same.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError, InsufficientDataError, NumericalError

_EPS_U = 1e-9           # clamp for values entering the probit transform
_H_TOL = 1e-8           # absolute tolerance of h-function inversion
_H_MAX_ITER = 200
_BLOCK_ELEMENTS = 2 ** 16  # per block: each float64 temporary, 512 KiB, stays in cache

DEFAULT_MAX_SCORES = 2000


class EmpiricalMargin:
    """ECDF/quantile pair for one continuous variable.

    The probability integral transform uses the rank/(n+1) convention with
    linear interpolation between sample atoms and clamping to
    [1/(n+1), n/(n+1)] outside the observed range.
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
        """Monotone pseudo-inverse of :meth:`pit`; u must lie in (0, 1)."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
            raise DomainError("quantile argument must lie strictly inside (0, 1)")
        x = np.interp(u_arr, self._probs, self.sorted_sample)
        return x if u_arr.ndim else float(x)

    def quantile_atom(self, u):
        """Inverse ECDF onto the sample atoms themselves (no interpolation).

        For variables that are discrete underneath their continuous
        relaxation, interpolating between atoms fabricates values between
        the observed categories; this variant always returns an observed
        sample value.
        """
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
            raise DomainError("quantile argument must lie strictly inside (0, 1)")
        idx = np.clip((u_arr * self.n).astype(np.int64), 0, self.n - 1)
        x = self.sorted_sample[idx]
        return x if u_arr.ndim else float(x)


def pseudo_observations(data):
    """Column-wise rank/(n+1) transform, strictly inside (0, 1)."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    order = np.argsort(data, axis=0, kind="stable")
    ranks = np.empty_like(data)
    rng_idx = np.arange(1, n + 1, dtype=float)
    if data.ndim == 1:
        ranks[order] = rng_idx
    else:
        for j in range(data.shape[1]):
            ranks[order[:, j], j] = rng_idx
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
        if scores.ndim != 2 or scores.shape[1] != 2:
            raise DomainError("scores must be an (m, 2) array")
        if not np.all(np.isfinite(scores)):
            raise DomainError("scores must be finite")
        if not bandwidth > 0:
            raise DomainError(f"bandwidth must be positive, got {bandwidth}")
        self.scores = scores
        self.bandwidth = float(bandwidth)
        self._axis_cache = {}

    @classmethod
    def fit(cls, u_sample, v_sample, max_scores=DEFAULT_MAX_SCORES,
            bandwidth_scale=1.0) -> "KernelPairCopula":
        u = np.asarray(u_sample, dtype=float)
        v = np.asarray(v_sample, dtype=float)
        if u.shape != v.shape or u.ndim != 1:
            raise DomainError(f"samples must be equal-length 1-d arrays, got {u.shape} vs {v.shape}")
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
        """Conditional CDF P(U <= u | V = v); vectorized over same-shape inputs."""
        return self._h(u, v, cond_axis=1)

    def h_v_given_u(self, v, u):
        """Conditional CDF P(V <= v | U = u)."""
        return self._h(v, u, cond_axis=0)

    def h_inverse_u_given_v(self, p, v):
        """u such that h_u_given_v(u, v) = p, by bisection to 1e-8."""
        return self._h_inverse(p, v, cond_axis=1)

    def h_inverse_v_given_u(self, p, u):
        return self._h_inverse(p, u, cond_axis=0)

    def _row_windows(self, flat_cond, cond_axis, tail=1e-10):
        """Yield (rows, centers, weights, width) blocks that cover each row once.

        Row ``rows[i]`` keeps only the ``width[i]`` kernel centers inside
        its own tail reach along the conditioning axis: those whose
        posterior weight given the row's conditioning value exceeds roughly
        ``tail`` of the total.  ``centers[i]`` holds them along the other
        axis and ``weights[i]`` their normalised weights, both padded to
        the block's widest row; padding has weight exactly 0.  Rows are
        taken widest first in blocks of at most ``_BLOCK_ELEMENTS`` so the
        temporaries stay in cache.  Sums over a row run left to right
        (:func:`_row_sum`), so padding cannot change them and every row's
        result depends on that row alone.
        """
        z = _to_scores(np.asarray(flat_cond, dtype=float).reshape(-1))
        b = self.bandwidth
        if cond_axis not in self._axis_cache:
            cond_centers = self.scores[:, cond_axis]
            order = np.argsort(cond_centers, kind="stable")
            self._axis_cache[cond_axis] = (
                cond_centers[order], self.scores[order, 1 - cond_axis])
        c_sorted, t_sorted = self._axis_cache[cond_axis]
        m = c_sorted.size
        # distance to the nearest center along the conditioning axis bounds
        # how far relevant components can sit: anything beyond
        # sqrt(d_min^2 + 2 b^2 log(m / tail)) holds < tail relative weight
        pos = np.searchsorted(c_sorted, z)
        left = c_sorted[np.clip(pos - 1, 0, m - 1)]
        right = c_sorted[np.clip(pos, 0, m - 1)]
        d_min = np.minimum(np.abs(z - left), np.abs(z - right))
        reach = np.sqrt(d_min * d_min + 2.0 * b * b * np.log(m / tail))
        lo = np.minimum(np.searchsorted(c_sorted, z - reach), m - 1)
        hi = np.clip(np.searchsorted(c_sorted, z + reach), lo + 1, m)
        width = hi - lo
        by_width = np.argsort(width, kind="stable")[::-1]
        start = 0
        while start < z.size:
            widest = int(width[by_width[start]])
            rows = by_width[start:start + max(1, _BLOCK_ELEMENTS // widest)]
            start += rows.size
            offsets = np.arange(widest)
            n = width[rows]
            # padding repeats the row's last center, which leaves the min alone
            cols = np.minimum(lo[rows, None] + offsets, hi[rows, None] - 1)
            d = (z[rows, None] - c_sorted[cols]) / b
            d2 = d * d
            d2 -= d2.min(axis=1, keepdims=True)  # keep exp() from underflowing
            w = np.where(offsets < n[:, None], np.exp(-0.5 * d2), 0.0)
            w /= _row_sum(w)[:, None]
            yield rows, t_sorted[cols], w, n

    def _h(self, x, cond, cond_axis):
        x_arr = np.asarray(x, dtype=float)
        shape = np.broadcast(x_arr, np.asarray(cond)).shape
        flat_x = np.broadcast_to(x_arr, shape).reshape(-1)
        flat_cond = np.broadcast_to(np.asarray(cond, dtype=float), shape).reshape(-1)
        out = np.empty(flat_x.size)
        b = self.bandwidth
        z = _to_scores(flat_x)
        for rows, other, w, _ in self._row_windows(flat_cond, cond_axis):
            out[rows] = _row_sum(w * _ndtr((z[rows, None] - other) / b))
        out = np.clip(out, 1e-12, 1.0 - 1e-12)
        return out.reshape(shape) if shape else float(out[0])

    def _h_inverse(self, p, cond, cond_axis):
        p_arr = np.asarray(p, dtype=float)
        shape = np.broadcast(p_arr, np.asarray(cond)).shape
        flat_p = np.broadcast_to(p_arr, shape).reshape(-1)
        flat_cond = np.broadcast_to(np.asarray(cond, dtype=float), shape).reshape(-1)
        if np.any(flat_p <= 0) or np.any(flat_p >= 1):
            raise DomainError("h_inverse target must lie strictly inside (0, 1)")
        out = np.empty(flat_p.size)
        for rows, other, w, _ in self._row_windows(flat_cond, cond_axis):
            out[rows] = _invert_mixture(flat_p[rows], other, w, self.bandwidth)
        out = np.clip(out, 1e-12, 1.0 - 1e-12)
        return out.reshape(shape) if shape else float(out[0])

    def sample_v_given_u(self, q, u):
        """Draw V | U = u with q in (0, 1) as the source of randomness.

        One exact draw from the conditional Gaussian mixture per row: the
        mixture component is picked by inverting the cumulative weights at
        q, and the leftover rank within the component gives the normal
        quantile.  Equal in distribution to h_inverse_v_given_u(q, u) for
        uniform q, but needs a single weight evaluation instead of a root
        find, so the sampler uses it on the hot path.
        """
        return self._sample_conditional(q, u, cond_axis=0)

    def sample_u_given_v(self, q, v):
        return self._sample_conditional(q, v, cond_axis=1)

    def _sample_conditional(self, q, cond, cond_axis):
        q_arr = np.asarray(q, dtype=float)
        shape = np.broadcast(q_arr, np.asarray(cond)).shape
        flat_q = np.broadcast_to(q_arr, shape).reshape(-1)
        flat_cond = np.broadcast_to(np.asarray(cond, dtype=float), shape).reshape(-1)
        if np.any(flat_q <= 0) or np.any(flat_q >= 1):
            raise DomainError("sampling rank must lie strictly inside (0, 1)")
        out = np.empty(flat_q.size)
        b = self.bandwidth
        # a 1e-5 relative tail is far below sampling noise
        for rows, other, w, n in self._row_windows(flat_cond, cond_axis, tail=1e-5):
            # cumulative weights, pinned to 1 from each row's last center on
            cum = np.cumsum(w, axis=1)
            cum[np.arange(w.shape[1]) >= n[:, None] - 1] = 1.0
            qr = flat_q[rows]
            k = np.count_nonzero(cum < qr[:, None], axis=1)
            at = np.arange(k.size)
            prev = np.where(k > 0, cum[at, k - 1], 0.0)
            r = np.clip((qr - prev) / np.maximum(w[at, k], 1e-300), 1e-12, 1.0 - 1e-12)
            out[rows] = ndtr(other[at, k] + b * ndtri(r))
        out = np.clip(out, 1e-12, 1.0 - 1e-12)
        return out.reshape(shape) if shape else float(out[0])

    # -- sampling ----------------------------------------------------------

    def sample(self, n, rng) -> tuple[np.ndarray, np.ndarray]:
        """Draw n (u, v) pairs by conditional inversion; v is exactly uniform."""
        v = rng.uniform(size=n)
        p = rng.uniform(size=n)
        u = self.h_inverse_u_given_v(p, v)
        return u, v

    def kendall_tau(self, n, rng) -> float:
        from scipy.stats import kendalltau

        u, v = self.sample(n, rng)
        return float(kendalltau(u, v).statistic)

    def to_payload(self) -> dict:
        return {"scores": self.scores, "bandwidth": self.bandwidth}


def _ndtr(x):
    """``ndtr(x)``, evaluated only where it is not exactly 0 or 1: in float64
    it rounds to 1.0 from x = 8.3 on and underflows to 0.0 up to x = -37.7."""
    out = (x >= 9.0).astype(float)
    mid = np.flatnonzero(~((x >= 9.0) | (x <= -40.0)))
    out.flat[mid] = ndtr(x.flat[mid])
    return out


def _row_sum(vals):
    """Row sums taken left to right: numpy's pairwise ``sum`` rounds by
    length, so trailing zeros could change it."""
    return np.cumsum(vals, axis=1)[:, -1]


def _invert_mixture(p, centers, w, b):
    """Solve sum_i w[r, i] * Phi((z - c[r, i]) / b) = p[r] for z, per row r.

    Bracketed secant with the Illinois anti-stall rule (the retained
    endpoint's function value is halved when the same side is replaced
    twice running), falling back to bisection whenever the secant step
    leaves the bracket.  Converged rows drop out of the iteration.
    Returns Phi(z), the root on the uniform scale.
    """
    n = p.size

    def f_of(z_vals, rows):
        d = (z_vals[:, None] - centers[rows]) / b
        return _row_sum(w[rows] * _ndtr(d)) - p[rows]

    rows_all = np.arange(n)
    # moment-matched Gaussian warm start: one endpoint lands next to the
    # root, the other falls back to the edge of the search interval
    mu = _row_sum(w * centers)
    sd = np.sqrt(np.maximum(_row_sum(w * centers * centers) - mu * mu, 0.0)
                 + b * b)
    z0 = np.clip(mu + sd * ndtri(p), -9.0, 9.0)
    f0 = f_of(z0, rows_all)
    below = f0 < 0.0
    z_lo = np.where(below, z0, -9.0)
    z_hi = np.where(below, 9.0, z0)
    f_far = f_of(np.where(below, 9.0, -9.0), rows_all)
    f_lo = np.where(below, f0, f_far)
    f_hi = np.where(below, f_far, f0)
    z_out = 0.5 * (z_lo + z_hi)
    side = np.zeros(n, dtype=np.int8)
    active = rows_all
    for _ in range(_H_MAX_ITER):
        zl, zh = z_lo[active], z_hi[active]
        fl, fh = f_lo[active], f_hi[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            z_new = zh - fh * (zh - zl) / (fh - fl)
        mid = 0.5 * (zl + zh)
        z_new = np.where(np.isfinite(z_new) & (z_new > zl) & (z_new < zh),
                         z_new, mid)
        f_new = f_of(z_new, active)
        z_out[active] = z_new
        up = f_new < 0.0  # root lies above the new point
        stale_hi = up & (side[active] == -1)
        stale_lo = ~up & (side[active] == 1)
        z_lo[active] = np.where(up, z_new, zl)
        f_lo[active] = np.where(up, f_new, np.where(stale_lo, 0.5 * fl, fl))
        z_hi[active] = np.where(up, zh, z_new)
        f_hi[active] = np.where(up, np.where(stale_hi, 0.5 * fh, fh), f_new)
        side[active] = np.where(up, -1, 1)
        done = (np.abs(f_new) < 0.1 * _H_TOL) | \
            (ndtr(z_hi[active]) - ndtr(z_lo[active]) < 0.1 * _H_TOL)
        active = active[~done]
        if active.size == 0:
            break
    else:
        if np.max(ndtr(z_hi[active]) - ndtr(z_lo[active])) > _H_TOL:
            raise NumericalError("h-function inversion did not converge")
    return ndtr(z_out)


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

    ``trees[t]`` holds the pair copulas of tree t+1; tree t has d-1-t edges.
    Trees beyond the truncation depth are independence and simply absent.
    """

    def __init__(self, margins, trees, window=None, var_names=None):
        self.margins = list(margins)
        self.trees = [list(level) for level in trees]
        self.window = window
        d = len(self.margins)
        if d < 2:
            raise DomainError("vine needs at least 2 variables")
        for t, level in enumerate(self.trees):
            if len(level) != d - 1 - t:
                raise DomainError(f"tree {t + 1} must have {d - 1 - t} edges, got {len(level)}")
        self.var_names = list(var_names) if var_names else [f"x{j}" for j in range(d)]

    @property
    def dim(self) -> int:
        return len(self.margins)

    @property
    def depth(self) -> int:
        return len(self.trees)

    # -- conditional machinery --------------------------------------------

    def _edge(self, i, j):
        """Pair copula of (x_i, x_j | between); None when truncated away."""
        t = j - i - 1
        if t >= len(self.trees):
            return None
        return self.trees[t][i]

    def _cond_cdfs(self, u_cond, target):
        """Values a_t = F(u_{target-t} | u_{target-t+1..target-1}) for the
        h-chain of variable ``target`` given u_cond (n, target) on the
        uniform scale; returns list indexed by t-1 for t = 1..depth."""
        depth = min(self.depth, target)
        memo_c = {}
        memo_d = {}

        def c_val(i, j):  # F(x_i | x_{i+1..j})
            if i == j:
                return u_cond[:, i]
            if (i, j) not in memo_c:
                cop = self._edge(i, j)
                left = c_val(i, j - 1)
                if cop is None:
                    memo_c[(i, j)] = left
                else:
                    memo_c[(i, j)] = cop.h_u_given_v(left, d_val(i + 1, j))
            return memo_c[(i, j)]

        def d_val(i, j):  # F(x_j | x_{i..j-1})
            if i == j:
                return u_cond[:, j]
            if (i, j) not in memo_d:
                cop = self._edge(i, j)
                right = d_val(i + 1, j)
                if cop is None:
                    memo_d[(i, j)] = right
                else:
                    memo_d[(i, j)] = cop.h_v_given_u(right, c_val(i, j - 1))
            return memo_d[(i, j)]

        return [c_val(target - t, target - 1) for t in range(1, depth + 1)]

    def _conditional_u(self, u_cond, p, target):
        """Inverse-Rosenblatt draw of variable ``target`` on the uniform
        scale given u_cond (n, target) and uniforms p (n,).  Each step draws
        directly from the conditional mixture (``sample_v_given_u``), which
        is equal in distribution to the h-inversion and much cheaper."""
        depth = min(self.depth, target)
        if depth == 0:
            return np.asarray(p, dtype=float)
        a = self._cond_cdfs(u_cond, target)
        q = np.asarray(p, dtype=float)
        for t in range(depth, 0, -1):
            cop = self._edge(target - t, target)
            if cop is not None:
                q = cop.sample_v_given_u(q, a[t - 1])
        return q

    # -- public sampling ----------------------------------------------------

    def conditional_sample(self, cond_values, rng, size=None, atoms=False):
        """Sample the last variable given data-scale values of all others.

        ``cond_values`` is either a length d-1 vector (one draw, or ``size``
        draws at the same conditioning point) or an (n, d-1) matrix.  With
        ``atoms=True`` the returned values are actual training-sample atoms
        of the target margin (inverse ECDF without interpolation).
        """
        cond = np.asarray(cond_values, dtype=float)
        scalar = cond.ndim == 1 and size is None
        if cond.ndim == 1:
            cond = np.tile(cond, (size or 1, 1))
        if cond.shape[1] != self.dim - 1:
            raise DomainError(f"expected {self.dim - 1} conditioning values, got {cond.shape[1]}")
        u_cond = np.column_stack(
            [np.clip(self.margins[j].pit(cond[:, j]), _EPS_U, 1 - _EPS_U) for j in range(self.dim - 1)]
        )
        p = rng.uniform(size=cond.shape[0])
        p = np.clip(p, _EPS_U, 1 - _EPS_U)
        u = self._conditional_u(u_cond, p, self.dim - 1)
        margin = self.margins[-1]
        x = margin.quantile_atom(u) if atoms else margin.quantile(u)
        return float(x[0]) if scalar else x

    def sample(self, n, rng) -> np.ndarray:
        """Draw n joint rows by sequential inverse-Rosenblatt over the path."""
        d = self.dim
        u = np.empty((n, d))
        u[:, 0] = np.clip(rng.uniform(size=n), _EPS_U, 1 - _EPS_U)
        for k in range(1, d):
            p = np.clip(rng.uniform(size=n), _EPS_U, 1 - _EPS_U)
            u[:, k] = self._conditional_u(u[:, :k], p, k)
        cols = [self.margins[j].quantile(u[:, j]) for j in range(d)]
        return np.column_stack(cols)

    def to_payload(self) -> dict:
        return {
            "window": self.window,
            "var_names": self.var_names,
            "margins": [m.sorted_sample for m in self.margins],
            "trees": [[e.to_payload() if e is not None else None for e in level]
                      for level in self.trees],
        }


def default_trunc_level(d: int) -> int:
    """Full depth up to 4 variables, depth 3 beyond (deeper kernel fits are
    noise-dominated at desk scale)."""
    return d - 1 if d <= 4 else 3


def vine_fit(data, window=None, trunc_level=None, max_scores=1000,
             bandwidth_scale=1.0, var_names=None) -> VineModel:
    """Fit a D-vine with the column order as path order.

    Tree 1 pairs adjacent columns; deeper trees use the sequential
    h-transform recursion on pseudo-observations.
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

    if trunc_level is None:
        trunc_level = default_trunc_level(d)
    trunc_level = max(1, min(trunc_level, d - 1))

    margins = [EmpiricalMargin(data[:, j]) for j in range(d)]
    u = pseudo_observations(data)

    trees = []
    left = [u[:, j] for j in range(d - 1)]       # F(x_j | between)
    right = [u[:, j + 1] for j in range(d - 1)]  # F(x_{j+t} | between)
    for t in range(1, trunc_level + 1):
        n_edges = d - t
        level = []
        for j in range(n_edges):
            level.append(KernelPairCopula.fit(
                np.clip(left[j], _EPS_U, 1 - _EPS_U),
                np.clip(right[j], _EPS_U, 1 - _EPS_U),
                max_scores=max_scores,
                bandwidth_scale=bandwidth_scale,
            ))
        trees.append(level)
        if t == trunc_level:
            break
        new_left = []
        new_right = []
        for j in range(n_edges - 1):
            new_left.append(level[j].h_u_given_v(left[j], right[j]))
            new_right.append(level[j + 1].h_v_given_u(right[j + 1], left[j + 1]))
        left, right = new_left, new_right
    return VineModel(margins, trees, window=window, var_names=var_names)
