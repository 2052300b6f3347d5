import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import kendalltau, kstest

from mobsynth.copula import (EmpiricalMargin, KernelPairCopula, VineModel,
                             _invert_mixture, _ndtr, _to_scores,
                             default_trunc_level, pseudo_observations, vine_fit)
from mobsynth.errors import DomainError, InsufficientDataError


def kernel_density(c: KernelPairCopula, u, v):
    """Reference copula density c(u, v) = KDE(probit scores) / product of phis;
    the h-functions and draws integrate it in closed form."""
    z_u = _to_scores(np.asarray(u, dtype=float))
    z_v = _to_scores(np.asarray(v, dtype=float))
    b = c.bandwidth
    du = (z_u[..., None] - c.scores[:, 0]) / b
    dv = (z_v[..., None] - c.scores[:, 1]) / b
    kde = np.mean(np.exp(-0.5 * (du * du + dv * dv)), axis=-1) / (2.0 * np.pi * b * b)
    phi = np.exp(-0.5 * (z_u * z_u + z_v * z_v)) / (2.0 * np.pi)
    return kde / phi


def gaussian_copula_sample(rho, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=n)
    return ndtr(z[:, 0]), ndtr(z[:, 1])


class TestEmpiricalMargin:
    def test_pit_at_sample_atoms(self):
        m = EmpiricalMargin([3.0, 1.0, 2.0])
        # sorted sample gets ranks 1..n over n+1
        assert m.pit(1.0) == pytest.approx(0.25)
        assert m.pit(2.0) == pytest.approx(0.50)
        assert m.pit(3.0) == pytest.approx(0.75)

    def test_pit_clamps_outside_range(self):
        m = EmpiricalMargin(np.arange(9.0))
        assert m.pit(-100.0) == pytest.approx(0.1)
        assert m.pit(+100.0) == pytest.approx(0.9)

    def test_quantile_inverts_pit(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(size=400)
        m = EmpiricalMargin(sample)
        x = np.linspace(sample.min(), sample.max(), 101)
        back = m.quantile(m.pit(x))
        assert np.allclose(back, x, atol=1e-12)

    def test_quantile_domain(self):
        m = EmpiricalMargin([0.0, 1.0])
        with pytest.raises(DomainError):
            m.quantile(0.0)
        with pytest.raises(DomainError):
            m.quantile(1.0)

    def test_too_small_sample(self):
        with pytest.raises(InsufficientDataError):
            EmpiricalMargin([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            EmpiricalMargin([0.0, np.nan, 1.0])

    def test_pit_is_uniform_on_continuous_data(self):
        rng = np.random.default_rng(1)
        sample = rng.gamma(2.0, size=3000)
        m = EmpiricalMargin(sample)
        p = kstest(m.pit(sample), "uniform").pvalue
        assert p > 0.01


class TestPseudoObservations:
    def test_simple_ranks(self):
        u = pseudo_observations(np.array([10.0, 30.0, 20.0]))
        assert u.tolist() == [0.25, 0.75, 0.5]

    def test_columns_independent_and_bounded(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(50, 3))
        u = pseudo_observations(data)
        assert np.all((u > 0) & (u < 1))
        for j in range(3):
            assert sorted(u[:, j]) == pytest.approx(
                (np.arange(1, 51) / 51).tolist())


class TestKernelPairCopula:
    def test_fit_validation(self):
        u = np.linspace(0.1, 0.9, 20)
        with pytest.raises(InsufficientDataError):
            KernelPairCopula.fit(u[:5], u[:5])
        with pytest.raises(DomainError):
            KernelPairCopula.fit(np.append(u, 0.0), np.append(u, 0.5))

    def test_independence_density_near_one(self):
        u, v = gaussian_copula_sample(0.0, 4000, seed=3)
        c = KernelPairCopula.fit(u, v)
        grid = np.linspace(0.15, 0.85, 7)
        uu, vv = np.meshgrid(grid, grid)
        dens = kernel_density(c, uu.ravel(), vv.ravel())
        assert np.all(np.abs(dens - 1.0) < 0.25)

    def test_independence_h_is_identity(self):
        u, v = gaussian_copula_sample(0.0, 4000, seed=4)
        c = KernelPairCopula.fit(u, v)
        grid = np.linspace(0.1, 0.9, 9)
        uu, vv = np.meshgrid(grid, grid)
        h = c.h_u_given_v(uu.ravel(), vv.ravel())
        assert np.max(np.abs(h - uu.ravel())) < 0.06

    @pytest.mark.parametrize("rho", [0.3, 0.8])
    def test_kendall_tau_matches_gaussian(self, rho):
        u, v = gaussian_copula_sample(rho, 8000, seed=5)
        c = KernelPairCopula.fit(u, v)
        tau_target = 2.0 / math.pi * math.asin(rho)
        tau = c.kendall_tau(4000, np.random.default_rng(6))
        assert abs(tau - tau_target) < 0.05

    def test_h_inverse_roundtrip(self):
        u, v = gaussian_copula_sample(0.8, 3000, seed=7)
        c = KernelPairCopula.fit(u, v)
        rng = np.random.default_rng(8)
        p = rng.uniform(0.001, 0.999, size=500)
        cond = rng.uniform(0.01, 0.99, size=500)
        uu = c.h_inverse_u_given_v(p, cond)
        assert np.max(np.abs(c.h_u_given_v(uu, cond) - p)) < 1e-8
        vv = c.h_inverse_v_given_u(p, cond)
        assert np.max(np.abs(c.h_v_given_u(vv, cond) - p)) < 1e-8

    def test_h_is_monotone(self):
        u, v = gaussian_copula_sample(0.5, 2000, seed=9)
        c = KernelPairCopula.fit(u, v)
        us = np.linspace(0.01, 0.99, 50)
        h = c.h_u_given_v(us, np.full(50, 0.3))
        assert np.all(np.diff(h) > 0)

    def test_density_integrates_to_one_in_u(self):
        # integral over u of c(u, v) is the conditional total mass, i.e. 1
        u, v = gaussian_copula_sample(0.6, 3000, seed=10)
        c = KernelPairCopula.fit(u, v)
        us = np.linspace(0.0005, 0.9995, 2001)
        for cond in (0.25, 0.5, 0.8):
            total = np.trapezoid(kernel_density(c, us, np.full_like(us, cond)), us)
            assert abs(total - 1.0) < 0.05

    def test_sample_pit_uniform(self):
        u, v = gaussian_copula_sample(0.8, 3000, seed=11)
        c = KernelPairCopula.fit(u, v)
        us, vs = c.sample(3000, np.random.default_rng(12))
        assert kstest(vs, "uniform").pvalue > 0.01
        assert kstest(us, "uniform").pvalue > 0.01

    def test_module_level_h_helpers(self):
        u, v = gaussian_copula_sample(0.4, 1500, seed=13)
        c = KernelPairCopula.fit(u, v)
        p = np.array([0.2, 0.6])
        cond = np.array([0.3, 0.7])
        uu = c.h_inverse_u_given_v(p, cond)
        assert np.allclose(c.h_u_given_v(uu, cond), p, atol=1e-8)


def _row_window(cop, cond, cond_axis, tail):
    """Reference: one row's centers along the other axis and its normalised
    weights, over the sorted centers inside the row's own tail reach."""
    z = _to_scores(cond)
    b = cop.bandwidth
    order = np.argsort(cop.scores[:, cond_axis], kind="stable")
    c_sorted = cop.scores[order, cond_axis]
    m = c_sorted.size
    d_min = np.min(np.abs(z - c_sorted))
    reach = np.sqrt(d_min * d_min + 2.0 * b * b * np.log(m / tail))
    lo = min(np.count_nonzero(c_sorted < z - reach), m - 1)
    hi = min(max(np.count_nonzero(c_sorted < z + reach), lo + 1), m)
    d = (z - c_sorted[lo:hi]) / b
    d2 = d * d
    d2 -= d2.min()
    w = np.exp(-0.5 * d2)
    w /= np.cumsum(w)[-1]
    return cop.scores[order[lo:hi], 1 - cond_axis], w


def _loop_h(cop, x, cond, cond_axis):
    out = np.empty(x.size)
    for r in range(x.size):
        cen, w = _row_window(cop, cond[r], cond_axis, 1e-10)
        out[r] = np.cumsum(w * ndtr((_to_scores(x[r]) - cen) / cop.bandwidth))[-1]
    return np.clip(out, 1e-12, 1.0 - 1e-12)


def _loop_h_inverse(cop, p, cond, cond_axis):
    out = np.empty(p.size)
    for r in range(p.size):
        cen, w = _row_window(cop, cond[r], cond_axis, 1e-10)
        out[r] = _invert_mixture(p[r:r + 1], cen[None, :], w[None, :], cop.bandwidth)[0]
    return np.clip(out, 1e-12, 1.0 - 1e-12)


def _loop_sample(cop, q, cond, cond_axis):
    out = np.empty(q.size)
    for r in range(q.size):
        cen, w = _row_window(cop, cond[r], cond_axis, 1e-5)
        cum = np.cumsum(w)
        cum[-1] = 1.0
        k = np.count_nonzero(cum < q[r])
        prev = cum[k - 1] if k > 0 else 0.0
        rank = min(max((q[r] - prev) / max(w[k], 1e-300), 1e-12), 1.0 - 1e-12)
        out[r] = ndtr(cen[k] + cop.bandwidth * ndtri(rank))
    return np.clip(out, 1e-12, 1.0 - 1e-12)


def _all_center_h(cop, x, cond, cond_axis):
    """The h-function as the mixture over every kernel center."""
    b = cop.bandwidth
    d = (_to_scores(cond)[:, None] - cop.scores[None, :, cond_axis]) / b
    d2 = d * d
    w = np.exp(-0.5 * (d2 - d2.min(axis=1, keepdims=True)))
    w /= w.sum(axis=1, keepdims=True)
    t = cop.scores[None, :, 1 - cond_axis]
    h = np.sum(w * ndtr((_to_scores(x)[:, None] - t) / b), axis=1)
    return np.clip(h, 1e-12, 1.0 - 1e-12)


def test_ndtr_skips_only_exact_zeros_and_ones():
    x = np.concatenate([np.linspace(-60.0, 60.0, 200_000), [-np.inf, np.inf],
                        -np.logspace(1, 308, 1000), np.logspace(1, 308, 1000),
                        np.nextafter([-40.0, -40.0, 9.0, 9.0], [-41.0, 0.0, 0.0, 10.0])])
    x = x.reshape(2, -1)
    assert np.array_equal(_ndtr(x), ndtr(x))
    assert np.isnan(_ndtr(np.array([[np.nan]]))[0, 0])


class TestRowWindows:
    """Each row is evaluated on its own tail window, independently of the
    other rows of the call."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           n_scores=st.sampled_from([12, 300, 3000]),
           atoms=st.sampled_from([0, 5, 60]),
           bandwidth_scale=st.sampled_from([1.0, 0.05, 0.00625]),
           n_rows=st.sampled_from([1, 7, 50]),
           cond_axis=st.sampled_from([0, 1]))
    def test_matches_row_loop_and_is_batch_invariant(self, seed, n_scores, atoms,
                                                     bandwidth_scale, n_rows,
                                                     cond_axis):
        rng = np.random.default_rng(seed)
        if atoms:  # jittered hotspots, like the vine's positions
            u = rng.choice(rng.uniform(size=atoms), n_scores)
            u = np.clip(u + rng.uniform(-1e-3, 1e-3, n_scores), 1e-6, 1 - 1e-6)
        else:
            u = rng.uniform(size=n_scores)
        v = np.clip(u + rng.normal(0.0, 0.05, n_scores), 1e-6, 1 - 1e-6)
        cop = KernelPairCopula.fit(u, v, bandwidth_scale=bandwidth_scale)
        cond = rng.uniform(size=n_rows)
        cond[::3] = rng.choice(u, cond[::3].size)  # on kernel centers
        x = rng.uniform(size=n_rows)
        q = rng.uniform(size=n_rows)
        q[::2] = rng.choice([1e-300, 1e-17, 1 - 1e-15, 1 - 2.0**-53], q[::2].size)
        p = np.clip(x, 1e-6, 1 - 1e-6)
        h, h_inv, sample = {
            0: (cop.h_v_given_u, cop.h_inverse_v_given_u, cop.sample_v_given_u),
            1: (cop.h_u_given_v, cop.h_inverse_u_given_v, cop.sample_u_given_v),
        }[cond_axis]
        got = {"h": h(x, cond), "h_inv": h_inv(p, cond), "sample": sample(q, cond)}
        # (a) one plain loop over rows
        assert np.array_equal(got["h"], _loop_h(cop, x, cond, cond_axis))
        assert np.array_equal(got["h_inv"], _loop_h_inverse(cop, p, cond, cond_axis))
        assert np.array_equal(got["sample"], _loop_sample(cop, q, cond, cond_axis))
        # (b) permuted rows, and rows split across two calls
        perm = rng.permutation(n_rows)
        cut = n_rows // 2
        for name, fn, arg in (("h", h, x), ("h_inv", h_inv, p), ("sample", sample, q)):
            assert np.array_equal(fn(arg[perm], cond[perm]), got[name][perm])
            split = np.concatenate([fn(arg[:cut], cond[:cut]), fn(arg[cut:], cond[cut:])])
            assert np.array_equal(split, got[name])
        # (c) the dropped tail moves h by less than the tail bound
        assert np.max(np.abs(got["h"] - _all_center_h(cop, x, cond, cond_axis))) <= 1e-9

    def test_memory_stays_bounded_on_wide_batches(self):
        # 125 tight clusters of 200 centers: every row's window is one or two
        # clusters, so one padded rows x width block would be 40 MB and more
        rng = np.random.default_rng(31)
        atoms = np.sort(rng.uniform(0.02, 0.98, size=125))
        u = np.repeat(atoms, 200) + rng.uniform(-1e-6, 1e-6, 25_000)
        v = np.clip(u + rng.normal(0.0, 0.01, u.size), 1e-6, 1 - 1e-6)
        cop = KernelPairCopula(np.column_stack([ndtri(u), ndtri(v)]), 1e-3)
        cond = rng.choice(u, 25_000)
        x = rng.uniform(size=25_000)
        tracemalloc.start()
        try:
            h = cop.h_v_given_u(x, cond)
            draws = cop.sample_v_given_u(x, cond)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all((h > 0) & (h < 1)) and np.all((draws > 0) & (draws < 1))
        assert peak < 16 * 2 ** 20


class TestVine:
    def _ar1_data(self, n, phi, seed, d=4):
        rng = np.random.default_rng(seed)
        x = np.empty(n + d)
        x[0] = rng.normal()
        for i in range(1, n + d):
            x[i] = phi * x[i - 1] + math.sqrt(1 - phi * phi) * rng.normal()
        return np.column_stack([x[k:n + k] for k in range(d)])

    def test_default_trunc_level(self):
        assert default_trunc_level(2) == 1
        assert default_trunc_level(4) == 3
        assert default_trunc_level(6) == 3
        assert default_trunc_level(10) == 3

    def test_fit_validation(self):
        with pytest.raises(InsufficientDataError):
            vine_fit(np.random.default_rng(0).normal(size=(50, 3)))
        data = np.random.default_rng(0).normal(size=(200, 3))
        data[:, 1] = 4.2
        with pytest.raises(DomainError):
            vine_fit(data)

    def test_joint_sample_recovers_lag_correlation(self):
        phi = 0.7
        data = self._ar1_data(4000, phi, seed=15)
        model = vine_fit(data, max_scores=400)
        out = model.sample(4000, np.random.default_rng(16))
        got = np.corrcoef(out[:, 0], out[:, 1])[0, 1]
        assert abs(got - phi) < 0.08
        got2 = np.corrcoef(out[:, 0], out[:, 2])[0, 1]
        assert abs(got2 - phi ** 2) < 0.1

    def test_conditional_sample_tracks_ar1(self):
        # E[x_d | x_{d-1} = c] = phi * c for the AR(1) oracle
        phi = 0.7
        data = self._ar1_data(4000, phi, seed=17)
        model = vine_fit(data, max_scores=400)
        rng = np.random.default_rng(18)
        for c in (-1.0, 0.0, 1.5):
            draws = model.conditional_sample([0.0, phi * c, c][-3:], rng, size=400)
            assert abs(np.mean(draws) - phi * c) < 0.15

    def test_conditional_sample_under_independence_is_marginal(self):
        # explicit independence vine: conditional sampling must reproduce the
        # last margin exactly, whatever the conditioning point
        rng = np.random.default_rng(19)
        data = rng.normal(size=(500, 3))
        margins = [EmpiricalMargin(data[:, j]) for j in range(3)]
        model = VineModel(margins, trees=[])
        draws = model.conditional_sample([2.0, -2.0], np.random.default_rng(20), size=2000)
        p = kstest(margins[2].pit(draws), "uniform").pvalue
        assert p > 0.01

    def test_conditional_sample_shape_checks(self):
        data = np.random.default_rng(21).normal(size=(300, 3))
        model = vine_fit(data, max_scores=200)
        with pytest.raises(DomainError):
            model.conditional_sample([0.0], np.random.default_rng(0), size=4)

    def test_truncation_drops_deep_trees(self):
        data = self._ar1_data(800, 0.5, seed=22, d=6)
        model = vine_fit(data, max_scores=200)
        assert model.depth == 3
        assert model.dim == 6

    def test_payload_roundtrip(self):
        data = self._ar1_data(500, 0.6, seed=23)
        model = vine_fit(data, max_scores=150)
        payload = model.to_payload()
        rebuilt = VineModel(
            [EmpiricalMargin(s) for s in payload["margins"]],
            [[None if e is None else KernelPairCopula(e["scores"], e["bandwidth"])
              for e in level] for level in payload["trees"]],
            window=payload["window"],
            var_names=payload["var_names"],
        )
        rng_a, rng_b = np.random.default_rng(24), np.random.default_rng(24)
        a = model.sample(50, rng_a)
        b = rebuilt.sample(50, rng_b)
        assert np.array_equal(a, b)
