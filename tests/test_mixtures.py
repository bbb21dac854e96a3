import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from calibmix import (AccuracyError, DistSpec, MixtureParams, ParamError,
                      QuadSpec, mean_mixture, signed_t_mixture, tsq_mixture,
                      variance_mixture)
from calibmix.casestudy import octane_params
from calibmix import mixtures as mx
from calibmix import special as ser
from calibmix.quadrature import gauss_legendre_nodes

CRIT = 4.9646027437307145  # F(1,10) 0.95 quantile
OCT_LAM = (1.8546 / 0.5837) ** 2
OCT_S1SQ = 0.5837 ** 2


def std_gaussian_rule():
    """Panel rule with standard-normal weights on [-8.6, 8.6]."""
    nodes, weights = gauss_legendre_nodes(np.linspace(-8.6, 8.6, 17), 10)
    return nodes, weights * stats.norm.pdf(nodes)


def per_node_gaussian_root_parts(u, nu, weights, root_phi, want_pdf):
    """Reference for the extreme-node kernel: each mixing node (weight,
    sqrt(phi)) integrated against the Gaussian g-rule on its own band of u
    (the per-node form the one-dimensional v-rule replaced)."""
    out = np.zeros_like(u)
    order = np.argsort(u)
    us = u[order]
    res = np.zeros_like(us)
    g, gw = std_gaussian_rule()
    snap = 1e-13
    y_lo = float(special.gammainccinv(nu / 2.0, 1.0 - snap))
    y_hi = float(special.gammainccinv(nu / 2.0, snap))
    lg = float(special.gammaln(nu / 2.0))
    for w_i, sq_i in zip(weights, root_phi):
        v = g + sq_i
        lo_u = nu * max(sq_i - 8.6, 0.0) ** 2 / (2.0 * y_hi)
        hi_u = nu * (sq_i + 8.6) ** 2 / (2.0 * y_lo)
        a = np.searchsorted(us, lo_u, side="left")
        b = np.searchsorted(us, hi_u, side="right")
        if a < b:
            y = (0.5 * nu) * (v * v)[:, None] / us[None, a:b]
            if want_pdf:
                kern = np.exp(0.5 * nu * np.log(y) - y - lg) / us[None, a:b]
                res[a:b] += w_i * (gw @ kern)
            else:
                res[a:b] += w_i * (gw @ special.gammaincc(nu / 2.0, y))
        if not want_pdf:
            res[b:] += w_i
    out[order] = res
    return out


def log_s_quad(f, lam0):
    """int f(s) [phi(s - lam0) + phi(s + lam0)] ds over s in [1e-14, lam0 + 9],
    by adaptive quadrature in log s.  A NaN from f counts as 0: scipy's
    noncentral laws give NaN at noncentralities near 1e20 and beyond, where
    the conditional kernels have underflowed."""
    def integrand(ls):
        s = np.exp(ls)
        return np.nan_to_num(f(s)) * (stats.norm.pdf(s - lam0)
                                      + stats.norm.pdf(s + lam0)) * s
    return integrate.quad(integrand, np.log(1e-14), np.log(lam0 + 9.0),
                          limit=4000, epsabs=0.0, epsrel=1e-12)[0]


def ncf_cdf_oracle(nu, delta, lam, u):
    return log_s_quad(lambda s: special.ncfdtr(1, nu, delta / s ** 2, u),
                      np.sqrt(lam))


def ncf_pdf_oracle(nu, delta, lam, u):
    return log_s_quad(lambda s: stats.ncf.pdf(u, 1, nu, delta / s ** 2),
                      np.sqrt(lam))


def gaussian_root_pdf_oracle(nu, delta, lam, u):
    """t^2 mixture pdf from the Gaussian-root kernel on a 2-D (s, g) rule:
    y^{nu/2} e^{-y} / (u Gamma(nu/2)) with y = nu (g + phi)^2 / (2u),
    phi = sqrt(delta)/s; the g-panels break at the kink g = -phi."""
    lg = special.gammaln(nu / 2.0)

    def cond(s):
        phi = np.sqrt(delta) / s
        edges = np.linspace(-9.0, 9.0, 37)
        if -9.0 < -phi < 9.0:
            edges = np.unique(np.append(edges, -phi))
        g, gw = gauss_legendre_nodes(edges, 16)
        y = nu * (g + phi) ** 2 / (2.0 * u)
        with np.errstate(divide="ignore"):
            kern = np.exp(0.5 * nu * np.log(y) - y - lg) / u
        return (gw * stats.norm.pdf(g)) @ kern
    return log_s_quad(cond, np.sqrt(lam))


def accurate_betainc(p, q, x):
    """I_x(p, q), through 1 - I_{1-x}(q, p) above x = 1/2: scipy's
    betainc(1/2, 1/2, x) loses up to 3e-9 within 1e-15 of x = 1."""
    with np.errstate(invalid="ignore"):
        return np.where(x > 0.5, 1.0 - special.betainc(q, p, 1.0 - x),
                        special.betainc(p, q, x))


def betainc_series(coefs, a, b, x, tol, j_hi):
    """Reference for mixtures._beta_series: one betainc per (term, point)."""
    out = np.zeros_like(x)
    active = np.ones(x.size, dtype=bool)
    j_done = 0
    while True:
        c = coefs.upto(j_hi)
        j = np.arange(j_done, j_hi)
        xa = x[active]
        out[active] += c[j_done:] @ accurate_betainc(j[:, None] + a, b, xa[None, :])
        bound = accurate_betainc(j_hi + a, b, xa) * coefs.left_after(j_hi)
        idx = np.where(active)[0]
        active[idx[bound <= tol]] = False
        if not np.any(active):
            return out
        j_done = j_hi
        j_hi = min(2 * j_hi, j_hi + 4096)


def graded_norm(pdf, lo, hi, *, log_from=None, order=16):
    """Integrate a pdf over [lo, hi] on panels graded logarithmically near the
    lower edge when requested (resolves scale-proportional mixture spikes)."""
    if log_from is None:
        edges = np.linspace(lo, hi, 2049)
    else:
        loga = np.log10(log_from)
        logb = np.log10(hi)
        edges = np.concatenate([[lo], np.logspace(loga, logb, 1600)])
    nodes, weights = gauss_legendre_nodes(edges, order)
    return float(np.dot(weights, pdf(nodes)))


class TestMeanMixture:
    def test_octane_region_coverages(self):
        mm = mean_mixture(octane_params())
        assert mm.interval_prob(86.037, 88.526) == pytest.approx(0.95, abs=1e-3)
        assert mm.interval_prob(86.184, 88.376) == pytest.approx(0.922, abs=5e-4)

    def test_octane_region_scipy_oracle(self):
        p = octane_params()
        mm = mean_mixture(p)

        def oracle_cdf(u):
            def f(t):
                sd = np.sqrt(t * t / p.n + p.sigma0 ** 2)
                return stats.norm.cdf(u, p.beta0 + t * p.mu_z, sd) * \
                    stats.norm.pdf(t, p.beta1, p.sigma1)
            v, _ = integrate.quad(f, p.beta1 - 12 * p.sigma1,
                                  p.beta1 + 12 * p.sigma1, limit=300)
            return v

        for u in (85.0, 86.037, 87.2818, 88.526, 90.0):
            assert mm.cdf(u) == pytest.approx(oracle_cdf(u), abs=1e-9)

    def test_degenerate_mixing_is_single_gaussian(self):
        p = MixtureParams(n=10, beta0=1.0, sigma0=0.5, mu_z=2.0, sigma_z=1.0,
                          beta1=1.5, sigma1=1e-8)
        mm = mean_mixture(p)
        u = np.linspace(2.0, 6.0, 41)
        sd = np.sqrt(1.5 ** 2 / 10 + 0.25)
        ref = stats.norm.pdf(u, 1.0 + 1.5 * 2.0, sd)
        assert np.max(np.abs(mm.pdf(u) - ref)) < 1e-6

    def test_symmetry_at_zero_mu_z(self):
        p = MixtureParams(n=7, beta0=3.0, sigma0=0.4, mu_z=0.0, sigma_z=1.3,
                          beta1=1.1, sigma1=0.8)
        mm = mean_mixture(p)
        x = np.linspace(0.01, 4.0, 17)
        assert np.max(np.abs(mm.pdf(3.0 + x) - mm.pdf(3.0 - x))) < 1e-12

    def test_cdf_monotone_limits(self):
        mm = mean_mixture(octane_params())
        lo, hi = mm.support()
        u = np.linspace(lo, hi, 200)
        c = mm.cdf(u)
        assert np.all(np.diff(c) >= -1e-12)
        assert c[0] < 1e-9 and c[-1] > 1 - 1e-9

    def test_sigma0_zero_needs_window_split(self):
        # valid law when mu_z != 0; cdf still integrates correctly
        p = MixtureParams(n=10, beta0=0.0, sigma0=0.0, mu_z=1.0, sigma_z=1.0,
                          beta1=2.0, sigma1=0.5)
        mm = mean_mixture(p)
        # oracle: Ybar = t*(mu_z + sigma_z Z/sqrt(n)) with t ~ N(2, .25)
        rng = np.random.default_rng(5)
        t = rng.normal(2.0, 0.5, 400000)
        zb = rng.normal(1.0, 1.0 / np.sqrt(10.0), 400000)
        samples = t * zb
        for q in (0.1, 0.5, 0.9):
            assert mm.cdf(np.quantile(samples, q)) == pytest.approx(q, abs=5e-3)

    def test_ideal_params_rejected(self):
        p = MixtureParams(n=5, beta0=0.0, sigma0=0.0, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=0.0, ideal=True)
        with pytest.raises(ParamError):
            mean_mixture(p)


class TestVarianceMixture:
    def test_octane_region_golden(self):
        vm = variance_mixture(10, OCT_LAM)
        assert vm.interval_prob(10.8, 336.5) == pytest.approx(0.95, abs=1e-3)
        assert vm.ppf(0.025) == pytest.approx(10.78, abs=0.01)
        assert vm.ppf(0.975) == pytest.approx(336.54, abs=0.05)

    def test_octane_naive_interval_golden(self):
        vm = variance_mixture(10, OCT_LAM)
        lo = 10 * 1.1167 / OCT_S1SQ
        hi = 10 * 7.0449 / OCT_S1SQ
        assert vm.interval_prob(lo, hi) == pytest.approx(0.742, abs=1e-3)

    def test_cdf_against_scipy_oracle(self):
        nu, lam = 10, 4.0
        vm = variance_mixture(nu, lam)

        def oracle(u):
            f = lambda w: stats.gamma.cdf(u, nu / 2, scale=2 * w) * \
                stats.ncx2.pdf(w, 1, lam)
            v, _ = integrate.quad(f, 0, stats.ncx2.ppf(1 - 1e-13, 1, lam),
                                  limit=400)
            return v

        for u in (0.5, 5.0, 30.0, 120.0):
            assert vm.cdf(u) == pytest.approx(oracle(u), abs=1e-8)

    @pytest.mark.parametrize("nu,lam", [(5, 2.0), (10, 0.0)])
    def test_mean_is_nu_one_plus_lambda(self, nu, lam):
        vm = variance_mixture(nu, lam)
        hi = vm.support()[1]
        val, _ = integrate.quad(lambda u: u * vm.pdf(u), 0, hi, limit=800)
        assert val == pytest.approx(nu * (1.0 + lam), rel=1e-7)

    def test_pdf_zero_left_of_support(self):
        vm = variance_mixture(6, 1.0)
        assert vm.pdf(-1.0) == 0.0
        assert vm.cdf(-1.0) == 0.0
        assert vm.cdf(0.0) == 0.0

    def test_stochastic_ordering_in_lambda(self):
        cdfs = [variance_mixture(10, lam).cdf(20.0) for lam in (1.0, 4.0, 9.0)]
        assert cdfs[0] > cdfs[1] > cdfs[2]


class TestTsqMixture:
    def test_delta_zero_is_central_f_for_any_lambda(self):
        u = np.linspace(0.05, 20.0, 41)
        ref = stats.f.cdf(u, 1, 10)
        for lam in (0.5, 7.0, 40.0):
            tm = tsq_mixture(10, 0.0, lam)
            assert np.max(np.abs(tm.cdf(u) - ref)) < 1e-10
        assert tsq_mixture(10, 0.0, 7.0).cdf(CRIT) == pytest.approx(0.950, abs=1e-6)

    def test_table_values(self):
        assert tsq_mixture(10, 1.0, 1.0).cdf(CRIT) == pytest.approx(0.691, abs=1e-3)
        assert tsq_mixture(10, 2.9351, 10.0953).cdf(CRIT) == pytest.approx(
            0.90, abs=5e-3)

    def test_pdf_and_cdf_against_scipy_oracle(self):
        nu, d, lam = 10, 1.0, 4.0
        tm = tsq_mixture(nu, d, lam)
        hi_t = stats.ncx2.ppf(1 - 1e-13, 1, lam)

        def oracle_pdf(u):
            f = lambda t: stats.ncf.pdf(u, 1, nu, d / t) * stats.ncx2.pdf(t, 1, lam)
            return integrate.quad(f, 0, hi_t, limit=400)[0]

        def oracle_cdf(u):
            f = lambda t: stats.ncf.cdf(u, 1, nu, d / t) * stats.ncx2.pdf(t, 1, lam)
            return integrate.quad(f, 0, hi_t, limit=400)[0]

        for u in (0.3, 2.0, CRIT, 25.0):
            assert tm.pdf(u) == pytest.approx(oracle_pdf(u), abs=1e-8)
            assert tm.cdf(u) == pytest.approx(oracle_cdf(u), abs=1e-8)

    def test_orderings(self):
        # nondecreasing in lambda at fixed delta; nonincreasing in delta
        at = lambda d, l: tsq_mixture(10, d, l).cdf(CRIT)
        assert at(1.0, 1.0) < at(1.0, 4.0) < at(1.0, 9.0)
        assert at(0.0, 4.0) > at(1.0, 4.0) > at(4.0, 4.0) > at(9.0, 4.0)

    def test_series_cap_raises(self, monkeypatch):
        import calibmix.mixtures as mx
        tm = tsq_mixture(10, 2.0, 4.0)
        monkeypatch.setattr(mx, "_MAX_J_TERMS", 4)
        with pytest.raises(AccuracyError):
            tm.pdf(3.0)

    def test_ppf_roundtrip(self):
        tm = tsq_mixture(10, 2.9351, 10.0953)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert tm.cdf(tm.ppf(q)) == pytest.approx(q, abs=1e-7)

    @pytest.mark.parametrize("nu,delta,lam,u", [
        (10, 1.0, 0.0, 691.0), (10, 2.935, 10.095, 2090.0),
        (200, 3.0, 1.0, 500.0), (200, 3.0, 1.0, 2090.0)])
    def test_cdf_against_ncf_quadrature(self, nu, delta, lam, u):
        # far-tail points, where slope draws with phi = D/s near 60 (Poisson
        # terms j ~ 2000) carry the law, and nu = 200, where the extreme
        # rule needs more panels per decade
        assert tsq_mixture(nu, delta, lam).cdf(u) == pytest.approx(
            ncf_cdf_oracle(nu, delta, lam, u), abs=1e-10)

    @pytest.mark.parametrize("nu,delta,lam,u", [(10, 1.0, 4.0, 3650.0),
                                                (30, 4.0, 25.0, 1200.0)])
    def test_pdf_against_ncf_quadrature(self, nu, delta, lam, u):
        assert tsq_mixture(nu, delta, lam).pdf(u) == pytest.approx(
            ncf_pdf_oracle(nu, delta, lam, u), rel=1e-9)

    def test_pdf_where_x_rounds_to_one(self):
        # nu = 1, u = 1e16: x = u/(u+nu) is within 1e-16 of 1
        want = gaussian_root_pdf_oracle(1, 2.0, 0.5, 1e16)
        assert tsq_mixture(1, 2.0, 0.5).pdf(1e16) == pytest.approx(want, rel=1e-8)

    def test_heavy_far_tail(self):
        # with delta > 0 slope draws near zero give P[t0^2 > T] ~ c/sqrt(T);
        # the extreme-node kernel must track it far out
        tm = tsq_mixture(10, 1.0, 1.0)

        def oracle_cdf(c):
            def f(ls):
                s = np.exp(ls)
                return stats.ncf.cdf(c, 1, 10, 1.0 / s ** 2) * (
                    stats.norm.pdf(s - 1.0) + stats.norm.pdf(s + 1.0)) * s
            return integrate.quad(f, np.log(1e-8), np.log(8.2), limit=1000)[0]

        for c in (1e4, 1e6):
            assert tm.cdf(c) == pytest.approx(oracle_cdf(c), abs=1e-9)
        # the tail really is heavy: ratio of survival at 100x the point ~ 1/10
        s1, s2 = 1.0 - tm.cdf(1e4), 1.0 - tm.cdf(1e6)
        assert s1 / s2 == pytest.approx(10.0, rel=0.05)
        # monotone through the series/extreme handoff
        grid = np.logspace(-1, 8, 300)
        assert np.all(np.diff(tm.cdf(grid)) >= -1e-12)


class TestSignedTMixture:
    def test_symmetry_at_zero_delta0(self):
        st_ = signed_t_mixture(10, 0.0, 1.0)
        u = np.linspace(0.1, 5.0, 21)
        assert np.max(np.abs(st_.pdf(u) - st_.pdf(-u))) < 1e-14

    def test_cross_consistency_with_tsq(self):
        # P[-sqrt(c) <= t0 <= sqrt(c)] = tsq CDF at c  (delta0^2=delta, lambda0^2=lambda)
        st_ = signed_t_mixture(10, 1.0, 3.0)
        tm = tsq_mixture(10, 1.0, 9.0)
        got = st_.interval_prob(-np.sqrt(CRIT), np.sqrt(CRIT))
        assert got == pytest.approx(tm.cdf(CRIT), abs=2e-9)
        assert got == pytest.approx(0.928, abs=1e-3)

    def test_pdf_against_scipy_oracle(self):
        nu, d0, l0 = 10, 1.0, 3.0
        st_ = signed_t_mixture(nu, d0, l0)

        def oracle(u):
            f = lambda s: stats.nct.pdf(u, nu, d0 / s) * (
                stats.norm.pdf(s - l0) + stats.norm.pdf(s + l0))
            return integrate.quad(f, 0, l0 + 9, limit=500)[0]

        for u in (-3.0, -0.5, 0.0, 1.2, 4.0):
            assert st_.pdf(u) == pytest.approx(oracle(u), abs=1e-8)

    def test_large_lambda0_brute_force_oracle(self):
        # concentrated mixing: law close to a plain noncentral t, and the
        # brute-force quadrature oracle agrees tightly
        nu, d0, l0 = 10, 3.0, 100.0
        st_ = signed_t_mixture(nu, d0, l0)

        def oracle(u):
            f = lambda s: stats.nct.pdf(u, nu, d0 / s) * (
                stats.norm.pdf(s - l0) + stats.norm.pdf(s + l0))
            return integrate.quad(f, l0 - 10, l0 + 10, limit=300)[0]

        u = np.linspace(-3.0, 3.0, 13)
        mine = st_.pdf(u)
        ref = np.array([oracle(v) for v in u])
        assert np.max(np.abs(mine - ref)) < 1e-9
        plain = stats.nct.pdf(u, nu, d0 / l0)
        assert np.max(np.abs(mine - plain)) < 1e-3

    @pytest.mark.parametrize("u", [40.0, 100.0])
    def test_pdf_at_nu_200_against_nct_quadrature(self, u):
        # the conditional law's transition narrows like 1/sqrt(nu): the
        # extreme rule's panel density has to follow it
        want = log_s_quad(lambda s: stats.nct.pdf(u, 200, 2.0 / s), 1.0)
        assert signed_t_mixture(200, 2.0, 1.0).pdf(u) == pytest.approx(want, rel=1e-9)

    def test_negative_delta0_mirrors(self):
        pos = signed_t_mixture(8, 1.5, 2.0)
        neg = signed_t_mixture(8, -1.5, 2.0)
        u = np.linspace(-4.0, 4.0, 17)
        assert np.max(np.abs(neg.pdf(u) - pos.pdf(-u))) < 1e-12
        assert neg.cdf(-1.0) == pytest.approx(1.0 - pos.cdf(1.0), abs=1e-9)

    def test_gaussian_root_kernel_consistent_with_series(self):
        # the extreme-node kernel against the t^2 series at noncentralities
        # inside the series budget, on the v-rule of one mixing node
        # (v = g + phi over the Gaussian g-rule): pdf against the
        # noncentral-F density, CDF against the noncentral-F series,
        # and 2u f_t2(u^2) against the signed series f_t(u) + f_t(-u).  At
        # phi = 6 the root g + phi crosses 0 inside the g-rule, so u starts
        # where that stays resolved (in use the kernel serves only phi >= 20).
        nu = 10.0
        u = np.linspace(0.5, 8.0, 31)
        y = u * u
        j = np.arange(0, 1200)
        g, gw = std_gaussian_rule()
        for phi in (6.0, 15.0):
            order = np.argsort((g + phi) ** 2)
            v2, h = ((g + phi) ** 2)[order], gw[order]
            pdf_k = mx._gaussian_root_parts(y, nu, v2, h, want_pdf=True)
            cdf_k = mx._gaussian_root_parts(y, nu, v2, h, want_pdf=False)
            assert np.max(np.abs(pdf_k - stats.ncf.pdf(y, 1, nu, phi ** 2))) < 1e-9
            assert np.max(np.abs(cdf_k - ser.ncf_cdf(y, 1.0, nu, phi * phi))) < 1e-9

            def signed_series(v):
                g = v / np.sqrt(nu + v * v)
                terms = np.exp(-0.5 * phi * phi + j * np.log(np.sqrt(2.0) * phi)
                               + ser.nct_log_cj(j, nu))
                return (terms @ (g[None, :] ** j[:, None])
                        * np.exp(ser.nct_log_prefactor(v, nu)))

            both = signed_series(u) + signed_series(-u)
            assert np.max(np.abs(2.0 * u * pdf_k - both)) < 1e-9

    @pytest.mark.parametrize("nu,d0,l0", [(10, 1.0, 1.0), (6, -1.5, 2.0),
                                           (8, 1.2, 6.0)])
    def test_cdf_difference_matches_integrated_pdf(self, nu, d0, l0):
        # the CDF series against a Gauss-Legendre integral of the pdf series,
        # out to a right-tail interval ending at 1e3 (log-graded there)
        st_ = signed_t_mixture(nu, d0, l0)
        lin = lambda a, b: np.linspace(a, b, 201)
        for edges in (lin(-6.0, -1.0), lin(-1.0, 0.5), lin(0.5, 6.0),
                      np.logspace(np.log10(6.0), 3.0, 401)):
            nodes, weights = gauss_legendre_nodes(edges, 16)
            integral = float(np.dot(weights, st_.pdf(nodes)))
            diff = st_.cdf(edges[-1]) - st_.cdf(edges[0])
            assert diff == pytest.approx(integral, abs=1e-9)

    def test_far_tail_matches_tsq(self):
        # P[|t0| > U] both ways, where the extreme nodes carry the tail
        st_ = signed_t_mixture(10, 1.0, 1.0)
        tm = tsq_mixture(10, 1.0, 1.0)
        for big in (1e4, 1e6):
            signed = 1.0 - st_.cdf(big) + st_.cdf(-big)
            assert signed == pytest.approx(1.0 - tm.cdf(big * big), abs=1e-9)

    def test_nu_one_interval_matches_tsq(self):
        # the w^{-1/2}-weighted chi-squared(1) case; both routes are
        # certified to abs_tol
        st_ = signed_t_mixture(1, 1.0, 1.0)
        tm = tsq_mixture(1, 1.0, 1.0)
        for c in (0.5, 4.0, 161.4476):
            got = st_.interval_prob(-np.sqrt(c), np.sqrt(c))
            assert got == pytest.approx(tm.cdf(c), abs=1e-9)

    def test_conditional_cdf_oracle(self):
        # F(u) = sum_s w_s E_W[Phi(u sqrt(W/nu) - delta0/s)], W ~ chi2_nu,
        # on a tensor Gauss-Legendre rule of its own (log-graded in s)
        nu, d0, l0 = 10, 1.0, 1.0
        s_edges = np.concatenate([np.logspace(-9, -1, 81)[:-1],
                                  np.linspace(0.1, l0 + 9.0, 81)])
        s, ws = gauss_legendre_nodes(s_edges, 12)
        ws = ws * (stats.norm.pdf(s - l0) + stats.norm.pdf(s + l0))
        w_edges = np.linspace(stats.chi2.ppf(1e-15, nu),
                              stats.chi2.ppf(1.0 - 1e-15, nu), 41)
        w, ww = gauss_legendre_nodes(w_edges, 12)
        ww = ww * stats.chi2.pdf(w, nu)
        st_ = signed_t_mixture(nu, d0, l0)
        for u in (-2.5, -0.3, 0.0, 1.1, 4.0, 30.0):
            cond = special.ndtr(u * np.sqrt(w / nu)[None, :] - d0 / s[:, None])
            assert st_.cdf(u) == pytest.approx(ws @ cond @ ww, abs=1e-9)


class TestNormalizationGrid:
    """Every pdf integrates to 1 (the 12-point acceptance grid lives in
    test_acceptance; these are spot checks with the graded integrator)."""

    def test_variance_lambda_one(self):
        vm = variance_mixture(10, 1.0)
        total = graded_norm(vm.pdf, 0.0, vm.support()[1], log_from=1e-9)
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_mean_octane(self):
        mm = mean_mixture(octane_params())
        lo, hi = mm.support()
        assert graded_norm(mm.pdf, lo, hi) == pytest.approx(1.0, abs=1e-8)


class TestDistSpec:
    def test_build_all_kinds(self):
        p = octane_params()
        assert DistSpec(kind="mean", params=p).build().cdf(87.2818) > 0.4
        assert DistSpec(kind="variance", nu=10, lam=1.0).build().cdf(5.0) > 0
        assert DistSpec(kind="tsq", nu=10, delta=1.0, lam=1.0).build().cdf(2.0) > 0
        assert DistSpec(kind="signed_t", nu=10, delta0=1.0,
                        lambda0=1.0).build().cdf(0.0) > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParamError):
            DistSpec(kind="nope")

    def test_missing_parameters_rejected(self):
        with pytest.raises(ParamError, match="delta"):
            DistSpec(kind="tsq", nu=10, lam=1.0).build()
        with pytest.raises(ParamError):
            DistSpec(kind="mean").build()

    def test_quadspec_validation(self):
        with pytest.raises(ValueError):
            QuadSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadSpec(mixing_range_sigmas=-1.0)
        with pytest.raises(ValueError):
            QuadSpec(abs_tol=np.nan)

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol",
                                       "mixing_range_sigmas"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_quadspec_rejects_non_finite(self, field, value):
        with pytest.raises(ParamError, match=field):
            QuadSpec(**{field: value})


class TestNonFiniteLawParams:
    @pytest.mark.parametrize("build,field", [
        (lambda v: variance_mixture(10, v), "lam"),
        (lambda v: tsq_mixture(10, v, 1.0), "delta"),
        (lambda v: tsq_mixture(10, 1.0, v), "lam"),
        (lambda v: signed_t_mixture(10, v, 1.0), "delta0"),
        (lambda v: signed_t_mixture(10, 1.0, v), "lambda0"),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejected_up_front(self, build, field, value):
        with pytest.raises(ParamError, match=field):
            build(value)


class TestChi2MixingRule:
    @pytest.mark.parametrize("lam", [0.0, 1e-4, 25.0, 400.0])
    def test_weights_sum_to_one(self, lam):
        quad = QuadSpec()
        s, w = mx._chi2_mixing_rule(np.sqrt(lam), 0.0, quad)
        assert np.all(s >= 0.0) and np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=quad.abs_tol)

    @pytest.mark.parametrize("lam", [0.0, 1e-4, 25.0, 400.0])
    @pytest.mark.parametrize("s_split", [0.0158, 1.0])
    def test_extreme_nodes_carry_the_mass_below_split(self, lam, s_split):
        # the series nodes cover [s_split, s_hi] and the extreme v-rule
        # (s_lo, s_split]; the half-normal mass below s_lo is known in
        # closed form and stays below 1e-3 abs_tol
        quad = QuadSpec()
        lam0 = np.sqrt(lam)
        s, w = mx._chi2_mixing_rule(lam0, s_split, quad)
        ext = mx._ExtremeRule(10.0, 20.0 * s_split, lam0, s_split, quad.abs_tol)
        assert s.min() >= s_split and ext.s_lo <= s_split
        below = special.ndtr(ext.s_lo - lam0) - special.ndtr(-ext.s_lo - lam0)
        assert below <= 1e-3 * quad.abs_tol
        _, h = ext._nodes
        assert w.sum() + h.sum() + below == pytest.approx(1.0, abs=quad.abs_tol)


class TestExtremeRule:
    """The one-dimensional v-rule against the per-node kernel on log-graded
    s-panels (6 per decade, 12 points) over the same (s_lo, s_split]."""

    @staticmethod
    def per_node(ext, u, want_pdf):
        decades = round(np.log10(ext.s_split / ext.s_lo))
        edges = ext.s_split * np.logspace(-decades, 0.0, 6 * decades + 1)
        s, w = gauss_legendre_nodes(edges, 12)
        w = w * ser.sqrt_ncchisq1_pdf(s, ext.lam0)
        return per_node_gaussian_root_parts(u, ext.nu, w, ext.root_d / s, want_pdf)

    @pytest.mark.parametrize("law", [
        lambda: tsq_mixture(10, 1.0, 0.0), lambda: tsq_mixture(4, 9.0, 1.0),
        lambda: tsq_mixture(30, 4.0, 25.0), lambda: tsq_mixture(1, 2.0, 0.5),
        lambda: tsq_mixture(19, 2.0, 0.94), lambda: signed_t_mixture(10, 1.0, 1.0),
        lambda: signed_t_mixture(8, 1.2, 6.0)])
    def test_matches_per_node_kernel(self, law):
        ext = law()._core.ext
        assert ext.s_lo < ext.s_split
        u = np.logspace(-1.0, 18.0, 120)
        for want_pdf in (True, False):
            got = ext.parts(u, want_pdf)
            assert np.max(np.abs(got - self.per_node(ext, u, want_pdf))) < 1e-12

    def test_no_rule_when_the_mass_below_split_is_negligible(self):
        # lam0 = 40: P[s < s_split] is far below 1e-3 abs_tol
        ext = tsq_mixture(10, 1e6, 1600.0)._core.ext
        assert ext.s_lo == ext.s_split
        assert np.all(ext.parts(np.logspace(-1.0, 30.0, 50), False) == 0.0)

    @pytest.mark.parametrize("law", [lambda: tsq_mixture(10, 1.0, 0.0),
                                     lambda: signed_t_mixture(10, 70.0, 0.0)])
    def test_cdf_reaches_one_in_the_far_tail(self, law):
        # the v-rule grades down to where the mass left out is below
        # 1e-3 abs_tol, so the heavy tail's CDF levels off at 1
        ev = law()
        for u in (1e30, 1e40):
            assert ev.cdf(u) == pytest.approx(1.0, abs=ev.quad.abs_tol)


class TestBetaSeries:
    @settings(max_examples=60, deadline=None)
    @given(a=st.sampled_from([0.5, 1.0]), nu=st.floats(1.0, 200.0),
           phi=st.floats(0.0, 20.0),
           x=st.lists(st.one_of(st.floats(0.0, 1.0), st.just(0.0),
                                st.just(1.0),
                                st.floats(0.0, 1e-15).map(lambda e: 1.0 - e)),
                      min_size=1, max_size=20))
    def test_recurrence_matches_betainc_series(self, a, nu, phi, x):
        x = np.array(x)
        coefs = lambda: mx._poisson_coefs(np.array([phi]), np.array([1.0]))
        got = mx._beta_series(coefs(), a, nu / 2.0, x, 1e-12, 16, "test")
        want = betainc_series(coefs(), a, nu / 2.0, x, 1e-12, 16)
        assert np.max(np.abs(got - want)) <= 1e-13


def test_dense_pdf_has_bounded_working_set():
    # a 200k-point grid is evaluated in blocks: the traced peak stays near
    # one block's node x point temporaries, not 200k x 1024 doubles (1.6 GB)
    mm = mean_mixture(octane_params())
    lo, hi = mm.support()
    u = np.linspace(lo, hi, 200_000)
    tracemalloc.start()
    try:
        pdf = mm.pdf(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pdf.shape == u.shape
    assert peak < 64e6
