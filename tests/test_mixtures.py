import functools
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, special, stats

from calibmix import (AccuracyError, MixtureParams, ParamError,
                      QuadSpec, mean_mixture, signed_t_mixture, tsq_mixture,
                      variance_mixture)
from calibmix.casestudy import moment_table_params, octane_params
from calibmix import mixtures as mx
from calibmix import parallel
from calibmix import special as ser
from calibmix.quadrature import _ABS_TOL_FLOOR, PanelRule, gauss_legendre_nodes

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


def variance_cdf_oracle(nu, lam, u):
    """Variance-law CDF conditioned on the slope draw, E_s[P(V <= u/s^2)]
    with V ~ chi2_nu, by quadrature in log s (graded toward s = 0, where
    the mass near u = 0 sits)."""
    return log_s_quad(lambda s: special.gammainc(nu / 2.0, u / (2.0 * s * s)),
                      np.sqrt(lam))


def variance_pdf_oracle(nu, lam, u):
    """Density of u = W V, W ~ chi2_1(lam), V ~ chi2_nu, from the Poisson-
    mixed Bessel-K product-density series (Wells, Anderson & Cell 1962):
    sum_j pois(j; lam/2) (u/4)^((a+b)/2 - 1) K_(a-b)(sqrt u)
    / (2 Gamma(a) Gamma(b)), a = j + 1/2, b = nu/2.  Sixty terms leave
    less than 1e-30 of Poisson mass at lam <= 10.1."""
    j = np.arange(61.0)
    a, b = j + 0.5, nu / 2.0
    log_terms = (stats.poisson.logpmf(j, lam / 2.0)
                 + ((a + b) / 2.0 - 1.0) * np.log(u / 4.0)
                 + np.log(special.kve(a - b, np.sqrt(u))) - np.sqrt(u)
                 - special.gammaln(a) - special.gammaln(b))
    return 0.5 * float(np.sum(np.exp(log_terms)))


def mean_cdf_oracle_sigma0_zero(p, u):
    """Mean-law CDF at sigma0 = 0, E_t[Phi((u - beta0 - t mu_z) /
    (|t| sigma_z / sqrt(n)))], by quadrature in log |t| on either side of
    t = 0, with a breakpoint where the components' transition sits."""
    c = abs(u - p.beta0)

    def side(sign):
        def f(lt):
            t = sign * np.exp(lt)
            z = (u - p.beta0 - t * p.mu_z) / (abs(t) * p.sigma_z / np.sqrt(p.n))
            return special.ndtr(z) * stats.norm.pdf(t, p.beta1, p.sigma1) * abs(t)
        return integrate.quad(f, np.log(1e-16), np.log(abs(p.beta1) + 12 * p.sigma1),
                              points=[np.log(c)], limit=4000,
                              epsabs=1e-15, epsrel=1e-13)[0]
    return side(-1.0) + side(1.0)


def ncf_cdf_oracle(nu, delta, lam, u):
    return log_s_quad(lambda s: special.ncfdtr(1, nu, delta / s ** 2, u),
                      np.sqrt(lam))


def ncf_pdf_oracle(nu, delta, lam, u):
    return log_s_quad(lambda s: stats.ncf.pdf(u, 1, nu, delta / s ** 2),
                      np.sqrt(lam))


def nct_pdf_large_nu(t, nu, phi):
    """Noncentral t pdf at large nu as E_W[W phi_N(t W - phi)], W =
    sqrt(chi2_nu / nu), on a Gauss rule over W's mean +/- 12 sd (nu >=
    1000).  scipy's nct.pdf raises OverflowError there from about phi = 15."""
    sd = np.sqrt(0.5 / nu)
    w, ww = gauss_legendre_nodes(np.linspace(1.0 - 12.0 * sd, 1.0 + 12.0 * sd,
                                             97), 16)
    dens = ww * stats.chi.pdf(w, nu, scale=1.0 / np.sqrt(nu)) * w
    return float(stats.norm.pdf(t * w - phi) @ dens)


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


def dense_series_coefs(core, root_d, j):
    """Reference for mx._SeriesCoefs: the noncentral-t core's m_j and the
    signed law's n_j at j, each summed over all of the core's series nodes,
    phi = root_d / s:
      m_j = sum_s w pois(j; phi^2/2),
      n_j = sum_s (w phi / sqrt 2) e^{-phi^2/2} (phi^2/2)^j / Gamma(j + 3/2).
    j log b takes numpy's log, as the live-node builder does: scipy's xlogy
    takes the C library's log, which differs from it in the last bit for
    some b, and j log b carries that to 2e-14 relative at j ~ 300."""
    s = core.s
    phi = np.divide(root_d, s, out=np.zeros_like(s), where=s > 0.0)
    half_sq = 0.5 * phi ** 2
    jj = j[:, None]

    def block(b, w, log_g):
        with np.errstate(divide="ignore", invalid="ignore"):
            log_b = np.where(jj == 0.0, 0.0, jj * np.log(b))
        return np.exp(log_b - half_sq + log_g[:, None]) @ w

    return (block(half_sq, core.w, -special.gammaln(j + 1.0)),
            block(half_sq, core.w * phi / np.sqrt(2.0),
                  -special.gammaln(j + 1.5)))


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

    @pytest.mark.parametrize("mu_z", [0.0, 1.0])
    def test_sigma0_zero_cdf_against_quadrature(self, mu_z):
        # the components shrink to a point at t = 0: the rule grades toward
        # it by decades, and the CDF holds to abs_tol within 1e-5 of beta0
        p = MixtureParams(n=10, beta0=1.0, sigma0=0.0, mu_z=mu_z, sigma_z=1.0,
                          beta1=0.3, sigma1=1.0)
        mm = mean_mixture(p)
        for d in (1e-5, 1e-3, 0.1, 2.0):
            for u in (1.0 - d, 1.0 + d):
                assert mm.cdf(u) == pytest.approx(
                    mean_cdf_oracle_sigma0_zero(p, u), abs=1e-9)

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

    @pytest.mark.parametrize("nu,lam", [(5, 4.0), (10, 10.0953), (1, 0.5)])
    def test_near_zero_against_oracles(self, nu, lam):
        # u -> 0, where the law's mass sits in V's lower tail and its pdf
        # rises like u^(-1/2)
        vm = variance_mixture(nu, lam)
        for u in np.geomspace(1e-6, 0.5, 6):
            assert vm.cdf(u) == pytest.approx(variance_cdf_oracle(nu, lam, u),
                                              abs=1e-9)
            assert vm.pdf(u) == pytest.approx(variance_pdf_oracle(nu, lam, u),
                                              rel=1e-9, abs=1e-9)

    def test_stochastic_ordering_in_lambda(self):
        cdfs = [variance_mixture(10, lam).cdf(20.0) for lam in (1.0, 4.0, 9.0)]
        assert cdfs[0] > cdfs[1] > cdfs[2]

    @pytest.mark.parametrize("nu,lam", [(3, 0.5), (10, 10.0953)])
    @pytest.mark.parametrize("prob", [0.001, 0.025, 0.5, 0.975])
    def test_ppf_takes_few_cdf_calls(self, nu, lam, prob):
        # a bracket from u = 0 gave ITP no slope there: 28 and 21 calls at
        # the 0.001 quantiles
        vm = variance_mixture(nu, lam)
        cdf, calls = vm.cdf, []
        vm.cdf = lambda u: calls.append(u) or cdf(u)
        u = vm.ppf(prob)
        assert len(calls) <= 16
        assert cdf(u) == pytest.approx(prob, abs=1e-9)


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

    @pytest.mark.parametrize("delta,lam", [(0.0, 1.0), (2.935, 10.095)])
    def test_lower_ppf_takes_few_cdf_calls(self, delta, lam):
        # a bracket from u = 0 gave ITP no slope there: 24 and 29 calls
        tm = tsq_mixture(10, delta, lam)
        cdf, calls = tm.cdf, []
        tm.cdf = lambda u: calls.append(u) or cdf(u)
        u = tm.ppf(0.025)
        assert len(calls) <= 16
        assert cdf(u) == pytest.approx(0.025, abs=1e-9)

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
        # and 2u f_t2(u^2) against the signed density f_t(u) + f_t(-u).  At
        # phi = 6 the root g + phi crosses 0 inside the g-rule, so u starts
        # where that stays resolved (in use the kernel serves only phi >= 20).
        nu = 10.0
        u = np.linspace(0.5, 8.0, 31)
        y = u * u
        g, gw = std_gaussian_rule()
        for phi in (6.0, 15.0):
            order = np.argsort((g + phi) ** 2)
            v2, h = ((g + phi) ** 2)[order], gw[order]
            rule = mx._RootRule(nu, v2, h)
            pdf_k = rule.parts(y, want_pdf=True)
            cdf_k = rule.parts(y, want_pdf=False)
            assert np.max(np.abs(pdf_k - stats.ncf.pdf(y, 1, nu, phi ** 2))) < 1e-9
            assert np.max(np.abs(cdf_k - ser.ncf_cdf(y, 1.0, nu, phi * phi))) < 1e-9
            both = stats.nct.pdf(u, nu, phi) + stats.nct.pdf(-u, nu, phi)
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

    def test_far_tail_is_not_quantized(self):
        # x = u^2/(u^2 + nu) is within 2e-15 of 1 here, where it rounds to
        # a few values: the CDF took 2 distinct values over these points
        st_ = signed_t_mixture(1, 1.5, 1e-4)
        u = np.linspace(-2.30e7, -2.40e7, 11)
        f = st_.cdf(u)
        assert np.all(np.diff(f) < 0)
        # the nu = 1 tail is c/|u|
        assert np.ptp(f * -u) < 1e-5 * np.mean(f * -u)
        cdf, calls = st_.cdf, []
        st_.cdf = lambda v: calls.append(v) or cdf(v)
        assert cdf(st_.ppf(1e-9)) == pytest.approx(1e-9, rel=1e-6)
        assert len(calls) <= 40       # 49 with the quantized tail

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
        # the pdf rises like u^(-1/2) at 0: the first, ungraded panel
        # [0, log_from] holds about 5e-6 sqrt(log_from / 1e-9) of mass, which
        # its Gauss rule integrates only to a few percent
        vm = variance_mixture(10, 1.0)
        total = graded_norm(vm.pdf, 0.0, vm.support()[1], log_from=1e-16)
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_mean_octane(self):
        mm = mean_mixture(octane_params())
        lo, hi = mm.support()
        assert graded_norm(mm.pdf, lo, hi) == pytest.approx(1.0, abs=1e-8)


class TestQuadSpec:
    def test_quadspec_validation(self):
        with pytest.raises(ValueError):
            QuadSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadSpec(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadSpec(abs_tol=np.nan)

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
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


SIGMA0_ZERO = MixtureParams(n=2, beta0=0.0, sigma0=0.0, mu_z=1.0, sigma_z=1.0,
                            beta1=1e-3, sigma1=1.0)
LAWS_AT_EDGES = {
    # nu = 1, sigma0 = 0 and lambda -> 0
    "mean": (lambda: mean_mixture(SIGMA0_ZERO), [-3.0, -0.2, 1e-3, 0.4, 5.0]),
    "variance": (lambda: variance_mixture(1, 1e-8),
                 [1e-4, 0.05, 1.0, 6.0, 40.0]),
    "tsq": (lambda: tsq_mixture(1, 2.0, 1e-8), [1e-4, 0.05, 1.0, 6.0, 300.0]),
    "signed_t": (lambda: signed_t_mixture(1, 1.5, 1e-4),
                 [-20.0, -0.5, 0.3, 2.0, 60.0]),
}


class TestNonFiniteAbscissae:
    @pytest.mark.parametrize("make", [
        lambda: mean_mixture(octane_params()),
        lambda: variance_mixture(10, 1.0),
        lambda: tsq_mixture(10, 1.0, 1.0),
        lambda: signed_t_mixture(10, -1.0, 1.0),
    ], ids=["mean", "variance", "tsq", "signed_t"])
    def test_infinities_and_nan(self, make):
        ev = make()
        assert ev.cdf(-np.inf) == 0.0 and ev.cdf(np.inf) == 1.0
        assert ev.pdf(-np.inf) == 0.0 and ev.pdf(np.inf) == 0.0
        got = ev.cdf(np.array([-np.inf, 1.0, np.inf]))
        assert got[0] == 0.0 and got[2] == 1.0 and got[1] == ev.cdf(1.0)
        for call in (ev.cdf, ev.pdf):
            with pytest.raises(ParamError, match="NaN"):
                call(np.nan)
            with pytest.raises(ParamError, match="NaN"):
                call(np.array([1.0, np.nan]))
        with pytest.raises(ParamError, match="NaN"):
            ev.interval_prob(np.nan, 2.0)
        for prob in (np.nan, 0.0, 1.0):
            with pytest.raises(ParamError, match="probability"):
                ev.ppf(prob)


class TestInversionRoundTrip:
    @pytest.mark.parametrize("kind", sorted(LAWS_AT_EDGES))
    def test_ppf_inverts_cdf(self, kind):
        make, points = LAWS_AT_EDGES[kind]
        ev = make()
        for u in points:
            p = ev.cdf(u)
            assert 1e-4 < p < 1.0 - 1e-4
            assert ev.ppf(p) == pytest.approx(u, abs=1e-8)


PROBS = st.floats(1e-6, 1.0 - 1e-6)


def assert_inverts(ev, prob, tol=1e-9):
    u = ev.ppf(prob)
    assert abs(ev.cdf(u) - prob) <= tol


class TestInversionProperty:
    """cdf(ppf(p)) = p over each law's domain; the x tolerance of at most
    1e-10 in the law's coordinate holds the CDF where a narrow law's pdf
    is large."""

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(2, 60), beta0=st.floats(-5.0, 5.0),
           sigma0=st.floats(0.0, 2.0), mu_z=st.floats(-3.0, 3.0),
           sigma_z=st.floats(0.1, 3.0), beta1=st.floats(-3.0, 3.0),
           sigma1=st.floats(0.05, 2.0), prob=PROBS)
    @example(n=29, beta0=3.6, sigma0=0.0, mu_z=0.0, sigma_z=0.1, beta1=0.0,
             sigma1=0.05, prob=0.5)    # the median, by a pdf spike at beta0
    @example(n=2, beta0=0.0, sigma0=0.0, mu_z=1.0, sigma_z=1.0, beta1=1e-3,
             sigma1=1.0, prob=1e-6)
    def test_mean(self, n, beta0, sigma0, mu_z, sigma_z, beta1, sigma1, prob):
        assert_inverts(mean_mixture(MixtureParams(
            n=n, beta0=beta0, sigma0=sigma0, mu_z=mu_z, sigma_z=sigma_z,
            beta1=beta1, sigma1=sigma1)), prob)

    @settings(max_examples=12, deadline=None)
    @given(nu=st.integers(1, 200), lam=st.floats(0.0, 400.0), prob=PROBS)
    @example(nu=1, lam=1e-8, prob=1e-6)
    @example(nu=1, lam=400.0, prob=1.0 - 1e-6)
    def test_variance(self, nu, lam, prob):
        assert_inverts(variance_mixture(nu, lam), prob)

    @settings(max_examples=12, deadline=None)
    @given(nu=st.integers(1, 100), delta=st.floats(0.0, 25.0),
           lam=st.floats(0.0, 400.0), prob=PROBS)
    @example(nu=1, delta=25.0, lam=1e-8, prob=1.0 - 1e-6)
    @example(nu=1, delta=2.0, lam=400.0, prob=1e-6)
    def test_tsq(self, nu, delta, lam, prob):
        assert_inverts(tsq_mixture(nu, delta, lam), prob)

    @settings(max_examples=12, deadline=None)
    @given(nu=st.integers(1, 100), delta0=st.floats(-5.0, 5.0),
           lambda0=st.floats(0.0, 20.0), prob=PROBS)
    @example(nu=1, delta0=1.5, lambda0=1e-4, prob=1e-6)
    @example(nu=1, delta0=-5.0, lambda0=20.0, prob=1.0 - 1e-6)
    def test_signed_t(self, nu, delta0, lambda0, prob):
        assert_inverts(signed_t_mixture(nu, delta0, lambda0), prob)


REACH_LAWS = {
    "signed_t(1, 1.5, 1e-4)": lambda: signed_t_mixture(1, 1.5, 1e-4),
    "signed_t(10, 5, 0.5)": lambda: signed_t_mixture(10, 5.0, 0.5),
    "tsq(1, 2, 1e-8)": lambda: tsq_mixture(1, 2.0, 1e-8),
    "mean sigma0=0": lambda: mean_mixture(SIGMA0_ZERO),
}


class TestInversionReach:
    @pytest.mark.parametrize("law", sorted(REACH_LAWS))
    @pytest.mark.parametrize("prob", [1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_far_quantiles_solve(self, law, prob):
        # up to |u| = 2e10 on the signed-t laws and 4e20 on the t^2 law
        assert_inverts(REACH_LAWS[law](), prob, tol=2e-11)

    @pytest.mark.parametrize("make,most", [
        (lambda: signed_t_mixture(10, 5.0, 0.5), 16),   # 44 from a fixed bracket
        (lambda: mean_mixture(SIGMA0_ZERO), 12),         # 21 from its support
    ], ids=["signed_t", "mean sigma0=0"])
    def test_upper_quantile_takes_few_cdf_calls(self, make, most):
        ev = make()
        cdf, calls = ev.cdf, []
        ev.cdf = lambda u: calls.append(u) or cdf(u)
        u = ev.ppf(0.975)
        assert len(calls) <= most
        assert abs(cdf(u) - 0.975) <= 1e-9

    def test_failure_names_law_and_stage(self, monkeypatch):
        # a CDF series cut short in the first grid's CDF call
        tm = tsq_mixture(10, 100.0, 4.0)
        monkeypatch.setattr(mx, "_MAX_J_TERMS", 4)
        with pytest.raises(AccuracyError, match=r"^TsqMixture\(nu=10.0, "
                           r"delta=100.0, lam=4.0, quad=QuadSpec\(.*\)\): "
                           r"ppf bracket at prob=0.3: t\^2 mixture CDF series"):
            tm.ppf(0.3)


class TestChi2MixingRule:
    """The noncentral-t core's series nodes of s = sqrt(w), w ~ chi2_1(lam),
    on [s_split, s_hi], with s_split = min(D/20, s_hi)."""

    @pytest.mark.parametrize("lam", [0.0, 1e-4, 25.0, 400.0])
    def test_weights_sum_to_one(self, lam):
        # D = 0 puts s_split at 0, so the series nodes carry all the mass
        quad = QuadSpec()
        core = mx._NoncentralT(10.0, 0.0, np.sqrt(lam), quad)
        assert np.all(core.s >= 0.0) and np.all(core.w >= 0.0)
        assert core.w.sum() == pytest.approx(1.0, abs=quad.abs_tol)

    @pytest.mark.parametrize("lam", [0.0, 1e-4, 25.0, 400.0])
    @pytest.mark.parametrize("s_split", [0.0158, 1.0])
    def test_extreme_nodes_carry_the_mass_below_split(self, lam, s_split):
        # the series nodes cover [s_split, s_hi] and the extreme v-rule
        # (s_lo, s_split]; the half-normal mass below s_lo is known in
        # closed form and stays below 1e-3 abs_tol
        quad = QuadSpec()
        lam0 = np.sqrt(lam)
        core = mx._NoncentralT(10.0, 20.0 * s_split, lam0, quad)
        ext = core.ext
        assert ext.s_split == pytest.approx(s_split, rel=1e-15)
        assert core.s.min() >= ext.s_split and ext.s_lo <= ext.s_split
        below = special.ndtr(ext.s_lo - lam0) - special.ndtr(-ext.s_lo - lam0)
        assert below <= 1e-3 * quad.abs_tol
        h = ext.rule().h
        assert core.w.sum() + h.sum() + below == pytest.approx(1.0, abs=quad.abs_tol)


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
        # lam0 = 40 and s_split = D/20 = 0.5: P[s < s_split] is far below
        # 1e-3 abs_tol
        ext = tsq_mixture(10, 100.0, 1600.0)._core.ext
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


class TestClosedFormQ:
    """Q(nu/2, y) of the extreme band: finite sums for every integer and
    half-integer nu/2 up to _Q_SUM_MAX, gammaincc elsewhere."""

    def test_matches_gammaincc_over_the_snap_band(self):
        for nu in range(1, 2 * mx._Q_SUM_MAX + 1):
            rule = mx._RootRule(float(nu), np.zeros(0), np.zeros(0))
            y = np.linspace(rule.y_lo, rule.y_hi, 401)
            want = special.gammaincc(nu / 2.0, y)
            assert np.max(np.abs(rule._upper_gamma(y) - want)) <= 1e-14, nu

    @pytest.mark.parametrize("nu", [10.5, 2.0 * mx._Q_SUM_MAX + 1.0])
    def test_gammaincc_serves_elsewhere(self, nu):
        rule = mx._RootRule(nu, np.zeros(0), np.zeros(0))
        y = np.linspace(rule.y_lo, rule.y_hi, 101)
        assert np.array_equal(rule._upper_gamma(y.copy()),
                              special.gammaincc(nu / 2.0, y))

    @pytest.mark.parametrize("nu", [1.0, 2.0, 11.0, 200.0])
    def test_off_band_entries_stay_finite(self, nu):
        # off the band y is v^2 nu/2 undivided, up to 5e13 here, where the
        # sums overflow and e^{-y} is 0
        v2 = np.geomspace(1e-3, 1e12, 400)
        rule = mx._RootRule(nu, v2, np.full(v2.size, 1.0 / v2.size))
        f = rule.parts(np.geomspace(1e-6, 1e14, 300), want_pdf=False)
        assert np.all(np.isfinite(f)) and np.all((f >= 0.0) & (f <= 1.0 + 1e-12))
        assert np.all(np.diff(f) >= -1e-12)


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
        coefs = lambda: mx._poisson_coefs(np.array([phi]), np.array([1.0]),
                                          1e-12)
        got = mx._beta_series(coefs(), a, nu / 2.0, x, 1.0 - x, 1e-12, "test")
        want = betainc_series(coefs(), a, nu / 2.0, x, 1e-12, mx._MIN_TERMS)
        assert np.max(np.abs(got - want)) <= 1e-13


class TestSeriesCoefs:
    @settings(max_examples=30, deadline=None)
    @given(nu=st.floats(1.0, 200.0),
           root_d=st.one_of(st.just(0.0),
                            st.floats(0.0, 30.0, exclude_min=True)),
           lam0=st.floats(0.0, 8.0))
    @example(nu=1.0, root_d=0.0, lam0=5e-324)    # series nodes at s = 0
    @example(nu=1.0, root_d=5e-324, lam0=5e-324)
    def test_live_nodes_match_dense_builder(self, nu, root_d, lam0):
        quad = QuadSpec()
        law = signed_t_mixture(nu, root_d, lam0, quad)
        core = law._core
        seqs = (core.m, law._n)
        # grown by the blocks the series take, so nodes leave between them
        reached = [mx._MIN_TERMS]
        while reached[-1] < 1280:
            reached.append(min(2 * reached[-1], reached[-1] + 4096))
        for j_hi in reached:
            for c in seqs:
                c.upto(j_hi)
        j = np.arange(reached[-1], dtype=float)
        refs = dense_series_coefs(core, root_d, j)
        floor = 2e-15 * quad.abs_tol
        for c, ref in zip(seqs, refs):
            assert np.all(np.abs(c.upto(j.size) - ref) <= 1e-15 * ref + floor)
        # what is left never reads below the dense remainder, up to the
        # rounding of the two sums
        for c, ref in zip(seqs, refs):
            for j_hi in reached:
                left = max(c.mass - float(ref[:j_hi].sum()), 0.0)
                assert c.left_after(j_hi) >= left - 4.0 * np.spacing(c.mass)


def traced_pdf_peak(params, points):
    """Peak traced bytes of a pdf over ``points`` abscissae of the support."""
    mm = mean_mixture(params)
    u = np.linspace(*mm.support(), points)
    tracemalloc.start()
    try:
        pdf = mm.pdf(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pdf.shape == u.shape
    return peak


def test_dense_pdf_has_bounded_working_set():
    # a 200k-point grid is evaluated in blocks: the traced peak stays near
    # one block's node x point temporaries, not 200k x 160 doubles
    assert traced_pdf_peak(octane_params(), 200_000) < 64e6


# the sigma0 = 0 bundle whose decade anchors took 27648 nodes under global
# panel doubling
SPIKE = MixtureParams(n=100, beta0=1.0, sigma0=0.0, mu_z=1.0, sigma_z=0.2,
                      beta1=2.0, sigma1=1.0)


def test_large_rule_pdf_has_bounded_working_set():
    # its 512-point blocks of 27648 nodes peaked at 341 MB; now fewer nodes
    # and fewer points per block keep each temporary within 16 MB
    assert traced_pdf_peak(SPIKE, 20_000) < 64e6


def fixed_rule(per_segment):
    """A stand-in for refine_panels: ``per_segment`` equal panels between
    the law's anchors, without refinement."""
    def rule(f, lo, hi, quad, *, split_at=(), **_):
        anchors = [lo] + sorted(p for p in split_at if lo < p < hi) + [hi]
        return PanelRule(np.unique(np.concatenate(
            [np.linspace(a, b, per_segment + 1)
             for a, b in zip(anchors, anchors[1:])])))
    return rule


def fine_law(monkeypatch, build):
    """The law ``build()`` makes, on 64 fixed panels per anchored segment."""
    with monkeypatch.context() as m:
        m.setattr(mx, "refine_panels", fixed_rule(64))
        return build()


class TestAdaptiveRule:
    """The locally adaptive mixing rules: their sizes, and their numbers
    against a fixed fine rule of 64 panels per segment."""

    def test_node_counts(self):
        # global doubling kept 256 nodes at the octane point for both laws
        assert mean_mixture(octane_params())._x.size <= 160
        assert variance_mixture(10, OCT_LAM)._x.size <= 128

    @pytest.mark.parametrize("delta0,lambda0", [(0.3, 1.0), (-0.5, 3.0)])
    def test_s_rule_keeps_1024_nodes(self, delta0, lambda0):
        # the s-rule certifies its mass only, from 32 initial panels
        assert signed_t_mixture(10, delta0, lambda0)._core.s.size == 1024

    @pytest.mark.parametrize("params", [octane_params()] + moment_table_params()
                             + [MixtureParams(n=10, beta0=1.0, sigma0=0.0,
                                              mu_z=1.0, sigma_z=1.0,
                                              beta1=0.3, sigma1=1.0)])
    def test_mean_law_against_fine_rule(self, params, monkeypatch):
        mm = mean_mixture(params)
        ref = fine_law(monkeypatch, lambda: mean_mixture(params))
        u = np.linspace(*mm.support(), 201)
        if params.sigma0 == 0:       # the pdf spikes at beta0: approach it
            d = np.geomspace(1e-9, 1.0, 60)
            u = np.concatenate([u, params.beta0 - d, params.beta0 + d])
        assert np.max(np.abs(mm.cdf(u) - ref.cdf(u))) <= 1e-9
        # nearer the spike than 1e-9 the pdf is not certified, and below
        # 1e-11 neither rule holds it (the grid has a point 7e-15 above
        # beta0 at sigma0 = 0)
        u = u[np.abs(u - params.beta0) >= 1e-9]
        assert mm.pdf(u) == pytest.approx(ref.pdf(u), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("nu", [1, 2, 3, 10, 40])
    @pytest.mark.parametrize("lam", [0.0, 10.0, 100.0, 400.0])
    def test_variance_law_against_fine_rule(self, nu, lam, monkeypatch):
        # near u = 0 at lambda >= 100 and nu <= 3 the CDF is below abs_tol
        # and only the pdf probes certify the rule: without them the pdf
        # of (2, 400) read 45% off at u = 2.7e-6
        vm = variance_mixture(nu, lam)
        ref = fine_law(monkeypatch, lambda: variance_mixture(nu, lam))
        u = np.concatenate([np.geomspace(1e-12, 0.5, 60, endpoint=False),
                            np.linspace(0.5, vm.support()[1], 60)])
        assert np.max(np.abs(vm.cdf(u) - ref.cdf(u))) <= 1e-9
        assert vm.pdf(u) == pytest.approx(ref.pdf(u), rel=1e-9, abs=1e-9)

    def test_sigma0_zero_spike(self, monkeypatch):
        # global doubling took 27648 nodes here, as many as the 64-panel
        # rule
        mm = mean_mixture(SPIKE)
        assert mm._x.size < 27648
        ref = fine_law(monkeypatch, lambda: mean_mixture(SPIKE))
        d = np.geomspace(1e-9, 5.0, 150)
        u = np.concatenate([1.0 - d, 1.0 + d, np.linspace(*mm.support(), 101)])
        assert np.max(np.abs(mm.cdf(u) - ref.cdf(u))) <= 1e-9
        assert mm.pdf(u) == pytest.approx(ref.pdf(u), rel=1e-9, abs=1e-9)


class TestInPlaceKernels:
    @pytest.mark.parametrize("params", [octane_params(), SPIKE])
    def test_mean_kernel_is_the_plain_expression(self, params):
        p, mm = params, mean_mixture(params)
        t = mm._x
        u = np.append(np.linspace(*mm.support(), 301), p.beta0)
        sd = np.sqrt(t ** 2 * p.sigma_z ** 2 / p.n + p.sigma0 ** 2)[:, None]
        z = ((u - p.beta0)[None, :] - (t * p.mu_z)[:, None]) / sd
        assert np.array_equal(mm._kernel(t, u, True),
                              np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi)))
        assert np.array_equal(mm._kernel(t, u, False), special.ndtr(z))

    @pytest.mark.parametrize("nu,lam", [(10, OCT_LAM), (1, 400.0), (3, 0.0)])
    def test_variance_kernels_are_the_plain_expressions(self, nu, lam):
        vm = variance_mixture(nu, lam)
        x = vm._x
        u = np.concatenate([[-1.0, 0.0], np.geomspace(1e-10, vm.support()[1], 300)])
        v = np.exp(x)[:, None]
        lam0 = np.sqrt(lam)
        r = np.sqrt(np.clip(u, 0.0, None)[None, :] / v)
        assert np.array_equal(vm._kernel(x, u, False),
                              special.ndtr(r - lam0) - special.ndtr(-r - lam0))
        w = u[None, :] / v
        root = np.sqrt(np.maximum(w, 0.0))
        half_normal = (1.0 / np.sqrt(2.0 * np.pi)) * (
            np.exp(-0.5 * (root - lam0) ** 2) + np.exp(-0.5 * (root + lam0) ** 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(w > 0, half_normal / (2.0 * root), 0.0) / v
        assert np.array_equal(vm._kernel(x, u, True), want)


class TestSaturationEdges:
    """The edges past which the rule laws' kernels are written as constants,
    against the installed scipy and numpy, on dense grids out to +-1e3."""

    def test_ndtr(self):
        assert np.all(special.ndtr(np.linspace(mx._ONE, 1e3, 2_000_001)) == 1.0)
        assert np.all(special.ndtr(np.linspace(-1e3, -mx._ZERO, 2_000_001))
                      == 0.0)

    def test_gaussian_density(self):
        # the mean pdf kernel's own arithmetic
        z = np.concatenate([np.linspace(mx._ZERO, 1e3, 2_000_001),
                            np.linspace(-1e3, -mx._ZERO, 2_000_001)])
        z *= z
        z *= -0.5
        assert np.all(np.exp(z) == 0.0)

    @pytest.mark.parametrize("lam0", np.linspace(0.0, 30.0, 31))
    def test_variance_cdf_kernel(self, lam0):
        r = np.linspace(mx._ONE, 1e3, 200_001) + lam0
        assert np.all(special.ndtr(r - lam0) - special.ndtr(-r - lam0) == 1.0)


def test_t2_block_climbs_the_ladder_once(monkeypatch):
    # every point of a block of nearby x stops at one rung; climbing point
    # by point cost a betainc per point per rung below it
    tm = tsq_mixture(10, 2.935, 10.095)
    u = np.linspace(2.0, 2.2, 512)
    want = tm.cdf(u)
    counted = [0]
    betainc = special.betainc

    def counting(*args):
        counted[0] += np.size(args[-1])
        return betainc(*args)
    monkeypatch.setattr(mx.sp, "betainc", counting)
    assert np.array_equal(tm.cdf(u), want)
    rungs = int(np.log2(mx._TERM_BLOCK / mx._MIN_TERMS)) + 1
    assert counted[0] <= u.size + rungs


def test_large_nu_pdf_has_bounded_working_set():
    # the pdf's term x point tables are those of one 512-point block
    tm = tsq_mixture(5000, 25.0, 9.0)
    u = np.linspace(0.5, 30.0, 2000)
    tracemalloc.start()
    try:
        tm.pdf(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_large_nu_pdf_sums_few_terms():
    # the a_j power series certified only past nu + phi^2/2 + 2 phi terms
    # and summed 5120 of them here; the derivative series' tail bound
    # stops where the Poisson coefficients have died out
    tm = tsq_mixture(5000, 25.0, 9.0)
    tm.pdf(np.linspace(0.5, 30.0, 2000))
    assert tm._core.m._v.size <= 640


class TestHugeAbscissae:
    # u * u overflowed past |u| ~ 1.3e154: the signed law read NaN there
    # and numpy warned (an error under the suite's filter)
    @pytest.mark.parametrize("d0", [1.0, -1.0])
    def test_signed_t(self, d0):
        st_ = signed_t_mixture(10, d0, 1.0)
        u = np.array([1e155, -1e155, 1e300, -1e300])
        f = st_.pdf(u)
        assert np.all(np.isfinite(f)) and np.all(f >= 0.0)
        assert st_.cdf(u) == pytest.approx([1.0, 0.0, 1.0, 0.0],
                                           abs=st_.quad.abs_tol)

    def test_tsq(self):
        tm = tsq_mixture(10, 1.0, 1.0)
        u = np.array([1e300, 1.7e308])
        f = tm.pdf(u)
        assert np.all(np.isfinite(f)) and np.all(f >= 0.0)
        assert tm.cdf(u) == pytest.approx([1.0, 1.0], abs=tm.quad.abs_tol)


_R16 = np.polynomial.legendre.leggauss(16)


def noncentral_t_oracle(kind, nu, d, lam0, t):
    """The t^2 (kind "tsq", at u = t) or signed-t CDF at t, as an E_W
    quadrature of the closed form given s, mixed over s with density
    phi(s - lam0) + phi(s + lam0) by scipy's adaptive quad in log s, with
    breakpoints at lam0 and d/20.  Given s, with phi = d/s and r = sqrt(W)
    ~ chi_nu, the t^2 CDF is E[Phi(sqrt(t/nu) r - phi) - Phi(-sqrt(t/nu) r
    - phi)] and the signed-t CDF E[Phi(t r/sqrt(nu) - phi)]; each takes
    16-point Gauss-Legendre panels in r that resolve both the chi density
    and the step at r = phi/c, c the slope of r."""
    r_lo, r_hi = stats.chi.ppf(1e-16, nu), stats.chi.isf(1e-16, nu)
    log_norm = (0.5 * nu - 1.0) * math.log(2.0) + special.gammaln(0.5 * nu)
    base = np.linspace(r_lo, r_hi, 9)
    c = (math.sqrt(t) if kind == "tsq" else t) / math.sqrt(nu)

    def given_log_s(x):
        s = math.exp(x)
        phi = d / s
        lo, hi = max(r_lo, (phi - 10.0) / c), min(r_hi, (phi + 10.0) / c)
        edges = np.union1d(base, np.linspace(lo, hi, 5)) if lo < hi else base
        half = 0.5 * np.diff(edges)[:, None]
        r = (edges[:-1, None] + half * (1.0 + _R16[0])).ravel()
        wr = (half * _R16[1]).ravel() * np.exp(
            (nu - 1.0) * np.log(r) - 0.5 * r * r - log_norm)
        f = special.ndtr(c * r - phi)
        if kind == "tsq":
            f -= special.ndtr(-c * r - phi)
        dens = math.exp(-0.5 * (s - lam0) ** 2) + math.exp(-0.5 * (s + lam0) ** 2)
        return (wr @ f) * s * dens / math.sqrt(2.0 * math.pi)
    lo, hi = math.log(1e-13), math.log(lam0 + 9.0)
    points = [math.log(p) for p in (lam0, d / 20.0) if 1e-13 < p < lam0 + 9.0]
    return integrate.quad(given_log_s, lo, hi, points=points, epsabs=1e-11,
                          epsrel=0.0, limit=200)[0]


class TestLargeNoncentrality:
    """D = |delta0| = sqrt(delta) past 20 s_hi, where the v-rule takes the
    whole slope window: the series nodes keep phi = D/s <= 20 at every D."""

    @pytest.mark.parametrize("law", [lambda: tsq_mixture(10, 1e8, 1.0),
                                     lambda: signed_t_mixture(10, -1e4, 1.0)])
    def test_quantiles_certify(self, law):
        # both raised AccuracyError (CDF series past 120000 terms) when the
        # split sent draws with phi up to 2D/s_hi to the series
        ev = law()
        for p in (0.01, 0.5, 0.99):
            assert abs(ev.cdf(ev.ppf(p)) - p) <= 1e-9

    @pytest.mark.parametrize("d", [70.0, 72.0, 100.0, 1e3, 1e4])
    @pytest.mark.parametrize("nu", [1, 10, 100])
    def test_cdfs_match_the_oracle(self, d, nu):
        tm, st_ = tsq_mixture(nu, d * d, 1.0), signed_t_mixture(nu, d, 1.0)
        for t in d * np.array([0.5, 1.0, 2.0]):
            assert abs(tm.cdf(t * t) - noncentral_t_oracle(
                "tsq", nu, d, 1.0, t * t)) <= 1e-9
            assert abs(st_.cdf(t) - noncentral_t_oracle(
                "signed", nu, d, 1.0, t)) <= 1e-9

    @pytest.mark.parametrize("d", [1e4, 1e5])
    def test_v_rule_resolves_a_sharp_slope_law(self, d):
        # lam0 = 40 puts the slope draws' bump, of relative width 1/lam0,
        # inside the v-rule's window; 6 panels per decade were 3e-4 off
        tm = tsq_mixture(10, d * d, 1600.0)
        for t in d / 40.0 * np.array([0.9, 1.0, 1.1]):
            assert abs(tm.cdf(t * t) - noncentral_t_oracle(
                "tsq", 10, d, 40.0, t * t)) <= 1e-9

    @pytest.mark.parametrize("d", [0.1, 20.0, 70.0, 72.0, 100.0, 1e3, 1e4])
    @pytest.mark.parametrize("lam0", [0.0, 1.0, 40.0])
    def test_series_nodes_keep_phi_within_20(self, d, lam0):
        s = mx._NoncentralT(10.0, d, lam0, QuadSpec()).s
        assert np.all(d / s[s > 0.0] <= 20.0)

    @pytest.mark.filterwarnings("error")
    def test_every_noncentrality_certifies_or_is_rejected(self):
        # without the bound the t^2 ppf overflowed from D = 1e133, and the
        # signed law warned of an invalid value at D = 1e154
        for k in range(2, 155):
            d = 10.0 ** k
            for build, name in ((lambda: tsq_mixture(10, d * d, 1.0), "delta"),
                                (lambda: signed_t_mixture(10, -d, 1.0),
                                 "delta0")):
                if d > mx._NCT_D_MAX:
                    with pytest.raises(ParamError, match=name + ".*1e\\+100"):
                        build()
                    continue
                ev = build()
                f = ev.cdf(np.array([d, d * d, 1e300]))
                assert np.all(np.isfinite(f)) and np.all(np.diff(f) >= 0.0)
                if k % 14 == 0:
                    assert abs(ev.cdf(ev.ppf(0.5)) - 0.5) <= 1e-9


class TestPdfIntegratesToCdf:
    # the pdf series is the CDF series' derivative, certified on its own
    # tail bound: Simpson's integral of a pdf table against the CDF
    @settings(max_examples=12, deadline=None)
    @given(nu=st.floats(0.0, 6.0).map(lambda e: round(10.0 ** e)),
           d0=st.floats(0.0, 8.0), lam0=st.floats(0.0, 8.0))
    @example(nu=1, d0=8.0, lam0=0.0)
    @example(nu=10 ** 6, d0=8.0, lam0=8.0)
    def test_both_laws(self, nu, d0, lam0):
        for law, lo, hi in ((tsq_mixture(nu, d0 ** 2, lam0 ** 2), 0.5, 30.0),
                            (signed_t_mixture(nu, d0, lam0), -5.0, 15.0)):
            u = np.linspace(lo, hi, 2001)
            f = law.pdf(u)
            assert np.all(np.isfinite(f)) and np.all(f >= 0.0)
            assert integrate.simpson(f, x=u) == pytest.approx(
                law.cdf(hi) - law.cdf(lo), abs=1e-7)


@pytest.mark.parametrize("nu,d0,lam0", [(1650, 1.0, 1.0), (2000, 2.0, 1.0),
                                        (5000, 5.0, 3.0), (10 ** 6, 2.0, 1.0)])
class TestLargeNuPdf:
    # the unscaled pdf coefficients overflowed from nu = 1650: the pdfs read
    # inf, and the signed pdf NaN at u <= 0; at nu = 1e6 the a_j power
    # series did not certify
    def test_against_nct_quadrature(self, nu, d0, lam0):
        sm = signed_t_mixture(nu, d0, lam0)
        for t in (-1.0, 0.0, 1.0, 6.0):
            want = log_s_quad(lambda s: nct_pdf_large_nu(t, nu, d0 / s), lam0)
            assert sm.pdf(t) == pytest.approx(want, abs=1e-9)
        fold = sum(log_s_quad(lambda s: nct_pdf_large_nu(t, nu, d0 / s), lam0)
                   for t in (-1.0, 1.0)) / 2.0
        assert tsq_mixture(nu, d0 ** 2, lam0 ** 2).pdf(1.0) == pytest.approx(
            fold, abs=1e-9)

    def test_pdf_table_integrates_to_the_cdf(self, nu, d0, lam0):
        for law, lo, hi in ((tsq_mixture(nu, d0 ** 2, lam0 ** 2), 0.5, 30.0),
                            (signed_t_mixture(nu, d0, lam0), -5.0, 15.0)):
            u = np.linspace(lo, hi, 2001)
            f = law.pdf(u)
            assert np.all(np.isfinite(f))
            assert integrate.simpson(f, x=u) == pytest.approx(
                law.cdf(hi) - law.cdf(lo), abs=1e-7)


class TestMeanWindow:
    # beta1 +- 10 sigma1 rounded to one float at beta1 = 1e150, sigma1 = 1e-10
    # and refine_panels raised ValueError (empty window); nearer the bound
    # the rule raised AccuracyError or read a wrong CDF (0.42 for 0.32 at
    # sigma1 = 1e-16 |beta1|)
    @pytest.mark.parametrize("beta1,sigma1", [(1e150, 1e-10), (1.0, 1e-16),
                                              (-3.7, 1e-11), (1.0, 0.0)])
    def test_unresolvable_window_is_a_param_error(self, beta1, sigma1):
        p = MixtureParams(n=5, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                          beta1=beta1, sigma1=max(sigma1, 5e-324))
        with pytest.raises(ParamError, match="sigma1"):
            mean_mixture(p)

    def test_bound_scales_with_the_window(self):
        # the window is beta1 +- 10 sigma1, so the bound sits at sigma1 =
        # 2e-11 |beta1|
        p = MixtureParams(n=5, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.9e-11)
        with pytest.raises(ParamError, match="beta1 \\+- 10 sigma1"):
            mean_mixture(p)


def block_grid(block, lo, hi, log=False):
    """A grid of 4 blocks and a partial one."""
    return (np.geomspace if log else np.linspace)(lo, hi, 4 * block + 17)


SPIKE_LAW = functools.cache(lambda: mean_mixture(SPIKE))


class TestThreadedBlocks:
    """Point blocks run on every CPU: the tables are the same bits on 1, 2
    and 3 workers, whatever the CPUs of the machine running the test."""

    @pytest.mark.parametrize("build,lo,hi,log", [
        (lambda: mean_mixture(octane_params()), 67.0, 107.0, False),
        (SPIKE_LAW, 0.5, 3.5, False),
        (lambda: variance_mixture(1, 0.5), 1e-8, 200.0, True),
        (lambda: variance_mixture(10, OCT_LAM), 1e-3, 600.0, True),
        (lambda: tsq_mixture(10, 3.0, 10.0953), 0.05, 60.0, False),
        (lambda: tsq_mixture(1000, 9.0, 3.0), 0.05, 60.0, False),
        (lambda: signed_t_mixture(10, 1.7, 3.2), -20.0, 100.0, False),
        (lambda: signed_t_mixture(10, -1.7, 3.2), -100.0, 20.0, False),
    ], ids=["mean", "spike", "variance-nu1", "variance-octane", "tsq",
            "tsq-nu1000", "signed-t", "signed-t-mirror"])
    def test_tables_equal_one_worker(self, build, lo, hi, log, monkeypatch):
        law = build()
        u = block_grid(law._block, lo, hi, log)
        tables = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
            tables[workers] = law.pdf(u), law.cdf(u)
        for workers in (2, 3):
            for got, want in zip(tables[workers], tables[1]):
                assert np.array_equal(got, want, equal_nan=True)

    def test_large_rule_runs_its_blocks_one_at_a_time(self):
        # a block of the spike bundle's 11616-node rule holds _BLOCK_SIZE
        # doubles, the budget of all workers together
        law = SPIKE_LAW()
        assert law._block_doubles <= mx._BLOCK_SIZE < 2 * law._block_doubles

    def test_racing_threads_grow_the_serial_coefficients(self):
        # upto extends under a lock, and every caller climbs the rung
        # ladder, so the sequences grow by the same blocks of j (and drop
        # the same live nodes) however the threads interleave: more threads
        # than CPUs, switching every microsecond
        ladder = [mx._MIN_TERMS]
        while ladder[-1] < 1280:
            ladder.append(min(2 * ladder[-1], ladder[-1] + mx._TERM_BLOCK))

        def seqs():
            law = signed_t_mixture(10, 3.0, 3.2)
            return law._core.m, law._n
        serial = seqs()
        for j_hi in ladder:
            for c in serial:
                c.upto(j_hi)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                raced = seqs()
                start = threading.Barrier(4)

                def climb():
                    start.wait(timeout=10.0)
                    for j_hi in ladder:
                        for c in raced:
                            c.upto(j_hi)
                threads = [threading.Thread(target=climb) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                    assert not t.is_alive()
                for c, want in zip(raced, serial):
                    assert np.array_equal(c.upto(ladder[-1]),
                                          want.upto(ladder[-1]))
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_blocks_see_the_callers_errstate(self, workers, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
        seen = []

        def block(u):
            seen.append(np.geterr()["over"])
            return u
        with np.errstate(over="ignore"):
            mx._evaluate(block, np.arange(3000.0), 1.0, 512, 1)
        assert len(seen) == 6 and set(seen) == {"ignore"}


class TestRowSkip:
    """Rule-law tables that skip their known rows equal the unskipped
    w @ kernel(x, u) block by block, also on shuffled abscissae and on
    blocks that straddle the edges or lie wholly past them."""

    @pytest.mark.parametrize("build,lo,hi,log", [
        (lambda: mean_mixture(octane_params()), 40.0, 135.0, False),
        (SPIKE_LAW, -1.0, 6.0, False),
        (lambda: variance_mixture(1, 0.5), 1e-12, 1e4, True),
        (lambda: variance_mixture(10, OCT_LAM), 1e-4, 3e3, True),
    ], ids=["mean", "spike", "variance-nu1", "variance-octane"])
    def test_tables_equal_the_whole_kernel(self, build, lo, hi, log,
                                           monkeypatch):
        law = build()
        kernel, rows = law._kernel, []

        def spy(x, u, want_pdf):
            rows.append(x.size)
            return kernel(x, u, want_pdf)
        monkeypatch.setattr(law, "_kernel", spy)
        u = block_grid(law._block, lo, hi, log)
        for grid in (u, np.random.default_rng(7).permutation(u)):
            for want_pdf, table in ((True, law.pdf(grid)), (False, law.cdf(grid))):
                want = np.concatenate([
                    law._w @ kernel(law._x, grid[i:i + law._block], want_pdf)
                    for i in range(0, grid.size, law._block)])
                if not want_pdf:
                    np.clip(want, 0.0, 1.0, out=want)
                assert np.array_equal(table, want)
        assert min(rows) < law._x.size        # some rows were skipped


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


def signed(magnitude):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(
        lambda t: t[0] * t[1])


class TestThreadedTablesProperty:
    """Every law at log-uniform parameters, on grids of 2 CDF blocks and 77
    points: pdf finite and >= 0, CDF nondecreasing in [0, 1], and the
    tables of 2 workers the bits of 1."""

    @staticmethod
    def check(law, u):
        tables = {}
        for workers in (1, 2):
            with mock.patch.object(parallel, "cpu_count", lambda: workers):
                tables[workers] = law.pdf(u), law.cdf(u)
        pdf, cdf = tables[1]
        assert np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= -1e-12)    # rounding of the node sum
        assert all(np.array_equal(a, b) for a, b in zip(tables[2], tables[1]))

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(2, 100), beta0=st.floats(-10.0, 10.0),
           sigma0=log_uniform(1e-2, 10.0), mu_z=signed(log_uniform(1e-2, 1e2)),
           sigma_z=log_uniform(1e-2, 10.0),
           beta1=signed(log_uniform(1e-2, 1e2)), sigma1=log_uniform(1e-3, 10.0))
    def test_mean_law(self, n, beta0, sigma0, mu_z, sigma_z, beta1, sigma1):
        law = mean_mixture(MixtureParams(n=n, beta0=beta0, sigma0=sigma0,
                                         mu_z=mu_z, sigma_z=sigma_z,
                                         beta1=beta1, sigma1=sigma1))
        lo, hi = law.support()
        self.check(law, np.linspace(lo, hi, 2 * law._block + 77))

    @settings(max_examples=8, deadline=None)
    @given(nu=log_uniform(1.0, 1e3).map(round), lam=log_uniform(1e-3, 400.0))
    def test_variance_law(self, nu, lam):
        law = variance_mixture(nu, lam)
        self.check(law, np.geomspace(1e-6, law.support()[1],
                                     2 * law._block + 77))

    @staticmethod
    def reach(law, u_max):
        """A grid end past the extreme rule's reach (the band's closed-form
        Q runs there), or u_max where the law has no extreme rule."""
        reach = law._core.ext._reach
        return u_max if math.isinf(reach) else max(u_max, 4.0 * reach)

    @settings(max_examples=6, deadline=None)
    @given(nu=log_uniform(1.0, 200.0).map(round), delta=log_uniform(1e-2, 40.0),
           lam=log_uniform(1e-2, 60.0))
    @example(nu=10, delta=3.0, lam=10.0)
    @example(nu=11, delta=0.5, lam=1.0)
    def test_tsq_law(self, nu, delta, lam):
        law = tsq_mixture(nu, delta, lam)
        self.check(law, np.geomspace(1e-3, self.reach(law, 1e3),
                                     2 * law._block + 77))

    @settings(max_examples=6, deadline=None)
    @given(nu=log_uniform(1.0, 200.0).map(round),
           delta0=signed(log_uniform(0.1, 6.0)), lambda0=log_uniform(0.1, 8.0))
    @example(nu=10, delta0=1.7, lambda0=3.2)
    @example(nu=11, delta0=-0.7, lambda0=1.0)
    def test_signed_t_law(self, nu, delta0, lambda0):
        law = signed_t_mixture(nu, delta0, lambda0)
        hi = math.sqrt(self.reach(law, 1e6))
        half = np.geomspace(1e-3, hi, law._block + 38)
        self.check(law, np.concatenate([-half[::-1], [0.0], half]))


class TestSignedIntervalProperty:
    """P[-sqrt(u) <= t0 <= sqrt(u)] on the signed law is the t^2 law's CDF
    at u, below and above the extreme rule's reach."""

    @settings(max_examples=10, deadline=None)
    @given(nu=log_uniform(1.0, 200.0).map(round), delta=log_uniform(1e-2, 40.0),
           lam=log_uniform(1e-2, 60.0))
    @example(nu=10, delta=1.0, lam=9.0)
    def test_interval_is_the_tsq_cdf(self, nu, delta, lam):
        st_ = signed_t_mixture(nu, math.sqrt(delta), math.sqrt(lam))
        tm = tsq_mixture(nu, delta, lam)
        reach = tm._core.ext._reach
        u = np.geomspace(1e-3, 1e4, 9)
        if math.isfinite(reach):
            u = np.concatenate([u, reach * np.array([0.5, 0.99, 1.01, 3.0, 1e3])])
        root = np.sqrt(u)
        assert np.max(np.abs(st_.cdf(root) - st_.cdf(-root) - tm.cdf(u))) <= 1e-9


FLOOR = QuadSpec(abs_tol=_ABS_TOL_FLOOR, rel_tol=_ABS_TOL_FLOOR)


def sharpness(p):
    """min_t sd(t) / (|mu_z| sigma1) over the mean law's slope window: how
    narrow, in slope sds, its sharpest conditional CDF turns over in t."""
    lo, hi = (p.beta1 + s * mx._SLOPE_SIGMAS * p.sigma1 for s in (-1.0, 1.0))
    t = 0.0 if lo < 0.0 < hi else min(abs(lo), abs(hi))
    sd = math.sqrt(t * t * p.sigma_z ** 2 / p.n + p.sigma0 ** 2)
    return sd / (abs(p.mu_z) * p.sigma1) if p.mu_z else math.inf


class TestToleranceFloor:
    """An abs_tol below the floor is a ParamError.  At the floor the
    noncentral-t laws certify out to |u| = 1e30, and the mean and variance
    laws at the default QuadSpec agree with the floor's to within 1e-9."""

    def test_below_the_floor_is_a_param_error(self):
        assert FLOOR.abs_tol == 1e-11
        with pytest.raises(ParamError, match="abs_tol"):
            QuadSpec(abs_tol=0.9 * _ABS_TOL_FLOOR)

    @settings(max_examples=4, deadline=None)
    @given(nu=log_uniform(1.0, 100.0).map(round), delta0=st.floats(-3.0, 6.0),
           lambda0=st.floats(0.0, 4.0))
    # at abs_tol = 1e-12 the signed-t CDF series gave up at 120000 terms
    @example(nu=1, delta0=3.472977955440663, lambda0=0.0639669180942879)
    @example(nu=10, delta0=2.0, lambda0=3.0)
    def test_noncentral_t_certifies(self, nu, delta0, lambda0):
        half = np.geomspace(1e-3, 1e30, 100)
        u = np.concatenate([-half[::-1], half])
        law = signed_t_mixture(nu, delta0, lambda0, FLOOR)
        f = law.cdf(u)
        assert f[0] <= FLOOR.abs_tol and f[-1] >= 1.0 - FLOOR.abs_tol
        assert np.all(np.isfinite(law.pdf(u)))
        law = tsq_mixture(nu, delta0 ** 2, lambda0 ** 2, FLOOR)
        assert law.cdf(half)[-1] >= 1.0 - FLOOR.abs_tol
        assert np.all(np.isfinite(law.pdf(half)))

    def test_s_window_drops_mass_far_below_abs_tol(self):
        # the s-rule stops at the 1 - 1e-3 abs_tol quantile of s; stopping
        # at a fixed 1 - 1e-12 left this CDF 1.05e-12 short of 1
        law = tsq_mixture(1, 4.0, 0.0, FLOOR)
        assert 1.0 - law.cdf(1e30) <= 1e-2 * FLOOR.abs_tol

    @staticmethod
    def agree(law, floor_law, u):
        pdf = floor_law.pdf(u)
        assert np.max(np.abs(law.cdf(u) - floor_law.cdf(u))) <= 1e-9
        assert np.all(np.abs(law.pdf(u) - pdf) <= 1e-9 * np.maximum(pdf, 1.0))

    # components whose CDFs turn over within 0.03 slope sds are a known
    # fault (test_sharp_mean_law below): the rule is certified at its probe
    # points, and between them its CDF reads up to 5e-4 off
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 100), beta0=st.floats(-10.0, 10.0),
           sigma0=log_uniform(1e-2, 10.0), mu_z=signed(log_uniform(1e-2, 1e2)),
           sigma_z=log_uniform(1e-2, 10.0),
           beta1=signed(log_uniform(1e-2, 1e2)), sigma1=log_uniform(1e-3, 10.0))
    def test_mean_law_default_agrees(self, n, beta0, sigma0, mu_z, sigma_z,
                                     beta1, sigma1):
        p = MixtureParams(n=n, beta0=beta0, sigma0=sigma0, mu_z=mu_z,
                          sigma_z=sigma_z, beta1=beta1, sigma1=sigma1)
        assume(sharpness(p) >= 0.03)
        law = mean_mixture(p)
        self.agree(law, mean_mixture(p, FLOOR), np.linspace(*law.support(), 201))

    @pytest.mark.xfail(strict=True, reason="the mean law's CDF is certified "
                       "at its probe points only")
    def test_sharp_mean_law(self):
        p = MixtureParams(n=76, beta0=8.668387846148569,
                          sigma0=0.01036421938716176, mu_z=17.462536274358786,
                          sigma_z=0.025721254977391465,
                          beta1=0.47382132585939674, sigma1=1.8240011675255017)
        assert sharpness(p) < 1e-3
        # an adaptive scipy quadrature over t reads 0.8947503933 here, the
        # floor's rule 0.8947508650 and the default's 0.8952717925
        assert mean_mixture(p).cdf(56.827) == pytest.approx(0.8947503933,
                                                             abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(nu=log_uniform(1.0, 1e3).map(round), lam=log_uniform(1e-3, 400.0))
    def test_variance_law_default_agrees(self, nu, lam):
        law = variance_mixture(nu, lam)
        self.agree(law, variance_mixture(nu, lam, FLOOR),
                   np.geomspace(1e-6, law.support()[1], 201))
