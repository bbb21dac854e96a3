import decimal
import functools
import math
import sys
import threading
import time
import tracemalloc
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, special, stats

from calibmix import (AccuracyError, MixtureParams, ParamError,
                      QuadSpec, mean_mixture,
                      probability_region, signed_t_mixture, tsq_critical,
                      tsq_mixture, variance_mixture)
from calibmix.casestudy import moment_table_params, octane_params
from calibmix import mixtures as mx
from calibmix.mixtures import sharpness
from calibmix import parallel
from calibmix import special as ser
from calibmix.quadrature import _ABS_TOL_FLOOR, PanelRule, gauss_legendre_nodes
from oracles import (accurate_betainc, gaussian_root_pdf_oracle,
                     mean_cdf_oracle_sigma0_zero, mean_cdf_over_t,
                     mean_cdf_over_x, ncf_cdf_oracle, ncf_pdf_oracle,
                     nct_pdf_oracle, noncentral_t_oracle, variance_cdf_oracle,
                     variance_cdf_over_v, variance_pdf_oracle)

CRIT = 4.9646027437307145  # F(1,10) 0.95 quantile
OCT_LAM = (1.8546 / 0.5837) ** 2
OCT_S1SQ = 0.5837 ** 2
FLOOR = QuadSpec(abs_tol=_ABS_TOL_FLOOR, rel_tol=_ABS_TOL_FLOOR)


def per_node_gaussian_root_parts(us, nu, weights, root_phi, want_pdf):
    """Reference for the extreme-node kernel at ascending us: each mixing
    node (weight, sqrt(phi)) integrated against the Gaussian g-rule on its
    own band of u (the per-node form the one-dimensional v-rule replaced)."""
    res = np.zeros_like(us)
    g, gw = gauss_legendre_nodes(np.linspace(-8.6, 8.6, 17), 10)
    gw = gw * stats.norm.pdf(g)
    # y between Q's 1 - 1e-13 and 1e-13 points
    y_lo, y_hi = special.gammainccinv(nu / 2.0, [1.0 - 1e-13, 1e-13])
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
    return res


def v_rule(law):
    """All the tests read of a noncentral-t law's v-rule, the rule of its
    extreme slope draws: ``rule``, with its kernels and row-skip edges;
    ``reach``, the least U whose read weighs any of it (inf without nodes);
    and ``every_row()``, a context in which it sums every row everywhere."""
    rule, every = law._ext, ((-np.inf, np.inf),) * 2
    return types.SimpleNamespace(rule=rule, reach=rule._reach, every_row=(
        lambda: mock.patch.multiple(rule, _skip_edges=every, _reach=0.0)))


def weighing_work(monkeypatch):
    """A list of the entries of each ``special.sqrt_ncchisq1_pdf`` call from
    now on: the v-rule's weighing work (laws built before this bind their
    s-rule's density, and no read of a noncentral-t law calls it else)."""
    work, density = [], ser.sqrt_ncchisq1_pdf

    def counting(s, lambda0):
        work.append(np.size(s))
        return density(s, lambda0)
    monkeypatch.setattr(ser, "sqrt_ncchisq1_pdf", counting)
    return work


def race(calls):
    """Run ``calls`` at once, each on its own thread (more threads than
    CPUs), with the interpreter switching threads every microsecond."""
    start = threading.Barrier(len(calls))

    def run(f):
        start.wait(timeout=10.0)
        f()
    threads = [threading.Thread(target=run, args=(f,)) for f in calls]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)


def weighed_whole(law):
    """The law after a read far past every v-rule node's lower edges (U =
    1e150 or 1e300), which weighs the whole rule for every later read."""
    law.cdf(1e150)
    return law


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


def dense_series_coefs(law, root_d, j):
    """Reference for mx._SeriesCoefs: the noncentral-t base's m_j and the
    signed law's n_j at j, each summed over all of the law's series nodes,
    phi = root_d / s:
      m_j = sum_s w pois(j; phi^2/2),
      n_j = sum_s (w phi / sqrt 2) e^{-phi^2/2} (phi^2/2)^j / Gamma(j + 3/2).
    j log b takes numpy's log, as the live-node builder does: scipy's xlogy
    takes the C library's log, which differs from it in the last bit for
    some b, and j log b carries that to 2e-14 relative at j ~ 300."""
    s = law._s
    phi = np.divide(root_d, s, out=np.zeros_like(s), where=s > 0.0)
    half_sq = 0.5 * phi ** 2
    jj = j[:, None]

    def block(b, w, log_g):
        with np.errstate(divide="ignore", invalid="ignore"):
            log_b = np.where(jj == 0.0, 0.0, jj * np.log(b))
        return np.exp(log_b - half_sq + log_g[:, None]) @ w

    return (block(half_sq, law._sw, -special.gammaln(j + 1.0)),
            block(half_sq, law._sw * phi / np.sqrt(2.0),
                  -special.gammaln(j + 1.5)))


# lgamma's Stirling series: B_2k / (2k (2k - 1)), k = 1..10
STIRLING = [(1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
            (-691, 360360), (1, 156), (-3617, 122400), (43867, 244188),
            (-174611, 125400)]
DECIMAL_PI = decimal.Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459")


def decimal_lgamma(z):
    """lgamma(z) in the current decimal context: Stirling's series at
    z + n >= 60 (the next term is below 1e-36 there), less log z + ... +
    log(z + n - 1)."""
    z, shift = decimal.Decimal(z), decimal.Decimal(0)
    while z < 60:
        shift += z.ln()
        z += 1
    series = sum(decimal.Decimal(p) / q / z ** (2 * k + 1)
                 for k, (p, q) in enumerate(STIRLING))
    return ((z - decimal.Decimal("0.5")) * z.ln() - z
            + (2 * DECIMAL_PI).ln() / 2 + series - shift)


def gamma_density_error(m, w, log_density):
    """|e^{log_density} / g - 1|, g the density of w = log(y/m), y ~ Gamma(m),
    y^m e^{-y}/Gamma(m), at y = m e^w, in 50-digit decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        dm, dw = decimal.Decimal(m), decimal.Decimal(w)
        log_g = dm * dm.ln() + dm * dw - dm * dw.exp() - decimal_lgamma(dm)
        return abs(float((decimal.Decimal(log_density) - log_g).exp() - 1))


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
        for u in (85.0, 86.037, 87.2818, 88.526, 90.0):
            assert mm.cdf(u) == pytest.approx(mean_cdf_over_t(p, u), abs=1e-9)

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
        for u in (0.5, 5.0, 30.0, 120.0):
            assert vm.cdf(u) == pytest.approx(variance_cdf_oracle(nu, lam, u),
                                              abs=1e-8)

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

    @pytest.mark.parametrize("prob", [0.02, 0.5, 0.98])
    def test_large_nu_against_chi2_quadrature(self, prob):
        # mixed over log V, the law lost its mixing density to cancellation
        # in floats and raised AccuracyError after 0.5 s at nu = 1e7
        vm = variance_mixture(10 ** 7, 1.0)
        u = vm.ppf(prob)
        assert vm.cdf(u) == pytest.approx(variance_cdf_over_v(10 ** 7, 1.0, u),
                                          abs=1e-9)

    @pytest.mark.parametrize("nu,lam,nodes", [
        (10, OCT_LAM, 128), (1, 0.0, 704), (3, 400.0, 992), (40, 10.0, 128),
        (1000, 1.0, 128), (10 ** 9, 1.0, 128), (10 ** 12, 1.0, 128)])
    def test_rule_sizes(self, nu, lam, nodes):
        assert variance_mixture(nu, lam)._x.size == nodes

    @pytest.mark.parametrize("w", [-0.9, -0.25, -0.2499, -1e-3, -1e-9, 0.0,
                                   1e-12, 1e-4, 0.1, 0.2499, 0.25, 0.7, 3.0])
    def test_expm1_minus_w(self, w):
        # the density's one term in w, m (expm1(w) - w), at m = 5: a series
        # took it below |w| = 0.25, where expm1(w) - w loses its relative
        # accuracy but not the absolute accuracy the density needs
        m = 5.0
        got = mx._GammaKernel(2.0 * m).log_pdf(np.array([w]))[0]
        assert gamma_density_error(m, w, got) <= 16.0 * math.sqrt(m) * 2.0 ** -52 + 1e-13

    @pytest.mark.parametrize("m", [1e6, 5e9, 5e15])
    def test_log_density_at_huge_m_against_decimal(self, m):
        # from m = 1e6, expm1(w) - w takes its Taylor series near 0: plain,
        # it rounds by eps |w|, which m turns into eps sqrt(m) per sd of w
        # (about 2e-10 at m = 5e9)
        w = np.linspace(-8.0, 8.0, 201) / math.sqrt(m)
        got = mx._GammaKernel(2.0 * m).log_pdf(w)
        assert max(gamma_density_error(m, wi, gi)
                   for wi, gi in zip(w, got)) <= 1e-13

    @pytest.mark.parametrize("abs_tol", [1e-11, 1e-10, 1e-9])
    @pytest.mark.parametrize("nu", [10 ** k for k in range(12, 17)])
    def test_huge_nu_certifies_on_few_nodes(self, nu, abs_tol):
        # the rule refined on the rounding of plain expm1(w) - w: past 8192
        # panels at nu = 1e16 and abs_tol 1e-10 or 1e-11
        vm = variance_mixture(nu, 1.0, QuadSpec(abs_tol=abs_tol))
        assert vm._x.size <= 256
        for u in vm.ppf([0.01, 0.25, 0.5, 0.75, 0.99]):
            assert vm.cdf(u) == pytest.approx(
                variance_cdf_over_v(nu, 1.0, u), abs=1e-9)

    @pytest.mark.parametrize("m", [0.5, 5.0, 5e4, 5e5])
    def test_log_density_against_decimal(self, m):
        # w over +-8 sds (1/sqrt(m) each) where m (e^w - 1 - w) <= 32, a
        # Gaussian's level at 8 sds (that clips w above only at small m);
        # the lgamma form exp(m log y - y - lgamma(m)) read 1.2e-9 off at
        # m = 5e5
        w = np.linspace(-8.0, 8.0, 401) / math.sqrt(m)
        w = w[m * (np.expm1(w) - w) <= 32.0]
        got = mx._GammaKernel(2.0 * m).log_pdf(w)
        err = max(gamma_density_error(m, wi, gi) for wi, gi in zip(w, got))
        assert err <= 16.0 * math.sqrt(m) * 2.0 ** -52 + 1e-13

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

    def test_lower_tail_is_the_sqrt_law(self):
        # F(u) -> c sqrt(u) as u -> 0, with c = 2 phi(lambda0) E[V^-1/2] =
        # 2 phi(lambda0) Gamma((nu - 1)/2) / (sqrt(2) Gamma(nu/2)).  The
        # kernel's Phi(r - lambda0) - Phi(-r - lambda0) cancelled there:
        # 1.41e-18 at u = 1e-30 and 0 at 1e-34
        nu, lam = 10, 10.0
        law = variance_mixture(nu, lam)
        c = (2.0 * stats.norm.pdf(math.sqrt(lam)) / math.sqrt(2.0) * math.exp(
            special.gammaln((nu - 1) / 2.0) - special.gammaln(nu / 2.0)))
        for u in (1e-30, 1e-34):
            assert law.cdf(u) == pytest.approx(c * math.sqrt(u), rel=1e-12,
                                               abs=0.0)
        # ppf holds u to 1e-10 of itself
        p = 1e-150
        assert law.ppf(p) == pytest.approx((p / c) ** 2, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("u", [1e308, 1.7e308])
    def test_limits_at_the_largest_floats(self, u):
        # u/V overflows to inf at nodes V < 1, where the kernels read their
        # limits; that overflow warned
        law = variance_mixture(3, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert law.cdf(u) == 1.0 and law.pdf(u) == 0.0


class TestTsqMixture:
    def test_delta_zero_is_central_f_for_any_lambda(self):
        u = np.linspace(0.05, 20.0, 41)
        ref = stats.f.cdf(u, 1, 10)
        for lam in (0.5, 7.0, 40.0):
            tm = tsq_mixture(10, 0.0, lam)
            assert np.max(np.abs(tm.cdf(u) - ref)) < 1e-10
        assert tsq_mixture(10, 0.0, 7.0).cdf(CRIT) == pytest.approx(0.950, abs=1e-6)

    def test_v_rule_at_nu_1e6_against_ncf_oracle(self):
        # with 4 shoulder panels at every nu the law read 0.93807116
        nu, delta, lam = 10 ** 6, 3.302 ** 2, 1.124 ** 2
        assert abs(tsq_mixture(nu, delta, lam).cdf(505.0) - ncf_cdf_oracle(
            nu, delta, lam, 505.0)) <= 1e-9

    def test_v_rule_of_the_nu_1e5_table_against_ncf_oracle(self):
        # a point of the CLI's nu = 1e5 table, where the v-rule carries the
        # law: with 4 shoulder panels at every nu it read 1.8e-3 off
        nu, delta, lam = 100_000, 1e4, 4.0
        u = np.linspace(300.0, 30000.0, 20000)[282]
        assert abs(tsq_mixture(nu, delta, lam).cdf(u) - ncf_cdf_oracle(
            nu, delta, lam, u)) <= 1e-9

    @pytest.mark.xfail(strict=True, reason="the v-rule's g-rule (16 panels "
                       "of 10 points on g in +-8.6) does not resolve a slope "
                       "bump of sd D/lambda0^2 = 0.04 in tau: the law reads "
                       "0.500007 where the oracle reads 0.5252")
    def test_v_rule_narrow_bump_against_ncf_oracle(self):
        nu, delta, lam = 10, 4e4 ** 2, 1000.0 ** 2
        assert abs(tsq_mixture(nu, delta, lam).cdf(1763.5) - ncf_cdf_oracle(
            nu, delta, lam, 1763.5)) <= 1e-9

    @pytest.mark.xfail(strict=True, reason="the s-rule is refined on its "
                       "mass alone: at nu = 1000 the law reads 0.910808503607 "
                       "where the oracle reads 0.910808518894")
    def test_s_rule_at_nu_1000_against_ncf_oracle(self):
        nu, delta, lam = 1000, 3.302 ** 2, 1.124 ** 2
        assert abs(tsq_mixture(nu, delta, lam).cdf(250.0) - ncf_cdf_oracle(
            nu, delta, lam, 250.0)) <= 1e-9

    def test_table_values(self):
        assert tsq_mixture(10, 1.0, 1.0).cdf(CRIT) == pytest.approx(0.691, abs=1e-3)
        assert tsq_mixture(10, 2.9351, 10.0953).cdf(CRIT) == pytest.approx(
            0.90, abs=5e-3)

    def test_pdf_and_cdf_against_scipy_oracle(self):
        nu, d, lam = 10, 1.0, 4.0
        tm = tsq_mixture(nu, d, lam)
        for u in (0.3, 2.0, CRIT, 25.0):
            assert tm.pdf(u) == pytest.approx(ncf_pdf_oracle(nu, d, lam, u),
                                              abs=1e-8)
            assert tm.cdf(u) == pytest.approx(ncf_cdf_oracle(nu, d, lam, u),
                                              abs=1e-8)

    def test_central_f_far_tail(self):
        # at delta = 0 the law is F(1, nu); the slope mass above the series
        # rule's s_hi, 5e-13 here, was dropped: 5.0e-4 of F's tail at 1e-9
        u = 467.5
        assert 1.0 - tsq_mixture(10, 0.0, 1.0).cdf(u) == pytest.approx(
            stats.f.sf(u, 1, 10), rel=2e-6, abs=0.0)

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
        for c in (1e4, 1e6):
            assert tm.cdf(c) == pytest.approx(ncf_cdf_oracle(10, 1.0, 1.0, c),
                                              abs=1e-9)
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
        for u in (-3.0, -0.5, 0.0, 1.2, 4.0):
            assert st_.pdf(u) == pytest.approx(nct_pdf_oracle(nu, d0, l0, u),
                                               abs=1e-8)

    def test_large_lambda0_brute_force_oracle(self):
        # concentrated mixing: law close to a plain noncentral t, and the
        # quadrature oracle, with its breakpoint at l0, agrees tightly
        nu, d0, l0 = 10, 3.0, 100.0
        st_ = signed_t_mixture(nu, d0, l0)
        u = np.linspace(-3.0, 3.0, 13)
        mine = st_.pdf(u)
        ref = np.array([nct_pdf_oracle(nu, d0, l0, v) for v in u])
        assert np.max(np.abs(mine - ref)) < 1e-9
        plain = stats.nct.pdf(u, nu, d0 / l0)
        assert np.max(np.abs(mine - plain)) < 1e-3

    @pytest.mark.parametrize("u", [40.0, 100.0])
    def test_pdf_at_nu_200_against_nct_quadrature(self, u):
        # the conditional law's transition narrows like 1/sqrt(nu): the
        # extreme rule's panel density has to follow it
        want = nct_pdf_oracle(200, 2.0, 1.0, u)
        assert signed_t_mixture(200, 2.0, 1.0).pdf(u) == pytest.approx(want, rel=1e-9)

    def test_student_t3_far_tails(self):
        # at delta0 = 0 the law is Student t(nu); the slope mass above the
        # series rule's s_hi, 1e-12, was dropped: 9.1e-4 of the upper tail
        # at u = 1e3, and 1 - F read 1e-12 at u = 1e5 and 1e6
        st_ = signed_t_mixture(3, 0.0, 0.0)
        tail = pytest.approx(stats.t.sf(1e3, 3), rel=2e-6, abs=0.0)
        assert 1.0 - st_.cdf(1e3) == tail and st_.cdf(-1e3) == tail

    def test_negative_delta0_mirrors(self):
        pos = signed_t_mixture(8, 1.5, 2.0)
        neg = signed_t_mixture(8, -1.5, 2.0)
        u = np.linspace(-4.0, 4.0, 17)
        assert np.max(np.abs(neg.pdf(u) - pos.pdf(-u))) < 1e-12
        assert neg.cdf(-1.0) == pytest.approx(1.0 - pos.cdf(1.0), abs=1e-9)

    def test_gaussian_root_kernel_consistent_with_series(self):
        # the extreme-node kernel against the t^2 series at noncentralities
        # inside the series budget, over one mixing node's v = g + phi on
        # the Gaussian g-rule: pdf and CDF against the noncentral F's, and
        # 2u f_t2(u^2) against f_t(u) + f_t(-u).  At phi = 6 the root g +
        # phi crosses 0 inside the g-rule, so u starts where that stays
        # resolved (in use the kernel serves only phi >= 20).
        nu = 10.0
        u = np.linspace(0.5, 8.0, 31)
        y = u * u
        g, gw = gauss_legendre_nodes(np.linspace(-8.6, 8.6, 17), 10)
        gw = gw * stats.norm.pdf(g)
        kernel = v_rule(tsq_mixture(nu, 1e8, 1.0)).rule._kernel
        for phi in (6.0, 15.0):
            pdf_k = gw @ kernel(g + phi, y, True) / y
            cdf_k = gw @ kernel(g + phi, y, False)
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
        # F(u) = E_s E_W[Phi(u sqrt(W/nu) - delta0/s)], W ~ chi2_nu
        nu, d0, l0 = 10, 1.0, 1.0
        st_ = signed_t_mixture(nu, d0, l0)
        for u in (-2.5, -0.3, 0.0, 1.1, 4.0, 30.0):
            assert st_.cdf(u) == pytest.approx(
                noncentral_t_oracle("signed", nu, d0, l0, u), abs=1e-9)


@pytest.mark.parametrize("make,fields,shown", [
    (lambda: tsq_mixture(10, 3.0, 8.0), ["nu", "delta", "lam", "quad"],
     "TsqMixture(nu=10.0, delta=3.0, lam=8.0, quad=%r)"),
    (lambda: signed_t_mixture(10, -1.7, 3.2),
     ["nu", "delta0", "lambda0", "quad"],
     "SignedTMixture(nu=10.0, delta0=-1.7, lambda0=3.2, quad=%r)"),
], ids=["tsq", "signed_t"])
def test_noncentral_t_laws_show_their_parameters(make, fields, shown):
    # every ppf AccuracyError names its law by this repr
    law = make()
    assert [k for k in vars(law) if k[0] != "_"] == fields
    assert repr(law) == shown % (QuadSpec(),)


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
    # nodes at |t| ~ 1e-152 square z past the largest double: an overflow
    # warning in the pdf kernel, whose value there is 0
    @example(n=2, beta0=0.0, sigma0=1e-154, mu_z=0.0, sigma_z=1.0, beta1=0.0,
             sigma1=1.0, prob=0.5)
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


EDGE_LAWS = {
    "mean": lambda: mean_mixture(octane_params()),
    "variance": lambda: variance_mixture(10, 10.0),
    "tsq": lambda: tsq_mixture(10, 2.0, 1.0),
    "tsq nu=1": lambda: tsq_mixture(1, 2.0, 1.0),
    "signed_t": lambda: signed_t_mixture(10, 1.0, 1.0),
    "signed_t mirror": lambda: signed_t_mixture(10, -1.0, 1.0),
    "signed_t central": lambda: signed_t_mixture(3, 0.0, 0.0),
    "signed_t nu=1": lambda: signed_t_mixture(1, 1.0, 1.0),
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

    @pytest.mark.parametrize("law", sorted(EDGE_LAWS))
    @pytest.mark.parametrize("prob", [5e-324, 1e-300, 1.0 - 1e-15,
                                      1.0 - 2.0 ** -53])
    def test_probabilities_near_0_and_1(self, law, prob):
        # the grids stay where u is a float: no overflow, no NaN abscissa
        ev = EDGE_LAWS[law]()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            u = ev.ppf(prob)
        assert isinstance(u, float) and not math.isnan(u)

    def test_cdf_that_rounds_non_monotone_across_p(self):
        # the bracket grid reads F = 1 - 8.9e-16 and then 1 - 1.1e-15 on
        # either side of p: bisect_cdf's ends crossed (a ValueError)
        law = variance_mixture(3, 4.0)
        p = 1.0 - 3e-16
        assert abs(law.cdf(law.ppf(p)) - p) <= 2.0 ** -52

    def test_quantile_past_the_float_range_is_its_end(self):
        # the v-rule drops the slope draws below s_lo (less than 1e-3
        # abs_tol of mass), so the computed CDF stays below 1 - 2^-53 up
        # to the largest double; the quantile is the grid's end, u = e^x
        # at x = log(max)
        ev = tsq_mixture(10, 2.0, 1.0)
        u = ev.ppf(1.0 - 2.0 ** -53)
        assert u == math.exp(mx._LOG_MAX) and ev.cdf(u) < 1.0 - 2.0 ** -53
        # and at the smallest positive double the CDF is above 5e-324
        ev = tsq_mixture(1, 2.0, 1.0)
        assert ev.ppf(5e-324) == 5e-324 and ev.cdf(5e-324) > 5e-324

    @pytest.mark.parametrize("args,prob", [
        ((270, -6.711634373064918, 0.23583019470800545), 4.883267771039262e-06),
        ((34, -3.640117320882763, 0.8518348971512817), 2.7263531072613136e-06),
    ], ids=["nu270", "nu34"])
    def test_staircase_quantile_takes_few_cdf_calls(self, args, prob):
        # the mirrored law's CDF, 1 - G, steps by 2^-53 over about 2e-11
        # in x, where the x tolerance is 3e-15: 50 and 34 calls when the
        # bracket narrowed to that tolerance
        ev = signed_t_mixture(*args)
        cdf, calls = ev.cdf, []
        ev.cdf = lambda u: calls.append(u) or cdf(u)
        u = ev.ppf(prob)
        assert len(calls) <= 10
        assert abs(cdf(u) - prob) <= 2.0 ** -52

    def test_failure_names_law_and_stage(self, monkeypatch):
        # a CDF series cut short in the first grid's CDF call
        tm = tsq_mixture(10, 100.0, 4.0)
        monkeypatch.setattr(mx, "_MAX_J_TERMS", 4)
        with pytest.raises(AccuracyError, match=r"^TsqMixture\(nu=10.0, "
                           r"delta=100.0, lam=4.0, quad=QuadSpec\(.*\)\): "
                           r"ppf bracket at prob=0.3: t\^2 mixture CDF series"):
            tm.ppf(0.3)


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


def signed(magnitude):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(
        lambda t: t[0] * t[1])


def law_x(ev, u):
    """u in the law's inversion coordinate x, and du/dx there."""
    if ev._line is None:
        return np.log(u), u
    m, c = ev._line
    x = np.arcsinh((u - m) / c)
    return x, c * np.cosh(x)


def assert_joint_solve(ev, probs):
    """ppf of an array: each quantile meets its probability to 1e-9, and
    agrees with the quantile solved alone within the x tolerance 1e-10,
    or, where the CDF is flatter than that in x (far tails, where F rounds
    near 1), within the x width of 1e-12 in F: the t^2 CDF series read up
    to 4e-14 off near F = 1 at nu = 782, and the crossing moves by that."""
    probs = np.array(probs)
    joint = ev.ppf(probs)
    assert joint.shape == probs.shape
    assert np.all(np.abs(ev.cdf(joint) - probs) <= 1e-9)
    single = np.array([ev.ppf(p) for p in probs])
    x, dudx = law_x(ev, joint)
    with np.errstate(divide="ignore"):
        flat = 1e-12 / (ev.pdf(joint) * dudx)
    assert np.all(np.abs(x - law_x(ev, single)[0]) <= 1e-10 + flat)


JOINT_PROBS = st.lists(PROBS, min_size=2, max_size=4)


class TestJointInversion:
    """Every probability of one ppf call is solved in the same rounds, one
    vector CDF call a round."""

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 100), beta0=st.floats(-5.0, 5.0),
           sigma0=log_uniform(1e-3, 10.0), mu_z=st.floats(-3.0, 3.0),
           sigma_z=log_uniform(0.1, 10.0), beta1=st.floats(-3.0, 3.0),
           sigma1=log_uniform(0.05, 2.0), probs=JOINT_PROBS)
    def test_mean(self, n, beta0, sigma0, mu_z, sigma_z, beta1, sigma1, probs):
        assert_joint_solve(mean_mixture(MixtureParams(
            n=n, beta0=beta0, sigma0=sigma0, mu_z=mu_z, sigma_z=sigma_z,
            beta1=beta1, sigma1=sigma1)), probs)

    @settings(max_examples=10, deadline=None)
    @given(nu=log_uniform(1.0, 1000.0).map(int), lam=log_uniform(1e-4, 1e4),
           probs=JOINT_PROBS)
    def test_variance(self, nu, lam, probs):
        assert_joint_solve(variance_mixture(nu, lam), probs)

    @settings(max_examples=10, deadline=None)
    @given(nu=log_uniform(1.0, 1000.0).map(int), delta=log_uniform(1e-4, 1e4),
           lam=log_uniform(1e-4, 1e4), probs=JOINT_PROBS)
    # F rounds near 1 in these tails: the quantiles solved jointly and
    # alone read 1.3e-10 to 1.9e-10 apart in log u
    @example(nu=67, delta=1.0189273659388836, lam=13.952583403124617,
             probs=[0.5, 0.9999983301650774])
    @example(nu=150, delta=117.02264687933433, lam=44.224885157758266,
             probs=[8.0355771482108e-06, 0.9999983820761799])
    def test_tsq(self, nu, delta, lam, probs):
        assert_joint_solve(tsq_mixture(nu, delta, lam), probs)

    @settings(max_examples=10, deadline=None)
    @given(nu=log_uniform(1.0, 1000.0).map(int),
           delta0=signed(log_uniform(1e-4, 100.0)),
           lambda0=log_uniform(1e-4, 100.0), probs=JOINT_PROBS)
    def test_signed_t(self, nu, delta0, lambda0, probs):
        assert_joint_solve(signed_t_mixture(nu, delta0, lambda0), probs)

    @pytest.mark.parametrize("make", [
        lambda: mean_mixture(octane_params()),
        lambda: variance_mixture(10, OCT_LAM),
        lambda: tsq_mixture(10, 4.0, 4.0),
        lambda: signed_t_mixture(10, 0.3, 1.0),
        lambda: signed_t_mixture(10, -0.5, 3.0),
    ], ids=["octane mean", "octane variance", "tsq(10, 4, 4)",
            "signed_t(10, 0.3, 1)", "signed_t(10, -0.5, 3)"])
    def test_region_takes_few_cdf_calls(self, make):
        # two ppf solves one step at a time and two scalar coverage calls
        # took 17-19 calls
        ev = make()
        cdf, calls = ev.cdf, []
        ev.cdf = lambda u: calls.append(u) or cdf(u)
        region = probability_region(ev, 0.95)
        assert len(calls) <= 8
        assert abs(region.achieved - 0.95) <= 1e-9

    def test_interval_prob_is_one_call(self):
        ev = signed_t_mixture(10, 0.3, 1.0)
        cdf, calls = ev.cdf, []
        ev.cdf = lambda u: calls.append(u) or cdf(u)
        got = ev.interval_prob(-2.0, 3.0)
        assert len(calls) == 1
        assert got == pytest.approx(cdf(3.0) - cdf(-2.0), abs=1e-14)

    def test_shapes(self):
        ev = variance_mixture(10, 1.0)
        assert isinstance(ev.ppf(0.5), float)
        assert ev.ppf([[0.1, 0.9]]).shape == (1, 2)
        assert ev.ppf(np.zeros(0)).shape == (0,)
        with pytest.raises(ParamError, match="probability"):
            ev.ppf([0.5, 1.0])


class TestChi2MixingRule:
    """The noncentral-t base's series nodes of s = sqrt(w), w ~ chi2_1(lam),
    on [s_split, s_hi], with s_split = min(D/20, s_hi)."""

    @pytest.mark.parametrize("lam", [0.0, 1e-4, 25.0, 400.0])
    def test_weights_sum_to_one(self, lam):
        # D = 0 puts s_split at 0, so the series nodes carry all the mass
        quad = QuadSpec()
        law = signed_t_mixture(10.0, 0.0, np.sqrt(lam), quad)
        assert np.all(law._s >= 0.0) and np.all(law._sw >= 0.0)
        assert law._sw.sum() == pytest.approx(1.0, abs=quad.abs_tol)

    @pytest.mark.parametrize("lam", [0.0, 1e-4, 25.0, 400.0])
    @pytest.mark.parametrize("s_split", [0.0158, 1.0])
    def test_extreme_nodes_carry_the_mass_below_split(self, lam, s_split):
        # the series nodes cover [s_split, s_hi] and the v-rule (s_lo,
        # s_split], the mass below s_lo under 1e-3 abs_tol: at |u| = 1e150
        # the CDF reads 0 and 1 (P[s < s_split] is 0.68 at s_split = 1)
        quad = QuadSpec()
        law = signed_t_mixture(10.0, 20.0 * s_split, np.sqrt(lam), quad)
        assert law._s.min() >= s_split * (1.0 - 1e-15)
        assert law.cdf([-1e150, 1e150]) == pytest.approx([0.0, 1.0],
                                                         abs=quad.abs_tol)


class TestExtremeRule:
    """The one-dimensional v-rule against the per-node kernel on log-graded
    s-panels (6 per decade, 12 points) over the same (s_lo, s_split], and
    its weights on demand against a law that weighed the whole rule."""

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
        ext = v_rule(law()).rule
        assert ext.s_lo < ext.s_split
        u = np.logspace(-1.0, 18.0, 120)
        for want_pdf in (True, False):
            got = ext.parts(u, want_pdf)
            assert np.max(np.abs(got - self.per_node(ext, u, want_pdf))) < 1e-12

    @pytest.mark.parametrize("grid,most", [
        (np.linspace(0.05, 60.0, 34_000), 4096),       # dense: long runs
        (np.geomspace(1e-3, 1e30, 4096), 512),          # 33 decades
    ], ids=["dense", "geom"])
    def test_runs_span_half_the_edge_width(self, grid, most):
        law = tsq_mixture(10, 3.0, OCT_LAM)
        ext = v_rule(law).rule
        total_sum, runs = ext._sum, []

        def spy(u, want_pdf):
            runs.append(u)
            return total_sum(u, want_pdf)
        with mock.patch.object(ext, "_sum", spy):
            for want_pdf in (True, False):
                runs.clear()
                law.pdf(grid) if want_pdf else law.cdf(grid)
                low, high = ext._skip_edges[want_pdf]
                for u in runs:
                    span = np.log(u.max()) - np.log(u.min())
                    # at least 512 points (or a block's rest), then only
                    # while the span stays within half the edge width
                    assert u.size <= most and (u.size <= mx._POINT_BLOCK
                                               or span <= 0.5 * (high - low))
                # the runs (of blocks on any thread) cover the blocks that
                # reach the rule
                got = np.sort(np.concatenate(runs))
                assert np.array_equal(got, grid[-got.size:])
                assert max(u.size for u in runs) == most

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("make,signed", [
        (lambda: tsq_mixture(10, 3.0, 10.1), False),
        (lambda: signed_t_mixture(8, 1.2, 6.0), True)], ids=["tsq", "signed"])
    def test_reads_weight_a_prefix_on_demand(self, make, signed, workers,
                                             monkeypatch):
        # reads just past the reach, farther, then nearer, in two point
        # blocks: each table is the bits of a fresh law's and of the whole
        # rule's; the first weighs a part of the rule, the second more but
        # not all of it, the third nothing
        monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
        law, whole, fresh = make(), make(), [make() for _ in range(3)]
        work = weighing_work(monkeypatch)
        weighed_whole(whole)
        total = sum(work)
        reach, grown = v_rule(law).reach, []
        for far, other in zip((1.01, 1e4, 3.0), fresh):
            u = reach * np.linspace(0.5, far, mx._SERIES_BLOCK + 77)
            if signed:
                u = np.sqrt(u)
            work.clear()
            tables = law.pdf(u), law.cdf(u)
            grown.append(sum(work))
            for ref in (other, whole):
                assert all(np.array_equal(a, b) for a, b in zip(
                    tables, (ref.pdf(u), ref.cdf(u))))
        assert 0 < grown[0] < grown[0] + grown[1] < total and grown[2] == 0

    def test_racing_reads_extend_one_prefix(self):
        # reads of different reaches raced on threads: each table, and a
        # farther read after the race, is the whole rule's bits however
        # the threads interleave
        make = lambda: tsq_mixture(10, 3.0, 10.1)
        whole = weighed_whole(make())
        reach = v_rule(whole).reach
        grids = [np.geomspace(0.5, top, 600) * reach
                 for top in (1.5, 30.0, 3.0, 1e3, 1e5, 10.0, 1e8)]
        want = [[whole.pdf(u), whole.cdf(u)] for u in grids]
        for _ in range(20):
            law, got = make(), {}

            def read(i):
                got[i] = [law.pdf(grids[i]), law.cdf(grids[i])]
            race([functools.partial(read, i) for i in range(len(grids) - 1)])
            read(len(grids) - 1)
            for i, w in enumerate(want):
                assert all(np.array_equal(a, b) for a, b in zip(got[i], w))

    def test_weights_only_the_nodes_requests_reach(self, monkeypatch):
        # the signed_t benchmark's first request (nu 10, delta0 0.3,
        # lambda0 1: an interval, a 0.95 region and a 200-point table over
        # it) weighs 59 of the rule's 816 nodes, under 8% of the work, and
        # at nu = 1e6 a read to 1e7 35513 of 151224, under 24%: in bits the
        # whole rule's
        def request(ev):
            r = math.sqrt(tsq_critical(10, 0.05))
            region = probability_region(ev, 0.95)
            u = np.linspace(region.lower, region.upper, 200)
            return ev.interval_prob(-r, r), ev.pdf(u), ev.cdf(u)
        for law, whole, read, share in (
                (signed_t_mixture(10, 0.3, 1.0), signed_t_mixture(10, 0.3, 1.0),
                 request, 0.08),
                (tsq_mixture(10 ** 6, 4.0, 1.0), tsq_mixture(10 ** 6, 4.0, 1.0),
                 lambda ev: (ev.pdf(1e7), ev.cdf(1e7)), 0.24)):
            work = weighing_work(monkeypatch)
            got, part = read(law), sum(work)
            weighed_whole(whole)
            assert 0 < part <= share * (sum(work) - part)
            assert all(np.array_equal(a, b) for a, b in zip(got, read(whole)))
            monkeypatch.undo()

    def test_pdf_kernel_against_decimal(self):
        # U f(U) = y^m e^{-y}/Gamma(m) at m = 5e5, y = m v^2/U over m
        # e^{+-8/sqrt(m)}, against its value at the exact y of each float
        # (v, U); exp(m log y - y - lgamma(m)) read 1.2e-9 off
        m = 5e5
        ext = v_rule(tsq_mixture(2.0 * m, 1e8, 1.0)).rule
        v = 30.0
        u = v * v / np.exp(np.linspace(-8.0, 8.0, 401) / math.sqrt(m))
        got = ext._kernel(np.array([v]), u, True)[0]
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            dm, lg = decimal.Decimal(m), decimal_lgamma(decimal.Decimal(m))
            err = 0.0
            for ui, gi in zip(u, got):
                y = dm * decimal.Decimal(v) ** 2 / decimal.Decimal(ui)
                g = (dm * y.ln() - y - lg).exp()
                err = max(err, abs(float(decimal.Decimal(gi) / g - 1)))
        assert err <= 1e-12

    def test_no_rule_when_the_mass_below_split_is_negligible(self,
                                                             monkeypatch):
        # lam0 = 40 and s_split = D/20 = 0.5: P[s < s_split] is far below
        # 1e-3 abs_tol, so the law has no v-rule for a read to reach
        law = tsq_mixture(10, 100.0, 1600.0)
        work = weighing_work(monkeypatch)
        u = np.logspace(-1.0, 30.0, 50)
        law.pdf(u), law.cdf(u)
        assert math.isinf(v_rule(law).reach) and sum(work) == 0

    @pytest.mark.parametrize("law", [lambda: tsq_mixture(10, 1.0, 0.0),
                                     lambda: signed_t_mixture(10, 70.0, 0.0)])
    def test_cdf_reaches_one_in_the_far_tail(self, law):
        # the v-rule grades down to where the mass left out is below
        # 1e-3 abs_tol, so the heavy tail's CDF levels off at 1
        ev = law()
        for u in (1e30, 1e40):
            assert ev.cdf(u) == pytest.approx(1.0, abs=ev.quad.abs_tol)


class TestClosedFormQ:
    """Q(nu/2, y) of the v-rule: finite sums for every integer and
    half-integer nu/2 up to _Q_SUM_MAX, gammaincc elsewhere."""

    @staticmethod
    def band(nu, snap, size):
        """y between Q's 1 - snap and snap points."""
        return np.linspace(special.gammainccinv(nu / 2.0, 1.0 - snap),
                           special.gammainccinv(nu / 2.0, snap), size)

    def test_matches_gammaincc_over_the_snap_band(self):
        for nu in range(1, 2 * mx._Q_SUM_MAX + 1):
            y = self.band(nu, 1e-13, 401)
            want = special.gammaincc(nu / 2.0, y)
            assert np.max(np.abs(mx._GammaKernel(float(nu)).upper(y) - want)) <= 1e-14, nu

    @pytest.mark.parametrize("nu", [10.5, 2.0 * mx._Q_SUM_MAX + 1.0])
    def test_gammaincc_serves_elsewhere(self, nu):
        y = self.band(nu, 1e-13, 101)
        assert np.array_equal(mx._GammaKernel(nu).upper(y.copy()),
                              special.gammaincc(nu / 2.0, y))

    @pytest.mark.parametrize("nu", [1.0, 2.0, 11.0, 200.0])
    def test_off_band_entries_stay_finite(self, nu):
        # a block's band rows are read at all of its points: y = m v^2/U
        # in [1e-17 m, 1e18 m] for v^2 in [1e-3, 1e12] and U in [1e-6,
        # 1e14]; past y ~ 1e3 the sums would overflow, and e^{-y} is 0
        y = np.geomspace(1e-17, 1e18, 701) * (nu / 2.0)
        q = mx._GammaKernel(nu).upper(y.copy())
        assert np.all(np.isfinite(q)) and np.all((q >= 0.0) & (q <= 1.0 + 1e-12))
        assert np.all(np.diff(q) <= 1e-12)
        assert np.max(np.abs(q - special.gammaincc(nu / 2.0, y))) <= 1e-14


def beta_points(b):
    """x = u/(u + 2b) = 1 - y over u from 2.5e-3 to 3e3, both quotients
    formed, as the t^2 law forms them."""
    u = np.geomspace(2.5e-3, 3e3, 61)
    return u / (u + 2.0 * b), 2.0 * b / (u + 2.0 * b)


def scipy_betainc(p, b, x, y):
    """I_x(p, b) by scipy's betainc, through 1 - I_y(b, p) above x = 1/2:
    the route ``_betainc`` takes for odd nu, b > 32 and small blocks."""
    return np.where(x > 0.5, 1.0 - special.betainc(b, p, y),
                    special.betainc(p, b, x))


SUM_ORDERS = [1, 2, 3, 5, 8, 16, 31, 32]
SUM_INDICES = [0.5, 1.0, 20.5, 41.0, 320.5, 1001.0, 4096.5]


class TestFiniteBeta:
    """I_x(p, m) at whole m = nu/2 <= _BETA_SUM_MAX is the finite sum
    x^p sum_{i<m} (p)_i/i! y^i in blocks of at least _BETA_SUM_POINTS m
    points, scipy's betainc elsewhere."""

    @pytest.mark.parametrize("m", SUM_ORDERS)
    def test_sum_matches_a_40_digit_reference(self, m):
        # the same finite sum in 40-digit decimals, from x below x = 1/2
        # and from y above it, the doubles each route reads.  The sum
        # reads within 2.6e-15 at every m <= 32 (the rounding of p log x,
        # up to about 20 where I_x is of order 1), and betainc up to
        # 1.5e-13 (m = 9, p = 320.5)
        x, y = beta_points(m)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            for p in SUM_INDICES:
                got = mx._betainc(p, float(m), x, y, 4096)
                want = []
                for xi, yi in zip(x, y):
                    if xi <= 0.5:
                        xd = decimal.Decimal(xi)
                        yd = 1 - xd
                    else:
                        yd = decimal.Decimal(yi)
                        xd = 1 - yd
                    term = total = decimal.Decimal(1)      # (p)_i/i! y^i
                    for i in range(1, m):
                        term *= (decimal.Decimal(p) + i - 1) / i * yd
                        total += term
                    want.append(float(
                        total * (xd.ln() * decimal.Decimal(p)).exp()))
                assert np.max(np.abs(got - want)) <= 3e-15, (m, p)

    @pytest.mark.parametrize("m", range(1, mx._BETA_SUM_MAX + 1))
    def test_sum_matches_scipy(self, m):
        # at the indices where betainc itself holds about 1e-15: past
        # p ~ 300 it strays to 1.5e-13
        x, y = beta_points(m)
        for p in (0.5, 1.0, 2.5, 20.5, 41.0):
            got = mx._betainc(p, float(m), x, y, 4096)
            assert np.max(np.abs(got - scipy_betainc(p, m, x, y))) <= 1e-14

    @pytest.mark.parametrize("b,block", [
        (4.5, 4096),            # odd nu
        (40.0, 4096),           # m above _BETA_SUM_MAX
        (5.0, 39),              # a block of fewer than 8 m points
    ])
    def test_betainc_serves_elsewhere(self, b, block):
        x, y = beta_points(b)
        assert np.array_equal(mx._betainc(20.5, b, x, y, block),
                              scipy_betainc(20.5, b, x, y))

    def test_ends_of_the_unit_interval(self):
        # x = 0 (the signed law at u = 0) and x = 1 (y underflowed)
        x, y = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mx._betainc(3.5, 5.0, x, y, 64).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("law,u", [
        (lambda: tsq_mixture(10, 3.0, OCT_LAM), np.linspace(0.05, 60.0, 9000)),
        (lambda: tsq_mixture(64, 4.0, 2.0), np.geomspace(1e-3, 1e6, 4096)),
        (lambda: signed_t_mixture(10, 1.7, 3.2), np.linspace(-20.0, 200.0, 9000)),
        (lambda: signed_t_mixture(2, -1.7, 3.2), np.linspace(-200.0, 20.0, 9000)),
    ], ids=["tsq-10", "tsq-64", "signed-10", "signed-2-mirror"])
    def test_tables_match_the_betainc_route(self, law, u, monkeypatch):
        ev = law()
        got = ev.cdf(u)
        monkeypatch.setattr(mx, "_BETA_SUM_MAX", 0)
        assert np.max(np.abs(got - law().cdf(u))) <= 1e-13

    def test_dense_table_calls_no_betainc(self):
        # the dense_grid t^2 table at nu = 10 (35k betainc values before)
        ev = tsq_mixture(10, 3.0, OCT_LAM)
        with mock.patch.object(mx.sp, "betainc",
                               side_effect=AssertionError("betainc called")):
            ev.cdf(np.linspace(0.05, 60.0, 34_000))


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
        coefs = lambda: mx._SeriesCoefs(
            0.5 * np.array([phi]) ** 2, np.array([1.0]),
            lambda j: -special.gammaln(j + 1.0), 1e-12, 1.0, a, nu / 2.0)
        got = mx._beta_series(coefs(), x, 1.0 - x, 1e-12, "test")
        want = betainc_series(coefs(), a, nu / 2.0, x, 1e-12, mx._MIN_TERMS)
        assert np.max(np.abs(got - want)) <= 1e-13

    @staticmethod
    def three_passes(rows, cols):
        """exp of the CDF terms' exponents formed as k (x) log x, then
        + b log y, then - log den (rows (k, 1, -log den), cols (log x,
        b log y, 1))."""
        t = np.multiply.outer(rows[:, 0], cols[0])
        t += cols[1]
        t += rows[:, 2:]
        return np.exp(t, out=t)

    @pytest.mark.parametrize("build,grid", [
        (lambda: tsq_mixture(10, 3.0, 8.0), np.linspace(0.05, 60.0, 34000)),
        (lambda: tsq_mixture(10, 3.0, 8.0, FLOOR), np.linspace(0.05, 60.0, 34000)),
        (lambda: tsq_mixture(9, 3.0, 8.0), np.linspace(0.05, 60.0, 34000)),
        (lambda: tsq_mixture(80, 3.0, 8.0), np.linspace(0.05, 60.0, 34000)),
        (lambda: tsq_mixture(10, 3.0, 8.0), np.linspace(0.05, 1e6, 20000)),
        (lambda: signed_t_mixture(10, 1.7, 3.2), np.linspace(-20.0, 200.0, 20000)),
    ], ids=["tsq", "tsq-floor", "tsq-odd", "tsq-nu80", "tsq-wide", "signed"])
    def test_term_table_in_one_product(self, build, grid):
        # the CDF series build their term table as the pdf series do, one
        # (terms x 3) @ (3 x points) product, which rounds unlike the three
        # passes (by up to 2.2e-16 seen)
        law = build()
        cdf = law.cdf(grid)
        with mock.patch.object(mx, "_term_table", self.three_passes):
            assert np.max(np.abs(law.cdf(grid) - cdf)) <= 1e-15


# the rungs of the noncentral-t series, j_hi = 20, 40, ..., 1280
LADDER = [mx._MIN_TERMS * 2 ** k for k in range(7)]


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
        seqs = (law._m, law._n)
        # grown by the blocks the series take, so nodes leave between them
        for j_hi in LADDER:
            for c in seqs:
                c.upto(j_hi)
        j = np.arange(LADDER[-1], dtype=float)
        refs = dense_series_coefs(law, root_d, j)
        floor = 2e-15 * quad.abs_tol
        for c, ref in zip(seqs, refs):
            assert np.all(np.abs(c.upto(j.size) - ref) <= 1e-15 * ref + floor)
        # what is left never reads below the dense remainder, up to the
        # rounding of the two sums
        for c, ref in zip(seqs, refs):
            for j_hi in LADDER:
                left = max(c.mass - float(ref[:j_hi].sum()), 0.0)
                assert c.left_after(j_hi) >= left - 4.0 * np.spacing(c.mass)


def traced_peak(f, u):
    """(f(u), the peak traced bytes of that call)."""
    tracemalloc.start()
    try:
        return f(u), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_pdf_peak(params, points):
    """Peak traced bytes of a pdf over ``points`` abscissae of the support."""
    mm = mean_mixture(params)
    u = np.linspace(*mm.support(), points)
    pdf, peak = traced_peak(mm.pdf, u)
    assert pdf.shape == u.shape
    return peak


def test_dense_pdf_has_bounded_working_set():
    # a 200k-point grid is evaluated in blocks: the traced peak stays near
    # one block's node x point temporaries, not 200k x 160 doubles
    assert traced_pdf_peak(octane_params(), 200_000) < 64e6


# the sigma0 = 0 bundle whose decade anchors took 27648 nodes under global
# panel doubling, and 11616 mixed over t; mixed over X it takes 64
SPIKE = MixtureParams(n=100, beta0=1.0, sigma0=0.0, mu_z=1.0, sigma_z=0.2,
                      beta1=2.0, sigma1=1.0)
# sigma0 = 0 with both windows holding 0: the density at beta0 is infinite,
# and the rule over either factor is large (2848 nodes over t)
LOG_SPIKE = MixtureParams(n=10, beta0=1.0, sigma0=0.0, mu_z=1.0, sigma_z=1.0,
                          beta1=0.3, sigma1=1.0)


def test_large_rule_pdf_has_bounded_working_set():
    # the spike bundle's 512-point blocks of 27648 nodes peaked at 341 MB;
    # band chunks of at most _TABLE doubles keep each temporary small
    assert traced_pdf_peak(LOG_SPIKE, 20_000) < 64e6


def fixed_rule(per_segment):
    """A stand-in for refine_panels: ``per_segment`` equal panels between
    the law's anchors, without refinement."""
    def rule(f, lo, hi, quad, *, split_at=()):
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
        # the s-rule certifies its mass only, from 32 initial panels and its
        # anchors: at most 1024 nodes, carrying the mass above s_split =
        # |delta0|/20
        law = signed_t_mixture(10, delta0, lambda0)
        s_split = abs(delta0) / 20.0
        below = special.ndtr(s_split - lambda0) - special.ndtr(-s_split - lambda0)
        assert law._s.size <= 1024
        assert law._sw.sum() == pytest.approx(1.0 - below, abs=QuadSpec().abs_tol)

    @pytest.mark.parametrize("nu,delta0,lambda0,t", [
        (10, 0.1, 0.0, 6.986), (10, 0.01, 0.0, 1.0), (3, 0.01, 0.0, 2.0),
        (10, 0.03, 1.0, 3.0), (10, 1e-8, 1.0, 1.0), (10, 1e-6, 1.0, 1.0),
        (10, 1e-4, 1.0, 1.0), (10, 1e-3, 1.0, 1.0)])
    def test_s_rule_at_small_noncentrality(self, nu, delta0, lambda0, t):
        # refined on the mass alone, the s-rule left the series coefficients
        # unresolved near s_split: up to 1.9e-5 off at these points
        law = signed_t_mixture(nu, delta0, lambda0)
        assert law.cdf(t) == pytest.approx(
            noncentral_t_oracle("signed", nu, delta0, lambda0, t), abs=1e-9)

    def test_s_rule_at_small_noncentrality_tsq(self):
        # F(1, 10)'s 95% point at delta = 1e-4 read 1.6e-6 off
        law = tsq_mixture(10, 1e-4, 0.0)
        assert law.cdf(CRIT) == pytest.approx(
            noncentral_t_oracle("tsq", 10, 0.01, 0.0, CRIT), abs=1e-9)

    def test_s_rule_on_a_seeded_sweep(self):
        # 28 of these 40 points read more than 1e-9 off, the worst 1.7e-4
        rng = np.random.default_rng(7)
        for _ in range(40):
            nu = int(rng.choice([1, 3, 10, 30, 100]))
            d0 = float(np.exp(rng.uniform(math.log(1e-8), math.log(40.0))))
            lam0 = (0.0 if rng.random() < 0.5 else
                    float(np.exp(rng.uniform(math.log(0.01), math.log(100.0)))))
            t = float(rng.uniform(-3.0, 8.0))
            assert signed_t_mixture(nu, d0, lam0).cdf(t) == pytest.approx(
                noncentral_t_oracle("signed", nu, d0, lam0, t), abs=1e-9), (
                nu, d0, lam0, t)

    @pytest.mark.parametrize("params", [octane_params()] + moment_table_params()
                             + [LOG_SPIKE])
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


def mean_slopes(law, y):
    """The slope t at coordinates y of a mean law's rule in slope sds:
    t = c + sigma1 y, with c = 0 where the window beta1 +- 10 sigma1 holds
    0 and beta1 elsewhere (on the parameters of the factor mixed over)."""
    p = law._mix
    c = 0.0 if abs(p.beta1) < 10.0 * p.sigma1 else p.beta1
    return c + p.sigma1 * y


class TestInPlaceKernels:
    """The rule laws' kernels, on the per-node constants ``_constants`` forms
    of a grid of coordinates over the rule's window, are the plain
    expressions of those coordinates, bit for bit; a block of few points
    sums them on every node the law keeps."""

    @pytest.mark.parametrize("params", [octane_params(), SPIKE])
    def test_mean_kernel_is_the_plain_expression(self, params):
        # the spike bundle mixes over X: the kernel on the swapped parameters
        mm = mean_mixture(params)
        p = mm._mix
        y = np.linspace(*mm._window, 400)
        t = mean_slopes(mm, y)
        rows = mm._constants(y)
        u = np.append(np.linspace(*mm.support(), 301), p.beta0)
        sd = np.sqrt(t ** 2 * p.sigma_z ** 2 / p.n + p.sigma0 ** 2)[:, None]
        z = ((u - p.beta0)[None, :] - (t * p.mu_z)[:, None]) / sd
        assert np.array_equal(mm._kernel(rows, u, True),
                              np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi)))
        assert np.array_equal(mm._kernel(rows, u, False), special.ndtr(z))

    @pytest.mark.parametrize("nu,lam", [(10, OCT_LAM), (1, 1.0), (3, 0.0)])
    def test_variance_kernels_are_the_plain_expressions(self, nu, lam):
        # the rule's coordinate is z = sqrt(nu/2) log(V/nu); each law mixes
        # over V (r = sqrt(2 nu / lambda) >= 1)
        vm = variance_mixture(nu, lam)
        z = np.linspace(*vm._window, 400)
        rows = vm._constants(z)
        u = np.concatenate([[-1.0, 0.0], np.geomspace(1e-10, vm.support()[1], 300)])
        v = nu * np.exp(z / np.sqrt(nu / 2.0))[:, None]
        lam0 = np.sqrt(lam)
        r = np.sqrt(np.clip(u, 0.0, None)[None, :] / v)
        assert np.array_equal(vm._kernel(rows, u, False),
                              special.ndtr(r - lam0) - special.ndtr(-r - lam0))
        w = u[None, :] / v
        root = np.sqrt(np.maximum(w, 0.0))
        half_normal = (1.0 / np.sqrt(2.0 * np.pi)) * (
            np.exp(-0.5 * (root - lam0) ** 2) + np.exp(-0.5 * (root + lam0) ** 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(w > 0, half_normal / (2.0 * root), 0.0) / v
        assert np.array_equal(vm._kernel(rows, u, True), want)

    @pytest.mark.parametrize("shuffled", [False, True], ids=["dense", "shuffled"])
    @pytest.mark.parametrize("build", [
        lambda: mean_mixture(octane_params()), lambda: mean_mixture(SPIKE),
        lambda: variance_mixture(10, OCT_LAM), lambda: variance_mixture(1, 400.0),
        lambda: variance_mixture(3, 0.0)],
        ids=["octane", "spike", "variance-octane", "variance-1-400",
             "variance-3-0"])
    def test_sums_on_node_constants_keep_the_bits(self, build, shuffled):
        # the kernels read the per-node records the law keeps as its nodes:
        # a block that sums every row is w @ kernel(x, u) on them, in
        # slices of _TABLE // len(u) rows (520: variance-1-400 takes 7)
        law = build()
        u = np.linspace(*law.support(), 3 * law._block + 77)
        if shuffled:
            u = np.random.default_rng(11).permutation(u)
        few = u[:law._skip_from - 1]
        step, w, x = parallel._TABLE // few.size, law._w, law._x
        for want_pdf in (True, False):
            assert np.array_equal(law._sum(few, want_pdf), sum(
                w[i:i + step] @ law._kernel(x[i:i + step], few, want_pdf)
                for i in range(0, w.size, step)))


def skip_budget(law):
    """d = 1e-3 abs_tol / sum(w): the most a skipped row's kernel may be
    from its constant."""
    return 1e-3 * law.quad.abs_tol / law._w.sum()


# a dense grid of distances past an edge, out to 1e3
PAST = np.concatenate([np.linspace(0.0, 50.0, 2001), np.geomspace(50.0, 1e3, 100)])


class TestSaturationEdges:
    """Past each row-skip edge the rule laws' own kernels stay within
    d = 1e-3 abs_tol / sum(w) of the constant the row is read as (0, or 1
    for a CDF above its upper edge), wherever the kernel's argument, as the
    kernel forms it, lies past the edge on dense grids out to 1e3 beyond
    it; at the default tolerance and at the floor.  The edges are the
    closed-form Gaussian tail bounds, so at the edge the bound is d."""

    LAWS = [(params, quad) for params in (octane_params(), LOG_SPIKE)
            for quad in (QuadSpec(), FLOOR)]

    @staticmethod
    def budget(law):
        # at an edge a kernel is d up to the rounding of ndtri and its own
        return skip_budget(law) * (1.0 + 1e-9)

    @staticmethod
    def mean_rows_past(law, edge, sign, want_pdf):
        """Each node row's kernel wherever its argument z lies at or beyond
        its edge (above for sign 1, below for -1) on a dense z grid."""
        beta0, shift, sd = law._mix.beta0, law._x["shift"], law._x["sd"]
        edge = np.broadcast_to(edge, sd.shape)
        for k in range(sd.size):
            row = law._x[k:k + 1]
            u = beta0 + shift[k] + (edge[k] + sign * PAST) * sd[k]
            u = u[sign * (law._argument(row, u)[0] - edge[k]) >= 0.0]
            yield law._kernel(row, u, want_pdf)[0]

    def test_ndtr(self):
        # the mean law's CDF kernel Phi(z): within d of 0 at z <= -A and of
        # 1 at z >= A, A = -ndtri(d)
        for params, quad in self.LAWS:
            law = mean_mixture(params, quad)
            d = self.budget(law)
            low, high = law._skip_edges[0]
            assert low == -high == float(special.ndtri(skip_budget(law)))
            for cdf in self.mean_rows_past(law, high, 1.0, False):
                # a CDF kernel near 1 rounds to the spacing of doubles there
                assert np.all(1.0 - cdf <= d + np.finfo(float).eps)
            for cdf in self.mean_rows_past(law, low, -1.0, False):
                assert np.all(cdf <= d)

    def test_gaussian_density(self):
        # the mean law's pdf kernel phi(z) / sd_k: within d of 0 at
        # |z| >= A_k, where phi(A_k) / sd_k = d unless A_k = 0
        for params, quad in self.LAWS:
            law = mean_mixture(params, quad)
            d = self.budget(law)
            low, high = law._skip_edges[1]
            assert np.array_equal(low, -high)
            for edge, sign in ((high, 1.0), (low, -1.0)):
                for pdf in self.mean_rows_past(law, edge, sign, True):
                    assert np.all(pdf <= d)
            at_edge = stats.norm.pdf(high) / law._x["sd"]
            assert np.allclose(at_edge[high > 0.0], skip_budget(law),
                               rtol=1e-9, atol=0.0)

    @staticmethod
    def variance_past(law, edge, sign, want_pdf):
        """The kernel of every node row over one dense geometric u grid, at
        the (row, point) pairs whose argument a = sqrt(u/V) - lambda0 lies
        at or beyond the row's edge and within 1e3 of it."""
        v, lam0 = law._x, math.sqrt(law.lam)
        edge = np.broadcast_to(edge, v.shape)
        # the roots r = a + lambda0 of the rows' ranges (r >= 0)
        r = np.maximum(edge + lam0 + sign * np.array([[0.0], [1e3]]), 0.0)
        if r.max() == 0.0:
            return np.empty(0)
        u = np.geomspace(v.min() * max(r.min(), 1e-3 * r.max()) ** 2,
                         v.max() * r.max() ** 2, 2001)
        a = law._argument(law._x, u) - edge[:, None]
        past = (sign * a >= 0.0) & (sign * a <= 1e3)
        return law._kernel(law._x, u, want_pdf)[past]

    @pytest.mark.parametrize("lam0", np.linspace(0.0, 30.0, 31))
    def test_variance_cdf_kernel(self, lam0):
        # K = Phi(a) - Phi(-r - lambda0) <= Phi(a): within d of 0 at
        # a <= ndtri(d); 1 - K <= 2 Phi(-a): within d of 1 at
        # a >= -ndtri(d/2)
        for quad in (QuadSpec(), FLOOR):
            law = variance_mixture(10, lam0 * lam0, quad)
            d = self.budget(law)
            low, high = law._skip_edges[0]
            assert low == float(special.ndtri(skip_budget(law)))
            assert high == -float(special.ndtri(0.5 * skip_budget(law)))
            assert np.all(1.0 - self.variance_past(law, high, 1.0, False)
                          <= d + np.finfo(float).eps)
            assert np.all(self.variance_past(law, low, -1.0, False) <= d)

    @pytest.mark.parametrize("lam0", np.linspace(0.0, 30.0, 31))
    def test_variance_pdf_kernel(self, lam0):
        # for a > 0 the pdf kernel is at most phi(a) / (a V_k), which is d
        # at a = A_k; no lower edge
        for quad in (QuadSpec(), FLOOR):
            law = variance_mixture(10, lam0 * lam0, quad)
            low, high = law._skip_edges[1]
            assert np.all(low == -np.inf) and np.all(high > 0.0)
            assert np.all(self.variance_past(law, high, 1.0, True)
                          <= self.budget(law))
            assert np.allclose(stats.norm.pdf(high) / (high * law._x),
                               skip_budget(law), rtol=1e-9, atol=0.0)


# a dense grid of distances in log y past a v-rule edge, out to 600
PAST_LOG = np.concatenate([np.linspace(0.0, 50.0, 2001),
                           np.geomspace(50.0, 600.0, 100)])


class TestVRuleEdges:
    """Past each of the v-rule's row-skip edges its kernels stay within
    d = 1e-3 abs_tol / P[s < s_split] of the constant the row is read as,
    wherever the argument -log y, as ``_argument`` forms it from U, lies
    past the edge on dense grids out to 600 beyond it; the pdf kernel
    g = U f(U) in both of its reads, the t^2 pdf g/U and the signed
    2 u f(u^2) = 2 g/sqrt(U).  At the edge each closed-form bound is d
    (d/2 for g).  Below its reach every row lies below both lower edges,
    so a law read only there never weighs its v-rule."""

    LAWS = [lambda q: tsq_mixture(10, 1.0, 0.0, q),
            lambda q: tsq_mixture(1, 2.0, 0.5, q),
            lambda q: tsq_mixture(200, 4.0, 1.0, q),
            lambda q: signed_t_mixture(8, 1.2, 6.0, q)]

    @staticmethod
    def rows_past(ext, edge, sign, want_pdf):
        """(U, kernel) of 64 rows v spaced geometrically over the rule's
        nodes, D/s_split - 8.6 to D/s_lo + 8.6, on a dense U grid where the
        row's argument lies at or beyond ``edge`` (above for sign 1, below
        for -1)."""
        v = np.geomspace(ext.root_d / ext.s_split - 8.6,
                         ext.root_d / ext.s_lo + 8.6, 64)
        for k in range(v.size):
            with np.errstate(over="ignore", under="ignore"):
                u = 0.5 * ext.nu * v[k] ** 2 * np.exp(edge + sign * PAST_LOG)
            u = u[np.isfinite(u) & (u >= sys.float_info.min)]
            u = u[sign * (ext._argument(v[k:k + 1], u)[0] - edge) >= 0.0]
            yield u, ext._kernel(v[k:k + 1], u, want_pdf)[0]

    @pytest.mark.parametrize("quad", [QuadSpec(), FLOOR], ids=["default", "floor"])
    @pytest.mark.parametrize("make", LAWS, ids=["nu10", "nu1", "nu200", "signed"])
    def test_bounds_hold_past_the_edges(self, make, quad):
        ext = v_rule(make(quad)).rule
        d = 1e-3 * quad.abs_tol / ext._mass
        budget = d * (1.0 + 1e-9)
        m = ext.nu / 2.0
        (cdf_low, cdf_high), (pdf_low, pdf_high) = ext._skip_edges
        for _, q in self.rows_past(ext, cdf_low, -1.0, False):
            assert np.all(q <= budget)
        for _, q in self.rows_past(ext, cdf_high, 1.0, False):
            # Q's finite sums round by up to 5e-15 (TestClosedFormQ)
            assert np.all(1.0 - q <= budget + 5e-15)
        for edge, sign in ((pdf_low, -1.0), (pdf_high, 1.0)):
            for u, g in self.rows_past(ext, edge, sign, True):
                assert np.all(g / u <= budget)
                assert np.all(2.0 * g / np.sqrt(u) <= budget)
        np.testing.assert_allclose(
            [special.gammaincc(m, np.exp(-cdf_low)),
             special.gammainc(m, np.exp(-cdf_high))], d, rtol=1e-9, atol=0.0)
        y = np.exp(-np.array([pdf_low, pdf_high]))
        g = np.exp(m * np.log(y) - y - special.gammaln(m))
        np.testing.assert_allclose(g, 0.5 * d, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("nu", [1, 10, 1_000_000])
    def test_pdf_edges_at_the_largest_d(self, nu):
        # d = 0.5; at nu = 1 g's level d/2 is above its peak, and both
        # edges sit at y = m (scipy's W was NaN there)
        ext = v_rule(tsq_mixture(nu, 1e8, 1.0, QuadSpec(abs_tol=1e3))).rule
        low, high = ext._skip_edges[1]
        assert np.isfinite([low, high]).all() and low < high + 1e-6
        assert nu > 1 or high - low < 1e-6

    @pytest.mark.parametrize("signed", [False, True])
    def test_reads_below_reach_build_nothing(self, signed, monkeypatch):
        # reads below the reach weigh nothing, and drop only rows within
        # the skip budget of every row's sum; a read past it (its lowest
        # node lies a little above the reach's v) weighs some
        make = lambda: (signed_t_mixture(10, 1.7, 3.2) if signed
                        else tsq_mixture(10, 3.0, 10.1))
        law, whole = make(), weighed_whole(make())
        work, reach = weighing_work(monkeypatch), v_rule(law).reach
        u = np.linspace(1e-3, reach * (1.0 - 1e-9), 3000)
        if signed:
            u = np.concatenate([-np.sqrt(u[::-1]), np.sqrt(u)])
        reads = lambda ev: (ev.pdf(u), ev.cdf(u), ev.cdf(u[-1]), ev.pdf(u[-1]))
        tables = reads(law)
        assert sum(work) == 0
        with v_rule(whole).every_row():
            for got, ref in zip(tables, reads(whole)):
                assert np.all(np.abs(got - ref) <= 1e-3 * law.quad.abs_tol
                              + SUM_ROUNDING * np.abs(ref))
        law.cdf(np.sqrt(1.5 * reach) if signed else 1.5 * reach)
        assert sum(work) > 0


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
    assert traced_peak(tm.pdf, np.linspace(0.5, 30.0, 2000))[1] < 20e6


def test_large_nu_pdf_sums_few_terms():
    # the a_j power series certified only past nu + phi^2/2 + 2 phi terms
    # and summed 5120 of them here; the derivative series' tail bound
    # stops where the Poisson coefficients have died out
    tm = tsq_mixture(5000, 25.0, 9.0)
    tm.pdf(np.linspace(0.5, 30.0, 2000))
    assert tm._m._v.size <= 640


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
        s = signed_t_mixture(10.0, d, lam0, QuadSpec())._s
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


class TestVRuleBound:
    """The v-rule's panels grow like lambda0 once the slope draws' bump lies
    in its window; where the bump's panels alone pass _MAX_PANELS the law
    is a ParamError, raised before any node is placed."""

    @pytest.mark.parametrize("make", [
        lambda: tsq_mixture(10, 1e20, 1e16),
        lambda: signed_t_mixture(10, 1e10, 1e8),
    ], ids=["tsq", "signed_t"])
    def test_huge_bump_is_rejected_at_once(self, make):
        # lambda0 = 1e8, D = 1e10: about 8.6e8 v-nodes (tens of GB)
        start = time.perf_counter()
        with pytest.raises(ParamError, match=r"lambda0 = .*1e\+08.*delta0.*"
                           r"1e\+10.*above 8192"):
            make()
        assert time.perf_counter() - start < 1.0

    def test_bound_admits_7211_panels(self):
        # lambda0 = 1e4, D = 1e6: the bump's 6 lambda0/8 panels per decade
        # over 0.96 decades and the shoulders' 8, 7211, build at once
        start = time.perf_counter()
        tsq_mixture(10, 1e12, 1e8)
        assert time.perf_counter() - start < 1.0

    def test_large_nu_is_not_bounded_here(self):
        # nu = 1e6 plans 11888 panels from its sqrt(nu/30) density, past
        # the bound on the bump's panels: it builds, and its v-rule
        # certifies the heavy tail
        assert abs(tsq_mixture(10 ** 6, 4.0, 1.0).cdf(1e7) - ncf_cdf_oracle(
            10 ** 6, 4.0, 1.0, 1e7)) <= 1e-9


class TestLargeLambda:
    """lambda0 = sqrt(lambda) above 1e17 abs_tol (the noncentral-t laws) or
    1e15 abs_tol (the variance law) is a ParamError; below it the
    noncentral-t laws certify."""

    @pytest.mark.parametrize("lam", [1e12, 1e14, 1e16])
    def test_tsq_law_is_central_f(self, lam):
        # D/s ~ 2/lambda0: the law is central F(1, 10) within 1e-15.  The
        # s-rule's 32 initial panels all missed the bump at lambda0, so its
        # weights summed to 0.5: cdf(1) read 0.33 at 1e12, ppf(0.5) 1763.2
        # at 1e16 (and an OverflowError at 1e12)
        law = tsq_mixture(10, 4.0, lam)
        assert abs(law._sw.sum() - 1.0) <= 1e-9
        assert law.cdf(1.0) == pytest.approx(special.fdtr(1, 10, 1.0), abs=1e-9)
        assert law.ppf(0.5) == pytest.approx(special.fdtri(1, 10, 0.5),
                                             rel=1e-9)

    def test_signed_law_at_huge_lambda0(self):
        # P[t0 <= 0] = E_s[Phi(-2/s)], s ~ N(1e8, 1); it read 0.2499999960
        law = signed_t_mixture(10, 2.0, 1e8)
        assert law.cdf(0.0) == pytest.approx(special.ndtr(-2e-8), abs=1e-9)

    @pytest.mark.parametrize("quad", [QuadSpec(), FLOOR], ids=["default", "floor"])
    def test_every_lambda_certifies_or_is_rejected(self, quad):
        # at 1e17 and the default tolerance the s-rule's rounded nodes left
        # its mass 4.9e-9 off 1; at the floor, 2.1e-11 off at 1e14
        bound = mx._NCT_LAM0_PER_TOL * quad.abs_tol
        for k in range(8, 25):
            lam0 = 10.0 ** (k / 2.0)
            if lam0 > bound:
                for build in (lambda: tsq_mixture(10, 4.0, lam0 ** 2, quad),
                              lambda: signed_t_mixture(10, -2.0, lam0, quad)):
                    with pytest.raises(ParamError, match="lambda"):
                        build()
                continue
            w = signed_t_mixture(10, -2.0, lam0, quad)._sw
            assert abs(w.sum() - 1.0) <= quad.abs_tol

    @pytest.mark.parametrize("quad", [QuadSpec(), FLOOR], ids=["default", "floor"])
    def test_variance_bound(self, quad):
        # W/lambda is within 1e-3 of 1, so F(u) ~ P[V <= u/lambda] (the
        # law is not certified there: see README)
        bound = (mx._VAR_LAM0_PER_TOL * quad.abs_tol) ** 2
        law = variance_mixture(10, bound, quad)
        assert law.cdf(bound * stats.chi2.ppf(0.5, 10)) == pytest.approx(
            0.5, abs=1e-3)
        for lam in (1.01 * bound, 1e100, 1e250):
            with pytest.raises(ParamError, match="lambda"):
                variance_mixture(10, lam, quad)

    def test_variance_start_does_not_overflow(self):
        # (1 + lambda) ** 2 raised OverflowError from lambda ~ 1.3e154
        at = types.SimpleNamespace(nu=10.0, lam=1e250)
        assert mx.VarianceMixture._start(at, 0.5) == pytest.approx(
            math.log(1e250 * stats.chi2.ppf(0.5, 10)), rel=1e-3)


class TestPdfIntegratesToCdf:
    # the pdf series is the CDF series' derivative, certified on its own
    # tail bound: Simpson's integral of a pdf table against the CDF
    @settings(max_examples=12, deadline=None)
    @given(nu=st.floats(0.0, 6.0).map(lambda e: round(10.0 ** e)),
           d0=st.floats(0.0, 8.0), lam0=st.floats(0.0, 8.0))
    @example(nu=1, d0=8.0, lam0=0.0)
    @example(nu=10 ** 6, d0=8.0, lam0=8.0)
    def test_both_laws(self, nu, d0, lam0):
        self.check(nu, d0, lam0)

    @staticmethod
    def check(nu, d0, lam0):
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
            want = nct_pdf_oracle(nu, d0, lam0, t)
            assert sm.pdf(t) == pytest.approx(want, abs=1e-9)
        fold = sum(nct_pdf_oracle(nu, d0, lam0, t) for t in (-1.0, 1.0)) / 2.0
        assert tsq_mixture(nu, d0 ** 2, lam0 ** 2).pdf(1.0) == pytest.approx(
            fold, abs=1e-9)

    def test_pdf_table_integrates_to_the_cdf(self, nu, d0, lam0):
        TestPdfIntegratesToCdf.check(nu, d0, lam0)


class TestMeanWindow:
    """The rule over slope sds resolves a slope window beta1 +- 10 sigma1
    of any width.  Over t, below sigma1 = 2e-11 |beta1| it was a ParamError
    (at beta1 = 1e150, sigma1 = 1e-10 the window rounded to one float, and
    nearer the bound the rule raised AccuracyError or read 0.42 for 0.32),
    and at beta1 = 0, sigma1 = 1e-310 the mixing density 1/sigma1
    overflowed (AccuracyError)."""

    @pytest.mark.parametrize("beta1,sigma1", [
        (1e150, 1e-10), (1.0, 1e-16), (-3.7, 1e-11), (1.0, 5e-324),
        (1.0, 1.9e-11), (1e5, 1e-12), (0.0, 1e-310)])
    def test_narrow_window_certifies(self, beta1, sigma1):
        p = MixtureParams(n=5, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                          beta1=beta1, sigma1=sigma1)
        law = mean_mixture(p)
        assert law._mix is p and law._x.size <= 64
        u = np.linspace(*law.support(), 25)
        want = [mean_cdf_over_t(p, v) for v in u]
        assert np.max(np.abs(law.cdf(u) - want)) <= 1e-9

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(2, 100), beta0=st.floats(-10.0, 10.0),
           sigma0=log_uniform(1e-2, 10.0), mu_z=signed(log_uniform(1e-2, 1e2)),
           sigma_z=log_uniform(1e-2, 10.0),
           beta1=signed(log_uniform(1e-2, 1e2)), ratio=log_uniform(1e-16, 1e2))
    def test_any_window_agrees_with_quadrature(self, n, beta0, sigma0, mu_z,
                                               sigma_z, beta1, ratio):
        # sigma1 / |beta1| over 18 decades; the oracle integrates over the
        # factor that the law mixes over, T or (as the swapped slope) X
        p = MixtureParams(n, beta0, sigma0, mu_z, sigma_z, beta1,
                          ratio * abs(beta1))
        law = mean_mixture(p)
        assume(sharpness(law._mix) >= 0.03)
        u = np.linspace(*law.support(), 11)
        want = [mean_cdf_over_t(law._mix, v) for v in u]
        assert np.max(np.abs(law.cdf(u) - want)) <= 1e-9


def block_grid(block, lo, hi, log=False):
    """A grid of 4 blocks and a partial one."""
    return (np.geomspace if log else np.linspace)(lo, hi, 4 * block + 17)


SPIKE_LAW = functools.cache(lambda: mean_mixture(LOG_SPIKE))
# sigma0 = 1e-154 with both factors centred at 0: 31808 nodes
TINY_SIGMA0_LAW = functools.cache(lambda: mean_mixture(
    MixtureParams(2, 0.0, 1e-154, 0.0, 1.0, 0.0, 1.0)))


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

    @pytest.mark.parametrize("build", [
        SPIKE_LAW, lambda: variance_mixture(1, 1000.0)],
        ids=["spike", "variance-nu1-lam1000"])
    def test_large_rule_tables_hold_to_the_table_budget(self, build,
                                                        monkeypatch):
        # 2848 and 4832 nodes: each band x point table of a block holds at
        # most _TABLE doubles, whatever the rule's size; the skip edges,
        # built once per law at its first table, are left out of the peak
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        law = build()
        u = np.linspace(*law.support(), 3 * 512)
        for f in (law.pdf, law.cdf):
            f(u)
            assert traced_peak(f, u)[1] < 8 * parallel._TABLE * 8

    def test_small_calls_hold_to_the_table_budget(self):
        # a call of fewer than 64 points sums every row of the tiny-sigma0
        # law's 31808, in slices of _TABLE // 63 rows: summed whole, this
        # pdf peaked at 16.2 MB
        law = TINY_SIGMA0_LAW()
        assert traced_peak(law.pdf, np.linspace(-8.0, 8.0, 63))[1] < (
            8 * parallel._TABLE * 8)

    def test_racing_threads_grow_the_serial_coefficients(self):
        # upto extends under a lock, and every caller climbs the rung
        # ladder, so the sequences grow by the same blocks of j (and drop
        # the same live nodes) however the threads interleave: more threads
        # than CPUs, switching every microsecond
        def seqs():
            law = signed_t_mixture(10, 3.0, 3.2)
            return law._m, law._n

        def climb(cs):
            for j_hi in LADDER:
                for c in cs:
                    c.upto(j_hi)
        serial = seqs()
        climb(serial)
        for _ in range(50):
            raced = seqs()
            race([functools.partial(climb, raced)] * 4)
            for c, want in zip(raced, serial):
                assert np.array_equal(c.upto(LADDER[-1]), want.upto(LADDER[-1]))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_blocks_see_the_callers_errstate(self, workers, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
        seen = []

        def block(u):
            seen.append(np.geterr()["over"])
            return u
        with np.errstate(over="ignore"):
            mx._evaluate(block, np.arange(3000.0), 1.0, 512)
        assert len(seen) == 6 and set(seen) == {"ignore"}


def whole_kernel_sums(law, u, want_pdf):
    """w @ kernel(x, u) over every node row, block by block."""
    out = np.concatenate([law._w @ law._kernel(law._x, u[i:i + law._block],
                                               want_pdf)
                          for i in range(0, u.size, law._block)])
    return out if want_pdf else np.clip(out, 0.0, 1.0)


# the rounding of a rule law's node sum, relative to it: a sum over fewer
# rows rounds differently (by up to 6 eps seen, on the pdf near a nu = 1
# law's pole), and the CDF on sorted points may step down by as much where
# the rows it sums change between blocks (2 eps seen)
SUM_ROUNDING = 16.0 * np.finfo(float).eps


def check_skipped_tables(law, u, rule=None, whole=whole_kernel_sums):
    """The pdf and CDF tables of u, sorted and shuffled, within 1e-3
    abs_tol of the whole-row sums ``whole(law, grid, want_pdf)``, and the
    CDF nondecreasing on sorted u, up to the rounding of the sums.  Returns
    the share of the whole-row sums' node x point entries of ``rule`` (the
    law itself by default) that the tables' kernel calls evaluated."""
    rule = rule or law
    kernel, entries, side = rule._kernel, {"tables": [], "whole": []}, ["tables"]

    def spy(x, v, want_pdf):
        entries[side[0]].append(x.size * v.size)
        return kernel(x, v, want_pdf)
    budget = 1e-3 * law.quad.abs_tol
    with mock.patch.object(rule, "_kernel", spy):
        for grid in (u, np.random.default_rng(7).permutation(u)):
            side[0] = "tables"
            pdf, cdf = law.pdf(grid), law.cdf(grid)
            side[0] = "whole"
            for want_pdf, table in ((True, pdf), (False, cdf)):
                want = whole(law, grid, want_pdf)
                assert np.all(np.abs(table - want)
                              <= budget + SUM_ROUNDING * np.abs(want))
    assert np.all(np.diff(law.cdf(np.sort(u))) >= -SUM_ROUNDING)
    return sum(entries["tables"]) / sum(entries["whole"])


def whole_v_rule_tables(law, u, want_pdf):
    """The law's table with its v-rule summing every row at every point."""
    with v_rule(law).every_row():
        return law.pdf(u) if want_pdf else law.cdf(u)


# two series blocks of points, and a fixed shuffle of them
TWO_BLOCKS = mx._SERIES_BLOCK + 77
SHUFFLE = np.random.default_rng(3)


class TestRowSkip:
    """Rule-law and v-rule tables that drop the rows within d = 1e-3
    abs_tol / mass of a constant stay within 1e-3 abs_tol of the whole-row
    sums block by block, also on shuffled abscissae and on blocks that
    straddle the edges or lie wholly past them, and the CDF stays
    nondecreasing."""

    @pytest.mark.parametrize("quad", [QuadSpec(), FLOOR], ids=["default", "floor"])
    @pytest.mark.parametrize("build,lo,hi,log", [
        (lambda q: mean_mixture(octane_params(), q), 40.0, 135.0, False),
        (lambda q: mean_mixture(LOG_SPIKE, q), -1.0, 6.0, False),
        (lambda q: variance_mixture(1, 0.5, q), 1e-12, 1e4, True),
        (lambda q: variance_mixture(10, OCT_LAM, q), 1e-4, 3e3, True),
    ], ids=["mean", "spike", "variance-nu1", "variance-octane"])
    def test_tables_within_the_budget(self, build, lo, hi, log, quad):
        law = build(quad)
        # some rows were skipped
        assert check_skipped_tables(law, block_grid(law._block, lo, hi, log)) < 1.0

    @pytest.mark.parametrize("quad", [QuadSpec(), FLOOR], ids=["default", "floor"])
    @pytest.mark.parametrize("build,grid", [
        (lambda q: tsq_mixture(10, 3.0, 10.1, q),
         np.linspace(0.05, 60.0, 2048 + 77)),
        (lambda q: tsq_mixture(10, 3.0, 10.1, q), np.geomspace(1e-3, 1e30, 2048)),
        (lambda q: signed_t_mixture(10, 1.7, 3.2, q),
         np.linspace(-20.0, 200.0, 2048 + 77)),
        (lambda q: signed_t_mixture(10, 1.7, 3.2, q), np.concatenate(
            [-np.geomspace(1e-3, 1e30, 1024)[::-1], np.geomspace(1e-3, 1e30, 1024)])),
    ], ids=["tsq-dense", "tsq-geom", "signed-dense", "signed-geom"])
    def test_v_rule_tables_within_the_budget(self, build, grid, quad):
        # the dense grids' chunks straddle the rule's reach, and the
        # geometric ones' chunks of 512 points span 8 decades; some rows
        # are skipped
        law = build(quad)
        assert check_skipped_tables(law, grid, v_rule(law).rule,
                                    whole_v_rule_tables) < 1.0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("signed,grid", [
        (False, np.linspace(0.05, 60.0, TWO_BLOCKS)),
        (False, np.geomspace(1e-3, 1e30, TWO_BLOCKS)),
        (False, SHUFFLE.permutation(np.geomspace(1e-3, 1e12, TWO_BLOCKS))),
        (True, np.linspace(-20.0, 200.0, TWO_BLOCKS)),
        (True, np.concatenate([-np.geomspace(1e-3, 1e30, 2048)[::-1],
                               np.geomspace(1e-3, 1e30, TWO_BLOCKS - 2048)])),
        (True, SHUFFLE.permutation(np.linspace(-20.0, 1e4, TWO_BLOCKS))),
    ], ids=["tsq-dense", "tsq-geom", "tsq-shuffled", "signed-dense",
            "signed-geom", "signed-shuffled"])
    def test_v_rule_weights_on_demand_keep_the_bits(self, signed, grid,
                                                    workers, monkeypatch):
        # a v-rule row past the weighted prefix is one the band drops
        monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
        build = lambda: (signed_t_mixture(10, 1.7, 3.2) if signed
                         else tsq_mixture(10, 3.0, 10.1))
        law, whole = build(), weighed_whole(build())
        assert np.array_equal(law.pdf(grid), whole.pdf(grid))
        assert np.array_equal(law.cdf(grid), whole.cdf(grid))

    @pytest.mark.parametrize("quad", [QuadSpec(), FLOOR], ids=["default", "floor"])
    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(2, 100), beta0=st.floats(-10.0, 10.0),
           sigma0=log_uniform(1e-3, 10.0), mu_z=signed(log_uniform(1e-2, 1e2)),
           sigma_z=log_uniform(1e-2, 10.0),
           beta1=signed(log_uniform(1e-2, 1e2)), sigma1=log_uniform(1e-3, 10.0))
    def test_mean_law_property(self, quad, n, beta0, sigma0, mu_z, sigma_z,
                               beta1, sigma1):
        law = mean_mixture(MixtureParams(n, beta0, sigma0, mu_z, sigma_z,
                                         beta1, sigma1), quad)
        lo, hi = law.support()
        check_skipped_tables(law, np.linspace(lo, hi, 3 * law._block + 77))

    @pytest.mark.parametrize("quad", [QuadSpec(), FLOOR], ids=["default", "floor"])
    @settings(max_examples=6, deadline=None)
    @given(nu=log_uniform(1.0, 1e3).map(round), lam=log_uniform(1e-3, 400.0))
    def test_variance_law_property(self, quad, nu, lam):
        law = variance_mixture(nu, lam, quad)
        check_skipped_tables(law, np.geomspace(1e-6, law.support()[1],
                                               3 * law._block + 77))

    def test_dense_mean_tables_evaluate_few_rows(self):
        # the octane table of the dense_grid benchmark: 30% (CDF) and 31%
        # (pdf) of its blocks' rows x points are evaluated, against 57% and
        # 79% when only rows exactly 0 or 1 in doubles were skipped
        law = mean_mixture(octane_params())
        u = np.linspace(*law.support(), 26_000)
        kernel, evaluated = law._kernel, []

        def spy(x, v, want_pdf):
            evaluated.append(x.size * v.size)
            return kernel(x, v, want_pdf)
        with mock.patch.object(law, "_kernel", spy):
            for table in (law.pdf, law.cdf):
                evaluated.clear()
                table(u)
                assert sum(evaluated) <= 0.35 * law._x.size * u.size


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
        law = mean_mixture(MixtureParams(n, beta0, sigma0, mu_z, sigma_z,
                                         beta1, sigma1))
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
        reach = v_rule(law).reach
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
        reach = v_rule(tm).reach
        u = np.geomspace(1e-3, 1e4, 9)
        if math.isfinite(reach):
            u = np.concatenate([u, reach * np.array([0.5, 0.99, 1.01, 3.0, 1e3])])
        root = np.sqrt(u)
        assert np.max(np.abs(st_.cdf(root) - st_.cdf(-root) - tm.cdf(u))) <= 1e-9


# components that turn over within 1e-3 slope sds, 30 X sds wide
SHARP = MixtureParams(n=76, beta0=8.668387846148569, sigma0=0.01036421938716176,
                      mu_z=17.462536274358786, sigma_z=0.025721254977391465,
                      beta1=0.47382132585939674, sigma1=1.8240011675255017)


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

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 100), beta0=st.floats(-10.0, 10.0),
           sigma0=log_uniform(1e-2, 10.0), mu_z=signed(log_uniform(1e-2, 1e2)),
           sigma_z=log_uniform(1e-2, 10.0),
           beta1=signed(log_uniform(1e-2, 1e2)), sigma1=log_uniform(1e-3, 10.0))
    def test_mean_law_default_agrees(self, n, beta0, sigma0, mu_z, sigma_z,
                                     beta1, sigma1):
        p = MixtureParams(n, beta0, sigma0, mu_z, sigma_z, beta1, sigma1)
        law = mean_mixture(p)
        self.agree(law, mean_mixture(p, FLOOR), np.linspace(*law.support(), 201))

    def test_sharp_mean_law(self):
        # the components turn over within 1e-3 slope sds: the rule over t,
        # certified at its probe points only, read 0.8952717925 here (and
        # the floor's 0.8947508650); the law now mixes over X
        assert sharpness(SHARP) < 1e-3
        # an adaptive scipy quadrature over t reads 0.8947503933 here
        assert mean_mixture(SHARP).cdf(56.827) == pytest.approx(0.8947503933,
                                                                abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(nu=log_uniform(1.0, 1e3).map(round), lam=log_uniform(1e-3, 400.0))
    def test_variance_law_default_agrees(self, nu, lam):
        law = variance_mixture(nu, lam)
        self.agree(law, variance_mixture(nu, lam, FLOOR),
                   np.geomspace(1e-6, law.support()[1], 201))


def swapped(p):
    """The same mean law with T and X swapped."""
    r = math.sqrt(p.n)
    return MixtureParams(n=p.n, beta0=p.beta0, sigma0=p.sigma0, mu_z=p.beta1,
                         sigma_z=p.sigma1 * r, beta1=p.mu_z,
                         sigma1=p.sigma_z / r)


def forced_rule(p, factor):
    """The mean law of p mixed over T (factor "t") or X (factor "x")."""
    with mock.patch.object(mx, "sharpness",
                           lambda q: float((q is p) == (factor == "t"))):
        law = mean_mixture(p)
    assert (law._mix is p) == (factor == "t")
    return law


class TestMixingFactor:
    """The mean law mixes over whichever Gaussian factor, T or X, is the
    smoother: the same law by the symmetry of beta0 + T X + sigma0 E."""

    @pytest.mark.parametrize("params,factor", [
        (octane_params(), "t"), (SPIKE, "x"), (SHARP, "x"), (LOG_SPIKE, "t"),
        (MixtureParams(n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                       beta1=1.0, sigma1=1.0), "x")])
    def test_picks_the_larger_sharpness(self, params, factor):
        assert (mean_mixture(params)._mix is params) == (factor == "t")

    def test_x_is_picked_on_a_narrow_window(self):
        # X's window mu_z +- 10 sigma_z/sqrt(n) is narrower than 2e-10 |mu_z|
        # either side, which the rule over x could not resolve; in X's sds
        # it can, and X's sharpness is far the larger.  The oracle too
        # integrates in X's sds.
        p = MixtureParams(n=4, beta0=0.0, sigma0=1e-3, mu_z=1.0,
                          sigma_z=1e-11, beta1=2.0, sigma1=1.0)
        assert sharpness(swapped(p)) > sharpness(p)
        law = mean_mixture(p)
        assert law._mix is not p
        u = np.linspace(*law.support(), 25)
        want = [mean_cdf_over_x(p, v) for v in u]
        assert np.max(np.abs(law.cdf(u) - want)) <= 1e-9

    def test_underflowing_scale_is_infinitely_smooth(self):
        # |mu_z| sigma1 rounds to 0 here: sharpness divided by it
        # (ZeroDivisionError), where mu_z = 0 reads inf
        p = MixtureParams(n=2, beta0=0.0, sigma0=0.0, mu_z=5e-324,
                          sigma_z=1.0, beta1=0.0, sigma1=0.5)
        assert sharpness(p) == math.inf
        assert_inverts(mean_mixture(p), 0.5)

    def test_overflowing_ratio_is_infinitely_smooth(self):
        # a subnormal |mu_z| sigma1 in numpy floats: sd / scale overflowed
        # with a RuntimeWarning (Hypothesis, TestJointInversion::test_mean)
        p = MixtureParams(n=2, beta0=0.0, sigma0=np.float64(1.0),
                          mu_z=2.2250738585e-313,
                          sigma_z=np.float64(math.sqrt(2.0)), beta1=0.0,
                          sigma1=np.float64(math.sqrt(0.5)))
        assert sharpness(p) == math.inf
        assert_inverts(mean_mixture(p), 0.5)

    def test_x_parameters_that_overflow_keep_t(self):
        # the swapped bundle's var_y, n sigma1^2 mu_z^2 among its terms,
        # overflows where this one's does not
        p = MixtureParams(n=100, beta0=0.0, sigma0=1.0, mu_z=1e153,
                          sigma_z=1e150, beta1=1e-3, sigma1=1.35)
        with pytest.raises(ParamError, match="var_y"):
            swapped(p)
        assert mean_mixture(p)._mix is p

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 100), beta0=st.floats(-10.0, 10.0),
           sigma0=log_uniform(1e-2, 10.0), mu_z=signed(log_uniform(1e-2, 1e2)),
           sigma_z=log_uniform(1e-2, 10.0),
           beta1=signed(log_uniform(1e-2, 1e2)), sigma1=log_uniform(1e-3, 10.0))
    def test_both_factors_agree(self, n, beta0, sigma0, mu_z, sigma_z, beta1,
                                sigma1):
        # a cross-route identity where both rules are smooth
        p = MixtureParams(n, beta0, sigma0, mu_z, sigma_z, beta1, sigma1)
        assume(min(sharpness(p), sharpness(swapped(p))) >= 0.03)
        by_t, by_x = forced_rule(p, "t"), forced_rule(p, "x")
        lo = min(by_t.support()[0], by_x.support()[0])
        hi = max(by_t.support()[1], by_x.support()[1])
        TestToleranceFloor.agree(by_t, by_x, np.linspace(lo, hi, 201))

    def test_sharp_law_against_quadrature_over_x(self):
        law = mean_mixture(SHARP)
        assert law._x.size <= 64       # 6976 nodes over t
        u = np.linspace(*law.support(), 25)
        want = [mean_cdf_over_x(SHARP, v) for v in u]
        assert np.max(np.abs(law.cdf(u) - want)) <= 1e-9

    def test_spike_pdf_at_beta0(self):
        # at sigma0 = 0 the density at beta0 given X = x is
        # phi(beta1/sigma1) / (sigma1 |x|); over t the rule read 0 there
        p = SPIKE
        sd_x = p.sigma_z / math.sqrt(p.n)
        inv_x = integrate.quad(lambda x: stats.norm.pdf(x, p.mu_z, sd_x) / abs(x),
                               p.mu_z - 12.0 * sd_x, p.mu_z + 12.0 * sd_x,
                               epsabs=0.0, epsrel=1e-13)[0]
        want = stats.norm.pdf(p.beta1 / p.sigma1) * inv_x / p.sigma1
        law = mean_mixture(p)
        assert law._x.size <= 64
        assert law.pdf(p.beta0) == pytest.approx(want, rel=1e-9)
