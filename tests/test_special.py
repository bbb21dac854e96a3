import numpy as np
import pytest
from scipy import integrate, special, stats

from calibmix import nc_chisq1_pdf, ncf_cdf
from calibmix import special as ser


class TestNcChisq1Pdf:
    def test_central_value(self):
        # e^{-1/2}/sqrt(2 pi)
        assert nc_chisq1_pdf(1.0, 0.0) == pytest.approx(0.2420, abs=5e-5)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 4.0, 10.0953])
    def test_against_scipy(self, lam):
        w = np.linspace(1e-3, 80.0, 197)
        ref = stats.ncx2.pdf(w, 1, lam) if lam > 0 else stats.chi2.pdf(w, 1)
        assert np.max(np.abs(nc_chisq1_pdf(w, lam) - ref)) < 1e-12

    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
    def test_normalization(self, lam):
        val, _ = integrate.quad(lambda w: nc_chisq1_pdf(w, lam), 0.0,
                                stats.ncx2.ppf(1 - 1e-13, 1, max(lam, 1e-12)) + 50,
                                limit=300)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_mean_one_plus_lambda(self):
        lam = 4.0
        hi = stats.ncx2.ppf(1 - 1e-14, 1, lam) + 60
        val, _ = integrate.quad(lambda w: w * nc_chisq1_pdf(w, lam), 0.0, hi,
                                limit=400)
        assert val == pytest.approx(5.0, abs=1e-8)

    def test_negative_argument_is_zero(self):
        assert nc_chisq1_pdf(-0.5, 2.0) == 0.0
        out = nc_chisq1_pdf(np.array([-1.0, 1.0]), 2.0)
        assert out[0] == 0.0 and out[1] > 0

    def test_matches_half_normal_form(self):
        # 2 s p(s^2) equals the shifted half-normal density of sqrt(W)
        lam0 = 1.7
        s = np.linspace(1e-4, 8.0, 301)
        lhs = 2.0 * s * nc_chisq1_pdf(s ** 2, lam0 ** 2)
        rhs = ser.sqrt_ncchisq1_pdf(s, lam0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("lam", [400.0, 2500.0])
    def test_large_noncentrality_against_scipy(self, lam):
        # w spans the bulk of the law (mean 1 + lam)
        w = np.linspace(1e-3, 2.0 * lam + 300.0, 401)
        ref = stats.ncx2.pdf(w, 1, lam)
        assert np.max(np.abs(nc_chisq1_pdf(w, lam) - ref)) < 1e-15


class TestNcfCdf:
    @pytest.mark.parametrize("d1,d2,nc", [(1, 10, 0.0), (1, 10, 2.9351),
                                          (3, 12, 5.0), (2, 8, 25.0)])
    def test_against_scipy(self, d1, d2, nc):
        x = np.linspace(0.05, 30.0, 57)
        ref = (stats.ncf.cdf(x, d1, d2, nc) if nc > 0
               else stats.f.cdf(x, d1, d2))
        assert np.max(np.abs(ncf_cdf(x, d1, d2, nc) - ref)) < 1e-10

    def test_huge_noncentrality(self):
        # the Poisson window must track the bulk
        val = ncf_cdf(120.0, 1, 10, 1000.0)
        ref = stats.ncf.cdf(120.0, 1, 10, 1000.0)
        assert val == pytest.approx(ref, abs=1e-9)

    def test_scalar_and_edge(self):
        assert ncf_cdf(0.0, 1, 10, 3.0) == 0.0
        assert isinstance(ncf_cdf(2.0, 1, 10, 3.0), float)


class TestNctKernel:
    @pytest.mark.parametrize("phi", [0.0, 0.8, 3.0, 12.0])
    def test_series_matches_scipy_nct(self, phi):
        nu = 10.0
        u = np.linspace(-6.0, 14.0, 81)
        j = np.arange(0, 600, dtype=float)
        pref = np.exp(ser.nct_log_prefactor(u, nu))
        g = u / np.sqrt(nu + u * u)
        if phi == 0.0:
            mine = pref
        else:
            node = np.exp(-0.5 * phi ** 2 + j * np.log(np.sqrt(2.0) * phi)
                          + ser.nct_log_cj(j, nu))
            sign = np.where((j[:, None] % 2.0) == 0.0, 1.0, np.sign(g)[None, :])
            terms = node[:, None] * sign * np.abs(g[None, :]) ** j[:, None]
            mine = pref * terms.sum(axis=0)
        ref = stats.nct.pdf(u, nu, phi) if phi > 0 else stats.t.pdf(u, nu)
        assert np.max(np.abs(mine - ref)) < 1e-11


class TestLogBeta:
    def test_matches_betaln_at_moderate_arguments(self):
        a, b = np.meshgrid(np.linspace(0.5, 40.0, 30), np.linspace(0.5, 40.0, 30))
        assert np.max(np.abs(ser.log_beta(a, b) - special.betaln(a, b))) < 1e-13

    def test_index_recurrence_at_large_arguments(self):
        # log B(a+1, b) = log B(a, b) + log(a/(a+b)), where the gammaln
        # differences of scipy's betaln miss it by 5e-10
        a = np.array([1e3, 1e4, 1.2e5]) + 0.5
        b = np.array([0.5, 5.0, 75.0])[:, None]
        step = ser.log_beta(a + 1.0, b) - ser.log_beta(a, b)
        assert np.max(np.abs(step - np.log(a / (a + b)))) < 1e-12
