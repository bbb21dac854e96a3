import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibmix import (CalibrationData, DataError, MixtureParams, ParamError,
                      calibration_data_from_csv, correlation_params,
                      covariance_structure, derive_params, fit_calibration,
                      unconditional_mean_cov)
from calibmix.casestudy import OCTANE_U, OCTANE_X, octane_data


def octane_least_squares_oracle():
    """Independent closed-form least squares via hand normal equations."""
    x = np.asarray(OCTANE_X)
    u = np.asarray(OCTANE_U)
    n0 = len(x)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    sxu = float(xc @ (u - u.mean()))
    suu = float((u - u.mean()) @ (u - u.mean()))
    beta1 = sxu / sxx
    sse = suu - sxu ** 2 / sxx
    sigma_u = np.sqrt(sse / (n0 - 2))
    return {
        "beta0": float(u.mean()),
        "beta1": beta1,
        "sigma_u": sigma_u,
        "sigma0": sigma_u / np.sqrt(n0),
        "sigma1": sigma_u / np.sqrt(sxx),
        "sxx": sxx,
        "sxu": sxu,
        "suu": suu,
    }


class TestFitCalibration:
    def test_octane_matches_independent_oracle(self):
        oracle = octane_least_squares_oracle()
        # hand normal equations on the printed data
        assert oracle["sxx"] == pytest.approx(1.1, abs=1e-12)
        assert oracle["sxu"] == pytest.approx(1.24, abs=1e-12)
        assert oracle["suu"] == pytest.approx(6.32, abs=1e-9)

        fit = fit_calibration(octane_data())
        assert fit.beta0_hat == pytest.approx(oracle["beta0"], abs=1e-12)
        assert fit.beta1_hat == pytest.approx(oracle["beta1"], abs=1e-12)
        assert fit.sigma_u_hat == pytest.approx(oracle["sigma_u"], abs=1e-12)
        assert fit.sigma0 == pytest.approx(oracle["sigma0"], abs=1e-12)
        assert fit.sigma1 == pytest.approx(oracle["sigma1"], abs=1e-12)
        # 4-decimal values of the oracle
        assert fit.beta0_hat == pytest.approx(87.1000, abs=1e-4)
        assert fit.beta1_hat == pytest.approx(1.1273, abs=1e-4)
        assert fit.sigma_u_hat == pytest.approx(0.7395, abs=1e-4)
        assert fit.sigma0 == pytest.approx(0.2230, abs=1e-4)
        assert fit.sigma1 == pytest.approx(0.7051, abs=1e-4)

    def test_noiseless_line(self):
        x = np.linspace(0.0, 2.0, 7)
        u = 2.0 + 3.0 * (x - x.mean())
        fit = fit_calibration(CalibrationData(tuple(zip(x, u))))
        assert fit.beta1_hat == pytest.approx(3.0, abs=1e-12)
        assert fit.sigma_u_hat == pytest.approx(0.0, abs=1e-12)
        assert fit.beta0_hat == pytest.approx(2.0, abs=1e-12)

    def test_constant_x_rejected(self):
        with pytest.raises(ParamError):
            CalibrationData(((1.0, 2.0), (1.0, 3.0), (1.0, 4.0)))

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ParamError):
            CalibrationData(((1.0, 2.0), (2.0, 3.0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ParamError):
            CalibrationData(((1.0, np.nan), (2.0, 3.0), (3.0, 4.0)))

    def test_projection_uses_centering_offset(self):
        fit = fit_calibration(octane_data())
        assert fit.project(fit.xbar) == pytest.approx(fit.beta0_hat)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 2 ** 31 - 1))
    def test_sigma_identity(self, n0, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n0)
        x[0] += 1.0  # guarantee spread
        u = 1.0 + 2.0 * x + rng.normal(size=n0)
        fit = fit_calibration(CalibrationData(tuple(zip(x, u))))
        # sigma0 sqrt(n0) = sigma1 sqrt(sxx) = sigma_u_hat
        assert fit.sigma0 * np.sqrt(fit.n0) == pytest.approx(fit.sigma_u_hat, rel=1e-12)
        assert fit.sigma1 * np.sqrt(fit.sxx) == pytest.approx(fit.sigma_u_hat, rel=1e-12)


class TestCsvIngestion:
    def test_good_file(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("x,u\n1.0,2.0\n2.0,4.0\n3.0,5.0\n")
        data = calibration_data_from_csv(path)
        assert len(data.pairs) == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("a,b\n1,2\n2,3\n3,4\n")
        with pytest.raises(DataError, match="row 1"):
            calibration_data_from_csv(path)

    def test_bad_row_number_reported(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("x,u\n1.0,2.0\n2.0,oops\n3.0,5.0\n")
        with pytest.raises(DataError, match="row 3"):
            calibration_data_from_csv(path)

    def test_short_row_reported(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("x,u\n1.0,2.0\n2.0\n")
        with pytest.raises(DataError, match="row 3"):
            calibration_data_from_csv(path)


UNIT = MixtureParams(n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                     beta1=1.0, sigma1=1.0)


class TestDeriveParams:
    def test_unit_bundle(self):
        d = derive_params(UNIT)
        assert d.kappa2 == pytest.approx(2.0)
        assert d.mu_y == pytest.approx(2.0)
        assert d.var_ybar == pytest.approx(2.2)
        assert d.var_y == pytest.approx(4.0)
        assert d.lam == pytest.approx(1.0)
        assert d.nu == 9
        assert d.delta is None

    def test_octane_lambda_delta(self):
        p = MixtureParams(n=11, beta0=87.2818, sigma0=0.1846, mu_z=0.0,
                          sigma_z=1.0, beta1=1.8546, sigma1=0.5837)
        d = derive_params(p, mu_y0=p.mu_y - 1.0)
        assert d.lam == pytest.approx(10.0953, abs=5e-5)
        assert d.delta == pytest.approx(2.9351, abs=5e-5)

    def test_zero_slope_gives_zero_lambda(self):
        p = MixtureParams(n=5, beta0=0.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                          beta1=0.0, sigma1=2.0)
        assert derive_params(p).lam == 0.0

    def test_sigma1_zero_rejected(self):
        with pytest.raises(ParamError):
            MixtureParams(n=5, beta0=0.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=0.0)

    @pytest.mark.parametrize("field,value", [("sigma0", np.nan),
                                             ("sigma1", np.inf),
                                             ("sigma1", np.nan),
                                             ("sigma_z", np.nan)])
    def test_non_finite_scale_rejected(self, field, value):
        kw = dict(n=5, beta0=0.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                  beta1=1.0, sigma1=2.0)
        kw[field] = value
        with pytest.raises(ParamError, match=field):
            MixtureParams(**kw)

    def test_overflowing_variance_rejected(self):
        # every scale at 1e200: sigma_z ** 2 raised OverflowError
        scales = ("beta0", "sigma0", "mu_z", "sigma_z", "beta1", "sigma1")
        with pytest.raises(ParamError, match="var_y"):
            MixtureParams(n=5, **dict.fromkeys(scales, 1e200))
        # every square finite, kappa2 sigma_z^2 not
        with pytest.raises(ParamError, match="var_y"):
            MixtureParams(n=5, beta0=1.0, sigma0=1.0, mu_z=1.0,
                          sigma_z=1e154, beta1=1e154, sigma1=1.0)

    @pytest.mark.parametrize("beta1,sigma1", [(1e150, 1e-10), (1e10, 1e-300)])
    def test_overflowing_lambda_rejected(self, beta1, sigma1):
        # (beta1/sigma1) ** 2 raised OverflowError, or beta1/sigma1 read inf
        p = MixtureParams(n=5, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                          beta1=beta1, sigma1=sigma1)
        with pytest.raises(ParamError, match="lambda"):
            derive_params(p)

    @pytest.mark.parametrize("mu_y0", [-1e200, 1e300])
    def test_overflowing_delta_rejected(self, mu_y0):
        p = MixtureParams(n=5, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        with pytest.raises(ParamError, match="delta"):
            derive_params(p, mu_y0=mu_y0)
        assert derive_params(p, mu_y0=-1e150).delta == pytest.approx(1e300)

    def test_ideal_mode(self):
        p = MixtureParams(n=5, beta0=1.0, sigma0=0.0, mu_z=2.0, sigma_z=1.0,
                          beta1=3.0, sigma1=0.0, ideal=True)
        d = derive_params(p)
        assert d.kappa2 == pytest.approx(9.0)
        assert d.lam is None
        with pytest.raises(ParamError):
            derive_params(p, mu_y0=0.0)

    def test_ideal_requires_zero_sigmas(self):
        with pytest.raises(ParamError):
            MixtureParams(n=5, beta0=1.0, sigma0=0.5, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=0.0, ideal=True)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.1, 3.0), st.floats(-3.0, 3.0),
           st.floats(0.1, 3.0), st.floats(-3.0, 3.0), st.floats(0.1, 3.0))
    def test_var_ybar_decreasing_in_n(self, s0, s1, mz, sz, b1, b0):
        limit = s0 ** 2 + s1 ** 2 * mz ** 2
        prev = np.inf
        for n in (2, 10, 10 ** 3, 10 ** 6):
            p = MixtureParams(n=n, beta0=b0, sigma0=s0, mu_z=mz, sigma_z=sz,
                              beta1=b1, sigma1=s1)
            v = derive_params(p).var_ybar
            assert v < prev
            assert v > limit
            # exact gap above the limit: the vanishing kappa2 sigma_z^2/n term
            assert v - limit == pytest.approx(p.kappa2 * sz ** 2 / n, rel=1e-9)
            prev = v


class TestUnconditionalMeanCov:
    def test_zero_mean_identity_sigma(self):
        p = MixtureParams(n=3, beta0=0.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        mean, cov = unconditional_mean_cov(np.zeros(3), np.eye(3), p)
        assert np.allclose(mean, 0.0)
        assert np.allclose(cov, 2.0 * np.eye(3) + np.ones((3, 3)))

    def test_iid_case_homoscedastic(self):
        p = MixtureParams(n=4, beta0=1.0, sigma0=0.5, mu_z=2.0, sigma_z=1.5,
                          beta1=1.0, sigma1=1.0)
        mu = np.full(4, 2.0)
        mean, cov = unconditional_mean_cov(mu, 1.5 ** 2 * np.eye(4), p)
        expect = p.kappa2 * 1.5 ** 2 + 0.25 + 1.0 * 4.0
        assert np.allclose(np.diag(cov), expect)
        assert np.allclose(mean, 1.0 + 2.0)

    def test_heterogeneous_means_heteroscedastic(self):
        p = MixtureParams(n=2, beta0=1.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        mu = np.array([1.0, 2.0])
        _, cov = unconditional_mean_cov(mu, np.eye(2), p)
        assert np.allclose(np.diag(cov), [4.0, 7.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ParamError):
            unconditional_mean_cov(np.zeros(3), np.eye(2), UNIT)

    def test_asymmetric_sigma_rejected(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ParamError):
            unconditional_mean_cov(np.zeros(2), bad, UNIT)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_structure_minus_diag_term_is_low_rank(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        sigma = a @ a.T
        mu = rng.normal(size=n)
        p = MixtureParams(n=max(n, 2), beta0=0.3, sigma0=0.7, mu_z=0.0,
                          sigma_z=1.0, beta1=1.2, sigma1=0.9)
        _, cov = unconditional_mean_cov(mu, sigma, p)
        rest = cov - p.kappa2 * sigma
        assert np.linalg.matrix_rank(rest, tol=1e-8) <= 2

    def test_covariance_structure_assemble(self):
        cs = covariance_structure(UNIT)
        sigma = np.diag([1.0, 2.0, 3.0])
        mu = np.array([0.5, -1.0, 2.0])
        out = cs.assemble(sigma, mu)
        expect = 2.0 * sigma + np.ones((3, 3)) + np.outer(mu, mu)
        assert np.allclose(out, expect)


class TestCorrelationParams:
    def test_no_intercept_error_no_shared_term(self):
        p = MixtureParams(n=5, beta0=0.0, sigma0=0.0, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        cond, uncond = correlation_params(p, beta1_hat=1.3)
        assert cond == 0.0
        assert uncond == 0.0

    def test_unit_unconditional_third(self):
        p = MixtureParams(n=5, beta0=1.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        cond, uncond = correlation_params(p)
        assert cond is None
        assert uncond == pytest.approx(1.0 / 3.0)

    def test_conditional_half(self):
        p = MixtureParams(n=5, beta0=1.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                          beta1=2.0, sigma1=1.0)
        cond, _ = correlation_params(p, beta1_hat=1.0)
        assert cond == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 2.0), st.floats(0.1, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.1, 2.0), st.floats(-2.0, 2.0))
    def test_rho_in_unit_interval(self, s0, s1, mz, sz, b1):
        p = MixtureParams(n=4, beta0=0.0, sigma0=s0, mu_z=mz, sigma_z=sz,
                          beta1=b1, sigma1=s1)
        _, uncond = correlation_params(p)
        assert 0.0 <= uncond < 1.0


def test_expected_sample_variance_identity():
    # E(S^2) + |bias| reconstructs Var(Y) exactly
    from calibmix import expected_sample_variance
    for p in (UNIT,
              MixtureParams(n=7, beta0=2.0, sigma0=0.3, mu_z=-1.5, sigma_z=2.0,
                            beta1=0.7, sigma1=1.1)):
        e, bias = expected_sample_variance(p)
        assert e + abs(bias) == pytest.approx(p.var_y, rel=1e-12)
        assert bias == pytest.approx(-(p.sigma0 ** 2 + p.sigma1 ** 2 * p.mu_z ** 2),
                                     rel=1e-12)
