import numpy as np
import pytest

from calibmix import (AccuracyError, MixtureParams, MomentSummary, ProbRegion,
                      expected_sample_variance, interval_coverage,
                      mean_moment_rows, mean_moments, probability_region,
                      variance_mixture, mean_mixture)
from calibmix.casestudy import octane_params
from calibmix.mixtures import _SLOPE_SIGMAS
from calibmix.moments import moment_rows_header
from calibmix.quadrature import QuadSpec, refine_panels


def gaussian_raw_moments(m, v):
    """E X, E X^2, E X^3, E X^4 for X ~ N(m, v)."""
    return (m,
            m ** 2 + v,
            m ** 3 + 3 * m * v,
            m ** 4 + 6 * m ** 2 * v + 3 * v ** 2)


def closed_form_moment_oracle(p: MixtureParams):
    """Independent closed-form central moments of Ybar through order 4.

    Ybar - mu_y = A + D with A ~ N(0, sigma0^2) independent of
    D = B W - beta1 mu_z, where B ~ N(beta1, sigma1^2) and
    W ~ N(mu_z, sigma_z^2/n); products of independent Gaussians give every
    moment of D, and independence assembles the sum's moments.
    """
    b1, b2, b3, b4 = gaussian_raw_moments(p.beta1, p.sigma1 ** 2)
    w1, w2, w3, w4 = gaussian_raw_moments(p.mu_z, p.sigma_z ** 2 / p.n)
    c = p.beta1 * p.mu_z
    d2 = b2 * w2 - c ** 2
    d3 = b3 * w3 - 3 * c * b2 * w2 + 2 * c ** 3
    d4 = b4 * w4 - 4 * c * b3 * w3 + 6 * c ** 2 * b2 * w2 - 3 * c ** 4
    s0sq = p.sigma0 ** 2
    m2 = s0sq + d2
    m3 = d3
    m4 = 3 * s0sq ** 2 + 6 * s0sq * d2 + d4
    return {"mean": p.mu_y, "variance": m2, "skewness": m3 / m2 ** 1.5,
            "kurtosis": m4 / m2 ** 2}


def quadrature_moments(p: MixtureParams, quad: QuadSpec = QuadSpec()):
    """Central moments 2-4 of Ybar as gamma/kappa by panel quadrature of the
    mean-mixture density (a route independent of both closed forms)."""
    mm = mean_mixture(p, quad)
    k = _SLOPE_SIGMAS
    ts = (p.beta1 - k * p.sigma1, 0.0, p.beta1 + k * p.sigma1)
    sd = lambda t: (t * t * p.sigma_z ** 2 / p.n + p.sigma0 ** 2) ** 0.5
    lo = min(p.beta0 + t * p.mu_z - 9.5 * sd(t) for t in ts)
    hi = max(p.beta0 + t * p.mu_z + 9.5 * sd(t) for t in ts)

    def integrand(x):
        return mm.pdf(x)[:, None] * (x - p.mu_y)[:, None] ** np.arange(5)

    rule = refine_panels(integrand, lo, hi, quad,
                         split_at=tuple(np.linspace(lo, hi, 33)[1:-1]))
    _, m1, m2, m3, m4 = rule.weights @ integrand(rule.nodes)
    return {"variance": m2, "skewness": m3 / m2 ** 1.5,
            "kurtosis": m4 / m2 ** 2}


UNIT = MixtureParams(n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                     beta1=1.0, sigma1=1.0)


class TestMeanMoments:
    def test_unit_row_golden(self):
        s = mean_moments(UNIT)
        assert s.mean == pytest.approx(2.0000, abs=1e-6)
        assert s.variance == pytest.approx(2.2000, abs=1e-9)
        assert s.skewness == pytest.approx(0.1839, abs=1e-4)
        assert s.kurtosis == pytest.approx(3.2851, abs=1e-4)

    def test_wide_row_golden(self):
        p = MixtureParams(n=20, beta0=1.0, sigma0=2.0, mu_z=1.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        s = mean_moments(p)
        assert s.variance == pytest.approx(5.100, abs=1e-6)
        assert s.skewness == pytest.approx(0.0260, abs=1e-4)
        assert s.kurtosis == pytest.approx(3.0248, abs=1e-4)

    def test_zero_mu_z_symmetric(self):
        p = octane_params()
        s = mean_moments(p)
        assert s.skewness == pytest.approx(0.0, abs=1e-9)
        assert s.kurtosis == pytest.approx(3.855, abs=1e-3)

    @pytest.mark.parametrize("args", [
        (10, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        (20, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0),
        (20, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0),
        (20, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0),
        (10, 1.0, 0.5, 1.0, 2.0, 1.0, 2.0),
        (13, 0.7, 0.3, -1.4, 0.8, -1.1, 0.6),
    ])
    def test_quadrature_matches_closed_form_oracle(self, args):
        p = MixtureParams(n=args[0], beta0=args[1], sigma0=args[2],
                          mu_z=args[3], sigma_z=args[4], beta1=args[5],
                          sigma1=args[6])
        oracle = closed_form_moment_oracle(p)
        quad = quadrature_moments(p)
        s = mean_moments(p)
        assert s.mean == pytest.approx(oracle["mean"], abs=1e-9)
        for key in ("variance", "skewness", "kurtosis"):
            assert getattr(s, key) == pytest.approx(oracle[key], abs=1e-12)
            assert getattr(s, key) == pytest.approx(quad[key], abs=1e-7)

    def test_moment_summary_invariant(self):
        with pytest.raises(ValueError):
            MomentSummary(mean=0.0, variance=1.0, skewness=2.0, kurtosis=3.0)
        with pytest.raises(ValueError):
            MomentSummary(mean=0.0, variance=0.0, skewness=0.0, kurtosis=3.0)


class TestExpectedSampleVariance:
    def test_unit(self):
        e, bias = expected_sample_variance(UNIT)
        assert e == pytest.approx(2.0)
        assert bias == pytest.approx(-2.0)

    def test_octane(self):
        e, bias = expected_sample_variance(octane_params())
        assert e == pytest.approx(3.780, abs=1e-3)

    def test_ideal_mode_unbiased(self):
        p = MixtureParams(n=10, beta0=1.0, sigma0=0.0, mu_z=2.0, sigma_z=1.5,
                          beta1=3.0, sigma1=0.0, ideal=True)
        e, bias = expected_sample_variance(p)
        assert e == pytest.approx(9.0 * 1.5 ** 2)
        assert bias == 0.0


class TestProbabilityRegion:
    def test_mean_octane_95(self):
        region = probability_region(mean_mixture(octane_params()), 0.95)
        assert region.lower == pytest.approx(86.037, abs=5e-3)
        assert region.upper == pytest.approx(88.526, abs=5e-3)
        assert region.achieved == pytest.approx(0.95, abs=1e-7)

    def test_variance_octane_95(self):
        lam = (1.8546 / 0.5837) ** 2
        region = probability_region(variance_mixture(10, lam), 0.95)
        assert region.lower == pytest.approx(10.8, rel=0.01)
        assert region.upper == pytest.approx(336.5, rel=0.01)
        s1sq = 0.5837 ** 2
        assert region.lower * s1sq / 10 == pytest.approx(0.368, abs=1e-3)
        assert region.upper * s1sq / 10 == pytest.approx(11.46, abs=0.02)

    def test_regions_widen_with_coverage(self):
        ev = variance_mixture(10, 4.0)
        r1 = probability_region(ev, 0.8)
        r2 = probability_region(ev, 0.95)
        r3 = probability_region(ev, 0.999)
        assert r3.lower < r2.lower < r1.lower
        assert r1.upper < r2.upper < r3.upper

    def test_bad_inputs(self):
        ev = variance_mixture(5, 1.0)
        with pytest.raises(ValueError):
            probability_region(ev, 1.5)
        with pytest.raises(ValueError):
            ProbRegion(lower=2.0, upper=1.0, coverage=0.9, achieved=0.9)


class TestIntervalCoverage:
    def test_goldens(self):
        mm = mean_mixture(octane_params())
        assert interval_coverage(mm, 86.184, 88.376) == pytest.approx(0.922, abs=5e-4)
        lam = (1.8546 / 0.5837) ** 2
        vm = variance_mixture(10, lam)
        s1sq = 0.5837 ** 2
        got = interval_coverage(vm, 10 * 1.1167 / s1sq, 10 * 7.0449 / s1sq)
        assert got == pytest.approx(0.74, abs=5e-3)

    def test_whole_support(self):
        vm = variance_mixture(8, 2.0)
        assert interval_coverage(vm, 0.0, vm.support()[1]) == pytest.approx(
            1.0, abs=1e-9)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            interval_coverage(variance_mixture(5, 1.0), 3.0, 1.0)


class TestMomentRows:
    def test_rows_shape_and_sigma0_independence(self):
        params = [
            MixtureParams(n=20, beta0=1.0, sigma0=0.5, mu_z=1.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0),
            MixtureParams(n=20, beta0=1.0, sigma0=2.0, mu_z=1.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0),
        ]
        rows = mean_moment_rows(params)
        assert [r["sigma0"] for r in rows] == [0.5, 2.0]
        assert set(moment_rows_header()) == set(rows[0])
        # doubling sigma0 never moves the mean
        assert rows[0]["E"] == rows[1]["E"] == pytest.approx(2.0)
        assert rows[0]["Var"] != rows[1]["Var"]

    def test_quadrature_failure_surfaces(self):
        # a rule that needs more panels than allowed is an explicit error,
        # not junk: the least valid abs_tol takes 8 panels here (14 when
        # the law mixed over t; it now mixes over X)
        import calibmix.quadrature as q
        tight = QuadSpec(abs_tol=q._ABS_TOL_FLOOR, rel_tol=1e-16)
        saved = q._MAX_PANELS
        try:
            q._MAX_PANELS = 4
            with pytest.raises(AccuracyError):
                mean_mixture(UNIT, tight)
        finally:
            q._MAX_PANELS = saved
