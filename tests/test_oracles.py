"""The law oracles of oracles.py against closed forms, where their laws
reduce to textbook laws, and against each other."""
import ast
import math
import pathlib
import types

import pytest
from scipy import integrate, special, stats

from oracles import (log_s_quad, mean_cdf_over_t, mean_cdf_over_x,
                     noncentral_t_oracle, variance_cdf_oracle,
                     variance_pdf_oracle)


@pytest.mark.parametrize("t", [-3.0, 0.5, 2.0, 6.0])
def test_signed_t_at_zero_noncentrality_is_student_t(t):
    # at D = 0 the slope draw cancels, for every lambda0
    assert noncentral_t_oracle("signed", 10, 0.0, 1.0, t) == pytest.approx(
        stats.t.cdf(t, 10), abs=1e-12)


@pytest.mark.parametrize("u", [0.3, 4.96, 40.0])
def test_tsq_at_zero_noncentrality_is_central_f(u):
    assert noncentral_t_oracle("tsq", 10, 0.0, 1.0, u) == pytest.approx(
        stats.f.cdf(u, 1, 10), abs=1e-12)


@pytest.mark.parametrize("lam0", [0.0, 1.0, 100.0, 200.0, 1e3, 1e4, 1e6])
def test_slope_quadrature_holds_the_mass(lam0):
    # with a breakpoint at lam0 alone, quad missed half the bump from
    # lam0 = 200 up
    assert log_s_quad(lambda s: 1.0, lam0) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("lam0", [200.0, 1e3, 1e4])
def test_zero_noncentrality_at_large_lam0(lam0):
    # 0.46 and 0.47 off Student t(10) and F(1, 10) from lam0 = 200 up
    for t in (-3.0, 0.5, 2.0, 6.0):
        assert noncentral_t_oracle("signed", 10, 0.0, lam0, t) == pytest.approx(
            stats.t.cdf(t, 10), abs=1e-11)
    for u in (0.3, 4.96, 40.0):
        assert noncentral_t_oracle("tsq", 10, 0.0, lam0, u) == pytest.approx(
            stats.f.cdf(u, 1, 10), abs=1e-11)


@pytest.mark.parametrize("oracle", [mean_cdf_over_t, mean_cdf_over_x])
def test_mean_law_at_a_point_mass_x_is_gaussian(oracle):
    # sigma_z -> 0 fixes X at mu_z, so beta0 + T mu_z + sigma0 E is
    # N(beta0 + beta1 mu_z, sigma0^2 + mu_z^2 sigma1^2)
    p = types.SimpleNamespace(n=4, beta0=1.0, sigma0=0.5, mu_z=2.0,
                              sigma_z=1e-9, beta1=1.5, sigma1=0.3)
    mean = p.beta0 + p.beta1 * p.mu_z
    sd = math.hypot(p.sigma0, p.mu_z * p.sigma1)
    for z in (-3.0, -0.7, 0.0, 1.2, 2.5):
        assert oracle(p, mean + z * sd) == pytest.approx(special.ndtr(z),
                                                         abs=1e-13)


def test_variance_pdf_integrates_to_the_cdf():
    nu, lam, lo, hi = 5, 4.0, 0.1, 0.4
    integral = integrate.quad(lambda u: variance_pdf_oracle(nu, lam, u), lo,
                              hi, epsabs=1e-15, epsrel=1e-13)[0]
    diff = variance_cdf_oracle(nu, lam, hi) - variance_cdf_oracle(nu, lam, lo)
    assert integral == pytest.approx(diff, abs=1e-12)


def test_oracles_import_no_calibmix():
    # only math, numpy and scipy, so that no oracle shares code with a law
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0
            roots.add(node.module.split(".")[0])
    assert roots == {"math", "numpy", "scipy"}
