"""Closed forms and series kernels backing the mixture laws.

The chi-squared(1) mixing law has closed forms: sqrt(W) for W ~
chi2_1(lambda0^2) has the shifted half-normal density phi(s - lambda0) +
phi(s + lambda0), and the density of W itself follows by the change of
variables.  The noncentral t^2 density/CDF kernel (a Poisson mixture of
scaled beta-prime terms) and the noncentral t density kernel are explicit
series with computable tail bounds; the mixture evaluators start them at
fixed minimum term counts and escalate until the bound drops below the
requested absolute tolerance.  Terms are assembled from log-gamma
throughout, so large degrees of freedom and large series indices never
overflow.  scipy.special supplies only the scalar primitives (gammaln,
betainc, gammainc, ndtr/ndtri); log_beta keeps log B(a, b) accurate at the
large indices where gammaln differences cancel.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import AccuracyError

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def nc_chisq1_pdf(w, lam):
    """Density of the noncentral chi-squared law with 1 degree of freedom,
    in closed form: sqrt_ncchisq1_pdf(sqrt(w), sqrt(lam)) / (2 sqrt(w)).
    Nonpositive arguments return 0 by convention."""
    if lam < 0:
        raise ValueError("noncentrality must be nonnegative")
    w = np.asarray(w, dtype=float)
    root = np.sqrt(np.maximum(w, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(w > 0, sqrt_ncchisq1_pdf(root, np.sqrt(lam)) / (2.0 * root),
                       0.0)
    return float(out) if out.ndim == 0 else out


def sqrt_ncchisq1_pdf(s, lambda0):
    """Density of sqrt(W) for W ~ chi2_1(lambda0^2): the shifted half-normal
    [phi(s - lambda0) + phi(s + lambda0)], supported on s >= 0."""
    s = np.asarray(s, dtype=float)
    c = 1.0 / np.sqrt(2.0 * np.pi)
    val = c * (np.exp(-0.5 * (s - lambda0) ** 2) + np.exp(-0.5 * (s + lambda0) ** 2))
    return np.where(s < 0, 0.0, val)


def sqrt_mixing_upper(lambda0: float, eps: float = 1e-12) -> float:
    """Upper integration limit for the sqrt-chi2 mixing variable: the
    (1 - eps) quantile of |N(lambda0, 1)| is below lambda0 + z(eps/2)."""
    return lambda0 + float(sp.ndtri(1.0 - 0.5 * eps))


def _stirling_remainder(z):
    """lgamma(z) - [(z - 1/2) log z - z + log(2 pi)/2] for z > 0: Stirling's
    series from z = 10 (next term below 1e-15 there), gammaln below."""
    z = np.asarray(z, dtype=float)
    big = z >= 10.0
    zb = np.where(big, z, 10.0)
    r = 1.0 / (zb * zb)
    series = (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (
        1.0 / 1680.0 - r * (1.0 / 1188.0 - r * 691.0 / 360360.0))))) / zb
    zs = np.where(big, 10.0, z)
    direct = sp.gammaln(zs) - ((zs - 0.5) * np.log(zs) - zs + _HALF_LOG_2PI)
    return np.where(big, series, direct)


def log_beta(a, b):
    """log B(a, b) for a, b > 0 (broadcasting), from Stirling's form
    log(2 pi)/2 - log(a+b)/2 - (a-1/2) log1p(b/a) - (b-1/2) log1p(a/b) plus
    the three remainders.  Its terms stay of order b log(a/b), where
    gammaln(a) + gammaln(b) - gammaln(a+b) cancels terms of order a log a:
    scipy's betaln is off by up to 3e-10 at a ~ 1e5, b <= 100, this form
    by 2e-13."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (_HALF_LOG_2PI - 0.5 * np.log(a + b) - (a - 0.5) * np.log1p(b / a)
            - (b - 0.5) * np.log1p(a / b) + _stirling_remainder(a)
            + _stirling_remainder(b) - _stirling_remainder(a + b))


# ----------------------------------------------------------------------
# noncentral t^2 kernel: f(u; nu, phi) = sum_j pois(j; phi/2) f_j(u; nu)
# with f_j(u) = (1/nu) (u/nu)^{j-1/2} / [B(j+1/2, nu/2) (1+u/nu)^{j+(nu+1)/2}]
# ----------------------------------------------------------------------

def tsq_log_fj(j, u, nu):
    """log f_j(u) for the central component of index j; j and u broadcast
    (pass j[:, None] against u (K,) for a (B, K) table)."""
    j = np.asarray(j, dtype=float)
    t = np.asarray(u, dtype=float) / nu
    log_betainv = (sp.gammaln(j + 0.5 + nu / 2.0) - sp.gammaln(j + 0.5)
                   - sp.gammaln(nu / 2.0))
    return (-np.log(nu) + (j - 0.5) * np.log(t)
            - (j + 0.5 * (nu + 1.0)) * np.log1p(t) + log_betainv)


def tsq_fj_mode(u, nu):
    """Index past which f_j(u) is decreasing in j."""
    u = np.asarray(u, dtype=float)
    x = (u / nu) / (1.0 + u / nu)
    return np.maximum(0.0, (x * (nu + 1.0) / 2.0 - 0.5) / (1.0 - x))


def tsq_fj_tail_bound(j_next, u, nu):
    """Upper bound on sum_{j >= j_next} f_j(u), valid for j_next past the mode."""
    u = np.asarray(u, dtype=float)
    x = (u / nu) / (1.0 + u / nu)
    r = x * (j_next + 0.5 + nu / 2.0) / (j_next + 0.5)
    f_next = np.exp(tsq_log_fj(j_next, u, nu))
    bound = np.where(r < 1.0, f_next / np.maximum(1.0 - r, 1e-300), np.inf)
    return np.where(j_next > tsq_fj_mode(u, nu), bound, np.inf)


def poisson_log_pmf(j, mean):
    """log Poisson pmf; j (B,), mean (M,) -> (B, M). mean may be 0 or huge."""
    j = np.asarray(j, dtype=float)[:, None]
    mean = np.asarray(mean, dtype=float)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = -mean + j * np.log(mean) - sp.gammaln(j + 1.0)
    return np.where(mean == 0.0, np.where(j == 0.0, 0.0, -np.inf), lp)


def ncf_cdf(x, d1, d2, nc, *, tol: float = 1e-10):
    """CDF of the noncentral F(d1, d2, nc) law at x (vectorized in x).

    Poisson-weighted incomplete-beta series over a window around the Poisson
    bulk; the omitted Poisson mass bounds the truncation error.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    if nc < 0:
        raise ValueError("noncentrality must be nonnegative")
    z = d1 * x / (d1 * x + d2)
    z = np.clip(z, 0.0, 1.0)
    if nc == 0.0:
        out = sp.betainc(d1 / 2.0, d2 / 2.0, z)
        return float(out[0]) if scalar else out
    m = nc / 2.0
    half_width = 10.0 * np.sqrt(m) + 25.0
    j_lo = max(0, int(np.floor(m - half_width)))
    j_hi = int(np.ceil(m + half_width))
    j = np.arange(j_lo, j_hi + 1)
    logw = -m + j * np.log(m) - sp.gammaln(j + 1.0)
    w = np.exp(logw)
    omitted = 1.0 - w.sum()
    if omitted > tol:
        raise AccuracyError("noncentral F series window missed %.3g Poisson mass"
                            % omitted)
    out = np.zeros_like(x)
    mask = z > 0
    if np.any(mask):
        ib = sp.betainc(d1 / 2.0 + j[:, None], d2 / 2.0, z[None, mask])
        out[mask] = w @ ib
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# noncentral t density kernel (signed form):
# f(u; nu, phi) = e^{-phi^2/2} A(u) sum_j [Gamma((nu+j+1)/2)/(j! Gamma((nu+1)/2))] q^j
# with q = sqrt(2) u phi / sqrt(nu + u^2).
# ----------------------------------------------------------------------

def nct_log_prefactor(u, nu):
    """log A(u): the central-t shaped prefactor of the signed series."""
    u = np.asarray(u, dtype=float)
    return (sp.gammaln((nu + 1.0) / 2.0) - sp.gammaln(nu / 2.0)
            - 0.5 * np.log(np.pi * nu)
            + 0.5 * (nu + 1.0) * (np.log(nu) - np.log(nu + u * u)))


def nct_log_cj(j, nu):
    """log of the series coefficient Gamma((nu+j+1)/2) / (j! Gamma((nu+1)/2))."""
    j = np.asarray(j, dtype=float)
    return (sp.gammaln((nu + j + 1.0) / 2.0) - sp.gammaln((nu + 1.0) / 2.0)
            - sp.gammaln(j + 1.0))
