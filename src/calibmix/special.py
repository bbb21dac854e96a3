"""Series special functions backing the mixture laws.

The noncentral chi-squared(1) density, the noncentral t^2 density/CDF kernel
(a Poisson mixture of scaled beta-prime terms) and the noncentral t density
kernel are implemented as explicit series with computable tail bounds: fixed
minimum term counts are honored, then terms escalate until the bound drops
below the requested absolute tolerance.  Terms are assembled from log-gamma
throughout, so large degrees of freedom and large series indices never
overflow.  scipy.special supplies only the scalar primitives (gammaln,
betainc, gammainc, ndtr/ndtri).
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

from .errors import AccuracyError

_MAX_SERIES_TERMS = 200_000
_LOG_TINY = -745.0  # below this, exp() underflows double precision


def nc_chisq1_pdf(w, lam, *, abs_tol: float = 1e-12, min_terms: int = 30):
    """Density of the noncentral chi-squared law with 1 degree of freedom.

    Series form e^{-(lam+w)/2}/sqrt(2) * sum_k (lam/4)^k w^{k-1/2}/(k! Gamma(k+1/2)),
    truncated adaptively: terms are summed past ``min_terms`` until the
    geometric tail bound falls below ``abs_tol``.  Negative arguments return 0
    by convention.
    """
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.zeros_like(w)
    pos = w > 0
    if np.any(pos):
        out[pos] = _nc_chisq1_pdf_pos(w[pos], float(lam), abs_tol, min_terms)
    return float(out[0]) if scalar else out


def _nc_chisq1_pdf_pos(w, lam, abs_tol, min_terms):
    if lam < 0:
        raise ValueError("noncentrality must be nonnegative")
    base = -0.5 * (lam + w) - 0.5 * np.log(2.0)
    if lam == 0.0:
        return np.exp(base - 0.5 * np.log(w) - sp.gammaln(0.5))
    log_q = np.log(lam / 4.0)
    log_w = np.log(w)
    total = np.zeros_like(w)
    k = 0
    term = None
    while True:
        term = np.exp(base + k * log_q + (k - 0.5) * log_w
                      - sp.gammaln(k + 1.0) - sp.gammaln(k + 0.5))
        total += term
        if k + 1 >= min_terms:
            # term ratio (lam*w/4)/((k+1)(k+1/2)) is decreasing in k
            r = (lam * np.max(w) / 4.0) / ((k + 1.0) * (k + 0.5))
            if r < 0.5 and np.max(term) * r / (1.0 - r) < abs_tol:
                break
        k += 1
        if k > _MAX_SERIES_TERMS:
            raise AccuracyError(
                "noncentral chi2(1) series did not reach abs_tol=%g within "
                "%d terms" % (abs_tol, _MAX_SERIES_TERMS))
    return total


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
