"""Closed forms and series kernels backing the mixture laws.

The chi-squared(1) mixing law has closed forms: sqrt(W) for W ~
chi2_1(lambda0^2) has the shifted half-normal density phi(s - lambda0) +
phi(s + lambda0), and the density of W itself follows by the change of
variables.  scipy.special supplies the scalar primitives (gammaln, betainc,
gammainc, ndtr/ndtri) and, whole, the noncentral F CDF (ncfdtr).  log_beta
keeps log B(a, b) accurate at the large indices where gammaln differences
cancel: the noncentral-t series of the mixture evaluators take their terms,
CDF and pdf alike, from it in logs, so large degrees of freedom and large
series indices never overflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import ParamError

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def nc_chisq1_pdf(w, lam, overwrite_w=False):
    """Density of the noncentral chi-squared law with 1 degree of freedom,
    in closed form: sqrt_ncchisq1_pdf(sqrt(w), sqrt(lam)) / (2 sqrt(w)).
    Nonpositive arguments return 0 by convention.  The result is built in
    place: an array argument costs three arrays of its size, or two when
    ``overwrite_w`` lets sqrt(w) replace w (a float array)."""
    if lam < 0:
        raise ParamError("noncentrality must be nonnegative")
    w = np.asarray(w, dtype=float)
    nonpositive = ~(w > 0)
    root = np.maximum(w, 0.0, out=w if overwrite_w else np.empty_like(w))
    np.sqrt(root, out=root)
    out = sqrt_ncchisq1_pdf(root, math.sqrt(lam))
    root *= 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= root
    out[nonpositive] = 0.0
    return float(out) if out.ndim == 0 else out


def sqrt_ncchisq1_pdf(s, lambda0):
    """Density of sqrt(W) for W ~ chi2_1(lambda0^2): the shifted half-normal
    [phi(s - lambda0) + phi(s + lambda0)], supported on s >= 0 (lambda0 a
    scalar).  Like nc_chisq1_pdf, it builds its result in place."""
    s = np.asarray(s, dtype=float)
    out = np.subtract(s, lambda0, out=np.empty_like(s))
    far = np.add(s, lambda0, out=np.empty_like(s))
    for z in (out, far):
        z *= z
        z *= -0.5
        np.exp(z, out=z)
    out += far
    out *= 1.0 / math.sqrt(2.0 * math.pi)
    out[s < 0] = 0.0
    return out


def sqrt_mixing_upper(lambda0: float, eps: float) -> float:
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


def ncf_cdf(x, d1, d2, nc):
    """CDF of the noncentral F(d1, d2, nc) law at x (vectorized in x; a
    scalar x gives a float), from scipy.special.ncfdtr; 0 for x <= 0."""
    if nc < 0:
        raise ParamError("noncentrality must be nonnegative")
    out = sp.ncfdtr(d1, d2, nc, np.maximum(x, 0.0))
    return float(out) if np.ndim(out) == 0 else out
