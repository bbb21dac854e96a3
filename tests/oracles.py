"""Independent oracles for the four mixture laws of calibmix: the calibrated
mean, the scaled variance, t0^2 and the signed t0.

Each law's oracle is written here once, for the tests and for scripts that
measure the laws' accuracy.  The module imports only math, numpy and
scipy, never calibmix, and takes its Gauss-Legendre panels from numpy's
``leggauss``, so an oracle cannot share a fault with the law it checks.
Inside the integrands the normal, chi, chi-squared and Poisson laws are
closed forms and the gamma and noncentral-F CDFs scipy.special functions;
only the noncentral t and F densities come from scipy.stats, which alone
has them.

The tests import it as ``from oracles import ...`` (pytest puts this
directory on sys.path); a script puts the directory on sys.path itself.
"""
import math

import numpy as np
from scipy import integrate, special, stats

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_R16 = np.polynomial.legendre.leggauss(16)


def normal_pdf(x, mean=0.0, sd=1.0):
    """The N(mean, sd^2) density."""
    z = (x - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)


def gauss_panels(edges):
    """Nodes and weights of the 16-point Gauss-Legendre rule on each panel
    between consecutive edges."""
    x, w = _R16
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()


def log_s_quad(f, lam0):
    """int f(s) [phi(s - lam0) + phi(s + lam0)] ds over s in [1e-14, lam0 + 9]
    (s = sqrt(W), W ~ chi2_1(lam0^2)), by adaptive quadrature in log s with
    breakpoints across the mixing density's bump (``_bump_points``).  A NaN
    from f counts as 0: scipy's noncentral laws give NaN at noncentralities
    near 1e20 and beyond, where the conditional kernels have underflowed."""
    def integrand(ls):
        s = math.exp(ls)
        return np.nan_to_num(f(s)) * (normal_pdf(s - lam0)
                                      + normal_pdf(s + lam0)) * s
    lo, hi = math.log(1e-14), math.log(lam0 + 9.0)
    return integrate.quad(integrand, lo, hi, points=_bump_points(lam0, 1e-14),
                          limit=4000, epsabs=0.0, epsrel=1e-12)[0]


def _bump_points(lam0, lo, *more):
    """log of lam0 - 9, lam0 - 3, lam0, lam0 + 3 and ``more``, those above
    ``lo``: in log s the bump of phi(s - lam0) narrows like 1/lam0, and
    from lam0 ~ 200 quad, given only log lam0, missed half of it."""
    return [math.log(p) for p in (lam0 - 9.0, lam0 - 3.0, lam0, lam0 + 3.0,
                                  *more) if lo < p < lam0 + 9.0]


# ----------------------------------------------------------------------
# mean law
# ----------------------------------------------------------------------

def _over_sds(g, mean, sd):
    """E[g(mean + sd z)], z ~ N(0, 1), by scipy's adaptive quadrature over
    z in [-12, 12], with a breakpoint where the argument crosses 0: in the
    factor's sds, a window narrow against |mean| stays resolved."""
    z0 = -mean / sd
    return integrate.quad(lambda z: g(mean + sd * z) * math.exp(-0.5 * z * z),
                          -12.0, 12.0, points=[z0] if abs(z0) < 12.0 else None,
                          epsabs=1e-13, epsrel=1e-13,
                          limit=200)[0] / _SQRT_2PI


def mean_cdf_over_t(p, u):
    """The mean-law CDF at u, E_T[Phi((u - beta0 - mu_z t) / sd(t))] with
    sd(t)^2 = t^2 sigma_z^2/n + sigma0^2, over the slope T ~ N(beta1,
    sigma1^2) in its sds (smooth in them at any sigma1/beta1)."""
    return _over_sds(lambda t: special.ndtr(
        (u - p.beta0 - p.mu_z * t)
        / math.sqrt(t * t * p.sigma_z ** 2 / p.n + p.sigma0 ** 2)),
        p.beta1, p.sigma1)


def mean_cdf_over_x(p, u):
    """The mean-law CDF at u, E_X[Phi((u - beta0 - beta1 x) / sd(x))] with
    sd(x)^2 = sigma1^2 x^2 + sigma0^2, over X ~ N(mu_z, sigma_z^2/n) in its
    sds (smooth in them at any sigma_z/mu_z)."""
    return _over_sds(lambda x: special.ndtr(
        (u - p.beta0 - p.beta1 * x)
        / math.sqrt(p.sigma1 ** 2 * x * x + p.sigma0 ** 2)),
        p.mu_z, p.sigma_z / math.sqrt(p.n))


def mean_cdf_oracle_sigma0_zero(p, u):
    """Mean-law CDF at sigma0 = 0, E_t[Phi((u - beta0 - t mu_z) /
    (|t| sigma_z / sqrt(n)))], by quadrature in log |t| on either side of
    t = 0, with a breakpoint where the components' transition sits."""
    c = abs(u - p.beta0)

    def side(sign):
        def f(lt):
            t = sign * math.exp(lt)
            z = (u - p.beta0 - t * p.mu_z) / (abs(t) * p.sigma_z / math.sqrt(p.n))
            return special.ndtr(z) * normal_pdf(t, p.beta1, p.sigma1) * abs(t)
        return integrate.quad(f, math.log(1e-16),
                              math.log(abs(p.beta1) + 12 * p.sigma1),
                              points=[math.log(c)], limit=4000,
                              epsabs=1e-15, epsrel=1e-13)[0]
    return side(-1.0) + side(1.0)


# ----------------------------------------------------------------------
# variance law
# ----------------------------------------------------------------------

def variance_cdf_oracle(nu, lam, u):
    """Variance-law CDF conditioned on the slope draw, E_s[P(V <= u/s^2)]
    with V ~ chi2_nu, by quadrature in log s (graded toward s = 0, where
    the mass near u = 0 sits)."""
    return log_s_quad(lambda s: special.gammainc(nu / 2.0, u / (2.0 * s * s)),
                      math.sqrt(lam))


def variance_cdf_over_v(nu, lam, u):
    """Variance-law CDF at u as E_V[Phi(sqrt(u/V) - lam0) - Phi(-sqrt(u/V)
    - lam0)], lam0 = sqrt(lam), V ~ chi2_nu, by scipy's adaptive quadrature
    over V's sds z in [-12, 12], V = nu (1 + e), e = z sqrt(2/nu): for large
    nu, where V is sharp and the slope draw smooth.  V's density, (nu/2 - 1)
    log1p(e) - nu e/2 in logs up to a constant, is z^2 sum_{k=2}^{12}
    (-1)^(k+1) e^(k-2)/k - log1p(e), since nu e^2/2 = z^2: no two terms of
    order z sqrt(nu) cancel (the next term of the sum is below 1e-20 of z^2
    at nu >= 1e7, where |e| <= 5.4e-3).  It is divided by its own
    quadrature, so no normalising constant is needed."""
    lam0, step = math.sqrt(lam), math.sqrt(2.0 / nu)
    coefs = [(-1.0) ** (k + 1) / k for k in range(12, 1, -1)]

    def quad(g):
        def f(z):
            e, s = z * step, 0.0
            for c in coefs:
                s = s * e + c
            return math.exp(z * z * s - math.log1p(e)) * g(nu * (1.0 + e))
        return integrate.quad(f, -12.0, 12.0, epsabs=1e-14, epsrel=1e-13,
                              limit=400, points=[-4.0, 0.0, 4.0])[0]
    r = lambda v: math.sqrt(u / v)
    return (quad(lambda v: special.ndtr(r(v) - lam0) - special.ndtr(-r(v) - lam0))
            / quad(lambda v: 1.0))


def variance_pdf_oracle(nu, lam, u):
    """Density of u = W V, W ~ chi2_1(lam), V ~ chi2_nu, from the Poisson-
    mixed Bessel-K product-density series (Wells, Anderson & Cell 1962):
    sum_j pois(j; lam/2) (u/4)^((a+b)/2 - 1) K_(a-b)(sqrt u)
    / (2 Gamma(a) Gamma(b)), a = j + 1/2, b = nu/2.  Sixty terms leave
    less than 1e-30 of Poisson mass at lam <= 10.1."""
    j = np.arange(61.0)
    a, b = j + 0.5, nu / 2.0
    log_pois = special.xlogy(j, lam / 2.0) - lam / 2.0 - special.gammaln(j + 1.0)
    log_terms = (log_pois + ((a + b) / 2.0 - 1.0) * np.log(u / 4.0)
                 + np.log(special.kve(a - b, np.sqrt(u))) - np.sqrt(u)
                 - special.gammaln(a) - special.gammaln(b))
    return 0.5 * float(np.sum(np.exp(log_terms)))


# ----------------------------------------------------------------------
# t^2 and signed-t laws
# ----------------------------------------------------------------------

def ncf_cdf_oracle(nu, delta, lam, u):
    """t^2-law CDF at u: scipy's noncentral-F CDF F(1, nu; delta/s^2) given
    the slope draw s, mixed over s by ``log_s_quad``."""
    return log_s_quad(lambda s: special.ncfdtr(1, nu, delta / s ** 2, u),
                      math.sqrt(lam))


def ncf_pdf_oracle(nu, delta, lam, u):
    """t^2-law density at u: scipy's noncentral-F density given s, mixed
    over s by ``log_s_quad``."""
    return log_s_quad(lambda s: stats.ncf.pdf(u, 1, nu, delta / s ** 2),
                      math.sqrt(lam))


def nct_pdf_large_nu(t, nu, phi):
    """Noncentral t pdf at large nu as E_W[W phi_N(t W - phi)], W =
    sqrt(chi2_nu / nu), on 16-point panels over W's mean +/- 12 sd (nu >=
    1000).  scipy's nct.pdf raises OverflowError there from about phi = 15.
    W's density, (nu - 1) log w - nu (w^2 - 1)/2 in logs up to a constant,
    is normalized on the rule, so that no term of order nu log nu cancels."""
    sd = math.sqrt(0.5 / nu)
    w, ww = gauss_panels(np.linspace(1.0 - 12.0 * sd, 1.0 + 12.0 * sd, 97))
    e = w - 1.0
    dens = ww * np.exp((nu - 1.0) * np.log1p(e) - 0.5 * nu * e * (w + 1.0))
    return float(normal_pdf(t * w - phi) @ (dens * w) / dens.sum())


def nct_pdf_oracle(nu, d0, lam0, u):
    """Signed-t-law density at u: the noncentral-t density t(nu, d0/s) given
    the slope draw s, mixed over s by ``log_s_quad`` (so with a breakpoint
    at lam0).  scipy's nct.pdf serves below nu = 1000, ``nct_pdf_large_nu``
    from there."""
    if nu < 1000:
        return log_s_quad(lambda s: stats.nct.pdf(u, nu, d0 / s), lam0)
    return log_s_quad(lambda s: nct_pdf_large_nu(u, nu, d0 / s), lam0)


def gaussian_root_pdf_oracle(nu, delta, lam, u):
    """t^2 mixture pdf from the Gaussian-root kernel on a 2-D (s, g) rule:
    y^{nu/2} e^{-y} / (u Gamma(nu/2)) with y = nu (g + phi)^2 / (2u),
    phi = sqrt(delta)/s; the g-panels break at the kink g = -phi."""
    lg = special.gammaln(nu / 2.0)

    def cond(s):
        phi = math.sqrt(delta) / s
        edges = np.linspace(-9.0, 9.0, 37)
        if -9.0 < -phi < 9.0:
            edges = np.unique(np.append(edges, -phi))
        g, gw = gauss_panels(edges)
        y = nu * (g + phi) ** 2 / (2.0 * u)
        with np.errstate(divide="ignore"):
            kern = np.exp(0.5 * nu * np.log(y) - y - lg) / u
        return (gw * normal_pdf(g)) @ kern
    return log_s_quad(cond, math.sqrt(lam))


def noncentral_t_oracle(kind, nu, d, lam0, t):
    """The t^2 (kind "tsq", at u = t) or signed-t CDF at t, as an E_W
    quadrature of the closed form given s, mixed over s with density
    phi(s - lam0) + phi(s + lam0) by scipy's adaptive quad in log s, with
    breakpoints across its bump (``_bump_points``) and at d/20.  Given s,
    with phi = d/s and r = sqrt(W) ~ chi_nu, the t^2 CDF is
    E[Phi(sqrt(t/nu) r - phi) - Phi(-sqrt(t/nu) r - phi)] and the signed-t
    CDF E[Phi(t r/sqrt(nu) - phi)]; each takes 16-point Gauss-Legendre
    panels in r that resolve both the chi density and the step at
    r = phi/c, c the slope of r."""
    r_lo = math.sqrt(2.0 * special.gammaincinv(0.5 * nu, 1e-16))
    r_hi = math.sqrt(2.0 * special.gammainccinv(0.5 * nu, 1e-16))
    log_norm = (0.5 * nu - 1.0) * math.log(2.0) + special.gammaln(0.5 * nu)
    base = np.linspace(r_lo, r_hi, 9)
    c = (math.sqrt(t) if kind == "tsq" else t) / math.sqrt(nu)

    def given_log_s(x):
        s = math.exp(x)
        phi = d / s
        edges = base
        if c > 0.0:
            lo, hi = max(r_lo, (phi - 10.0) / c), min(r_hi, (phi + 10.0) / c)
            if lo < hi:
                edges = np.union1d(base, np.linspace(lo, hi, 5))
        r, wr = gauss_panels(edges)
        wr = wr * np.exp((nu - 1.0) * np.log(r) - 0.5 * r * r - log_norm)
        f = special.ndtr(c * r - phi)
        if kind == "tsq":
            f -= special.ndtr(-c * r - phi)
        dens = math.exp(-0.5 * (s - lam0) ** 2) + math.exp(-0.5 * (s + lam0) ** 2)
        return (wr @ f) * s * dens / _SQRT_2PI
    lo, hi = math.log(1e-13), math.log(lam0 + 9.0)
    points = _bump_points(lam0, 1e-13, d / 20.0)
    return integrate.quad(given_log_s, lo, hi, points=points, epsabs=1e-11,
                          epsrel=0.0, limit=200)[0]


def accurate_betainc(p, q, x):
    """I_x(p, q), through 1 - I_{1-x}(q, p) above x = 1/2: scipy's
    betainc(1/2, 1/2, x) loses up to 3e-9 within 1e-15 of x = 1."""
    with np.errstate(invalid="ignore"):
        return np.where(x > 0.5, 1.0 - special.betainc(q, p, 1.0 - x),
                        special.betainc(p, q, x))
