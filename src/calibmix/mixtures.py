"""The four mixture laws of calibrated summary statistics.

* MeanMixture: law of the calibrated sample mean; a translation-scale mixture
  of N(beta0 + t mu_z, t^2 sigma_z^2/n + sigma0^2) over t ~ N(beta1, sigma1^2).
* VarianceMixture: law of u = nu S_Y^2/(sigma1^2 sigma_z^2); a scale mixture
  of gamma(nu/2, scale 2w) over w ~ chi2_1(lambda).
* TsqMixture: law of t0^2; noncentral t^2(nu, delta/w) mixed over
  w ~ chi2_1(lambda).
* SignedTMixture: law of t0; noncentral t(nu, delta0/s) mixed over
  s = sqrt(w) ~ |N(lambda0, 1)|.  With delta0 = sqrt(delta) and
  lambda0 = sqrt(lambda), t0^2 is its square, so both laws are built on one
  noncentral-t core and the t^2 law is the signed law's fold.

Every law is a weighted set of mixing nodes plus a conditional pdf/CDF kernel
pair.  The nodes come from cached Gauss-Legendre panels over analytically
bounded windows (the Gaussian mixing variable over beta1 +/- k sigma1, the
chi-squared one over [0, quantile(1 - 1e-12)], substituted w = s^2 so the
w^{-1/2} weight is smooth).  One helper builds the chi-squared nodes of the
variance, t^2 and signed-t laws, weighted by the closed-form density
phi(s - lambda0) + phi(s + lambda0) of s = sqrt(w).  CDFs mix the conditional
CDFs over the same nodes, which equals integrating the mixture pdf from the
support edge (Tonelli) but stays smooth where near-degenerate mixing
components make the pointwise pdf too spiky to quadrate.  The noncentral-t
core collapses the mixing into its series coefficients once per evaluator,
so each evaluation is a single series in j over the points.  Series kernels
start from one fixed minimum term count, then escalate until a computable
tail bound drops below abs_tol; exceeding the hard cap raises
AccuracyError, never truncating silently.

With delta > 0 the t^2 / signed-t laws have genuinely heavy far tails (slope
draws near zero inflate the conditional noncentrality, and
P[t0^2 > T] decays only like 1/sqrt(T)).  Slope draws with noncentralities
phi = D/s beyond the series budget are evaluated through one exact kernel
of the core, the Gaussian-root identity u = nu (g + phi)^2 / W, smooth at
any parameter point where the series would need j ~ phi^2 terms.  (s, g)
enter it only through v = g + D/s, so those draws collapse to one weighted
rule in v, built once per evaluator; each evaluation sums a band of v-nodes
per point.  The signed law reads that t^2 kernel at u^2: its
extreme draws put less than Phi(-20) of their mass below 0.  The
incomplete-beta CDF series run by recurrence from one betainc per point per
block of terms, and every law evaluates its points in fixed blocks, so
memory stays bounded whatever the grid size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import AccuracyError, ParamError, require_finite
from .model import MixtureParams
from .quadrature import QuadSpec, bisect_cdf, gauss_legendre_nodes, refine_panels
from . import special as ser

_Z_SUPPORT = 8.5       # Gaussian component half-width; Phi(-8.5) ~ 1e-17
_MAX_J_TERMS = 120_000
_MIN_TERMS = 20              # first block of every noncentral-t series
_NCT_SERIES_PHI_MAX = 20.0   # beyond this the Gaussian-root kernel takes over
# Points per evaluation block: node x point and term x point temporaries
# (up to 4096 series terms or a few thousand mixing nodes) stay near 16 MB
# whatever the grid size.
_POINT_BLOCK = 512


def _as_batch(u):
    u = np.asarray(u, dtype=float)
    return (u.ndim == 0), np.atleast_1d(u).astype(float)


def _blocked(f, u):
    """f over u in blocks of _POINT_BLOCK points."""
    out = np.empty_like(u)
    for i in range(0, u.size, _POINT_BLOCK):
        out[i:i + _POINT_BLOCK] = f(u[i:i + _POINT_BLOCK])
    return out


class _MixtureLaw:
    """What the four laws share: scalar/array wrapping, evaluation in blocks
    of points, CDF clipping, interval probabilities and CDF inversion.  Each
    law supplies ``_pdf`` and ``_cdf`` on 1-d float arrays and
    ``_bracket()``, the (lo, hi, expand) start of the bisection."""

    def pdf(self, u):
        scalar, u = _as_batch(u)
        out = _blocked(self._pdf, u)
        return float(out[0]) if scalar else out

    def cdf(self, u):
        scalar, u = _as_batch(u)
        out = np.clip(_blocked(self._cdf, u), 0.0, 1.0)
        return float(out[0]) if scalar else out

    def interval_prob(self, lo, hi):
        if hi < lo:
            raise ValueError("interval bounds out of order")
        return float(self.cdf(hi) - self.cdf(lo))

    def ppf(self, prob):
        if not 0.0 < prob < 1.0:
            raise ValueError("probability must be in (0, 1)")
        lo, hi, expand = self._bracket()
        return bisect_cdf(lambda x: float(self.cdf(x)), prob, lo, hi,
                          xtol=1e-8, expand=expand)


# ----------------------------------------------------------------------
# mean mixture
# ----------------------------------------------------------------------

def _gauss_kernel(u, mean, sd):
    """N(mean, sd^2) densities, shape (len(mean), len(u))."""
    z = (u[None, :] - mean[:, None]) / sd[:, None]
    return np.exp(-0.5 * z * z) / (sd[:, None] * math.sqrt(2.0 * math.pi))


class MeanMixture(_MixtureLaw):
    """Density/CDF evaluator of the calibrated sample mean (an exact
    translation-scale Gaussian mixture over the slope draw).

    With sigma0 = 0 and a mixing window containing t = 0, the conditional
    scale collapses at t = 0: the window is split there so nodes avoid the
    degenerate point.  The mixture pdf then carries an integrable spike at
    u = beta0 + t mu_z |_{t=0}; CDFs and moments remain finite.
    """

    def __init__(self, params: MixtureParams, quad: QuadSpec = QuadSpec()):
        if params.ideal:
            raise ParamError("ideal-mode parameters make the mean law degenerate")
        self.params = params
        self.quad = quad
        p = params
        k = quad.mixing_range_sigmas
        lo, hi = p.beta1 - k * p.sigma1, p.beta1 + k * p.sigma1
        sd_edge = lambda t: math.sqrt(t * t * p.sigma_z ** 2 / p.n + p.sigma0 ** 2)
        probe_lo = min(p.beta0 + t * p.mu_z - 3 * sd_edge(t) for t in (lo, 0.0, hi))
        probe_hi = max(p.beta0 + t * p.mu_z + 3 * sd_edge(t) for t in (lo, 0.0, hi))
        self._probe_u = np.linspace(probe_lo, probe_hi, 9)
        split = (0.0,) if lo < 0.0 < hi else ()
        rule = refine_panels(self._mixing_pdf, lo, hi, quad,
                             initial_panels=32, split_at=split,
                             probe=self._probe)
        self._t = rule.nodes
        self._w = rule.weights * self._mixing_pdf(self._t)
        self._cond_mean, self._cond_sd = self._conditional(self._t)

    def _mixing_pdf(self, t):
        p = self.params
        z = (np.asarray(t, dtype=float) - p.beta1) / p.sigma1
        return np.exp(-0.5 * z * z) / (p.sigma1 * math.sqrt(2.0 * math.pi))

    def _conditional(self, t):
        """Mean and standard deviation of the Gaussian component at slope t."""
        p = self.params
        sd = np.sqrt(t ** 2 * p.sigma_z ** 2 / p.n + p.sigma0 ** 2)
        return p.beta0 + t * p.mu_z, sd

    def _probe(self, rule):
        w = rule.weights * self._mixing_pdf(rule.nodes)
        return w @ _gauss_kernel(self._probe_u, *self._conditional(rule.nodes))

    def support(self):
        lo = float(np.min(self._cond_mean - _Z_SUPPORT * self._cond_sd))
        hi = float(np.max(self._cond_mean + _Z_SUPPORT * self._cond_sd))
        return lo, hi

    def _pdf(self, u):
        return self._w @ _gauss_kernel(u, self._cond_mean, self._cond_sd)

    def _cdf(self, u):
        z = (u[None, :] - self._cond_mean[:, None]) / self._cond_sd[:, None]
        return self._w @ sp.ndtr(z)

    def _bracket(self):
        return (*self.support(), "both")


def mean_mixture(p: MixtureParams, quad: QuadSpec = QuadSpec()) -> MeanMixture:
    """Evaluator of the unconditional law of the calibrated sample mean."""
    return MeanMixture(p, quad)


# ----------------------------------------------------------------------
# sqrt-chi2 mixing rule shared by the variance, t^2 and signed-t laws
# ----------------------------------------------------------------------

def _chi2_mixing_rule(lam0: float, s_split: float, quad: QuadSpec, probe=None):
    """Mixing nodes of s = sqrt(w), w ~ chi2_1(lam0^2), on [s_split, s_hi],
    weighted by the closed-form density phi(s - lam0) + phi(s + lam0).

    Returns (s, w) from a refined panel rule, which ``probe(nodes, weights)``
    may also steer.  The t^2 and signed-t laws cover (0, s_split] with an
    ``_ExtremeRule``.
    """
    def mixdens(s):
        return ser.sqrt_ncchisq1_pdf(s, lam0)

    rule = refine_panels(
        mixdens, s_split, ser.sqrt_mixing_upper(lam0), quad,
        initial_panels=32, split_at=(lam0,),
        probe=None if probe is None else
        lambda r: probe(r.nodes, r.weights * mixdens(r.nodes)))
    return rule.nodes, rule.weights * mixdens(rule.nodes)


class VarianceMixture(_MixtureLaw):
    """Evaluator of u = nu S_Y^2 / (sigma1^2 sigma_z^2): a gamma(nu/2, 2w)
    scale mixture over w ~ chi2_1(lambda).  Mean is nu (1 + lambda)."""

    def __init__(self, nu: int, lam: float, quad: QuadSpec = QuadSpec()):
        require_finite(nu=nu, lam=lam)
        if nu < 1:
            raise ParamError("nu must be >= 1")
        if lam < 0:
            raise ParamError("lambda must be nonnegative")
        self.nu = float(nu)
        self.lam = float(lam)
        self.quad = quad
        probe_u = np.linspace(0.5, max(4.0, 2.0 * self.nu * (1.0 + lam)), 9)
        self._s, self._w = _chi2_mixing_rule(
            math.sqrt(self.lam), 0.0, quad,
            lambda s, w: w @ self._kernel(s, probe_u))

    def _kernel(self, s, u):
        """gamma(nu/2, scale 2 s^2) densities, shape (len(s), len(u))."""
        nu = self.nu
        scale = 2.0 * np.asarray(s, dtype=float)[:, None] ** 2
        u = np.asarray(u, dtype=float)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = ((nu / 2.0 - 1.0) * np.log(u) - u / scale
                      - (nu / 2.0) * np.log(scale) - sp.gammaln(nu / 2.0))
        return np.where(u > 0, np.exp(logpdf), 0.0)

    def support(self):
        w_hi = float(np.max(self._s)) ** 2
        u_hi = 2.0 * w_hi * float(sp.gammaincinv(self.nu / 2.0, 1.0 - 1e-14))
        return 0.0, u_hi

    def _pdf(self, u):
        return self._w @ self._kernel(self._s, u)

    def _cdf(self, u):
        # conditional-CDF mixture: sum_s w_s P[gamma(nu/2, 2 s^2) <= u]
        pos = np.clip(u, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            arg = pos[None, :] / (2.0 * self._s[:, None] ** 2)
        out = self._w @ sp.gammainc(self.nu / 2.0, arg)
        return np.where(u <= 0, 0.0, out)

    def _bracket(self):
        return 0.0, self.nu * (1.0 + self.lam), "up"


def variance_mixture(nu: int, lam: float, quad: QuadSpec = QuadSpec()) -> VarianceMixture:
    """Evaluator of the scaled sample-variance mixture law."""
    return VarianceMixture(nu, lam, quad)


# ----------------------------------------------------------------------
# series and extreme-node kernels of the noncentral-t core
# ----------------------------------------------------------------------

_G_EDGES = np.linspace(-8.6, 8.6, 17)   # panels of the Gaussian root g
_G_ORDER = 10
_ROOT_SNAP = 1e-13   # Q within this of 1 (or of 0) counts as 1 (or 0)


# u = nu X / W with X = (g + phi)^2 = v^2, g ~ N(0,1), W ~ chi2_nu, so
#   F_cond(u) = E_g[ Q_nu( nu v^2 / (2u) ) ],  Q_nu = regularized upper gamma
#   f_cond(u) = E_g[ y^{nu/2} e^{-y} ] / (u Gamma(nu/2)),  y = nu v^2/(2u);
# the v-integrand is smooth at every (u, phi), unlike the W-form whose
# transition sharpens like sqrt(u).
def _gaussian_root_parts(u, nu, v2, h, want_pdf):
    """sum_k h_k K(u; v_k) at u > 0 over a rule (v_k^2 = v2 ascending,
    weights h), K the conditional t^2 pdf or CDF above.  Each u sums only
    the band of nodes whose y lies between the snap points of Q; the nodes
    below the band (Q within the snap of 1) add their weight whole to the
    CDF."""
    if h.size == 0:
        return np.zeros_like(u)
    y_lo = float(sp.gammainccinv(nu / 2.0, 1.0 - _ROOT_SNAP))
    y_hi = float(sp.gammainccinv(nu / 2.0, _ROOT_SNAP))
    a = np.searchsorted(v2, (2.0 * y_lo / nu) * u, side="left")
    b = np.searchsorted(v2, (2.0 * y_hi / nu) * u, side="right")
    k = a[:, None] + np.arange(int(np.max(b - a, initial=0)))
    in_band = k < b[:, None]
    k = np.minimum(k, h.size - 1)
    hk = np.where(in_band, h[k], 0.0)
    y = (0.5 * nu) * v2[k] / u[:, None]
    if want_pdf:
        lg = float(sp.gammaln(nu / 2.0))
        return np.sum(hk * np.exp(0.5 * nu * np.log(y) - y - lg), axis=1) / u
    below = np.concatenate([[0.0], np.cumsum(h)])
    return below[a] + np.sum(hk * sp.gammaincc(nu / 2.0, y), axis=1)


class _ExtremeRule:
    """The slope draws s in (s_lo, s_split] of the noncentral-t core, whose
    conditional noncentralities D/s exceed the series budget
    (D = |delta0| = sqrt(delta)).

    (s, g) enter the Gaussian-root kernel only through v = g + D/s, so by
    Fubini these draws add int h(v) K(u; v) dv, with h(v) = int p(tau)
    phi(v - tau) dtau the density of v over tau = D/s in [D/s_split,
    D/s_lo] and p(tau) = sqrt_ncchisq1_pdf(D/tau, lam0) D/tau^2.  The v-rule
    has linear shoulder panels on tau_lo +/- 8.6 and tau_hi +/- 8.6 and
    log-graded panels between: 6 per decade up to nu = 30, growing like
    sqrt(nu) beyond, because the conditional law's transition in log v
    narrows like 1/sqrt(nu).  h at its nodes comes from the g-rule clipped
    to the tau window.  s_lo steps down from s_split by whole decades until
    P[s < s_lo] <= 1e-3 tol, so the dropped far-tail mass stays below
    tol.  The rule is built on the first call that reaches its
    u-range: below it every node's conditional CDF is within the snap of 0.
    """

    def __init__(self, nu, root_d, lam0, s_split, tol):
        self.nu, self.root_d, self.lam0 = nu, root_d, lam0
        self.s_split = self.s_lo = s_split

        def mass_below(x):
            # the density of s is at most 2 phi(lam0 - s), so on [0, x] at
            # most 2 phi(max(lam0 - x, 0))
            return 2.0 * x * math.exp(-0.5 * max(lam0 - x, 0.0) ** 2) / math.sqrt(
                2.0 * math.pi)

        while self.s_lo > 0.0 and mass_below(self.s_lo) > 1e-3 * tol:
            self.s_lo /= 10.0
        self._reach = math.inf
        if self.s_lo < s_split:
            v_min = root_d / s_split + _G_EDGES[0]     # > 0: D/s_split >= 20
            self._reach = nu * v_min ** 2 / (
                2.0 * float(sp.gammainccinv(nu / 2.0, _ROOT_SNAP)))

    @functools.cached_property
    def _nodes(self):
        """(v^2 ascending, weights h) of the v-rule."""
        d, z = self.root_d, _G_EDGES[-1]
        t_lo, t_hi = d / self.s_split, d / self.s_lo
        middle = np.zeros(0)
        if t_hi - z > t_lo + z:
            per_decade = 6.0 * max(1.0, math.sqrt(self.nu / 30.0))
            n = math.ceil(per_decade * math.log10((t_hi - z) / (t_lo + z)))
            middle = np.geomspace(t_lo + z, t_hi - z, n + 1)[1:-1]
        edges = np.unique(np.concatenate([np.linspace(t_lo - z, t_lo + z, 5),
                                          middle,
                                          np.linspace(t_hi - z, t_hi + z, 5)]))
        v, wv = gauss_legendre_nodes(edges, 12)
        # h(v) = int phi(g) p(v - g) dg over g in [v - t_hi, v - t_lo], one
        # g-panel at a time
        x, wx = np.polynomial.legendre.leggauss(_G_ORDER)
        h = np.zeros_like(v)
        for lo, hi in zip(_G_EDGES[:-1], _G_EDGES[1:]):
            a = np.clip(lo, v - t_hi, v - t_lo)[:, None]
            half = 0.5 * (np.clip(hi, v - t_hi, v - t_lo)[:, None] - a)
            g = a + half * (1.0 + x)
            tau = v[:, None] - g
            h += np.sum(half * wx * np.exp(-0.5 * g * g)
                        * ser.sqrt_ncchisq1_pdf(d / tau, self.lam0) / tau ** 2,
                        axis=1)
        return v * v, wv * h * (d / math.sqrt(2.0 * math.pi))

    def parts(self, u, want_pdf):
        """The rule's share of the t^2 pdf or CDF at u > 0."""
        if np.max(u, initial=0.0) < self._reach:
            return np.zeros_like(u)
        return _gaussian_root_parts(u, self.nu, *self._nodes, want_pdf)


class _SeriesCoefs:
    """Mixed series coefficients c_j = sum_s w_s k_j(s) over the series
    nodes, extended on demand by ``block(j)`` and kept.  ``mass`` is
    sum_j c_j where it is known in closed form, so the mass not yet reached
    bounds what the rest of the series can add."""

    def __init__(self, block, mass=math.inf):
        self._block = block
        self.mass = float(mass)
        self._c = np.zeros(0)

    def upto(self, j_hi):
        if j_hi > self._c.size:
            new = self._block(np.arange(self._c.size, j_hi))
            self._c = np.concatenate([self._c, new])
        return self._c[:j_hi]

    def left_after(self, j_hi):
        return max(self.mass - float(self.upto(j_hi).sum()), 0.0)


def _poisson_coefs(phi, w):
    """m_j = sum_s w_s pois(j; phi_s^2/2), the Poisson mixture of the
    noncentral-t CDF series."""
    means = 0.5 * phi ** 2
    return _SeriesCoefs(lambda j: np.exp(ser.poisson_log_pmf(j, means)) @ w,
                        np.sum(w))


def _beta_series(coefs, a, b, x, tol, j_hi, law):
    """sum_j c_j I_x(j + a, b) per x, certified to tol: I_x falls as j grows,
    so the coefficient mass not yet reached times the next I_x bounds the
    tail.

    A block [j0, j1) needs one betainc per x, the I_{j1} = I_x(j1 + a, b)
    that bounds the tail: the recurrence I_x(c, b) = I_x(c + 1, b) + t_c,
    t_c = x^c (1-x)^b / (c B(c, b)), runs down from it, so
    sum_j c_j I_j = I_{j1} sum_j c_j + sum_k t_k sum_{j <= k} c_j, a sum of
    nonnegative terms over one exp table."""
    out = np.zeros_like(x)
    active = np.arange(x.size)
    with np.errstate(divide="ignore"):
        log_x, log_1mx = np.log(x), np.log1p(-x)
    j_done = 0
    while True:
        c = coefs.upto(j_hi)[j_done:]
        k = np.arange(j_done, j_hi) + a
        t = np.multiply.outer(k, log_x[active])      # log t_c, in place
        t += b * log_1mx[active]
        t -= (np.log(k) + ser.log_beta(k, b))[:, None]
        end = sp.betainc(j_hi + a, b, x[active])
        out[active] += c.sum() * end + np.cumsum(c) @ np.exp(t, out=t)
        active = active[end * coefs.left_after(j_hi) > tol]
        if active.size == 0:
            return out
        j_done = j_hi
        j_hi = min(2 * j_hi, j_hi + 4096)
        if j_hi > _MAX_J_TERMS:
            raise AccuracyError(
                "%s CDF series exceeded %d terms without certifying "
                "abs_tol=%g" % (law, _MAX_J_TERMS, tol))


# ----------------------------------------------------------------------
# noncentral-t core: the signed-t law and its fold, the t^2 law
# ----------------------------------------------------------------------

class _NoncentralT:
    """Noncentral t(nu, D/s) mixed over s ~ |N(lam0, 1)| (D >= 0), in the
    pieces that the signed-t law and its fold, the t^2 law, are made of.

    Mixing nodes with phi = D/s <= 20 (s >= s_split = min(D/20, s_hi/2))
    collapse into cdf0 = E_s[Phi(-phi)] and three coefficient sequences,
    each built on demand and kept:
      m_j = E_s[pois(j; phi^2/2)],
      n_j = E_s[phi e^{-phi^2/2} (phi^2/2)^j / (sqrt(2) Gamma(j+3/2))],
      a_j = c_j E_s[e^{-phi^2/2} (sqrt(2) phi)^j],  c_j from nct_log_cj.
    With g = t/sqrt(nu+t^2) and x = g^2 these nodes' CDF at t is
    cdf0 + sgn(t)/2 sum_j m_j I_x(j+1/2, nu/2) + 1/2 sum_j n_j I_x(j+1, nu/2)
    and their pdf P(t) sum_j a_j g^j, P the central-t prefactor.  The draws
    s < s_split form the ``_ExtremeRule``.
    """

    def __init__(self, nu, root_d, lam0, quad):
        self.nu, self.tol = nu, quad.abs_tol
        s_split = min(root_d / _NCT_SERIES_PHI_MAX,
                      ser.sqrt_mixing_upper(lam0) / 2.0)
        s, w = _chi2_mixing_rule(lam0, s_split, quad)
        phi = root_d / s
        self.ext = _ExtremeRule(nu, root_d, lam0, s_split, quad.abs_tol)
        self.cdf0 = float(w @ sp.ndtr(-phi))
        self.m = _poisson_coefs(phi, w)
        half_sq = 0.5 * phi ** 2

        def n_block(j):
            log_k = (-half_sq[None, :] + sp.xlogy(j[:, None], half_sq[None, :])
                     - sp.gammaln(j + 1.5)[:, None])
            return np.exp(log_k) @ (w * phi) / math.sqrt(2.0)

        def a_block(j):
            log_k = (-half_sq[None, :]
                     + sp.xlogy(j[:, None], math.sqrt(2.0) * phi[None, :])
                     + ser.nct_log_cj(j, nu)[:, None])
            return np.exp(log_k) @ w

        self.n = _SeriesCoefs(n_block, w @ sp.erf(phi / math.sqrt(2.0)))
        self._a = _SeriesCoefs(a_block)
        self._q = math.sqrt(2.0) * float(np.max(phi))

    def pdf_coefs(self, amax):
        """a_0 .. a_{J-1}, enough terms that sum_j a_j g^j is certified to
        abs_tol for |g| <= amax (and so is its even part)."""
        nu = self.nu
        qmax = self._q * amax
        j_hi = _MIN_TERMS
        while qmax > 0.0:
            # grown block by block, so no (terms x nodes) temporary is
            # larger than one block
            a = self._a.upto(j_hi)
            # every node's terms past j_hi - 1 fall by at least r per step
            r = qmax * math.sqrt((nu + j_hi + 1.0) / 2.0) / j_hi
            if r < 0.9 and j_hi > 0.5 * qmax * qmax + 2.0 * qmax + nu:
                if a[-1] * amax ** (j_hi - 1.0) * r / (1.0 - r) < self.tol:
                    break
            j_hi = min(2 * j_hi, j_hi + 4096)
            if j_hi > _MAX_J_TERMS:
                raise AccuracyError(
                    "noncentral-t pdf series exceeded %d terms without "
                    "certifying abs_tol=%g" % (_MAX_J_TERMS, self.tol))
        return self._a.upto(j_hi)


# ----------------------------------------------------------------------
# t^2 mixture
# ----------------------------------------------------------------------

class TsqMixture(_MixtureLaw):
    """Evaluator of the t0^2 mixture: noncentral t^2(nu, delta/w) over
    w ~ chi2_1(lambda).

    t0^2 is the square of the signed t0 with delta0 = sqrt(delta) and
    lambda0 = sqrt(lambda), so this law is the fold of the signed law's
    noncentral-t core at t = sqrt(u), with x = u/(u+nu) = g^2.  In
    F(t) - F(-t) the cdf0 and n_j terms cancel, leaving
    sum_j m_j I_x(j+1/2, nu/2); in [f(t) + f(-t)]/(2t) the odd terms cancel,
    leaving P(t)/t sum_k a_2k x^k, one Horner pass.  The slope draws near
    zero, which carry the law's heavy far tail, add the Gaussian-root
    kernel at u on the v-rule.  At delta = 0 only m_0 survives and the law
    is exactly central F(1, nu) for every lambda.
    """

    def __init__(self, nu: int, delta: float, lam: float,
                 quad: QuadSpec = QuadSpec()):
        require_finite(nu=nu, delta=delta, lam=lam)
        if nu < 1:
            raise ParamError("nu must be >= 1")
        if delta < 0 or lam < 0:
            raise ParamError("delta and lambda must be nonnegative")
        self.nu = float(nu)
        self.delta = float(delta)
        self.lam = float(lam)
        self.quad = quad
        self._core = _NoncentralT(self.nu, math.sqrt(self.delta),
                                  math.sqrt(self.lam), quad)

    def _pdf(self, u):
        out = np.zeros_like(u)
        pos = u > 0
        up = u[pos]
        t, x = np.sqrt(up), up / (up + self.nu)
        a = self._core.pdf_coefs(math.sqrt(np.max(x, initial=0.0)))
        out[pos] = (np.polynomial.polynomial.polyval(x, a[::2])
                    * np.exp(ser.nct_log_prefactor(t, self.nu)) / t
                    + self._core.ext.parts(up, want_pdf=True))
        return out

    def _cdf(self, u):
        out = np.zeros_like(u)
        pos = u > 0
        up = u[pos]
        out[pos] = (self._core.ext.parts(up, want_pdf=False)
                    + _beta_series(self._core.m, 0.5, self.nu / 2.0,
                                   up / (up + self.nu), self.quad.abs_tol,
                                   _MIN_TERMS, "t^2 mixture"))
        return out

    def _bracket(self):
        return 0.0, 3.0 * self.nu + self.delta * (1.0 + self.lam), "up"


def tsq_mixture(nu: int, delta: float, lam: float,
                quad: QuadSpec = QuadSpec()) -> TsqMixture:
    """Evaluator of the unconditional t0^2 mixture law."""
    return TsqMixture(nu, delta, lam, quad)


# ----------------------------------------------------------------------
# signed-t mixture
# ----------------------------------------------------------------------

class SignedTMixture(_MixtureLaw):
    """Evaluator of the t0 mixture: noncentral t(nu, delta0/s) mixed over the
    shifted half-normal law of s.

    The noncentral-t core gives the series nodes' CDF
    cdf0 + sgn(u)/2 sum_j m_j I_x(j+1/2, nu/2) + 1/2 sum_j n_j I_x(j+1, nu/2),
    x = u^2/(u^2+nu), and their pdf P(u) sum_j a_j g^j, g = u/sqrt(nu+u^2),
    one Horner pass over the cached coefficients.  Draws of larger
    noncentrality (s near 0) add the Gaussian-root t^2 kernel at u^2 for
    u > 0, on the shared v-rule.  Negative delta0 mirrors the law.
    """

    def __init__(self, nu: int, delta0: float, lambda0: float,
                 quad: QuadSpec = QuadSpec()):
        require_finite(nu=nu, delta0=delta0, lambda0=lambda0)
        if nu < 1:
            raise ParamError("nu must be >= 1")
        if lambda0 < 0:
            raise ParamError("lambda0 must be nonnegative")
        self.nu = float(nu)
        self.delta0 = float(delta0)
        self.lambda0 = float(lambda0)
        self.quad = quad
        self._mirror = self.delta0 < 0
        self._d0 = abs(self.delta0)
        self._core = _NoncentralT(self.nu, self._d0, self.lambda0, quad)

    def _pdf_base(self, u):
        """pdf of the law with noncentrality |delta0| (pre-mirror)."""
        g = u / np.sqrt(self.nu + u * u)
        a = self._core.pdf_coefs(float(np.max(np.abs(g), initial=0.0)))
        out = (np.polynomial.polynomial.polyval(g, a)
               * np.exp(ser.nct_log_prefactor(u, self.nu)))
        up = u[u > 0]
        out[u > 0] += 2.0 * up * self._core.ext.parts(up * up, want_pdf=True)
        return out

    def _cdf_base(self, u):
        """CDF of the law with noncentrality |delta0| (pre-mirror)."""
        nu, core = self.nu, self._core
        # phi <= 20 keeps both series short, so certifying them 1e-3 below
        # abs_tol is cheap; it holds interval probabilities to the t^2
        # route far inside abs_tol
        tol = 1e-3 * self.quad.abs_tol
        x = u * u / (u * u + nu)
        out = (core.cdf0
               + 0.5 * np.sign(u) * _beta_series(core.m, 0.5, nu / 2.0, x, tol,
                                                 _MIN_TERMS, "signed-t")
               + 0.5 * _beta_series(core.n, 1.0, nu / 2.0, x, tol,
                                    _MIN_TERMS, "signed-t"))
        up = u[u > 0]
        out[u > 0] += core.ext.parts(up * up, want_pdf=False)
        return out

    def _pdf(self, u):
        return self._pdf_base(-u if self._mirror else u)

    def _cdf(self, u):
        if self._mirror:
            return 1.0 - self._cdf_base(-u)
        return self._cdf_base(u)

    def support(self):
        # the left (non-spike) edge is bounded by the central-t tail; the
        # right side carries the heavy mixing-spike tail and is handled by
        # callers through interval probabilities or bracket expansion
        half = math.sqrt(self.nu) * (1e14) ** (1.0 / self.nu)
        lo, hi = -half, half + self._d0 * ser.sqrt_mixing_upper(0.0)
        return (-hi, -lo) if self._mirror else (lo, hi)

    def _bracket(self):
        half = math.sqrt(self.nu) + self._d0
        return -half, half, "both"


def signed_t_mixture(nu: int, delta0: float, lambda0: float,
                     quad: QuadSpec = QuadSpec()) -> SignedTMixture:
    """Evaluator of the signed t0 mixture law."""
    return SignedTMixture(nu, delta0, lambda0, quad)


# ----------------------------------------------------------------------
# dispatch record
# ----------------------------------------------------------------------

_LAWS = {"mean": (mean_mixture, ("params",)),
         "variance": (variance_mixture, ("nu", "lam")),
         "tsq": (tsq_mixture, ("nu", "delta", "lam")),
         "signed_t": (signed_t_mixture, ("nu", "delta0", "lambda0"))}


@dataclass(frozen=True)
class DistSpec:
    """One of the four mixture laws plus its parameters.

    kind "mean" takes params=MixtureParams; "variance" (nu, lam);
    "tsq" (nu, delta, lam); "signed_t" (nu, delta0, lambda0).
    """

    kind: str
    params: object = None
    nu: int | None = None
    lam: float | None = None
    delta: float | None = None
    delta0: float | None = None
    lambda0: float | None = None

    def __post_init__(self):
        if self.kind not in _LAWS:
            raise ParamError("unknown mixture kind %r (expected one of %r)"
                             % (self.kind, tuple(_LAWS)))

    def build(self, quad: QuadSpec = QuadSpec()):
        make, names = _LAWS[self.kind]
        args = [getattr(self, name) for name in names]
        if any(a is None for a in args):
            raise ParamError("%s mixture needs %s" % (self.kind, ", ".join(names)))
        if self.kind == "mean" and not isinstance(self.params, MixtureParams):
            raise ParamError("mean mixture needs MixtureParams")
        return make(*args, quad)
