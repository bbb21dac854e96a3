"""The four mixture laws of calibrated summary statistics.

* MeanMixture: law of the calibrated sample mean; a translation-scale mixture
  of N(beta0 + t mu_z, t^2 sigma_z^2/n + sigma0^2) over t ~ N(beta1, sigma1^2).
* VarianceMixture: law of u = nu S_Y^2/(sigma1^2 sigma_z^2) = W V with
  W ~ chi2_1(lambda) from the slope, mixed over V ~ chi2_nu.
* TsqMixture: law of t0^2; noncentral t^2(nu, delta/w) mixed over
  w ~ chi2_1(lambda).
* SignedTMixture: law of t0; noncentral t(nu, delta0/s) mixed over
  s = sqrt(w) ~ |N(lambda0, 1)|.  With delta0 = sqrt(delta) and
  lambda0 = sqrt(lambda), t0^2 is its square, so both laws are built on one
  noncentral-t core and the t^2 law is the signed law's fold.

Every law is a weighted set of mixing nodes plus a conditional pdf/CDF kernel
pair, on Gauss-Legendre panels over analytically bounded windows; the mean
and variance laws are one certified rule plus a closed-form kernel pair.
CDFs mix the conditional CDFs over the same nodes, which equals integrating
the mixture pdf from the support edge (Tonelli) but stays smooth where
near-degenerate mixing components make the pointwise pdf too spiky to
quadrate.  The noncentral-t core weights its nodes in s = sqrt(w) by
phi(s - lambda0) + phi(s + lambda0) and collapses them into series
coefficients once per evaluator, so each evaluation is one series in j.
Series start from one fixed minimum term count, then escalate until a
computable tail bound drops below abs_tol; exceeding the hard cap raises
AccuracyError, never truncating silently.

With delta > 0 the t^2 / signed-t laws have genuinely heavy far tails (slope
draws near zero inflate the conditional noncentrality, and
P[t0^2 > T] decays only like 1/sqrt(T)).  Slope draws with noncentralities
phi = D/s beyond the series budget are evaluated through one exact kernel
of the core, the Gaussian-root identity u = nu (g + phi)^2 / W, smooth at
any parameter point where the series would need j ~ phi^2 terms.  (s, g)
enter it only through v = g + D/s, so those draws collapse to one weighted
rule in v, built once per evaluator; each evaluation sums a band of v-nodes
per point, with the conditional CDF's upper incomplete gamma Q(nu/2, y) in
closed form (a finite sum) wherever nu/2 is a moderate integer or
half-integer.  The signed law reads that t^2 kernel at u^2: its
extreme draws put less than Phi(-20) of their mass below 0.  The
incomplete-beta CDF series run by recurrence from one betainc per point per
block of terms, from the rung that certifies the block's smallest x; their
derivatives sum one exp table per block of terms.  Every law evaluates its
points in fixed blocks, and each block finishes its node x point or term x
point table in place, so memory stays bounded whatever the grid size.  A
rule law's block evaluates its kernel only on the node rows whose values
over the block are not exactly 0 or 1 (a Gaussian tail in floats), and
writes those as constants, so the table and its sum are the same bits.  The
blocks, fixed by the input alone, run on every CPU the process may use
through ``parallel.thread_map`` (the Monte Carlo engine's helper too), so
the tables are the same bits on any CPU count.
"""

from __future__ import annotations

import functools
import math
import sys
import threading

import numpy as np
from scipy import special as sp

from .errors import AccuracyError, ParamError, require_finite
from .model import MixtureParams, derive_params
from .quadrature import (QuadSpec, _leggauss, bisect_cdf, gauss_legendre_nodes,
                         refine_panels)
from . import special as ser
from .parallel import thread_map

_Z_SUPPORT = 8.5       # Gaussian component half-width; Phi(-8.5) ~ 1e-17
_MAX_J_TERMS = 120_000
_MIN_TERMS = 20              # first block of every noncentral-t series
_NCT_SERIES_PHI_MAX = 20.0   # beyond this the Gaussian-root kernel takes over
# the largest D = |delta0| = sqrt(delta): the v-rule squares D/s down to
# s ~ 1e-14, and the t^2 quantiles, of order D^2/s^2, must stay floats
_NCT_D_MAX = 1e100
# Points per evaluation block.  A rule law takes fewer points per block once
# it has more than 4096 nodes, so that its node x point table holds at most
# _BLOCK_SIZE doubles (16 MB).  The noncentral-t pdfs and CDFs take
# _SERIES_BLOCK points, so that their per-block tail bounds and rung climbs
# are shared by more points (a CDF block climbs to the rung of its smallest
# x, so its size moves a point's CDF by rounding only).  They build
# their term x point and band x point tables over chunks of points of at
# most _TABLE doubles.  _BLOCK_SIZE is the budget of all block workers
# together: a law runs at most _BLOCK_SIZE // (doubles of one block's
# table) blocks at once.
_POINT_BLOCK = 512
_SERIES_BLOCK = 4096
_BLOCK_SIZE = 2 ** 21
_TABLE = 2 ** 15
_TERM_BLOCK = 4096     # most series terms in one term x point rung
# offsets of the first grid searched for a quantile's bracket, in steps of
# the law's coordinate around its start
_GRID = np.arange(-2.0, 3.0)
_LOG4 = math.log(4.0)


def _log(u):
    """log u, with u = 0 (a quantile below the smallest float) read as it."""
    return math.log(max(u, sys.float_info.min))


def _evaluate(f, u, at_inf, block, block_doubles):
    """(u is a scalar, f at u): f over the finite points of u in blocks of
    ``block`` points, ``at_inf`` at +inf and 0 at -inf.  A NaN in u is a
    ParamError.

    The blocks are fixed by u and ``block`` alone and run through
    ``parallel.thread_map``, on every CPU the process may use but at most
    _BLOCK_SIZE // block_doubles at once (``block_doubles`` bounds one
    block's tables), so the values are the same bits on any CPU count.  A
    single block runs in the caller's thread."""
    u = np.asarray(u, dtype=float)
    scalar, u = u.ndim == 0, np.atleast_1d(u)
    if np.isnan(u).any():
        raise ParamError("abscissa must not be NaN")
    finite = np.isfinite(u)
    out = np.where(u > 0, at_inf, 0.0)
    u_fin = u[finite]
    vals = np.empty_like(u_fin)
    starts = range(0, u_fin.size, block)
    blocks = thread_map(lambda i: f(u_fin[i:i + block]), starts,
                        max(1, _BLOCK_SIZE // block_doubles))
    for i, block_vals in zip(starts, blocks):
        vals[i:i + block] = block_vals
    out[finite] = vals
    return scalar, out


class _MixtureLaw:
    """What the four laws share: scalar/array wrapping, evaluation in blocks
    of points, the infinite abscissae, CDF clipping, interval probabilities
    and CDF inversion.  Each law supplies ``_pdf`` and ``_cdf`` on 1-d
    arrays of finite floats, and for the inversion ``_start(prob)``, a
    first guess at the quantile in the law's coordinate x.  On [0, inf)
    u = e^x; a law on the real line sets ``_line = (m, c)``, and
    u = m + c sinh(x), linear near m and logarithmic in both tails.  A NaN
    abscissa or probability is a ParamError; at -inf and +inf the CDF is 0
    and 1 and the pdf 0.  The repr shows the public attributes."""

    # points per block of the pdf and of the CDF, and the most doubles
    # that one block's tables hold
    _block = _POINT_BLOCK
    _block_doubles = _TABLE
    _line = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % kv for kv in vars(self).items() if kv[0][0] != "_"))

    def pdf(self, u):
        scalar, out = _evaluate(self._pdf, u, 0.0, self._block,
                                self._block_doubles)
        return float(out[0]) if scalar else out

    def cdf(self, u):
        scalar, out = _evaluate(self._cdf, u, 1.0, self._block,
                                self._block_doubles)
        np.clip(out, 0.0, 1.0, out=out)
        return float(out[0]) if scalar else out

    def interval_prob(self, lo, hi):
        if hi < lo:
            raise ParamError("interval bounds out of order")
        return float(self.cdf(hi) - self.cdf(lo))

    def ppf(self, prob):
        if not 0.0 < prob < 1.0:
            raise ParamError("probability must be in (0, 1), got %r" % prob)
        return self._invert(prob)

    def _invert(self, prob):
        """The abscissa within 1e-8 of where the CDF crosses prob, with x
        within 1e-10: on [0, inf) u within 1e-10 of itself, and on the line
        within 1e-10 c cosh(x), so that the CDF holds at small quantiles and
        where a narrow law's pdf is large.

        One vector CDF call on 5 points around ``_start(prob)`` looks for a
        bracket of prob, spaced fourfold in u on [0, inf) and by log(4)/8
        in x on the line.  On a miss the next grid starts at this one's far
        end and is twice as wide, so a quantile at distance d from the start
        takes O(log d) calls.  ITP (``quadrature.bisect_cdf``) then solves
        in x, where such CDFs are close to probit-linear.  A failure names
        the law, prob and the stage."""
        if self._line is None:
            u, step = np.exp, _LOG4
        else:
            m, c = self._line
            u, step = (lambda x: m + c * np.sinh(x)), _LOG4 / 8.0
        known = {}
        x = self._start(prob) + step * _GRID
        try:
            # within a few dozen grids an end reaches u = 0 or +-inf, where
            # the CDF is 0 or 1, so the search ends
            while True:
                with np.errstate(over="ignore"):
                    f = self.cdf(u(x))
                known.update(zip(x, f))
                i = int(np.searchsorted(f, prob))
                if 0 < i < x.size:
                    break
                x = x[-1] + 2.0 * (x - x[0]) if i else x[0] + 2.0 * (x - x[-1])
        except AccuracyError as exc:
            raise self._failed(prob, "ppf bracket", exc) from exc
        lo, hi = float(x[i - 1]), float(x[i])
        # du/dx is at most u_hi or c cosh(max |x|) on the bracket
        slope = math.exp(hi) if self._line is None else c * math.cosh(max(-lo, hi))
        xtol = min(1e-8 / slope, 1e-10)

        def cdf(x):
            if x not in known:
                known[x] = float(self.cdf(u(x)))
            return known[x]
        try:
            return float(u(bisect_cdf(cdf, prob, lo, hi, xtol=xtol)))
        except AccuracyError as exc:
            raise self._failed(prob, "ppf solve", exc) from exc

    def _failed(self, prob, stage, exc):
        return AccuracyError("%r: %s at prob=%r: %s" % (self, stage, prob, exc))


# ----------------------------------------------------------------------
# one refined rule plus a kernel pair: the mean and variance laws
# ----------------------------------------------------------------------

_PROBE_POINTS = 40
# the mean law's slope window is beta1 +/- _SLOPE_SIGMAS sigma1: the
# Gaussian mass beyond it, 2 Phi(-10) ~ 1.5e-23, is far below any abs_tol.
# Its least half-width over |beta1|: a narrower window holds too few floats
# to place a rule's nodes on (an empty window, an AccuracyError or a
# silently wrong CDF)
_SLOPE_SIGMAS = 10.0
_SLOPE_WINDOW = 2e-10
# a rule law's kernel argument a from which its CDF is exactly 1.0 (a >=
# _ONE) or 0.0 (a <= -_ZERO), and its pdf 0.0 (|a| >= _ZERO); blocks from
# _SKIP_FROM points on skip those rows
_ONE, _ZERO = 8.5, 38.7
_SKIP_FROM = 64


class _RuleLaw(_MixtureLaw):
    """One Gauss rule in the mixing variable x, built by local subdivision
    (``refine_panels``) and certified on the mixing mass, on the CDF at
    probe points ``cdf_u`` and on the pdf at ``pdf_u``, plus the law's
    ``_mixing_pdf(x)``, ``_window``, ``_kernel(x, u, want_pdf)``
    (conditional pdf or CDF, shape (len(x), len(u))) and the kernels'
    argument ``_argument(x, u)``, which rises with u (see ``_table``).  The
    probe is the integrand mixing_pdf(x) kernel(x, u), so that the builder
    sums it per panel; each pdf probe holds to abs_tol or to rel_tol of
    itself."""

    def _refine(self, anchors, cdf_u, pdf_u):
        def probe(x):
            return self._mixing_pdf(x)[:, None] * np.hstack([
                self._kernel(x, cdf_u, False), self._kernel(x, pdf_u, True)])

        rule = refine_panels(self._mixing_pdf, *self._window, self.quad,
                             split_at=tuple(anchors), probe=probe)
        self._x = rule.nodes
        self._w = rule.weights * self._mixing_pdf(rule.nodes)
        self._block = min(_POINT_BLOCK, _BLOCK_SIZE // self._x.size)
        self._block_doubles = self._block * self._x.size

    def _pdf(self, u):
        return self._w @ self._table(u, True)

    def _cdf(self, u):
        return self._w @ self._table(u, False)

    def _table(self, u, want_pdf):
        """The node x point kernel table at u, evaluating the kernel only on
        the node rows whose values are not known over [min u, max u].

        Both kernels are functions of an argument a (``_argument``) that
        rises with u: the CDF is exactly 1.0 from a = _ONE and 0.0 up to
        a = -_ZERO, and the pdf exactly 0.0 from |a| = _ZERO.  (With the
        installed scipy and numpy, ndtr reads 1.0 from 8.2924 and 0.0 up to
        -37.677, exp(-a^2/2) reads 0.0 from |a| = 38.604, and the variance
        CDF's difference of two ndtr reads 1.0 from 8.2926; the edges keep
        a margin.)  a at the block's two ends comes from the kernel's own
        arithmetic, which is monotone in u, so each row written as a
        constant holds the value the kernel would have given, and the one
        ``w @ table`` product sums the same table.  Rows are selected by
        index: scipy.special ufuncs called with ``where=`` segfault with
        numpy 2.4.6 and scipy 1.17.1.  Blocks of fewer than _SKIP_FROM
        points (scalar calls, quantile grids) evaluate the whole table."""
        x = self._x
        if u.size < _SKIP_FROM:
            return self._kernel(x, u, want_pdf)
        lo, hi = self._argument(x, np.array([np.min(u), np.max(u)])).T
        zero = hi <= -_ZERO
        if want_pdf:
            zero |= lo >= _ZERO
            one = np.zeros_like(zero)
        else:
            one = lo >= _ONE
        known = zero | one
        if not known.any():
            return self._kernel(x, u, want_pdf)
        table = np.empty((x.size, u.size))
        table[zero] = 0.0
        table[one] = 1.0
        rows = np.flatnonzero(~known)
        table[rows] = self._kernel(x[rows], u, want_pdf)
        return table


class MeanMixture(_RuleLaw):
    """Density/CDF evaluator of the calibrated sample mean, mixed over the
    slope draw t on beta1 +/- k sigma1.  Near t = 0 the component scale
    shrinks to sigma0, so a window holding 0 is split there and graded by
    anchors at +/-10^k, stepping toward 0 by decades while t is above
    sigma0 sqrt(n)/sigma_z and the mixing mass on [-t, t] (at most 2t times
    its peak density there) exceeds 1e-3 abs_tol.  With sigma0 = 0 the pdf
    has an integrable spike at u = beta0, and the conditional CDFs turn
    over sharply in t within every decade: the probes add mean(t) +/- 2
    sd(t) at each anchor t times 1, 2 and 5.  The pdf is probed at the
    same points but beta0, where at sigma0 = 0 it is infinite.  A window
    narrower than _SLOPE_WINDOW |beta1| each side (sigma1 below 2e-11
    |beta1|) is a ParamError."""

    def __init__(self, params: MixtureParams, quad: QuadSpec = QuadSpec()):
        if params.ideal:
            raise ParamError("ideal-mode parameters make the mean law degenerate")
        k = _SLOPE_SIGMAS
        if k * params.sigma1 < _SLOPE_WINDOW * abs(params.beta1):
            raise ParamError(
                "sigma1 = %g is too small against beta1 = %g: the mean law's "
                "slope window beta1 +- %g sigma1 must reach %g |beta1| either "
                "side to be resolved in floats"
                % (params.sigma1, params.beta1, k, _SLOPE_WINDOW))
        self.params = p = params
        self.quad = quad
        lo, hi = self._window = (p.beta1 - k * p.sigma1, p.beta1 + k * p.sigma1)
        anchors = [0.0] if lo < 0.0 < hi else []
        t = 10.0 ** math.floor(math.log10(max(-lo, hi)))
        while anchors and t > p.sigma0 * math.sqrt(p.n) / p.sigma_z and (
                2.0 * t * self._mixing_pdf(min(max(p.beta1, -t), t))
                > 1e-3 * quad.abs_tol):
            anchors += [-t, t]
            t /= 10.0
        mean, sd = self._conditional(np.outer(anchors, [1.0, 2.0, 5.0]).ravel())
        u_lo, u_hi = self.support()
        probe_u = np.unique(np.concatenate([
            np.linspace(u_lo, u_hi, _PROBE_POINTS),
            mean - 2.0 * sd, mean + 2.0 * sd]))
        self._refine(anchors, probe_u, probe_u[probe_u != p.beta0])
        d = derive_params(p)
        self._line = (d.mu_y, math.sqrt(d.var_ybar))

    def _mixing_pdf(self, t):
        p = self.params
        z = (np.asarray(t, dtype=float) - p.beta1) / p.sigma1
        return np.exp(-0.5 * z * z) / (p.sigma1 * math.sqrt(2.0 * math.pi))

    def _conditional(self, t):
        """Mean and standard deviation of the Gaussian component at slope t."""
        p = self.params
        sd = np.sqrt(t ** 2 * p.sigma_z ** 2 / p.n + p.sigma0 ** 2)
        return p.beta0 + t * p.mu_z, sd

    def _argument(self, t, u):
        """z = (u - mean(t)) / sd(t), node x point."""
        p = self.params
        # u - beta0 first: exact near beta0, where sigma0 = 0 puts a spike
        z = np.subtract((u - p.beta0)[None, :], (t * p.mu_z)[:, None])
        z /= self._conditional(t)[1][:, None]
        return z

    def _kernel(self, t, u, want_pdf):
        # z is the block's one node x point array; the kernel finishes in it
        z = self._argument(t, u)
        if not want_pdf:
            return sp.ndtr(z, out=z)
        z *= z
        z *= -0.5
        np.exp(z, out=z)
        z /= self._conditional(t)[1][:, None] * math.sqrt(2.0 * math.pi)
        return z

    def support(self):
        # mean - 8.5 sd is concave in t and mean + 8.5 sd convex, so both
        # take their extremes at the window ends
        mean, sd = self._conditional(np.array(self._window))
        return (float(np.min(mean - _Z_SUPPORT * sd)),
                float(np.max(mean + _Z_SUPPORT * sd)))

    def _start(self, prob):
        """The normal quantile with the law's mean and sd."""
        return math.asinh(float(sp.ndtri(prob)))


def mean_mixture(p: MixtureParams, quad: QuadSpec = QuadSpec()) -> MeanMixture:
    """Evaluator of the unconditional law of the calibrated sample mean."""
    return MeanMixture(p, quad)


class VarianceMixture(_RuleLaw):
    """Evaluator of u = nu S_Y^2 / (sigma1^2 sigma_z^2) = W V (mean
    nu (1 + lambda)), mixed over x = log V between V's 1e-16 and 1 - 1e-16
    quantiles, graded toward u = 0 by edges at its 1e-8, 1e-3 and 0.5
    quantiles.  The kernels are W's closed forms at u/V: F(u) = E_V[Phi(r -
    lambda0) - Phi(-r - lambda0)], r = sqrt(u/V), and f(u) = E_V[f_W(u/V)/V]."""

    def __init__(self, nu: int, lam: float, quad: QuadSpec = QuadSpec()):
        require_finite(nu=nu, lam=lam)
        if nu < 1:
            raise ParamError("nu must be >= 1")
        if lam < 0:
            raise ParamError("lambda must be nonnegative")
        self.nu = float(nu)
        self.lam = float(lam)
        self.quad = quad
        q = sp.gammaincinv(nu / 2.0, [1e-16, 1e-8, 1e-3, 0.5])
        lo, *anchors = np.log(2.0 * q)
        self._window = (lo, math.log(2.0 * sp.gammainccinv(nu / 2.0, 1e-16)))
        # probes from the window's lower end up: a probe's kernel turns over
        # near x = log(u / W), so each part of the window meets some probe
        # (at nu = 1 the CDF there still rises like sqrt(u), far above
        # abs_tol).  Where the CDF is below abs_tol, only the pdf probes
        # see the window's lower end.
        probe_u = np.geomspace(2.0 * q[0], self.support()[1], _PROBE_POINTS)
        self._refine(anchors, probe_u, probe_u)

    def _mixing_pdf(self, x):
        """Density of x = log V, V ~ chi2_nu."""
        a = self.nu / 2.0
        return np.exp(a * (x - math.log(2.0)) - 0.5 * np.exp(x) - sp.gammaln(a))

    def _root(self, x, u):
        """r = sqrt(u/V) (0 at u <= 0), node x point, as both kernels form it."""
        r = np.divide(np.clip(u, 0.0, None)[None, :], np.exp(x)[:, None])
        return np.sqrt(r, out=r)

    def _argument(self, x, u):
        """r - lambda0, node x point."""
        r = self._root(x, u)
        r -= math.sqrt(self.lam)
        return r

    def _kernel(self, x, u, want_pdf):
        if want_pdf:
            v = np.exp(x)[:, None]
            out = ser.nc_chisq1_pdf(u[None, :] / v, self.lam, overwrite_w=True)
            out /= v
            return out
        # r = sqrt(u/V) once per block; both tails finish in place
        r = self._root(x, u)
        lam0 = math.sqrt(self.lam)
        below = np.negative(r)
        below -= lam0
        r -= lam0
        sp.ndtr(r, out=r)
        r -= sp.ndtr(below, out=below)
        return r

    def support(self):
        w_hi = ser.sqrt_mixing_upper(math.sqrt(self.lam),
                                     1e-3 * self.quad.abs_tol) ** 2
        return 0.0, math.exp(self._window[1]) * w_hi

    def _start(self, prob):
        """log of the quantile of c chi2_k, the scaled chi-square with the
        mean m = nu (1 + lambda) and the variance of u = W V (Satterthwaite
        1946)."""
        m = self.nu * (1.0 + self.lam)
        var = ((2.0 + 4.0 * self.lam + (1.0 + self.lam) ** 2)
               * self.nu * (self.nu + 2.0) - m * m)
        return _log(var / m * float(sp.gammaincinv(m * m / var, prob)))


def variance_mixture(nu: int, lam: float, quad: QuadSpec = QuadSpec()) -> VarianceMixture:
    """Evaluator of the scaled sample-variance mixture law."""
    return VarianceMixture(nu, lam, quad)


# ----------------------------------------------------------------------
# series and extreme-node kernels of the noncentral-t core
# ----------------------------------------------------------------------

_G_EDGES = np.linspace(-8.6, 8.6, 17)   # panels of the Gaussian root g
_G_ORDER = 10
_ROOT_SNAP = 1e-13   # Q within this of 1 (or of 0) counts as 1 (or 0)
# largest nu/2 whose Q takes the finite sums: they cost about 0.8 ns per
# term and entry, gammaincc 200-290 ns per entry, so they cross near 300
_Q_SUM_MAX = 256


# u = nu X / W with X = (g + phi)^2 = v^2, g ~ N(0,1), W ~ chi2_nu, so
#   F_cond(u) = E_g[ Q_nu( nu v^2 / (2u) ) ],  Q_nu = regularized upper gamma
#   f_cond(u) = E_g[ y^{nu/2} e^{-y} ] / (u Gamma(nu/2)),  y = nu v^2/(2u);
# the v-integrand is smooth at every (u, phi), unlike the W-form whose
# transition sharpens like sqrt(u).
class _RootRule:
    """A rule (v_k^2 = v2 ascending, weights h) of the Gaussian-root kernel
    K at nu, with what every evaluation shares: the snap points of Q in y
    and the weight below each node."""

    def __init__(self, nu, v2, h):
        self.nu, self.v2, self.h = nu, v2, h
        self.y_lo = float(sp.gammainccinv(nu / 2.0, 1.0 - _ROOT_SNAP))
        self.y_hi = float(sp.gammainccinv(nu / 2.0, _ROOT_SNAP))
        self.log_gamma = float(sp.gammaln(nu / 2.0))
        self.below = np.concatenate([[0.0], np.cumsum(h)])

    def parts(self, u, want_pdf):
        """sum_k h_k K(u; v_k) at u > 0, K the conditional t^2 pdf or CDF
        above.  Each u sums only the band of nodes whose y lies between the
        snap points of Q; the nodes below the band (Q within the snap of 1)
        add their weight whole to the CDF.  The band x point tables are
        built over chunks of points of at most _TABLE doubles."""
        nu, v2 = self.nu, self.v2
        with np.errstate(over="ignore"):      # an edge past the largest float
            a = np.searchsorted(v2, (2.0 * self.y_lo / nu) * u, side="left")
            b = np.searchsorted(v2, (2.0 * self.y_hi / nu) * u, side="right")
        out = np.zeros_like(u) if want_pdf else self.below[a]
        if self.h.size == 0:
            return out
        step = max(1, _TABLE // int(np.max(b - a, initial=1)))
        for i in range(0, u.size, step):
            at = slice(i, i + step)
            out[at] += self._band(u[at], a[at], b[at], want_pdf)
        return out

    def _band(self, u, a, b, want_pdf):
        """The band sums at u."""
        nu = self.nu
        k = a[:, None] + np.arange(int(np.max(b - a, initial=0)))
        in_band = k < b[:, None]
        np.minimum(k, self.h.size - 1, out=k)
        hk = self.h[k]
        hk[~in_band] = 0.0
        y = self.v2[k]
        del k
        y *= 0.5 * nu
        np.divide(y, u[:, None], out=y, where=in_band)    # finite off the band
        if want_pdf:
            t = np.log(y)
            t *= 0.5 * nu
            t -= y
            t -= self.log_gamma
            np.exp(t, out=t)
        else:
            y[~in_band] = 0.0     # the finite sums overflow far off the band
            t = self._upper_gamma(y)
        t *= hk
        return np.sum(t, axis=1) / u if want_pdf else np.sum(t, axis=1)

    def _upper_gamma(self, y):
        """Q(nu/2, y), built in y's place.  Where nu/2 is an integer m,
        Q = e^{-y} sum_{i<m} y^i/i!, and where it is m + 1/2,
        Q = erfc(sqrt y) + e^{-y} sum_{i=1}^{m} y^{i-1/2}/Gamma(i + 1/2)
        (DLMF 8.4), each sum by Horner from its last term.  Over
        the snap band these agree with gammaincc to about 5e-15 up to
        nu/2 = _Q_SUM_MAX and cost less; above it, or at a nu that is not
        a whole number, gammaincc serves."""
        a = 0.5 * self.nu
        m = math.floor(a)
        if a > _Q_SUM_MAX or self.nu != math.floor(self.nu):
            return sp.gammaincc(a, y, out=y)
        half = a - m
        if half and m == 0:
            return sp.erfc(np.sqrt(y, out=y), out=y)
        s = np.ones_like(y)
        for i in range(m - 1, 0, -1):     # 1 + y/(i + half) (1 + ...)
            s *= y
            s *= 1.0 / (i + half)
            s += 1.0
        if half:
            root = np.sqrt(y)
            s *= root
            s *= 2.0 / math.sqrt(math.pi)     # 1/Gamma(3/2)
        np.negative(y, out=y)
        s *= np.exp(y, out=y)
        if half:
            s += sp.erfc(root, out=root)
        return s


class _ExtremeRule:
    """The slope draws s in (s_lo, s_split] of the noncentral-t core, whose
    conditional noncentralities D/s exceed the series budget
    (D = |delta0| = sqrt(delta)).

    (s, g) enter the Gaussian-root kernel only through v = g + D/s, so by
    Fubini these draws add int h(v) K(u; v) dv, with h(v) = int p(tau)
    phi(v - tau) dtau the density of v over tau = D/s in [D/s_split,
    D/s_lo] and p(tau) = sqrt_ncchisq1_pdf(D/tau, lam0) D/tau^2.  The v-rule
    has linear shoulder panels on tau_lo +/- 8.6 and tau_hi +/- 8.6 and
    log-graded panels between: 6 per decade up to nu = 30 and lam0 = 8,
    growing like sqrt(nu) and like lam0 beyond, because the conditional
    law's transition in log v narrows like 1/sqrt(nu), and the bump of p
    at tau = D/lam0, once the window holds it, like 1/lam0 in log tau.
    h at its nodes comes from the g-rule clipped to the tau window.  s_lo
    steps down from s_split by whole decades until P[s < s_lo] <= 1e-3 tol,
    so the dropped far-tail mass stays below tol.  The rule is built once,
    under a lock, by the first point block that reaches its u-range: below
    it every node's conditional CDF is within the snap of 0.
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
        self._built = None
        self._lock = threading.Lock()

    def rule(self):
        """The v-rule as a _RootRule, built on the first call."""
        with self._lock:
            if self._built is None:
                self._built = _RootRule(self.nu, *self._nodes())
        return self._built

    def _nodes(self):
        """(v^2 ascending, weights h) of the v-rule."""
        d, z = self.root_d, _G_EDGES[-1]
        t_lo, t_hi = d / self.s_split, d / self.s_lo
        middle = np.zeros(0)
        if t_hi - z > t_lo + z:
            per_decade = 6.0 * max(1.0, math.sqrt(self.nu / 30.0),
                                   self.lam0 / 8.0)
            n = math.ceil(per_decade * math.log10((t_hi - z) / (t_lo + z)))
            middle = np.geomspace(t_lo + z, t_hi - z, n + 1)[1:-1]
        edges = np.unique(np.concatenate([np.linspace(t_lo - z, t_lo + z, 5),
                                          middle,
                                          np.linspace(t_hi - z, t_hi + z, 5)]))
        v, wv = gauss_legendre_nodes(edges, 12)
        # h(v) = int phi(g) p(v - g) dg over g in [v - t_hi, v - t_lo], one
        # g-panel at a time
        x, wx = _leggauss(_G_ORDER)
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
        return self.rule().parts(u, want_pdf)


class _Sequence:
    """f(j) for j = 0, 1, ..., evaluated by blocks on demand and kept.

    Point blocks on other threads share it, so it grows under a lock.
    Every caller climbs the rung ladder _MIN_TERMS, 2 _MIN_TERMS, ... one
    rung at a time, so it grows by the same blocks of j whatever the
    threads' timing."""

    def __init__(self, f=None):
        self._f = f
        self._v = np.zeros(0)
        self._lock = threading.Lock()

    def _block(self, j):
        return self._f(j)

    def upto(self, j_hi):
        if j_hi > self._v.size:
            with self._lock:
                if j_hi > self._v.size:
                    new = self._block(np.arange(self._v.size, j_hi, dtype=float))
                    self._v = np.concatenate([self._v, new])
        return self._v[:j_hi]


_LIVE_FLOOR = 1e-15   # times abs_tol: what a node's dropped terms stay below
_TINY = sys.float_info.min   # smallest normal double; the pdf tolerance floor


class _SeriesCoefs(_Sequence):
    """Mixed series coefficients c_j = sum_k w_k exp(-mu_k + j log mu_k + g(j))
    over the series nodes, extended on demand and kept, g(j+1) - g(j) <=
    -log(j+1).  ``mass`` is sum_j c_j in closed form, so the mass not yet
    reached bounds what the rest of the series can add.

    A block of j sums over the live nodes only.  Each node's step ratio
    mu_k e^{g(j+1) - g(j)} falls as j grows, so once its term (before the
    weight w_k) is below _LIVE_FLOOR abs_tol / sum(w) and its ratio is at
    most 1/2, the rest of its terms add less than that term: the node
    leaves the live set for good.  All nodes that leave add less than
    2 _LIVE_FLOOR abs_tol to the whole sequence.
    """

    def __init__(self, mu, w, g, tol, mass):
        # _block is overridden, not passed in: a stored bound method would
        # make a reference cycle that keeps each evaluator until the next
        # garbage collection
        super().__init__()
        with np.errstate(divide="ignore"):
            self._log_b = np.log(mu)
            self._log_floor = math.log(_LIVE_FLOOR * tol) - np.log(np.sum(w))
        self._mu, self._w, self._g = mu, w, g
        self._live = np.arange(w.size)
        self.mass = float(mass)
        self._den = {}

    def _block(self, j):
        live = self._live
        g = self._g(np.append(j, j[-1] + 1.0))
        with np.errstate(invalid="ignore"):      # 0 log 0 where mu = 0
            t = np.multiply.outer(j, self._log_b[live])
        if j[0] == 0.0:
            t[0] = 0.0
        t -= self._mu[live]
        t += g[:-1, None]
        keep = ((t[-1] >= self._log_floor)
                | (self._log_b[live] + (g[-1] - g[-2]) > -math.log(2.0)))
        self._live = live[keep]
        return np.exp(t, out=t) @ self._w[live]

    def left_after(self, j_hi):
        return max(self.mass - float(self.upto(j_hi).sum()), 0.0)

    def tail(self, j_hi):
        """sum_{j >= j_hi} c_j is at most the mass left, plus 1e-13 of the
        mass for rounding, and c_{j_hi-1} max(mu)/(j_hi (1 - r)) once
        r = max(mu)/(j_hi + 1) < 1 bounds the step ratios."""
        r = np.max(self._mu, initial=0.0) / (j_hi + 1.0)
        return min(self.left_after(j_hi) + 1e-13 * self.mass, math.inf if r >= 1
                   else self.upto(j_hi)[-1] * r * (j_hi + 1.0) / j_hi / (1 - r))

    def log_den(self, a, b):
        """log((j + a) B(j + a, b)) over j, kept like the coefficients."""
        den = self._den.get((a, b))
        if den is None:
            den = self._den.setdefault((a, b), _Sequence(
                lambda j: np.log(j + a) + ser.log_beta(j + a, b)))
        return den


def _poisson_coefs(phi, w, tol):
    """m_j = sum_s w_s pois(j; phi_s^2/2), the Poisson mixture of the
    noncentral-t CDF series."""
    half_sq = 0.5 * phi ** 2
    return _SeriesCoefs(half_sq, w, lambda j: -sp.gammaln(j + 1.0), tol,
                        np.sum(w))


def _betainc(p, b, x, y):
    """I_x(p, b) per point, from x up to x = 1/2 and as 1 - I_y(b, p) from
    y = 1 - x above it, where x rounds too coarsely to tell nearby points
    apart.  (scipy's betaincc takes about seven times as long.)"""
    out = np.empty_like(x)
    near_one = x > 0.5
    out[~near_one] = sp.betainc(p, b, x[~near_one])
    out[near_one] = 1.0 - sp.betainc(b, p, y[near_one])
    return out


def _beta_series(coefs, a, b, x, y, tol, law):
    """sum_j c_j I_x(j + a, b) per x, certified to tol: I_x falls as j grows,
    so the coefficient mass not yet reached times the next I_x bounds the
    tail.  y = 1 - x, formed directly by the callers, whose x comes near 1.

    A block [j0, j1) needs one betainc per x, the I_{j1} = I_x(j1 + a, b)
    that bounds the tail: the recurrence I_x(c, b) = I_x(c + 1, b) + t_c,
    t_c = x^c y^b / (c B(c, b)), runs down from it, so
    sum_j c_j I_j = I_{j1} sum_j c_j + sum_k t_k sum_{j <= k} c_j, a sum of
    nonnegative terms over one exp table.  I_x rises in x, so no point
    certifies at a rung of the ladder _MIN_TERMS, 2 _MIN_TERMS, ... below
    the one that certifies the block's smallest x: the series climbs to
    that rung first (up to _TERM_BLOCK terms), with one betainc per rung.
    Each point so stops at the rung it would reach climbing alone, from one
    betainc per point per block from that rung on."""
    out = np.zeros_like(x)
    active = np.arange(x.size)
    with np.errstate(divide="ignore"):
        log_x, log_y = np.log(x), np.log(y)

    lowest = np.argsort(x)[:1]          # none when x is empty
    j_hi = _MIN_TERMS
    while 2 * j_hi <= _TERM_BLOCK and np.any(
            _betainc(j_hi + a, b, x[lowest], y[lowest])
            * coefs.left_after(j_hi) > tol):
        j_hi *= 2
    j_done = 0
    while True:
        c = coefs.upto(j_hi)[j_done:]
        k = np.arange(j_done, j_hi) + a
        log_den = coefs.log_den(a, b).upto(j_hi)[j_done:, None]
        end = _betainc(j_hi + a, b, x[active], y[active])
        c_sum, c_cum = c.sum(), np.cumsum(c)
        step = max(1, _TABLE // k.size)      # points per table chunk
        for i in range(0, active.size, step):
            cols = active[i:i + step]
            t = np.multiply.outer(k, log_x[cols])      # log t_c, in place
            t += b * log_y[cols]
            t -= log_den
            out[cols] += c_sum * end[i:i + step] + c_cum @ np.exp(t, out=t)
        active = active[end * coefs.left_after(j_hi) > tol]
        if active.size == 0:
            return out
        j_done = j_hi
        j_hi = min(2 * j_hi, j_hi + _TERM_BLOCK)
        if j_hi > _MAX_J_TERMS:
            raise AccuracyError(
                "%s CDF series exceeded %d terms without certifying "
                "abs_tol=%g" % (law, _MAX_J_TERMS, tol))


def _beta_args(s, log_s, nu):
    """(x, y, log x, log y), x = s/(s + nu) = 1 - y, for s = u (t^2 law) or
    u^2 (signed law), which may over- or underflow: the logs from log s, and
    x and y as the quotients where both are normal floats, else e^{logs}."""
    r = log_s - math.log(nu)
    log_x, log_y = -np.logaddexp(0.0, -r), -np.logaddexp(0.0, r)
    with np.errstate(invalid="ignore"):           # s = inf
        x, y = s / (s + nu), nu / (s + nu)
    far = ~(np.minimum(x, y) >= _TINY)
    x[far], y[far] = np.exp(log_x[far]), np.exp(log_y[far])
    return x, y, log_x, log_y


def _beta_density(parts, b, args, lead, tol, rel_tol):
    """Per part (coefs, a), sum_j c_j x^{j+a-1/2} e^lead / B(j + a, b): the
    Beta(j + a, b) density at x is the CDF recurrence's t_{j+a} times
    (j + a)/(x y), so with lead = log(sqrt(x) y^b dx/du/(x y)) each is the
    u-derivative of its CDF series.  The parts interleave in one exp table
    per block of terms.  The terms' step ratio x (j + a + b)/(j + a) falls
    in j through 1 at the mode j + a = x b/y, so past j_hi each is at most
    the one at j_hi or at the mode beyond it; past a mode of e^690,
    Gamma(c + b)/Gamma(c) <= (c + b)^b and x^j <= e^{-j y} bound it.  A point
    stops once that times ``coefs.tail`` is within tol and rel_tol of the
    first part's partial sum (nonnegative terms; floored at the smallest
    normal float), and rungs where none could merge into the next table."""
    log_x, log_y = np.maximum(args[2], -1e300), args[3]   # x = 0: x^0 = 1
    log_mode = math.log(b) + log_x - log_y
    leads, tops = [], []
    for _, a in parts:
        leads.append(lead + (a - 0.5) * log_x)
        # the largest term, at a mode past j_hi (betaln will do for a bound)
        far = log_mode > math.log(_MIN_TERMS + a)
        j = np.ceil(np.exp(np.minimum(log_mode[far], 690.0)) - a)
        tops.append(np.zeros_like(lead))
        tops[-1][far] = leads[-1][far] + np.where(
            log_mode[far] > 690.0, (a + b) * np.exp(log_y[far]) - sp.gammaln(b)
            + b * (math.log(b) - 1.0 - log_y[far]),
            j * log_x[far] - sp.betaln(j + a, b))
    cols = np.stack([log_x, lead, np.ones_like(lead)])
    outs, live = np.zeros((len(parts), lead.size)), np.ones(lead.size, bool)
    most, j_done, j_hi = np.inf, 0, _MIN_TERMS
    while live.any():
        if j_hi > _MAX_J_TERMS:
            raise AccuracyError(
                "noncentral-t pdf series exceeded %d terms without "
                "certifying abs_tol=%g" % (_MAX_J_TERMS, tol))
        bound = sum(coefs.tail(j_hi) * np.exp(np.where(
            log_mode > math.log(j_hi + a), top, j_hi * log_x + lead_a
            + math.log(j_hi + a) - coefs.log_den(a, b).upto(j_hi + 1)[j_hi]))
            for (coefs, a), lead_a, top in zip(parts, leads, tops))
        if (len(parts) * (2 * j_hi - j_done) > _TERM_BLOCK
                or np.any(live & (bound <= most))):
            j = np.arange(j_done, j_hi, dtype=float)
            rows = np.ones((j.size, len(parts), 3))    # j + a - 1/2, 1, -log B
            for i, (coefs, a) in enumerate(parts):
                rows[:, i, 0] = j + (a - 0.5)
                rows[:, i, 2] = (np.log(j + a)
                                 - coefs.log_den(a, b).upto(j_hi)[j_done:])
            rows = rows.reshape(-1, 3)
            c = [coefs.upto(j_hi)[j_done:] for coefs, _ in parts]
            active = np.flatnonzero(live)
            step = max(1, _TABLE // len(rows))      # points per table chunk
            for at in range(0, active.size, step):
                pts = active[at:at + step]
                t = rows @ cols[:, pts]
                np.exp(t, out=t)  # in place: about 5x faster than a new array
                for i, c_i in enumerate(c):
                    outs[i, pts] += c_i @ t[i::len(parts)]
            # each first-part sum will end below outs[0] + bound
            most = np.maximum(np.minimum(tol, rel_tol * (outs[0] + bound)), _TINY)
            live &= bound > np.maximum(np.minimum(tol, rel_tol * outs[0]), _TINY)
            j_done = j_hi
        j_hi = min(2 * j_hi, j_hi + _TERM_BLOCK)
    return outs


# ----------------------------------------------------------------------
# noncentral-t core: the signed-t law and its fold, the t^2 law
# ----------------------------------------------------------------------

class _NoncentralT:
    """Noncentral t(nu, D/s) mixed over s ~ |N(lam0, 1)| (D >= 0), in the
    pieces that both the signed-t law and its fold, the t^2 law, read.

    The series nodes, s in [s_split, s_hi] with s_split = min(D/20, s_hi)
    so that phi = D/s <= 20, are kept as ``s``, ``w`` and ``phi``, and
    collapse into m_j = E_s[pois(j; phi^2/2)], built on demand and kept:
    the even part of the noncentral-t CDF series (Lenth 1989, AS 243; see
    SignedTMixture).  The draws s < s_split form the ``_ExtremeRule``:
    once D/20 >= s_hi that is the whole window, and the series is empty.
    """

    def __init__(self, nu, root_d, lam0, quad):
        if root_d > _NCT_D_MAX:
            raise ParamError("|delta0| = sqrt(delta) = %g is above the largest "
                             "noncentrality %g" % (root_d, _NCT_D_MAX))
        self.nu, self.quad = nu, quad
        # the mixing mass beyond s_hi stays 1e-3 below abs_tol
        s_hi = ser.sqrt_mixing_upper(lam0, 1e-3 * quad.abs_tol)
        s_split = min(root_d / _NCT_SERIES_PHI_MAX, s_hi)
        # series nodes of s = sqrt(w), w ~ chi2_1(lam0^2), on [s_split, s_hi],
        # weighted by the density phi(s - lam0) + phi(s + lam0)
        mixdens = functools.partial(ser.sqrt_ncchisq1_pdf, lambda0=lam0)
        rule = refine_panels(mixdens, s_split, s_hi, quad,
                             initial_panels=32, split_at=(lam0,))
        s, w = rule.nodes, rule.weights * mixdens(rule.nodes)
        self.s, self.w = s, w
        # nodes rounded onto s = 0 (where lam0 or D/20 is subnormal) weigh
        # nothing; phi = 0 keeps them finite
        self.phi = np.divide(root_d, s, out=np.zeros_like(s), where=s > 0.0)
        self.ext = _ExtremeRule(nu, root_d, lam0, s_split, quad.abs_tol)
        self.m = _poisson_coefs(self.phi, w, quad.abs_tol)

    def pdf(self, args, log_scale, *parts):
        """The pdf series sum_j c_j x^{j+a-1/2} L / B(j + a, nu/2) of each
        part (coefs, a) times e^log_scale, certified 1e-3 below abs_tol and
        rel_tol like the signed CDF: far inside what the s- and v-rules
        share.  The t^2 law passes m_j alone, the signed law also n_j."""
        lead = 0.5 * ((self.nu + 1.0) * args[3] - math.log(self.nu)) + log_scale
        return _beta_density(parts, self.nu / 2.0, args, lead,
                             1e-3 * self.quad.abs_tol, 1e-3 * self.quad.rel_tol)


# ----------------------------------------------------------------------
# t^2 mixture
# ----------------------------------------------------------------------

class TsqMixture(_MixtureLaw):
    """Evaluator of the t0^2 mixture: noncentral t^2(nu, delta/w) over
    w ~ chi2_1(lambda).

    t0^2 is the square of the signed t0 with delta0 = sqrt(delta) and
    lambda0 = sqrt(lambda), so this law is the signed law folded at
    t = sqrt(u), with x = u/(u+nu).  In F(t) - F(-t) the signed law's cdf0
    and n_j terms cancel, leaving sum_j m_j I_x(j+1/2, nu/2), and in
    [f(t) + f(-t)]/(2t) its n_j part cancels, leaving the m_j part over t:
    the law reads only the noncentral-t core.  The CDF series
    takes 1 - x = nu/(u+nu) as formed, not from x.  The slope draws near
    zero, which carry the law's heavy far tail, add the Gaussian-root
    kernel at u on the v-rule.  At delta = 0 only m_0 survives and the law
    is exactly central F(1, nu) for every lambda.
    """

    _block = _SERIES_BLOCK

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
        log_u = np.log(up)
        out[pos] = (self._core.pdf(_beta_args(up, log_u, self.nu), -0.5 * log_u,
                                   (self._core.m, 0.5))[0]
                    + self._core.ext.parts(up, want_pdf=True))
        return out

    def _cdf(self, u):
        out = np.zeros_like(u)
        pos = u > 0
        up = u[pos]
        out[pos] = (self._core.ext.parts(up, want_pdf=False)
                    + _beta_series(self._core.m, 0.5, self.nu / 2.0,
                                   up / (up + self.nu), self.nu / (up + self.nu),
                                   self.quad.abs_tol, "t^2 mixture"))
        return out

    def _start(self, prob):
        """t0^2 is stochastically no smaller than central F(1, nu): start at
        the log of that law's quantile."""
        return _log(float(sp.fdtri(1.0, self.nu, prob)))


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

    To the noncentral-t core's m_j the law adds, over the same series
    nodes, cdf0 = E_s[Phi(-phi)] and, built on demand and kept,
    n_j = E_s[phi e^{-phi^2/2} (phi^2/2)^j / (sqrt(2) Gamma(j+3/2))].  With
    x = u^2/(u^2+nu) = 1 - y and L = y^{(nu+1)/2}/sqrt(nu), the nodes' CDF
    is cdf0 + sgn(u)/2 sum_j m_j I_x(j+1/2, nu/2) + 1/2 sum_j n_j I_x(j+1,
    nu/2) (Lenth 1989, AS 243), and their pdf, its derivative in u,
    sum_j x^j L [m_j / B(j + 1/2, nu/2) + sgn(u) sqrt(x) n_j / B(j + 1, nu/2)].
    The CDF series take 1 - x = nu/(u^2+nu) as formed: far out, x itself
    rounds to a few values near 1, which quantized the CDF; past |u| ~
    1.3e154, where u^2 overflows, x and 1 - x come from log|u|.  Draws of
    larger noncentrality (s near 0) add the Gaussian-root t^2 kernel at u^2
    for u > 0, on the shared v-rule.  Negative delta0 mirrors the law.
    """

    _block = _SERIES_BLOCK

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
        core = self._core = _NoncentralT(self.nu, self._d0, self.lambda0, quad)
        phi, w = core.phi, core.w
        self._cdf0 = float(w @ sp.ndtr(-phi))
        self._n = _SeriesCoefs(0.5 * phi ** 2, w * phi / math.sqrt(2.0),
                               lambda j: -sp.gammaln(j + 1.5), quad.abs_tol,
                               w @ sp.erf(phi / math.sqrt(2.0)))

    def _args(self, u):      # (x, y, log x, log y) at s = u^2
        with np.errstate(over="ignore", divide="ignore"):
            return _beta_args(u * u, 2.0 * np.log(np.abs(u)), self.nu)

    def _pdf_base(self, u):
        """pdf of the law with noncentrality |delta0| (pre-mirror)."""
        even, odd = self._core.pdf(self._args(u), 0.0, (self._core.m, 0.5),
                                   (self._n, 1.0))
        out = np.maximum(even + np.sign(u) * odd, 0.0)    # rounding at u < 0
        up = np.clip(u[u > 0], 1e-154, 1e154)
        out[u > 0] += 2.0 * up * self._core.ext.parts(up * up, want_pdf=True)
        return out

    def _cdf_base(self, u):
        """CDF of the law with noncentrality |delta0| (pre-mirror)."""
        nu, core = self.nu, self._core
        # phi <= 20 keeps both series short, so certifying them 1e-3 below
        # abs_tol is cheap; it holds interval probabilities to the t^2
        # route far inside abs_tol
        tol = 1e-3 * self.quad.abs_tol
        # 1 - x formed on its own: far out x rounds to a few values near 1
        x, y, _, _ = self._args(u)
        out = (self._cdf0
               + 0.5 * np.sign(u) * _beta_series(core.m, 0.5, nu / 2.0, x, y,
                                                 tol, "signed-t")
               + 0.5 * _beta_series(self._n, 1.0, nu / 2.0, x, y, tol,
                                    "signed-t"))
        # u^2 kept a normal float: below 1e-308 no extreme draw reaches it,
        # and P[t0^2 > 1e308] is far below abs_tol
        up = np.clip(u[u > 0], 1e-154, 1e154)
        out[u > 0] += core.ext.parts(up * up, want_pdf=False)
        return out

    def _pdf(self, u):
        return self._pdf_base(-u if self._mirror else u)

    def _cdf(self, u):
        if self._mirror:
            return 1.0 - self._cdf_base(-u)
        return self._cdf_base(u)

    _line = (0.0, 1.0)

    def _start(self, prob):
        """The central t quantile shifted by delta0."""
        return math.asinh(float(sp.stdtrit(self.nu, prob)) + self.delta0)


def signed_t_mixture(nu: int, delta0: float, lambda0: float,
                     quad: QuadSpec = QuadSpec()) -> SignedTMixture:
    """Evaluator of the signed t0 mixture law."""
    return SignedTMixture(nu, delta0, lambda0, quad)

