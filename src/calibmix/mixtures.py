"""The four mixture laws of calibrated summary statistics.

* MeanMixture: law of the calibrated sample mean; a translation-scale mixture
  of N(beta0 + t mu_z, t^2 sigma_z^2/n + sigma0^2) over t ~ N(beta1, sigma1^2).
* VarianceMixture: law of u = nu S_Y^2/(sigma1^2 sigma_z^2) = W V with
  W ~ chi2_1(lambda) from the slope, mixed over V ~ chi2_nu.
* TsqMixture: law of t0^2; noncentral t^2(nu, delta/w) mixed over
  w ~ chi2_1(lambda).
* SignedTMixture: law of t0; noncentral t(nu, delta0/s) mixed over
  s = sqrt(w) ~ |N(lambda0, 1)|.  With delta0 = sqrt(delta) and
  lambda0 = sqrt(lambda), t0^2 is its square, so both laws subclass one
  noncentral-t base, ``_NoncentralT``, and the t^2 law is the signed fold.

Every law is a weighted set of mixing nodes plus a conditional pdf/CDF kernel
pair, on Gauss-Legendre panels over analytically bounded windows; the mean
and variance laws are one certified rule plus a closed-form kernel pair,
each over a standardized coordinate (the slope in its sds; z =
sqrt(nu/2) log(V/nu)), whose float grid depends on no unit or spread.
CDFs mix the conditional CDFs over the same nodes, which equals integrating
the mixture pdf from the support edge (Tonelli) but stays smooth where
near-degenerate mixing components make the pointwise pdf too spiky to
quadrate.  The noncentral-t base weights its nodes in s = sqrt(w) by
phi(s - lambda0) + phi(s + lambda0) and collapses them into series
coefficients once per evaluator, each kept with the Beta indices it is
summed at, so each evaluation is one series in j.
Series start from one fixed minimum term count, then escalate until a
computable tail bound drops below abs_tol; exceeding the hard cap raises
AccuracyError, never truncating silently.

With delta > 0 the t^2 / signed-t laws have genuinely heavy far tails (slope
draws near zero inflate the conditional noncentrality, and
P[t0^2 > T] decays only like 1/sqrt(T)).  Slope draws with noncentralities
phi = D/s beyond the series budget are evaluated through one exact kernel
of the base, the Gaussian-root identity u = nu (g + phi)^2 / W, smooth at
any parameter point where the series would need j ~ phi^2 terms.  (s, g)
enter it only through v = g + D/s, so those draws collapse to one weighted
rule in v, whose nodes are placed once per evaluator and whose weights are
computed on demand, only as far in v as the reads reach; it and the
variance law read their chi2_nu factor's closed forms from ``_GammaKernel``.
The signed law reads that t^2 kernel at u^2: its extreme draws put less
than Phi(-20) of their mass below 0.
The incomplete-beta CDF series run by recurrence from one I_x per point per
block of terms, from the rung that certifies the block's smallest x: a
finite sum at whole nu/2 up to 32 in blocks of at least 4 nu points, scipy's
betainc elsewhere.  Their derivatives sum one exp table per block of terms.
The v-rule sums each series block in runs of points bounded in log u by
its kernel's edge width.  Every law evaluates its points in fixed blocks,
and each block finishes its node x point or term x point table in place,
so memory stays bounded whatever the grid size.  The CDF and pdf series
build each term x point table alike, as one (terms x 3) @ (3 x points)
product of affine exponents (``_term_table``).  The mean, variance and
v-rules share one sum (``_NodeSum``): a block sums its kernel only on the
node rows that closed-form tail bounds do not hold within 1e-3 abs_tol /
(the rule's mixing mass) of 0 or 1 over the block, and counts a CDF row
held near 1 as its weight, so each value moves by at most 1e-3 abs_tol.
The mean and variance laws keep, as their nodes, the per-node constants
their kernels read (t mu_z, sd(t) and sd(t) sqrt(2 pi); V), formed once
per law, and a block reads those of its band rows.  The blocks, fixed by
the input alone, run on the calling thread and the process's block
workers through ``parallel.thread_map`` (the Monte Carlo engine's helper
too), so the tables are the same bits on any CPU count.
"""

from __future__ import annotations

import functools
import math
import sys
import threading

import numpy as np
from scipy import special as sp

from .errors import AccuracyError, ParamError, require_finite
from .model import MixtureParams
from .quadrature import (_MAX_PANELS, QuadSpec, _leggauss, bisect_cdf,
                         gauss_legendre_nodes, refine_panels)
from . import special as ser
from .parallel import thread_map

_Z_SUPPORT = 8.5       # Gaussian component half-width; Phi(-8.5) ~ 1e-17
_MAX_J_TERMS = 120_000
_MIN_TERMS = 20              # first block of every noncentral-t series
_NCT_SERIES_PHI_MAX = 20.0   # beyond this the Gaussian-root kernel takes over
# the largest D = |delta0| = sqrt(delta): the v-rule squares D/s down to
# s ~ 1e-14, and the t^2 quantiles, of order D^2/s^2, must stay floats
_NCT_D_MAX = 1e100
# the largest lambda0 = sqrt(lambda), per unit of abs_tol: the s-rule's
# nodes near lambda0 round to its float spacing, which moves the rule's
# mass by about 0.01 of that spacing (2e-18 lambda0; at most 0.52 abs_tol
# up to this bound on an eighth-decade lambda scan at abs_tol 1e-11 to 1e-5)
_NCT_LAM0_PER_TOL = 1e17
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
# log of the smallest positive and of the largest double: the quantile
# grids stay where u is a float
_LOG_TINY = math.log(5e-324)
_LOG_MAX = math.log(sys.float_info.max)


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
        f_lo, f_hi = self.cdf([lo, hi])
        return float(f_hi - f_lo)

    def ppf(self, prob):
        """Quantiles at the probabilities in (0, 1), solved by ``_invert``:
        within its tolerances of where the computed CDF crosses p, or a
        point whose CDF reads within 2^-52 of p where that CDF rounds to a
        staircase wider than them, or the end of the float range of u
        where the computed CDF does not reach p within it."""
        p = np.asarray(prob, dtype=float)
        if not np.all((p > 0.0) & (p < 1.0)):
            raise ParamError("probability must be in (0, 1), got %r" % (prob,))
        u = self._invert(p.ravel(), prob)
        return float(u[0]) if p.ndim == 0 else u.reshape(p.shape)

    def _invert(self, probs, prob):
        """The abscissae within 1e-8 of where the CDF crosses each of
        ``probs``, with x within 1e-10: on [0, inf) u within 1e-10 of itself,
        and on the line within 1e-10 c cosh(x), so that the CDF holds at
        small quantiles and where a narrow law's pdf is large.  Where the
        computed CDF rounds to a staircase wider than that, the solve stops
        between two of its steps (see ``quadrature.bisect_cdf``).

        Every probability is solved at once, one vector CDF call a round.
        The first call evaluates 5 points around each ``_start(p)``, looking
        for a bracket of p, spaced fourfold in u on [0, inf) and by log(4)/8
        in x on the line.  On a miss the next grid of that p starts at this
        one's far end and is twice as wide, so a quantile at distance d from
        its start takes O(log d) calls.  The grids stay where u is a float:
        x within [log(5e-324), log(max)] on [0, inf), and |x| <= log(max) -
        log(max(c, 1)) on the line.  Where the computed CDF does not reach p
        at that range's end (say, p = 1 - 2^-53 on a CDF that reads 1 - 2^-52
        at u = 1.8e308, or p = 5e-324 on a CDF above it at the smallest u),
        the quantile is that end.  ``quadrature.bisect_cdf`` then solves the
        others in x, where such CDFs are close to probit-linear, from the
        grid points (see there: about three rounds, at most _ITP_SLACK
        beyond bisection's count).  A failure names the law, ``prob`` and
        the stage."""
        if self._line is None:
            u, step = np.exp, _LOG4
            x_lo, x_hi = _LOG_TINY, _LOG_MAX
        else:
            m, c = self._line
            u, step = (lambda x: m + c * np.sinh(x)), _LOG4 / 8.0
            x_hi = _LOG_MAX - math.log(max(c, 1.0))
            x_lo = -x_hi

        def cdf(x):
            with np.errstate(over="ignore"):    # m + c sinh(x) at |m| ~ max
                return self.cdf(u(x))

        first, last = x_lo - step * _GRID[0], x_hi - step * _GRID[-1]
        x = np.add.outer([min(max(self._start(p), first), last)
                          for p in probs], step * _GRID)
        try:
            f = cdf(x)
            below = np.count_nonzero(f < probs[:, None], axis=1)
            # within a few dozen grids an end reaches the end of the range,
            # where a grid that still misses stops
            while True:
                miss = np.flatnonzero(((below == 0) & (x[:, 0] > x_lo)) | (
                    (below == _GRID.size) & (x[:, -1] < x_hi)))
                if not miss.size:
                    break
                g = x[miss]
                x[miss] = np.minimum(np.maximum(np.where(
                    below[miss, None] > 0, g[:, -1:] + 2.0 * (g - g[:, :1]),
                    g[:, :1] + 2.0 * (g - g[:, -1:])), x_lo), x_hi)
                f[miss] = cdf(x[miss])
                below[miss] = np.count_nonzero(f[miss] < probs[miss, None],
                                               axis=1)
        except AccuracyError as exc:
            raise self._failed(prob, "ppf bracket", exc) from exc
        out = np.where(below == 0, x_lo, x_hi)    # the misses' quantiles
        rows = np.flatnonzero((below > 0) & (below < _GRID.size))
        lo, hi = x[rows, below[rows] - 1], x[rows, below[rows]]
        # du/dx is at most u_hi or c cosh(max |x|) on the bracket
        slope = np.exp(hi) if self._line is None else c * np.cosh(
            np.maximum(-lo, hi))
        try:
            # xtol = min(1e-8 / slope, 1e-10), which a slope of 5e-324
            # would overflow
            out[rows] = bisect_cdf(cdf, probs[rows], x[rows], fx=f[rows],
                                   xtol=1e-8 / np.maximum(slope, 100.0))
        except AccuracyError as exc:
            raise self._failed(prob, "ppf solve", exc) from exc
        return u(out)

    def _failed(self, prob, stage, exc):
        return AccuracyError("%r: %s at prob=%r: %s" % (self, stage, prob, exc))


# ----------------------------------------------------------------------
# one refined rule plus a kernel pair: the mean and variance laws
# ----------------------------------------------------------------------

_PROBE_POINTS = 40
# the mean law's slope window is beta1 +/- _SLOPE_SIGMAS sigma1: the
# Gaussian mass beyond it, 2 Phi(-10) ~ 1.5e-23, is far below any abs_tol
_SLOPE_SIGMAS = 10.0
# blocks from _SKIP_FROM points sum only the node rows whose kernels are not
# within 1e-3 abs_tol / sum(w) of a constant over the block (_NodeSum._sum)
_SKIP_FROM = 64
# the variance law's largest lambda0 = sqrt(lambda), per unit of abs_tol:
# W's sd is 2 lambda0, so its CDF rises by about 0.2 eps lambda0 between
# adjacent floats of u, and the kernel's r - lambda0 rounds by about as
# much (up to 6e-17 lambda0 seen at nu = 1, 10, 1000)
_VAR_LAM0_PER_TOL = 1e15
# below r = sqrt(u/V) = _VAR_SERIES_R / max(1, lambda0) the variance law's CDF
# kernel Phi(r - lambda0) - Phi(-r - lambda0) = int_{-r}^{r} phi(t - lambda0) dt
# cancels, and is 2 phi(lambda0) r (1 + (lambda0^2 - 1) r^2/6) instead: the
# next term of that series is below 1e-32 of it
_VAR_SERIES_R = 1e-8


class _NodeSum:
    """Weighted nodes ``_x``, ``_w`` carrying the mixing mass ``_mass``, and
    a conditional kernel pair ``_kernel(x, u, want_pdf)`` (pdf or CDF, shape
    (len(x), len(u))) of an argument ``_argument(x, u)`` that rises with u,
    summed by ``_sum``: the rule laws and the noncentral-t v-rule.  ``_x``
    is what the kernels read."""

    _skip_from = 0            # blocks of fewer points sum every row
    _block_doubles = _TABLE   # the most doubles in one kernel table

    @functools.cached_property
    def _skip_edges(self):
        """(CDF edges, pdf edges): ``_edges(d)`` at d = 1e-3 abs_tol /
        _mass, computed once per law.  d stops at 0.5 (abs_tol past about
        500), past which the CDF edges would cross."""
        return self._edges(min(1e-3 * self.quad.abs_tol / self._mass, 0.5))

    def _sum(self, u, want_pdf):
        """w @ kernel(x, u), summing the kernel only on the band of node
        rows that are not within d = 1e-3 abs_tol / _mass of a constant
        over [min u, max u].

        A row's arguments over the block lie between its values at the
        block's two ends.  ``_edges(d)`` gives, once per law
        (``_skip_edges``), the edges past which closed-form tail bounds
        hold a kernel within d of 0 or 1: a pdf row past either edge, and
        a CDF row below its lower edge, is dropped; a CDF row above its
        upper edge counts as its weight.  Every value then moves by at most
        sum(w) d <= 1e-3 abs_tol, and a CDF on sorted points stays
        nondecreasing up to the rounding of its sum (a row only ever leaves
        the band upward, but a sum over other rows rounds differently).
        The band is summed in tables of at most _block_doubles doubles.
        Rows are selected by index: scipy.special ufuncs called with
        ``where=`` segfault with numpy 2.4.6 and scipy 1.17.1.  The weights
        ``_w`` may cover a prefix of the nodes ``_x`` only (the v-rule
        weights its nodes on demand, on other threads too): the sum reads
        ``_w`` once and the nodes it weights."""
        w = self._w
        x = self._x[:w.size]
        if u.size < self._skip_from:
            return w @ self._kernel(x, u, want_pdf)
        lo, hi = self._argument(x, np.array([np.min(u), np.max(u)])).T
        low, high = self._skip_edges[want_pdf]
        past = lo >= high
        band = np.flatnonzero(~(past | (hi <= low)))
        out = np.full_like(u, 0.0 if want_pdf else w[past].sum())
        step = max(1, self._block_doubles // u.size)
        for i in range(0, band.size, step):
            rows = band[i:i + step]
            out += w[rows] @ self._kernel(x[rows], u, want_pdf)
        return out


class _RuleLaw(_NodeSum, _MixtureLaw):
    """One Gauss rule in the mixing variable x, built by local subdivision
    (``refine_panels``) and certified on the mixing mass, on the CDF at
    probe points ``cdf_u`` and on the pdf at ``pdf_u``, plus the law's
    ``_mixing_pdf(x)``, ``_window`` and ``_NodeSum`` kernels.  The
    integrand is mixing_pdf(x) times [1 | CDF kernels | pdf kernels], so
    that ``refine_panels`` sums the mass and each probe per panel; each
    pdf probe holds to abs_tol or to rel_tol of itself.  The row-skip edges
    come at the first block of _SKIP_FROM points, so that scalar and
    ``ppf`` calls alone never pay for them.  The rule's nodes are kept as
    the per-node constants its kernels read (``_constants``: records for
    the mean law, V for the variance law), formed once per law; the
    integrand forms them for each panel's nodes."""

    _skip_from = _SKIP_FROM

    def _refine(self, anchors, cdf_u, pdf_u):
        def integrand(x):
            rows = self._constants(x)
            return self._mixing_pdf(x)[:, None] * np.hstack([
                np.ones((x.size, 1)), self._kernel(rows, cdf_u, False),
                self._kernel(rows, pdf_u, True)])

        rule = refine_panels(integrand, *self._window, self.quad,
                             split_at=tuple(anchors))
        self._x = self._constants(rule.nodes)
        self._w = rule.weights * self._mixing_pdf(rule.nodes)
        self._mass = float(self._w.sum())
        self._block = min(_POINT_BLOCK, _BLOCK_SIZE // self._x.size)
        self._block_doubles = self._block * self._x.size

    def _pdf(self, u):
        return self._sum(u, True)

    def _cdf(self, u):
        return self._sum(u, False)


def sharpness(p: MixtureParams) -> float:
    """min_t sd(t) / (|mu_z| sigma1) over the mean law's slope window: how
    narrow, in slope sds, its sharpest conditional CDF turns over in t
    (inf at mu_z = 0, and where |mu_z| sigma1 underflows to 0 or the ratio
    overflows)."""
    t = max(abs(p.beta1) - _SLOPE_SIGMAS * p.sigma1, 0.0)
    sd = math.sqrt(t * t * p.sigma_z ** 2 / p.n + p.sigma0 ** 2)
    # a Python float: numpy warns where sd / scale overflows to inf
    scale = float(abs(p.mu_z) * p.sigma1)
    return sd / scale if scale else math.inf


class MeanMixture(_RuleLaw):
    """Density/CDF evaluator of the calibrated sample mean beta0 + T X +
    sigma0 E, T ~ N(beta1, sigma1^2), X ~ N(mu_z, sigma_z^2/n): given
    T = t it is N(beta0 + t mu_z, t^2 sigma_z^2/n + sigma0^2), and given X
    the same kernel with (beta1, sigma1) and (mu_z, sigma_z/sqrt(n))
    swapped (Craig 1936).  The rule mixes over the factor of the larger
    ``sharpness`` (its parameters ``_mix``), in its sds y, t = c + sigma1 y,
    on y0 +/- k with density phi(y - y0), so a window of any width holds
    enough doubles.  c is beta1, or 0 where the window beta1 +/- k sigma1
    holds 0: there beta1 + sigma1 y would resolve t near 0 only to
    eps |beta1|.  Near t = 0 the component scale shrinks to sigma0, so that
    window is split at t = 0 and graded by anchors at t = +/-10^k, stepping
    toward 0 by decades while t is above sigma0 sqrt(n)/sigma_z and the
    mixing mass on [-t, t] (at most 2t/sigma1 times its peak density)
    exceeds 1e-3 abs_tol; the probes add mean(t) +/- 2 sd(t) at each
    anchor.  The pdf is probed at the same points but beta0, infinite at
    sigma0 = 0 when both windows hold 0."""

    def __init__(self, params: MixtureParams, quad: QuadSpec = QuadSpec()):
        if params.ideal:
            raise ParamError("ideal-mode parameters make the mean law degenerate")
        self.params = p = params
        self.quad = quad
        r = math.sqrt(p.n)
        try:        # the law given X; its var_y (to n times p's) may overflow
            x = MixtureParams(p.n, p.beta0, p.sigma0, mu_z=p.beta1,
                              sigma_z=p.sigma1 * r, beta1=p.mu_z,
                              sigma1=p.sigma_z / r)
        except ParamError:
            x = p
        if sharpness(x) > sharpness(p):
            p = x
        self._mix = p
        k = _SLOPE_SIGMAS
        # c = 0 exactly where the window holds 0 (elsewhere |beta1| > 0)
        self._c = 0.0 if abs(p.beta1) < k * p.sigma1 else p.beta1
        y0 = self._y0 = (p.beta1 - self._c) / p.sigma1
        self._window = (y0 - k, y0 + k)
        anchors = [] if self._c else [0.0]
        y = 10.0 ** math.floor(math.log10(abs(p.beta1) + k * p.sigma1))
        y /= p.sigma1
        while anchors and y * p.sigma1 > p.sigma0 * r / p.sigma_z and (
                2.0 * y * self._mixing_pdf(min(max(y0, -y), y))
                > 1e-3 * quad.abs_tol):
            anchors += [-y, y]
            y /= 10.0
        mean, sd = self._conditional(np.array(anchors))
        u_lo, u_hi = self.support()
        probe_u = np.unique(np.concatenate([
            np.linspace(u_lo, u_hi, _PROBE_POINTS),
            mean - 2.0 * sd, mean + 2.0 * sd]))
        self._refine(anchors, probe_u, probe_u[probe_u != p.beta0])
        self._line = (params.mu_y, math.sqrt(params.var_ybar))

    def _mixing_pdf(self, y):
        z = np.asarray(y, dtype=float) - self._y0
        return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    def _conditional(self, y):
        """Mean and sd of the Gaussian component at slope t = c + sigma1 y."""
        p = self._mix
        t = self._c + p.sigma1 * y
        sd = np.sqrt(t ** 2 * p.sigma_z ** 2 / p.n + p.sigma0 ** 2)
        return p.beta0 + t * p.mu_z, sd

    _NODE = np.dtype([("shift", float), ("sd", float), ("scale", float)])

    def _constants(self, y):
        """What the kernels read of nodes y, as records: t mu_z, sd(t) and
        sd(t) sqrt(2 pi), t = c + sigma1 y."""
        p = self._mix
        rows = np.empty(y.shape, self._NODE)
        rows["shift"] = (self._c + p.sigma1 * y) * p.mu_z
        rows["sd"] = self._conditional(y)[1]
        rows["scale"] = rows["sd"] * math.sqrt(2.0 * math.pi)
        return rows

    def _argument(self, rows, u):
        """z = (u - mean(t)) / sd(t), node x point."""
        # u - beta0 first: exact near beta0, where sigma0 = 0 puts a spike
        z = np.subtract((u - self._mix.beta0)[None, :], rows["shift"][:, None])
        z /= rows["sd"][:, None]
        return z

    def _kernel(self, rows, u, want_pdf):
        # z is the block's one node x point array; the kernel finishes in it
        z = self._argument(rows, u)
        if not want_pdf:
            return sp.ndtr(z, out=z)
        with np.errstate(over="ignore"):    # |z| past 1e154: the pdf is 0
            z *= z
        z *= -0.5
        np.exp(z, out=z)
        z /= rows["scale"][:, None]
        return z

    def _edges(self, d):
        """Phi(z) <= d at z <= -A and 1 - Phi(z) <= d at z >= A, with
        A = -ndtri(d); phi(z) / sd_k <= d at |z| >= A_k, with
        A_k = sqrt(-2 log(d sd_k sqrt(2 pi))) (0 where that is negative)."""
        a = -float(sp.ndtri(d))
        sd = self._x["sd"]
        with np.errstate(divide="ignore"):
            a_k = np.sqrt(np.maximum(
                0.0, -2.0 * np.log(d * math.sqrt(2.0 * math.pi) * sd)))
        return (-a, a), (-a_k, a_k)

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


# largest m = nu/2 whose Q takes the finite sums: 0.8 ns per term and
# entry against gammaincc's 200-290 ns per entry cross near m = 300
_Q_SUM_MAX = 256
# from m = nu/2 = _EXPM1_SERIES_M, expm1(w) - w takes its Taylor series
# w^2/2! + ... + w^12/12! at |w| <= 0.25 (the next term is below 1e-16 of
# the sum there): plain, it rounds by eps |w|, which m multiplies to eps
# sqrt(m) per sd of w, and the variance rule refines on that noise at the
# floor from nu ~ 1e13.  Below, the v-rule's pdf tables skip the series.
_EXPM1_SERIES_M = 1e6
_EXPM1_SERIES_W = 0.25
_EXPM1_COEFS = [1.0 / math.factorial(k) for k in range(12, 1, -1)]


class _GammaKernel:
    """The chi2_nu factor of the variance law and the v-rule as y ~ Gamma(m),
    m = nu/2: the log density of w = log(y/m), Q(m, y), quantiles and edges.
    w's density y^m e^{-y}/Gamma(m) is 1/2 log m - log(2 pi)/2 - R(m) -
    m (expm1(w) - w), R Stirling's remainder (DLMF 5.11), so no term of
    order m log m cancels; it rounds by about eps sqrt(m) per sd of w, and
    from m = _EXPM1_SERIES_M, where expm1(w) - w takes its Taylor series
    near 0, by about eps per sd of w."""

    def __init__(self, nu):
        self.m = 0.5 * nu
        self._log_peak = (0.5 * math.log(self.m) - ser._HALF_LOG_2PI
                          - float(ser._stirling_remainder(self.m)))
        # y with P[Y < y] = p, and with P[Y > y] = p
        self.quantile = functools.partial(sp.gammaincinv, self.m)
        self.isf = functools.partial(sp.gammainccinv, self.m)

    def log_pdf(self, w):
        d = np.expm1(w) - w
        if self.m >= _EXPM1_SERIES_M:
            near = np.abs(w) <= _EXPM1_SERIES_W
            wn = w[near]
            series = np.zeros_like(wn)
            for c in _EXPM1_COEFS:
                series *= wn
                series += c
            d[near] = series * wn * wn
        return self._log_peak - self.m * d

    def upper(self, y):
        """Q(m, y) in y's place: e^{-y} sum_{i<m} y^i/i! at whole m, erfc(sqrt
        y) + e^{-y} sum_{i=1}^{k} y^{i-1/2}/Gamma(i + 1/2) at k + 1/2 (DLMF
        8.4), by Horner at y clipped to 1e3 (Q < 1e-170 there): within 5e-15
        of gammaincc and cheaper at whole 2m, m <= _Q_SUM_MAX; else gammaincc."""
        a = self.m
        k = math.floor(a)
        if a > _Q_SUM_MAX or 2.0 * a != math.floor(2.0 * a):
            return sp.gammaincc(a, y, out=y)
        half = a - k
        np.minimum(y, 1e3, out=y)
        if half and k == 0:
            return sp.erfc(np.sqrt(y, out=y), out=y)
        s = np.ones_like(y)
        for i in range(k - 1, 0, -1):     # 1 + y/(i + half) (1 + ...)
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

    def log_edges(self, d):
        """(log y_1, log y_2), (log y_3, log y_4): 1 - Q(m, y) <= d at y <=
        y_1, Q <= d at y >= y_2, and y^m e^{-y}/Gamma(m) = d/2 at y_3 < y_4,
        -m W_k(z), z = -e^{(log(d/2) + lgamma(m))/m}/m, on the Lambert W
        branches 0 and -1 (z above -1/e: scipy's W is NaN at its double)."""
        m = self.m
        z = max(-math.exp((math.log(0.5 * d) + math.lgamma(m)) / m
                          - math.log(m)), np.nextafter(-1.0 / math.e, 0.0))
        y_lo, y_hi = -m * sp.lambertw(z, [0, -1]).real
        return ((math.log(self.quantile(d)), math.log(self.isf(d))),
                (math.log(y_lo), math.log(y_hi)))


class VarianceMixture(_RuleLaw):
    """Evaluator of u = nu S_Y^2 / (sigma1^2 sigma_z^2) = W V (mean
    nu (1 + lambda)), mixed over z = sqrt(a) log(V / 2a), a = nu/2, between
    V's 1e-16 and 1 - 1e-16 quantiles, graded toward u = 0 by edges at its
    1e-8, 1e-3 and 0.5 quantiles, all read from ``_GammaKernel``.  z is
    affine in log V and near N(0, 1) at large nu.  The kernels
    are W's closed forms at u/V: F(u) = E_V[Phi(r - lambda0) - Phi(-r -
    lambda0)], r = sqrt(u/V) (its series in r where that cancels, below
    _VAR_SERIES_R), and f(u) = E_V[f_W(u/V)/V]."""

    def __init__(self, nu: int, lam: float, quad: QuadSpec = QuadSpec()):
        require_finite(nu=nu, lam=lam)
        if nu < 1:
            raise ParamError("nu must be >= 1")
        if lam < 0:
            raise ParamError("lambda must be nonnegative")
        if math.sqrt(lam) > _VAR_LAM0_PER_TOL * quad.abs_tol:
            raise ParamError("lambda = %g is above the variance law's largest "
                             "noncentrality %g (sqrt(lambda) <= 1e15 abs_tol)"
                             % (lam, (_VAR_LAM0_PER_TOL * quad.abs_tol) ** 2))
        self.nu = float(nu)
        self.lam = float(lam)
        self.quad = quad
        gamma = self._gamma = _GammaKernel(nu)
        a = gamma.m
        q = gamma.quantile([1e-16, 1e-8, 1e-3, 0.5])
        lo, *anchors = math.sqrt(a) * np.log(q / a)
        self._window = (lo, math.sqrt(a) * math.log(gamma.isf(1e-16) / a))
        # probes from the window's lower end up: a probe's kernel turns over
        # near V = u / W, so each part of the window meets some probe
        # (at nu = 1 the CDF there still rises like sqrt(u), far above
        # abs_tol).  Where the CDF is below abs_tol, only the pdf probes
        # see the window's lower end.
        probe_u = np.geomspace(2.0 * q[0], self.support()[1], _PROBE_POINTS)
        self._refine(anchors, probe_u, probe_u)

    def _mixing_pdf(self, z):
        """Density of z = sqrt(a) w: that of w = log(V / 2a) over sqrt(a)."""
        a = self._gamma.m
        return np.exp(self._gamma.log_pdf(z / math.sqrt(a)) - 0.5 * math.log(a))

    def _v(self, z):
        """V = 2a e^w = nu e^w at the rule's coordinate z."""
        return self.nu * np.exp(np.asarray(z) / math.sqrt(self._gamma.m))

    _constants = _v     # what the kernels read of nodes z: V itself

    def _root(self, v, u):
        """r = sqrt(u/V) (0 at u <= 0), node x point, as both kernels form it."""
        # u/V past the largest float (u near it, V < 1) is inf, where both
        # kernels read their limits, CDF 1 and pdf 0
        with np.errstate(over="ignore"):
            r = np.divide(np.clip(u, 0.0, None)[None, :], v[:, None])
        return np.sqrt(r, out=r)

    def _argument(self, v, u):
        """r - lambda0, node x point."""
        r = self._root(v, u)
        r -= math.sqrt(self.lam)
        return r

    def _kernel(self, v, u, want_pdf):
        if want_pdf:
            with np.errstate(over="ignore"):    # as in _root: the pdf is 0
                w = u[None, :] / v[:, None]
            out = ser.nc_chisq1_pdf(w, self.lam, overwrite_w=True)
            out /= v[:, None]
            return out
        # r = sqrt(u/V) once per block; both tails finish in place
        r = self._root(v, u)
        lam0 = math.sqrt(self.lam)
        # below r = cut the tails' difference cancels, and K takes its
        # series in r instead (checked on u, so that blocks that cannot
        # reach it pay nothing)
        cut = _VAR_SERIES_R / max(1.0, lam0)
        small = None
        v_max = np.max(v, initial=0.0)
        if np.min(u, initial=np.inf) < cut * cut * v_max:
            small = r < cut
            r_small = r[small]
        below = np.negative(r)
        below -= lam0
        r -= lam0
        sp.ndtr(r, out=r)
        r -= sp.ndtr(below, out=below)
        if small is not None:
            r[small] = (2.0 * math.exp(-0.5 * self.lam) / math.sqrt(2.0 * math.pi)
                        * r_small * (1.0 + (self.lam - 1.0) / 6.0 * r_small ** 2))
        return r

    def _edges(self, d):
        """With a = r - lambda0, the CDF kernel K = Phi(a) - Phi(-r -
        lambda0) is at most Phi(a), and 1 - K at most 2 Phi(-a): K <= d at
        a <= ndtri(d) and 1 - K <= d at a >= -ndtri(d/2).  For a > 0 the
        pdf kernel [phi(a) + phi(r + lambda0)] / (2 r V_k) is at most
        phi(a) / (a V_k), which falls to d at a = A_k; the pdf has no lower
        edge, as it is unbounded where u/V -> 0.  A_k^2 solves
        y + log y = 2 c_k, c_k = -log(d V_k sqrt(2 pi)), so it is
        W(e^(2 c_k)), W the Lambert function (2 c_k is at most about 220:
        d >= 1e-14 / sum(w) and V_k >= 1e-32)."""
        c = -np.log(d * math.sqrt(2.0 * math.pi) * self._x)
        return ((float(sp.ndtri(d)), -float(sp.ndtri(0.5 * d))),
                (-np.inf, np.sqrt(sp.lambertw(np.exp(2.0 * c)).real)))

    def support(self):
        w_hi = ser.sqrt_mixing_upper(math.sqrt(self.lam),
                                     1e-3 * self.quad.abs_tol) ** 2
        return 0.0, float(self._v(self._window[1])) * w_hi

    def _start(self, prob):
        """log of the quantile of c chi2_k, the scaled chi-square with the
        mean m = nu (1 + lambda) and the variance of u = W V (Satterthwaite
        1946), 2 nu [(nu + 2)(1 + 2 lambda) + (1 + lambda)^2], in a form
        that neither cancels nor overflows."""
        nu, lam = self.nu, self.lam
        c = 2.0 * ((nu + 2.0) * (1.0 + 2.0 * lam) / (1.0 + lam) + 1.0 + lam)
        return _log(c * float(sp.gammaincinv(nu * (1.0 + lam) / c, prob)))


def variance_mixture(nu: int, lam: float, quad: QuadSpec = QuadSpec()) -> VarianceMixture:
    """Evaluator of the scaled sample-variance mixture law."""
    return VarianceMixture(nu, lam, quad)


# ----------------------------------------------------------------------
# series and extreme-node kernels of the noncentral-t laws
# ----------------------------------------------------------------------

_G_EDGES = np.linspace(-8.6, 8.6, 17)   # panels of the Gaussian root g
_G_ORDER = 10


class _ExtremeRule(_NodeSum):
    """The slope draws s in (s_lo, s_split] of the noncentral-t base, whose
    conditional noncentralities D/s exceed the series budget
    (D = |delta0| = sqrt(delta)).

    (s, g) enter the Gaussian-root kernel only through v = g + D/s, so by
    Fubini these draws add int h(v) K(u; v) dv, with h(v) = int p(tau)
    phi(v - tau) dtau the density of v over tau = D/s in [D/s_split,
    D/s_lo] and p(tau) = sqrt_ncchisq1_pdf(D/tau, lam0) D/tau^2.  The v-rule
    has log-graded panels between tau_lo + 8.6 and tau_hi - 8.6: 6 per
    decade up to nu = 30 and lam0 = 8, growing like sqrt(nu) and like lam0
    beyond, because the conditional law's transition in log v narrows like
    1/sqrt(nu), and the bump of p at tau = D/lam0, once the window holds
    it, like 1/lam0 in log tau.  Its shoulders, tau_lo +/- 8.6 and tau_hi
    +/- 8.6, have linear panels graded with nu alone, for the same
    transition: 4 each, or more where a panel would be wider in log v, at
    the shoulder's lowest v, than the middle's nu term makes them (past
    nu = 31 at tau_lo = 20).  The lam0 term stays out of the shoulders:
    with it, tsq_mixture(10, 1e12, 1e8) read further off.
    The panel count is planned up front: where the bump's panels alone
    come to more than _MAX_PANELS (8192; from about lam0 = 1e4 with the
    bump in the window) the law is a ParamError, raised before any node is
    placed.  h at its nodes comes from the g-rule clipped to the tau
    window.  s_lo steps down from s_split by whole decades until P[s <
    s_lo] <= 1e-3 tol, so the dropped far-tail mass stays below tol.

    The rule is a ``_NodeSum`` on nodes v and weights h, with U = nu v^2/W,
    W ~ chi2_nu, smooth in v at every (U, phi).  Its kernels are the shared
    ``_GammaKernel``'s at y = nu v^2/(2U), argument -log y: the CDF
    Q(nu/2, y), and U f(U), the density of w = log(2y/nu), which the t^2
    law reads over U and the signed law as 2 u f(u^2) at U = u^2.  Its
    mass P[s < s_split] is a closed form, so its edges, and ``_reach``,
    where its lowest node leaves both lower edges, come before any node is
    placed.  The first point block that reaches ``_reach`` places every
    node, which is cheap, under a lock.  The weights h come on demand
    (``_weigh``): every node past the prefix a call weights is a row that
    ``_sum`` drops for that call, so the sums are the whole rule's bits;
    ``_nodes`` is the whole rule.
    """

    def __init__(self, nu, root_d, lam0, s_split, quad):
        self.nu, self.root_d, self.lam0, self.quad = nu, root_d, lam0, quad
        self.s_split = self.s_lo = s_split
        self._mass = float(sp.ndtr(s_split - lam0) - sp.ndtr(-s_split - lam0))
        self._gamma = _GammaKernel(nu)

        def mass_below(x):
            # the density of s is at most 2 phi(lam0 - s), so on [0, x] at
            # most 2 phi(max(lam0 - x, 0))
            return 2.0 * x * math.exp(-0.5 * max(lam0 - x, 0.0) ** 2) / math.sqrt(
                2.0 * math.pi)

        while self.s_lo > 0.0 and mass_below(self.s_lo) > 1e-3 * quad.abs_tol:
            self.s_lo /= 10.0
        self._reach = math.inf
        self._middle = 0      # log-graded panels between the shoulders
        if self.s_lo < s_split:
            v_min = root_d / s_split + _G_EDGES[0]     # > 0: D/s_split >= 20
            (cdf_low, _), (pdf_low, _) = self._skip_edges
            self._reach = 0.5 * nu * v_min ** 2 * math.exp(min(cdf_low, pdf_low))
            z = _G_EDGES[-1]
            t_lo, t_hi = root_d / s_split + z, root_d / self.s_lo - z
            decades = math.log10(t_hi / t_lo) if t_hi > t_lo else 0.0
            per_decade = 6.0 * max(1.0, math.sqrt(nu / 30.0), lam0 / 8.0)
            self._middle = math.ceil(per_decade * decades)
            # the bump's 6 lam0/8 panels per decade, and the shoulders' 8
            bump = math.ceil(0.75 * lam0 * decades) + 8
            if bump > _MAX_PANELS:
                raise ParamError(
                    "lambda0 = sqrt(lambda) = %g with |delta0| = sqrt(delta) "
                    "= %g would take %d panels in the noncentral-t v-rule, "
                    "above %d" % (lam0, root_d, bump, _MAX_PANELS))
        # the nodes v, their panel weights, and the weights of the prefix
        # weighted so far, with the largest abscissa it serves (``_weigh``)
        self._x = self._panel_w = self._w = None
        self._top = -math.inf
        self._lock = threading.Lock()

    def _place(self):
        """(nodes v ascending, Gauss-Legendre weights) of the v-rule."""
        z = _G_EDGES[-1]
        t_lo, t_hi = self.root_d / self.s_split, self.root_d / self.s_lo
        edges = [np.geomspace(t_lo + z, t_hi - z, self._middle + 1)[1:-1]]
        # the middle's panel width in log v from nu alone
        width = math.log(10.0) / (6.0 * max(1.0, math.sqrt(self.nu / 30.0)))
        for t in (t_lo, t_hi):
            n = max(4, math.ceil(2.0 * z / (width * (t - z))))
            edges.append(np.linspace(t - z, t + z, n + 1))
        return gauss_legendre_nodes(np.unique(np.concatenate(edges)), 12)

    def _weights(self, v, wv):
        """wv h(v) at nodes v with panel weights wv, in node x g-panel x
        g-point tables of _TABLE doubles, each row's bits its own."""
        d = self.root_d
        t_lo, t_hi = d / self.s_split, d / self.s_lo
        # h(v) = int phi(g) p(v - g) dg over g in [v - t_hi, v - t_lo]
        x, wx = _leggauss(_G_ORDER)
        h = np.empty_like(v)
        step = max(1, _TABLE // ((_G_EDGES.size - 1) * _G_ORDER))
        for i in range(0, v.size, step):
            vi = v[i:i + step, None, None]
            ends = np.clip(_G_EDGES[:, None], vi - t_hi, vi - t_lo)
            half = 0.5 * np.diff(ends, axis=1)
            g = ends[:, :-1] + half * (1.0 + x)
            tau = vi - g
            h[i:i + step] = np.sum(
                half * wx * np.exp(-0.5 * g * g)
                * ser.sqrt_ncchisq1_pdf(d / tau, self.lam0) / tau ** 2,
                axis=(1, 2))
        return wv * h * (d / math.sqrt(2.0 * math.pi))

    def _nodes(self):
        """(nodes v ascending, weights h) of the whole v-rule."""
        v, wv = self._place()
        return v, self._weights(v, wv)

    def _weigh(self, top):
        """Weight, under the lock, the nodes up to the last whose argument
        at U = top lies above the lower of the CDF and pdf low edges, past
        the prefix already weighted.  ``_w`` is replaced whole, and before
        ``_top``, so that ``_sum`` reads one array of weights, a prefix of
        ``_x`` that covers every row any call up to ``_top`` sums."""
        with self._lock:
            if top <= self._top:
                return
            if self._x is None:
                self._x, self._panel_w = self._place()
                self._w = np.zeros(0)
            low = min(self._skip_edges[0][0], self._skip_edges[1][0])
            a = self._argument(self._x, np.array([top]))[:, 0]
            reached = np.flatnonzero(a > low)
            n = reached[-1] + 1 if reached.size else 0
            w = self._w
            if n > w.size:
                self._w = np.concatenate([w, self._weights(
                    self._x[w.size:n], self._panel_w[w.size:n])])
            self._top = top

    def _argument(self, v, u):
        """-log y = log u - log(nu v^2/2), node x point."""
        return np.log(u)[None, :] - np.log(0.5 * self.nu * v * v)[:, None]

    def _kernel(self, v, u, want_pdf):
        # Q(m, y) at y = m v^2/U, or U f(U), the density of w = log(v^2/U):
        # 0 where y, v^2/U (clipped) or m (e^w - 1 - w) pass the largest float
        gamma = self._gamma
        with np.errstate(over="ignore"):
            if not want_pdf:
                return gamma.upper(np.divide.outer(gamma.m * v * v, u))
            w = np.minimum(np.divide.outer(v * v, u), sys.float_info.max)
            return np.exp(gamma.log_pdf(np.log(w, out=w)), out=w)

    def _edges(self, d):
        """The shared edges in log y at the argument -log y.  At U >= 1 both
        reads of g = U f(U), the t^2 g/U and the signed 2 g/sqrt(U), are at
        most 2 g; below, every node has y > nu v_min^2/2 >= 65 nu (v_min =
        D/s_split - 8.6 >= 11.4), where both are below 1e-27."""
        (q_lo, q_hi), (g_lo, g_hi) = self._gamma.log_edges(d)
        return (-q_hi, -q_lo), (-g_hi, -g_lo)

    def parts(self, u, want_pdf):
        """The rule's share of the t^2 pdf or CDF at u > 0, summed in runs
        of consecutive points: each run takes _POINT_BLOCK points (or the
        rest), then every further point while its log u spans at most half
        the kernel's edge width (``_skip_edges``), up to _SERIES_BLOCK
        points.  A run's band of rows contains the band of every chunk of
        points within it, so each value stays within the skip budget; on
        a dense grid a run sums a few more rows per point than 512-point
        chunks would, in fewer, larger tables, whose per-call cost
        outweighed their arithmetic.  The runs are fixed by u alone."""
        top = np.max(u, initial=0.0)
        if top < self._reach:
            return np.zeros_like(u)
        if top > self._top:
            self._weigh(top)
        low, high = self._skip_edges[want_pdf]
        log_u = np.log(u)
        out, i = [], 0
        while i < u.size:
            run = log_u[i:i + _SERIES_BLOCK]
            span = np.maximum.accumulate(run) - np.minimum.accumulate(run)
            n = max(_POINT_BLOCK, np.count_nonzero(span <= 0.5 * (high - low)))
            out.append(self._sum(u[i:i + n], want_pdf))
            i += n
        out = np.concatenate(out)
        return out / u if want_pdf else out


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
    -log(j+1), of a series summed at the Beta indices (j + a, b) alone.
    ``mass`` is sum_j c_j in closed form, so the mass not yet reached bounds
    what the rest can add; ``log_den`` is log((j + a) B(j + a, b)) over j.

    A block of j sums over the live nodes only.  Each node's step ratio
    mu_k e^{g(j+1) - g(j)} falls as j grows, so once its term (before the
    weight w_k) is below _LIVE_FLOOR abs_tol / sum(w) and its ratio is at
    most 1/2, the rest of its terms add less than that term: the node
    leaves the live set for good.  All nodes that leave add less than
    2 _LIVE_FLOOR abs_tol to the whole sequence.
    """

    def __init__(self, mu, w, g, tol, mass, a, b):
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
        self.a, self.b = a, b
        self.log_den = _Sequence(lambda j: np.log(j + a) + ser.log_beta(j + a, b))

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


# largest whole b = nu/2 whose I_x(p, b) takes the finite sum, and the fewest
# points per unit of b of a block that takes it.  The sum costs about 2.2 us
# per term and call, betainc about 0.42 us per point, so they cross near
# 6 b points (4096 points at b = 5: 69 against 1820 us).  Up to b = 32 the
# sum reads within 2.6e-15 of a 40-digit reference, betainc within 1.5e-13
_BETA_SUM_MAX = 32
_BETA_SUM_POINTS = 8


def _betainc(p, b, x, y, block):
    """I_x(p, b) per point, for a series block of ``block`` points.

    Where b is a whole number m <= _BETA_SUM_MAX and the block holds at
    least _BETA_SUM_POINTS m points, I_x(p, m) = x^p sum_{i<m} (p)_i/i! y^i
    (DLMF 8.17.21 summed up from I_x(p, 1) = x^p), by Horner from its last
    term, with x^p from log1p(-y) above x = 1/2.  Elsewhere scipy's betainc
    serves, from x up to x = 1/2 and as 1 - I_y(b, p) from y = 1 - x above
    it, where x rounds too coarsely to tell nearby points apart.  (scipy's
    betaincc takes about seven times as long.)  y = 1 - x as the callers
    form it."""
    near_one = x > 0.5
    if b <= _BETA_SUM_MAX and b == math.floor(b) and block >= (
            _BETA_SUM_POINTS * b):
        coefs = [1.0]           # (p)_i / i!
        for i in range(1, int(b)):
            coefs.append(coefs[-1] * (p + i - 1.0) / i)
        out = np.full_like(x, coefs[-1])
        for c in coefs[-2::-1]:
            out *= y
            out += c
        log_xp = np.empty_like(x)
        with np.errstate(divide="ignore"):      # x = 0: x^p = 0
            np.log(x, out=log_xp, where=~near_one)
        np.log1p(-y, out=log_xp, where=near_one)
        log_xp *= p
        out *= np.exp(log_xp, out=log_xp)
        return out
    out = np.empty_like(x)
    out[~near_one] = sp.betainc(p, b, x[~near_one])
    out[near_one] = 1.0 - sp.betainc(b, p, y[near_one])
    return out


def _term_table(rows, cols):
    """exp(rows @ cols): the series terms x points table of exponents
    affine in a few per-point logs, (terms x k) @ (k x points) in one
    product, then exp in place (about 5x faster than into a new array)."""
    t = rows @ cols
    return np.exp(t, out=t)


def _beta_series(coefs, x, y, tol, law):
    """sum_j c_j I_x(j + a, b) per x, at the indices (a, b) of ``coefs``,
    certified to tol: I_x falls as j grows, so the coefficient mass not yet
    reached times the next I_x bounds the tail.  y = 1 - x, formed directly
    by the callers, whose x comes near 1.

    A block [j0, j1) needs one I_x per x (``_betainc``, by the size of x),
    the I_{j1} = I_x(j1 + a, b) that bounds the tail: the recurrence
    I_x(c, b) = I_x(c + 1, b) + t_c, t_c = x^c y^b / (c B(c, b)), runs down
    from it, so sum_j c_j I_j = I_{j1} sum_j c_j + sum_k t_k sum_{j <= k}
    c_j, a sum of nonnegative terms over one exp table.  I_x rises in x, so
    no point certifies at a rung of the ladder _MIN_TERMS, 2 _MIN_TERMS, ...
    below the one that certifies the block's smallest x: the series climbs
    to that rung first (up to _TERM_BLOCK terms), with one I_x per rung.
    Each point so stops at the rung it would reach climbing alone, from one
    I_x per point per block from that rung on."""
    a, b = coefs.a, coefs.b
    out = np.zeros_like(x)
    active = np.arange(x.size)
    # log t_c = c log x + b log y - log(c B(c, b)): (c, 1, -log den) @ cols,
    # with log x floored at x = 0, so that the product meets no inf there
    cols = np.ones((3, x.size))             # log x, b log y, 1
    with np.errstate(divide="ignore"):
        np.log(x, out=cols[0])
        np.log(y, out=cols[1])
    np.maximum(cols[0], -1e300, out=cols[0])
    cols[1] *= b

    lowest = np.argsort(x)[:1]          # none when x is empty
    j_hi = _MIN_TERMS
    while 2 * j_hi <= _TERM_BLOCK and np.any(
            _betainc(j_hi + a, b, x[lowest], y[lowest], x.size)
            * coefs.left_after(j_hi) > tol):
        j_hi *= 2
    j_done = 0
    while True:
        c = coefs.upto(j_hi)[j_done:]
        k = np.arange(j_done, j_hi) + a
        rows = np.ones((k.size, 3))             # k, 1, -log den
        rows[:, 0] = k
        rows[:, 2] = -coefs.log_den.upto(j_hi)[j_done:]
        end = _betainc(j_hi + a, b, x[active], y[active], x.size)
        c_sum, c_cum = c.sum(), np.cumsum(c)
        step = max(1, _TABLE // k.size)      # points per table chunk
        for i in range(0, active.size, step):
            pts = active[i:i + step]
            out[pts] += c_sum * end[i:i + step] + c_cum @ _term_table(
                rows, cols[:, pts])
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


def _beta_density(parts, args, lead, tol, rel_tol):
    """Per part, coefficients c_j at indices (a, b) (one b for all parts),
    sum_j c_j x^{j+a-1/2} e^lead / B(j + a, b): the Beta(j + a, b) density
    at x is the CDF recurrence's t_{j+a} times (j + a)/(x y), so with lead
    = log(sqrt(x) y^b dx/du/(x y)) each is the u-derivative of its CDF
    series.  The parts interleave in one exp table per block of terms.
    The terms' step ratio x (j + a + b)/(j + a) falls in j through 1 at the
    mode j + a = x b/y, so past j_hi each is at most the one at j_hi or at
    the mode beyond it; past a mode of e^690, Gamma(c + b)/Gamma(c) <=
    (c + b)^b and x^j <= e^{-j y} bound it.  A point stops once that times
    ``coefs.tail`` is within tol and rel_tol of the first part's partial
    sum (nonnegative terms; floored at the smallest normal float), and
    rungs where none could merge into the next table."""
    log_x, log_y = np.maximum(args[2], -1e300), args[3]   # x = 0: x^0 = 1
    b = parts[0].b
    log_mode = math.log(b) + log_x - log_y
    leads, tops = [], []
    for a in [coefs.a for coefs in parts]:
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
            log_mode > math.log(j_hi + coefs.a), top, j_hi * log_x + lead_a
            + math.log(j_hi + coefs.a) - coefs.log_den.upto(j_hi + 1)[j_hi]))
            for coefs, lead_a, top in zip(parts, leads, tops))
        if (len(parts) * (2 * j_hi - j_done) > _TERM_BLOCK
                or np.any(live & (bound <= most))):
            j = np.arange(j_done, j_hi, dtype=float)
            rows = np.ones((j.size, len(parts), 3))    # j + a - 1/2, 1, -log B
            for i, coefs in enumerate(parts):
                rows[:, i, 0] = j + (coefs.a - 0.5)
                rows[:, i, 2] = (np.log(j + coefs.a)
                                 - coefs.log_den.upto(j_hi)[j_done:])
            rows = rows.reshape(-1, 3)
            c = [coefs.upto(j_hi)[j_done:] for coefs in parts]
            active = np.flatnonzero(live)
            step = max(1, _TABLE // len(rows))      # points per table chunk
            for at in range(0, active.size, step):
                pts = active[at:at + step]
                t = _term_table(rows, cols[:, pts])
                for i, c_i in enumerate(c):
                    outs[i, pts] += c_i @ t[i::len(parts)]
            # each first-part sum will end below outs[0] + bound
            most = np.maximum(np.minimum(tol, rel_tol * (outs[0] + bound)), _TINY)
            live &= bound > np.maximum(np.minimum(tol, rel_tol * outs[0]), _TINY)
            j_done = j_hi
        j_hi = min(2 * j_hi, j_hi + _TERM_BLOCK)
    return outs


# ----------------------------------------------------------------------
# noncentral-t base: the signed-t law and its fold, the t^2 law
# ----------------------------------------------------------------------

class _NoncentralT(_MixtureLaw):
    """Noncentral t(nu, D/s) mixed over s ~ |N(lam0, 1)| (D >= 0): the base
    of the signed-t law and of its fold, the t^2 law, each of which sets
    ``nu`` and ``quad``, then builds it (and checks nu) from D and lam0.

    The series nodes, s in [s_split, s_hi] with s_split = min(D/20, s_hi)
    so that phi = D/s <= 20, are kept as ``_s``, ``_sw`` and ``_phi``, and
    collapse into m_j = E_s[pois(j; phi^2/2)], built on demand and kept:
    the even part of the noncentral-t CDF series (Lenth 1989, AS 243; see
    SignedTMixture).  The draws s < s_split form the ``_ExtremeRule``
    ``_ext``: once D/20 >= s_hi that is the whole window, and the series is
    empty.  The draws s > s_hi, P[s > s_hi] = Phi(lam0 - s_hi) + Phi(-lam0
    - s_hi) (1e-3 abs_tol), add their mass to the last series node, where
    phi is least; at D = 0 that is exact, so the law is Student t(nu) (or
    F(1, nu)) out to its far tails, not short of 1 by that mass.  Where the
    series is empty the mass stays dropped, 1e-3 below abs_tol.
    """

    _block = _SERIES_BLOCK

    def __init__(self, root_d, lam0):
        nu, quad = self.nu, self.quad
        if nu < 1:
            raise ParamError("nu must be >= 1")
        if root_d > _NCT_D_MAX:
            raise ParamError("|delta0| = sqrt(delta) = %g is above the largest "
                             "noncentrality %g" % (root_d, _NCT_D_MAX))
        if lam0 > _NCT_LAM0_PER_TOL * quad.abs_tol:
            raise ParamError("lambda0 = sqrt(lambda) = %g is above the largest "
                             "slope noncentrality %g (1e17 abs_tol)"
                             % (lam0, _NCT_LAM0_PER_TOL * quad.abs_tol))
        # the mixing mass beyond s_hi stays 1e-3 below abs_tol
        s_hi = ser.sqrt_mixing_upper(lam0, 1e-3 * quad.abs_tol)
        s_split = min(root_d / _NCT_SERIES_PHI_MAX, s_hi)
        # series nodes of s = sqrt(w), w ~ chi2_1(lam0^2), on [s_split, s_hi],
        # weighted by phi(s - lam0) + phi(s + lam0): refined on the mass alone,
        # the rule resolves the series at anchors 4^k s_split and across the bump
        mixdens = functools.partial(ser.sqrt_ncchisq1_pdf, lambda0=lam0)
        top = min(s_hi, max(1.0, 2.0 * lam0 - s_hi))
        steps = (math.log(top) - math.log(s_split)) / _LOG4 if s_split else 0.0
        anchors = (2.0 * lam0 - s_hi, lam0,
                   *np.ldexp(s_split, 2 * np.arange(1, steps, dtype=int)),
                   *np.linspace(max(2.0 * lam0 - s_hi, s_split), s_hi, 21)[1:-1])
        rule = refine_panels(mixdens, s_split, s_hi, quad, split_at=anchors)
        s, w = rule.nodes, rule.weights * mixdens(rule.nodes)
        if s.size:
            # the mass above s_hi, in closed form, joins the last node, the
            # one of least noncentrality: exact at D = 0, where phi is 0
            w[-1] += sp.ndtr(lam0 - s_hi) + sp.ndtr(-lam0 - s_hi)
        self._s, self._sw = s, w
        # nodes rounded onto s = 0 (where lam0 or D/20 is subnormal) weigh
        # nothing; phi = 0 keeps them finite
        self._phi = np.divide(root_d, s, out=np.zeros_like(s), where=s > 0.0)
        self._ext = _ExtremeRule(nu, root_d, lam0, s_split, quad)
        # m_j = sum_s w_s pois(j; phi_s^2/2), summed at (j + 1/2, nu/2)
        self._m = _SeriesCoefs(0.5 * self._phi ** 2, w,
                               lambda j: -sp.gammaln(j + 1.0), quad.abs_tol,
                               np.sum(w), 0.5, nu / 2.0)

    def _series_pdf(self, args, log_scale, *parts):
        """The pdf series sum_j c_j x^{j+a-1/2} L / B(j + a, nu/2) of each
        of ``parts`` times e^log_scale, certified 1e-3 below abs_tol and
        rel_tol like the signed CDF: far inside what the s- and v-rules
        share.  The t^2 law passes m_j alone, the signed law also n_j."""
        lead = 0.5 * ((self.nu + 1.0) * args[3] - math.log(self.nu)) + log_scale
        return _beta_density(parts, args, lead, 1e-3 * self.quad.abs_tol,
                             1e-3 * self.quad.rel_tol)


# ----------------------------------------------------------------------
# t^2 mixture
# ----------------------------------------------------------------------

class TsqMixture(_NoncentralT):
    """Evaluator of the t0^2 mixture: noncentral t^2(nu, delta/w) over
    w ~ chi2_1(lambda).

    t0^2 is the square of the signed t0 with delta0 = sqrt(delta) and
    lambda0 = sqrt(lambda), so this law is the signed law folded at
    t = sqrt(u), with x = u/(u+nu).  In F(t) - F(-t) the signed law's cdf0
    and n_j terms cancel, leaving sum_j m_j I_x(j+1/2, nu/2), and in
    [f(t) + f(-t)]/(2t) its n_j part cancels, leaving the m_j part over t:
    the law reads only what the noncentral-t base builds.  The CDF series
    takes 1 - x = nu/(u+nu) as formed, not from x.  The slope draws near
    zero, which carry the law's heavy far tail, add the Gaussian-root
    kernel at u on the v-rule.  At delta = 0 only m_0 survives and the law
    is exactly central F(1, nu) for every lambda.
    """

    def __init__(self, nu: int, delta: float, lam: float,
                 quad: QuadSpec = QuadSpec()):
        require_finite(nu=nu, delta=delta, lam=lam)
        if delta < 0 or lam < 0:
            raise ParamError("delta and lambda must be nonnegative")
        self.nu = float(nu)
        self.delta = float(delta)
        self.lam = float(lam)
        self.quad = quad
        super().__init__(math.sqrt(self.delta), math.sqrt(self.lam))

    def _pdf(self, u):
        out = np.zeros_like(u)
        pos = u > 0
        up = u[pos]
        log_u = np.log(up)
        out[pos] = (self._series_pdf(_beta_args(up, log_u, self.nu),
                                     -0.5 * log_u, self._m)[0]
                    + self._ext.parts(up, want_pdf=True))
        return out

    def _cdf(self, u):
        out = np.zeros_like(u)
        pos = u > 0
        up = u[pos]
        out[pos] = (self._ext.parts(up, want_pdf=False)
                    + _beta_series(self._m, up / (up + self.nu),
                                   self.nu / (up + self.nu),
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

class SignedTMixture(_NoncentralT):
    """Evaluator of the t0 mixture: noncentral t(nu, delta0/s) mixed over the
    shifted half-normal law of s.

    To the noncentral-t base's m_j the law adds, over the same series
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

    def __init__(self, nu: int, delta0: float, lambda0: float,
                 quad: QuadSpec = QuadSpec()):
        require_finite(nu=nu, delta0=delta0, lambda0=lambda0)
        if lambda0 < 0:
            raise ParamError("lambda0 must be nonnegative")
        self.nu = float(nu)
        self.delta0 = float(delta0)
        self.lambda0 = float(lambda0)
        self.quad = quad
        self._mirror = self.delta0 < 0
        super().__init__(abs(self.delta0), self.lambda0)
        phi, w = self._phi, self._sw
        self._cdf0 = float(w @ sp.ndtr(-phi))
        self._n = _SeriesCoefs(0.5 * phi ** 2, w * phi / math.sqrt(2.0),
                               lambda j: -sp.gammaln(j + 1.5), quad.abs_tol,
                               w @ sp.erf(phi / math.sqrt(2.0)), 1.0,
                               self.nu / 2.0)

    def _args(self, u):      # (x, y, log x, log y) at s = u^2
        with np.errstate(over="ignore", divide="ignore"):
            return _beta_args(u * u, 2.0 * np.log(np.abs(u)), self.nu)

    def _pdf(self, u):
        if self._mirror:
            u = -u
        even, odd = self._series_pdf(self._args(u), 0.0, self._m, self._n)
        out = np.maximum(even + np.sign(u) * odd, 0.0)    # rounding at u < 0
        up = np.clip(u[u > 0], 1e-154, 1e154)
        out[u > 0] += 2.0 * up * self._ext.parts(up * up, want_pdf=True)
        return out

    def _cdf(self, u):
        if self._mirror:
            u = -u
        # phi <= 20 keeps both series short, so certifying them 1e-3 below
        # abs_tol is cheap; it holds interval probabilities to the t^2
        # route far inside abs_tol
        tol = 1e-3 * self.quad.abs_tol
        # 1 - x formed on its own: far out x rounds to a few values near 1
        x, y, _, _ = self._args(u)
        out = (self._cdf0
               + 0.5 * np.sign(u) * _beta_series(self._m, x, y, tol, "signed-t")
               + 0.5 * _beta_series(self._n, x, y, tol, "signed-t"))
        # u^2 kept a normal float: below 1e-308 no extreme draw reaches it,
        # and P[t0^2 > 1e308] is far below abs_tol
        up = np.clip(u[u > 0], 1e-154, 1e154)
        out[u > 0] += self._ext.parts(up * up, want_pdf=False)
        return 1.0 - out if self._mirror else out

    _line = (0.0, 1.0)

    def _start(self, prob):
        """The central t quantile shifted by delta0."""
        return math.asinh(float(sp.stdtrit(self.nu, prob)) + self.delta0)


def signed_t_mixture(nu: int, delta0: float, lambda0: float,
                     quad: QuadSpec = QuadSpec()) -> SignedTMixture:
    """Evaluator of the signed t0 mixture law."""
    return SignedTMixture(nu, delta0, lambda0, quad)
