"""Adaptive Gauss-Legendre panel quadrature used by the mixture evaluators.

All mixture integrals in this package are reduced to smooth integrands on
finite windows (mixing tails are analytically bounded, edge singularities are
removed by change of variables), so fixed-order Legendre panels converge
spectrally.  Rules are built by local subdivision: only the panels whose own
estimate disagrees with the sum over their halves are split, so a sharp
feature costs panels where it lies, not across the whole window.  Panel node
sets are cached by the evaluators and reused across vectorized pdf/CDF calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import AccuracyError, ParamError, require_finite

_GL_ORDER = 16
_MAX_PANELS = 8192
_PANEL_BLOCK = 64  # panels per first evaluation: with halves, 3072 nodes
_ITP_SLACK = 2     # n0: ITP rounds allowed beyond bisection's count
_INTERP_POINTS = 4  # known points of a target's probit interpolation
_EPS = 2.0 ** -52   # the spacing of doubles at 1
# the least abs_tol.  The signed-t CDF series certify to 1e-3 abs_tol, and
# far out, where I_x is about 1, only once the coefficient mass left reads
# below that; the rounding of that mass reached 3.9e-15 over 1600 laws, so
# below about 4e-12 a law can fail at random (at 1e-12 two of 240 did)
_ABS_TOL_FLOOR = 1e-11


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy knobs for mixture quadrature and series truncation.

    Panel rules refine until their integrals agree to ``abs_tol`` plus
    ``rel_tol`` times their scale.  Every series kernel starts from a fixed
    minimum term count and escalates until its tail bound drops below
    ``abs_tol``; the noncentral-t pdf series also hold to ``rel_tol`` of
    themselves.  An abs_tol below _ABS_TOL_FLOOR = 1e-11 is a ParamError.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        require_finite(abs_tol=self.abs_tol, rel_tol=self.rel_tol)
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ParamError("quadrature tolerances must be positive")
        if self.abs_tol < _ABS_TOL_FLOOR:
            raise ParamError("abs_tol = %g is below the least certified "
                             "tolerance %g" % (self.abs_tol, _ABS_TOL_FLOOR))


def _legendre(n, z):
    """(P_n(z), P_{n-1}(z)) by the three-term recurrence
    (j + 1) P_{j+1} = (2j + 1) z P_j - j P_{j-1}, in plain floats."""
    p, q = z, 1.0
    for j in range(1, n):
        p, q = ((2 * j + 1) * z * p - j * q) / (j + 1), p
    return p, q


@functools.cache
def _leggauss(order: int):
    """The `order`-point Gauss-Legendre rule on [-1, 1], computed once per
    order; read-only, since every caller shares the same arrays.

    Each root z in (0, 1) of P_n, n = order, comes from Newton's method on
    the three-term recurrence (``_legendre``) from z = cos(pi (i + 3/4) /
    (n + 1/2)) (Numerical Recipes' gauleg; Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013) A652), stopping one step after a step of at most
    1e-8 z: convergence is quadratic, so that step reaches the float.  Its
    weight is 2 / ((1 - z^2) P_n'(z)^2).  The rule is mirrored about 0; at
    odd n the middle node is 0, weighted 2 / (n P_{n-1}(0))^2.  This costs
    0.1-0.2 ms per order up to 16 in plain floats, where numpy's leggauss
    solves a companion matrix's eigenproblem through LAPACK, which takes a
    few ms on its first call."""
    n = order
    x, w = np.zeros(n), np.zeros(n)
    for i in range(n // 2):
        z, step, last = math.cos(math.pi * (i + 0.75) / (n + 0.5)), 1.0, False
        while not last:
            last = abs(step) <= 1e-8 * z
            p, q = _legendre(n, z)
            step = p * (1.0 - z * z) / (n * (q - z * p))
            z -= step
        p, q = _legendre(n, z)
        dp = n * (q - z * p) / (1.0 - z * z)      # P_n'(z)
        x[i], x[n - 1 - i] = -z, z
        w[i] = w[n - 1 - i] = 2.0 / ((1.0 - z * z) * dp * dp)
    if n % 2:
        p = 1.0         # |P_{n-1}(0)| = (n-2)!!/(n-1)!!
        for j in range(1, n, 2):
            p *= j / (j + 1.0)
        w[n // 2] = 2.0 / (n * p) ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_nodes(edges: np.ndarray, order: int = _GL_ORDER):
    """Nodes and weights of an `order`-point Gauss-Legendre rule on each panel.

    ``edges`` is an increasing array of panel boundaries; returns flat arrays
    of len(edges-1)*order nodes/weights.
    """
    x, w = _leggauss(order)
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    mid = lo + half
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


class PanelRule:
    """A panel rule: its edges, nodes and weights."""

    def __init__(self, edges: np.ndarray, order: int = _GL_ORDER):
        self.edges = np.asarray(edges, dtype=float)
        self.nodes, self.weights = gauss_legendre_nodes(self.edges, order)

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def refine_panels(f, lo: float, hi: float, quad: QuadSpec, *,
                  initial_panels: int = 1, split_at: tuple = ()) -> PanelRule:
    """Build a panel rule on [lo, hi] by local subdivision (in the manner of
    QUADPACK's adaptive quadrature, Piessens et al. 1983): a panel is split
    only while its quadrature of ``f`` differs too much from the sum over
    its two halves.

    ``f`` maps nodes to values, or to an array of shape (len(nodes), k)
    whose column 0 is the mass.  ``split_at`` lists interior points that
    must coincide with panel edges; each segment between them starts as
    ``initial_panels // segments`` equal panels, at least one.

    The first round evaluates every panel and its two halves in one array
    pass, and keeps each panel's difference between the whole and the
    halves.  A split panel's halves become new panels whose integrals are
    already in hand, so later rounds evaluate only the new panels' halves
    (32 integrand nodes per panel, not 48).  It stops once the
    differences, summed over the panels, are at most tol = 0.25 (abs_tol +
    rel_tol scale) for every column, scale being the larger of the
    column's own integral and the mass, so that a column far above the
    mass (a pdf at its pole) holds to rel_tol of itself.  Otherwise the
    panels with the smallest differences, in units of tol, stay, as many
    as fit in half of tol, and the others are split.
    The difference bounds the error of the whole panel, and the rule keeps
    the halves, so it carries that bound with margin.  The integrand takes
    at most 3 _PANEL_BLOCK panel rules at a time (_PANEL_BLOCK panels and
    their halves, or 1.5 _PANEL_BLOCK new panels' halves), so a wide
    integrand holds few values at once.
    A rule of more than _MAX_PANELS panels raises AccuracyError.
    """
    if hi == lo:
        return PanelRule(np.array([lo]))    # an empty window: no nodes
    if not hi > lo:
        raise ValueError("reversed quadrature window")
    interior = sorted(p for p in split_at if lo < p < hi)
    anchors = [lo] + interior + [hi]
    n = max(1, initial_panels // (len(anchors) - 1))
    # np.linspace(a, b, n + 1) on every segment [a, b] at once, in its
    # arithmetic (k ((b - a)/n) + a, the last edge b), so in its bits
    ends = np.array(anchors, dtype=float)
    edges = np.arange(n + 1.0) * (np.diff(ends) / n)[:, None] + ends[:-1, None]
    edges[:, -1] = ends[1:]
    edges = np.unique(edges)
    x, w = _leggauss(_GL_ORDER)

    def measure_block(a, b, whole):
        mid = 0.5 * (a + b)
        if whole is None:
            lo_, hi_ = np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
        else:
            lo_, hi_ = np.concatenate([a, mid]), np.concatenate([mid, b])
        half = 0.5 * (hi_ - lo_)[:, None]
        nodes = (lo_[:, None] + half * (1.0 + x)).ravel()
        vals = np.asarray(f(nodes), dtype=float).reshape(nodes.size, -1)
        ints = half * (w @ vals.reshape(lo_.size, x.size, -1))
        n = a.size
        if whole is None:
            whole = ints[:n]
        left, right = ints[-2 * n:-n], ints[-n:]
        return left, right, np.abs(whole - left - right)

    def measure(a, b, whole=None):
        """Integrals of f over the halves of each panel [a, b], and their
        differences from the whole panel's, each (panels, k); the whole
        panels' integrals are evaluated too unless given."""
        step = _PANEL_BLOCK if whole is None else 3 * _PANEL_BLOCK // 2
        return map(np.concatenate, zip(*(
            measure_block(a[i:i + step], b[i:i + step],
                          None if whole is None else whole[i:i + step])
            for i in range(0, a.size, step))))

    a, b = edges[:-1], edges[1:]
    left, right, err = measure(a, b)
    while True:
        total = np.abs((left + right).sum(axis=0))
        tol = 0.25 * (quad.abs_tol
                      + quad.rel_tol * np.maximum(total, total[0]))
        if np.all(err.sum(axis=0) <= tol):
            return PanelRule(np.unique(np.concatenate([a, 0.5 * (a + b), b])))
        worst = (err / tol).max(axis=1)
        order = np.argsort(worst)
        stay = np.zeros(a.size, dtype=bool)
        stay[order[np.cumsum(worst[order]) <= 0.5]] = True
        split = ~stay
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        if 2 * (np.count_nonzero(stay) + new_a.size) > _MAX_PANELS:
            raise AccuracyError(
                "panel refinement exceeded %d panels without reaching "
                "abs_tol=%g" % (_MAX_PANELS, quad.abs_tol))
        # the new panels are the halves already measured
        new_left, new_right, new_err = measure(
            new_a, new_b, np.concatenate([left[split], right[split]]))
        a, b = np.concatenate([a[stay], new_a]), np.concatenate([b[stay], new_b])
        left = np.concatenate([left[stay], new_left])
        right = np.concatenate([right[stay], new_right])
        err = np.concatenate([err[stay], new_err])


class _Crossing:
    """One target of ``bisect_cdf``: its bracket [lo, hi] with the CDF
    values ``f_lo`` < target < ``f_hi`` there, ``near``, the known points
    nearest the crossing as (x, z) pairs with z = ndtri(F) -
    ndtri(target), and ``cap``, the width the bracket keeps within on ITP's
    schedule, halved every round.  ``result`` is set once it is solved."""

    def __init__(self, target, z_target, xtol, x, f, probit):
        self.target, self.z_target, self.xtol = target, z_target, xtol
        self.lo, self.hi = -math.inf, math.inf
        self.near, self.result = [], None
        if self._take(x, f):
            return
        if self.lo == -math.inf or self.hi == math.inf:
            raise AccuracyError("CDF inversion: [%g, %g] does not bracket "
                                "target %g" % (min(x), max(x), target))
        # in logs: the width over a subnormal xtol overflows
        steps = max(math.ceil(math.log2(self.hi - self.lo) - math.log2(xtol)),
                    0)
        self.cap = math.ldexp(xtol, steps + _ITP_SLACK)
        self._keep(x, probit, False)

    def points(self):
        """This round's points: the interpolated crossing, projected onto
        ITP's schedule, and the ladder at +-h around the estimate."""
        lo, hi, xtol = self.lo, self.hi, self.xtol
        mid = 0.5 * (lo + hi)
        est, err = _inverse_interpolation(self.near)
        # an estimate on an end (a probit that rounds onto the target's)
        # steps from the end, as from a point on the crossing.  One outside
        # the bracket (an extrapolation past an end at F = 0 or 1), or a
        # NaN, gives nothing to go on: the round quarters the bracket
        if not lo <= est <= hi:
            est, err = mid, 0.25 * (hi - lo)
        slack = 0.5 * (self.cap - (hi - lo))
        x = est if abs(est - mid) <= slack else mid + math.copysign(
            slack, est - mid)
        # at least xtol/2 and one float inside (Brent's minimum step): a
        # point on the crossing then leaves a bracket no wider than xtol,
        # or than one float spacing
        x = min(max(x, lo + 0.5 * xtol, math.nextafter(lo, hi)),
                hi - 0.5 * xtol, math.nextafter(hi, lo))
        h = max(err, 0.5 * xtol)
        return [x] + [y for y in (est - h, est + h) if lo < y < hi and y != x]

    def update(self, x, f, probit):
        """Take this round's points x with their CDF values f and probits."""
        ends = (self.f_lo, self.f_hi)
        if not self._take(x, f):
            self.cap *= 0.5
            self._keep(x, probit, all(fi in ends for fi in f))

    def _take(self, x, f):
        """Narrow the bracket to the points x with CDF values f; True, with
        the result set, at a point on the crossing.  A point only ever
        moves an end inside the bracket, so lo < hi holds in any order of
        the points, also where the computed CDF rounds non-monotone across
        the target (a point above it to the left of one below it): the
        bracket is then the first such pair, which still straddles it."""
        for xi, fi in zip(x, f):
            if not self.lo < xi < self.hi:
                continue
            if fi < self.target:
                self.lo, self.f_lo = xi, fi
            elif fi > self.target:
                self.hi, self.f_hi = xi, fi
            else:
                self.result = xi
                return True
        return False

    def _keep(self, x, probit, flat):
        """Keep the _INTERP_POINTS known points of finite, distinct z
        nearest the crossing, the bracket ends first.  Solved, at the
        bracket's midpoint, once it is no wider than xtol, or holds no float
        between its ends.  Solved at an end once the round was
        ``flat``, every point reading a value the ends already read, and
        that end reads within eps (2^-52) of the target: the CDF rounds to
        a staircase there (a CDF formed as 1 - G steps by 2^-53 at any
        size), and the end reads its step nearest the target; ends that
        read the doubles next to the target stop so after one round.  A
        step at F = 0 does not count: a CDF that reads 0 below the target
        may still rise through values far below eps."""
        lo, hi = self.lo, self.hi
        mid = 0.5 * (lo + hi)
        if not (hi - lo > self.xtol and lo < mid < hi):
            self.result = mid
            return
        if flat and 0.0 < self.f_lo:
            step, end = min((self.target - self.f_lo, lo),
                            (self.f_hi - self.target, hi))
            if step <= _EPS:
                self.result = end
                return
        near = self.near + [(xi, pi - self.z_target)
                            for xi, pi in zip(x, probit)
                            if -math.inf < pi < math.inf]
        near.sort(key=lambda p: (p[0] != lo and p[0] != hi, abs(p[1])))
        # one point per z: where the CDF rounds to a plateau, the others
        # give the interpolation nothing
        self.near, seen = [], set()
        for p in near:
            if p[1] not in seen:
                seen.add(p[1])
                self.near.append(p)
        del self.near[_INTERP_POINTS:]


def _inverse_interpolation(near):
    """Newton's form of x as a polynomial in z through ``near``, (x, z)
    pairs of distinct z in order, at z = 0, and the size of its last term,
    which estimates the error of the polynomial through all points but the
    last.  It stops before a term that overflows, and gives NaNs with
    fewer than two terms."""
    d = [p[0] for p in near]
    z = [p[1] for p in near]
    n = len(d)
    est, term, prod = (d[0] if n else math.nan), math.nan, 1.0
    for j in range(1, n):
        for i in range(n - j):
            d[i] = (d[i + 1] - d[i]) / (z[i + j] - z[i])
        prod *= -z[j - 1]
        new = d[0] * prod
        if not -math.inf < new < math.inf:
            break
        est, term = est + new, abs(new)
    return (est, term) if term == term else (math.nan, math.nan)


def bisect_cdf(cdf, target, x, *, fx=None, xtol=1e-8):
    """Invert a monotone CDF at every target to ``xtol`` on the abscissa,
    all targets together: each round makes one vector call of ``cdf``.

    ``target`` is a float or a 1-d array, and ``x`` holds points around
    each target: shape (m,) for every target, such as the ends [lo, hi]
    of one bracket, or (targets, m).  ``fx`` is the CDF at ``x`` where the
    caller has it; otherwise the first call evaluates it.  A target's
    bracket is the tightest pair of its points around it, and the other
    points join the interpolation.  A target without a bracket raises
    AccuracyError: finding brackets is the caller's part (the mixture laws
    search a growing grid in their own coordinate).  ``xtol`` is one value
    or one per target.

    Each round follows ITP (interpolate, truncate, project; Oliveira &
    Takahashi 2020, ACM TOMS 47(1):5), which keeps a bracket like
    bisection.  A target's point interpolates x as a polynomial in the
    probit ndtri(F), where CDFs of Gaussian-like laws are close to
    straight, through the bracket ends and the known points next nearest
    the crossing, _INTERP_POINTS in all (Newton's form; ends at F = 0 or 1
    give no probit and take no part).  It is projected within the slack
    that keeps the bracket on bisection's schedule delayed by _ITP_SLACK
    rounds.  Where ITP truncates toward the midpoint, this solver asks, in
    the same call, for a ladder of two more points at +-h around the
    estimate, h the size of the interpolation's last Newton term (at least
    xtol/2): most often they straddle the crossing, and the bracket
    collapses to h, so a target solves in two or three rounds from a grid.
    Without an estimate inside the bracket (no probits yet, or an
    extrapolation past an end), the round quarters the bracket.  The
    ladder only narrows the bracket, so no target takes more than
    _ITP_SLACK rounds beyond bisection's ceil(log2(w0 / xtol)), w0 its
    first bracket width.  The result is the midpoint of a bracket no wider
    than ``xtol`` (or than one float spacing, where that is wider), or a
    point where the CDF equals the target: a float for a float target,
    else an array.  Where the computed CDF rounds to a staircase wider
    than ``xtol``, no point comes closer to the target than its steps, so
    a target also solves at a bracket end that reads within 2^-52 of it
    once a round read only values the ends already read (see
    ``_Crossing._keep``), so one round after its ends read the doubles
    next to it.  The function keeps the name it had as a bisection: span
    tracing refers to it by that name.
    """
    targets = np.atleast_1d(np.asarray(target, dtype=float))
    x = np.asarray(x, dtype=float)
    fx = np.asarray(cdf(x) if fx is None else fx, dtype=float)
    shape = targets.shape + x.shape[-1:]
    x, fx = np.broadcast_to(x, shape), np.broadcast_to(fx, shape)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), targets.shape)
    crossings = [_Crossing(*args) for args in zip(
        targets.tolist(), sp.ndtri(targets).tolist(), xtol.tolist(),
        x.tolist(), fx.tolist(), sp.ndtri(fx).tolist())]
    while True:
        open_ = [c for c in crossings if c.result is None]
        if not open_:
            break
        asked = [c.points() for c in open_]
        fs = np.asarray(cdf(np.array([p for ps in asked for p in ps])),
                        dtype=float)
        probits, fs, at = sp.ndtri(fs).tolist(), fs.tolist(), 0
        for c, ps in zip(open_, asked):
            c.update(ps, fs[at:at + len(ps)], probits[at:at + len(ps)])
            at += len(ps)
    out = np.array([c.result for c in crossings])
    return float(out[0]) if np.ndim(target) == 0 else out
