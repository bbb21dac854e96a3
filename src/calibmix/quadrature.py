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
_PANEL_BLOCK = 64  # panels per evaluation: 3072 nodes x probe columns
_ITP_SLACK = 2     # n0: ITP steps allowed beyond bisection's count
# the least abs_tol.  The signed-t CDF series certify to 1e-3 abs_tol, and
# far out, where I_x is about 1, only once the coefficient mass left reads
# below that; the rounding of that mass reached 3.9e-15 over 1600 laws, so
# below about 4e-12 a law can fail at random (at 1e-12 two of 240 did)
_ABS_TOL_FLOOR = 1e-11


@dataclass(frozen=True)
class QuadSpec:
    """Accuracy knobs for mixture quadrature and series truncation.

    Panel rules refine until their probes agree to ``abs_tol`` plus
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


@functools.cache
def _leggauss(order: int):
    """The `order`-point Gauss-Legendre rule on [-1, 1], computed once per
    order; read-only, since every caller shares the same arrays."""
    x, w = np.polynomial.legendre.leggauss(order)
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
                  initial_panels: int = 1, split_at: tuple = (),
                  probe=None) -> PanelRule:
    """Build a panel rule on [lo, hi] by local subdivision (in the manner of
    QUADPACK's adaptive quadrature, Piessens et al. 1983): a panel is split
    only while its quadrature of ``f``, and of the optional vector-valued
    ``probe``, differs too much from the sum over its two halves.

    ``f`` maps nodes to values and ``probe`` maps them to an array of shape
    (len(nodes), k).  ``split_at`` lists interior points that must coincide
    with panel edges; each segment between them starts as
    ``initial_panels // segments`` equal panels, at least one.

    Each round evaluates every new panel and its two halves in one array
    pass, and keeps each panel's difference between the whole and the
    halves.  It stops once these differences, summed over the panels, are
    at most tol = 0.25 (abs_tol + rel_tol scale) for every component, scale
    being the larger of the component's own integral and that of ``f``, so
    that a component far above ``f``'s (a pdf at its pole) holds to
    rel_tol of itself.  Otherwise the panels with the smallest differences,
    in units of tol, stay, as many as fit in half of tol, and the others
    are split.  The difference bounds the error of the whole panel, and the
    rule keeps the halves, so it carries that bound with margin.  Panels
    are evaluated _PANEL_BLOCK at a time, so a wide probe holds few values
    at once.  A rule of more than _MAX_PANELS panels raises AccuracyError.
    """
    if hi == lo:
        return PanelRule(np.array([lo]))    # an empty window: no nodes
    if not hi > lo:
        raise ValueError("reversed quadrature window")
    interior = sorted(p for p in split_at if lo < p < hi)
    anchors = [lo] + interior + [hi]
    n = max(1, initial_panels // (len(anchors) - 1))
    edges = np.unique(np.concatenate([np.linspace(a, b, n + 1)
                                      for a, b in zip(anchors, anchors[1:])]))
    x, w = _leggauss(_GL_ORDER)

    def measure_block(a, b):
        mid = 0.5 * (a + b)
        lo_, hi_ = np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
        half = 0.5 * (hi_ - lo_)[:, None]
        nodes = (lo_[:, None] + half * (1.0 + x)).ravel()
        vals = np.column_stack([np.asarray(g(nodes), dtype=float)
                                for g in ((f,) if probe is None else (f, probe))])
        whole, left, right = np.split(
            half * (w @ vals.reshape(lo_.size, x.size, -1)), 3)
        return left + right, np.abs(whole - left - right)

    def measure(a, b):
        """Integrals of f and probe over the halves of each panel [a, b],
        and their differences from the whole panel's, (panels, 1 + k)."""
        est, err = zip(*(measure_block(a[i:i + _PANEL_BLOCK],
                                       b[i:i + _PANEL_BLOCK])
                         for i in range(0, a.size, _PANEL_BLOCK)))
        return np.concatenate(est), np.concatenate(err)

    a, b = edges[:-1], edges[1:]
    est, err = measure(a, b)
    while True:
        total = np.abs(est.sum(axis=0))
        tol = 0.25 * (quad.abs_tol
                      + quad.rel_tol * np.maximum(total, total[0]))
        if np.all(err.sum(axis=0) <= tol):
            return PanelRule(np.unique(np.concatenate([a, 0.5 * (a + b), b])))
        worst = (err / tol).max(axis=1)
        order = np.argsort(worst)
        stay = np.zeros(a.size, dtype=bool)
        stay[order[np.cumsum(worst[order]) <= 0.5]] = True
        mid = 0.5 * (a[~stay] + b[~stay])
        new_a = np.concatenate([a[~stay], mid])
        new_b = np.concatenate([mid, b[~stay]])
        if 2 * (np.count_nonzero(stay) + new_a.size) > _MAX_PANELS:
            raise AccuracyError(
                "panel refinement exceeded %d panels without reaching "
                "abs_tol=%g" % (_MAX_PANELS, quad.abs_tol))
        new_est, new_err = measure(new_a, new_b)
        a, b = np.concatenate([a[stay], new_a]), np.concatenate([b[stay], new_b])
        est = np.concatenate([est[stay], new_est])
        err = np.concatenate([err[stay], new_err])


def bisect_cdf(cdf, target: float, lo: float, hi: float, *,
               xtol: float = 1e-8) -> float:
    """Invert a monotone CDF to ``xtol`` on the abscissa by the ITP method
    (interpolate, truncate, project; Oliveira & Takahashi 2020, ACM TOMS
    47(1):5), keeping a bracket of the target like bisection.

    [lo, hi] must bracket the target, or AccuracyError is raised: finding a
    bracket is the caller's part (the mixture laws search a growing grid in
    their own coordinate).  Each step interpolates the bracket ends linearly
    on the probit scale ndtri(F), where CDFs of Gaussian-like laws are close
    to straight; an end at F = 0 or 1 gives no slope, and the step bisects.
    The point is moved 0.1 w^2 / w0 toward the midpoint (w the bracket
    width, w0 the first) and projected within the slack that keeps the
    bracket on bisection's schedule delayed by _ITP_SLACK steps.  So no
    solve takes more than _ITP_SLACK steps beyond bisection's
    ceil(log2(w0 / xtol)), while on a smooth CDF the steps converge
    superlinearly.  The result is the midpoint of a bracket no wider than
    ``xtol`` (or than one float spacing, where that is wider), or a point
    where the CDF equals the target.  The function keeps the name it had as
    a bisection: span tracing refers to it by that name.
    """
    flo, fhi = cdf(lo) - target, cdf(hi) - target
    if flo * fhi > 0:
        raise AccuracyError("CDF inversion: [%g, %g] does not bracket target %g"
                            % (lo, hi, target))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi

    z_target = float(sp.ndtri(target))

    def probit(f):
        """ndtri(F) - ndtri(target) from f = F - target."""
        return float(sp.ndtri(f + target)) - z_target

    zlo, zhi = probit(flo), probit(fhi)
    kappa1 = 0.1 / (hi - lo)
    # steps left before the bracket must be as narrow as bisection's
    steps_left = max(math.ceil(math.log2((hi - lo) / xtol)), 0) + _ITP_SLACK
    while hi - lo > xtol:
        mid = x = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break      # adjacent floats, wider apart than xtol above ~6e7
        # inf - inf is NaN, and a NaN x_f fails the test below: bisect.
        # An end whose probit rounds onto the target's puts x_f on that end
        # (or a rounding past it): the step goes from the end, as from a
        # point on the crossing, not to the midpoint
        x_f = (zhi * lo - zlo * hi) / (zhi - zlo) if zhi > zlo else mid
        x_f = min(max(x_f, lo), hi) if x_f == x_f else x_f
        if lo <= x_f <= hi:
            toward = math.copysign(1.0, mid - x_f)
            delta = kappa1 * (hi - lo) ** 2
            x = x_f + toward * delta if delta <= abs(mid - x_f) else mid
            slack = 0.5 * xtol * 2.0 ** steps_left - 0.5 * (hi - lo)
            if abs(x - mid) > slack:
                x = mid - toward * slack
            # at least xtol/2 inside (Brent's minimum step): a point on the
            # crossing then leaves a bracket narrower than xtol next step
            x = min(max(x, lo + 0.5 * xtol), hi - 0.5 * xtol)
            if not lo < x < hi:      # rounded onto an end
                x = mid
        f = cdf(x) - target
        if f > 0:
            hi, fhi, zhi = x, f, probit(f)
        elif f < 0:
            lo, flo, zlo = x, f, probit(f)
        else:
            return x
        steps_left -= 1
    return 0.5 * (lo + hi)
