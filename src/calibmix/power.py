"""Critical values and operating characteristics of the calibrated t^2 test.

At delta = 0 the mixing cancels (delta/w = 0 for every slope draw) and the
test statistic is exactly central F(1, nu), so the size of the test is
unaffected by calibration; under alternatives the nonrejection probability
P[t0^2 <= c] is a genuine mixture quantity, decreasing in delta at fixed
lambda and increasing in lambda at fixed delta.  The table convention
reports the nonrejection probability (the quantity that equals 1 - alpha at
delta = 0) alongside rejection_prob = 1 - nonrejection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import ParamError
from .mixtures import tsq_mixture, variance_mixture
from .quadrature import QuadSpec


@dataclass(frozen=True)
class PowerCell:
    """One operating-characteristic cell of the calibrated t^2 test."""

    nu: float
    delta: float
    lam: float
    critical: float
    nonrejection_prob: float
    rejection_prob: float

    def __post_init__(self):
        for v in (self.nonrejection_prob, self.rejection_prob):
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError("probabilities must lie in [0, 1]")
        if abs(self.nonrejection_prob + self.rejection_prob - 1.0) > 1e-9:
            raise ValueError("nonrejection and rejection probabilities must sum to 1")


def tsq_critical(nu: int, alpha: float) -> float:
    """(1 - alpha) quantile of central F(1, nu) = t^2(nu, 0)."""
    if not 0.0 < alpha < 1.0:
        raise ParamError("alpha must be in (0, 1)")
    return float(sp.fdtri(1, nu, 1.0 - alpha))


def operating_characteristics(nu: int, delta: float, lam: float, alpha: float,
                              quad: QuadSpec = QuadSpec()) -> PowerCell:
    """Nonrejection/rejection probabilities of the level-alpha t^2 test at
    noncentralities (delta, lambda)."""
    crit = tsq_critical(nu, alpha)
    nonrej = float(tsq_mixture(nu, delta, lam, quad).cdf(crit))
    return PowerCell(nu=float(nu), delta=float(delta), lam=float(lam),
                     critical=crit, nonrejection_prob=nonrej,
                     rejection_prob=1.0 - nonrej)


def power_table(nu: int, deltas, lams, alpha: float,
                quad: QuadSpec = QuadSpec()):
    """Grid of PowerCells over rows delta and columns lambda."""
    return [[operating_characteristics(nu, d, l, alpha, quad) for l in lams]
            for d in deltas]


def power_table_payload(nu, deltas, lams, alpha, quad: QuadSpec = QuadSpec()):
    """JSON-shaped power table: rows delta, columns lambda, both probabilities."""
    grid = power_table(nu, deltas, lams, alpha, quad)
    return {
        "nu": nu,
        "alpha": alpha,
        "critical": grid[0][0].critical if grid and grid[0] else tsq_critical(nu, alpha),
        "deltas": list(map(float, deltas)),
        "lambdas": list(map(float, lams)),
        "nonrejection": [[c.nonrejection_prob for c in row] for row in grid],
        "rejection": [[c.rejection_prob for c in row] for row in grid],
    }


def power_table_rows(payload):
    """Flatten a power-table payload into CSV rows (header, rows)."""
    lams = payload["lambdas"]
    header = (["delta"]
              + ["nonrejection_lambda_%g" % l for l in lams]
              + ["rejection_lambda_%g" % l for l in lams])
    rows = []
    for i, d in enumerate(payload["deltas"]):
        rows.append([d] + list(payload["nonrejection"][i])
                    + list(payload["rejection"][i]))
    return header, rows


@dataclass(frozen=True)
class OrderingReport:
    """Pointwise-monotonicity probe of mixture CDFs along a parameter grid.

    ``max_violation`` is the largest step against the expected direction
    (0 when the ordering holds everywhere); violations are reported, not
    raised, since they falsify the implementation rather than the input.
    """

    family: str
    direction: str
    grid: tuple
    u_grid: tuple
    cdf_values: tuple
    max_violation: float

    @property
    def holds(self) -> bool:
        return self.max_violation <= 0.0


_FAMILIES = {
    # family -> (expected CDF direction along the grid at fixed u)
    "variance_mixture-in-lambda": "decreasing",
    "tsq-in-lambda": "increasing",
    "tsq-in-delta": "decreasing",
}


def ordering_probe(family: str, grid, u_grid, *, nu: int,
                   fixed: float = 0.0, quad: QuadSpec = QuadSpec(),
                   tol: float = 1e-9) -> OrderingReport:
    """Check stochastic-ordering claims numerically.

    family "variance_mixture-in-lambda": CDF at fixed u nonincreasing in
    lambda (the law grows stochastically; equivalently the residual vector
    is more peaked for smaller lambda).  "tsq-in-lambda": CDF nondecreasing
    in lambda at fixed delta (= ``fixed``).  "tsq-in-delta": CDF
    nonincreasing in delta at fixed lambda (= ``fixed``).
    """
    if family not in _FAMILIES:
        raise ParamError("unknown ordering family %r" % family)
    grid = tuple(float(g) for g in grid)
    u_grid = tuple(float(u) for u in u_grid)
    if not grid or list(grid) != sorted(grid):
        raise ParamError("parameter grid must be nonempty and ascending")
    if not u_grid:
        raise ParamError("u_grid must be nonempty")
    values = []
    for g in grid:
        if family == "variance_mixture-in-lambda":
            ev = variance_mixture(nu, g, quad)
        elif family == "tsq-in-lambda":
            ev = tsq_mixture(nu, fixed, g, quad)
        else:
            ev = tsq_mixture(nu, g, fixed, quad)
        values.append(tuple(float(c) for c in np.atleast_1d(ev.cdf(np.array(u_grid)))))
    arr = np.asarray(values)
    steps = np.diff(arr, axis=0)
    direction = _FAMILIES[family]
    viol = steps if direction == "decreasing" else -steps
    max_violation = float(max(np.max(viol) - tol, 0.0)) if viol.size else 0.0
    return OrderingReport(family=family, direction=direction, grid=grid,
                          u_grid=u_grid, cdf_values=tuple(map(tuple, arr)),
                          max_violation=max_violation)
