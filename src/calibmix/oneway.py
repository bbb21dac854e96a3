"""One-way experiments under calibration.

The projected data share the experimental structure of the raw readings, so
the sums-of-squares decomposition, the F ratio for comparing group means and
every scale-invariant comparison of within-group variances are exactly what
they would be without calibration: F(a + bZ) = F(Z) for any b != 0, and the
F law is noncentral F(k-1, n-k, lambda_F) with
lambda_F = sum n_i (mu_i - mubar)^2 / omega^2.  What calibration does change
is the variance structure: E(S_i^2) = kappa2 omega_i^2 underestimates
Var(Y_ij) = kappa2 omega_i^2 + sigma0^2 + sigma1^2 mu_i^2 per group, and
homoscedasticity of the projected groups requires the unusual balance
(omega_i^2 - omega_j^2) = c (mu_j^2 - mu_i^2) with c = sigma1^2/kappa2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as sp

from .errors import DataError, ParamError, require_finite
from .model import MixtureParams
from .special import ncf_cdf


@dataclass(frozen=True)
class OneWayDesign:
    """k groups with sizes n_i, model means mu_i and model std-devs omega_i."""

    sizes: tuple
    means: tuple
    omegas: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(v) for v in self.sizes))
        object.__setattr__(self, "means", tuple(float(v) for v in self.means))
        object.__setattr__(self, "omegas", tuple(float(v) for v in self.omegas))
        for name in ("means", "omegas"):
            require_finite(**{"%s[%d]" % (name, i): v
                              for i, v in enumerate(getattr(self, name))})
        if len(self.sizes) < 2:
            raise ParamError("need at least 2 groups")
        if not len(self.sizes) == len(self.means) == len(self.omegas):
            raise ParamError("sizes, means and omegas must have equal length")
        if any(n < 2 for n in self.sizes):
            raise ParamError("every group needs at least 2 observations")
        if any(w <= 0 for w in self.omegas):
            raise ParamError("omegas must be positive")

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class AnovaDecomposition:
    """Fisher-Cochran split Y'Y = ss0 + ss1 + ss2 and the F ratio."""

    ss0: float
    ss1: float
    ss2: float
    f_statistic: float
    df_between: int
    df_within: int

    def to_dict(self):
        return {"ss0": self.ss0, "ss1": self.ss1, "ss2": self.ss2,
                "f_statistic": self.f_statistic,
                "df_between": self.df_between, "df_within": self.df_within}


def _split_groups(y, sizes):
    if sizes is None:
        return [np.asarray(g, dtype=float) for g in y]
    flat = np.asarray(y, dtype=float)
    sizes = [int(s) for s in sizes]
    if flat.size != sum(sizes):
        raise ParamError("size mismatch: %d values for group sizes %r"
                         % (flat.size, sizes))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [flat[bounds[i]:bounds[i + 1]] for i in range(len(sizes))]


def decompose(y, sizes=None) -> AnovaDecomposition:
    """Sums-of-squares decomposition of grouped data (a list of group arrays,
    or a flat array plus sizes).  All observations equal makes the F ratio
    undefined and is rejected."""
    groups = _split_groups(y, sizes)
    k = len(groups)
    if k < 2:
        raise ParamError("need at least 2 groups")
    ns = np.array([g.size for g in groups])
    if np.any(ns < 1):
        raise ParamError("empty group")
    allv = np.concatenate(groups)
    n = allv.size
    grand = allv.mean()
    means = np.array([g.mean() for g in groups])
    ss0 = n * grand ** 2
    ss1 = float(np.sum(ns * (means - grand) ** 2))
    ss2 = float(sum(np.sum((g - m) ** 2) for g, m in zip(groups, means)))
    if ss2 == 0.0:
        raise ParamError("zero within-group variation: F undefined")
    if n - k < 1:
        raise ParamError("no within-group degrees of freedom")
    f = (n - k) * ss1 / ((k - 1) * ss2)
    return AnovaDecomposition(ss0=float(ss0), ss1=ss1, ss2=ss2, f_statistic=f,
                              df_between=k - 1, df_within=n - k)


class FPower(NamedTuple):
    lambda_f: float
    power: float
    critical: float


def f_power(design: OneWayDesign, alpha: float, *, tol: float = 1e-8) -> FPower:
    """Noncentrality and power of the one-way F test under a common omega.

    lambda_F = sum n_i (mu_i - mubar)^2/omega^2 with the size-weighted grand
    mean; power = P[F(k-1, n-k, lambda_F) > critical].
    """
    if not 0.0 < alpha < 1.0:
        raise ParamError("alpha must be in (0, 1)")
    omegas = set(design.omegas)
    if len(omegas) != 1:
        raise ParamError("f_power assumes a common omega across groups")
    omega = design.omegas[0]
    ns = np.asarray(design.sizes, dtype=float)
    mus = np.asarray(design.means, dtype=float)
    mubar = float(np.sum(ns * mus) / np.sum(ns))
    lam_f = float(np.sum(ns * (mus - mubar) ** 2) / omega ** 2)
    d1, d2 = design.k - 1, design.n - design.k
    crit = float(sp.fdtri(d1, d2, 1.0 - alpha))
    power = 1.0 - float(ncf_cdf(crit, d1, d2, lam_f, tol=tol))
    return FPower(lambda_f=lam_f, power=power, critical=crit)


@dataclass(frozen=True)
class VarianceTests:
    """Scale-invariant homogeneity statistics on within-group variances."""

    bartlett_stat: float
    cochran_stat: float
    hartley_fmax: float

    def to_dict(self):
        return {"bartlett_stat": self.bartlett_stat,
                "cochran_stat": self.cochran_stat,
                "hartley_fmax": self.hartley_fmax}


def variance_tests(s2, sizes) -> VarianceTests:
    """Bartlett (standard corrected form), Cochran S^2_max/sum S_i^2 and
    Hartley max S_i^2/S_j^2 from per-group sample variances."""
    s2 = np.asarray(s2, dtype=float)
    sizes = np.asarray([int(v) for v in sizes])
    if s2.size < 2 or s2.size != sizes.size:
        raise ParamError("need k >= 2 matching variances and sizes")
    if np.any(s2 <= 0):
        raise ParamError("all variances must be positive")
    if np.any(sizes < 2):
        raise ParamError("every group needs at least 2 observations")
    k = s2.size
    nu = sizes - 1
    nu_tot = int(nu.sum())
    pooled = float(np.sum(nu * s2) / nu_tot)
    correction = 1.0 + (np.sum(1.0 / nu) - 1.0 / nu_tot) / (3.0 * (k - 1))
    bartlett = float((nu_tot * math.log(pooled) - np.sum(nu * np.log(s2)))
                     / correction)
    return VarianceTests(
        bartlett_stat=bartlett,
        cochran_stat=float(np.max(s2) / np.sum(s2)),
        hartley_fmax=float(np.max(s2) / np.min(s2)),
    )


class GroupVarianceBias(NamedTuple):
    group: int
    expected_s2: float
    var_y: float
    bias: float


def group_variance_bias(design: OneWayDesign, p: MixtureParams):
    """Per-group E(S_i^2) = kappa2 omega_i^2, Var(Y_ij) = kappa2 omega_i^2
    + sigma0^2 + sigma1^2 mu_i^2, and the bias (difference)."""
    out = []
    s1sq = 0.0 if p.ideal else p.sigma1 ** 2
    for i, (mu, om) in enumerate(zip(design.means, design.omegas)):
        e_s2 = p.kappa2 * om ** 2
        var_y = e_s2 + p.sigma0 ** 2 + s1sq * mu ** 2
        out.append(GroupVarianceBias(group=i, expected_s2=float(e_s2),
                                     var_y=float(var_y),
                                     bias=float(e_s2 - var_y)))
    return out


class PairCheck(NamedTuple):
    i: int
    j: int
    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class HomoscedasticityCheck:
    c: float
    pairs: tuple
    holds: bool

    def to_dict(self):
        return {"c": self.c, "holds": self.holds,
                "pairs": [p._asdict() for p in self.pairs]}


def homoscedasticity_condition(design: OneWayDesign, p: MixtureParams,
                               *, tol: float = 1e-9) -> HomoscedasticityCheck:
    """Projected groups are homoscedastic iff for every pair
    (omega_i^2 - omega_j^2) = c (mu_j^2 - mu_i^2) with c = sigma1^2/kappa2."""
    s1sq = 0.0 if p.ideal else p.sigma1 ** 2
    c = s1sq / p.kappa2
    pairs = []
    scale = max(max(w ** 2 for w in design.omegas), 1.0)
    for i in range(design.k):
        for j in range(i + 1, design.k):
            lhs = design.omegas[i] ** 2 - design.omegas[j] ** 2
            rhs = c * (design.means[j] ** 2 - design.means[i] ** 2)
            pairs.append(PairCheck(i=i, j=j, lhs=lhs, rhs=rhs,
                                   ok=abs(lhs - rhs) <= tol * scale))
    return HomoscedasticityCheck(c=c, pairs=tuple(pairs),
                                 holds=all(pc.ok for pc in pairs))


def grouped_data_from_csv(path):
    """Read grouped observations from a CSV with header ``group,y``; returns
    (labels, list of arrays) in order of first appearance."""
    order = []
    buckets = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["group", "y"]:
            raise DataError("row 1: expected header 'group,y', got %r" % (header,))
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise DataError("row %d: expected two columns" % lineno)
            label = row[0].strip()
            try:
                value = float(row[1])
            except ValueError as exc:
                raise DataError("row %d: %s" % (lineno, exc)) from exc
            if label not in buckets:
                order.append(label)
                buckets[label] = []
            buckets[label].append(value)
    if not order:
        raise DataError("row 2: no data rows found")
    return order, [np.asarray(buckets[g]) for g in order]
