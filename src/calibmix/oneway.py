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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as sp

from .errors import ParamError, require_finite
from .io import read_csv
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


def _sums_of_squares(y, sizes):
    """Grand mean, between-group and within-group sums of squares of each
    row of y, whose columns hold the groups' observations in group order."""
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    grand = y.mean(axis=1)
    ss1 = np.zeros(y.shape[0])
    ss2 = np.zeros(y.shape[0])
    for i, size in enumerate(sizes):
        g = y[:, bounds[i]:bounds[i + 1]]
        gm = g.mean(axis=1)
        ss1 += size * (gm - grand) ** 2
        ss2 += ((g - gm[:, None]) ** 2).sum(axis=1)
    return grand, ss1, ss2


def decompose(y, sizes=None) -> AnovaDecomposition:
    """Sums-of-squares decomposition of grouped data (a list of group arrays,
    or a flat array plus sizes).  All observations equal makes the F ratio
    undefined and is rejected."""
    groups = _split_groups(y, sizes)
    k = len(groups)
    if k < 2:
        raise ParamError("need at least 2 groups")
    ns = [g.size for g in groups]
    if min(ns) < 1:
        raise ParamError("empty group")
    n = sum(ns)
    if n - k < 1:
        raise ParamError("no within-group degrees of freedom")
    grand, ss1, ss2 = (float(v[0]) for v in
                       _sums_of_squares(np.concatenate(groups)[None, :], ns))
    # equal values are caught as such: a group mean can round off them,
    # which leaves a within-group sum of squares of order eps^2, not 0
    if ss2 == 0.0 or all(np.ptp(g) == 0.0 for g in groups):
        raise ParamError("zero within-group variation: F undefined")
    f = (n - k) * ss1 / ((k - 1) * ss2)
    return AnovaDecomposition(ss0=n * grand ** 2, ss1=ss1, ss2=ss2,
                              f_statistic=f, df_between=k - 1, df_within=n - k)


class FPower(NamedTuple):
    lambda_f: float
    power: float
    critical: float


def f_power(design: OneWayDesign, alpha: float) -> FPower:
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
    power = 1.0 - float(ncf_cdf(crit, d1, d2, lam_f))
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
    for i, (mu, om) in enumerate(zip(design.means, design.omegas)):
        e_s2 = p.kappa2 * om ** 2
        var_y = e_s2 + p.sigma0 ** 2 + p.sigma1 ** 2 * mu ** 2
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
    c = p.sigma1 ** 2 / p.kappa2
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
    """Read grouped observations from a CSV with header ``group,y`` (see
    ``io``); returns (labels, list of arrays) in order of first appearance."""
    buckets = {}
    for label, value in read_csv(path, group=str, y=float):
        buckets.setdefault(label, []).append(value)
    return list(buckets), [np.asarray(v) for v in buckets.values()]
