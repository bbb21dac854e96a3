"""Moments of calibrated sample statistics and corrected probability regions.

All four moments of the calibrated sample mean are closed form: with
e0 ~ N(0, sigma0^2), e1 ~ N(0, sigma1^2) and e2 ~ N(0, v), v = sigma_z^2/n,
all independent, Ybar - E(Ybar) = e0 + beta1 e2 + mu_z e1 + e1 e2.  The
sample variance S_Y^2 has expectation kappa2 sigma_z^2, short of the true
measurement variance by sigma0^2 + sigma1^2 mu_z^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, ParamError
from .model import MixtureParams, derive_params


@dataclass(frozen=True)
class MomentSummary:
    """Mean, variance and moment ratios (skewness gamma, non-excess kurtosis kappa)."""

    mean: float
    variance: float
    skewness: float
    kurtosis: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("variance must be positive")
        if self.kurtosis < 1.0 + self.skewness ** 2 - 1e-9:
            raise ValueError("kurtosis must satisfy kappa >= 1 + gamma^2")


@dataclass(frozen=True)
class ProbRegion:
    """An equal-tail probability region with its quadrature-verified coverage."""

    lower: float
    upper: float
    coverage: float
    achieved: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("region bounds out of order")


def mean_moments(p: MixtureParams) -> MomentSummary:
    """Moment summary of the calibrated sample mean, all in closed form.

    Mean beta0 + beta1 mu_z and variance m2 = kappa2 sigma_z^2/n + sigma0^2
    + sigma1^2 mu_z^2; only the e1 e2 cross terms of the centred mean are
    non-Gaussian, which gives gamma = 6 beta1 mu_z sigma1^2 v / m2^{3/2} and
    kappa = 3 + [6 sigma1^4 v^2 + 12 sigma1^2 v (beta1^2 v + mu_z^2 sigma1^2)]
    / m2^2 with v = sigma_z^2/n.
    """
    d = derive_params(p)
    m2 = d.var_ybar
    v = p.sigma_z ** 2 / p.n
    s1sq = p.sigma1 ** 2
    return MomentSummary(
        mean=d.mu_y,
        variance=m2,
        skewness=6.0 * p.beta1 * p.mu_z * s1sq * v / m2 ** 1.5,
        kurtosis=3.0 + (6.0 * s1sq ** 2 * v ** 2 + 12.0 * s1sq * v * (
            p.beta1 ** 2 * v + p.mu_z ** 2 * s1sq)) / m2 ** 2,
    )


class SampleVarianceMoments(NamedTuple):
    expected: float
    bias: float


def expected_sample_variance(p: MixtureParams) -> SampleVarianceMoments:
    """E(S_Y^2) = kappa2 sigma_z^2 and its bias against Var(Y).

    The bias -(sigma0^2 + sigma1^2 mu_z^2) vanishes only in the ideal
    known-coefficients case.
    """
    expected = p.kappa2 * p.sigma_z ** 2
    return SampleVarianceMoments(expected=expected, bias=expected - p.var_y)


def probability_region(dist, coverage: float) -> ProbRegion:
    """Equal-tail probability region [Q(a/2), Q(1-a/2)] of a mixture evaluator,
    both quantiles solved together by one ``ppf`` call and re-verified by
    one two-point CDF call; a coverage mismatch beyond 1e-6 (wider for
    coverages within 0.022 of 0 or 1) raises AccuracyError."""
    if not 0.0 < coverage < 1.0:
        raise ParamError("coverage must be in (0, 1)")
    alpha = 1.0 - coverage
    lower, upper = dist.ppf([alpha / 2.0, 1.0 - alpha / 2.0]).tolist()
    f_lower, f_upper = dist.cdf([lower, upper])
    achieved = float(f_upper - f_lower)
    if abs(achieved - coverage) > max(1e-6, 1e-7 + 2e-8 / max(min(
            alpha, coverage), 1e-12)):
        raise AccuracyError(
            "region achieved coverage %.10f misses target %.10f" % (achieved, coverage))
    return ProbRegion(lower=lower, upper=upper, coverage=coverage, achieved=achieved)


def interval_coverage(dist, lower: float, upper: float) -> float:
    """CDF(upper) - CDF(lower) of a mixture evaluator."""
    if not lower < upper:
        raise ParamError("interval bounds out of order")
    return float(np.clip(dist.interval_prob(lower, upper), 0.0, 1.0))


_ROW_HEADER = ("n", "beta0", "sigma0", "mu_z", "sigma_z", "beta1", "sigma1",
               "E", "Var", "gamma", "kappa")


def mean_moment_rows(params_list):
    """Moment-table rows (one per parameter bundle) with the columns
    n, beta0, sigma0, mu_z, sigma_z, beta1, sigma1, E, Var, gamma, kappa."""
    rows = []
    for p in params_list:
        s = mean_moments(p)
        rows.append({
            "n": p.n, "beta0": p.beta0, "sigma0": p.sigma0, "mu_z": p.mu_z,
            "sigma_z": p.sigma_z, "beta1": p.beta1, "sigma1": p.sigma1,
            "E": s.mean, "Var": s.variance, "gamma": s.skewness,
            "kappa": s.kurtosis,
        })
    return rows


def moment_rows_header():
    return _ROW_HEADER
