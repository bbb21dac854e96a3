"""Octane calibration case study: reference data and canonical parameters.

The octane data pair percent purity (x) with laboratory octane number (u)
for eleven production runs.  The canonical parameter set used downstream
(intercept 87.2818, slope 1.8546, with standard errors 0.1846 and 0.5837)
is the self-consistent bundle the study's regions, moments and power values
are computed from; `fit_calibration` on the raw pairs is reported alongside
it and intentionally not substituted for it.
"""

from __future__ import annotations

import dataclasses
import math

from .model import MixtureParams, CalibrationData, fit_calibration, derive_params
from .moments import expected_sample_variance, interval_coverage, probability_region
from .mixtures import mean_mixture, variance_mixture
from .power import operating_characteristics, power_table_payload, tsq_critical
from .quadrature import QuadSpec

OCTANE_X = (99.8, 99.7, 99.6, 99.5, 99.4, 99.3, 99.2, 99.1, 99.0, 98.9, 98.8)
OCTANE_U = (88.6, 86.4, 87.2, 88.4, 87.2, 86.8, 86.1, 87.3, 86.4, 86.6, 87.1)

# canonical study inputs (self-consistent; see notes shipped with the repo)
STUDY_BETA0 = 87.2818
STUDY_SIGMA0 = 0.1846
STUDY_BETA1 = 1.8546
STUDY_SIGMA1 = 0.5837
STUDY_N = 11
# the t^2 test's level, and the squared distance (mu_y - mu_y0)^2 of its
# null mean from the mean
STUDY_ALPHA = 0.05
STUDY_SQUARED_MEAN_SHIFT = 1.0

# the naive normal-theory intervals quoted by the study
STUDY_NAIVE_MEAN_INTERVAL = (86.184, 88.376)
STUDY_NAIVE_S2_INTERVAL = (1.1167, 7.0449)

POWER_TABLE_DELTAS = (0.0, 1.0, 4.0, 9.0)
POWER_TABLE_LAMBDAS = (1.0, 4.0, 9.0)

# moment-table parameter grid: (n, beta0, sigma0, mu_z, sigma_z, beta1, sigma1)
MOMENT_TABLE_PARAMS = (
    (10, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    (20, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    (20, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0),
    (20, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    (20, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0),
    (20, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0),
    (20, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0),
    (20, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0),
    (20, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0),
    (20, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0),
    (20, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0),
    (20, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0),
    (20, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5),
    (20, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0),
    (10, 1.0, 0.5, 1.0, 2.0, 1.0, 2.0),
)


def octane_data() -> CalibrationData:
    return CalibrationData(tuple(zip(OCTANE_X, OCTANE_U)))


def octane_params() -> MixtureParams:
    """Canonical mixture parameters of the octane study (n = STUDY_N new
    readings, standard normal on the centered purity scale)."""
    return MixtureParams(n=STUDY_N, beta0=STUDY_BETA0, sigma0=STUDY_SIGMA0,
                         mu_z=0.0, sigma_z=1.0, beta1=STUDY_BETA1,
                         sigma1=STUDY_SIGMA1)


def moment_table_params():
    return [MixtureParams(n=n, beta0=b0, sigma0=s0, mu_z=mz, sigma_z=sz,
                          beta1=b1, sigma1=s1)
            for (n, b0, s0, mz, sz, b1, s1) in MOMENT_TABLE_PARAMS]


def case_study_report(quad: QuadSpec = QuadSpec()) -> dict:
    """Full octane pipeline: fit, corrected regions for the mean and the
    sample variance, E(S_Y^2), and the t^2 operating characteristic at the
    canonical noncentralities."""
    fit = fit_calibration(octane_data())
    p = octane_params()
    d = derive_params(p, mu_y0=p.mu_y - math.sqrt(STUDY_SQUARED_MEAN_SHIFT))
    ev_mean = mean_mixture(p, quad)
    mean_region = probability_region(ev_mean, 0.95)
    naive_cov = interval_coverage(ev_mean, *STUDY_NAIVE_MEAN_INTERVAL)

    es2, bias = expected_sample_variance(p)
    scale = p.sigma1 ** 2 * p.sigma_z ** 2
    ev_var = variance_mixture(d.nu, d.lam, quad)
    var_region = probability_region(ev_var, 0.95)
    s2_lo, s2_hi = STUDY_NAIVE_S2_INTERVAL
    naive_var_cov = interval_coverage(ev_var, d.nu * s2_lo / scale,
                                      d.nu * s2_hi / scale)

    oc = operating_characteristics(d.nu, d.delta, d.lam, STUDY_ALPHA, quad)
    return {
        "schema_version": "1",
        "fitted_line": dataclasses.asdict(fit),
        "canonical_params": {
            "n": p.n, "beta0": p.beta0, "sigma0": p.sigma0, "mu_z": p.mu_z,
            "sigma_z": p.sigma_z, "beta1": p.beta1, "sigma1": p.sigma1,
        },
        "derived": {
            "kappa2": d.kappa2, "lambda": d.lam, "nu": d.nu,
            "delta": d.delta, "mu_y": d.mu_y, "var_y": d.var_y,
            "var_ybar": d.var_ybar,
            "squared_mean_shift": STUDY_SQUARED_MEAN_SHIFT,
        },
        "mean": {
            "region_95": [mean_region.lower, mean_region.upper],
            "region_achieved": mean_region.achieved,
            "naive_interval": list(STUDY_NAIVE_MEAN_INTERVAL),
            "naive_interval_coverage": naive_cov,
        },
        "sample_variance": {
            "expected": es2,
            "bias": bias,
            "scaled_region_95": [var_region.lower, var_region.upper],
            "region_achieved": var_region.achieved,
            "s2_region_95": [var_region.lower * scale / d.nu,
                             var_region.upper * scale / d.nu],
            "naive_interval": list(STUDY_NAIVE_S2_INTERVAL),
            "naive_interval_coverage": naive_var_cov,
        },
        "tsq_test": {
            "alpha": STUDY_ALPHA,
            "critical": tsq_critical(d.nu, STUDY_ALPHA),
            "delta": d.delta,
            "lambda": d.lam,
            "nonrejection_prob": oc.nonrejection_prob,
            "rejection_prob": oc.rejection_prob,
        },
        "quadrature": dataclasses.asdict(quad),
    }


def power_table_report(quad: QuadSpec = QuadSpec()) -> dict:
    """The study's operating-characteristic grid."""
    return power_table_payload(STUDY_N - 1, POWER_TABLE_DELTAS,
                               POWER_TABLE_LAMBDAS, STUDY_ALPHA, quad)
