"""Residual diagnostics and their exact blindness to calibration.

Every statistic here is a scale-invariant (or affine-invariant) function of
the residuals, and the calibrated sample satisfies R(Y) = beta1_hat R(Z) and
S_Y = |beta1_hat| S_Z, so each statistic computed on projected measurements
Y equals the same statistic on the raw readings Z identically:

    W(Y) = W(Z)          (zero-sum order-statistic weights cancel)
    U(Y) = U(Z)          (ratio of residual quadratic forms)
    b1(Y), b2(Y) = b1(Z), b2(Z)
    t_i(Y) = sign(beta1_hat) t_i(Z)

blindness_suite checks those identities replication by replication and also
compares the Monte Carlo distribution of each statistic under calibration
against plain iid Gaussian data; indistinguishability (KS within band) is
the operational content of the blindness claims.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DataError, ParamError
from .model import MixtureParams


@dataclass(frozen=True)
class ResidualSet:
    """Ordinary residuals with studentized and leave-one-out versions."""

    residuals: np.ndarray
    sample_sd: float
    studentized: np.ndarray
    r_student: np.ndarray


def residual_diagnostics(y) -> ResidualSet:
    """Residuals R_i = Y_i - Ybar, t_i = R_i/(S sqrt(1-1/n)), and R-Student
    with the leave-one-out sd from the exact downdate
    (n-2) S_{-i}^2 = (n-1) S^2 - n R_i^2/(n-1)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 3:
        raise ParamError("need at least 3 observations")
    r = y - y.mean()
    ss = float(np.dot(r, r))
    if ss == 0.0:
        raise ParamError("constant sample: S_Y = 0")
    s = math.sqrt(ss / (n - 1))
    stud = r / (s * math.sqrt(1.0 - 1.0 / n))
    loo_ss = ss - n * r ** 2 / (n - 1)
    loo_sd = np.sqrt(np.maximum(loo_ss, 0.0) / (n - 2))
    r_student = np.full(n, np.inf)
    ok = loo_sd > 0
    r_student[~ok] = np.sign(r[~ok]) * np.inf
    r_student[ok] = r[ok] / (loo_sd[ok] * math.sqrt(1.0 - 1.0 / n))
    return ResidualSet(residuals=r, sample_sd=s, studentized=stud,
                       r_student=r_student)


def von_neumann_ratio(r, b_kind="successive-difference"):
    """Ratio U = R'BR/R'R; the default B is the successive-difference form
    sum (R_{i+1} - R_i)^2.  A custom symmetric matrix may be passed instead.
    Scale-invariant by construction."""
    r = np.asarray(r, dtype=float)
    rr = float(np.dot(r, r))
    if rr == 0.0:
        raise ParamError("zero residual vector")
    if isinstance(b_kind, str):
        if b_kind != "successive-difference":
            raise ValueError("unknown B matrix kind %r" % b_kind)
        quad = float(np.sum(np.diff(r) ** 2))
    else:
        bmat = np.asarray(b_kind, dtype=float)
        quad = float(r @ bmat @ r)
    return quad / rr


def blom_weights(n: int):
    """Zero-sum weights from expected normal order statistics (Blom-type
    plotting positions), normalized to unit length; antisymmetric, so the
    weighted-order-statistic ratio is invariant under either sign of the
    projecting slope."""
    if n < 3:
        raise ParamError("need at least 3 observations")
    i = np.arange(1, n + 1)
    m = sp.ndtri((i - 0.375) / (n + 0.25))
    return m / math.sqrt(float(np.dot(m, m)))


def shapiro_type_w(y, weights=None):
    """Regression-type normality statistic W = (sum w_i Y_(i))^2/((n-1) S^2)
    for a fixed zero-sum weight vector (default: blom_weights)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if weights is None:
        weights = blom_weights(n)
    w = np.asarray(weights, dtype=float)
    if w.size != n:
        raise ParamError("weights length %d does not match sample size %d"
                         % (w.size, n))
    if np.all(w == 0.0):
        raise ParamError("weights must not be all zero")
    if abs(float(w.sum())) > 1e-8 * float(np.abs(w).sum()):
        raise ParamError("weights must sum to zero")
    ys = np.sort(y, kind="stable")
    num = float(np.dot(w, ys)) ** 2
    ss = float(np.sum((y - y.mean()) ** 2))
    if ss == 0.0:
        raise ParamError("constant sample: S_Y = 0")
    return num / ss


def moment_ratios(y):
    """Sample moment ratios b1 = m3^2/m2^3 and b2 = m4/m2^2 (both exactly
    invariant under affine maps with nonzero slope)."""
    y = np.asarray(y, dtype=float)
    if y.size < 4:
        raise ParamError("need at least 4 observations")
    d = y - y.mean()
    m2 = float(np.mean(d ** 2))
    if m2 == 0.0:
        raise ParamError("constant sample")
    m3 = float(np.mean(d ** 3))
    m4 = float(np.mean(d ** 4))
    return m3 ** 2 / m2 ** 3, m4 / m2 ** 2


# -- batched forms used by the Monte Carlo engine --------------------------

def shapiro_type_w_batch(y, weights=None):
    y = np.asarray(y, dtype=float)
    n = y.shape[1]
    w = blom_weights(n) if weights is None else np.asarray(weights, dtype=float)
    ys = np.sort(y, axis=1, kind="stable")
    num = (ys @ w) ** 2
    ss = ((y - y.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    return num / ss


def von_neumann_ratio_batch(r):
    r = np.asarray(r, dtype=float)
    return (np.diff(r, axis=1) ** 2).sum(axis=1) / (r ** 2).sum(axis=1)


def moment_ratios_batch(y):
    y = np.asarray(y, dtype=float)
    d = y - y.mean(axis=1, keepdims=True)
    m2 = (d ** 2).mean(axis=1)
    m3 = (d ** 3).mean(axis=1)
    m4 = (d ** 4).mean(axis=1)
    return m3 ** 2 / m2 ** 3, m4 / m2 ** 2


def studentized_batch(y):
    y = np.asarray(y, dtype=float)
    n = y.shape[1]
    r = y - y.mean(axis=1, keepdims=True)
    s = np.sqrt((r ** 2).sum(axis=1, keepdims=True) / (n - 1))
    return r / (s * math.sqrt(1.0 - 1.0 / n))


@dataclass(frozen=True)
class DiagnosticReport:
    """Full diagnostic battery for one sample."""

    n: int
    von_neumann_ratio: float
    shapiro_type_w: float
    b1: float
    b2: float
    studentized: tuple
    r_student: tuple

    def to_dict(self):
        return {
            "n": self.n,
            "von_neumann_ratio": self.von_neumann_ratio,
            "shapiro_type_w": self.shapiro_type_w,
            "b1": self.b1,
            "b2": self.b2,
            "studentized": list(self.studentized),
            "r_student": list(self.r_student),
        }


def diagnostic_report(y, weights=None) -> DiagnosticReport:
    y = np.asarray(y, dtype=float)
    if y.size < 4:
        raise ParamError("need at least 4 observations for the full battery")
    res = residual_diagnostics(y)
    b1, b2 = moment_ratios(y)
    return DiagnosticReport(
        n=y.size,
        von_neumann_ratio=von_neumann_ratio(res.residuals),
        shapiro_type_w=shapiro_type_w(y, weights),
        b1=b1,
        b2=b2,
        studentized=tuple(float(v) for v in res.studentized),
        r_student=tuple(float(v) for v in res.r_student),
    )


@dataclass(frozen=True)
class BlindnessReport:
    """Replication-level identity checks plus distributional KS comparisons
    against plain iid Gaussian data.

    max_rel_dev holds each identity's worst deviation |a - b|/(1 + |b|);
    max_dev_to_bound holds its worst ratio, over replications, of that
    deviation to the replication's own rounding bound."""

    replications: int
    n: int
    negative_slope_count: int
    max_rel_dev: dict
    ks: dict
    ks_band: float
    max_dev_to_bound: dict

    @property
    def identities_hold(self) -> bool:
        return max(self.max_dev_to_bound.values()) <= 1.0

    @property
    def indistinguishable(self) -> bool:
        return max(self.ks.values()) < self.ks_band

    def to_dict(self):
        return {
            "replications": self.replications,
            "n": self.n,
            "negative_slope_count": self.negative_slope_count,
            "max_rel_dev": dict(self.max_rel_dev),
            "max_dev_to_bound": dict(self.max_dev_to_bound),
            "ks": dict(self.ks),
            "ks_band": self.ks_band,
            "identities_hold": self.identities_hold,
            "indistinguishable": self.indistinguishable,
        }


def _rel_dev(a, b):
    """Deviation of a from b, one row per replication.  Measured against
    1 + |ref| so identities at near-zero statistic values (b1 of an
    almost-symmetric sample) are not dominated by division noise."""
    d = np.abs(a - b) / (1.0 + np.abs(b))
    return d.reshape(d.shape[0], -1)


# Y = b0 + b1 Z is exact in real arithmetic only: rounding perturbs the
# residuals Y - mean(Y) by about eps (|b0| + |b1| max|Z|) against their size
# |b1| rms(Z - mean(Z)), the cancellation factor that blows up as b1 -> 0.
# Each identity is held to this many eps times that factor; the worst ratio
# seen was 6.5, over 30 seeds x 2e4 replications on five bundles, n = 5-100.
_IDENTITY_ROUNDING = 64.0


def blindness_suite(p: MixtureParams, cfg) -> BlindnessReport:
    """Exact per-replication identities between diagnostics of Y and Z, and
    KS comparisons of each statistic against its iid-Gaussian distribution."""
    from . import simulate as sim

    rng = sim.substream(cfg.seed, sim._STREAMS["diagnostics"])
    b0, b1c, z = sim._draw_coefficients(p, cfg, cfg.replications, p.n, rng)
    y = b0[:, None] + b1c[:, None] * z

    w_y = shapiro_type_w_batch(y)
    w_z = shapiro_type_w_batch(z)
    u_y = von_neumann_ratio_batch(y - y.mean(axis=1, keepdims=True))
    zc = z - z.mean(axis=1, keepdims=True)
    u_z = von_neumann_ratio_batch(zc)
    b1_y, b2_y = moment_ratios_batch(y)
    b1_z, b2_z = moment_ratios_batch(z)
    t_y = studentized_batch(y)
    t_z = studentized_batch(z) * np.sign(b1c)[:, None]

    g = sim.reference_gaussian_samples(p.n, cfg)
    w_g = shapiro_type_w_batch(g)
    u_g = von_neumann_ratio_batch(g - g.mean(axis=1, keepdims=True))
    b1_g, b2_g = moment_ratios_batch(g)

    ks = {
        "W": sim.ks_distance_two_sample(w_y, w_g),
        "U": sim.ks_distance_two_sample(u_y, u_g),
        "b1": sim.ks_distance_two_sample(b1_y, b1_g),
        "b2": sim.ks_distance_two_sample(b2_y, b2_g),
    }
    dev = {
        "W": _rel_dev(w_y, w_z),
        "U": _rel_dev(u_y, u_z),
        "b1": _rel_dev(b1_y, b1_z),
        "b2": _rel_dev(b2_y, b2_z),
        "studentized": _rel_dev(t_y, t_z),
    }
    bound = (_IDENTITY_ROUNDING * np.finfo(float).eps
             * (np.abs(b0) + np.abs(b1c) * np.max(np.abs(z), axis=1))
             / (np.abs(b1c) * np.sqrt(np.mean(zc ** 2, axis=1))))[:, None]
    return BlindnessReport(
        replications=cfg.replications,
        n=p.n,
        negative_slope_count=int(np.sum(b1c < 0)),
        max_rel_dev={k: float(np.max(d)) for k, d in dev.items()},
        ks=ks,
        ks_band=sim.ks_two_sample_band(cfg.replications, cfg.replications),
        max_dev_to_bound={k: float(np.max(d / bound)) for k, d in dev.items()},
    )


def sample_from_csv(path):
    """Read a single-column sample from a CSV with header ``y``; parse errors
    name the offending row."""
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0].strip().lower() != "y":
            raise DataError("row 1: expected header 'y', got %r" % (header,))
        for lineno, row in enumerate(reader, start=2):
            if not row or not row[0].strip():
                continue
            try:
                values.append(float(row[0]))
            except ValueError as exc:
                raise DataError("row %d: %s" % (lineno, exc)) from exc
    if not values:
        raise DataError("row 2: no data rows found")
    return np.asarray(values)
