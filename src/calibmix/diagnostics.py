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

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import ParamError
from .io import read_csv
from .model import MixtureParams


@dataclass(frozen=True)
class ResidualSet:
    """Ordinary residuals with studentized and leave-one-out versions."""

    residuals: np.ndarray
    sample_sd: float
    studentized: np.ndarray
    r_student: np.ndarray


def _residuals(y):
    """(R = Y - Ybar, R'R), rejecting a constant sample.  Equal values are
    caught as such: their mean can round off them, which leaves residuals
    of order eps instead of 0."""
    r = y - y.mean()
    ss = float(np.dot(r, r))
    if ss == 0.0 or np.ptp(y) == 0.0:
        raise ParamError("constant sample: S_Y = 0")
    return r, ss


def residual_diagnostics(y) -> ResidualSet:
    """Residuals R_i = Y_i - Ybar, t_i = R_i/(S sqrt(1-1/n)), and R-Student
    with the leave-one-out sd from the exact downdate
    (n-2) S_{-i}^2 = (n-1) S^2 - n R_i^2/(n-1)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 3:
        raise ParamError("need at least 3 observations")
    r, ss = _residuals(y)
    s = math.sqrt(ss / (n - 1))
    loo_ss = ss - n * r ** 2 / (n - 1)
    loo_sd = np.sqrt(np.maximum(loo_ss, 0.0) / (n - 2))
    r_student = np.full(n, np.inf)
    ok = loo_sd > 0
    r_student[~ok] = np.sign(r[~ok]) * np.inf
    r_student[ok] = r[ok] / (loo_sd[ok] * math.sqrt(1.0 - 1.0 / n))
    return ResidualSet(residuals=r, sample_sd=s,
                       studentized=studentized_batch(y[None, :])[0],
                       r_student=r_student)


def von_neumann_ratio(r):
    """Ratio U = R'BR/R'R with B the successive-difference form:
    R'BR = sum (R_{i+1} - R_i)^2.  Scale-invariant by construction."""
    r = np.asarray(r, dtype=float)
    if float(np.dot(r, r)) == 0.0:
        raise ParamError("zero residual vector")
    return float(von_neumann_ratio_batch(r[None, :])[0])


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


def shapiro_type_w(y):
    """Regression-type normality statistic W = (sum w_i Y_(i))^2/((n-1) S^2)
    with the zero-sum weights w = blom_weights(n)."""
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        raise ParamError("need at least 3 observations")
    _residuals(y)
    return float(shapiro_type_w_batch(y[None, :])[0])


def moment_ratios(y):
    """Sample moment ratios b1 = m3^2/m2^3 and b2 = m4/m2^2 (both exactly
    invariant under affine maps with nonzero slope)."""
    y = np.asarray(y, dtype=float)
    if y.size < 4:
        raise ParamError("need at least 4 observations")
    _residuals(y)
    b1, b2 = moment_ratios_batch(y[None, :])
    return float(b1[0]), float(b2[0])


# -- the batch kernels: one row per sample ---------------------------------
# The scalar statistics above check their input and then evaluate these on
# one row; the Monte Carlo engine and blindness_suite evaluate them on many.

def _centred(y):
    """(D, the row sums of D * D) for D = Y - Ybar, row by row: the
    centring that every batch kernel below starts from, formed once when a
    caller runs several of them on one sample.  The sums are those of
    ``np.var``, so the kernels read the same bits either way."""
    y = np.asarray(y, dtype=float)
    d = y - y.mean(axis=1, keepdims=True)
    return d, (d * d).sum(axis=1)


def shapiro_type_w_batch(y, centred=None):
    """W per row of y; ``centred`` is ``_centred(y)`` when the caller has
    it (so for the other kernels)."""
    d, ss = centred or _centred(y)
    w = blom_weights(d.shape[1])
    # the centred sample, sorted: w sums to zero, so sum w_i Y_(i) is the
    # same, but the uncentred terms cancel when a row's spread is small
    # against its mean.  A row sum, not a BLAS product, whose value for a
    # row would depend on the row count and alignment of the whole array
    num = (np.sort(d, axis=1) * w).sum(axis=1) ** 2
    return num / ss


def von_neumann_ratio_batch(r, ss=None):
    """U per row of the residuals r; ``ss`` is the row sums of r^2 when the
    caller has them."""
    r = np.asarray(r, dtype=float)
    if ss is None:
        ss = (r * r).sum(axis=1)
    return (np.diff(r, axis=1) ** 2).sum(axis=1) / ss


def moment_ratios_batch(y, centred=None):
    d, ss = centred or _centred(y)
    # products, not ``**``: numpy's pow path for exponents 3 and 4 costs
    # about 40 times a multiply
    d2 = d * d
    m2 = ss / d.shape[1]
    m3 = (d2 * d).mean(axis=1)
    m4 = (d2 * d2).mean(axis=1)
    m2sq = m2 * m2
    return m3 * m3 / (m2sq * m2), m4 / m2sq


def studentized_batch(y, centred=None):
    d, ss = centred or _centred(y)
    n = d.shape[1]
    s = np.sqrt(ss / (n - 1))[:, None]
    return d / (s * math.sqrt(1.0 - 1.0 / n))


def battery_batch(y, centred=None):
    """{W, U, b1, b2}: the diagnostic battery of each row of y, one value
    per row, from one centring of each row."""
    c = centred or _centred(y)
    b1, b2 = moment_ratios_batch(y, c)
    return {"W": shapiro_type_w_batch(y, c),
            "U": von_neumann_ratio_batch(*c), "b1": b1, "b2": b2}


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
        """The report's fields; an R-Student is inf where its leave-one-out
        sd is 0 (the JSON output writes it as null)."""
        return {
            "n": self.n,
            "von_neumann_ratio": self.von_neumann_ratio,
            "shapiro_type_w": self.shapiro_type_w,
            "b1": self.b1,
            "b2": self.b2,
            "studentized": list(self.studentized),
            "r_student": list(self.r_student),
        }


def diagnostic_report(y) -> DiagnosticReport:
    y = np.asarray(y, dtype=float)
    if y.size < 4:
        raise ParamError("need at least 4 observations for the full battery")
    res = residual_diagnostics(y)
    b1, b2 = moment_ratios(y)
    return DiagnosticReport(
        n=y.size,
        von_neumann_ratio=von_neumann_ratio(res.residuals),
        shapiro_type_w=shapiro_type_w(y),
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
    """Worst deviation of a from b in each replication (row).  Measured
    against 1 + |ref| so identities at near-zero statistic values (b1 of an
    almost-symmetric sample) are not dominated by division noise."""
    d = np.abs(a - b) / (1.0 + np.abs(b))
    return d.reshape(d.shape[0], -1).max(axis=1)


# Y = b0 + b1 Z is exact in real arithmetic only: rounding perturbs the
# residuals Y - mean(Y) by about eps (|b0| + |b1| max|Z|) against their size
# |b1| rms(Z - mean(Z)), the cancellation factor that blows up as b1 -> 0.
# Each identity is held to this many eps times that factor; the worst ratio
# seen was 6.5, over 30 seeds x 2e4 replications on five bundles, n = 5-100.
# With b1 and b2 formed from products, not powers, a second such sweep gave
# 5.30, against 5.29 for the power form on the same draws.
_IDENTITY_ROUNDING = 64.0


def blindness_suite(p: MixtureParams, cfg) -> BlindnessReport:
    """Exact per-replication identities between diagnostics of Y and Z, and
    KS comparisons of each statistic against its iid-Gaussian distribution.

    Both streams run in row blocks (simulate._map_blocks); a block keeps
    only per-replication values, so memory is O(replications)."""
    from . import simulate as sim

    def per_replication(b0, b1c, z, y):
        """The battery on Y, each identity's worst deviation and the
        rounding bound, per replication."""
        cy, cz = _centred(y), _centred(z)
        on_y, on_z = battery_batch(y, cy), battery_batch(z, cz)
        out = {("y", k): v for k, v in on_y.items()}
        for k in on_y:
            out["dev", k] = _rel_dev(on_y[k], on_z[k])
        out["dev", "studentized"] = _rel_dev(
            studentized_batch(y, cy),
            studentized_batch(z, cz) * np.sign(b1c)[:, None])
        out["bound"] = (_IDENTITY_ROUNDING * np.finfo(float).eps
                        * (np.abs(b0) + np.abs(b1c) * np.max(np.abs(z), axis=1))
                        / (np.abs(b1c) * np.sqrt(cz[1] / z.shape[1])))
        out["slope"] = b1c
        return out

    rows = sim._calibrated(
        p, cfg, sim.substream(cfg.seed, sim._STREAMS["diagnostics"]),
        per_replication)
    on_g = sim._reference_blocks(p.n, cfg, battery_batch)

    ks = {k: sim.ks_distance_two_sample(rows["y", k], on_g[k]) for k in on_g}
    dev = {k: rows["dev", k] for k in (*on_g, "studentized")}
    return BlindnessReport(
        replications=cfg.replications,
        n=p.n,
        negative_slope_count=int(np.sum(rows["slope"] < 0)),
        max_rel_dev={k: float(np.max(d)) for k, d in dev.items()},
        ks=ks,
        ks_band=sim.ks_two_sample_band(cfg.replications, cfg.replications),
        max_dev_to_bound={k: float(np.max(d / rows["bound"]))
                          for k, d in dev.items()},
    )


def sample_from_csv(path):
    """Read a single-column sample from a CSV with header ``y`` (see
    ``io``); parse errors name the offending row."""
    return np.array([y for (y,) in read_csv(path, y=float)])
