"""Calibration fitting and the closed-form moment algebra of projected data.

A direct assay fits U = beta0 + beta1 (x - xbar) + eps by least squares on
centered readings; new readings Z are projected as Y = beta0_hat +
beta1_hat Z.  The shared (beta0_hat, beta1_hat) draw makes the Y's dependent
with second-moment structure

    E(Y) = beta0 1 + beta1 mu_Z,
    V(Y) = kappa2 Sigma + sigma0^2 1 1' + sigma1^2 mu_Z mu_Z',

with kappa2 = sigma1^2 + beta1^2 the second raw moment of the slope.
Everything here is closed form; the mixture laws live in `mixtures`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParamError, require_finite
from .io import read_csv


@dataclass(frozen=True)
class CalibrationData:
    """Calibration pairs (x: instrument reading, u: reference measurement)."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((float(x), float(u)) for x, u in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if len(pairs) < 3:
            raise ParamError("calibration needs at least 3 pairs, got %d" % len(pairs))
        arr = np.asarray(pairs, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ParamError("calibration data must be finite")
        if np.ptp(arr[:, 0]) == 0.0:
            raise ParamError("degenerate design: all x values equal (S_xx = 0)")

    @property
    def x(self):
        return np.array([p[0] for p in self.pairs])

    @property
    def u(self):
        return np.array([p[1] for p in self.pairs])


def calibration_data_from_csv(path) -> CalibrationData:
    """Read calibration pairs from a CSV with header ``x,u`` (see ``io``).

    Parse failures raise DataError naming the 1-based file row.
    """
    try:
        return CalibrationData(tuple(read_csv(path, x=float, u=float)))
    except ParamError as exc:
        raise DataError(str(exc)) from exc


@dataclass(frozen=True)
class CalibrationFit:
    """Centered least-squares fit and the standard errors it implies.

    beta0_hat is the intercept after centering (the mean of u), so
    beta0_hat and beta1_hat are uncorrelated; new readings must be shifted
    by ``xbar`` before projection.
    """

    beta0_hat: float
    beta1_hat: float
    sigma_u_hat: float
    sigma0: float
    sigma1: float
    sxx: float
    n0: int
    xbar: float

    def project(self, z):
        """Project raw readings onto the measurement scale: beta0 + beta1 (z - xbar)."""
        return self.beta0_hat + self.beta1_hat * (np.asarray(z, dtype=float) - self.xbar)


def fit_calibration(data: CalibrationData) -> CalibrationFit:
    """Closed-form normal-equation fit of the centered calibration line.

    sigma_u_hat^2 = SSE/(n0 - 2); sigma0 = sigma_u/sqrt(n0);
    sigma1 = sigma_u/sqrt(S_xx).
    """
    x, u = data.x, data.u
    n0 = len(x)
    xbar = float(np.mean(x))
    ubar = float(np.mean(u))
    xc = x - xbar
    sxx = float(np.dot(xc, xc))
    if sxx <= 0.0:
        raise ParamError("degenerate design: S_xx = 0")
    sxu = float(np.dot(xc, u - ubar))
    beta1 = sxu / sxx
    resid = (u - ubar) - beta1 * xc
    sse = float(np.dot(resid, resid))
    sigma_u = math.sqrt(max(sse, 0.0) / (n0 - 2))
    return CalibrationFit(
        beta0_hat=ubar,
        beta1_hat=beta1,
        sigma_u_hat=sigma_u,
        sigma0=sigma_u / math.sqrt(n0),
        sigma1=sigma_u / math.sqrt(sxx),
        sxx=sxx,
        n0=n0,
        xbar=xbar,
    )


@dataclass(frozen=True)
class MixtureParams:
    """The parameter bundle {n, beta0, sigma0, mu_z, sigma_z, beta1, sigma1}
    driving every mixture law.

    ``ideal=True`` marks the known-coefficients reference case: both
    calibration errors vanish and kappa2 collapses to beta1^2.  That case is
    a flag rather than sigma1 = 0 so the slope noncentrality lambda stays
    well defined whenever it is used.
    """

    n: int
    beta0: float
    sigma0: float
    mu_z: float
    sigma_z: float
    beta1: float
    sigma1: float
    ideal: bool = False

    def __post_init__(self):
        require_finite(beta0=self.beta0, sigma0=self.sigma0, mu_z=self.mu_z,
                       sigma_z=self.sigma_z, beta1=self.beta1,
                       sigma1=self.sigma1)
        if self.n < 2:
            raise ParamError("n must be >= 2")
        if self.sigma_z <= 0:
            raise ParamError("sigma_z must be positive")
        if self.ideal:
            if self.sigma0 != 0.0 or self.sigma1 != 0.0:
                raise ParamError("ideal mode requires sigma0 = sigma1 = 0")
        else:
            if self.sigma0 < 0:
                raise ParamError("sigma0 must be nonnegative")
            if self.sigma1 <= 0:
                raise ParamError("sigma1 must be positive (use ideal=True for the "
                                 "known-coefficients case)")
        # every law squares these scales; var_y holds each square
        _finite(lambda: self.var_y,
                "var_y = kappa2 sigma_z^2 + sigma0^2 + sigma1^2 mu_z^2")

    @property
    def kappa2(self) -> float:
        """Second raw moment of the slope estimator: sigma1^2 + beta1^2."""
        return self.sigma1 ** 2 + self.beta1 ** 2

    @property
    def var_y(self) -> float:
        """Unconditional per-observation variance kappa2 sigma_z^2 + sigma0^2 + sigma1^2 mu_z^2."""
        return (self.kappa2 * self.sigma_z ** 2 + self.sigma0 ** 2
                + self.sigma1 ** 2 * self.mu_z ** 2)

    @property
    def var_ybar(self) -> float:
        """Variance of the calibrated sample mean (at most var_y, as n >= 2)."""
        return (self.kappa2 * self.sigma_z ** 2 / self.n + self.sigma0 ** 2
                + self.sigma1 ** 2 * self.mu_z ** 2)

    @property
    def mu_y(self) -> float:
        return self.beta0 + self.beta1 * self.mu_z


@dataclass(frozen=True)
class DerivedParams:
    """Derived quantities of a MixtureParams bundle.

    ``lam`` is beta1^2/sigma1^2 (None in ideal mode); ``delta`` is the t^2
    noncentrality (mu_y - mu_y0)^2 / (sigma1^2 sigma_z^2), present only when a
    null mean was supplied; ``var_ybar`` is kappa2 sigma_z^2/n + sigma0^2 +
    sigma1^2 mu_z^2, whose nonvanishing n -> inf limit is the inconsistency
    of the calibrated sample mean.
    """

    kappa2: float
    lam: float | None
    nu: int
    mu_y: float
    var_y: float
    var_ybar: float
    delta: float | None = None


def _finite(value, name):
    """value(), or a ParamError naming ``name`` where it overflows a double
    (Python's float ** raises OverflowError there, and / by an underflowed
    square ZeroDivisionError)."""
    try:
        v = value()
    except (OverflowError, ZeroDivisionError):
        v = math.inf
    if not math.isfinite(v):
        raise ParamError("%s overflows a double" % name)
    return v


def derive_params(p: MixtureParams, mu_y0: float | None = None) -> DerivedParams:
    """Compute kappa2, lambda, nu, the mean/variance structure and, when a
    null mean is supplied, the t^2 noncentrality delta.  A lambda or delta
    that overflows a double is a ParamError."""
    lam = None if p.ideal else _finite(lambda: (p.beta1 / p.sigma1) ** 2,
                                       "lambda = (beta1/sigma1)^2")
    delta = None
    if mu_y0 is not None:
        if p.ideal:
            raise ParamError("delta is undefined in ideal mode (sigma1 = 0)")
        require_finite(mu_y0=mu_y0)
        delta = _finite(lambda: (p.mu_y - mu_y0) ** 2
                        / (p.sigma1 ** 2 * p.sigma_z ** 2),
                        "delta = (mu_y - mu_y0)^2 / (sigma1^2 sigma_z^2)")
    return DerivedParams(
        kappa2=p.kappa2,
        lam=lam,
        nu=p.n - 1,
        mu_y=p.mu_y,
        var_y=p.var_y,
        var_ybar=p.var_ybar,
        delta=delta,
    )


@dataclass(frozen=True)
class CovarianceStructure:
    """Weights of the three-term dispersion Xi = diag_weight * Sigma
    + ones_weight * 11' + mean_outer_weight * mu mu'."""

    diag_weight: float
    ones_weight: float
    mean_outer_weight: float

    def assemble(self, sigma: np.ndarray, mu_z: np.ndarray) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=float)
        mu_z = np.asarray(mu_z, dtype=float)
        n = len(mu_z)
        ones = np.ones((n, n))
        return (self.diag_weight * sigma + self.ones_weight * ones
                + self.mean_outer_weight * np.outer(mu_z, mu_z))


def covariance_structure(p: MixtureParams) -> CovarianceStructure:
    return CovarianceStructure(
        diag_weight=p.kappa2,
        ones_weight=p.sigma0 ** 2,
        mean_outer_weight=p.sigma1 ** 2,
    )


def unconditional_mean_cov(mu_z_vec, sigma, p: MixtureParams):
    """Unconditional mean vector and dispersion of projected measurements.

    mean = beta0 1 + beta1 mu_Z;  cov = kappa2 Sigma + sigma0^2 11'
    + sigma1^2 mu_Z mu_Z'.  Sigma must be symmetric with matching dimension.
    """
    mu_z_vec = np.asarray(mu_z_vec, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu_z_vec.ndim != 1:
        raise ParamError("mu_z_vec must be one-dimensional")
    n = mu_z_vec.shape[0]
    if sigma.shape != (n, n):
        raise ParamError("dimension mismatch: Sigma is %r but mu_Z has length %d"
                         % (sigma.shape, n))
    if not np.allclose(sigma, sigma.T, atol=1e-12 * max(1.0, np.abs(sigma).max())):
        raise ParamError("Sigma must be symmetric")
    mean = p.beta0 + p.beta1 * mu_z_vec
    cov = covariance_structure(p).assemble(sigma, mu_z_vec)
    cov = 0.5 * (cov + cov.T)
    return mean, cov


def correlation_params(p: MixtureParams, beta1_hat: float | None = None):
    """Equicorrelation parameters of the projected measurements.

    Returns (conditional rho, unconditional rho); the conditional value needs
    a realized slope and is None otherwise.  Conditional:
    sigma0^2/(beta1_hat^2 sigma_z^2 + sigma0^2).  Unconditional:
    (sigma0^2 + sigma1^2 mu_z^2) / (kappa2 sigma_z^2 + sigma0^2 + sigma1^2 mu_z^2).
    """
    shared = p.sigma0 ** 2 + p.sigma1 ** 2 * p.mu_z ** 2
    denom = p.kappa2 * p.sigma_z ** 2 + shared
    if denom <= 0:
        raise ParamError("degenerate dispersion: zero unconditional variance")
    uncond = shared / denom
    cond = None
    if beta1_hat is not None:
        cdenom = beta1_hat ** 2 * p.sigma_z ** 2 + p.sigma0 ** 2
        if cdenom <= 0:
            raise ParamError("degenerate conditional dispersion")
        cond = p.sigma0 ** 2 / cdenom
    return cond, uncond
