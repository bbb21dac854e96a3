"""Seeded Monte Carlo engine for calibrated measurements.

RNG layout (pinned, v1): every tracked functional draws from its own Philox
stream obtained as Generator(Philox(SeedSequence(entropy=seed,
spawn_key=key))); normals are produced by the inverse-CDF transform
ndtri(uniform) with one uniform per normal (no rejection, fixed
consumption), so identical (seed, config) reproduce bit-identical streams.
Within a batch the uniform matrix is laid out one replication per row:
coefficient mode uses columns [beta0_hat, beta1_hat, z_1..z_n]; full
calibration mode uses [eps_1..eps_n0, z_1..z_n].

Each replication shares a single (beta0_hat, beta1_hat) draw across its n
projected values; that shared draw is the induced dependence under study.

The t^2 statistic tests a null at fixed distance from the replication's
conditional mean (distance |mu_y - mu_y0|/sqrt(n), i.e. abstract
noncentrality delta = (mu_y - mu_y0)^2/(sigma1^2 sigma_z^2)); that is the
regime in which the t^2 mixture law is exact, since a fixed absolute null
would add intercept noise to the noncentrality.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp
from scipy.interpolate import PchipInterpolator

from .errors import DataError, ParamError, require_finite
from .model import MixtureParams

_STREAMS = {
    "sample": 0,
    "mean": 1,
    "s2": 2,
    "tsq": 3,
    "f_oneway": 4,
    "diagnostics": 5,
    "inconsistency": 6,
    "gaussian_ref": 7,
}

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class CalibrationDesign:
    """Design of a fresh calibration experiment: fixed readings x, the true
    centered line (beta0, beta1) and the error scale sigma_u."""

    x: tuple
    beta0: float
    beta1: float
    sigma_u: float

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        require_finite(beta0=self.beta0, beta1=self.beta1, sigma_u=self.sigma_u,
                       **{"x[%d]" % i: v for i, v in enumerate(self.x)})
        if len(self.x) < 3:
            raise ParamError("calibration design needs at least 3 readings")
        if self.sigma_u <= 0:
            raise ParamError("sigma_u must be positive")
        if self.sxx <= 0:
            raise ParamError("degenerate design: all x values equal")

    @property
    def n0(self) -> int:
        return len(self.x)

    @property
    def xc(self):
        x = np.asarray(self.x)
        return x - x.mean()

    @property
    def sxx(self) -> float:
        return float(np.dot(self.xc, self.xc))

    @property
    def sigma0(self) -> float:
        return self.sigma_u / math.sqrt(self.n0)

    @property
    def sigma1(self) -> float:
        return self.sigma_u / math.sqrt(self.sxx)

    def mixture_params(self, n: int, mu_z: float, sigma_z: float) -> MixtureParams:
        """The MixtureParams bundle this design induces."""
        return MixtureParams(n=n, beta0=self.beta0, sigma0=self.sigma0,
                             mu_z=mu_z, sigma_z=sigma_z, beta1=self.beta1,
                             sigma1=self.sigma1)


@dataclass(frozen=True)
class McConfig:
    """Replication count, seed and sampling mode of a Monte Carlo run."""

    replications: int
    seed: int
    mode: str = "coefficient"
    design: CalibrationDesign | None = None

    def __post_init__(self):
        require_finite(replications=self.replications, seed=self.seed)
        if self.replications < 1:
            raise ParamError("replications must be >= 1")
        if self.mode not in ("coefficient", "full"):
            raise ParamError("mode must be 'coefficient' or 'full'")
        if self.mode == "full" and self.design is None:
            raise ParamError("full-calibration mode needs a design")


@dataclass(frozen=True)
class McSummary:
    """Point estimate with its Monte Carlo standard error."""

    name: str
    estimate: float
    std_error: float
    replications: int

    def to_dict(self):
        return {"name": self.name, "estimate": self.estimate,
                "std_error": self.std_error, "replications": self.replications}


def mc_config_from_json(payload) -> McConfig:
    """Parse an McConfig from a JSON payload (dict or text); unknown fields
    are rejected."""
    if isinstance(payload, str):
        payload = json.loads(payload)
    allowed = {"schema_version", "replications", "seed", "mode", "design"}
    unknown = set(payload) - allowed
    if unknown:
        raise DataError("unknown Monte Carlo config fields: %s" % sorted(unknown))
    design = None
    if payload.get("design") is not None:
        d = payload["design"]
        d_allowed = {"x", "beta0", "beta1", "sigma_u"}
        d_unknown = set(d) - d_allowed
        if d_unknown:
            raise DataError("unknown design fields: %s" % sorted(d_unknown))
        design = CalibrationDesign(x=tuple(d["x"]), beta0=float(d["beta0"]),
                                   beta1=float(d["beta1"]),
                                   sigma_u=float(d["sigma_u"]))
    try:
        return McConfig(replications=int(payload["replications"]),
                        seed=int(payload["seed"]),
                        mode=payload.get("mode", "coefficient"),
                        design=design)
    except KeyError as exc:
        raise DataError("missing Monte Carlo config field: %s" % exc) from exc


def mc_config_to_json(cfg: McConfig) -> dict:
    design = None
    if cfg.design is not None:
        design = {"x": list(cfg.design.x), "beta0": cfg.design.beta0,
                  "beta1": cfg.design.beta1, "sigma_u": cfg.design.sigma_u}
    return {"schema_version": SCHEMA_VERSION, "replications": cfg.replications,
            "seed": cfg.seed, "mode": cfg.mode, "design": design}


# ----------------------------------------------------------------------
# streams and draws
# ----------------------------------------------------------------------

def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent keyed stream: Philox counter generator keyed by
    SeedSequence(entropy=seed, spawn_key=key)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def _std_normal(rng: np.random.Generator, shape):
    """Inverse-CDF normals: one uniform consumed per variate, no rejection."""
    u = rng.random(shape)
    return sp.ndtri(np.maximum(u, 2.0 ** -60))


def _draw_coefficients(p: MixtureParams, cfg: McConfig, reps: int, z_cols: int,
                       rng: np.random.Generator):
    """(beta0_hat, beta1_hat, Z) for `reps` replications with z_cols readings
    per replication, honoring the pinned uniform layout."""
    if cfg.mode == "coefficient":
        normals = _std_normal(rng, (reps, 2 + z_cols))
        b0 = p.beta0 + p.sigma0 * normals[:, 0]
        b1 = p.beta1 + p.sigma1 * normals[:, 1]
        z = p.mu_z + p.sigma_z * normals[:, 2:]
    else:
        d = cfg.design
        normals = _std_normal(rng, (reps, d.n0 + z_cols))
        eps = d.sigma_u * normals[:, :d.n0]
        b0 = d.beta0 + eps.mean(axis=1)
        b1 = d.beta1 + eps @ d.xc / d.sxx
        z = p.mu_z + p.sigma_z * normals[:, d.n0:]
    return b0, b1, z


def draw_calibrated_sample(p: MixtureParams, cfg: McConfig,
                           rng: np.random.Generator | None = None):
    """One replication of n calibrated values Y_i = beta0_hat + beta1_hat Z_i,
    sharing a single coefficient draw across the sample."""
    if rng is None:
        rng = substream(cfg.seed, _STREAMS["sample"])
    b0, b1, z = _draw_coefficients(p, cfg, 1, p.n, rng)
    return (b0[:, None] + b1[:, None] * z)[0]


def draw_calibrated_samples(p: MixtureParams, cfg: McConfig,
                            rng: np.random.Generator | None = None):
    """(replications, n) matrix of calibrated samples, one row per replication."""
    if rng is None:
        rng = substream(cfg.seed, _STREAMS["sample"])
    b0, b1, z = _draw_coefficients(p, cfg, cfg.replications, p.n, rng)
    return b0[:, None] + b1[:, None] * z


def _variance_summary(name, values) -> McSummary:
    v = np.asarray(values, dtype=float)
    m = v.mean()
    c2 = np.mean((v - m) ** 2)
    c4 = np.mean((v - m) ** 4)
    est = v.var(ddof=1)
    se = math.sqrt(max(c4 - c2 * c2, 0.0) / v.size)
    return McSummary(name=name, estimate=float(est), std_error=float(se),
                     replications=v.size)


def mc_inconsistency_curve(p: MixtureParams, n_grid, cfg: McConfig):
    """Empirical Var(Ybar_n) along n_grid.

    Ybar = beta0_hat + beta1_hat Zbar with Zbar ~ N(mu_z, sigma_z^2/n) is an
    exact distributional reduction for iid Gaussian readings, so each grid
    entry costs three normals per replication regardless of n.
    """
    n_grid = list(n_grid)
    if n_grid != sorted(n_grid):
        raise ParamError("n_grid must be ascending")
    if n_grid and n_grid[0] < 1:
        raise ParamError("n_grid values must be at least 1")
    out = []
    for idx, n in enumerate(n_grid):
        rng = substream(cfg.seed, _STREAMS["inconsistency"], idx)
        normals = _std_normal(rng, (cfg.replications, 3))
        b0 = p.beta0 + p.sigma0 * normals[:, 0]
        b1 = p.beta1 + p.sigma1 * normals[:, 1]
        zbar = p.mu_z + p.sigma_z / math.sqrt(n) * normals[:, 2]
        ybar = b0 + b1 * zbar
        out.append(_variance_summary("var_ybar_n%d" % n, ybar))
    return out


def mc_statistic_distribution(p: MixtureParams, statistic: str, cfg: McConfig,
                              *, mu_y0: float | None = None,
                              delta: float | None = None,
                              design=None):
    """Monte Carlo sample of a calibrated statistic.

    statistic: "mean" (Ybar), "s2" (the scaled variance
    nu S_Y^2/(sigma1^2 sigma_z^2)), "tsq" (t0^2 against a null at fixed
    distance from the conditional mean; pass mu_y0 or the abstract
    noncentrality delta), "f_oneway" (needs a homoscedastic OneWayDesign),
    or "diagnostics" (dict of W, U, b1, b2 samples).
    """
    if statistic not in ("mean", "s2", "tsq", "f_oneway", "diagnostics"):
        raise ParamError("unknown statistic %r" % statistic)
    if statistic == "tsq":
        if (mu_y0 is None) == (delta is None):
            raise ParamError("tsq needs exactly one of mu_y0 or delta")
        if delta is None:
            require_finite(mu_y0=mu_y0)
            delta = (p.mu_y - mu_y0) ** 2 / (p.sigma1 ** 2 * p.sigma_z ** 2)
        require_finite(delta=delta)
        if delta < 0:
            raise ParamError("delta must be nonnegative")
    rng = substream(cfg.seed, _STREAMS[statistic])
    reps = cfg.replications

    if statistic == "mean":
        if cfg.mode == "coefficient":
            normals = _std_normal(rng, (reps, 3))
            b0 = p.beta0 + p.sigma0 * normals[:, 0]
            b1 = p.beta1 + p.sigma1 * normals[:, 1]
            zbar = p.mu_z + p.sigma_z / math.sqrt(p.n) * normals[:, 2]
        else:
            b0, b1, z = _draw_coefficients(p, cfg, reps, p.n, rng)
            zbar = z.mean(axis=1)
        return b0 + b1 * zbar

    if statistic == "f_oneway":
        if design is None:
            raise ParamError("f_oneway needs a OneWayDesign")
        if len(set(design.omegas)) != 1:
            raise ParamError("f_oneway assumes a common omega across groups")
        omega = design.omegas[0]
        n = design.n
        normals = _std_normal(rng, (reps, 2 + n))
        b0 = p.beta0 + p.sigma0 * normals[:, 0]
        b1 = p.beta1 + p.sigma1 * normals[:, 1]
        mu_vec = np.repeat(np.asarray(design.means), np.asarray(design.sizes))
        z = mu_vec[None, :] + omega * normals[:, 2:]
        y = b0[:, None] + b1[:, None] * z
        return _f_statistics(y, design.sizes)

    b0, b1, z = _draw_coefficients(p, cfg, reps, p.n, rng)
    y = b0[:, None] + b1[:, None] * z

    if statistic == "s2":
        s2 = y.var(axis=1, ddof=1)
        return (p.n - 1) * s2 / (p.sigma1 ** 2 * p.sigma_z ** 2)

    if statistic == "tsq":
        dist_n = math.sqrt(delta * p.sigma1 ** 2 * p.sigma_z ** 2 / p.n)
        null = (b0 + b1 * p.mu_z) - dist_n
        ybar = y.mean(axis=1)
        s2 = y.var(axis=1, ddof=1)
        return p.n * (ybar - null) ** 2 / s2

    # diagnostics
    from . import diagnostics as diag
    w = diag.shapiro_type_w_batch(y)
    u = diag.von_neumann_ratio_batch(y - y.mean(axis=1, keepdims=True))
    b1r, b2r = diag.moment_ratios_batch(y)
    return {"W": w, "U": u, "b1": b1r, "b2": b2r}


def _f_statistics(y, sizes):
    """One-way F statistics per replication row of y."""
    sizes = np.asarray(sizes)
    k = sizes.size
    n = int(sizes.sum())
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    grand = y.mean(axis=1)
    ss1 = np.zeros(y.shape[0])
    ss2 = np.zeros(y.shape[0])
    for i in range(k):
        g = y[:, bounds[i]:bounds[i + 1]]
        gm = g.mean(axis=1)
        ss1 += sizes[i] * (gm - grand) ** 2
        ss2 += ((g - gm[:, None]) ** 2).sum(axis=1)
    return (n - k) * ss1 / ((k - 1) * ss2)


def reference_gaussian_samples(n: int, cfg: McConfig):
    """(replications, n) iid N(0,1) matrix from the dedicated reference stream
    (comparison population for blindness checks)."""
    rng = substream(cfg.seed, _STREAMS["gaussian_ref"])
    return _std_normal(rng, (cfg.replications, n))


def dump_samples_csv(path, name, values) -> None:
    """Raw per-replication dump for external analysis."""
    arr = np.asarray(values, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(name + "\n")
        for v in arr.ravel() if arr.ndim == 1 else arr.reshape(arr.shape[0], -1)[:, 0]:
            fh.write(repr(float(v)) + "\n")


# ----------------------------------------------------------------------
# Kolmogorov-Smirnov utilities
# ----------------------------------------------------------------------

def ks_band(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample KS acceptance band 1.63/sqrt(n) at alpha=0.01."""
    if alpha != 0.01:
        raise ValueError("only the alpha=0.01 band constant 1.63 is pinned")
    return 1.63 / math.sqrt(n)


def ks_two_sample_band(n: int, m: int, alpha: float = 0.01) -> float:
    if alpha != 0.01:
        raise ValueError("only the alpha=0.01 band constant 1.63 is pinned")
    return 1.63 * math.sqrt((n + m) / (n * m))


def ks_distance(sample, dist, *, grid_points: int = 1024,
                tail_frac: float = 1e-4) -> float:
    """Upper bound on the one-sample KS distance against a mixture evaluator.

    The evaluator CDF is computed exactly on a grid blending uniform coverage
    with sample quantiles and monotonically interpolated at the sample points;
    beyond the extreme tail_frac quantiles the deviation is bounded by the
    larger of the empirical and model tail masses (the t^2/signed-t mixtures
    have heavy far tails where pointwise CDF work is wasted).
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    lo_i = int(math.floor(tail_frac * n))
    hi_i = n - 1 - lo_i
    if hi_i - lo_i < 2:
        raise ValueError("sample too small for the requested tail fraction")
    xl, xr = x[lo_i], x[hi_i]
    if xr <= xl:
        raise ValueError("degenerate sample")
    step = max(1, n // grid_points)
    grid = np.union1d(x[lo_i:hi_i + 1:step],
                      np.linspace(xl, xr, min(grid_points, 512)))
    grid = np.union1d(grid, np.array([xl, xr]))
    fvals = np.clip(np.atleast_1d(dist.cdf(grid)), 0.0, 1.0)
    fvals = np.maximum.accumulate(fvals)
    interp = PchipInterpolator(grid, fvals, extrapolate=False)
    xs = x[lo_i:hi_i + 1]
    fx = np.clip(interp(xs), 0.0, 1.0)
    i = np.arange(lo_i, hi_i + 1)
    d_core = float(np.max(np.maximum(np.abs((i + 1) / n - fx),
                                     np.abs(i / n - fx))))
    left_allow = max(lo_i / n, float(fvals[0]))
    right_allow = max(1.0 - (hi_i + 1) / n, 1.0 - float(fvals[-1]))
    return max(d_core, left_allow, right_allow)


def ks_distance_two_sample(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / a.size
    cdf_b = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))
