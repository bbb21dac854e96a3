"""Seeded Monte Carlo engine for calibrated measurements.

RNG layout (pinned, v2): every tracked functional draws from its own Philox
stream obtained as Generator(Philox(SeedSequence(entropy=seed,
spawn_key=key))); normals are produced by the inverse-CDF transform
ndtri(uniform) with one uniform per normal (no rejection, fixed
consumption), so identical (seed, config) reproduce bit-identical streams.
Within a batch the uniform matrix is laid out one replication per row, and
_draw_blocks is the only code that consumes it.  Coefficient mode
uses columns [beta0_hat, beta1_hat, Z...]; full calibration mode uses
[eps_1..eps_n0, Z...] and takes the line (beta0, beta1, sigma_u, x) from
the design for every statistic.  The Z columns are, per statistic:

    sample, s2, tsq, diagnostics   z_1..z_n, each N(mu_z, sigma_z^2)
    mean, inconsistency            zbar ~ N(mu_z, sigma_z^2/n), one column
    f_oneway                       the groups' readings in group order,
                                   N(mu_i, omega^2)

Full-mode `mean` therefore consumes n0 + 1 uniforms per replication (v1
drew n readings and averaged them).

Each replication shares a single (beta0_hat, beta1_hat) draw across its n
projected values; that shared draw is the induced dependence under study.

Every statistic runs over row blocks of that matrix (_map_blocks).  Block k
holds rows [k R, (k + 1) R) with R = max(1, 2**15 // columns), about 256 KB
of normals: the blocks are fixed by (rows, columns), never by the machine.
A block draws its uniforms from a clone of the stream's Philox generator
skipped ahead to its first uniform (Philox is counter-based, so the skip
costs no draws), reduces them to per-row results, and the results are
stacked in block order.  The blocks run through ``parallel.thread_map``,
the helper the mixture laws' point blocks also use, on up to
len(sched_getaffinity) threads; the output is bit-identical on any number
of CPUs, and no block forms the whole normal, Z or Y matrix, so memory is
O(replications) for every per-row statistic.

The t^2 statistic tests a null at fixed distance from the replication's
conditional mean (distance |mu_y - mu_y0|/sqrt(n), i.e. abstract
noncentrality delta = (mu_y - mu_y0)^2/(sigma1^2 sigma_z^2)); that is the
regime in which the t^2 mixture law is exact, since a fixed absolute null
would add intercept noise to the noncentrality.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DataError, ParamError, converted, require_finite
from .io import decode_json, json_object, rows_to_csv_text, write_text
from .model import MixtureParams, derive_params
from .oneway import _sums_of_squares
from .parallel import thread_map

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

# A Monte Carlo block holds about this many normals (256 KB): rows
# max(1, _BLOCK_NORMALS // cols) of the pinned uniform matrix.
_BLOCK_NORMALS = 2 ** 15
# uint64 draws per Philox counter step
_PHILOX_BUFFER = 4
# seeds each block's Philox clone before the stream's state replaces it
_THROWAWAY = np.random.SeedSequence(0)


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
    """Replication count, seed and sampling mode of a Monte Carlo run.

    mode "full" refits the calibration line of `design` in every
    replication, for every statistic: the params' beta0, sigma0, beta1 and
    sigma1 do not enter the draws."""

    replications: int
    seed: int
    mode: str = "coefficient"
    design: CalibrationDesign | None = None

    def __post_init__(self):
        # whole counts only: the row blocks need an integer row count, and
        # SeedSequence a nonnegative integer
        for name, low in (("replications", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParamError("%s must be a whole number, got %r"
                                 % (name, value))
            if value < low:
                raise ParamError("%s must be >= %d, got %r" % (name, low, value))
            object.__setattr__(self, name, int(value))
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
        payload = decode_json(payload, "Monte Carlo config")
    json_object(payload, "Monte Carlo config",
                ("schema_version", "replications", "seed", "mode", "design"))
    d = payload.get("design")
    if d is not None:
        json_object(d, "design", ("x", "beta0", "beta1", "sigma_u"))
    try:
        design = None if d is None else CalibrationDesign(
            x=converted(lambda xs: tuple(float(v) for v in xs), d["x"], "x"),
            **{k: converted(float, d[k], k) for k in ("beta0", "beta1", "sigma_u")})
        return McConfig(
            replications=converted(int, payload["replications"], "replications"),
            seed=converted(int, payload["seed"], "seed"),
            mode=payload.get("mode", "coefficient"),
            design=design)
    except KeyError as exc:
        raise DataError("missing Monte Carlo config field: %s" % exc) from exc


def mc_config_to_json(cfg: McConfig) -> dict:
    return dict(dataclasses.asdict(cfg), schema_version=SCHEMA_VERSION)


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
    np.maximum(u, 2.0 ** -60, out=u)
    return sp.ndtri(u, out=u)


def _skipped(state, offset: int) -> np.random.Generator:
    """A generator whose next uint64 is draw ``offset`` of the fresh Philox
    stream at ``state``: the counter steps once per 4 draws, so advance
    skips whole steps and random_raw the rest.  The clone is seeded from
    _THROWAWAY, not from OS entropy, since ``state`` overwrites it."""
    bg = np.random.Philox(_THROWAWAY)
    bg.state = state
    steps, rest = divmod(offset, _PHILOX_BUFFER)
    bg.advance(steps)
    bg.random_raw(rest)
    return np.random.Generator(bg)


def _stacked(rows: int, parts):
    """Stack the blocks' per-row results, in block order, into (rows, ...)
    arrays allocated on the first block.  A part is an array or a dict of
    arrays; the result has the same form."""
    out, at = None, 0
    for part in parts:
        named = part if isinstance(part, dict) else {None: part}
        if out is None:
            out = {k: np.empty((rows,) + a.shape[1:], a.dtype)
                   for k, a in named.items()}
        for k, a in named.items():
            out[k][at:at + len(a)] = a
        at += len(a)
    return out[None] if None in out else out


def _map_blocks(rng: np.random.Generator, rows: int, cols: int, kernel):
    """kernel(normals) on each row block of the (rows, cols) normals that
    one _std_normal(rng, (rows, cols)) call would draw from rng, a fresh
    substream, results stacked.

    Block k holds rows [k R, (k + 1) R), R = max(1, _BLOCK_NORMALS // cols):
    the blocks depend on the shape only, so the output is the same on any
    number of CPUs.  Each block draws from a clone of rng skipped to its
    first uniform (``parallel.thread_map``); rng itself does not move."""
    step = max(1, _BLOCK_NORMALS // cols)
    starts = range(0, rows, step)
    state = rng.bit_generator.state

    def block(start):
        gen = _skipped(state, start * cols)
        return kernel(_std_normal(gen, (min(start + step, rows) - start, cols)))

    return _stacked(rows, thread_map(block, starts))


def _draw_blocks(p: MixtureParams, cfg: McConfig, z_mean, z_sd: float,
                 rng: np.random.Generator, kernel):
    """kernel(beta0_hat, beta1_hat, Z, Y = beta0_hat + beta1_hat Z) on each
    row block of cfg.replications rows, honoring the pinned uniform layout;
    the per-row results are stacked.  Z has one column per entry of
    z_mean, column j drawn as N(z_mean[j], z_sd^2)."""
    z_mean = np.asarray(z_mean, dtype=float)
    lead = 2 if cfg.mode == "coefficient" else cfg.design.n0
    if cfg.mode == "full":
        d = cfg.design
        xc, sxx = d.xc, d.sxx

    def coefficients(normals):
        z = z_sd * normals[:, lead:]
        z += z_mean
        if cfg.mode == "coefficient":
            b0 = p.beta0 + p.sigma0 * normals[:, 0]
            b1 = p.beta1 + p.sigma1 * normals[:, 1]
        else:
            eps = d.sigma_u * normals[:, :lead]
            b0 = d.beta0 + eps.mean(axis=1)
            # a row sum, not a BLAS product: its value is the same whatever
            # the block's row count
            b1 = d.beta1 + (eps * xc).sum(axis=1) / sxx
        y = b1[:, None] * z
        y += b0[:, None]
        return kernel(b0, b1, z, y)

    return _map_blocks(rng, cfg.replications, lead + z_mean.size,
                       coefficients)


def _calibrated(p: MixtureParams, cfg: McConfig, rng: np.random.Generator,
                kernel):
    """_draw_blocks for n readings Z_i ~ N(mu_z, sigma_z^2) per row."""
    return _draw_blocks(p, cfg, np.full(p.n, p.mu_z), p.sigma_z, rng, kernel)


def draw_calibrated_sample(p: MixtureParams, cfg: McConfig):
    """One replication of n calibrated values Y_i = beta0_hat + beta1_hat Z_i,
    sharing a single coefficient draw across the sample."""
    return draw_calibrated_samples(
        p, dataclasses.replace(cfg, replications=1))[0]


def draw_calibrated_samples(p: MixtureParams, cfg: McConfig):
    """(replications, n) matrix of calibrated samples, one row per replication."""
    return _calibrated(p, cfg, substream(cfg.seed, _STREAMS["sample"]),
                       lambda b0, b1, z, y: y)


def _mean_draws(p: MixtureParams, cfg: McConfig, n: int,
                rng: np.random.Generator):
    """Ybar = beta0_hat + beta1_hat Zbar, with Zbar ~ N(mu_z, sigma_z^2/n)
    drawn as one column: an exact distributional reduction for n iid
    Gaussian readings, so a replication costs the same whatever n is."""
    return _draw_blocks(p, cfg, [p.mu_z], p.sigma_z / math.sqrt(n), rng,
                        lambda b0, b1, z, y: y[:, 0])


def require_std_error_replications(replications: int) -> None:
    """A standard error needs the spread of at least two replications."""
    if replications < 2:
        raise ParamError("a standard error needs replications >= 2, got %d"
                         % replications)


def _variance_summary(name, values) -> McSummary:
    v = np.asarray(values, dtype=float)
    m = v.mean()
    d2 = (v - m) ** 2
    c2 = np.mean(d2)
    c4 = np.mean(d2 * d2)
    est = v.var(ddof=1)
    se = math.sqrt(max(c4 - c2 * c2, 0.0) / v.size)
    return McSummary(name=name, estimate=float(est), std_error=float(se),
                     replications=v.size)


def mc_inconsistency_curve(p: MixtureParams, n_grid, cfg: McConfig):
    """Empirical Var(Ybar_n) along n_grid, one stream per grid entry."""
    n_grid = list(n_grid)
    if n_grid != sorted(n_grid):
        raise ParamError("n_grid must be ascending")
    if n_grid and n_grid[0] < 1:
        raise ParamError("n_grid values must be at least 1")
    require_std_error_replications(cfg.replications)
    return [_variance_summary("var_ybar_n%d" % n, _mean_draws(
        p, cfg, n, substream(cfg.seed, _STREAMS["inconsistency"], idx)))
        for idx, n in enumerate(n_grid)]


def mc_statistic_distribution(p: MixtureParams, statistic: str, cfg: McConfig,
                              *, mu_y0: float | None = None,
                              delta: float | None = None,
                              design=None):
    """Monte Carlo sample of a calibrated statistic.

    statistic: "mean" (Ybar), "s2" (the scaled variance
    nu S_Y^2/(sigma1^2 sigma_z^2)), "tsq" (t0^2 against a null at fixed
    distance from the conditional mean; pass mu_y0 or the abstract
    noncentrality delta), "f_oneway" (needs a homoscedastic OneWayDesign),
    or "diagnostics" (dict of W, U, b1, b2 samples).  In full mode the
    line, and so sigma1 and mu_y, come from the design, not from ``p``.
    """
    if statistic not in ("mean", "s2", "tsq", "f_oneway", "diagnostics"):
        raise ParamError("unknown statistic %r" % statistic)
    if cfg.mode == "full":
        # the draws take the design's line, so must the s2 and tsq scale and
        # the tsq null
        p = cfg.design.mixture_params(p.n, p.mu_z, p.sigma_z)
    if statistic == "tsq":
        if (mu_y0 is None) == (delta is None):
            raise ParamError("tsq needs exactly one of mu_y0 or delta")
        if delta is None:
            delta = derive_params(p, mu_y0).delta
        require_finite(delta=delta)
        if delta < 0:
            raise ParamError("delta must be nonnegative")
    rng = substream(cfg.seed, _STREAMS[statistic])

    if statistic == "mean":
        return _mean_draws(p, cfg, p.n, rng)

    if statistic == "f_oneway":
        if design is None:
            raise ParamError("f_oneway needs a OneWayDesign")
        if len(set(design.omegas)) != 1:
            raise ParamError("f_oneway assumes a common omega across groups")
        return _draw_blocks(p, cfg, np.repeat(design.means, design.sizes),
                            design.omegas[0], rng,
                            lambda b0, b1, z, y: _f_statistics(y, design.sizes))

    if statistic == "s2":
        def kernel(b0, b1, z, y):
            s2 = y.var(axis=1, ddof=1)
            return (p.n - 1) * s2 / (p.sigma1 ** 2 * p.sigma_z ** 2)
    elif statistic == "tsq":
        dist_n = math.sqrt(delta * p.sigma1 ** 2 * p.sigma_z ** 2 / p.n)

        def kernel(b0, b1, z, y):
            null = (b0 + b1 * p.mu_z) - dist_n
            # y.mean and y.var's sums, with y centred once
            ybar = y.mean(axis=1, keepdims=True)
            d = y - ybar
            d *= d
            s2 = d.sum(axis=1) / (y.shape[1] - 1)
            return p.n * (ybar[:, 0] - null) ** 2 / s2
    else:
        from .diagnostics import battery_batch

        def kernel(b0, b1, z, y):
            return battery_batch(y)
    return _calibrated(p, cfg, rng, kernel)


def _f_statistics(y, sizes):
    """One-way F statistics per replication row of y."""
    k, n = len(sizes), sum(sizes)
    _, ss1, ss2 = _sums_of_squares(y, sizes)
    return (n - k) * ss1 / ((k - 1) * ss2)


def _reference_blocks(n: int, cfg: McConfig, kernel):
    """kernel(g) on each row block of the (replications, n) iid N(0,1)
    matrix of the dedicated reference stream, results stacked."""
    rng = substream(cfg.seed, _STREAMS["gaussian_ref"])
    return _map_blocks(rng, cfg.replications, n, kernel)


def reference_gaussian_samples(n: int, cfg: McConfig):
    """(replications, n) iid N(0,1) matrix from the dedicated reference stream
    (comparison population for blindness checks)."""
    return _reference_blocks(n, cfg, lambda g: g)


def dump_samples_csv(path, name, values) -> None:
    """Raw per-replication dump for external analysis."""
    arr = np.asarray(values, dtype=float)
    column = arr.ravel() if arr.ndim == 1 else arr.reshape(arr.shape[0], -1)[:, 0]
    write_text(path, rows_to_csv_text((name,), ([v] for v in column.tolist())))


# ----------------------------------------------------------------------
# Kolmogorov-Smirnov utilities
# ----------------------------------------------------------------------

# the KS bands' constant: the asymptotic Kolmogorov quantile at alpha = 0.01
_KS_C = 1.63


def _require_sizes(**sizes):
    for name, size in sizes.items():
        if not size >= 1:
            raise ParamError("%s must be at least 1, got %r" % (name, size))


def ks_band(n: int) -> float:
    """Asymptotic one-sample KS acceptance band 1.63/sqrt(n) at alpha=0.01."""
    _require_sizes(n=n)
    return _KS_C / math.sqrt(n)


def ks_two_sample_band(n: int, m: int) -> float:
    """Two-sample KS acceptance band 1.63 sqrt((n + m)/(n m)) at alpha=0.01."""
    _require_sizes(n=n, m=m)
    return _KS_C * math.sqrt((n + m) / (n * m))


# a bracketed KS distance stops refining once every gap's bound is within
# this of the best exact distance found
_KS_SLACK = 1e-5
# its first evaluation grid (points), and the tail fraction left out of
# the core at each end
_KS_GRID = 1024
_KS_TAIL = 1e-4


def ks_distance(sample, dist) -> float:
    """Certified upper bound on the one-sample KS distance against a model
    CDF, at most 1e-5 above the exact distance.

    The model CDF F is evaluated only at sorted sample points x_(i) of the
    core (the samples between the extreme _KS_TAIL = 1e-4 quantiles):
    first at every n // _KS_GRID-th core sample (_KS_GRID = 1024) and both
    core ends.  F is monotone, so for two evaluated indices a < b every
    sample strictly between them has
        D_j <= max(b/n - F_a, F_b - (a+1)/n).
    Each evaluated point gives its D_j exactly; every gap whose bound
    exceeds the best of these by more than 1e-5 is split at its middle
    sample, in one vector dist.cdf call per round.  The result is the
    largest bound left.  Beyond the core the deviation is bounded by the
    larger of the empirical and model tail masses (the t^2/signed-t
    mixtures have heavy far tails where pointwise CDF work is wasted).
    """
    x = np.asarray(sample, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DataError("sample[%d] is not finite: %r" % (bad[0], x[bad[0]]))
    x = np.sort(x)
    n = x.size
    lo_i = int(math.floor(_KS_TAIL * n))
    hi_i = n - 1 - lo_i
    if hi_i - lo_i < 2:
        raise DataError("sample of %d too small: fewer than 3 points "
                        "between its 1e-4 tails" % n)
    if x[hi_i] <= x[lo_i]:
        raise DataError("degenerate sample: its core is one value")

    def cdf(idx):
        return np.clip(np.atleast_1d(dist.cdf(x[idx])), 0.0, 1.0)

    idx = np.union1d(np.arange(lo_i, hi_i + 1, max(1, n // _KS_GRID)), [hi_i])
    f = cdf(idx)
    left_allow = max(lo_i / n, float(f[0]))
    right_allow = max(1.0 - (hi_i + 1) / n, 1.0 - float(f[-1]))
    while True:
        best = max(float(np.max(np.maximum((idx + 1) / n - f, f - idx / n))),
                   left_allow, right_allow)
        a, b = idx[:-1], idx[1:]
        # empty gaps (b = a + 1) hold no sample and bound nothing
        gap = np.where(b - a > 1,
                       np.maximum(b / n - f[:-1], f[1:] - (a + 1) / n), -np.inf)
        split = np.flatnonzero(gap > best + _KS_SLACK)
        if split.size == 0:
            return max(best, float(np.max(gap)))
        mid = (a[split] + b[split]) // 2
        idx = np.insert(idx, split + 1, mid)
        f = np.insert(f, split + 1, cdf(mid))


def ks_distance_two_sample(a, b) -> float:
    """max |F_a - F_b| over the points of both samples, F the empirical
    CDFs.  Each sample's points are read against both CDFs in turn, so no
    array holds the two samples at once."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))

    def at_points_of(x):
        d = np.searchsorted(a, x, side="right") / a.size
        d -= np.searchsorted(b, x, side="right") / b.size
        return np.max(np.abs(d, out=d))
    return float(max(at_points_of(a), at_points_of(b)))
