"""Seeded workloads of the calibmix benchmark.

A workload turns a seed into a fixed list of user-level jobs (``make_jobs``)
and runs them one at a time (``run_job``).  Every job checks its own output
and returns the list of checks it missed, so a wrong number counts as a
failed job instead of a fast one.

The job list holds one job per stratum: the parameter regions a user visits,
chosen so that every code path named in the workload's ``why`` is exercised.
The seed jitters the parameters inside each stratum.  Two seeds therefore
give different inputs with the same mix of work, which keeps run-to-run
spread small.  A run repeats the list in passes (``pass_count``).

Only numpy, ``scipy.special`` and calibmix are imported here: the benchmark
must not import a module (``scipy.stats``, ``scipy.interpolate``) whose
import cost calibmix could later shed, or ``setup_s`` would keep paying it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

import calibmix as cm

ALPHA = 0.05
COVERAGE = 0.95

# Chance failures of the Monte Carlo checks: each stochastic test is run at
# this two-sided level; a montecarlo run makes 13 of them (its passes repeat
# the same draws), so it fails by chance with probability ~1.3e-6.
MC_ALPHA = 1e-7
MC_Z = float(-sp.ndtri(MC_ALPHA / 2.0))                   # ~5.33 standard errors
MC_KS_C = math.sqrt(-math.log(MC_ALPHA / 2.0) / 2.0)      # Kolmogorov tail, ~2.90
MC_REPS = 100_000
BLIND_REPS = 20_000
# The blindness identities are exact in real arithmetic, but Y - mean(Y)
# cancels for slope draws near zero, so the rounding error grows like
# eps / |beta1_hat| and is heavy-tailed over replications: at 2e4
# replications about one seed in fifteen exceeds the acceptance suite's 1e-10
# even on its own bundle.  At 1e-4 a run fails by chance with probability
# ~4e-6, while a broken identity deviates by O(1e-2) or more.
BLIND_TOL = 1e-4

# ---------------------------------------------------------------------------
# reference values of the canonical octane point (the acceptance suite's
# headline numbers with their stated tolerances)
# ---------------------------------------------------------------------------

OCTANE = dict(n=11, beta0=87.2818, sigma0=0.1846, mu_z=0.0, sigma_z=1.0,
              beta1=1.8546, sigma1=0.5837)
OCTANE_NAIVE_MEAN = (86.184, 88.376)
OCTANE_NAIVE_S2 = (1.1167, 7.0449)
OCTANE_REF = {
    "mean_region": ((86.037, 88.526), 5e-3),
    "mean_naive_coverage": (0.922, 1e-3),
    "expected_s2": (3.780, 1e-3),
    "var_region": ((10.8, 336.5), 0.01),          # relative
    "var_naive_coverage": (0.74, 5e-3),
    "oc_nonrejection": (0.90, 5e-3),
}
# power-table row delta = 4 over lambda = (1, 4, 9), nu = 10
POWER_LAMBDAS = (1.0, 4.0, 9.0)
OCTANE_POWER_ROW = (4.0, (0.485, 0.742, 0.876), 5e-3)
# moment-table rows 1 (n=10, all-ones bundle) and 15: E, Var, gamma, kappa
# at 1e-3.  Row 15 needs twice the quadrature panels of the other rows and of
# the study's bundles, so the canonical job sets the study's peak memory and
# the peak does not depend on the seed (a seeded bundle reaches the same
# panel count only rarely: 2 of about 970 tried).
UNIT = dict(n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0, beta1=1.0,
            sigma1=1.0)
MOMENT_ROWS = ((UNIT, (2.0, 2.2, 0.1839, 3.2851)),
               (dict(UNIT, sigma0=0.5, sigma_z=2.0, sigma1=2.0),
                (2.0, 6.25, 0.6144, 5.5559)))
MOMENT_TOL = 1e-3


def _jitter(rng, center, rel):
    return float(center * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _check(failures, ok, what):
    if not ok:
        failures.append(what)


def _close(got, want, tol):
    return abs(got - want) <= tol


# ---------------------------------------------------------------------------
# study: octane-style analysis reports
# ---------------------------------------------------------------------------

# (n, delta for the t^2 test, power-table row delta).  Every bundle stays
# near the octane point (sigma0 within 5% of its value), as a user's reports
# would.
STUDY_STRATA = ((11, 2.0, 1.0), (8, 4.0, 4.0), (16, 1.5, 9.0), (11, 6.0, 4.0),
                (8, 1.0, 9.0), (16, 3.0, 1.0), (11, 4.5, 9.0))


def _study_jobs(rng, count):
    jobs = [{"canonical": True, "params": dict(OCTANE), "shift": 1.0,
             "power_delta": OCTANE_POWER_ROW[0],
             "moment_params": [dict(b) for b, _ in MOMENT_ROWS]}]
    for i in range(count - 1):
        n, delta, row_delta = STUDY_STRATA[i % len(STUDY_STRATA)]
        p = dict(n=n,
                 beta0=_jitter(rng, OCTANE["beta0"], 0.01),
                 sigma0=_jitter(rng, OCTANE["sigma0"], 0.05),
                 mu_z=float(rng.uniform(-0.5, 0.5)),
                 sigma_z=_jitter(rng, 1.0, 0.2),
                 beta1=_jitter(rng, OCTANE["beta1"], 0.1),
                 sigma1=_jitter(rng, OCTANE["sigma1"], 0.1))
        delta = _jitter(rng, delta, 0.1)
        # squared mean shift giving t^2 noncentrality delta
        shift = delta * p["sigma1"] ** 2 * p["sigma_z"] ** 2
        jobs.append({"canonical": False, "params": p, "shift": shift,
                     "power_delta": _jitter(rng, row_delta, 0.1),
                     "moment_params": [p]})
    return jobs


def _naive_intervals(p, nu):
    """Normal-theory intervals that ignore the calibration errors: the mean
    with variance kappa2 sigma_z^2 / n, and S^2 as var_y chi2_nu / nu."""
    half = float(sp.ndtri(1.0 - ALPHA / 2.0)) * math.sqrt(
        p.kappa2 * p.sigma_z ** 2 / p.n)
    chi_lo = float(sp.chdtri(nu, 1.0 - ALPHA / 2.0))
    chi_hi = float(sp.chdtri(nu, ALPHA / 2.0))
    return ((p.mu_y - half, p.mu_y + half),
            (p.var_y * chi_lo / nu, p.var_y * chi_hi / nu))


def run_study(job):
    p = cm.MixtureParams(**job["params"])
    d = cm.derive_params(p, mu_y0=p.mu_y - math.sqrt(job["shift"]))
    if job["canonical"]:
        naive_mean, naive_s2 = OCTANE_NAIVE_MEAN, OCTANE_NAIVE_S2
    else:
        naive_mean, naive_s2 = _naive_intervals(p, d.nu)
    scale = p.sigma1 ** 2 * p.sigma_z ** 2

    ev_mean = cm.mean_mixture(p)
    mean_region = cm.probability_region(ev_mean, COVERAGE)
    mean_cov = cm.interval_coverage(ev_mean, *naive_mean)
    es2, bias = cm.expected_sample_variance(p)
    ev_var = cm.variance_mixture(d.nu, d.lam)
    var_region = cm.probability_region(ev_var, COVERAGE)
    var_cov = cm.interval_coverage(ev_var, d.nu * naive_s2[0] / scale,
                                   d.nu * naive_s2[1] / scale)
    crit = cm.tsq_critical(d.nu, ALPHA)
    oc = cm.operating_characteristics(d.nu, d.delta, d.lam, ALPHA)
    row = cm.power_table(d.nu, [job["power_delta"]], POWER_LAMBDAS, ALPHA)[0]
    mrows = cm.mean_moment_rows([cm.MixtureParams(**b)
                                 for b in job["moment_params"]])

    f = []
    for name, region in (("mean", mean_region), ("variance", var_region)):
        _check(f, abs(region.achieved - COVERAGE) <= 1e-6,
               "%s region achieved coverage %.9f" % (name, region.achieved))
    _check(f, _close(crit, float(sp.fdtri(1, d.nu, 1.0 - ALPHA)), 1e-9 * crit),
           "t^2 critical value %.12g disagrees with F(1, nu) quantile" % crit)
    nonrej = [c.nonrejection_prob for c in row]
    _check(f, all(a < b for a, b in zip(nonrej, nonrej[1:])),
           "power row not increasing in lambda: %r" % nonrej)
    _check(f, max(nonrej + [oc.nonrejection_prob]) <= 1.0 - ALPHA + 1e-9,
           "nonrejection above 1 - alpha under an alternative")
    _check(f, all(r["kappa"] >= 1.0 + r["gamma"] ** 2 for r in mrows),
           "moment row violates kappa >= 1 + gamma^2")

    if job["canonical"]:
        ref = OCTANE_REF
        (lo, hi), tol = ref["mean_region"]
        _check(f, _close(mean_region.lower, lo, tol)
               and _close(mean_region.upper, hi, tol),
               "octane mean region (%.4f, %.4f)" % (mean_region.lower,
                                                    mean_region.upper))
        (lo, hi), rel = ref["var_region"]
        _check(f, _close(var_region.lower, lo, rel * lo)
               and _close(var_region.upper, hi, rel * hi),
               "octane variance region (%.3f, %.2f)" % (var_region.lower,
                                                        var_region.upper))
        for name, got in (("mean_naive_coverage", mean_cov),
                          ("expected_s2", es2),
                          ("var_naive_coverage", var_cov),
                          ("oc_nonrejection", oc.nonrejection_prob)):
            want, tol = ref[name]
            _check(f, _close(got, want, tol), "octane %s %.5f" % (name, got))
        _, want_row, tol = OCTANE_POWER_ROW
        _check(f, all(_close(g, w, tol) for g, w in zip(nonrej, want_row)),
               "octane power row %r" % nonrej)
        for r, (_, want_m) in zip(mrows, MOMENT_ROWS):
            got_m = (r["E"], r["Var"], r["gamma"], r["kappa"])
            _check(f, all(_close(g, w, MOMENT_TOL)
                          for g, w in zip(got_m, want_m)),
                   "moment-table row %r" % (got_m,))
    else:
        # the naive intervals ignore the calibration variance, so they must
        # under-cover; E(S^2), its bias and the moment row's first two
        # moments are closed forms
        _check(f, 0.0 < mean_cov < COVERAGE,
               "naive mean coverage %.5f not below nominal" % mean_cov)
        _check(f, 0.0 < var_cov < 1.0, "naive S^2 coverage %.5f" % var_cov)
        _check(f, mean_region.lower < p.mu_y < mean_region.upper,
               "mean region misses E(Ybar)")
        _check(f, _close(es2, p.kappa2 * p.sigma_z ** 2, 1e-12 * es2)
               and _close(bias, -(p.sigma0 ** 2 + p.sigma1 ** 2 * p.mu_z ** 2),
                          1e-12 * es2),
               "E(S^2) or its bias off the closed form")
        mrow = mrows[0]
        _check(f, _close(mrow["E"], p.mu_y, 1e-9 * abs(p.mu_y))
               and _close(mrow["Var"], d.var_ybar, 1e-9 * d.var_ybar),
               "moment row E/Var off the closed form")
    return f


# ---------------------------------------------------------------------------
# signed_t: signed-t0 requests
# ---------------------------------------------------------------------------

# (delta0, lambda0): lambda0 near 1 puts many mixing nodes on the exact
# chi2-integral kernel, negative delta0 takes the mirror path.  Both jobs
# share one nu, so the second reuses the chi-squared mixing rules the first
# one cached.  nu is fixed, not seeded: a job list costs up to 20% more at
# nu = 8 than at nu = 12, which would make the seed move wall_s.
SIGNED_T_STRATA = ((0.3, 1.0), (-0.5, 3.0))
SIGNED_T_NU = 10
SIGNED_T_ROWS = 200


def _signed_t_jobs(rng, count):
    jobs = []
    for i in range(count):
        d0, l0 = SIGNED_T_STRATA[i % len(SIGNED_T_STRATA)]
        jobs.append({"nu": SIGNED_T_NU, "delta0": _jitter(rng, d0, 0.01),
                     "lambda0": _jitter(rng, l0, 0.01)})
    return jobs


def run_signed_t(job):
    nu, d0, l0 = job["nu"], job["delta0"], job["lambda0"]
    ev = cm.signed_t_mixture(nu, d0, l0)
    crit = cm.tsq_critical(nu, ALPHA)
    r = math.sqrt(crit)
    inside = ev.interval_prob(-r, r)
    region = cm.probability_region(ev, COVERAGE)
    u = np.linspace(region.lower, region.upper, SIGNED_T_ROWS)
    pdf = np.asarray(ev.pdf(u))
    cdf = np.asarray(ev.cdf(u))
    via_tsq = cm.tsq_mixture(nu, d0 * d0, l0 * l0).cdf(crit)

    f = []
    _check(f, abs(inside - via_tsq) <= 1e-4,
           "signed-t interval %.8f vs t^2 CDF %.8f" % (inside, via_tsq))
    _check(f, abs(region.achieved - COVERAGE) <= 1e-6,
           "region achieved coverage %.9f" % region.achieved)
    _check_table(f, u, pdf, cdf, tol=1e-5)
    _check(f, _close(cdf[0], ALPHA / 2, 1e-6) and _close(cdf[-1], 1 - ALPHA / 2, 1e-6),
           "CDF at region ends (%.8f, %.8f)" % (cdf[0], cdf[-1]))
    return f


def _check_table(f, u, pdf, cdf, *, tol):
    """pdf >= 0, CDF nondecreasing, and Simpson's integral of the pdf over
    the grid matching the CDF difference across it."""
    _check(f, bool(np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0)),
           "pdf negative or not finite")
    _check(f, bool(np.all(np.diff(cdf) >= -1e-12)), "CDF not monotone")
    h = (u[-1] - u[0]) / (u.size - 1)
    m = u.size - 1 if u.size % 2 == 0 else u.size      # odd point count
    simpson = h / 3.0 * (pdf[0] + pdf[m - 1] + 4.0 * pdf[1:m - 1:2].sum()
                         + 2.0 * pdf[2:m - 1:2].sum())
    mass = cdf[m - 1] - cdf[0]
    _check(f, abs(simpson - mass) <= tol,
           "integrated pdf %.9f vs CDF difference %.9f" % (simpson, mass))


# ---------------------------------------------------------------------------
# montecarlo: the verification battery
# ---------------------------------------------------------------------------

MC_TASKS = ("ks_mean", "ks_s2", "ks_tsq", "inconsistency", "diagnostics",
            "blindness")
MC_BUNDLES = (UNIT, OCTANE, dict(UNIT, n=20, sigma_z=2.0))
MC_N_GRID = (10, 100, 10_000)


def _montecarlo_jobs(rng, count):
    jobs = []
    for i in range(count):
        bundle = MC_BUNDLES[i % len(MC_BUNDLES)]
        p = {k: (_jitter(rng, v, 0.1) if k != "n" else v) for k, v in bundle.items()}
        jobs.append({"task": MC_TASKS[i % len(MC_TASKS)], "params": p,
                     "delta": _jitter(rng, 2.0, 0.2),
                     "mc_seed": int(rng.integers(1, 2 ** 31))})
    return jobs


def run_montecarlo(job):
    p = cm.MixtureParams(**job["params"])
    d = cm.derive_params(p)
    task = job["task"]
    f = []
    if task == "blindness":
        rep = cm.blindness_suite(p, cm.McConfig(replications=BLIND_REPS,
                                                seed=job["mc_seed"]))
        worst = max(rep.max_rel_dev.values())
        _check(f, worst < BLIND_TOL, "blindness identity deviation %.2e" % worst)
        band = MC_KS_C * math.sqrt(2.0 / BLIND_REPS)
        _check(f, max(rep.ks.values()) < band,
               "diagnostics distinguishable from iid Gaussian: %r" % rep.ks)
        return f

    cfg = cm.McConfig(replications=MC_REPS, seed=job["mc_seed"])
    if task == "inconsistency":
        for smry, n in zip(cm.mc_inconsistency_curve(p, MC_N_GRID, cfg), MC_N_GRID):
            want = (p.kappa2 * p.sigma_z ** 2 / n + p.sigma0 ** 2
                    + p.sigma1 ** 2 * p.mu_z ** 2)
            _check(f, abs(smry.estimate - want) <= MC_Z * smry.std_error,
                   "Var(Ybar_%d) %.5f vs %.5f" % (n, smry.estimate, want))
        return f

    if task == "diagnostics":
        stats = cm.mc_statistic_distribution(p, "diagnostics", cfg)
        w, u, b2 = stats["W"], stats["U"], stats["b2"]
        _check(f, bool(np.all((w > 0) & (w <= 1 + 1e-12)) and np.all(u > 0)),
               "W or U out of range")
        # affine invariance: b2(Y) is distributed as b2 of n iid normals,
        # whose mean is 3(n-1)/(n+1)
        se = float(np.std(b2, ddof=1)) / math.sqrt(b2.size)
        want = 3.0 * (p.n - 1) / (p.n + 1)
        _check(f, abs(float(np.mean(b2)) - want) <= MC_Z * se,
               "mean b2 %.5f vs %.5f" % (float(np.mean(b2)), want))
        return f

    stat = task[3:]
    if stat == "mean":
        ev, kw = cm.mean_mixture(p), {}
        want_mean, want_sd = p.mu_y, math.sqrt(d.var_ybar)
    elif stat == "s2":
        ev, kw = cm.variance_mixture(d.nu, d.lam), {}
        want_mean, want_sd = d.nu * (1.0 + d.lam), None
    else:
        ev, kw = cm.tsq_mixture(d.nu, job["delta"], d.lam), {"delta": job["delta"]}
        want_mean = want_sd = None      # t0^2 has no finite mean
    sample = cm.mc_statistic_distribution(p, stat, cfg, **kw)
    dist = cm.ks_distance(sample, ev)
    _check(f, dist < MC_KS_C / math.sqrt(MC_REPS),
           "KS distance %.5f of %s sample" % (dist, stat))
    if want_mean is not None:
        sd = want_sd if want_sd is not None else float(np.std(sample, ddof=1))
        got = float(np.mean(sample))
        _check(f, abs(got - want_mean) <= MC_Z * sd / math.sqrt(sample.size),
               "sample mean %.6f vs %.6f" % (got, want_mean))
    return f


# ---------------------------------------------------------------------------
# dense_grid: density-style tables on large grids
# ---------------------------------------------------------------------------

# (law, grid points): sizes give each table about the same cost, so the
# run's median and slowest job are not set by one law alone
DENSE_STRATA = (("mean", 26_000), ("variance", 14_000), ("tsq", 34_000))


def _dense_jobs(rng, count):
    jobs = []
    for i in range(count):
        law, points = DENSE_STRATA[i % len(DENSE_STRATA)]
        p = {k: (_jitter(rng, v, 0.1) if k != "n" else v) for k, v in OCTANE.items()}
        jobs.append({"law": law, "points": points, "params": p,
                     "delta": _jitter(rng, 3.0, 0.2)})
    return jobs


def run_dense_grid(job):
    p = cm.MixtureParams(**job["params"])
    d = cm.derive_params(p)
    law = job["law"]
    if law == "mean":
        ev = cm.mean_mixture(p)
        lo, hi = ev.support()
        tol = 1e-7
    elif law == "variance":
        ev = cm.variance_mixture(d.nu, d.lam)
        # like the t^2 density, unbounded at 0 (as u^-1/2)
        lo, hi = 0.5, 10.0 * d.nu * (1.0 + d.lam)
        tol = 1e-6
    else:
        ev = cm.tsq_mixture(d.nu, job["delta"], d.lam)
        # the t^2 density is unbounded at 0; tabulate away from it
        lo, hi = 0.05, 60.0
        tol = 1e-6
    u = np.linspace(lo, hi, job["points"])
    pdf = np.asarray(ev.pdf(u))
    cdf = np.asarray(ev.cdf(u))
    f = []
    _check_table(f, u, pdf, cdf, tol=tol)
    return f


# workload -> (job-list maker, job runner, jobs in the list, seconds per job
# list measured at the commit that added the benchmark).  The list holds one
# job per stratum (the study adds its canonical octane job).  The number of
# passes is fixed from --seconds and these costs, not from the clock, so a
# faster calibmix runs the same jobs in less wall time.
WORKLOADS = {
    "study": (_study_jobs, run_study, 1 + len(STUDY_STRATA), 1.3),
    "signed_t": (_signed_t_jobs, run_signed_t, len(SIGNED_T_STRATA), 7.5),
    "montecarlo": (_montecarlo_jobs, run_montecarlo, len(MC_TASKS), 2.7),
    "dense_grid": (_dense_jobs, run_dense_grid, len(DENSE_STRATA), 5.5),
}
# A job's latency is its median over the passes, of which there are at least
# this many.
MIN_PASSES = 3


def pass_count(workload, seconds):
    """Passes of the job list filling about ``seconds``."""
    return max(MIN_PASSES, round(seconds / WORKLOADS[workload][3]))


def make_jobs(workload, seed):
    """The seed's job list."""
    make, _, count, _ = WORKLOADS[workload]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return make(rng, count)


def run_job(workload, job):
    """Run one job; return the checks it missed (empty when correct)."""
    return WORKLOADS[workload][1](job)


def nu_of(workload, job):
    """The job's degrees of freedom, for the share of jobs reusing a nu
    (and with it the chi-squared mixing rules cached per nu)."""
    if workload == "signed_t":
        return job["nu"]
    if workload == "dense_grid" and job["law"] == "mean":
        return None
    return job["params"]["n"] - 1
