#!/usr/bin/env python3
"""Monte Carlo verification battery.

Checks, at configurable replication counts:
  * the inconsistency of the calibrated sample mean (Var(Ybar_n) plateaus
    at sigma0^2 + sigma1^2 mu_z^2 instead of vanishing);
  * agreement of the empirical Ybar / S^2 / t0^2 distributions with the
    quadrature mixture CDFs (Kolmogorov-Smirnov);
  * the exact blindness identities of the residual diagnostics.

Exits 1 when a KS distance is at or over its band or an identity check
fails, so it can gate a CI run.
"""

import argparse
import sys

from calibmix import (McConfig, MixtureParams, blindness_suite,
                      ks_band, ks_distance, mc_inconsistency_curve,
                      mc_statistic_distribution, mean_mixture, tsq_mixture,
                      variance_mixture)
from calibmix.casestudy import octane_params


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replications", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=20260809)
    args = ap.parse_args()

    unit = MixtureParams(n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                         beta1=1.0, sigma1=1.0)
    cfg = McConfig(replications=args.replications, seed=args.seed)

    print("== inconsistency of Ybar (unit parameters) ==")
    for smry in mc_inconsistency_curve(unit, [10, 100, 10_000], cfg):
        n = int(smry.name.split("n")[-1])
        target = 2.0 / n + 2.0
        print("  %s: %.4f +/- %.4f (formula %.4f)"
              % (smry.name, smry.estimate, smry.std_error, target))

    band = ks_band(args.replications)
    failed = []
    print("== KS against the mixture laws (band %.4f) ==" % band)
    for label, p, delta in (("unit", unit, 1.0),
                            ("octane", octane_params(), 2.935084529994201)):
        lam = (p.beta1 / p.sigma1) ** 2
        checks = (
            ("mean", mean_mixture(p), {}),
            ("s2", variance_mixture(p.n - 1, lam), {}),
            ("tsq", tsq_mixture(p.n - 1, delta, lam), {"delta": delta}),
        )
        for stat, ev, kw in checks:
            sample = mc_statistic_distribution(p, stat, cfg, **kw)
            d = ks_distance(sample, ev)
            print("  %s/%s: D = %.4f" % (label, stat, d))
            if d >= band:
                failed.append("KS %s/%s" % (label, stat))

    print("== blindness identities ==")
    rep = blindness_suite(unit, McConfig(replications=min(args.replications, 20_000),
                                         seed=args.seed + 1))
    for k, v in sorted(rep.max_rel_dev.items()):
        print("  %s: max dev %.2e" % (k, v))
    print("  two-sample KS vs iid Gaussian (band %.4f): %s"
          % (rep.ks_band, {k: round(v, 4) for k, v in rep.ks.items()}))
    print("  identities hold:", rep.identities_hold,
          "| indistinguishable:", rep.indistinguishable)
    if not rep.identities_hold:
        failed.append("blindness identities")
    if failed:
        print("FAILED:", ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
