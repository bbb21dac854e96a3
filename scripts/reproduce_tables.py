#!/usr/bin/env python3
"""Emit the reference moment table and power table as CSV files.

The moment table gives (E, Var, gamma, kappa) of the calibrated sample mean
over the 15 canonical parameter bundles; the power table gives the
nonrejection/rejection probabilities of the calibrated t^2 test over the
delta x lambda grid.
"""

import argparse
import os

from calibmix import QuadSpec, mean_moment_rows
from calibmix.casestudy import moment_table_params, power_table_report
from calibmix.io import rows_to_csv_text, write_text
from calibmix.moments import moment_rows_header
from calibmix.power import power_table_rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output-dir", default="tables")
    args = ap.parse_args()
    os.makedirs(args.output_dir, exist_ok=True)
    quad = QuadSpec()

    rows = mean_moment_rows(moment_table_params())
    header = moment_rows_header()
    text = rows_to_csv_text(header, [[r[k] for k in header] for r in rows])
    path = os.path.join(args.output_dir, "moment_table.csv")
    write_text(path, text)
    print("wrote", path)
    for r in rows:
        print("  n=%2d b0=%.1f s0=%.1f muZ=%.1f sZ=%.1f b1=%.1f s1=%.1f -> "
              "E=%.4f Var=%.4f gamma=%.4f kappa=%.4f"
              % (r["n"], r["beta0"], r["sigma0"], r["mu_z"], r["sigma_z"],
                 r["beta1"], r["sigma1"], r["E"], r["Var"], r["gamma"],
                 r["kappa"]))

    payload = power_table_report(quad)
    header, rows = power_table_rows(payload)
    path = os.path.join(args.output_dir, "power_table.csv")
    write_text(path, rows_to_csv_text(header, rows))
    print("wrote", path)
    for d, row in zip(payload["deltas"], payload["nonrejection"]):
        print("  delta=%g: " % d,
              "  ".join("%.3f" % v for v in row))


if __name__ == "__main__":
    main()
