#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs the traced job list of seed ``SEED`` twice and
requires every work count the tracer records (CDF calls per ppf, refinement
and bisection calls, CDF points per law) to repeat exactly; then it runs the
job list of seed ``OTHER_SEED`` in all the passes of an untraced run of
``run_seconds`` (BENCHMARK.json).  No job may fail in any of these runs.
Exits 1 on any mismatch or failure.
"""

import json
import os
import sys

from run import HERE, WORKLOADS, _worker

SEED = 7
OTHER_SEED = 8
COUNTS = (["mixtures.cdf_calls_per_ppf", "quadrature.refine_calls",
           "quadrature.bisect_calls"]
          + ["mixtures.%s.cdf_points" % law
             for law in ("mean", "variance", "tsq", "signed_t")])


def _failures(result):
    passes = result["passes"] + ([result["traced"]] if "traced" in result else [])
    return sum(len(p["failures"]) for p in passes)


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        traced = [_worker(workload, SEED, seconds, "--trace")[1]
                  for _ in range(2)]
        plain = _worker(workload, OTHER_SEED, seconds)[1]
        counts = [{k: r["traced"]["layers"][k] for k in COUNTS} for r in traced]
        repeat = counts[0] == counts[1]
        failed = [_failures(r) for r in traced + [plain]]
        passed = repeat and not any(failed)
        ok = ok and passed
        print("%-10s %s: counts %s across two traced runs of seed %d %s; "
              "failed jobs %s (seeds %d, %d, %d)"
              % (workload, "PASS" if passed else "FAIL",
                 "repeat" if repeat else "DIFFER", SEED,
                 counts[0] if repeat else counts, failed,
                 SEED, SEED, OTHER_SEED), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
