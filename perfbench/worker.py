"""One workload process: set up, run the job list in passes, report.

Started by run.py in a fresh interpreter.  It imports calibmix, generates the
seed's job list, prints ``READY`` (the end of set-up), then runs the job list
in passes and prints one JSON line with the results.  With ``--setup-only``
it exits after ``READY``.

Each pass runs in a child forked from this process after set-up, one job at
a time, timing each.  No job runs before the fork, so every pass starts with
calibmix's module-level caches empty: a CLI user pays their fill on every
call, and so does every pass.  With ``--trace`` the worker runs one pass
untraced and then one more with spans recorded around calibmix's public
calls, written to ``--trace-out``.
"""

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def run_pass(workload, jobs, tracer=None):
    import workloads           # imported by main() during set-up
    latencies, failures = [], []
    start = perf_counter()
    for index, job in enumerate(jobs):
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin_job(index)
        try:
            missed = workloads.run_job(workload, job)
        except Exception:      # a job that raises counts as failed; run on
            missed = [traceback.format_exc(limit=-3).strip()]
        if tracer is not None:
            tracer.end_job()
        latencies.append(perf_counter() - t0)
        if missed:
            failures.append({"job": index, "missed": missed})
    return {"wall_s": perf_counter() - start, "latencies": latencies,
            "failures": failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def in_child(fn):
    """Run ``fn`` in a forked child and return its result, sent back as JSON
    through a pipe.  The child starts from this process's state, so nothing
    ``fn`` fills in (caches, tracing wrappers) outlives the pass."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        status = 1
        try:
            with os.fdopen(wfd, "w") as fh:
                json.dump(fn(), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("pass exited with wait status %d" % status)
    return json.loads(data)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import calibmix
    import numpy
    import scipy
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes = 1 if args.trace else workloads.pass_count(args.workload, args.seconds)
    result = {"passes": [in_child(lambda: run_pass(args.workload, jobs))
                         for _ in range(passes)]}

    if args.trace:
        def traced_pass():
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer, calibmix)
            out = run_pass(args.workload, jobs, tracer)
            out["layers"] = tracer.layer_metrics(out["wall_s"])
            if args.trace_out:
                tracer.dump(args.trace_out, {"workload": args.workload,
                                             "seed": args.seed,
                                             "wall_s": out["wall_s"]})
            return out
        result["traced"] = in_child(traced_pass)

    seen, reused, with_nu = set(), 0, 0
    for job in jobs:
        nu = workloads.nu_of(args.workload, job)
        if nu is not None:
            with_nu += 1
            reused += nu in seen
            seen.add(nu)
    result["nu_reuse_share"] = reused / with_nu if with_nu else 0.0
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
