#!/usr/bin/env python3
"""calibmix benchmark: seeded user-level jobs through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload study --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client runs one job at a time (a closed loop) in a workload process
(perfbench/worker.py) that imports calibmix from ``src/``.  The job list comes
from the seed, one job per stratum of the workload, and every job checks its
own output (perfbench/workloads.py).  The worker runs the job list in passes,
each in a child forked after set-up, so every pass starts from the same cold
caches; the number of passes fills about ``--seconds``, with at least three.
A job's latency is its median over the passes.  The host's speed drifts by
10-30% over seconds to minutes; the median over passes spread across the
whole run is the estimate of a job's cost that such drift moves least.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (launch of a
workload process to its first job: interpreter start, ``import calibmix``
and input generation; the median of three launches: a set-up-only one
before the job run, the worker's own, and another set-up-only one after),
``wall_s`` (the job list: the sum of the jobs' latencies), ``job_p50_s`` and
``job_tail_s`` (the tail is the highest percentile with at least ten jobs
beyond it, or the maximum when there are 20 jobs or fewer) and
``peak_rss_mb`` (``ru_maxrss`` of the pass processes, the largest).
``--trace 1`` runs one pass untraced and one traced (perfbench/tracing.py)
and prints the per-layer metrics, including ``import.*`` from
perfbench/importcost.py; the spans go to ``perfbench/out/``.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  ``failed
/ attempted`` is the run's fail_frac.

The workload processes get ``OPENBLAS_NUM_THREADS`` (and the OpenMP/MKL
equivalents) pinned to 1, which is at most ``nproc`` on any machine: a
single client gains nothing from BLAS threads on these small matrices, and
pinning keeps runs steady.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("study", "signed_t", "montecarlo", "dense_grid")
SETUP_PROBES = 2          # set-up-only launches, before and after the job run
IMPORTTIME_LAUNCHES = 3
BLAS_THREADS = 1
IMPORT_TIMEOUT_S = 60.0
IMPORT_MODULES = {"calibmix": "import.calibmix_s",
                  "scipy.stats": "import.scipy_stats_s",
                  "scipy.interpolate": "import.scipy_interpolate_s"}
UNITS = {"mixtures.cdf_calls_per_ppf": "calls/ppf",
         "quadrature.refine_calls": "count",
         "quadrature.bisect_calls": "count",
         "simulate.draws_per_s": "1/s",
         "trace.overhead_frac": "ratio",
         "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _kill(proc):
    """Kill ``proc`` and the pass processes it forked (its process group)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run(cmd, timeout_s, *, stdout_ready=False):
    """Run ``cmd`` to completion, killing it after ``timeout_s``.  With
    ``stdout_ready`` the time to its ``READY`` line is returned as set-up
    time."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), text=True, start_new_session=True)
    t0 = perf_counter()
    killer = threading.Timer(timeout_s, _kill, (proc,))
    killer.start()
    try:
        setup_s = None
        if stdout_ready:
            line = proc.stdout.readline()
            setup_s = perf_counter() - t0
            if line.strip() != "READY":
                _kill(proc)
        out, err = proc.communicate()
    finally:
        killer.cancel()
        _kill(proc)
        proc.wait()
    if proc.returncode != 0:
        raise BenchError("%s exited with %s:\n%s" % (" ".join(cmd[1:3]),
                                                      proc.returncode, err[-2000:]))
    return setup_s, out, err


def _worker(workload, seed, seconds, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), *extra]
    # the passes fill about ``seconds``; allow a host three times slower,
    # plus start-up
    setup_s, out, _ = _run(cmd, 60.0 + 3.0 * seconds, stdout_ready=True)
    if "--setup-only" in extra:
        return setup_s, {}
    return setup_s, json.loads(out.strip().splitlines()[-1])


def _import_times():
    """Cumulative import times (s) of calibmix and of the scipy modules it
    pulls in, from fresh interpreters (medians; see importcost.py)."""
    samples = {metric: [] for metric in IMPORT_MODULES.values()}
    for _ in range(IMPORTTIME_LAUNCHES):
        _, out, _ = _run([sys.executable, os.path.join(HERE, "importcost.py")],
                         IMPORT_TIMEOUT_S)
        found = json.loads(out.strip().splitlines()[-1])
        for module, metric in IMPORT_MODULES.items():
            samples[metric].append(found[module])
    return {m: statistics.median(v) for m, v in samples.items()}


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten jobs
    beyond it.  With 20 jobs or fewer that percentile is not above the
    median, so the maximum (percentile 100) is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("cdf_us_per_point"):
        return "us"
    return "count"


def _failed(result):
    for fail in result["failures"]:
        print("  FAILED job %d: %s" % (fail["job"], "; ".join(fail["missed"])))
    return len(result["failures"])


def run_untraced(workload, seed, seconds):
    # set-up probes before and after the job run, so that a drift of the
    # host's speed during the run weighs on both sides of the median
    def probes(count):
        return [_worker(workload, seed, seconds, "--setup-only")[0]
                for _ in range(count)]
    setups = probes(SETUP_PROBES // 2)
    setup_s, result = _worker(workload, seed, seconds)
    setups += [setup_s] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    results = result["passes"]
    lat = [statistics.median(times)
           for times in zip(*(r["latencies"] for r in results))]
    failures = [f for r in results for f in r["failures"]]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_s,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    v = result["versions"]
    attempted = len(lat) * len(results)
    print("%s seed %d: %d jobs x %d passes, %d failed (fail_frac %.4g), share "
          "of jobs reusing a nu %.3f" % (workload, seed, len(lat), len(results),
                                         len(failures), len(failures) / attempted,
                                         result["nu_reuse_share"]))
    print("  job_p50_s over %d jobs; job_tail_s is p%.1f of %d jobs; pass walls "
          "%s s; setup_s is the median of %d launches (%s s)"
          % (len(lat), tail_pct, len(lat),
             ", ".join("%.3f" % r["wall_s"] for r in results), len(setups),
             ", ".join("%.3f" % x for x in setups)))
    print("  machine: nproc %s, python %s, numpy %s, scipy %s, "
          "OPENBLAS_NUM_THREADS=%d" % (os.cpu_count(), v["python"], v["numpy"],
                                       v["scipy"], BLAS_THREADS))
    for r in results:
        _failed(r)
    return metrics, attempted, len(failures)


def run_traced(workload, seed, seconds):
    imports = _import_times()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_out = os.path.join(out_dir, "trace_%s_seed%d.json" % (workload, seed))
    _, result = _worker(workload, seed, seconds, "--trace", "--trace-out", trace_out)
    plain, traced = result["passes"][0], result["traced"]
    metrics = dict(imports)
    metrics.update(traced["layers"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    print("%s seed %d traced: wall %.3f s untraced, %.3f s traced; layer self "
          "times + other_s = traced wall; spans in %s"
          % (workload, seed, plain["wall_s"], traced["wall_s"],
             os.path.relpath(trace_out)))
    return metrics, attempted, _failed(plain) + _failed(traced)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through _run's cleanup, which kills the worker's
    # process group and waits for the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "calibmix", "__init__.py")):
        print("run from the repository root: src/calibmix not found",
              file=sys.stderr)
        return 2

    run = run_traced if args.trace else run_untraced
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, a, f = run(name, args.seed, args.seconds)
            attempted += a
            failed += f
            prefix = name + "." if args.workload == "all" else ""
            for key, value in m.items():
                metrics[prefix + key] = {"value": value, "unit": _unit(key)}
                print("  %-34s %14.6g %s" % (prefix + key, value, _unit(key)))
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
