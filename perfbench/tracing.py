"""Span tracing of calibmix from outside its source.

``install`` rebinds calibmix's public functions and evaluator methods to
wrappers that record a span around each call: name, start, end and parent,
grouped under the job being run.  Spans stay in memory; ``Tracer.dump``
writes them out once the run is over.  A span's self time is its duration
minus the time its child spans cover, accumulated as each span closes.

Every span name maps to one per-layer metric, so the self times of all
layers plus ``other_s`` (the job loop's own time) add up to the traced wall
time of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAWS = {"MeanMixture": "mean", "VarianceMixture": "variance",
        "TsqMixture": "tsq", "SignedTMixture": "signed_t"}

# span name -> metric name, where it is not the span name plus "_s"
_SELF_METRIC = {"quadrature.refine": "quadrature.refine_self_s",
                "quadrature.bisect": "quadrature.bisect_self_s",
                "simulate.ks": "simulate.ks_self_s"}
JOB = "job"


class Tracer:
    def __init__(self):
        self.spans = []                  # (job, id, parent, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.points = defaultdict(int)   # u values per evaluator CDF
        self.draws = 0                   # Monte Carlo replications drawn
        self.cdf_in_ppf = 0              # CDF calls made inside a ppf
        self.ppf_depth = 0               # ppf spans open (CDF calls inside count)
        self._stack = []                 # [id, name, start, child time, parent]
        self._job = -1
        self._next_id = 0

    def enter(self, name):
        if name.endswith(".ppf"):
            self.ppf_depth += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, name, perf_counter(), 0.0, parent])
        self._next_id += 1

    def exit(self):
        end = perf_counter()
        sid, name, start, child, parent = self._stack.pop()
        if name.endswith(".ppf"):
            self.ppf_depth -= 1
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((self._job, sid, parent, name, start, end))

    def begin_job(self, index):
        self._job = index
        self.enter(JOB)

    def end_job(self):
        while self._stack:       # a job that raised may leave spans open
            self.exit()

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, fields=["job", "id", "parent", "name",
                                         "start", "end"],
                           spans=self.spans), fh, separators=(",", ":"))

    def layer_metrics(self, traced_wall_s):
        """Per-layer self times, counts and ratios of the traced run."""
        s, c = self.self_s, self.calls
        m = {}
        for law in LAWS.values():
            pts = self.points[law]
            m["mixtures.%s.cdf_points" % law] = pts
            m["mixtures.%s.cdf_us_per_point" % law] = (
                1e6 * s["mixtures.%s.cdf" % law] / pts if pts else 0.0)
        ppf_calls = sum(c["mixtures.%s.ppf" % law] for law in LAWS.values())
        m["mixtures.cdf_calls_per_ppf"] = (self.cdf_in_ppf / ppf_calls
                                           if ppf_calls else 0.0)
        m["quadrature.refine_calls"] = c["quadrature.refine"]
        m["quadrature.bisect_calls"] = c["quadrature.bisect"]
        draw_s = s["simulate.draw"]
        m["simulate.draws_per_s"] = self.draws / draw_s if draw_s else 0.0
        layer_total = 0.0
        for name in SPAN_NAMES:
            metric = _SELF_METRIC.get(name, name + "_s")
            m[metric] = s[name]
            layer_total += s[name]
        m["trace.wall_s"] = traced_wall_s
        m["other_s"] = traced_wall_s - layer_total
        return m


SPAN_NAMES = tuple(
    ["mixtures.%s.%s" % (law, op) for law in LAWS.values()
     for op in ("build", "pdf", "cdf", "ppf")]
    + ["mixtures.signed_t.interval", "mixtures.integrand", "moments.integrand",
       "quadrature.refine", "quadrature.bisect", "special.nc_chisq1_pdf",
       "moments.region", "moments.mean_moments", "power.tsq_critical",
       "power.oc", "simulate.draw", "simulate.ks", "diagnostics.batch",
       "diagnostics.blindness"])


def _spanned(tracer, name, fn, before=None, wrap_args=None):
    """``fn`` inside a span; ``before(args, kwargs)`` runs first (counting),
    ``wrap_args(args, kwargs)`` may replace the arguments."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        if wrap_args is not None:
            args, kwargs = wrap_args(args, kwargs)
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _rebind(home, attr, make_wrapper):
    """Replace function ``attr`` of module ``home`` by
    ``make_wrapper(function, caller)`` in every calibmix module that bound it
    (``from .x import attr`` copies the reference); ``caller`` is the short
    name of the binding module."""
    orig = getattr(home, attr, None)
    if orig is None:
        return
    for modname, mod in list(sys.modules.items()):
        if (modname == "calibmix" or modname.startswith("calibmix.")) \
                and getattr(mod, attr, None) is orig:
            setattr(mod, attr, make_wrapper(orig, modname.rpartition(".")[2]))


def install(tracer, cm):
    """Rebind calibmix's public entry points to spanned wrappers."""
    import numpy as np

    for cls_name, law in LAWS.items():
        cls = getattr(cm.mixtures, cls_name, None)
        if cls is None:
            continue
        pre = "mixtures.%s." % law

        def count_points(args, kwargs, law=law):
            tracer.points[law] += int(np.size(args[1] if len(args) > 1
                                              else kwargs["u"]))
            if tracer.ppf_depth:
                tracer.cdf_in_ppf += 1

        cls.__init__ = _spanned(tracer, pre + "build", cls.__init__)
        cls.pdf = _spanned(tracer, pre + "pdf", cls.pdf)
        cls.cdf = _spanned(tracer, pre + "cdf", cls.cdf, before=count_points)
        cls.ppf = _spanned(tracer, pre + "ppf", cls.ppf)
    signed_t = getattr(cm.mixtures, "SignedTMixture", None)
    if signed_t is not None:
        signed_t.interval_prob = _spanned(tracer, "mixtures.signed_t.interval",
                                          signed_t.interval_prob)

    def integrands(caller):
        """Span the integrand and probe callbacks refine_panels evaluates,
        so kernel work is not counted as quadrature overhead."""
        name = caller + ".integrand"

        def wrap_args(args, kwargs):
            if args and callable(args[0]):
                args = (_spanned(tracer, name, args[0]),) + tuple(args[1:])
            if callable(kwargs.get("probe")):
                kwargs = dict(kwargs, probe=_spanned(tracer, name, kwargs["probe"]))
            return args, kwargs
        return wrap_args

    _rebind(cm.quadrature, "refine_panels", lambda fn, caller: _spanned(
        tracer, "quadrature.refine", fn, wrap_args=integrands(caller)))
    simple = (
        (cm.quadrature, "bisect_cdf", "quadrature.bisect"),
        (cm.special, "nc_chisq1_pdf", "special.nc_chisq1_pdf"),
        (cm.moments, "probability_region", "moments.region"),
        (cm.moments, "mean_moments", "moments.mean_moments"),
        (cm.power, "tsq_critical", "power.tsq_critical"),
        (cm.power, "operating_characteristics", "power.oc"),
        (cm.simulate, "ks_distance", "simulate.ks"),
        (cm.simulate, "ks_distance_two_sample", "simulate.ks"),
        (cm.diagnostics, "shapiro_type_w_batch", "diagnostics.batch"),
        (cm.diagnostics, "von_neumann_ratio_batch", "diagnostics.batch"),
        (cm.diagnostics, "moment_ratios_batch", "diagnostics.batch"),
        (cm.diagnostics, "studentized_batch", "diagnostics.batch"),
        (cm.diagnostics, "blindness_suite", "diagnostics.blindness"),
    )
    for home, attr, name in simple:
        _rebind(home, attr, lambda fn, _caller, name=name:
                _spanned(tracer, name, fn))

    def count_draws(n_grid_at):
        def before(args, kwargs):
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            per = len(args[n_grid_at]) if n_grid_at is not None else 1
            tracer.draws += cfg.replications * per
        return before

    for attr, n_grid_at in (("mc_statistic_distribution", None),
                            ("mc_inconsistency_curve", 1)):
        _rebind(cm.simulate, attr, lambda fn, _caller, n_grid_at=n_grid_at:
                _spanned(tracer, "simulate.draw", fn,
                         before=count_draws(n_grid_at)))

