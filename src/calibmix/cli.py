"""Command-line surface.

Subcommands: fit, density, moments, region, power-table, simulate, diagnose,
anova, case-study.  density and region evaluate one of the four mixture
laws, chosen by --dist from the _DISTS table: "mean" takes the parameter
bundle, "variance" --nu --lam, "tsq" --nu --delta --lam and "signed-t"
--nu --delta0 --lambda0.  Parameter bundles come from flags or a JSON file
(flags win on conflict and the override is logged to stderr); so do the
Monte Carlo settings of simulate, from --config.  Every run echoes its
fully resolved configuration into the output for provenance; CSV output
puts it on a leading ``# config:`` line when the result is a table.  Exit
codes: 0 success, 1 usage error, 2 input/parse error, 3 numerical-accuracy
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import casestudy
from .errors import AccuracyError, DataError, ParamError, converted
from .io import (decode_json, json_object, merged, payload_text, read_text,
                 write_text)
from .mixtures import (mean_mixture, signed_t_mixture, tsq_mixture,
                       variance_mixture)
from .model import (MixtureParams, calibration_data_from_csv, derive_params,
                    fit_calibration)
from .moments import (expected_sample_variance, mean_moment_rows,
                      moment_rows_header, probability_region)
from .oneway import (OneWayDesign, decompose, f_power, grouped_data_from_csv,
                     variance_tests)
from .power import power_table_payload, power_table_rows
from .quadrature import QuadSpec
from .simulate import (McConfig, dump_samples_csv, mc_config_from_json,
                       mc_config_to_json, mc_inconsistency_curve,
                       mc_statistic_distribution,
                       require_std_error_replications)
from . import diagnostics as diag

SCHEMA_VERSION = "1"

_PARAM_KEYS = ("n", "beta0", "sigma0", "mu_z", "sigma_z", "beta1", "sigma1")

# --dist name -> (factory, the law's flags in the factory's argument order);
# the mean law takes the parameter bundle instead of flags of its own
_DISTS = {"mean": (mean_mixture, ()),
          "variance": (variance_mixture, ("nu", "lam")),
          "tsq": (tsq_mixture, ("nu", "delta", "lam")),
          "signed-t": (signed_t_mixture, ("nu", "delta0", "lambda0"))}


class _UsageError(ValueError):
    pass


def _add_law_parser(sub, name, summary, own_flag, **own_kw):
    """A subcommand that evaluates one --dist law: --dist, the subcommand's
    own required ``own_flag``, every law's flags and the parameter,
    quadrature and output arguments."""
    sp = sub.add_parser(name, help=summary)
    sp.add_argument("--dist", required=True, choices=tuple(_DISTS))
    sp.add_argument(own_flag, required=True, **own_kw)
    for flag in dict.fromkeys(f for _, flags in _DISTS.values() for f in flags):
        sp.add_argument("--" + flag, type=int if flag == "nu" else float)
    _add_param_args(sp)
    _add_quad_args(sp)
    _add_output_args(sp)


def _add_output_args(sp):
    sp.add_argument("--output", help="output path (default: stdout)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _add_quad_args(sp):
    sp.add_argument("--abs-tol", type=float)
    sp.add_argument("--rel-tol", type=float)


def _add_param_args(sp):
    sp.add_argument("--params-file", help="JSON file with the parameter bundle")
    sp.add_argument("--n", type=int)
    for name in _PARAM_KEYS[1:]:
        sp.add_argument("--" + name.replace("_", "-"), type=float)
    sp.add_argument("--ideal", action="store_true", default=None)


def _quad_from_args(args) -> QuadSpec:
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(QuadSpec)}
    return QuadSpec(**{k: v for k, v in values.items() if v is not None})


def _params_from_args(args) -> tuple[MixtureParams, dict]:
    """Resolve the parameter bundle from file plus flags (flags win)."""
    keys = _PARAM_KEYS + ("ideal",)
    raw = {}
    if getattr(args, "params_file", None):
        raw = json_object(decode_json(read_text(args.params_file), "params file"),
                          "params file", keys + ("schema_version",), "parameter")
        raw.pop("schema_version", None)
    resolved = merged(raw, {k: getattr(args, k, None) for k in keys}, "params-file")
    missing = [k for k in _PARAM_KEYS if k not in resolved]
    if missing:
        raise _UsageError("missing parameter(s): %s" % ", ".join(missing))
    # JSON true/false or the flag only: bool("false") is True
    ideal = resolved.get("ideal", False)
    if not isinstance(ideal, bool):
        raise DataError("field ideal: %r is not true or false" % (ideal,))
    p = MixtureParams(**{k: converted(int if k == "n" else float,
                                      resolved[k], k) for k in _PARAM_KEYS},
                      ideal=ideal)
    return p, resolved


def _float_list(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise _UsageError("bad numeric list %r" % text) from exc


def _int_list(text, flag):
    """A comma list of integers; a non-finite or fractional entry is an
    input error, not a value to truncate."""
    values = _float_list(text)
    for v in values:
        if not v.is_integer():
            raise ParamError("%s needs integers, got %r" % (flag, v))
    return [int(v) for v in values]


def _oneway_design(args, needed_by):
    """The OneWayDesign of the --group-sizes/--group-means/--group-omegas
    flags, which `needed_by` requires."""
    if not (args.group_sizes and args.group_means and args.group_omegas):
        raise _UsageError("%s needs --group-sizes, --group-means and "
                          "--group-omegas" % needed_by)
    return OneWayDesign(sizes=_int_list(args.group_sizes, "--group-sizes"),
                        means=_float_list(args.group_means),
                        omegas=_float_list(args.group_omegas))


def _emit(args, payload, table=None):
    """Write ``io.payload_text`` of the payload to --output or stdout."""
    text = payload_text(payload, args.format, table)
    if args.output:
        write_text(args.output, text)
    else:
        sys.stdout.write(text)


def _payload(command, config, result):
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "config": config, "result": result}


def _build_dist(args, quad):
    """The --dist law of the flags and its config echo."""
    make, flags = _DISTS[args.dist]
    if not flags:
        p, _ = _params_from_args(args)
        return make(p, quad), {"dist": args.dist, "params": dataclasses.asdict(p)}
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        raise _UsageError("%s mixture needs %s" % (
            args.dist, ", ".join("--" + flag for flag in flags)))
    return make(*values, quad), dict(zip(flags, values), dist=args.dist)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_fit(args):
    data = calibration_data_from_csv(args.input)
    result = dataclasses.asdict(fit_calibration(data))
    _emit(args, _payload("fit", {"input": args.input}, result))
    return 0


def _cmd_density(args):
    quad = _quad_from_args(args)
    dist, cfg = _build_dist(args, quad)
    try:
        lo, hi, count = args.grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise _UsageError("bad --grid %r (expected lo:hi:count)" % args.grid) from exc
    # an infinite end or a span past the largest float makes NaN points
    if count < 2 or not hi > lo or not np.isfinite(hi - lo):
        raise _UsageError("bad --grid %r" % args.grid)
    u = np.linspace(lo, hi, count)
    pdf = np.atleast_1d(dist.pdf(u))
    cdf = np.atleast_1d(dist.cdf(u))
    cfg = dict(cfg, grid=[lo, hi, count], quadrature=dataclasses.asdict(quad))
    result = {"u": u.tolist(), "pdf": pdf.tolist(), "cdf": cdf.tolist()}
    _emit(args, _payload("density", cfg, result),
          (("u", "pdf", "cdf"), zip(result["u"], result["pdf"], result["cdf"])))
    return 0


def _cmd_moments(args):
    p, _ = _params_from_args(args)
    cfg = {"params": dataclasses.asdict(p)}
    row = mean_moment_rows([p])[0]
    es2, bias = expected_sample_variance(p)
    d = derive_params(p)
    result = {
        "row": row,
        "sample_variance": {"expected": es2, "bias": bias},
        "derived": {"kappa2": d.kappa2, "lambda": d.lam, "nu": d.nu,
                    "var_y": d.var_y, "var_ybar": d.var_ybar},
    }
    header = moment_rows_header()
    _emit(args, _payload("moments", cfg, result),
          (header, [[row[k] for k in header]]))
    return 0


def _cmd_region(args):
    quad = _quad_from_args(args)
    dist, cfg = _build_dist(args, quad)
    if not 0.0 < args.coverage < 1.0:
        raise _UsageError("--coverage must be in (0, 1)")
    region = probability_region(dist, args.coverage)
    cfg = dict(cfg, coverage=args.coverage, quadrature=dataclasses.asdict(quad))
    result = {"lower": region.lower, "upper": region.upper,
              "coverage": region.coverage, "achieved": region.achieved}
    _emit(args, _payload("region", cfg, result))
    return 0


def _cmd_power_table(args):
    quad = _quad_from_args(args)
    deltas = _float_list(args.delta)
    lams = _float_list(getattr(args, "lam"))
    if not deltas or not lams:
        raise _UsageError("--delta and --lam must be nonempty lists")
    payload = power_table_payload(args.nu, deltas, lams, args.alpha, quad)
    cfg = {"nu": args.nu, "alpha": args.alpha, "deltas": deltas,
           "lambdas": lams, "quadrature": dataclasses.asdict(quad)}
    _emit(args, _payload("power-table", cfg, payload),
          power_table_rows(payload))
    return 0


def _mc_summary(v):
    return {"mean": float(np.mean(v)),
            "std_error": float(np.std(v, ddof=1) / np.sqrt(v.size)),
            "replications": int(v.size)}


def _cmd_simulate(args):
    if args.config:
        cfg = mc_config_from_json(read_text(args.config))
        names = ("replications", "seed", "mode")
        cfg = dataclasses.replace(cfg, **merged(
            {k: getattr(cfg, k) for k in names},
            {k: getattr(args, k) for k in names}, "config"))
    else:
        if args.replications is None or args.seed is None:
            raise _UsageError("simulate needs --config or both --replications "
                              "and --seed")
        cfg = McConfig(replications=args.replications, seed=args.seed,
                       mode=args.mode or "coefficient")
    # every statistic's summary has a standard error
    require_std_error_replications(cfg.replications)
    p, _ = _params_from_args(args)
    config_echo = {"mc": mc_config_to_json(cfg), "params": dataclasses.asdict(p),
                   "statistic": args.statistic}

    if args.statistic == "inconsistency":
        if args.dump:
            raise _UsageError("--dump takes per-replication values, which "
                              "inconsistency does not return")
        grid = _int_list(args.n_grid or "", "--n-grid")
        if not grid:
            raise _UsageError("inconsistency needs --n-grid")
        config_echo["n_grid"] = grid
        summaries = mc_inconsistency_curve(p, grid, cfg)
        result = {"summaries": [s.to_dict() for s in summaries]}
        _emit(args, _payload("simulate", config_echo, result))
        return 0

    kwargs = {}
    if args.statistic == "tsq":
        if (args.delta is None) == (args.mu_y0 is None):
            raise _UsageError("tsq needs exactly one of --delta or --mu-y0")
        kwargs = {"delta": args.delta, "mu_y0": args.mu_y0}
        config_echo["delta"] = args.delta
        config_echo["mu_y0"] = args.mu_y0
    if args.statistic == "f_oneway":
        design = _oneway_design(args, "f_oneway")
        kwargs = {"design": design}
        config_echo["design"] = {"sizes": list(design.sizes),
                                 "means": list(design.means),
                                 "omegas": list(design.omegas)}
    values = mc_statistic_distribution(p, args.statistic, cfg, **kwargs)
    if isinstance(values, dict):
        result = {name: _mc_summary(v) for name, v in values.items()}
        dump = ("W", values["W"])
    else:
        result = _mc_summary(values)
        dump = (args.statistic, values)
    if args.dump:
        dump_samples_csv(args.dump, *dump)
    _emit(args, _payload("simulate", config_echo, result))
    return 0


def _cmd_diagnose(args):
    y = diag.sample_from_csv(args.input)
    report = diag.diagnostic_report(y)
    _emit(args, _payload("diagnose", {"input": args.input}, report.to_dict()))
    return 0


def _cmd_anova(args):
    labels, groups = grouped_data_from_csv(args.input)
    dec = decompose(groups)
    s2 = [float(np.var(g, ddof=1)) for g in groups]
    sizes = [int(g.size) for g in groups]
    result = {
        "groups": labels,
        "sizes": sizes,
        "means": [float(np.mean(g)) for g in groups],
        "variances": s2,
        "decomposition": dec.to_dict(),
        "variance_tests": variance_tests(s2, sizes).to_dict(),
    }
    cfg = {"input": args.input}
    if args.power_alpha is not None:
        fp = f_power(_oneway_design(args, "--power-alpha"), args.power_alpha)
        result["f_power"] = {"lambda_f": fp.lambda_f, "power": fp.power,
                             "critical": fp.critical}
        cfg["power_alpha"] = args.power_alpha
    _emit(args, _payload("anova", cfg, result))
    return 0


def _cmd_case_study(args):
    quad = _quad_from_args(args)
    report = casestudy.case_study_report(quad)
    report["power_table"] = casestudy.power_table_report(quad)
    cfg = {"quadrature": dataclasses.asdict(quad)}
    _emit(args, _payload("case-study", cfg, report))
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="calibmix",
                                 description="calibrated-measurement analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit", help="fit a calibration line from x,u CSV")
    sp.add_argument("--input", required=True)
    _add_output_args(sp)

    _add_law_parser(sub, "density", "emit (u, pdf, cdf) rows of a mixture law",
                    "--grid", help="lo:hi:count")

    sp = sub.add_parser("moments", help="moment summary of the calibrated mean")
    _add_param_args(sp)
    _add_output_args(sp)

    _add_law_parser(sub, "region", "equal-tail probability region",
                    "--coverage", type=float)

    sp = sub.add_parser("power-table", help="t^2 operating characteristics grid")
    sp.add_argument("--nu", type=int, required=True)
    sp.add_argument("--delta", required=True, help="comma list of deltas")
    sp.add_argument("--lam", required=True, help="comma list of lambdas")
    sp.add_argument("--alpha", type=float, default=0.05)
    _add_quad_args(sp)
    _add_output_args(sp)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo runs")
    sp.add_argument("--config", help="McConfig JSON file")
    sp.add_argument("--replications", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--mode", choices=("coefficient", "full"))
    sp.add_argument("--statistic", required=True,
                    choices=("mean", "s2", "tsq", "f_oneway", "diagnostics",
                             "inconsistency"))
    sp.add_argument("--n-grid", help="comma list of n values (inconsistency)")
    sp.add_argument("--delta", type=float)
    sp.add_argument("--mu-y0", type=float)
    sp.add_argument("--group-sizes")
    sp.add_argument("--group-means")
    sp.add_argument("--group-omegas")
    sp.add_argument("--dump", help="write raw per-replication values to CSV")
    _add_param_args(sp)
    _add_output_args(sp)

    sp = sub.add_parser("diagnose", help="diagnostic battery for a y CSV")
    sp.add_argument("--input", required=True)
    _add_output_args(sp)

    sp = sub.add_parser("anova", help="one-way analysis of a group,y CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--power-alpha", type=float)
    sp.add_argument("--group-sizes")
    sp.add_argument("--group-means")
    sp.add_argument("--group-omegas")
    _add_output_args(sp)

    sp = sub.add_parser("case-study", help="octane study end to end")
    _add_quad_args(sp)
    _add_output_args(sp)

    return ap


_HANDLERS = {
    "fit": _cmd_fit,
    "density": _cmd_density,
    "moments": _cmd_moments,
    "region": _cmd_region,
    "power-table": _cmd_power_table,
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
    "anova": _cmd_anova,
    "case-study": _cmd_case_study,
}


def _glue_negatives(argv):
    """``--delta0 -1e4`` as ``--delta0=-1e4``: argparse reads a separate
    value that starts with '-' as an option unless it looks like -5 or -.5."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and len(arg) > 1
                and arg[0] == "-" and arg[1] in "0123456789."):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_negatives(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage problems; exit code 1 is the usage code here
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (DataError, ParamError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print("accuracy failure: %s" % exc, file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
