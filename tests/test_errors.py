"""Bad caller input raises ParamError, and a malformed input file
DataError; the CLI maps both to exit code 2."""

import json

import pytest

from calibmix import (McConfig, MixtureParams, ParamError, interval_coverage,
                      mc_inconsistency_curve, nc_chisq1_pdf, ncf_cdf,
                      operating_characteristics, ordering_probe,
                      probability_region, tsq_mixture, variance_mixture)
from calibmix.cli import run

SITES = {
    "interval_prob-order": lambda: variance_mixture(5, 1.0).interval_prob(2.0, 1.0),
    "probability_region-coverage": lambda: probability_region(
        variance_mixture(5, 1.0), 1.5),
    "interval_coverage-order": lambda: interval_coverage(
        variance_mixture(5, 1.0), 2.0, 1.0),
    "ordering_probe-family": lambda: ordering_probe("nope", [1.0], [1.0], nu=5),
    "ordering_probe-grid": lambda: ordering_probe(
        "tsq-in-lambda", [2.0, 1.0], [1.0], nu=5),
    "ordering_probe-u_grid": lambda: ordering_probe(
        "tsq-in-lambda", [1.0], [], nu=5),
    "nc_chisq1_pdf-noncentrality": lambda: nc_chisq1_pdf(1.0, -1.0),
    "ncf_cdf-noncentrality": lambda: ncf_cdf(1.0, 1, 5, -1.0),
    # one replication leaves the standard error undefined (it printed NaN)
    "mc_inconsistency_curve-one-replication": lambda: mc_inconsistency_curve(
        MixtureParams(n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                      beta1=1.0, sigma1=1.0),
        [5, 10], McConfig(replications=1, seed=1)),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_caller_input_error_is_param_error(site):
    with pytest.raises(ParamError):
        SITES[site]()


@pytest.mark.parametrize("call,field", [
    (lambda: operating_characteristics(10, None, 1.0, 0.05), "delta"),
    (lambda: tsq_mixture(10, None, 1.0), "delta"),
    (lambda: variance_mixture(10, None), "lam"),
    (lambda: variance_mixture("10", 1.0), "nu"),
], ids=["operating_characteristics", "tsq_mixture", "variance_mixture",
        "variance_mixture-str"])
def test_non_number_is_param_error(call, field):
    # math.isfinite raised TypeError on these
    with pytest.raises(ParamError, match=field):
        call()


PARAMS = {"n": 10, "beta0": 1, "sigma0": 1, "mu_z": 1, "sigma_z": 1,
          "beta1": 1, "sigma1": 1}
PARAM_FLAGS = ["--n", "10", "--beta0", "1", "--sigma0", "1", "--mu-z", "0",
               "--sigma-z", "1", "--beta1", "1", "--sigma1", "1"]

# a JSON input that parses but has the wrong shape or a value that does
# not convert: (command before the file flag, file flag, payload)
MALFORMED_FILES = {
    "params-not-object": (["moments"], "--params-file", 5),
    "params-bad-int": (["moments"], "--params-file", dict(PARAMS, n="abc")),
    "params-null-float": (["moments"], "--params-file",
                          dict(PARAMS, sigma1=None)),
    "params-fractional-int": (["moments"], "--params-file",
                              dict(PARAMS, n=10.7)),
    "config-not-object": (["simulate", "--statistic", "mean"] + PARAM_FLAGS,
                          "--config", 5),
    "config-bad-int": (["simulate", "--statistic", "mean"] + PARAM_FLAGS,
                       "--config", {"replications": "x", "seed": 1}),
    "config-infinite-int": (["simulate", "--statistic", "mean"] + PARAM_FLAGS,
                            "--config", {"replications": 10,
                                         "seed": float("inf")}),
    "config-negative-seed": (["simulate", "--statistic", "mean"] + PARAM_FLAGS,
                             "--config", {"replications": 10, "seed": -1}),
    "config-bool-seed": (["simulate", "--statistic", "mean"] + PARAM_FLAGS,
                         "--config", {"replications": 10, "seed": True}),
    "config-design-not-object": (
        ["simulate", "--statistic", "mean"] + PARAM_FLAGS, "--config",
        {"replications": 10, "seed": 1, "mode": "full", "design": 5}),
    "config-design-bad-x": (
        ["simulate", "--statistic", "mean"] + PARAM_FLAGS, "--config",
        {"replications": 10, "seed": 1, "mode": "full",
         "design": {"x": "abc", "beta0": 0, "beta1": 1, "sigma_u": 1}}),
    "config-design-missing-field": (
        ["simulate", "--statistic", "mean"] + PARAM_FLAGS, "--config",
        {"replications": 10, "seed": 1, "mode": "full",
         "design": {"x": [1, 2, 3], "beta0": 0, "beta1": 1}}),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_FILES))
def test_malformed_json_file_exits_2(shape, tmp_path, capsys):
    command, flag, payload = MALFORMED_FILES[shape]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert run(command + [flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("statistic", ["mean", "inconsistency"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_one_replication_exits_2(statistic, source, tmp_path, capsys):
    # a standard error needs two replications; one printed "std_error": NaN
    command = ["simulate", "--statistic", statistic, "--n-grid", "5,10"]
    if source == "flags":
        command += ["--replications", "1", "--seed", "1"]
    else:
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"replications": 1, "seed": 1}))
        command += ["--config", str(path)]
    assert run(command + PARAM_FLAGS) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert "replications >= 2" in captured.err
    assert captured.out == ""
