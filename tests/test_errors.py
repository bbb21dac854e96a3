"""Bad caller input raises ParamError, and a malformed or unreadable input
file DataError; the CLI maps both to exit code 2."""

import json

import pytest

from calibmix import (DataError, McConfig, MixtureParams, ParamError,
                      calibration_data_from_csv, grouped_data_from_csv,
                      interval_coverage, mc_inconsistency_curve,
                      nc_chisq1_pdf, ncf_cdf, operating_characteristics,
                      ordering_probe, probability_region, tsq_mixture,
                      variance_mixture)
from calibmix.cli import run
from calibmix.diagnostics import sample_from_csv

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


IDEAL = dict(PARAMS, sigma0=0, sigma1=0)


@pytest.mark.parametrize("ideal", ["false", "true", 0, 1, None, []])
@pytest.mark.parametrize("sigma", [0, 1])
def test_params_file_ideal_takes_json_booleans_only(ideal, sigma, tmp_path,
                                                    capsys):
    # bool() read "false" as ideal mode on: exit 0 at sigma0 = sigma1 = 0,
    # and "ideal mode requires sigma0 = sigma1 = 0" otherwise
    path = tmp_path / "params.json"
    path.write_text(json.dumps(dict(PARAMS, sigma0=sigma, sigma1=sigma,
                                    ideal=ideal)))
    assert run(["moments", "--params-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert "field ideal: %r is not true or false" % (ideal,) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("payload,flags,ideal", [
    (PARAMS, [], False), (dict(IDEAL, ideal=True), [], True),
    (dict(PARAMS, ideal=False), [], False), (IDEAL, ["--ideal"], True),
    (dict(IDEAL, ideal=False), ["--ideal"], True),
], ids=["absent", "true", "false", "flag", "flag-over-false"])
def test_params_file_ideal_booleans_are_read(payload, flags, ideal, tmp_path,
                                             capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload))
    assert run(["moments", "--params-file", str(path)] + flags) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["params"]["ideal"] is ideal


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


# ----------------------------------------------------------------------
# input files as raw bytes: every reader decodes UTF-8 (an optional BOM
# included), and an unreadable path or byte is an input error naming the
# file, never a traceback
# ----------------------------------------------------------------------

def _lines(*lines):
    return ("\n".join(lines) + "\n").encode()


# command, file flag and a valid file of at least three rows
RAW_INPUTS = {
    "fit": (["fit"], "--input", _lines(
        "x,u", "80.4,88.2", "83.0,91.1", "84.5,93.4", "86.1,94.7",
        "88.3,98.0")),
    "diagnose": (["diagnose"], "--input", _lines(
        "y", *("%r" % (0.37 * k % 1.9 - 0.8) for k in range(1, 41)))),
    "anova": (["anova"], "--input", _lines(
        "group,y", "a,1", "a,2", "a,3", "b,4", "b,5", "b,6")),
    "moments": (["moments"], "--params-file", _lines(
        "{", '"n": 10, "beta0": 1, "sigma0": 1,',
        '"mu_z": 1, "sigma_z": 1,', '"beta1": 1, "sigma1": 1', "}")),
    "simulate": (["simulate", "--statistic", "mean"] + PARAM_FLAGS, "--config",
                 _lines("{", '"replications": 100,', '"seed": 1', "}")),
}


def _run_raw(name, data, path, capsys):
    command, flag, _ = RAW_INPUTS[name]
    path.write_bytes(data)
    code = run(command + [flag, str(path)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("name", sorted(RAW_INPUTS))
def test_undecodable_byte_exits_2_naming_row(name, tmp_path, capsys):
    lines = RAW_INPUTS[name][2].split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path = tmp_path / "input.txt"
    code, captured = _run_raw(name, b"\n".join(lines), path, capsys)
    assert code == 2
    assert captured.err.startswith("input error:")
    assert str(path) in captured.err and "row 3" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", sorted(RAW_INPUTS))
def test_byte_order_mark_reads_like_plain_utf8(name, tmp_path, capsys):
    # the same path both times: fit, diagnose and anova echo it
    path = tmp_path / "input.txt"
    data = RAW_INPUTS[name][2]
    plain = _run_raw(name, data, path, capsys)
    marked = _run_raw(name, b"\xef\xbb\xbf" + data, path, capsys)
    assert plain[0] == marked[0] == 0, marked[1].err
    assert marked[1].out == plain[1].out


@pytest.mark.parametrize("name", sorted(RAW_INPUTS))
def test_input_below_a_regular_file_exits_2(name, tmp_path, capsys):
    command, flag, _ = RAW_INPUTS[name]
    (tmp_path / "plain").write_text("")
    path = str(tmp_path / "plain" / "input.txt")
    assert run(command + [flag, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["anova", "diagnose", "fit"])
def test_oversized_csv_field_exits_2_naming_row(name, tmp_path, capsys):
    # past the csv module's field limit (131072 characters): csv.Error
    lines = RAW_INPUTS[name][2].split(b"\n")
    lines[2] += b"9" * 200_000
    code, captured = _run_raw(name, b"\n".join(lines), tmp_path / "in.csv",
                              capsys)
    assert code == 2
    assert captured.err.startswith("input error:") and "row 3" in captured.err


@pytest.mark.parametrize("flag,command", [
    ("--output", ["moments"] + PARAM_FLAGS),
    ("--dump", ["simulate", "--statistic", "mean", "--replications", "10",
                "--seed", "1"] + PARAM_FLAGS)])
def test_output_below_a_regular_file_exits_2(flag, command, tmp_path, capsys):
    (tmp_path / "plain").write_text("")
    path = str(tmp_path / "plain" / "out.txt")
    assert run(command + [flag, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and path in err


# ----------------------------------------------------------------------
# the blank-row rule, on each CSV reader: a row whose cells are all blank
# is skipped; every other row needs a value in each header column, and
# columns past the header's are ignored
# ----------------------------------------------------------------------

CSV_READERS = {
    "calibration": (lambda p: calibration_data_from_csv(p).pairs, "x,u",
                    ["1.0,2.0", "2.0,4.0", "3.0,5.5"], "2.5,"),
    "sample": (lambda p: sample_from_csv(p).tolist(), "y",
               ["1.0", "2.0", "3.5"], ",7"),
    "grouped": (lambda p: (lambda g: (g[0], [a.tolist() for a in g[1]]))(
        grouped_data_from_csv(p)), "group,y", ["a,1.0", "a,2.0", "b,4.0"],
        ",7"),
}


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_all_blank_rows_are_skipped(reader, tmp_path):
    read, header, rows, _ = CSV_READERS[reader]
    path = tmp_path / "in.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    want = read(path)
    path.write_text("\n".join([header, "", rows[0], " , ", ",,", rows[1],
                               "\t", rows[2], ""]) + "\n")
    assert read(path) == want


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_partly_blank_row_is_an_error(reader, tmp_path):
    read, header, rows, partly_blank = CSV_READERS[reader]
    path = tmp_path / "in.csv"
    path.write_text("\n".join([header, rows[0], partly_blank] + rows[1:]) + "\n")
    with pytest.raises(DataError, match="row 3"):
        read(path)


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_extra_columns_are_ignored(reader, tmp_path):
    read, header, rows, _ = CSV_READERS[reader]
    path = tmp_path / "in.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    want = read(path)
    path.write_text("\n".join([header + ",note"]
                              + [r + ",n/a" for r in rows]) + "\n")
    assert read(path) == want
