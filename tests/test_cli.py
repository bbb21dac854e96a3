import csv
import json

import numpy as np
import pytest

from calibmix.cli import run
from calibmix.casestudy import OCTANE_U, OCTANE_X

OCTANE_FLAGS = ["--n", "11", "--beta0", "87.2818", "--sigma0", "0.1846",
                "--mu-z", "0", "--sigma-z", "1", "--beta1", "1.8546",
                "--sigma1", "0.5837"]


@pytest.fixture
def octane_csv(tmp_path):
    path = tmp_path / "octane.csv"
    lines = ["x,u"] + ["%s,%s" % (x, u) for x, u in zip(OCTANE_X, OCTANE_U)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_json(args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestFit:
    def test_fit_golden(self, octane_csv, capsys):
        payload = run_json(["fit", "--input", octane_csv], capsys)
        assert payload["schema_version"] == "1"
        assert payload["config"]["input"] == octane_csv
        res = payload["result"]
        assert res["beta0_hat"] == pytest.approx(87.1000, abs=1e-4)
        assert res["beta1_hat"] == pytest.approx(1.1273, abs=1e-4)
        assert res["sigma_u_hat"] == pytest.approx(0.7395, abs=1e-4)

    def test_malformed_csv_exits_2_with_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,u\n1.0,2.0\nnope,3.0\n4.0,5.0\n")
        code = run(["fit", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "row 3" in err

    def test_missing_file_exits_2(self, capsys):
        assert run(["fit", "--input", "/nonexistent.csv"]) == 2

    def test_usage_error_exits_1(self, capsys):
        assert run(["fit"]) == 1
        assert run(["not-a-command"]) == 1


class TestRegion:
    def test_mean_region_golden(self, capsys):
        payload = run_json(["region", "--dist", "mean", "--coverage", "0.95"]
                           + OCTANE_FLAGS, capsys)
        res = payload["result"]
        assert res["lower"] == pytest.approx(86.037, abs=5e-3)
        assert res["upper"] == pytest.approx(88.526, abs=5e-3)
        assert payload["config"]["coverage"] == 0.95
        assert "quadrature" in payload["config"]

    def test_variance_region_golden(self, capsys):
        lam = (1.8546 / 0.5837) ** 2
        payload = run_json(["region", "--dist", "variance", "--coverage", "0.95",
                            "--nu", "10", "--lam", repr(lam)], capsys)
        res = payload["result"]
        assert res["lower"] == pytest.approx(10.8, rel=0.01)
        assert res["upper"] == pytest.approx(336.5, rel=0.01)

    def test_missing_dist_params_exits_1(self, capsys):
        assert run(["region", "--dist", "variance", "--coverage", "0.9"]) == 1
        assert run(["region", "--dist", "nope", "--coverage", "0.9"]) == 1

    @pytest.mark.parametrize("args", [
        ["--dist", "mean"] + OCTANE_FLAGS + ["--sigma1", "nan"],
        ["--dist", "mean"] + OCTANE_FLAGS + ["--sigma0", "inf"],
        ["--dist", "variance", "--nu", "10", "--lam", "nan"],
        ["--dist", "tsq", "--nu", "10", "--delta", "nan", "--lam", "1"],
        ["--dist", "signed-t", "--nu", "10", "--delta0", "1",
         "--lambda0", "inf"],
        ["--dist", "variance", "--nu", "10", "--lam", "1", "--abs-tol", "nan"],
        ["--dist", "variance", "--nu", "10", "--lam", "1", "--abs-tol", "-1"],
    ])
    def test_non_finite_input_exits_2(self, args, capsys):
        assert run(["region", "--coverage", "0.9"] + args) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("command", [
        ["density", "--dist", "mean", "--grid", "0:1:3"],
        ["region", "--dist", "mean", "--coverage", "0.9"],
        ["moments"]])
    def test_overflowing_bundle_exits_2(self, command, capsys):
        # every scale at 1e200 overflowed sigma_z ** 2: a traceback, exit 1
        flags = ["--n", "5"]
        for flag in ("--beta0", "--sigma0", "--mu-z", "--sigma-z", "--beta1",
                     "--sigma1"):
            flags += [flag, "1e200"]
        assert run(command + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "var_y" in err

    def test_overflowing_lambda_exits_2(self, capsys):
        # (beta1/sigma1) ** 2 raised OverflowError: a traceback, exit 1
        assert run(["moments", "--n", "5", "--beta0", "1", "--sigma0", "1",
                    "--mu-z", "1", "--sigma-z", "1", "--beta1", "1e150",
                    "--sigma1", "1e-10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "lambda" in err

    def test_overflowing_delta_exits_2(self, capsys):
        # (mu_y - mu_y0) ** 2 raised OverflowError: a traceback, exit 1
        assert run(["simulate", "--statistic", "tsq", "--mu-y0=-1e200",
                    "--replications", "100", "--seed", "1", "--n", "5",
                    "--beta0", "1", "--sigma0", "1", "--mu-z", "1",
                    "--sigma-z", "1", "--beta1", "1", "--sigma1", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "delta" in err

    def test_removed_series_flags_exit_1(self, capsys):
        assert run(["region", "--dist", "variance", "--nu", "10", "--lam", "1",
                    "--coverage", "0.9", "--series-terms-inner", "30"]) == 1

    def test_removed_mixing_range_flag_exits_1(self, capsys):
        assert run(["region", "--dist", "variance", "--nu", "10", "--lam", "1",
                    "--coverage", "0.9", "--mixing-range-sigmas", "5"]) == 1

    def test_abs_tol_below_the_floor_exits_2(self, capsys):
        # at 1e-13 this law's CDF series gave up at 120000 terms (exit 3)
        assert run(["density", "--dist", "signed-t", "--nu", "10", "--delta0",
                    "2", "--lambda0", "3", "--grid", "0:1000:5",
                    "--abs-tol", "1e-13"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "abs_tol" in err

    def test_config_echo_keys(self, capsys):
        payload = run_json(["region", "--dist", "tsq", "--nu", "10",
                            "--delta", "1", "--lam", "2", "--coverage", "0.9"],
                           capsys)
        cfg = payload["config"]
        assert sorted(cfg) == ["coverage", "delta", "dist", "lam", "nu",
                               "quadrature"]
        assert (cfg["dist"], cfg["nu"], cfg["delta"], cfg["lam"]) == (
            "tsq", 10, 1.0, 2.0)
        assert sorted(cfg["quadrature"]) == ["abs_tol", "rel_tol"]

    def test_signed_t_region_at_nu_one(self, capsys):
        payload = run_json(["region", "--dist", "signed-t", "--nu", "1",
                            "--delta0", "1", "--lambda0", "1",
                            "--coverage", "0.95"], capsys)
        res = payload["result"]
        assert res["lower"] < 0.0 < res["upper"]
        assert res["achieved"] == pytest.approx(0.95, abs=1e-7)


# --dist value -> its flags, a density grid, the law's keys in the config
# echo, and what the usage error for a left-out last flag names (the
# mean law reads the parameter bundle and names the missing parameter)
DIST_CASES = [
    ("mean", OCTANE_FLAGS, "86:89:5", {"params"}, ["sigma1"]),
    ("variance", ["--nu", "10", "--lam", "1"], "0.5:40:5", {"nu", "lam"},
     ["--nu", "--lam"]),
    ("tsq", ["--nu", "10", "--delta", "1", "--lam", "2"], "0.5:40:5",
     {"nu", "delta", "lam"}, ["--nu", "--delta", "--lam"]),
    ("signed-t", ["--nu", "10", "--delta0", "1", "--lambda0", "3"], "-3:3:5",
     {"nu", "delta0", "lambda0"}, ["--nu", "--delta0", "--lambda0"]),
]


class TestDistTable:
    @pytest.mark.parametrize("dist, flags, grid, echo, named", DIST_CASES,
                             ids=[c[0] for c in DIST_CASES])
    def test_law_flags(self, dist, flags, grid, echo, named, capsys):
        region = run_json(["region", "--dist", dist, "--coverage", "0.9"]
                          + flags, capsys)
        assert set(region["config"]) == {"dist", "coverage", "quadrature"} | echo
        density = run_json(["density", "--dist", dist, "--grid=" + grid]
                           + flags, capsys)
        assert set(density["config"]) == {"dist", "grid", "quadrature"} | echo
        if dist == "mean":
            assert set(region["config"]["params"]) == {
                "n", "beta0", "sigma0", "mu_z", "sigma_z", "beta1", "sigma1",
                "ideal"}
        else:
            given = dict(zip(flags[::2], flags[1::2]))
            assert {k: float(region["config"][k]) for k in echo} == {
                k: float(given["--" + k]) for k in echo}
        for command, own in (("region", ["--coverage", "0.9"]),
                             ("density", ["--grid=" + grid])):
            assert run([command, "--dist", dist] + own + flags[:-2]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:")
            assert all(name in err for name in named), err


class TestPowerTable:
    def test_grid_values(self, capsys):
        payload = run_json(["power-table", "--nu", "10", "--delta", "0,1,4,9",
                            "--lam", "1,4,9"], capsys)
        non = np.array(payload["result"]["nonrejection"])
        expect = np.array([[0.950, 0.950, 0.950],
                           [0.691, 0.863, 0.928],
                           [0.485, 0.742, 0.876],
                           [0.329, 0.608, 0.799]])
        assert np.max(np.abs(non - expect)) < 1e-3

    def test_csv_carries_identical_numbers(self, tmp_path, capsys):
        args = ["power-table", "--nu", "10", "--delta", "0,1", "--lam", "1,4"]
        jout = run_json(args + ["--format", "json"], capsys)
        csv_path = tmp_path / "table.csv"
        assert run(args + ["--format", "csv", "--output", str(csv_path)]) == 0
        lines = [l for l in csv_path.read_text().splitlines()
                 if not l.startswith("#")]
        rows = list(csv.reader(lines))
        header, data = rows[0], rows[1:]
        non = np.array(jout["result"]["nonrejection"])
        for i, row in enumerate(data):
            got = [float(v) for v in row[1:3]]
            assert got == pytest.approx(list(non[i]), abs=0.0)  # identical reprs

    def test_alpha_out_of_range_exits_2(self, capsys):
        assert run(["power-table", "--nu", "10", "--delta", "1", "--lam", "1",
                    "--alpha", "2"]) == 2
        assert capsys.readouterr().err.startswith("input error:")


class TestDensity:
    def test_density_grid(self, tmp_path, capsys):
        out = tmp_path / "dens.csv"
        code = run(["density", "--dist", "variance", "--nu", "10", "--lam",
                    "1.0", "--grid", "0.5:40:16", "--format", "csv",
                    "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# config:")
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "u,pdf,cdf"
        assert len(lines) == 17
        vals = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        assert np.all(np.diff(vals[:, 2]) >= -1e-12)  # cdf monotone

    def test_bad_grid_exits_1(self, capsys):
        assert run(["density", "--dist", "variance", "--nu", "5", "--lam",
                    "1", "--grid", "oops"]) == 1

    def test_signed_t_density(self, capsys):
        payload = run_json(["density", "--dist", "signed-t", "--nu", "10",
                            "--delta0", "1.0", "--lambda0", "3.0",
                            "--grid=-3:3:7"], capsys)
        pdf = payload["result"]["pdf"]
        assert len(pdf) == 7 and all(v > 0 for v in pdf)

    def test_negative_grid_start_as_separate_value(self, capsys):
        args = ["density", "--dist", "signed-t", "--nu", "10", "--delta0",
                "1.0", "--lambda0", "3.0"]
        glued = run_json(args + ["--grid=-5:15:20"], capsys)
        assert run_json(args + ["--grid", "-5:15:20"], capsys) == glued

    @pytest.mark.parametrize("args,flag,value", [
        (["region", "--dist", "signed-t", "--nu", "10", "--lambda0", "1",
          "--coverage", "0.5"], "--delta0", "-1e4"),
        (["moments"] + OCTANE_FLAGS[:2] + OCTANE_FLAGS[4:], "--beta0",
         "-8.7e1"),
        (["moments"] + OCTANE_FLAGS[:6] + OCTANE_FLAGS[8:], "--mu-z", "-1e-3")])
    def test_negative_value_as_separate_argument(self, args, flag, value,
                                                 capsys):
        # argparse reads only -5 and -.5 as numbers on their own (the grid
        # case is the test above)
        glued = run_json(args + [flag + "=" + value], capsys)
        assert run_json(args + [flag, value], capsys) == glued

    def test_unresolvable_slope_window_exits_2(self, capsys):
        # beta1 +- 10 sigma1 rounded to one float: a ValueError traceback
        assert run(["density", "--dist", "mean", "--grid", "0:1:3", "--n", "5",
                    "--beta0", "1", "--sigma0", "1", "--mu-z", "1",
                    "--sigma-z", "1", "--beta1", "1e150", "--sigma1",
                    "1e-10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "sigma1" in err

    def test_mean_density_uses_param_bundle(self, capsys):
        payload = run_json(["density", "--dist", "mean", "--grid",
                            "86:89:5"] + OCTANE_FLAGS, capsys)
        assert payload["config"]["params"]["beta1"] == 1.8546


class TestMoments:
    def test_moments_row(self, capsys):
        payload = run_json(
            ["moments", "--n", "10", "--beta0", "1", "--sigma0", "1",
             "--mu-z", "1", "--sigma-z", "1", "--beta1", "1", "--sigma1", "1"],
            capsys)
        row = payload["result"]["row"]
        assert row["E"] == pytest.approx(2.0)
        assert row["Var"] == pytest.approx(2.2)
        assert row["gamma"] == pytest.approx(0.1839, abs=1e-4)
        assert row["kappa"] == pytest.approx(3.2851, abs=1e-4)
        assert payload["result"]["sample_variance"]["expected"] == pytest.approx(2.0)

    def test_params_file_with_flag_override(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(
            {"n": 10, "beta0": 1, "sigma0": 1, "mu_z": 1, "sigma_z": 1,
             "beta1": 1, "sigma1": 1}))
        code = run(["moments", "--params-file", str(pfile), "--beta0", "2.0"])
        out, err = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["result"]["row"]["beta0"] == 2.0
        assert "note: flag --beta0=2.0 overrides params-file value 1" in err

    def test_unknown_params_field_exits_2(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(
            {"n": 10, "beta0": 1, "sigma0": 1, "mu_z": 1, "sigma_z": 1,
             "beta1": 1, "sigma1": 1, "bogus": 3}))
        assert run(["moments", "--params-file", str(pfile)]) == 2

    def test_missing_params_exit_1(self, capsys):
        assert run(["moments", "--n", "10"]) == 1


class TestSimulate:
    def test_inconsistency_run(self, capsys):
        payload = run_json(
            ["simulate", "--statistic", "inconsistency", "--replications",
             "20000", "--seed", "7", "--n-grid", "10,100",
             "--n", "10", "--beta0", "1", "--sigma0", "1", "--mu-z", "1",
             "--sigma-z", "1", "--beta1", "1", "--sigma1", "1"], capsys)
        summaries = payload["result"]["summaries"]
        assert len(summaries) == 2
        assert summaries[0]["estimate"] == pytest.approx(
            2.2, abs=4 * summaries[0]["std_error"])

    def test_inconsistency_zero_n_exits_2(self, capsys):
        assert run(["simulate", "--statistic", "inconsistency",
                    "--replications", "100", "--seed", "7", "--n-grid", "0,5",
                    "--n", "10", "--beta0", "1", "--sigma0", "1", "--mu-z", "1",
                    "--sigma-z", "1", "--beta1", "1", "--sigma1", "1"]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("extra", [
        ["--statistic", "inconsistency", "--n-grid", "nan,5"],
        ["--statistic", "inconsistency", "--n-grid", "2.5"],
        ["--statistic", "f_oneway", "--group-sizes", "3.7,5",
         "--group-means", "0,0", "--group-omegas", "1,1"]])
    def test_non_integer_list_entry_exits_2(self, extra, capsys):
        assert run(["simulate", "--replications", "100", "--seed", "7",
                    "--n", "10", "--beta0", "1", "--sigma0", "1", "--mu-z",
                    "1", "--sigma-z", "1", "--beta1", "1", "--sigma1", "1"]
                   + extra) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("null", [["--delta", "nan"], ["--delta", "inf"],
                                      ["--mu-y0", "nan"]])
    def test_non_finite_null_exits_2(self, null, capsys):
        assert run(["simulate", "--statistic", "tsq", "--replications", "100",
                    "--seed", "1", "--n", "10", "--beta0", "1", "--sigma0", "1",
                    "--mu-z", "0", "--sigma-z", "1", "--beta1", "1",
                    "--sigma1", "1"] + null) == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["simulate", "--statistic", "s2", "--replications", "5000",
                "--seed", "3", "--n", "10", "--beta0", "1", "--sigma0", "1",
                "--mu-z", "0", "--sigma-z", "1", "--beta1", "1",
                "--sigma1", "1"]
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert run(args + ["--output", str(p1)]) == 0
        assert run(args + ["--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_file_and_dump(self, tmp_path, capsys):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"schema_version": "1", "replications": 1000,
                                   "seed": 5, "mode": "coefficient",
                                   "design": None}))
        dump = tmp_path / "raw.csv"
        payload = run_json(
            ["simulate", "--statistic", "tsq", "--config", str(cfg),
             "--delta", "1.0", "--dump", str(dump),
             "--n", "10", "--beta0", "1", "--sigma0", "1", "--mu-z", "0",
             "--sigma-z", "1", "--beta1", "1", "--sigma1", "1"], capsys)
        assert payload["result"]["replications"] == 1000
        lines = dump.read_text().splitlines()
        assert lines[0] == "tsq"
        assert len(lines) == 1001

    def test_each_config_override_logs_a_note(self, tmp_path, capsys):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"replications": 500, "seed": 3}))
        code = run(["simulate", "--statistic", "mean", "--config", str(cfg),
                    "--replications", "700", "--seed", "9", "--n", "10",
                    "--beta0", "1", "--sigma0", "1", "--mu-z", "0",
                    "--sigma-z", "1", "--beta1", "1", "--sigma1", "1"])
        out, err = capsys.readouterr()
        assert code == 0
        assert "--replications=700 overrides config value 500" in err
        assert "--seed=9 overrides config value 3" in err
        mc = json.loads(out)["config"]["mc"]
        assert (mc["replications"], mc["seed"]) == (700, 9)

    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"replications": 10, "seed": 1, "junk": 0}))
        assert run(["simulate", "--statistic", "mean", "--config", str(cfg),
                    "--n", "10", "--beta0", "1", "--sigma0", "1", "--mu-z",
                    "0", "--sigma-z", "1", "--beta1", "1", "--sigma1", "1"]) == 2

    def test_tsq_without_null_exits_1(self, capsys):
        assert run(["simulate", "--statistic", "tsq", "--replications", "10",
                    "--seed", "1", "--n", "10", "--beta0", "1", "--sigma0",
                    "1", "--mu-z", "0", "--sigma-z", "1", "--beta1", "1",
                    "--sigma1", "1"]) == 1

    def test_f_oneway_statistic(self, capsys):
        payload = run_json(
            ["simulate", "--statistic", "f_oneway", "--replications", "4000",
             "--seed", "9", "--group-sizes", "5,5", "--group-means", "0,0",
             "--group-omegas", "1,1", "--n", "10", "--beta0", "1",
             "--sigma0", "1", "--mu-z", "0", "--sigma-z", "1", "--beta1",
             "1", "--sigma1", "1"], capsys)
        # null F(1, 8) has mean d2/(d2-2) = 8/6
        assert payload["result"]["mean"] == pytest.approx(8.0 / 6.0, abs=0.1)
        assert payload["config"]["design"]["sizes"] == [5, 5]

    def test_full_calibration_mode_via_config(self, tmp_path, capsys):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "replications": 4000, "seed": 5, "mode": "full",
            "design": {"x": list(np.linspace(0.0, 1.0, 11)), "beta0": 1.0,
                       "beta1": 1.0, "sigma_u": 1.0}}))
        sxx = float(np.sum((np.linspace(0, 1, 11) - 0.5) ** 2))
        payload = run_json(
            ["simulate", "--statistic", "mean", "--config", str(cfg),
             "--n", "10", "--beta0", "1",
             "--sigma0", repr(float(1.0 / np.sqrt(11))),
             "--mu-z", "1", "--sigma-z", "1", "--beta1", "1",
             "--sigma1", repr(float(1.0 / np.sqrt(sxx)))], capsys)
        # E(Ybar) = beta0 + beta1 mu_z = 2
        assert payload["result"]["mean"] == pytest.approx(2.0, abs=0.1)
        assert payload["config"]["mc"]["mode"] == "full"


class TestDiagnoseAnova:
    def test_diagnose(self, tmp_path, capsys):
        path = tmp_path / "y.csv"
        rng = np.random.default_rng(0)
        vals = rng.normal(size=12)
        path.write_text("y\n" + "\n".join(repr(float(v)) for v in vals) + "\n")
        payload = run_json(["diagnose", "--input", str(path)], capsys)
        res = payload["result"]
        assert res["n"] == 12
        assert 0.0 <= res["shapiro_type_w"] <= 1.0

    def test_anova(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_text("group,y\na,1\na,2\na,3\nb,4\nb,5\nb,6\n")
        payload = run_json(["anova", "--input", str(path)], capsys)
        dec = payload["result"]["decomposition"]
        assert dec["f_statistic"] == pytest.approx(13.5)
        assert payload["result"]["variance_tests"]["hartley_fmax"] == pytest.approx(1.0)

    def test_anova_with_power(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_text("group,y\na,1\na,2\na,3\nb,4\nb,5\nb,6\n")
        payload = run_json(
            ["anova", "--input", str(path), "--power-alpha", "0.05",
             "--group-sizes", "3,3", "--group-means", "0,1",
             "--group-omegas", "1,1"], capsys)
        assert payload["result"]["f_power"]["lambda_f"] == pytest.approx(1.5)

    def test_anova_power_alpha_out_of_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_text("group,y\na,1\na,2\na,3\nb,4\nb,5\nb,6\n")
        assert run(["anova", "--input", str(path), "--power-alpha", "2",
                    "--group-sizes", "3,3", "--group-means", "0,1",
                    "--group-omegas", "1,1"]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("sizes", ["nan,3", "2.5,3"])
    def test_anova_non_integer_group_size_exits_2(self, sizes, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_text("group,y\na,1\na,2\na,3\nb,4\nb,5\nb,6\n")
        assert run(["anova", "--input", str(path), "--power-alpha", "0.05",
                    "--group-sizes", sizes, "--group-means", "0,1",
                    "--group-omegas", "1,1"]) == 2
        assert capsys.readouterr().err.startswith("input error:")


class TestCaseStudy:
    def test_full_pipeline(self, capsys):
        payload = run_json(["case-study"], capsys)
        res = payload["result"]
        assert res["fitted_line"]["beta0_hat"] == pytest.approx(87.1000, abs=1e-4)
        assert res["canonical_params"]["beta0"] == 87.2818
        assert res["derived"]["lambda"] == pytest.approx(10.0953, abs=5e-5)
        assert res["derived"]["delta"] == pytest.approx(2.9351, abs=5e-5)
        assert res["mean"]["region_95"][0] == pytest.approx(86.037, abs=5e-3)
        assert res["mean"]["region_95"][1] == pytest.approx(88.526, abs=5e-3)
        assert res["mean"]["naive_interval_coverage"] == pytest.approx(0.922, abs=1e-3)
        assert res["sample_variance"]["expected"] == pytest.approx(3.780, abs=1e-3)
        assert res["sample_variance"]["scaled_region_95"][0] == pytest.approx(
            10.8, rel=0.01)
        assert res["sample_variance"]["scaled_region_95"][1] == pytest.approx(
            336.5, rel=0.01)
        assert res["sample_variance"]["naive_interval_coverage"] == pytest.approx(
            0.74, abs=5e-3)
        assert res["tsq_test"]["critical"] == pytest.approx(4.9646, abs=1e-4)
        assert res["tsq_test"]["nonrejection_prob"] == pytest.approx(0.90, abs=5e-3)
        assert "quadrature" in res
        non = np.array(res["power_table"]["nonrejection"])
        assert non[0][0] == pytest.approx(0.950, abs=1e-3)

    def test_csv_format_same_numbers(self, tmp_path, capsys):
        jpath = tmp_path / "cs.json"
        cpath = tmp_path / "cs.csv"
        assert run(["case-study", "--output", str(jpath)]) == 0
        assert run(["case-study", "--format", "csv", "--output", str(cpath)]) == 0
        payload = json.loads(jpath.read_text())
        rows = dict(list(csv.reader(cpath.read_text().splitlines()))[1:])
        want = payload["result"]["tsq_test"]["nonrejection_prob"]
        assert float(rows["result.tsq_test.nonrejection_prob"]) == want
        want_lo = payload["result"]["mean"]["region_95"][0]
        assert float(rows["result.mean.region_95[0]"]) == want_lo
