import json

import numpy as np
import pytest

from calibmix import (CalibrationDesign, DataError, McConfig, MixtureParams,
                      OneWayDesign, ParamError, correlation_params,
                      draw_calibrated_sample, draw_calibrated_samples, ks_band,
                      ks_distance, mc_config_from_json, mc_config_to_json,
                      mc_inconsistency_curve, mc_statistic_distribution,
                      mean_mixture, substream, variance_mixture)
from calibmix.simulate import dump_samples_csv

UNIT = MixtureParams(n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                     beta1=1.0, sigma1=1.0)
UNIT0 = MixtureParams(n=10, beta0=1.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                      beta1=1.0, sigma1=1.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParamError):
            McConfig(replications=0, seed=1)
        with pytest.raises(ParamError):
            McConfig(replications=10, seed=1, mode="weird")
        with pytest.raises(ParamError):
            McConfig(replications=10, seed=1, mode="full")

    def test_json_roundtrip(self):
        design = CalibrationDesign(x=(1.0, 2.0, 3.0, 4.0), beta0=2.0,
                                   beta1=1.5, sigma_u=0.5)
        cfg = McConfig(replications=100, seed=9, mode="full", design=design)
        back = mc_config_from_json(mc_config_to_json(cfg))
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(DataError):
            mc_config_from_json({"replications": 5, "seed": 1, "bogus": 2})
        with pytest.raises(DataError):
            mc_config_from_json(json.dumps(
                {"replications": 5, "seed": 1,
                 "design": {"x": [1, 2, 3], "beta0": 0, "beta1": 1,
                            "sigma_u": 1, "oops": 0}}))

    def test_missing_field_rejected(self):
        with pytest.raises(DataError):
            mc_config_from_json({"seed": 1})

    def test_degenerate_design_rejected(self):
        with pytest.raises(ParamError):
            CalibrationDesign(x=(1.0, 1.0, 1.0), beta0=0.0, beta1=1.0,
                              sigma_u=1.0)


    @pytest.mark.parametrize("field", ["beta0", "beta1", "sigma_u", "x"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_design_rejects_non_finite(self, field, value):
        kw = dict(x=(1.0, 2.0, 3.0), beta0=0.0, beta1=1.0, sigma_u=1.0)
        kw[field] = (1.0, value, 3.0) if field == "x" else value
        with pytest.raises(ParamError, match=field):
            CalibrationDesign(**kw)

    @pytest.mark.parametrize("field", ["replications", "seed"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_config_rejects_non_finite(self, field, value):
        kw = dict(replications=10, seed=1)
        kw[field] = value
        with pytest.raises(ParamError, match=field):
            McConfig(**kw)


class TestDeterminism:
    def test_identical_seed_bit_identical(self):
        cfg = McConfig(replications=500, seed=123)
        a = draw_calibrated_samples(UNIT, cfg)
        b = draw_calibrated_samples(UNIT, cfg)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = draw_calibrated_samples(UNIT, McConfig(replications=50, seed=1))
        b = draw_calibrated_samples(UNIT, McConfig(replications=50, seed=2))
        assert not np.array_equal(a, b)

    def test_streams_are_independent_by_key(self):
        a = substream(7, 1).random(8)
        b = substream(7, 2).random(8)
        c = substream(7, 1).random(8)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_summary_bit_identical(self):
        cfg = McConfig(replications=2000, seed=99)
        s1 = mc_inconsistency_curve(UNIT, [10, 100], cfg)
        s2 = mc_inconsistency_curve(UNIT, [10, 100], cfg)
        assert [x.to_dict() for x in s1] == [y.to_dict() for y in s2]


class TestDrawCalibratedSample:
    def test_shape_and_sharing(self):
        cfg = McConfig(replications=1, seed=5)
        y = draw_calibrated_sample(UNIT, cfg)
        assert y.shape == (10,)

    def test_ideal_mode_affine_of_z(self):
        p = MixtureParams(n=6, beta0=2.0, sigma0=0.0, mu_z=1.0, sigma_z=1.0,
                          beta1=3.0, sigma1=0.0, ideal=True)
        cfg = McConfig(replications=2000, seed=8)
        y = draw_calibrated_samples(p, cfg)
        # Y = 2 + 3 Z exactly: sample mean/var match the affine law
        assert y.mean() == pytest.approx(2.0 + 3.0 * 1.0, abs=0.05)
        assert y.var() == pytest.approx(9.0, rel=0.1)
        # no shared randomness: distinct coordinates essentially uncorrelated
        c = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
        assert abs(c) < 0.08

    def test_empirical_equicorrelation(self):
        cfg = McConfig(replications=200_000, seed=21)
        y = draw_calibrated_samples(UNIT0, cfg)
        _, rho = correlation_params(UNIT0)
        pairs = [(0, 1), (2, 5), (7, 9)]
        for i, j in pairs:
            c = np.corrcoef(y[:, i], y[:, j])[0, 1]
            # MC s.e. of a correlation ~ 1/sqrt(reps)
            assert c == pytest.approx(rho, abs=3.5 / np.sqrt(cfg.replications))

    def test_full_mode_agrees_with_coefficient_mode(self):
        design = CalibrationDesign(x=tuple(np.linspace(0, 1, 11)), beta0=1.0,
                                   beta1=1.0, sigma_u=1.0)
        p = design.mixture_params(n=10, mu_z=1.0, sigma_z=1.0)
        reps = 120_000
        y_full = draw_calibrated_samples(
            p, McConfig(replications=reps, seed=31, mode="full", design=design))
        y_coef = draw_calibrated_samples(
            p, McConfig(replications=reps, seed=32, mode="coefficient"))
        for stat in (lambda m: m.mean(axis=1).mean(),
                     lambda m: m.mean(axis=1).var(),
                     lambda m: m.var(axis=1, ddof=1).mean()):
            a, b = stat(y_full), stat(y_coef)
            assert a == pytest.approx(b, abs=4.5 * abs(b) / np.sqrt(reps) + 0.02)


class TestInconsistencyCurve:
    def test_matches_formula_and_plateaus(self):
        cfg = McConfig(replications=100_000, seed=17)
        out = mc_inconsistency_curve(UNIT, [10, 100, 10_000], cfg)
        kappa2 = 2.0
        plateau = 2.0
        for smry, n in zip(out, [10, 100, 10_000]):
            expect = kappa2 / n + plateau
            assert smry.estimate == pytest.approx(expect, abs=3 * smry.std_error)
        assert out[-1].estimate == pytest.approx(plateau, abs=3 * out[-1].std_error)

    def test_ideal_mode_consistent(self):
        p = MixtureParams(n=10, beta0=1.0, sigma0=0.0, mu_z=1.0, sigma_z=1.0,
                          beta1=1.0, sigma1=0.0, ideal=True)
        out = mc_inconsistency_curve(p, [1_000_000], McConfig(replications=50_000, seed=2))
        assert out[0].estimate == pytest.approx(0.0, abs=1e-5)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ParamError):
            mc_inconsistency_curve(UNIT, [100, 10], McConfig(replications=10, seed=1))


class TestStatisticDistributions:
    def test_tsq_needs_exactly_one_null_spec(self):
        cfg = McConfig(replications=10, seed=1)
        with pytest.raises(ParamError):
            mc_statistic_distribution(UNIT, "tsq", cfg)
        with pytest.raises(ParamError):
            mc_statistic_distribution(UNIT, "tsq", cfg, mu_y0=1.0, delta=1.0)

    @pytest.mark.parametrize("kw", [{"delta": np.nan}, {"delta": np.inf},
                                    {"delta": -1.0}, {"mu_y0": np.nan},
                                    {"mu_y0": -np.inf}])
    def test_tsq_rejects_bad_null(self, kw):
        with pytest.raises(ParamError, match=next(iter(kw))):
            mc_statistic_distribution(UNIT, "tsq", McConfig(replications=10,
                                                            seed=1), **kw)

    def test_unknown_statistic(self):
        with pytest.raises(ParamError):
            mc_statistic_distribution(UNIT, "median", McConfig(replications=5, seed=1))

    def test_tsq_delta_zero_matches_central_f(self):
        from scipy import stats
        cfg = McConfig(replications=60_000, seed=13)
        vals = mc_statistic_distribution(UNIT, "tsq", cfg, delta=0.0)

        class F:
            def cdf(self, u):
                return stats.f.cdf(u, 1, 9)

        d = ks_distance(vals, F())
        assert d < ks_band(cfg.replications)

    def test_s2_matches_variance_mixture(self):
        cfg = McConfig(replications=60_000, seed=14)
        vals = mc_statistic_distribution(UNIT, "s2", cfg)
        ev = variance_mixture(9, 1.0)
        assert ks_distance(vals, ev) < ks_band(cfg.replications)

    def test_mean_symmetry_at_zero_mu_z(self):
        cfg = McConfig(replications=50_000, seed=15)
        vals = mc_statistic_distribution(UNIT0, "mean", cfg)
        d = vals - vals.mean()
        skew = np.mean(d ** 3) / np.mean(d ** 2) ** 1.5
        se = np.sqrt(6.0 / cfg.replications)
        assert skew == pytest.approx(0.0, abs=3 * se)

    def test_f_oneway_requires_common_omega(self):
        design = OneWayDesign(sizes=(4, 4), means=(0.0, 1.0), omegas=(1.0, 2.0))
        with pytest.raises(ParamError):
            mc_statistic_distribution(UNIT, "f_oneway",
                                      McConfig(replications=10, seed=1),
                                      design=design)

    def test_diagnostics_returns_batches(self):
        cfg = McConfig(replications=200, seed=4)
        out = mc_statistic_distribution(UNIT, "diagnostics", cfg)
        assert set(out) == {"W", "U", "b1", "b2"}
        assert all(v.shape == (200,) for v in out.values())

    def test_bias_gap_reproduced(self):
        # E(S^2) hits kappa2 sigma_z^2 while the pooled per-value variance hits
        # var_y: the gap is the calibration bias, reproduced rather than assumed
        from calibmix import expected_sample_variance
        cfg = McConfig(replications=120_000, seed=41)
        y = draw_calibrated_samples(UNIT, cfg)
        e_s2, bias = expected_sample_variance(UNIT)
        s2 = y.var(axis=1, ddof=1)
        se_s2 = s2.std(ddof=1) / np.sqrt(cfg.replications)
        assert s2.mean() == pytest.approx(e_s2, abs=3 * se_s2)
        pooled = y.ravel()
        d = pooled - pooled.mean()
        c2 = np.mean(d ** 2)
        c4 = np.mean(d ** 4)
        se_v = np.sqrt(max(c4 - c2 * c2, 0.0) / cfg.replications)
        assert pooled.var(ddof=1) == pytest.approx(UNIT.var_y, abs=3 * se_v)
        assert UNIT.var_y - e_s2 == pytest.approx(-bias, rel=1e-12)


class TestKsHelpers:
    def test_ks_distance_detects_mismatch(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(0.3, 1.0, 30_000)

        class StdNorm:
            def cdf(self, u):
                from scipy.special import ndtr
                return ndtr(np.asarray(u, dtype=float))

        assert ks_distance(sample, StdNorm()) > 0.08

    def test_ks_distance_accepts_match(self):
        p = UNIT0
        cfg = McConfig(replications=50_000, seed=77)
        vals = mc_statistic_distribution(p, "mean", cfg)
        assert ks_distance(vals, mean_mixture(p)) < ks_band(cfg.replications)

    def test_band_value(self):
        assert ks_band(100_000) == pytest.approx(1.63 / np.sqrt(100_000))
        with pytest.raises(ValueError):
            ks_band(100, alpha=0.05)


def test_dump_samples_csv(tmp_path):
    path = tmp_path / "raw.csv"
    dump_samples_csv(path, "tsq", np.array([1.0, 2.5, 3.25]))
    lines = path.read_text().splitlines()
    assert lines[0] == "tsq"
    assert [float(v) for v in lines[1:]] == [1.0, 2.5, 3.25]
