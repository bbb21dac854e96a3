import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import calibmix
from calibmix import (CalibrationDesign, DataError, McConfig, MixtureParams,
                      OneWayDesign, ParamError, correlation_params,
                      derive_params,
                      draw_calibrated_sample, draw_calibrated_samples, ks_band,
                      ks_distance, ks_distance_two_sample, ks_two_sample_band,
                      mc_config_from_json,
                      mc_config_to_json, mc_inconsistency_curve,
                      mc_statistic_distribution, mean_mixture, substream,
                      tsq_mixture, variance_mixture)
from calibmix.casestudy import octane_params
from calibmix.diagnostics import (moment_ratios_batch, shapiro_type_w_batch,
                                  von_neumann_ratio_batch)
from calibmix import parallel, simulate
from calibmix.simulate import (_f_statistics, _std_normal, _variance_summary,
                               dump_samples_csv, reference_gaussian_samples)

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

    @pytest.mark.parametrize("field,value", [
        ("replications", 2.5), ("replications", True), ("replications", 10.0),
        ("replications", "10"), ("seed", 1.5), ("seed", -1), ("seed", True),
        ("seed", None)])
    def test_config_takes_only_whole_counts(self, field, value):
        kw = dict(replications=10, seed=1)
        kw[field] = value
        with pytest.raises(ParamError, match=field):
            McConfig(**kw)

    def test_config_takes_numpy_integers(self):
        cfg = McConfig(replications=np.int64(10), seed=np.uint32(3))
        assert cfg == McConfig(replications=10, seed=3)
        assert type(cfg.replications) is int and type(cfg.seed) is int


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

    def test_std_error_matches_fsum_reference(self):
        # sqrt((c4 - c2^2) / N) from fsum central moments, on an offset sample
        v = 87.0 + np.random.default_rng(4).normal(size=20_000)
        m = math.fsum(v) / v.size
        c2, c4 = (math.fsum((x - m) ** k for x in v) / v.size for k in (2, 4))
        got = _variance_summary("v", v).std_error
        assert got == pytest.approx(math.sqrt((c4 - c2 * c2) / v.size), rel=1e-12)


GROUPS = OneWayDesign(sizes=(4, 3, 3), means=(0.0, 1.0, 2.0),
                      omegas=(1.5, 1.5, 1.5))


def _coefficients(cfg, p, key, cols, rows=None):
    """(beta0_hat, beta1_hat, normals of the cols Z columns) rebuilt from
    one _std_normal call on stream ``key``, by the pinned layout of
    cfg.mode: [beta0_hat, beta1_hat, Z...] or [eps_1..eps_n0, Z...].  The
    full-mode slope is a row sum, as in the engine."""
    rows = cfg.replications if rows is None else rows
    lead = 2 if cfg.mode == "coefficient" else cfg.design.n0
    e = _std_normal(substream(cfg.seed, *key), (rows, lead + cols))
    if cfg.mode == "coefficient":
        return (p.beta0 + p.sigma0 * e[:, 0], p.beta1 + p.sigma1 * e[:, 1],
                e[:, 2:])
    d = cfg.design
    eps = d.sigma_u * e[:, :lead]
    return (d.beta0 + eps.mean(axis=1),
            d.beta1 + (eps * d.xc).sum(axis=1) / d.sxx, e[:, lead:])


def _by_hand(stat, p, cfg):
    """(engine output, the same statistic rebuilt from its keyed stream by
    one _std_normal call in the pinned layout)."""
    # full mode takes the line, and so the s2 scale and the tsq null, from
    # the design
    line = p if cfg.mode == "coefficient" else cfg.design.mixture_params(
        p.n, p.mu_z, p.sigma_z)

    def samples(key, rows=None):
        b0, b1, e = _coefficients(cfg, p, key, p.n, rows)
        return b0, b1, b0[:, None] + b1[:, None] * (p.mu_z + p.sigma_z * e)

    def ybar(key, n):
        b0, b1, e = _coefficients(cfg, p, key, 1)
        return b0 + b1 * (p.mu_z + p.sigma_z / math.sqrt(n) * e[:, 0])

    if stat == "sample":
        return draw_calibrated_sample(p, cfg), samples((0,), 1)[2][0]
    if stat == "samples":
        return draw_calibrated_samples(p, cfg), samples((0,))[2]
    if stat == "inconsistency":
        got = [s.estimate for s in mc_inconsistency_curve(p, [3, 100], cfg)]
        return got, [ybar((6, 0), 3).var(ddof=1), ybar((6, 1), 100).var(ddof=1)]
    if stat == "mean":
        return mc_statistic_distribution(p, "mean", cfg), ybar((1,), p.n)
    if stat == "s2":
        y = samples((2,))[2]
        return (mc_statistic_distribution(p, "s2", cfg),
                (p.n - 1) * y.var(axis=1, ddof=1)
                / (line.sigma1 ** 2 * p.sigma_z ** 2))
    if stat == "tsq":
        b0, b1, y = samples((3,))
        null = b0 + b1 * p.mu_z - math.sqrt(
            line.sigma1 ** 2 * p.sigma_z ** 2 / p.n)
        return (mc_statistic_distribution(p, "tsq", cfg, delta=1.0),
                p.n * (y.mean(axis=1) - null) ** 2 / y.var(axis=1, ddof=1))
    if stat == "f_oneway":
        b0, b1, e = _coefficients(cfg, p, (4,), GROUPS.n)
        z = np.repeat(GROUPS.means, GROUPS.sizes) + 1.5 * e
        return (mc_statistic_distribution(p, "f_oneway", cfg, design=GROUPS),
                _f_statistics(b0[:, None] + b1[:, None] * z, GROUPS.sizes))
    y = samples((5,))[2]
    b1r, b2r = moment_ratios_batch(y)
    return (mc_statistic_distribution(p, "diagnostics", cfg),
            {"W": shapiro_type_w_batch(y),
             "U": von_neumann_ratio_batch(y - y.mean(axis=1, keepdims=True)),
             "b1": b1r, "b2": b2r})


def _assert_same(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        got, want = list(got.values()), list(want.values())
    assert np.array_equal(got, want)


STATISTICS = ["sample", "samples", "inconsistency", "mean", "s2", "tsq",
              "f_oneway", "diagnostics"]


@pytest.mark.parametrize("stat", STATISTICS)
@pytest.mark.parametrize("octane", [False, True])
def test_coefficient_mode_streams_rebuild_by_hand(stat, octane):
    p = octane_params() if octane else UNIT
    _assert_same(*_by_hand(stat, p, McConfig(replications=400, seed=97)))


def three_blocks_and_17(cols):
    """A row count that ends in a partial block: 3 whole blocks + 17 rows."""
    return 3 * max(1, simulate._BLOCK_NORMALS // cols) + 17


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("mode", ["coefficient", "full"])
@pytest.mark.parametrize("stat", STATISTICS)
def test_blocked_draws_match_one_call(stat, mode, workers, monkeypatch):
    # the blocks are fixed by the shape, so any worker count gives the
    # bits of one whole-matrix call
    monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
    p = octane_params()
    design = TestFullMode.DESIGN if mode == "full" else None
    lead = 2 if design is None else design.n0
    z_cols = {"mean": 1, "inconsistency": 1, "f_oneway": GROUPS.n}.get(stat, p.n)
    cfg = McConfig(replications=three_blocks_and_17(lead + z_cols), seed=41,
                   mode=mode, design=design)
    _assert_same(*_by_hand(stat, p, cfg))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blocked_reference_samples_match_one_call(workers, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
    cfg = McConfig(replications=three_blocks_and_17(7), seed=6)
    want = _std_normal(substream(6, simulate._STREAMS["gaussian_ref"]),
                       (cfg.replications, 7))
    assert np.array_equal(reference_gaussian_samples(7, cfg), want)


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_s2_memory_is_per_row(monkeypatch):
    # the whole-matrix draw peaked at 102 MB here: normals, Z and Y of
    # 2e5 x 22.  Blocked, it is the 1.6 MB output plus a block per worker
    monkeypatch.setattr(parallel, "cpu_count", lambda: 4)
    p = MixtureParams(n=20, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=2.0,
                      beta1=1.0, sigma1=1.0)
    peak = _traced_peak_mb(lambda: mc_statistic_distribution(
        p, "s2", McConfig(200_000, 3)))
    assert peak <= 16.0


def concatenated_ks(a, b):
    """The two-sample KS distance over the concatenated samples."""
    a, b = np.sort(a), np.sort(b)
    allv = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, allv, side="right") / a.size
                               - np.searchsorted(b, allv, side="right") / b.size)))


class TestKsTwoSample:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), m=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1), digits=st.sampled_from([0, 1, 8]))
    def test_matches_concatenated_formula(self, n, m, seed, digits):
        # rounded to ``digits``, the samples tie within and across each other
        rng = np.random.default_rng(seed)
        a = np.round(rng.standard_normal(n), digits)
        b = np.round(1.2 * rng.standard_normal(m) + 0.1, digits)
        assert ks_distance_two_sample(a, b) == concatenated_ks(a, b)

    def test_memory_is_one_sample_at_a_time(self):
        # the concatenated formula peaked at 19.2 MB here
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(200_000), rng.standard_normal(200_000)
        assert _traced_peak_mb(lambda: ks_distance_two_sample(a, b)) <= 12.0


class TestFullMode:
    """Full calibration mode takes the line from the design for every
    statistic; here the design's slope (5) is far from the params' (1)."""

    DESIGN = CalibrationDesign(x=tuple(np.linspace(-1.0, 1.0, 11)), beta0=2.0,
                               beta1=5.0, sigma_u=0.5)
    P = MixtureParams(n=10, beta0=2.0, sigma0=0.1, mu_z=0.5, sigma_z=1.0,
                      beta1=1.0, sigma1=0.2)

    def _line(self, key, reps, cols):
        """The design's (beta0_hat, beta1_hat) and the Z normals, by the
        full-mode layout [eps_1..eps_n0, Z...]."""
        return _coefficients(self._cfg(reps), self.P, key, cols)

    def _cfg(self, reps):
        return McConfig(replications=reps, seed=5, mode="full", design=self.DESIGN)

    def test_inconsistency_follows_design(self):
        out = mc_inconsistency_curve(self.P, [3, 10], self._cfg(40_000))
        for smry, n in zip(out, [3, 10]):
            want = derive_params(self.DESIGN.mixture_params(
                n, self.P.mu_z, self.P.sigma_z)).var_ybar
            assert smry.estimate == pytest.approx(want, abs=4 * smry.std_error)
            assert want > 10 * derive_params(
                dataclasses.replace(self.P, n=n)).var_ybar

    def test_f_oneway_follows_design(self):
        got = mc_statistic_distribution(self.P, "f_oneway", self._cfg(500),
                                        design=GROUPS)
        b0, b1, e = self._line((4,), 500, GROUPS.n)
        z = np.repeat(GROUPS.means, GROUPS.sizes) + 1.5 * e
        assert np.array_equal(got, _f_statistics(b0[:, None] + b1[:, None] * z,
                                                 GROUPS.sizes))

    @pytest.mark.parametrize("statistic", ["s2", "tsq"])
    def test_scaled_statistics_follow_design(self, statistic):
        # the s2 scale and the tsq null come from the design's line, as the
        # draws do; the params' sigma1 (0.2 against 0.24) and mu_y (2.5
        # against 4.5) would put the sample on neither law
        q = self.DESIGN.mixture_params(self.P.n, self.P.mu_z, self.P.sigma_z)
        cfg = self._cfg(20_000)
        if statistic == "s2":
            d = derive_params(q)
            vals = mc_statistic_distribution(self.P, "s2", cfg)
            law = variance_mixture(d.nu, d.lam)
        else:
            d = derive_params(q, mu_y0=q.mu_y - 0.3)
            vals = mc_statistic_distribution(self.P, "tsq", cfg,
                                             mu_y0=q.mu_y - 0.3)
            law = tsq_mixture(d.nu, d.delta, d.lam)
        assert ks_distance(vals, law) < ks_band(cfg.replications)

    def test_mean_draws_one_zbar_column(self):
        got = mc_statistic_distribution(self.P, "mean", self._cfg(500))
        b0, b1, e = self._line((1,), 500, 1)
        want = b0 + b1 * (self.P.mu_z + self.P.sigma_z / math.sqrt(10) * e[:, 0])
        assert np.array_equal(got, want)


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

    @pytest.mark.xfail(strict=True, reason="the variance law mixes over V "
                       "alone and is certified only at its probe points; "
                       "W ~ chi2_1(1e6) turns over within a small part of "
                       "V's sd, so between them the CDF is off: D reads "
                       "0.0182 against a band of 0.0115")
    def test_s2_matches_variance_mixture_at_large_lambda(self):
        # nu = n - 1 = 1000 and lambda = (beta1 / sigma1)^2 = 1e6
        p = MixtureParams(n=1001, beta0=0, sigma0=1, mu_z=0, sigma_z=1,
                          beta1=1000, sigma1=1)
        vals = mc_statistic_distribution(p, "s2", McConfig(replications=20000,
                                                           seed=3))
        assert ks_distance(vals, variance_mixture(1000, 1e6)) < ks_band(20000)

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


class Normal:
    def __init__(self, loc=0.0):
        self.loc = loc

    def cdf(self, u):
        return ndtr(np.asarray(u, dtype=float) - self.loc)


class TestKsHelpers:
    def test_ks_distance_detects_mismatch(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(0.3, 1.0, 30_000)
        assert ks_distance(sample, Normal()) > 0.08

    def test_ks_distance_accepts_match(self):
        p = UNIT0
        cfg = McConfig(replications=50_000, seed=77)
        vals = mc_statistic_distribution(p, "mean", cfg)
        assert ks_distance(vals, mean_mixture(p)) < ks_band(cfg.replications)

    def test_band_value(self):
        assert ks_band(100_000) == pytest.approx(1.63 / np.sqrt(100_000))


class Counted:
    """A model CDF that counts the points it is asked for."""

    def __init__(self, dist):
        self.dist, self.points = dist, 0

    def cdf(self, u):
        self.points += np.size(u)
        return self.dist.cdf(u)


def exact_ks(f_sorted, tail_frac=1e-4):
    """KS distance from the model CDF at every sorted sample point: the
    exact distance on the core plus ks_distance's tail allowances."""
    n = f_sorted.size
    lo_i = int(math.floor(tail_frac * n))
    hi_i = n - 1 - lo_i
    i = np.arange(lo_i, hi_i + 1)
    f = np.clip(f_sorted[lo_i:hi_i + 1], 0.0, 1.0)
    return max(float(np.max(np.maximum((i + 1) / n - f, f - i / n))),
               lo_i / n, f[0], 1.0 - (hi_i + 1) / n, 1.0 - f[-1])


POOL_LAWS = {
    "normal": Normal,
    "mean": lambda: mean_mixture(UNIT),
    "s2": lambda: variance_mixture(9, 1.0),
    "tsq": lambda: tsq_mixture(9, 1.0, 1.0),
}


@functools.lru_cache(maxsize=None)
def pool(law):
    """2e4 sorted draws of a law with its CDF at each, computed once."""
    dist = POOL_LAWS[law]()
    cfg = McConfig(replications=20_000, seed=8)
    if law == "normal":
        draws = substream(cfg.seed, 1).normal(size=cfg.replications)
    else:
        kw = {"delta": 1.0} if law == "tsq" else {}
        draws = mc_statistic_distribution(UNIT, law, cfg, **kw)
    x = np.sort(draws)
    return dist, x, np.asarray(dist.cdf(x))


class TestKsBrackets:
    """ks_distance is a certified upper bound: never below the exact
    distance and at most 1e-5 above it."""

    # the first grid and the tails are constants of ks_distance; the test
    # varies them so that the gap splitting is exercised from coarse grids
    @settings(max_examples=25, deadline=None)
    @given(law=st.sampled_from(sorted(POOL_LAWS)),
           n=st.integers(2_000, 20_000),
           seed=st.integers(0, 2 ** 31),
           grid_points=st.sampled_from([2, 64, 1024, 4096]),
           tail_frac=st.sampled_from([0.0, 1e-4, 1e-3]),
           shift=st.sampled_from([0.0, 0.05, 1.0]))
    def test_within_slack_of_exact(self, law, n, seed, grid_points, tail_frac,
                                   shift):
        dist, x, f = pool(law)
        keep = np.sort(np.random.default_rng(seed).choice(x.size, n, replace=False))
        x, f = x[keep], f[keep]
        if law == "normal" and shift:
            # a mismatched model, so the bound is tested far from 0 too
            dist = Normal(shift)
            f = dist.cdf(x)
        exact = exact_ks(f, tail_frac)
        with mock.patch.multiple(simulate, _KS_GRID=grid_points,
                                 _KS_TAIL=tail_frac):
            d = ks_distance(x[::-1], dist)
        assert exact - 1e-12 <= d <= exact + 1e-5 + 1e-12

    @pytest.mark.parametrize("seed", [2, 3])
    def test_unsplit_gap_counts_at_large_n(self, seed):
        # at 3e5 draws one sample moves D by 3e-6, so the largest D can sit
        # in a gap that is left unsplit; the result must still cover it
        x = substream(seed, 2).normal(size=300_000)
        exact = exact_ks(Normal().cdf(np.sort(x)))
        assert exact <= ks_distance(x, Normal()) <= exact + 1e-5

    def test_criterion_7_octane_tsq(self):
        # a fixed bracket on 1024 quantiles reads 0.0055 here, over the 0.0052
        # band; the exact distance is 0.00459
        p, delta = octane_params(), 2.935084529994201
        ev = tsq_mixture(p.n - 1, delta, (p.beta1 / p.sigma1) ** 2)
        sample = mc_statistic_distribution(
            p, "tsq", McConfig(replications=100_000, seed=97), delta=delta)
        counted = Counted(ev)
        d = ks_distance(sample, counted)
        exact = exact_ks(np.asarray(ev.cdf(np.sort(sample))))
        assert exact == pytest.approx(0.00459, abs=5e-6)
        assert exact <= d <= exact + 1e-5
        # no more CDF points than the 1542 of the interpolated grid it replaces
        assert counted.points <= 1542

    @pytest.mark.parametrize("sample,match", [
        (np.r_[np.linspace(0, 1, 50), np.nan], r"sample\[50\]"),
        (np.r_[np.inf, np.linspace(0, 1, 50)], r"sample\[0\]"),
        (np.ones(100), "degenerate"),
        (np.linspace(0, 1, 2), "too small"),
    ])
    def test_bad_sample_is_data_error(self, sample, match):
        with pytest.raises(DataError, match=match):
            ks_distance(sample, Normal())

    @pytest.mark.parametrize("band,sizes,match", [
        (ks_band, (0,), "n must"),
        (ks_band, (-5,), "n must"),
        (ks_two_sample_band, (0, 3), "n must"),
        (ks_two_sample_band, (3, 0), "m must"),
    ], ids=["n=0", "n=-5", "n=0,m=3", "n=3,m=0"])
    def test_empty_sample_is_param_error(self, band, sizes, match):
        with pytest.raises(ParamError, match=match):
            band(*sizes)


def test_import_loads_only_special_from_scipy():
    # a fresh interpreter: this one has imported scipy.stats already
    src = os.path.dirname(os.path.dirname(calibmix.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, calibmix; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = {m.split(".")[1] for m in out.split() if m.startswith("scipy.")}
    assert not loaded & {"interpolate", "optimize", "linalg", "sparse",
                         "spatial", "stats"}
    assert "special" in loaded


def test_dump_samples_csv(tmp_path):
    path = tmp_path / "raw.csv"
    dump_samples_csv(path, "tsq", np.array([1.0, 2.5, 3.25]))
    lines = path.read_text().splitlines()
    assert lines[0] == "tsq"
    assert [float(v) for v in lines[1:]] == [1.0, 2.5, 3.25]
