import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from calibmix import (McConfig, MixtureParams, OneWayDesign, ParamError,
                      decompose, f_power, group_variance_bias,
                      grouped_data_from_csv, homoscedasticity_condition,
                      ks_band, ks_distance, mc_statistic_distribution,
                      ncf_cdf, variance_tests)
from calibmix.simulate import (ks_distance_two_sample, ks_two_sample_band,
                               substream, _std_normal)

UNIT = MixtureParams(n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                     beta1=1.0, sigma1=1.0)


class TestDecompose:
    def test_hand_example(self):
        dec = decompose([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert dec.ss1 == pytest.approx(13.5)
        assert dec.ss2 == pytest.approx(4.0)
        assert dec.f_statistic == pytest.approx(13.5)

    def test_flat_form_matches(self):
        dec = decompose([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], sizes=(3, 3))
        assert dec.f_statistic == pytest.approx(13.5)

    def test_constant_data_rejected(self):
        with pytest.raises(ParamError):
            decompose([[2.0, 2.0], [2.0, 2.0]])
        # the groups' means round off 0.1 and 0.3, so their sums of squares
        # are of order eps^2, not 0
        with pytest.raises(ParamError, match="within-group"):
            decompose([[0.1] * 3, [0.3] * 3])

    def test_size_mismatch(self):
        with pytest.raises(ParamError):
            decompose([1.0, 2.0, 3.0], sizes=(2, 2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(-4.0, 4.0),
           st.floats(0.05, 5.0))
    def test_fisher_cochran_identity_and_affine_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 7, size=rng.integers(2, 5))
        y = rng.normal(size=int(sizes.sum()))
        if np.ptp(y) < 1e-6:
            y[0] += 1.0
        dec = decompose(y, sizes=tuple(sizes))
        total = float(y @ y)
        assert dec.ss0 + dec.ss1 + dec.ss2 == pytest.approx(total, rel=1e-12)
        dec2 = decompose(a + b * y, sizes=tuple(sizes))
        assert dec2.f_statistic == pytest.approx(dec.f_statistic, rel=1e-9)


class TestOneWayDesign:
    @pytest.mark.parametrize("field", ["means", "omegas"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        kw = dict(sizes=(3, 3), means=(0.0, 1.0), omegas=(1.0, 1.0))
        kw[field] = (value, 1.0)
        with pytest.raises(ParamError, match=field):
            OneWayDesign(**kw)


class TestFPower:
    def test_equal_means_power_is_level(self):
        design = OneWayDesign(sizes=(5, 5, 5), means=(1.0, 1.0, 1.0),
                              omegas=(2.0, 2.0, 2.0))
        fp = f_power(design, 0.05)
        assert fp.lambda_f == 0.0
        assert fp.power == pytest.approx(0.05, abs=1e-8)

    def test_hand_lambda(self):
        design = OneWayDesign(sizes=(3, 3), means=(0.0, 1.0), omegas=(1.0, 1.0))
        fp = f_power(design, 0.05)
        assert fp.lambda_f == pytest.approx(1.5)
        ref = 1.0 - stats.ncf.cdf(fp.critical, 1, 4, 1.5)
        assert fp.power == pytest.approx(ref, abs=1e-9)

    def test_unbalanced_weighted_grand_mean(self):
        design = OneWayDesign(sizes=(2, 8), means=(0.0, 1.0), omegas=(1.0, 1.0))
        fp = f_power(design, 0.05)
        mubar = 8.0 / 10.0
        expect = 2 * mubar ** 2 + 8 * (1 - mubar) ** 2
        assert fp.lambda_f == pytest.approx(expect)

    def test_power_monotone_in_lambda(self):
        powers = []
        for shift in (0.0, 0.5, 1.0, 2.0):
            design = OneWayDesign(sizes=(5, 5), means=(0.0, shift),
                                  omegas=(1.0, 1.0))
            powers.append(f_power(design, 0.05).power)
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_heteroscedastic_rejected(self):
        design = OneWayDesign(sizes=(3, 3), means=(0.0, 1.0), omegas=(1.0, 2.0))
        with pytest.raises(ParamError):
            f_power(design, 0.05)


class TestVarianceTests:
    def test_equal_variances(self):
        vt = variance_tests([2.0, 2.0, 2.0, 2.0], [5, 5, 5, 5])
        assert vt.cochran_stat == pytest.approx(0.25)
        assert vt.hartley_fmax == pytest.approx(1.0)
        assert vt.bartlett_stat == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        vt = variance_tests([1.0, 4.0], [6, 6])
        assert vt.cochran_stat == pytest.approx(0.8)
        assert vt.hartley_fmax == pytest.approx(4.0)

    def test_scale_invariance(self):
        s2 = [0.5, 1.5, 4.0]
        sizes = [4, 7, 5]
        a = variance_tests(s2, sizes)
        b = variance_tests([7.0 * v for v in s2], sizes)
        assert a.bartlett_stat == pytest.approx(b.bartlett_stat, rel=1e-12)
        assert a.cochran_stat == pytest.approx(b.cochran_stat, rel=1e-12)
        assert a.hartley_fmax == pytest.approx(b.hartley_fmax, rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ParamError):
            variance_tests([0.0, 1.0], [4, 4])


class TestGroupVarianceBias:
    def test_hand_example(self):
        design = OneWayDesign(sizes=(4, 4), means=(2.0, 0.0), omegas=(1.0, 1.0))
        p = MixtureParams(n=8, beta0=0.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        rows = group_variance_bias(design, p)
        assert rows[0].bias == pytest.approx(-5.0)
        assert rows[1].bias == pytest.approx(-1.0)
        assert rows[0].expected_s2 == pytest.approx(2.0)
        assert rows[0].var_y == pytest.approx(7.0)

    def test_ideal_mode_zero_bias(self):
        design = OneWayDesign(sizes=(3, 3), means=(1.0, 2.0), omegas=(1.0, 2.0))
        p = MixtureParams(n=6, beta0=0.0, sigma0=0.0, mu_z=0.0, sigma_z=1.0,
                          beta1=2.0, sigma1=0.0, ideal=True)
        rows = group_variance_bias(design, p)
        assert all(r.bias == 0.0 for r in rows)

    def test_mc_cross_check(self):
        # empirical E(S_i^2) and Var(Y_ij) reproduce both formulas
        design = OneWayDesign(sizes=(6, 6), means=(0.0, 2.0), omegas=(1.0, 1.5))
        p = MixtureParams(n=12, beta0=1.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        reps = 150_000
        rng = substream(123, 40)
        normals = _std_normal(rng, (reps, 2 + design.n))
        b0 = p.beta0 + p.sigma0 * normals[:, 0]
        b1 = p.beta1 + p.sigma1 * normals[:, 1]
        mu_vec = np.repeat(design.means, design.sizes)
        om_vec = np.repeat(design.omegas, design.sizes)
        z = mu_vec + om_vec * normals[:, 2:]
        y = b0[:, None] + b1[:, None] * z
        rows = group_variance_bias(design, p)
        bounds = np.concatenate([[0], np.cumsum(design.sizes)])
        for i, row in enumerate(rows):
            g = y[:, bounds[i]:bounds[i + 1]]
            s2 = g.var(axis=1, ddof=1)
            se_s2 = s2.std(ddof=1) / np.sqrt(reps)
            assert s2.mean() == pytest.approx(row.expected_s2, abs=3 * se_s2)
            v = g.ravel().var(ddof=1)
            # variance-of-variance s.e. on dependent draws: generous 3-sigma
            m = g.ravel()
            c2 = np.mean((m - m.mean()) ** 2)
            c4 = np.mean((m - m.mean()) ** 4)
            se_v = np.sqrt(max(c4 - c2 * c2, 0.0) / reps)
            assert v == pytest.approx(row.var_y, abs=4 * se_v)


class TestHomoscedasticityCondition:
    def test_equal_everything_holds(self):
        design = OneWayDesign(sizes=(3, 3), means=(1.0, 1.0), omegas=(1.0, 1.0))
        assert homoscedasticity_condition(design, UNIT).holds

    def test_constructed_balance_holds(self):
        # c = 1/2: omega^2 = (1, 1.5), mu^2 = (2, 1)
        design = OneWayDesign(sizes=(3, 3), means=(np.sqrt(2.0), 1.0),
                              omegas=(1.0, np.sqrt(1.5)))
        chk = homoscedasticity_condition(design, UNIT)
        assert chk.c == pytest.approx(0.5)
        assert chk.holds

    def test_equal_variances_unequal_means_fails(self):
        design = OneWayDesign(sizes=(3, 3), means=(0.0, 1.0), omegas=(1.0, 1.0))
        assert not homoscedasticity_condition(design, UNIT).holds


class TestExactInvarianceUnderCalibration:
    def test_f_invariance_exact(self):
        # calibrated F equals raw F replication by replication
        design = OneWayDesign(sizes=(5, 5, 4), means=(0.0, 1.0, 2.0),
                              omegas=(1.0, 1.0, 1.0))
        rng = substream(5, 41)
        reps = 5000
        normals = _std_normal(rng, (reps, 2 + design.n))
        b0 = 1.0 + 0.5 * normals[:, 0]
        b1 = 1.0 + 1.0 * normals[:, 1]
        mu_vec = np.repeat(design.means, design.sizes)
        z = mu_vec + normals[:, 2:]
        y = b0[:, None] + b1[:, None] * z
        from calibmix.simulate import _f_statistics
        f_y = _f_statistics(y, design.sizes)
        f_z = _f_statistics(z, design.sizes)
        assert np.max(np.abs(f_y - f_z) / (1.0 + np.abs(f_z))) < 1e-10

    def test_f_distribution_matches_noncentral_f(self):
        design = OneWayDesign(sizes=(5, 5, 5), means=(0.0, 0.6, 1.2),
                              omegas=(1.0, 1.0, 1.0))
        p = MixtureParams(n=15, beta0=1.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        cfg = McConfig(replications=60_000, seed=19)
        vals = mc_statistic_distribution(p, "f_oneway", cfg, design=design)
        lam_f = f_power(design, 0.05).lambda_f
        d1, d2 = design.k - 1, design.n - design.k

        class NcF:
            def cdf(self, u):
                return ncf_cdf(np.asarray(u, dtype=float), d1, d2, lam_f)

        assert ks_distance(vals, NcF()) < ks_band(cfg.replications)

    def test_scale_invariant_variance_stats_normal_theory(self):
        # cochran statistic under calibration vs plain normal data
        design = OneWayDesign(sizes=(5, 5, 5), means=(0.0, 1.0, 2.0),
                              omegas=(1.0, 1.0, 1.0))
        p = MixtureParams(n=15, beta0=1.0, sigma0=1.0, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        reps = 40_000
        mu_vec = np.repeat(design.means, design.sizes)
        rng = substream(23, 77)
        normals = _std_normal(rng, (reps, 2 + 15))
        b0 = 1.0 + normals[:, 0]
        b1 = 1.0 + normals[:, 1]
        z = mu_vec + normals[:, 2:]
        y = b0[:, None] + b1[:, None] * z
        g = substream(24, 78)
        z_plain = mu_vec + _std_normal(g, (reps, 15))

        def cochran(m):
            bounds = np.concatenate([[0], np.cumsum(design.sizes)])
            s2 = np.stack([m[:, bounds[i]:bounds[i + 1]].var(axis=1, ddof=1)
                           for i in range(design.k)], axis=1)
            return s2.max(axis=1) / s2.sum(axis=1)

        d = ks_distance_two_sample(cochran(y), cochran(z_plain))
        assert d < ks_two_sample_band(reps, reps)


class TestGroupedCsv:
    def test_reader(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("group,y\na,1.0\na,2.0\nb,4.0\nb,6.0\n")
        labels, groups = grouped_data_from_csv(path)
        assert labels == ["a", "b"]
        assert np.allclose(groups[1], [4.0, 6.0])

    def test_reader_errors(self, tmp_path):
        from calibmix import DataError
        path = tmp_path / "g.csv"
        path.write_text("grp,y\na,1\n")
        with pytest.raises(DataError, match="row 1"):
            grouped_data_from_csv(path)
        path.write_text("group,y\na,1.0\na,zap\n")
        with pytest.raises(DataError, match="row 3"):
            grouped_data_from_csv(path)
