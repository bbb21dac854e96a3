import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calibmix import (DataError, McConfig, MixtureParams, ParamError,
                      blindness_suite, blom_weights, diagnostic_report,
                      moment_ratios, residual_diagnostics, shapiro_type_w,
                      von_neumann_ratio)
from calibmix import diagnostics, parallel, simulate
from calibmix.casestudy import octane_params
from calibmix.diagnostics import sample_from_csv
from calibmix.simulate import _std_normal, substream

def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


def signed(magnitude):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(
        lambda t: t[0] * t[1])


finite_samples = st.lists(
    st.floats(-50.0, 50.0), min_size=4, max_size=24).filter(
    lambda xs: max(xs) - min(xs) > 1e-4)


class TestResidualDiagnostics:
    def test_hand_example(self):
        res = residual_diagnostics([1.0, 3.0, 5.0])
        assert np.allclose(res.residuals, [-2.0, 0.0, 2.0])
        assert res.sample_sd == pytest.approx(2.0)
        assert np.allclose(res.studentized, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_loo_downdate_matches_refits(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=9)
        res = residual_diagnostics(y)
        n = y.size
        for i in range(n):
            rest = np.delete(y, i)
            loo_sd = rest.std(ddof=1)
            expect = res.residuals[i] / (loo_sd * np.sqrt(1 - 1 / n))
            assert res.r_student[i] == pytest.approx(expect, rel=1e-10)

    def test_constant_sample_rejected(self):
        with pytest.raises(ParamError):
            residual_diagnostics([2.0, 2.0, 2.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(finite_samples, st.floats(-5.0, 5.0), st.floats(0.1, 4.0))
    def test_affine_invariance(self, y, a, b):
        y = np.asarray(y)
        r1 = residual_diagnostics(y)
        r2 = residual_diagnostics(a + b * y)
        assert np.allclose(r1.studentized, r2.studentized, atol=1e-8)


@pytest.mark.parametrize("stat", [residual_diagnostics, shapiro_type_w,
                                  moment_ratios, diagnostic_report])
def test_rounded_constant_sample_rejected(stat):
    # the mean of six 0.1s rounds off 0.1, leaving residuals of order eps
    with pytest.raises(ParamError, match="constant sample"):
        stat([0.1] * 6)


class TestVonNeumannRatio:
    def test_hand_examples(self):
        assert von_neumann_ratio(np.array([-2.0, 0.0, 2.0])) == pytest.approx(1.0)
        assert von_neumann_ratio(np.array([1.0, -1.0, 1.0, -1.0])) == pytest.approx(3.0)

    def test_scale_invariance(self):
        r = np.array([0.3, -1.2, 0.9, 0.0])
        assert von_neumann_ratio(r) == pytest.approx(von_neumann_ratio(10.0 * r))

    def test_custom_matrix(self):
        r = np.array([0.3, -1.2, 0.9, 0.0])
        # U is R'BR/R'R with B the explicit first-difference Gram matrix
        d = np.diff(np.eye(r.size), axis=0)
        assert von_neumann_ratio(r) == pytest.approx(r @ (d.T @ d) @ r / (r @ r))

    def test_zero_vector_rejected(self):
        with pytest.raises(ParamError):
            von_neumann_ratio(np.zeros(4))


class TestShapiroTypeW:
    def test_hand_example(self):
        # at n = 3 the Blom weights are (-1, 0, 1)/sqrt(2): W = (3/sqrt 2)^2
        # over the sum of squares 42/9
        assert shapiro_type_w([1.0, 2.0, 4.0]) == pytest.approx(27.0 / 28.0)

    def test_default_weights_properties(self):
        w = blom_weights(12)
        assert abs(w.sum()) < 1e-12
        assert np.allclose(w, -w[::-1])   # antisymmetric
        assert np.dot(w, w) == pytest.approx(1.0)

    def test_w_in_unit_interval_with_default_weights(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            y = rng.normal(size=10)
            assert 0.0 <= shapiro_type_w(y) <= 1.0

    @pytest.mark.parametrize("n", [3, 11, 20, 57])
    def test_scalar_is_the_batch_row(self, n):
        # the numerator is a row sum: a BLAS product moved 1976 of 2000
        # rows at n = 11 by up to 5e-14 between the two
        y = 87.0 + np.random.default_rng(n).normal(size=(2000, n))
        batch = diagnostics.shapiro_type_w_batch(y)
        assert np.array_equal([shapiro_type_w(row) for row in y], batch)
        assert np.array_equal(diagnostics.shapiro_type_w_batch(y[7:1500]),
                              batch[7:1500])

    def test_slope_near_zero_matches_long_double(self):
        # rows whose slope draw is near 0 have a spread far below their
        # mean: the uncentred numerator read the worst of these 2.2e-11
        # off, and 399 rows beyond 1e-14
        p = MixtureParams(n=20, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=2.0,
                          beta1=1.0, sigma1=1.0)
        cfg = McConfig(replications=100_000, seed=11)
        e = _std_normal(substream(11, simulate._STREAMS["diagnostics"]),
                        (cfg.replications, 2 + p.n))
        y = ((p.beta0 + p.sigma0 * e[:, :1]) + (p.beta1 + p.sigma1 * e[:, 1:2])
             * (p.mu_z + p.sigma_z * e[:, 2:])).astype(np.longdouble)
        d = np.sort(y - y.mean(axis=1, keepdims=True), axis=1)
        want = ((d * blom_weights(p.n).astype(np.longdouble)).sum(axis=1) ** 2
                / (d * d).sum(axis=1))
        got = simulate.mc_statistic_distribution(p, "diagnostics", cfg)["W"]
        assert np.max(np.abs(got - want) / want) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(finite_samples, st.floats(-5.0, 5.0), st.floats(0.05, 4.0))
    def test_affine_invariance(self, y, a, b):
        got1 = shapiro_type_w(y)
        got2 = shapiro_type_w(a + b * np.asarray(y))
        assert got1 == pytest.approx(got2, rel=1e-9, abs=1e-12)


class TestMomentRatios:
    def test_symmetric_sample(self):
        b1, _ = moment_ratios([-1.0, 0.0, 1.0, 0.0])
        assert b1 == pytest.approx(0.0, abs=1e-15)

    def test_hand_example(self):
        b1, b2 = moment_ratios([0.0, 0.0, 1.0, 1.0])
        assert b1 == pytest.approx(0.0)
        assert b2 == pytest.approx(1.0)

    def test_invariance_with_sign_flip(self):
        y = np.array([0.2, 1.5, -0.7, 2.2, 0.0])
        assert moment_ratios(y) == pytest.approx(moment_ratios(3.0 - 2.0 * y))

    def test_kurtosis_floor(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b1, b2 = moment_ratios(rng.normal(size=8))
            assert b2 >= 1.0 + b1 - 1e-9  # b1 = skewness^2, so b2 >= 1 + b1

    @pytest.mark.parametrize("offset", [0.0, 87.0])
    def test_batch_matches_fsum_reference(self, offset):
        # 87 with spread 1 is the octane scale.  The reference takes the
        # kernel's own residuals: the mean's rounding, ~eps * 87, moves b1 of
        # the offset rows by up to ~3e-13 in any centering, and is not checked
        # here
        y = offset + np.random.default_rng(11).normal(size=(500, 11))
        b1, b2 = diagnostics.moment_ratios_batch(y)
        want = []
        for d in y - y.mean(axis=1, keepdims=True):
            m2, m3, m4 = (math.fsum(v ** k for v in d) / d.size
                          for k in (2, 3, 4))
            want.append((m3 * m3 / m2 ** 3, m4 / m2 ** 2))
        want = np.array(want)
        np.testing.assert_allclose(b1, want[:, 0], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(b2, want[:, 1], rtol=1e-12, atol=0.0)


class TestBlindnessSuite:
    def test_identities_and_ks(self):
        p = MixtureParams(n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        report = blindness_suite(p, McConfig(replications=10_000, seed=3))
        assert report.identities_hold
        assert max(report.max_rel_dev.values()) < 1e-10
        # beta1_hat ~ N(1,1): negative draws occur and are exercised
        assert report.negative_slope_count > 100
        assert report.indistinguishable
        assert max(report.ks.values()) < report.ks_band

    @pytest.mark.parametrize("octane,seed", [(False, 5), (True, 18), (True, 27)])
    def test_identities_hold_through_slope_cancellation(self, octane, seed):
        # on these seeds a slope draw near 0 cancels Y - mean(Y) so far that
        # rounding alone deviates by more than 1e-10 (up to 9.6e-10); each
        # replication is judged against its own rounding bound
        p = octane_params() if octane else MixtureParams(
            n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0, beta1=1.0,
            sigma1=1.0)
        report = blindness_suite(p, McConfig(replications=20_000, seed=seed))
        assert max(report.max_rel_dev.values()) > 1e-10
        assert report.identities_hold

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(4, 60), beta0=st.floats(-100.0, 100.0),
           sigma0=log_uniform(1e-3, 1e2), mu_z=signed(log_uniform(1e-3, 1e2)),
           sigma_z=log_uniform(1e-2, 1e2),
           beta1=signed(log_uniform(1e-3, 1e2)),
           sigma1=log_uniform(1e-3, 1e2), seed=st.integers(0, 2 ** 32 - 1))
    def test_identities_hold_under_either_slope_sign(
            self, n, beta0, sigma0, mu_z, sigma_z, beta1, sigma1, seed):
        p = MixtureParams(n=n, beta0=beta0, sigma0=sigma0, mu_z=mu_z,
                          sigma_z=sigma_z, beta1=beta1, sigma1=sigma1)
        report = blindness_suite(p, McConfig(replications=2000, seed=seed))
        assert report.identities_hold

    def test_broken_identity_is_caught(self, monkeypatch):
        # t(Y) = sign(beta1_hat) t(Z) fails once the sign is dropped
        studentized = diagnostics.studentized_batch
        monkeypatch.setattr(diagnostics, "studentized_batch",
                            lambda y, *c: np.abs(studentized(y, *c)))
        p = MixtureParams(n=10, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=1.0,
                          beta1=1.0, sigma1=1.0)
        report = blindness_suite(p, McConfig(replications=500, seed=1))
        assert not report.identities_hold
        assert report.max_dev_to_bound["studentized"] > 1.0
        assert max(v for k, v in report.max_dev_to_bound.items()
                   if k != "studentized") <= 1.0

    def test_sign_flip_identity(self):
        # a replication with beta1_hat < 0 still satisfies t(Y) = sign * t(Z)
        from calibmix.diagnostics import studentized_batch
        rng = np.random.default_rng(9)
        z = rng.normal(size=(1, 8))
        y = 2.0 - 1.7 * z
        t_y = studentized_batch(y)
        t_z = studentized_batch(z)
        assert np.allclose(t_y, -t_z, atol=1e-12)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocked_suite_matches_one_call(self, workers, monkeypatch):
        # the suite rebuilt from one whole-matrix draw of each stream
        monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
        p = octane_params()
        reps = 3 * (simulate._BLOCK_NORMALS // (2 + p.n)) + 17
        cfg = McConfig(replications=reps, seed=8)
        e = _std_normal(substream(8, simulate._STREAMS["diagnostics"]),
                        (reps, 2 + p.n))
        b0 = p.beta0 + p.sigma0 * e[:, 0]
        b1 = p.beta1 + p.sigma1 * e[:, 1]
        z = p.mu_z + p.sigma_z * e[:, 2:]
        y = b0[:, None] + b1[:, None] * z
        g = _std_normal(substream(8, simulate._STREAMS["gaussian_ref"]),
                        (reps, p.n))
        on_y, on_z, on_g = (diagnostics.battery_batch(a) for a in (y, z, g))
        dev = {k: np.abs(on_y[k] - on_z[k]) / (1.0 + np.abs(on_z[k]))
               for k in on_y}
        t_z = diagnostics.studentized_batch(z) * np.sign(b1)[:, None]
        dev["studentized"] = (np.abs(diagnostics.studentized_batch(y) - t_z)
                              / (1.0 + np.abs(t_z)))
        zc = z - z.mean(axis=1, keepdims=True)
        bound = (64.0 * np.finfo(float).eps
                 * (np.abs(b0) + np.abs(b1) * np.max(np.abs(z), axis=1))
                 / (np.abs(b1) * np.sqrt(np.mean(zc ** 2, axis=1))))
        bound = bound.reshape(-1, 1)
        want = {
            "replications": reps, "n": p.n,
            "negative_slope_count": int(np.sum(b1 < 0)),
            "max_rel_dev": {k: float(np.max(d)) for k, d in dev.items()},
            "max_dev_to_bound": {k: float(np.max(d.reshape(reps, -1) / bound))
                                 for k, d in dev.items()},
            "ks": {k: simulate.ks_distance_two_sample(on_y[k], on_g[k])
                   for k in on_y},
            "ks_band": simulate.ks_two_sample_band(reps, reps)}
        got = blindness_suite(p, cfg).to_dict()
        assert {k: got[k] for k in want} == want

    def test_memory_is_per_row(self, monkeypatch):
        # the whole-matrix suite peaked at 221 MB here: Y, Z, their
        # studentized residuals and the reference matrix, 2e5 x 20 each
        monkeypatch.setattr(parallel, "cpu_count", lambda: 4)
        p = MixtureParams(n=20, beta0=1.0, sigma0=1.0, mu_z=1.0, sigma_z=2.0,
                          beta1=1.0, sigma1=1.0)
        tracemalloc.start()
        try:
            blindness_suite(p, McConfig(replications=200_000, seed=3))
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= 48.0

    def test_report_serializes(self):
        p = MixtureParams(n=8, beta0=0.0, sigma0=0.5, mu_z=0.0, sigma_z=1.0,
                          beta1=1.0, sigma1=0.5)
        report = blindness_suite(p, McConfig(replications=500, seed=1))
        d = report.to_dict()
        assert set(d) >= {"replications", "max_rel_dev", "max_dev_to_bound",
                          "ks", "ks_band"}


class TestDiagnosticReport:
    def test_full_battery(self):
        y = np.array([1.0, 2.0, 2.5, 4.0, 3.0, 0.5])
        rep = diagnostic_report(y)
        assert rep.n == 6
        assert np.isfinite(rep.von_neumann_ratio)
        assert 0.0 <= rep.shapiro_type_w <= 1.0
        assert rep.b2 >= 1.0
        assert len(rep.studentized) == 6
        payload = rep.to_dict()
        assert payload["n"] == 6

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("y\n1.0\n2.0\n3.5\n")
        y = sample_from_csv(path)
        assert np.allclose(y, [1.0, 2.0, 3.5])

    def test_csv_reader_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z\n1.0\n")
        with pytest.raises(DataError, match="row 1"):
            sample_from_csv(path)
        path.write_text("y\n1.0\nbogus\n")
        with pytest.raises(DataError, match="row 3"):
            sample_from_csv(path)
