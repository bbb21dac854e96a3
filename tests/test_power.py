import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from calibmix import (PowerCell, operating_characteristics, ordering_probe,
                      power_table, tsq_critical, tsq_mixture)
from calibmix.power import power_table_payload, power_table_rows
from calibmix.quadrature import bisect_cdf

# independently verified by quadrature of the scipy mixture before freezing
TABLE3 = {
    (0.0, 1.0): 0.950, (0.0, 4.0): 0.950, (0.0, 9.0): 0.950,
    (1.0, 1.0): 0.691, (1.0, 4.0): 0.863, (1.0, 9.0): 0.928,
    (4.0, 1.0): 0.485, (4.0, 4.0): 0.742, (4.0, 9.0): 0.876,
    (9.0, 1.0): 0.329, (9.0, 4.0): 0.608, (9.0, 9.0): 0.799,
}


class TestTsqCritical:
    def test_golden(self):
        assert tsq_critical(10, 0.05) == pytest.approx(4.9646, abs=1e-4)

    def test_via_mixture_inversion(self):
        # delta = 0 kills the mixing, so inverting the mixture CDF at any
        # lambda recovers the same critical value
        tm = tsq_mixture(10, 0.0, 7.0)
        inv = bisect_cdf(lambda c: tm.cdf(c), 0.95, [0.0, 30.0], xtol=1e-9)
        assert inv == pytest.approx(4.9646, abs=1e-3)

    def test_bisection_evaluates_each_abscissa_once(self):
        tm = tsq_mixture(10, 0.0, 7.0)
        seen = []

        def cdf(c):
            seen.extend(np.ravel(c).tolist())
            return tm.cdf(c)

        inv = bisect_cdf(cdf, 0.95, [0.0, 30.0], xtol=1e-9)
        assert len(seen) == len(set(seen))
        assert inv == pytest.approx(tsq_critical(10, 0.05), abs=1e-8)

    def test_alpha_to_one_gives_zero(self):
        assert tsq_critical(10, 0.999999) == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("alpha", [0.999999, 0.05, 1e-17, 1e-100])
    def test_holds_in_both_tails(self, alpha):
        # c from I_x and 1 - x, not from fdtri at 1 - alpha, which reads 2%
        # low at 1e-16 and inf from 1e-17
        c = tsq_critical(10, alpha)
        assert special.fdtrc(1, 10, c) == pytest.approx(alpha, rel=1e-14, abs=0)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            tsq_critical(10, 0.0)


class TestOperatingCharacteristics:
    @pytest.mark.parametrize("delta,lam", sorted(TABLE3))
    def test_table_cells(self, delta, lam):
        cell = operating_characteristics(10, delta, lam, 0.05)
        assert cell.nonrejection_prob == pytest.approx(TABLE3[(delta, lam)],
                                                       abs=1e-3)
        assert cell.rejection_prob == pytest.approx(
            1.0 - cell.nonrejection_prob, abs=1e-12)

    def test_octane_point(self):
        cell = operating_characteristics(10, 2.9351, 10.0953, 0.05)
        assert cell.nonrejection_prob == pytest.approx(0.90, abs=5e-3)
        # tighter frozen value from the independent oracle
        assert cell.nonrejection_prob == pytest.approx(0.90343, abs=2e-4)

    def test_delta_zero_row_is_level(self):
        for lam in (1.0, 4.0, 9.0, 25.0):
            cell = operating_characteristics(10, 0.0, lam, 0.05)
            assert cell.nonrejection_prob == pytest.approx(0.95, abs=1e-7)

    def test_powercell_validation(self):
        with pytest.raises(ValueError):
            PowerCell(nu=10, delta=0, lam=1, critical=4.9, nonrejection_prob=0.6,
                      rejection_prob=0.5)
        with pytest.raises(ValueError):
            PowerCell(nu=10, delta=0, lam=1, critical=4.9, nonrejection_prob=1.2,
                      rejection_prob=-0.2)


class TestPowerTablePaths:
    def test_grid_matches_cells(self):
        grid = power_table(10, (0.0, 1.0), (1.0, 4.0), 0.05)
        assert grid[1][1].nonrejection_prob == pytest.approx(0.863, abs=1e-3)

    def test_payload_and_rows(self):
        payload = power_table_payload(10, (0.0, 1.0), (1.0, 4.0), 0.05)
        header, rows = power_table_rows(payload)
        assert header[0] == "delta"
        assert len(rows) == 2 and len(rows[0]) == 5
        np_non = np.array(payload["nonrejection"])
        np_rej = np.array(payload["rejection"])
        assert np.allclose(np_non + np_rej, 1.0)

    def test_eq63_eq64_paths_agree(self):
        # both equation routes to the same operating characteristic
        from calibmix import signed_t_mixture
        c = tsq_critical(10, 0.05)
        for (d, lam) in ((1.0, 9.0), (4.0, 4.0), (9.0, 1.0)):
            via_tsq = tsq_mixture(10, d, lam).cdf(c)
            st = signed_t_mixture(10, np.sqrt(d), np.sqrt(lam))
            via_t = st.interval_prob(-np.sqrt(c), np.sqrt(c))
            assert abs(via_tsq - via_t) < 1e-8


class TestOrderingProbe:
    def test_variance_in_lambda(self):
        rep = ordering_probe("variance_mixture-in-lambda", (1.0, 4.0, 9.0),
                             (20.0,), nu=10)
        assert rep.holds
        vals = np.array(rep.cdf_values)[:, 0]
        assert vals[0] > vals[1] > vals[2]

    def test_tsq_in_lambda_matches_table(self):
        c = tsq_critical(10, 0.05)
        rep = ordering_probe("tsq-in-lambda", (1.0, 4.0, 9.0), (c,), nu=10,
                             fixed=1.0)
        assert rep.holds
        vals = np.array(rep.cdf_values)[:, 0]
        assert vals == pytest.approx([0.691, 0.863, 0.928], abs=1e-3)

    def test_tsq_in_delta_matches_table(self):
        c = tsq_critical(10, 0.05)
        rep = ordering_probe("tsq-in-delta", (0.0, 1.0, 4.0, 9.0), (c,), nu=10,
                             fixed=4.0)
        assert rep.holds
        vals = np.array(rep.cdf_values)[:, 0]
        assert vals == pytest.approx([0.950, 0.863, 0.742, 0.608], abs=1e-3)

    def test_peakedness_probe(self):
        # ball probability P[R'R <= t sigma^2] is the variance-mixture CDF:
        # larger for smaller lambda at every t
        rep = ordering_probe("variance_mixture-in-lambda", (0.5, 2.0, 8.0),
                             (5.0, 15.0, 40.0), nu=8)
        assert rep.holds

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            ordering_probe("nope", (1.0,), (1.0,), nu=5)
        with pytest.raises(ValueError):
            ordering_probe("tsq-in-delta", (3.0, 1.0), (1.0,), nu=5)
        with pytest.raises(ValueError):
            ordering_probe("tsq-in-delta", (), (1.0,), nu=5)


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


class TestOrderingProperties:
    """The three ordering families hold on log-uniform laws, and the t^2
    law's CDF falls in delta across the split where the v-rule takes the
    whole slope window."""

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["variance_mixture-in-lambda",
                                   "tsq-in-lambda", "tsq-in-delta"]),
           nu=log_uniform(1.0, 200.0).map(round),
           fixed=log_uniform(0.01, 40.0),
           grid=st.lists(log_uniform(0.01, 40.0), min_size=4,
                         max_size=4).map(sorted),
           u_grid=st.lists(log_uniform(0.05, 200.0), min_size=6, max_size=6))
    def test_families_hold(self, family, nu, fixed, grid, u_grid):
        assert ordering_probe(family, grid, u_grid, nu=nu, fixed=fixed).holds

    @pytest.mark.parametrize("nu", [1, 10, 100])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 9.0])
    def test_tsq_in_delta_across_the_split(self, nu, lam):
        # delta past about 5e3 took the series beyond phi = 20, and from
        # about 1e4 it raised AccuracyError
        grid = (2e3, 4e3, 5e3, 5.2e3, 6e3, 1e4, 1e5, 1e8)
        rep = ordering_probe("tsq-in-delta", grid,
                             (1e2, 1e3, 1e4, 1e6, 1e9, 1e12), nu=nu, fixed=lam)
        assert rep.holds
