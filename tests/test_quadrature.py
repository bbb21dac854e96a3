import math

import numpy as np
import pytest
from scipy import special

from calibmix import AccuracyError
from calibmix import quadrature as qd
from calibmix.quadrature import QuadSpec, bisect_cdf, refine_panels


def counted(cdf):
    """cdf plus the list of abscissae it was called at."""
    seen = []

    def f(x):
        seen.append(x)
        return float(cdf(x))
    return f, seen


def step_count_bound(lo, hi, xtol):
    """Bisection's step count plus the ITP slack, a few steps."""
    assert 0 <= qd._ITP_SLACK <= 5
    return math.ceil(math.log2((hi - lo) / xtol)) + qd._ITP_SLACK


class TestBisectCdf:
    # a step CDF gives the interpolation nothing; flat tails give it ends at
    # F = 0 and 1, a ramp between them and an exponential tail
    @pytest.mark.parametrize("cdf,lo,hi", [
        (lambda x: float(x >= 0.3), -1.0, 1.0),
        (lambda x: min(max((x - 3.0) / 0.01, 0.0), 1.0), 0.0, 100.0),
        (lambda x: -math.expm1(-x) if x > 0 else 0.0, 0.0, 50.0),
        (lambda x: special.ndtr(x - 40.0), -1e3, 1e3),
    ], ids=["step", "ramp", "exponential", "far-normal"])
    @pytest.mark.parametrize("target", [1e-6, 0.025, 0.5, 0.975])
    def test_at_most_slack_steps_beyond_bisection(self, cdf, lo, hi, target):
        f, seen = counted(cdf)
        x = bisect_cdf(f, target, lo, hi, xtol=1e-8)
        assert len(seen) - 2 <= step_count_bound(lo, hi, 1e-8)
        assert len(seen) == len(set(seen))
        # x is within xtol of the crossing, or on it
        assert cdf(x - 1e-8) <= target <= cdf(x + 1e-8)

    def test_smooth_cdf_takes_a_handful_of_steps(self):
        f, seen = counted(special.ndtr)
        x = bisect_cdf(f, 0.975, -10.0, 10.0, xtol=1e-8)
        assert x == pytest.approx(1.959963984540054, abs=1e-8)
        assert len(seen) - 2 <= 10 < step_count_bound(-10.0, 10.0, 1e-8)

    @pytest.mark.parametrize("cdf,target,want", [
        (lambda x: x, 0.25, 0.25),            # on the lower end
        (lambda x: x, 0.75, 0.75),            # on the upper end
    ])
    def test_target_on_bracket_end(self, cdf, target, want):
        f, seen = counted(cdf)
        assert bisect_cdf(f, target, 0.25, 0.75) == want
        assert len(seen) == 2

    def test_unbracketed_target_raises(self):
        with pytest.raises(AccuracyError, match="bracket"):
            bisect_cdf(special.ndtr, 0.5, 1.0, 2.0)

    def test_returns_point_where_cdf_hits_target(self):
        # the step lands on the plateau F = 1/2 of a CDF with a flat middle
        f, _ = counted(lambda x: np.clip(x, 0.0, 0.5)
                       + np.clip(x - 10.0, 0.0, 0.5))
        x = bisect_cdf(f, 0.5, 0.0, 11.0)
        assert 0.5 <= x <= 10.0

    def test_end_whose_probit_rounds_onto_the_target(self):
        # F(lo) is 2 ulps below the target, so ndtri reads it as the target
        # and the interpolation lands on lo: the step goes from lo, where
        # stepping to the midpoint bisected [lo, hi] down to xtol
        f, seen = counted(lambda x: 0.025 + (x - 0.5) * 1e-3)
        lo = 0.5 - 7e-15
        assert f(lo) < 0.025 and special.ndtri(f(lo)) == special.ndtri(0.025)
        seen.clear()
        x = bisect_cdf(f, 0.025, lo, 0.5 + 1e-4, xtol=1e-10)
        assert x == pytest.approx(0.5, abs=1e-10)
        assert len(seen) - 2 <= 4

    def test_stops_at_adjacent_floats(self):
        # above ~6.7e7 neighbouring floats are more than xtol = 1e-8 apart,
        # so the bracket stops narrowing there (tsq_mixture(10, 1e6, 0)'s
        # 0.9 quantile, 7.4e7, is one)
        f, seen = counted(lambda x: special.ndtr((x - 1e9) / 10.0))
        x = bisect_cdf(f, 0.3, 0.0, 2e9, xtol=1e-8)
        assert x == pytest.approx(1e9 + 10.0 * special.ndtri(0.3), abs=1e-6)
        assert len(seen) - 2 <= step_count_bound(0.0, 2e9, 1e-8)


def bump(x, centre=0.3137, width=0.01):
    return np.exp(-0.5 * ((x - centre) / width) ** 2)


def doubling_panels(f, lo, hi, tol, n=16):
    """Panels of the rule that doubles every panel until the integral
    repeats to tol, keeping the finer rule (the builder this one
    replaced)."""
    def integral(n):
        rule = qd.PanelRule(np.linspace(lo, hi, n + 1))
        return rule.integrate(f(rule.nodes))
    while abs(integral(2 * n) - integral(n)) > tol:
        n *= 2
    return 2 * n


class TestRefinePanels:
    quad = QuadSpec()

    def test_certifies_narrow_bump_with_fewer_panels(self):
        rule = refine_panels(bump, -1.0, 1.0, self.quad, initial_panels=16)
        exact = 0.01 * math.sqrt(2.0 * math.pi)
        assert rule.integrate(bump(rule.nodes)) == pytest.approx(exact, abs=1e-9)
        # the old builder's budget, 0.25 (abs_tol + rel_tol scale): 64 panels
        uniform = doubling_panels(bump, -1.0, 1.0, 0.25e-9 * (1.0 + exact))
        assert rule.edges.size - 1 < uniform

    def test_leaves_far_flat_segment_unsplit(self):
        # beyond the anchor at 1 the integrand is flat: that segment keeps
        # the halves of its one panel
        f = lambda x: 1.0 + bump(x, 0.5, 0.05)
        rule = refine_panels(f, 0.0, 10.0, self.quad, split_at=(1.0,))
        flat = rule.edges[rule.edges > 1.0]
        assert list(flat) == [5.5, 10.0]
        assert rule.edges[rule.edges <= 1.0].size > 3

    def test_vector_probe_is_certified_per_component(self):
        # the probe's columns are integrated next to f, each to the budget
        probe = lambda x: np.column_stack([x * bump(x), x * x * bump(x)])
        rule = refine_panels(lambda x: np.ones_like(x), -1.0, 1.0, self.quad,
                             initial_panels=16, probe=probe)
        m1, m2 = rule.weights @ probe(rule.nodes)
        mass = 0.01 * math.sqrt(2.0 * math.pi)
        assert m1 == pytest.approx(0.3137 * mass, abs=1e-9)
        assert m2 == pytest.approx((0.3137 ** 2 + 1e-4) * mass, abs=1e-9)

    def test_each_component_has_its_own_scale(self):
        # a component 1e12 times f's holds to rel_tol of itself, and does
        # not loosen a small one next to it to rel_tol of its own size
        probe = lambda x: np.column_stack([1e12 * bump(x, 0.7), x * bump(x)])
        rule = refine_panels(lambda x: np.ones_like(x), -1.0, 1.0, self.quad,
                             probe=probe)
        big, small = rule.weights @ probe(rule.nodes)
        mass = 0.01 * math.sqrt(2.0 * math.pi)
        assert big == pytest.approx(1e12 * mass, rel=1e-9)
        assert small == pytest.approx(0.3137 * mass, abs=1e-9)

    def test_evaluates_panels_in_blocks(self):
        # a rule of 128 panels passes at most _PANEL_BLOCK panels (and
        # their halves) to the integrand at once
        sizes = []
        f = lambda x: sizes.append(x.size) or np.sin(200.0 * x)
        refine_panels(f, 0.0, 10.0, self.quad)
        assert max(sizes) == 3 * qd._PANEL_BLOCK * qd._GL_ORDER
        assert sum(sizes) > 2 * max(sizes)

    def test_empty_window_has_no_nodes(self):
        # the noncentral-t series window [min(D/20, s_hi), s_hi] is empty
        # once D >= 20 s_hi; the integrand is never called
        rule = refine_panels(None, 7.5, 7.5, self.quad, initial_panels=32)
        assert rule.nodes.size == rule.weights.size == 0
        with pytest.raises(ValueError):
            refine_panels(bump, 1.0, -1.0, self.quad)

    def test_raises_at_panel_cap(self, monkeypatch):
        monkeypatch.setattr(qd, "_MAX_PANELS", 32)
        with pytest.raises(AccuracyError, match="32 panels"):
            refine_panels(lambda x: np.sin(200.0 * x), 0.0, 10.0, self.quad)
