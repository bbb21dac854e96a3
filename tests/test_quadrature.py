import math

import numpy as np
import pytest
from scipy import special

from calibmix import (AccuracyError, MixtureParams, derive_params,
                      mean_mixture, tsq_mixture, variance_mixture)
from calibmix import mixtures as mx
from calibmix import quadrature as qd
from calibmix.casestudy import octane_params
from calibmix.quadrature import QuadSpec, bisect_cdf, refine_panels


def counted(cdf):
    """A vector CDF from the scalar ``cdf``, and the list of its calls, each
    the list of abscissae it was called at."""
    calls = []

    def f(x):
        x = np.asarray(x, dtype=float)
        calls.append(x.ravel().tolist())
        return np.vectorize(cdf, otypes=[float])(x)
    return f, calls


def rounds(calls):
    """Rounds of a solve from a bracket: the first call evaluates its ends."""
    return len(calls) - 1


def distinct(calls):
    points = [x for call in calls for x in call]
    return len(points) == len(set(points))


def step_count_bound(lo, hi, xtol):
    """Bisection's step count plus the ITP slack, a few steps."""
    assert 0 <= qd._ITP_SLACK <= 5
    return math.ceil(math.log2((hi - lo) / xtol)) + qd._ITP_SLACK


# a step CDF gives the interpolation nothing; flat tails give it ends at
# F = 0 and 1, a ramp between them and an exponential tail
HARD_CDFS = {
    "step": (lambda x: float(x >= 0.3), -1.0, 1.0),
    "ramp": (lambda x: min(max((x - 3.0) / 0.01, 0.0), 1.0), 0.0, 100.0),
    "exponential": (lambda x: -math.expm1(-x) if x > 0 else 0.0, 0.0, 50.0),
    "far-normal": (lambda x: special.ndtr(x - 40.0), -1e3, 1e3),
}
TARGETS = [1e-6, 0.025, 0.5, 0.975]


class TestBisectCdf:
    @pytest.mark.parametrize("law", sorted(HARD_CDFS))
    @pytest.mark.parametrize("target", TARGETS)
    def test_at_most_slack_steps_beyond_bisection(self, law, target):
        cdf, lo, hi = HARD_CDFS[law]
        f, calls = counted(cdf)
        x = bisect_cdf(f, target, [lo, hi], xtol=1e-8)
        assert rounds(calls) <= step_count_bound(lo, hi, 1e-8)
        assert distinct(calls)
        # x is within xtol of the crossing, or on it
        assert cdf(x - 1e-8) <= target <= cdf(x + 1e-8)

    @pytest.mark.parametrize("law", sorted(HARD_CDFS))
    def test_joint_targets_keep_the_bound(self, law):
        # every target solves in the same rounds, each within its own bound
        cdf, lo, hi = HARD_CDFS[law]
        f, calls = counted(cdf)
        x = bisect_cdf(f, TARGETS, [lo, hi], xtol=1e-8)
        assert rounds(calls) <= step_count_bound(lo, hi, 1e-8)
        for xi, target in zip(x, TARGETS):
            assert cdf(xi - 1e-8) <= target <= cdf(xi + 1e-8)

    def test_smooth_cdf_takes_a_handful_of_steps(self):
        f, calls = counted(special.ndtr)
        x = bisect_cdf(f, 0.975, [-10.0, 10.0], xtol=1e-8)
        assert x == pytest.approx(1.959963984540054, abs=1e-8)
        assert rounds(calls) <= 4 < step_count_bound(-10.0, 10.0, 1e-8)

    def test_known_points_seed_the_interpolation(self):
        # from a grid in hand the ladder straddles the crossing at once:
        # one call, no call for the ends
        grid = np.array([[-1.0, 0.0, 1.0, 2.0, 3.0],
                         [-3.0, -2.0, -1.0, 0.0, 1.0]])
        f, calls = counted(special.ndtr)
        x = bisect_cdf(f, [0.975, 0.025], grid, fx=special.ndtr(grid),
                       xtol=1e-10)
        assert x == pytest.approx([1.959963984540054, -1.959963984540054],
                                  abs=1e-10)
        assert len(calls) == 1 and len(calls[0]) <= 6

    def test_float_target_gives_float(self):
        f, _ = counted(special.ndtr)
        assert isinstance(bisect_cdf(f, 0.5, [-1.0, 2.0]), float)
        assert bisect_cdf(f, [0.5], [-1.0, 2.0]).shape == (1,)

    @pytest.mark.parametrize("cdf,target,want", [
        (lambda x: x, 0.25, 0.25),            # on the lower end
        (lambda x: x, 0.75, 0.75),            # on the upper end
    ])
    def test_target_on_bracket_end(self, cdf, target, want):
        f, calls = counted(cdf)
        assert bisect_cdf(f, target, [0.25, 0.75]) == want
        assert len(calls) == 1

    def test_unbracketed_target_raises(self):
        with pytest.raises(AccuracyError, match="bracket"):
            bisect_cdf(special.ndtr, 0.5, [1.0, 2.0])
        with pytest.raises(AccuracyError, match="bracket"):
            bisect_cdf(special.ndtr, [0.5, 0.9], [-1.0, 1.0])

    def test_returns_point_where_cdf_hits_target(self):
        # the step lands on the plateau F = 1/2 of a CDF with a flat middle
        f, _ = counted(lambda x: np.clip(x, 0.0, 0.5)
                       + np.clip(x - 10.0, 0.0, 0.5))
        x = bisect_cdf(f, 0.5, [0.0, 11.0])
        assert 0.5 <= x <= 10.0

    def test_end_whose_probit_rounds_onto_the_target(self):
        # F(lo) is 2 ulps below the target, so ndtri reads it as the target
        # and the interpolation lands on lo: the step goes from lo, where
        # stepping to the midpoint bisected [lo, hi] down to xtol
        f, calls = counted(lambda x: 0.025 + (x - 0.5) * 1e-3)
        lo = 0.5 - 7e-15
        assert f(lo) < 0.025 and special.ndtri(f(lo)) == special.ndtri(0.025)
        calls.clear()
        x = bisect_cdf(f, 0.025, [lo, 0.5 + 1e-4], xtol=1e-10)
        assert x == pytest.approx(0.5, abs=1e-10)
        assert rounds(calls) <= 4

    @pytest.mark.parametrize("cdf, target, x, xtol, most", [
        # 1 - (1 - G) rounds G to steps of 2^-53 about 2.8e-11 wide in x,
        # far wider than xtol; the target lies within a step.  15 rounds
        # when the bracket had to narrow to xtol or a float spacing
        (lambda x: 1.0 - (1.0 - 1e-5 * special.ndtr(x)), 5e-6 + 3e-19,
         [-3.0, 3.0], 1e-15, 8),
        # the ends read the doubles next to the target, so no point reads
        # a value between them: one round sees the plateau
        (lambda x: math.nextafter(0.3, 0.0) if x < 0.1
         else math.nextafter(0.3, 1.0), 0.3, [-1.0, 1.0], 1e-12, 1),
    ], ids=["rounding-steps", "adjacent-doubles"])
    def test_stops_on_a_staircase(self, cdf, target, x, xtol, most):
        f, calls = counted(cdf)
        x = bisect_cdf(f, target, x, xtol=xtol)
        assert abs(cdf(x) - target) <= 2.0 ** -52
        assert rounds(calls) <= most

    @pytest.mark.parametrize("x", [[-1.0, 0.5, 1.5, 2.5], [2.5, 1.5, 0.5, -1.0],
                                   [1.5, -1.0, 2.5, 0.5]],
                             ids=["ascending", "descending", "shuffled"])
    def test_one_ulp_dip_across_the_target(self, x):
        # the CDF rounds non-monotone across the target: one ulp above it
        # on [0, 1) and from 2, one ulp below elsewhere.  The ends stay in
        # order whatever order the points come in (the lower end once
        # passed the upper one, and the log of their width failed), and the
        # solve stops on an end within 2^-52 of the target
        def cdf(x):
            above = 0.0 <= x < 1.0 or x >= 2.0
            return math.nextafter(0.5, 1.0 if above else 0.0)
        f, calls = counted(cdf)
        got = bisect_cdf(f, 0.5, x, xtol=1e-12)
        assert abs(cdf(got) - 0.5) <= 2.0 ** -52
        assert rounds(calls) <= 1

    def test_solves_on_past_a_plateau_at_zero(self):
        # F = 0 below 0.9 and far below eps above it: the first round
        # reads only 0, the lower end's value, which is no staircase step
        def cdf(x):
            return 0.0 if x < 0.9 else 1e-300 * (1.0 + x)
        f, _ = counted(cdf)
        x = bisect_cdf(f, 1.95e-300, [-1.0, 1.0], xtol=1e-10)
        assert x == pytest.approx(0.95, abs=1e-10)

    def test_values_far_below_eps_solve_to_xtol(self):
        # every value is within eps of the target, but no round reads only
        # the ends' values: no staircase, so x still solves to xtol
        f, _ = counted(lambda x: 1e-20 * special.ndtr(x))
        x = bisect_cdf(f, 3e-21, [-5.0, 5.0], xtol=1e-10)
        assert x == pytest.approx(special.ndtri(0.3), abs=1e-10)

    def test_subnormal_xtol(self):
        # the width over xtol overflows: the step count is taken in logs
        f, _ = counted(special.ndtr)
        x = bisect_cdf(f, 0.3, [-500.0, 500.0], xtol=5e-317)
        assert x == pytest.approx(special.ndtri(0.3), abs=1e-15)

    def test_stops_at_adjacent_floats(self):
        # above ~6.7e7 neighbouring floats are more than xtol = 1e-8 apart,
        # so the bracket stops narrowing there (tsq_mixture(10, 1e6, 0)'s
        # 0.9 quantile, 7.4e7, is one)
        f, calls = counted(lambda x: special.ndtr((x - 1e9) / 10.0))
        x = bisect_cdf(f, 0.3, [0.0, 2e9], xtol=1e-8)
        assert x == pytest.approx(1e9 + 10.0 * special.ndtri(0.3), abs=1e-6)
        assert rounds(calls) <= step_count_bound(0.0, 2e9, 1e-8)


class TestLeggauss:
    """The Newton-built rules against numpy's eigenvalue-built ones."""

    @pytest.mark.parametrize("order", range(1, 65))
    def test_matches_numpy(self, order):
        x, w = qd._leggauss(order)
        want_x, want_w = np.polynomial.legendre.leggauss(order)
        # nodes within 2 ulp of numpy's; numpy's weights are themselves off
        # by up to 14 eps at these orders (against a 40-digit reference),
        # about 10 times the Newton rule's error
        assert np.all(np.abs(x - want_x) <= 2.0 * np.spacing(np.abs(want_x)))
        assert np.max(np.abs(w - want_w)) <= 32.0 * np.finfo(float).eps
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0)
        # exact for x^k up to k = 2 order - 1 (the odd ones by symmetry)
        k = np.arange(0, 2 * order, 2)
        moments = (w * x ** k[:, None]).sum(axis=1)
        eps = np.finfo(float).eps
        assert np.max(np.abs(moments - 2.0 / (k + 1.0))) <= 8.0 * eps

    def test_cached_and_read_only(self):
        x, w = qd._leggauss(16)
        assert qd._leggauss(16)[0] is x
        with pytest.raises(ValueError):
            w[0] = 1.0


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
        # the columns after the mass are integrated next to it, each to the
        # budget
        f = lambda x: np.column_stack([np.ones_like(x), x * bump(x),
                                       x * x * bump(x)])
        rule = refine_panels(f, -1.0, 1.0, self.quad, initial_panels=16)
        _, m1, m2 = rule.weights @ f(rule.nodes)
        mass = 0.01 * math.sqrt(2.0 * math.pi)
        assert m1 == pytest.approx(0.3137 * mass, abs=1e-9)
        assert m2 == pytest.approx((0.3137 ** 2 + 1e-4) * mass, abs=1e-9)

    def test_each_component_has_its_own_scale(self):
        # a column 1e12 times the mass holds to rel_tol of itself, and does
        # not loosen a small one next to it to rel_tol of its own size
        f = lambda x: np.column_stack([np.ones_like(x), 1e12 * bump(x, 0.7),
                                       x * bump(x)])
        rule = refine_panels(f, -1.0, 1.0, self.quad)
        _, big, small = rule.weights @ f(rule.nodes)
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

    def test_first_panels_are_linspace_bits(self):
        # the segments' first edges come in one expression, in np.linspace's
        # arithmetic: the bits of one linspace per segment, on 2000 random
        # anchor sets (a constant integrand keeps the first panels, whose
        # halves the rule returns)
        rng = np.random.default_rng(37)
        for _ in range(2000):
            n, segments = int(rng.integers(1, 40)), int(rng.integers(1, 26))
            anchors = rng.uniform(-1e3, 1e3) + np.cumsum(
                10.0 ** rng.uniform(-5.0, 5.0, segments + 1))
            edges = np.unique(np.concatenate([
                np.linspace(a, b, n + 1)
                for a, b in zip(anchors, anchors[1:])]))
            a, b = edges[:-1], edges[1:]
            rule = refine_panels(np.ones_like, anchors[0], anchors[-1],
                                 self.quad, initial_panels=n * segments,
                                 split_at=tuple(anchors[1:-1]))
            assert np.array_equal(rule.edges, np.unique(
                np.concatenate([a, 0.5 * (a + b), b])))

    def test_raises_at_panel_cap(self, monkeypatch):
        monkeypatch.setattr(qd, "_MAX_PANELS", 32)
        with pytest.raises(AccuracyError, match="32 panels"):
            refine_panels(lambda x: np.sin(200.0 * x), 0.0, 10.0, self.quad)


def reference_refine_panels(f, lo, hi, quad, *, initial_panels=1, split_at=()):
    """The builder as it was before it kept the halves it had measured:
    every round evaluated each new panel whole and its two halves."""
    if hi == lo:
        return qd.PanelRule(np.array([lo]))
    interior = sorted(p for p in split_at if lo < p < hi)
    anchors = [lo] + interior + [hi]
    n = max(1, initial_panels // (len(anchors) - 1))
    edges = np.unique(np.concatenate([np.linspace(a, b, n + 1)
                                      for a, b in zip(anchors, anchors[1:])]))
    x, w = qd._leggauss(qd._GL_ORDER)

    def measure_block(a, b):
        mid = 0.5 * (a + b)
        lo_, hi_ = np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
        half = 0.5 * (hi_ - lo_)[:, None]
        nodes = (lo_[:, None] + half * (1.0 + x)).ravel()
        vals = np.asarray(f(nodes), dtype=float).reshape(nodes.size, -1)
        whole, left, right = np.split(
            half * (w @ vals.reshape(lo_.size, x.size, -1)), 3)
        return left + right, np.abs(whole - left - right)

    def measure(a, b):
        est, err = zip(*(measure_block(a[i:i + qd._PANEL_BLOCK],
                                       b[i:i + qd._PANEL_BLOCK])
                         for i in range(0, a.size, qd._PANEL_BLOCK)))
        return np.concatenate(est), np.concatenate(err)

    a, b = edges[:-1], edges[1:]
    est, err = measure(a, b)
    while True:
        total = np.abs(est.sum(axis=0))
        tol = 0.25 * (quad.abs_tol
                      + quad.rel_tol * np.maximum(total, total[0]))
        if np.all(err.sum(axis=0) <= tol):
            return qd.PanelRule(
                np.unique(np.concatenate([a, 0.5 * (a + b), b])))
        worst = (err / tol).max(axis=1)
        order = np.argsort(worst)
        stay = np.zeros(a.size, dtype=bool)
        stay[order[np.cumsum(worst[order]) <= 0.5]] = True
        mid = 0.5 * (a[~stay] + b[~stay])
        new_a = np.concatenate([a[~stay], mid])
        new_b = np.concatenate([mid, b[~stay]])
        new_est, new_err = measure(new_a, new_b)
        a = np.concatenate([a[stay], new_a])
        b = np.concatenate([b[stay], new_b])
        est = np.concatenate([est[stay], new_est])
        err = np.concatenate([err[stay], new_err])


OCTANE = octane_params()
OCTANE_D = derive_params(OCTANE)
# n = 10, sigma0 = 0, both windows holding 0: 2848 nodes over t
LOG_SPIKE = MixtureParams(n=10, beta0=1.0, sigma0=0.0, mu_z=1.0, sigma_z=1.0,
                          beta1=0.3, sigma1=1.0)
RULE_LAWS = {
    "octane mean": lambda: mean_mixture(OCTANE),
    "octane variance": lambda: variance_mixture(OCTANE_D.nu, OCTANE_D.lam),
    "log spike": lambda: mean_mixture(LOG_SPIKE),
    "variance(1, 1000)": lambda: variance_mixture(1, 1000.0),
    "t^2 s-rule": lambda: tsq_mixture(10, 4.0, 4.0),
}


def rules_built(build, builder, monkeypatch):
    """Every rule ``builder`` hands back while ``build`` makes its law."""
    rules = []

    def recording(*args, **kwargs):
        rules.append(builder(*args, **kwargs))
        return rules[-1]

    monkeypatch.setattr(mx, "refine_panels", recording)
    build()
    return rules


class TestKeptHalves:
    """Keeping the measured halves of a split panel changes no bit of any
    rule, and evaluates each new panel at 32 nodes instead of 48."""

    @pytest.mark.parametrize("name", sorted(RULE_LAWS))
    def test_rules_equal_the_reference_builder(self, name, monkeypatch):
        rules = rules_built(RULE_LAWS[name], refine_panels, monkeypatch)
        refs = rules_built(RULE_LAWS[name], reference_refine_panels,
                           monkeypatch)
        assert len(rules) == len(refs) > 0
        assert max(rule.nodes.size for rule in rules) > 64
        for rule, ref in zip(rules, refs):
            assert np.array_equal(rule.nodes, ref.nodes)
            assert np.array_equal(rule.weights, ref.weights)

    def test_new_panels_take_their_halves_only(self):
        # 16 first panels at 48 nodes (whole and halves); each split makes
        # two new panels at 32 nodes each (their halves)
        seen = []
        f = lambda x: seen.append(x.size) or bump(x)
        rule = refine_panels(f, -1.0, 1.0, QuadSpec(), initial_panels=16)
        panels = (rule.edges.size - 1) // 2     # the rule keeps the halves
        assert panels > 16
        assert sum(seen) == 48 * 16 + 2 * 32 * (panels - 16)
