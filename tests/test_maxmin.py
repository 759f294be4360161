import itertools
import math
import sys
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pinchopt import (
    Interval,
    SolverTolerances,
    UnsupportedScenario,
    f_scalar,
    fixed_antenna_baseline,
    invert_f,
    min_avg_snr,
    shared_channel_optimum,
    solve_maxmin,
)
from pinchopt import maxmin
from pinchopt.maxmin import _feasible_set
from pinchopt.model import ChannelParams

from conftest import beta0_drop, heterogeneous_drop, make_params, make_scenario, random_scenario
from oracles import avg_snr_inverse, beta0_envelope_optimum

TOL = SolverTolerances()


def _feasibility(sc, t):
    """The solver's intersection of all users' intervals at level t, None if empty.
    The closed-form bounds are exact, so a nonempty intersection is proven."""
    def bound(m, level):
        y = invert_f(sc.channels[m], level, sc.c[m], sc.y_max[m])
        return None if y is None else (y, y)

    interval, proven = _feasible_set(sc, bound, t)
    assert proven == (interval is not None)
    return interval


class TestFeasibleSet:
    """The scan on hand-built bounds: users at y = 0 have C_m = dv^2 = 100, so
    bound 100 + d^2 admits |x - x_m| <= d. It returns the outer intersection
    and whether the inner one is nonempty."""

    @staticmethod
    def _scan(xs, ds, calls=None):
        """ds[m]: None (no position serves user m), one half-width for both
        bounds, or the pair (inner, outer) of half-widths."""
        sc = make_scenario([(x, 0.0) for x in xs], dx=30.0)
        bounds = [None if d is None else tuple(100.0 + h * h for h in
                                               (d if isinstance(d, tuple) else (d, d)))
                  for d in ds]

        def bound(m, t):
            if calls is not None:
                calls.append(m)
            return bounds[m]

        return _feasible_set(sc, bound, 1.0)

    def test_touching_intervals_stay_nonempty(self):
        assert self._scan([5.0, 11.0], [3.0, 3.0]) == (Interval(8.0, 8.0), True)

    def test_disjoint_intervals_give_none(self):
        calls = []
        assert self._scan([5.0, 12.0, 20.0], [3.0, 3.0, 3.0], calls) == (None, False)
        assert calls == [0, 1]

    def test_none_bound_gives_none(self):
        calls = []
        assert self._scan([5.0, 6.0, 7.0], [3.0, None, 3.0], calls) == (None, False)
        assert calls == [0, 1]

    def test_clipped_at_zero_and_dx(self):
        assert self._scan([2.0], [5.0]) == (Interval(0.0, 7.0), True)
        assert self._scan([28.0], [5.0]) == (Interval(23.0, 30.0), True)
        assert self._scan([15.0], [40.0]) == (Interval(0.0, 30.0), True)

    def test_intersection_of_three_users(self):
        assert self._scan([5.0, 7.0, 6.0], [4.0, 3.0, 5.0]) == (Interval(4.0, 9.0), True)

    def test_infinite_bound_admits_every_position(self):
        # inner and outer ends are skipped separately
        assert self._scan([5.0, 20.0], [math.inf, math.inf]) == (Interval(0.0, 30.0), True)
        assert self._scan([5.0, 20.0], [(3.0, math.inf), 11.0]) == (Interval(9.0, 30.0), False)
        assert self._scan([5.0, 20.0], [(3.0, math.inf), 15.0]) == (Interval(5.0, 30.0), True)

    def test_empty_inner_intersection_proves_nothing(self):
        # inner intervals [2.5, 7.5] and [8.5, 13.5] are disjoint, outer ones overlap
        assert self._scan([5.0, 11.0], [(2.5, 3.5), (2.5, 3.5)]) == (Interval(7.5, 8.5), False)
        # inner intervals [2.5, 7.5] and [7.5, 14.5] touch: proven
        assert self._scan([5.0, 11.0], [(2.5, 3.5), (3.5, 4.5)]) == (Interval(6.5, 8.5), True)


class TestSolverTolerances:
    def test_defaults(self):
        assert TOL.eps_t == 1e-3

    @pytest.mark.parametrize("kwargs", [dict(eps_t=0.0), dict(eps_t=-1.0),
                                        dict(eps_t=math.nan), dict(eps_t=math.inf)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverTolerances(**kwargs)


class TestInvertF:
    def test_fixed_point_at_vertex(self):
        sc = make_scenario([(15.0, 0.0)], dx=30.0)
        y_min, y_max = sc.c[0], sc.y_max[0]
        params = sc.channels[0]
        assert invert_f(params, f_scalar(params, y_min), y_min, y_max) == y_min

    def test_bracket_endpoint(self):
        sc = make_scenario([(10.0, 5.0)], dx=30.0)
        y_min, y_max = sc.c[0], sc.y_max[0]
        params = sc.channels[0]
        assert invert_f(params, f_scalar(params, y_max), y_min, y_max) == y_max

    def test_round_trip_recovers_target(self):
        rng_np = np.random.Generator(np.random.Philox(5))
        sc = make_scenario([(10.0, 5.0)], dx=30.0)
        y_min, y_max = sc.c[0], sc.y_max[0]
        params = sc.channels[0]
        for _ in range(50):
            y_target = float(rng_np.uniform(y_min, y_max))
            alpha = invert_f(params, f_scalar(params, y_target), y_min, y_max)
            assert abs(alpha - y_target) <= 2.0 * math.ulp(y_target)

    def test_infeasible_returns_none(self):
        sc = make_scenario([(10.0, 5.0)])
        y_min, y_max = sc.c[0], sc.y_max[0]
        params = sc.channels[0]
        assert invert_f(params, 1.01 * f_scalar(params, y_min), y_min, y_max) is None

    def test_below_range_returns_y_max(self):
        sc = make_scenario([(10.0, 5.0)])
        y_min, y_max = sc.c[0], sc.y_max[0]
        params = sc.channels[0]
        assert invert_f(params, 0.5 * f_scalar(params, y_max), y_min, y_max) == y_max

    def test_returns_the_largest_double_that_meets_the_level(self):
        sc = make_scenario([(10.0, 5.0)])
        y_min, y_max = sc.c[0], sc.y_max[0]
        params = sc.channels[0]
        t = f_scalar(params, 0.5 * (y_min + y_max))
        y = invert_f(params, t, y_min, y_max)
        assert f_scalar(params, y) >= t > f_scalar(params, math.nextafter(y, math.inf))

    @given(beta=st.sampled_from([0.0, 1e-6, 1e-3, 1e-2, 3e-2]), log_mu_sq=st.floats(-12.0, -5.0),
           log_rho=st.floats(9.0, 15.0), x=st.floats(0.0, 30.0), y=st.floats(-5.0, 5.0),
           share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_lambert_w_oracle(self, beta, log_mu_sq, log_rho, x, y, share):
        sc = make_scenario([(x, y)], beta=beta, mu_sq=10.0 ** log_mu_sq, rho=10.0 ** log_rho)
        y_min, y_max, params = sc.c[0], sc.y_max[0], sc.channels[0]
        t = f_scalar(params, y_min + share * (y_max - y_min))
        assume(f_scalar(params, y_max) < t < f_scalar(params, y_min))
        calls = []
        with patch("pinchopt.maxmin.f_scalar", lambda *a: calls.append(a) or f_scalar(*a)):
            alpha = invert_f(params, t, y_min, y_max)
        assert f_scalar(params, alpha) >= t > f_scalar(params, math.nextafter(alpha, math.inf))
        # the oracle carries its own rounding of W0 and e^{-beta a}: 3 eps at most seen
        oracle = avg_snr_inverse(params, t)
        assert abs(alpha - oracle) <= 4.0 * sys.float_info.epsilon * oracle
        assert len(calls) <= 2 + 2 + 4  # end cases, both walk tests, at most 4 ulps walked

    def test_lambert_argument_beyond_the_float_range(self):
        # at t = f(7.05e8) ~ 9.4e-16, beta c e^{-beta a} = e^711.6 overflows a double
        sc = make_scenario([(0.0, 0.0)], dx=3e4, beta=1e-6, eta=1e300, mu_sq=1e-300, rho=1.0)
        params = sc.channels[0]
        t = f_scalar(params, 7.05e8)
        alpha = invert_f(params, t, sc.c[0], sc.y_max[0])
        assert abs(alpha - 7.05e8) <= 2.0 * math.ulp(7.05e8)
        assert f_scalar(params, alpha) >= t > f_scalar(params, math.nextafter(alpha, math.inf))


class TestUserIntervalAvg:
    def test_tiny_interval_near_peak(self):
        sc = make_scenario([(15.0, 0.0)], dx=30.0)
        peak = f_scalar(sc.channels[0], sc.c[0])
        iv = _feasibility(sc, 0.999 * peak)
        assert iv is not None
        assert iv.lo <= 15.0 <= iv.hi
        assert iv.hi - iv.lo < 1.0

    def test_above_peak_empty(self):
        sc = make_scenario([(15.0, 0.0)], dx=30.0)
        peak = f_scalar(sc.channels[0], sc.c[0])
        assert _feasibility(sc, 1.001 * peak) is None

    def test_low_target_full_range(self):
        sc = make_scenario([(10.0, 5.0)], dx=30.0)
        t = 0.9 * f_scalar(sc.channels[0], sc.y_max[0])
        assert _feasibility(sc, t) == (0.0, 30.0)


class TestFeasibilityAvg:
    def test_single_user_equals_own_interval(self):
        sc = make_scenario([(10.0, 5.0)])
        t = 0.7 * f_scalar(sc.channels[0], sc.c[0])
        d = math.sqrt(invert_f(sc.channels[0], t, sc.c[0], sc.y_max[0]) - sc.c[0])
        assert _feasibility(sc, t) == (max(10.0 - d, 0.0), min(10.0 + d, sc.dx))

    def test_disjoint_users_empty(self):
        sc = make_scenario([(0.0, 0.0), (30.0, 0.0)], dx=30.0)
        t = 0.999 * f_scalar(sc.channels[0], sc.c[0])
        assert _feasibility(sc, t) is None

    def test_nested_in_t(self):
        rng = np.random.Generator(np.random.Philox(6))
        for _ in range(25):
            sc = random_scenario(rng, 3)
            peak = min(f_scalar(sc.channels[m], sc.c[m])
                       for m in range(3))
            t1, t2 = sorted(rng.uniform(0.0, peak, 2))
            outer = _feasibility(sc, float(t1))
            inner = _feasibility(sc, float(t2))
            if inner is not None:
                assert outer is not None
                assert outer.lo <= inner.lo + 1e-9 and inner.hi <= outer.hi + 1e-9


class TestSolveMaxmin:
    def test_single_interior_user(self):
        sc = make_scenario([(12.0, 3.0)], dx=30.0)
        sol = solve_maxmin(sc)
        assert sol.x_star == pytest.approx(12.0, abs=1e-6)
        assert sol.t_star == pytest.approx(f_scalar(sc.channels[0], sc.c[0]), rel=1e-9)

    def test_certificate(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(10):
            sc = random_scenario(rng, 4)
            sol = solve_maxmin(sc)
            assert _feasibility(sc, sol.meta["bracket_lo"]) is not None
            assert _feasibility(sc, sol.t_star * (1.0 + 3.0 * TOL.eps_t)) is None

    def test_reported_level_is_achieved(self):
        rng = np.random.Generator(np.random.Philox(8))
        for _ in range(10):
            sc = random_scenario(rng, 3)
            sol = solve_maxmin(sc)
            assert min_avg_snr(sc, sol.x_star) == sol.t_star
            assert sol.t_star >= sol.meta["bracket_lo"] * (1.0 - 1e-12)
        # per-user channels, where the active set drops most users early
        for n_users, eps_t in itertools.product((2, 8, 32), (1e-3, 1e-9)):
            rng = np.random.Generator(np.random.Philox(99))
            for _ in range(6):
                sc, _ = heterogeneous_drop(rng, n_users)
                sol = solve_maxmin(sc, SolverTolerances(eps_t=eps_t))
                assert min_avg_snr(sc, sol.x_star) == sol.t_star
                assert sol.t_star >= sol.meta["bracket_lo"]

    def test_bracket_width_at_convergence(self):
        sc = make_scenario([(5.0, 2.0), (22.0, -4.0)])
        sol = solve_maxmin(sc)
        assert sol.meta["bracket_hi"] - sol.meta["bracket_lo"] <= TOL.eps_t * sol.meta["bracket_lo"]

    def test_iteration_bound(self):
        rng = np.random.Generator(np.random.Philox(9))
        for _ in range(10):
            sc = random_scenario(rng, 4)
            sol = solve_maxmin(sc)
            t_hi = 2.0 * max(f_scalar(sc.channels[m], sc.c[m])
                             for m in range(4))
            bound = math.ceil(math.log2(t_hi / (TOL.eps_t * sol.t_star))) + 1
            assert sol.outer_iterations <= bound

    def test_x_star_inside_feasible(self):
        sc = make_scenario([(4.0, 1.0), (18.0, -3.0), (29.0, 4.0)])
        sol = solve_maxmin(sc)
        assert sol.feasible.lo <= sol.x_star <= sol.feasible.hi
        assert 0.0 <= sol.x_star <= sc.dx

    def test_outer_bisection_ends_on_adjacent_doubles(self):
        # no two doubles near t* lie 1e-20 t* apart: the bracket ends on adjacent ones
        sc = make_scenario([(6.0, 2.0), (21.0, -3.0)])
        sol = solve_maxmin(sc, SolverTolerances(eps_t=1e-20))
        assert sol.meta["bracket_hi"] == math.nextafter(sol.meta["bracket_lo"], math.inf)
        assert sol.outer_iterations < 200


class TestActiveSet:
    """Probes and the finish run only on the users that can still bind."""

    def test_probes_invert_few_users(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(70))
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return invert_f(*args)

        monkeypatch.setattr(maxmin, "invert_f", counted)
        for _ in range(10):
            solve_maxmin(random_scenario(rng, 128))
        # every user inverted at every probe took 1 105 calls per solve here, and
        # inverting the dropped users again after the loop 324; this takes 198.5
        assert calls / 10 < 250


class TestCertifiedBracket:
    """On shared channels the exact optimum (t_opt, x_opt) lies in the certified
    bracket and the certified interval at every eps_t."""

    @pytest.mark.parametrize("eps_t", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_bracket_holds_the_shared_channel_optimum(self, eps_t):
        rng = np.random.Generator(np.random.Philox(12))
        for n_users in (2, 3, 8, 32) * 50:
            sc = random_scenario(rng, n_users, beta=float(rng.uniform(0.0, 3e-2)))
            opt = shared_channel_optimum(sc)
            sol = solve_maxmin(sc, SolverTolerances(eps_t=eps_t))
            assert sol.meta["bracket_lo"] <= opt.t_star <= sol.meta["bracket_hi"]
            assert sol.t_star >= sol.meta["bracket_lo"]
            assert sol.feasible.lo <= opt.x_star <= sol.feasible.hi


class TestBeta0Envelope:
    """At beta = 0 on per-user rho, mu^2 and eta the exact optimum
    (oracles.beta0_envelope_optimum) lies in the certified bracket, and
    t_star within eps_t of it."""

    @given(n_users=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
           eps_t=st.sampled_from([1e-3, 1e-9]))
    @settings(max_examples=200, deadline=None)
    def test_bracket_holds_the_exact_optimum(self, n_users, seed, eps_t):
        sc, _ = beta0_drop(np.random.Generator(np.random.Philox(seed)), n_users)
        t_exact, _ = beta0_envelope_optimum(sc)
        sol = solve_maxmin(sc, SolverTolerances(eps_t=eps_t))
        slack = 1e-12 * t_exact  # the oracle's own rounding: 1.7e-16 seen
        assert sol.meta["bracket_lo"] - slack <= t_exact <= sol.meta["bracket_hi"] + slack
        assert abs(sol.t_star - t_exact) <= eps_t * t_exact + slack

    def test_shared_channel_agrees_with_the_closed_form(self):
        rng = np.random.Generator(np.random.Philox(31))
        for n_users in (1, 2, 5, 16):
            sc = random_scenario(rng, n_users, beta=0.0)
            t_exact, x_exact = beta0_envelope_optimum(sc)
            opt = shared_channel_optimum(sc)
            assert t_exact == pytest.approx(opt.t_star, rel=1e-13)
            assert x_exact == pytest.approx(opt.x_star, abs=1e-9)


class TestWorstUserFinish:
    """x_star comes from bisection on x toward the worst user at each midpoint."""

    def test_no_grid_point_beats_t_star(self):
        rng = np.random.Generator(np.random.Philox(50))
        for n_users in (1, 2, 3, 5, 8, 12, 20, 32):
            sc, _ = heterogeneous_drop(rng, n_users)
            sol = solve_maxmin(sc)
            for x in np.linspace(sol.feasible.lo, sol.feasible.hi, 201):
                assert sol.t_star >= min_avg_snr(sc, float(x)) * (1.0 - 2e-12)

    @pytest.mark.parametrize("user_xy, binding", [
        ([(8.0, 3.0), (20.0, -3.0)], (0, 1)),  # closed-form crossing
        ([(10.0, 0.0), (12.0, 5.0)], (1,)),    # antenna at the limiting user
        ([(12.0, 3.0)], (0,)),
    ])
    def test_binding_users(self, user_xy, binding):
        assert solve_maxmin(make_scenario(user_xy)).meta["binding"] == binding


class TestTwoUserClosedForm:
    """The shared-channel optimum on two users: the vertex or the biased midpoint."""

    def test_degenerate_same_position(self):
        sc = make_scenario([(10.0, 2.0), (10.0, -4.0)])
        sol = shared_channel_optimum(sc)
        assert sol.x_star == 10.0
        assert sol.meta["alpha_star"] == pytest.approx(max(sc.c[0], sc.c[1]))

    def test_symmetric_offsets_midpoint(self):
        sc = make_scenario([(8.0, 3.0), (20.0, -3.0)])
        sol = shared_channel_optimum(sc)
        assert sol.x_star == pytest.approx(14.0, rel=1e-12)
        assert sol.meta["alpha_star"] == pytest.approx(36.0 + sc.c[0], rel=1e-12)

    def test_close_users_antenna_at_limiting_user(self):
        # |x2 - x1| below sqrt(C_max - C_min): place at the larger-offset user
        sc = make_scenario([(10.0, 0.0), (12.0, 5.0)])
        assert math.sqrt(sc.c[1] - sc.c[0]) > 2.0
        sol = shared_channel_optimum(sc)
        assert sol.x_star == 12.0
        assert sol.meta["alpha_star"] == pytest.approx(sc.c[1])

    def test_biased_midpoint_shifts_toward_larger_offset(self):
        sc = make_scenario([(5.0, 0.0), (25.0, 5.0)])
        sol = shared_channel_optimum(sc)
        assert sol.x_star > 15.0

    def test_matches_bisection(self):
        rng = np.random.Generator(np.random.Philox(10))
        for _ in range(25):
            sc = random_scenario(rng, 2)
            closed = shared_channel_optimum(sc)
            solved = solve_maxmin(sc)
            assert abs(closed.t_star - solved.t_star) / closed.t_star <= 10.0 * TOL.eps_t
            assert abs(closed.x_star - solved.x_star) <= solved.feasible.hi - solved.feasible.lo + 1e-9

    def test_order_independent(self):
        a = make_scenario([(20.0, -1.0), (6.0, 4.0)])
        b = make_scenario([(6.0, 4.0), (20.0, -1.0)])
        assert shared_channel_optimum(a).x_star == shared_channel_optimum(b).x_star

    def test_unequal_parameters(self):
        base = make_scenario([(10.0, 0.0), (20.0, 0.0)])
        other = ChannelParams(
            beta=base.channels[0].beta, eta=base.channels[0].eta,
            mu_sq=2e-9, rho=base.channels[0].rho,
            guided_wavelength=base.channels[0].guided_wavelength,
            carrier_wavelength=base.channels[0].carrier_wavelength,
        )
        sc = make_scenario([(10.0, 0.0), (20.0, 0.0)])
        sc = type(sc)(dx=sc.dx, dy=sc.dy, dv=sc.dv, users=sc.users,
                      channels=(sc.channels[0], other))
        named = r"^users\[1\]\.mu_sq differs from users\[0\]$"
        with pytest.raises(UnsupportedScenario, match=named):
            shared_channel_optimum(sc)


class TestFixedBaseline:
    def test_position_and_value(self):
        sc = make_scenario([(10.0, 5.0), (25.0, -2.0)], dx=30.0)
        sol = fixed_antenna_baseline(sc)
        assert sol.x_star == 15.0
        assert sol.t_star == pytest.approx(min_avg_snr(sc, 15.0), rel=1e-14)

    def test_coincides_with_optimum_for_centered_user(self):
        sc = make_scenario([(15.0, 0.0)], dx=30.0)
        assert fixed_antenna_baseline(sc).t_star == pytest.approx(
            solve_maxmin(sc).t_star, rel=1e-6
        )

    def test_never_beats_solver(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(25):
            sc = random_scenario(rng, 4)
            assert solve_maxmin(sc).t_star >= fixed_antenna_baseline(sc).t_star * (1.0 - 1e-12)
