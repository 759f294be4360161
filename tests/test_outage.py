import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchopt import (
    InvalidScenario,
    OutageSpec,
    Scenario,
    SolverAnomaly,
    SolverTolerances,
    UserPosition,
    ccdf_inst_snr,
    fixed_antenna_outage_baseline,
    grid_search_outage,
    invert_ccdf,
    max_threshold_at,
    parse_scenario_dict,
    shared_channel_optimum,
    solve_outage,
)
from pinchopt import kernels, outage
from pinchopt.maxmin import _feasible_set

from conftest import (ETA_28GHZ, beta0_drop, binade_spanning_doc, heterogeneous_drop,
                      make_params, make_scenario, random_scenario)
from oracles import (beta0_envelope_optimum, marcum_q1_quad, nlos_only_bound, outage_prob_mp,
                     saturated_threshold_mp)

TOL = SolverTolerances()


def _feasibility(sc, spec, t):
    """T(t) as the solver builds it: (the intersection of the users' outer
    outage intervals, None if empty; whether the inner one is nonempty)."""
    return _feasible_set(sc, outage._outage_bound(sc, spec.epsilons), t)


class TestOutageSpec:
    def test_shared(self):
        spec = OutageSpec.shared(0.1, 3)
        assert spec.epsilons == (0.1, 0.1, 0.1)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_validation(self, eps):
        with pytest.raises(ValueError):
            OutageSpec(epsilons=(eps,))

    def test_length_check(self):
        sc = make_scenario([(10.0, 0.0), (20.0, 0.0)])
        with pytest.raises(ValueError):
            OutageSpec(epsilons=(0.1,)).for_scenario(sc)


class TestMarkovCeiling:
    @given(beta=st.floats(0.0, 0.05), mu_sq_db=st.floats(-90.0, -40.0),
           eta_scale=st.floats(0.5, 2.0), y=st.floats(100.0, 2600.0),
           epsilon=st.floats(1e-3, 0.999))
    @settings(max_examples=300)
    def test_misses_the_target(self, beta, mu_sq_db, eta_scale, y, epsilon):
        params = make_params(beta=beta, mu_sq=10.0 ** (mu_sq_db / 10.0),
                             eta=ETA_28GHZ * eta_scale)
        ceiling = outage._markov_ceiling(params, y, epsilon)
        assert ccdf_inst_snr(params, y, ceiling) < 1.0 - epsilon

    def test_an_overflowing_ceiling_is_invalid_input(self):
        # f(y_min) ~ 7e296 is a valid level, but f(y_min) / (1 - eps) at eps = 1 - 1e-15 is not
        sc = make_scenario([(5.0, 0.0), (20.0, 1.0)], rho=1e305)
        with pytest.raises(InvalidScenario, match=r"^users\[1\]: .*outage\.epsilons\[1\]"):
            solve_outage(sc, OutageSpec(epsilons=(0.1, 1.0 - 1e-15)))
        assert solve_outage(sc, OutageSpec(epsilons=(0.1, 0.5))).t_star > 1e290


class TestInvertCcdf:
    def test_tiny_threshold_full_range(self):
        sc = make_scenario([(10.0, 5.0)])
        y_min, y_max = sc.c[0], sc.y_max[0]
        assert invert_ccdf(sc.channels[0], 1e-6, 0.5, y_min, y_max) == y_max

    def test_huge_threshold_infeasible(self):
        sc = make_scenario([(10.0, 5.0)])
        y_min, y_max = sc.c[0], sc.y_max[0]
        params = sc.channels[0]
        t = 4.0 * params.rho * params.eta / y_min  # beyond the LoS-limited drop
        assert invert_ccdf(params, t, 0.1, y_min, y_max) is None

    def test_mid_range_round_trip(self):
        sc = make_scenario([(10.0, 5.0)], dx=30.0)
        y_min, y_max = sc.c[0], sc.y_max[0]
        params = sc.channels[0]
        eps = 0.1
        # pick t so the root lies strictly inside (y_min, y_max)
        t = max_threshold_at(sc, OutageSpec.shared(eps, 1), 2.0)
        bound = invert_ccdf(params, t, eps, y_min, y_max)
        assert bound is not None and y_min < bound < y_max
        assert ccdf_inst_snr(params, bound, t) == pytest.approx(1.0 - eps, abs=1e-6)

    def test_pure_nlos_log_inversion(self):
        # with the LoS branch suppressed the bound has a closed form
        params = make_params(beta=1.0)
        sc = make_scenario([(10.0, 5.0)], dx=30.0, beta=1.0)
        y_min, y_max = sc.c[0], sc.y_max[0]
        eps, t = 0.1, 5.0
        expected = nlos_only_bound(params.rho, params.mu_sq, t, eps)
        assert y_min < expected < y_max
        bound = invert_ccdf(params, t, eps, y_min, y_max)
        assert bound == pytest.approx(expected, rel=1e-6)

    def test_invalid_epsilon(self):
        sc = make_scenario([(10.0, 5.0)])
        with pytest.raises(ValueError):
            invert_ccdf(sc.channels[0], 1.0, 1.0, sc.c[0], sc.y_max[0])

    def test_bound_nonincreasing_in_t(self):
        sc = make_scenario([(10.0, 5.0)], dx=30.0)
        y_min, y_max = sc.c[0], sc.y_max[0]
        params = sc.channels[0]
        width = outage._INVERSION_REL_TOL * y_min
        rng_np = np.random.Generator(np.random.Philox(13))
        cap = max_threshold_at(sc, OutageSpec.shared(0.1, 1), 10.0)
        for _ in range(40):
            t1, t2 = sorted(rng_np.uniform(0.1, 3.0 * cap, 2))
            b1 = invert_ccdf(params, float(t1), 0.1, y_min, y_max)
            b2 = invert_ccdf(params, float(t2), 0.1, y_min, y_max)
            if b2 is None:
                continue
            assert b1 is not None
            assert b1 >= b2 - width


class TestUserIntervalOutage:
    def test_infeasible_propagates_to_empty(self):
        sc = make_scenario([(10.0, 5.0)])
        params = sc.channels[0]
        t = 4.0 * params.rho * params.eta / sc.c[0]
        assert _feasibility(sc, OutageSpec.shared(0.1, 1), t) == (None, False)

    def test_unbinding_constraint_full_region(self):
        sc = make_scenario([(10.0, 5.0)], dx=30.0)
        assert _feasibility(sc, OutageSpec.shared(0.5, 1), 1e-6) == ((0.0, 30.0), True)

    def test_mid_range_centered_at_user(self):
        sc = make_scenario([(10.0, 5.0)], dx=30.0)
        t = max_threshold_at(sc, OutageSpec.shared(0.1, 1), 4.0)
        iv, proven = _feasibility(sc, OutageSpec.shared(0.1, 1), t)
        assert iv is not None and proven
        assert iv.lo <= 10.0 <= iv.hi
        assert 0.5 * (iv.lo + iv.hi) == pytest.approx(10.0, abs=1e-6) or iv.lo == 0.0


class TestFeasibilityOutage:
    def test_nested_in_t(self):
        rng = np.random.Generator(np.random.Philox(14))
        for _ in range(20):
            sc = random_scenario(rng, 2)
            spec = OutageSpec.shared(0.1, 2)
            cap = max_threshold_at(sc, spec, 0.5 * sc.dx)
            t1, t2 = sorted(rng.uniform(0.0, 3.0 * cap, 2))
            low = _feasibility(sc, spec, float(t1))[0]
            high = _feasibility(sc, spec, float(t2))[0]
            if high is not None:
                assert low is not None
                assert low.lo <= high.lo + 1e-9 and high.hi <= low.hi + 1e-9


class TestSolveOutage:
    def test_single_interior_user(self):
        sc = make_scenario([(12.0, 3.0)], dx=30.0)
        eps = 0.1
        sol = solve_outage(sc, OutageSpec.shared(eps, 1))
        assert sol.x_star == pytest.approx(12.0, abs=1e-5)
        # t_star solves ccdf(C_1, t) = 1 - eps; cross-checked by a direct root
        c = sc.c[0]
        assert ccdf_inst_snr(sc.channels[0], c, sol.t_star) == pytest.approx(1.0 - eps, abs=1e-9)

    def test_asymmetric_targets_pull_antenna(self):
        users = [(8.0, 3.0), (22.0, -3.0)]
        sc = make_scenario(users, dx=30.0)
        tight = solve_outage(sc, OutageSpec(epsilons=(0.02, 0.1)))
        even = solve_outage(sc, OutageSpec(epsilons=(0.1, 0.1)))
        assert tight.x_star < even.x_star  # tighter user 1 pulls the antenna left

    def test_certificate(self):
        rng = np.random.Generator(np.random.Philox(15))
        for _ in range(8):
            sc = random_scenario(rng, 2)
            spec = OutageSpec.shared(0.1, 2)
            sol = solve_outage(sc, spec)
            assert _feasibility(sc, spec, sol.meta["bracket_lo"])[1]
            assert _feasibility(sc, spec, sol.t_star * (1.0 + 3.0 * TOL.eps_t)) == (None, False)

    def test_reported_level_is_achieved(self):
        rng = np.random.Generator(np.random.Philox(16))
        for _ in range(8):
            sc = random_scenario(rng, 2)
            spec = OutageSpec.shared(0.05, 2)
            sol = solve_outage(sc, spec)
            assert sol.t_star == pytest.approx(max_threshold_at(sc, spec, sol.x_star), rel=1e-12)
            for m in range(2):
                y = sc.r_sq(m, sol.x_star)
                assert ccdf_inst_snr(sc.channels[m], y, sol.t_star) >= 0.95 - 1e-6
        # per-user channels and targets: users dropped from the active set may bind
        # where the active ones reach the bracket's top, so the finish must see them
        for n_users, eps_t in itertools.product((2, 8, 32), (1e-3, 1e-9)):
            rng = np.random.Generator(np.random.Philox(99))
            for _ in range(6):
                sc, spec = heterogeneous_drop(rng, n_users)
                sol = solve_outage(sc, spec, SolverTolerances(eps_t=eps_t))
                cap = max_threshold_at(sc, spec, sol.x_star)
                assert cap * (1.0 - 2e-12) <= sol.t_star <= cap * (1.0 + 2e-12)

    def test_tiny_eps_t_stops_at_a_certified_bracket(self):
        # no two doubles near t* lie 1e-20 t* apart: the bisection stops at the first
        # probe the inversions cannot decide, on a bracket that still holds the optimum
        sc = make_scenario([(6.0, 2.0), (21.0, -3.0)])
        spec = OutageSpec.shared(0.1, 2)
        sol = solve_outage(sc, spec, SolverTolerances(eps_t=1e-20))
        t_opt = shared_channel_optimum(sc, spec).t_star
        lo, hi = sol.meta["bracket_lo"], sol.meta["bracket_hi"]
        assert lo <= t_opt * (1.0 + 2e-12) and t_opt <= hi
        assert hi - lo <= 1e-8 * lo
        assert sol.outer_iterations < 200

    def test_region_length_changes_nothing(self):
        # the inversion width scales with the least r^2, which dx does not change
        short, long = (solve_outage(make_scenario([(5.0, 0.0), (2e5, 0.0)], dx=dx),
                                    OutageSpec.shared(0.1, 2)) for dx in (1e6, 1e40))
        assert long.t_star == pytest.approx(short.t_star, rel=1e-12)
        assert 5.0 < long.x_star < 2e5

    def test_monotone_in_epsilon(self):
        sc = make_scenario([(8.0, 4.0), (24.0, -2.0)], dx=30.0)
        values = [solve_outage(sc, OutageSpec.shared(eps, 2)).t_star
                  for eps in (0.02, 0.06, 0.1, 0.5)]
        assert values == sorted(values)
        assert values[0] < values[-1]


class TestCertifiedBracket:
    """Every probe verdict is a proof: on shared channels the exact optimum lies in
    the certified bracket at every eps_t, and t_star reaches it."""

    @pytest.mark.parametrize("eps_t", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_bracket_holds_the_shared_channel_optimum(self, eps_t):
        rng = np.random.Generator(np.random.Philox(12))
        for n_users in (2, 3, 8, 32) * 50:
            sc = random_scenario(rng, n_users, beta=float(rng.uniform(0.0, 3e-2)))
            spec = OutageSpec.shared(0.1, n_users)
            # a feasible-end root, within 1e-12 below the optimum
            t_opt = shared_channel_optimum(sc, spec).t_star
            sol = solve_outage(sc, spec, SolverTolerances(eps_t=eps_t))
            lo, hi = sol.meta["bracket_lo"], sol.meta["bracket_hi"]
            assert lo <= t_opt * (1.0 + 2e-12) and t_opt <= hi
            assert sol.t_star >= lo and sol.t_star >= t_opt * (1.0 - 2e-12)

    @given(n_users=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           eps_t=st.sampled_from([1e-3, 1e-9]))
    @settings(max_examples=6, deadline=None)
    def test_bracket_holds_the_beta0_envelope_optimum(self, n_users, seed, eps_t):
        # per-user channels and targets at beta = 0, where Q1 runs in its Bessel band
        # (40-170 ms a solve, so few examples here)
        sc, spec = beta0_drop(np.random.Generator(np.random.Philox(seed)), n_users)
        t_exact, _ = beta0_envelope_optimum(sc, spec)
        sol = solve_outage(sc, spec, SolverTolerances(eps_t=eps_t))
        width = 1e-9 * t_exact  # the inversion's, relative
        assert sol.meta["bracket_lo"] - width <= t_exact <= sol.meta["bracket_hi"] + width
        assert abs(sol.t_star - t_exact) <= eps_t * t_exact + width

    @pytest.mark.parametrize("eps_t", [1e-9, 1e-12])
    def test_argmax_just_outside_the_inner_intersection(self, eps_t):
        # per-user channels where the inner intersection at t_lo ends just short of
        # the argmax: a finish confined to it ended there with one binding user
        users = (UserPosition(25.4556, 2.4878), UserPosition(7.1030, 0.0560))
        channels = (make_params(beta=8.594e-3, mu_sq=1.215e-9, eta=0.981 * ETA_28GHZ),
                    make_params(beta=4.682e-3, mu_sq=1.591e-9, eta=0.581 * ETA_28GHZ))
        sc = Scenario(dx=30.0, dy=10.0, dv=10.0, users=users, channels=channels)
        spec = OutageSpec(epsilons=(0.222, 0.115))
        sol = solve_outage(sc, spec, SolverTolerances(eps_t=eps_t))
        assert sol.meta["bracket_lo"] <= sol.t_star <= sol.meta["bracket_hi"]
        assert sol.meta["binding"] == (0, 1)
        # no grid point beats t_star by more than 1e-12: some user misses that level there
        level = sol.t_star * (1.0 + 1e-12)
        for x in np.linspace(sol.x_star - 1e-6, sol.x_star + 1e-6, 2001):
            assert any(ccdf_inst_snr(sc.channels[m], sc.r_sq(m, x), level)
                       < 1.0 - spec.epsilons[m] for m in range(len(users)))


# the CI's three-user file: one shared channel, so the optimum is the threshold at
# the minimax squared distance
THREE_USERS = {"schema": 1, "region": {"dx": 30.0, "dy": 10.0, "dv": 10.0},
               "users": [{"x": 4.0, "y": 3.0}, {"x": 15.0, "y": -4.0}, {"x": 27.0, "y": 1.0}]}


class TestSmallTargets:
    """Each target is compared as P_out <= eps, so tiny targets keep their relative
    precision; against 1 - eps, t_star was off by 1.7e-3 at eps 1e-14 and by a factor
    of 5e283 at 1e-300, outside its own bracket."""

    @pytest.mark.parametrize("beta", [0.01, 10.0])
    def test_three_users_reach_the_60_digit_optimum_at_any_target(self, beta):
        for eps, eps_t in itertools.product(
                (0.1, 1e-3, 1e-6, 1e-12, 1e-14, 1e-16, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300),
                (1e-3, 1e-12)):
            doc = dict(THREE_USERS, defaults={"beta": beta}, outage={"epsilon": eps})
            bundle = parse_scenario_dict(doc)
            sol = solve_outage(bundle.scenario, bundle.outage, SolverTolerances(eps_t=eps_t))
            # Q1 saturates at the optimum (a - b >= gap_m), so what outage_prob's
            # bound on P1 adds to the closed form is below one ulp of eps
            y_star = shared_channel_optimum(bundle.scenario, bundle.outage).meta["alpha_star"]
            t_opt = saturated_threshold_mp(bundle.scenario.channels[0], y_star, eps)
            assert t_opt * (1.0 - 1e-13) <= sol.t_star <= t_opt, eps
            assert sol.meta["bracket_lo"] <= t_opt <= sol.meta["bracket_hi"], eps
            assert sol.meta["binding"] == (0, 2)

    def test_a_target_below_the_series_tail_ends_inside_its_bracket(self):
        # compared against 1 - eps, at eps 1e-17 (a = 8.5e5) t_star read 7.94e-35,
        # below its bracket [7.98e-35, 7.99e-35]
        doc = {"schema": 1, "region": {"dx": 1.0, "dy": 1.0, "dv": 1.0},
               "defaults": {"p_dbm": 0.0, "noise_dbm": 0.0, "mu_sq_db": -177.0, "beta": 1.0},
               "users": [{"x": 0.0, "y": 0.0}, {"x": 1.0, "y": -0.5}],
               "outage": {"epsilon": 1e-17}}
        bundle = parse_scenario_dict(doc)
        sol = solve_outage(bundle.scenario, bundle.outage, bundle.tol)
        lo, hi = sol.meta["bracket_lo"], sol.meta["bracket_hi"]
        t_opt = shared_channel_optimum(bundle.scenario, bundle.outage).t_star
        assert lo <= sol.t_star <= hi and lo <= t_opt <= hi
        assert sol.t_star == pytest.approx(1.910e-35, rel=1e-3)
        assert t_opt * (1.0 - 1e-13) <= sol.t_star <= t_opt


    def test_a_los_share_above_the_blocked_one_is_bounded_not_dropped(self):
        # a = 15, beta y = 1e-50, eps = 1e-60: where the kernel reads Q1 = 1, P1 ~ 1.4e-49
        # b^2/2 outweighs q b^2/2. Dropped, it let t_star 5.2e-19 reach P_out 1.5e-59
        mu_sq = 2.0 * ETA_28GHZ / 225.0
        sc = make_scenario([(0.0, -0.5)], dx=1.0, dy=1.0, dv=1.0, beta=8e-51, mu_sq=mu_sq,
                           rho=1.0)
        params, eps = sc.channels[0], 1e-60
        sol = solve_outage(sc, OutageSpec.shared(eps, 1))
        assert outage_prob_mp(params, sc.r_sq(0, sol.x_star), sol.t_star) <= eps
        assert outage_prob_mp(params, sc.c[0], sol.meta["bracket_hi"]) > eps  # met nowhere
        assert sol.t_star == pytest.approx(3.473e-20, rel=1e-3)


class TestWorstUserFinish:
    """x_star comes from bisection on x toward the user with the smallest root."""

    def test_no_grid_point_beats_t_star(self):
        rng = np.random.Generator(np.random.Philox(51))
        for n_users in (2, 4, 8):
            sc, spec = heterogeneous_drop(rng, n_users)
            sol = solve_outage(sc, spec)
            for x in np.linspace(sol.feasible.lo, sol.feasible.hi, 201):
                assert sol.t_star >= max_threshold_at(sc, spec, float(x)) * (1.0 - 2e-12)

    def test_one_objective_call_per_halving(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(52))
        sc = random_scenario(rng, 8)
        calls = 0
        real = outage._min_threshold

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(outage, "_min_threshold", counted)
        sol = solve_outage(sc, OutageSpec.shared(0.1, 8))
        lo, hi = sol.feasible.lo, sol.feasible.hi
        xtol = 1e-13 * max(abs(lo), abs(hi), 1.0)
        assert calls <= math.ceil(math.log2((hi - lo) / xtol)) + 2

    @pytest.mark.parametrize("user_xy, binding", [
        ([(8.0, 3.0), (20.0, -3.0)], (0, 1)),
        ([(12.0, 3.0)], (0,)),
    ])
    def test_binding_users(self, user_xy, binding):
        spec = OutageSpec.shared(0.1, len(user_xy))
        assert solve_outage(make_scenario(user_xy), spec).meta["binding"] == binding


class TestFixedOutageBaseline:
    def test_position(self):
        sc = make_scenario([(10.0, 5.0), (25.0, -2.0)], dx=30.0)
        spec = OutageSpec.shared(0.1, 2)
        sol = fixed_antenna_outage_baseline(sc, spec)
        assert sol.x_star == 15.0
        assert sol.t_star == pytest.approx(max_threshold_at(sc, spec, 15.0), rel=1e-12)

    def test_centered_user_matches_solver(self):
        sc = make_scenario([(15.0, 0.0)], dx=30.0)
        spec = OutageSpec.shared(0.1, 1)
        assert fixed_antenna_outage_baseline(sc, spec).t_star == pytest.approx(
            solve_outage(sc, spec).t_star, rel=1e-6
        )

    def test_never_beats_solver(self):
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(10):
            sc = random_scenario(rng, 2)
            spec = OutageSpec.shared(0.1, 2)
            assert solve_outage(sc, spec).t_star >= \
                fixed_antenna_outage_baseline(sc, spec).t_star * (1.0 - 1e-12)

    def test_more_blockage_lowers_baseline(self):
        users = [(10.0, 5.0), (25.0, -2.0)]
        spec = OutageSpec.shared(0.1, 2)
        low = fixed_antenna_outage_baseline(make_scenario(users, beta=0.004), spec)
        high = fixed_antenna_outage_baseline(make_scenario(users, beta=0.008), spec)
        assert high.t_star < low.t_star


def _independent_root(params, y, epsilon):
    """Largest t with ccdf(y, t) >= 1 - epsilon: doubling bracket, then bisection to 1e-14."""
    target = 1.0 - epsilon
    hi = 1.0
    while ccdf_inst_snr(params, y, hi) >= target:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if ccdf_inst_snr(params, y, mid) >= target:
            lo = mid
        else:
            hi = mid
    return lo


def _oracle_ccdf(params, y, t):
    """The CCDF mixture with Q1 from the quadrature oracle."""
    mu = math.sqrt(params.mu_sq)
    a = math.sqrt(2.0 * params.eta) / mu
    b = math.sqrt(2.0 * y * t / params.rho) / mu
    p_los = math.exp(-params.beta * y)
    return p_los * marcum_q1_quad(a, b) + (1.0 - p_los) * math.exp(-t * y / (params.rho * params.mu_sq))


class TestPrunedObjective:
    """max_threshold_at bisects only the binding users; it must match the min of all roots."""

    @pytest.mark.parametrize("n_users", [1, 2, 3, 8, 16])
    def test_matches_min_of_independent_roots(self, n_users):
        rng = np.random.Generator(np.random.Philox(40 + n_users))
        for trial in range(4):
            sc, spec = heterogeneous_drop(rng, n_users)
            x_pin = float(rng.uniform(0.0, sc.dx))
            ys = [(u.x - x_pin) ** 2 + u.y ** 2 + sc.dv ** 2 for u in sc.users]
            reference = min(_independent_root(sc.channels[m], ys[m], spec.epsilons[m])
                            for m in range(n_users))
            t = max_threshold_at(sc, spec, x_pin)
            assert t == pytest.approx(reference, rel=2e-12, abs=0.0)
            if trial == 0:
                # quadrature-oracle CCDF: every user meets its target at t, to the
                # oracle's 1e-12 accuracy plus the package's Q1 error
                for m in range(n_users):
                    assert _oracle_ccdf(sc.channels[m], ys[m], t) >= 1.0 - spec.epsilons[m] - 1e-9

    def test_bisects_only_the_binding_user(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(48))
        sc = random_scenario(rng, 32)
        spec = OutageSpec.shared(0.1, 32)
        x_pin = 0.5 * sc.dx
        calls = 0
        real = outage.outage_prob

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(outage, "outage_prob", counted)
        root_calls = 0
        for m in range(32):
            calls = 0
            y = sc.r_sq(m, x_pin)
            outage._threshold_root(sc.channels[m], y, 0.1)
            root_calls = max(root_calls, calls)
        calls = 0
        max_threshold_at(sc, spec, x_pin)
        # one full root for the farthest user (it binds under shared channels)
        # and one check for each other user; a min of 32 roots costs ~32 roots
        assert calls <= 3 * root_calls + 32


class TestWarmStart:
    """The root finder every outage root shares, the closed-form brackets the
    inversions start from, and the finish's start inside the certified bracket."""

    @pytest.mark.parametrize("drop", [beta0_drop, heterogeneous_drop], ids=lambda f: f.__name__)
    def test_bounds_do_not_depend_on_probe_order(self, drop):
        # at beta = 0 no root saturates, so every inversion runs _bracket_root, whose last
        # bits depend on the bracket it starts from: that must not come from earlier probes.
        # Each bound is also a certificate: y meets the target and y + width misses it
        rng = np.random.Generator(np.random.Philox(64))
        for _ in range(20):
            sc, spec = drop(rng, 4)
            levels = [float(t) for t in solve_outage(sc, spec).t_star * np.geomspace(0.8, 1.25, 12)]
            pairs = []
            for order in (levels, levels[::-1], [levels[i] for i in rng.permutation(12)]):
                bound = outage._outage_bound(sc, spec.epsilons)
                pairs.append({(m, t): bound(m, t) for t in order for m in range(sc.n_users)})
            assert pairs[0] == pairs[1] == pairs[2]
            for (m, t), pair in pairs[0].items():
                y_min, y_max = sc.c[m], sc.y_max[m]
                y = invert_ccdf(sc.channels[m], t, spec.epsilons[m], y_min, y_max)
                if y is None:
                    assert pair is None
                    assert outage.outage_prob(sc.channels[m], y_min, t) > spec.epsilons[m]
                    continue
                outer = y + outage._INVERSION_REL_TOL * min(y_min, y_max - y_min)
                assert pair == ((y, outer) if outer < y_max else
                                (y if y < y_max else math.inf, math.inf))
                assert outage.outage_prob(sc.channels[m], y, t) <= spec.epsilons[m]
                if outer < y_max:
                    assert outage.outage_prob(sc.channels[m], outer, t) > spec.epsilons[m]

    @pytest.mark.parametrize("steps, root_step, width", [
        (7, 4, 1e-12), (1000, 1, 1e-9), (1000, 999, 1e-9), (3, 1, 1e-15),
    ])
    def test_bracket_root_costs_at_most_twice_bisection(self, steps, root_step, width):
        # a staircase with one huge drop at the root: regula falsi alone crawls
        def g(x):
            nonlocal calls
            calls += 1
            k = math.floor(steps * x)
            return 1e-3 * (root_step - k) if k < root_step else -1e3 * (k - root_step + 1)

        calls = 0
        lo, hi = outage._bracket_root(g, 0.0, g(0.0), 1.0, g(1.0), width)
        assert calls - 2 <= 2 * math.ceil(math.log2(1.0 / width)) + 4
        assert hi - lo <= width
        assert lo <= root_step / steps <= hi
        assert g(lo) >= 0.0 > g(hi)

    def test_bracket_root_bisects_when_both_ends_read_zero(self):
        # g_lo = 0 and g_hi = -5e-324, which the Illinois rule halves to -0.0:
        # the regula falsi step would be 0 / 0
        def g(x):
            nonlocal calls
            calls += 1
            return 0.0 if x < 0.9 else -5e-324

        calls = 0
        lo, hi = outage._bracket_root(g, 0.0, 0.0, 1.0, -5e-324, 1e-12)
        assert lo < 0.9 <= hi and hi - lo <= 1e-12
        assert calls <= 2 * math.ceil(math.log2(1e12)) + 4

    @pytest.mark.parametrize("shape", ["step", "staircase", "log"])
    def test_bracket_root_is_bounded_over_hundreds_of_binades(self, shape):
        # [1e-150, 1e250] spans 1 329 binades: midpoints in the arithmetic order
        # cost about one evaluation per binade the root lies below hi
        def g(x):
            nonlocal calls
            calls += 1
            if shape == "log":
                return math.log(root) - math.log(x)
            up, down = (1.0, -1.0) if shape == "step" else (1e-3, -1e3)
            return up if x <= root else down

        lo0, hi0 = 1e-150, 1e250
        for root in (3e-150, 4.7e-40, 1e100, 6e249):
            for width in (1e-9 * lo0, 1e-12 * root, 0.0):
                calls = 0
                lo, hi = outage._bracket_root(g, lo0, g(lo0), hi0, g(hi0), width)
                assert calls - 2 <= 130
                assert g(lo) >= 0.0 > g(hi)
                assert hi - lo <= width or hi == math.nextafter(lo, math.inf)

    def test_outage_roots_stay_bounded_where_brackets_span_hundreds_of_binades(self,
                                                                               monkeypatch):
        # levels near 1e-47 on a 6.45e109 m region: an inversion's bracket spans
        # about 1 100 binades of r^2, where arithmetic midpoints took up to 92 592
        # evaluations in one root. At beta = 0 no root saturates, so every one runs
        # _bracket_root, on its Bessel-band lanes
        runs, real = [], outage._bracket_root

        def counted(g, *args):
            calls = 0

            def g_counted(x):
                nonlocal calls
                calls += 1
                return g(x)

            try:
                return real(g_counted, *args)
            finally:
                runs.append(calls)

        monkeypatch.setattr(outage, "_bracket_root", counted)
        doc = binade_spanning_doc(np.random.default_rng(278), beta=0.0, epsilon=0.1)
        bundle = parse_scenario_dict(doc)
        sol = solve_outage(bundle.scenario, bundle.outage, bundle.tol)
        fixed = fixed_antenna_outage_baseline(bundle.scenario, bundle.outage)
        assert len(runs) > 2000 and max(runs) <= 130
        assert 0.0 < sol.meta["bracket_lo"] <= sol.t_star <= sol.meta["bracket_hi"]
        assert 0.0 < fixed.t_star <= sol.t_star
        t_opt = shared_channel_optimum(bundle.scenario, bundle.outage).t_star
        assert sol.meta["bracket_lo"] <= t_opt * (1.0 + 2e-12) and t_opt <= sol.meta["bracket_hi"]

    def test_a_joint_optimum_below_the_least_double_is_an_anomaly(self):
        # the same region at beta 4.8e-136 and eps 5.5e-299: each far user needs
        # t ~ 4e-453 at the minimax distance (P_out >= q (-expm1(-k y)) there), so no
        # positive double serves every user. Compared against 1 - eps, this drop
        # reported 4.08e-171, where P_out exceeds eps by a factor of 1e282
        bundle = parse_scenario_dict(binade_spanning_doc(np.random.default_rng(278)))
        with pytest.raises(SolverAnomaly):
            solve_outage(bundle.scenario, bundle.outage, bundle.tol)
        assert shared_channel_optimum(bundle.scenario, bundle.outage).t_star <= 1e-322

    def test_active_set_cuts_ccdf_calls(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(63))
        calls = 0
        real = outage.outage_prob

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(outage, "outage_prob", counted)
        for _ in range(10):
            solve_outage(random_scenario(rng, 32), OutageSpec.shared(0.1, 32))
        # every user probed at every level and checked in the finish took 2 982 CCDF
        # calls here, inverting the dropped users again after the loop 1 068, and
        # Illinois roots on every inversion and threshold 873.2; with the saturated
        # closed forms this takes 108.6 outage_prob calls
        assert calls / 10 < 300

    def test_outage_solve_stays_out_of_the_bessel_band(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(62))
        counts = {"ccdf": 0, "finish band": 0}
        in_finish = False
        real_ccdf, real_min, real_band = (outage.outage_prob, outage._min_threshold,
                                          kernels._marcum_band)

        def ccdf(*args):
            counts["ccdf"] += 1
            return real_ccdf(*args)

        def objective(*args):
            nonlocal in_finish
            in_finish = True
            try:
                return real_min(*args)
            finally:
                in_finish = False

        def band(*args):
            counts["finish band"] += in_finish
            return real_band(*args)

        monkeypatch.setattr(outage, "outage_prob", ccdf)
        monkeypatch.setattr(outage, "_min_threshold", objective)
        monkeypatch.setattr(kernels, "_marcum_band", band)
        for _ in range(5):
            counts["ccdf"] = 0
            solve_outage(random_scenario(rng, 8), OutageSpec.shared(0.1, 8))
            # bisection from cold brackets took about 4 800 CCDF calls here
            assert counts["ccdf"] <= 1500
        # the finish starts each root inside the certified bracket, far from the band
        assert counts["finish band"] == 0


def test_q1_series_runs_only_inside_the_saturation_gap(monkeypatch):
    # heterogeneous links have a ~ 17-37: a lane with |a - b| >= 14 is 0 or 1 to
    # 3e-43 and must not sum the series' hundreds of Poisson terms
    lanes, real = [], kernels._marcum_series

    def series(a, b):
        lanes.append((a, b))
        return real(a, b)

    monkeypatch.setattr(kernels, "_marcum_series", series)
    rng = np.random.Generator(np.random.Philox(63))
    for n_users in (2, 2, 8, 32):
        solve_outage(*heterogeneous_drop(rng, n_users))
    grid_search_outage(*heterogeneous_drop(rng, 8), 101, 41)
    assert lanes
    assert all(abs(a - b) < kernels.SATURATION_GAP and a * b <= kernels.LINEAR_AB_LIMIT
               for a, b in lanes)
