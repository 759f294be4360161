"""Both solvers on heterogeneous drops: an independent binding-pair oracle,
and two transformations the model leaves exact."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchopt import (OutageSpec, Scenario, SolverTolerances, UserPosition,
                      fixed_antenna_outage_baseline, solve_maxmin, solve_outage)

from conftest import heterogeneous_drop, make_params
from oracles import beta0_envelope_optimum, marcum_q1_mp, pair_optimum

# t_star's distance from the exact optimum: the max-min finish ends within
# 1e-13 * dx of the argmax, and the outage one also carries the threshold
# roots' 1e-12 relative width (2.0e-13 and 9.8e-13 the most seen on 200 drops each)
REL_GAP = {"avg-snr": 1e-12, "outage": 1e-11}

drops = st.fixed_dictionaries({
    "metric": st.sampled_from(sorted(REL_GAP)),
    "n_users": st.sampled_from([2, 4, 8, 16]),
    "seed": st.integers(0, 2**32 - 1),
})


def _drop(seed, n_users):
    return heterogeneous_drop(np.random.Generator(np.random.Philox(seed)), n_users)


def _solve(metric, scenario, spec, eps_t=1e-3):
    tol = SolverTolerances(eps_t=eps_t)
    return solve_maxmin(scenario, tol) if metric == "avg-snr" else solve_outage(scenario, spec, tol)


class TestBindingPair:
    """Solving on a subset of the users relaxes the problem, so the optimum
    over meta["binding"] bounds the global one from above: t_star within
    REL_GAP of it certifies t_star, and the certified bracket must hold it."""

    @given(drop=drops, eps_t=st.sampled_from([1e-3, 1e-9]))
    @settings(max_examples=80, deadline=None)
    def test_t_star_is_the_optimum_over_the_binding_users(self, drop, eps_t):
        metric = drop["metric"]
        sc, spec = _drop(drop["seed"], drop["n_users"])
        sol = _solve(metric, sc, spec, eps_t)
        t_pair, _ = pair_optimum(sc, sol.meta["binding"], spec if metric == "outage" else None)
        assert abs(sol.t_star - t_pair) <= REL_GAP[metric] * t_pair
        assert sol.meta["bracket_lo"] <= t_pair <= sol.meta["bracket_hi"]

    @pytest.mark.parametrize("metric", sorted(REL_GAP))
    def test_one_binding_user_is_met_at_its_vertex(self, metric):
        # the pair oracle on one user is that user's best value, at its own x
        sc, spec = _drop(3, 1)
        sol = _solve(metric, sc, spec)
        t_pair, x_pair = pair_optimum(sc, (0,), spec if metric == "outage" else None)
        assert sol.meta["binding"] == (0,) and x_pair == sc.users[0].x
        assert abs(sol.t_star - t_pair) <= REL_GAP[metric] * t_pair


class TestMetamorphic:
    """Transformations that map the optimum onto a known one."""

    @given(drop=drops)
    @settings(max_examples=80, deadline=None)
    def test_mirror_keeps_the_level_and_the_binding_users(self, drop):
        metric = drop["metric"]
        sc, spec = _drop(drop["seed"], drop["n_users"])
        mirrored = Scenario(dx=sc.dx, dy=sc.dy, dv=sc.dv, channels=sc.channels,
                            users=tuple(UserPosition(sc.dx - u.x, u.y) for u in sc.users))
        sol, image = _solve(metric, sc, spec), _solve(metric, mirrored, spec)
        assert abs(image.t_star - sol.t_star) <= 1e-11 * sol.t_star
        assert image.meta["binding"] == sol.meta["binding"]

    @given(drop=drops, k=st.integers(-20, 20))
    @settings(max_examples=80, deadline=None)
    def test_scaling_every_rho_by_a_power_of_two_scales_t_star_exactly(self, drop, k):
        # f and the CCDF's b^2 = 2 y t / (rho mu^2) see only t / rho: every
        # comparison the solvers make is the same, so t_star scales bit for bit
        metric = drop["metric"]
        sc, spec = _drop(drop["seed"], drop["n_users"])
        scaled = replace(sc, channels=tuple(replace(p, rho=math.ldexp(p.rho, k))
                                            for p in sc.channels))
        assert _solve(metric, scaled, spec).t_star == math.ldexp(_solve(metric, sc, spec).t_star, k)


def _log_uniform_targets(rng, n_users, lo, hi):
    return OutageSpec(epsilons=tuple(10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n_users)))


class TestFixedBaseline:
    @pytest.mark.parametrize("lo, hi, drops", [(1e-12, 0.5, 200), (1e-300, 1e-12, 100)])
    def test_pinching_never_falls_below_the_fixed_antenna_at_small_targets(self, lo, hi, drops):
        # the antenna may sit at dx/2, so the optimum is at least the fixed baseline's
        # level; compared against 1 - eps, targets below about 1e-16 lost it by up to 80 %
        rng = np.random.Generator(np.random.Philox(808))
        for n_users in (2, 3, 5, 8) * (drops // 4):
            sc, _ = heterogeneous_drop(rng, n_users)
            spec = _log_uniform_targets(rng, n_users, lo, hi)
            sol, fixed = solve_outage(sc, spec), fixed_antenna_outage_baseline(sc, spec)
            assert sol.t_star >= fixed.t_star, (n_users, spec.epsilons)


class TestOutageOracles:
    """The oracles' outage probabilities against the 50-digit Q1 complement, at the
    smallest targets the tests use."""

    def test_pair_optimum_meets_its_target_to_the_last_digits(self):
        rng = np.random.Generator(np.random.Philox(809))
        sc, _ = heterogeneous_drop(rng, 1)
        p, user = sc.channels[0], sc.users[0]
        y = user.y ** 2 + sc.dv ** 2  # the user's vertex, where the pair oracle puts it
        a = math.sqrt(2.0 * p.eta / p.mu_sq)
        for eps in (1e-12, 1e-3):
            t, x = pair_optimum(sc, (0,), OutageSpec(epsilons=(eps,)))
            s = t * y / (p.rho * p.mu_sq)
            p_los = math.exp(-p.beta * y)
            p_out = (p_los * marcum_q1_mp(a, math.sqrt(2.0 * s), complement=True)
                     - (1.0 - p_los) * math.expm1(-s))
            assert x == user.x and p_out == pytest.approx(eps, rel=1e-10)

    @pytest.mark.parametrize("a", [8.5, 170.0])  # beta0_drop's least and largest a
    def test_beta0_envelope_takes_its_radius_from_the_outage_probability(self, a):
        # b*^2 = ncx2.ppf(eps, 2, a^2) at beta0_drop's least target and below it
        # rho = mu^2 = 1, so b^2 = 2 y t with y = dv^2 = 1 at the user's vertex
        sc = Scenario(dx=1.0, dy=1.0, dv=1.0, users=(UserPosition(0.5, 0.0),),
                      channels=(make_params(beta=0.0, rho=1.0, mu_sq=1.0, eta=0.5 * a * a),))
        for eps in (1e-12, 0.01):
            t, _ = beta0_envelope_optimum(sc, OutageSpec(epsilons=(eps,)))
            assert marcum_q1_mp(a, math.sqrt(2.0 * t), complement=True) == pytest.approx(eps, rel=1e-10)
