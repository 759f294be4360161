"""Both solvers on heterogeneous drops: an independent binding-pair oracle,
and two transformations the model leaves exact."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchopt import Scenario, SolverTolerances, UserPosition, solve_maxmin, solve_outage

from conftest import heterogeneous_drop
from oracles import pair_optimum

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
