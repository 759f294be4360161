import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from pinchopt import (
    McConfig,
    OutageSpec,
    SolverTolerances,
    UnsupportedScenario,
    ccdf_inst_snr,
    estimate_avg_snr,
    estimate_ccdf_curve,
    f_scalar,
    fixed_antenna_baseline,
    grid_search_maxmin,
    grid_search_outage,
    max_threshold_at,
    shared_channel_optimum,
    solve_maxmin,
    solve_outage,
)
from pinchopt import montecarlo
from pinchopt.model import snr_std
from pinchopt.montecarlo import _draw_snr, outage_grid_ceiling

from conftest import heterogeneous_drop, make_params, make_scenario, random_scenario
from oracles import mixture_batches_reference, snr_samples_reference

CFG = McConfig(samples=200_000, seed=42)


def _channel_power(params, r_sq, rng, size):
    """|h|^2 draws of the composite channel: the sampler at rho = 1."""
    return _draw_snr(params, r_sq, rng, size, 0.0, rho=1.0)


def _estimate_ccdf(params, r_sq, t, cfg):
    return estimate_ccdf_curve(params, r_sq, [t], cfg)[0]


# three batches, the last one ragged
RAGGED_BATCH, RAGGED_SIZES = 4000, (4000, 4000, 2001)


def _reference_batches(params, r_sq, seed, x_pin):
    """The sampler's per-batch stream, drawn and mapped on fresh arrays."""
    consts = montecarlo._channel_constants(params, r_sq, x_pin)
    return mixture_batches_reference(seed, RAGGED_SIZES, *consts, params.rho)


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=0)
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [("samples", True), ("samples", 1e5),
                                              ("samples", np.float64(10.0)), ("seed", False),
                                              ("seed", 1.5), ("seed", "3")])
    def test_rejects_bool_and_non_integral(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            McConfig(**{field: value})

    def test_accepts_python_and_numpy_ints(self):
        cfg = McConfig(samples=np.int64(10), seed=np.uint32(3))
        assert estimate_avg_snr(make_params(), 150.0, cfg) == \
            estimate_avg_snr(make_params(), 150.0, McConfig(samples=10, seed=3))


class TestSampleChannelPower:
    """The sampler's |h|^2 draws (_draw_snr at rho = 1)."""

    def test_pure_los_deterministic(self):
        # certain LoS and vanishing NLoS power: |h|^2 -> eta / r^2
        params = make_params(beta=0.0, mu_sq=1e-30)
        rng = np.random.Generator(np.random.Philox(1))
        values = _channel_power(params, 150.0, rng, 1000)
        np.testing.assert_allclose(values, params.eta / 150.0, rtol=1e-3)

    def test_blocked_is_exponential(self):
        # forced gamma = 0: |h|^2 exponential with mean mu^2 / r^2
        params = make_params(beta=1.0)  # p_los = e^-150 ~ 0
        rng = np.random.Generator(np.random.Philox(2))
        values = _channel_power(params, 150.0, rng, 400_000)
        mean = params.mu_sq / 150.0
        assert values.mean() == pytest.approx(mean, rel=0.01)
        # exponential variance = mean^2; sample-variance std err ~ mean^2 sqrt(8/n)
        assert abs(values.var() - mean * mean) <= 5.0 * mean * mean * math.sqrt(8.0 / values.size)

    def test_mean_matches_formula(self):
        params = make_params(beta=0.01)
        rng = np.random.Generator(np.random.Philox(4))
        values = params.rho * _channel_power(params, 150.0, rng, 500_000)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - f_scalar(params, 150.0)) <= 3.0 * se

    @pytest.mark.parametrize("beta, r_sq", [(0.0, 150.0), (0.01, 100.0), (0.01, 300.0),
                                             (0.029, 110.0)])
    def test_second_moment_matches_variance_formula(self, beta, r_sq):
        # E[snr^2] = Var + f^2, against the mean of squares of the sampler's draws
        params = make_params(beta=beta)
        rng = np.random.Generator(np.random.Philox(5))
        squares = _draw_snr(params, r_sq, rng, 400_000, 0.0, params.rho) ** 2
        se = squares.std(ddof=1) / math.sqrt(squares.size)
        expected = snr_std(params, r_sq) ** 2 + f_scalar(params, r_sq) ** 2
        assert abs(squares.mean() - expected) <= 4.0 * se


def _as_modeled(params, r_sq, x_pin, n, seed):
    """n draws of the composite channel as modeled: a Bernoulli LoS gate and two
    normals on every lane."""
    rng = np.random.Generator(np.random.Philox(seed))
    u, z_re, z_im = rng.random(n), rng.standard_normal(n), rng.standard_normal(n)
    consts = montecarlo._channel_constants(params, r_sq, x_pin)
    return snr_samples_reference(u, z_re, z_im, *consts, params.rho)


def _assert_same_law(draws, reference, quantiles=25, family_alpha=1e-4):
    """Two-sample checks of the CCDF at quantiles of the reference (binomial error
    bars) and of the mean (CLT error bars), each at a Bonferroni z for the family."""
    z_max = stats.norm.isf(family_alpha / (2.0 * (quantiles + 1)))
    n1, n2 = draws.size, reference.size
    ts = np.quantile(reference, np.linspace(0.02, 0.98, quantiles))
    for t in ts:
        p1, p2 = np.count_nonzero(draws >= t) / n1, np.count_nonzero(reference >= t) / n2
        pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
        assert abs(p1 - p2) <= z_max * se, f"CCDF at {t}: {p1} vs {p2}"
    se = math.sqrt(draws.var(ddof=1) / n1 + reference.var(ddof=1) / n2)
    assert abs(draws.mean() - reference.mean()) <= z_max * se


class TestMixtureSampler:
    """The sampler draws the LoS count, then each branch: the same law as a
    Bernoulli gate and two normals on every lane."""

    # certain LoS (k = n), two mixtures, NLoS-dominated, and k ~ 0 (p_LoS = e^-150)
    @pytest.mark.parametrize("beta, r_sq, x_pin", [(0.0, 150.0, 0.0), (0.004, 150.0, 7.3),
                                                   (0.01, 300.0, 3.0), (0.03, 110.0, 20.0),
                                                   (1.0, 150.0, 0.0)])
    def test_matches_as_modeled_law(self, beta, r_sq, x_pin):
        params = make_params(beta=beta)
        rng = np.random.Generator(np.random.Philox(21))
        draws = _draw_snr(params, r_sq, rng, 1_000_000, x_pin, params.rho)
        _assert_same_law(draws, _as_modeled(params, r_sq, x_pin, 1_000_000, 22))

    def test_one_sample_batches(self):
        params = make_params(beta=0.004)  # p_LoS = 0.55 at r^2 = 150
        rng = np.random.Generator(np.random.Philox(23))
        draws = np.concatenate([_draw_snr(params, 150.0, rng, 1, 7.3, params.rho)
                                for _ in range(20_000)])
        _assert_same_law(draws, _as_modeled(params, 150.0, 7.3, 1_000_000, 24))

    def test_underflowing_los_probability(self):
        params = make_params(beta=10.0)
        assert montecarlo._channel_constants(params, 150.0, 0.0)[0] == 0.0
        rng = np.random.Generator(np.random.Philox(25))
        draws = _draw_snr(params, 150.0, rng, 1_000_000, 0.0, params.rho)
        _assert_same_law(draws, _as_modeled(params, 150.0, 0.0, 1_000_000, 26))


class TestEstimateAvgSnr:
    def test_matches_analytic(self):
        params = make_params(beta=0.01)
        est = estimate_avg_snr(params, 150.0, CFG)
        assert abs(est.mean - f_scalar(params, 150.0)) <= 3.0 * est.std_error

    def test_deterministic_channel_has_zero_error(self):
        params = make_params(beta=0.0, mu_sq=1e-30)
        est = estimate_avg_snr(params, 200.0, McConfig(samples=10_000, seed=1))
        assert est.mean == pytest.approx(params.rho * params.eta / 200.0, rel=1e-6)
        assert est.std_error <= 1e-9 * est.mean

    def test_seed_determinism(self):
        params = make_params()
        a = estimate_avg_snr(params, 150.0, CFG)
        b = estimate_avg_snr(params, 150.0, CFG)
        assert a == b

    def test_matches_out_of_place_reference_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BATCH", RAGGED_BATCH)
        params = make_params(beta=0.004)
        sums, sq_sums = [], []
        for values in _reference_batches(params, 150.0, 9, 7.3):
            sums.append(np.sum(values))
            sq_sums.append(np.sum(values * values))
        n = sum(RAGGED_SIZES)
        mean = float(np.sum(np.asarray(sums))) / n
        var = max(float(np.sum(np.asarray(sq_sums))) - n * mean * mean, 0.0) / (n - 1)
        est = estimate_avg_snr(params, 150.0, McConfig(samples=n, seed=9), x_pin=7.3)
        assert (est.mean, est.std_error) == (mean, math.sqrt(var / n))

    def test_batch_split_changes_nothing_statistical(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BATCH", 10_000)
        params = make_params()
        small = estimate_avg_snr(params, 150.0, McConfig(samples=100_000, seed=5))
        assert abs(small.mean - f_scalar(params, 150.0)) <= 4.0 * small.std_error

    def test_clt_scaling(self):
        params = make_params()
        one = estimate_avg_snr(params, 150.0, McConfig(samples=100_000, seed=6))
        two = estimate_avg_snr(params, 150.0, McConfig(samples=200_000, seed=6))
        ratio = one.std_error / two.std_error
        assert 1.3 <= ratio <= 1.55

    def test_phase_independence(self):
        params = make_params()
        a = estimate_avg_snr(params, 150.0, CFG, x_pin=0.0)
        b = estimate_avg_snr(params, 150.0, CFG, x_pin=17.3)
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 3.0 * combined


class TestEstimateCcdf:
    def test_hits_match_out_of_place_reference(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BATCH", RAGGED_BATCH)
        params = make_params(beta=0.004)
        batches = list(_reference_batches(params, 150.0, 9, 7.3))
        draws = np.concatenate(batches)
        # quantiles, and sample values themselves, which count as hits (>= t)
        ts = np.concatenate([np.quantile(draws, np.linspace(0.0, 1.0, 21)), draws[:5], [0.0]])
        hits = sum(v.size - np.searchsorted(np.sort(v), ts, side="left") for v in batches)
        n = sum(RAGGED_SIZES)
        curve = estimate_ccdf_curve(params, 150.0, ts, McConfig(samples=n, seed=9), x_pin=7.3)
        assert [est.mean for est in curve] == [int(k) / n for k in hits]
        assert np.count_nonzero((0 < hits) & (hits < n)) >= 20  # the counts are not trivial

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -1e-300])
    def test_rejects_nan_or_negative_threshold(self, bad):
        with pytest.raises(ValueError, match="thresholds must be nonnegative"):
            estimate_ccdf_curve(make_params(), 150.0, [1.0, bad], McConfig(samples=10))

    def test_zero_threshold_exact_one(self):
        est = _estimate_ccdf(make_params(), 150.0, 0.0, McConfig(samples=50_000, seed=7))
        assert est.mean == 1.0
        assert est.std_error > 0.0  # continuity floor keeps the bar positive

    def test_nlos_median(self):
        params = make_params(beta=1.0)  # pure NLoS at r^2 = 150
        t = params.rho * params.mu_sq * math.log(2.0) / 150.0
        est = _estimate_ccdf(params, 150.0, t, CFG)
        assert abs(est.mean - 0.5) <= 3.0 * est.std_error

    def test_plateau_matches_los_probability(self):
        params = make_params(beta=0.01)
        t_mid = 2.0 * params.rho * math.sqrt(params.eta * params.mu_sq) / 150.0
        est = _estimate_ccdf(params, 150.0, t_mid, CFG)
        assert abs(est.mean - math.exp(-0.01 * 150.0)) <= 3.0 * est.std_error

    def test_matches_analytic_formula(self):
        params = make_params(beta=0.004)
        for t in (1e2, 1e3, 3e4):
            est = _estimate_ccdf(params, 150.0, t, CFG)
            assert abs(est.mean - ccdf_inst_snr(params, 150.0, t)) <= 3.0 * est.std_error

    def test_curve_matches_pointwise(self):
        params = make_params()
        ts = [0.0, 1e2, 1e3, 1e4]
        curve = estimate_ccdf_curve(params, 150.0, ts, CFG)
        for t, est in zip(ts, curve):
            single = _estimate_ccdf(params, 150.0, t, CFG)
            assert est == single  # same draws, same counts


class TestGridSearchMaxmin:
    def test_single_user_grid_snaps_to_user(self):
        sc = make_scenario([(12.0, 3.0)], dx=30.0)
        sol = grid_search_maxmin(sc, 3001)
        assert sol.x_star == pytest.approx(12.0, abs=30.0 / 3000)

    def test_refinement_converges_upward(self):
        sc = make_scenario([(4.0, 1.0), (18.0, -3.0), (27.0, 4.0)])
        coarse = grid_search_maxmin(sc, 1_000)
        fine = grid_search_maxmin(sc, 100_000)
        assert fine.t_star >= coarse.t_star - 1e-12
        assert fine.meta["t_slack"] < coarse.meta["t_slack"]

    def test_agrees_with_solver(self):
        rng = np.random.Generator(np.random.Philox(18))
        for _ in range(5):
            sc = random_scenario(rng, 4)
            sol = solve_maxmin(sc)
            grid = grid_search_maxmin(sc, 100_000)
            assert abs(sol.t_star - grid.t_star) / sol.t_star <= 1e-3

    def test_grid_never_beats_continuum(self):
        sc = make_scenario([(4.0, 1.0), (18.0, -3.0)])
        sol = solve_maxmin(sc)
        grid = grid_search_maxmin(sc, 10_000)
        assert grid.t_star <= sol.t_star * (1.0 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_search_maxmin(make_scenario([(1.0, 0.0)]), 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dv", [1e80, 1e150])
    def test_tall_waveguide_slope_does_not_overflow(self, dv):
        # y ~ dv^2, so y * y overflows (numpy warns) and would read the slope as 0.
        # Formed by dividing by y twice, f' ~ 1e4 / y^2 is ~1e-316 at dv 1e80, a
        # double, and ~1e-596 at dv 1e150, which underflows to 0 without a warning
        sc = make_scenario([(4.0, 3.0), (15.0, -4.0), (27.0, 1.0)], dv=dv)
        slack = grid_search_maxmin(sc, 20_001).meta["t_slack"]
        assert slack > 0.0 if dv == 1e80 else slack == 0.0


class TestGridSearchOutage:
    def test_single_user(self):
        sc = make_scenario([(12.0, 3.0)], dx=30.0)
        spec = OutageSpec.shared(0.1, 1)
        sol = grid_search_outage(sc, spec, 3001, 1001)
        assert sol.x_star == pytest.approx(12.0, abs=30.0 / 3000)

    # the reference mu^2, then NLoS-dominated links; on all but (1e-5, 0.1)
    # the LoS ceiling 2 rho eta / y_min still meets the target there
    @pytest.mark.parametrize("mu_sq, epsilon", [(1e-9, 0.1)] + [
        (mu_sq, epsilon) for mu_sq in (1e-5, 1e-4) for epsilon in (0.1, 0.5, 0.99)])
    def test_agrees_with_solver(self, mu_sq, epsilon):
        rng = np.random.Generator(np.random.Philox(19))
        for _ in range(4):
            sc = random_scenario(rng, 2, mu_sq=mu_sq)
            spec = OutageSpec.shared(epsilon, 2)
            sol = solve_outage(sc, spec)
            grid = grid_search_outage(sc, spec, 10_000, 1_000)
            assert grid.t_star <= sol.t_star * (1.0 + 3e-3)
            x_sp, t_sp = grid.meta["x_spacing"], grid.meta["t_spacing"]
            x_near = min(round(sol.x_star / x_sp) * x_sp, sc.dx)
            allowed = (sol.t_star - max_threshold_at(sc, spec, x_near)) + t_sp \
                + 1e-3 * sol.t_star
            assert sol.t_star - grid.t_star <= allowed + 1e-9 * sol.t_star

    @pytest.mark.parametrize("drop", ["hetero-1", "hetero-2", "hetero-8", "nlos-0.1", "nlos-0.5"])
    def test_scan_equals_every_cell(self, drop):
        # the scan evaluates a few cells per position; checking every cell must give
        # the same row and position. Rows run past the ceiling, so the scan stops below the top.
        kind, arg = drop.split("-")
        rng = np.random.Generator(np.random.Philox(31))
        if kind == "hetero":
            sc, spec = heterogeneous_drop(rng, int(arg))
        else:
            sc = random_scenario(rng, 3, mu_sq=1e-5)
            spec = OutageSpec.shared(float(arg), 3)
        t_grid = np.linspace(0.0, 1.5 * outage_grid_ceiling(sc, spec), 31)
        xs = np.linspace(0.0, sc.dx, 41)
        met = np.ones((xs.size, t_grid.size), dtype=bool)
        for m, params in enumerate(sc.channels):
            ys = (sc.users[m].x - xs) ** 2 + sc.c_const(m)
            met &= [[ccdf_inst_snr(params, y, t) >= 1.0 - spec.epsilons[m]
                     for t in t_grid.tolist()] for y in ys.tolist()]
        k_star = np.flatnonzero(met.any(axis=0))[-1]
        x_star = xs[np.flatnonzero(met[:, k_star])[0]]
        sol = grid_search_outage(sc, spec, xs.size, t_grid)
        assert (sol.t_star, sol.x_star) == (t_grid[k_star], x_star)

    def test_vacuous_constraints_reach_grid_top(self):
        sc = make_scenario([(15.0, 0.0)], dx=30.0)
        spec = OutageSpec.shared(0.999, 1)
        ceiling = outage_grid_ceiling(sc, spec)
        sol = grid_search_outage(sc, spec, 501, np.linspace(0.0, 0.5 * ceiling, 101))
        assert sol.t_star == pytest.approx(0.5 * ceiling, rel=1e-12)

    def test_explicit_grid_validation(self):
        sc = make_scenario([(15.0, 0.0)])
        spec = OutageSpec.shared(0.1, 1)
        with pytest.raises(ValueError):
            grid_search_outage(sc, spec, 100, np.array([1.0, 2.0]))  # must start at 0
        with pytest.raises(ValueError):
            grid_search_outage(sc, spec, 1, 100)


def _shared_drop(n_users, seed, beta, snap):
    """Random users on one channel; snap rounds x to whole metres, so users
    share positions and optima sit at vertices more often."""
    rng = np.random.Generator(np.random.Philox(seed))
    xs = rng.uniform(0.0, 30.0, n_users)
    ys = rng.uniform(-5.0, 5.0, n_users)
    return make_scenario(zip(np.rint(xs) if snap else xs, ys), beta=beta)


def _agrees(opt, sol):
    assert abs(opt.t_star - sol.t_star) <= SolverTolerances().eps_t * opt.t_star
    assert sol.feasible.lo - 1e-9 <= opt.x_star <= sol.feasible.hi + 1e-9


_DROPS = dict(seed=st.integers(0, 2**32 - 1), beta=st.floats(0.0, 3e-2), snap=st.booleans())


class TestSharedChannelOptimum:
    @given(n_users=st.integers(1, 128), **_DROPS)
    @settings(max_examples=40, deadline=None)
    def test_matches_maxmin_solver(self, n_users, seed, beta, snap):
        sc = _shared_drop(n_users, seed, beta, snap)
        _agrees(shared_channel_optimum(sc), solve_maxmin(sc))

    @given(n_users=st.integers(1, 32), epsilon=st.floats(0.01, 0.5, exclude_min=True,
                                                          exclude_max=True), **_DROPS)
    @settings(max_examples=15, deadline=None)
    def test_matches_outage_solver(self, n_users, epsilon, seed, beta, snap):
        sc = _shared_drop(n_users, seed, beta, snap)
        spec = OutageSpec.shared(epsilon, n_users)
        _agrees(shared_channel_optimum(sc, spec), solve_outage(sc, spec))

    def test_single_user_sits_at_the_user(self):
        sc = make_scenario([(12.5, 3.0)])
        sol = shared_channel_optimum(sc)
        assert (sol.x_star, sol.meta["alpha_star"]) == (12.5, sc.c_const(0))
        assert sol.t_star == f_scalar(sc.channels[0], sc.c_const(0))

    def test_user_order_changes_nothing(self):
        sc = _shared_drop(16, 3, 0.01, True)
        flipped = make_scenario([(u.x, u.y) for u in reversed(sc.users)])
        spec = OutageSpec.shared(0.1, 16)
        for metric in (None, spec):
            a, b = shared_channel_optimum(sc, metric), shared_channel_optimum(flipped, metric)
            assert (a.t_star, a.x_star, a.meta) == (b.t_star, b.x_star, b.meta)

    def test_both_metrics_share_the_position(self):
        sc = _shared_drop(8, 5, 0.01, False)
        avg = shared_channel_optimum(sc)
        out = shared_channel_optimum(sc, OutageSpec.shared(0.1, 8))
        assert out.x_star == avg.x_star
        assert out.meta["alpha_star"] == avg.meta["alpha_star"]

    def test_unequal_targets_are_unsupported(self):
        sc = make_scenario([(5.0, 0.0), (15.0, 1.0), (25.0, 2.0)])
        named = r"^outage\.epsilons\[2\] differs from epsilons\[0\]$"
        with pytest.raises(UnsupportedScenario, match=named):
            shared_channel_optimum(sc, OutageSpec((0.1, 0.1, 0.2)))


class TestDominance:
    def test_grid_oracle_confirms_pinching_gain(self):
        rng = np.random.Generator(np.random.Philox(20))
        sc = random_scenario(rng, 4, dx=40.0)
        assert grid_search_maxmin(sc, 20_000).t_star >= \
            fixed_antenna_baseline(sc).t_star * (1.0 - 1e-12)
