"""Checks of the benchmark's answer oracle.

Run from the repository root:

    python3 -m pytest -q perfbench/test_oracle.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import oracle  # noqa: E402
import oracles  # noqa: E402  (the test suite's quadrature references)
import workloads  # noqa: E402

A_REF = 38.1  # sqrt(2 eta) / mu at the reference setup

# (a, b) per Marcum regime of kernels.py: linear series, Bessel band,
# saturated at 0 or 1, and the a = 0 / b = 0 edges.
REGIME_CASES = {
    "series": [(0.5, 0.2), (3.0, 3.5), (5.0, 0.01), (10.0, 12.0)],
    "band": [(20.0, 22.0), (A_REF, 30.0), (A_REF, 40.0), (A_REF, 46.0)],
    "saturated": [(A_REF, 20.0), (A_REF, 60.0), (30.0, 1.0)],
    "edge": [(0.0, 1.0), (1.0, 0.0), (A_REF, 1e-5)],
}


@pytest.mark.parametrize("regime", sorted(REGIME_CASES))
def test_marcum_matches_quadrature(regime):
    for a, b in REGIME_CASES[regime]:
        assert float(oracle.marcum_q1(a, b)) == pytest.approx(
            oracles.marcum_q1_quad(a, b), abs=1e-12), (a, b)


def _drop(rng, n_users, epsilon=None):
    return workloads._doc(rng, n_users, epsilon)


def _maxmin_optimum(users):
    """Max-min average SNR by bounded Brent search (quasiconcave objective)."""
    worst = lambda x: -float(np.min(oracle.avg_snr(users, (users.x - x) ** 2 + users.c)))
    best = minimize_scalar(worst, bounds=(0.0, users.dx), method="bounded",
                           options={"xatol": 1e-10})
    return -best.fun, best.x


@pytest.mark.parametrize("seed", range(5))
def test_avg_snr_check_accepts_optimum_and_rejects_controls(seed):
    users = oracle.users_from_doc(_drop(np.random.default_rng(seed), 6))
    t_opt, x_opt = _maxmin_optimum(users)
    assert oracle.check_solution(users, "avg-snr", t_opt, x_opt, 1e-3)[0]
    assert not oracle.check_solution(users, "avg-snr", t_opt * 1.01, x_opt, 1e-3)[0]
    # A level 1 % below the optimum leaves room for t * (1 + eps_t).
    assert not oracle.check_solution(users, "avg-snr", t_opt * 0.99, x_opt, 1e-3)[0]


@pytest.mark.parametrize("seed", range(3))
def test_outage_check_accepts_optimum_and_rejects_controls(seed):
    users = oracle.users_from_doc(_drop(np.random.default_rng(seed), 4, epsilon=0.1))
    t_opt = float(oracle.optimum_outage(users))
    t = t_opt * (1.0 - 1e-7)
    half = np.sqrt(oracle.reach(users, "outage", t) - users.c)
    x = 0.5 * (max(np.max(users.x - half), 0.0) + min(np.min(users.x + half), users.dx))
    assert oracle.check_solution(users, "outage", t, x, 1e-3)[0]
    assert not oracle.check_solution(users, "outage", t * 1.01, x, 1e-3)[0]
    assert not oracle.check_solution(users, "outage", t * 0.99, x, 1e-3)[0]


def test_sweep_mean_bounds():
    t_opt = np.array([1.0, 2.0, 3.0])
    assert oracle.check_sweep_mean(t_opt, 2.0, 1e-3)[0]
    assert oracle.check_sweep_mean(t_opt, 2.0 / 1.001, 1e-3)[0]
    assert not oracle.check_sweep_mean(t_opt, 2.0 * 1.01, 1e-3)[0]
    assert not oracle.check_sweep_mean(t_opt, 2.0 / 1.01, 1e-3)[0]


def test_sweep_drop_positions_match_the_cli():
    from pinchopt import cli
    from pinchopt.scenario_io import parse_scenario_dict

    sweep = workloads.OutageSweep(drops=3, pool=1)
    doc = _drop(np.random.default_rng(0), 1, epsilon=0.1)
    bundle = parse_scenario_dict(json.loads(json.dumps(doc)))
    expected = sweep.drop_positions(1234)
    for drop in range(sweep.drops):
        scenario, _ = cli._drop_scenario(bundle, {"m": sweep.users}, (1234, 0, drop), True)
        got = np.array([[u.x, u.y] for u in scenario.users])
        np.testing.assert_array_equal(got, expected[drop])


def test_ccdf_check_rejects_wrong_eta():
    doc = _drop(np.random.default_rng(3), 1)
    users = oracle.users_from_doc(doc)
    wrong = replace(users, eta=users.eta * 1.5)
    y = 150.0
    ts = np.linspace(0.0, 2.0 * float(users.rho[0] * users.eta[0]) / y, 40)
    exact = oracle.ccdf(users, y, ts)
    assert oracle.check_ccdf_rows(users, y, ts, exact, exact, 200_000)[0]
    off = oracle.ccdf(wrong, y, ts)
    assert not oracle.check_ccdf_rows(users, y, ts, off, exact, 200_000)[0]


def test_ccdf_check_rejects_wrong_monte_carlo_column():
    """The analytic column is exact, so only the Monte-Carlo check can fail."""
    doc = _drop(np.random.default_rng(4), 1)
    users = oracle.users_from_doc(doc)
    y = 150.0
    ts = np.linspace(0.0, 2.0 * float(users.rho[0] * users.eta[0]) / y, 40)
    exact = oracle.ccdf(users, y, ts)
    wrong_eta = oracle.ccdf(replace(users, eta=users.eta * 1.5), y, ts)
    ok, reason = oracle.check_ccdf_rows(users, y, ts, exact, wrong_eta, 200_000)
    assert not ok and reason.startswith("Monte-Carlo"), reason
    shifted = np.append(exact[1:], exact[-1])
    ok, reason = oracle.check_ccdf_rows(users, y, ts, exact, shifted, 200_000)
    assert not ok and reason.startswith("Monte-Carlo"), reason
