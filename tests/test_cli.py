"""CLI checks through ``cli.main(argv)``, in process."""

import argparse
import concurrent.futures
import contextlib
import io
import json
import math
import re
import tempfile
import time
from dataclasses import replace
from datetime import timedelta
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pinchopt import SolverTolerances, cli, kernels, load_scenario, montecarlo, shared_channel_optimum

from conftest import binade_spanning_doc

# Reference setup (scenario_io.DEFAULTS); no lane of the outage CCDF is in
# the linear Marcum series region there.
TWO_USERS = {
    "schema": 1,
    "region": {"dx": 30.0, "dy": 10.0, "dv": 10.0},
    "users": [{"x": 6.0, "y": 2.0}, {"x": 21.0, "y": -3.0}],
}


# One channel for every user, with a shared outage target: the shapes on
# which shared-channel-optimum-vs-solvers checks the scenario's own users.
SHARED_DOCS = {
    "one-user": dict(TWO_USERS, users=[{"x": 12.0, "y": 2.0}], outage={"epsilon": 0.1}),
    "three-users": dict(TWO_USERS, users=[{"x": 4.0, "y": 3.0}, {"x": 15.0, "y": -4.0},
                                          {"x": 27.0, "y": 1.0}], outage={"epsilon": 0.05}),
}
# The three users at rho ~ 2e-323 (P over sigma^2) and eta ~ 7e-7: rho * eta
# underflows to 0, though neither factor does.
RHO_ETA_UNDERFLOW = dict(SHARED_DOCS["three-users"],
                         defaults={"p_dbm": -1140.0, "noise_dbm": 2086.5, "mu_sq_db": 122.6})
# The same three users with per-user targets: at another user count of a
# sweep's m axis every user would take user 0's.
THREE_TARGETS = dict(SHARED_DOCS["three-users"], outage={"epsilons": [0.05, 0.2, 0.1]})


@pytest.fixture
def two_user_file(tmp_path):
    path = tmp_path / "two_users.json"
    path.write_text(json.dumps(TWO_USERS), encoding="utf-8")
    return path


class TestVerify:
    def test_reference_scenario_passes(self, two_user_file, capsys):
        rc = cli.main(["verify", str(two_user_file), "--samples", "20000"])
        assert rc == cli.EXIT_OK
        assert capsys.readouterr().out.endswith("OK (6/6 checks)\n")

    def test_eta_scale_negative_control_fails(self, two_user_file, tmp_path):
        report = tmp_path / "report.json"
        rc = cli.main(["verify", str(two_user_file), "--samples", "20000",
                       "--eta-scale", "1.5", "--report", str(report)])
        assert rc == cli.EXIT_CHECK_FAILED
        doc = json.loads(report.read_text(encoding="utf-8"))
        failed = {c["name"] for c in doc["checks"] if not c["pass"]}
        # only the analytic-vs-Monte-Carlo checks see the scaled eta
        assert failed == {"avg-snr-formula-vs-mc", "ccdf-formula-vs-mc"}
        assert doc["all_pass"] is False

    def test_rare_los_draws_do_not_fail_a_correct_formula(self, tmp_path, capsys):
        # p_LoS ~ 5e-4 at the midpoint: a 2000-draw sample std error misses the
        # rare LoS draws, so the error bar comes from the analytic variance
        doc = dict(TWO_USERS, defaults={"beta": 0.029},
                   users=[{"x": 3.0, "y": 4.0}, {"x": 27.0, "y": -4.0}])
        rc = cli.main(["verify", _write(tmp_path, doc), "--samples", "2000", "--seed", "4"])
        assert rc == cli.EXIT_OK
        assert "PASS avg-snr-formula-vs-mc" in capsys.readouterr().out

    def test_ccdf_check_holds_its_false_failure_rate_across_users(self, tmp_path, capsys):
        # 16 comparisons, each at 3 sample std errors, failed this correct formula
        # (1.62 of 3); the binomial error bar under a Bonferroni z passes it
        doc = dict(TWO_USERS, defaults={"beta": 0.02875085410014762}, users=[
            {"x": 6.230454, "y": -3.640804}, {"x": 24.853347, "y": 1.890365},
            {"x": 4.478464, "y": 3.417477}, {"x": 15.384138, "y": -0.74491}])
        path = _write(tmp_path, doc)
        assert cli.main(["verify", path, "--samples", "2000", "--seed", "0"]) == cli.EXIT_OK
        assert "PASS ccdf-formula-vs-mc" in capsys.readouterr().out
        report = tmp_path / "report.json"
        rc = cli.main(["verify", path, "--samples", "20000", "--seed", "0",
                       "--eta-scale", "1.5", "--report", str(report)])
        assert rc == cli.EXIT_CHECK_FAILED
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert {c["name"] for c in doc["checks"] if not c["pass"]} == {
            "avg-snr-formula-vs-mc", "ccdf-formula-vs-mc"}

    @pytest.mark.parametrize("shape", sorted(SHARED_DOCS))
    def test_shared_channel_check_at_any_user_count(self, tmp_path, capsys, shape):
        path = _write(tmp_path, SHARED_DOCS[shape])
        assert cli.main(["verify", path, "--samples", "20000"]) == cli.EXIT_OK
        assert "PASS shared-channel-optimum-vs-solvers" in capsys.readouterr().out
        report = tmp_path / "report.json"
        rc = cli.main(["verify", path, "--samples", "20000", "--eta-scale", "1.5",
                       "--report", str(report)])
        assert rc == cli.EXIT_CHECK_FAILED
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert {c["name"] for c in doc["checks"] if not c["pass"]} == {
            "avg-snr-formula-vs-mc", "ccdf-formula-vs-mc"}

    def test_mean_check_holds_its_false_failure_rate_across_users(self, tmp_path, capsys):
        # 64 users: 3 std errors per user, with no correction, failed this correct
        # formula (1.067 of 3); the Bonferroni limit over the 64 comparisons passes it
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(0.0, 30.0, 64), rng.uniform(-5.0, 5.0, 64)
        doc = dict(TWO_USERS, users=[{"x": float(x), "y": float(y)} for x, y in zip(xs, ys)])
        rc = cli.main(["verify", _write(tmp_path, doc), "--samples", "20000", "--seed", "1200"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "PASS avg-snr-formula-vs-mc: " in out and " of 4.10 std errors\n" in out

    def test_both_checks_share_one_bonferroni_limit(self):
        tail = 0.5 * math.erfc(3.0 / math.sqrt(2.0))
        assert cli._bonferroni_z(1) == pytest.approx(3.0, rel=1e-14)
        for n in (4, 12, 256):  # the CCDF check's limit at 4M comparisons, as written inline
            assert cli._bonferroni_z(n) == NormalDist().inv_cdf(1.0 - tail / n)

    def test_subnormal_levels_verify(self, tmp_path, capsys):
        # rho ~ 1e-306: (rho / y)^2 underflows, so an error bar formed from it divided by 0
        doc = dict(SHARED_DOCS["three-users"], defaults={"p_dbm": -3150.0})
        assert cli.main(["verify", _write(tmp_path, doc), "--samples", "2000"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "nan" not in out and "inf" not in out

    def test_grid_check_can_fail_at_subnormal_levels(self, tmp_path, capsys, monkeypatch):
        # a gap relative to max(level, 1e-300) read ~1e-16 at levels ~1e-315, whatever the gap
        grid = montecarlo.grid_search_maxmin

        def halved(scenario, points):
            sol = grid(scenario, points)
            return replace(sol, t_star=0.5 * sol.t_star)

        monkeypatch.setattr(montecarlo, "grid_search_maxmin", halved)
        doc = dict(SHARED_DOCS["three-users"], defaults={"p_dbm": -3150.0})
        assert cli.main(["verify", _write(tmp_path, doc), "--samples", "2000"]) == \
            cli.EXIT_CHECK_FAILED
        assert "FAIL maxmin-bisection-vs-grid: relative gap 5.00e-01" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1e-320"])
    def test_bad_eta_scale_is_invalid_input(self, two_user_file, capsys, value):
        rc = cli.main(["verify", str(two_user_file), "--samples", "1000", "--eta-scale", value])
        assert rc == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: --eta-scale ")

    def test_eta_scale_that_underflows_eta_is_named_before_any_check(self, two_user_file, capsys,
                                                                      monkeypatch):
        # 1e-320 is a positive double, but eta * 1e-320 ~ 7e-327 rounds to 0
        monkeypatch.setattr(cli, "_verify_checks", lambda *args: pytest.fail("a check ran"))
        rc = cli.main(["verify", str(two_user_file), "--samples", "1000", "--eta-scale", "1e-320"])
        assert rc == cli.EXIT_INVALID
        assert capsys.readouterr().err == ("error: --eta-scale 1e-320: users[0] eta * scale = 0.0 "
                                           "is not finite and > 0\n")


def _write(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _csv(path):
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


class TestSolve:
    @pytest.mark.parametrize("metric", ["avg-snr", "outage"])
    def test_solves_reference_scenario(self, tmp_path, metric):
        doc = dict(TWO_USERS, outage={"epsilon": 0.1})
        out = tmp_path / "out.json"
        rc = cli.main(["solve", _write(tmp_path, doc), "--metric", metric, "-o", str(out)])
        assert rc == cli.EXIT_OK
        result = json.loads(out.read_text(encoding="utf-8"))
        assert result["pinching"]["t_star"] >= result["fixed"]["t_star"] > 0.0

    @pytest.mark.parametrize("metric", ["avg-snr", "outage"])
    def test_json_reports_the_certificate(self, tmp_path, metric):
        doc = dict(TWO_USERS, users=[{"x": 8.0, "y": 3.0}, {"x": 20.0, "y": -3.0}],
                   outage={"epsilon": 0.1})
        out = tmp_path / "out.json"
        rc = cli.main(["solve", _write(tmp_path, doc), "--metric", metric, "-o", str(out)])
        assert rc == cli.EXIT_OK
        result = json.loads(out.read_text(encoding="utf-8"))
        pin = result["pinching"]
        assert pin["binding"] == [0, 1]  # the users' levels cross at the optimum
        t_lo, t_hi = pin["bracket"]
        assert 0.0 < t_lo <= pin["t_star"] and t_lo < t_hi
        # a solution reports what the solver certifies, nothing more
        solution = {"t_star", "x_star", "feasible", "outer_iterations"}
        assert set(pin) == solution | {"binding", "bracket"}
        assert set(result["fixed"]) == solution
        closed = tmp_path / "closed.json"
        assert cli.main(["closed-form", _write(tmp_path, doc), "-o", str(closed)]) == cli.EXIT_OK
        assert set(json.loads(closed.read_text(encoding="utf-8"))["solution"]) == solution

    def test_subnormal_levels_solve_within_a_second(self, tmp_path):
        # rho ~ 1e-306: f is flat over millions of ulps of y near each root, and the
        # inversion's search for the last double that meets t must not step through them
        doc = dict(SHARED_DOCS["three-users"], defaults={"p_dbm": -3150.0})
        out = tmp_path / "out.json"
        start = time.perf_counter()
        rc = cli.main(["solve", _write(tmp_path, doc), "--metric", "avg-snr", "-o", str(out)])
        assert time.perf_counter() - start < 1.0
        assert rc == cli.EXIT_OK
        pin = json.loads(out.read_text(encoding="utf-8"))["pinching"]
        assert 0.0 < pin["bracket"][0] <= pin["t_star"] < 1e-300

    @pytest.mark.parametrize("metric", ["avg-snr", "outage"])
    def test_rho_eta_underflow_solves(self, tmp_path, metric):
        # the inversion takes log(rho eta) as log(rho) + log(eta): log(0) raised
        out = tmp_path / "out.json"
        rc = cli.main(["solve", _write(tmp_path, RHO_ETA_UNDERFLOW), "--metric", metric,
                       "-o", str(out)])
        assert rc == cli.EXIT_OK
        pin = json.loads(out.read_text(encoding="utf-8"))["pinching"]
        assert 0.0 < pin["bracket"][0] <= pin["t_star"] <= pin["bracket"][1]
        assert pin["binding"] == [0, 2]

    @pytest.mark.parametrize("metric", ["avg-snr", "outage"])
    def test_level_overflow_is_invalid_input(self, tmp_path, capsys, metric):
        doc = dict(SHARED_DOCS["three-users"], defaults={"p_dbm": 2910.0, "mu_sq_db": 100.0})
        assert cli.main(["solve", _write(tmp_path, doc), "--metric", metric]) == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: users[0]: level ceiling")

    @pytest.mark.parametrize("metric", ["avg-snr", "outage"])
    def test_tall_waveguide_solves_within_a_second(self, tmp_path, metric):
        # dv = 1e150: y_max rounds to C_m, and a bound there must not pin x to x_m,
        # as sqrt(y_max - C_m) = 0 would
        doc = dict(SHARED_DOCS["three-users"], region={"dx": 30.0, "dy": 10.0, "dv": 1e150})
        out = tmp_path / "out.json"
        start = time.perf_counter()
        rc = cli.main(["solve", _write(tmp_path, doc), "--metric", metric, "-o", str(out)])
        assert time.perf_counter() - start < 1.0
        assert rc == cli.EXIT_OK
        pin = json.loads(out.read_text(encoding="utf-8"))["pinching"]
        assert 0.0 < pin["bracket"][0] <= pin["t_star"] <= pin["bracket"][1]
        assert pin["feasible"] == {"lo": 0.0, "hi": 30.0}

    def test_los_dominated_outage_solves_within_two_seconds(self, tmp_path):
        # beta = 0 and weak NLoS: every CCDF root sits on the LoS step, where Q1 takes
        # a ~ b ~ 1.2e4 in its band; the band's work does not grow with a*b
        doc = dict(SHARED_DOCS["three-users"], defaults={"beta": 0.0, "mu_sq_db": -140.0})
        out = tmp_path / "out.json"
        start = time.perf_counter()
        rc = cli.main(["solve", _write(tmp_path, doc), "--metric", "outage", "-o", str(out)])
        assert time.perf_counter() - start < 2.0
        assert rc == cli.EXIT_OK
        pin = json.loads(out.read_text(encoding="utf-8"))["pinching"]
        assert pin["bracket"][0] <= pin["t_star"] <= pin["bracket"][1]
        assert pin["binding"] == [0, 2]

    def test_outage_without_outage_section_is_invalid(self, two_user_file, capsys):
        rc = cli.main(["solve", str(two_user_file), "--metric", "outage"])
        assert rc == cli.EXIT_INVALID
        assert "outage" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--eps-t", "-1"), ("--eps-t", "nan"), ("--eps-t", "inf"),
    ])
    def test_bad_tolerance_flag_is_invalid_input(self, two_user_file, capsys, flag, value):
        rc = cli.main(["solve", str(two_user_file), "--metric", "avg-snr", flag, value])
        assert rc == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: {flag}:")

    def test_retired_eps_u_field_is_invalid_input(self, tmp_path, capsys):
        path = _write(tmp_path, dict(TWO_USERS, tolerances={"eps_u": 1e-6}))
        rc = cli.main(["solve", path, "--metric", "avg-snr"])
        assert rc == cli.EXIT_INVALID
        assert "tolerances: unknown field 'eps_u'" in capsys.readouterr().err

    def test_non_finite_scenario_value_is_invalid_input(self, tmp_path, capsys):
        path = _write(tmp_path, dict(TWO_USERS, defaults={"beta": float("nan")}))
        rc = cli.main(["solve", path, "--metric", "avg-snr"])
        assert rc == cli.EXIT_INVALID
        assert "defaults.beta" in capsys.readouterr().err

    def test_unexpected_exception_is_internal_error(self, two_user_file, capsys, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "solve_maxmin", broken)
        rc = cli.main(["solve", str(two_user_file), "--metric", "avg-snr"])
        assert rc == cli.EXIT_INTERNAL == 4
        assert "internal error: ZeroDivisionError: boom" in capsys.readouterr().err


class TestSweep:
    def test_tolerance_flags_reach_every_drop(self, two_user_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", str(two_user_file), "--metric", "avg-snr", "--axis",
                       "beta=0.01:0.01:1", "--drops", "3", "--eps-t", "0.3", "--out", str(out)])
        assert rc == cli.EXIT_OK
        header, row = _csv(out)
        bundle = cli.load_scenario(two_user_file)

        def mean_iterations(eps_t):
            total = 0.0
            for drop in range(3):
                scenario, _ = cli._drop_scenario(bundle, {"beta": 0.01}, (0, 0, drop), True)
                total += cli.solve_maxmin(scenario, SolverTolerances(eps_t=eps_t)).outer_iterations
            return total / 3

        iterations = float(row[header.index("iterations")])
        assert iterations == mean_iterations(0.3)
        assert iterations < mean_iterations(1e-3)

    def test_workers_write_the_same_rows(self, two_user_file, tmp_path):
        rows = {}
        for workers in ("1", "2"):
            out = tmp_path / f"sweep_{workers}.csv"
            rc = cli.main(["sweep", str(two_user_file), "--metric", "avg-snr", "--axis",
                           "beta=0.005:0.01:2", "--drops", "2", "--seed", "7",
                           "--workers", workers, "--out", str(out)])
            assert rc == cli.EXIT_OK
            rows[workers] = [row[:-1] for row in _csv(out)]  # drop wall_time_s
        assert rows["1"][0][-1] == "iterations" and len(rows["1"]) == 3
        assert rows["1"] == rows["2"]

    @pytest.mark.parametrize("workers, points, asked", [("64", 2, 2), ("3", 5, 3), ("2", 1, None)])
    def test_pool_is_no_larger_than_the_grid(self, two_user_file, tmp_path, monkeypatch,
                                              workers, points, asked):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", str(two_user_file), "--metric", "avg-snr", "--axis",
                       f"beta=0.005:0.01:{points}", "--drops", "1", "--workers", workers,
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert len(_csv(out)) == points + 1
        # one grid point takes the serial path and starts no pool
        assert sizes == ([] if asked is None else [asked])

    def test_epsilon_axis_on_avg_snr_is_invalid_input(self, two_user_file, tmp_path, capsys):
        # the average-SNR metric has no outage target for the axis to act on
        rc = cli.main(["sweep", str(two_user_file), "--metric", "avg-snr", "--axis",
                       "epsilon=0.05:0.2:2", "--drops", "1", "--out", str(tmp_path / "s.csv")])
        assert rc == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert "axis 'epsilon'" in err and "avg-snr" in err

    @pytest.mark.parametrize("doc, metric, field", [
        (THREE_TARGETS, "outage", "outage.epsilons"),
        (dict(THREE_TARGETS, users=[{"x": 4.0, "y": 3.0}, {"x": 15.0, "y": -4.0, "noise_dbm": -85.0},
                                    {"x": 27.0, "y": 1.0}]), "avg-snr", "noise_dbm"),
        # the first field that differs is named
        (dict(THREE_TARGETS, users=[{"x": 4.0, "y": 3.0}, {"x": 15.0, "y": -4.0},
                                    {"x": 27.0, "y": 1.0, "mu_sq_db": -88.0}]), "outage", "mu_sq_db"),
    ], ids=["targets", "noise", "first-field"])
    def test_m_axis_on_per_user_fields_is_invalid_input(self, tmp_path, capsys, doc, metric, field):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", _write(tmp_path, doc), "--metric", metric, "--axis", "m=2:5:4",
                       "--drops", "1", "--out", str(out)])
        assert rc == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert "axis 'm'" in err and f"one {field} for every user" in err
        assert not out.exists()  # refused before any point is solved

    @pytest.mark.parametrize("doc, metric, axes, points", [
        (SHARED_DOCS["three-users"], "outage", ["m=2:4:3"], 3),
        (SHARED_DOCS["one-user"], "outage", ["m=8:8:1"], 1),
        (THREE_TARGETS, "outage", ["m=3:3:1"], 1),  # the file's own count keeps per-user targets
        (THREE_TARGETS, "avg-snr", ["m=2:4:3"], 3),  # no target acts
        (THREE_TARGETS, "outage", ["m=2:4:3", "epsilon=0.1:0.1:1"], 3),  # the axis sets every target
    ], ids=["shared", "one-user", "file-count", "avg-snr", "epsilon-axis"])
    def test_m_axis_on_fields_every_user_shares_runs(self, tmp_path, doc, metric, axes, points):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", _write(tmp_path, doc), "--metric", metric, "--drops", "1", "--out", str(out)]
        assert cli.main(argv + [arg for axis in axes for arg in ("--axis", axis)]) == cli.EXIT_OK
        assert len(_csv(out)) == points + 1

    def test_file_user_count_keeps_each_users_channel_and_target(self, tmp_path):
        doc = dict(THREE_TARGETS, users=[{"x": 4.0, "y": 3.0, "mu_sq_db": -88.0},
                                         {"x": 15.0, "y": -4.0}, {"x": 27.0, "y": 1.0}])
        bundle = cli.load_scenario(_write(tmp_path, doc))
        scenario, spec = cli._drop_scenario(bundle, {"m": 3}, (0, 0, 0), True)
        assert scenario.channels == bundle.scenario.channels
        assert spec == bundle.outage and spec.epsilons == (0.05, 0.2, 0.1)

    # dx=30:0:3, beta=0.01:-1:2 and beta=0.02:-0.01:3: only the last point is out of range
    @pytest.mark.parametrize("axis", ["beta=nan:nan:1", "dx=10:inf:2", "epsilon=0:0.5:3",
                                      "epsilon=0.1:1:2", "m=0:0:1", "speed=1:2:2",
                                      "dx=0:30:2", "dx=30:0:3",
                                      "beta=-1:0:2", "beta=0.01:-1:2", "beta=0.02:-0.01:3"])
    def test_bad_axis_is_invalid_input(self, two_user_file, tmp_path, capsys, monkeypatch, axis):
        monkeypatch.setattr(cli, "_sweep_point", lambda task: pytest.fail("a point was solved"))
        name = axis.partition("=")[0]
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", str(two_user_file), "--metric", "avg-snr", "--axis", axis,
                       "--out", str(out)])
        assert rc == cli.EXIT_INVALID
        assert f"axis '{name}'" in capsys.readouterr().err
        assert not out.exists()

    def test_log_axis_is_geometric(self, two_user_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", str(two_user_file), "--metric", "avg-snr", "--axis",
                         "beta=0.001:0.01:3:log", "--drops", "1", "--out", str(out)]) == cli.EXIT_OK
        column = cli.SWEEP_COLUMNS.index("value1")
        assert [float(row[column]) for row in _csv(out)[1:]] == np.geomspace(0.001, 0.01, 3).tolist()


def test_ccdf_table(two_user_file, tmp_path):
    out = tmp_path / "ccdf.csv"
    rc = cli.main(["ccdf", str(two_user_file), "--x-pin", "6.0", "--t-points", "5",
                   "--samples", "2000", "--out", str(out)])
    assert rc == cli.EXIT_OK
    header, *rows = _csv(out)
    assert header == cli.CCDF_COLUMNS and len(rows) == 5
    assert float(rows[0][1]) == 1.0  # t = 0


@pytest.mark.parametrize("flags, named", [
    (["--t-max", "nan"], "--t-max"), (["--t-max", "inf"], "--t-max"),
    (["--t-min", "-5"], "--t-min"), (["--t-min", "2", "--t-max", "1"], "--t-max"),
    (["--samples", "0"], "--samples"),
])
def test_ccdf_bad_flag_is_invalid_input(two_user_file, tmp_path, capsys, flags, named):
    rc = cli.main(["ccdf", str(two_user_file), "--x-pin", "6.0", "--out",
                   str(tmp_path / "ccdf.csv")] + flags)
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: {named} ")


def test_ccdf_log_scale_is_geometric(two_user_file, tmp_path):
    out = tmp_path / "ccdf.csv"
    assert cli.main(["ccdf", str(two_user_file), "--x-pin", "6.0", "--t-scale", "log",
                     "--t-min", "1e3", "--t-max", "1e9", "--t-points", "7", "--samples", "1000",
                     "--out", str(out)]) == cli.EXIT_OK
    assert [float(row[0]) for row in _csv(out)[1:]] == np.geomspace(1e3, 1e9, 7).tolist()


AXIS = ["--axis", "beta=0.01:0.02:2"]


@pytest.mark.parametrize("command, flags, named", [
    ("sweep", ["--axis", "beta=0.01:0.02"], "axis spec 'beta=0.01:0.02'"),
    ("sweep", ["--axis", "beta=a:0.02:3"], "axis spec 'beta=a:0.02:3'"),
    ("sweep", ["--axis", "beta=0.01:0.02:0"], "axis 'beta'"),
    ("sweep", ["--axis", "beta=0:0.02:3:log"], "axis 'beta'"),
    ("sweep", [], "--axis"),
    ("sweep", AXIS + ["--axis", "dx=10:20:2", "--axis", "m=2:3:2"], "--axis"),
    ("sweep", AXIS + ["--drops", "0"], "--drops"),
    ("sweep", AXIS + ["--axis", "beta=0.03:0.04:2"], "axis 'beta'"),
    ("sweep-outage", AXIS, "epsilon axis"),  # the file has no outage section
    ("ccdf", ["--user", "2"], "--user"),
    ("ccdf", ["--x-pin", "31"], "--x-pin"),
    ("ccdf", ["--t-points", "0"], "--t-points"),
    ("ccdf", ["--t-scale", "log", "--t-min", "0"], "--t-scale log"),
    ("verify", ["--samples", "999"], "--samples"),
], ids=["axis-shape", "axis-number", "axis-points", "log-axis-bound", "no-axis", "three-axes",
        "drops", "repeated-axis", "outage-target", "user", "x-pin", "t-points", "log-t-min",
        "samples"])
def test_usage_check_is_invalid_input(two_user_file, tmp_path, capsys, monkeypatch, command,
                                      flags, named):
    monkeypatch.setattr(cli, "_sweep_point", lambda task: pytest.fail("a point was solved"))
    monkeypatch.setattr(cli, "_verify_checks", lambda *args: pytest.fail("a check ran"))
    path, out = str(two_user_file), tmp_path / "out"
    argv = {
        "sweep": ["sweep", path, "--metric", "avg-snr", "--out", str(out)],
        "sweep-outage": ["sweep", path, "--metric", "outage", "--out", str(out)],
        "ccdf": ["ccdf", path, "--x-pin", "6.0", "--samples", "1000", "--out", str(out)],
        "verify": ["verify", path, "--report", str(out)],
    }[command]
    assert cli.main(argv + flags) == cli.EXIT_INVALID
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_closed_form(two_user_file, capsys):
    assert cli.main(["closed-form", str(two_user_file)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["metric"] == "avg-snr-closed-form"


@pytest.mark.parametrize("shape", sorted(SHARED_DOCS))
def test_closed_form_matches_solve_at_any_user_count(tmp_path, capsys, shape):
    path = _write(tmp_path, SHARED_DOCS[shape])
    assert cli.main(["closed-form", path]) == cli.EXIT_OK
    closed = json.loads(capsys.readouterr().out)["solution"]["t_star"]
    assert cli.main(["solve", path, "--metric", "avg-snr"]) == cli.EXIT_OK
    solved = json.loads(capsys.readouterr().out)["pinching"]["t_star"]
    assert abs(closed - solved) <= SolverTolerances().eps_t * closed


def test_closed_form_on_per_user_channels_is_invalid_input(tmp_path, capsys):
    doc = dict(TWO_USERS, users=[{"x": 6.0, "y": 2.0}, {"x": 21.0, "y": -3.0, "mu_sq_db": -87.0}])
    assert cli.main(["closed-form", _write(tmp_path, doc)]) == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: users[1].mu_sq_db differs from users[0]\n"


@pytest.mark.parametrize("users, field", [
    ([{"x": 6.0, "y": 2.0}, {"x": 21.0, "y": -3.0, "noise_dbm": -88.0}], "users[1].noise_dbm"),
    # the file fields that set rho and mu_sq are named, noise_dbm first
    ([{"x": 3.0, "y": 4.0, "mu_sq_db": -88.0}, {"x": 11.0, "y": -2.0, "mu_sq_db": -95.0},
      {"x": 19.0, "y": 3.0, "noise_dbm": -92.0}], "users[2].noise_dbm"),
], ids=["noise", "first-field"])
def test_closed_form_names_the_file_field_that_differs(tmp_path, capsys, users, field):
    doc = dict(TWO_USERS, users=users)
    assert cli.main(["closed-form", _write(tmp_path, doc)]) == cli.EXIT_INVALID
    assert capsys.readouterr().err == f"error: {field} differs from users[0]\n"


def _subcommand_options():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {a.option_strings[-1] for a in p._actions if a.option_strings}
            for name, p in sub.choices.items()}


def test_each_subcommand_takes_only_the_options_that_act_on_it():
    # --workers on solve and ccdf is the one option that does nothing there
    options = _subcommand_options()
    assert options == {
        "solve": {"--help", "--metric", "--out", "--eps-t", "--workers"},
        "sweep": {"--help", "--metric", "--axis", "--drops", "--out", "--eps-t", "--seed",
                  "--workers"},
        "ccdf": {"--help", "--user", "--x-pin", "--t-min", "--t-max", "--t-points", "--t-scale",
                 "--samples", "--out", "--seed", "--workers"},
        "verify": {"--help", "--samples", "--eta-scale", "--report", "--eps-t", "--seed"},
        "closed-form": {"--help", "--out"},
    }
    assert sum(len(taken) for taken in options.values()) == 32


def _argv(command, path, tmp_path):
    out = str(tmp_path / "out.csv")
    return {
        "solve": ["solve", path, "--metric", "avg-snr"],
        "sweep": ["sweep", path, "--metric", "avg-snr", "--axis", "beta=0.01:0.01:1", "--drops", "1",
                  "--out", out],
        "ccdf": ["ccdf", path, "--x-pin", "6.0", "--t-points", "2", "--samples", "1000", "--out", out],
        "verify": ["verify", path, "--samples", "1000"],
        "closed-form": ["closed-form", path],
    }[command]


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--seed", "-1"), ("ccdf", "--seed", "-1"), ("verify", "--seed", "-1"),
    ("sweep", "--workers", "0"), ("sweep", "--workers", "-3"),
    ("solve", "--workers", "0"), ("ccdf", "--workers", "-3"),
])
def test_out_of_range_seed_or_workers_is_invalid_input(two_user_file, tmp_path, capsys,
                                                         command, flag, value):
    rc = cli.main(_argv(command, str(two_user_file), tmp_path) + [flag, value])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err.startswith(f"error: {flag}:")


@pytest.mark.parametrize("command, flag, value", [
    ("closed-form", "--eps-t", "0.1"), ("closed-form", "--seed", "7"), ("closed-form", "--workers", "9"),
    ("solve", "--eps-u", "nan"), ("solve", "--seed", "7"), ("ccdf", "--eps-y", "1e-6"),
    ("ccdf", "--max-iter", "5"), ("verify", "--workers", "2"), ("sweep", "--eps-u", "1e-6"),
    ("solve", "--max-iter", "5"), ("solve", "--eps-y", "1e-9"), ("sweep", "--eps-y", "1e-9"),
    ("verify", "--eps-y", "1e-9"),
])
def test_flag_a_subcommand_does_not_take_is_a_usage_error(two_user_file, tmp_path, capsys,
                                                          command, flag, value):
    rc = cli.main(_argv(command, str(two_user_file), tmp_path) + [flag, value])
    assert rc == cli.EXIT_INVALID
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["solve", "--help"]])
def test_version_and_help_return_zero(argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out


def test_reused_parser_keeps_no_state(two_user_file, tmp_path, capsys, monkeypatch):
    # main reuses one parser per process; each call must print what a fresh parser gives
    path, out = str(two_user_file), tmp_path / "out.csv"
    sweep = ["sweep", path, "--metric", "avg-snr", "--drops", "1", "--out", str(out)]
    sequence = [
        sweep + ["--axis", "beta=0.01:0.02:2", "--axis", "dx=20:30:2"],
        sweep + ["--axis", "beta=0.01:0.02:2"],  # the first call's axes must not pile up
        ["solve", path, "--metric", "avg-snr", "--eps-t", "1e-6"],
        ["solve", path, "--metric", "snr"],  # usage error: exit 2
        ["--version"],
        ["ccdf", path, "--x-pin", "6.0", "--t-points", "3", "--samples", "1000", "--seed", "3",
         "--out", str(out)],
        ["solve", path, "--metric", "avg-snr"],  # the earlier --eps-t must not carry over
    ]

    def run_all():
        outputs = []
        for argv in sequence:
            out.unlink(missing_ok=True)
            code = cli.main(argv)
            rows = _csv(out) if out.exists() else []
            if argv[0] == "sweep":  # every column but wall_time_s
                rows = [row[:-1] for row in rows]
            outputs.append((code, capsys.readouterr(), rows))
        return outputs

    assert cli.build_parser() is cli.build_parser()
    reused = run_all()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = run_all()
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 0, 0]
    assert reused == fresh
    assert len(reused[0][2]) == 5 and len(reused[1][2]) == 3
    assert reused[2][1].out != reused[6][1].out


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def _scale_docs(draw):
    """Scenario documents over log-uniform scales; every user shares the
    defaults channel, so shared_channel_optimum gives the exact optimum."""
    dx, dy, dv = (draw(_log_uniform(1e-150, 1e150)) for _ in range(3))
    users = [{"x": draw(st.floats(0.0, 1.0)) * dx, "y": (draw(st.floats(0.0, 1.0)) - 0.5) * dy}
             for _ in range(draw(st.integers(1, 8)))]
    defaults = {"p_dbm": draw(st.floats(-3000.0, 3000.0)),
                "noise_dbm": draw(st.floats(-3000.0, 3000.0)),
                "mu_sq_db": draw(st.floats(-3000.0, 300.0)),
                "beta": draw(st.just(0.0) | _log_uniform(1e-300, 1e3))}
    return {"schema": 1, "region": {"dx": dx, "dy": dy, "dv": dv}, "defaults": defaults,
            "users": users, "outage": {"epsilon": draw(_log_uniform(1e-300, 1.0 - 1e-16))}}


# Two exits 3 found at the scales below, each with an exact optimum far above
# 1e-322. At a target that rounds to 1, the series-regime Q1 read 1 - 1 ulp near
# the users while the bare NLoS tail read 1 far off, so only far positions met it:
CCDF_ROUNDING_DROP = {
    "schema": 1,
    "region": {"dx": 6.128110168572558e+138, "dy": 2.200768040238174e-145,
               "dv": 6.628853311482492e+20},
    "defaults": {"p_dbm": -396.9171656688645, "noise_dbm": -178.70663590661297,
                 "mu_sq_db": 15.219706632512498, "beta": 2.988041477694451e-64},
    "users": [
        {"x": 9.038403102854771e+137, "y": 3.326172707781559e-146},
        {"x": 8.627823864759073e+137, "y": 7.0326494877393e-146},
        {"x": 6.000012484268827e+138, "y": 3.8868409117464646e-146},
        {"x": 4.335421073946636e+138, "y": -3.898487777824822e-146},
        {"x": 3.074286156482766e+138, "y": 6.882371376052375e-146},
        {"x": 1.940081919650148e+138, "y": 3.4404960407786376e-146}],
    "outage": {"epsilon": 1.052973680752125e-160}}
# A region far narrower than 1e-9 of its least r^2: an inversion width relative
# to y_min alone spanned the whole range, so no probe could be decided.
NARROW_REGION_DROP = {
    "schema": 1,
    "region": {"dx": 2.3614970073992653e-32, "dy": 2.3614970073992653e-32,
               "dv": 2.539785383209377e-25},
    "defaults": {"p_dbm": 1711.9535686208928, "noise_dbm": -1.1526570855257569e-136,
                 "mu_sq_db": 224.72309856311585, "beta": 0.0},
    "users": [
        {"x": 4.722994014798531e-34, "y": -1.1807485036996327e-32},
        {"x": 2.0539089275045102e-32, "y": 9.816766996070409e-33}],
    "outage": {"epsilon": 2.539785383209377e-25}}

# A target one ulp below 1: P_out = p (1 - Q1) + q (1 - e^{-k y}) held only its
# absolute rounding against eps, so t_star 9.545e-61 fell below its bracket
# [9.583e-61, 9.591e-61]; formed as 1 - CCDF there, it agrees with the CCDF.
EPS_NEAR_ONE_DROP = {
    "schema": 1, "region": {"dx": 1e28, "dy": 1.0, "dv": 1.0},
    "defaults": {"p_dbm": 0.0, "noise_dbm": 0.0, "mu_sq_db": -71.0, "beta": 10.0 ** -54.3125},
    "users": [{"x": 5e27, "y": -0.5}, {"x": 0.0, "y": -0.5}, {"x": 0.0, "y": -0.5}],
    "outage": {"epsilon": 0.9999999999999999}}


@given(doc=_scale_docs())
@example(doc=RHO_ETA_UNDERFLOW)
@example(doc=CCDF_ROUNDING_DROP)
@example(doc=NARROW_REGION_DROP)
@example(doc=EPS_NEAR_ONE_DROP)
@example(doc=binade_spanning_doc(np.random.default_rng(278)))
@settings(max_examples=50, deadline=timedelta(seconds=5))
def test_solve_ends_in_a_result_or_a_named_field_at_any_scale(doc):
    # an example that hangs exceeds the deadline; SIGALRM's TimeoutError is an
    # OSError, which cli.main would report as invalid input (exit 2)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for metric in ("avg-snr", "outage"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(["solve", str(path), "--metric", metric, "-o", str(out)])
            assert rc in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_SOLVER), err.getvalue()
            if rc == cli.EXIT_OK:
                result = json.loads(out.read_text(encoding="utf-8"))
                pin = result["pinching"]
                # where Q1 does not saturate at the roots, the outage probability holds
                # 1 - Q1, formed as 1 - (a number near 1): below the series residue it
                # need not rise monotonically in r^2 to the last bit, so the probes and
                # the exact objective can disagree there. That is every root at beta =
                # 0, and every one where a < SATURATION_GAP; elsewhere at beta > 0 the
                # solve keeps every target's relative precision. The fixed antenna's
                # level is met at dx/2, so it lies at or below the bracket's top (t_star
                # itself ends within the finish's x tolerance of the argmax, and may
                # sit 3e-12 below a fixed antenna there)
                params = load_scenario(path).scenario.channels[0]
                if (metric == "avg-snr" or doc["outage"]["epsilon"] > kernels.SERIES_TAIL
                        or params.beta > 0.0 and params.marcum_a >= kernels.SATURATION_GAP):
                    assert 0.0 < pin["bracket"][0] <= pin["t_star"] <= pin["bracket"][1]
                    assert result["fixed"]["t_star"] <= pin["bracket"][1]
            elif rc == cli.EXIT_INVALID:
                assert re.match(r"error: (region\b|defaults\b|outage\b|users\[\d+\])", err.getvalue())
            else:  # only a joint underflow: no position serves every user above 0
                bundle = load_scenario(path)
                spec = bundle.outage if metric == "outage" else None
                assert shared_channel_optimum(bundle.scenario, spec).t_star <= 1e-322
