"""The package's public surface: exactly the names the CLI, the benchmark
and library users call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pinchopt

PUBLIC = {
    "ChannelParams", "Interval", "InvalidScenario",
    "McConfig", "McEstimate", "OutageSpec", "Scenario", "ScenarioBundle", "ScenarioFormatError",
    "Solution", "SolverAnomaly", "SolverTolerances", "UnsupportedScenario", "UserPosition",
    "ccdf_inst_snr", "ccdf_inst_snr_batch", "dbm_to_linear",
    "estimate_avg_snr", "estimate_ccdf_curve", "eta_from_carrier", "f_scalar",
    "fixed_antenna_baseline", "fixed_antenna_outage_baseline", "grid_search_maxmin",
    "grid_search_outage", "invert_ccdf", "invert_f", "load_scenario", "marcum_q1",
    "max_threshold_at", "min_avg_snr", "parse_scenario_dict",
    "shared_channel_optimum", "solve_maxmin", "solve_outage",
}


def test_all_is_the_exact_public_surface():
    assert len(PUBLIC) == 35
    assert set(pinchopt.__all__) == PUBLIC
    assert len(pinchopt.__all__) == len(PUBLIC)  # no name listed twice


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(pinchopt, name) is not None, name


# Run in a fresh interpreter: this one already has numpy loaded.
FRESH_START = """
import sys
from pinchopt import cli
assert "numpy" not in sys.modules, "import pinchopt.cli"
assert cli.main(["--version"]) == 0
for path in sys.argv[1:]:
    for metric in ("avg-snr", "outage"):
        assert cli.main(["solve", path, "--metric", metric, "-o", f"{path}.{metric}"]) == 0
        assert "numpy" not in sys.modules, (path, metric)
assert "pinchopt.montecarlo" not in sys.modules
import pinchopt
pinchopt.McConfig
assert {"numpy", "pinchopt.montecarlo"} <= sys.modules.keys(), "reading McConfig"
names = {}
exec("from pinchopt import *", names)
assert set(pinchopt.__all__) <= names.keys() and len(pinchopt.__all__) == 35
assert pinchopt.UnsupportedScenario is pinchopt.montecarlo.UnsupportedScenario
"""
REGION = {"dx": 30.0, "dy": 10.0, "dv": 10.0}
START_DOCS = {
    "shared": {"schema": 1, "region": REGION, "outage": {"epsilon": 0.05},
               "users": [{"x": 4.0, "y": 3.0}, {"x": 15.0, "y": -4.0}, {"x": 27.0, "y": 1.0}]},
    # per-user channels whose outage solve reaches Q1's series and saturated lanes
    "four_users_series": {
        "schema": 1, "region": REGION, "outage": {"epsilons": [0.05, 0.1, 0.2, 0.08]},
        "users": [{"x": 3.0, "y": 4.0, "mu_sq_db": -76.0},
                  {"x": 11.0, "y": -2.0, "mu_sq_db": -78.0, "noise_dbm": -88.0},
                  {"x": 19.0, "y": 3.0, "mu_sq_db": -80.0, "noise_dbm": -92.0},
                  {"x": 27.0, "y": -4.0, "mu_sq_db": -82.0}]},
}


def test_solve_starts_without_numpy_and_monte_carlo_names_load_on_first_read(tmp_path):
    paths = []
    for name, doc in START_DOCS.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(pinchopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FRESH_START, *map(str, paths)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for path in paths:
        assert json.loads(path.with_name(path.name + ".outage").read_text())["pinching"]["binding"]
