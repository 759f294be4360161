"""The package's public surface: exactly the names the CLI, the benchmark
and library users call."""

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
