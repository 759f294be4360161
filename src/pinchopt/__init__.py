"""pinchopt: globally optimal pinching-antenna placement.

Places a single waveguide-mounted radiating element for multiuser
downlink under a probabilistic LoS / random NLoS channel, maximizing
either the worst-user average SNR or an outage-guaranteed SNR threshold,
both via nested-interval bisection with Monte-Carlo cross-validation.

The solvers run on plain floats: importing the package loads no numpy. McConfig,
McEstimate, estimate_avg_snr, estimate_ccdf_curve, grid_search_maxmin, grid_search_outage
and shared_channel_optimum import montecarlo, and numpy with it, when first read.
"""

__version__ = "0.1.0"

from .maxmin import (
    Interval,
    SolverAnomaly,
    SolverTolerances,
    Solution,
    fixed_antenna_baseline,
    invert_f,
    min_avg_snr,
    solve_maxmin,
)
from .model import (
    ChannelParams,
    InvalidScenario,
    Scenario,
    UnsupportedScenario,
    UserPosition,
    dbm_to_linear,
    eta_from_carrier,
    f_scalar,
)
from .outage import (
    OutageSpec,
    fixed_antenna_outage_baseline,
    invert_ccdf,
    max_threshold_at,
    solve_outage,
)
from .scenario_io import (
    ScenarioBundle,
    ScenarioFormatError,
    load_scenario,
    parse_scenario_dict,
)
from .special import ccdf_inst_snr, ccdf_inst_snr_batch, marcum_q1

__all__ = [
    "ChannelParams",
    "Interval",
    "InvalidScenario",
    "McConfig",
    "McEstimate",
    "OutageSpec",
    "Scenario",
    "ScenarioBundle",
    "ScenarioFormatError",
    "SolverAnomaly",
    "SolverTolerances",
    "Solution",
    "UnsupportedScenario",
    "UserPosition",
    "ccdf_inst_snr",
    "ccdf_inst_snr_batch",
    "dbm_to_linear",
    "estimate_avg_snr",
    "estimate_ccdf_curve",
    "eta_from_carrier",
    "f_scalar",
    "fixed_antenna_baseline",
    "fixed_antenna_outage_baseline",
    "grid_search_maxmin",
    "grid_search_outage",
    "invert_ccdf",
    "invert_f",
    "load_scenario",
    "marcum_q1",
    "max_threshold_at",
    "min_avg_snr",
    "parse_scenario_dict",
    "shared_channel_optimum",
    "solve_maxmin",
    "solve_outage",
]

_MONTECARLO_NAMES = {"McConfig", "McEstimate", "estimate_avg_snr", "estimate_ccdf_curve",
                     "grid_search_maxmin", "grid_search_outage", "shared_channel_optimum"}


def __getattr__(name):
    if name not in _MONTECARLO_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import montecarlo
    return getattr(montecarlo, name)
