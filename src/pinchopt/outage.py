"""Outage-constrained SNR-threshold maximization.

Each user's reliability constraint P[snr >= t] >= 1 - eps_m pins, through
the strict monotonicity of the CCDF in the squared distance, an upper
bound U_m(t) on r_m^2, hence a position interval J_m(t). The intervals
are nested in t, so the largest threshold with a nonempty intersection
T(t) = ∩ J_m(t) is found by the same outer bisection as the average-SNR
design, with the inner scalar inversion now running on the CCDF.

The per-position objective is the smallest of the users' threshold
roots, but only the users that bind need one: the farthest user's root
is bisected first, every other user is checked once at the running
minimum and skipped if it meets its target there, and a user that misses
it is bisected on [0, running minimum]. The result is feasible for every
user and within _THRESHOLD_REL_TOL (1e-12) relative of the min of
independent roots, and the user that set it is the worst user.
"""

from __future__ import annotations

from dataclasses import dataclass

from .maxmin import (
    _BRACKET_DOUBLINGS,
    Interval,
    SolverAnomaly,
    SolverTolerances,
    Solution,
    _distances,
    _solve_nested,
)
from .model import Scenario, squared_distance_range
from .special import ccdf_inst_snr

# Relative width at which the per-position threshold root stops.
_THRESHOLD_REL_TOL = 1e-12


@dataclass(frozen=True)
class OutageSpec:
    """Per-user outage probabilities eps_m, each in (0, 1)."""

    epsilons: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(self.epsilons))
        for m, eps in enumerate(self.epsilons):
            if not 0.0 < eps < 1.0:
                raise ValueError(f"epsilons[{m}] must lie in (0, 1), got {eps}")

    @classmethod
    def shared(cls, epsilon: float, n_users: int) -> "OutageSpec":
        return cls(epsilons=(epsilon,) * n_users)

    def for_scenario(self, scenario: Scenario) -> "OutageSpec":
        if len(self.epsilons) != scenario.n_users:
            raise ValueError(
                f"{len(self.epsilons)} outage targets for {scenario.n_users} users"
            )
        return self


def invert_ccdf(params, t: float, epsilon: float, rng, eps_u: float) -> float | None:
    """Largest y in [y_min, y_max] with ccdf(y, t) >= 1 - epsilon.

    None marks infeasibility (even y_min misses the target); y_max means
    the constraint binds nowhere on the deployment range. Otherwise the
    unique root of the strictly decreasing CCDF is bracketed to eps_u and
    its conservative (lower) end is returned.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    target = 1.0 - epsilon
    if ccdf_inst_snr(params, rng.y_min, t) < target:
        return None
    if ccdf_inst_snr(params, rng.y_max, t) >= target:
        return rng.y_max
    lo, hi = rng.y_min, rng.y_max
    while hi - lo > eps_u:
        mid = 0.5 * (lo + hi)
        if ccdf_inst_snr(params, mid, t) >= target:
            lo = mid
        else:
            hi = mid
    return lo


def _outage_bound(scenario: Scenario, epsilons, tol: SolverTolerances):
    """Per-user bound U_m(t) of the outage metric (None: target missed everywhere)."""
    ranges = [squared_distance_range(scenario, m) for m in range(scenario.n_users)]
    inner = [tol.inner_tol(r) for r in ranges]

    def bound(m: int, t: float) -> float | None:
        return invert_ccdf(scenario.channels[m], t, epsilons[m], ranges[m], inner[m])

    return bound


def _los_ceiling(params, y: float) -> float:
    """2 rho eta / y: a threshold past the LoS-limited outage drop at distance^2 y."""
    return 2.0 * params.rho * params.eta / y


def default_threshold_ceiling(scenario: Scenario) -> float:
    """max_m of the LoS ceiling at y_{m,min}: a threshold past every user's drop."""
    return max(
        _los_ceiling(scenario.channels[m], squared_distance_range(scenario, m).y_min)
        for m in range(scenario.n_users)
    )


def _bisect_threshold(params, y: float, target: float, hi: float) -> float:
    """Feasible lower end of [0, hi] after bisecting ccdf(y, t) >= target on t.

    hi must miss the target; t = 0 always meets it. Stops at relative
    width _THRESHOLD_REL_TOL.
    """
    lo = 0.0
    while hi - lo > _THRESHOLD_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if ccdf_inst_snr(params, y, mid) >= target:
            lo = mid
        else:
            hi = mid
    return lo


def _threshold_root(params, y: float, epsilon: float) -> float:
    """Largest t with ccdf(y, t) >= 1 - epsilon, by bisection on t.

    The bracket starts at the LoS ceiling and doubles until the target is
    missed.
    """
    target = 1.0 - epsilon
    hi = max(_los_ceiling(params, y), 1e-300)
    for _ in range(_BRACKET_DOUBLINGS):
        if ccdf_inst_snr(params, y, hi) < target:
            break
        hi *= 2.0
    else:
        raise SolverAnomaly(f"no finite threshold violates the outage target at y={y}")
    return _bisect_threshold(params, y, target, hi)


def _min_threshold(scenario: Scenario, spec: OutageSpec, ys) -> tuple[float, int]:
    """(min_m of the largest threshold user m meets at ys[m], the worst m).

    Only binding users are bisected. Users are visited farthest first (the
    farthest always binds under shared channels and targets); the first
    gets a full root, the running minimum cur. Each later user is checked
    once at cur: meeting its target there, it cannot lower the minimum.
    Otherwise cur certifies that user infeasible, so its root is bisected
    on [0, cur] and becomes the new cur. The result meets every target and
    lies within _THRESHOLD_REL_TOL relative of the min of independent roots;
    the worst user is the last one that lowered cur, else the farthest.
    """
    spec = spec.for_scenario(scenario)
    order = sorted(range(scenario.n_users), key=lambda m: -ys[m])
    worst = order[0]
    cur = _threshold_root(scenario.channels[worst], ys[worst], spec.epsilons[worst])
    for m in order[1:]:
        params, target = scenario.channels[m], 1.0 - spec.epsilons[m]
        if ccdf_inst_snr(params, ys[m], cur) < target:
            cur, worst = _bisect_threshold(params, ys[m], target, cur), m
    return cur, worst


def max_threshold_at(scenario: Scenario, spec: OutageSpec, x_pin: float) -> float:
    """Exact objective: largest t meeting every outage target at x_pin."""
    return _min_threshold(scenario, spec, _distances(scenario, x_pin))[0]


def solve_outage(
    scenario: Scenario, spec: OutageSpec, tol: SolverTolerances | None = None
) -> Solution:
    """Globally maximize the outage-guaranteed threshold over the position.

    Outer bisection on t with T(t) feasibility probes; the initial upper
    bracket 2 max_m rho_m eta_m / y_{m,min} (past the LoS-limited drop) is
    doubled until T is verifiably empty. x_star comes from bisection on x
    toward the worst user; t_star is the exact per-position threshold there.
    """
    tol = tol or SolverTolerances()
    spec = spec.for_scenario(scenario)
    return _solve_nested(
        scenario, _outage_bound(scenario, spec.epsilons, tol),
        lambda ys: _min_threshold(scenario, spec, ys), default_threshold_ceiling(scenario), tol,
    )


def fixed_antenna_outage_baseline(scenario: Scenario, spec: OutageSpec) -> Solution:
    """Best threshold attainable with the antenna fixed at dx/2."""
    x_fix = 0.5 * scenario.dx
    return Solution(
        t_star=max_threshold_at(scenario, spec, x_fix),
        x_star=x_fix,
        feasible=Interval(x_fix, x_fix),
        outer_iterations=0,
        per_user_bounds=None,
    )
