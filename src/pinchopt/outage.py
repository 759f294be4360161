"""Outage-constrained SNR-threshold maximization.

Each user's reliability constraint P[snr >= t] >= 1 - eps_m pins, through
the strict monotonicity of the CCDF in the squared distance, an upper
bound U_m(t) on r_m^2, hence a position interval J_m(t). The intervals
are nested in t, so the largest threshold with a nonempty intersection
T(t) = ∩ J_m(t) is found by the same outer bisection as the average-SNR
design, with the inner scalar inversion now running on the CCDF.

Each inversion brackets its root to _INVERSION_REL_TOL of its r^2 scale and a
probe gets both ends, so its verdict is a proof (maxmin._feasible_set);
a probe the brackets cannot decide, about 1e-9 relative from the
optimum, ends the bisection. The outer bisection and the x finish run
on the shared skeleton's active set (maxmin._solve_nested).

The per-position objective is the smallest of the users' threshold
roots, but only the users that bind need one: users are visited farthest
first, each is checked once at the running minimum and gets a root below
it only if it misses its target there. The result is feasible for every
user and within _THRESHOLD_REL_TOL (1e-12) relative of the min of
independent roots, and the user that set it is the worst user.

Every threshold search is capped by a ceiling that is infeasible by
proof. By Markov's inequality P[snr >= t] <= f(y) / t, with f the average
SNR, and the bound is strict because the NLoS part makes the SNR
continuous, so no threshold at or above f(y) / (1 - eps) meets the target
at squared distance y. The outer bisection starts at the least such
ceiling over the users, each at its nearest position, and a threshold
root with no better upper end starts at its user's own ceiling.

Every root starts from a bracket the solver already has and is shrunk by
one Illinois root finder, _bracket_root (past a binade it bisects at the
geometric mean). U_m is monotone in t, so a user's earlier inversions in
a solve bracket the next. The finish runs inside the certified [t_lo,
t_hi], where the objective lies, so its threshold roots start there.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .maxmin import Interval, SolverTolerances, Solution, _distances, _solve_nested
from .model import InvalidScenario, Scenario, f_scalar
from .special import ccdf_inst_snr

# Relative width at which the per-position threshold root stops.
_THRESHOLD_REL_TOL = 1e-12
# Width, relative to the lesser of a user's least r^2 and its r^2 span, at which the inversion
# stops: relative to y_max it would swamp roots near y_min, and above the span every root.
_INVERSION_REL_TOL = 1e-9


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


def _bracket_root(g, lo: float, g_lo: float, hi: float, g_hi: float,
                  width: float) -> tuple[float, float]:
    """Shrink [lo, hi] around the root of a decreasing g to width, by Illinois.

    Needs g(lo) = g_lo >= 0 > g_hi = g(hi); returns (lo, hi) with those signs
    and hi - lo <= width, or adjacent doubles. Each step is regula falsi, and
    an end's value kept twice in a row is halved (Illinois). Once the steps
    exceed by three two per halving of the bracket from min(w0, 2 hi), w0 the
    first width, the next step bisects, at the geometric mean past a binade
    (hi > 2 lo > 0). So it ends within 2 ceil(log2(w0 / width)) + 4 steps,
    and from lo > 0 within 112 at any scale, under 20 of them to reach a binade.
    """
    w0, n, side = hi - lo, 0, 0
    while hi - lo > width:
        # w0 >= hi - lo, so the log is >= 0: no bisection before n = 3
        if n >= 3 and n >= 2.0 * math.log2(w0 / (hi - lo)) + 3.0:
            x = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo > 0.0 else 0.5 * (lo + hi)
        else:
            try:
                x = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
            except ZeroDivisionError:  # g_lo = 0 and g_hi halved to -0.0: bisect
                x = 0.5 * (lo + hi)
            # at least width / 2 from either end: a step that lands there may end the
            # search (min(max(x, near), far) by comparisons, cheaper than the builtins)
            if (near := lo + 0.5 * width) > x:
                x = near
            if (far := hi - 0.5 * width) < x:
                x = far
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        g_x = g(x)
        n += 1
        if g_x >= 0.0:
            lo, g_lo = x, g_x
            if side > 0:
                g_hi *= 0.5
            side = 1
        else:  # count halvings from 2 hi below w0: binades cut off hi earn no regula falsi step
            hi, g_hi, w0 = x, g_x, (w0 if w0 < 2.0 * x else 2.0 * x)
            if side < 0:
                g_lo *= 0.5
            side = -1
    return lo, hi


def invert_ccdf(params, t: float, epsilon: float, y_min: float, y_max: float,
                bracket: tuple[float, float] | None = None) -> float | None:
    """Largest y in [y_min, y_max] with ccdf(y, t) >= 1 - epsilon.

    None marks infeasibility (even y_min misses the target); y_max means
    the constraint binds nowhere on the deployment range. Otherwise the
    unique root of the strictly decreasing CCDF is bracketed to _INVERSION_REL_TOL
    times min(y_min, y_max - y_min) and its conservative (lower) end is returned.
    bracket (y_lo, y_hi) is where the root is sought, by default the whole
    range. A y_lo that misses the target or a y_hi that meets it gives None
    or y_max when it is the range's end; anywhere else the search falls
    back to the whole range.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    target = 1.0 - epsilon

    def g(y):
        return ccdf_inst_snr(params, y, t) - target

    lo, hi = bracket or (y_min, y_max)
    g_lo = g(lo)
    if g_lo < 0.0:
        return None if lo == y_min else invert_ccdf(params, t, epsilon, y_min, y_max)
    g_hi = g(hi)
    if g_hi >= 0.0:
        return y_max if hi == y_max else invert_ccdf(params, t, epsilon, y_min, y_max)
    return _bracket_root(g, lo, g_lo, hi, g_hi, _INVERSION_REL_TOL * min(y_min, y_max - y_min))[0]


def _outage_bound(scenario: Scenario, epsilons):
    """Per-user bounds (inner, outer) on U_m(t) of the outage metric (None:
    target missed everywhere): an inversion that returned y is infeasible
    from y plus the inversion width on, so the pair is (y, y + width), and
    an end at the user's y_max is math.inf (met everywhere).

    U_m is nonincreasing in t, so each user's earlier inversions in this
    solve bracket the next: a y feasible at the nearest probe t' >= t is
    feasible at t, and one infeasible at the nearest probe t' <= t is
    infeasible at t.
    """
    # per user: probed thresholds, ascending, and at each (feasible y, infeasible y),
    # where the range's ends stand in for "none known", and the inversion width
    probes = [([], [], _INVERSION_REL_TOL * min(lo, hi - lo))
              for lo, hi in zip(scenario.c, scenario.y_max)]

    def bound(m: int, t: float) -> tuple[float, float] | None:
        (ts, ends, width), y_min, y_max = probes[m], scenario.c[m], scenario.y_max[m]
        i, j = bisect_left(ts, t), bisect_right(ts, t)
        bracket = (ends[i][0] if i < len(ts) else y_min, ends[j - 1][1] if j else y_max)
        y = invert_ccdf(scenario.channels[m], t, epsilons[m], y_min, y_max, bracket)
        pair = None if y is None else (y, min(y + width, y_max))
        ts.insert(i, t)
        ends.insert(i, pair or (y_min, y_min))
        return pair if pair is None or pair[1] < y_max else (y if y < y_max else math.inf, math.inf)

    return bound


def _markov_ceiling(params, y: float, epsilon: float) -> float:
    """f(y) / (1 - epsilon): no threshold at or above it meets the target at y."""
    return f_scalar(params, y) / (1.0 - epsilon)


def default_threshold_ceiling(scenario: Scenario) -> float:
    """max_m of 2 rho_m eta_m / y_{m,min}, past every user's LoS-limited drop:
    the default top of a CCDF table."""
    return max(2.0 * p.rho * p.eta / c for p, c in zip(scenario.channels, scenario.c))


def _threshold_root(params, y: float, epsilon: float, lo: float = 0.0,
                    hi: float | None = None, g_hi: float | None = None) -> float:
    """Largest t with ccdf(y, t) >= 1 - epsilon, as the feasible end of a bracket.

    The root is sought on [lo, hi]: lo falls back to 0 (always feasible) if
    it misses the target. An hi given misses it, with g_hi = ccdf(y, hi) -
    (1 - epsilon) < 0; hi None starts at the Markov ceiling. The bracket
    shrinks to _THRESHOLD_REL_TOL times max(lo, NLoS root), at most that
    share of the root: the LoS branch only helps, Q1(a, b) >= e^{-b^2/2},
    the NLoS tail.
    """
    target = 1.0 - epsilon

    def g(t):
        return ccdf_inst_snr(params, y, t) - target

    if lo == 0.0 or (g_lo := g(lo)) < 0.0:
        lo, g_lo = 0.0, 1.0 - target
    if hi is None:
        hi = _markov_ceiling(params, y, epsilon)
        g_hi = g(hi)
    nlos_root = -params.rho * params.mu_sq * math.log1p(-epsilon) / y
    return _bracket_root(g, lo, g_lo, hi, g_hi, _THRESHOLD_REL_TOL * max(lo, nlos_root))[0]


def _min_threshold(scenario: Scenario, spec: OutageSpec, ys, t_lo: float = 0.0,
                   t_hi: float | None = None) -> tuple[float, int]:
    """(min over the users m in ys of the largest threshold m meets at ys[m],
    the worst m), ys = {m: squared distance}.

    [t_lo, t_hi] is a guess at the bracket of the result, such as the
    solver's certified one, whose t_hi no position meets; the default is
    cold, [0, Markov ceiling]. Only binding users get a root. Users are
    visited farthest first (the farthest always binds under shared channels
    and targets). Each user is checked once at the running minimum cur,
    which starts at t_hi: meeting its target there, it cannot lower the
    minimum. Otherwise cur certifies that user infeasible, so its root is
    started on [t_lo, cur] and becomes the new cur. Without t_hi the first
    user gets a root on [t_lo, Markov ceiling] instead. The result meets
    every target and lies within _THRESHOLD_REL_TOL relative of the min of
    independent roots; the worst user is the last one that lowered cur,
    the farthest if rounding lets every user meet t_hi.
    """
    spec = spec.for_scenario(scenario)
    order = sorted(ys, key=lambda m: -ys[m])
    cur, worst = t_hi, order[0]
    for m in order:
        params, epsilon = scenario.channels[m], spec.epsilons[m]
        if cur is None:
            cur, worst = _threshold_root(params, ys[m], epsilon, t_lo), m
            continue
        g_cur = ccdf_inst_snr(params, ys[m], cur) - (1.0 - epsilon)
        if g_cur < 0.0:
            cur, worst = _threshold_root(params, ys[m], epsilon, min(t_lo, cur), cur, g_cur), m
    return cur, worst


def max_threshold_at(scenario: Scenario, spec: OutageSpec, x_pin: float) -> float:
    """Exact objective: largest t meeting every outage target at x_pin."""
    return _min_threshold(scenario, spec, _distances(scenario, x_pin))[0]


def solve_outage(
    scenario: Scenario, spec: OutageSpec, tol: SolverTolerances | None = None
) -> Solution:
    """Globally maximize the outage-guaranteed threshold over the position.

    Outer bisection on t with T(t) feasibility probes, from the upper
    bracket min_m f_m(y_{m,min}) / (1 - eps_m): the user that attains it
    meets that level at no position, by Markov's inequality. x_star comes
    from bisection on x toward the worst user; t_star is the exact
    per-position threshold there. Each user's inversions start from its
    earlier probes, and the finish's threshold roots from the certified
    bracket.
    """
    tol = tol or SolverTolerances()
    spec = spec.for_scenario(scenario)
    channels, epsilons = scenario.channels, spec.epsilons
    ceilings = [_markov_ceiling(p, c, eps) for p, c, eps in zip(channels, scenario.c, epsilons)]
    if math.inf in ceilings:  # the outer search and the threshold roots start there
        m = ceilings.index(math.inf)
        raise InvalidScenario(f"users[{m}]: outage ceiling f(y_min) / (1 - epsilon) overflows "
                              f"(outage.epsilons[{m}] too close to 1 at this level)")
    return _solve_nested(
        scenario, _outage_bound(scenario, epsilons),
        lambda m, t, y: ccdf_inst_snr(channels[m], y, t) >= 1.0 - epsilons[m],
        lambda ys, t_lo, t_hi: _min_threshold(scenario, spec, ys, t_lo, t_hi),
        min(ceilings), tol,
    )


def fixed_antenna_outage_baseline(scenario: Scenario, spec: OutageSpec) -> Solution:
    """Best threshold attainable with the antenna fixed at dx/2."""
    x_fix = 0.5 * scenario.dx
    return Solution(
        t_star=max_threshold_at(scenario, spec, x_fix),
        x_star=x_fix,
        feasible=Interval(x_fix, x_fix),
        outer_iterations=0,
    )
