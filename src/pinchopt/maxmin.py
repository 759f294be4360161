"""Max-min average-SNR antenna placement via nested-interval bisection.

For a target level t, user m's constraint (average SNR >= t) is equivalent to
r_m^2(x) <= alpha_m(t) with f(alpha_m(t)) = t, so the feasible positions
form the interval [x_m - d_m, x_m + d_m] ∩ [0, dx], d_m =
sqrt(max(alpha_m - C_m, 0)). Intersections of such intervals shrink
monotonically in t, which makes the epigraph problem solvable by plain
bisection on t with one closed-form inversion per user, then on x toward
the worst user. Where all users share one channel, the exact optimum
montecarlo.shared_channel_optimum is an independent cross-check.

Every probe's verdict is a proof: user m's bound is a pair (inner, outer),
every position within inner meets t and none beyond outer does (here both
are alpha_m), so a nonempty inner intersection proves t feasible and an
empty outer one proves it infeasible.

Both bisections run on an active set of users, the ones that can still
bind. A user that meets the infeasible top of the t-bracket everywhere
on the current intersection I meets every later probe there, so it is
dropped: later probes intersect the active users' intervals from I, and
the x finish evaluates only the active users. Per-probe and finish work
then scale with the users that bind, usually two or three, not with M.
A solve reports what the bisections certify (level, position, bracket,
binding users), so no user is inverted after the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import (
    Scenario,
    SquaredDistanceRange,
    distance_squared,
    f_scalar,
    lambert_w0,
    squared_distance_range,
)


class SolverAnomaly(RuntimeError):
    """Bisection failed to certify a feasible level; indicates broken inputs."""


class Interval(NamedTuple):
    """Closed interval [lo, hi] on the waveguide axis."""

    lo: float
    hi: float


@dataclass(frozen=True)
class SolverTolerances:
    """eps_t: relative tolerance on the level t, the one accuracy a caller
    sets for both metrics."""

    eps_t: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.eps_t < math.inf:
            raise ValueError(f"eps_t must be finite and positive, got {self.eps_t}")


@dataclass(frozen=True)
class Solution:
    """Solver output: achieved level t_star at position x_star.

    feasible is the final certified interval, always nonempty (the point
    (x_star, x_star) for the shared-channel optimum, baselines and grid
    searches). For outage it is the outer interval at bracket_lo: it holds
    every position that meets bracket_lo and may exceed that set by the
    inversion width. meta carries diagnostics such as the outer bracket
    (bracket_lo/bracket_hi), the binding users (binding: the sorted indices
    of the one or two worst users around x_star) or grid slack estimates.
    """

    t_star: float
    x_star: float
    feasible: Interval
    outer_iterations: int
    meta: dict = field(default_factory=dict)


def invert_f(params, t: float, rng: SquaredDistanceRange,
             f_ends: tuple[float, float] | None = None) -> float | None:
    """Largest double alpha in [y_min, y_max] with f(alpha) >= t, in closed form.

    f(y) = t reads t y - rho mu_sq = rho eta e^{-beta y}. With a = rho mu_sq / t
    and c = rho eta / t the root is a + W0(beta c e^{-beta a}) / beta, that is
    a + c e^{-beta a - W0}, and a + c at beta = 0. A Newton step and a search
    over ulps follow, so intervals never overstate feasibility; the search
    costs O(log ulps) calls of f even where f is flat over millions of ulps
    (subnormal levels). None marks t above
    f(y_min) (no position reaches t); t = f(y_min) gives y_min, and t <= f(y_max)
    gives y_max (every position meets t). f_ends is (f(y_min), f(y_max)) when
    the caller has it, as a solve does once per user.
    """
    f_min, f_max = f_ends or (f_scalar(params, rng.y_min), f_scalar(params, rng.y_max))
    if t >= f_min:
        return None if t > f_min else rng.y_min
    if t <= f_max:
        return rng.y_max
    beta, rho_eta, rho_mu = params.beta, params.rho * params.eta, params.rho_mu_sq
    y_min, y_max = rng.y_min, rng.y_max
    a, log_c = rho_mu / t, math.log(rho_eta) - math.log(t)
    w = lambert_w0(math.log(beta) + log_c - beta * a) if beta > 0.0 else 0.0
    y = a + math.exp(log_c - beta * a - w)
    p = rho_eta * math.exp(-beta * y)
    # clamped to [y_min, y_max]; here and in the gallop, comparisons pick the
    # operand builtin min/max would, at a fraction of their cost
    y -= (t * y - p - rho_mu) / (t + beta * p)
    y = y_min if y_min > y else y
    y = y_max if y_max < y else y
    # f(y_min) > t > f(y_max): gallop 1, 2, 4, ... ulps from y to a bracket
    # [lo, hi] with f(lo) >= t > f(hi), then bisect it to adjacent doubles
    step = math.ulp(y)
    if f_scalar(params, y) >= t:
        lo = y
        while (hi := y + step) < y_max and f_scalar(params, hi) >= t:
            lo, step = hi, 2.0 * step
        hi = y_max if y_max < hi else hi
    else:
        hi = y
        while (lo := y - step) > y_min and f_scalar(params, lo) < t:
            hi, step = lo, 2.0 * step
        lo = y_min if y_min > lo else lo
    # the midpoint falls strictly inside [lo, hi] unless the two are adjacent
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if f_scalar(params, mid) >= t:
            lo = mid
        else:
            hi = mid
    return lo


def _feasible_set(scenario: Scenario, bound, t: float, users=None,
                  within: Interval | None = None) -> tuple[Interval | None, bool]:
    """(outer intersection, whether the inner one is nonempty) of within
    (default [0, dx]) and the intervals at level t of users (default all).

    bound(m, t) is user m's pair (inner, outer) of squared-distance bounds,
    None when no position serves user m; a bound b admits |x - x_m| <=
    sqrt(b - C_m), and math.inf (a solve's bound at y_max) every position.
    The solver passes its active users and its last feasible intersection
    I: the intervals are nested in t, so above I's level the intersection
    lies inside I, and a user dropped for slack on I cannot shrink it.
    Returns (None, False) as soon as a bound is None or the outer
    intersection is empty.
    """
    # max(u, v) and min(u, v) are written as the comparisons the builtins make,
    # v if v > u (v < u) else u, at a fraction of a builtin call's cost
    lo, hi = in_lo, in_hi = within or (0.0, scenario.dx)
    for m in range(scenario.n_users) if users is None else users:
        b = bound(m, t)
        if b is None:
            return None, False
        x_m, c_m = scenario.users[m].x, scenario.c_const(m)
        d = b[1] - c_m
        d = math.sqrt(0.0 if 0.0 > d else d)
        left, right = x_m - d, x_m + d
        lo, hi = left if left > lo else lo, right if right < hi else hi
        if lo > hi:
            return None, False
        if b[0] < b[1]:  # else user m's inner interval is its outer one, inside [lo, hi]
            d = b[0] - c_m
            d = math.sqrt(0.0 if 0.0 > d else d)
            left, right = x_m - d, x_m + d
            in_lo, in_hi = left if left > in_lo else in_lo, right if right < in_hi else in_hi
    return Interval(lo, hi), (in_lo if in_lo > lo else lo) <= (in_hi if in_hi < hi else hi)


def _distances(scenario: Scenario, x_pin: float, users=None) -> dict[int, float]:
    """Squared distance from the antenna at x_pin to users (default all), by user."""
    if users is None:
        users = range(scenario.n_users)
    return {m: distance_squared(scenario.users[m], scenario.dv, x_pin) for m in users}


def _worst_avg_snr(scenario: Scenario, ys) -> tuple[float, int]:
    """(min over the users m in ys of f_m(ys[m]), the user m that attains it)."""
    return min((f_scalar(scenario.channels[m], y), m) for m, y in ys.items())


def min_avg_snr(scenario: Scenario, x_pin: float) -> float:
    """Worst-user average SNR at a given antenna position (the objective)."""
    return _worst_avg_snr(scenario, _distances(scenario, x_pin))[0]


def _solve_nested(scenario: Scenario, bound, meets, objective, t_hi: float,
                  tol: SolverTolerances) -> Solution:
    """Solver shared by both metrics: bound(m, t) as in _feasible_set,
    meets(m, t, y) whether user m meets level t at squared distance y, the
    exact objective(ys, t_lo, t_hi) -> (value, worst user) over the users
    in ys = {m: squared distance}, and a level t_hi that no position meets.

    Bisection on t certifies [t_lo, t_hi] to relative width eps_t, to
    adjacent doubles, or until a probe is neither proven feasible nor
    infeasible. It probes only the active users. After each probe, every
    active user is tested at t_hi at the end of the last feasible
    intersection I farther from x_m, where its value on I is least (every
    user's value strictly decreases in |x - x_m|). A user that meets t_hi
    there meets every later probe on all of I and is dropped; each probe
    intersects from I, not [0, dx], so the interval never widens to where
    a dropped user fails.

    Bisection on x over I, which holds the argmax, then moves each
    midpoint's far end toward its worst user m. The last such users on
    each side bind (meta["binding"]). The objective also gets t_lo and
    t_hi, which bracket its value on I, to start its roots from.
    """
    users, dv = scenario.users, scenario.dv
    active = list(range(scenario.n_users))
    t_lo, interval = 0.0, None
    iters = 0
    while t_lo <= 0.0 or t_hi - t_lo > tol.eps_t * t_lo:
        t_mid = 0.5 * (t_lo + t_hi)
        if not t_lo < t_mid < t_hi:
            break
        iters += 1
        found, proven = _feasible_set(scenario, bound, t_mid, active, interval)
        if found is None:
            t_hi = t_mid
        elif proven:
            t_lo, interval = t_mid, found
        else:  # the inversions cannot decide t_mid: the bracket is as tight as they allow
            break
        if interval is not None:
            # user m's least value on I is at the end farther from x_m: the larger
            # squared distance, picked by the comparison the builtin max makes
            binds = []
            for m in active:
                y_lo = distance_squared(users[m], dv, interval.lo)
                y_hi = distance_squared(users[m], dv, interval.hi)
                if not meets(m, t_hi, y_hi if y_hi > y_lo else y_lo):
                    binds.append(m)
            if binds:  # a guard against rounding only: some user misses t_hi on I
                active = binds
    if t_lo <= 0.0:
        raise SolverAnomaly(f"no positive level below {t_hi} is feasible")
    lo, hi = interval
    xtol = 1e-13 * max(abs(lo), abs(hi), 1.0)  # ulp-scale floor
    left = right = None
    while hi - lo > xtol:
        x_mid = 0.5 * (lo + hi)
        m = objective(_distances(scenario, x_mid, active), t_lo, t_hi)[1]
        # a worst user at x_mid itself stops the search there
        if users[m].x >= x_mid:
            lo, left = x_mid, m
        if users[m].x <= x_mid:
            hi, right = x_mid, m
    x_star = 0.5 * (lo + hi)
    t_star, worst = objective(_distances(scenario, x_star, active), t_lo, t_hi)
    binding = tuple(sorted({left, right} - {None} or {worst}))
    return Solution(
        t_star=t_star,
        x_star=x_star,
        feasible=interval,
        outer_iterations=iters,
        meta={"bracket_lo": t_lo, "bracket_hi": t_hi, "binding": binding},
    )


def solve_maxmin(scenario: Scenario, tol: SolverTolerances | None = None) -> Solution:
    """Globally maximize the minimum average SNR over the antenna position.

    Outer bisection on the guaranteed level t between 0 (always feasible)
    and twice the best single-user SNR (structurally infeasible); each
    probe runs one scalar inversion per active user, from f at each user's
    range ends, evaluated once. x_star comes from bisection on x toward the
    worst user, t_star is the exact objective there, and Solution.meta
    carries the bisection bracket and the binding users.
    """
    tol = tol or SolverTolerances()
    channels = scenario.channels
    ranges = [squared_distance_range(scenario, m) for m in range(scenario.n_users)]
    ends = [(f_scalar(p, r.y_min), f_scalar(p, r.y_max)) for p, r in zip(channels, ranges)]

    def bound(m: int, t: float) -> tuple[float, float] | None:  # exact: inner = outer
        y = invert_f(channels[m], t, ranges[m], ends[m])
        return None if y is None else (y, y) if y < ranges[m].y_max else (math.inf, math.inf)

    return _solve_nested(
        scenario, bound,
        lambda m, t, y: f_scalar(channels[m], y) >= t,
        lambda ys, *_: _worst_avg_snr(scenario, ys), 2.0 * max(f for f, _ in ends), tol)


def fixed_antenna_baseline(scenario: Scenario) -> Solution:
    """Conventional fixed deployment at the region midpoint dx/2."""
    x_fix = 0.5 * scenario.dx
    return Solution(
        t_star=min_avg_snr(scenario, x_fix),
        x_star=x_fix,
        feasible=Interval(x_fix, x_fix),
        outer_iterations=0,
    )
