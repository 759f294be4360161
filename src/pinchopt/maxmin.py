"""Max-min average-SNR antenna placement via nested-interval bisection.

For a target level t, user m's constraint (average SNR >= t) is equivalent to
r_m^2(x) <= alpha_m(t) with f(alpha_m(t)) = t, so the feasible positions
form the interval [x_m - d_m, x_m + d_m] ∩ [0, dx], d_m =
sqrt(max(alpha_m - C_m, 0)). Intersections of such intervals shrink
monotonically in t, which makes the epigraph problem solvable by plain
bisection on t with one closed-form inversion per user, then on x toward
the worst user. Where all users share one channel, the exact optimum
montecarlo.shared_channel_optimum is an independent cross-check.
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
    searches), per_user_bounds the squared-distance thresholds at the
    certified level (the least largest squared distance, for every user,
    for the shared-channel optimum; None for baselines and grid searches).
    meta carries diagnostics such as the outer bracket (bracket_lo/
    bracket_hi), the binding users (binding: the sorted indices of the one
    or two worst users around x_star) or grid slack estimates.
    """

    t_star: float
    x_star: float
    feasible: Interval
    outer_iterations: int
    per_user_bounds: tuple[float, ...] | None = None
    meta: dict = field(default_factory=dict)


def invert_f(params, t: float, rng: SquaredDistanceRange) -> float | None:
    """Largest double alpha in [y_min, y_max] with f(alpha) >= t, in closed form.

    f(y) = t reads t y - rho mu_sq = rho eta e^{-beta y}. With a = rho mu_sq / t
    and c = rho eta / t the root is a + W0(beta c e^{-beta a}) / beta, that is
    a + c e^{-beta a - W0}, and a + c at beta = 0. A Newton step and a walk of a
    few ulps follow, so intervals never overstate feasibility. None marks t above
    f(y_min) (no position reaches t); t = f(y_min) gives y_min, and t <= f(y_max)
    gives y_max (every position meets t).
    """
    f_min = f_scalar(params, rng.y_min)
    if t >= f_min:
        return None if t > f_min else rng.y_min
    if t <= f_scalar(params, rng.y_max):
        return rng.y_max
    beta, rho_eta, rho_mu = params.beta, params.rho * params.eta, params.rho * params.mu_sq
    a, log_c = rho_mu / t, math.log(rho_eta) - math.log(t)
    w = lambert_w0(math.log(beta) + log_c - beta * a) if beta > 0.0 else 0.0
    y = a + math.exp(log_c - beta * a - w)
    p = rho_eta * math.exp(-beta * y)
    y = min(max(y - (t * y - p - rho_mu) / (t + beta * p), rng.y_min), rng.y_max)
    while f_scalar(params, y) < t:  # stops by y_min, where f > t
        y = math.nextafter(y, 0.0)
    while f_scalar(params, up := math.nextafter(y, math.inf)) >= t:  # and below y_max
        y = up
    return y


def _feasible_set(scenario: Scenario, bound, t: float):
    """Intersection over users of the position intervals at level t.

    bound(m, t) is user m's squared-distance bound, None when no position
    serves user m. User m's interval is |x - x_m| <= sqrt(bound - C_m),
    clipped to [0, dx]. Returns (interval, bounds), bounds in user order,
    or None as soon as a bound is None or the intersection is empty.
    """
    lo, hi = 0.0, scenario.dx
    bounds = []
    for m in range(scenario.n_users):
        b = bound(m, t)
        if b is None:
            return None
        d = math.sqrt(max(b - scenario.c_const(m), 0.0))
        x_m = scenario.users[m].x
        lo, hi = max(lo, x_m - d), min(hi, x_m + d)
        if lo > hi:
            return None
        bounds.append(b)
    return Interval(lo, hi), tuple(bounds)


def _distances(scenario: Scenario, x_pin: float) -> list[float]:
    """Squared distance from the antenna at x_pin to every user."""
    return [distance_squared(user, scenario.dv, x_pin) for user in scenario.users]


def _worst_avg_snr(scenario: Scenario, ys) -> tuple[float, int]:
    """(min_m f_m(ys[m]), the user m that attains it)."""
    return min((f_scalar(scenario.channels[m], ys[m]), m) for m in range(scenario.n_users))


def min_avg_snr(scenario: Scenario, x_pin: float) -> float:
    """Worst-user average SNR at a given antenna position (the objective)."""
    return _worst_avg_snr(scenario, _distances(scenario, x_pin))[0]


def _solve_nested(scenario: Scenario, bound, objective, t_hi: float,
                  tol: SolverTolerances) -> Solution:
    """Solver shared by both metrics: bound(m, t) as in _feasible_set, the
    exact objective(ys, t_lo, t_hi) -> (value, worst user) at squared
    distances ys, and a level t_hi that no position meets.

    Bisection on t certifies [t_lo, t_hi] to relative width eps_t, or to
    adjacent doubles when eps_t is below their spacing. Bisection on x over
    the last nonempty intersection then moves each midpoint's far end
    toward its worst user m: every user's value strictly decreases in
    |x - x_m|. The last such users on each side bind (meta["binding"]).
    The objective also gets the certified t_lo and t_hi, which bracket its
    value on that intersection up to the inner tolerance, to start its
    roots from; it may ignore them.
    """
    t_lo, interval, bounds = 0.0, None, None
    iters = 0
    while t_lo <= 0.0 or t_hi - t_lo > tol.eps_t * t_lo:
        t_mid = 0.5 * (t_lo + t_hi)
        if not t_lo < t_mid < t_hi:
            break
        iters += 1
        found = _feasible_set(scenario, bound, t_mid)
        if found is None:
            t_hi = t_mid
        else:
            t_lo, (interval, bounds) = t_mid, found
    if t_lo <= 0.0:
        raise SolverAnomaly(f"no positive level below {t_hi} is feasible")
    lo, hi = interval
    xtol = 1e-13 * max(abs(lo), abs(hi), 1.0)  # ulp-scale floor
    left = right = None
    while hi - lo > xtol:
        x_mid = 0.5 * (lo + hi)
        m = objective(_distances(scenario, x_mid), t_lo, t_hi)[1]
        # a worst user at x_mid itself stops the search there
        if scenario.users[m].x >= x_mid:
            lo, left = x_mid, m
        if scenario.users[m].x <= x_mid:
            hi, right = x_mid, m
    x_star = 0.5 * (lo + hi)
    t_star, worst = objective(_distances(scenario, x_star), t_lo, t_hi)
    binding = tuple(sorted({left, right} - {None} or {worst}))
    return Solution(
        t_star=t_star,
        x_star=x_star,
        feasible=interval,
        outer_iterations=iters,
        per_user_bounds=bounds,
        meta={"bracket_lo": t_lo, "bracket_hi": t_hi, "binding": binding},
    )


def solve_maxmin(scenario: Scenario, tol: SolverTolerances | None = None) -> Solution:
    """Globally maximize the minimum average SNR over the antenna position.

    Outer bisection on the guaranteed level t between 0 (always feasible)
    and twice the best single-user SNR (structurally infeasible); each
    probe runs one scalar inversion per user. x_star comes from bisection
    on x toward the worst user, t_star is the exact objective there, and
    Solution.meta carries the bisection bracket and the binding users.
    """
    tol = tol or SolverTolerances()
    ranges = [squared_distance_range(scenario, m) for m in range(scenario.n_users)]
    t_hi = 2.0 * max(f_scalar(p, r.y_min) for p, r in zip(scenario.channels, ranges))
    return _solve_nested(scenario, lambda m, t: invert_f(scenario.channels[m], t, ranges[m]),
                         lambda ys, *_: _worst_avg_snr(scenario, ys), t_hi, tol)


def fixed_antenna_baseline(scenario: Scenario) -> Solution:
    """Conventional fixed deployment at the region midpoint dx/2."""
    x_fix = 0.5 * scenario.dx
    return Solution(
        t_star=min_avg_snr(scenario, x_fix),
        x_star=x_fix,
        feasible=Interval(x_fix, x_fix),
        outer_iterations=0,
        per_user_bounds=None,
    )
