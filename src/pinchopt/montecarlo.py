"""Monte-Carlo simulator of the composite channel and brute-force oracles.

The channel as modeled: a Bernoulli LoS gate with success probability
p = exp(-beta r^2), a deterministic LoS phasor of magnitude sqrt(eta)/r
and phase 2 pi r / lambda + 2 pi x_pin / lambda_g, and an aggregate
complex-Gaussian NLoS term with per-component variance s^2 = mu^2 / (2 r^2).
The sampler draws it as its LoS/NLoS mixture. Batch i uses the Philox
counter-based generator seeded by SeedSequence(seed, spawn_key=(i,)) and
draws, in this order: the LoS count k ~ Binomial(n, p); k real, then k
imaginary standard normals for the LoS lanes values[:k]; n - k standard
exponentials for the blocked lanes values[k:]. Two identities make this
exact in distribution:

- n iid lanes from the mixture p*LoS + (1 - p)*blocked are, as a
  multiset, a Binomial(n, p) count of iid LoS lanes and the rest iid
  blocked lanes. Both estimators (sums of values and squares, and counts
  at thresholds on the sorted batch) ignore lane order, so they have the
  same joint law as with a Bernoulli gate on every lane.
- A blocked lane is |s (z_re + j z_im)|^2 = s^2 (z_re^2 + z_im^2), and
  z_re^2 + z_im^2 is chi-square with 2 degrees of freedom, that is
  exponential with mean 2. So the lane is 2 s^2 = mu^2 / r^2 times one
  standard exponential.

Per-batch partials are reduced with numpy's pairwise summation in batch
order, so scheduling cannot change results, and estimates are
reproducible bit for bit per seed.

The grid searches are the independent optimality oracles for both
solvers; they evaluate the analytic objectives exhaustively and report
the discretization slack alongside the best point. Where every user
shares one channel (and one outage target), shared_channel_optimum is an
exact one for both metrics at any number of users.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .maxmin import Interval, Solution, _distances
from .model import ChannelParams, Scenario, f_scalar, squared_distance_range
from .outage import OutageSpec, _threshold_root
from .special import ccdf_inst_snr


# Samples drawn and reduced per block; the block index seeds its generator.
_BATCH = 250_000


class UnsupportedScenario(ValueError):
    """Users do not share one channel (or one outage target)."""


@dataclass(frozen=True)
class McConfig:
    """Sample budget and reproducibility seed."""

    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean (or probability) with its standard error."""

    mean: float
    std_error: float
    samples: int


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.Philox(seq))


def _channel_constants(params: ChannelParams, r_sq: float, x_pin: float):
    r = math.sqrt(r_sq)
    p_los = math.exp(-params.beta * r_sq)
    los_amp = math.sqrt(params.eta) / r
    nlos_scale = math.sqrt(0.5 * params.mu_sq) / r
    phase = 2.0 * math.pi * r / params.carrier_wavelength
    phase += 2.0 * math.pi * x_pin / params.guided_wavelength
    return p_los, los_amp, nlos_scale, math.cos(phase), math.sin(phase)


def _draw_snr(params, r_sq, rng, n, x_pin, rho):
    p_los, los_amp, nlos_scale, cos_ph, sin_ph = _channel_constants(params, r_sq, x_pin)
    k = rng.binomial(n, p_los)
    values = np.empty(n)
    rng.standard_normal(out=values[:k])
    z_im = rng.standard_normal(k)
    rng.standard_exponential(out=values[k:])
    return kernels.snr_samples(values, z_im, los_amp, nlos_scale, cos_ph, sin_ph, rho)


def _batches(cfg: McConfig):
    done = 0
    index = 0
    while done < cfg.samples:
        n = min(_BATCH, cfg.samples - done)
        yield index, n
        done += n
        index += 1


def estimate_avg_snr(params: ChannelParams, r_sq: float, cfg: McConfig,
                     x_pin: float = 0.0) -> McEstimate:
    """Sample mean of the instantaneous SNR rho*|h|^2 with standard error."""
    sums, sq_sums = [], []
    for index, n in _batches(cfg):
        values = _draw_snr(params, r_sq, _batch_rng(cfg.seed, index), n, x_pin, params.rho)
        sums.append(np.sum(values))
        values *= values
        sq_sums.append(np.sum(values))
    total = float(np.sum(np.asarray(sums)))
    total_sq = float(np.sum(np.asarray(sq_sums)))
    n = cfg.samples
    mean = total / n
    if n > 1:
        var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
        std_error = math.sqrt(var / n)
    else:
        std_error = 0.0
    return McEstimate(mean=mean, std_error=std_error, samples=n)


def _binomial_std_error(successes: int, n: int) -> float:
    # +1/2 continuity floor keeps the error bar positive at 0 or n successes
    p = (successes + 0.5) / (n + 1.0)
    return math.sqrt(p * (1.0 - p) / n)


def estimate_ccdf_curve(params: ChannelParams, r_sq: float, thresholds, cfg: McConfig,
                        x_pin: float = 0.0) -> list[McEstimate]:
    """Empirical P[rho*|h|^2 >= t] with a binomial standard error, for each t in
    thresholds, all counted on one set of draws."""
    thresholds = np.asarray(thresholds, dtype=float)
    bad = thresholds[~(thresholds >= 0.0)]
    if bad.size:
        raise ValueError(f"thresholds must be nonnegative, got {bad[0]}")
    hits = np.zeros(thresholds.size, dtype=np.int64)
    for index, n in _batches(cfg):
        values = _draw_snr(params, r_sq, _batch_rng(cfg.seed, index), n, x_pin, params.rho)
        values.sort()
        hits += n - np.searchsorted(values, thresholds, side="left")
    return [
        McEstimate(mean=int(k) / cfg.samples,
                   std_error=_binomial_std_error(int(k), cfg.samples),
                   samples=cfg.samples)
        for k in hits
    ]


def grid_search_maxmin(scenario: Scenario, grid_points: int) -> Solution:
    """Exhaustive max-min average SNR over a uniform position grid.

    meta["t_slack"] bounds the gap to the continuous optimum: half the
    grid spacing times the largest objective slope over the grid.
    """
    if grid_points < 2:
        raise ValueError(f"grid needs at least 2 points, got {grid_points}")
    xs = np.linspace(0.0, scenario.dx, grid_points)
    worst = np.full(xs.shape, np.inf)
    max_slope = 0.0
    for m in range(scenario.n_users):
        params = scenario.channels[m]
        y = (scenario.users[m].x - xs) ** 2 + scenario.c_const(m)
        los = params.eta * np.exp(-params.beta * y)
        np.minimum(worst, params.rho * (los + params.mu_sq) / y, out=worst)
        # |dGamma/dx| = |f'(y)| * 2|x - x_m|; divided by y twice: y * y overflows
        # past y ~ 1e154 (tall waveguides), where f' may still be a double
        f_prime = params.rho * (los * (params.beta * y + 1.0) + params.mu_sq) / y / y
        max_slope = max(max_slope, float(np.max(f_prime * 2.0 * np.abs(scenario.users[m].x - xs))))
    best = int(np.argmax(worst))
    spacing = scenario.dx / (grid_points - 1)
    return Solution(
        t_star=float(worst[best]),
        x_star=float(xs[best]),
        feasible=Interval(float(xs[best]), float(xs[best])),
        outer_iterations=0,
        meta={"t_slack": 0.5 * spacing * max_slope, "grid_points": grid_points},
    )


def shared_channel_optimum(scenario: Scenario, spec: OutageSpec | None = None) -> Solution:
    """Exact optimum of either metric when all users share one channel.

    One strictly decreasing f then serves every user, and under one shared
    outage target so does the threshold root. So both metrics peak where
    the largest squared distance y(x) = max_m (x - x_m)^2 + C_m is least,
    at t* = f(y*) (spec None) or the threshold root at y* (spec given).
    y(x) is x^2 plus the upper envelope of the lines -2 x_m x + x_m^2 + C_m,
    built left to right from the users sorted by (x, C), so user order
    cannot change the result. On each envelope segment y(x) = (x - x_m)^2
    + C_m, so x* is the vertex x_m of the first segment that reaches it, or
    that segment's left end, the crossing of two users, all within
    [min x_m, max x_m]. Raises UnsupportedScenario when the users' rho,
    mu_sq, beta or eta, or their outage targets, differ.
    """
    params = scenario.channels[0]
    for m, other in enumerate(scenario.channels):
        for name in ("rho", "mu_sq", "beta", "eta"):
            if getattr(other, name) != getattr(params, name):
                raise UnsupportedScenario(f"users[{m}].{name} differs from users[0]")
    if spec is not None:
        spec = spec.for_scenario(scenario)
        for m, eps in enumerate(spec.epsilons):
            if eps != spec.epsilons[0]:
                raise UnsupportedScenario(f"outage.epsilons[{m}] differs from epsilons[0]")
    points = sorted((u.x, scenario.c_const(m)) for m, u in enumerate(scenario.users))
    hull = []  # (x_m, C_m, left end of the segment where user m is farthest), by falling x_m
    for x_m, c_m in reversed(points):
        if hull and hull[-1][0] == x_m:
            continue  # an equal x_m with a smaller C_m is never the farthest
        while hull:
            x_j, c_j, s_j = hull[-1]
            start = (x_j * x_j + c_j - x_m * x_m - c_m) / (2.0 * (x_j - x_m))
            if start > s_j:
                break
            hull.pop()
        hull.append((x_m, c_m, start if hull else -math.inf))
    ends = [s for _, _, s in hull[1:]] + [math.inf]
    x_star = next(max(x_m, s) for (x_m, _, s), end in zip(hull, ends) if x_m <= end)
    y_star = max(_distances(scenario, x_star).values())
    t_star = (f_scalar(params, y_star) if spec is None
              else _threshold_root(params, y_star, spec.epsilons[0]))
    return Solution(
        t_star=t_star,
        x_star=x_star,
        feasible=Interval(x_star, x_star),
        outer_iterations=0,
        meta={"alpha_star": y_star},
    )


def outage_grid_ceiling(scenario: Scenario, spec: OutageSpec) -> float:
    """Tight solver-independent cap on the outage optimum.

    By weak duality, max_x min_m g_m(x) <= min_m max_x g_m(x); the right
    side is each user's threshold root at its own minimum distance. Each
    root is the feasible end of its bracket in the CCDF arithmetic the grid
    evaluates, so a top grid row at the cap is met wherever it is attained.
    Gridding [0, cap] keeps the t-grid resolution commensurate with the
    optimum.
    """
    return min(
        _threshold_root(params, squared_distance_range(scenario, m).y_min, spec.epsilons[m])
        for m, params in enumerate(scenario.channels)
    )


def grid_search_outage(scenario: Scenario, spec: OutageSpec, grid_points: int,
                       t_grid) -> Solution:
    """Exhaustive outage-threshold maximization over position x t grids.

    t_grid is either a point count (linspace from 0 to
    outage_grid_ceiling) or an explicit increasing array starting at 0.
    The positions are scanned in order against the best row so far: a
    position beats it only if every user meets the next row there, and
    then climbs while every user meets the row above. Because the CCDF
    is nonincreasing in t, this finds the highest row, and the first
    position on it, that checking every (x, t) cell would find. It costs
    about one scalar CCDF call per position (the first user that misses
    ends the check, and the user that missed last is checked first) plus
    M per row climbed.
    """
    if grid_points < 2:
        raise ValueError(f"grid needs at least 2 points, got {grid_points}")
    spec = spec.for_scenario(scenario)
    if np.isscalar(t_grid):
        if int(t_grid) < 2:
            raise ValueError(f"t grid needs at least 2 points, got {t_grid}")
        t_grid = np.linspace(0.0, outage_grid_ceiling(scenario, spec), int(t_grid))
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if t_grid.size < 2:
            raise ValueError("t grid needs at least 2 points")
        if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
            raise ValueError("t grid must increase from 0")
    xs = np.linspace(0.0, scenario.dx, grid_points)
    ts = t_grid.tolist()
    users = [(scenario.channels[m], 1.0 - spec.epsilons[m],
              ((scenario.users[m].x - xs) ** 2 + scenario.c_const(m)).tolist())
             for m in range(scenario.n_users)]
    best, k = 0, 1  # row 0 (t = 0) is met everywhere; k is the row to beat
    for i in range(grid_points):
        while k < len(ts):
            miss = next((j for j, (params, target, ys) in enumerate(users)
                         if ccdf_inst_snr(params, ys[i], ts[k]) < target), None)
            if miss is not None:
                users.insert(0, users.pop(miss))  # it likely misses at the next position too
                break
            best, k = i, k + 1
    return Solution(
        t_star=ts[k - 1],
        x_star=float(xs[best]),
        feasible=Interval(float(xs[best]), float(xs[best])),
        outer_iterations=0,
        meta={
            "t_spacing": float(np.max(np.diff(t_grid))),
            "x_spacing": scenario.dx / (grid_points - 1),
            "grid_points": grid_points,
            "t_points": len(ts),
        },
    )
