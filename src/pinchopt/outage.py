"""Outage-constrained SNR-threshold maximization.

Each user's reliability constraint is P_out(r^2, t) = P[snr < t] <= eps_m,
with P_out from special.outage_prob, so a small eps keeps its relative
precision (no comparison is made against 1 - eps). Where Q1 saturates,
outage_prob is an upper bound on P_out, so a target it meets is met. P_out
strictly increases in the squared distance, and so does that bound, so the
constraint pins an upper bound U_m(t) on r_m^2, hence a position interval
J_m(t). The intervals are nested in t, so the largest threshold with a
nonempty intersection T(t) = ∩ J_m(t) is found by the same outer bisection
as the average-SNR design (maxmin._solve_nested, with its active set).

Every root has a closed-form bracket. With q = -expm1(-beta y) and k =
t/(rho mu^2), P_out <= -expm1(-k y), because Q1(a, b) >= e^{-b^2/2}, so the
NLoS root (-expm1(-k y) = eps) is a feasible end; and P_out >= q (-expm1(-k
y)), because P1 = 1 - Q1 >= 0, so the saturated root (that form = eps) is an
infeasible end. Where Q1 saturates, outage_prob exceeds that form by at
most its bound on p P1, p e^{-(a - b)^2/2} / 2; past a - b = gap_m =
max(kernels.SATURATION_GAP, sqrt(2 (ln(1/eps_m) + 53 ln 2))), counting p in
((a - b)^2 + 2 beta y >= gap_m^2), that is below 2^-53 eps_m, and the
saturated root is the root:

- the threshold at fixed y is t = -(rho mu^2 / y) log1p(-eps/q) when eps <
  q, returned _SAT_MARGIN of eps on its feasible side and checked against
  outage_prob, one ulp down at a time, so it never lies above the exact root;
- the inversion at fixed t solves log q(y) + log(-expm1(-k y)) = log eps by
  Newton in u = log y from the NLoS root. The left side is concave and
  increasing in u, so the tangent at the last iterate, moved _SAT_MARGIN
  back, is a feasible y. It is returned with no outage_prob call, once the
  saturated form, a lower bound on P_out, proves its outer end (y plus the
  inversion width) infeasible.

Everywhere else (beta = 0, band and series lanes) _bracket_root, one
Illinois root finder that bisects at the geometric mean past a binade,
runs on the closed-form bracket alone, so an inversion depends only on
the user, the level and the target, never on the order of the probes;
only the finish's threshold roots start from what the solve has found,
inside the certified [t_lo, t_hi]. There each inversion stops at
_INVERSION_REL_TOL of its r^2 scale and each threshold root at
_THRESHOLD_REL_TOL (1e-12). A probe gets both ends of every inversion, so
its verdict is a proof (maxmin._feasible_set); a probe the ends cannot
decide ends the bisection. A miss is a proof only as far as outage_prob is
exact: where Q1 saturates short of gap_m, it is a miss of the bound, and
the optimum may lie above the bracket.

The per-position objective is the smallest of the users' threshold roots,
but only the users that bind need one: users are visited farthest first,
and a user whose saturated root lies above the running minimum, or who
meets it there, cannot lower it. The user that last lowered it is the
worst user.

The Markov ceiling keeps two roles. By Markov's inequality P[snr >= t] <=
f(y) / t, with f the average SNR, strictly because the NLoS part makes the
SNR continuous, so no threshold at or above f(y) / (1 - eps) meets the
target at squared distance y. The outer bisection starts at the least such
ceiling over the users, each at its nearest position, and a threshold root
with eps >= q, which has no saturated root, takes its user's ceiling as
its upper end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .maxmin import Interval, SolverTolerances, Solution, _distances, _solve_nested
from .model import InvalidScenario, Scenario, f_scalar
from .special import _marcum_b, _mul_div, outage_prob

# Relative width at which the per-position threshold root stops.
_THRESHOLD_REL_TOL = 1e-12
# Width, relative to the lesser of a user's least r^2 and its r^2 span, at which the inversion
# stops: relative to y_max it would swamp roots near y_min, and above the span every root.
_INVERSION_REL_TOL = 1e-9
# Share of eps that a closed-form end keeps from the target: more than its rounding
# (a few ulps) plus the 2^-53 eps that outage_prob's bound on P1 adds past gap_m.
_SAT_MARGIN = 2.0 ** -48
# Newton on the saturated inversion stops at a step below this, in log y: the error
# after it is about the square, far inside the inversion width.
_NEWTON_TOL = 2.0 ** -20
_NEWTON_STEPS = 60
_LN_2_53 = 53.0 * math.log(2.0)


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


def _saturates(params, y: float, t: float, epsilon: float) -> bool:
    """Whether Q1 saturates at (y, t) (a - b >= kernels.SATURATION_GAP, with outage_prob's
    b) and the bound outage_prob puts on p P1 there, below p e^{-(a - b)^2/2}, is at most
    2^-53 eps: (a - b)^2 + 2 beta y >= gap_m^2 = 2 (ln(1/eps) + 53 ln 2)."""
    d = params.marcum_a - _marcum_b(params, y, t)
    return (d >= kernels.SATURATION_GAP
            and d * d + 2.0 * params.beta * y >= 2.0 * (_LN_2_53 - math.log(epsilon)))


def _nlos_root(epsilon: float) -> float | None:
    """z = t y / (rho mu^2) where -expm1(-z) = eps, _SAT_MARGIN of eps on the feasible
    side: P_out <= -expm1(-z) there. None where eps is too near 1 for it."""
    z = -math.log1p(-epsilon)
    # d log(-expm1(-z)) / d log z = z (1 - eps) / eps at the root
    margin = _SAT_MARGIN * epsilon / (z * (1.0 - epsilon))
    return z * (1.0 - margin) if margin < 2.0 ** -20 else None


def _saturated_floor(params, y: float, t: float) -> float:
    """q (-expm1(-t y / (rho mu^2))): P_out is at least this (P1 >= 0), so where it
    exceeds eps, y misses the target at t by proof."""
    return -math.expm1(-params.beta * y) * -math.expm1(-_mul_div(t, y, params.rho_mu_sq))


def _saturated_threshold(params, y: float, epsilon: float) -> tuple[float, float] | None:
    """(feasible, infeasible) ends of the root in t of q (-expm1(-t y / (rho mu^2))) = eps,
    each _SAT_MARGIN of eps from it; None where eps >= q (no root) or the ends overflow.
    P_out is at least that form, so the infeasible end is one: where it underflows to
    0, no positive double meets the target."""
    q = -math.expm1(-params.beta * y)
    if not epsilon < q:
        return None
    x = epsilon / q
    z = -math.log1p(-x)
    margin = _SAT_MARGIN * x / (z * (1.0 - x))  # d log(q (-expm1(-z))) / d log z = z (1 - x) / x
    t = _mul_div(params.rho_mu_sq, z, y)
    if not (margin < 2.0 ** -20 and t < math.inf):
        return None
    return t * (1.0 - margin), t * (1.0 + margin)


def _saturated_inversion(params, t: float, epsilon: float,
                         y: float) -> tuple[float, float] | None:
    """(feasible, likely infeasible) ends of the root in y of q(y) (-expm1(-k y)) = eps,
    k = t / (rho mu^2), each _SAT_MARGIN / h' from the last iterate.

    Newton on h(u) = log(q (-expm1(-k y)) / eps), u = log y, from the NLoS
    root y, which lies left of the root, so the iterates rise to it (a start
    taken from earlier probes would make the answer's last bits depend on
    them). h is concave (each term's slope z / expm1(z), z = beta y or k y,
    falls in u), so h lies below every tangent: the tangent's root moved
    back by _SAT_MARGIN / h' has h <= -_SAT_MARGIN, less the rounding. The
    other end is past the root only if the last step's error, about its
    square, is below _SAT_MARGIN / h', so the caller checks it.
    None where an iterate leaves the positive doubles or Newton does not
    settle within _NEWTON_STEPS.
    """
    beta, scale = params.beta, params.rho_mu_sq
    for _ in range(_NEWTON_STEPS):
        if not 0.0 < y < math.inf:
            return None
        z1, z2 = beta * y, _mul_div(t, y, scale)
        q, nlos = -math.expm1(-z1), -math.expm1(-z2)
        ratio = q * (nlos / epsilon)
        slope = z1 * (1.0 - q) / q + z2 * (1.0 - nlos) / nlos if ratio > 0.0 else 0.0
        if not slope > 0.0:
            return None
        step = -math.log(ratio) / slope
        if -_NEWTON_TOL <= step <= _NEWTON_TOL:
            back = _SAT_MARGIN / slope
            return y * math.exp(step - back), y * math.exp(step + back)
        try:
            y *= math.exp(step)
        except OverflowError:
            return None
    return None


def invert_ccdf(params, t: float, epsilon: float, y_min: float, y_max: float) -> float | None:
    """Largest y in [y_min, y_max] with outage_prob(y, t) <= epsilon.

    None marks infeasibility (even y_min misses the target); y_max means
    the constraint binds nowhere on the deployment range. Where Q1
    saturates at the root (a - b >= gap_m, _saturates), the root is the
    saturated one, returned with no outage_prob call once the saturated
    form, a lower bound on P_out, misses the target at y plus the width,
    _INVERSION_REL_TOL times min(y_min, y_max - y_min). Elsewhere the root
    is bracketed to that width and its conservative (lower) end returned,
    from [NLoS root, past the saturated root], or from the whole range where
    that bracket does not hold the root.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    width = _INVERSION_REL_TOL * min(y_min, y_max - y_min)
    z_nlos = _nlos_root(epsilon) if t > 0.0 else None
    cold_lo, cold_hi = y_min, y_max
    if z_nlos is not None:
        y_nlos = _mul_div(z_nlos, params.rho_mu_sq, t)
        if y_nlos >= y_max:
            return y_max
        cold_lo = y_nlos if y_nlos > y_min else y_min
        # a normal eps, so that -expm1(-k y) / eps cannot overflow
        sat = (_saturated_inversion(params, t, epsilon, y_nlos)
               if params.beta > 0.0 and epsilon >= 2.2250738585072014e-308 else None)
        if sat is not None:
            inner, upper = sat
            if _saturates(params, inner if inner < y_max else y_max, t, epsilon):
                if inner >= y_max:
                    return y_max
                if inner >= y_min:
                    if (outer := inner + width) >= y_max or \
                            _saturated_floor(params, outer, t) > epsilon:
                        return inner
                    cold_lo = inner  # feasible by proof; only its outer end is undecided
                elif _saturated_floor(params, y_min, t) > epsilon:
                    return None
            # Newton's last step leaves an error about its square, which may exceed the
            # step back: upper closes the bracket only once it misses the target
            if cold_lo < upper < cold_hi and _saturated_floor(params, upper, t) > epsilon:
                cold_hi = upper

    def g(y):
        return epsilon - outage_prob(params, y, t)

    for lo, hi in ((cold_lo, cold_hi), (y_min, y_max)):  # the whole range always returns
        if (g_lo := g(lo)) < 0.0:
            if lo == y_min:
                return None
        elif (g_hi := g(hi)) >= 0.0:
            if hi == y_max:
                return y_max
        else:
            return _bracket_root(g, lo, g_lo, hi, g_hi, width)[0]


def _outage_bound(scenario: Scenario, epsilons):
    """Per-user bounds (inner, outer) on U_m(t) of the outage metric (None:
    target missed everywhere): an inversion that returned y is infeasible
    from y plus the inversion width on, so the pair is (y, y + width), and
    an end at the user's y_max is math.inf (met everywhere).
    """
    widths = [_INVERSION_REL_TOL * min(lo, hi - lo) for lo, hi in zip(scenario.c, scenario.y_max)]

    def bound(m: int, t: float) -> tuple[float, float] | None:
        y_max = scenario.y_max[m]
        y = invert_ccdf(scenario.channels[m], t, epsilons[m], scenario.c[m], y_max)
        if y is None:
            return None
        outer = y + widths[m]
        return (y, outer) if outer < y_max else (y if y < y_max else math.inf, math.inf)

    return bound


def _markov_ceiling(params, y: float, epsilon: float) -> float:
    """f(y) / (1 - epsilon): no threshold at or above it meets the target at y."""
    return f_scalar(params, y) / (1.0 - epsilon)


def default_threshold_ceiling(scenario: Scenario) -> float:
    """max_m of 2 rho_m eta_m / y_{m,min}, past every user's LoS-limited drop:
    the default top of a CCDF table."""
    return max(2.0 * p.rho * p.eta / c for p, c in zip(scenario.channels, scenario.c))


def _feasible_side(params, y: float, epsilon: float, t: float) -> float:
    """t, one ulp lower at a time until outage_prob(y, t) <= epsilon."""
    while outage_prob(params, y, t) > epsilon:
        t = math.nextafter(t, 0.0)
    return t


def _threshold_root(params, y: float, epsilon: float, lo: float = 0.0,
                    hi: float | None = None, g_hi: float | None = None) -> float:
    """Largest t with outage_prob(y, t) <= epsilon, as the feasible end of a bracket.

    Where Q1 saturates at the saturated root's feasible end (a - b >=
    gap_m, _saturates), that end is the root; where the infeasible
    end underflows to 0, no positive double meets the target, and the root
    is 0. Otherwise the root is
    sought on [lo, hi] narrowed by the closed forms: lo rises to the NLoS
    root, which is feasible, and falls back to 0 (always feasible) if it
    misses the target; hi falls to the saturated root's infeasible end. An
    hi given misses the target, with g_hi = epsilon - outage_prob(y, hi) <
    0; with neither, hi is the Markov ceiling. The bracket shrinks to
    _THRESHOLD_REL_TOL times max(lo, NLoS root), at most that share of the
    root.
    """
    cf = _saturated_threshold(params, y, epsilon)
    if cf is not None and _saturates(params, y, cf[0], epsilon):
        return _feasible_side(params, y, epsilon, cf[0])
    if cf is not None and cf[1] == 0.0:
        return 0.0

    def g(t):
        return epsilon - outage_prob(params, y, t)

    z_nlos = _nlos_root(epsilon)
    nlos = 0.0 if z_nlos is None else _mul_div(params.rho_mu_sq, z_nlos, y)
    lo = nlos if nlos > lo else lo
    if lo == 0.0 or (g_lo := g(lo)) < 0.0:
        lo, g_lo = 0.0, epsilon
    if cf is not None and (hi is None or cf[1] < hi) and (g_cf := g(cf[1])) < 0.0:
        hi, g_hi = cf[1], g_cf
    if hi is None:
        hi = _markov_ceiling(params, y, epsilon)
        g_hi = g(hi)
    return _bracket_root(g, lo, g_lo, hi, g_hi, _THRESHOLD_REL_TOL * max(lo, nlos))[0]


def _min_threshold(scenario: Scenario, spec: OutageSpec, ys, t_lo: float = 0.0,
                   t_hi: float | None = None) -> tuple[float, int]:
    """(min over the users m in ys of the largest threshold m meets at ys[m],
    the worst m), ys = {m: squared distance}.

    [t_lo, t_hi] is a guess at the bracket of the result, such as the
    solver's certified one, whose t_hi no position meets; the default is
    cold, [0, Markov ceiling]. Only binding users get a root. Users are visited
    farthest first (the farthest always binds under shared channels and
    targets), against the running minimum cur, which starts at t_hi. A user
    whose saturated root holds (a - b >= gap_m there) and lies at or
    above cur cannot lower it; one below cur becomes cur. Any other user is
    checked once at cur: meeting its target there, it cannot lower the
    minimum. Otherwise cur certifies that user infeasible, so its root is
    started on [t_lo, cur] and becomes the new cur. Without t_hi the first
    user gets a root on its cold bracket instead. The result meets every
    target and lies within _THRESHOLD_REL_TOL relative of the min of
    independent roots; the worst user is the last one that lowered cur,
    the farthest if rounding lets every user meet t_hi.
    """
    spec = spec.for_scenario(scenario)
    order = sorted(ys, key=lambda m: -ys[m])
    cur, worst = t_hi, order[0]
    for m in order:
        params, epsilon, y = scenario.channels[m], spec.epsilons[m], ys[m]
        cf = _saturated_threshold(params, y, epsilon)
        if cf is not None and _saturates(params, y, cf[0], epsilon):
            if cur is None or cf[0] < cur:
                cur, worst = _feasible_side(params, y, epsilon, cf[0]), m
            continue
        if cur is None:
            cur, worst = _threshold_root(params, y, epsilon, t_lo), m
            continue
        g_cur = epsilon - outage_prob(params, y, cur)
        if g_cur < 0.0:
            cur, worst = _threshold_root(params, y, epsilon, min(t_lo, cur), cur, g_cur), m
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
    per-position threshold there. A user meets a level where
    outage_prob <= eps_m. Each user's inversions start from their
    closed-form brackets alone; only the finish's threshold roots still
    start from the certified bracket.
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
        lambda m, t, y: outage_prob(channels[m], y, t) <= epsilons[m],
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
