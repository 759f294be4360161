"""Answer oracle for the benchmark, sharing no code with pinchopt.

The average SNR uses the closed form rho (eta e^{-beta y} + mu^2) / y.
The outage side uses the LoS/NLoS CCDF of the instantaneous SNR,

    P[snr >= t] = e^{-beta y} Q1(a, b) + (1 - e^{-beta y}) e^{-t y / (rho mu^2)},

with Q1(a, b) = ncx2.sf(b^2, 2, a^2), a^2 = 2 eta / mu^2 and
b^2 = 2 y t / (rho mu^2), evaluated with scipy. Both quantities fall
strictly in the squared distance y, so one user's feasible positions at
a level t form one interval, found here by vectorised bisection on y.

A solve answer (t_star, x_star) passes when every user meets t_star at
x_star and no position meets t_star * (1 + eps_t) for all users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import ncx2

SPEED_OF_LIGHT = 299_792_458.0
# Slack for rounding between the solver's arithmetic and this module's.
MEET_REL = 1e-9
MEET_ABS = 1e-9
# Relative precision of the optimum computed by optimum_outage.
OPT_REL = 1e-6
_Y_STEPS = 60
_T_STEPS = 45


@dataclass(frozen=True)
class Users:
    """Per-user constants as broadcastable arrays (last axis = user)."""

    x: np.ndarray
    c: np.ndarray  # y_m^2 + dv^2, the vertex of r^2(x)
    rho: np.ndarray
    eta: np.ndarray
    mu_sq: np.ndarray
    beta: np.ndarray
    eps: np.ndarray  # outage targets; unused for the average SNR
    dx: float


def users_from_doc(doc: dict, xy=None) -> Users:
    """Users of a scenario document whose defaults are all explicit.

    All users share the document's defaults. xy, when given, replaces the
    document's user positions (shape (..., M, 2)).
    """
    d = doc["defaults"]
    region = doc["region"]
    if xy is None:
        xy = np.array([[u["x"], u["y"]] for u in doc["users"]], dtype=float)
    xy = np.asarray(xy, dtype=float)
    full = lambda v: np.full(xy.shape[:-1], float(v))
    return Users(
        x=xy[..., 0],
        c=xy[..., 1] ** 2 + region["dv"] ** 2,
        rho=full(10.0 ** ((d["p_dbm"] - d["noise_dbm"]) / 10.0)),
        eta=full((SPEED_OF_LIGHT / (4.0 * math.pi * d["fc_hz"])) ** 2),
        mu_sq=full(10.0 ** (d["mu_sq_db"] / 10.0)),
        beta=full(d["beta"]),
        eps=full(doc.get("outage", {}).get("epsilon", math.nan)),
        dx=float(region["dx"]),
    )


def stack_users(parts) -> Users:
    """Concatenate Users along the leading axis (all with the same dx)."""
    arrays = {name: np.concatenate([getattr(u, name) for u in parts])
              for name in ("x", "c", "rho", "eta", "mu_sq", "beta", "eps")}
    return Users(**arrays, dx=parts[0].dx)


def avg_snr(u: Users, y):
    return u.rho * (u.eta * np.exp(-u.beta * y) + u.mu_sq) / y


def _q1_squared(b_sq, a_sq):
    """Q1(a, b) = ncx2.sf(b^2, 2, a^2), elementwise."""
    b_sq, a_sq = np.broadcast_arrays(np.asarray(b_sq, dtype=float), np.asarray(a_sq, dtype=float))
    # scipy raises for b^2 below ~1e-8 once a^2 exceeds ~300; there the
    # exact value is 1 - O(b^2 e^{-a^2/2}), which is 1.0 in double precision.
    tiny = (b_sq < 1e-6) & (a_sq > 200.0)
    return np.where(tiny, 1.0, ncx2.sf(np.where(tiny, 1.0, b_sq), 2.0, a_sq))


def marcum_q1(a, b):
    """First-order Marcum Q function via the noncentral chi-square tail."""
    return _q1_squared(np.square(b), np.square(a))


def ccdf(u: Users, y, t):
    """P[instantaneous SNR >= t] at squared distance y."""
    y, t = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(t, dtype=float))
    p_los = np.exp(-u.beta * y)
    q1 = _q1_squared(2.0 * y * t / (u.rho * u.mu_sq), 2.0 * u.eta / u.mu_sq)
    with np.errstate(under="ignore"):
        nlos = np.exp(-t * y / (u.rho * u.mu_sq))
    return p_los * q1 + (1.0 - p_los) * nlos


def _meets(u: Users, metric: str, y, t, slack: bool):
    if metric == "avg-snr":
        return avg_snr(u, y) >= t * ((1.0 - MEET_REL) if slack else 1.0)
    return ccdf(u, y, t) >= 1.0 - u.eps - (MEET_ABS if slack else 0.0)


def reach(u: Users, metric: str, t):
    """Largest y in [c, c + dx^2] meeting level t, per user; NaN if none.

    Returns the upper end of the final bisection bracket, so positions
    built from it never understate feasibility.
    """
    t = np.broadcast_to(np.asarray(t, dtype=float), u.c.shape)
    lo = u.c.copy()
    hi = u.c + u.dx * u.dx
    ok_lo = _meets(u, metric, lo, t, slack=False)
    ok_hi = _meets(u, metric, hi, t, slack=False)
    for _ in range(_Y_STEPS):
        mid = 0.5 * (lo + hi)
        ok = _meets(u, metric, mid, t, slack=False)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    out = np.where(ok_hi, u.c + u.dx * u.dx, hi)
    return np.where(ok_lo, out, np.nan)


def feasible(u: Users, metric: str, t) -> np.ndarray:
    """Whether some position meets level t for every user (last axis)."""
    alpha = reach(u, metric, t)
    half = np.sqrt(np.maximum(alpha - u.c, 0.0))
    lo = np.maximum(np.max(u.x - half, axis=-1), 0.0)
    hi = np.minimum(np.min(u.x + half, axis=-1), u.dx)
    return ~np.any(np.isnan(alpha), axis=-1) & (lo <= hi)


def check_solution(u: Users, metric: str, t_star: float, x_star: float, eps_t: float):
    """(ok, reason) for one solve answer."""
    if not (math.isfinite(t_star) and t_star > 0.0 and 0.0 <= x_star <= u.dx):
        return False, f"answer out of range: t_star={t_star}, x_star={x_star}"
    y = (u.x - x_star) ** 2 + u.c
    short = ~_meets(u, metric, y, t_star, slack=True)
    if np.any(short):
        return False, f"users {np.flatnonzero(short).tolist()} miss t_star at x_star"
    if feasible(u, metric, t_star * (1.0 + eps_t)):
        return False, "a position meets t_star * (1 + eps_t) for every user"
    return True, ""


def optimum_outage(u: Users) -> np.ndarray:
    """Largest outage threshold met by every user, per drop (leading axes).

    Geometric bisection on t between a feasible and an infeasible level,
    each probe an interval intersection; relative precision well below
    OPT_REL.
    """
    hi = 2.0 * np.max(u.rho * (u.eta + u.mu_sq) / u.c, axis=-1)
    for _ in range(60):
        grow = feasible(u, "outage", hi[..., None])
        if not np.any(grow):
            break
        hi = np.where(grow, 2.0 * hi, hi)
    else:
        raise ArithmeticError("no infeasible outage threshold found")
    lo = hi * 1e-12
    if not np.all(feasible(u, "outage", lo[..., None])):
        raise ArithmeticError("no feasible outage threshold found")
    for _ in range(_T_STEPS):
        mid = np.sqrt(lo * hi)
        ok = feasible(u, "outage", mid[..., None])
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return hi


def check_sweep_mean(t_opt: np.ndarray, mean_t_star: float, eps_t: float):
    """(ok, reason) for a sweep row: its mean t_star against the drops' optima.

    Each drop's t_star lies in [t_opt / (1 + eps_t), t_opt], so their
    mean lies in the same range around the mean optimum.
    """
    ref = float(np.mean(t_opt))
    lo = ref / (1.0 + eps_t) * (1.0 - OPT_REL)
    hi = ref * (1.0 + OPT_REL)
    if lo <= mean_t_star <= hi:
        return True, ""
    return False, f"mean t_star {mean_t_star!r} outside [{lo!r}, {hi!r}]"


def check_ccdf_rows(u: Users, y: float, ts, analytic, mc, samples: int):
    """(ok, reason) for a CCDF table at squared distance y.

    The analytic column must match to 1e-9; the Monte-Carlo column must
    lie within 6 binomial standard errors (plus 3/n) of the exact value.
    """
    exact = ccdf(u, y, np.asarray(ts, dtype=float))
    bad = np.abs(np.asarray(analytic) - exact) > MEET_ABS
    if np.any(bad):
        return False, f"analytic column off at rows {np.flatnonzero(bad).tolist()}"
    sigma = np.sqrt(np.clip(exact * (1.0 - exact), 0.0, None) / samples)
    bad = np.abs(np.asarray(mc) - exact) > 6.0 * sigma + 3.0 / samples
    if np.any(bad):
        return False, f"Monte-Carlo column off at rows {np.flatnonzero(bad).tolist()}"
    return True, ""
