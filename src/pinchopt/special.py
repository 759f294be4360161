"""First-order Marcum Q and the instantaneous-SNR CCDF.

The instantaneous SNR rho*|h|^2 of the composite channel mixes a Rician
branch (LoS present) and an exponential branch (LoS blocked):

    P[snr >= t] = e^{-beta r^2} Q1(a, b) + (1 - e^{-beta r^2}) e^{-t r^2/(rho mu^2)}

with a = sqrt(2 eta)/mu and b = sqrt(2) r sqrt(t/rho)/mu. For fixed t > 0
the mixture is strictly decreasing in r^2, which is what lets the outage
solver turn each reliability constraint into a distance bound. a, mu and
the NLoS scale rho mu^2 are constant per channel: ccdf_inst_snr reads them
from ChannelParams' derived fields (marcum_a, mu, rho_mu_sq), so a call
computes only b and the two exponentials.

The outage probability P[snr < t] = 1 - CCDF is outage_prob, in the form

    P_out = p P1 + q (-expm1(-t r^2/(rho mu^2))),   p = e^{-beta r^2}, q = -expm1(-beta r^2),

with P1 = 1 - Q1(a, b), so that a small P_out keeps its relative precision:
nothing in it is formed as 1 - (a number near 1). Where Q1 saturates
(a - b >= kernels.SATURATION_GAP) the kernel reads Q1 = 1, and P1 takes its
upper bound e^{-(a - b)^2/2} min(1/2, b^2/2) instead. Both parts hold for b
< a: the amplitude stays above b unless the noise along the LoS phasor
falls below -(a - b), a Gaussian tail of at most e^{-(a - b)^2/2} / 2; and
P1 is the integral over [0, b] of x e^{-(x^2 + a^2)/2} I0(a x) <= x
e^{-(a - x)^2/2} <= x e^{-(a - b)^2/2}. So where Q1 saturates outage_prob
errs only upward, by at most p e^{-(a - b)^2/2} / 2 < 1.4e-43 p, and a
target it meets is met; b^2/2 = t r^2/(rho mu^2) keeps a small P_out's
LoS share near its size where b is small. The outage solver compares it
with the target eps, never the CCDF with 1 - eps.

The numeric evaluation lives in ``kernels``; this module owns validation
and the channel-facing formulas. Both functions form the NLoS exponent
t r^2/(rho mu^2) and Q1's b (_marcum_b) in one place, _link_terms; the
exponent's product t r^2 is kept from under- and overflow by _mul_div,
which the outage roots use for theirs too. ccdf_inst_snr_batch maps the
scalar ccdf_inst_snr over array lanes, so a lane and a scalar call agree
bit for bit.
"""

from __future__ import annotations

import math

from . import kernels
from .model import ChannelParams


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function Q1(a, b) in [0, 1].

    Q1(a, b) = int_b^inf x exp(-(x^2+a^2)/2) I0(ax) dx; strictly
    increasing in a, strictly decreasing in b. Q1(a, 0) = 1, and
    Q1(0, b) = exp(-b^2/2) is returned exactly below b = 14 and as 0
    (within 3e-43) from there on.
    """
    if not (a >= 0.0 and b >= 0.0):
        raise ValueError(f"marcum_q1 needs a, b >= 0, got a={a}, b={b}")
    return kernels.marcum_q1_scalar(a, b)


def _mul_div(x: float, y: float, z: float) -> float:
    """x y / z for x, y >= 0 and z > 0, as the doubles compute (x y) / z where x y is a
    normal double; elsewhere by binary exponents, so that no intermediate underflows
    or overflows (inf where the result overflows)."""
    xy = x * y
    if 2.2250738585072014e-308 <= xy < math.inf:
        return xy / z
    (mx, ex), (my, ey), (mz, ez) = math.frexp(x), math.frexp(y), math.frexp(z)
    try:
        return math.ldexp(mx * my / mz, ex + ey - ez)
    except OverflowError:
        return math.inf


def _marcum_b(params: ChannelParams, r_sq: float, t: float) -> float:
    """Q1's second argument b = sqrt(2 r_sq t / rho) / mu at (r_sq, t)."""
    return math.sqrt(2.0 * r_sq * t / params.rho) / params.mu


def _link_terms(params: ChannelParams, r_sq: float, t: float) -> tuple[float, float]:
    """(t r_sq / (rho mu^2), Q1's b) at (r_sq, t), once both are checked."""
    if not t >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    if not r_sq > 0.0:
        raise ValueError(f"squared distance must be positive, got {r_sq}")
    return _mul_div(t, r_sq, params.rho_mu_sq), _marcum_b(params, r_sq, t)


def ccdf_inst_snr(params: ChannelParams, r_sq: float, t: float) -> float:
    """P[instantaneous SNR >= t] at squared distance r_sq; in [0, 1].

    LoS/NLoS mixture: e^{-beta r^2} Q1(a,b) + (1-e^{-beta r^2}) *
    exp(-t r^2 / (rho mu^2)). Clamped to [0, 1] to absorb the 1-ulp
    series residue.
    """
    k_r_sq, b = _link_terms(params, r_sq, t)
    nlos_tail = math.exp(-k_r_sq)
    if nlos_tail == 1.0:  # t = 0, or Q1(a, b) >= e^{-b^2/2}, this tail: both round to 1
        return 1.0
    p_los = math.exp(-params.beta * r_sq)
    value = p_los * kernels.marcum_q1_scalar(params.marcum_a, b) + (1.0 - p_los) * nlos_tail
    # min(max(value, 0.0), 1.0) by comparisons, at a small fraction of the builtins' cost
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def outage_prob(params: ChannelParams, r_sq: float, t: float) -> float:
    """P[instantaneous SNR < t] at squared distance r_sq; in [0, 1].

    p P1 + q (-expm1(-t r^2 / (rho mu^2))) with p = e^{-beta r^2}, q =
    -expm1(-beta r^2) and P1 = 1 - Q1(a, b). Where Q1 saturates (a - b >=
    kernels.SATURATION_GAP, where the kernel reads 1), P1 is replaced by its
    upper bound e^{-(a-b)^2/2} min(1/2, b^2/2), so the value there is an
    upper bound on P_out, within p e^{-(a-b)^2/2} / 2 of it, and never below
    the saturated form q (-expm1(-t r^2 / (rho mu^2))). A value above 1/2
    is 1 - CCDF from the CCDF's own terms, rounded up, so that against eps
    >= 1/2 (where 1 - eps is exact) P_out <= eps holds exactly where the
    computed CCDF >= 1 - eps. Clamped to [0, 1] to absorb the 1-ulp series
    residue.
    """
    k_r_sq, b = _link_terms(params, r_sq, t)
    nlos = -math.expm1(-k_r_sq)
    blocked = -math.expm1(-params.beta * r_sq)
    if (gap := params.marcum_a - b) >= kernels.SATURATION_GAP:  # Q1 reads 1: P1 at its bound
        q1 = 1.0
        los = (math.exp(-params.beta * r_sq - 0.5 * gap * gap)
               * (k_r_sq if k_r_sq < 0.5 else 0.5))
    else:
        q1 = kernels.marcum_q1_scalar(params.marcum_a, b)
        los = math.exp(-params.beta * r_sq) * (1.0 - q1)
    value = los + blocked * nlos
    if value > 0.5:  # 1 - CCDF: near 1 the CCDF keeps its relative precision
        ccdf = math.exp(-params.beta * r_sq) * q1 + blocked * math.exp(-k_r_sq)
        value = 1.0 - ccdf
        if 1.0 - value > ccdf:  # exact (value >= 1/2): rounded down, so step up
            value = math.nextafter(value, 2.0)
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def ccdf_inst_snr_batch(params: ChannelParams, r_sq, t):
    """ccdf_inst_snr over broadcastable arrays r_sq > 0, t >= 0, lane by lane, as a float array."""
    import numpy as np

    r_sq, t = np.broadcast_arrays(np.asarray(r_sq, float), np.asarray(t, float))
    lanes = (ccdf_inst_snr(params, y, s)
             for y, s in zip(r_sq.ravel().tolist(), t.ravel().tolist()))
    return np.fromiter(lanes, dtype=float, count=r_sq.size).reshape(r_sq.shape)
