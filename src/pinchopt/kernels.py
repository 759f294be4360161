"""Hot numeric kernels: the Monte-Carlo SNR map and Marcum Q1.

Two inner loops dominate the package's runtime and live here: the
Monte-Carlo channel-power map (millions of samples per estimate), which
runs in place over the caller's draws (two normals per LoS lane, one
exponential per blocked lane), and the Marcum-Q evaluation (tens of
millions of calls inside the solvers and grid oracles), which is one
scalar kernel. marcum_q1_batch maps that kernel over array lanes, so a
lane and a scalar call agree bit for bit. Results are deterministic for
a given Python and numpy build.

Marcum-Q evaluation strategy: the Poisson-mixture series runs in linear
space while a*b <= 500 and both exp(-a^2/2), exp(-b^2/2) stay
representable; past that the scaled-Bessel series with a backward (Miller)
recurrence takes over, except that for |a - b| >= 14 the function has
already saturated at 0 or 1 to far below double precision (the remainder
is bounded by e^{-(a-b)^2/2} I0_scaled(ab)/(1-min/max) < 1e-40).
"""

from __future__ import annotations

import math

import numpy as np

# Poisson-mixture truncation: stop once the remaining Poisson(a^2/2) tail
# mass (an upper bound on the series remainder) is below this.
SERIES_TAIL = 1e-14
MAX_TERMS = 30_000
LINEAR_AB_LIMIT = 500.0
EXP_ARG_LIMIT = 700.0
SATURATION_GAP = 14.0


def i0_scaled(x: float) -> float:
    """Scalar e^{-x} I0(x) for x >= 0: Taylor series to 15, asymptotic beyond."""
    if x <= 15.0:
        q = 0.25 * x * x
        term = 1.0
        s = 1.0
        k = 0
        while term > 1e-18 * s:
            k += 1
            term *= q / (k * k)
            s += term
        return math.exp(-x) * s
    s = 1.0
    term = 1.0
    for k in range(1, 40):
        nxt = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        if nxt >= term:  # divergent tail reached
            break
        term = nxt
        s += term
        if term < 1e-17 * s:
            break
    return s / math.sqrt(2.0 * math.pi * x)


def _marcum_series(a: float, b: float) -> float:
    """Q1(a,b) = sum_k e^{-u} u^k/k! * P[Pois(v) <= k], u=a^2/2, v=b^2/2."""
    u = 0.5 * a * a
    v = 0.5 * b * b
    p = math.exp(-u)   # Poisson(u) pmf at k
    w = math.exp(-v)   # Poisson(v) pmf at j = k
    cdf = w            # P[Pois(v) <= k]
    total = p * cdf
    cum = p
    k = 0
    while 1.0 - cum > SERIES_TAIL and k < MAX_TERMS:
        k += 1
        p *= u / k
        w *= v / k
        cdf += w
        total += p * cdf
        cum += p
    if total < 0.0:
        return 0.0
    if total > 1.0:
        return 1.0
    return total


def _marcum_bessel(a: float, b: float) -> float:
    """Scaled-Bessel form with Miller backward recurrence (a, b > 0).

    a <= b: Q1 = e^{-(a-b)^2/2} sum_{k>=0} (a/b)^k e^{-ab} I_k(ab)
    a >  b: Q1 = 1 - e^{-(a-b)^2/2} sum_{k>=1} (b/a)^k e^{-ab} I_k(ab)
    """
    x = a * b
    k_max = int(8.0 * math.sqrt(x)) + 60
    start = k_max + int(2.0 * math.sqrt(40.0 if x < 40.0 else x)) + 40
    ratios = [0.0] * (k_max + 1)  # ratios[k] = I_{k+1}(x) / I_k(x)
    r = 0.0
    for k in range(start, 0, -1):
        r = 1.0 / (2.0 * k / x + r)
        if k - 1 <= k_max:
            ratios[k - 1] = r
    pref = math.exp(-0.5 * (a - b) * (a - b))
    first = 0 if a <= b else 1  # the sum's first k
    ratio = b / a if b < a else a / b  # min(a, b) / max(a, b)
    rk, ik, s = 1.0, i0_scaled(x), 0.0  # (min/max)^k and e^{-x} I_k(x)
    for k in range(k_max + 1):
        if k >= first:
            term = rk * ik
            s += term
            if k > 2 and term < 1e-17 * s:
                break
        rk *= ratio
        ik *= ratios[k]
    out = pref * s if first == 0 else 1.0 - pref * s
    return 0.0 if out < 0.0 else 1.0 if out > 1.0 else out  # min(max(out, 0.0), 1.0)


def marcum_q1_scalar(a: float, b: float) -> float:
    """Scalar Q1 (full dispatch; arguments assumed nonnegative)."""
    if b == 0.0:
        return 1.0
    if a == 0.0:
        v = 0.5 * b * b
        return math.exp(-v) if v < EXP_ARG_LIMIT else 0.0
    if a * b <= LINEAR_AB_LIMIT and 0.5 * a * a < EXP_ARG_LIMIT and 0.5 * b * b < EXP_ARG_LIMIT:
        return _marcum_series(a, b)
    if a - b >= SATURATION_GAP:
        return 1.0
    if b - a >= SATURATION_GAP:
        return 0.0
    return _marcum_bessel(a, b)


def snr_samples(values, z_im, los_amp, nlos_scale, cos_ph, sin_ph, rho):
    """Instantaneous SNR rho*|h|^2, in place, from pre-drawn LoS and blocked lanes.

    With k = len(z_im), values[:k] holds standard normals z_re and z_im the
    matching imaginary ones: these LoS lanes carry the deterministic phasor
    of magnitude los_amp and phase -phi plus the NLoS term
    nlos_scale*(z_re + j z_im). values[k:] holds standard exponentials:
    a blocked lane is |nlos_scale*(z_re + j z_im)|^2, which is exponential
    with mean 2*nlos_scale^2. Overwrites values and z_im and returns values.
    A LoS lane equals rho*(re*re + im*im) on fresh arrays bit for bit: the
    products are the same and the sums only commuted.
    """
    los = values[:z_im.size]
    los *= nlos_scale
    los += los_amp * cos_ph
    z_im *= nlos_scale
    z_im -= los_amp * sin_ph
    los *= los
    z_im *= z_im
    los += z_im
    values[z_im.size:] *= 2.0 * nlos_scale * nlos_scale
    values *= rho
    return values


def marcum_q1_batch(a, b):
    """marcum_q1_scalar over broadcastable float64 arrays, lane by lane
    (arguments assumed nonnegative)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    lanes = map(marcum_q1_scalar, a.ravel().tolist(), b.ravel().tolist())
    return np.fromiter(lanes, dtype=np.float64, count=a.size).reshape(a.shape)
