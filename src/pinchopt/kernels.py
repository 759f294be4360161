"""Hot numeric kernels: the Monte-Carlo SNR map and Marcum Q1.

Two inner loops dominate the package's runtime and live here: the
Monte-Carlo channel-power map (millions of samples per estimate) and the
Marcum-Q evaluation (tens of millions of calls inside the solvers and
grid oracles). The map runs in place over the caller's draws (two normals
per LoS lane, one exponential per blocked lane), once per sample block, on
the calling thread or the sampler's pool threads: it keeps no state, and its
numpy ufuncs release the GIL, so blocks map concurrently. Q1 is one scalar
kernel on plain floats, and importing this module loads no numpy;
marcum_q1_batch maps Q1 over array lanes, so a lane and a scalar call agree
bit for bit. Q1 is deterministic for a given Python build, the map for a
given numpy build too.

Q1 has three regimes, tested in this order, each with bounded work:

- saturation: for |a - b| >= 14 the function is 0 or 1 to far below double
  precision. |(a + X, Y)| lies within |(X, Y)| of a, and |(X, Y)|^2 is
  exponential with mean 2, so the remainder (Q1 for b > a, 1 - Q1 for
  a > b) is at most e^{-(a-b)^2/2} < 3e-43;
- series (a*b <= 500 and |a - b| < 14, hence a, b < 30.5): the Poisson
  mixture in linear space, at most about 640 terms;
- band (a*b > 500 and |a - b| < 14, hence a, b > 16.43): the Rice identity
  Q1(a, b) = P[(a + X)^2 + Y^2 >= b^2] for X, Y iid N(0, 1). Conditioning
  on Y gives Q1 = E_Y[Q(s - a) + Q(s + a)] + P[|Y| >= b] with
  s = sqrt(b^2 - Y^2) and Q(z) = erfc(z/sqrt 2)/2, and a fixed 32-point
  Gauss-Hermite rule takes the expectation (Gil, Segura & Temme, ACM TOMS
  40(3), 2014, also route large a*b away from the Bessel recurrence). Its
  largest node is 10.08, so s > 12.97 at every node: Q(s + a) < 3e-190 and
  P[|Y| >= b] < 2e-60 are below double precision and dropped. The
  integrand is even in Y, so a call costs 16 erfc at any scale. _BAND_RULE
  holds its 16 positive nodes and half-weights as the reprs of Golub-Welsch
  (Math. Comp. 23, 1969) by numpy's eigh on the 32-point Hermite Jacobi matrix,
  weights normalised to sum to 1, so Q1 no longer depends on numpy's LAPACK build.
"""

from __future__ import annotations

import math

# Poisson-mixture truncation: stop once the remaining Poisson(a^2/2) tail
# mass (an upper bound on the series remainder) is below this.
SERIES_TAIL = 1e-14
LINEAR_AB_LIMIT = 500.0
SATURATION_GAP = 14.0


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
    while 1.0 - cum > SERIES_TAIL:
        k += 1
        p *= u / k
        w *= v / k
        cdf += w
        total += p * cdf
        cum += p
    return 0.0 if total < 0.0 else 1.0 if total > 1.0 else total  # min(max(total, 0.0), 1.0)


# (y, w/2) at the positive nodes y: the w sum to 1, so E[h(Y)] ~ sum w h(y) for an
# even h, and Q1 is continuous across a = b, where the band kernel switches sums.
_BAND_RULE = (
    (0.2755464192302761, 0.2117055698804795),
    (0.8272849037797654, 0.15653899375759844),
    (1.3809801992721433, 0.08534480827208044),
    (1.9380049059257187, 0.03410984772609224),
    (2.499840415187396, 0.009903461702320558),
    (3.0681351690131224, 0.002062051051307852),
    (3.6447812498808325, 0.00030255702581706594),
    (4.2320211099954115, 3.05598030608968e-05),
    (4.832604613244488, 2.0596221039531966e-06),
    (5.4500332736234265, 8.88129071310752e-08),
    (6.088964309076985, 2.312518412082247e-09),
    (6.755930830540705, 3.3475012397409484e-11),
    (7.460755754121517, 2.3780648548114885e-13),
    (8.219728765382246, 6.755290198605486e-16),
    (9.064399210702403, 5.208449455518606e-19),
    (10.07742267422946, 4.1246067108338104e-23),
)
_SQRT_HALF = math.sqrt(0.5)


def _marcum_band(a: float, b: float) -> float:
    """Q1 in the band a*b > 500, |a - b| < 14 (so a, b > 16.43), by Gauss-Hermite.

    Q1 = E_Y[Q(s - a)] with s - a = (b - a) - c and c = Y^2 / (b + s), formed
    as Y t / (1 + sqrt(1 - t^2)) with t = Y/b < 0.62, so that nothing
    overflows at any b. For a > b the rule sums the complement
    1 - Q1 = E_Y[Q(a - s)], whose argument is (a - b) + c: the same terms
    with both signs flipped, and a sum that stays small, so 1 - sum keeps
    full absolute precision. Each term is w/2 erfc(z / sqrt 2).
    """
    gap, inv, total = b - a, 1.0 / b, 0.0
    k = _SQRT_HALF if gap >= 0.0 else -_SQRT_HALF
    for y, half_w in _BAND_RULE:
        t = y * inv
        total += half_w * math.erfc(k * (gap - y * t / (1.0 + math.sqrt(1.0 - t * t))))
    return total if gap >= 0.0 else 1.0 - total


def marcum_q1_scalar(a: float, b: float) -> float:
    """Scalar Q1 (full dispatch; arguments assumed nonnegative)."""
    if b == 0.0:
        return 1.0
    if a - b >= SATURATION_GAP:
        return 1.0
    if b - a >= SATURATION_GAP:
        return 0.0
    if a * b <= LINEAR_AB_LIMIT:
        return _marcum_series(a, b)
    return _marcum_band(a, b)


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
    import numpy as np

    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    lanes = map(marcum_q1_scalar, a.ravel().tolist(), b.ravel().tolist())
    return np.fromiter(lanes, dtype=np.float64, count=a.size).reshape(a.shape)
