"""Hot numeric kernels: the Monte-Carlo SNR map and Marcum Q1.

Two inner loops dominate the package's runtime and live here: the
Monte-Carlo channel-power map (millions of samples per estimate) and the
Marcum-Q evaluation (tens of millions of calls inside the solvers and
grid oracles). The map runs in place over the caller's draws (two normals
per LoS lane, one exponential per blocked lane), once per sample block on
the sampler's worker threads: it keeps no state, and its numpy ufuncs
release the GIL, so blocks map concurrently. Q1 is one scalar kernel;
marcum_q1_batch maps it over array lanes, so a lane and a scalar call
agree bit for bit. Results are deterministic for a given Python and numpy
build.

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
  integrand is even in Y, so a call costs 16 erfc at any scale.
"""

from __future__ import annotations

import math

import numpy as np

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


def _half_hermite_rule(n: int):
    """(y, w/2) at the positive nodes y of the n-point probabilists' Gauss-Hermite
    rule: eigenvalues of the Hermite Jacobi matrix, and weights w from their
    eigenvectors' first components (Golub & Welsch, Math. Comp. 23, 1969). The w
    sum to 1, so E[h(Y)] ~ sum w h(y) for an even h, and Q1 is continuous
    across a = b, where the band kernel switches sums."""
    off = np.sqrt(np.arange(1.0, n))
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    positive = nodes > 0.0
    weights = vectors[0, positive] ** 2
    return tuple(zip(nodes[positive].tolist(), (0.5 * weights / weights.sum()).tolist()))


_BAND_RULE = _half_hermite_rule(32)
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
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    lanes = map(marcum_q1_scalar, a.ravel().tolist(), b.ravel().tolist())
    return np.fromiter(lanes, dtype=np.float64, count=a.size).reshape(a.shape)
