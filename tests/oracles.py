"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own series code: the Marcum-Q
oracles integrate the defining integral with adaptive quadrature (scipy,
and mpmath at 50 digits), Bessel references come from a raw power series /
mpmath, the pure-NLoS outage bound has a logarithmic closed form, and so has (in
60-digit mpmath) the outage threshold where Q1 saturates, the
beta = 0 optimum of both metrics on per-user channels is the least point
of an envelope of parabolas, the optimum over one or two users at any beta
is a vertex or a crossing found by brentq, and the Monte-Carlo sampler has two
out-of-place twins: the as-modeled per-lane map, and its per-batch
LoS/NLoS mixture stream on fresh arrays.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate, optimize, special, stats


def bessel_i0_series(x: float, terms: int = 400) -> float:
    """Raw power series I0(x) = sum_k (x^2/4)^k / (k!)^2 (small x only)."""
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, terms):
        term *= q / (k * k)
        total += term
        if term < 1e-18 * total:
            break
    return total


def bessel_i0_scaled_mp(x: float) -> float:
    """High-precision e^{-x} I0(x) via mpmath."""
    with mpmath.workdps(40):
        return float(mpmath.exp(-x) * mpmath.besseli(0, x))


def bessel_i0_scaled_quad(x: float) -> float:
    """Integral form e^{-x} I0(x) = (1/pi) int_0^pi e^{x (cos u - 1)} du."""
    value, _ = integrate.quad(lambda u: math.exp(x * (math.cos(u) - 1.0)), 0.0, math.pi,
                              limit=200, epsabs=1e-14, epsrel=1e-13)
    return value / math.pi


def marcum_q1_quad(a: float, b: float) -> float:
    """Adaptive quadrature of Q1(a,b) = int_b^inf x e^{-(x^2+a^2)/2} I0(ax) dx.

    The integrand is evaluated in scaled form x e^{-(x-a)^2/2} i0e(ax) to
    stay finite for large a; scipy's i0e is the only special-function
    dependency, independent of the package's Bessel code.
    """
    def integrand(x):
        return x * math.exp(-0.5 * (x - a) ** 2) * special.i0e(a * x)

    hi = max(a, b) + 40.0
    points = [a] if b < a < hi else None
    value, _ = integrate.quad(integrand, b, hi, points=points, limit=400,
                              epsabs=1e-12, epsrel=1e-12)
    return min(max(value, 0.0), 1.0)


def marcum_q1_mp(a: float, b: float, complement: bool = False) -> float:
    """50-digit mpmath quadrature of Q1(a,b) = int_b^inf x e^{-(x^2+a^2)/2} I0(ax) dx,
    or with complement of 1 - Q1(a, b), the same integrand over [0, b].

    The integrand peaks near x = a with unit width, so the range is split
    there; at 50 digits a Q1 near 1e-44 keeps full relative precision and
    one near 1 full absolute precision, and so does its complement.
    """
    with mpmath.workdps(50):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        if complement:
            points = [mpmath.mpf(0)] + [a_ + d for d in (-8, 0, 8) if 0 < a_ + d < b_] + [b_]
        else:
            top = max(a_, b_)
            points = [b_] + [top + d for d in (0, 8, 20, 40) if top + d > b_] + [mpmath.inf]
        value = mpmath.quad(lambda x: x * mpmath.exp(-(x - a_) ** 2 / 2 - a_ * x)
                            * mpmath.besseli(0, a_ * x), points)
        return float(value)


def outage_prob_mp(params, r_sq: float, t: float) -> float:
    """50-digit P[snr < t] = p (1 - Q1(a, b)) + q (1 - e^{-t r^2 / (rho mu^2)}), p =
    e^{-beta r^2}, q = -expm1(-beta r^2), with 1 - Q1 from marcum_q1_mp's complement."""
    b = math.sqrt(2.0 * r_sq * t / params.rho) / params.mu
    with mpmath.workdps(50):
        z = mpmath.mpf(params.beta) * mpmath.mpf(r_sq)
        s = mpmath.mpf(t) * mpmath.mpf(r_sq) / (mpmath.mpf(params.rho) * mpmath.mpf(params.mu_sq))
        return float(mpmath.exp(-z) * mpmath.mpf(marcum_q1_mp(params.marcum_a, b, complement=True))
                     + -mpmath.expm1(-z) * -mpmath.expm1(-s))


def nlos_only_bound(rho: float, mu_sq: float, t: float, epsilon: float) -> float:
    """Pure-NLoS inversion: exp(-t y / (rho mu^2)) = 1 - eps  =>  y."""
    return -rho * mu_sq * math.log(1.0 - epsilon) / t


def avg_snr_inverse(params, t: float) -> float:
    """Root y of f(y) = rho (eta e^{-beta y} + mu_sq) / y = t by scipy's Lambert W.

    t y - rho mu_sq = rho eta e^{-beta y} gives y = a + W0(beta c e^{-beta a})
    / beta with a = rho mu_sq / t and c = rho eta / t, and y = a + c at beta = 0.
    """
    a, c = params.rho * params.mu_sq / t, params.rho * params.eta / t
    if params.beta == 0.0:
        return a + c
    x = params.beta * c * math.exp(-params.beta * a)
    return a + float(special.lambertw(x).real) / params.beta


def beta0_envelope_optimum(scenario, spec=None) -> tuple[float, float]:
    """(t*, x*): the exact optimum of the max-min average SNR (spec None) or
    of the outage threshold under spec, at beta = 0 on per-user channels.

    At beta = 0 user m meets level t at squared distance y exactly when
    y t <= s_m: s_m = rho_m (eta_m + mu_m^2) for the average SNR, and
    s_m = rho_m mu_m^2 b*^2 / 2 for the outage target, where the outage
    probability is 1 - Q1(a_m, sqrt(2 y t / (rho_m mu_m^2))) with a_m^2 =
    2 eta_m / mu_m^2, and 1 - Q1(a_m, b*) = eps_m gives b*^2 = ncx2.ppf(eps_m,
    2, a_m^2), with no 1 - eps_m formed. So
    1/t* is the least value over x in [0, dx] of the upper envelope of the
    convex parabolas g_m(x) = ((x - x_m)^2 + C_m) / s_m. It is attained at
    0, at dx, at a vertex x_m or where two parabolas cross, and the envelope
    is evaluated at all of them.
    """
    channels, n = scenario.channels, scenario.n_users
    x = np.array([u.x for u in scenario.users])
    c = np.array([u.y for u in scenario.users]) ** 2 + scenario.dv * scenario.dv
    if spec is None:
        s = np.array([p.rho * (p.eta + p.mu_sq) for p in channels])
    else:
        s = np.array([0.5 * p.rho * p.mu_sq * stats.ncx2.ppf(eps, 2, 2.0 * p.eta / p.mu_sq)
                      for p, eps in zip(channels, spec.epsilons)])
    # g_i - g_j = qa x^2 + qb x + qc on each pair; roots by the cancellation-free
    # form q = -(qb + sign(qb) sqrt(disc)) / 2, x = q / qa and qc / q
    i, j = np.triu_indices(n, 1)
    qa = 1.0 / s[i] - 1.0 / s[j]
    qb = -2.0 * (x[i] / s[i] - x[j] / s[j])
    qc = (x[i] ** 2 + c[i]) / s[i] - (x[j] ** 2 + c[j]) / s[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        crossings = np.concatenate([q / qa, qc / q])
    candidates = np.concatenate([[0.0, scenario.dx], x, crossings])
    candidates = candidates[(candidates >= 0.0) & (candidates <= scenario.dx)]
    envelope = np.max(((candidates[:, None] - x) ** 2 + c) / s, axis=1)
    best = int(np.argmin(envelope))
    return 1.0 / float(envelope[best]), float(candidates[best])


def pair_optimum(scenario, users, spec=None) -> tuple[float, float]:
    """(t*, x*): the optimum over x in [0, dx] of the least of one or two users'
    values g_m(x), their average SNR (spec None) or their largest threshold
    meeting the outage target spec.epsilons[m].

    Each user's r^2 is formed here from its x, y and dv. f is the closed form
    rho (eta e^{-beta y} + mu^2) / y; the threshold is the brentq root in t of
    P[snr < t] = eps, with the Rician branch's 1 - Q1(a, b) = ncx2.cdf(b^2, 2,
    a^2) and the NLoS one -expm1(-s), so no 1 - eps is formed. g_m peaks at
    x_m and falls with |x - x_m|, so the optimum is a user's vertex, where
    that user is the lesser, or else the crossing g_i = g_j between the two
    vertices, found by brentq in x.
    """
    def g(m, x):
        user, p = scenario.users[m], scenario.channels[m]
        y = (x - user.x) ** 2 + (user.y ** 2 + scenario.dv ** 2)
        f = p.rho * (p.eta * np.exp(-p.beta * y) + p.mu_sq) / y
        if spec is None:
            return f
        eps, p_los, nc = spec.epsilons[m], np.exp(-p.beta * y), 2.0 * p.eta / p.mu_sq

        def meets(t):  # eps - P[snr < t], decreasing in t; Markov: < 0 at f / (1 - eps)
            s = t * y / (p.rho * p.mu_sq)
            return eps - (p_los * stats.ncx2.cdf(2.0 * s, 2, nc) + (1.0 - p_los) * -np.expm1(-s))

        return optimize.brentq(meets, 0.0, f / (1.0 - eps), xtol=1e-300, rtol=1e-15)

    ordered = sorted(users, key=lambda m: scenario.users[m].x)
    i, j = ordered[0], ordered[-1]  # i = j for one user
    x_i, x_j = scenario.users[i].x, scenario.users[j].x
    if g(i, x_i) <= g(j, x_i):
        return g(i, x_i), x_i
    if g(j, x_j) <= g(i, x_j):
        return g(j, x_j), x_j
    x = optimize.brentq(lambda x: g(i, x) - g(j, x), x_i, x_j, xtol=1e-14, rtol=1e-15)
    return min(g(i, x), g(j, x)), x


def snr_samples_reference(u, z_re, z_im, p_los, los_amp, nlos_scale, cos_ph, sin_ph, rho):
    """rho*|h|^2 as one out-of-place numpy expression, a fresh array per step."""
    gated = np.where(u < p_los, los_amp, 0.0)
    re = gated * cos_ph + nlos_scale * z_re
    im = nlos_scale * z_im - gated * sin_ph
    return rho * (re * re + im * im)


def mixture_batches_reference(seed, sizes, p_los, los_amp, nlos_scale, cos_ph, sin_ph, rho):
    """rho*|h|^2 per batch of the given sizes, drawn as the sampler's mixture
    stream on fresh arrays.

    Batch i uses SFC64 seeded by SeedSequence(seed, spawn_key=(i,)) and draws
    the LoS count k ~ Binomial(n, p_los), then k real and k imaginary normals
    for the LoS lanes, then n - k exponentials for the blocked lanes, which
    come last. A blocked lane is |nlos_scale*(z_re + j z_im)|^2, exponential
    with mean 2*nlos_scale^2.
    """
    for index, n in enumerate(sizes):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        rng = np.random.Generator(np.random.SFC64(seq))
        k = rng.binomial(n, p_los)
        z_re = rng.standard_normal(k)
        z_im = rng.standard_normal(k)
        blocked = rng.standard_exponential(n - k)
        re = los_amp * cos_ph + nlos_scale * z_re
        im = nlos_scale * z_im - los_amp * sin_ph
        yield rho * np.concatenate([re * re + im * im, 2.0 * nlos_scale * nlos_scale * blocked])


def saturated_threshold_mp(params, r_sq: float, epsilon: float) -> float:
    """60-digit root in t of q (1 - e^{-t r^2 / (rho mu^2)}) = eps, q = 1 - e^{-beta r^2}:
    the threshold a user at squared distance r_sq meets at outage probability eps
    where Q1 saturates (its LoS branch then never drops below t)."""
    with mpmath.workdps(60):
        y, eps = mpmath.mpf(r_sq), mpmath.mpf(epsilon)
        q = -mpmath.expm1(-mpmath.mpf(params.beta) * y)
        return float(-mpmath.mpf(params.rho) * mpmath.mpf(params.mu_sq)
                     * mpmath.log1p(-eps / q) / y)
