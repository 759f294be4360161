"""Isolated layer probes on fixed inputs, run once per traced run.

Each probe times one layer entry point on inputs that do not depend on
the workload seed, repeats it, and reports the median. A probe that
raises is recorded as failed and reads 0; ``probe.failed`` counts them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Reference-setup noncentrality a = sqrt(2 eta) / mu at 28 GHz, mu^2 = -90 dB.
A_REF = 38.1
SCALAR_ARGS = {"series": (3.0, 3.5), "band": (A_REF, 40.0), "sat": (A_REF, 60.0)}
BATCH_ARGS = {
    "series": (3.0, np.linspace(1.0, 6.0, 4096)),
    "band": (A_REF, np.linspace(30.0, 46.0, 256)),
}
REPEATS = 5
SLOW_S = 0.5


def _median_seconds(fn):
    """Median of REPEATS timed calls; a single call if one is already slow."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
        if times[0] > SLOW_S:
            break
    return statistics.median(times)


def _reference_scenario(n_users=8):
    from pinchopt.model import ChannelParams, Scenario, UserPosition, eta_from_carrier

    wavelength = 299_792_458.0 / 28e9
    params = ChannelParams(beta=0.01, eta=eta_from_carrier(28e9), mu_sq=1e-9, rho=1e13,
                           guided_wavelength=wavelength / 1.4, carrier_wavelength=wavelength)
    xs = np.linspace(2.0, 28.0, n_users)
    ys = np.linspace(-4.0, 4.0, n_users)[::-1]
    users = tuple(UserPosition(float(x), float(y)) for x, y in zip(xs, ys))
    return params, Scenario(dx=30.0, dy=10.0, dv=10.0, users=users,
                            channels=(params,) * n_users)


def run_probes():
    """Return (metrics, failures): name -> (value, unit), name -> error."""
    from pinchopt import kernels, montecarlo, outage, special

    params, scenario = _reference_scenario()
    spec = outage.OutageSpec.shared(0.1, scenario.n_users)
    r_sq = np.linspace(110.0, 900.0, 256)
    t_ccdf = 0.5 * params.rho * params.eta / r_sq
    calls = 200

    def scalar(a, b):
        return lambda: [kernels.marcum_q1_scalar(a, b) for _ in range(calls)]

    def batch(a, b):
        return lambda: kernels.marcum_q1_batch(np.full_like(b, a), b)

    probes = {}
    for regime, (a, b) in SCALAR_ARGS.items():
        probes[f"kernels.probe.marcum_scalar_us.{regime}"] = (scalar(a, b), 1e6 / calls, "us")
    for regime, (a, b) in BATCH_ARGS.items():
        probes[f"kernels.probe.marcum_batch_ns_per_lane.{regime}"] = (
            batch(a, b), 1e9 / b.size, "ns")
    probes["special.probe.ccdf_batch_ns_per_lane"] = (
        lambda: special.ccdf_inst_snr_batch(params, r_sq, t_ccdf), 1e9 / r_sq.size, "ns")
    probes["montecarlo.probe.grid_maxmin_ms"] = (
        lambda: montecarlo.grid_search_maxmin(scenario, 20_001), 1e3, "ms")
    probes["montecarlo.probe.grid_outage_ms"] = (
        lambda: montecarlo.grid_search_outage(scenario, spec, 201, 101), 1e3, "ms")

    metrics, failures = {}, {}
    for name, (fn, scale, unit) in probes.items():
        try:
            metrics[name] = (_median_seconds(fn) * scale, unit)
        except Exception as exc:  # a probe failure is a result, not a crash
            failures[name] = f"{type(exc).__name__}: {exc}"
            metrics[name] = (0.0, unit)
    metrics["probe.failed"] = (len(failures), "count")
    return metrics, failures
