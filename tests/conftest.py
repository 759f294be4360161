import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # tests/oracles.py

from pinchopt import ChannelParams, OutageSpec, Scenario, UserPosition, eta_from_carrier
from pinchopt.montecarlo import McConfig, estimate_avg_snr

ETA_28GHZ = eta_from_carrier(28e9)
LAMBDA_28GHZ = 299_792_458.0 / 28e9


def make_params(beta=0.01, mu_sq=1e-9, rho=1e13, eta=ETA_28GHZ) -> ChannelParams:
    """Reference-setup channel constants (28 GHz, 40 dBm over -90 dBm noise)."""
    return ChannelParams(
        beta=beta,
        eta=eta,
        mu_sq=mu_sq,
        rho=rho,
        guided_wavelength=LAMBDA_28GHZ / 1.4,
        carrier_wavelength=LAMBDA_28GHZ,
    )


def make_scenario(user_xy, dx=30.0, dy=10.0, dv=10.0, **param_kwargs) -> Scenario:
    users = tuple(UserPosition(float(x), float(y)) for x, y in user_xy)
    params = make_params(**param_kwargs)
    return Scenario(dx=dx, dy=dy, dv=dv, users=users, channels=(params,) * len(users))


def random_scenario(rng: np.random.Generator, n_users: int, dx=30.0, dy=10.0, dv=10.0,
                    beta=None, **param_kwargs) -> Scenario:
    xs = rng.uniform(0.0, dx, n_users)
    ys = rng.uniform(-0.5 * dy, 0.5 * dy, n_users)
    if beta is None:
        beta = float(rng.uniform(1e-3, 1e-2))
    return make_scenario(zip(xs, ys), dx=dx, dy=dy, dv=dv, beta=beta, **param_kwargs)


def heterogeneous_drop(rng, n_users):
    """Random users with per-user beta, mu^2 and eta, and per-user outage targets."""
    users = tuple(UserPosition(float(rng.uniform(0.0, 30.0)), float(rng.uniform(-5.0, 5.0)))
                  for _ in range(n_users))
    channels = tuple(make_params(beta=float(rng.uniform(1e-3, 1e-2)),
                                 mu_sq=float(rng.uniform(0.3e-9, 3e-9)),
                                 eta=ETA_28GHZ * float(rng.uniform(0.5, 2.0)))
                     for _ in range(n_users))
    spec = OutageSpec(epsilons=tuple(float(e) for e in rng.uniform(0.02, 0.3, n_users)))
    return Scenario(dx=30.0, dy=10.0, dv=10.0, users=users, channels=channels), spec


def beta0_drop(rng, n_users):
    """Random users at beta = 0 with per-user rho, mu^2 and eta, and per-user
    outage targets."""
    users = tuple(UserPosition(float(rng.uniform(0.0, 30.0)), float(rng.uniform(-5.0, 5.0)))
                  for _ in range(n_users))
    channels = tuple(make_params(beta=0.0, rho=1e13 * 10.0 ** float(rng.uniform(-1.0, 1.0)),
                                 mu_sq=10.0 ** float(rng.uniform(-10.0, -8.0)),
                                 eta=ETA_28GHZ * float(rng.uniform(0.5, 2.0)))
                     for _ in range(n_users))
    spec = OutageSpec(epsilons=tuple(float(e) for e in rng.uniform(0.01, 0.3, n_users)))
    return Scenario(dx=30.0, dy=10.0, dv=10.0, users=users, channels=channels), spec


def binade_spanning_doc(rng, beta=4.8e-136, epsilon=5.5e-299):
    """A scenario document whose roots span hundreds of binades: 8 users on a
    6.45e109 m region, levels near 1e-171 and by default outage target 5.5e-299,
    each user drawn as x = uniform(0, dx), then y = uniform(-dy/2, dy/2)."""
    dx, dy = 6.45e109, 3.5e-55
    users = [{"x": float(rng.uniform(0.0, dx)), "y": float(rng.uniform(-0.5 * dy, 0.5 * dy))}
             for _ in range(8)]
    return {"schema": 1, "region": {"dx": dx, "dy": dy, "dv": 1.1e-88},
            "defaults": {"p_dbm": -882.7, "noise_dbm": -2662.8, "mu_sq_db": -1135.2,
                         "beta": beta},
            "users": users, "outage": {"epsilon": epsilon}}


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # One tiny estimate up front so first-call costs (imports, allocator
    # warm-up) are paid before any runtime-budgeted acceptance check.
    estimate_avg_snr(make_params(), 150.0, McConfig(samples=256, seed=0))
