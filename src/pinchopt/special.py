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

The numeric evaluation lives in ``kernels``; this module owns validation
and the channel-facing formulas. There is one CCDF arithmetic, the scalar
ccdf_inst_snr; ccdf_inst_snr_batch maps it over array lanes, so a lane and
a scalar call agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .model import ChannelParams


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function Q1(a, b) in [0, 1].

    Q1(a, b) = int_b^inf x exp(-(x^2+a^2)/2) I0(ax) dx; strictly
    increasing in a, strictly decreasing in b. Q1(a, 0) = 1 and
    Q1(0, b) = exp(-b^2/2) exactly.
    """
    if not (a >= 0.0 and b >= 0.0):
        raise ValueError(f"marcum_q1 needs a, b >= 0, got a={a}, b={b}")
    return kernels.marcum_q1_scalar(a, b)


def ccdf_inst_snr(params: ChannelParams, r_sq: float, t: float) -> float:
    """P[instantaneous SNR >= t] at squared distance r_sq; in [0, 1].

    LoS/NLoS mixture: e^{-beta r^2} Q1(a,b) + (1-e^{-beta r^2}) *
    exp(-t r^2 / (rho mu^2)). Clamped to [0, 1] to absorb the 1-ulp
    series residue.
    """
    if not t >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    if not r_sq > 0.0:
        raise ValueError(f"squared distance must be positive, got {r_sq}")
    if t == 0.0:
        return 1.0  # SNR is almost surely nonnegative
    b = math.sqrt(2.0 * r_sq * t / params.rho) / params.mu
    p_los = math.exp(-params.beta * r_sq)
    nlos_tail = math.exp(-t * r_sq / params.rho_mu_sq)
    value = p_los * kernels.marcum_q1_scalar(params.marcum_a, b) + (1.0 - p_los) * nlos_tail
    # min(max(value, 0.0), 1.0) by comparisons, at a small fraction of the builtins' cost
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def ccdf_inst_snr_batch(params: ChannelParams, r_sq, t) -> np.ndarray:
    """ccdf_inst_snr over broadcastable arrays r_sq > 0, t >= 0, lane by lane."""
    r_sq, t = np.broadcast_arrays(np.asarray(r_sq, float), np.asarray(t, float))
    lanes = (ccdf_inst_snr(params, y, s)
             for y, s in zip(r_sq.ravel().tolist(), t.ravel().tolist()))
    return np.fromiter(lanes, dtype=float, count=r_sq.size).reshape(r_sq.shape)
