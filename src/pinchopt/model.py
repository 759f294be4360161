"""Geometry and closed-form channel model for a single pinching antenna.

A waveguide runs parallel to the x-axis at height ``dv`` above the user
plane; the single radiating element can be activated at any x-position
``x_pin`` in [0, dx]. User m sits at (x_m, y_m, 0), so the squared
antenna-to-user distance is

    r_m^2(x_pin) = (x_m - x_pin)^2 + C_m,      C_m = y_m^2 + dv^2.

The channel is a Bernoulli-gated deterministic LoS path (power eta/r^2,
blocked with probability 1 - exp(-beta r^2)) plus circularly-symmetric
Gaussian NLoS scattering of average power mu_sq/r^2. Averaging the
instantaneous SNR rho*|h|^2 over blockage and fading gives

    avg SNR = rho * (eta * exp(-beta r^2) + mu_sq) / r^2,

and the same expression as a function of the squared distance y is the
strictly decreasing scalar function ``f_scalar`` that both solvers invert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SPEED_OF_LIGHT = 299_792_458.0  # m/s


class InvalidScenario(ValueError):
    """A scenario (or one of its members) violates a model invariant."""


def eta_from_carrier(carrier_frequency_hz: float) -> float:
    """LoS power constant eta = c^2 / (4 pi f_c)^2 for carrier f_c in Hz."""
    if not carrier_frequency_hz > 0.0:
        raise ValueError(f"carrier frequency must be positive, got {carrier_frequency_hz}")
    return (SPEED_OF_LIGHT / (4.0 * math.pi * carrier_frequency_hz)) ** 2


def dbm_to_linear(value_dbm: float) -> float:
    """Convert a dBm (or dB) figure to linear scale, 10^(v/10).

    Transmit SNR factors are formed as ratios dbm_to_linear(P) /
    dbm_to_linear(sigma2), so the 1 mW reference cancels.
    """
    return 10.0 ** (value_dbm / 10.0)


@dataclass(frozen=True)
class UserPosition:
    """User location in the service region: x along the waveguide, y lateral."""

    x: float
    y: float


@dataclass(frozen=True)
class ChannelParams:
    """Per-user channel and link-budget constants.

    beta               blockage coefficient (1/m^2), p_LoS = exp(-beta r^2)
    eta                LoS power constant c^2/(4 pi f_c)^2 (dimensionless)
    mu_sq              aggregate NLoS power mu^2 (dimensionless)
    rho                transmit SNR factor P/sigma^2 (dimensionless)
    guided_wavelength  lambda_g inside the waveguide (m); phase only
    carrier_wavelength free-space lambda (m); phase only

    Derived once per channel, for the CCDF's per-evaluation arithmetic
    (not init arguments; left out of repr, == and hash):

    mu                 sqrt(mu_sq)
    marcum_a           Marcum Q1's first argument sqrt(2 eta)/mu
    rho_mu_sq          rho * mu_sq, the mean of the NLoS SNR times r^2
    """

    beta: float
    eta: float
    mu_sq: float
    rho: float
    guided_wavelength: float
    carrier_wavelength: float
    mu: float = field(init=False, repr=False, compare=False)
    marcum_a: float = field(init=False, repr=False, compare=False)
    rho_mu_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise InvalidScenario(f"beta must be finite and >= 0, got {self.beta}")
        for name in ("eta", "mu_sq", "rho", "guided_wavelength", "carrier_wavelength"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidScenario(f"{name} must be finite and positive, got {value}")
        mu = math.sqrt(self.mu_sq)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "marcum_a", math.sqrt(2.0 * self.eta) / mu)
        object.__setattr__(self, "rho_mu_sq", self.rho * self.mu_sq)


@dataclass(frozen=True)
class Scenario:
    """Deployment region, users and their channel parameters.

    dx, dy   region size (m); users satisfy 0 <= x <= dx, |y| <= dy/2
    dv       waveguide height above the user plane (m)
    """

    dx: float
    dy: float
    dv: float
    users: tuple[UserPosition, ...]
    channels: tuple[ChannelParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "channels", tuple(self.channels))
        for name in ("dx", "dy", "dv"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidScenario(f"{name} must be finite and positive, got {value}")
        if not self.users:
            raise InvalidScenario("scenario needs at least one user")
        if len(self.users) != len(self.channels):
            raise InvalidScenario(
                f"{len(self.users)} users but {len(self.channels)} channel parameter sets"
            )
        # every y_max = (y^2 + dv^2) + far^2 rounds to at most this: check users if it overflows
        half = 0.5 * self.dy
        region_finite = math.isfinite((half * half + self.dv * self.dv) + self.dx * self.dx)
        for m, user in enumerate(self.users):
            if not 0.0 <= user.x <= self.dx:
                raise InvalidScenario(f"users[{m}].x = {user.x} outside [0, {self.dx}]")
            if not abs(user.y) <= half:
                raise InvalidScenario(f"users[{m}].y = {user.y} outside [-{self.dy/2}, {self.dy/2}]")
            if not region_finite and not math.isfinite(squared_distance_range(self, m).y_max):
                raise InvalidScenario(f"users[{m}]: largest squared distance to the antenna "
                                      f"is not finite (dx, dv or users[{m}].y too large)")
            p, c = self.channels[m], self.c_const(m)
            if not (c > 0.0 and 0.0 < 2.0 * (p.rho * (p.eta + p.mu_sq) / c) < math.inf):
                raise InvalidScenario(f"users[{m}]: level ceiling 2 rho (eta + mu_sq) / C_m is "
                                      f"not a positive double (rho, eta, mu_sq or dv out of scale)")

    @property
    def n_users(self) -> int:
        return len(self.users)

    def c_const(self, user_index: int) -> float:
        """Vertex value C_m = y_m^2 + dv^2 of the squared-distance parabola."""
        user = self.users[user_index]
        return user.y * user.y + self.dv * self.dv


@dataclass(frozen=True)
class SquaredDistanceRange:
    """Extremes of r_m^2 over the deployment interval x_pin in [0, dx]."""

    y_min: float
    y_max: float


def distance_squared(user: UserPosition, dv: float, x_pin: float) -> float:
    """Squared antenna-to-user distance (x_m - x_pin)^2 + y_m^2 + dv^2."""
    dx_ = user.x - x_pin
    return dx_ * dx_ + user.y * user.y + dv * dv


def f_scalar(params: ChannelParams, y: float) -> float:
    """f(y) = rho (eta e^{-beta y} + mu_sq) / y for y = r^2 > 0.

    Strictly decreasing and continuous on (0, inf): its derivative
    -rho (eta e^{-beta y}(beta y + 1) + mu_sq) / y^2 is negative, so the
    equation f(y) = t has at most one root, which the solvers bracket.
    """
    if not y > 0.0:
        raise ValueError(f"squared distance must be positive, got {y}")
    return params.rho * (params.eta * math.exp(-params.beta * y) + params.mu_sq) / y


def lambert_w0(log_x: float) -> float:
    """W0(x), the w >= 0 with w e^w = x, at x = e^log_x, so x itself may lie
    outside the float range: three Halley steps on w + ln w = log_x from
    ln(1 + x) (Corless et al., Adv. Comput. Math. 5, 1996)."""
    if log_x < -40.0:  # W0(x) = x - x^2 + ...: x to the last bit
        return math.exp(log_x)
    w = log_x + math.log1p(math.exp(-log_x)) if log_x > 0.0 else math.log1p(math.exp(log_x))
    for _ in range(3):
        d = (w + math.log(w) - log_x) * w / (w + 1.0)
        w -= d / (1.0 + d / (2.0 * w * (w + 1.0)))
    return w


def snr_std(params: ChannelParams, y: float) -> float:
    """Standard deviation of the instantaneous SNR rho*|h|^2 at squared distance y.

    With p = e^{-beta y}, E[(rho|h|^2)^2] = rho^2 (p (eta^2 + 4 eta mu_sq)
    + 2 mu_sq^2) / y^2; subtracting f(y)^2 = rho^2 (p eta + mu_sq)^2 / y^2
    leaves (rho/y)^2 (p (1-p) eta^2 + 2 p eta mu_sq + mu_sq^2), whose root is
    formed as f is, rho * hypot(...) / y: no square of rho/y or mu_sq underflows.
    """
    p, eta, mu_sq = math.exp(-params.beta * y), params.eta, params.mu_sq
    return params.rho * math.hypot(eta * math.sqrt(p * (1.0 - p)),
                                   math.sqrt(2.0 * p * eta) * math.sqrt(mu_sq), mu_sq) / y


def squared_distance_range(scenario: Scenario, user_index: int) -> SquaredDistanceRange:
    """Precompute min/max of r_m^2 over x_pin in [0, dx] for one user."""
    if not 0 <= user_index < scenario.n_users:
        raise IndexError(f"user index {user_index} out of range")
    user = scenario.users[user_index]
    c = scenario.c_const(user_index)
    far = max(user.x, scenario.dx - user.x)
    y_max = c + far * far
    return SquaredDistanceRange(y_min=c, y_max=y_max)  # Scenario keeps x_m in [0, dx]
