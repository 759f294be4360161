"""Scenario file parsing (JSON, schema version 1) into the model: a Scenario,
an optional OutageSpec and the SolverTolerances. No copy of the document is kept.

Keys carry their unit in the name (p_dbm, fc_hz, mu_sq_db) because the
source material mixes dB, dBm and linear scales freely. Missing defaults
fall back to the reference simulation setup: f_c = 28 GHz, d_v = 10 m,
P = 40 dBm, sigma^2 = -90 dBm, mu^2 = -90 dB, D_y = 10 m, beta = 0.01,
guide index 1.4. fc_hz and guide_index must be positive, and every dB or
dBm figure must map to a positive finite linear value. "tolerances" sets the
SolverTolerances: eps_t, the relative tolerance on the level t (SolverTolerances'
default when absent).

Example document:

    {
      "schema": 1,
      "region": {"dx": 30.0, "dy": 10.0, "dv": 10.0},
      "defaults": {"fc_hz": 2.8e10, "p_dbm": 40.0, "noise_dbm": -90.0,
                   "mu_sq_db": -90.0, "beta": 0.01},
      "users": [{"x": 10.0, "y": 5.0},
                {"x": 25.0, "y": -3.0, "noise_dbm": -85.0}],
      "outage": {"epsilon": 0.1},
      "tolerances": {"eps_t": 1e-3}
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .maxmin import SolverTolerances
from .model import (
    ChannelParams,
    InvalidScenario,
    Scenario,
    SPEED_OF_LIGHT,
    UserPosition,
    dbm_to_linear,
    eta_from_carrier,
)
from .outage import OutageSpec

SCHEMA_VERSION = 1

DEFAULTS = {
    "fc_hz": 28e9,
    "p_dbm": 40.0,
    "noise_dbm": -90.0,
    "mu_sq_db": -90.0,
    "beta": 0.01,
    "guide_index": 1.4,
}
REGION_DEFAULTS = {"dy": 10.0, "dv": 10.0}

_USER_KEYS = {"x", "y", "noise_dbm", "mu_sq_db"}


class ScenarioFormatError(ValueError):
    """Scenario document is malformed; the message names the offending field."""


@dataclass(frozen=True)
class ScenarioBundle:
    """Parsed scenario plus solver configuration."""

    scenario: Scenario
    outage: OutageSpec | None
    tol: SolverTolerances
    name: str = "scenario"


def _section(doc: dict, key: str) -> dict:
    """The object under key, {} when the key is absent; any other value is an error."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ScenarioFormatError(f"{key}: expected an object")
    return section


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ScenarioFormatError(f"{where}: missing required field '{key}'")
    return doc[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioFormatError(f"{where}: expected a finite number, got {value!r}")
    return number


def _linear(value: float, where: str) -> float:
    """10^(value/10) for a dB or dBm figure; it must be a positive finite float."""
    try:
        linear = dbm_to_linear(value)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ScenarioFormatError(f"{where}: {value!r} dB is outside the float range")
    return linear


def _channel_from(defaults: dict, rho: float, mu_sq: float) -> ChannelParams:
    wavelength = SPEED_OF_LIGHT / defaults["fc_hz"]
    return ChannelParams(
        beta=defaults["beta"],
        eta=eta_from_carrier(defaults["fc_hz"]),
        mu_sq=mu_sq,
        rho=rho,
        guided_wavelength=wavelength / defaults["guide_index"],
        carrier_wavelength=wavelength,
    )


def parse_scenario_dict(doc: dict, name: str = "scenario") -> ScenarioBundle:
    """Validate and build a ScenarioBundle from a JSON-compatible dict. Channels
    are validated once per distinct (noise_dbm, mu_sq_db); users with it share one."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("top level: expected an object")
    schema = _require(doc, "schema", "top level")
    if schema != SCHEMA_VERSION:
        raise ScenarioFormatError(f"top level: unsupported schema {schema!r}, expected {SCHEMA_VERSION}")
    unknown = set(doc) - {"schema", "region", "defaults", "users", "outage", "tolerances"}
    if unknown:
        raise ScenarioFormatError(f"top level: unknown fields {sorted(unknown)}")

    _require(doc, "region", "top level")
    region = _section(doc, "region")
    dx = _number(_require(region, "dx", "region"), "region.dx")
    dy = _number(region.get("dy", REGION_DEFAULTS["dy"]), "region.dy")
    dv = _number(region.get("dv", REGION_DEFAULTS["dv"]), "region.dv")

    defaults = dict(DEFAULTS)
    for key, value in _section(doc, "defaults").items():
        if key not in DEFAULTS:
            raise ScenarioFormatError(f"defaults: unknown field '{key}'")
        defaults[key] = _number(value, f"defaults.{key}")
    for key in ("fc_hz", "guide_index"):
        if not defaults[key] > 0.0:
            raise ScenarioFormatError(f"defaults.{key}: must be positive, got {defaults[key]!r}")
    for key in ("noise_dbm", "mu_sq_db"):  # users that inherit them need no check of their own
        _linear(defaults[key], f"defaults.{key}")
    p_linear = _linear(defaults["p_dbm"], "defaults.p_dbm")

    users_doc = _require(doc, "users", "top level")
    if not isinstance(users_doc, list) or not users_doc:
        raise ScenarioFormatError("users: expected a nonempty list")
    users, channels = [], []
    shared = {}  # (noise_dbm, mu_sq_db) -> the validated ChannelParams users with them share
    for m, entry in enumerate(users_doc):
        where = f"users[{m}]"
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{where}: expected an object")
        if set(entry) - _USER_KEYS:
            raise ScenarioFormatError(f"{where}: unknown fields {sorted(set(entry) - _USER_KEYS)}")
        x = _number(_require(entry, "x", where), f"{where}.x")
        y = _number(_require(entry, "y", where), f"{where}.y")
        noise = _number(entry.get("noise_dbm", defaults["noise_dbm"]), f"{where}.noise_dbm")
        mu_sq_db = _number(entry.get("mu_sq_db", defaults["mu_sq_db"]), f"{where}.mu_sq_db")
        users.append(UserPosition(x=x, y=y))
        if (noise, mu_sq_db) not in shared:
            rho = p_linear / _linear(noise, f"{where}.noise_dbm")
            mu_sq = _linear(mu_sq_db, f"{where}.mu_sq_db")
            try:
                shared[noise, mu_sq_db] = _channel_from(defaults, rho, mu_sq)
            except (InvalidScenario, OverflowError) as exc:  # fields valid alone, not together
                raise ScenarioFormatError(f"{where}: channel constants out of range: {exc}") from exc
        channels.append(shared[noise, mu_sq_db])

    try:
        scenario = Scenario(dx=dx, dy=dy, dv=dv, users=tuple(users), channels=tuple(channels))
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc

    outage = None
    if "outage" in doc:
        outage_doc = _section(doc, "outage")
        if ("epsilon" in outage_doc) == ("epsilons" in outage_doc):
            raise ScenarioFormatError("outage: give exactly one of 'epsilon' or 'epsilons'")
        if "epsilon" in outage_doc:
            values = [_number(outage_doc["epsilon"], "outage.epsilon")] * scenario.n_users
        else:
            eps_list = outage_doc["epsilons"]
            if not isinstance(eps_list, list) or len(eps_list) != scenario.n_users:
                raise ScenarioFormatError(f"outage.epsilons: expected {scenario.n_users} values")
            values = [_number(v, f"outage.epsilons[{i}]") for i, v in enumerate(eps_list)]
        try:
            outage = OutageSpec(epsilons=tuple(values))
        except ValueError as exc:
            raise ScenarioFormatError(f"outage: {exc}") from exc

    tols = {}
    for key, value in _section(doc, "tolerances").items():
        if key != "eps_t":
            raise ScenarioFormatError(f"tolerances: unknown field '{key}'")
        tols[key] = _number(value, f"tolerances.{key}")
    try:
        tol = SolverTolerances(**tols)
    except ValueError as exc:
        raise ScenarioFormatError(f"tolerances: {exc}") from exc
    return ScenarioBundle(scenario=scenario, outage=outage, tol=tol, name=name)


def load_scenario(path) -> ScenarioBundle:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario_dict(doc, name=path.stem)
