"""Scenario JSON parsing: the model built from a document, and errors that
name the offending field."""

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from pinchopt.model import UserPosition, dbm_to_linear
from pinchopt.scenario_io import (
    DEFAULTS,
    ScenarioFormatError,
    _channel_from,
    load_scenario,
    parse_scenario_dict,
)

BASE = {
    "schema": 1,
    "region": {"dx": 30.0, "dy": 10.0, "dv": 10.0},
    "users": [{"x": 6.0, "y": 2.0}, {"x": 21.0, "y": -3.0}],
    "outage": {"epsilons": [0.1, 0.2]},
}


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenario_docs(draw):
    dx = draw(_finite(1.0, 100.0))
    dy = draw(_finite(1.0, 20.0))
    n_users = draw(st.integers(1, 4))
    users = []
    for _ in range(n_users):
        user = {"x": draw(_finite(0.0, dx)), "y": draw(_finite(-0.5 * dy, 0.5 * dy))}
        if draw(st.booleans()):
            user["noise_dbm"] = draw(_finite(-100.0, -60.0))
        if draw(st.booleans()):
            user["mu_sq_db"] = draw(_finite(-100.0, -60.0))
        users.append(user)
    doc = {
        "schema": 1,
        "region": {"dx": dx, "dy": dy, "dv": draw(_finite(1.0, 20.0))},
        "defaults": {"beta": draw(_finite(0.0, 0.1)), "p_dbm": draw(_finite(0.0, 50.0))},
        "users": users,
    }
    outage = draw(st.sampled_from(["none", "shared", "per-user"]))
    if outage == "shared":
        doc["outage"] = {"epsilon": draw(_finite(1e-4, 0.9))}
    elif outage == "per-user":
        doc["outage"] = {"epsilons": [draw(_finite(1e-4, 0.9)) for _ in range(n_users)]}
    if draw(st.booleans()):
        doc["tolerances"] = {"eps_t": draw(_finite(1e-6, 0.5))}
    return doc


@settings(max_examples=150)
@given(scenario_docs())
def test_parsed_model_matches_the_document(doc):
    bundle = parse_scenario_dict(doc)
    scenario, users = bundle.scenario, doc["users"]
    assert (scenario.dx, scenario.dy, scenario.dv) == tuple(doc["region"][k] for k in ("dx", "dy", "dv"))
    assert scenario.users == tuple(UserPosition(user["x"], user["y"]) for user in users)
    defaults = dict(DEFAULTS, **doc["defaults"])
    p_linear = dbm_to_linear(defaults["p_dbm"])
    for user, channel in zip(users, scenario.channels):
        noise, mu_sq_db = (user.get(key, defaults[key]) for key in ("noise_dbm", "mu_sq_db"))
        alone = _channel_from(defaults, p_linear / dbm_to_linear(noise), dbm_to_linear(mu_sq_db))
        assert channel == alone  # each user's own fields over the defaults, field by field
    outage = doc.get("outage")
    if outage is None:
        assert bundle.outage is None
    else:
        epsilons = outage.get("epsilons") or [outage["epsilon"]] * len(users)
        assert bundle.outage.epsilons == tuple(epsilons)
    assert bundle.tol.eps_t == doc.get("tolerances", {}).get("eps_t", 1e-3)


def _edited(path, value):
    """BASE with the field at path (a tuple of keys/indices) set to value."""
    doc = copy.deepcopy(BASE)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("doc, field", [
    # unknown keys
    (_edited(("extra",), 1), "extra"),
    (_edited(("defaults",), {"bogus": 1.0}), "bogus"),
    (_edited(("users", 1, "z"), 0.0), "users[1]"),
    (_edited(("tolerances",), {"eps_x": 1.0}), "eps_x"),
    # wrong types
    (_edited(("region", "dx"), "30"), "region.dx"),
    (_edited(("users", 0, "y"), True), "users[0].y"),
    (_edited(("users",), {"x": 1.0}), "users"),
    (_edited(("region",), [30.0]), "region"),
    (_edited(("defaults",), [1.0]), "defaults"),
    # non-finite numbers
    (_edited(("defaults",), {"beta": math.nan}), "defaults.beta"),
    (_edited(("region", "dv"), math.inf), "region.dv"),
    (_edited(("users", 1, "x"), -math.inf), "users[1].x"),
    (_edited(("region", "dx"), 10 ** 400), "region.dx"),
    # outage section
    (_edited(("outage", "epsilons"), [0.1]), "outage.epsilons"),
    (_edited(("outage", "epsilons"), [0.1, 1.5]), "outage"),
    (_edited(("outage",), {"epsilon": 0.1, "epsilons": [0.1, 0.1]}), "outage"),
    # schema and required fields
    (_edited(("schema",), 2), "schema"),
    ({k: v for k, v in BASE.items() if k != "schema"}, "schema"),
    ({k: v for k, v in BASE.items() if k != "users"}, "users"),
    (_edited(("region",), {"dy": 10.0}), "dx"),
    # values the model rejects
    (_edited(("users", 0, "x"), 31.0), "users[0].x"),
    (_edited(("tolerances",), {"eps_t": 0.0}), "eps_t"),
    # retired fields: the outer loop has a fixed cap, the outage inversion a fixed width
    (_edited(("tolerances",), {"max_iter": 200}), "tolerances: unknown field 'max_iter'"),
    (_edited(("tolerances",), {"eps_u": 1e-6}), "tolerances: unknown field 'eps_u'"),
    # link-budget values whose channel constants leave the float range
    (_edited(("defaults",), {"fc_hz": 0}), "defaults.fc_hz"),
    (_edited(("defaults",), {"fc_hz": -5}), "defaults.fc_hz"),
    (_edited(("defaults",), {"guide_index": 0}), "defaults.guide_index"),
    (_edited(("defaults",), {"p_dbm": 1e6}), "defaults.p_dbm"),
    (_edited(("defaults",), {"mu_sq_db": 5000}), "defaults.mu_sq_db"),
    (_edited(("users", 0, "noise_dbm"), 5000), "users[0].noise_dbm"),
    (_edited(("users", 0, "noise_dbm"), -5000), "users[0].noise_dbm"),
    (_edited(("defaults",), {"fc_hz": 1e-300}), "users[0]"),
    # retired field, listed last so the earlier cases keep their ids
    (_edited(("tolerances",), {"eps_y": 1e-9}), "tolerances: unknown field 'eps_y'"),
    (_edited(("tolerances",), {"eps_t": None}), "tolerances.eps_t"),
    # each field finite, the largest squared distance not
    (_edited(("region", "dx"), 1e160), "users[0]: largest squared distance"),
    (_edited(("region", "dv"), 1e200), "users[0]: largest squared distance"),
    (dict(BASE, region={"dx": 30.0, "dy": 1e200, "dv": 10.0},
          users=[{"x": 6.0, "y": 2.0}, {"x": 21.0, "y": 1e170}]),
     "users[1]: largest squared distance"),
    # a section that is not an object, listed last so the earlier cases keep their ids
    *[(_edited((section,), value), f"{section}: expected an object")
      for section in ("defaults", "tolerances") for value in ([], 0, "", False, None)],
    (_edited(("outage",), None), "outage: expected an object"),
    # outage numbers, listed last so the earlier cases keep their ids
    (_edited(("outage",), {"epsilon": "0.1"}), "outage.epsilon: expected a number"),
    (_edited(("outage", "epsilons"), [0.1, "a"]), "outage.epsilons[1]: expected a number"),
    # each field valid, the level ceiling 2 rho (eta + mu_sq) / C_m not a double
    (_edited(("defaults",), {"p_dbm": 2910.0, "mu_sq_db": 100.0}), "users[0]: level ceiling"),
    # each field valid, the NLoS scale rho mu^2 underflowing to 0
    (_edited(("defaults",), {"p_dbm": -1000.0, "noise_dbm": 760.0, "mu_sq_db": -2800.0}),
     "users[0]: channel constants out of range: rho * mu_sq underflows to 0"),
    # each field valid, the best level f(C_m) underflowing to 0: e^{-beta C_m} removes eta
    (dict(_edited(("region", "dv"), 100.0),
          defaults={"p_dbm": -1000.0, "noise_dbm": 760.0, "mu_sq_db": -1460.0, "beta": 1000.0}),
     "users[0]: best level f(C_m)"),
])
def test_format_errors_name_the_field(doc, field):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario_dict(doc)
    message = str(info.value)
    assert field in message
    section = message.split(":")[0]
    assert not message[len(section) + 1:].lstrip().startswith(section)  # named once


def test_users_with_the_same_channel_fields_share_one_channel():
    users = [{"x": 6.0, "y": 2.0}, {"x": 9.0, "y": 1.0, "mu_sq_db": -87.0},
             {"x": 21.0, "y": -3.0}, {"x": 25.0, "y": 4.0, "mu_sq_db": -87.0, "noise_dbm": -85.0},
             {"x": 28.0, "y": 0.0, "mu_sq_db": -87.0}]
    channels = parse_scenario_dict(dict(BASE, users=users, outage={"epsilon": 0.1})).scenario.channels
    assert channels[0] is channels[2]
    assert channels[1] is channels[4]
    assert len({id(channel) for channel in channels}) == 3
    p_linear = dbm_to_linear(DEFAULTS["p_dbm"])
    for user, channel in zip(users, channels):
        noise, mu_sq_db = (user.get(key, DEFAULTS[key]) for key in ("noise_dbm", "mu_sq_db"))
        alone = _channel_from(DEFAULTS, p_linear / dbm_to_linear(noise), dbm_to_linear(mu_sq_db))
        assert channel == alone  # dataclass equality: field by field


def test_region_whose_bound_overflows_loads_when_every_user_is_finite():
    # (dy/2)^2 + dv^2 + dx^2 overflows, but users at y = 0 have y_max = dv^2 + dx^2
    dx, dy = 1.3e154, 1e154
    assert not math.isfinite((0.5 * dy) ** 2 + 10.0 ** 2 + dx * dx)
    doc = dict(BASE, region={"dx": dx, "dy": dy, "dv": 10.0},
               users=[{"x": 0.0, "y": 0.0}, {"x": dx, "y": 0.0}])
    scenario = parse_scenario_dict(doc).scenario
    assert all(math.isfinite(y_max) for y_max in scenario.y_max)


def test_top_level_must_be_an_object():
    with pytest.raises(ScenarioFormatError, match="top level"):
        parse_scenario_dict([BASE])


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_literals_rejected(tmp_path, literal):
    # json.loads accepts these JavaScript literals; the parser must not
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BASE).replace('"dv": 10.0', f'"dv": {literal}'), encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="region.dv"):
        load_scenario(path)


def test_invalid_json_names_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1,\n "region": }', encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="line 2, column"):
        load_scenario(path)
