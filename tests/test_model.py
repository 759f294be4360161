import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from pinchopt import (
    ChannelParams,
    InvalidScenario,
    Scenario,
    UserPosition,
    dbm_to_linear,
    distance_squared,
    eta_from_carrier,
    f_scalar,
    squared_distance_range,
)
from pinchopt.model import lambert_w0, snr_std
from pinchopt.montecarlo import _channel_constants

from conftest import make_params, make_scenario


class TestEtaFromCarrier:
    def test_28ghz_value(self):
        # direct evaluation of c^2/(4 pi f)^2, frozen to 3+ significant digits
        assert eta_from_carrier(28e9) == pytest.approx(7.2595e-7, rel=1e-4)

    def test_inverse_square_scaling(self):
        assert eta_from_carrier(56e9) == pytest.approx(eta_from_carrier(28e9) / 4.0, rel=1e-14)

    def test_unit_fixed_point(self):
        fc = 299_792_458.0 / (4.0 * math.pi)
        assert eta_from_carrier(fc) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -28e9])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            eta_from_carrier(bad)


class TestDbmToLinear:
    def test_zero_dbm(self):
        assert dbm_to_linear(0.0) == 1.0

    def test_rho_from_table_powers(self):
        assert dbm_to_linear(40.0) / dbm_to_linear(-90.0) == pytest.approx(1e13, rel=1e-12)

    def test_minus_sixty(self):
        assert dbm_to_linear(-60.0) == pytest.approx(1e-6, rel=1e-12)


class TestDistanceSquared:
    def test_example_point(self):
        assert distance_squared(UserPosition(10.0, 5.0), 10.0, 5.0) == pytest.approx(150.0)

    def test_vertex_at_user(self):
        user = UserPosition(10.0, 5.0)
        assert distance_squared(user, 10.0, 10.0) == pytest.approx(125.0)

    def test_second_endpoint(self):
        assert distance_squared(UserPosition(10.0, 5.0), 10.0, 10.0) == pytest.approx(125.0)

    @given(x=st.floats(0, 30), y=st.floats(-5, 5), pin=st.floats(0, 30))
    def test_minimized_at_user_x(self, x, y, pin):
        user = UserPosition(x, y)
        assert distance_squared(user, 10.0, pin) >= distance_squared(user, 10.0, x) - 1e-9


def los_probability(params, r_sq):
    """The sampler's LoS gate probability exp(-beta r^2)."""
    return _channel_constants(params, r_sq, 0.0)[0]


class TestLosProbability:
    def test_zero_beta_is_certain(self):
        assert los_probability(make_params(beta=0.0), 1234.5) == 1.0

    def test_example_value(self):
        assert los_probability(make_params(beta=0.01), 150.0) == pytest.approx(
            math.exp(-1.5), rel=1e-14
        )
        assert math.exp(-1.5) == pytest.approx(0.2231, abs=5e-5)

    @given(r1=st.floats(1.0, 1e4), r2=st.floats(1.0, 1e4))
    def test_nonincreasing_and_bounded(self, r1, r2):
        params = make_params(beta=0.005)
        p1, p2 = los_probability(params, r1), los_probability(params, r2)
        assert 0.0 < p1 <= 1.0
        if r1 < r2:
            assert p1 >= p2


class TestAvgSnr:
    """f_scalar read as the average SNR at squared distance r^2."""

    def test_blockage_free_reduction(self):
        params = make_params(beta=0.0)
        r_sq = 222.0
        expected = params.rho * (params.eta + params.mu_sq) / r_sq
        assert f_scalar(params, r_sq) == pytest.approx(expected, rel=1e-14)

    def test_spec_example_at_mu_1e6(self):
        # the documented parameter point with mu^2 = 1e-6; value frozen from
        # direct evaluation of rho (eta e^{-beta r^2} + mu^2) / r^2
        params = make_params(beta=0.01, mu_sq=1e-6)
        assert f_scalar(params, 150.0) == pytest.approx(77465.395437, rel=1e-9)
        assert f_scalar(params, 150.0) == pytest.approx(7.7e4, rel=1e-2)

    def test_heavy_blockage_limit(self):
        params = make_params(beta=2.0)
        r_sq = 400.0
        assert f_scalar(params, r_sq) == pytest.approx(params.rho * params.mu_sq / r_sq, rel=1e-10)

    def test_finite_at_table_magnitudes(self):
        params = make_params(beta=1e-3, rho=1e13)
        assert math.isfinite(f_scalar(params, 100.0))
        assert math.isfinite(f_scalar(params, 1e6))


class TestSnrStd:
    @pytest.mark.parametrize("beta, r_sq", [(0.0, 150.0), (0.01, 100.0), (0.029, 110.0)])
    def test_is_the_root_of_the_variance(self, beta, r_sq):
        params = make_params(beta=beta)
        p, eta, mu_sq = math.exp(-beta * r_sq), params.eta, params.mu_sq
        variance = (params.rho / r_sq) ** 2 * (p * (1.0 - p) * eta * eta + 2.0 * p * eta * mu_sq
                                               + mu_sq * mu_sq)
        assert snr_std(params, r_sq) == pytest.approx(math.sqrt(variance), rel=1e-14)

    def test_positive_where_the_variance_underflows(self):
        # rho ~ 1e-306: (rho / y)^2 underflows to 0, the standard deviation does not
        params = make_params(rho=1e-306)
        assert (params.rho / 150.0) ** 2 == 0.0
        reference = snr_std(make_params(rho=1e13), 150.0)
        assert snr_std(params, 150.0) == pytest.approx(reference * 1e-319, rel=1e-6)


class TestFScalar:
    @given(y1=st.floats(1.0, 5e3), y2=st.floats(1.0, 5e3))
    @settings(max_examples=200)
    def test_strictly_decreasing(self, y1, y2):
        params = make_params()
        if y1 < y2:
            assert f_scalar(params, y1) > f_scalar(params, y2)

    def test_doubling_decreases(self):
        params = make_params()
        assert f_scalar(params, 300.0) > f_scalar(params, 600.0)

    def test_unit_value_without_blockage(self):
        params = make_params(beta=0.0)
        y = params.rho * (params.eta + params.mu_sq)
        assert f_scalar(params, y) == pytest.approx(1.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            f_scalar(make_params(), 0.0)
        with pytest.raises(ValueError):
            f_scalar(make_params(), -5.0)


class TestLambertW0:
    @given(log_x=st.floats(-60.0, 60.0))
    @settings(max_examples=200)
    def test_matches_scipy(self, log_x):
        assert lambert_w0(log_x) == pytest.approx(special.lambertw(math.exp(log_x)).real,
                                                  rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("log_x", [710.0, 1e4, 1e300])
    def test_x_beyond_the_float_range(self, log_x):
        w = lambert_w0(log_x)  # e^log_x overflows; the log form does not
        assert w + math.log(w) == pytest.approx(log_x, rel=1e-15)

    @pytest.mark.parametrize("log_x", [-41.0, -745.0, -1e4])
    def test_tiny_x_is_its_own_w(self, log_x):
        # W0(x) = x - x^2 + ...; e^-745 is subnormal and e^-1e4 underflows to 0
        assert lambert_w0(log_x) == math.exp(log_x)


class TestSquaredDistanceRange:
    def test_interior_user_symmetric(self):
        sc = make_scenario([(15.0, 0.0)], dx=30.0)
        rng = squared_distance_range(sc, 0)
        assert rng.y_min == pytest.approx(sc.c_const(0))
        assert rng.y_max == pytest.approx(sc.c_const(0) + 225.0)

    def test_user_at_origin(self):
        sc = make_scenario([(0.0, 3.0)], dx=30.0)
        rng = squared_distance_range(sc, 0)
        assert rng.y_min == pytest.approx(sc.c_const(0))
        assert rng.y_max == pytest.approx(sc.c_const(0) + 900.0)

    def test_documented_numbers(self):
        sc = make_scenario([(10.0, 5.0)], dx=30.0)
        rng = squared_distance_range(sc, 0)
        assert rng.y_min == pytest.approx(125.0)
        assert rng.y_max == pytest.approx(525.0)

    def test_index_error(self):
        sc = make_scenario([(10.0, 5.0)])
        with pytest.raises(IndexError):
            squared_distance_range(sc, 1)


_DERIVED = ("mu", "marcum_a", "rho_mu_sq")


def _fresh(params):
    """A ChannelParams built from params' init fields alone."""
    return ChannelParams(**{f.name: getattr(params, f.name)
                            for f in dataclasses.fields(params) if f.init})


class TestChannelParamsDerived:
    """The per-channel constants ccdf_inst_snr and invert_f read."""

    def test_values(self):
        params = make_params()
        mu = math.sqrt(params.mu_sq)
        assert params.mu == mu
        assert params.marcum_a == math.sqrt(2.0 * params.eta) / mu
        assert params.marcum_a == pytest.approx(math.sqrt(2.0 * params.eta / params.mu_sq),
                                                rel=1e-14)
        assert params.rho_mu_sq == params.rho * params.mu_sq

    @pytest.mark.parametrize("make", [
        lambda p: dataclasses.replace(p, eta=1.5 * p.eta),  # verify's eta-scaled channel
        lambda p: dataclasses.replace(p, beta=0.5 * p.beta),  # a sweep's beta override
        lambda p: dataclasses.replace(p, mu_sq=4.0 * p.mu_sq, rho=0.1 * p.rho),
        lambda p: pickle.loads(pickle.dumps(p)),  # the sweep's worker pool
    ])
    def test_follow_the_fields_they_come_from(self, make):
        params = make(make_params())
        fresh = _fresh(params)
        for name in _DERIVED:
            assert getattr(params, name) == getattr(fresh, name), name

    def test_not_init_arguments(self):
        with pytest.raises(TypeError):
            ChannelParams(beta=0.01, eta=1e-6, mu_sq=1e-9, rho=1e13,
                          guided_wavelength=1e-2, carrier_wavelength=1e-2, mu=1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(make_params(), marcum_a=1.0)

    def test_repr_eq_and_hash_ignore_them(self):
        params, other = make_params(), make_params()
        object.__setattr__(other, "marcum_a", 0.0)
        object.__setattr__(other, "rho_mu_sq", 0.0)
        assert params == other and hash(params) == hash(other)
        assert repr(params) == repr(other)
        assert not any(f"{name}=" in repr(params) for name in _DERIVED)


class TestScenarioValidation:
    def test_accepts_boundary_users(self):
        make_scenario([(0.0, 5.0), (30.0, -5.0)], dx=30.0, dy=10.0)

    def test_rejects_user_outside_x(self):
        with pytest.raises(InvalidScenario):
            make_scenario([(31.0, 0.0)], dx=30.0)

    def test_rejects_user_outside_y(self):
        with pytest.raises(InvalidScenario):
            make_scenario([(10.0, 5.1)], dy=10.0)

    def test_rejects_empty_users(self):
        with pytest.raises(InvalidScenario):
            Scenario(dx=30.0, dy=10.0, dv=10.0, users=(), channels=())

    def test_rejects_length_mismatch(self):
        params = make_params()
        with pytest.raises(InvalidScenario):
            Scenario(dx=30.0, dy=10.0, dv=10.0,
                     users=(UserPosition(1.0, 0.0),), channels=(params, params))

    def test_rejects_bad_channel_params(self):
        with pytest.raises(InvalidScenario):
            make_params(beta=-0.1)
        with pytest.raises(InvalidScenario):
            make_params(mu_sq=0.0)

    @pytest.mark.parametrize("field", ["beta", "eta", "mu_sq", "rho"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_channel_params(self, field, bad):
        with pytest.raises(InvalidScenario, match=field):
            make_params(**{field: bad})

    @pytest.mark.parametrize("kwargs", [
        dict(rho=1e300, mu_sq=1e10),            # rho mu^2 overflows
        dict(rho=1.5e308, eta=0.9, dv=1.0),     # f(y_min) is finite, 2 f(y_min) is not
        dict(rho=1e-200, eta=1e-200, mu_sq=1e-200),  # rho (eta + mu^2) underflows to 0
        dict(dv=1e-170, dy=1e-170),             # y^2 + dv^2 underflows to 0
    ])
    def test_rejects_a_level_ceiling_outside_the_doubles(self, kwargs):
        with pytest.raises(InvalidScenario, match=r"^users\[0\]: level ceiling"):
            make_scenario([(1.0, 0.0)], **kwargs)

    @pytest.mark.parametrize("field", ["dx", "dy", "dv"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_region(self, field, bad):
        with pytest.raises(InvalidScenario, match=field):
            make_scenario([(0.0, 0.0)], **{field: bad})
