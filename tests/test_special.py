import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchopt import ccdf_inst_snr, ccdf_inst_snr_batch, marcum_q1
from pinchopt.kernels import i0_scaled
from pinchopt.special import _marcum_ab

from conftest import make_params
from oracles import (
    bessel_i0_scaled_mp,
    bessel_i0_scaled_quad,
    bessel_i0_series,
    marcum_q1_quad,
)


class TestBesselI0Scaled:
    """kernels.i0_scaled, the e^{-x} I0(x) that the Marcum kernel calls."""

    def test_at_zero(self):
        assert i0_scaled(0.0) == 1.0

    def test_series_oracle_at_one(self):
        i0_one = bessel_i0_series(1.0)
        assert i0_one == pytest.approx(1.2660658777520084, rel=1e-12)
        assert i0_scaled(1.0) == pytest.approx(math.exp(-1.0) * i0_one, rel=1e-12)

    def test_asymptotic_regime(self):
        value = i0_scaled(100.0)
        assert value == pytest.approx(bessel_i0_scaled_quad(100.0), rel=1e-8)
        assert value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 100.0), rel=2e-3)

    @pytest.mark.parametrize("x", [1e-6, 0.1, 1.0, 5.0, 14.999, 15.0, 15.001, 40.0, 500.0, 1e6])
    def test_against_mpmath(self, x):
        assert i0_scaled(x) == pytest.approx(bessel_i0_scaled_mp(x), rel=1e-12)

    @given(x=st.floats(0.0, 1e4))
    @settings(max_examples=200)
    def test_bounded_in_unit_interval(self, x):
        assert 0.0 < i0_scaled(x) <= 1.0


class TestMarcumQ1:
    def test_full_support_identity(self):
        for a in (0.0, 0.7, 5.0, 20.0, 40.0):
            assert abs(marcum_q1(a, 0.0) - 1.0) <= 1e-12

    def test_rayleigh_identity(self):
        for b in (0.0, 0.3, 2.0, 10.0, 20.0):
            assert abs(marcum_q1(0.0, b) - math.exp(-0.5 * b * b)) <= 1e-12

    def test_known_value(self):
        # frozen from the adaptive-quadrature oracle
        assert marcum_q1_quad(1.0, 1.0) == pytest.approx(0.7328798037968202, abs=1e-10)
        assert marcum_q1(1.0, 1.0) == pytest.approx(0.7328798037968202, abs=1e-9)

    @pytest.mark.parametrize("a", [0.0, 0.5, 2.0, 7.0, 13.0, 20.0])
    @pytest.mark.parametrize("b", [0.0, 0.5, 2.0, 7.0, 13.0, 20.0])
    def test_series_vs_quadrature(self, a, b):
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_quad(a, b), abs=1e-9)

    @pytest.mark.parametrize("a,b", [(30.0, 30.0), (25.0, 40.0), (40.0, 25.0),
                                     (60.0, 61.0), (45.0, 2.0), (2.0, 45.0),
                                     (22.5, 22.5), (22.5, math.nextafter(22.5, math.inf)),
                                     (math.nextafter(22.5, math.inf), 22.5)])
    def test_large_argument_branch(self, a, b):
        # crosses into the scaled-Bessel path (a*b > 500 or exp underflow); the
        # last three pin the switch between its a <= b and a > b sums
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_quad(a, b), abs=1e-9)

    def test_complement_identity_large(self):
        # Q1(a,b) + Q1(b,a) = 1 + e^{-(a^2+b^2)/2} I0(ab)
        a, b = 31.0, 33.5
        lhs = marcum_q1(a, b) + marcum_q1(b, a)
        rhs = 1.0 + math.exp(-0.5 * (a - b) ** 2) * i0_scaled(a * b)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(a=st.floats(0.0, 20.0), b1=st.floats(0.0, 20.0), b2=st.floats(0.0, 20.0))
    @settings(max_examples=300)
    def test_decreasing_in_b(self, a, b1, b2):
        if b1 < b2:
            assert marcum_q1(a, b1) >= marcum_q1(a, b2) - 1e-13

    @given(a1=st.floats(0.0, 20.0), a2=st.floats(0.0, 20.0), b=st.floats(0.0, 20.0))
    @settings(max_examples=300)
    def test_increasing_in_a(self, a1, a2, b):
        if a1 < a2:
            assert marcum_q1(a1, b) <= marcum_q1(a2, b) + 1e-13

    @given(a=st.floats(0.0, 25.0), b=st.floats(0.0, 25.0))
    @settings(max_examples=300)
    def test_lower_bound_from_monotonicity_proof(self, a, b):
        assert marcum_q1(a, b) >= math.exp(-0.5 * b * b) - 1e-13

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, -0.1)

    def test_rejects_nan_arguments(self):
        with pytest.raises(ValueError, match="a, b >= 0, got a=nan"):
            marcum_q1(math.nan, 1.0)
        with pytest.raises(ValueError, match="b=nan"):
            marcum_q1(1.0, math.nan)

    def test_marcum_args_from_channel(self):
        params = make_params()
        a, b = _marcum_ab(params, 150.0, 5e3)
        mu = math.sqrt(params.mu_sq)
        assert a == pytest.approx(math.sqrt(2.0 * params.eta) / mu, rel=1e-14)
        assert b == pytest.approx(
            math.sqrt(2.0) * math.sqrt(150.0) * math.sqrt(5e3 / params.rho) / mu, rel=1e-12
        )


class TestCcdfInstSnr:
    def test_zero_threshold_is_one(self):
        assert ccdf_inst_snr(make_params(), 150.0, 0.0) == 1.0

    def test_pure_nlos_branch(self):
        params = make_params(beta=1.0)  # exp(-beta r^2) ~ 0 at r^2 = 150
        r_sq, t = 150.0, 3e3
        expected = math.exp(-t * r_sq / (params.rho * params.mu_sq))
        assert ccdf_inst_snr(params, r_sq, t) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("beta", [1e-3, 4e-3, 1e-2])
    def test_plateau_equals_los_probability(self, beta):
        # geometric middle of the plateau: NLoS tail dead, LoS branch intact
        params = make_params(beta=beta)
        r_sq = 150.0
        t_mid = 2.0 * params.rho * math.sqrt(params.eta * params.mu_sq) / r_sq
        plateau = math.exp(-beta * r_sq)
        assert ccdf_inst_snr(params, r_sq, t_mid) == pytest.approx(plateau, abs=1e-9)

    @given(y1=st.floats(100.0, 2600.0), y2=st.floats(100.0, 2600.0),
           t=st.floats(1e2, 1e5), beta=st.floats(1e-3, 1e-2))
    @settings(max_examples=300)
    def test_strictly_decreasing_in_distance(self, y1, y2, t, beta):
        params = make_params(beta=beta)
        if y1 + 1e-6 < y2:
            assert ccdf_inst_snr(params, y1, t) > ccdf_inst_snr(params, y2, t) - 1e-15

    @given(y=st.floats(100.0, 2600.0), t1=st.floats(0.0, 1e5), t2=st.floats(0.0, 1e5))
    @settings(max_examples=300)
    def test_nonincreasing_in_threshold(self, y, t1, t2):
        params = make_params()
        if t1 < t2:
            assert ccdf_inst_snr(params, y, t1) >= ccdf_inst_snr(params, y, t2) - 1e-13

    @given(y=st.floats(100.0, 2600.0), t=st.floats(0.0, 1e7))
    @settings(max_examples=300)
    def test_bounded(self, y, t):
        assert 0.0 <= ccdf_inst_snr(make_params(), y, t) <= 1.0

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            ccdf_inst_snr(make_params(), 150.0, -1.0)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold must be nonnegative, got nan"):
            ccdf_inst_snr(make_params(), 150.0, math.nan)

    def test_batch_matches_scalar(self):
        params = make_params()
        y = np.array([100.0, 150.0, 400.0, 2600.0])
        t = np.array([0.0, 1e3, 2e4, 6e4])
        batch = ccdf_inst_snr_batch(params, y, t)
        for i in range(y.size):
            assert batch[i] == ccdf_inst_snr(params, float(y[i]), float(t[i]))

    @pytest.mark.parametrize("mu_sq", [1e-9, 1e-8, 1e-7])
    def test_batch_is_the_scalar_bit_for_bit(self, mu_sq):
        # thresholds up to twice the LoS level rho eta / r^2, so the lanes span the Q1 regimes
        params = make_params(mu_sq=mu_sq)
        rng = np.random.Generator(np.random.Philox(7))
        y = rng.uniform(100.0, 2600.0, 2000)
        t = rng.uniform(0.0, 2.0, 2000) * params.rho * params.eta / y
        scalar = [ccdf_inst_snr(params, a, b) for a, b in zip(y.tolist(), t.tolist())]
        np.testing.assert_array_equal(ccdf_inst_snr_batch(params, y, t), scalar)

    def test_batch_broadcasts(self):
        params = make_params()
        out = ccdf_inst_snr_batch(params, 150.0, np.array([0.0, 1e3, 1e4]))
        assert out.shape == (3,)
        assert out[0] == 1.0
