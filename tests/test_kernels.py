"""Kernel checks: the Monte-Carlo SNR map against its out-of-place twin on LoS lanes,
batch against scalar Marcum Q1, and Q1's Gauss-Hermite band against a 50-digit oracle."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, strategies as st

from pinchopt import kernels

from oracles import bessel_i0_scaled_mp, marcum_q1_mp, snr_samples_reference


def _draws(n=5000, seed=3):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.random(n), rng.standard_normal(n), rng.standard_normal(n)


def _exponentials(n, seed=4):
    return np.random.Generator(np.random.Philox(seed)).standard_exponential(n)


class TestSnrSamples:
    def test_no_los_reduces_to_nlos_power(self):
        blocked = _exponentials(5000)
        expected = 2.0 * 1e-5 * 1e-5 * blocked
        out = kernels.snr_samples(blocked, np.empty(0), 5e-4, 1e-5, 1.0, 0.0, 1.0)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_certain_los_no_fading(self):
        _, z_re, z_im = _draws()
        out = kernels.snr_samples(z_re, np.zeros_like(z_im), 5e-4, 0.0, 0.6, 0.8, 1.0)
        np.testing.assert_allclose(out, np.full_like(z_re, (5e-4) ** 2), rtol=1e-12)

    def test_returns_values_in_place(self):
        _, z_re, z_im = _draws()
        assert kernels.snr_samples(z_re, z_im[:100], 5e-4, 1e-5, 0.6, 0.8, 1.0) is z_re

    @pytest.mark.parametrize("phase", [0.3, 2.0, 4.0, 5.5], ids=["++", "-+", "--", "+-"])
    @pytest.mark.parametrize("p_los, los_amp, nlos_scale, rho", [
        (0.0, 5e-4, 1e-5, 1.0),
        (0.5, 5e-4, 1e-5, 1e13),
        (1.0, 5e-4, 1e-5, 3.7),
        (0.5, 0.0, 1e-5, 1e13),
        (0.5, 5e-4, 0.0, 1e13),
    ], ids=["no-los", "half", "all-los", "los-amp-0", "nlos-scale-0"])
    def test_matches_out_of_place_reference_bit_for_bit(self, phase, p_los, los_amp,
                                                         nlos_scale, rho):
        # the lanes the reference's gate lets through are the kernel's LoS lanes
        u, z_re, z_im = _draws()
        u[:50] = p_los  # the gate's edge: u == p_los is blocked
        u[50:70] = 0.0  # LoS lanes wherever p_los > 0
        z_re[50:60], z_im[60:70] = 0.0, -0.0  # signed zeros; a zero LoS term at los_amp 0
        los = u < p_los
        k = np.count_nonzero(los)
        blocked = _exponentials(u.size - k)
        args = (los_amp, nlos_scale, math.cos(phase), math.sin(phase), rho)
        expected = snr_samples_reference(u, z_re, z_im, p_los, *args)[los]
        out = kernels.snr_samples(np.concatenate([z_re[los], blocked]), z_im[los], *args)
        assert np.array_equal(out[:k].view(np.int64), expected.view(np.int64))
        nlos_power = rho * (2.0 * nlos_scale * nlos_scale * blocked)
        assert np.array_equal(out[k:].view(np.int64), nlos_power.view(np.int64))


def _random_args(seed, n=400, hi=20.0):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.uniform(0.0, hi, n), rng.uniform(0.0, hi, n)


class TestMarcumBackends:
    def test_batch_matches_python_scalar(self):
        a, b = _random_args(11)
        batch = kernels.marcum_q1_batch(a, b)
        scalar = np.array([kernels.marcum_q1_scalar(ai, bi) for ai, bi in zip(a, b)])
        np.testing.assert_array_equal(batch, scalar)

    def test_large_argument_lanes(self):
        # the reference link's a = 38.1: every lane saturates or runs the band
        a = np.full(64, 38.1)
        b = np.geomspace(0.5, 200.0, 64)
        batch = kernels.marcum_q1_batch(a, b)
        scalar = np.array([kernels.marcum_q1_scalar(38.1, bi) for bi in b])
        np.testing.assert_array_equal(batch, scalar)
        assert batch[0] == 1.0 and batch[-1] == 0.0

    @pytest.mark.parametrize("shape", [(600,), (20, 30)], ids=["dispatch", "numpy"])
    def test_mixed_regime_lanes(self, shape):
        # one call spanning both saturated regimes, the series and the band, in the
        # kernel's order; the 2-D case checks the raveled lanes map back to their shape
        a, b = _random_args(21, n=600, hi=45.0)
        gap = a - b
        inside = np.abs(gap) < kernels.SATURATION_GAP
        assert np.any(gap >= kernels.SATURATION_GAP)
        assert np.any(-gap >= kernels.SATURATION_GAP)
        assert np.any(inside & (a * b <= kernels.LINEAR_AB_LIMIT))
        assert np.any(inside & (a * b > kernels.LINEAR_AB_LIMIT))
        scalar = np.array([kernels.marcum_q1_scalar(ai, bi) for ai, bi in zip(a, b)])
        batch = kernels.marcum_q1_batch(a.reshape(shape), b.reshape(shape))
        assert batch.shape == shape
        np.testing.assert_array_equal(batch.ravel(), scalar)

    def test_numpy_batch_without_linear_lanes(self):
        # all lanes past the series limit
        a = np.full(5, 38.1)
        b = np.array([10.0, 30.0, 38.1, 45.0, 70.0])
        scalar = np.array([kernels.marcum_q1_scalar(38.1, bi) for bi in b])
        np.testing.assert_array_equal(kernels.marcum_q1_batch(a, b), scalar)

    def test_numpy_batch_zero_size(self):
        out = kernels.marcum_q1_batch(np.empty(0), np.empty(0))
        assert out.shape == (0,)

    def test_batch_keeps_zero_length_broadcast_shape(self):
        out = kernels.marcum_q1_batch(np.empty((0, 1)), np.array([1.0, 2.0, 3.0]))
        assert out.shape == (0, 3)

    def test_saturation_shortcut_consistent_with_bessel(self):
        # values just inside / outside the |a-b| >= 14 saturation cut
        for a, b in [(40.0, 26.5), (40.0, 53.5), (38.1, 24.2), (38.1, 52.0),
                     (40.0, 25.9), (40.0, 54.1), (3000.0, 2985.9), (3000.0, 3014.1)]:
            full = kernels._marcum_band(a, b)
            assert kernels.marcum_q1_scalar(a, b) == pytest.approx(full, abs=1e-12)

    def test_scalar_edge_identities(self):
        assert kernels.marcum_q1_scalar(3.0, 0.0) == 1.0
        assert kernels.marcum_q1_scalar(0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)
        assert kernels.marcum_q1_scalar(0.0, 60.0) == 0.0  # saturated: b - a >= 14


def _around(a, b):
    """(a, b) and (a, b') with b' the doubles on each side of b."""
    return [(a, math.nextafter(b, -math.inf)), (a, b), (a, math.nextafter(b, math.inf))]


_SATURATION_EDGE_LANES = [
    # |a - b| = 14 with a*b just below and just above 500, on each side of the diagonal
    *_around(30.4, 16.4), *_around(30.5, 16.5), *_around(16.4, 30.4), *_around(16.5, 30.5),
    # small a*b, where the series took every saturated lane
    *_around(19.0, 5.0), *_around(0.5, 14.5), *_around(5.0, 19.0),
    (37.0, 5.0), (20.0, 6.0),
]


class TestMarcumSaturation:
    """Lanes with |a - b| >= 14 return 0 or 1 before any series or band runs."""

    @pytest.mark.parametrize("a, b", _SATURATION_EDGE_LANES)
    def test_matches_the_mpmath_quadrature(self, a, b):
        value, exact = kernels.marcum_q1_scalar(a, b), marcum_q1_mp(a, b)
        if abs(a - b) >= kernels.SATURATION_GAP:
            assert value in (0.0, 1.0) and abs(value - exact) <= 1e-15
        else:  # still inside the gap: the series stops at a 1e-14 tail
            assert abs(value - exact) <= (2e-14 if a * b <= kernels.LINEAR_AB_LIMIT else 1e-15)


_AB_EDGE = math.nextafter(math.sqrt(500.0), math.inf)  # a = b with a*b just past 500
_BAND_LANES = [
    # a = b, and the switch between the rule's two sums at adjacent doubles
    (22.5, 22.5), (22.5, math.nextafter(22.5, math.inf)), (math.nextafter(22.5, math.inf), 22.5),
    (_AB_EDGE, _AB_EDGE), (1500.0, 1500.0),
    # a*b -> 500, where a and b come nearest the rule's largest node
    (20.0, 25.000000000000004), (25.0, 20.000000000000004), (16.44, 30.43), (30.43, 16.44),
    # |a - b| -> 14, where Q1 or 1 - Q1 falls to about 1e-43
    (40.0, 53.99999999), (53.99999999, 40.0), (3000.0, 3013.9999), (3013.9999, 3000.0),
    # inside the band
    (38.1, 30.0), (38.1, 45.0), (200.0, 205.0), (74.3, 87.2), (1033.5, 1045.9), (3000.0, 2990.0),
]


class TestBandRule:
    """The literal (node, half-weight) table against rules computed independently."""

    def test_matches_scipy_hermite_rule(self):
        nodes, weights = scipy.special.roots_hermitenorm(32)
        positive = nodes > 0.0
        ys, half_ws = (np.array(column) for column in zip(*kernels._BAND_RULE))
        np.testing.assert_allclose(ys, nodes[positive], rtol=1e-14, atol=0.0)
        # tail weights down to 4e-23 are accurate only in absolute terms, which is what Q1 needs
        np.testing.assert_allclose(half_ws, 0.5 * weights[positive] / weights[positive].sum(),
                                   rtol=0.0, atol=1e-15)
        assert 2.0 * math.fsum(half_ws) == 1.0

    def test_golub_welsch_reproduces_every_entry_within_two_ulps(self):
        off = np.sqrt(np.arange(1.0, 32.0))
        nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        positive = nodes > 0.0
        weights = vectors[0, positive] ** 2
        rule = zip(nodes[positive].tolist(), (0.5 * weights / weights.sum()).tolist())
        for entry, computed in zip(kernels._BAND_RULE, rule, strict=True):
            for value, exact in zip(entry, computed):
                assert abs(value - exact) <= 2.0 * math.ulp(exact), (entry, computed)


class TestMarcumBand:
    """The Gauss-Hermite band, a*b > 500 and |a - b| < 14."""

    @pytest.mark.parametrize("a, b", _BAND_LANES)
    def test_matches_the_mpmath_quadrature(self, a, b):
        assert a * b > kernels.LINEAR_AB_LIMIT and abs(a - b) < kernels.SATURATION_GAP
        value, exact = kernels.marcum_q1_scalar(a, b), marcum_q1_mp(a, b)
        assert abs(value - exact) <= 1e-15
        if b > a:  # Q1 down to 1e-43: the sum keeps its relative precision
            assert abs(value - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("a, tol", [(20.0, 2e-14), (1e3, 1e-15), (1e8, 1e-15)],
                             ids=["series", "band", "band-1e8"])
    def test_diagonal_is_half_of_one_plus_scaled_i0(self, a, tol):
        # Q1(a, a) = (1 + e^{-a^2} I0(a^2)) / 2; at a = 20 the series' 1e-14 tail sets tol
        expected = 0.5 * (1.0 + bessel_i0_scaled_mp(a * a))
        assert kernels.marcum_q1_scalar(a, a) == pytest.approx(expected, abs=tol)

    def test_work_per_call_does_not_grow_with_a_or_b(self, monkeypatch):
        calls, real = 0, math.erfc

        def erfc(x):
            nonlocal calls
            calls += 1
            return real(x)

        monkeypatch.setattr(kernels.math, "erfc", erfc)
        for a, b in [(38.1, 30.0), (1500.0, 1500.0), (1e8, 1e8 + 3.0), (1e300, 1e300),
                     (1.7e308, 1.7e308)]:
            calls = 0
            assert 0.0 < kernels.marcum_q1_scalar(a, b) < 1.0
            assert calls == len(kernels._BAND_RULE) == 16

    @given(log_a=st.floats(-300.0, 300.0), log_b=st.floats(-300.0, 300.0),
           tie=st.sampled_from([None, -1e-3, 1e-3]))
    @example(log_a=300.0, log_b=300.0, tie=-1e-3)
    @example(log_a=300.0, log_b=300.0, tie=None)
    def test_finite_in_the_unit_interval_at_every_scale(self, log_a, log_b, tie):
        a = 10.0 ** log_a
        b = 10.0 ** log_b if tie is None else a * (1.0 + tie)
        assert 0.0 <= kernels.marcum_q1_scalar(a, b) <= 1.0

