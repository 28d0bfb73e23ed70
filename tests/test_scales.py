import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from andex import scales
from andex.errors import QuadratureError


class TestComputeAL:
    def test_tail_one_percent(self):
        # oracle: the standard normal upper quantile of 1e-2
        assert scales.compute_aL(100, 1) == pytest.approx(2.3263478740, abs=1e-9)

    def test_depends_only_on_Ld(self):
        assert scales.compute_aL(10, 2) == pytest.approx(
            scales.compute_aL(100, 1), abs=1e-13
        )

    def test_million_sites(self):
        a = scales.compute_aL(10**6, 1)
        assert a == pytest.approx(4.753424308822899, abs=1e-9)
        # strictly below the naive asymptotic because of the -ln a correction
        assert a < math.sqrt(2 * math.log(10**6))

    def test_tail_identity_on_grid(self):
        for L in np.logspace(1, 8, 20):
            L = int(L)
            for d in (1, 2):
                a = scales.compute_aL(L, d)
                val = float(L) ** d * float(scales.normal_sf(a))
                assert abs(val - 1.0) <= 1e-10

    def test_monotone_in_Ld(self):
        sizes = sorted({int(x) for x in np.logspace(0.5, 7, 20)})
        vals = [scales.compute_aL(L, 1) for L in sizes]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            scales.compute_aL(10**110, 3)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            scales.compute_aL(100, 4)
        with pytest.raises(ValueError):
            scales.compute_aL(1, 1)


class TestThetaL:
    def test_hand_value(self):
        got = scales.compute_theta_L(6.0, 1.0, 0.0, 0.25)
        assert got == pytest.approx(6**0.25 / 6, rel=1e-12)
        assert got == pytest.approx(0.26085, abs=5e-5)

    def test_rejects_dL_ge_aL(self):
        with pytest.raises(ValueError):
            scales.compute_theta_L(6.0, 6.0, 0.0, 0.25)

    def test_max_branch_tie(self):
        got = scales.compute_theta_L(5.0, 2.0, 0.2, 0.2)
        assert got == pytest.approx(2.5**0.2 * 0.2, rel=1e-12)
        assert got == pytest.approx(0.24022, abs=5e-6)

    def test_kappa_range(self):
        with pytest.raises(ValueError):
            scales.compute_theta_L(6.0, 1.0, 0.0, 0.4)


class TestInterval:
    def test_hand_values(self):
        assert scales.interval_ILC(5.0, 0.0, 1.0) == pytest.approx((4.8, 5.2))
        lo, hi = scales.interval_ILC(5.0, 0.5, 2.0)
        assert (lo, hi) == pytest.approx((3.4721, 5.4721), abs=5e-5)

    def test_degenerate_C_rejected(self):
        with pytest.raises(ValueError):
            scales.interval_ILC(5.0, 0.0, 0.0)

    @given(
        a=st.floats(1.0, 30.0),
        tau=st.floats(0.0, 2.0),
        C=st.floats(1e-6, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_width(self, a, tau, C):
        lo, hi = scales.interval_ILC(a, tau, C)
        centre = a / math.sqrt(1 + tau * tau)
        assert hi - centre == pytest.approx(centre - lo, rel=1e-12)
        assert hi - lo == pytest.approx(2 * C * max(1 / a, tau), rel=1e-12)


A_REF = 4.753424308822899


class TestGaussianSumTail:
    def test_s_zero_recovers_definition(self):
        exact, ref = scales.gaussian_sum_tail(A_REF, 0.0, 0.0, 1e6)
        assert ref == 1.0
        assert exact == pytest.approx(1.0, rel=1e-3)

    def test_tau_small_s_zero(self):
        exact, _ = scales.gaussian_sum_tail(A_REF, 0.1, 0.0, 1e6)
        assert exact == pytest.approx(1.0, rel=0.10)

    def test_close_to_exponential_reference_small_s(self):
        # the analytic tail tracks e^{-s - s^2/(2 a^2)} closely for |s| <= 1;
        # at s = 2 the known finite-size prefactor pushes the gap to ~8%
        for a in (4.7534, 6.0, 8.0):
            Ld = 1.0 / float(scales.normal_sf(a))  # the box size a solves for
            for s in (-1.0, -0.5, 0.5, 1.0):
                exact, _ = scales.gaussian_sum_tail(a, 0.0, s, Ld)
                closed = math.exp(-s - s * s / (2 * a * a))
                assert exact == pytest.approx(closed, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            scales.gaussian_sum_tail(A_REF, -0.1, 0.0, 1e6)
        with pytest.raises(ValueError):
            scales.gaussian_sum_tail(A_REF, 0.0, 0.0, 0.5)


class TestRestrictedTail:
    def test_partition_of_full_tail(self):
        # restricted + interval contribution must rebuild the full tail
        a, tau, s, Ld, C = A_REF, 0.1, 0.5, 1e6, 2.0
        full, _ = scales.gaussian_sum_tail(a, tau, s, Ld)
        restricted = scales.restricted_sum_tail(a, tau, s, Ld, C)
        lo, hi = scales.interval_ILC(a, tau, C)
        level = a * math.sqrt(1 + tau * tau) + s / a

        def integrand(x):
            dens = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
            return dens * float(scales.normal_sf((level - x) / tau))

        inside, _ = integrate.quad(integrand, lo, hi, limit=200)
        assert restricted + Ld * inside == pytest.approx(full, rel=1e-8)

    def test_degenerate_tau(self):
        a, s, Ld, C = A_REF, 0.0, 1e6, 2.0
        full, _ = scales.gaussian_sum_tail(a, 0.0, s, Ld)
        restricted = scales.restricted_sum_tail(a, 0.0, s, Ld, C)
        lo, hi = scales.interval_ILC(a, 0.0, C)
        level = a
        inside = float(scales.normal_sf(max(level, lo))) - float(
            scales.normal_sf(hi)
        )
        assert restricted + Ld * max(inside, 0.0) == pytest.approx(full, rel=1e-10)

    def test_restricted_below_full(self):
        full, _ = scales.gaussian_sum_tail(A_REF, 0.05, 1.0, 1e6)
        restricted = scales.restricted_sum_tail(A_REF, 0.05, 1.0, 1e6, 3.0)
        assert 0.0 <= restricted <= full

    def test_quadrature_error_type_exists(self):
        assert issubclass(QuadratureError, Exception)


class TestSuggestWindows:
    def test_large_box(self):
        assert scales.suggest_windows(4.75, 1.0, 4096) == (1023, 5)

    def test_small_box(self):
        assert scales.suggest_windows(5.0, 2.0, 64) == (15, 7)

    def test_too_small(self):
        with pytest.raises(ValueError):
            scales.suggest_windows(5.0, 2.0, 16)

    def test_window_ordering(self):
        for L in (64, 128, 1024, 4096):
            R, r = scales.suggest_windows(4.0, 1.0, L)
            assert r < R <= L / 4
            assert r % 2 == 1 and R % 2 == 1


class TestScaleSet:
    def make(self):
        return scales.ScaleSet(L=83, d=1, a_L=6.0, tau_L=0.07, R_L=41, r_L=9, d_L=2.0)

    def test_json_field_names(self):
        # the manifest's "scales": these keys, in this order, these values
        assert self.make().to_json() == (
            '{"L": 83, "d": 1, "a_L": 6.0, "tau_L": 0.07, "a_Xi": 6.014682036483725, '
            '"theta": 3, "kappa": 0.25, "theta_L": 0.2193456688254154, "R_L": 41, '
            '"r_L": 9, "d_L": 2.0}'
        )

    def test_aXi_consistency(self):
        ss = self.make()
        assert ss.a_Xi == pytest.approx(6.0 * math.sqrt(1 + 0.07**2), rel=1e-14)

    def test_window_ordering_invariant(self):
        with pytest.raises(ValueError, match="window ordering"):
            scales.ScaleSet(L=83, d=1, a_L=6.0, tau_L=0.0, R_L=9, r_L=41, d_L=2.0)

    def test_rejects_dL_ge_aL(self):
        with pytest.raises(ValueError, match="requires d_L < a_L"):
            scales.ScaleSet(L=83, d=1, a_L=2.0, tau_L=0.0, R_L=41, r_L=9, d_L=2.0)

    def test_theta_L_formula(self):
        ss = self.make()
        expected = (6.0 / 2.0) ** 0.25 * max(1 / 6.0, 6.0 * 0.07**2)
        assert ss.theta_L == pytest.approx(expected, rel=1e-12)
