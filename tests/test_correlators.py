"""Boundary-renormalized field correlators and their regularized variants."""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st
from conftest import assert_allclose

from vacbrownian.correlators import (
    DEFAULT_LIGHTCONE_DELTA,
    RegulatorSpec,
    corr_normal,
    corr_normal_reg,
    corr_transverse,
    corr_transverse_reg,
    mean_e_squared,
    near_lightcone,
    normal_kernel_complex,
    transverse_kernel_complex,
)
from vacbrownian.dispersion import EvalPoint, pos_disp_transverse, vel_disp_normal
from vacbrownian.errors import LightconeSingularityError

PI_SQ = math.pi ** 2


class TestClosedFormValues:
    # Hand-reduced rational values at simple (dt, z) points.

    def test_coincidence_transverse(self):
        assert_allclose(corr_transverse(0.0, 1.0), 1.0 / (16.0 * PI_SQ), rtol=1e-15)

    def test_coincidence_normal(self):
        assert_allclose(corr_normal(0.0, 1.0), 1.0 / (16.0 * PI_SQ), rtol=1e-15)

    def test_unit_separation_transverse(self):
        # -(1 + 4) / (1 - 4)^3 = 5/27
        assert_allclose(corr_transverse(1.0, 1.0), 5.0 / (27.0 * PI_SQ), rtol=1e-15)

    def test_unit_separation_normal(self):
        # 1 / (1 - 4)^2 = 1/9
        assert_allclose(corr_normal(1.0, 1.0), 1.0 / (9.0 * PI_SQ), rtol=1e-15)

    def test_mean_e_squared(self):
        assert_allclose(mean_e_squared(1.0), 3.0 / (16.0 * PI_SQ), rtol=1e-15)
        assert_allclose(mean_e_squared(2.0), 3.0 / (256.0 * PI_SQ), rtol=1e-15)


class TestIdentitiesAndScaling:
    @given(st.floats(min_value=1e-8, max_value=1e6))
    def test_coincidence_identity(self, z):
        # two transverse components plus the normal one sum to <E^2>
        total = 2.0 * corr_transverse(0.0, z) + corr_normal(0.0, z)
        assert_allclose(total, mean_e_squared(z), rtol=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=10.0).filter(lambda u: abs(u - 2.0) > 0.1),
        st.floats(min_value=1e-6, max_value=1e4),
    )
    def test_z4_scaling(self, u, z):
        # corr(z u, z) = corr(u, 1) / z^4 for both components
        assert_allclose(corr_transverse(z * u, z),
                        corr_transverse(u, 1.0) / z ** 4, rtol=1e-12)
        assert_allclose(corr_normal(z * u, z),
                        corr_normal(u, 1.0) / z ** 4, rtol=1e-12)

    @given(st.floats(min_value=0.0, max_value=10.0).filter(lambda u: abs(u - 2.0) > 0.1))
    def test_even_in_dt(self, u):
        assert corr_transverse(-u, 1.0) == corr_transverse(u, 1.0)
        assert corr_normal(-u, 1.0) == corr_normal(u, 1.0)

    def test_signs(self):
        # transverse flips sign across the lightcone, normal never does
        assert corr_transverse(1.9, 1.0) > 0.0
        assert corr_transverse(2.1, 1.0) < 0.0
        assert corr_normal(1.9, 1.0) > 0.0
        assert corr_normal(2.1, 1.0) > 0.0


class TestSingularityWindow:
    def test_pole_raises(self):
        with pytest.raises(LightconeSingularityError):
            corr_transverse(2.0, 1.0)
        with pytest.raises(LightconeSingularityError):
            corr_normal(2.0, 1.0)

    def test_pole_distance_attribute(self):
        with pytest.raises(LightconeSingularityError) as info:
            corr_transverse(2.0, 1.0)
        assert info.value.pole_distance == 0.0

    def test_refusal_message(self):
        with pytest.raises(LightconeSingularityError) as info:
            corr_normal(-2.0, 1.0)
        assert str(info.value) == ("time separation dt=-2.0 lies within the lightcone exclusion "
                                   "window around |dt| = 2z (z=1.0)")

    def test_pole_distance_finite_where_2z_overflows(self):
        # 2z is inf here; the distance, 7.19e301, is not
        dt, z = 1.7976931348623157e308, 8.988469269697847e307
        point = EvalPoint(t=dt, z=z)
        for evaluate in (lambda: corr_transverse(dt, z), lambda: corr_normal(-dt, z),
                         lambda: vel_disp_normal(point), lambda: pos_disp_transverse(point)):
            with pytest.raises(LightconeSingularityError) as info:
                evaluate()
            assert Fraction(info.value.pole_distance) == 2 * Fraction(z) - Fraction(dt)

    @given(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
           st.floats(min_value=-4.9e-7, max_value=4.9e-7))
    @example(dt=3 * 5e-324, offset=0.0)  # subnormal, with an odd last bit
    @example(dt=2.0 ** -1022 + 5e-324, offset=0.0)  # the lowest normal binade, odd last bit
    @example(dt=1.7976931348623157e308, offset=4.8e-7)  # 2z overflows
    def test_pole_distance_is_exact(self, dt, offset):
        # in the window, ||dt| - 2z| is a double, also where halving dt
        # rounds (subnormal or odd in the lowest normal binade)
        z = 0.5 * dt * (1.0 + offset)
        assume(z > 0.0 and near_lightcone(dt, z))  # rounding of a tiny z may leave it
        exact = abs(Fraction(dt) - 2 * Fraction(z))
        for evaluate in (lambda: corr_transverse(-dt, z), lambda: vel_disp_normal(EvalPoint(dt, z))):
            with pytest.raises(LightconeSingularityError) as info:
                evaluate()
            assert Fraction(info.value.pole_distance) == exact

    def test_window_is_relative(self):
        z = 1e-6
        inside = 2.0 * z * (1.0 + 0.1 * DEFAULT_LIGHTCONE_DELTA)
        outside = 2.0 * z * (1.0 + 10.0 * DEFAULT_LIGHTCONE_DELTA)
        for dt in (inside, -inside):
            with pytest.raises(LightconeSingularityError):
                corr_transverse(dt, z)
        corr_transverse(outside, z)  # does not raise

    @pytest.mark.parametrize("refused, accepted", [(2.0000009999999997, 2.000001),
                                                   (1.999999, 1.9999989999999999)],
                             ids=["above", "below"])
    def test_window_edge_to_the_ulp(self, refused, accepted):
        # at z = 1, on each side of 2z, the last dt refused and the first one
        # accepted, one ulp apart: a window wider by a part in 1e9 refuses both
        assert math.nextafter(refused, accepted) == accepted
        for dt in (refused, -refused):
            with pytest.raises(LightconeSingularityError):
                corr_normal(dt, 1.0)
            corr_normal(math.copysign(accepted, dt), 1.0)  # does not raise
        assert EvalPoint(t=refused, z=1.0).near_lightcone
        assert not EvalPoint(t=accepted, z=1.0).near_lightcone

    @pytest.mark.parametrize("offset, inside", [
        (-1.5e-6, False), (-0.5e-6, True), (0.5e-6, True), (1.5e-6, False)])
    def test_window_is_the_dispersions(self, offset, inside):
        # at t/z = 2 + offset the correlators refuse exactly where the closed forms do
        z = 3.7
        point = EvalPoint(t=(2.0 + offset) * z, z=z)
        assert point.near_lightcone == inside
        for evaluate in (lambda: corr_normal(point.t, z), lambda: vel_disp_normal(point)):
            with pytest.raises(LightconeSingularityError) if inside else contextlib.nullcontext():
                evaluate()


class TestRegularizedKernels:
    def test_finite_on_the_lightcone(self):
        xx = corr_transverse_reg(2.0, 1.0, 1e-3)
        zz = corr_normal_reg(2.0, 1.0, 1e-3)
        assert math.isfinite(xx)
        assert math.isfinite(zz)

    def test_converges_to_plain_away_from_pole(self):
        for dt in (0.7, 3.1):
            assert_allclose(corr_transverse_reg(dt, 1.0, 1e-8),
                            corr_transverse(dt, 1.0), rtol=1e-6)
            assert_allclose(corr_normal_reg(dt, 1.0, 1e-8),
                            corr_normal(dt, 1.0), rtol=1e-6)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            corr_transverse_reg(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            corr_normal_reg(1.0, 1.0, -1e-3)

    def test_matches_complex_kernel_real_part(self):
        dt, z, eps = 2.3, 1.0, 1e-4
        assert corr_transverse_reg(dt, z, eps) == \
            transverse_kernel_complex(complex(dt, -eps), z).real
        assert corr_normal_reg(dt, z, eps) == \
            normal_kernel_complex(complex(dt, -eps), z).real

    def test_complex_kernel_on_real_axis(self):
        for dt in (0.5, 2.9):
            assert_allclose(transverse_kernel_complex(complex(dt, 0.0), 1.0).real,
                            corr_transverse(dt, 1.0), rtol=1e-14)
            assert_allclose(normal_kernel_complex(complex(dt, 0.0), 1.0).real,
                            corr_normal(dt, 1.0), rtol=1e-14)


class TestSpecs:
    def test_regulator_ladder(self):
        reg = RegulatorSpec(eps0=1e-2)
        assert reg.ladder == (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4, 3.125e-4)

    def test_regulator_validation(self):
        with pytest.raises(ValueError):
            RegulatorSpec(eps0=0.0)
