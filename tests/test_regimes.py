"""Validity bounds, radiation backreaction, packet spreading, temperature."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st
from conftest import assert_allclose

from vacbrownian.dispersion import EvalPoint, pos_disp_normal, pos_disp_transverse
from vacbrownian.regimes import (
    DEFAULT_MARGIN,
    PacketSpec,
    effective_temperature,
    effective_temperature_natural,
    fluctuation_to_quantum_ratio,
    larmor_power,
    minimum_packet_width,
    optimal_initial_width,
    packet_width,
    radiated_velocity_sq,
    radiation_time_limit,
    regime_report,
    validity_time_limit,
)
from vacbrownian.units_constants import (
    ALPHA,
    ParticleSpec,
    electron_preset,
    natural_to_si_temperature,
    unit_preset,
)

UNIT = unit_preset()
ELECTRON = electron_preset()

positive = st.floats(min_value=1e-8, max_value=1e6)


class TestTimeLimits:
    def test_unit_particle_values(self):
        # e = m = z = 1: validity at 2 sqrt(2) pi, radiation at 4 pi
        assert_allclose(validity_time_limit(UNIT, 1.0),
                        2.0 * math.sqrt(2.0) * math.pi, rtol=1e-15)
        assert_allclose(radiation_time_limit(UNIT, 1.0), 4.0 * math.pi, rtol=1e-15)

    def test_electron_validity_scale(self):
        # micrometer distance: the bound sits near 7.6e7 z, not at z
        z = 1e-6
        assert_allclose(validity_time_limit(ELECTRON, z) / z, 7.598726392509e7,
                        rtol=1e-10)

    @given(positive, positive, positive)
    @settings(max_examples=50)
    def test_ratio_is_charge_only(self, e, m, z):
        # radiation/validity = sqrt(2)/e independent of m and z
        spec = ParticleSpec(e=e, m=m)
        ratio = radiation_time_limit(spec, z) / validity_time_limit(spec, z)
        assert_allclose(ratio, math.sqrt(2.0) / e, rtol=1e-12)

    @given(positive)
    @settings(max_examples=50)
    def test_z_squared_scaling(self, z):
        assert_allclose(validity_time_limit(UNIT, z),
                        validity_time_limit(UNIT, 1.0) * z * z, rtol=1e-12)


    @pytest.mark.parametrize("limit", [validity_time_limit, radiation_time_limit])
    @pytest.mark.parametrize("z", [0.0, -0.0])
    def test_zero_z_refused(self, limit, z):
        # a zero z would give a zero time bound
        with pytest.raises(ValueError, match="^z must be positive$"):
            limit(UNIT, z)


class TestRadiation:
    def test_unit_value(self):
        # e = m = z = t = 1 collapses to 1/(16 pi^3)
        assert_allclose(radiated_velocity_sq(UNIT, 1.0, 1.0),
                        1.0 / (16.0 * math.pi ** 3), rtol=1e-15)

    def test_larmor_unit_value(self):
        # P = e^4 <E^2> / (6 pi m^2) with <E^2> = 3/(16 pi^2 z^4)
        assert_allclose(larmor_power(UNIT, 1.0),
                        1.0 / (32.0 * math.pi ** 3), rtol=1e-15)

    @given(positive, positive)
    @settings(max_examples=50)
    def test_energy_balance_identity(self, z, t):
        # accumulated kick: Delta v^2 = 2 P t / m
        assert_allclose(radiated_velocity_sq(UNIT, z, t),
                        2.0 * larmor_power(UNIT, z) * t / UNIT.m, rtol=1e-12)

    def test_linear_in_time(self):
        assert_allclose(radiated_velocity_sq(UNIT, 1.0, 7.0),
                        7.0 * radiated_velocity_sq(UNIT, 1.0, 1.0), rtol=1e-14)


class TestPackets:
    def test_minimum_uncertainty_constructor(self):
        # dz0 * dpz rounds below 1/2 at dz0 = 49; the floor's tolerance accepts it
        assert 49.0 * (0.5 / 49.0) < 0.5
        packet = PacketSpec(dz0=49.0, dpz=0.5 / 49.0)
        assert (packet.dz0, packet.dpz) == (49.0, 0.5 / 49.0)

    def test_uncertainty_floor_enforced(self):
        PacketSpec(dz0=1.0, dpz=0.5)
        with pytest.raises(ValueError):
            PacketSpec(dz0=1.0, dpz=0.4)

    def test_uncertainty_floor_accepts_its_own_bound(self):
        # dz0 * dpz equal to the floor's 0.5 (1 - 1e-12) is accepted
        assert 1.0 * (0.5 * (1.0 - 1e-12)) == 0.5 * (1.0 - 1e-12)
        PacketSpec(dz0=1.0, dpz=0.5 * (1.0 - 1e-12))
        with pytest.raises(ValueError, match="uncertainty product"):
            PacketSpec(dz0=1.0, dpz=math.nextafter(0.5 * (1.0 - 1e-12), 0.0))

    @pytest.mark.parametrize("t, m", [(0.0, 1.0), (1.0, 0.0)])
    def test_minimum_width_refuses_zero_time_or_mass_as_such(self, t, m):
        # refused by its own check, before sqrt(t / m) is zero or divides by zero
        with pytest.raises(ValueError, match="^t and m must be positive$"):
            minimum_packet_width(m, t)

    def test_width_growth(self):
        packet = PacketSpec(dz0=1.0, dpz=0.5)
        m, t = 2.0, 8.0
        expected = math.hypot(1.0, 0.5 * 8.0 / 2.0)
        assert_allclose(packet_width(packet, m, t), expected, rtol=1e-15)

    def test_optimal_width_minimizes(self):
        m, t = 3.0, 5.0
        best = optimal_initial_width(m, t)
        assert_allclose(best, math.sqrt(t / (2.0 * m)), rtol=1e-15)
        floor = minimum_packet_width(m, t)
        assert_allclose(floor, math.sqrt(t / m), rtol=1e-15)
        width_at_best = packet_width(PacketSpec(dz0=best, dpz=0.5 / best), m, t)
        assert_allclose(width_at_best, floor, rtol=1e-12)
        for dz0 in (0.3 * best, 3.0 * best):
            packet = PacketSpec(dz0=dz0, dpz=0.5 / dz0)
            assert packet_width(packet, m, t) > floor


class TestEffectiveTemperature:
    def test_natural_formula(self):
        # k_B T = e^2 / (4 pi^2 m z^2) in natural units
        assert_allclose(effective_temperature_natural(UNIT, 1.0),
                        1.0 / (4.0 * math.pi ** 2), rtol=1e-15)

    def test_kelvin_composition(self):
        t_nat = effective_temperature_natural(ELECTRON, 1e-6)
        assert_allclose(effective_temperature(ELECTRON, 1e-6),
                        natural_to_si_temperature(t_nat), rtol=1e-15)

    def test_electron_micrometer_kelvin(self):
        # alpha hbar c / (pi m z^2 k_B); frozen from the CODATA arithmetic
        assert_allclose(effective_temperature(ELECTRON, 1e-6), 2.0539766407e-6,
                        rtol=1e-9)

    @given(positive)
    @settings(max_examples=50)
    def test_inverse_square_distance(self, z):
        assert_allclose(effective_temperature(ELECTRON, z) * z * z,
                        effective_temperature(ELECTRON, 1.0), rtol=1e-12)


class TestFluctuationRatios:
    def test_normal_component_coefficient(self):
        # ratio_z * z / sqrt(t/m) = sqrt(alpha_eff / 2 pi)
        z, t = 1e-8, 1e-6
        ratio = fluctuation_to_quantum_ratio("z", ELECTRON, z, t)
        coeff = ratio * z / math.sqrt(t / ELECTRON.m)
        assert_allclose(coeff, math.sqrt(ALPHA / (2.0 * math.pi)), rtol=1e-12)

    def test_transverse_needs_post_lightcone(self):
        with pytest.raises(ValueError):
            fluctuation_to_quantum_ratio("x", ELECTRON, 1.0, 1.0)

    def test_routes_agree_late(self):
        # sqrt(|closed form|) / sqrt(t/m) vs the asymptotic ratio, dominated by the same terms
        z = 1e-8
        t = 100.0 * z
        point = EvalPoint(t=t, z=z, particle=ELECTRON)
        for component, closed_form in (("x", pos_disp_transverse), ("z", pos_disp_normal)):
            asym = fluctuation_to_quantum_ratio(component, ELECTRON, z, t)
            full = math.sqrt(abs(closed_form(point).value)) / math.sqrt(t / ELECTRON.m)
            assert_allclose(full, asym, rtol=0.1)

    def test_route_validation(self):
        with pytest.raises(ValueError):
            fluctuation_to_quantum_ratio("y", ELECTRON, 1.0, 1.0)


class TestRegimeReport:
    def test_flags_inside_margins(self):
        report = regime_report(UNIT, 1.0, 0.1)
        assert report.validity_ok is True
        assert report.radiation_ok is True
        assert report.as_dict()["margin"] == {"value": DEFAULT_MARGIN, "unit": "dimensionless"}

    def test_flags_outside_margins(self):
        report = regime_report(UNIT, 1.0, 5.0)
        assert report.validity_ok is False
        # 5 < 0.1 * 4 pi is false as well
        assert report.radiation_ok is False

    def test_ratio_x_needs_post_lightcone(self):
        assert regime_report(UNIT, 1.0, 1.0).ratio_x is None
        assert regime_report(UNIT, 1.0, 3.0).ratio_x is not None

    def test_margin_override(self):
        # the flags hold t strictly below DEFAULT_MARGIN times each bound
        bound = DEFAULT_MARGIN * validity_time_limit(UNIT, 1.0)
        assert regime_report(UNIT, 1.0, math.nextafter(bound, 0.0)).validity_ok is True
        assert regime_report(UNIT, 1.0, bound).validity_ok is False

    def test_as_dict_tags_every_number(self):
        payload = regime_report(ELECTRON, 1e-6, 3e-6).as_dict()

        def walk(node):
            if isinstance(node, dict):
                if "value" in node:
                    assert "unit" in node
                    return
                for item in node.values():
                    walk(item)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                raise AssertionError(f"bare number {node!r} in report")

        walk(payload)

    def test_consistency_with_components(self):
        z, t = 1e-6, 3e-6
        report = regime_report(ELECTRON, z, t)
        assert_allclose(report.t_validity, validity_time_limit(ELECTRON, z),
                        rtol=1e-15)
        assert_allclose(report.t_radiation, radiation_time_limit(ELECTRON, z),
                        rtol=1e-15)
        assert_allclose(report.dv2_rad, radiated_velocity_sq(ELECTRON, z, t),
                        rtol=1e-15)
        assert_allclose(report.t_eff_kelvin, effective_temperature(ELECTRON, z),
                        rtol=1e-15)
