"""Constants table, particle presets, and unit conversions."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st
from conftest import assert_allclose

from vacbrownian.units_constants import (
    ALPHA,
    BOLTZMANN_SI,
    C_SI,
    ELECTRON_MASS_SI,
    HBAR_SI,
    ParticleSpec,
    constants_table,
    electron_preset,
    natural_to_si_temperature,
    time_si_to_natural,
    unit_preset,
    velocity_sq_natural_to_si,
)


class TestConstantsTable:
    def test_codata_values(self):
        table = {name: cell["value"] for name, cell in constants_table().items()}
        assert table["alpha"] == 7.2973525693e-3
        assert table["boltzmann"] == 1.380649e-23
        assert table["hbar"] == 1.054571817e-34
        assert table["c"] == 299792458.0
        assert table["electron_mass"] == 9.1093837015e-31

    def test_as_dict_tags_every_value(self):
        payload = constants_table()
        for name, cell in payload.items():
            assert set(cell) == {"value", "unit"}, name
            assert isinstance(cell["value"], float)
            assert isinstance(cell["unit"], str)


class TestPresets:
    def test_electron_charge_is_sqrt_4_pi_alpha(self):
        electron = electron_preset()
        assert_allclose(electron.e, math.sqrt(4.0 * math.pi * ALPHA), rtol=1e-15)
        assert_allclose(electron.e ** 2 / (4.0 * math.pi), ALPHA, rtol=1e-15)

    def test_electron_mass_is_inverse_compton_length(self):
        # m c / hbar, in 1/m; frozen from the CODATA arithmetic above
        electron = electron_preset()
        assert_allclose(electron.m, ELECTRON_MASS_SI * C_SI / HBAR_SI, rtol=1e-15)
        assert_allclose(electron.m, 2.589605076406e12, rtol=1e-10)

    def test_alpha_eff_property(self):
        assert_allclose(electron_preset().alpha_eff, ALPHA, rtol=1e-15)
        assert_allclose(unit_preset().alpha_eff, 1.0 / (4.0 * math.pi), rtol=1e-15)

    def test_unit_preset(self):
        unit = unit_preset()
        assert unit.e == 1.0
        assert unit.m == 1.0

    def test_particle_validation(self):
        with pytest.raises(ValueError):
            ParticleSpec(e=1.0, m=0.0)
        with pytest.raises(ValueError):
            ParticleSpec(e=1.0, m=-2.0)
        with pytest.raises(ValueError):
            ParticleSpec(e=0.0, m=1.0)

    @pytest.mark.parametrize("e, m", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan),
    ])
    def test_particle_rejects_non_finite(self, e, m):
        with pytest.raises(ValueError, match="finite"):
            ParticleSpec(e=e, m=m)

    @pytest.mark.parametrize("e, m", [
        (1e-300, 1.0), (1e300, 1.0), (1.0, 1e-300), (1.0, 1e300),
    ])
    def test_particle_rejects_squares_outside_float_range(self, e, m):
        with pytest.raises(ValueError, match="squared"):
            ParticleSpec(e=e, m=m)


class TestConversions:
    def test_time_multiplies_by_c(self):
        assert_allclose(time_si_to_natural(1.0), C_SI, rtol=1e-15)

    def test_velocity_sq_scales_by_c_squared(self):
        assert_allclose(velocity_sq_natural_to_si(1.0), C_SI ** 2, rtol=1e-15)

    def test_temperature_scale(self):
        # 1/m of inverse length corresponds to hbar c / k_B kelvin
        expected = HBAR_SI * C_SI / BOLTZMANN_SI
        assert_allclose(natural_to_si_temperature(1.0), expected, rtol=1e-15)

    def test_temperature_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            natural_to_si_temperature(math.inf)
        with pytest.raises(ValueError):
            natural_to_si_temperature(math.nan)

    # Each conversion, undone by dividing out its documented factor.
    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_time_roundtrip(self, t_s):
        assert_allclose(time_si_to_natural(t_s) / C_SI, t_s, rtol=1e-12)

    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_velocity_sq_roundtrip(self, v2):
        assert_allclose(velocity_sq_natural_to_si(v2) / (C_SI * C_SI), v2, rtol=1e-12)

    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_temperature_roundtrip(self, t_nat):
        assert_allclose(natural_to_si_temperature(t_nat) * BOLTZMANN_SI / (HBAR_SI * C_SI),
                        t_nat, rtol=1e-12)
