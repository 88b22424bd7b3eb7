"""Unit system and physical constants.

Everything internal runs in Lorentz-Heaviside natural units with
c = hbar = 1, so that e^2 = 4*pi*alpha for an electron and the charge is
dimensionless.  The reference length is the meter: masses are stored as
inverse lengths (m -> m*c/hbar), times as light-travel lengths
(t -> c*t).  SI values appear only at the input/output boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import finite

__all__ = [
    "ALPHA",
    "BOLTZMANN_SI",
    "HBAR_SI",
    "C_SI",
    "ELECTRON_MASS_SI",
    "ParticleSpec",
    "constants_table",
    "electron_preset",
    "unit_preset",
    "time_si_to_natural",
    "velocity_sq_natural_to_si",
    "natural_to_si_temperature",
]

# CODATA 2018 recommended values.
ALPHA = 7.2973525693e-3          # fine-structure constant
BOLTZMANN_SI = 1.380649e-23      # J / K (exact)
HBAR_SI = 1.054571817e-34        # J s
C_SI = 299792458.0               # m / s (exact)
ELECTRON_MASS_SI = 9.1093837015e-31  # kg


def constants_table() -> dict[str, dict[str, object]]:
    """The CODATA constants above, each SI value with its unit."""
    return {
        "alpha": {"value": ALPHA, "unit": "dimensionless"},
        "boltzmann": {"value": BOLTZMANN_SI, "unit": "J/K"},
        "hbar": {"value": HBAR_SI, "unit": "J*s"},
        "c": {"value": C_SI, "unit": "m/s"},
        "electron_mass": {"value": ELECTRON_MASS_SI, "unit": "kg"},
    }


@dataclass(frozen=True)
class ParticleSpec:
    """Charge and mass of the test particle in natural units.

    ``e`` is the Lorentz-Heaviside charge (dimensionless), ``m`` the mass
    as an inverse length (1/m).  ``name`` is a label carried into reports.
    """

    e: float
    m: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e) and math.isfinite(self.m)):
            raise ValueError("particle charge and mass must be finite")
        if not (self.m > 0.0):
            raise ValueError("particle mass must be positive")
        if self.e == 0.0:
            raise ValueError("particle charge must be nonzero")
        # Every formula carries e^2 and m^2; neither may leave the float range.
        if not (0.0 < self.e * self.e < math.inf and 0.0 < self.m * self.m < math.inf):
            raise ValueError("particle charge and mass squared must stay within the float range")

    @property
    def alpha_eff(self) -> float:
        """e^2 / 4pi, the fine-structure analogue for this charge."""
        return self.e * self.e / (4.0 * math.pi)


def electron_preset() -> ParticleSpec:
    """Electron in natural units with the meter as reference length.

    Charge from e^2 = 4*pi*alpha; mass is the inverse reduced Compton
    wavelength m_e c / hbar, about 2.59e12 per meter.
    """
    e = math.sqrt(4.0 * math.pi * ALPHA)
    m = ELECTRON_MASS_SI * C_SI / HBAR_SI
    return ParticleSpec(e=e, m=m, name="electron")


def unit_preset() -> ParticleSpec:
    """Dimensionless e = m = 1 particle, convenient for unit-free checks."""
    return ParticleSpec(e=1.0, m=1.0, name="unit")


# --- conversions ----------------------------------------------------------
#
# Lengths need none: the meter is the natural length unit.

def time_si_to_natural(t_s: float) -> float:
    """Seconds to light-travel meters (multiply by c)."""
    return t_s * C_SI


@finite
def velocity_sq_natural_to_si(v2_nat: float) -> float:
    """Squared velocity in units of c^2 to (m/s)^2."""
    return v2_nat * C_SI * C_SI


def natural_to_si_temperature(t_nat: float) -> float:
    """Natural temperature (inverse length, k_B T as energy) to kelvin.

    An energy 1/L in natural units is hbar*c/L in joules; dividing by k_B
    gives kelvin.
    """
    if not math.isfinite(t_nat):
        raise ValueError("temperature must be finite")
    return t_nat * HBAR_SI * C_SI / BOLTZMANN_SI
