"""Library refusals: a value outside the float range, and each invalid input."""

from __future__ import annotations

import math

import pytest

from vacbrownian import correlators, oracle
from vacbrownian.correlators import corr_normal, corr_transverse, mean_e_squared
from vacbrownian.dispersion import EvalPoint, pos_disp_normal, vel_disp_normal, vel_disp_transverse
from vacbrownian.regimes import (
    PacketSpec,
    effective_temperature_natural,
    fluctuation_to_quantum_ratio,
    larmor_power,
    minimum_packet_width,
    optimal_initial_width,
    packet_width,
    radiated_velocity_sq,
    radiation_time_limit,
    validity_time_limit,
)
from vacbrownian.units_constants import (
    ParticleSpec,
    electron_preset,
    unit_preset,
    velocity_sq_natural_to_si,
)

PACKET = PacketSpec(dz0=1.0, dpz=1.0)


# (function, arguments) whose value leaves the float range
OUT_OF_RANGE = [
    (corr_transverse, (0.0, 1e-100)),  # (dt^2 - 4z^2)^3 underflows to zero
    (corr_transverse, (1e200, 1.0)),  # inf / inf
    (mean_e_squared, (1e-100,)),  # z**4 underflows to zero
    (effective_temperature_natural, (electron_preset(), 1e-170)),
    (fluctuation_to_quantum_ratio, ("x", ParticleSpec(1.0, 1e-150), 1e-201, 1e-200)),
    (radiated_velocity_sq, (ParticleSpec(1e100, 1.0), 1.0, 1.0)),  # e**4 overflows
    (larmor_power, (ParticleSpec(1e100, 1.0), 1.0)),
    (velocity_sq_natural_to_si, (1e300,)),  # inf
]

# (function, arguments) whose value cannot vanish but is formed as 0.0, from
# an overflowing denominator or an underflow; the true value is in each comment
ROUNDS_TO_ZERO = [
    (corr_transverse, (1e60, 1.0)),  # -1.0132e-241: (dt^2 - 4z^2)^3 overflows
    (corr_normal, (1.5e77, 1.0)),  # 2.0e-310: (dt^2 - 4z^2)^2 overflows
    (mean_e_squared, (5e76,)),  # 3.04e-309: 16 pi^2 z^4 overflows
    (larmor_power, (unit_preset(), 5e76)),  # 1.61e-310, through mean_e_squared
    # 2.02e-283: z^4 m^3 overflows
    (radiated_velocity_sq, (ParticleSpec(unit_preset().e, 1e100), 1e70, 1e300)),
    (optimal_initial_width, (1e200, 1e-200)),  # 7.07e-201: t / 2m underflows
    (minimum_packet_width, (1e200, 1e-200)),  # 1e-200
    # 1.22e-156: 3 pi t m overflows
    (fluctuation_to_quantum_ratio, ("x", ParticleSpec(electron_preset().e, 1e102), 1.0, 1e210)),
    # 2.533e-22: 4 pi^2 m z z overflows
    (effective_temperature_natural, (ParticleSpec(1e150, 1.0), 1e160)),
    # below the lightcone, where no closed form vanishes
    (vel_disp_transverse, (EvalPoint(1e-320, 1e-150, unit_preset()),)),  # 6.3e-43: x^2 underflows
    (vel_disp_normal, (EvalPoint(1e-320, 1e-150, unit_preset()),)),  # 6.3e-43, the same way
    (pos_disp_normal, (EvalPoint(1e-320, 1e308),)),  # 2.2e-2541: t/z underflows to 0
]


@pytest.mark.parametrize("function, args", OUT_OF_RANGE + ROUNDS_TO_ZERO,
                         ids=[function.__name__ for function, _ in OUT_OF_RANGE]
                         + [f"{function.__name__}-zero" for function, _ in ROUNDS_TO_ZERO])
def test_value_outside_float_range_refused(function, args):
    with pytest.raises(ValueError, match="value leaves the float range"):
        function(*args)


# (function, arguments, part of its refusal message) for each input check
INVALID = [
    (PacketSpec, (0.0, 1.0), "packet widths must be positive"),
    (PacketSpec, (1.0, 0.1), "uncertainty product"),
    (validity_time_limit, (unit_preset(), 0.0), "z must be positive"),
    (radiation_time_limit, (unit_preset(), -1.0), "z must be positive"),
    (radiated_velocity_sq, (unit_preset(), 1.0, 0.0), "t and z must be positive"),
    (packet_width, (PACKET, 1.0, -1.0), "t must be nonnegative"),
    (packet_width, (PACKET, 0.0, 1.0), "mass must be positive"),
    (optimal_initial_width, (0.0, 1.0), "t and m must be positive"),
    (minimum_packet_width, (1.0, 0.0), "t and m must be positive"),
    (fluctuation_to_quantum_ratio, ("y", unit_preset(), 1.0, 3.0), "component"),
    (fluctuation_to_quantum_ratio, ("z", unit_preset(), 0.0, 3.0), "t and z must be positive"),
    (fluctuation_to_quantum_ratio, ("x", unit_preset(), 1.0, 2.0), "needs t > 2z"),
    (effective_temperature_natural, (unit_preset(), math.nan), "z must be positive"),
    (correlators._check_z, (0.0,), "z > 0"),
    (oracle.direct_time_integral, (math.cos, 1.0, "speed"), "kind must be"),
]


@pytest.mark.parametrize("function, args, message", INVALID,
                         ids=[function.__name__ for function, _, _ in INVALID])
def test_invalid_input_refused(function, args, message):
    with pytest.raises(ValueError, match=message):
        function(*args)
