"""Brownian motion of a charge near a perfectly reflecting plane.

Electromagnetic vacuum fluctuations, modified by a flat ideal mirror,
give a nearby charged particle nonzero velocity and position
dispersions.  This package evaluates the closed forms for those
dispersions, cross-checks every one against an independent regularized
quadrature oracle, and reports the regime bounds (validity horizon,
radiation backreaction, quantum packet spreading, effective
temperature) that frame where the weak-coupling picture applies.

Conventions: Lorentz-Heaviside units with c = hbar = 1; the reference
length is the meter, so masses and temperatures carry unit 1/m and
times are light-travel distances.

Only the oracle needs scipy, so `vacbrownian.oracle` and its names load on
first use: `import vacbrownian` and the closed forms stay scipy-free.
"""

from __future__ import annotations

import importlib

from .correlators import (
    RegulatorSpec,
    corr_normal,
    corr_normal_reg,
    corr_transverse,
    corr_transverse_reg,
    mean_e_squared,
)
from .dispersion import (
    EvalPoint,
    DispersionResult,
    pos_disp_normal,
    pos_disp_normal_asym,
    pos_disp_transverse,
    pos_disp_transverse_asym,
    small_t_series,
    vel_disp_normal,
    vel_disp_normal_asym,
    vel_disp_transverse,
    vel_disp_transverse_asym,
)
from .errors import (
    ExtrapolationError,
    LightconeSingularityError,
    QuadratureConvergenceError,
    VacBrownianError,
)
from .regimes import (
    PacketSpec,
    RegimeReport,
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
from .units_constants import (
    ConstantsTable,
    ParticleSpec,
    constants_table,
    electron_preset,
    unit_preset,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantsTable",
    "DispersionResult",
    "EvalPoint",
    "ExtrapolationError",
    "LightconeSingularityError",
    "OracleResult",
    "PacketSpec",
    "ParticleSpec",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "RegimeReport",
    "RegulatorSpec",
    "VacBrownianError",
    "VerifyRow",
    "__version__",
    "constants_table",
    "corr_normal",
    "corr_normal_reg",
    "corr_transverse",
    "corr_transverse_reg",
    "dispersion_oracle",
    "effective_temperature",
    "effective_temperature_natural",
    "electron_preset",
    "extrapolate_ladder",
    "fluctuation_to_quantum_ratio",
    "larmor_power",
    "mean_e_squared",
    "minimum_packet_width",
    "optimal_initial_width",
    "packet_width",
    "pos_disp_normal",
    "pos_disp_normal_asym",
    "pos_disp_transverse",
    "pos_disp_transverse_asym",
    "position_oracle",
    "radiated_velocity_sq",
    "radiation_time_limit",
    "regime_report",
    "small_t_series",
    "unit_preset",
    "validity_time_limit",
    "vel_disp_normal",
    "vel_disp_normal_asym",
    "vel_disp_transverse",
    "vel_disp_transverse_asym",
    "velocity_oracle",
    "verify_grid",
]

# Names re-exported from `oracle`, resolved by `__getattr__` on first use.
_ORACLE_NAMES = frozenset({
    "OracleResult",
    "QuadratureSpec",
    "VerifyRow",
    "dispersion_oracle",
    "extrapolate_ladder",
    "position_oracle",
    "velocity_oracle",
    "verify_grid",
})


def __getattr__(name: str) -> object:
    """Import the scipy-backed `oracle` submodule when one of its names is asked for."""
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | {"oracle"})
