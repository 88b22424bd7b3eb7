"""Brownian motion of a charge near a perfectly reflecting plane.

Electromagnetic vacuum fluctuations, modified by a flat ideal mirror,
give a nearby charged particle nonzero velocity and position
dispersions.  This package evaluates the closed forms for those
dispersions, cross-checks every one against an independent contour
quadrature oracle, and reports the regime bounds (validity horizon,
radiation backreaction, quantum packet spreading, effective
temperature) that frame where the weak-coupling picture applies.

Conventions: Lorentz-Heaviside units with c = hbar = 1; the reference
length is the meter, so masses and temperatures carry unit 1/m and
times are light-travel distances.

`import vacbrownian` loads every submodule, the oracle included, and only
the standard library, which is all that any of them ever needs.
"""

from __future__ import annotations

from . import correlators, dispersion, errors, oracle, regimes, units_constants
from .correlators import *
from .dispersion import *
from .errors import *
from .oracle import OracleResult, VerifyRow, dispersion_oracle, verify_grid
from .regimes import *
from .units_constants import *

__version__ = "0.1.0"

__all__ = [
    *correlators.__all__,
    *dispersion.__all__,
    *errors.__all__,
    *regimes.__all__,
    *units_constants.__all__,
    "OracleResult",
    "VerifyRow",
    "dispersion_oracle",
    "verify_grid",
    "__version__",
]
