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

Only the oracle's integrals past the lightcone need numpy, and
`vacbrownian.oracle` and its names load on first use: `import vacbrownian`,
the closed forms and every oracle call before the lightcone use only the
standard library.
"""

from __future__ import annotations

import importlib

from . import correlators, dispersion, errors, regimes, units_constants
from .correlators import *
from .dispersion import *
from .errors import *
from .regimes import *
from .units_constants import *

__version__ = "0.1.0"

# Names re-exported from `oracle`, resolved by `__getattr__` on first use.
_ORACLE_NAMES = frozenset({
    "OracleResult",
    "VerifyRow",
    "dispersion_oracle",
    "verify_grid",
})

# Every eager submodule's public names, then the oracle's lazy ones.
__all__ = [
    *correlators.__all__,
    *dispersion.__all__,
    *errors.__all__,
    *regimes.__all__,
    *units_constants.__all__,
    *sorted(_ORACLE_NAMES),
    "__version__",
]


def __getattr__(name: str) -> object:
    """Import the `oracle` submodule when one of its names is asked for, and keep
    that name in the module globals, so later lookups skip this."""
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        globals()[name] = oracle if name == "oracle" else getattr(oracle, name)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | {"oracle"})
