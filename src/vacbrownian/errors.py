"""Exception types and the float-range refusal shared across the package."""

from __future__ import annotations

import functools
import math
from typing import Callable

__all__ = [
    "VacBrownianError",
    "LightconeSingularityError",
    "QuadratureConvergenceError",
    "ExtrapolationError",
]


class VacBrownianError(Exception):
    """Base class for all package-specific errors."""


class LightconeSingularityError(VacBrownianError):
    """Evaluation requested inside the exclusion window around |dt| = 2z.

    The boundary kernels diverge at the round-trip light travel time; the
    closed forms inherit that divergence at t = 2z.  Rather than return a
    huge float, evaluators refuse and report how far the point sits from
    the pole.
    """

    def __init__(self, message: str, pole_distance: float) -> None:
        super().__init__(message)
        self.pole_distance = pole_distance


class QuadratureConvergenceError(VacBrownianError):
    """Adaptive quadrature failed to meet its tolerance within budget."""

    def __init__(self, message: str, achieved: float) -> None:
        super().__init__(message)
        self.achieved = achieved


class ExtrapolationError(VacBrownianError):
    """An oracle value whose error estimate is not below its magnitude."""


def finite(function: Callable[..., float]) -> Callable[..., float]:
    """``function``, returning a finite float or raising ValueError("value leaves the float range").

    A ZeroDivisionError (a / by an underflowed zero) or OverflowError (a
    float **) met while forming the value is the same refusal.
    """
    @functools.wraps(function)
    def checked(*args, **kwargs):
        try:
            value = function(*args, **kwargs)
        except (ZeroDivisionError, OverflowError):
            raise ValueError("value leaves the float range") from None
        if math.isfinite(value):
            return value
        raise ValueError("value leaves the float range")
    return checked
