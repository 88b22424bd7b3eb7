"""Exception types shared across the package."""

from __future__ import annotations

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
