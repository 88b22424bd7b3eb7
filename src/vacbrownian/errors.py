"""Exception types, the float-range refusal and the immutable record base of the package."""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

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


def _range_checked(function: Callable[..., float],
                   in_range: Callable[[float], bool]) -> Callable[..., float]:
    @functools.wraps(function)
    def checked(*args, **kwargs):
        try:
            value = function(*args, **kwargs)
        except (ZeroDivisionError, OverflowError):
            raise ValueError("value leaves the float range") from None
        if in_range(value):
            return value
        raise ValueError("value leaves the float range")
    return checked


def finite(function: Callable[..., float]) -> Callable[..., float]:
    """``function``, returning a finite float or raising ValueError("value leaves the float range").

    A ZeroDivisionError (a / by an underflowed zero) or OverflowError (a
    float **) met while forming the value is the same refusal.
    """
    return _range_checked(function, math.isfinite)


def finite_nonzero(function: Callable[..., float]) -> Callable[..., float]:
    """``finite``, refusing a zero as well, for a value that cannot vanish.

    Such a value comes out 0.0 only when a denominator overflowed or the
    value itself underflowed: it has left the float range too.
    """
    return _range_checked(function, lambda value: value != 0.0 and math.isfinite(value))


# A record's __init__ stores each field with this, past the record's refusing __setattr__.
set_field = object.__setattr__


class FrozenRecord:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``, in constructor order, and
    writes its own ``__init__``, which checks its arguments and stores them
    with `set_field`.  A slot whose name starts with "_" is no field: it
    holds a cache outside the record's value.  Equality (against the same
    class only), hash, repr and pickling go by the fields, as a frozen
    dataclass's do; assigning or deleting any attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple]:
        return self.__class__, self._values()
