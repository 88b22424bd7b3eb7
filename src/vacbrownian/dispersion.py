"""Closed-form velocity and position dispersions near a reflecting plane.

A static charge coupled to the vacuum field at t = 0 a distance z from a
perfect mirror acquires mean-squared velocity and position fluctuations.
Integrating the boundary kernels with the appropriate time weights gives
closed forms that depend on geometry only through x = t / 2z:

    <dv_x^2> = <dv_y^2> = A [ (x/16) L(x) + x^2 / (8 (1 - x^2)) ]
    <dv_z^2>            = A (x/8) L(x)
    <dx^2>   = <dy^2>   = B [ (x^3/12) L(x) - x^2/6 - (1/6) ln|1 - x^2| ]
    <dz^2>              = B [ x^2/6 + (x^3/6) L(x) + (1/6) ln|1 - x^2| ]

with A = e^2 / (pi^2 m^2 z^2), B = e^2 / (pi^2 m^2) and
L(x) = ln((1 + x)/|1 - x|).  All four are singular at x = 1 (t = 2z, the
round-trip light travel time); an exclusion window refuses evaluation near
that point.  Logarithms of quantities that change sign across x = 1 are
taken of absolute values, the unique reading that keeps the results real,
continuous in each branch, vanishing as t -> 0, and in agreement with the
quadrature oracle on both sides of the lightcone.

Small-x evaluation is organized to dodge cancellation: the position forms
group the x^2/6 term with the log into g(y) = y + ln(1 - y), summed as a
series when y is small, so direct evaluation stays accurate down to
arbitrarily small t.  Independent Taylor series for all four dispersions
are provided for cross-checks.  `QUANTITIES` holds each dispersion's kind,
component, bracket and series coefficients in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .errors import LightconeSingularityError
from .regimes import regime_flags
from .units_constants import ParticleSpec, electron_preset

__all__ = [
    "EvalPoint",
    "DispersionResult",
    "Quantity",
    "SeriesValue",
    "DEFAULT_LIGHTCONE_DELTA",
    "QUANTITIES",
    "QUANTITY_IDS",
    "vel_disp_transverse",
    "vel_disp_normal",
    "pos_disp_transverse",
    "pos_disp_normal",
    "vel_disp_transverse_asym",
    "vel_disp_normal_asym",
    "pos_disp_transverse_asym",
    "pos_disp_normal_asym",
    "small_t_series",
]

PI_SQ = math.pi * math.pi

# Relative half-width (in units of z) of the refusal window around t = 2z.
DEFAULT_LIGHTCONE_DELTA = 1e-6


@dataclass(frozen=True)
class EvalPoint:
    """One (t, z) evaluation point with its particle.

    ``t`` is the elapsed time since the coupling switched on, ``z`` the
    distance from the plane, both natural lengths.  ``lightcone_delta``
    sets the refusal window |t - 2z| < delta * z.
    """

    t: float
    z: float
    particle: ParticleSpec = field(default_factory=electron_preset)
    lightcone_delta: float = DEFAULT_LIGHTCONE_DELTA

    def __post_init__(self) -> None:
        if not math.isfinite(self.z):
            raise ValueError("z must be finite")
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if not (self.t > 0.0):
            raise ValueError("t must be positive")
        if not (self.z > 0.0):
            raise ValueError("z must be positive")
        if not math.isfinite(self.t / self.z):
            raise ValueError("t/z must be finite")
        if not (self.lightcone_delta > 0.0):
            raise ValueError("lightcone_delta must be positive")

    @property
    def t_over_z(self) -> float:
        return self.t / self.z

    @property
    def x(self) -> float:
        """Lightcone coordinate t / 2z; the pole sits at x = 1."""
        return self.t / (2.0 * self.z)

    @property
    def near_lightcone(self) -> bool:
        return abs(self.t - 2.0 * self.z) < self.lightcone_delta * self.z


@dataclass(frozen=True)
class DispersionResult:
    """A dispersion value with its regime flags.

    ``component`` "x" stands for either transverse direction (x and y are
    identical by symmetry); ``kind`` is "velocity" (units c^2) or
    "position" (units length^2).  ``near_lightcone`` is always False on a
    successfully evaluated result, since points inside the window refuse.
    """

    value: float
    component: str
    kind: str
    validity_ok: bool
    radiation_ok: bool
    near_lightcone: bool


# --- scaled closed forms in x = t/2z ---------------------------------------

def _log_ratio(x: float) -> float:
    """L(x) = ln((1 + x)/|1 - x|), via atanh to keep small-x accuracy."""
    if x < 1.0:
        return 2.0 * math.atanh(x)
    return 2.0 * math.atanh(1.0 / x)


def _g(y: float) -> float:
    """g(y) = y + ln(1 - y) for y < 1, accurate for small y.

    The two contributions cancel to O(y^2); for small y the series
    g(y) = -sum_{j>=2} y^j / j is summed instead.
    """
    if abs(y) < 0.5:
        total = 0.0
        power = y
        for j in range(2, 60):
            power *= y
            term = power / j
            total -= term
            if abs(term) < 1e-18 * (abs(total) + 1e-300):
                break
        return total
    return y + math.log1p(-y)


def _scaled_vel_transverse(x: float) -> float:
    return (x / 16.0) * _log_ratio(x) + x * x / (8.0 * (1.0 - x * x))


def _scaled_vel_normal(x: float) -> float:
    return (x / 8.0) * _log_ratio(x)


def _scaled_pos_transverse(x: float) -> float:
    lead = (x**3 / 12.0) * _log_ratio(x)
    if x < 1.0:
        return lead - _g(x * x) / 6.0
    return lead - x * x / 6.0 - math.log(x * x - 1.0) / 6.0


def _scaled_pos_normal(x: float) -> float:
    lead = (x**3 / 6.0) * _log_ratio(x)
    if x < 1.0:
        return lead + _g(x * x) / 6.0
    return lead + x * x / 6.0 + math.log(x * x - 1.0) / 6.0


# --- the quantity registry -----------------------------------------------------
#
# In x = t/2z every dispersion is an even power series starting at x^2
# (velocities) or x^4 (positions):
#
#   vel_x / A = sum_{k>=0} (k+1) x^(2k+2) / (4 (2k+1))
#   vel_z / A = sum_{k>=0}       x^(2k+2) / (4 (2k+1))
#   pos_x / B = sum_{k>=1} (1/6) (1/(2k-1) + 1/(k+1)) x^(2k+2)
#   pos_z / B = sum_{k>=1} (1/6) (2/(2k-1) - 1/(k+1)) x^(2k+2)
#
# obtained by expanding L(x) and ln(1 - x^2); both leading terms reproduce
# the coincidence-limit values of the kernels.


@dataclass(frozen=True)
class Quantity:
    """One of the four dispersions: every fact the package keeps about it.

    ``bracket`` is the scaled closed form in x = t/2z, ``series_coeff(k)``
    the Taylor coefficient of x^(2k+2) in that bracket.  The prefactor
    follows from ``kind``: A for "velocity", B for "position".
    """

    id: str
    kind: str
    component: str
    bracket: Callable[[float], float]
    series_coeff: Callable[[int], float]

    def prefactor(self, p: EvalPoint) -> float:
        """A = e^2/(pi^2 m^2 z^2) or B = e^2/(pi^2 m^2); refuses a value outside the float range."""
        s = p.particle
        if self.kind == "velocity":
            denominator = PI_SQ * s.m * s.m * p.z * p.z
        else:
            denominator = PI_SQ * s.m * s.m
        value = s.e * s.e / denominator if denominator else math.inf
        if 0.0 < value < math.inf:
            return value
        formula = "e^2/(pi^2 m^2 z^2)" if self.kind == "velocity" else "e^2/(pi^2 m^2)"
        problem = "underflows to zero" if value == 0.0 else "overflows"
        raise ValueError(f"{self.kind} prefactor {formula} {problem}")

    def value(self, p: EvalPoint) -> float:
        """Closed-form value at p; refuses inside the lightcone window."""
        _check_lightcone(p)
        return self.prefactor(p) * self.bracket(p.x)

    def evaluate(self, p: EvalPoint) -> DispersionResult:
        """Closed-form value at p with its regime flags."""
        return _result(p, self.value(p), self)


QUANTITIES: Mapping[str, Quantity] = MappingProxyType({q.id: q for q in (
    Quantity("vel_disp_transverse", "velocity", "x", _scaled_vel_transverse,
             lambda k: (k + 1) / (4.0 * (2 * k + 1))),
    Quantity("vel_disp_normal", "velocity", "z", _scaled_vel_normal,
             lambda k: 1.0 / (4.0 * (2 * k + 1))),
    Quantity("pos_disp_transverse", "position", "x", _scaled_pos_transverse,
             lambda k: 0.0 if k == 0 else (1.0 / (2 * k - 1) + 1.0 / (k + 1)) / 6.0),
    Quantity("pos_disp_normal", "position", "z", _scaled_pos_normal,
             lambda k: 0.0 if k == 0 else (2.0 / (2 * k - 1) - 1.0 / (k + 1)) / 6.0),
)})

QUANTITY_IDS = tuple(QUANTITIES)


def _check_lightcone(p: EvalPoint) -> None:
    if p.near_lightcone:
        raise LightconeSingularityError(
            f"t={p.t!r} lies within the lightcone exclusion window around "
            f"t = 2z (z={p.z!r}); the dispersions diverge there",
            pole_distance=abs(p.t - 2.0 * p.z),
        )


def _result(p: EvalPoint, value: float, q: Quantity) -> DispersionResult:
    validity_ok, radiation_ok = regime_flags(p.particle, p.z, p.t)
    return DispersionResult(
        value=value,
        component=q.component,
        kind=q.kind,
        validity_ok=validity_ok,
        radiation_ok=radiation_ok,
        near_lightcone=p.near_lightcone,
    )


def vel_disp_transverse(p: EvalPoint) -> DispersionResult:
    """Mean-squared velocity fluctuation parallel to the plane (x = y).

    Positive at early times and negative beyond the lightcone, decaying to
    zero at late times.
    """
    return QUANTITIES["vel_disp_transverse"].evaluate(p)


def vel_disp_normal(p: EvalPoint) -> DispersionResult:
    """Mean-squared velocity fluctuation normal to the plane.

    Strictly positive, approaching e^2 / (4 pi^2 m^2 z^2) at late times.
    """
    return QUANTITIES["vel_disp_normal"].evaluate(p)


def pos_disp_transverse(p: EvalPoint) -> DispersionResult:
    """Mean-squared position fluctuation parallel to the plane (x = y)."""
    return QUANTITIES["pos_disp_transverse"].evaluate(p)


def pos_disp_normal(p: EvalPoint) -> DispersionResult:
    """Mean-squared position fluctuation normal to the plane."""
    return QUANTITIES["pos_disp_normal"].evaluate(p)


# --- printed large-time asymptotes ------------------------------------------

def _check_asym_domain(p: EvalPoint) -> None:
    if p.t <= 2.0 * p.z:
        raise ValueError("asymptotic forms require t > 2z")


def vel_disp_transverse_asym(p: EvalPoint) -> DispersionResult:
    """Leading large-time form: -e^2/(3 pi^2 m^2 t^2) - 8 e^2 z^2/(5 pi^2 m^2 t^4)."""
    _check_asym_domain(p)
    s = p.particle
    value = -s.e**2 / (3.0 * PI_SQ * s.m**2 * p.t**2) \
        - 8.0 * s.e**2 * p.z**2 / (5.0 * PI_SQ * s.m**2 * p.t**4)
    return _result(p, value, QUANTITIES["vel_disp_transverse"])


def vel_disp_normal_asym(p: EvalPoint) -> DispersionResult:
    """Large-time form e^2/(4 pi^2 m^2 z^2) + e^2/(3 pi^2 m^2 t^2)."""
    _check_asym_domain(p)
    s = p.particle
    value = s.e**2 / (4.0 * PI_SQ * s.m**2 * p.z**2) \
        + s.e**2 / (3.0 * PI_SQ * s.m**2 * p.t**2)
    return _result(p, value, QUANTITIES["vel_disp_normal"])


def pos_disp_transverse_asym(p: EvalPoint) -> DispersionResult:
    """Leading large-time form -(e^2 / 3 pi^2 m^2) ln(t/2z).

    Captures the logarithmic growth only; the exact form carries an
    additional constant 1/18 inside the bracket, so the relative gap to
    the closed form closes slowly, like 1/ln(t/2z).
    """
    _check_asym_domain(p)
    s = p.particle
    value = -s.e**2 / (3.0 * PI_SQ * s.m**2) * math.log(p.t / (2.0 * p.z))
    return _result(p, value, QUANTITIES["pos_disp_transverse"])


def pos_disp_normal_asym(p: EvalPoint) -> DispersionResult:
    """Large-time form (e^2/pi^2 m^2) [t^2/8z^2 + (1/3) ln(t/2z) + 1/9]."""
    _check_asym_domain(p)
    s = p.particle
    bracket = p.t**2 / (8.0 * p.z**2) + math.log(p.t / (2.0 * p.z)) / 3.0 + 1.0 / 9.0
    value = s.e**2 / (PI_SQ * s.m**2) * bracket
    return _result(p, value, QUANTITIES["pos_disp_normal"])


# --- small-t Taylor series ---------------------------------------------------

class SeriesValue(NamedTuple):
    value: float
    truncation_bound: float


def small_t_series(quantity: str, p: EvalPoint, order: int = 12) -> SeriesValue:
    """Taylor value of a dispersion about t = 0 with a truncation bound.

    ``order`` counts retained terms (powers x^2 through x^(2*order));
    order 0 returns 0 for every quantity.  Requires t < z, where the
    series converges fast and the tail admits a geometric bound.
    """
    q = QUANTITIES.get(quantity)
    if q is None:
        raise ValueError(f"unknown quantity id {quantity!r}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not (p.t < p.z):
        raise ValueError("small-t series requires t < z")
    x_sq = p.x * p.x
    total = 0.0
    power = 1.0  # x^(2k)
    for k in range(order):
        total += q.series_coeff(k) * power * x_sq  # term is c_k x^(2k+2)
        power *= x_sq
    # Coefficients are bounded by 1/2 for every k >= 1, so the dropped tail
    # is at most a geometric series starting at x^(2*order+2).
    tail = 0.5 * power * x_sq / (1.0 - x_sq)
    prefactor = q.prefactor(p)
    return SeriesValue(value=prefactor * total, truncation_bound=prefactor * tail)
