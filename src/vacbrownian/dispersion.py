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
round-trip light travel time); the correlators' lightcone window refuses
evaluation near that point.  Logarithms of quantities that change sign
across x = 1 are taken of absolute values, the unique reading that keeps
the results real, continuous in each branch, vanishing as t -> 0, and in
agreement with the quadrature oracle on both sides of the lightcone.

Up to x = LARGE_X the direct forms are evaluated: the position forms group
x^2/6 with the log into g = x^2 + ln(1 - x^2), summed as a series at small
x, and near the pole 1 - x and x - 1 are formed directly (exact for x in
[1/2, 2]).  Past LARGE_X, where the transverse forms cancel, each bracket
is summed as its large-x series a x^2 + b ln x + sum_k d_k w^k, w = 1/x^2.
What the four share at one point -- the lightcone test, x, L(x) (past
LARGE_X: ln x and w) and g(x) -- is worked out once per point, by
`_shared_terms`, which every closed-form value reaches.
Against 60-digit mpmath at the exact t/(2z) of the double inputs t and z,
all four hold 1e-13 relative accuracy over t/z in [1e-9, 1e12], except in
two places (ROADMAP item 1).  Within |t/2z - 1| < 1e-3 of the lightcone, x
is rounded before 1 - x is formed: `vel_disp_transverse` is off by up to
1e-10 there, the others by up to 1e-11.  Near its zero t0 = 3.19855169347299 z,
`pos_disp_transverse` is off by about 1e-16/|t/t0 - 1| relative.  Beyond
that range a value is finite or refused with ValueError.  The printed
asymptotes truncate the same series, `small_t_series` sums the Taylor
series about t = 0, and `QUANTITIES` holds each dispersion's kind,
component, bracket and both series in one place.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from types import MappingProxyType

# DEFAULT_LIGHTCONE_DELTA, the window shared with the correlators, is also read from here
from .correlators import DEFAULT_LIGHTCONE_DELTA, PI_SQ, near_lightcone
from .errors import FrozenRecord, LightconeSingularityError, finite, set_field
from .regimes import regime_flags
from .units_constants import ParticleSpec, electron_preset

__all__ = [
    "EvalPoint",
    "DispersionResult",
    "Quantity",
    "SeriesValue",
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

# The closed forms sum the large-x series past x = t/2z = LARGE_X, where
# w = 1/x^2 <= 1/16; the direct transverse forms cancel ever more beyond it.
LARGE_X = 4.0

# Terms `small_t_series` keeps: powers x^2 through x^24.
SERIES_TERMS = 12


class EvalPoint(FrozenRecord):
    """One (t, z) evaluation point with its particle, by default the electron.

    ``t`` is the elapsed time since the coupling switched on, ``z`` the
    distance from the plane, both natural lengths.  The point is near the
    lightcone inside the correlators' refusal window
    |t - 2z| / z < DEFAULT_LIGHTCONE_DELTA.
    """

    # _terms is no field: what the closed forms here share, kept by `_shared_terms`
    __slots__ = ("t", "z", "particle", "_terms")

    def __init__(self, t: float, z: float, particle: ParticleSpec | None = None) -> None:
        if not math.isfinite(z):
            raise ValueError("z must be finite")
        if not math.isfinite(t):
            raise ValueError("t must be finite")
        if not (t > 0.0):
            raise ValueError("t must be positive")
        if not (z > 0.0):
            raise ValueError("z must be positive")
        if not math.isfinite(t / z):
            raise ValueError("t/z must be finite")
        set_field(self, "t", t)
        set_field(self, "z", z)
        set_field(self, "particle", electron_preset() if particle is None else particle)
        set_field(self, "_terms", None)

    @property
    def t_over_z(self) -> float:
        return self.t / self.z

    @property
    def x(self) -> float:
        """Lightcone coordinate t / 2z; the pole sits at x = 1."""
        return 0.5 * (self.t / self.z)  # 2z overflows for z above about 9e307; t/z is finite

    @property
    def near_lightcone(self) -> bool:
        return near_lightcone(self.t, self.z)


class DispersionResult(FrozenRecord):
    """A dispersion value with its regime flags.

    ``component`` "x" stands for either transverse direction (x and y are
    identical by symmetry); ``kind`` is "velocity" (units c^2) or
    "position" (units length^2).  ``near_lightcone`` is the point's: always
    False for a closed form, which refuses inside the lightcone window, but
    True for an asymptote evaluated there, which refuses only t <= 2z.
    """

    __slots__ = ("value", "component", "kind", "validity_ok", "radiation_ok", "near_lightcone")

    def __init__(self, value: float, component: str, kind: str, validity_ok: bool,
                 radiation_ok: bool, near_lightcone: bool) -> None:
        set_field(self, "value", value)
        set_field(self, "component", component)
        set_field(self, "kind", kind)
        set_field(self, "validity_ok", validity_ok)
        set_field(self, "radiation_ok", radiation_ok)
        set_field(self, "near_lightcone", near_lightcone)


def _checked_prefactor(kind: str, formula: str, value: float) -> float:
    """value, if it lies in (0, inf); else ValueError naming the kind's prefactor formula."""
    if 0.0 < value < math.inf:
        return value
    problem = "underflows to zero" if value == 0.0 else "overflows"
    raise ValueError(f"{kind} prefactor {formula} {problem}")


# --- helpers for the scaled brackets in x = t/2z ----------------------------

def _power_sum(coeffs: Iterable[float], y: float) -> float:
    """sum_k coeffs[k] y^k, stopping once a term falls below the total's last bit."""
    total = 0.0
    power = 1.0
    for c in coeffs:
        term = c * power
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
        power *= y
    return total


def _log_ratio(x: float) -> float:
    """L(x) = ln((1 + x)/|1 - x|); 1 - x and x - 1 are exact near the pole."""
    return math.log1p(2.0 * x / (1.0 - x) if x < 1.0 else 2.0 / (x - 1.0))


_G_COEFFS = tuple(-1.0 / (k + 2) for k in range(60))


def _g(x: float) -> float:
    """g = x^2 + ln|1 - x^2|, accurate for small x.

    The two contributions cancel to O(x^4); for x^2 < 1/2 the series
    g = -x^4 sum_{k>=0} x^(2k) / (k + 2) is summed instead.
    """
    y = x * x
    if y < 0.5:
        return y * y * _power_sum(_G_COEFFS, y)
    return y + math.log(abs((1.0 - x) * (1.0 + x)))


def _shared_terms(p: EvalPoint, position: bool) -> tuple[float, float, float | None]:
    """(x, log, third) at p, worked out at p's first closed form and kept on p.

    Past LARGE_X ``log`` is ln x and ``third`` is w = 1/x^2.  Up to it they
    are L(x) and g(x), where g is None until a ``position`` form needs it.
    The lightcone test runs first, and a refused point keeps nothing, so it
    is refused again.  The terms are kept as a plain attribute, where a
    cached property would take a lock on every first use.
    """
    terms = p._terms
    if terms is None or (position and terms[2] is None):
        if terms is None:
            _check_lightcone(p)
            x = p.x
            terms = (x, math.log(x), 1.0 / (x * x)) if x > LARGE_X else (x, _log_ratio(x), None)
        if position and terms[2] is None:
            terms = (terms[0], terms[1], _g(terms[0]))
        set_field(p, "_terms", terms)
    return terms


# --- the quantity registry -----------------------------------------------------
#
# Each entry lists its direct bracket, then its two series.  About x = 0,
# expanding L(x) and ln(1 - x^2) gives sum_{k>=0} c_k x^(2k+2), an even
# series opening at x^2 (velocities) or x^4 (positions) with the kernels'
# coincidence-limit values.  For x > 1, expanding L(x) = 2 atanh(1/x) and
# ln(x^2 - 1) = 2 ln x + ln(1 - w) in w = 1/x^2 gives a x^2 + b ln x +
# sum_{k>=0} d_k w^k; 40 d_k reach the last bit for w <= 1/4.
_K = range(40)


class Quantity(FrozenRecord):
    """One of the four dispersions: every fact the package keeps about it.

    ``bracket(x, L, g)`` is the direct scaled closed form in x = t/2z, given
    L(x) and, for a position, g(x) (see `_shared_terms`), ``series_coeff(k)``
    the Taylor coefficient c_k of x^(2k+2) in it, and ``a``, ``b``, ``d`` its
    large-x series a x^2 + b ln x + sum_k d[k] / x^(2k), of whose d_k the
    printed asymptote keeps the first ``asym_terms``.  The prefactor
    follows from ``kind``: A for "velocity", B for "position".
    """

    __slots__ = ("id", "kind", "component", "bracket", "series_coeff", "a", "b", "d", "asym_terms")

    def __init__(self, id: str, kind: str, component: str,
                 bracket: Callable[[float, float, float | None], float],
                 series_coeff: Callable[[int], float], a: float, b: float, d: tuple[float, ...],
                 asym_terms: int) -> None:
        set_field(self, "id", id)
        set_field(self, "kind", kind)
        set_field(self, "component", component)
        set_field(self, "bracket", bracket)
        set_field(self, "series_coeff", series_coeff)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "d", d)
        set_field(self, "asym_terms", asym_terms)

    def prefactor(self, p: EvalPoint) -> float:
        """A = e^2/(pi^2 m^2 z^2) or B = e^2/(pi^2 m^2); refuses a value outside the float range."""
        s = p.particle
        if self.kind == "velocity":
            denominator = PI_SQ * s.m * s.m * p.z * p.z
        else:
            denominator = PI_SQ * s.m * s.m
        value = s.e * s.e / denominator if denominator else math.inf
        formula = "e^2/(pi^2 m^2 z^2)" if self.kind == "velocity" else "e^2/(pi^2 m^2)"
        return _checked_prefactor(self.kind, formula, value)

    def _large_x_bracket(self, x: float, log_x: float, w: float, terms: int = len(_K)) -> float:
        """The large-x series at x > 1 from ln x and w = 1/x^2, keeping the first ``terms`` d_k."""
        # a * x * x groups as (a * x) * x, so a = 0 gives 0, not 0 * inf, at huge x
        return self.a * x * x + self.b * log_x + _power_sum(self.d[:terms], w)

    @finite
    def value(self, p: EvalPoint) -> float:
        """Closed-form value at p; refuses inside the lightcone window or outside the float range."""
        x, log, third = _shared_terms(p, self.kind == "position")
        if x > LARGE_X:
            return self.prefactor(p) * self._large_x_bracket(x, log, third)
        return self.prefactor(p) * self.bracket(x, log, third)

    def evaluate(self, p: EvalPoint) -> DispersionResult:
        """Closed-form value at p with its regime flags."""
        return _result(p, self.value(p), self, near_lightcone=False)  # value refuses near it

    @finite
    def asymptote(self, p: EvalPoint) -> float:
        """The printed asymptote, the large-x series cut after ``asym_terms`` d_k; needs t > 2z."""
        if p.t <= 2.0 * p.z:
            raise ValueError("asymptotic forms require t > 2z")
        x = p.x
        return self.prefactor(p) * self._large_x_bracket(x, math.log(x), 1.0 / (x * x),
                                                         self.asym_terms)


QUANTITIES: Mapping[str, Quantity] = MappingProxyType({q.id: q for q in (
    Quantity("vel_disp_transverse", "velocity", "x",
             lambda x, L, g: (x / 16.0) * L + x * x / (8.0 * (1.0 - x) * (1.0 + x)),
             lambda k: (k + 1) / (4.0 * (2 * k + 1)),
             0.0, 0.0, tuple(-k / (4.0 * (2 * k + 1)) for k in _K), 3),
    Quantity("vel_disp_normal", "velocity", "z",
             lambda x, L, g: (x / 8.0) * L,
             lambda k: 1.0 / (4.0 * (2 * k + 1)),
             0.0, 0.0, tuple(1.0 / (4.0 * (2 * k + 1)) for k in _K), 2),
    Quantity("pos_disp_transverse", "position", "x",
             lambda x, L, g: (x**3 / 12.0) * L - g / 6.0,
             lambda k: 0.0 if k == 0 else (1.0 / (2 * k - 1) + 1.0 / (k + 1)) / 6.0,
             0.0, -1.0 / 3.0, tuple(1.0 / (6.0 * (2 * k + 3)) + (1.0 / (6.0 * k) if k else 0.0)
                                    for k in _K), 0),
    Quantity("pos_disp_normal", "position", "z",
             lambda x, L, g: (x**3 / 6.0) * L + g / 6.0,
             lambda k: 0.0 if k == 0 else (2.0 / (2 * k - 1) - 1.0 / (k + 1)) / 6.0,
             0.5, 1.0 / 3.0, tuple(1.0 / (3.0 * (2 * k + 3)) - (1.0 / (6.0 * k) if k else 0.0)
                                  for k in _K), 1),
)})

QUANTITY_IDS = tuple(QUANTITIES)


def _check_lightcone(p: EvalPoint) -> None:
    if p.near_lightcone:
        raise LightconeSingularityError(
            f"t={p.t!r} lies within the lightcone exclusion window around "
            f"t = 2z (z={p.z!r}); the dispersions diverge there",
            pole_distance=abs(p.t - 2.0 * p.z),
        )


def _result(p: EvalPoint, value: float, q: Quantity, near_lightcone: bool) -> DispersionResult:
    validity_ok, radiation_ok = regime_flags(p.particle, p.z, p.t)
    # positional, in field order: keyword arguments made the call about a third slower
    return DispersionResult(value, q.component, q.kind, validity_ok, radiation_ok, near_lightcone)


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


# --- printed large-time asymptotes: truncated large-x series ------------------

def _asymptote_result(quantity: str, p: EvalPoint) -> DispersionResult:
    q = QUANTITIES[quantity]
    return _result(p, q.asymptote(p), q, p.near_lightcone)


def vel_disp_transverse_asym(p: EvalPoint) -> DispersionResult:
    """Leading large-time form: -e^2/(3 pi^2 m^2 t^2) - 8 e^2 z^2/(5 pi^2 m^2 t^4)."""
    return _asymptote_result("vel_disp_transverse", p)


def vel_disp_normal_asym(p: EvalPoint) -> DispersionResult:
    """Large-time form e^2/(4 pi^2 m^2 z^2) + e^2/(3 pi^2 m^2 t^2)."""
    return _asymptote_result("vel_disp_normal", p)


def pos_disp_transverse_asym(p: EvalPoint) -> DispersionResult:
    """Leading large-time form -(e^2 / 3 pi^2 m^2) ln(t/2z).

    Captures the logarithmic growth only; the exact form carries an
    additional constant 1/18 inside the bracket, so the relative gap to
    the closed form closes slowly, like 1/ln(t/2z).
    """
    return _asymptote_result("pos_disp_transverse", p)


def pos_disp_normal_asym(p: EvalPoint) -> DispersionResult:
    """Large-time form (e^2/pi^2 m^2) [t^2/8z^2 + (1/3) ln(t/2z) + 1/9]."""
    return _asymptote_result("pos_disp_normal", p)


# --- small-t Taylor series ---------------------------------------------------

# two floats in the units of the quantity's closed form
SeriesValue = namedtuple("SeriesValue", "value truncation_bound")


def small_t_series(quantity: str, p: EvalPoint) -> SeriesValue:
    """Taylor value of a dispersion about t = 0 with a truncation bound.

    Keeps SERIES_TERMS terms, powers x^2 through x^24.  Requires t < z,
    where the series converges fast and the tail admits a geometric bound.
    """
    q = QUANTITIES.get(quantity)
    if q is None:
        raise ValueError(f"unknown quantity id {quantity!r}")
    if not (p.t < p.z):
        raise ValueError("small-t series requires t < z")
    x_sq = p.x * p.x
    total = x_sq * _power_sum(map(q.series_coeff, range(SERIES_TERMS)), x_sq)
    # Coefficients are bounded by 1/2 for every k >= 1, so the dropped tail
    # is at most a geometric series starting at x^26.
    tail = 0.5 * x_sq ** (SERIES_TERMS + 1) / (1.0 - x_sq)
    prefactor = q.prefactor(p)
    return SeriesValue(value=prefactor * total, truncation_bound=prefactor * tail)
