"""Independent quadrature evaluation of the defining dispersion integrals.

Every closed form in `dispersion` is the value of a time integral of a
boundary kernel.  By stationarity the double (velocity) and quadruple
(position) integrals reduce to single integrals

    <dv^2> = (e^2/m^2) Int_0^t  2 (t - tau)                      f(tau) dtau
    <dx^2> = (e^2/m^2) Int_0^t [ (2/3)(t^3 - tau^3)
                                  - tau (t^2 - tau^2) ]          f(tau) dtau

with f the transverse or normal kernel.  This module evaluates those
integrals numerically, without using the closed forms, so the two routes
stay genuinely independent.

The kernels are singular at tau = 2z.  They are regularized by point
splitting, tau -> tau - i*eps, and the regulator is removed by evaluating
on a decreasing eps-ladder and extrapolating polynomially to eps = 0.  For
t < 2z no pole is crossed, the limit is an ordinary proper integral, and
the eps-expansion contains even powers only.  For t > 2z the integral
crosses the pole; the eps -> 0 limit then defines the finite-part value
and the expansion picks up odd powers of eps as well, so the full
polynomial basis is used there.

Each ladder rung is itself computed to near machine precision by a contour
detour: the integrand is analytic in complex tau with poles at
tau = +-2z + i*eps, both above the real axis, so the path may dip below
the axis on a semicircle around tau = 2z.  On the deformed path the
integrand is smooth and adaptive quadrature converges essentially exactly,
independent of eps.  The integral's value is unchanged because no
singularity lies between the two paths.

Internally everything is computed at z = 1 in the scaled variables
u = tau/z, T = t/z, eta = eps/z and rescaled afterward; this keeps
absolute quadrature tolerances meaningful for any z.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from scipy.integrate import IntegrationWarning, quad

from .correlators import (
    RegulatorSpec,
    normal_kernel_complex,
    transverse_kernel_complex,
)
from .dispersion import QUANTITIES, EvalPoint, _check_lightcone
from .errors import ExtrapolationError, QuadratureConvergenceError
from .units_constants import ParticleSpec, unit_preset

__all__ = [
    "QuadratureSpec",
    "OracleResult",
    "VerifyRow",
    "PRE_LIGHTCONE_RATIOS",
    "POST_LIGHTCONE_RATIOS",
    "TOL_PRE_LIGHTCONE",
    "TOL_POST_LIGHTCONE",
    "default_regulator",
    "weight_velocity",
    "weight_position",
    "reduced_time_integral",
    "direct_time_integral",
    "velocity_oracle",
    "position_oracle",
    "dispersion_oracle",
    "extrapolate_ladder",
    "verify_grid",
]

# Standard comparison grid (t/z) and tolerance tiers.
PRE_LIGHTCONE_RATIOS = (0.1, 0.5, 1.0, 1.5, 1.9)
POST_LIGHTCONE_RATIOS = (2.5, 3.0, 5.0, 10.0)
GRIDS = ("full", "pre-lightcone", "post-lightcone")
TOL_PRE_LIGHTCONE = 1e-6
TOL_POST_LIGHTCONE = 1e-4

# eps0 / z for the default ladders.  The proper-integral regime uses a much
# smaller starting eps so the two smallest rungs agree to < 1e-8 relative
# (regulator independence); the pole-crossing regime keeps a larger start,
# where rung values genuinely vary and the extrapolation does the work.
PROPER_EPS0_FACTOR = 1e-4
CROSSING_EPS0_FACTOR = 1e-2


def default_regulator(z: float, t: float) -> RegulatorSpec:
    """Regime-appropriate default ladder for an evaluation at (t, z)."""
    factor = PROPER_EPS0_FACTOR if t < 2.0 * z else CROSSING_EPS0_FACTOR
    return RegulatorSpec(eps0=factor * z)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, subdivision budget, and regulator.

    Tolerances apply to the scaled (z = 1) integrals, which are O(1) on
    the standard grid.  ``regulator`` None selects `default_regulator`.
    """

    epsabs: float = 1e-13
    epsrel: float = 1e-12
    max_subdivisions: int = 200
    regulator: RegulatorSpec | None = None

    def __post_init__(self) -> None:
        if not (self.epsabs > 0.0 and self.epsrel > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 64:
            raise ValueError("max_subdivisions must be at least 64")


class OracleResult(NamedTuple):
    """Extrapolated oracle value with diagnostics.

    ``rungs`` holds (eps, value) pairs in the caller's units;
    ``error_estimate`` combines the extrapolation residual and the worst
    per-rung quadrature error estimate.
    """

    value: float
    error_estimate: float
    rungs: tuple[tuple[float, float], ...]


# --- time weights ------------------------------------------------------------

def weight_velocity(tau, t):
    """Stationarity weight 2 (t - tau) of the velocity double integral."""
    return 2.0 * (t - tau)


def weight_position(tau, t):
    """Stationarity weight of the reduced position integral.

    (2/3)(t^3 - tau^3) - tau (t^2 - tau^2); equals 2 t^3 / 3 at tau = 0.
    """
    return (2.0 / 3.0) * (t**3 - tau**3) - tau * (t * t - tau * tau)


_WEIGHTS = {"velocity": weight_velocity, "position": weight_position}

_KERNELS = {"x": transverse_kernel_complex, "z": normal_kernel_complex}


# --- adaptive quadrature with an error budget ---------------------------------

def _checked_quad(
    func: Callable[[float], float],
    a: float,
    b: float,
    q: QuadratureSpec,
) -> tuple[float, float]:
    """scipy quad under the caller's error budget; raises when blown."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(
            func, a, b,
            epsabs=q.epsabs, epsrel=q.epsrel, limit=q.max_subdivisions,
        )
    budget = 100.0 * max(q.epsabs, q.epsrel * abs(value))
    if err > budget:
        raise QuadratureConvergenceError(
            f"quadrature error estimate {err:.3e} exceeds budget {budget:.3e} "
            f"on [{a!r}, {b!r}] within {q.max_subdivisions} subdivisions",
            achieved=err,
        )
    return value, err


def _rung_integral(
    kernel: Callable[[complex, float], complex],
    weight: Callable,
    t_scaled: float,
    eta: float,
    q: QuadratureSpec,
) -> tuple[float, float]:
    """One ladder rung of the scaled reduced integral, z = 1.

    Re of Int_0^T weight(u, T) kernel(u - i eta) du.  For T > 2 the path
    detours below the pole at u = 2 + i eta on a semicircle; each of the
    three pieces integrates the real part only.
    """
    T = t_scaled

    def on_axis(u: float) -> float:
        return (weight(u, T) * kernel(complex(u, -eta), 1.0)).real

    if T <= 2.0:
        return _checked_quad(on_axis, 0.0, T, q)

    radius = 0.5 * min(2.0, T - 2.0)
    v1, e1 = _checked_quad(on_axis, 0.0, 2.0 - radius, q)
    v3, e3 = _checked_quad(on_axis, 2.0 + radius, T, q)

    def on_arc(theta: float) -> float:
        u = 2.0 + radius * cmath.exp(1j * theta)
        du = 1j * radius * cmath.exp(1j * theta)
        return (weight(u, T) * kernel(u - 1j * eta, 1.0) * du).real

    v2, e2 = _checked_quad(on_arc, math.pi, 2.0 * math.pi, q)
    return v1 + v2 + v3, max(e1, e2, e3)


# --- ladder extrapolation ------------------------------------------------------

def extrapolate_ladder(
    pairs: Sequence[tuple[float, float]],
    *,
    basis: str = "even",
) -> tuple[float, float]:
    """Polynomial extrapolation of regulator-ladder values to eps = 0.

    ``pairs`` is a strictly-decreasing-eps sequence of (eps, value).  Basis
    "even" interpolates in eps^2 (proper integrals, where the regulator
    enters quadratically); basis "all" interpolates in eps (pole-crossing
    integrals, whose expansion carries odd powers too).  Returns the
    extrapolated value and a residual-based error estimate.  Ladders whose
    successive differences grow (above the noise floor) raise
    ExtrapolationError.
    """
    if len(pairs) < 3:
        raise ValueError("ladder must have at least 3 rungs")
    eps = [p[0] for p in pairs]
    vals = [p[1] for p in pairs]
    if any(e <= 0.0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps values must be positive and strictly decreasing")
    if basis not in ("even", "all"):
        raise ValueError("basis must be 'even' or 'all'")

    scale = max(abs(v) for v in vals)
    floor = 1e-11 * (scale + 1e-300)
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    for d_prev, d_next in zip(diffs, diffs[1:]):
        if d_next > max(d_prev, floor):
            raise ExtrapolationError(
                "ladder differences grow toward small eps; "
                "extrapolation unreliable"
            )

    xs = [e * e for e in eps] if basis == "even" else list(eps)
    tab = list(vals)
    n = len(tab)
    history = [tab[-1]]
    for m in range(1, n):
        for i in range(n - m):
            tab[i] = tab[i + 1] + (tab[i] - tab[i + 1]) * xs[i + m] / (xs[i + m] - xs[i])
        history.append(tab[0])
    estimate = abs(history[-1] - history[-2])
    return tab[0], estimate


# --- oracle entry points --------------------------------------------------------

def _ladder_for(p: EvalPoint, q: QuadratureSpec) -> RegulatorSpec:
    reg = q.regulator
    if reg is None:
        reg = default_regulator(p.z, p.t)
    return reg


def dispersion_oracle(
    kind: str,
    component: str,
    p: EvalPoint,
    q: QuadratureSpec | None = None,
) -> OracleResult:
    """Quadrature value of a dispersion: kind 'velocity'|'position', component 'x'|'z'.

    Evaluates the reduced integral on the regulator ladder, extrapolates
    eps -> 0 (even basis for t < 2z, full basis beyond), and rescales by
    e^2/m^2 (velocities carry an extra 1/z^2).
    """
    if kind not in _WEIGHTS:
        raise ValueError("kind must be 'velocity' or 'position'")
    if component not in _KERNELS:
        raise ValueError("component must be 'x' or 'z'")
    if q is None:
        q = QuadratureSpec()
    _check_lightcone(p)

    kernel = _KERNELS[component]
    weight = _WEIGHTS[kind]
    T = p.t / p.z
    reg = _ladder_for(p, q)
    spec = p.particle
    prefactor = spec.e**2 / spec.m**2
    if kind == "velocity":
        prefactor /= p.z * p.z

    rungs: list[tuple[float, float]] = []
    worst_quad_err = 0.0
    for eps in reg.ladder:
        eta = eps / p.z
        value, err = _rung_integral(kernel, weight, T, eta, q)
        rungs.append((eps, value))
        worst_quad_err = max(worst_quad_err, err)

    if reg.order is not None:
        rungs_used = rungs[-(reg.order + 1):]
    else:
        rungs_used = rungs
    basis = "even" if T < 2.0 else "all"
    value, est = extrapolate_ladder(rungs_used, basis=basis)
    return OracleResult(
        value=prefactor * value,
        error_estimate=prefactor * max(est, worst_quad_err),
        rungs=tuple((eps, prefactor * v) for eps, v in rungs),
    )


def velocity_oracle(
    component: str,
    p: EvalPoint,
    q: QuadratureSpec | None = None,
) -> OracleResult:
    """Quadrature value of the velocity dispersion for component 'x' or 'z'."""
    return dispersion_oracle("velocity", component, p, q)


def position_oracle(
    component: str,
    p: EvalPoint,
    q: QuadratureSpec | None = None,
) -> OracleResult:
    """Quadrature value of the position dispersion for component 'x' or 'z'."""
    return dispersion_oracle("position", component, p, q)


# --- generic weighted integrals for audits ---------------------------------------

def reduced_time_integral(
    f: Callable[[float], float],
    t: float,
    kind: str,
    q: QuadratureSpec | None = None,
) -> float:
    """Int_0^t weight(tau, t) f(tau) dtau for a caller-supplied even kernel f."""
    if kind not in _WEIGHTS:
        raise ValueError("kind must be 'velocity' or 'position'")
    if q is None:
        q = QuadratureSpec()
    weight = _WEIGHTS[kind]
    value, _ = _checked_quad(lambda u: weight(u, t) * f(u), 0.0, t, q)
    return value


def direct_time_integral(
    f: Callable[[float], float],
    t: float,
    kind: str,
    q: QuadratureSpec | None = None,
) -> float:
    """The unreduced double integral over [0, t]^2 for an even kernel f.

    Velocity: Int Int f(t' - t'').  Position: Int Int (t-t')(t-t'') f(t'-t'').
    Used to audit the stationarity weights.  The inner integral is split at
    the diagonal so kernels with a |u| kink stay piecewise smooth.
    """
    if kind not in _WEIGHTS:
        raise ValueError("kind must be 'velocity' or 'position'")
    if q is None:
        q = QuadratureSpec()

    if kind == "velocity":
        def integrand(up: float, us: float) -> float:
            return f(up - us)
    else:
        def integrand(up: float, us: float) -> float:
            return (t - up) * (t - us) * f(up - us)

    def inner(up: float) -> float:
        below, _ = _checked_quad(lambda us: integrand(up, us), 0.0, up, q)
        above, _ = _checked_quad(lambda us: integrand(up, us), up, t, q)
        return below + above

    value, _ = _checked_quad(inner, 0.0, t, q)
    return value


# --- verification grid -------------------------------------------------------------

@dataclass(frozen=True)
class VerifyRow:
    """One oracle-vs-closed-form comparison."""

    quantity: str
    t_over_z: float
    closed: float
    oracle: float
    rel_err: float
    eps_estimate: float
    passed: bool


def verify_grid(
    particle: ParticleSpec | None = None,
    z: float = 1.0,
    *,
    grid: str = "full",
    tol_pre: float = TOL_PRE_LIGHTCONE,
    tol_post: float = TOL_POST_LIGHTCONE,
    qspec: QuadratureSpec | None = None,
) -> list[VerifyRow]:
    """Compare every closed form against the oracle on the standard grid.

    Rows are ordered quantity-major, then by t/z; pre-lightcone points are
    held to ``tol_pre`` relative, pole-crossing points to ``tol_post``.
    ``grid`` selects "pre-lightcone", "post-lightcone", or "full".
    """
    if grid not in GRIDS:
        raise ValueError("grid must be 'full', 'pre-lightcone', or 'post-lightcone'")
    if particle is None:
        particle = unit_preset()

    tiers: list[tuple[float, float]] = []
    if grid in ("full", "pre-lightcone"):
        tiers.extend((r, tol_pre) for r in PRE_LIGHTCONE_RATIOS)
    if grid in ("full", "post-lightcone"):
        tiers.extend((r, tol_post) for r in POST_LIGHTCONE_RATIOS)

    rows: list[VerifyRow] = []
    for quantity in QUANTITIES.values():
        for ratio, tol in tiers:
            point = EvalPoint(t=ratio * z, z=z, particle=particle)
            closed = quantity.value(point)
            result = dispersion_oracle(quantity.kind, quantity.component, point, qspec)
            rel_err = abs(result.value - closed) / abs(closed)
            rows.append(
                VerifyRow(
                    quantity=quantity.id,
                    t_over_z=ratio,
                    closed=closed,
                    oracle=result.value,
                    rel_err=rel_err,
                    eps_estimate=result.error_estimate,
                    passed=rel_err <= tol,
                )
            )
    return rows
