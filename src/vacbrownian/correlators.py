"""Boundary-induced electric-field two-point functions near a mirror.

A perfectly reflecting plane at z = 0 modifies the electromagnetic vacuum.
After subtracting the empty-space contribution, the renormalized equal-point
correlators of the electric field a distance z from the plane depend only on
the time separation dt = t' - t'':

    <E_x E_x> = <E_y E_y> = -(dt^2 + 4 z^2) / (pi^2 (dt^2 - 4 z^2)^3)
    <E_z E_z> =  1 / (pi^2 (dt^2 - 4 z^2)^2)

Both kernels are even in dt and singular at |dt| = 2z, the round-trip light
travel time to the mirror.  Only this boundary piece is ever computed here;
the (divergent) Minkowski part is dropped by construction.

Regularized variants displace the time separation off the real axis,
dt -> dt - i*eps, and take the real part.  They are finite for every real
dt and back `corr --eps`.  The plain correlators refuse a dt inside the
lightcone window, |dt| within DEFAULT_LIGHTCONE_DELTA * z of 2z, the window
in which the closed forms of `dispersion` refuse t.  The quadrature oracle
needs no regulator: it takes the eps -> 0 limit exactly, by integrating the
complex kernels at eps = 0 along a path that passes below the pole.
"""

from __future__ import annotations

import math

from .errors import FrozenRecord, LightconeSingularityError, finite, finite_nonzero, set_field

__all__ = [
    "RegulatorSpec",
    "DEFAULT_LIGHTCONE_DELTA",
    "corr_transverse",
    "corr_normal",
    "corr_transverse_reg",
    "corr_normal_reg",
    "transverse_kernel_complex",
    "normal_kernel_complex",
    "mean_e_squared",
]

PI_SQ = math.pi * math.pi

# Relative half-width (in units of z) of the refusal window around |dt| = 2z.
DEFAULT_LIGHTCONE_DELTA = 1e-6


class RegulatorSpec(FrozenRecord):
    """Geometric point-splitting ladder eps0 * 0.5^k, k = 0..5.

    The oracle computes no ladder; only the benchmark's rung probe reads one,
    through `oracle.default_regulator`, and its removal waits for the
    benchmark change of ROADMAP item 5, "perfbench after the ladder".
    """

    __slots__ = ("eps0",)

    def __init__(self, eps0: float) -> None:
        if not (eps0 > 0.0):
            raise ValueError("eps0 must be positive")
        set_field(self, "eps0", eps0)

    @property
    def ladder(self) -> tuple[float, ...]:
        """Strictly decreasing eps sequence."""
        return tuple(self.eps0 * 0.5**k for k in range(6))


def _check_z(z: float) -> None:
    if not (z > 0.0):
        raise ValueError("distance from the plate must satisfy z > 0")


def near_lightcone(dt: float, z: float) -> bool:
    """Whether dt lies in the lightcone window ||dt| - 2z| / z < DEFAULT_LIGHTCONE_DELTA."""
    # divided, not multiplied: DEFAULT_LIGHTCONE_DELTA * z underflows to 0
    # for z below about 5e-318, and the window with it; halved, not doubled:
    # 2z overflows for z above about 9e307
    return abs(0.5 * abs(dt) - z) / z < 0.5 * DEFAULT_LIGHTCONE_DELTA


def _check_pole(dt: float, z: float) -> None:
    if near_lightcone(dt, z):
        raise LightconeSingularityError(
            f"time separation dt={dt!r} lies within the lightcone exclusion "
            f"window around |dt| = 2z (z={z!r})",
            pole_distance=abs(abs(dt) - 2.0 * z),
        )


@finite_nonzero
def corr_transverse(dt: float, z: float) -> float:
    """Transverse (xx = yy) boundary correlator; even in dt.

    Refuses inside the lightcone window around the |dt| = 2z pole instead of
    returning a huge float.
    """
    _check_z(z)
    _check_pole(dt, z)
    return transverse_kernel_complex(dt, z)


@finite_nonzero
def corr_normal(dt: float, z: float) -> float:
    """Normal (zz) boundary correlator; even in dt."""
    _check_z(z)
    _check_pole(dt, z)
    return normal_kernel_complex(dt, z)


def transverse_kernel_complex(dt: complex, z: float) -> complex:
    """Analytic continuation of the transverse kernel to complex dt.

    Used by the correlators (at a float dt, where it is real), by their
    regularized variants and by contour quadrature in the oracle; performs
    no pole checks.
    """
    d = dt * dt - 4.0 * z * z
    return -(dt * dt + 4.0 * z * z) / (PI_SQ * d * d * d)


def normal_kernel_complex(dt: complex, z: float) -> complex:
    """Analytic continuation of the normal kernel to complex dt."""
    d = dt * dt - 4.0 * z * z
    return 1.0 / (PI_SQ * d * d)


def _check_eps(eps: float) -> None:
    if not (eps > 0.0):
        raise ValueError("point-splitting parameter eps must be positive")


@finite
def corr_transverse_reg(dt: float, z: float, eps: float) -> float:
    """Re of the transverse kernel at dt - i*eps; finite for all real dt."""
    _check_z(z)
    _check_eps(eps)
    return transverse_kernel_complex(complex(dt, -eps), z).real


@finite
def corr_normal_reg(dt: float, z: float, eps: float) -> float:
    """Re of the normal kernel at dt - i*eps; finite for all real dt."""
    _check_z(z)
    _check_eps(eps)
    return normal_kernel_complex(complex(dt, -eps), z).real


@finite_nonzero
def mean_e_squared(z: float) -> float:
    """Renormalized <E^2> at distance z: 3 / (16 pi^2 z^4).

    Equals the coincidence limit 2*corr_transverse(0, z) + corr_normal(0, z).
    """
    _check_z(z)
    return 3.0 / (16.0 * PI_SQ * z**4)
