"""Validity bounds, radiation estimates, packet spreading, effective temperature.

The dispersion formulas assume the particle stays put (position drift small
against z) and that radiation reaction is negligible.  Both assumptions turn
into time bounds proportional to (m z) * z; this module exposes the bounds,
the Larmor-based radiated velocity spread, the quantum wave-packet spreading
scale used for comparison, and the effective temperature associated with the
late-time normal velocity dispersion.  Every estimate returns a finite,
nonzero float or refuses with ValueError; a time bound may be infinite,
meaning no bound, and the kelvin value of a subnormal natural temperature
underflows to 0.0 in its conversion.
"""

from __future__ import annotations

import math

from .correlators import PI_SQ, mean_e_squared
from .errors import FrozenRecord, finite, finite_nonzero, set_field
from .units_constants import ParticleSpec, natural_to_si_temperature

__all__ = [
    "DEFAULT_MARGIN",
    "PacketSpec",
    "RegimeReport",
    "validity_time_limit",
    "radiation_time_limit",
    "regime_flags",
    "larmor_power",
    "radiated_velocity_sq",
    "packet_width",
    "optimal_initial_width",
    "minimum_packet_width",
    "fluctuation_to_quantum_ratio",
    "effective_temperature_natural",
    "effective_temperature",
    "regime_report",
]

# Bounds below are "much less than" statements; a point is flagged OK when
# t < DEFAULT_MARGIN * bound.  The margin is a fixed reporting convention,
# not physics.
DEFAULT_MARGIN = 0.1


class PacketSpec(FrozenRecord):
    """Gaussian wave packet: initial width and momentum width.

    Natural units (lengths and inverse lengths); both widths must be finite
    and positive, and the uncertainty product must satisfy dz0 * dpz >= 1/2.
    """

    __slots__ = ("dz0", "dpz")

    def __init__(self, dz0: float, dpz: float) -> None:
        if not (dz0 > 0.0 and dpz > 0.0):
            raise ValueError("packet widths must be positive")
        if not (dz0 < math.inf and dpz < math.inf):
            raise ValueError("packet widths must be finite")
        if dz0 * dpz < 0.5 * (1.0 - 1e-12):
            raise ValueError("uncertainty product dz0*dpz must be >= 1/2")
        set_field(self, "dz0", dz0)
        set_field(self, "dpz", dpz)


def validity_time_limit(spec: ParticleSpec, z: float) -> float:
    """Time bound below which the position drift stays small against z.

    t << (2 sqrt(2) pi / e) * (m z) * z; the hard right-hand side is
    returned, and `regime_flags` applies DEFAULT_MARGIN to it.
    """
    if not (z > 0.0):
        raise ValueError("z must be positive")
    return 2.0 * math.sqrt(2.0) * math.pi / abs(spec.e) * spec.m * z * z


def radiation_time_limit(spec: ParticleSpec, z: float) -> float:
    """Time bound below which Larmor radiation losses stay negligible.

    t << (4 pi / e^2) * (m z) * z.
    """
    if not (z > 0.0):
        raise ValueError("z must be positive")
    return 4.0 * math.pi / (spec.e * spec.e) * spec.m * z * z


def _flag_bounds(spec: ParticleSpec, z: float) -> tuple[float, float]:
    """The times below which `regime_flags` flags a point OK: DEFAULT_MARGIN times
    the validity and the radiation time bound at z."""
    return (DEFAULT_MARGIN * validity_time_limit(spec, z),
            DEFAULT_MARGIN * radiation_time_limit(spec, z))


def regime_flags(spec: ParticleSpec, z: float, t: float,
                 bounds: tuple[float, float] | None = None) -> tuple[bool, bool]:
    """(validity_ok, radiation_ok): t below DEFAULT_MARGIN times each time bound.

    ``bounds`` is `_flag_bounds(spec, z)` when the caller has formed it
    already, as a sweep at a fixed z does once for all its points.
    """
    validity, radiation = _flag_bounds(spec, z) if bounds is None else bounds
    return t < validity, t < radiation


@finite_nonzero
def larmor_power(spec: ParticleSpec, z: float) -> float:
    """Average radiated power (e^4 / 6 pi m^2) <E^2> of the jittering charge."""
    return spec.e**4 / (6.0 * math.pi * spec.m**2) * mean_e_squared(z)


@finite_nonzero
def radiated_velocity_sq(spec: ParticleSpec, z: float, t: float) -> float:
    """Squared-velocity change from radiating for time t.

    e^4 t / (16 pi^3 z^4 m^3), i.e. (e^4 t / 3 pi m^3) <E^2>.
    """
    if not (t > 0.0 and z > 0.0):
        raise ValueError("t and z must be positive")
    return spec.e**4 * t / (16.0 * math.pi**3 * z**4 * spec.m**3)


@finite
def packet_width(packet: PacketSpec, m: float, t: float) -> float:
    """Width of a Gaussian packet after free spreading for time t."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if not (m > 0.0):
        raise ValueError("mass must be positive")
    return math.hypot(packet.dz0, packet.dpz * t / m)


@finite_nonzero
def optimal_initial_width(m: float, t: float) -> float:
    """Initial width sqrt(t / 2m) minimizing the spread width at time t."""
    if not (t > 0.0 and m > 0.0):
        raise ValueError("t and m must be positive")
    return math.sqrt(t / (2.0 * m))


@finite_nonzero
def minimum_packet_width(m: float, t: float) -> float:
    """Smallest achievable packet width at time t: sqrt(t / m)."""
    if not (t > 0.0 and m > 0.0):
        raise ValueError("t and m must be positive")
    return math.sqrt(t / m)


@finite_nonzero
def fluctuation_to_quantum_ratio(component: str, spec: ParticleSpec, z: float, t: float) -> float:
    """Size of the fluctuation-induced position spread against the quantum one.

    The quantum scale is the minimum packet width sqrt(t/m).  The ratios are
    the large-t asymptotes of sqrt(|<dx^2>|) / sqrt(t/m),

        x:  2 sqrt(alpha * ln(t/2z) / (3 pi t m))
        z:  sqrt(alpha / 2 pi) * sqrt(t/m) / z

    with alpha = e^2/4pi of the given particle.  The x-ratio needs t > 2z
    for a positive logarithm.
    """
    if component not in ("x", "z"):
        raise ValueError("component must be 'x' or 'z'")
    if not (z > 0.0 and t > 0.0):
        raise ValueError("t and z must be positive")
    alpha = spec.alpha_eff
    if component == "x":
        if t <= 2.0 * z:
            raise ValueError(
                "x-component ratio asymptote needs t > 2z for ln(t/2z) > 0"
            )
        return 2.0 * math.sqrt(alpha * math.log(t / (2.0 * z)) / (3.0 * math.pi * t * spec.m))
    return math.sqrt(alpha / (2.0 * math.pi)) * math.sqrt(t / spec.m) / z


@finite_nonzero
def effective_temperature_natural(spec: ParticleSpec, z: float) -> float:
    """k_B T in natural units (inverse length): e^2 / (4 pi^2 m z^2).

    Equipartition against the late-time normal velocity dispersion,
    k_B T = m * <dv_z^2>(t -> infinity); with e^2 = 4 pi alpha this is
    alpha / (pi m z^2).
    """
    if not (z > 0.0):
        raise ValueError("z must be positive")
    return spec.e * spec.e / (4.0 * PI_SQ * spec.m * z * z)


def effective_temperature(spec: ParticleSpec, z: float) -> float:
    """Effective temperature in kelvin of the late-time velocity spread."""
    return natural_to_si_temperature(effective_temperature_natural(spec, z))


class RegimeReport(FrozenRecord):
    """All regime diagnostics for one (particle, z, t).

    Fields, in constructor order: particle, z, t, t_validity, t_radiation,
    dv2_rad, t_eff_kelvin, ratio_x, ratio_z, validity_ok, radiation_ok.

    ``ratio_x`` is None when t <= 2z, where its asymptote is undefined.  The
    flags hold t against DEFAULT_MARGIN times each bound; `as_dict` prints
    that constant as ``margin``.
    """

    __slots__ = ("particle", "z", "t", "t_validity", "t_radiation", "dv2_rad", "t_eff_kelvin",
                 "ratio_x", "ratio_z", "validity_ok", "radiation_ok")

    def as_dict(self) -> dict[str, object]:
        def qty(value: object, unit: str) -> dict[str, object]:
            return {"value": value, "unit": unit}

        return {
            "particle": self.particle,
            "z": qty(self.z, "m"),
            "t": qty(self.t, "m (light-travel)"),
            "t_validity": qty(self.t_validity, "m (light-travel)"),
            "t_radiation": qty(self.t_radiation, "m (light-travel)"),
            "dv2_rad": qty(self.dv2_rad, "c^2"),
            "t_eff": qty(self.t_eff_kelvin, "K"),
            "ratio_x": qty(self.ratio_x, "dimensionless"),
            "ratio_z": qty(self.ratio_z, "dimensionless"),
            "validity_ok": self.validity_ok,
            "radiation_ok": self.radiation_ok,
            "margin": qty(DEFAULT_MARGIN, "dimensionless"),
        }


def regime_report(spec: ParticleSpec, z: float, t: float) -> RegimeReport:
    """Assemble the full regime diagnostics for one evaluation point.

    The flags hold t against DEFAULT_MARGIN times each time bound.
    """
    validity_ok, radiation_ok = regime_flags(spec, z, t)
    ratio_x = None
    if t > 2.0 * z:
        ratio_x = fluctuation_to_quantum_ratio("x", spec, z, t)
    return RegimeReport(spec.name, z, t, validity_time_limit(spec, z),
                        radiation_time_limit(spec, z), radiated_velocity_sq(spec, z, t),
                        effective_temperature(spec, z), ratio_x,
                        fluctuation_to_quantum_ratio("z", spec, z, t), validity_ok, radiation_ok)
