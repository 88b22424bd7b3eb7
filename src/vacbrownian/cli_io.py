"""Command-line interface: evaluation, sweeps, verification, reports.

Subcommands
-----------
eval       one record of requested quantities at a single (t, z)
sweep      CSV/JSON table over a t, z, or t/z grid
verify     oracle-vs-closed-form comparison grid, CSV report
regimes    regime diagnostics (bounds, radiation, ratios, temperature) as JSON
corr       boundary correlator values over a dt grid, CSV
constants  CODATA table and electron preset as JSON

Lengths and times accept SI suffixes: "1e-6m" (meters) or "1e-14s"
(seconds, converted via c); bare numbers are natural lengths (meters).
Every subcommand accepts --config pointing at a JSON file whose keys
mirror the long flag names (dashes as underscores); precedence is
flags > config file > defaults.

Exit codes: 0 success; 1 verify comparison failure; 2 argument errors;
3 lightcone-window hits; 4 oracle non-convergence; 5 unwritable output.
Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

from . import dispersion, regimes
from .errors import (
    ExtrapolationError,
    LightconeSingularityError,
    QuadratureConvergenceError,
)
from .units_constants import (
    C_SI,
    ParticleSpec,
    constants_table,
    electron_preset,
    natural_to_si_temperature,
    time_si_to_natural,
    unit_preset,
    velocity_sq_natural_to_si,
)

__all__ = ["main"]

SWEEP_HEADER = "t,z,t_over_z,quantity,value_natural,value_si,status,validity_ok,radiation_ok"
VERIFY_HEADER = "quantity,t/z,closed,oracle,rel_err,eps_estimate,pass"
CORR_HEADER = "dt,z,corr_transverse,corr_normal,status"

DEFAULT_Z = 1.0  # natural length (meters) when no --z is given


class UsageError(Exception):
    """Bad argument values detected after parsing; maps to exit code 2."""


# --- scalar parsing ----------------------------------------------------------

def _parse_scalar(text: str, name: str) -> float:
    """Parse a length/time: bare natural number, or SI with 'm'/'s' suffix."""
    s = text.strip()
    try:
        if s.endswith("m"):
            return float(s[:-1])
        if s.endswith("s"):
            return time_si_to_natural(float(s[:-1]))
        return float(s)
    except ValueError:
        raise UsageError(f"parameter {name}: cannot parse {text!r} "
                         "(expected a number, optionally suffixed m or s)") from None


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"parameter {name}: cannot parse {text!r} as a number") from None


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"parameter {name}: cannot parse {text!r} as an integer") from None


# --- config merging ----------------------------------------------------------

def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise UsageError(f"parameter config: cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"parameter config: invalid JSON in {path!r}: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("parameter config: top-level JSON value must be an object")
    return config


def _setting(args: argparse.Namespace, config: dict[str, Any], key: str, default: Any) -> Any:
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


# --- particles and quantities --------------------------------------------------

def _particle(args: argparse.Namespace, config: dict[str, Any]) -> ParticleSpec:
    name = str(_setting(args, config, "particle", "electron"))
    charge = _setting(args, config, "charge", None)
    mass = _setting(args, config, "mass", None)
    if name == "electron":
        base = electron_preset()
    elif name == "unit":
        base = unit_preset()
    else:
        raise UsageError(f"parameter particle: unknown preset {name!r} "
                         "(choose electron or unit)")
    if charge is None and mass is None:
        return base
    e = _parse_float(str(charge), "charge") if charge is not None else base.e
    m = _parse_float(str(mass), "mass") if mass is not None else base.m
    try:
        return ParticleSpec(e=e, m=m, name="custom")
    except ValueError as exc:
        raise UsageError(f"parameter charge/mass: {exc}") from None


# The closed forms and their printed asymptotes, each a function of that
# name in `dispersion`.
_DISPERSIONS = dispersion.QUANTITY_IDS + tuple(f"{q}_asym" for q in dispersion.QUANTITY_IDS)

QUANTITY_CHOICES = _DISPERSIONS + ("effective_temperature", "radiated_velocity_sq")

_UNITS = {
    "velocity": ("c^2", "m^2/s^2"),
    "position": ("m^2", "m^2"),
    "temperature": ("1/m", "K"),
}


def _evaluate(quantity: str, point: dispersion.EvalPoint) -> tuple[float, float, str]:
    """(value_natural, value_si, kind) for one quantity at one point.

    Raises ValueError when a value leaves the float range, so nothing
    non-finite reaches the output.
    """
    try:
        if quantity in _DISPERSIONS:
            result = getattr(dispersion, quantity)(point)
            natural, kind = result.value, result.kind
            si = velocity_sq_natural_to_si(natural) if kind == "velocity" else natural
        elif quantity == "effective_temperature":
            natural, kind = regimes.effective_temperature_natural(point.particle, point.z), "temperature"
            si = natural_to_si_temperature(natural)
        elif quantity == "radiated_velocity_sq":
            natural, kind = regimes.radiated_velocity_sq(point.particle, point.z, point.t), "velocity"
            si = velocity_sq_natural_to_si(natural)
        else:
            raise UsageError(f"parameter quantity: unknown quantity {quantity!r}")
    except ArithmeticError:  # a float ** overflowing or a / by an underflowed zero
        raise ValueError("value leaves the float range") from None
    if not (math.isfinite(natural) and math.isfinite(si)):
        raise ValueError("value leaves the float range")
    return natural, si, kind


# --- output plumbing ------------------------------------------------------------

def _emit(text: str, path: str | None) -> None:
    """Write to stdout or to a file; OSError propagates (exit code 5)."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _bool_cell(flag: bool) -> str:
    return "true" if flag else "false"


def _grid_values(lo: float, hi: float, count: int, spacing: str) -> list[float]:
    if count < 2:
        raise UsageError("parameter count: need at least 2 points")
    if not (lo > 0.0 and lo < hi):
        raise UsageError("parameter min/max: need 0 < min < max")
    if not math.isfinite(hi):
        raise UsageError("parameter min/max: min and max must be finite")
    if spacing == "linear":
        step = (hi - lo) / (count - 1)
        return [lo + step * i for i in range(count)]
    if spacing == "log":
        ratio = hi / lo
        return [lo * ratio ** (i / (count - 1)) for i in range(count)]
    raise UsageError(f"parameter spacing: unknown spacing {spacing!r}")


# --- subcommand handlers ----------------------------------------------------------

def _resolve_t(args: argparse.Namespace, config: dict[str, Any], z: float) -> float:
    t_raw = _setting(args, config, "t", None)
    ratio_raw = _setting(args, config, "t_over_z", None)
    if (t_raw is None) == (ratio_raw is None):
        raise UsageError("parameter t: give exactly one of --t or --t-over-z")
    if t_raw is not None:
        return _parse_scalar(str(t_raw), "t")
    return _parse_float(str(ratio_raw), "t-over-z") * z


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    spec = _particle(args, config)
    z = _parse_scalar(str(_setting(args, config, "z", DEFAULT_Z)), "z")
    quantities = _setting(args, config, "quantity", None)
    if not quantities:
        raise UsageError("parameter quantity: at least one --quantity is required")
    if isinstance(quantities, str):
        quantities = [quantities]
    for q in quantities:
        if q not in QUANTITY_CHOICES:
            raise UsageError(f"parameter quantity: unknown quantity {q!r}")
    try:
        point = dispersion.EvalPoint(t=_resolve_t(args, config, z), z=z, particle=spec)
    except ValueError as exc:
        raise UsageError(f"parameter t/z: {exc}") from None

    record: dict[str, Any] = {
        "particle": spec.name,
        "t": {"value": point.t, "unit": "m (light-travel)"},
        "z": {"value": point.z, "unit": "m"},
        "t_over_z": {"value": point.t_over_z, "unit": "dimensionless"},
        "quantities": {},
    }
    for q in quantities:
        try:
            natural, si, kind = _evaluate(q, point)
        except ValueError as exc:
            raise UsageError(f"parameter quantity: {q}: {exc}") from None
        unit_nat, unit_si = _UNITS[kind]
        record["quantities"][q] = {
            "value_natural": natural,
            "unit_natural": unit_nat,
            "value_si": si,
            "unit_si": unit_si,
        }
    validity_ok, radiation_ok = regimes.regime_flags(point.particle, point.z, point.t)
    record["flags"] = {
        "validity_ok": validity_ok,
        "radiation_ok": radiation_ok,
        "near_lightcone": point.near_lightcone,
    }
    _emit(json.dumps(record, indent=2, allow_nan=False) + "\n", None)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    spec = _particle(args, config)
    var = str(_setting(args, config, "var", "t_over_z"))
    if var not in ("t", "z", "t_over_z"):
        raise UsageError(f"parameter var: unknown sweep variable {var!r}")
    count = _parse_int(str(_setting(args, config, "count", 50)), "count")
    spacing = str(_setting(args, config, "spacing", "log"))
    fmt = str(_setting(args, config, "format", "csv"))
    if fmt not in ("csv", "json"):
        raise UsageError(f"parameter format: unknown format {fmt!r}")
    quantities = _setting(args, config, "quantity", None) or list(dispersion.QUANTITY_IDS)
    if isinstance(quantities, str):
        quantities = [quantities]
    for q in quantities:
        if q not in QUANTITY_CHOICES:
            raise UsageError(f"parameter quantity: unknown quantity {q!r}")

    min_raw = _setting(args, config, "min", None)
    max_raw = _setting(args, config, "max", None)
    if min_raw is None or max_raw is None:
        raise UsageError("parameter min/max: sweep needs --min and --max")
    if var == "t_over_z":
        lo = _parse_float(str(min_raw), "min")
        hi = _parse_float(str(max_raw), "max")
    else:
        lo = _parse_scalar(str(min_raw), "min")
        hi = _parse_scalar(str(max_raw), "max")
    grid = _grid_values(lo, hi, count, spacing)

    z_fixed = _parse_scalar(str(_setting(args, config, "z", DEFAULT_Z)), "z")
    t_fixed_raw = _setting(args, config, "t", None)
    t_fixed = _parse_scalar(str(t_fixed_raw), "t") if t_fixed_raw is not None else None
    if var == "z" and t_fixed is None:
        raise UsageError("parameter t: sweeping z needs a fixed --t")

    rows: list[dict[str, Any]] = []
    for value in grid:
        if var == "t":
            t, z = value, z_fixed
        elif var == "z":
            t, z = t_fixed, value
        else:
            t, z = value * z_fixed, z_fixed
        try:
            point = dispersion.EvalPoint(t=t, z=z, particle=spec)
        except ValueError as exc:
            raise UsageError(f"parameter t/z: {exc}") from None
        validity_ok, radiation_ok = regimes.regime_flags(point.particle, point.z, point.t)
        for q in quantities:
            status = "ok"
            natural: float | None = None
            si: float | None = None
            kind = None
            try:
                natural, si, kind = _evaluate(q, point)
            except LightconeSingularityError:
                status = "singular"
            except ValueError:
                status = "undefined"  # asymptote at t <= 2z, or outside the float range
            rows.append({
                "t": point.t,
                "z": point.z,
                "t_over_z": point.t_over_z,
                "quantity": q,
                "value_natural": natural,
                "value_si": si,
                "kind": kind,
                "status": status,
                "validity_ok": validity_ok,
                "radiation_ok": radiation_ok,
            })

    if fmt == "csv":
        lines = [SWEEP_HEADER]
        for row in rows:
            natural = "" if row["value_natural"] is None else repr(row["value_natural"])
            si = "" if row["value_si"] is None else repr(row["value_si"])
            lines.append(",".join([
                repr(row["t"]), repr(row["z"]), repr(row["t_over_z"]),
                row["quantity"], natural, si, row["status"],
                _bool_cell(row["validity_ok"]), _bool_cell(row["radiation_ok"]),
            ]))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        records = []
        for row in rows:
            kind = row.pop("kind")
            units = _UNITS.get(kind, (None, None))
            records.append({
                "t": {"value": row["t"], "unit": "m (light-travel)"},
                "z": {"value": row["z"], "unit": "m"},
                "t_over_z": {"value": row["t_over_z"], "unit": "dimensionless"},
                "quantity": row["quantity"],
                "value_natural": {"value": row["value_natural"], "unit": units[0]},
                "value_si": {"value": row["value_si"], "unit": units[1]},
                "status": row["status"],
                "validity_ok": row["validity_ok"],
                "radiation_ok": row["radiation_ok"],
            })
        _emit(json.dumps(records, indent=2, allow_nan=False) + "\n", args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle  # the only subcommand that needs scipy

    config = _load_config(args.config)
    spec = _particle(args, config) if (
        _setting(args, config, "particle", None) is not None
        or _setting(args, config, "charge", None) is not None
        or _setting(args, config, "mass", None) is not None
    ) else unit_preset()
    z = _parse_scalar(str(_setting(args, config, "z", DEFAULT_Z)), "z")
    grid = str(_setting(args, config, "grid", "full"))
    tol_raw = _setting(args, config, "tolerance", None)
    tol_pre = oracle.TOL_PRE_LIGHTCONE
    tol_post = oracle.TOL_POST_LIGHTCONE
    if tol_raw is not None:
        tol = _parse_float(str(tol_raw), "tolerance")
        tol_pre = tol_post = tol
    try:
        rows = oracle.verify_grid(spec, z, grid=grid, tol_pre=tol_pre, tol_post=tol_post)
    except ValueError as exc:
        raise UsageError(f"parameter grid: {exc}") from None

    lines = [VERIFY_HEADER]
    for row in rows:
        lines.append(",".join([
            row.quantity, repr(row.t_over_z), repr(row.closed), repr(row.oracle),
            repr(row.rel_err), repr(row.eps_estimate), _bool_cell(row.passed),
        ]))
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if all(row.passed for row in rows) else 1


def _cmd_regimes(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    spec = _particle(args, config)
    z = _parse_scalar(str(_setting(args, config, "z", DEFAULT_Z)), "z")
    t = _resolve_t(args, config, z)
    if not (t > 0.0 and z > 0.0):
        raise UsageError("parameter t/z: t and z must be positive")
    try:
        text = json.dumps(regimes.regime_report(spec, z, t).as_dict(), indent=2, allow_nan=False)
    except (ValueError, ArithmeticError):
        raise UsageError("parameter t/z: regime report leaves the float range") from None
    _emit(text + "\n", None)
    return 0


def _cmd_corr(args: argparse.Namespace) -> int:
    from . import correlators

    config = _load_config(args.config)
    z = _parse_scalar(str(_setting(args, config, "z", DEFAULT_Z)), "z")
    lo = _parse_scalar(str(_setting(args, config, "dt_min", 0.0)), "dt-min")
    hi_raw = _setting(args, config, "dt_max", None)
    if hi_raw is None:
        raise UsageError("parameter dt-max: required")
    hi = _parse_scalar(str(hi_raw), "dt-max")
    count = _parse_int(str(_setting(args, config, "count", 50)), "count")
    eps_raw = _setting(args, config, "eps", None)
    eps = _parse_scalar(str(eps_raw), "eps") if eps_raw is not None else None
    if count < 2:
        raise UsageError("parameter count: need at least 2 points")
    if not (hi > lo):
        raise UsageError("parameter dt-min/dt-max: need dt-min < dt-max")

    step = (hi - lo) / (count - 1)
    lines = [CORR_HEADER]
    for i in range(count):
        dt = lo + step * i
        if eps is not None:
            xx = correlators.corr_transverse_reg(dt, z, eps)
            zz = correlators.corr_normal_reg(dt, z, eps)
            lines.append(",".join([repr(dt), repr(z), repr(xx), repr(zz), "ok"]))
            continue
        try:
            xx = correlators.corr_transverse(dt, z)
            zz = correlators.corr_normal(dt, z)
            lines.append(",".join([repr(dt), repr(z), repr(xx), repr(zz), "ok"]))
        except LightconeSingularityError:
            lines.append(",".join([repr(dt), repr(z), "", "", "singular"]))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    electron = electron_preset()
    payload = {
        "constants": constants_table().as_dict(),
        "electron_preset": {
            "e": {"value": electron.e, "unit": "dimensionless (Lorentz-Heaviside)"},
            "m": {"value": electron.m, "unit": "1/m"},
            "alpha_eff": {"value": electron.alpha_eff, "unit": "dimensionless"},
        },
        "unit_system": "Lorentz-Heaviside, c = hbar = 1, reference length 1 m",
    }
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", None)
    return 0


# --- parser ---------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacbrownian",
        description="Velocity/position dispersions of a charge near a reflecting "
                    "plane, driven by electromagnetic vacuum fluctuations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; keys mirror long flags")
    common.add_argument("--particle", help="particle preset: electron or unit")
    common.add_argument("--charge", help="override charge e (natural units)")
    common.add_argument("--mass", help="override mass m (natural units, 1/m)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate quantities at one (t, z)")
    p_eval.add_argument("--z", help="distance from plate, e.g. 1e-6m")
    p_eval.add_argument("--t", help="elapsed time, e.g. 1e-5m or 3e-14s")
    p_eval.add_argument("--t-over-z", dest="t_over_z", help="dimensionless t/z")
    p_eval.add_argument("--quantity", action="append", help="quantity id, repeatable")
    p_eval.set_defaults(handler=_cmd_eval)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="evaluate quantities over a parameter grid")
    p_sweep.add_argument("--var", help="swept variable: t, z, or t_over_z")
    p_sweep.add_argument("--min", help="sweep start")
    p_sweep.add_argument("--max", help="sweep end")
    p_sweep.add_argument("--count", help="number of points (default 50)")
    p_sweep.add_argument("--spacing", help="linear or log (default log)")
    p_sweep.add_argument("--z", help="fixed z (for t or t_over_z sweeps)")
    p_sweep.add_argument("--t", help="fixed t (for z sweeps)")
    p_sweep.add_argument("--quantity", action="append", help="quantity id, repeatable")
    p_sweep.add_argument("--format", help="csv or json (default csv)")
    p_sweep.add_argument("--output", help="output path (default stdout)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="compare closed forms against the quadrature oracle")
    p_verify.add_argument("--z", help="distance from plate (default 1)")
    p_verify.add_argument("--grid", help="full, pre-lightcone, or post-lightcone")
    p_verify.add_argument("--tolerance", help="override both tolerance tiers")
    p_verify.add_argument("--output", help="report path (default stdout)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_regimes = sub.add_parser("regimes", parents=[common],
                               help="regime report for one (particle, z, t)")
    p_regimes.add_argument("--z", help="distance from plate")
    p_regimes.add_argument("--t", help="elapsed time")
    p_regimes.add_argument("--t-over-z", dest="t_over_z", help="dimensionless t/z")
    p_regimes.set_defaults(handler=_cmd_regimes)

    p_corr = sub.add_parser("corr", parents=[common],
                            help="dump boundary correlators over a dt grid")
    p_corr.add_argument("--z", help="distance from plate")
    p_corr.add_argument("--dt-min", dest="dt_min", help="grid start (default 0)")
    p_corr.add_argument("--dt-max", dest="dt_max", help="grid end")
    p_corr.add_argument("--count", help="number of points (default 50)")
    p_corr.add_argument("--eps", help="point-splitting regulator; emits regularized kernels")
    p_corr.add_argument("--output", help="output path (default stdout)")
    p_corr.set_defaults(handler=_cmd_corr)

    p_const = sub.add_parser("constants", parents=[common],
                             help="dump the constants table as JSON")
    p_const.set_defaults(handler=_cmd_constants)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LightconeSingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QuadratureConvergenceError, ExtrapolationError) as exc:
        print(f"error: oracle did not converge: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
