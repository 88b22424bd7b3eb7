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
Every subcommand but constants accepts --config pointing at a JSON file
whose keys mirror its long flag names (dashes as underscores) other than
--output; any other key is refused.  Precedence is flags > config file >
defaults, and a JSON null counts as unset.

Exit codes: 0 success, also when a reader closes stdout before the end;
1 verify comparison failure; 2 argument errors; 3 lightcone-window hits;
4 oracle non-convergence; 5 unwritable output; 70 an internal error (any
other exception), reported without a traceback.
Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import correlators, dispersion, oracle, regimes
from .errors import (
    ExtrapolationError,
    LightconeSingularityError,
    QuadratureConvergenceError,
)
from .units_constants import (
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

# Every --quantity id: the function of an EvalPoint giving its natural value,
# and its kind.  The closed forms come first, then their printed asymptotes.
_QUANTITIES: dict[str, tuple[Callable[[dispersion.EvalPoint], float], str]] = {
    **{q.id: (q.value, q.kind) for q in dispersion.QUANTITIES.values()},
    **{f"{q.id}_asym": (q.asymptote, q.kind) for q in dispersion.QUANTITIES.values()},
    "effective_temperature": (
        lambda p: regimes.effective_temperature_natural(p.particle, p.z), "temperature"),
    "radiated_velocity_sq": (
        lambda p: regimes.radiated_velocity_sq(p.particle, p.z, p.t), "velocity"),
}

QUANTITY_CHOICES = tuple(_QUANTITIES)

_PRESETS = {"electron": electron_preset, "unit": unit_preset}

# Each kind of value: its natural unit, its SI unit and the conversion to SI,
# None for a position, whose SI value is its natural float.
_UNITS = {
    "velocity": ("c^2", "m^2/s^2", velocity_sq_natural_to_si),
    "position": ("m^2", "m^2", None),
    "temperature": ("1/m", "K", natural_to_si_temperature),
}

# A regime flag's cells: each pair of booleans as JSON text
_FLAG_CELLS = {(a, b): (str(a).lower(), str(b).lower()) for a in (True, False)
               for b in (True, False)}


# One sweep row per format, filled with %.  The JSON record is laid out by
# json.dumps itself and indented to sit inside the top-level array.  Every
# cell is JSON text already: the repr of a finite float, null, true/false, or
# a quoted id, unit or status that needs no escaping.
_CSV_ROW = ",".join(["%s"] * len(SWEEP_HEADER.split(",")))
_JSON_ROW = "  " + json.dumps({
    "t": {"value": "%s", "unit": "m (light-travel)"},
    "z": {"value": "%s", "unit": "m"},
    "t_over_z": {"value": "%s", "unit": "dimensionless"},
    "quantity": "%s",
    "value_natural": {"value": "%s", "unit": "%s"},
    "value_si": {"value": "%s", "unit": "%s"},
    "status": "%s",
    "validity_ok": "%s",
    "radiation_ok": "%s",
}, indent=2).replace("\n", "\n  ").replace('"%s"', "%s")


def _row_template(fmt: str, quantity: str, status: str,
                  units: tuple[str, str] | None = None) -> str:
    """One quantity's sweep row, as a template over the point's cells.

    Those are t, z and t/z, then value_natural and value_si when the row's
    ``units`` (natural, SI) are given, the status when ``status`` is "%s",
    then the two regime flags.
    """
    if fmt == "csv":
        values = ("%s", "%s") if units else ("", "")
        return _CSV_ROW % ("%s", "%s", "%s", quantity, *values, status, "%s", "%s")
    natural, unit_nat, si, unit_si = (
        ("%s", f'"{units[0]}"', "%s", f'"{units[1]}"') if units else ("null",) * 4)
    return _JSON_ROW % ("%s", "%s", "%s", f'"{quantity}"', natural, unit_nat, si, unit_si,
                        f'"{status}"', "%s", "%s")


class UsageError(Exception):
    """Bad argument values detected after parsing; maps to exit code 2."""


def _natural_length(text: str) -> float:
    """A length or time: bare natural number, or SI with an 'm'/'s' suffix."""
    s = text.strip()
    if s.endswith("m"):
        return float(s[:-1])
    if s.endswith("s"):
        return time_si_to_natural(float(s[:-1]))
    return float(s)


# What each parser's "cannot parse" message says it expected.
_EXPECTED = {
    _natural_length: "(expected a number, optionally suffixed m or s)",
    float: "as a number",
    int: "as an integer",
}


class _Options:
    """One call's settings: each flag if given, else its --config value, else its default.

    The --config file is read and checked when the call starts, so a bad
    file is the call's first error.  A value from either source is read as
    text by the flag's parser in `_FLAGS`, so a config file may give JSON
    numbers or strings.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self._settings = {key: getattr(args, key) for key in _COMMANDS[args.command][2]}
        path = self._settings.get("config")  # constants takes no --config
        if path is None:
            return
        try:
            with open(path, encoding="utf-8") as handle:
                config = json.load(handle)
        except OSError as exc:
            raise UsageError(f"parameter config: cannot read {path!r}: {exc}") from None
        # a JSONDecodeError, bytes that are not UTF-8, an integer past
        # Python's digit limit, or nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"parameter config: invalid JSON in {path!r}: {exc}") from None
        if not isinstance(config, dict):
            raise UsageError("parameter config: top-level JSON value must be an object")
        for key, value in config.items():
            if key not in self._settings or key in ("config", "output"):
                raise UsageError(f"parameter config: unknown key {key!r}")
            if self._settings[key] is None:
                self._settings[key] = value

    def raw(self, key: str) -> object:
        """The flag's value, else the config's, unparsed; None when neither is set."""
        return self._settings[key]

    def get(self, key: str, parse: Callable[[str], object] | None = None) -> object:
        """The parsed setting, or the flag's default when unset; ``parse`` overrides its parser."""
        flag_parse, default, _ = _FLAGS[key]
        value = self.raw(key)
        if value is None:
            return default
        parse = parse or flag_parse
        text = str(value)
        try:
            return parse(text)
        except ValueError:
            raise UsageError(f"parameter {key.replace('_', '-')}: cannot parse {text!r} "
                             f"{_EXPECTED[parse]}") from None

    def particle(self, unset: str = "electron") -> ParticleSpec:
        """The --particle preset with any --charge/--mass override.

        ``unset`` is the preset when none of the three is given.
        """
        name, charge, mass = self.get("particle"), self.raw("charge"), self.raw("mass")
        if name is None:
            name = unset if charge is None and mass is None else "electron"
        if name not in _PRESETS:
            raise UsageError(f"parameter particle: unknown preset {name!r} "
                             "(choose electron or unit)")
        base = _PRESETS[name]()
        if charge is None and mass is None:
            return base
        e, m = self.get("charge"), self.get("mass")
        try:
            return ParticleSpec(e=base.e if e is None else e, m=base.m if m is None else m,
                                name="custom")
        except ValueError as exc:
            raise UsageError(f"parameter charge/mass: {exc}") from None

    def quantities(self, default: Sequence[str] = ()) -> Sequence[str]:
        """The --quantity ids, else ``default`` when unset (a config's null is unset);
        at least one is required."""
        names = self.raw("quantity")
        if names is None:
            names = default
        if not isinstance(names, (list, tuple)):  # a config file may give one id
            names = [names]
        if not names:
            raise UsageError("parameter quantity: at least one --quantity is required")
        for q in names:
            if q not in QUANTITY_CHOICES:
                raise UsageError(f"parameter quantity: unknown quantity {q!r}")
        return names

    def t(self, z: float) -> float:
        """Elapsed time from exactly one of --t and --t-over-z."""
        if (self.raw("t") is None) == (self.raw("t_over_z") is None):
            raise UsageError("parameter t: give exactly one of --t or --t-over-z")
        ratio = self.get("t_over_z")
        return self.get("t") if ratio is None else ratio * z


def _point(t: float, z: float, spec: ParticleSpec) -> dispersion.EvalPoint:
    """The evaluation point (t, z), whose refusal is one of parameter t/z."""
    try:
        return dispersion.EvalPoint(t=t, z=z, particle=spec)
    except ValueError as exc:
        raise UsageError(f"parameter t/z: {exc}") from None


def _resolve(quantity: str) -> tuple[Callable[[dispersion.EvalPoint], float],
                                     Callable[[float], float] | None, str]:
    """(value function, SI conversion, kind) of one quantity; the conversion is
    None for a position.  `_Options.quantities` has checked the id."""
    value, kind = _QUANTITIES[quantity]
    return value, _UNITS[kind][2], kind


def _evaluate(quantity: str, point: dispersion.EvalPoint) -> tuple[float, float, str]:
    """(value_natural, value_si, kind) for one quantity at one point.

    Both values are finite: the quantity's function and the SI conversion
    raise ValueError for a value outside the float range.
    """
    value, to_si, kind = _resolve(quantity)
    natural = value(point)
    return natural, natural if to_si is None else to_si(natural), kind


# --- output plumbing ------------------------------------------------------------

def _emit(path: str | None, text: str, more: Iterable[str] = ()) -> None:
    """Write text, then each of ``more`` as it is made, to stdout or to a file.

    Nothing is opened before ``text`` exists.  A reader that closes stdout
    ends the writing quietly; any other OSError propagates (exit code 5).
    """
    if path is None:
        try:
            sys.stdout.write(text)
            sys.stdout.writelines(more)
            sys.stdout.flush()
        except BrokenPipeError:  # as after `| head`: nobody reads the rest
            # stdout now writes to /dev/null, so the interpreter's flush at exit cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
            handle.writelines(more)


def _grid(lo: float, hi: float, count: int, spacing: str) -> Callable[[int], float]:
    """The function giving a sweep's i-th grid value, nondecreasing in i; on a log
    grid whose max/min overflows it refuses every point past the first."""
    if count < 2:
        raise UsageError("parameter count: need at least 2 points")
    if not (lo > 0.0 and lo < hi):
        raise UsageError("parameter min/max: need 0 < min < max")
    if not math.isfinite(hi):
        raise UsageError("parameter min/max: min and max must be finite")
    if spacing == "linear":
        step = (hi - lo) / (count - 1)
        return lambda i: lo + step * i
    if spacing == "log":
        ratio = hi / lo
        if ratio < math.inf:
            return lambda i: lo * ratio ** (i / (count - 1))

        def overflowed(i: int) -> float:  # the first point, lo, is checked first
            if i:
                raise UsageError(f"parameter min/max: max/min = {hi!r}/{lo!r} "
                                 "leaves the float range")
            return lo
        return overflowed
    raise UsageError(f"parameter spacing: unknown spacing {spacing!r}")


# --- subcommand handlers ----------------------------------------------------------

def _cmd_eval(opts: _Options) -> int:
    spec = opts.particle()
    z = opts.get("z")
    quantities = opts.quantities()
    point = _point(opts.t(z), z, spec)

    record: dict[str, object] = {
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
        unit_nat, unit_si, _ = _UNITS[kind]
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
    _emit(None, json.dumps(record, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_sweep(opts: _Options) -> int:
    """Write the sweep table in one pass: each grid point's rows as soon as they are made.

    Once per sweep, each --quantity is resolved by `_resolve`, as `eval`
    resolves it, to its value function and SI conversion, and given its two
    row templates, one with value cells and one with a status cell; the
    fixed --z (or --t) is formatted once.  Once per point: the t, z and t/z
    texts, and the regime flags' two cells.  Once per row: the quantity's
    value, through `dispersion._shared_terms` for a closed form, its SI
    value, whose text is not formed again for a position, and the filled
    template.  Memory does not grow with --count.
    """
    spec = opts.particle()
    var = opts.get("var")
    if var not in ("t", "z", "t_over_z"):
        raise UsageError(f"parameter var: unknown sweep variable {var!r}")
    count = opts.get("count")
    spacing = opts.get("spacing")
    fmt = opts.get("format")
    if fmt not in ("csv", "json"):
        raise UsageError(f"parameter format: unknown format {fmt!r}")
    # the text before the first row, between two rows and after the last
    head, between, tail = ((SWEEP_HEADER + "\n", "\n", "\n") if fmt == "csv"
                           else ("[\n", ",\n", "\n]\n"))
    quantities = opts.quantities(dispersion.QUANTITY_IDS)
    if opts.raw("min") is None or opts.raw("max") is None:
        raise UsageError("parameter min/max: sweep needs --min and --max")
    parse = float if var == "t_over_z" else _natural_length
    at = _grid(opts.get("min", parse=parse), opts.get("max", parse=parse), count, spacing)
    swept = "z" if var == "z" else "t"  # sweeping t/z sweeps t at the fixed z
    if opts.raw(swept) is not None:
        raise UsageError(f"parameter {swept}: sweeping {var} takes no fixed --{swept}")
    z_fixed = opts.get("z")
    t_fixed = opts.get("t")
    if var == "z" and t_fixed is None:
        raise UsageError("parameter t: sweeping z needs a fixed --t")

    def point(value: float) -> dispersion.EvalPoint:
        if var == "t":
            t, z = value, z_fixed
        elif var == "z":
            t, z = t_fixed, value
        else:
            t, z = value * z_fixed, z_fixed
        return _point(t, z, spec)

    # t, z and t/z are monotonic along the grid, so a point the end points
    # pass passes too: checking them refuses a bad sweep before any output.
    point(at(0))
    point(at(count - 1))

    resolved = []
    for q in quantities:
        value, to_si, kind = _resolve(q)
        resolved.append((value, to_si, _row_template(fmt, q, "ok", _UNITS[kind][:2]),
                         _row_template(fmt, q, "%s")))
    fixed = repr(t_fixed if var == "z" else z_fixed)
    flags = regimes.regime_flags

    def chunks() -> Iterator[str]:
        lead = head
        for i in range(count):
            p = point(at(i))
            t_text, z_text = (fixed, repr(p.z)) if var == "z" else (repr(p.t), fixed)
            ratio_text = repr(p.t_over_z)
            validity, radiation = _FLAG_CELLS[flags(p.particle, p.z, p.t)]
            rows = []
            for value, to_si, ok, failed in resolved:
                try:
                    natural = value(p)
                    si = natural if to_si is None else to_si(natural)
                except LightconeSingularityError:
                    rows.append(failed % (t_text, z_text, ratio_text, "singular",
                                          validity, radiation))
                    continue
                except ValueError:  # asymptote at t <= 2z, or outside the float range
                    rows.append(failed % (t_text, z_text, ratio_text, "undefined",
                                          validity, radiation))
                    continue
                natural_text = repr(natural)
                rows.append(ok % (t_text, z_text, ratio_text, natural_text,
                                  natural_text if to_si is None else repr(si),
                                  validity, radiation))
            yield lead + between.join(rows)
            lead = between
        yield tail

    text = chunks()
    _emit(opts.raw("output"), next(text), text)
    return 0


def _cmd_verify(opts: _Options) -> int:
    spec = opts.particle(unset="unit")
    z = opts.get("z")
    grid = opts.get("grid")
    try:
        rows = oracle.verify_grid(spec, z, grid=grid, tolerance=opts.get("tolerance"))
    except ValueError as exc:  # a refused tolerance, an unknown grid, or a refused z or particle
        name = ("tolerance" if "tolerance" in str(exc)
                else "grid" if grid not in oracle.GRIDS else "t/z")
        raise UsageError(f"parameter {name}: {exc}") from None

    lines = [VERIFY_HEADER]
    for row in rows:
        lines.append(",".join([
            row.quantity, repr(row.t_over_z), repr(row.closed), repr(row.oracle),
            repr(row.rel_err), repr(row.eps_estimate), str(row.passed).lower(),
        ]))
    _emit(opts.raw("output"), "\n".join(lines) + "\n")
    return 0 if all(row.passed for row in rows) else 1


def _cmd_regimes(opts: _Options) -> int:
    spec = opts.particle()
    z = opts.get("z")
    point = _point(opts.t(z), z, spec)
    try:
        text = json.dumps(regimes.regime_report(spec, z, point.t).as_dict(), indent=2,
                          allow_nan=False)
    except ValueError:  # a refused estimate, or an infinite time bound json.dumps refuses
        raise UsageError("parameter t/z: regime report leaves the float range") from None
    _emit(None, text + "\n")
    return 0


def _cmd_corr(opts: _Options) -> int:
    z = opts.get("z")
    lo = opts.get("dt_min")
    hi = opts.get("dt_max")
    if hi is None:
        raise UsageError("parameter dt-max: required")
    count = opts.get("count")
    eps = opts.get("eps")
    if count < 2:
        raise UsageError("parameter count: need at least 2 points")
    if not (hi > lo):
        raise UsageError("parameter dt-min/dt-max: need dt-min < dt-max")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("parameter dt-min/dt-max: dt-min and dt-max must be finite")
    if not 0.0 < z < math.inf:
        raise UsageError(f"parameter z: need a finite z > 0, got {z!r}")
    if eps is not None and not 0.0 < eps < math.inf:
        raise UsageError(f"parameter eps: need a finite eps > 0, got {eps!r}")

    step = (hi - lo) / (count - 1)
    if step == math.inf:
        raise UsageError("parameter dt-min/dt-max: dt-max - dt-min leaves the float range")
    lines = [CORR_HEADER]
    for i in range(count):
        dt = lo + step * i
        try:
            if eps is None:
                xx, zz = correlators.corr_transverse(dt, z), correlators.corr_normal(dt, z)
            else:
                xx = correlators.corr_transverse_reg(dt, z, eps)
                zz = correlators.corr_normal_reg(dt, z, eps)
        except LightconeSingularityError:
            lines.append(f"{dt!r},{z!r},,,singular")
            continue
        except ValueError:  # z and eps are checked above: a value outside the float range
            raise UsageError(f"parameter {'dt/z' if eps is None else 'dt/z/eps'}: "
                             f"correlators at dt={dt!r} leave the float range") from None
        lines.append(",".join([repr(dt), repr(z), repr(xx), repr(zz), "ok"]))
    _emit(opts.raw("output"), "\n".join(lines) + "\n")
    return 0


def _cmd_constants(opts: _Options) -> int:
    electron = electron_preset()
    payload = {
        "constants": constants_table(),
        "electron_preset": {
            "e": {"value": electron.e, "unit": "dimensionless (Lorentz-Heaviside)"},
            "m": {"value": electron.m, "unit": "1/m"},
            "alpha_eff": {"value": electron.alpha_eff, "unit": "dimensionless"},
        },
        "unit_system": "Lorentz-Heaviside, c = hbar = 1, reference length 1 m",
    }
    _emit(None, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


# --- parser ---------------------------------------------------------------------

# Every flag, keyed by its dest (the flag is --dest with underscores as
# dashes): the parser that reads its text (None: the value as given), its
# default and its help.  --quantity is the one repeatable flag.
_FLAGS = {
    "config": (None, None, "JSON config file; keys mirror long flags"),
    "particle": (str, None, "particle preset: electron or unit"),
    "charge": (float, None, "override charge e (natural units)"),
    "mass": (float, None, "override mass m (natural units, 1/m)"),
    "z": (_natural_length, 1.0, "distance from plate, e.g. 1e-6m"),
    "t": (_natural_length, None, "elapsed time, e.g. 1e-5m or 3e-14s"),
    "t_over_z": (float, None, "dimensionless t/z"),
    "quantity": (None, None, "quantity id, repeatable"),
    "var": (str, "t_over_z", "swept variable: t, z, or t_over_z"),
    "min": (None, None, "sweep start"),  # read as t/z or as a length, by --var
    "max": (None, None, "sweep end"),
    "count": (int, 50, "number of points"),
    "spacing": (str, "log", "linear or log"),
    "format": (str, "csv", "csv or json"),
    "output": (None, None, "output path (default stdout)"),
    "grid": (str, "full", "full, pre-lightcone, or post-lightcone"),
    "tolerance": (float, None, "override both tolerance tiers"),
    "dt_min": (_natural_length, 0.0, "grid start"),
    "dt_max": (_natural_length, None, "grid end"),
    "eps": (_natural_length, None, "point-splitting regulator; emits regularized kernels"),
}

# name: (handler, help, every flag the handler reads)
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate quantities at one (t, z)",
             ("config", "particle", "charge", "mass", "z", "t", "t_over_z", "quantity")),
    "sweep": (_cmd_sweep, "evaluate quantities over a parameter grid",
              ("config", "particle", "charge", "mass", "var", "min", "max", "count",
               "spacing", "z", "t", "quantity", "format", "output")),
    "verify": (_cmd_verify, "compare closed forms against the quadrature oracle",
               ("config", "particle", "charge", "mass", "z", "grid", "tolerance", "output")),
    "regimes": (_cmd_regimes, "regime report for one (particle, z, t)",
                ("config", "particle", "charge", "mass", "z", "t", "t_over_z")),
    "corr": (_cmd_corr, "dump boundary correlators over a dt grid",
             ("config", "z", "dt_min", "dt_max", "count", "eps", "output")),
    "constants": (_cmd_constants, "dump the constants table as JSON", ()),
}


@functools.cache  # built once per process: six subparsers take about 1 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacbrownian",
        description="Velocity/position dispersions of a charge near a reflecting "
                    "plane, driven by electromagnetic vacuum fluctuations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        # No flag starts with -<digit>, -.<digit>, -inf or -nan, so such a token is a value:
        # argparse's own pattern, which varies by Python version, misses -1e-3 and -1m on
        # some and -inf and -nan on all.
        command._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        for key in flags:
            _, default, flag_help = _FLAGS[key]
            if default is not None:
                flag_help += f" (default {default})"
            command.add_argument("--" + key.replace("_", "-"), dest=key, help=flag_help,
                                 action="append" if key == "quantity" else "store")
        command.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(_Options(args))
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
    except Exception as exc:  # a bug: one line, no traceback, its own code
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
