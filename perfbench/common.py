"""Shared pieces of the benchmark: seeded inputs, output checks and spans.

Both sides import this module: `run.py` (the parent process, which never
imports vacbrownian) and `child.py` (the in-process side).  Everything here is
standard library only.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))

QUANTITIES = (
    "vel_disp_transverse",
    "vel_disp_normal",
    "pos_disp_transverse",
    "pos_disp_normal",
)
ASYMPTOTES = tuple(q + "_asym" for q in QUANTITIES)
REGIME_QUANTITIES = ("effective_temperature", "radiated_velocity_sq")
PRESETS = ("electron", "unit")

# Output formats the README documents for the CLI.
SWEEP_HEADER = "t,z,t_over_z,quantity,value_natural,value_si,status,validity_ok,radiation_ok"
VERIFY_HEADER = "quantity,t/z,closed,oracle,rel_err,eps_estimate,pass"
CORR_HEADER = "dt,z,corr_transverse,corr_normal,status"

Z_RANGE = (1e-9, 1e-3)  # metres, drawn log-uniform
PRE_SIDE = (1e-3, 1.95)  # t/z before the lightcone, for cli calls
POST_SIDE = (2.05, 1e4)  # t/z after it
ORACLE_BANDS = {"pre": (1e-3, 2.0), "post": (2.0, 100.0), "far": (100.0, 1e6)}


def load_meta() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as handle:
        return json.load(handle)


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n log-uniform draws, the i-th from the i-th of n equal log-strata.

    Every band is then sampled across its whole range in each cycle, so
    no seed can skip the part of a band where the oracle is known to fail.
    """
    a, b = math.log(lo), math.log(hi)
    step = (b - a) / n
    return [math.exp(a + step * (i + rng.random())) for i in range(n)]


def draw_z(rng: random.Random) -> float:
    return log_uniform(rng, *Z_RANGE)


# --- cli_mix calls -------------------------------------------------------------

CLI_COMMANDS = ("eval", "regimes", "corr", "constants", "sweep", "verify")


def _side_ratio(rng: random.Random) -> float:
    return log_uniform(rng, *(PRE_SIDE if rng.random() < 0.5 else POST_SIDE))


def cli_call(command: str, rng: random.Random) -> dict:
    """One CLI invocation: argv after the module name, expected exit, output shape."""
    z = draw_z(rng)
    preset = rng.choice(PRESETS)
    call = {"command": command, "exit": 0, "output": "json", "rows": None}
    if command == "eval":
        picks = [rng.choice(QUANTITIES)]
        picks += rng.sample(REGIME_QUANTITIES, rng.randint(0, 2))
        if rng.random() < 0.1:
            # t = 2z exactly: the documented lightcone refusal, exit 3.
            ratio, call["exit"], call["output"] = 2.0, 3, "empty"
        else:
            ratio = _side_ratio(rng)
        if ratio > 2.0 and rng.random() < 0.5:
            picks.append(rng.choice(ASYMPTOTES))
        argv = ["eval", "--particle", preset, "--z", f"{z!r}m", "--t-over-z", repr(ratio)]
        for q in picks:
            argv += ["--quantity", q]
        call["quantities"] = picks
    elif command == "regimes":
        argv = ["regimes", "--particle", preset, "--z", f"{z!r}m",
                "--t-over-z", repr(_side_ratio(rng))]
    elif command == "corr":
        argv = ["corr", "--z", f"{z!r}m", "--dt-max", f"{rng.uniform(1.0, 10.0) * z!r}m",
                "--count", "50"]
        call["output"], call["rows"] = "corr", 50
    elif command == "constants":
        argv = ["constants"]
    elif command == "sweep":
        picks = rng.sample(QUANTITIES, rng.randint(1, 4))
        argv = ["sweep", "--particle", preset, "--var", "t_over_z", "--z", f"{z!r}m",
                "--min", repr(log_uniform(rng, *PRE_SIDE)),
                "--max", repr(log_uniform(rng, *POST_SIDE)), "--count", "50",
                "--format", rng.choice(("csv", "json"))]
        for q in picks:
            argv += ["--quantity", q]
        call["output"] = "sweep_" + argv[argv.index("--format") + 1]
        call["rows"] = 50 * len(picks)
    elif command == "verify":
        argv = ["verify", "--grid", "pre-lightcone", "--z", f"{z!r}m"]
        call["output"], call["rows"] = "verify", 20
    else:
        raise ValueError(f"unknown command {command!r}")
    call["argv"] = argv
    return call


def probe_calls(seed: int) -> list[dict]:
    """One call per subcommand, run both warm (in-process) and cold in the traced run."""
    rng = random.Random(f"probe-{seed}")
    return [cli_call(command, rng) for command in CLI_COMMANDS]


def cli_blocks(seed: int):
    """Endless seeded stream of cli_mix blocks.

    Each block of six calls holds every subcommand once, in seeded order,
    so the mix is the same on every seed and only the arguments vary.
    """
    rng = random.Random(seed)
    while True:
        yield [cli_call(command, rng)
               for command in rng.sample(CLI_COMMANDS, len(CLI_COMMANDS))]


# --- sweep_table calls -----------------------------------------------------------

SWEEP_POINTS = 2000


def sweep_cycle(rng: random.Random, outdir: str) -> list[dict]:
    """One cycle of seven `main(["sweep", ...])` calls, CSV alternating with JSON.

    Every call writes the same number of rows (2,000 points, four
    quantities), so the call latencies form one CSV and one JSON cluster
    and the 4:3 mix keeps the median inside the CSV cluster and the 90th
    percentile inside the JSON one.  The seed draws the ranges, the
    particle and z.  Together the calls cover the series branch
    (t/z < 1e-2), both sides of the lightcone, t/z > 1e4, the lightcone
    window itself (a linear grid of odd length centred on t/z = 2 puts one
    point inside it), the asymptotes and both regime quantities.
    """
    z = draw_z(rng)
    series = (log_uniform(rng, 1e-7, 1e-5), log_uniform(rng, 2e-3, 9e-3))
    pre = (log_uniform(rng, 1e-2, 0.1), log_uniform(rng, 1.0, 1.9))
    post = (log_uniform(rng, 2.1, 5.0), log_uniform(rng, 1e3, 1e4))
    large = (log_uniform(rng, 1e4, 1e5), log_uniform(rng, 1e7, 1e9))
    full = (log_uniform(rng, 1e-6, 1e-4), log_uniform(rng, 1e5, 1e7))
    half = rng.uniform(0.05, 0.5)
    t_fixed = log_uniform(rng, 1e4, 1e5) * z
    base = list(QUANTITIES)
    mixed = ["vel_disp_transverse", "pos_disp_normal", "radiated_velocity_sq",
             "effective_temperature"]
    n = SWEEP_POINTS
    specs = [
        ("t_over_z", series, "log", n, base, "csv"),
        ("t_over_z", pre, "log", n, base, "json"),
        ("t", post, "log", n, mixed, "csv"),
        ("z", large, "log", n, base, "json"),
        ("t_over_z", (2.0 - half, 2.0 + half), "linear", n + 1, base, "csv"),
        ("t_over_z", post, "log", n, list(ASYMPTOTES), "json"),
        ("t", full, "log", n, base, "csv"),
    ]
    calls = []
    for var, (lo, hi), spacing, count, quantities, fmt in specs:
        preset = rng.choice(PRESETS)
        if var == "t_over_z":
            bounds, fixed = (repr(lo), repr(hi)), ["--z", f"{z!r}m"]
        elif var == "t":
            bounds, fixed = (f"{lo * z!r}m", f"{hi * z!r}m"), ["--z", f"{z!r}m"]
        else:  # z sweep at fixed t: t/z runs from hi down to lo
            bounds, fixed = (f"{t_fixed / hi!r}m", f"{t_fixed / lo!r}m"), ["--t", f"{t_fixed!r}m"]
        argv = ["sweep", "--particle", preset, "--var", var, "--min", bounds[0],
                "--max", bounds[1], "--count", str(count), "--spacing", spacing, *fixed,
                "--format", fmt, "--output", os.path.join(outdir, f"sweep.{fmt}")]
        for q in quantities:
            argv += ["--quantity", q]
        calls.append({"argv": argv, "format": fmt, "preset": preset,
                      "rows": count * len(quantities), "path": argv[argv.index("--output") + 1]})
    return calls


# --- oracle_audit points ----------------------------------------------------------

# oracle_audit cycles per second of --seconds: a cycle takes about 0.12 s on
# the reference machine, so a run measures for about --seconds there.
ORACLE_CYCLES_PER_SECOND = 8


def oracle_points(rng: random.Random, per_band: int, shift: int = 0) -> list[dict]:
    """Seeded oracle points: per_band in each band, quantities in turn from `shift`.

    Calls with shift 0 to 3 give every stratum of every band each quantity once.
    """
    points = []
    for band, (lo, hi) in ORACLE_BANDS.items():
        for i, ratio in enumerate(stratified(rng, lo, hi, per_band)):
            points.append({"band": band, "quantity": QUANTITIES[(i + shift) % 4], "t_over_z": ratio,
                           "z": draw_z(rng), "preset": rng.choice(PRESETS)})
    return points


def expected_failure(meta: dict, band: str, t_over_z: float) -> bool:
    """True when an oracle refusal or disagreement here is a recorded baseline defect."""
    known = meta["expected_failures"]["oracle_audit"]
    if band in known["bands"]:
        return True
    return abs(t_over_z - 2.0) < known["near_lightcone_halfwidth"]


# --- output checks ------------------------------------------------------------------

class CheckError(Exception):
    """An output does not meet what the README promises."""


def _reject_constant(name: str) -> float:
    raise CheckError(f"non-standard JSON constant {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"non-finite number {text}")
    return value


def parse_json_strict(text: str):
    """RFC 8259 JSON: NaN, Infinity and overflowing numbers are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def parse_csv(text: str, header: str, numeric: tuple[int, ...]) -> list[list[str]]:
    """Rows of a CSV table; the numeric columns must be empty or finite."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckError("CSV does not end with a newline")
    if lines[0] != header:
        raise CheckError(f"unexpected CSV header {lines[0]!r}")
    width = header.count(",") + 1
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != width:
            raise CheckError(f"CSV row has {len(cells)} cells, expected {width}")
        for i in numeric:
            if cells[i] != "":
                try:
                    _finite_float(cells[i])
                except ValueError:
                    raise CheckError(f"CSV cell {cells[i]!r} is not a number") from None
        rows.append(cells)
    return rows


def sweep_rows(text: str, fmt: str) -> list[tuple[float, float, str, float | None, str, bool, bool]]:
    """(t, z, quantity, value_natural, status, validity_ok, radiation_ok) per row."""
    if fmt == "csv":
        rows = []
        for c in parse_csv(text, SWEEP_HEADER, (0, 1, 2, 4, 5)):
            if c[6] not in ("ok", "singular") or c[7] not in ("true", "false") \
                    or c[8] not in ("true", "false"):
                raise CheckError(f"bad sweep row {','.join(c)!r}")
            value = float(c[4]) if c[4] else None
            if (value is None) != (c[6] == "singular"):
                raise CheckError(f"value cell does not match status in {','.join(c)!r}")
            rows.append((float(c[0]), float(c[1]), c[3], value, c[6],
                         c[7] == "true", c[8] == "true"))
        return rows
    rows = []
    try:
        for r in parse_json_strict(text):
            value = r["value_natural"]["value"]
            if r["status"] not in ("ok", "singular") or (value is None) != (r["status"] == "singular"):
                raise CheckError(f"bad sweep record {r!r}")
            rows.append((r["t"]["value"], r["z"]["value"], r["quantity"], value, r["status"],
                         r["validity_ok"], r["radiation_ok"]))
    except (KeyError, TypeError) as exc:
        raise CheckError(f"sweep record lacks a field: {exc!r}") from None
    return rows


def check_cli_output(call: dict, code: int, out: str) -> None:
    """Raise CheckError unless one cli_mix call behaved as documented."""
    if code != call["exit"]:
        raise CheckError(f"{call['command']}: exit {code}, expected {call['exit']}")
    kind = call["output"]
    if kind == "empty":
        if out:
            raise CheckError(f"{call['command']}: refusal printed to stdout")
        return
    if kind == "json":
        record = parse_json_strict(out)
        if call["command"] == "eval":
            for q in call["quantities"]:
                try:
                    value = record["quantities"][q]["value_natural"]
                except (KeyError, TypeError):
                    value = None
                if not isinstance(value, float):
                    raise CheckError(f"eval: {q} has no value")
        return
    if kind == "sweep_json":
        rows = sweep_rows(out, "json")
    elif kind == "sweep_csv":
        rows = sweep_rows(out, "csv")
    elif kind == "corr":
        rows = parse_csv(out, CORR_HEADER, (0, 1, 2, 3))
    else:
        rows = parse_csv(out, VERIFY_HEADER, (1, 2, 3, 4, 5))
        if any(r[6] != "true" for r in rows):
            raise CheckError("verify: a row failed its tolerance")
    if len(rows) != call["rows"]:
        raise CheckError(f"{call['command']}: {len(rows)} rows, expected {call['rows']}")


class Tally:
    """Operations attempted and failed; failures outside the expected classes are kept by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, ok: bool, expected: bool = False, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not expected:
                self.unexpected.append(why)

    def as_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "unexpected": self.unexpected}


# --- spans ------------------------------------------------------------------------

class Tracer:
    """In-memory spans (id, name, start, end, parent, run id), written out at the end.

    When disabled, `call` still runs the function and returns its duration,
    so traced and untraced runs execute the same code path apart from the
    recording itself.
    """

    def __init__(self, run_id: str, enabled: bool, prefix: str, root_parent: str | None = None):
        self.run_id = run_id
        self.enabled = enabled
        self.prefix = prefix
        self.parent = root_parent
        self.spans: list[tuple] = []
        self._next = 0

    def new_id(self) -> str:
        self._next += 1
        return f"{self.prefix}{self._next}"

    def record(self, name: str, start: int, end: int, span_id: str | None = None) -> None:
        if self.enabled:
            self.spans.append((span_id or self.new_id(), name, start, end, self.parent,
                               self.run_id))

    def call(self, name: str, fn, *args):
        """(result, seconds) of fn(*args), recorded as one span."""
        start = time.perf_counter_ns()
        result = fn(*args)
        end = time.perf_counter_ns()
        self.record(name, start, end)
        return result, (end - start) * 1e-9

    def durations(self, name: str) -> list[float]:
        return [(s[3] - s[2]) * 1e-9 for s in self.spans if s[1] == name]

    def as_json(self) -> list[dict]:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "run_id")
        return [dict(zip(keys, s)) for s in self.spans]


def budget_loop(seconds: float, quick: int, run_cycle) -> int:
    """Run cycles 0, 1, ... until `seconds` are spent, or exactly `quick` cycles if set.

    Runs stop only between whole cycles, so every run does the same mix of work.
    """
    start = time.perf_counter()
    n = 0
    while True:
        run_cycle(n)
        n += 1
        if (n >= quick) if quick else (time.perf_counter() - start >= seconds):
            return n


# --- machine speed ------------------------------------------------------------------

# calibration_loop() time, in seconds, on an idle reference machine.
CALIBRATION_NOMINAL_S = 0.0010


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that calls nothing of vacbrownian."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    parts = []
    for k in range(2000):
        x = (k + 0.5) * 1.0000001
        acc += math.sqrt(x) / (1.0 + x)
        table[k & 1023] = (x, acc)
        if k & 7 == 0:
            parts.append(repr(acc))
    ",".join(parts)
    return time.perf_counter() - start


class Speed:
    """How fast the machine runs Python around each operation, relative to the reference.

    The reference machine is shared, and the same work runs up to 40% slower
    or faster from one second to the next and for minutes at a time.  Before
    an operation, at most every `interval` seconds, `stamp` times the
    calibration loop (median of three).  `scale` divides each operation's time
    by the slowdown measured around it: the median calibration time from
    `halfwidth` seconds before the operation starts to `halfwidth` seconds
    after it ends, from at least the `nearest` samples closest to its start,
    over the nominal time.  This reports
    the in-process workloads at reference speed and cancels most of the
    drift within and between runs.
    """

    def __init__(self, interval: float = 0.1, halfwidth: float = 0.5, nearest: int = 3) -> None:
        self.interval = interval
        self.halfwidth = halfwidth
        self.nearest = nearest
        self.samples: list[tuple[float, float]] = []  # (perf_counter, loop seconds)
        self._last = -math.inf

    def stamp(self, force: bool = False) -> float:
        """Calibrate if due (or forced); returns the start time of the next operation."""
        now = time.perf_counter()
        if force or now - self._last >= self.interval:
            self.samples.append((now, median([calibration_loop() for _ in range(3)])))
            now = self._last = time.perf_counter()
        return now

    def factor(self, at: float, seconds: float) -> float:
        """Slowdown against the reference around an operation from `at` on."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, at - self.halfwidth)
        hi = bisect.bisect_right(times, at + seconds + self.halfwidth)
        if hi - lo >= self.nearest:
            near = self.samples[lo:hi]
        else:
            near = sorted(self.samples, key=lambda s: abs(s[0] - at))[:self.nearest]
        return median([seconds for _, seconds in near]) / CALIBRATION_NOMINAL_S

    def scale(self, timed: list[tuple[float, float]]) -> list[float]:
        """Operation times, given as (start, seconds), at reference speed."""
        return [seconds / self.factor(at, seconds) for at, seconds in timed]

    def overall(self) -> float:
        """The run's median slowdown, for the record."""
        return median([seconds for _, seconds in self.samples]) / CALIBRATION_NOMINAL_S


# --- statistics -------------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]
