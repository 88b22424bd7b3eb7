"""In-process side of the benchmark: imports vacbrownian and drives its public API.

`run.py` starts it as ``python3 perfbench/child.py JOB`` where JOB is a JSON
file naming the task (``sweep_table``, ``oracle_audit`` or ``battery``), the
seed, the time budget and the path the result is written to.  The package
is imported before any timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import time

from common import (
    ASYMPTOTES,
    ORACLE_BANDS,
    ORACLE_CYCLES_PER_SECOND,
    QUANTITIES,
    CheckError,
    Speed,
    Tally,
    Tracer,
    budget_loop,
    check_cli_output,
    draw_z,
    expected_failure,
    load_meta,
    log_uniform,
    median,
    oracle_points,
    probe_calls,
    sweep_cycle,
    sweep_rows,
)

import vacbrownian as vb
from vacbrownian import cli_io, correlators, oracle, regimes

KINDS = {
    "vel_disp_transverse": ("velocity", "x"),
    "vel_disp_normal": ("velocity", "z"),
    "pos_disp_transverse": ("position", "x"),
    "pos_disp_normal": ("position", "z"),
}
REFUSALS = (vb.QuadratureConvergenceError, vb.ExtrapolationError, vb.LightconeSingularityError)
REEVAL_SAMPLE = 16  # ok rows re-evaluated per sweep call


def preset(name: str) -> vb.ParticleSpec:
    return vb.electron_preset() if name == "electron" else vb.unit_preset()


def evaluate(quantity: str, p: vb.EvalPoint) -> float:
    """value_natural of one sweep quantity through the public API."""
    if quantity == "effective_temperature":
        return vb.effective_temperature_natural(p.particle, p.z)
    if quantity == "radiated_velocity_sq":
        return vb.radiated_velocity_sq(p.particle, p.z, p.t)
    return getattr(vb, quantity)(p).value


def point_flags(p: vb.EvalPoint) -> tuple[bool, bool]:
    margin = regimes.DEFAULT_MARGIN
    return (p.t < margin * vb.validity_time_limit(p.particle, p.z),
            p.t < margin * vb.radiation_time_limit(p.particle, p.z))


def run_workload(job: dict, tracer: Tracer, run_cycle, cycles: int = 0) -> None:
    """The timed loop: `cycles` cycles if set, else cycles until the time
    budget is spent.  With tracing on, each cycle runs twice, untraced then
    traced, so the two sets of timings give the tracing overhead without
    drift between them."""
    def both(i: int) -> None:
        tracer.enabled = False
        run_cycle(i, False)
        if job["trace"]:
            tracer.enabled = True
            run_cycle(i, True)

    budget_loop(job["seconds"], job["quick"] or cycles, both)


# --- sweep_table ------------------------------------------------------------------

def check_sweep(call: dict, text: str, rng: random.Random) -> None:
    rows = sweep_rows(text, call["format"])
    if len(rows) != call["rows"]:
        raise CheckError(f"sweep wrote {len(rows)} rows, expected {call['rows']}")
    spec = preset(call["preset"])
    ok_rows = []
    for row in rows:
        t, z, quantity, value, status, validity_ok, radiation_ok = row
        p = vb.EvalPoint(t=t, z=z, particle=spec)
        if (status == "singular") != p.near_lightcone:
            raise CheckError(f"row at t/z={t / z!r} is {status} but near_lightcone={p.near_lightcone}")
        if status == "ok":
            ok_rows.append((p, quantity, value, validity_ok, radiation_ok))
    for p, quantity, value, validity_ok, radiation_ok in rng.sample(
            ok_rows, min(REEVAL_SAMPLE, len(ok_rows))):
        again = evaluate(quantity, p)
        if not abs(again - value) <= 1e-12 * abs(again):
            raise CheckError(f"{quantity} at t={p.t!r}, z={p.z!r} re-evaluates to {again!r}, "
                             f"table has {value!r}")
        if point_flags(p) != (validity_ok, radiation_ok):
            raise CheckError(f"regime flags differ at t={p.t!r}, z={p.z!r}")


def sweep_table(job: dict) -> dict:
    rng = random.Random(job["seed"])
    check_rng = random.Random(f"check-{job['seed']}")
    tracer = Tracer(job["run_id"], False, "c", job["parent_span"])
    tally = Tally()
    cycles: list[list[dict]] = []
    times: list[tuple[float, float]] = []  # (start, seconds) of each call
    traced_times: list[tuple[float, float]] = []
    written = [0]  # rows of the untraced calls
    first: dict = {}
    speed = Speed()

    def run_cycle(i: int, traced: bool) -> None:
        while len(cycles) <= i:
            cycles.append(sweep_cycle(rng, job["workdir"]))
        for call in cycles[i]:
            at = speed.stamp()
            try:
                code, seconds = tracer.call("cli_io.main.sweep", cli_io.main, call["argv"])
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                tally.add(False, why=f"sweep raised {exc!r}")
                continue
            (traced_times if traced else times).append((at, seconds))
            try:
                if code != 0:
                    raise CheckError(f"sweep exited {code}")
                with open(call["path"], encoding="utf-8") as handle:
                    text = handle.read()
                check_sweep(call, text, check_rng)
            except CheckError as exc:
                tally.add(False, why=str(exc))
                continue
            tally.add(True)
            if not traced:
                written[0] += call["rows"]
                first.setdefault(call["format"], (call, text))

    run_workload(job, tracer, run_cycle)
    speed.stamp(force=True)
    # Determinism: the first call of each format, run again, writes the same bytes.
    for call, text in first.values():
        cli_io.main(call["argv"])
        with open(call["path"], encoding="utf-8") as handle:
            tally.add(handle.read() == text, why=f"{call['format']} sweep output changed on rerun")
    scaled = speed.scale(times)
    return dict(tally.as_json(), times=scaled, traced_times=speed.scale(traced_times),
                raw_times=[seconds for _, seconds in times], items=written[0],
                seconds=sum(scaled), speed=speed.overall(), spans=tracer.as_json())


# --- oracle_audit -----------------------------------------------------------------

class OracleAudit:
    """Oracle points and verify grids, classified as agreed, refused or disagreed."""

    def __init__(self, tracer: Tracer, meta: dict) -> None:
        self.tracer = tracer
        self.meta = meta
        self.tally = Tally()
        self.counts = {f"{what}.{band}": 0 for what in ("attempted", "refused", "disagreed")
                       for band in ORACLE_BANDS}
        self.worst_rel_err = 0.0  # pre and post points, verify rows
        self.far_worst_rel_err = 0.0
        self.rungs: list[int] = []

    def point(self, pt: dict) -> tuple[float, str]:
        """Time one dispersion_oracle call; returns (seconds, outcome digest)."""
        band, quantity = pt["band"], pt["quantity"]
        p = vb.EvalPoint(t=pt["t_over_z"] * pt["z"], z=pt["z"], particle=preset(pt["preset"]))
        start = time.perf_counter_ns()
        try:
            result = vb.dispersion_oracle(*KINDS[quantity], p)
        except REFUSALS as exc:
            result, outcome = None, type(exc).__name__
        end = time.perf_counter_ns()
        self.tracer.record(f"oracle.point.{band}", start, end)
        self.counts[f"attempted.{band}"] += 1
        if result is None:
            self.counts[f"refused.{band}"] += 1
            ok = False
        else:
            self.rungs.append(len(result.rungs))
            closed = evaluate(quantity, p)
            rel_err = abs(result.value - closed) / abs(closed)
            tol = oracle.TOL_PRE_LIGHTCONE if band == "pre" else oracle.TOL_POST_LIGHTCONE
            ok = rel_err <= tol
            outcome = repr(result.value)
            if band == "far":
                self.far_worst_rel_err = max(self.far_worst_rel_err, rel_err)
            elif ok:
                self.worst_rel_err = max(self.worst_rel_err, rel_err)
            if not ok:
                self.counts[f"disagreed.{band}"] += 1
        self.tally.add(ok, expected_failure(self.meta, band, pt["t_over_z"]),
                       f"{band} {quantity} at t/z={pt['t_over_z']!r}: {outcome}")
        return (end - start) * 1e-9, outcome

    def verify(self, spec: vb.ParticleSpec, z: float) -> tuple[float, str, int]:
        """Time one full verify_grid; returns (seconds, values digest, rows)."""
        rows, seconds = self.tracer.call("oracle.verify_grid", vb.verify_grid, spec, z)
        for row in rows:
            ok = row.passed and math.isfinite(row.oracle)
            band = "pre" if row.t_over_z < 2.0 else "post"
            self.tally.add(ok, expected_failure(self.meta, band, row.t_over_z),
                           f"verify {row.quantity} at t/z={row.t_over_z!r} failed")
            if ok:
                self.worst_rel_err = max(self.worst_rel_err, row.rel_err)
        return seconds, repr([row.oracle for row in rows]), len(rows)


def oracle_audit(job: dict) -> dict:
    rng = random.Random(job["seed"])
    tracer = Tracer(job["run_id"], False, "c", job["parent_span"])
    audit = OracleAudit(tracer, load_meta())
    cycles: list[tuple] = []
    times: list[tuple[float, float]] = []  # (start, seconds) of single oracle points
    traced_times: list[tuple[float, float]] = []
    timed: list[tuple[float, float]] = []  # every call of the untraced cycles
    timed_points = [0]  # in the untraced cycles; verify rows count as points
    digests: list[str] = []
    speed = Speed()

    def run_cycle(i: int, traced: bool) -> None:
        while len(cycles) <= i:
            cycles.append((rng.choice(("electron", "unit")), draw_z(rng),
                           oracle_points(rng, 8, len(cycles))))
        name, z, points = cycles[i]
        at = speed.stamp()
        seconds, digest, n_points = audit.verify(preset(name), z)
        calls = [(at, seconds)]
        if i == 0 and not traced:
            digests.append(digest)
        for pt in points:
            at = speed.stamp()
            seconds, digest = audit.point(pt)
            calls.append((at, seconds))
            (traced_times if traced else times).append((at, seconds))
            if i == 0 and not traced:
                digests.append(digest)
        if not traced:
            timed_points[0] += n_points + len(points)
            timed.extend(calls)

    # A fixed number of cycles, not a time budget: the known oracle failures
    # are counted in `failed`, so every run of a seed must attempt the same
    # operations for two runs of one seed to report the same failures.
    run_workload(job, tracer, run_cycle, round(job["seconds"] * ORACLE_CYCLES_PER_SECOND))
    speed.stamp(force=True)
    # Determinism: the first cycle, run again, gives bit-identical values.
    name, z, points = cycles[0]
    again = [audit.verify(preset(name), z)[1]] + [audit.point(pt)[1] for pt in points]
    audit.tally.add(again == digests, why="oracle values changed on rerun")
    return dict(audit.tally.as_json(), times=speed.scale(times),
                traced_times=speed.scale(traced_times),
                raw_times=[seconds for _, seconds in times], items=timed_points[0],
                seconds=sum(speed.scale(timed)), speed=speed.overall(),
                spans=tracer.as_json())


# --- battery: every layer, fixed seeded work, always traced -------------------------

def battery(job: dict) -> dict:
    """Per-layer metrics from a fixed seeded set of calls into each module."""
    rng = random.Random(f"battery-{job['seed']}")
    tr = Tracer(job["run_id"], True, "b", job["parent_span"])
    audit = OracleAudit(tr, load_meta())
    metrics: dict[str, float] = {}

    def med_us(name: str) -> float:
        return median(tr.durations(name)) * 1e6

    def med_s(name: str) -> float:
        return median(tr.durations(name))

    for _ in range(200):
        tr.call("units_constants.electron_preset", vb.electron_preset)
    metrics["units_constants.electron_preset_us"] = med_us("units_constants.electron_preset")

    for _ in range(200):
        z = draw_z(rng)
        dt = rng.choice((rng.uniform(0.0, 1.9), rng.uniform(2.1, 6.0))) * z
        eps = 1e-3 * z
        tr.call("correlators.corr", vb.corr_transverse, dt, z)
        tr.call("correlators.corr", vb.corr_normal, dt, z)
        tr.call("correlators.kernel_complex", correlators.transverse_kernel_complex,
                complex(dt, -eps), z)
        tr.call("correlators.kernel_complex", correlators.normal_kernel_complex,
                complex(dt, -eps), z)
    metrics["correlators.corr_us"] = med_us("correlators.corr")
    metrics["correlators.kernel_complex_us"] = med_us("correlators.kernel_complex")

    branches = {"series": (1e-6, 1e-2), "pre": (1e-2, 1.99), "post": (2.01, 1e4),
                "large": (1e4, 1e9)}
    electron = vb.electron_preset()
    for branch, (lo, hi) in branches.items():
        for i in range(200):
            z = draw_z(rng)
            p = vb.EvalPoint(t=log_uniform(rng, lo, hi) * z, z=z, particle=electron)
            tr.call(f"dispersion.closed_form.{branch}", getattr(vb, QUANTITIES[i % 4]), p)
            if branch == "post":
                tr.call("dispersion.asym", getattr(vb, ASYMPTOTES[i % 4]), p)
            if branch == "series":
                tr.call("dispersion.small_t_series", vb.small_t_series, QUANTITIES[i % 4], p)
            tr.call("regimes.point_flags", point_flags, p)
            if i % 4 == 0:
                tr.call("regimes.regime_report", vb.regime_report, electron, p.z, p.t)
        metrics[f"dispersion.closed_form_us.{branch}"] = med_us(f"dispersion.closed_form.{branch}")
    metrics["dispersion.asym_us"] = med_us("dispersion.asym")
    metrics["dispersion.small_t_series_us"] = med_us("dispersion.small_t_series")
    metrics["regimes.point_flags_us"] = med_us("regimes.point_flags")
    metrics["regimes.regime_report_us"] = med_us("regimes.regime_report")

    # One rung: the reduced integral of the regularized normal kernel at one eps,
    # with kernel evaluations counted by the benchmark's own wrapper.
    evals = []
    for i in range(8):
        t = rng.uniform(0.1, 1.9)
        eps = oracle.default_regulator(1.0, t).ladder[i % 6]
        count = [0]

        def kernel(u: float, eps: float = eps, count: list = count) -> float:
            count[0] += 1
            return vb.corr_normal_reg(u, 1.0, eps)

        tr.call("oracle.rung", oracle.reduced_time_integral, kernel, t,
                ("velocity", "position")[i % 2])
        evals.append(count[0])
    metrics["oracle.rung_ms"] = med_s("oracle.rung") * 1e3
    metrics["oracle.rung_evals"] = sum(evals) / len(evals)

    for shift in range(4):
        for pt in oracle_points(rng, 8, shift):
            audit.point(pt)
    for _ in range(2):
        audit.verify(rng.choice((electron, vb.unit_preset())), draw_z(rng))
    for band in ORACLE_BANDS:
        metrics[f"oracle.point_ms.{band}"] = med_s(f"oracle.point.{band}") * 1e3
    for key, value in audit.counts.items():
        metrics[f"oracle.{key}"] = value
    metrics["oracle.ladder_rungs"] = sum(audit.rungs) / len(audit.rungs)
    metrics["oracle.worst_rel_err"] = audit.worst_rel_err
    metrics["oracle.far_worst_rel_err"] = audit.far_worst_rel_err
    metrics["oracle.verify_grid_s"] = med_s("oracle.verify_grid")

    # Warm subcommands: the same argv run.py runs cold, stdout captured.
    for call in probe_calls(job["seed"]):
        for rep in range(3):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                code, _ = tr.call(f"cli_io.subcommand.{call['command']}", cli_io.main, call["argv"])
            if rep == 0:
                try:
                    check_cli_output(call, code, sink.getvalue())
                    audit.tally.add(True)
                except CheckError as exc:
                    audit.tally.add(False, why=str(exc))
        metrics[f"cli_io.subcommand_s.{call['command']}"] = med_s(f"cli_io.subcommand.{call['command']}")

    # Sweep split into evaluate, format and write: sweep_s - evaluate_s - write_s is format time.
    z = draw_z(rng)
    texts = {}
    for fmt in ("csv", "json"):
        path = os.path.join(job["workdir"], f"battery.{fmt}")
        argv = ["sweep", "--var", "t_over_z", "--min", "1e-3", "--max", "1e5", "--count", "2000",
                "--z", f"{z!r}m", "--format", fmt, "--output", path]
        for _ in range(2):
            tr.call(f"cli_io.sweep.{fmt}", cli_io.main, argv)
        with open(path, encoding="utf-8") as handle:
            text = texts[fmt] = handle.read()
        metrics[f"cli_io.sweep_s.{fmt}"] = med_s(f"cli_io.sweep.{fmt}")
        metrics[f"cli_io.sweep_bytes_written.{fmt}"] = len(text.encode("utf-8"))
        copy = os.path.join(job["workdir"], f"battery-copy.{fmt}")
        for _ in range(3):
            tr.call(f"cli_io.sweep_write.{fmt}", write_text, copy, text)
        metrics[f"cli_io.sweep_write_s.{fmt}"] = med_s(f"cli_io.sweep_write.{fmt}")
    grid = sorted({(row[0], row[1]) for row in sweep_rows(texts["csv"], "csv")})
    for _ in range(2):
        tr.call("cli_io.sweep_evaluate", replay_sweep, grid)
    metrics["cli_io.sweep_evaluate_s"] = med_s("cli_io.sweep_evaluate")

    # Rows in the lightcone window, from the cycle's linear grid centred on t/z = 2.
    window = sweep_cycle(rng, job["workdir"])[4]
    code = cli_io.main(window["argv"])
    audit.tally.add(code == 0, why=f"window sweep exited {code}")
    with open(window["path"], encoding="utf-8") as handle:
        rows = sweep_rows(handle.read(), window["format"])
    metrics["dispersion.singular_rows"] = sum(1 for row in rows if row[4] == "singular")
    return dict(audit.tally.as_json(), metrics=metrics, spans=tr.as_json())


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def replay_sweep(grid: list[tuple[float, float]]) -> None:
    """The evaluation a default sweep does, through the public dispersion and regimes calls."""
    spec = vb.electron_preset()
    for t, z in grid:
        p = vb.EvalPoint(t=t, z=z, particle=spec)
        point_flags(p)
        for quantity in QUANTITIES:
            try:
                getattr(vb, quantity)(p)
            except vb.LightconeSingularityError:
                pass


TASKS = {"sweep_table": sweep_table, "oracle_audit": oracle_audit, "battery": battery}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(vb.__file__).startswith(src + os.sep):
        print(f"error: imported vacbrownian from {vb.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = TASKS[job["task"]](job)
    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
