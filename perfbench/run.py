"""vacbrownian benchmark: cold CLI calls, sweep tables and the oracle audit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {cli_mix,sweep_table,oracle_audit} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics listed in BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  The line before it records the run context.  Spans and
the full result go to ``.perfbench_work/``.

This process never imports vacbrownian.  It drives the program from the
outside: cold ``python3 -m vacbrownian.cli_io`` subprocesses, and
``child.py`` subprocesses that import the package and call its public
functions.  One child runs at a time and nothing here starts a thread.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

from common import (
    CLI_COMMANDS,
    CheckError,
    Tally,
    Tracer,
    budget_loop,
    check_cli_output,
    cli_blocks,
    load_meta,
    median,
    p90,
    probe_calls,
)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench_work")
CALL_TIMEOUT_S = 120.0
SETUP_REPEATS = 3  # before the workload, and as many again after it


class Runner:
    """Starts one child at a time and measures its wall time and peak RSS."""

    def __init__(self, workdir: str, tracer: Tracer) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=SRC)
        # Cache bytecode next to the sources, as an installed package has it,
        # whatever the caller's environment says.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.last_rss_mb = 0.0  # peak RSS of the last child, from os.wait4

    def run(self, argv: list[str], span: str, span_id: str | None = None
            ) -> tuple[int, float, str]:
        """(exit code, seconds, stdout) of one child process, recorded as one span."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            end = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.tracer.record(span, start, end, span_id=span_id)
        self.last_rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        return proc.returncode, (end - start) * 1e-9, stdout

    def python(self, code: str, span: str) -> float:
        rc, seconds, _ = self.run([sys.executable, "-c", code], span)
        if rc != 0:
            raise RuntimeError(f"python -c {code!r} exited {rc}")
        return seconds

    def child(self, job: dict, span: str) -> dict:
        """Run child.py on one job; returns its result with the child's peak RSS."""
        job_path = os.path.join(self.workdir, f"job-{job['task']}.json")
        job["out"] = os.path.join(self.workdir, f"result-{job['task']}.json")
        job["src"] = SRC
        job["workdir"] = self.workdir
        job["parent_span"] = self.tracer.new_id()  # the child's spans hang off its process span
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        rc, _, _ = self.run([sys.executable, os.path.join(HERE, "child.py"), job_path], span,
                            job["parent_span"])
        if rc != 0:
            with open(os.path.join(self.workdir, "stderr"), encoding="utf-8") as handle:
                raise RuntimeError(f"child {job['task']} exited {rc}: {handle.read()[-2000:]}")
        with open(job["out"], encoding="utf-8") as handle:
            result = json.load(handle)
        result["peak_rss_mb"] = self.last_rss_mb
        return result


# --- workloads ----------------------------------------------------------------------

def cli_mix(runner: Runner, args: argparse.Namespace) -> dict:
    """Closed loop, one client: back-to-back cold CLI subprocesses."""
    times, traced_times = [], []
    first: list[tuple[dict, str]] = []
    peak_rss_mb = [0.0]
    tally = Tally()

    def one(call: dict, traced: bool, samples: list) -> str:
        runner.tracer.enabled = traced
        code, seconds, out = runner.run(
            [sys.executable, "-m", "vacbrownian.cli_io", *call["argv"]],
            f"cli_io.subprocess.{call['command']}")
        samples.append(seconds)
        peak_rss_mb[0] = max(peak_rss_mb[0], runner.last_rss_mb)
        try:
            check_cli_output(call, code, out)
        except CheckError as exc:
            tally.add(False, why=f"{call['argv']}: {exc}")
        else:
            tally.add(True)
        return out

    # A run may stop after any call: every call costs about the same, and
    # stopping only after whole blocks would make the sample count jump by six.
    calls = (call for block in cli_blocks(args.seed) for call in block)

    def run_call(i: int) -> None:
        call = next(calls)
        out = one(call, False, times)
        if not first:
            first.append((call, out))
        if args.trace:  # the same call again, traced, for the overhead
            one(call, True, traced_times)

    budget_loop(args.seconds, args.quick * len(CLI_COMMANDS), run_call)
    # Determinism: the first call, run again, prints the same bytes.
    call, out = first[0]
    _, _, again = runner.run([sys.executable, "-m", "vacbrownian.cli_io", *call["argv"]],
                             f"cli_io.subprocess.{call['command']}")
    tally.add(again == out, why="first call printed different bytes on rerun")
    return {
        **tally.as_json(), "times": times, "traced_times": traced_times,
        "items": len(times), "seconds": sum(times), "peak_rss_mb": peak_rss_mb[0],
        "spans": [],
    }


def in_child(task: str):
    def workload(runner: Runner, args: argparse.Namespace) -> dict:
        return runner.child({"task": task, "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "quick": args.quick,
                             "run_id": runner.tracer.run_id}, f"child.{task}")
    return workload


WORKLOADS = {"cli_mix": cli_mix, "sweep_table": in_child("sweep_table"),
             "oracle_audit": in_child("oracle_audit")}


# --- metrics ---------------------------------------------------------------------------

def end_to_end(result: dict, setup: list[float]) -> dict:
    """The in-process workloads' times come already at reference speed (see
    Speed in common.py).  Subprocess start and import track the calibration
    loop poorly: on cli_mix and set-up, scaling widened the spread of ten runs
    instead of narrowing it, so those times stay as measured."""
    times = result["times"]
    return {
        "setup_s": median(setup),
        "latency_p50_s": median(times),
        "latency_p90_s": p90(times),
        "throughput_per_s": result["items"] / result["seconds"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(runner: Runner, args: argparse.Namespace, result: dict) -> dict:
    repeats = 1 if args.quick else 3
    metrics = {}
    for name, code in (("interpreter", "pass"), ("scipy_integrate", "import scipy.integrate"),
                       ("vacbrownian", "import vacbrownian")):
        metrics[f"import.{name}_s"] = median(
            [runner.python(code, f"import.{name}") for _ in range(repeats)])
    # fail_ratio covers the workload's own operations; the probes and the battery
    # below add to attempted, and to failed only where they fail unexpectedly
    # (the oracle's known refusals there are the oracle.* counts).
    metrics["fail_ratio"] = result["failed"] / result["attempted"]
    for call in probe_calls(args.seed):
        code, seconds, out = runner.run(
            [sys.executable, "-m", "vacbrownian.cli_io", *call["argv"]],
            f"cli_io.subprocess.{call['command']}")
        metrics[f"cli_io.subprocess_s.{call['command']}"] = seconds
        result["attempted"] += 1
        try:
            check_cli_output(call, code, out)
        except CheckError as exc:
            result["failed"] += 1
            result["unexpected"].append(f"probe {call['argv']}: {exc}")
    battery = runner.child({"task": "battery", "seed": args.seed, "run_id": runner.tracer.run_id},
                           "child.battery")
    metrics.update(battery["metrics"])
    result["spans"] += battery["spans"]
    result["attempted"] += battery["attempted"]
    result["failed"] += len(battery["unexpected"])
    result["unexpected"] += battery["unexpected"]
    untraced, traced = sum(result["times"]), sum(result["traced_times"])
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return metrics


def context() -> dict:
    """Machine, versions, commit and src/ line count, printed next to the metrics."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT).stdout.strip() or commit
    lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    lines += sum(1 for _ in handle)
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": versions[0], "scipy": versions[1], "commit": commit, "src_lines": lines}


def declared_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(SRC, "vacbrownian", "__init__.py")):
        print(f"error: no vacbrownian sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run_id = f"{args.workload}-{args.seed}-trace{args.trace}"
    runner = Runner(workdir, Tracer(run_id, bool(args.trace), "p"))
    info = context()

    # Set-up is timed before and after the workload, so its median samples the
    # machine's speed across the run rather than in the first few seconds.
    setup = []
    repeats = 0 if args.trace else 1 if args.quick else SETUP_REPEATS
    if repeats:
        runner.python("import vacbrownian", "setup.warmup")  # fills the bytecode cache
    setup += [runner.python("import vacbrownian", "setup") for _ in range(repeats)]
    result = WORKLOADS[args.workload](runner, args)
    setup += [runner.python("import vacbrownian", "setup") for _ in range(repeats)]
    if args.trace:
        values = per_layer(runner, args, result)
    else:
        values = end_to_end(result, setup)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    report = {
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    info["samples"] = len(result["times"])
    info["speed_factor"] = result.get("speed", 1.0)
    with open(os.path.join(WORK, f"{run_id}.json"), "w", encoding="utf-8") as handle:
        json.dump({"context": info, "result": report, "times": result["times"],
                   "traced_times": result["traced_times"],
                   "raw_times": result.get("raw_times"), "setup": setup,
                   "speed": result.get("speed"),
                   "unexpected": result["unexpected"],
                   "expected_failures": load_meta()["expected_failures"],
                   "spans": runner.tracer.as_json() + result["spans"]}, handle)
    for why in result["unexpected"]:
        print(f"unexpected failure: {why}", file=sys.stderr)
    print(json.dumps({"context": info}))
    print(json.dumps(report))
    return 0


# --- smoke test --------------------------------------------------------------------------

REPEATING_UNITS = ("count", "ratio", "rel")


def smoke() -> int:
    """Quick self-test: every metric printed with its unit, counts repeat for a fixed seed."""
    problems = []

    def once(workload: str, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace), "--quick", "1"],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            problems.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            return {}
        return json.loads(proc.stdout.strip().split("\n")[-1])

    for workload in WORKLOADS:
        for trace in (0, 1):
            first = once(workload, trace)
            if not first:
                continue
            units = declared_metrics(trace)
            for name, unit in units.items():
                got = first["metrics"].get(name)
                if not got or got["unit"] != unit or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload}: metric {name} missing or without unit {unit}")
            if not first["correct"]:
                problems.append(f"{workload} trace {trace}: correct is false")
            if trace and workload == "oracle_audit":
                second = once(workload, trace)
                for key in ("attempted", "failed"):
                    if second.get(key) != first[key]:
                        problems.append(f"{workload}: {key} differs between runs of one seed")
                for name, unit in units.items():
                    if unit in REPEATING_UNITS and \
                            second["metrics"][name]["value"] != first["metrics"][name]["value"]:
                        problems.append(f"{workload}: {name} differs between runs of one seed")
                failures = {n: first["metrics"][n]["value"] for n in
                            ("oracle.refused.far", "oracle.disagreed.far", "fail_ratio")}
                if not all(failures.values()):
                    problems.append(f"known far-band failures not visible: {failures}")
            print(f"smoke: {workload} trace {trace} ok" if not problems else
                  f"smoke: {workload} trace {trace}: {problems}", flush=True)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", type=int, default=0,
                        help="run this many cycles instead of --seconds (smoke test)")
    parser.add_argument("--smoke", action="store_true", help="run the quick self-test")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
