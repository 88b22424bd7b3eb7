"""In-process A/B of the quadrature oracle: a changed source tree against its parent.

    python3 tools/ab_oracle.py PARENT_SRC CHANGE_SRC [--repeats N] [--points N]

PARENT_SRC and CHANGE_SRC are directories that hold a `vacbrownian` package,
such as the `src` of two checkouts.  The package imports itself by relative
imports only, so each tree loads under its own name and both run in one
process, on one interpreter and one CPU state; the script itself needs only
the standard library.  A separate process per tree would add its own
start-up and cache noise to differences of a few percent.

The script first compares the two trees' `dispersion_oracle` outcomes, the
value and error estimate or the refusal's type and message, at every probe
point, and their full `verify_grid` rows cell by cell.  It prints, for each
band of t/z and for the grid, how many differ; of those, how many refusals
appeared (the parent answered, the change refused), went (the reverse) or
were reworded (both refused, with another type or message), which move
nothing; and the largest move of an answered value in units of the parent's
error estimate:

    post  outcomes differ 3 of 40  refusals appeared 0  gone 0  reworded 1  largest move 0.021 parent estimates
    grid  cells differ 1 of 252  largest move 0 parent estimates

then, per band and for the grid, how many of each tree's points perfbench's
oracle_audit would count as failed, refused or off the closed form by more
than the band's TOL_* tier (for the grid: rows that do not pass), so that a
change's effect on the benchmark's failure-share gate shows before it runs:

    far   failed parent 25  change 25  of 40

and, per band, each tree's median and worst relative error against the
closed form over the points it answered (nan if it answered none), so that a
shift in the oracle's accuracy, the far band's cancellation noise above all,
shows before the benchmark runs:

    far   rel err median parent 1.02e-07  change 4.04e-08  worst parent 4.97e-04  change 3.15e-04

Then it runs ``--repeats`` rounds.  Each round times, for each tree
in turn (which tree goes first alternates by round), the probe points of each
band of t/z, drawn by perfbench's own `oracle_points` from a generator seeded
401 (pre 1e-3 to 2, post 2 to 100, far 100 to 1e6; z log-uniform in
[1e-9, 1e-3] m, electron or unit preset, the four quantities in turn), one
full `verify_grid` on an empty memo (grid), and the same grid again on the
memo that one filled (warm), as most of oracle_audit's grids run: no rule
runs there, only the closed forms, the prefactors and the refusals.  Before
the rounds it prints, for each probe, the `_gk21` rule calls and rule rows
that each tree makes per call (per point, or per grid), counted on one
untimed run:

    far   rule calls parent 1.25  change 1.00  rows parent 17.32  change 7.53
    warm  rule calls parent 0.00  change 0.00  rows parent 0.00  change 0.00

and after them one line per probe:

    pre   change/parent 0.712  q1 0.701  q3 0.730  parent 0.3510 ms  change 0.2500 ms  rounds 15

the median and quartiles over rounds of the paired ratio change/parent, and
each tree's median time per call.  A ratio below 1 means the change is
faster.  The script exits 1 at the end if any outcome or grid cell differed,
and 0 otherwise: its exit code says nothing about speed.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from common import ORACLE_BANDS, oracle_points  # noqa: E402  (standard library only)

SEED = 401  # of the drawn points
OUTCOME_LINE = ("{probe:<5} outcomes differ {differ} of {of}  refusals appeared {appeared}  "
                "gone {gone}  reworded {reworded}  largest move {move:.3g} parent estimates")
GRID_LINE = "grid  cells differ {differ} of {of}  largest move {move:.3g} parent estimates"
FAILED_LINE = "{probe:<5} failed parent {failed[parent]}  change {failed[change]}  of {of}"
ERROR_LINE = ("{probe:<5} rel err median parent {median[parent]:.2e}  change {median[change]:.2e}  "
              "worst parent {worst[parent]:.2e}  change {worst[change]:.2e}")
RULE_LINE = ("{probe:<5} rule calls parent {calls[parent]:.2f}  change {calls[change]:.2f}  "
             "rows parent {rows[parent]:.2f}  change {rows[change]:.2f}")
LINE = ("{probe:<5} change/parent {ratio:.3f}  q1 {q1:.3f}  q3 {q3:.3f}  "
        "parent {parent:.4f} ms  change {change:.4f} ms  rounds {rounds}")


class Tree:
    """One source tree's `vacbrownian`, imported under the package name ``name``."""

    def __init__(self, src: str, name: str) -> None:
        init = Path(src, "vacbrownian", "__init__.py")
        if not init.is_file():
            raise SystemExit(f"error: no vacbrownian package under {src!r}")
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[str(init.parent)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
        self.oracle = importlib.import_module(f"{name}.oracle")
        self.dispersion = importlib.import_module(f"{name}.dispersion")
        self.refusal = importlib.import_module(f"{name}.errors").VacBrownianError
        self.presets = importlib.import_module(f"{name}.units_constants")
        self.cli_io = importlib.import_module(f"{name}.cli_io")

    def points(self, drawn: list[dict]) -> list[tuple]:
        """Each of `oracle_points`' draws as dispersion_oracle's arguments."""
        made = []
        for pt in drawn:
            q = self.dispersion.QUANTITIES[pt["quantity"]]
            particle = getattr(self.presets, f"{pt['preset']}_preset")()
            made.append((q.kind, q.component, self.dispersion.EvalPoint(
                t=pt["t_over_z"] * pt["z"], z=pt["z"], particle=particle)))
        return made

    def outcome(self, kind: str, component: str, point) -> tuple:
        try:
            result = self.oracle.dispersion_oracle(kind, component, point)
        except self.refusal as exc:
            return type(exc).__name__, str(exc)
        return result.value, result.error_estimate

    def rel_errors(self, drawn: list[dict], points: list[tuple],
                   outcomes: list[tuple]) -> list[float | None]:
        """Each point's relative error against the closed form, None where refused."""
        errors = []
        for pt, (_, _, point), (value, _) in zip(drawn, points, outcomes):
            if isinstance(value, str):  # refused
                errors.append(None)
                continue
            closed = self.dispersion.QUANTITIES[pt["quantity"]].value(point)
            errors.append(abs(value - closed) / abs(closed))
        return errors

    def failed(self, rel_errors: list[float | None], band: str) -> int:
        """How many points oracle_audit would count as failed: refused, or off the
        closed form by more than the band's tolerance tier."""
        tol = self.oracle.TOL_PRE_LIGHTCONE if band == "pre" else self.oracle.TOL_POST_LIGHTCONE
        return sum(not (error is not None and error <= tol) for error in rel_errors)

    def run_points(self, points: list[tuple]) -> None:
        for kind, component, point in points:
            try:
                self.oracle.dispersion_oracle(kind, component, point)
            except self.refusal:
                pass

    def rule_use(self, run) -> tuple[int, int]:
        """The `_gk21` calls and rows that ``run()`` makes in this tree.

        Rows are counted from ``lo``, the second argument from the end, so both
        of the rule's signatures count: `_gk21(f, lo, hi)` and the older
        `_gk21(f, k, lo, hi)`, whose k held one row index per interval."""
        rule, used = self.oracle._gk21, [0, 0]

        def counted(*args):
            used[0] += 1
            used[1] += len(args[-2])
            return rule(*args)

        self.oracle._gk21 = counted  # `_integrate` looks the rule up at each call
        try:
            run()
        finally:
            self.oracle._gk21 = rule
        return used[0], used[1]

    def cold_grid(self) -> list:
        # a tree without the verify memo has nothing to empty
        memo = getattr(self.oracle, "_grid_scaled", None)
        if memo is not None:
            memo.cache_clear()
        return self.oracle.verify_grid()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree holding the parent's vacbrownian")
    parser.add_argument("change", help="source tree holding the change's vacbrownian")
    parser.add_argument("--repeats", type=int, default=15, help="timed rounds (default 15)")
    parser.add_argument("--points", type=int, default=40, help="points per band (default 40)")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.points < 1:
        parser.error("--repeats and --points must be at least 1")

    trees = {"parent": Tree(args.parent, "ab_parent_vacbrownian"),
             "change": Tree(args.change, "ab_change_vacbrownian")}
    drawn = oracle_points(random.Random(SEED), args.points)
    band_draws = {band: [pt for pt in drawn if pt["band"] == band] for band in ORACLE_BANDS}
    points = {side: {band: tree.points(d) for band, d in band_draws.items()}
              for side, tree in trees.items()}

    outcomes = {side: {band: [tree.outcome(*x) for x in points[side][band]]
                       for band in ORACLE_BANDS} for side, tree in trees.items()}
    differ = 0
    for band in ORACLE_BANDS:
        moved = [(p, c) for p, c in zip(outcomes["parent"][band], outcomes["change"][band])
                 if p != c]
        refused = Counter((isinstance(p[0], str), isinstance(c[0], str)) for p, c in moved)
        moves = [abs(c[0] - p[0]) / p[1] for p, c in moved
                 if not isinstance(p[0], str) and not isinstance(c[0], str)]
        print(OUTCOME_LINE.format(probe=band, differ=len(moved), of=len(band_draws[band]),
                                  appeared=refused[False, True], gone=refused[True, False],
                                  reworded=refused[True, True], move=max(moves, default=0)))
        differ += len(moved)
    rows = {side: [(r.quantity, r.t_over_z, r.closed, r.oracle, r.rel_err, r.eps_estimate,
                    r.passed) for r in tree.cold_grid()] for side, tree in trees.items()}
    pairs = list(zip(rows["parent"], rows["change"]))
    cells = sum(p != c for pr, cr in pairs for p, c in zip(pr, cr))
    print(GRID_LINE.format(differ=cells, of=sum(len(pr) for pr, _ in pairs),
                           move=max((abs(cr[3] - pr[3]) / pr[5] for pr, cr in pairs), default=0)))
    differ += cells
    rel_errors = {band: {side: tree.rel_errors(band_draws[band], points[side][band],
                                               outcomes[side][band])
                         for side, tree in trees.items()} for band in ORACLE_BANDS}
    for band in ORACLE_BANDS:
        failed = {side: tree.failed(rel_errors[band][side], band) for side, tree in trees.items()}
        print(FAILED_LINE.format(probe=band, failed=failed, of=len(band_draws[band])))
    print(FAILED_LINE.format(probe="grid", of=len(rows["parent"]),
                             failed={side: sum(not r[-1] for r in rows[side]) for side in trees}))
    for band in ORACLE_BANDS:
        answered = {side: [e for e in rel_errors[band][side] if e is not None] for side in trees}
        print(ERROR_LINE.format(
            probe=band, median={side: statistics.median(e) if e else math.nan
                                for side, e in answered.items()},
            worst={side: max(e, default=math.nan) for side, e in answered.items()}))
    sys.stdout.flush()

    runs = {band: (lambda side, band=band: trees[side].run_points(points[side][band]))
            for band in ORACLE_BANDS}
    runs["grid"] = lambda side: trees[side].cold_grid()
    # each round runs the cold grid first, which fills the memo the warm one reads
    runs["warm"] = lambda side: trees[side].oracle.verify_grid()
    calls = dict.fromkeys(ORACLE_BANDS, args.points) | {"grid": 1, "warm": 1}
    for probe, run in runs.items():
        use = {side: trees[side].rule_use(lambda: run(side)) for side in trees}
        print(RULE_LINE.format(probe=probe,
                               calls={side: c / calls[probe] for side, (c, _) in use.items()},
                               rows={side: r / calls[probe] for side, (_, r) in use.items()}),
              flush=True)

    times = {side: {probe: [] for probe in runs} for side in trees}
    for i in range(args.repeats):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for probe, run in runs.items():
            for side in order:
                start = time.perf_counter()
                run(side)
                times[side][probe].append((time.perf_counter() - start) * 1e3 / calls[probe])

    for probe in runs:
        ratios = [c / p for p, c in zip(times["parent"][probe], times["change"][probe])]
        q1, ratio, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                         if len(ratios) > 1 else ratios * 3)
        print(LINE.format(probe=probe, ratio=ratio, q1=q1, q3=q3,
                          parent=statistics.median(times["parent"][probe]),
                          change=statistics.median(times["change"][probe]),
                          rounds=len(ratios)))
    if differ:
        print(f"error: {differ} outcomes or grid cells differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
