"""In-process A/B of `vacbrownian sweep`: a changed source tree against its parent.

    python3 tools/ab_sweep.py PARENT_SRC CHANGE_SRC [--rounds N] [--cycles N]

PARENT_SRC and CHANGE_SRC are directories that hold a `vacbrownian` package,
such as the `src` of two checkouts.  Each tree is imported under its own
package name by `tools/ab_oracle.py`'s `Tree`, and both run in this one
process.

The script draws ``--cycles`` cycles of perfbench's sweep_table calls
(`sweep_cycle`, seven `sweep` argvs of 2,000 points each, CSV alternating
with JSON) from a generator seeded 401, as the benchmark's seed 401 does.
It runs each call once through both trees' `cli_io.main`, its --output
file removed before each run, and compares the exit code, stdout, stderr
and the output file's bytes.  It prints one line per format:

    csv   calls differ 0 of 12  rows 96000

Then it runs ``--rounds`` rounds.  Each round times, for each tree in turn
(which tree goes first alternates by round), every call of one format, and
after the rounds it prints one line per format:

    csv   change/parent 0.880  q1 0.870  q3 0.890  parent 74.12 ms  change 65.20 ms  rounds 10

the median and quartiles over rounds of the paired ratio change/parent of
the round's time, and each tree's median time per call.  A ratio below 1
means the change is faster.  The script exits 1 at the end if any call
differed, and 0 otherwise: its exit code says nothing about speed.
"""

from __future__ import annotations

import argparse
import io
import os
import random
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_oracle import Tree  # noqa: E402  (puts perfbench's `common` on the path)
from common import sweep_cycle  # noqa: E402  (standard library only)

SEED = 401  # of the drawn cycles, as perfbench's sweep_table --seed 401
FORMATS = ("csv", "json")
DIFFER_LINE = "{fmt:<5} calls differ {differ} of {of}  rows {rows}"
LINE = ("{fmt:<5} change/parent {ratio:.3f}  q1 {q1:.3f}  q3 {q3:.3f}  "
        "parent {parent:.2f} ms  change {change:.2f} ms  rounds {rounds}")


def outcome(tree: Tree, call: dict) -> tuple:
    """One call's exit code, stdout, stderr and output bytes (None if it wrote none)."""
    if os.path.exists(call["path"]):
        os.remove(call["path"])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tree.cli_io.main(call["argv"])
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
    written = Path(call["path"]).read_bytes() if os.path.exists(call["path"]) else None
    return code, out.getvalue(), err.getvalue(), written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree holding the parent's vacbrownian")
    parser.add_argument("change", help="source tree holding the change's vacbrownian")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds (default 10)")
    parser.add_argument("--cycles", type=int, default=3,
                        help="sweep_table cycles of seven calls (default 3)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.cycles < 1:
        parser.error("--rounds and --cycles must be at least 1")

    trees = {"parent": Tree(args.parent, "ab_parent_vacbrownian"),
             "change": Tree(args.change, "ab_change_vacbrownian")}
    with tempfile.TemporaryDirectory(prefix="ab_sweep_") as outdir:
        rng = random.Random(SEED)
        calls = [call for _ in range(args.cycles) for call in sweep_cycle(rng, outdir)]
        by_format = {fmt: [c for c in calls if c["format"] == fmt] for fmt in FORMATS}

        differ = 0
        for fmt, group in by_format.items():
            moved = sum(outcome(trees["parent"], c) != outcome(trees["change"], c)
                        for c in group)
            print(DIFFER_LINE.format(fmt=fmt, differ=moved, of=len(group),
                                     rows=sum(c["rows"] for c in group)), flush=True)
            differ += moved

        times = {side: {fmt: [] for fmt in FORMATS} for side in trees}
        for i in range(args.rounds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for fmt, group in by_format.items():
                for side in order:
                    run = trees[side].cli_io.main
                    start = time.perf_counter()
                    for call in group:
                        run(call["argv"])
                    times[side][fmt].append((time.perf_counter() - start) * 1e3 / len(group))

    for fmt in FORMATS:
        ratios = [c / p for p, c in zip(times["parent"][fmt], times["change"][fmt])]
        q1, ratio, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                         if len(ratios) > 1 else ratios * 3)
        print(LINE.format(fmt=fmt, ratio=ratio, q1=q1, q3=q3,
                          parent=statistics.median(times["parent"][fmt]),
                          change=statistics.median(times["change"][fmt]), rounds=len(ratios)))
    if differ:
        print(f"error: {differ} calls differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
