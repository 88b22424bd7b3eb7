"""Golden CLI transcripts: every subcommand, byte for byte.

``tests/golden/cli.jsonl`` holds one recorded invocation per line: its
argv, an optional config object (written to a file and passed with
``--config``), the exit code, stdout and stderr.  Each is replayed through
``cli_io.main`` in-process and must reproduce all three exactly.

The recorded values are floating-point results printed with ``repr``, so
they pin this platform's libm down to the last bit.  After an
intended output change, re-record with::

    PYTHONPATH=src python tests/test_golden_cli.py

which takes no arguments and prints one line for each record whose exit
code, stdout or stderr moved; for a moved stdout it adds how many cells
(tokens between commas and whitespace) changed and the largest relative
change among the numeric ones.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from vacbrownian.cli_io import main

GOLDEN = Path(__file__).parent / "golden" / "cli.jsonl"

UNIT = ["--particle", "unit"]
CLOSED = ["--quantity", "vel_disp_transverse", "--quantity", "vel_disp_normal",
          "--quantity", "pos_disp_transverse", "--quantity", "pos_disp_normal"]
ASYM = ["--quantity", "vel_disp_transverse_asym", "--quantity", "vel_disp_normal_asym",
        "--quantity", "pos_disp_transverse_asym", "--quantity", "pos_disp_normal_asym"]
EXTRA = ["--quantity", "effective_temperature", "--quantity", "radiated_velocity_sq"]

# (argv, config) pairs; config is any JSON value, and None means no --config file.
INVOCATIONS: list[tuple[list[str], object]] = [
    # eval: both sides of the lightcone, the short-time region, SI inputs
    (["eval", "--z", "1e-6m", "--t-over-z", "3", "--quantity", "vel_disp_normal",
      "--quantity", "effective_temperature"], None),
    (["eval", *UNIT, "--z", "1", "--t-over-z", "0.5", *CLOSED], None),
    (["eval", *UNIT, "--z", "1", "--t", "1e-3", *CLOSED], None),
    (["eval", *UNIT, "--z", "2.5", "--t-over-z", "1e-6", *CLOSED], None),
    (["eval", "--z", "1e-7m", "--t-over-z", "3e-9", *CLOSED, *EXTRA], None),
    (["eval", "--z", "1e-6m", "--t", "3e-14s", *CLOSED, *EXTRA], None),
    (["eval", *UNIT, "--z", "1", "--t-over-z", "10", *CLOSED, *ASYM], None),
    (["eval", "--charge", "2", "--mass", "3", "--z", "0.7", "--t-over-z", "0.005",
      *CLOSED], None),
    (["eval"], {"particle": "unit", "z": "1e-6m", "t_over_z": "0.002",
                "quantity": ["vel_disp_transverse", "pos_disp_normal"]}),
    # eval refusals: lightcone (3), undefined asymptote and bad arguments (2)
    (["eval", *UNIT, "--z", "1", "--t-over-z", "2", "--quantity", "vel_disp_normal"], None),
    (["eval", *UNIT, "--z", "1", "--t-over-z", "1", "--quantity",
      "pos_disp_transverse_asym"], None),
    (["eval", *UNIT, "--z", "1", "--t-over-z", "1"], None),
    (["eval", *UNIT, "--t-over-z", "1", "--quantity", "bogus"], None),
    (["eval", *UNIT, "--t", "1", "--t-over-z", "1", "--quantity", "vel_disp_normal"], None),
    # sweep: t, z and t_over_z grids in CSV and JSON reaching t/z < 1e-2
    (["sweep", *UNIT, "--var", "t_over_z", "--min", "1e-9", "--max", "100",
      "--count", "23"], None),
    (["sweep", "--var", "t_over_z", "--min", "1e-4", "--max", "10", "--count", "4",
      "--z", "1e-6m", "--format", "json"], None),
    (["sweep", *UNIT, "--var", "t", "--min", "1e-7", "--max", "0.05", "--count", "9",
      "--z", "3", *CLOSED, *EXTRA], None),
    (["sweep", "--var", "t", "--min", "1e-20s", "--max", "1e-16s", "--count", "3",
      "--z", "1e-7m", "--format", "json", "--quantity", "vel_disp_normal",
      "--quantity", "pos_disp_transverse"], None),
    (["sweep", *UNIT, "--var", "z", "--t", "1", "--min", "0.1", "--max", "1e5",
      "--count", "13"], None),
    (["sweep", "--var", "z", "--t", "1e-9m", "--min", "1e-8m", "--max", "1e-4m",
      "--count", "3", "--format", "json", "--quantity", "vel_disp_transverse",
      "--quantity", "pos_disp_normal"], None),
    (["sweep", *UNIT, "--var", "t_over_z", "--spacing", "linear", "--min", "1",
      "--max", "3", "--count", "3", *CLOSED, *ASYM, *EXTRA], None),
    (["sweep", *UNIT, "--var", "t_over_z", "--spacing", "linear", "--min", "1",
      "--max", "3", "--count", "3", "--format", "json", "--quantity", "vel_disp_normal",
      "--quantity", "pos_disp_normal_asym"], None),
    (["sweep", "--var", "t_over_z", "--min", "1e-3", "--max", "1e9", "--count", "13",
      "--z", "1e-6m", "--quantity", "vel_disp_transverse", "--quantity",
      "pos_disp_transverse"], None),
    # sweep argument errors (2)
    (["sweep", *UNIT, "--min", "1", "--max", "3", "--count", "1"], None),
    (["sweep", *UNIT, "--min", "1", "--max", "3", "--spacing", "cubic"], None),
    (["sweep", *UNIT, "--var", "z", "--min", "1", "--max", "3"], None),
    (["sweep", *UNIT, "--min", "1"], None),
    (["sweep", *UNIT, "--min", "1", "--max", "3", "--format", "xml"], None),
    # verify: each grid, a failing tolerance (1) and a bad grid (2)
    (["verify", "--grid", "full"], None),
    (["verify", "--grid", "pre-lightcone", "--z", "3.7e-5"], None),
    (["verify", "--grid", "post-lightcone", "--particle", "electron", "--z", "1e-6m"], None),
    (["verify", "--grid", "pre-lightcone", "--tolerance", "1e-20"], None),
    (["verify", "--grid", "diagonal"], None),
    # regimes, corr, constants
    (["regimes", "--z", "1e-6m", "--t-over-z", "10"], None),
    (["regimes", "--z", "1e-6m", "--t", "3e-15s"], None),
    (["corr", "--z", "1", "--dt-min", "0", "--dt-max", "4", "--count", "9"], None),
    (["corr", "--z", "1e-6m", "--dt-max", "4e-6m", "--count", "5", "--eps", "1e-9m"], None),
    (["corr", "--z", "1", "--dt-max", "4", "--count", "1"], None),
    (["constants"], None),
    # config files with JSON numbers and strings, and flags that beat them
    (["sweep"], {"particle": "unit", "var": "t_over_z", "spacing": "linear", "min": 0.5,
                 "max": 8, "count": 4, "z": 2, "quantity": "vel_disp_normal"}),
    (["sweep", "--count", "3", "--format", "json", "--quantity", "pos_disp_normal"],
     {"particle": "unit", "min": 1, "max": 3, "count": 10, "format": "csv",
      "quantity": "vel_disp_normal"}),
    (["corr"], {"z": 1, "dt_max": 4, "count": 5}),
    (["corr"], {"z": "1e-6m", "dt_max": "4e-6m", "count": 3, "eps": 1e-9}),
    (["regimes"], {"particle": "unit", "z": 2, "t_over_z": 3}),
    (["verify", "--grid", "pre-lightcone"], {"tolerance": 1e-6}),
    # verify with an override but no preset: the override applies to the electron
    (["verify", "--grid", "pre-lightcone", "--charge", "2"], None),
    # every parser's error message (2)
    (["eval", "--z", "abc", "--t", "1", "--quantity", "vel_disp_normal"], None),
    (["eval", *UNIT, "--z", "1", "--t-over-z", "1m", "--quantity", "vel_disp_normal"], None),
    (["eval", "--charge", "x", "--z", "1", "--t", "1", "--quantity", "vel_disp_normal"], None),
    (["sweep", *UNIT, "--min", "1", "--max", "3", "--count", "1e3"], None),
    (["verify", "--grid", "pre-lightcone", "--tolerance", "abc"], None),
    (["sweep", *UNIT, "--var", "w", "--min", "1", "--max", "3"], None),
    (["corr", "--z", "1"], None),
    (["corr", "--z", "1", "--dt-min", "4", "--dt-max", "4"], None),
    # JSON sweeps: temperature units, and every closed form and asymptote
    # across t/z = 2 (closed forms singular at 2, asymptotes undefined up to it)
    (["sweep", "--var", "t_over_z", "--min", "0.5", "--max", "20", "--count", "4",
      "--z", "1e-6m", "--format", "json", *EXTRA], None),
    (["sweep", *UNIT, "--var", "t_over_z", "--spacing", "linear", "--min", "1.5",
      "--max", "2.5", "--count", "5", "--format", "json", *CLOSED, *ASYM], None),
    # refusals no other record reaches: a reversed sweep range, an SI value
    # that overflows, and correlators whose denominator underflows to zero
    (["sweep", *UNIT, "--min", "3", "--max", "1"], None),
    (["eval", "--z", "1e-160", "--t-over-z", "3", "--quantity", "vel_disp_normal"], None),
    (["corr", "--z", "1e-100", "--dt-max", "4e-100", "--count", "5"], None),
    # a bad config is the first error, a flag beats the config and a null is
    # unset, and a config that is not an object is refused (2)
    (["corr", "--z", "abc", "--dt-max", "4"], {"bogus": 1}),
    (["regimes", "--z", "2"], {"z": "1e-6m", "t_over_z": 3, "particle": None}),
    (["eval"], [1]),
    # only a null config quantity is unset: an empty or false one is refused (2)
    (["sweep", *UNIT, "--min", "1", "--max", "3", "--count", "2"], {"quantity": ""}),
    (["sweep", *UNIT, "--min", "1", "--max", "3", "--count", "2"], {"quantity": 0}),
    (["sweep", *UNIT, "--min", "1", "--max", "3", "--count", "2"], {"quantity": False}),
    (["sweep", *UNIT, "--min", "1", "--max", "3", "--count", "2"], {"quantity": []}),
    # an oracle error estimate below the smallest normal float covers nothing (2)
    (["verify", "--charge", "1e-160", "--mass", "1", "--grid", "post-lightcone"], None),
    # a non-positive z is refused as such, not as the t = (t/z) z it makes (2)
    (["verify", "--z", "0"], None),
]


def run(argv: list[str], config: object) -> dict:
    """One in-process CLI call: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        full = list(argv)
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            full += ["--config", str(path)]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(full)
    return {"argv": argv, "config": config, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _recorded() -> list[dict]:
    with GOLDEN.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


RECORDED = _recorded() if GOLDEN.exists() else []


@pytest.mark.parametrize("record", RECORDED,
                         ids=[f"{i:02d}-{r['argv'][0]}" for i, r in enumerate(RECORDED)])
def test_cli_output_is_byte_identical(record):
    got = run(record["argv"], record["config"])
    assert got["exit"] == record["exit"]
    assert got["stderr"] == record["stderr"]
    assert got["stdout"] == record["stdout"]


def test_golden_set_is_current_and_complete():
    assert [(r["argv"], r["config"]) for r in RECORDED] == INVOCATIONS
    assert {r["argv"][0] for r in RECORDED} == {
        "eval", "sweep", "verify", "regimes", "corr", "constants"}
    assert {r["exit"] for r in RECORDED} == {0, 1, 2, 3}


def _key(record: dict) -> str:
    return json.dumps([record["argv"], record["config"]])


def cell_changes(old: str, new: str) -> str:
    """How many cells of two outputs differ, and the largest relative change."""
    old_cells, new_cells = re.split(r"[\s,]+", old), re.split(r"[\s,]+", new)
    if len(old_cells) != len(new_cells):
        return "layout changed"
    changed = [(a, b) for a, b in zip(old_cells, new_cells) if a != b]
    worst = 0.0
    for a, b in changed:
        try:
            before, after = float(a), float(b)
        except ValueError:  # true/false, or text
            continue
        worst = max(worst, abs(after - before) / abs(before) if before else math.inf)
    return f"{len(changed)} cells, largest relative change {worst:.2g}"


def rerecord() -> None:
    """Rewrite the golden file from INVOCATIONS; print each record that moved."""
    before = {_key(r): r for r in RECORDED}
    records = [run(argv, config) for argv, config in INVOCATIONS]
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    for i, record in enumerate(records):
        old = before.pop(_key(record), None)
        moved = "new" if old is None else ", ".join(
            field for field in ("exit", "stdout", "stderr") if old[field] != record[field])
        if old is not None and old["stdout"] != record["stdout"]:
            moved += f" ({cell_changes(old['stdout'], record['stdout'])})"
        if moved:
            print(f"{i:02d} {' '.join(record['argv'])}: {moved}")
    for old in before.values():
        print(f"-- {' '.join(old['argv'])}: dropped")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print("usage: PYTHONPATH=src python tests/test_golden_cli.py\n"
              "re-records tests/golden/cli.jsonl; takes no arguments", file=sys.stderr)
        sys.exit(2)
    rerecord()
