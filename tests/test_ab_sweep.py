"""tools/ab_sweep.py: a source tree against itself and against a changed copy."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DIFFER_LINE = re.compile(r"(csv|json) +calls differ (\d+) of (\d+)  rows (\d+)")
LINE = re.compile(r"(csv|json) +change/parent (\d+\.\d{3})  q1 (\d+\.\d{3})  q3 (\d+\.\d{3})  "
                  r"parent (\d+\.\d\d) ms  change (\d+\.\d\d) ms  rounds 1")


def ab(parent, change):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_sweep.py"), str(parent),
                           str(change), "--rounds", "1", "--cycles", "1"],
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stdout
    differ = [DIFFER_LINE.fullmatch(line) for line in lines[:2]]
    times = [LINE.fullmatch(line) for line in lines[2:]]
    assert all(differ) and all(times), proc.stdout
    for matches in (differ, times):
        assert [m.group(1) for m in matches] == ["csv", "json"]
    # one sweep_table cycle: four CSV and three JSON calls of 2,000 points and four
    # quantities, the CSV window sweep one point more
    assert [m.group(3, 4) for m in differ] == [("4", "32004"), ("3", "24000")]
    for m in times:
        ratio, q1, q3, parent_ms, change_ms = map(float, m.groups()[1:])
        assert q1 == ratio == q3  # one round: one ratio
        assert parent_ms > 0.0 and change_ms > 0.0
    return proc, [int(m.group(2)) for m in differ]


def test_tree_against_itself_differs_nowhere():
    proc, differ = ab(SRC, SRC)
    assert (proc.returncode, proc.stderr, differ) == (0, "", [0, 0])


def test_changed_status_cell_fails_the_run(tmp_path):
    # the one CSV sweep across the lightcone window has a singular row
    shutil.copytree(SRC / "vacbrownian", tmp_path / "vacbrownian",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "vacbrownian" / "cli_io.py"
    module.write_text(module.read_text().replace('"singular"', '"singularity"'))
    proc, differ = ab(SRC, tmp_path)
    assert (proc.returncode, proc.stderr, differ) == (1, "error: 1 calls differ\n", [1, 0])
