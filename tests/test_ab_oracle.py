"""tools/ab_oracle.py: a source tree against itself and against a changed copy."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LINE = re.compile(r"(pre|post|far|grid) +change/parent (\d+\.\d{3})  q1 (\d+\.\d{3})  "
                  r"q3 (\d+\.\d{3})  parent (\d+\.\d{4}) ms  change (\d+\.\d{4}) ms  rounds 2")
RULE_LINE = re.compile(r"(pre|post|far|grid) +rule calls parent (\d+\.\d\d)  change (\d+\.\d\d)  "
                       r"rows parent (\d+\.\d\d)  change (\d+\.\d\d)")


def ab(parent, change):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab_oracle.py"), str(parent),
                           str(change), "--repeats", "2", "--points", "2"],
                          capture_output=True, text=True, timeout=120)


def test_tree_against_itself_prints_rule_and_time_lines():
    proc = ab(SRC, SRC)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    rules = [RULE_LINE.fullmatch(line) for line in lines[:4]]
    assert all(rules), proc.stdout
    assert [m.group(1) for m in rules] == ["pre", "post", "far", "grid"]
    for m in rules:
        calls, change_calls, rows, change_rows = map(float, m.groups()[1:])
        assert (calls, rows) == (change_calls, change_rows)
        assert 1.0 <= calls <= rows  # every point and grid calls the rule
    matches = [LINE.fullmatch(line) for line in lines[4:]]
    assert len(matches) == 4 and all(matches), proc.stdout
    assert [m.group(1) for m in matches] == ["pre", "post", "far", "grid"]
    for m in matches:
        ratio, q1, q3, parent, change = map(float, m.groups()[1:])
        assert q1 <= ratio <= q3
        assert parent > 0.0 and change > 0.0


def test_different_outcomes_stop_before_timing(tmp_path):
    # a looser tolerance moves oracle values, so nothing is timed
    shutil.copytree(SRC / "vacbrownian", tmp_path / "vacbrownian",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "vacbrownian" / "oracle.py"
    module.write_text(module.read_text().replace("EPSREL = 1e-12", "EPSREL = 1e-6"))
    proc = ab(SRC, tmp_path)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(r"error: (pre|post|far) point .* differs: parent .*, change .*\n",
                        proc.stderr), proc.stderr


def test_rule_lines_show_a_change_without_look_ahead(tmp_path):
    # the same outcomes from one rule call per halving pass: more calls, never fewer
    shutil.copytree(SRC / "vacbrownian", tmp_path / "vacbrownian",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "vacbrownian" / "oracle.py"
    module.write_text(module.read_text() + "\n\n_run_ahead = _integrate\n\n\n"
                      "def _integrate(f, a, b, poles=()):\n    return _run_ahead(f, a, b)\n")
    proc = ab(SRC, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    rules = [RULE_LINE.fullmatch(line) for line in proc.stdout.splitlines()[:4]]
    assert all(rules), proc.stdout
    calls = {m.group(1): (float(m.group(2)), float(m.group(3))) for m in rules}
    assert calls["far"][0] == 1.0 < calls["far"][1]
    assert all(parent <= change for parent, change in calls.values())
