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


def ab(parent, change):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab_oracle.py"), str(parent),
                           str(change), "--repeats", "2", "--points", "2"],
                          capture_output=True, text=True, timeout=120)


def test_tree_against_itself_prints_four_lines():
    proc = ab(SRC, SRC)
    assert (proc.returncode, proc.stderr) == (0, "")
    matches = [LINE.fullmatch(line) for line in proc.stdout.splitlines()]
    assert all(matches), proc.stdout
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
