"""tools/cli_diff.py: a source tree against itself and against a changed copy."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

from vacbrownian.cli_io import QUANTITY_CHOICES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
COMMANDS = ["eval", "sweep", "verify", "regimes", "corr", "constants"]
LINE = re.compile(r"(\w+) +calls +(\d+)  differing (\d+)  exits((?: \d+:\d+)*)"
                  r"(  first: (\w+) .*)?")
QUANTITY_LINE = re.compile(r"quantities((?: \w+:\d+)+)")


def diff(parent, change):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_diff.py"), str(parent),
                           str(change), "--count", "60"],
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    *lines, last = proc.stdout.splitlines()
    lines = [LINE.fullmatch(line) for line in lines]
    assert all(lines), proc.stdout
    quantities = QUANTITY_LINE.fullmatch(last)
    assert quantities, proc.stdout
    counts = dict(pair.split(":") for pair in quantities.group(1).split())
    assert set(QUANTITY_CHOICES) <= set(counts)  # every known id, drawn or not
    assert sum(map(int, counts.values())) > 0
    assert [m.group(1) for m in lines] == COMMANDS
    assert sum(int(m.group(2)) for m in lines) == 60
    for m in lines:  # a line names its first differing call, and only when one differs
        assert (m.group(5) is None) == (m.group(3) == "0")
        assert m.group(6) in (None, m.group(1))
        exits = dict(pair.split(":") for pair in m.group(4).split())
        assert sum(map(int, exits.values())) == int(m.group(2))  # each call one exit code
    return proc.returncode, {m.group(1): int(m.group(3)) for m in lines}


def test_tree_against_itself_differs_nowhere():
    assert diff(SRC, SRC) == (0, dict.fromkeys(COMMANDS, 0))


def test_changed_refusal_message_names_the_call(tmp_path):
    shutil.copytree(SRC / "vacbrownian", tmp_path / "vacbrownian",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "vacbrownian" / "cli_io.py"
    text = module.read_text()
    assert text.count("cannot parse {text!r}") == 1
    module.write_text(text.replace("cannot parse {text!r}", "could not parse {text!r}"))
    code, differing = diff(SRC, tmp_path)
    assert code == 1
    assert sum(differing.values()) > 0
