"""tools/ab_oracle.py: a source tree against itself and against a changed copy."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LINE = re.compile(r"(pre|post|far|grid|warm) +change/parent (\d+\.\d{3})  q1 (\d+\.\d{3})  "
                  r"q3 (\d+\.\d{3})  parent (\d+\.\d{4}) ms  change (\d+\.\d{4}) ms  rounds 2")
RULE_LINE = re.compile(r"(pre|post|far|grid|warm) +rule calls parent (\d+\.\d\d)  change (\d+\.\d\d)  "
                       r"rows parent (\d+\.\d\d)  change (\d+\.\d\d)")
OUTCOME_LINE = re.compile(r"(pre|post|far) +outcomes differ (\d+) of 2  refusals appeared (\d+)  "
                          r"gone (\d+)  reworded (\d+)  largest move (\S+) parent estimates")
GRID_LINE = re.compile(r"grid  cells differ (\d+) of 252  largest move (\S+) parent estimates")
DIFFER = re.compile(r"error: \d+ outcomes or grid cells differ\n")
FAILED_LINE = re.compile(r"(pre|post|far|grid) +failed parent (\d+)  change (\d+)  of (2|36)")
REL_ERR = r"(\d\.\d\de[+-]\d\d|nan)"
ERROR_LINE = re.compile(rf"(pre|post|far) +rel err median parent {REL_ERR}  change {REL_ERR}  "
                        rf"worst parent {REL_ERR}  change {REL_ERR}")


def ab(parent, change):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab_oracle.py"), str(parent),
                           str(change), "--repeats", "2", "--points", "2"],
                          capture_output=True, text=True, timeout=120)


def changed_copy(tmp_path, edit):
    shutil.copytree(SRC / "vacbrownian", tmp_path / "vacbrownian",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "vacbrownian" / "oracle.py"
    module.write_text(edit(module.read_text()))
    return tmp_path


def parsed(stdout):
    """The outcome, grid, failed, error, rule and time lines, each matched."""
    lines = stdout.splitlines()
    assert len(lines) == 21, stdout
    found = ([OUTCOME_LINE.fullmatch(line) for line in lines[:3]], GRID_LINE.fullmatch(lines[3]),
             [FAILED_LINE.fullmatch(line) for line in lines[4:8]],
             [ERROR_LINE.fullmatch(line) for line in lines[8:11]],
             [RULE_LINE.fullmatch(line) for line in lines[11:16]],
             [LINE.fullmatch(line) for line in lines[16:]])
    outcomes, grid, failed, errors, rules, times = found
    assert all(outcomes) and grid and all(failed) and all(errors) and all(rules) and all(times), \
        stdout
    assert [m.group(1) for m in failed] == ["pre", "post", "far", "grid"]
    for matches in (rules, times):
        assert [m.group(1) for m in matches] == ["pre", "post", "far", "grid", "warm"]
    assert [m.group(1) for m in errors] == ["pre", "post", "far"]
    return found


def test_tree_against_itself_prints_rule_and_time_lines():
    proc = ab(SRC, SRC)
    assert (proc.returncode, proc.stderr) == (0, "")
    outcomes, grid, failed, errors, rules, times = parsed(proc.stdout)
    assert all(m.group(2, 3, 4, 5, 6) == ("0", "0", "0", "0", "0") for m in outcomes)
    assert grid.group(1, 2) == ("0", "0")
    assert all(m.group(2) == m.group(3) for m in failed)
    for m in errors:  # the same answers: the same errors, the median within the worst
        median, change_median, worst, change_worst = m.groups()[1:]
        assert (median, worst) == (change_median, change_worst)
        assert median == worst == "nan" or float(median) <= float(worst)
    for m in rules:
        calls, change_calls, rows, change_rows = map(float, m.groups()[1:])
        assert (calls, rows) == (change_calls, change_rows)
        if m.group(1) == "warm":  # the memo holds every scaled integral
            assert calls == rows == 0.0
        else:  # every point and cold grid calls the rule
            assert 1.0 <= calls <= rows
    for m in times:
        ratio, q1, q3, parent, change = map(float, m.groups()[1:])
        assert q1 <= ratio <= q3
        assert parent > 0.0 and change > 0.0


def test_different_outcomes_counted_then_timed(tmp_path):
    # a finer mesh, each interval halved while longer than its distance to the
    # singularity, moves oracle values: they are counted, everything is still
    # timed, and the exit code says that something differed
    change = changed_copy(tmp_path, lambda text: text.replace("b - a > 2.0 * abs(",
                                                              "b - a > 1.0 * abs("))
    proc = ab(SRC, change)
    assert proc.returncode == 1
    assert DIFFER.fullmatch(proc.stderr), proc.stderr
    outcomes, grid, failed, errors, rules, times = parsed(proc.stdout)
    assert sum(int(m.group(2)) for m in outcomes) + int(grid.group(1)) > 0
    assert float(grid.group(2)) > 0.0  # the grid's values moved, in parent estimates


def test_rule_lines_show_a_change_without_look_ahead(tmp_path):
    # the plain pass loop, one rule call per halving pass: more calls, never fewer
    change = changed_copy(tmp_path, lambda text: text + (
        "\n\n_with_mesh = _integrate\n\n\n"
        "def _integrate(f, a, b, poles=()):\n    return _with_mesh(f, a, b)\n"))
    proc = ab(SRC, change)
    assert proc.stderr == "" or DIFFER.fullmatch(proc.stderr), proc.stderr
    rules = parsed(proc.stdout)[4]
    calls = {m.group(1): (float(m.group(2)), float(m.group(3))) for m in rules}
    assert calls["far"][0] < calls["far"][1]
    assert all(parent <= change for parent, change in calls.values())


def refusing(bands, message):
    """An edit to oracle.py: `dispersion_oracle` refuses each t/z inside ``bands``."""
    return lambda text: text + (
        "\n\n_answering = dispersion_oracle\n\n\n"
        "def dispersion_oracle(kind, component, p):\n"
        f"    if any(lo < p.t / p.z < hi for lo, hi in {bands!r}):\n"
        f"        raise ExtrapolationError({message!r})\n"
        "    return _answering(kind, component, p)\n")


def test_refusals_split_into_appeared_gone_and_reworded(tmp_path):
    # the two far draws lie at t/z 8.8e3 and 3.3e4 and a post draw at 66.5: the
    # parent refuses both far ones, the change only the second, with another
    # message, and the post one
    parent = changed_copy(tmp_path / "parent", refusing([(5e3, 1e300)], "parent refusal"))
    change = changed_copy(tmp_path / "change", refusing([(1e4, 1e300), (50.0, 100.0)],
                                                        "change refusal"))
    proc = ab(parent, change)
    assert proc.returncode == 1
    assert DIFFER.fullmatch(proc.stderr), proc.stderr
    outcomes, grid = parsed(proc.stdout)[:2]
    assert [m.group(1, 2, 3, 4, 5) for m in outcomes] == [
        ("pre", "0", "0", "0", "0"), ("post", "1", "1", "0", "0"), ("far", "2", "0", "1", "1")]
    assert grid.group(1) == "0"  # `verify_grid` calls no `dispersion_oracle`
