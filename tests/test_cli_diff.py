"""tools/cli_diff.py: a source tree against itself and against a changed copy, and
the replay of a kept differing call."""

from __future__ import annotations

import base64
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from vacbrownian.cli_io import QUANTITY_CHOICES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
COMMANDS = ["eval", "sweep", "verify", "regimes", "corr", "constants"]
LINE = re.compile(r"(?P<command>\w+) +calls +(?P<calls>\d+)  differing (?P<differing>\d+)"
                  r"  exits(?P<exits>(?: \d+:\d+)*)(?P<cells>  cells(?: \w+:\d+)+)?"
                  r"(  first: (?P<first>\w+) .*?)?(  kept (?P<kept>\S+))?")
QUANTITY_LINE = re.compile(r"quantities((?: \w+:\d+)+)")


def cli_diff(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "cli_diff.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def diff(parent, change, *args, count=60):
    """The exit code and, by subcommand, the differing calls, the kept calls'
    paths and the differing cells by name."""
    proc = cli_diff(parent, change, "--count", str(count), *args)
    assert proc.stderr == ""
    *lines, last = proc.stdout.splitlines()
    lines = [LINE.fullmatch(line) for line in lines]
    assert all(lines), proc.stdout
    quantities = QUANTITY_LINE.fullmatch(last)
    assert quantities, proc.stdout
    counts = dict(pair.split(":") for pair in quantities.group(1).split())
    assert set(QUANTITY_CHOICES) <= set(counts)  # every known id, drawn or not
    assert sum(map(int, counts.values())) > 0
    assert [m["command"] for m in lines] == COMMANDS
    assert sum(int(m["calls"]) for m in lines) == count
    cells = {}
    for m in lines:  # a line names its first differing call, and only when one differs
        assert (m["first"] is None) == (m["differing"] == "0")
        assert m["first"] in (None, m["command"])
        exits = dict(pair.split(":") for pair in m["exits"].split())
        assert sum(map(int, exits.values())) == int(m["calls"])  # each call one exit code
        if m["cells"]:  # counted only on differing calls
            assert m["differing"] != "0"
            cells[m["command"]] = {name: int(n) for name, n in
                                   (pair.split(":") for pair in m["cells"].split()[1:])}
    return (proc.returncode, {m["command"]: int(m["differing"]) for m in lines},
            {m["command"]: m["kept"] for m in lines if m["kept"]}, cells)


# refusal messages of `cli_io` and a rewording of each: of an unparsable
# number, and of a config file that is not JSON
REWORDED = {"number": ("cannot parse {text!r}", "could not parse {text!r}"),
            "config": ("invalid JSON in", "broken JSON in")}


# one output cell of each call, or of each row, and a change to it: eval's
# JSON field "particle", and corr's CSV column corr_transverse
EDITED = {"particle": ('"particle": spec.name,', '"particle": spec.name.upper(),'),
          "corr_transverse": ('repr(xx), repr(zz), "ok"', 'repr(-xx), repr(zz), "ok"')}


def changed_copy(tmp_path, message="number", edits=REWORDED):
    """A copy of the package with one text of ``edits`` changed: by default a
    refusal message of `REWORDED` reworded."""
    shutil.copytree(SRC / "vacbrownian", tmp_path / "vacbrownian",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "vacbrownian" / "cli_io.py"
    text, (old, new) = module.read_text(), edits[message]
    assert text.count(old) == 1
    module.write_text(text.replace(old, new))
    return tmp_path


def test_tree_against_itself_differs_nowhere(tmp_path):
    # nothing differs, so --keep writes nothing
    assert diff(SRC, SRC, "--keep", tmp_path / "kept") == (0, dict.fromkeys(COMMANDS, 0), {}, {})
    assert list((tmp_path / "kept").iterdir()) == []


def test_changed_refusal_message_names_the_call(tmp_path):
    code, differing, kept, cells = diff(SRC, changed_copy(tmp_path))
    assert code == 1
    assert sum(differing.values()) > 0
    assert kept == {}  # nothing kept without --keep
    assert cells == {}  # a message on stderr is no output cell


@pytest.mark.parametrize("message", REWORDED)
def test_kept_call_replays_to_the_same_difference(tmp_path, message):
    # each subcommand's first differing call is kept, with its whole config,
    # and replays alone to the reworded message on stderr; against its own
    # tree it differs nowhere.  Of the config refusals' kept calls, one
    # (`eval`'s) has a config of 5,007 bytes, past the 200 the report prints.
    change, keep = changed_copy(tmp_path / "change", message), tmp_path / "kept"
    code, differing, kept, _ = diff(SRC, change, "--keep", keep)
    assert code == 1
    assert sorted(kept) == sorted(c for c, n in differing.items() if n)
    assert sorted(keep.iterdir()) == sorted(Path(path) for path in kept.values())
    configs = []
    for command, path in kept.items():
        call = json.loads(Path(path).read_text())
        assert set(call) == {"argv", "tmp", "config"} and call["argv"][0] == command
        if call["config"] is not None:
            configs.append(base64.b64decode(call["config"]))
        proc = cli_diff(SRC, change, "--replay", path)
        assert (proc.returncode, proc.stderr) == (1, "")
        first, fields = proc.stdout.splitlines()
        assert first.startswith(f"replay {command} ") and fields == "differing stderr"
        proc = cli_diff(SRC, SRC, "--replay", path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[1] == "differing none"
    if message == "config":  # every such call has a config, and one is long
        assert len(configs) == len(kept) and max(map(len, configs)) > 200


@pytest.mark.parametrize("column", EDITED)
def test_edited_column_is_the_only_one_counted(tmp_path, column):
    # eval prints "particle" once per call that exits 0, so each differing call
    # differs in one cell; corr prints corr_transverse once per row that is
    # not singular, of at most 30 rows
    code, differing, _, cells = diff(SRC, changed_copy(tmp_path, column, EDITED), count=300)
    command = "eval" if column == "particle" else "corr"
    assert code == 1
    assert {c for c, n in differing.items() if n} == {command}
    assert list(cells) == [command] and list(cells[command]) == [column]
    if command == "eval":
        assert cells[command][column] == differing[command] > 0
    else:
        assert differing[command] <= cells[command][column] <= 30 * differing[command]
