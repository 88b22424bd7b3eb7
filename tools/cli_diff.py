"""Differential CLI run: a changed source tree against its parent, over seeded calls.

    python3 tools/cli_diff.py PARENT_SRC CHANGE_SRC [--count N]

PARENT_SRC and CHANGE_SRC are directories that hold a `vacbrownian` package,
such as the `src` of two checkouts (a `git archive` copy of the parent
commit will do).  Each tree is imported under its own package name by
`tools/ab_oracle.py`'s `Tree`, and both run in this one process.

The script draws ``--count`` argvs from a generator seeded `SEED` and
runs each through both trees' `cli_io.main` in turn.  It covers all six
subcommands; z, t, t/z, charge, mass, dt and eps from 1e-320 to 1e308, with
±inf, nan, negatives, text that is no number and the m/s suffixes; both
presets and unknown choices; unknown and missing flags; and in 30 % of the
calls other than constants (about 25 % overall) a --config file, valid
(numbers, strings, nulls, keys that flags beat) or bad (wrong types,
unknown or `output` keys, broken JSON, bytes that are not UTF-8), plus a
stray --config with no file in about 1 % of calls.  Both trees get the same --config path,
rewritten or removed before each call, and the same --output path, removed
before each call.  A call's outcome is its exit code (argparse's SystemExit
included), stdout, stderr, the bytes of its --output file and the category
and text of each warning it raised.  About a tenth of the `eval` calls
give t/z alone, within 1e-6 of 2, inside the lightcone window.  The script
prints one line per subcommand, with its calls per exit code of the change:

    eval       calls   982  differing 0  exits 0:255 2:682 3:45

and, on a line that differs, the first differing call's argv and config;
then one line with the calls that draw each --quantity id, by flag or in a
config file, every known id listed even when no call draws it:

    quantities vel_disp_transverse:412 vel_disp_normal:398 ... bogus:50

It exits 1 if any call differs, else 0.  The default count runs in about
30 s on a 2-CPU Xeon.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import shlex
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_oracle import Tree  # noqa: E402

SEED = 401  # of the drawn calls
COMMANDS = ("eval", "sweep", "verify", "regimes", "corr", "constants")
# values that no range draw gives: special floats, edges, signs and non-numbers
SPECIAL = ("inf", "-inf", "nan", "-nan", "Infinity", "0", "-0.0", "-1", "-1e-3", "1e309",
           "1e-330", "4.9e-324", "1.7976931348623157e308", "abc", "", "1e", "2m", "3s")
# config files that are not a valid object of known keys
BAD_CONFIGS = (b"{", b"", b"\xff\xfe{}", b"[1]", b"null", b'"z"', b"3", b'{"bogus": 1}',
               b'{"output": "out"}', b'{"config": "c.json"}', b'{"dt-max": 4}',
               b'{"z": ' + b"9" * 5000 + b"}", b"[" * 100_000, None)


def number(rng: random.Random, typical: tuple[int, int], suffixes: str = "") -> str:
    """A value's text: mostly a decimal exponent in ``typical``, else anywhere
    in the float range, a special value or a negative; an m or s suffix at times."""
    roll = rng.random()
    if roll < 0.07:
        return rng.choice(SPECIAL)
    lo, hi = typical if roll < 0.8 else (-320, 308)
    digits = f"{rng.randint(1, 9)}.{rng.randrange(10 ** 16):016d}"[:rng.randint(1, 18)]
    text = f"{digits.rstrip('.')}e{rng.randint(lo, hi)}"
    if rng.random() < 0.03:
        text = "-" + text
    if suffixes and rng.random() < 0.25:
        text += rng.choice(suffixes)
    return text


def magnitude(text: str) -> float:
    """The number a value's text names, to order two draws by; 0.0 for no number."""
    try:
        return float(text.rstrip("ms"))
    except ValueError:
        return 0.0


def ordered(rng: random.Random, span: tuple[int, int], suffixes: str = "") -> list[str]:
    """Two values, smaller first, or at times larger first."""
    return sorted((number(rng, span, suffixes) for _ in range(2)), key=magnitude,
                  reverse=rng.random() < 0.1)


def count(rng: random.Random) -> str:
    """A grid's point count, at times one that is refused."""
    return (str(rng.randint(2, 30)) if rng.random() < 0.9
            else rng.choice(("1", "0", "-3", "1e3", "abc")))


def choice(rng: random.Random, known: tuple[str, ...], unknown: str) -> str:
    """One of ``known``, or at times the choice no command knows."""
    return unknown if rng.random() < 0.05 else rng.choice(known)


def particle(rng: random.Random, settings: dict) -> None:
    if rng.random() < 0.5:
        settings["particle"] = choice(rng, ("electron", "unit"), "muon")
    if rng.random() < 0.25:
        settings["charge"] = number(rng, (-3, 1))
    if rng.random() < 0.25:
        settings["mass"] = number(rng, (-2, 13))


def elapsed(rng: random.Random, settings: dict) -> None:
    """Exactly one of --t and --t-over-z, at times both or neither."""
    roll = rng.random()
    if roll < 0.5 or 0.95 <= roll < 0.98:
        settings["t_over_z"] = number(rng, (-9, 8))
    if 0.5 <= roll < 0.98:
        settings["t"] = number(rng, (-15, 3), "ms")


def quantities(rng: random.Random, choices: tuple[str, ...], most: int) -> list[str]:
    """One to ``most`` quantity ids, at times with an unknown one, or at times none."""
    roll = rng.random()
    if roll < 0.05:
        return []
    picked = rng.sample(choices, rng.randint(1, most))
    return picked + ["bogus"] if roll > 0.95 else picked


def settings_for(command: str, rng: random.Random, choices: tuple[str, ...]) -> dict:
    """One call's settings by flag dest: text, or a list of texts for --quantity."""
    settings: dict = {}
    if command in ("eval", "sweep", "verify", "regimes"):
        particle(rng, settings)
    if command in ("eval", "regimes"):
        if rng.random() < 0.9:
            settings["z"] = number(rng, (-10, 3), "ms")
        elapsed(rng, settings)
    if command == "eval":
        if rng.random() < 0.1:  # t/z alone, inside the lightcone window, which exits 3
            settings.pop("t", None)
            settings["t_over_z"] = repr(2.0 + rng.uniform(-1e-6, 1e-6))
        settings["quantity"] = quantities(rng, choices, 4)
    elif command == "sweep":
        var = settings["var"] = choice(rng, ("t", "z", "t_over_z", "t_over_z"), "w")
        span = (-9, 8) if var == "t_over_z" else (-12, 3)
        ends = ordered(rng, span, "" if var == "t_over_z" else "ms")
        for key, end in zip(("min", "max"), ends):
            if rng.random() < 0.95:
                settings[key] = end
        settings["count"] = count(rng)
        if rng.random() < 0.5:
            settings["spacing"] = choice(rng, ("log", "linear"), "cubic")
        if rng.random() < 0.5:
            settings["format"] = choice(rng, ("csv", "json"), "xml")
        for fixed in ("z", "t"):
            if rng.random() < (0.8 if (fixed == "t") == (var == "z") else 0.05):
                settings[fixed] = number(rng, (-10, 3), "ms")
        settings["quantity"] = quantities(rng, choices, 3)
    elif command == "verify":
        if rng.random() < 0.8:
            settings["z"] = number(rng, (-9, 3), "ms")
        settings["grid"] = choice(rng, ("full", "pre-lightcone", "post-lightcone"), "diagonal")
        if rng.random() < 0.2:
            settings["tolerance"] = number(rng, (-16, 0))
    elif command == "corr":
        if rng.random() < 0.9:
            settings["z"] = number(rng, (-9, 3), "ms")
        for key, end, share in zip(("dt_min", "dt_max"), ordered(rng, (-12, 4), "ms"),
                                   (0.4, 0.95)):
            if rng.random() < share:
                settings[key] = end
        settings["count"] = count(rng)
        if rng.random() < 0.3:
            settings["eps"] = number(rng, (-15, 0), "ms")
    return {key: value for key, value in settings.items() if value != []}


def config_value(rng: random.Random, value: object) -> object:
    """A setting as a config file may give it: its text, a JSON number, null or a wrong type."""
    roll = rng.random()
    if roll < 0.05:
        return None
    if roll < 0.1:
        return rng.choice(([1], True, {"value": 1}, [[]]))
    if isinstance(value, list):
        return value[0] if len(value) == 1 and roll < 0.5 else value
    if roll < 0.55:
        try:
            parsed = json.loads(value)  # "30" as 30, "1e-3" as 0.001, "Infinity" as inf
        except ValueError:
            return value
        if isinstance(parsed, (int, float)):
            return parsed
    return value


def draw(rng: random.Random, choices: tuple[str, ...], config_path: str,
         output_path: str) -> tuple[list[str], bytes | None, list[str]]:
    """One call: its argv, the bytes of its --config file (None: no file there)
    and the --quantity ids it drew, whether given by flag or in the config.

    A tenth of the calls but constants get a bad config and keep every
    setting as a flag, so the config's refusal must come first; a fifth get a
    valid config that takes some settings over.
    """
    command = rng.choice(COMMANDS)
    settings = settings_for(command, rng, choices)
    drawn = settings.get("quantity", [])
    roll = 1.0 if command == "constants" else rng.random()
    config = rng.choice(BAD_CONFIGS) if roll < 0.1 else None
    if 0.1 <= roll < 0.3:
        moved = {}
        for key in list(settings):
            if rng.random() < 0.6:
                moved[key] = config_value(rng, settings[key])
                if rng.random() < 0.8:  # else the flag stays and beats the config
                    del settings[key]
        config = json.dumps(moved).encode()
    argv = [command]
    for key, value in settings.items():
        for text in value if isinstance(value, list) else [value]:
            argv += ["--" + key.replace("_", "-"), text]
    if command in ("sweep", "verify", "corr") and rng.random() < 0.3:
        argv += ["--output", output_path if rng.random() < 0.9
                 else str(Path(output_path, "missing", "out"))]
    if roll < 0.3 or rng.random() < 0.01:  # at times a --config with no file, or on constants
        argv += ["--config", config_path]
    if rng.random() < 0.02:
        argv.append(rng.choice(("--bogus", "--z", "-h")))
    return argv, config, drawn


def outcome(tree: Tree, argv: list[str], config: bytes | None, config_path: Path,
            output_path: Path) -> tuple:
    """One in-process call: exit code, stdout, stderr, --output bytes and warnings."""
    if config is None:
        config_path.unlink(missing_ok=True)
    else:
        config_path.write_bytes(config)
    output_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
            redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = tree.cli_io.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    written = output_path.read_bytes() if output_path.exists() else None
    return (code, out.getvalue(), err.getvalue(), written,
            [(w.category.__name__, str(w.message)) for w in caught])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree holding the parent's vacbrownian")
    parser.add_argument("change", help="source tree holding the change's vacbrownian")
    parser.add_argument("--count", type=int, default=6000, help="calls (default 6000)")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")

    parent = Tree(args.parent, "cli_diff_parent_vacbrownian")
    change = Tree(args.change, "cli_diff_change_vacbrownian")
    rng = random.Random(SEED)
    differing = dict.fromkeys(COMMANDS, 0)
    exits: dict[str, Counter] = {command: Counter() for command in COMMANDS}
    first: dict[str, str] = {}
    quantities = Counter(dict.fromkeys(parent.cli_io.QUANTITY_CHOICES, 0))
    with tempfile.TemporaryDirectory() as tmp:
        config_path, output_path = Path(tmp, "config.json"), Path(tmp, "out")
        for _ in range(args.count):
            call, config, drawn = draw(rng, parent.cli_io.QUANTITY_CHOICES, str(config_path),
                                       str(output_path))
            command = call[0]
            quantities.update(set(drawn))
            before = outcome(parent, call, config, config_path, output_path)
            after = outcome(change, call, config, config_path, output_path)
            exits[command][after[0]] += 1
            if before != after:
                differing[command] += 1
                first.setdefault(command, f"  first: {shlex.join(call)}" + (
                    "" if config is None else f"  config {config[:200]!r}"))
    for command in COMMANDS:
        codes = exits[command]
        print(f"{command:<10} calls {sum(codes.values()):>5}  differing {differing[command]}"
              "  exits" + "".join(f" {code}:{n}" for code, n in sorted(codes.items()))
              + first.get(command, ""))
    print("quantities" + "".join(f" {q}:{n}" for q, n in quantities.items()))
    return 1 if any(differing.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
