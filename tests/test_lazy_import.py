"""Import hygiene: `import vacbrownian`, every subcommand and the oracle's entry
points load the package's own modules and the standard library only, and the
closed-form paths load no costly standard-library module."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vacbrownian

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(source: str, *flags: str) -> str:
    """Run `source` in a fresh interpreter, started with `flags`, with the package on its
    path; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, *flags, "-c", source],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return result.stdout


def modules_after(code: str, package: str) -> list[str]:
    """Run `code` in a fresh interpreter; return the modules of `package` it loaded."""
    report = ("import sys; print('\\n'.join(m for m in sys.modules "
              f"if m == {package!r} or m.startswith({package + '.'!r})))")
    return run_fresh(f"{code}\n{report}").split()


def modules_added_by(code: str, *flags: str) -> set[str]:
    """Run `code` in a fresh interpreter, started with `flags`; return the modules it
    added to sys.modules.

    Taken as a difference, so modules that the interpreter's start-up already
    loaded (`site` may load `typing` through a .pth file) do not count.
    """
    return set(run_fresh("import sys\nbefore = set(sys.modules)\n"
                         f"{code}\nprint('\\n'.join(sorted(set(sys.modules) - before)))",
                         *flags).split())


def run_main(*argvs: list[str]) -> str:
    """Source that runs cli_io.main on each argv with stdout discarded."""
    calls = "".join(
        f"    assert main({argv!r}) == 0\n" for argv in argvs
    )
    return (
        "import contextlib, io\n"
        "from vacbrownian.cli_io import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"{calls}"
    )


# Every subcommand but verify, each on arguments it accepts.
CLOSED_FORM_CALLS = (
    ["eval", "--z", "1e-6m", "--t-over-z", "3", "--quantity", "vel_disp_normal"],
    ["regimes", "--z", "1e-6m", "--t-over-z", "10"],
    ["corr", "--z", "1", "--dt-max", "4", "--count", "5"],
    ["constants"],
    ["sweep", "--particle", "unit", "--min", "0.1", "--max", "10", "--count", "5"],
)


def test_package_import_leaves_scipy_unloaded():
    assert modules_after("import vacbrownian", "scipy") == []


def test_closed_form_subcommands_leave_scipy_unloaded():
    assert modules_after(run_main(*CLOSED_FORM_CALLS), "scipy") == []


# Each costs milliseconds per cold start, so no closed-form path may load it.
COSTLY_STDLIB = {"dataclasses", "inspect"}


def test_package_import_adds_no_costly_stdlib_module():
    added = modules_added_by("import vacbrownian")
    assert "vacbrownian.dispersion" in added
    assert not added & COSTLY_STDLIB


@pytest.mark.parametrize("argv", CLOSED_FORM_CALLS, ids=[argv[0] for argv in CLOSED_FORM_CALLS])
def test_closed_form_subcommand_adds_no_costly_stdlib_module(argv):
    added = modules_added_by(run_main(argv))
    assert "vacbrownian.cli_io" in added
    assert not added & COSTLY_STDLIB


@pytest.mark.parametrize("code", ["import vacbrownian", *map(run_main, CLOSED_FORM_CALLS)],
                         ids=["import", *(argv[0] for argv in CLOSED_FORM_CALLS)])
def test_closed_form_paths_add_no_typing_without_site(code):
    # -S: `site` may have loaded typing, or a costly module, through a .pth
    # file, hiding a load by the package
    added = modules_added_by(code, "-S")
    assert "vacbrownian.dispersion" in added
    assert not added & (COSTLY_STDLIB | {"typing"})


def test_no_module_imports_typing():
    # whatever the standard library imports on a given Python, the package's own
    # annotations come from collections.abc and its result tuples from collections
    for path in sorted((SRC / "vacbrownian").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert "typing" not in {n.split(".")[0] for n in names}, (path.name, node.lineno)


# The oracle's entry points beyond the verify grid: a far-band point, t/z = 1e4,
# and a caller's integral.
ORACLE_CALLS = ("import math\nimport vacbrownian\n"
                "far = vacbrownian.EvalPoint(t=1e4, z=1.0)\n"
                "vacbrownian.dispersion_oracle('velocity', 'x', far)\n"
                "vacbrownian.oracle.reduced_time_integral(math.cos, 1.0, 'velocity')\n")


def outside_the_standard_library(added: set[str]) -> set[str]:
    """The modules of `added` that are neither the package's own nor the standard
    library's."""
    allowed = {*sys.stdlib_module_names, "vacbrownian"}
    return {m for m in added if m.split(".")[0] not in allowed}


def test_every_subcommand_loads_only_the_standard_library():
    # every module that main() adds, a full verify grid's oracle included, and
    # the oracle's far-band point and caller integral, is the package's own or
    # the standard library's
    added = modules_added_by(run_main(*CLOSED_FORM_CALLS, ["verify", "--grid", "full"])
                             + ORACLE_CALLS)
    assert "vacbrownian.oracle" in added
    assert outside_the_standard_library(added) == set()


def test_every_public_name_resolves():
    for name in vacbrownian.__all__:
        assert getattr(vacbrownian, name) is not None, name


ORACLE_NAMES = ["OracleResult", "VerifyRow", "dispersion_oracle", "verify_grid"]


def test_public_names_are_the_submodules_names():
    from vacbrownian import correlators, dispersion, errors, oracle, regimes, units_constants

    eager = [*correlators.__all__, *dispersion.__all__, *errors.__all__,
             *regimes.__all__, *units_constants.__all__]
    assert vacbrownian.__all__ == eager + ORACLE_NAMES + ["__version__"]
    assert len(set(vacbrownian.__all__)) == len(vacbrownian.__all__)
    assert set(ORACLE_NAMES) <= set(oracle.__all__)


def test_oracle_names_come_from_the_oracle_module():
    assert vacbrownian.verify_grid is vacbrownian.oracle.verify_grid


def test_package_import_loads_the_oracle_and_only_the_standard_library():
    # every module the import adds, and with it the oracle's far-band point and
    # caller integral, is the package's own or the standard library's
    assert "vacbrownian.oracle" in modules_added_by("import vacbrownian")
    assert outside_the_standard_library(modules_added_by("import vacbrownian\n"
                                                         + ORACLE_CALLS)) == set()
    # bound by the import itself, each name the oracle module's own object
    out = run_fresh("import vacbrownian\n"
                    "print(all(vars(vacbrownian)[name] is getattr(vacbrownian.oracle, name)"
                    f" for name in {ORACLE_NAMES!r}))")
    assert out.split() == ["True"]


def test_dir_lists_every_public_name():
    listed = dir(vacbrownian)
    assert set(vacbrownian.__all__) <= set(listed)
    assert "oracle" in listed


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from vacbrownian import *", namespace)
    assert set(vacbrownian.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vacbrownian.no_such_name
