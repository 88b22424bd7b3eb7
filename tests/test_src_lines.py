"""tools/src_lines.py: code lines of a fixture package whose count is known."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# 7 code lines: the import, the class line, both lines of the string that is
# no docstring, the def line and both lines of the return statement
MODULE = '''"""Module docstring,
over two lines."""

import math  # a comment

# a comment line


class A:
    """Class docstring."""

    x = """not a
docstring"""

    def f(self, y):
        \'\'\'Function docstring.\'\'\'
        return (math.sqrt(y)
                + 1)
'''


def test_counts_code_lines_per_module(tmp_path):
    package = tmp_path / "vacbrownian"
    package.mkdir()
    (package / "__init__.py").write_text('"""Only a docstring."""\n')
    (package / "fixture.py").write_text(MODULE)
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["__init__.py", "0"], ["fixture.py", "7"], ["total", "7"]]


def test_tree_without_package_refused(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: no vacbrownian modules")
