"""Code lines per module of a source tree: no comments, no docstrings, no blank lines.

    python3 tools/src_lines.py [SRC]

SRC is a directory that holds a `vacbrownian` package, such as the `src` of
a checkout; the default is this checkout's `src`.  A line counts when some
token other than a comment reaches it, so each line of a multi-line string
or statement counts, except a docstring's: the string that opens a module,
class or function body.  The script prints one line per module, in name
order, then the total:

    cli_io.py          443
    ...
    total             1301

This is the count ROADMAP's Baseline gives as code lines.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that put no code on a line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the vacbrownian package (default: this "
                             "checkout's src)")
    package = Path(parser.parse_args(argv).src, "vacbrownian")
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"error: no vacbrownian modules under {str(package.parent)!r}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<18} {count:>5}")
    print(f"{'total':<18} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
