"""Count the code lines of the package: non-blank lines that are neither a
comment nor part of a docstring.

    python tools/code_lines.py [DIR]

prints one ``count path`` row per module of DIR (default ``src/hdmcg``)
and a ``total`` row.  A line counts when a token other than a comment
touches it, so each line of a multi-line string or bracket counts, while
the docstrings of modules, classes and functions do not.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    touched: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            touched.update(range(tok.start[0], tok.end[0] + 1))
    return len(touched - _docstring_lines(ast.parse(source)))


def counts(root: Path) -> dict[Path, int]:
    """The code lines of each module of ``root``, in path order."""
    return {path: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    per_module = counts(Path(args[0] if args else "src/hdmcg"))
    for path, count in per_module.items():
        print(f"{count:6d} {path}")
    print(f"{sum(per_module.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
