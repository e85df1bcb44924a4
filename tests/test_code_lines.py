"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """A class docstring."""

    def f(self, x):
        """A method docstring."""
        s = """a string
that is code"""
        return [x,

                s, os]
'''


def test_counts_code_but_not_blanks_comments_or_docstrings():
    # import, class, def, the two lines of the string, the two non-blank
    # lines of the bracket
    assert code_lines.code_lines(SNIPPET) == 7


def test_rows_per_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["7", str(tmp_path / "a.py")],
                    ["1", str(tmp_path / "b.py")], ["8", "total"]]
