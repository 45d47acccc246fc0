"""tools/count_lines.py: which lines of a Python source are code lines."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "count_lines", Path(__file__).resolve().parents[1] / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # code with a trailing comment


def f(a,
      b):
    """One-line docstring."""
    text = """a string that is
not a docstring"""
        # an indented comment
    return a + b
'''


def test_code_lines_of_a_sample():
    # Code: import, def (2 lines), the assignment (2 lines), return.
    assert count_lines.counts(SOURCE) == (14, 6)


@pytest.mark.parametrize(
    "source, code",
    [
        ("\n\n   \n", 0),
        ("# only a comment\n", 0),
        ('"""docstring"""\n', 0),
        ('def g():\n    """doc\n    string"""\n', 1),
        ("x = 1  # trailing comment\n", 1),
        ("x = (1,\n     2)\n", 2),
    ],
    ids=["blank", "comment", "docstring", "function_docstring", "trailing_comment",
         "continued_statement"],
)
def test_kind_of_line(source, code):
    assert count_lines.counts(source) == (source.count("\n"), code)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n# c\n")
    (tmp_path / "b.py").write_text("y = 2\n")
    count_lines.main([str(tmp_path / "a.py"), str(tmp_path / "b.py")])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["lines", "code", "file"]
    assert lines[1].split() == ["2", "1", str(tmp_path / "a.py")]
    assert lines[2].split() == ["1", "1", str(tmp_path / "b.py")]
    assert lines[3].split() == ["3", "2", "total"]
