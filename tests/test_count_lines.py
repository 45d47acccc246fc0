"""tools/count_lines.py: which lines of a Python source are code lines, today and at a
git revision."""

import importlib.util
import os
import shutil
import subprocess
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


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                   env={**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                        "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"})


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_base_counts_each_file_at_a_revision(tmp_path, capsys):
    # a.py shrinks, b.py is new since the base, and c.py is gone today.
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n# c\ny = 2\n")
    (tmp_path / "c.py").write_text("z = 3\n")
    _git(tmp_path, "add", "a.py", "c.py")
    _git(tmp_path, "-c", "commit.gpgsign=false", "commit", "-q", "-m", "base")
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""doc"""\nw = 4\n')
    (tmp_path / "c.py").unlink()
    paths = [str(tmp_path / name) for name in ("a.py", "b.py", "c.py")]
    assert count_lines.main(["--base", "HEAD", *paths]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[0] == ["base", "code", "lines", "code", "diff", "code", "file"]
    assert lines[1] == ["3", "2", "1", "1", "-2", "-1", paths[0]]
    assert lines[2] == ["0", "0", "2", "1", "+2", "+1", paths[1]]
    assert lines[3] == ["1", "1", "0", "0", "-1", "-1", paths[2]]
    assert lines[4] == ["4", "3", "3", "2", "-1", "-1", "total"]


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_base_that_is_no_revision_is_an_error(tmp_path, capsys):
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    assert count_lines.main(["--base", "no-such-rev", str(tmp_path / "a.py")]) == 2
    assert capsys.readouterr().err == "error: 'no-such-rev' is not a git revision\n"
