"""Line counts of Python sources: `wc -l` lines and code lines, per file and in total.

A code line holds at least one token that is not a comment and is not part
of a docstring (any statement that is a bare string literal).  Blank lines,
comment lines and docstring lines are not code lines; a line that holds
code and a trailing comment is.

    python tools/count_lines.py src/cosmopair/*.py
    python tools/count_lines.py --base REV src/cosmopair/*.py

With `--base`, each file is also counted as it is at git revision REV (read
through `git show REV:path`), and the difference is printed beside it.  A
path that does not exist, at REV or today, counts 0.
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def counts(source: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


def _git(path: str, *args: str) -> subprocess.CompletedProcess:
    """`git args` run in the directory of `path`."""
    where = os.path.dirname(os.path.abspath(path))
    return subprocess.run(["git", "-C", where, *args], capture_output=True, text=True)


def _source(path: str, rev: str | None) -> str:
    """The text of `path` today, or at git revision `rev`; "" where it does not exist."""
    if rev is None:
        try:
            with open(path, encoding="utf-8") as f:
                return f.read()
        except FileNotFoundError:
            return ""
    shown = _git(path, "show", f"{rev}:./{os.path.basename(path)}")
    return shown.stdout if shown.returncode == 0 else ""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count lines and code lines.")
    parser.add_argument("--base", metavar="REV", help="also count each file at git revision REV")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    if args.base is not None and _git(args.paths[0], "rev-parse", "--verify", "--quiet",
                                      f"{args.base}^{{commit}}").returncode:
        print(f"error: {args.base!r} is not a git revision", file=sys.stderr)
        return 2
    revs = [None] if args.base is None else [args.base, None]
    rows = [([n for rev in revs for n in counts(_source(path, rev))], path)
            for path in args.paths]
    rows.append(([sum(column) for column in zip(*(numbers for numbers, _ in rows))], "total"))
    if args.base is None:
        print(f"{'lines':>6} {'code':>6}  file")
    else:
        print(f"{'base':>6} {'code':>6} {'lines':>6} {'code':>6} {'diff':>6} {'code':>6}  file")
        for numbers, _ in rows:
            numbers += [numbers[2] - numbers[0], numbers[3] - numbers[1]]
    for numbers, path in rows:
        cells = [f"{n:6d}" for n in numbers[:4]] + [f"{n:+6d}" for n in numbers[4:]]
        print(" ".join(cells) + f"  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
