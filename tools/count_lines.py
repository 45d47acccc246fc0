"""Line counts of Python sources: `wc -l` lines and code lines, per file and in total.

A code line holds at least one token that is not a comment and is not part
of a docstring (any statement that is a bare string literal).  Blank lines,
comment lines and docstring lines are not code lines; a line that holds
code and a trailing comment is.

    python tools/count_lines.py src/cosmopair/*.py
"""

import ast
import io
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


def main(paths: list[str]) -> None:
    total = [0, 0]
    print(f"{'lines':>6} {'code':>6}  file")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            lines, code = counts(f.read())
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
