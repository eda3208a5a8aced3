"""Count the code lines of Python files.

    python3 tools/code_lines.py [PATH ...]

A code line holds at least one token of code: blank lines, comments and
docstrings (the leading string of a module, class or function, read from
the syntax tree) are left out, and a statement or string spanning several
lines counts each of them.  Each PATH is a file or a directory searched for
`*.py`; the default is `src/cmps_lab` and `tests` of this checkout.  Prints
one line per file and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = (ROOT / "src" / "cmps_lab", ROOT / "tests")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of source that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None):
    paths = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)] or DEFAULT_PATHS
    files = [f for path in paths for f in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
