"""The repository's command-line tools, loaded from `tools/`."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function's docstring."""
    text = """a string that is
not a docstring"""
    return (x +
            len(text))
'''


def test_code_lines_count_code_and_leave_out_docstrings_comments_and_blanks(tmp_path, capsys):
    # import, def, the string's two lines and the return's two
    assert code_lines.code_lines(SNIPPET) == 6
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    code_lines.main([str(tmp_path), str(path)])
    assert capsys.readouterr().out == f"     6  {path}\n     6  {path}\n    12  total\n"
