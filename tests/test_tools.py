"""The repository's command-line tools, loaded from `tools/`."""

import importlib.util
from pathlib import Path


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")
compare_outputs = _tool("compare_outputs")

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


PAYLOAD = b'{"eta":{"im":0.0,"re":0.98},"kind":"pair","values":[1.5,{"im":-2.0,"re":0.0}]}'


def test_compare_reads_the_numbers_of_json_outputs():
    # a {re, im} pair is one number; a moved number is named by its key path
    moved = PAYLOAD.replace(b'"im":-2.0', b'"im":-2.000000000002')
    renamed = PAYLOAD.replace(b'"pair"', b'"hopping"')
    assert compare_outputs.compare(PAYLOAD, PAYLOAD) == "byte-identical"
    assert compare_outputs.compare(PAYLOAD, moved) == "max |change| / |value| = 1.00e-12 at values[1]"
    assert compare_outputs.compare(PAYLOAD, renamed) == "differs"
    assert compare_outputs.compare(PAYLOAD, PAYLOAD[:-1]) == "differs"
