"""The repository's command-line tools, loaded from `tools/`."""

import importlib.util
from pathlib import Path

import numpy as np

from cmps_lab import sample_ensemble


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")
compare_outputs = _tool("compare_outputs")
sampler_cost = _tool("sampler_cost")

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


def test_sampler_cost_times_the_fluorescence_family(monkeypatch, capsys):
    # K = omega J_x and R = J_- / sqrt(N) of a spin 3/2: [J_+, J_-] = 2 J_z
    p = sampler_cost.fluorescence(4, 1.0)
    j_minus = p.R * np.sqrt(3)
    np.testing.assert_allclose(j_minus.conj().T @ j_minus - j_minus @ j_minus.conj().T,
                               np.diag([3.0, 1.0, -1.0, -3.0]), atol=1e-12)
    np.testing.assert_allclose(p.K, (j_minus + j_minus.conj().T) / 2, atol=1e-15)
    monkeypatch.setattr(sampler_cost, "CASES", ((1.0, 5), (0.25, 3)))
    sampler_cost.main(["4", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["D = 4, length 40, master seed 1, best of 2 runs",
                         " omega   path  records   jumps   us/jump"]
    for line, (omega, n_traj) in zip(lines[2:], sampler_cost.CASES, strict=True):
        records = sample_ensemble(sampler_cost.fluorescence(4, omega), n_traj, 40.0, 1)
        fields = line.split()
        assert fields[:4] == [f"{omega:g}", "modes", str(n_traj),
                              str(sum(rec.positions.size for rec in records))]
        assert float(fields[4]) > 0.0
