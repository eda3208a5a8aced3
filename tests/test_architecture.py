"""The package's structure, read from its syntax trees: which module may
exponentiate, build the generator, or import which."""

import ast
from pathlib import Path

import cmps_lab

PACKAGE = Path(cmps_lab.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _names(node):
    """The identifier a Name, an Attribute or an imported alias spells."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.rsplit(".", 1)[-1] for alias in node.names]
    return []


def test_only_liouville_and_the_sampler_reference_the_matrix_exponential():
    # every exponential of a D^2 x D^2 map is certified in liouville; the
    # sampler's D x D no-jump propagator is the other method's own
    users = {module for module, tree in _trees().items() for node in ast.walk(tree)
             if {"expm", "expm_frechet"} & set(_names(node))}
    assert users <= {"liouville", "trajectories"}


def test_the_exact_calculus_and_lindblad_do_not_import_the_lattice_oracle():
    for module in ("correlators", "lindblad"):
        for node in ast.walk(_trees()[module]):
            if isinstance(node, ast.ImportFrom):
                assert "discretizer" not in (node.module or ""), module
            elif isinstance(node, ast.Import):
                assert not any("discretizer" in alias.name for alias in node.names), module


def test_the_generator_is_built_only_by_the_parameter_set():
    callers = {module for module, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and "build_liouvillian" in _names(node.func)}
    assert callers == {"core"}


def test_the_waiting_time_oracle_reads_only_the_fields_of_the_exact_calculus():
    # the oracle is an independent reference for the correlators: it takes
    # Q from liouville.fields and exponentiates it itself.  liouville's
    # certified exponential would refuse (EXPONENT_LIMIT) the drive at
    # k = 5e12 whose survival the oracle still evaluates
    imports = {}
    for node in ast.walk(_trees()["trajectories"]):
        if isinstance(node, ast.ImportFrom):
            imports.setdefault(node.module or "", set()).update(_names(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imports.setdefault(alias.name, set()).add("*")
    from_liouville = set().union(*(names for module, names in imports.items()
                                   if module.rsplit(".", 1)[-1] == "liouville"))
    assert from_liouville == {"fields"}
    words = set(imports).union(*imports.values())
    assert not [word for word in words if "correlators" in word or "discretizer" in word]
