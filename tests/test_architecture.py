"""The package's structure, read from its syntax trees: which module may
exponentiate, build the generator, close a walk, refuse a non-finite
value, or import which."""

import ast
from pathlib import Path

import numpy as np

import cmps_lab
from cmps_lab import cli, new_cmps, trajectories
from cmps_lab.discretizer import OBSERVABLES
from cmps_lab.liouville import eigenmodes

from conftest import EP_K, RF_K, RF_R

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


def _owners(tree, found):
    """The dotted names (class.function) of the definitions whose own body
    holds a node for which found is true; "" is the module's top level."""
    owners = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*path, child.name))
                continue
            if found(child):
                owners.add(".".join(path))
            visit(child, path)

    visit(tree, ())
    return owners


def _message(node):
    """The literal text of a raise's first argument (the constant tail of
    an f-string), or None."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
        return None
    arg = node.exc.args[0]
    if isinstance(arg, ast.JoinedStr) and arg.values:
        arg = arg.values[-1]
    return arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else None


def test_only_liouville_and_the_sampler_reference_the_matrix_exponential():
    # every exponential of a D^2 x D^2 map is certified in liouville; the
    # sampler's D x D no-jump propagator is the other method's own
    users = {module for module, tree in _trees().items() for node in ast.walk(tree)
             if {"expm", "expm_frechet"} & set(_names(node))}
    assert users <= {"liouville", "trajectories"}


def test_the_spectrum_is_solved_for_in_one_place():
    # np.linalg.eig, np.linalg.eigvals and LAPACK's geev drivers run only in
    # the one eigensolve, which divides out the length unit and refuses a
    # failed solve: the generator's eigenmodes (the correlators' scans, the
    # spectral envelope), the fixed point's spectrum (steady, gap), the
    # sampler's no-jump generator and the lattice's transfer matrix all call it
    def solves(node):
        return isinstance(node, ast.Call) and any(
            name in {"eig", "eigvals"} or name.endswith("geev") for name in _names(node.func))

    owners = {(module, owner) for module, tree in _trees().items()
              for owner in _owners(tree, solves)}
    assert owners == {("liouville", "spectrum")}


def test_the_eigenbasis_is_inverted_in_one_place(monkeypatch):
    # np.linalg.inv and np.linalg.solve run only in the helper that
    # certifies the eigenbasis and keeps its inverse; the coefficients of
    # the scans and the spectral envelope and the sampler's coordinates all
    # read that one inverse
    def inverts(node):
        func = getattr(node, "func", None)
        return (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and func.attr in {"inv", "solve"} and "linalg" in _names(func.value))

    owners = {(module, owner) for module, tree in _trees().items()
              for owner in _owners(tree, inverts)}
    assert owners == {("liouville", "eigenmodes")}
    # the sampler's V^-1 is the certified inverse, bit for bit the inverse
    # of its basis, and the identity on its expm path (the exceptional point)
    solved = []
    monkeypatch.setattr(trajectories, "eigenmodes", lambda *a: solved.append(eigenmodes(*a)) or solved[-1])
    for k, certified in ((RF_K, True), (EP_K, False)):
        flow = trajectories._NoJumpFlow(new_cmps(2, k, RF_R), 10.0)
        assert solved[-1].certified == certified
        if certified:
            assert flow.inv is solved[-1].inverse and flow.basis is solved[-1].vectors
        else:
            assert np.array_equal(flow.basis, np.eye(2)) and np.array_equal(flow.inv, np.eye(2))
        assert np.array_equal(flow.inv, np.linalg.inv(flow.basis))


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
    # k = 5e12 whose survival the oracle still evaluates.  The sampler
    # diagonalizes Q by the package's one eigenbasis rule and refuses a Q
    # that overflowed through the one gate
    imports = {}
    for node in ast.walk(_trees()["trajectories"]):
        if isinstance(node, ast.ImportFrom):
            imports.setdefault(node.module or "", set()).update(_names(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imports.setdefault(alias.name, set()).add("*")
    from_liouville = set().union(*(names for module, names in imports.items()
                                   if module.rsplit(".", 1)[-1] == "liouville"))
    assert from_liouville == {"fields", "eigenmodes", "finite"}
    words = set(imports).union(*imports.values())
    assert not [word for word in words if "correlators" in word or "discretizer" in word]


def test_every_exact_walk_closes_in_the_one_reader():
    # an overflow passes silently only where the closing value is then
    # tested: the reader of the chain
    def errstate(node):
        return isinstance(node, ast.With) and any(
            isinstance(item.context_expr, ast.Call) and "errstate" in _names(item.context_expr.func)
            for item in node.items)

    def scan(node):
        return isinstance(node, ast.Call) and "scan" in _names(node.func)

    tree = _trees()["correlators"]
    assert _owners(tree, errstate) == {"_Chain.read"}
    assert _owners(tree, scan) == {"_Chain.read"}


def test_every_non_finite_refusal_is_raised_by_the_one_gate():
    owners = {(module, owner) for module, tree in _trees().items()
              for owner in _owners(tree, lambda node: (_message(node) or "").endswith("is not finite"))}
    assert owners == {("liouville", "finite")}
    assert not hasattr(cmps_lab, "finite")


def _refusal(text):
    """Whether a node raises a message with `text` in a literal part."""
    def found(node):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
            return False
        arg = node.exc.args[0]
        parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
        return any(isinstance(part, ast.Constant) and text in str(part.value) for part in parts)
    return found


def test_every_finite_input_refusal_is_raised_by_the_one_reader():
    # "<name> must be finite, got <value>": a scalar (`core._real`), an
    # array, a matrix, a direction, the sources and the insertion positions
    # are all read through `core._finite_array`
    owners = {(module, owner) for module, tree in _trees().items()
              for owner in _owners(tree, _refusal("must be finite, got"))}
    assert owners == {("core", "_finite_array")}


def test_the_opening_state_the_pair_rule_and_the_moments_are_read_once():
    # rho(0) is picked by `CmpsParams.initial_state`: the exact chains and
    # the jump records read no boundary_rho of their own (the lattice
    # oracle, which has its own fixed points, opens on it directly); every
    # (K, R) pair is held to `liouville.boundary_pair`, and four numbers
    # become FieldMoments in lindblad's one reader
    trees = _trees()
    readers = {module for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "boundary_rho"}
    assert readers == {"core", "discretizer"}
    assert {(module, owner) for module, tree in trees.items()
            for owner in _owners(tree, _refusal("square and equal-shaped"))} == {
        ("liouville", "boundary_pair")}
    assert {(module, owner) for module, tree in trees.items()
            for owner in _owners(tree, lambda node: isinstance(node, ast.Call)
                                 and _names(node.func) == ["FieldMoments"]
                                 and any(isinstance(a, ast.Starred) for a in node.args))} == {
        ("lindblad", "_inputs")}


def test_the_lattice_observables_are_listed_once():
    # each observable's estimators, power of eps and value type are one
    # entry of discretizer.OBSERVABLES; no other dict, tuple, list or set
    # names two of them, and the CLI's converge choices are its keys
    def listing(node):
        items = node.keys if isinstance(node, ast.Dict) else (
            node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [])
        return len({item.value for item in items if isinstance(item, ast.Constant)}
                   & set(OBSERVABLES)) > 1

    trees = _trees()
    (table,) = [node.value for node in ast.walk(trees["discretizer"])
                if isinstance(node, ast.Assign) and _names(node.targets[0]) == ["OBSERVABLES"]]
    found = [node for tree in trees.values() for node in ast.walk(tree) if listing(node)]
    assert found == [table]
    assert cli._COMMANDS["converge"].keys["observable"].kind == tuple(OBSERVABLES)


def _raises(name):
    """Whether a node raises the exception class `name` (called or not)."""
    def found(node):
        if not (isinstance(node, ast.Raise) and node.exc is not None):
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return name in _names(exc)
    return found


def test_every_numerical_failure_is_raised_by_liouville_but_the_phase_certificate():
    # an eigensolve, an exponential, a term norm and a non-finite number are
    # refused by liouville's gates; the one other NoConvergenceError is the
    # sampler's own certificate that its no-jump phase is resolved
    def refusal(phase):
        return lambda node: _raises("NoConvergenceError")(node) and phase == (
            _message(node) or "").endswith("is not resolved in double precision")

    trees = _trees()
    assert {module for module, tree in trees.items() if _owners(tree, refusal(False))} == {"liouville"}
    assert {(module, owner) for module, tree in trees.items() if module != "liouville"
            for owner in _owners(tree, refusal(True))} == {("trajectories", "_no_jump_generator")}


def test_no_package_code_raises_numpys_linalg_error():
    # a failed solve is NoConvergenceError (`liouville.spectrum`), a singular
    # eigenbasis is refused by its one reader that can meet it
    assert not {module for module, tree in _trees().items()
                if any(_raises("LinAlgError")(node) for node in ast.walk(tree))}


def test_every_term_norm_refusal_is_raised_in_one_place():
    owners = {(module, owner) for module, tree in _trees().items()
              for owner in _owners(tree, lambda node: (_message(node) or "").endswith(
                  "has a non-finite term norm"))}
    assert owners == {("liouville", "term_norm")}
    assert not hasattr(cmps_lab, "term_norm")


def test_the_dark_rule_is_written_once():
    # the zero of a weight tr(R rho R^dag) that the density and the sampler's
    # post-jump weights are tested against
    trees = _trees()
    defined = {module for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_dark"}
    callers = {module for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and "_dark" in _names(node.func)}
    assert defined == {"core"}
    assert callers == {"correlators", "trajectories"}
