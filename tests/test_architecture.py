"""The package's structure, read from its syntax trees: which module may
exponentiate, build the generator, close a walk, refuse a non-finite
value, or import which."""

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


def test_eigenvectors_are_solved_for_in_one_place():
    # np.linalg.eig runs only in the helper that certifies its basis, which
    # the correlators' scans, the spectral envelope and the sampler share
    owners = {(module, owner) for module, tree in _trees().items()
              for owner in _owners(tree, lambda node: isinstance(node, ast.Call)
                                   and "eig" in _names(node.func))}
    assert owners == {("liouville", "eigenmodes")}


def test_eigenvalues_alone_are_solved_for_in_one_place():
    # np.linalg.eigvals runs only for the fixed point's spectrum, which
    # steady and gap report; every other reader of the spectrum reads the
    # eigenmodes
    owners = {(module, owner) for module, tree in _trees().items()
              for owner in _owners(tree, lambda node: isinstance(node, ast.Call)
                                   and "eigvals" in _names(node.func))}
    assert owners == {("liouville", "SpectralData.eigenvalues")}


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
    # diagonalizes Q by the package's one eigenbasis rule
    imports = {}
    for node in ast.walk(_trees()["trajectories"]):
        if isinstance(node, ast.ImportFrom):
            imports.setdefault(node.module or "", set()).update(_names(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imports.setdefault(alias.name, set()).add("*")
    from_liouville = set().union(*(names for module, names in imports.items()
                                   if module.rsplit(".", 1)[-1] == "liouville"))
    assert from_liouville == {"fields", "eigenmodes"}
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
