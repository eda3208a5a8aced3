"""Batch front end: JSON config in, JSON or CSV results out.

One table, `_COMMANDS`, holds every command, one entry each: the keys the
command adds to `_BASE_SCHEMA`, a `compute(cfg, params)` that returns its
result, and the header of a CSV result (the others write JSON).  The
schema gives each key's kind, the element kind of an array, the choices
of a string, a minimum where one applies, and the default of each
optional key.  `_run` checks a config against it with `_check_schema`,
which fills the defaults in, builds the parameter set, calls `compute`
and writes the result: every output embeds the resolved config and the
tool version, so a result file is sufficient to reproduce itself bit for
bit.  Configs are strict: unknown, missing or malformed keys fail with
the offending dotted key named.  Exit codes: 0 success, 1 invalid input,
2 numerical failure.
"""

import argparse
import collections
import dataclasses
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .core import Finite, Thermodynamic, _array, new_cmps
from .correlators import (
    INSERTIONS,
    family_derivative,
    kinetic_density,
    lieb_liniger_energy_density,
    pair_correlation,
    source_consistency_check,
    two_point,
)
from .discretizer import OBSERVABLES, convergence_study, lattice_correlators, lattice_tensors
from .errors import ConfigError, NumericalError, ValidationError
from .lindblad import FieldMoments, compare_forms
from .liouville import Tolerances, finite, term_norm
from .trajectories import estimate_stats, sample_ensemble

# A schema maps each key of a JSON object to a _Key:
#   kind     "num" (a JSON number, not a bool), "int", a tuple of the allowed
#            strings, a dict (a nested object's schema), or [kind], a
#            non-empty array of that kind whose entries are named key[i];
#   default  _REQUIRED; None for an optional key left absent; the value
#            filled in; or a function of the object that returns it;
#   minimum  the least value of a number, or of each number of an array.
_REQUIRED = object()
_Key = collections.namedtuple("_Key", "kind default minimum", defaults=(_REQUIRED, None))

_NUMS = ["num"]
_MAT = {"re": _Key([_NUMS]),
        "im": _Key([_NUMS], lambda m: [[0.0] * len(row) for row in m["re"]])}
_CPLX = {"re": _Key("num"), "im": _Key("num", 0.0)}
_BASE_SCHEMA = {
    "model": _Key({"dim": _Key("int"), "K": _Key(_MAT), "R": _Key(_MAT)}),
    "geometry": _Key(("thermodynamic", "finite")),
    "length": _Key("num", None),
    "boundary_rho": _Key(_MAT, None),
}
# the Python types that json gives a number of each kind (a bool is not one)
_NUMBER_TYPES = {"num": {int, float}, "int": {int}}
_NUMBER_NAMES = {"num": "a number", "int": "an integer"}


def _dot(path, key):
    return f"{path}.{key}" if path else key


def _check_schema(obj, schema, path=""):
    """Check the JSON object `obj` against `schema`, filling in its defaults."""
    if not isinstance(obj, dict):
        raise ConfigError(f"'{path or 'config'}' must be a JSON object")
    for key in obj:
        if key not in schema:
            raise ConfigError(f"unknown key '{_dot(path, key)}'")
    for key, (kind, default, minimum) in schema.items():
        if key in obj:
            _check_value(obj[key], kind, minimum, _dot(path, key))
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key '{_dot(path, key)}'")
        elif default is not None:
            obj[key] = default(obj) if callable(default) else default


def _check_value(value, kind, minimum, path):
    if isinstance(kind, dict):
        _check_schema(value, kind, path)
    elif isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"'{path}' must be one of {sorted(kind)}")
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"'{path}' must be an array")
        if not value:
            raise ConfigError(f"'{path}' must not be empty")
        (entry,) = kind
        if _all_numbers(value, entry, minimum):
            return
        for i, item in enumerate(value):
            _check_value(item, entry, minimum, f"{path}[{i}]")
    elif type(value) not in _NUMBER_TYPES[kind]:
        raise ConfigError(f"'{path}' must be {_NUMBER_NAMES[kind]}")
    elif minimum is not None and value < minimum:
        raise ConfigError(f"'{path}' must be >= {minimum}")


def _all_numbers(items, kind, minimum):
    """Whether each item is a number of `kind`, at least `minimum`, or for
    kind [k] a non-empty array of them: a good vector or matrix is checked
    whole, at C speed, and only a bad one is walked to name its entry."""
    if isinstance(kind, list):
        if set(map(type, items)) != {list} or not all(items):
            return False
        items, (kind,) = list(itertools.chain.from_iterable(items)), kind
    return (isinstance(kind, str) and set(map(type, items)) <= _NUMBER_TYPES[kind]
            and (minimum is None or min(items) >= minimum))


def _complex_matrix(node, path):
    re, im = _array(node["re"], f"'{path}.re'"), _array(node["im"], f"'{path}.im'")
    if im.shape != re.shape:
        raise ConfigError(f"'{path}' re/im must be matching 2d row-major matrices")
    return re + 1j * im


def _build_params(cfg, tol, keys):
    """The parameter set, after the rules that depend on the geometry;
    `keys`, the command's own, admit `length` in the thermodynamic one."""
    model = cfg["model"]
    k = _complex_matrix(model["K"], "model.K")
    r = _complex_matrix(model["R"], "model.R")
    if cfg["geometry"] == "thermodynamic":
        if "boundary_rho" in cfg:
            raise ConfigError("'boundary_rho' is only valid for finite geometry")
        if "length" in cfg and "length" not in keys:
            raise ConfigError("'length' is only valid for finite geometry")
        geometry = Thermodynamic()
    else:
        if "length" not in cfg or "boundary_rho" not in cfg:
            raise ConfigError("finite geometry requires 'length' and 'boundary_rho'")
        rho = _complex_matrix(cfg["boundary_rho"], "boundary_rho")
        geometry = Finite(length=float(cfg["length"]), boundary_rho=rho)
    return new_cmps(model["dim"], k, r, geometry, tol)


def _json_text(value):
    """`value` as json.dumps(value, indent=2, sort_keys=True) writes it,
    byte for byte.

    The walk also writes what json cannot: a non-finite float as null, a
    numpy scalar as its Python value, an ndarray as nested lists, and a
    complex number as {"re", "im"}.  json's own encoder falls back to
    pure Python once indent is set, so one walk here is faster.
    """
    parts = []

    def walk(value, level):
        if isinstance(value, str):
            parts.append(encode_basestring_ascii(value))
        elif value is None:
            parts.append("null")
        elif isinstance(value, (bool, np.bool_)):
            parts.append("true" if value else "false")
        elif isinstance(value, (int, np.integer)):
            parts.append(int.__repr__(int(value)))
        elif isinstance(value, (float, np.floating)):
            f = float(value)
            parts.append(float.__repr__(f) if math.isfinite(f) else "null")
        elif isinstance(value, (complex, np.complexfloating)):
            walk({"re": value.real, "im": value.imag}, level)
        elif isinstance(value, np.ndarray):
            walk(value.tolist(), level)
        elif isinstance(value, (dict, list, tuple)):
            if not value:
                parts.append("{}" if isinstance(value, dict) else "[]")
                return
            inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
            sep = "," + inner
            if isinstance(value, dict):
                parts.append("{" + inner)
                for i, key in enumerate(sorted(value)):
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not {type(key).__name__}")
                    parts.append((sep if i else "") + encode_basestring_ascii(key) + ": ")
                    walk(value[key], level + 1)
                parts.append(outer + "}")
                return
            if set(map(type, value)) == {float}:
                text = sep.join(map(float.__repr__, value))
                if "n" not in text:  # no nan or inf: a finite float's repr has no "n"
                    parts.append("[" + inner + text + outer + "]")
                    return
            parts.append("[" + inner)
            for i, item in enumerate(value):
                if i:
                    parts.append(sep)
                walk(item, level + 1)
            parts.append(outer + "]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    walk(value, 0)
    return "".join(parts)


def _matrix_out(m):
    m = np.asarray(m)
    return {"re": m.real, "im": m.imag}


def _atomic_write(path, text):
    """Write through a fresh temp file beside `path`, then rename it over.

    The temp name is random and created exclusively, so concurrent runs
    never share one; mode 0o666 lets the umask set the permission bits, as
    a plain open() would.  A path that cannot be written (a directory, a
    missing parent) is bad input.
    """
    head, tail = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(16).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write output '{path}': {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.unlink(tmp)


def _emit_json(out_path, command, cfg, result):
    payload = {"version": __version__, "command": command, "config": cfg, "result": result}
    _atomic_write(out_path, _json_text(payload) + "\n")


def _emit_csv(out_path, command, cfg, header, rows):
    lines = [
        f"# version: {__version__}",
        f"# command: {command}",
        "# config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":")),
        header,
    ]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    _atomic_write(out_path, "\n".join(lines) + "\n")


def _gap(cfg, params):
    data = params.stationary
    return {"gap": data.gap, "gapless": data.gapless, "eigenvalues": _matrix_out(data.eigenvalues)}


def _separation_rows(correlator, cfg, params):
    """The rows (d, re, im) of a correlator on the config's separations."""
    res = correlator(params, cfg["separations"])
    return [(d, v.real, v.imag) for d, v in zip(res.separations, res.values)]


def _discretize(cfg, params):
    eps_list = np.asarray(cfg["epsilons"], dtype=float)
    generator = params.generator
    term_norm(generator, "generator")
    eye = np.eye(generator.dim ** 2)
    occupations, defects = [], []
    for eps in eps_list:
        tensors = lattice_tensors(params, eps, order=cfg["order"])
        term_norm(tensors.transfer, "transfer matrix")
        emat = tensors.transfer.hmat
        # both terms are finite, but their difference's norm may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            defect = float(np.linalg.norm(emat - eye - eps * generator.hmat))
        defects.append(finite(defect, "transfer defect"))
        occupations.append(lattice_correlators(tensors, "occupation"))
    return {"epsilons": eps_list, "occupation": occupations, "transfer_defect": defects,
            "order": cfg["order"]}


def _converge(cfg, params):
    observable = cfg["observable"]
    if OBSERVABLES[observable].paired:
        if "separation" not in cfg:
            raise ConfigError(f"missing required key 'separation' for observable '{observable}'")
        observable = (observable, float(cfg["separation"]))
    elif "separation" in cfg:
        raise ConfigError("'separation' is only valid for hopping/pair observables")
    study = convergence_study(params, cfg["epsilons"], observable=observable, order=cfg["order"])
    return {"epsilons": study.eps, "values": _matrix_out(study.values),
            "extrapolated": study.extrapolated, "errors": study.errors, "orders": study.orders}


def _trajectories(cfg, params):
    records = sample_ensemble(params, cfg["n_traj"], float(cfg["length"]), cfg["seed"])
    stats = estimate_stats(records, cfg["bins"], burn_in=float(cfg["burn_in"]))
    return dataclasses.asdict(stats)


def _lindblad_check(cfg, params):
    alpha = complex(cfg["moments"]["psi_dag_sq"]["re"], cfg["moments"]["psi_dag_sq"]["im"])
    n = float(cfg["moments"]["psi_dag_psi"])
    moments = FieldMoments(
        psi_dag_sq=alpha, psi_sq=np.conj(alpha),
        psi_dag_psi=n, psi_psi_dag=n + 1.0, tol=params.tol,
    )
    return dataclasses.asdict(compare_forms(params.K, params.R, moments, dx=cfg["dx"]))


def _zfunctional_check(cfg, params):
    report = source_consistency_check(params, cfg["eps"], cfg["h"], cfg["n_sites"],
                                      site_pair=cfg.get("site_pair"))
    cfg["site_pair"] = report["sites"]
    return report


def _family_deriv(cfg, params):
    dk = _complex_matrix(cfg["dK"], "dK")
    dr = _complex_matrix(cfg["dR"], "dR")
    insertions = [(float(item["position"]), item["kind"]) for item in cfg["insertions"]]
    return {"derivative": complex(family_derivative(params, dk, dr, insertions))}


# One entry per command: the keys it adds to _BASE_SCHEMA, compute(cfg,
# params), which returns its result, and the header of a CSV result (None
# writes JSON).  The lambdas look the library functions up when called, so
# a wrapper put on a module attribute sees the call.
_Command = collections.namedtuple("_Command", "keys compute header", defaults=(None,))
_SEPARATIONS = {"separations": _Key(_NUMS, minimum=0.0)}
_COMMANDS = {
    "steady": _Command({}, lambda cfg, params: _gap(cfg, params) | {
        "rho_ss": _matrix_out(params.stationary.steady_state)}),
    "gap": _Command({}, _gap),
    "kinetic": _Command({}, lambda cfg, params: {"kinetic_density": kinetic_density(params)}),
    "correlate": _Command(_SEPARATIONS, lambda cfg, params: _separation_rows(
        two_point, cfg, params), "d,re,im"),
    "g2": _Command(_SEPARATIONS, lambda cfg, params: _separation_rows(
        pair_correlation, cfg, params), "d,re,im"),
    "ll-energy": _Command({"c": _Key("num"), "mu": _Key("num")}, lambda cfg, params: {
        "energy_density": lieb_liniger_energy_density(params, cfg["c"], cfg["mu"])}),
    "discretize": _Command({"epsilons": _Key(_NUMS), "order": _Key("int", 1)}, _discretize),
    "converge": _Command({
        "epsilons": _Key(_NUMS),
        "observable": _Key(tuple(OBSERVABLES), "occupation"),
        "separation": _Key("num", None),
        "order": _Key("int", 1),
    }, _converge),
    # the record length is required here, in either geometry
    "trajectories": _Command({
        "length": _Key("num"),
        "n_traj": _Key("int"),
        "seed": _Key("int", minimum=0),
        "bins": _Key(_NUMS, minimum=0.0),
        "burn_in": _Key("num", 0.0),
    }, _trajectories),
    "lindblad-check": _Command({
        "moments": _Key({"psi_dag_sq": _Key(_CPLX), "psi_dag_psi": _Key("num")}),
        "dx": _Key("num", 0.1),
    }, _lindblad_check),
    "zfunctional-check": _Command({
        "eps": _Key("num"),
        "h": _Key("num"),
        "n_sites": _Key("int"),
        "site_pair": _Key(["int"], None),
    }, _zfunctional_check),
    "family-deriv": _Command({
        "dK": _Key(_MAT),
        "dR": _Key(_MAT),
        "insertions": _Key([{"kind": _Key(tuple(INSERTIONS)), "position": _Key("num")}]),
    }, _family_deriv),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text!r} in JSON input")
    return value


def _float_range_int(text):
    try:
        value = int(text)
        float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"integer {text[:16]}... in JSON input exceeds the float range")
    return value


def _non_finite_literal(name):
    raise ConfigError(f"non-finite literal {name!r} in JSON input")


def _read_json(path, what):
    """The file's strict JSON: NaN/Infinity literals and overflowing numbers
    are rejected; `what` names the file in the errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite_float, parse_int=_float_range_int,
                             parse_constant=_non_finite_literal)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}")


def _load_tolerances(path):
    """The run's Tolerances: defaults, overridden where the file names
    `<field>_tol`; `Tolerances` itself refuses a value that is not positive."""
    overrides = _read_json(path, "tolerance overrides file")
    if not isinstance(overrides, dict):
        raise ConfigError("tolerance overrides must be a JSON object")
    names = {f"{f.name}_tol": f.name for f in dataclasses.fields(Tolerances)}
    for name, value in overrides.items():
        if name not in names:
            raise ConfigError(f"unknown tolerance '{name}'")
        if type(value) not in _NUMBER_TYPES["num"]:
            raise ConfigError(f"tolerance '{name}' must be {_NUMBER_NAMES['num']}")
    return Tolerances(**{names[name]: float(value) for name, value in overrides.items()})


def _run(argv):
    parser = _Parser(prog="cmps-lab", description=__doc__)
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--tolerance-overrides", default=None)
    args = parser.parse_args(argv)

    tol = Tolerances()
    if args.tolerance_overrides:
        tol = _load_tolerances(args.tolerance_overrides)
    command = _COMMANDS[args.command]
    cfg = _read_json(args.config, "config")
    _check_schema(cfg, _BASE_SCHEMA | command.keys)
    result = command.compute(cfg, _build_params(cfg, tol, command.keys))
    if command.header is None:
        _emit_json(args.output, args.command, cfg, result)
    else:
        _emit_csv(args.output, args.command, cfg, command.header, result)
    return 0


def main(argv=None):
    try:
        return _run(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
