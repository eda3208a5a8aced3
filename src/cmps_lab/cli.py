"""Batch front end: JSON config in, JSON or CSV results out.

One schema table per command owns the config format (`_BASE_SCHEMA` plus
`_EXTRA_SCHEMA[command]`): each key's kind, the element kind of an
array, the choices of a string, a minimum where one applies, and the
default of each optional key.  `_check_schema` walks a config against it
and fills the defaults in, so the handlers read a resolved config, and
every run embeds that config and the tool version into its output: a
result file is sufficient to reproduce itself bit for bit.  Configs are
strict: unknown, missing or malformed keys fail with the offending dotted
key named.  Exit codes: 0 success, 1 invalid input, 2 numerical failure.
"""

import argparse
import collections
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .core import Finite, Thermodynamic, new_cmps
from .correlators import (
    INSERTIONS,
    family_derivative,
    kinetic_density,
    lieb_liniger_energy_density,
    pair_correlation,
    source_consistency_check,
    two_point,
)
from .discretizer import (
    convergence_study,
    lattice_correlators,
    lattice_tensors,
)
from .errors import ConfigError, NoConvergenceError, NumericalError, ValidationError
from .lindblad import FieldMoments, compare_forms
from .liouville import Tolerances, build_liouvillian
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
_EXTRA_SCHEMA = {
    "steady": {},
    "gap": {},
    "kinetic": {},
    "correlate": {"separations": _Key(_NUMS, minimum=0.0)},
    "g2": {"separations": _Key(_NUMS, minimum=0.0)},
    "ll-energy": {"c": _Key("num"), "mu": _Key("num")},
    "discretize": {"epsilons": _Key(_NUMS), "order": _Key("int", 1)},
    "converge": {
        "epsilons": _Key(_NUMS),
        "observable": _Key(("occupation", "hopping", "pair"), "occupation"),
        "separation": _Key("num", None),
        "order": _Key("int", 1),
    },
    "trajectories": {
        "n_traj": _Key("int"),
        "seed": _Key("int", minimum=0),
        "bins": _Key(_NUMS, minimum=0.0),
        "burn_in": _Key("num", 0.0),
    },
    "lindblad-check": {
        "moments": _Key({"psi_dag_sq": _Key(_CPLX), "psi_dag_psi": _Key("num")}),
        "dx": _Key("num", 0.1),
    },
    "zfunctional-check": {
        "eps": _Key("num"),
        "h": _Key("num"),
        "n_sites": _Key("int"),
        "site_pair": _Key(["int"], None),
    },
    "family-deriv": {
        "dK": _Key(_MAT),
        "dR": _Key(_MAT),
        "insertions": _Key([{"kind": _Key(tuple(INSERTIONS)), "position": _Key("num")}]),
    },
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
    try:
        re = np.asarray(node["re"], dtype=float)
        im = np.asarray(node["im"], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"'{path}' entries must be rectangular numeric arrays: {exc}")
    if im.shape != re.shape:
        raise ConfigError(f"'{path}' re/im must be matching 2d row-major matrices")
    return re + 1j * im


def _build_params(cfg, tol, record_length=False):
    """The parameter set, after the rules that depend on the geometry."""
    model = cfg["model"]
    k = _complex_matrix(model["K"], "model.K")
    r = _complex_matrix(model["R"], "model.R")
    if cfg["geometry"] == "thermodynamic":
        if "boundary_rho" in cfg:
            raise ConfigError("'boundary_rho' is only valid for finite geometry")
        if "length" in cfg and not record_length:
            raise ConfigError("'length' is only valid for finite geometry")
        if record_length and "length" not in cfg:
            raise ConfigError("missing required key 'length' (record length)")
        geometry = Thermodynamic()
    else:
        if "length" not in cfg or "boundary_rho" not in cfg:
            raise ConfigError("finite geometry requires 'length' and 'boundary_rho'")
        rho = _complex_matrix(cfg["boundary_rho"], "boundary_rho")
        geometry = Finite(length=float(cfg["length"]), boundary_rho=rho, tol=tol)
    return new_cmps(model["dim"], k, r, geometry, tol)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return f if math.isfinite(f) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.complexfloating, complex)):
        return {"re": _jsonable(value.real), "im": _jsonable(value.imag)}
    return value


def _matrix_out(m):
    m = np.asarray(m)
    return {"re": _jsonable(m.real), "im": _jsonable(m.imag)}


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
    payload = {
        "version": __version__,
        "command": command,
        "config": _jsonable(cfg),
        "result": _jsonable(result),
    }
    _atomic_write(out_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(out_path, command, cfg, header, rows):
    lines = [
        f"# version: {__version__}",
        f"# command: {command}",
        "# config: " + json.dumps(_jsonable(cfg), sort_keys=True, separators=(",", ":")),
        header,
    ]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    _atomic_write(out_path, "\n".join(lines) + "\n")


def _cmd_spectrum(command, cfg, params, out_path):
    """`steady` and `gap`: the spectrum, plus the fixed point for `steady`."""
    data = params.stationary
    result = {
        "gap": data.gap,
        "gapless": data.gapless,
        "eigenvalues": {
            "re": data.eigenvalues.real,
            "im": data.eigenvalues.imag,
        },
    }
    if command == "steady":
        result["rho_ss"] = _matrix_out(data.steady_state)
    _emit_json(out_path, command, cfg, result)


def _cmd_separations(command, cfg, params, out_path):
    """`correlate` and `g2`: two-point function or g2 on separations, as CSV."""
    correlator = two_point if command == "correlate" else pair_correlation
    res = correlator(params, cfg["separations"])
    rows = [(d, v.real, v.imag) for d, v in zip(res.separations, res.values)]
    _emit_csv(out_path, command, cfg, "d,re,im", rows)


def _cmd_kinetic(cfg, params, out_path):
    _emit_json(out_path, "kinetic", cfg, {"kinetic_density": kinetic_density(params)})


def _cmd_ll_energy(cfg, params, out_path):
    value = lieb_liniger_energy_density(params, cfg["c"], cfg["mu"])
    _emit_json(out_path, "ll-energy", cfg, {"energy_density": value})


def _cmd_discretize(cfg, params, out_path):
    eps_list = np.asarray(cfg["epsilons"], dtype=float)
    generator = build_liouvillian(params.K, params.R)
    if not np.isfinite(generator.scale):
        raise NoConvergenceError("generator has a non-finite term norm")
    eye = np.eye(generator.dim ** 2)
    occupations, defects = [], []
    for eps in eps_list:
        tensors = lattice_tensors(params, eps, order=cfg["order"])
        if not np.isfinite(tensors.transfer.scale):
            raise NoConvergenceError("transfer matrix has a non-finite term norm")
        emat = tensors.transfer.hmat
        # both terms are finite, but their difference's norm may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            defect = float(np.linalg.norm(emat - eye - eps * generator.hmat))
        if not math.isfinite(defect):
            raise NoConvergenceError("transfer defect is not finite")
        defects.append(defect)
        occupations.append(lattice_correlators(tensors, "occupation"))
    result = {
        "epsilons": eps_list,
        "occupation": occupations,
        "transfer_defect": defects,
        "order": cfg["order"],
    }
    _emit_json(out_path, "discretize", cfg, result)


def _cmd_converge(cfg, params, out_path):
    observable = cfg["observable"]
    if observable == "occupation":
        if "separation" in cfg:
            raise ConfigError("'separation' is only valid for hopping/pair observables")
    else:
        if "separation" not in cfg:
            raise ConfigError(f"missing required key 'separation' for observable '{observable}'")
        observable = (observable, float(cfg["separation"]))
    study = convergence_study(params, cfg["epsilons"], observable=observable, order=cfg["order"])
    result = {
        "epsilons": study.eps,
        "values": {"re": study.values.real, "im": study.values.imag},
        "extrapolated": study.extrapolated,
        "errors": study.errors,
        "orders": study.orders,
    }
    _emit_json(out_path, "converge", cfg, result)


def _cmd_trajectories(cfg, params, out_path):
    if isinstance(params.geometry, Finite):
        length = params.geometry.length
    else:
        length = float(cfg["length"])
    records = sample_ensemble(params, cfg["n_traj"], length, cfg["seed"])
    stats = estimate_stats(records, cfg["bins"], burn_in=float(cfg["burn_in"]))
    _emit_json(out_path, "trajectories", cfg, dataclasses.asdict(stats))


def _cmd_lindblad_check(cfg, params, out_path):
    alpha = complex(cfg["moments"]["psi_dag_sq"]["re"], cfg["moments"]["psi_dag_sq"]["im"])
    n = float(cfg["moments"]["psi_dag_psi"])
    moments = FieldMoments(
        psi_dag_sq=alpha, psi_sq=np.conj(alpha),
        psi_dag_psi=n, psi_psi_dag=n + 1.0, tol=params.tol,
    )
    comp = compare_forms(params.K, params.R, moments, dx=cfg["dx"])
    _emit_json(out_path, "lindblad-check", cfg, dataclasses.asdict(comp))


def _cmd_zfunctional_check(cfg, params, out_path):
    report = source_consistency_check(params, cfg["eps"], cfg["h"], cfg["n_sites"],
                                      site_pair=cfg.get("site_pair"))
    cfg["site_pair"] = report["sites"]
    _emit_json(out_path, "zfunctional-check", cfg, report)


def _cmd_family_deriv(cfg, params, out_path):
    dk = _complex_matrix(cfg["dK"], "dK")
    dr = _complex_matrix(cfg["dR"], "dR")
    insertions = [(float(item["position"]), item["kind"]) for item in cfg["insertions"]]
    value = family_derivative(params, dk, dr, insertions)
    _emit_json(out_path, "family-deriv", cfg, {"derivative": complex(value)})


_HANDLERS = {
    "steady": functools.partial(_cmd_spectrum, "steady"),
    "gap": functools.partial(_cmd_spectrum, "gap"),
    "correlate": functools.partial(_cmd_separations, "correlate"),
    "g2": functools.partial(_cmd_separations, "g2"),
    "kinetic": _cmd_kinetic,
    "ll-energy": _cmd_ll_energy,
    "discretize": _cmd_discretize,
    "converge": _cmd_converge,
    "trajectories": _cmd_trajectories,
    "lindblad-check": _cmd_lindblad_check,
    "zfunctional-check": _cmd_zfunctional_check,
    "family-deriv": _cmd_family_deriv,
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
    """The run's Tolerances: defaults, overridden where the file names `<field>_tol`."""
    overrides = _read_json(path, "tolerance overrides file")
    if not isinstance(overrides, dict):
        raise ConfigError("tolerance overrides must be a JSON object")
    names = {f"{f.name}_tol": f.name for f in dataclasses.fields(Tolerances)}
    for name, value in overrides.items():
        if name not in names:
            raise ConfigError(f"unknown tolerance '{name}'")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ConfigError(f"tolerance '{name}' must be a positive number")
    return Tolerances(**{names[name]: float(value) for name, value in overrides.items()})


def _run(argv):
    parser = _Parser(prog="cmps-lab", description=__doc__)
    parser.add_argument("command", choices=list(_HANDLERS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--tolerance-overrides", default=None)
    args = parser.parse_args(argv)

    tol = Tolerances()
    if args.tolerance_overrides:
        tol = _load_tolerances(args.tolerance_overrides)
    cfg = _read_json(args.config, "config")
    _check_schema(cfg, _BASE_SCHEMA | _EXTRA_SCHEMA[args.command])
    params = _build_params(cfg, tol, record_length=args.command == "trajectories")
    _HANDLERS[args.command](cfg, params, args.output)
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
