"""Batch front end: JSON config in, JSON or CSV results out.

Every run embeds the tool version and the fully resolved config (defaults
filled in) into its output, so a result file is sufficient to reproduce
itself bit for bit.  Configs are strict: unknown or missing keys fail
with the offending dotted key named.  Exit codes: 0 success, 1 invalid
input, 2 numerical failure.
"""

import argparse
import dataclasses
import functools
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
    finite_site_count,
    lattice_correlators,
    lattice_tensors,
)
from .errors import ConfigError, NumericalError, ValidationError
from .lindblad import FieldMoments, compare_forms
from .liouville import Tolerances, build_liouvillian
from .trajectories import estimate_stats, sample_ensemble

_MAT = "mat"
_BASE_SCHEMA = {
    "model": ("req", {"dim": ("req", "int"), "K": ("req", _MAT), "R": ("req", _MAT)}),
    "geometry": ("req", "str"),
    "length": ("opt", "num"),
    "boundary_rho": ("opt", _MAT),
}

_EXTRA_SCHEMA = {
    "steady": {},
    "gap": {},
    "kinetic": {},
    "correlate": {"separations": ("req", "list")},
    "g2": {"separations": ("req", "list")},
    "ll-energy": {"c": ("req", "num"), "mu": ("req", "num")},
    "discretize": {"epsilons": ("req", "list"), "order": ("opt", "int")},
    "converge": {
        "epsilons": ("req", "list"),
        "observable": ("opt", "str"),
        "separation": ("opt", "num"),
        "order": ("opt", "int"),
    },
    "trajectories": {
        "n_traj": ("req", "int"),
        "seed": ("req", "int"),
        "bins": ("req", "list"),
        "burn_in": ("opt", "num"),
    },
    "lindblad-check": {
        "moments": ("req", {"psi_dag_sq": ("req", "cplx"), "psi_dag_psi": ("req", "num")}),
        "dx": ("opt", "num"),
    },
    "zfunctional-check": {
        "eps": ("req", "num"),
        "h": ("req", "num"),
        "n_sites": ("req", "int"),
        "site_pair": ("opt", "list"),
    },
    "family-deriv": {
        "dK": ("req", _MAT),
        "dR": ("req", _MAT),
        "insertions": ("req", "list"),
    },
}


def _dot(path, key):
    return f"{path}.{key}" if path else key


def _check_schema(obj, schema, path=""):
    where = path or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"'{where}' must be a JSON object")
    for key in obj:
        if key not in schema:
            raise ConfigError(f"unknown key '{_dot(path, key)}'")
    for key, (flag, kind) in schema.items():
        if key not in obj:
            if flag == "req":
                raise ConfigError(f"missing required key '{_dot(path, key)}'")
            continue
        val = obj[key]
        sub = _dot(path, key)
        if kind == _MAT:
            _check_schema(val, {"re": ("req", "list"), "im": ("opt", "list")}, sub)
        elif kind == "cplx":
            _check_schema(val, {"re": ("req", "num"), "im": ("opt", "num")}, sub)
        elif isinstance(kind, dict):
            _check_schema(val, kind, sub)
        elif kind == "num":
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"'{sub}' must be a number")
        elif kind == "int":
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"'{sub}' must be an integer")
        elif kind == "str":
            if not isinstance(val, str):
                raise ConfigError(f"'{sub}' must be a string")
        elif kind == "list":
            if not isinstance(val, list):
                raise ConfigError(f"'{sub}' must be an array")
        else:  # pragma: no cover - schema table typo guard
            raise AssertionError(kind)


def _complex_matrix(node, path):
    try:
        re = np.asarray(node["re"], dtype=float)
        im_raw = node.get("im")
        im = np.zeros_like(re) if im_raw is None else np.asarray(im_raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{path}' entries must be rectangular numeric arrays: {exc}")
    if re.ndim != 2 or im.shape != re.shape:
        raise ConfigError(f"'{path}' re/im must be matching 2d row-major matrices")
    return re + 1j * im


def _float_list(values, path, minimum=None):
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"'{path}[{i}]' must be a number")
        if minimum is not None and v < minimum:
            raise ConfigError(f"'{path}[{i}]' must be >= {minimum}")
        out.append(float(v))
    if not out:
        raise ConfigError(f"'{path}' must not be empty")
    return np.asarray(out)


def _fill_matrix_default(node):
    if "im" not in node:
        node["im"] = [[0.0] * len(row) for row in node["re"]]


def _build_params(cfg, tol, record_length=False):
    model = cfg["model"]
    k = _complex_matrix(model["K"], "model.K")
    r = _complex_matrix(model["R"], "model.R")
    geo = cfg["geometry"]
    if geo == "thermodynamic":
        if "boundary_rho" in cfg:
            raise ConfigError("'boundary_rho' is only valid for finite geometry")
        if "length" in cfg and not record_length:
            raise ConfigError("'length' is only valid for finite geometry")
        if record_length and "length" not in cfg:
            raise ConfigError("missing required key 'length' (record length)")
        geometry = Thermodynamic()
    elif geo == "finite":
        if "length" not in cfg or "boundary_rho" not in cfg:
            raise ConfigError("finite geometry requires 'length' and 'boundary_rho'")
        rho = _complex_matrix(cfg["boundary_rho"], "boundary_rho")
        geometry = Finite(length=float(cfg["length"]), boundary_rho=rho, tol=tol)
    else:
        raise ConfigError("'geometry' must be 'thermodynamic' or 'finite'")
    params = new_cmps(model["dim"], k, r, geometry, tol)
    _fill_matrix_default(model["K"])
    _fill_matrix_default(model["R"])
    if "boundary_rho" in cfg:
        _fill_matrix_default(cfg["boundary_rho"])
    return params


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
    seps = _float_list(cfg["separations"], "separations", minimum=0.0)
    correlator = two_point if command == "correlate" else pair_correlation
    res = correlator(params, seps)
    rows = [(d, v.real, v.imag) for d, v in zip(res.separations, res.values)]
    _emit_csv(out_path, command, cfg, "d,re,im", rows)


def _cmd_kinetic(cfg, params, out_path):
    _emit_json(out_path, "kinetic", cfg, {"kinetic_density": kinetic_density(params)})


def _cmd_ll_energy(cfg, params, out_path):
    value = lieb_liniger_energy_density(params, cfg["c"], cfg["mu"])
    _emit_json(out_path, "ll-energy", cfg, {"energy_density": value})


def _cmd_discretize(cfg, params, out_path):
    eps_list = _float_list(cfg["epsilons"], "epsilons")
    order = cfg.setdefault("order", 1)
    superop = build_liouvillian(params.K, params.R)
    eye = np.eye(superop.mat.shape[0])
    occupations, defects = [], []
    for eps in eps_list:
        tensors = lattice_tensors(params, eps, order=order)
        emat = tensors.transfer.mat
        defects.append(float(np.linalg.norm(emat - eye - eps * superop.mat)))
        if isinstance(params.geometry, Finite):
            n_sites = finite_site_count(params.geometry.length, eps)
            occ = lattice_correlators(tensors, "occupation", n_sites=n_sites,
                                      boundary_rho=params.geometry.boundary_rho)
        else:
            occ = lattice_correlators(tensors, "occupation")
        occupations.append(float(occ))
    result = {
        "epsilons": eps_list,
        "occupation": occupations,
        "transfer_defect": defects,
        "order": order,
    }
    _emit_json(out_path, "discretize", cfg, result)


def _cmd_converge(cfg, params, out_path):
    eps_list = _float_list(cfg["epsilons"], "epsilons")
    name = cfg.setdefault("observable", "occupation")
    order = cfg.setdefault("order", 1)
    if name == "occupation":
        if "separation" in cfg:
            raise ConfigError("'separation' is only valid for hopping/pair observables")
        observable = "occupation"
    elif name in ("hopping", "pair"):
        if "separation" not in cfg:
            raise ConfigError(f"missing required key 'separation' for observable '{name}'")
        observable = (name, float(cfg["separation"]))
    else:
        raise ConfigError("'observable' must be one of occupation, hopping, pair")
    study = convergence_study(params, eps_list, observable=observable, order=order)
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
    n_traj = cfg["n_traj"]
    seed = cfg["seed"]
    if seed < 0:
        raise ConfigError("'seed' must be nonnegative")
    bins = _float_list(cfg["bins"], "bins", minimum=0.0)
    burn_in = float(cfg.setdefault("burn_in", 0.0))
    records = sample_ensemble(params, n_traj, length, seed)
    stats = estimate_stats(records, bins, burn_in=burn_in)
    _emit_json(out_path, "trajectories", cfg, dataclasses.asdict(stats))


def _cmd_lindblad_check(cfg, params, out_path):
    node = cfg["moments"]["psi_dag_sq"]
    node.setdefault("im", 0.0)
    alpha = complex(node["re"], node["im"])
    n = float(cfg["moments"]["psi_dag_psi"])
    moments = FieldMoments(
        psi_dag_sq=alpha, psi_sq=np.conj(alpha),
        psi_dag_psi=n, psi_psi_dag=n + 1.0, tol=params.tol,
    )
    dx = float(cfg.setdefault("dx", 0.1))
    comp = compare_forms(params.K, params.R, moments, dx=dx)
    _emit_json(out_path, "lindblad-check", cfg, dataclasses.asdict(comp))


def _cmd_zfunctional_check(cfg, params, out_path):
    n_sites = cfg["n_sites"]
    pair = cfg.setdefault("site_pair", [n_sites // 4, (3 * n_sites) // 4])
    if len(pair) != 2 or any(isinstance(p, bool) or not isinstance(p, int) for p in pair):
        raise ConfigError("'site_pair' must be two integer site indices")
    report = source_consistency_check(params, cfg["eps"], cfg["h"], n_sites,
                                      site_pair=tuple(pair))
    _emit_json(out_path, "zfunctional-check", cfg, report)


def _parse_insertions(raw):
    out = []
    for i, item in enumerate(raw):
        path = f"insertions[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"'{path}' must be an object")
        for key in item:
            if key not in ("kind", "position"):
                raise ConfigError(f"unknown key '{path}.{key}'")
        if "kind" not in item or "position" not in item:
            raise ConfigError(f"'{path}' requires 'kind' and 'position'")
        kind = item["kind"]
        if not isinstance(kind, str) or kind not in INSERTIONS:
            raise ConfigError(
                f"'{path}.kind' must be one of {sorted(INSERTIONS)}")
        pos = item["position"]
        if isinstance(pos, bool) or not isinstance(pos, (int, float)):
            raise ConfigError(f"'{path}.position' must be a number")
        out.append((float(pos), kind))
    if not out:
        raise ConfigError("'insertions' must not be empty")
    return out


def _cmd_family_deriv(cfg, params, out_path):
    dk = _complex_matrix(cfg["dK"], "dK")
    dr = _complex_matrix(cfg["dR"], "dR")
    insertions = _parse_insertions(cfg["insertions"])
    value = family_derivative(params, dk, dr, insertions)
    _fill_matrix_default(cfg["dK"])
    _fill_matrix_default(cfg["dR"])
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


def _load_json(fh):
    """Strict JSON: NaN/Infinity literals and overflowing numbers are rejected."""
    return json.load(fh, parse_float=_finite_float, parse_int=_float_range_int,
                     parse_constant=_non_finite_literal)


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return _load_json(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _load_tolerances(path):
    """The run's Tolerances: defaults, overridden where the file names `<field>_tol`."""
    try:
        with open(path, encoding="utf-8") as fh:
            overrides = _load_json(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read tolerance overrides: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"tolerance overrides are not valid JSON: {exc}")
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
    cfg = _load_config(args.config)
    schema = dict(_BASE_SCHEMA)
    schema.update(_EXTRA_SCHEMA[args.command])
    _check_schema(cfg, schema)
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
