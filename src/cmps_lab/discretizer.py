"""Lattice oracle: site tensors, transfer matrix, and lattice correlators.

A step-eps discretization replaces the continuum state by a chain with site
tensors

    A0 = 1 + eps Q,   A1 = sqrt(eps) R,   A2 = (eps / sqrt 2) R^2 (order 2),

where the particle number carried by a site is the tensor index.  The site
update of the flattened density matrix is the transfer matrix E of
rho -> sum_n A^n rho (A^n)^dag, a `liouville.Superoperator` over the
field table (A0, A0), (A1, A1), ...; it reproduces the continuum
generator to first order, E = 1 + eps L + O(eps^2).  Lattice expectation
values (occupation / eps, hopping / eps, pair occupation / eps^2)
converge to the continuum density, two-point function and pair
correlator with O(eps) error, which is what makes this module an
independent check on the insertion calculus: everything here is
contracted directly from the tensors, with no use of the continuum
generator or its exponential.

The contractions run in real arithmetic.  The site map preserves
Hermiticity, so in the Hermitian basis of `liouville.hermitian_basis` E is
a real matrix (`Superoperator.hmat`), and so is the number superoperator
of the occupation and pair estimators; the hopping superoperators move a
particle on one side of rho only and stay complex.  The oracle takes the
field table, the `Superoperator` type, `sandwich` and the basis from
`liouville`, never the continuum generator.

Thermodynamic values use the dominant left/right fixed points of the real
E: E is a positive map, so its spectral radius is an eigenvalue with a
positive fixed point (Evans and Hoegh-Krohn, J. London Math. Soc. 17, 345,
1978), and both vectors are real.  One LAPACK dgeev call computes the
eigenvalues only, and both fixed points come from one LU factorization of
E - eta bordered by the trace functional, as the continuum fixed point in
`liouville.steady_state`, solved forward and transposed.  Finite
chains contract the full product with the boundary state, anchored at the
left edge like the continuum convention; the binary powers of E, the
closing covectors and the opening state are real.  `_lattice_step` is the
one rule for a step, here, in `correlators` and for `lindblad`'s dx, and
`_integer` for a count: a value that breaks it is a `ValidationError`
that names the value.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg.lapack

from .core import Finite
from .errors import (
    NoConvergenceError,
    ShapeMismatchError,
    StepNotPositiveError,
    ValidationError,
    WindowTooSmallError,
)
from .liouville import Superoperator, fields, hermitian_basis, sandwich, trace_functional, vectorize

# absolute, because the dominant transfer eigenvalue is eta = 1 + O(eps)
# in every length unit: the site map is dimensionless
FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class LatticeTensors:
    eps: float
    matrices: tuple
    dim: int
    order: int

    @cached_property
    def transfer(self):
        """The transfer matrix E of these tensors, built once however many
        readers it has."""
        return transfer_matrix(self)


def _lattice_step(value, name):
    """A lattice step as a float: finite (ValidationError) and positive."""
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise StepNotPositiveError(f"{name} must be positive, got {value}")
    return value


def _integer(value, name):
    """A count or a site distance as an int: a value that is not a whole
    number (1.5, nan, a string) is a ValidationError, never truncated."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def lattice_tensors(params, eps, order=1):
    """Site tensors at step eps; order 2 adds the two-particle tensor."""
    eps = _lattice_step(eps, "lattice step")
    if order not in (1, 2):
        raise ShapeMismatchError(f"tensor order must be 1 or 2, got {order}")
    q = fields(params.K, params.R)["Q"]
    mats = [np.eye(params.dim, dtype=complex) + eps * q, np.sqrt(eps) * params.R]
    if order == 2:
        mats.append((eps / np.sqrt(2.0)) * (params.R @ params.R))
    return LatticeTensors(eps=eps, matrices=tuple(mats), dim=params.dim, order=order)


def transfer_matrix(tensors):
    """E, the `Superoperator` of the table (A0, A0), (A1, A1), ... of the tensors."""
    f = {f"A{n}": a for n, a in enumerate(tensors.matrices)}
    return Superoperator(tuple((name, name) for name in f), f)


def _site_superops(tensors, observable):
    """Superoperators, in the Hermitian basis, whose chain contraction gives
    the lattice estimator.  The number superoperator preserves Hermiticity
    and is real there; the hopping pair moves one particle on one side of
    rho only and stays complex."""
    mats = tensors.matrices
    basis = hermitian_basis(tensors.dim)
    if observable == "hopping":
        lower = sum(np.sqrt(n) * sandwich(mats[n], mats[n - 1]) for n in range(1, len(mats)))
        raise_ = sum(np.sqrt(n) * sandwich(mats[n - 1], mats[n]) for n in range(1, len(mats)))
        return (basis.transform(lower), basis.transform(raise_))
    if observable not in ("occupation", "pair"):
        raise ShapeMismatchError(f"unknown lattice observable {observable!r}")
    number = basis.transform(sum(n * sandwich(a, a) for n, a in enumerate(mats) if n)).real
    return (number,) if observable == "occupation" else (number, number)


def _dominant_pair(emat):
    """Dominant eigenvalue eta with left/right fixed points of the real
    matrix E (`Superoperator.hmat`), as (eta, left / <left|right>, right).

    The eigenvalues come from one LAPACK dgeev call without eigenvectors.
    E is a positive map, so its spectral radius is an eigenvalue with a
    positive fixed point; a dominant eigenvalue of a complex pair has a
    partner of equal modulus and fails the degeneracy check, so eta is
    real.  Both fixed points then come from one LU factorization (dgetrf)
    of the bordered matrix B = E - eta + |eta| e <1|, with e = vec(1)/D and
    <1| the trace functional, as in `liouville.bordered`: B x = <1|^T and
    B^T y = <1|^T solve for multiples of the right and left fixed points,
    because <1| is not in the range of (E - eta)^T and e is not in the
    range of E - eta when the fixed points are positive.  A singular B
    raises.  Both vectors are scaled to unit 2-norm before the residual
    check, so FIXED_POINT_TOL bounds the same quantity as for unit
    eigenvectors.
    """
    wr, wi, _, _, info = scipy.linalg.lapack.dgeev(emat, compute_vl=0, compute_vr=0)
    if info != 0:
        raise NoConvergenceError(f"transfer eigensolve failed (LAPACK info {info})")
    mags = np.hypot(wr, wi)
    i = int(np.argmax(mags))
    eta = wr[i]
    mags = np.sort(mags)[::-1]
    if mags.size > 1 and mags[0] - mags[1] < 1e-12 * max(1.0, mags[0]):
        raise WindowTooSmallError("dominant transfer eigenvalue is degenerate")
    n = emat.shape[0]
    d = math.isqrt(n)
    # <1| and vec(1) are nonzero, and equal to 1, at the coordinates j (D + 1)
    one = np.zeros(n)
    one[::d + 1] = 1.0
    b = np.array(emat, order="F")  # dgetrf factors a Fortran array in place
    b.flat[::n + 1] -= eta
    b[::d + 1, ::d + 1] += abs(eta) / d
    lu, piv, info = scipy.linalg.lapack.dgetrf(b, overwrite_a=1)
    if info > 0:
        raise WindowTooSmallError(
            "bordered transfer matrix is singular: the dominant fixed point is not unique")
    right, _ = scipy.linalg.lapack.dgetrs(lu, piv, one)
    left, _ = scipy.linalg.lapack.dgetrs(lu, piv, one, trans=1)
    right /= math.sqrt(right @ right)
    left /= math.sqrt(left @ left)
    res = max(
        np.abs(emat @ right - eta * right).max(),
        np.abs(left @ emat - eta * left).max(),
    )
    if res > FIXED_POINT_TOL * max(1.0, abs(eta)):
        raise WindowTooSmallError(f"transfer fixed-point residual {res:.3e}")
    overlap = left @ right
    if abs(overlap) < 1e-12:
        raise WindowTooSmallError("left/right transfer fixed points are orthogonal")
    return eta, left / overlap, right


def _span(observable, m):
    """Sites a chain with insertions at site 0 and (for pairs) site m covers."""
    return 1 if observable == "occupation" else m + 1


def lattice_correlators(tensors, observable, distances=None, n_sites=None, boundary_rho=None):
    """Lattice estimators of continuum observables.

    observable: "occupation" (scalar density), "hopping" or "pair" (values
    at integer site distances >= 1, continuum separation = distance * eps).
    Thermodynamic contraction (n_sites None) uses the dominant fixed points
    of E; a finite chain of n_sites sites contracts the boundary state at
    the left edge against the trace functional, insertions anchored at
    site 0.  Only the Hermitian part of boundary_rho enters: a density
    matrix is Hermitian, and the chain runs on real coordinates.  Values
    are rescaled by the eps powers that map lattice operators to field
    operators.
    """
    eps = tensors.eps
    d = tensors.dim
    if boundary_rho is not None and np.shape(boundary_rho) != (d, d):
        raise ShapeMismatchError(
            f"boundary_rho has shape {np.shape(boundary_rho)}, the chain needs {(d, d)}")
    superops = _site_superops(tensors, observable)
    emat = tensors.transfer.hmat

    if observable == "occupation":
        distances = [0]
    else:
        if distances is None:
            raise ShapeMismatchError("hopping/pair observables need distances")
        distances = [_integer(m, "site distance") for m in np.atleast_1d(distances)]
        if any(m < 1 for m in distances):
            raise ShapeMismatchError("site distances must be >= 1")
    if n_sites is not None:
        n_sites = _integer(n_sites, "n_sites")

    if all(np.abs(s).max() == 0.0 for s in superops):
        vals = np.zeros(len(distances), dtype=complex if observable == "hopping" else float)
        return float(vals[0]) if observable == "occupation" else vals

    if n_sites is None:
        eta, close, open_vec = _dominant_pair(emat)
    else:
        if boundary_rho is None:
            raise ShapeMismatchError("finite chains need boundary_rho")
        span = max(_span(observable, m) for m in distances)
        if n_sites < span:
            raise WindowTooSmallError(f"chain of {n_sites} sites cannot hold span {span}")
        open_vec = hermitian_basis(d).coords(vectorize(boundary_rho)).real
        # closing covectors <1| E^k at the k a chain closes on: the tail
        # after each insertion span, and the full norm.  Each k is reached
        # from the one before by the binary powers E^(2^j), squared once.
        needed = {n_sites - _span(observable, m) for m in distances} | {n_sites}
        w = trace_functional(d).real
        tails, at, powers = {}, 0, [emat]
        for k in sorted(needed):
            step, j = k - at, 0
            while step:
                if j == len(powers):
                    powers.append(powers[-1] @ powers[-1])
                if step & 1:
                    w = w @ powers[j]
                step, j = step >> 1, j + 1
            tails[k], at = w, k
        norm = tails[n_sites] @ open_vec

    def contract(m):
        """Chain value with insertions at site 0 and (for pairs) site m."""
        if observable == "occupation":
            v = superops[0] @ open_vec
        else:
            v = superops[1] @ open_vec  # creation-side insertion at site 0
            for _ in range(m - 1):
                v = emat @ v
            v = superops[0] @ v
        used = _span(observable, m)
        if n_sites is None:
            return (close @ v) / (close @ open_vec) / eta**used
        return (tails[n_sites - used] @ v) / norm

    scale = {"occupation": eps, "hopping": eps, "pair": eps**2}[observable]
    values = np.array([contract(m) for m in distances]) / scale
    if observable == "occupation":
        return float(values[0].real)
    if observable == "pair":
        return values.real
    return values


def finite_site_count(length, eps):
    """Number of step-eps sites that tile a finite window of `length` exactly.

    Exactly means to 1e-9 of the length, so the verdict holds in every
    length unit.
    """
    n_sites = int(round(length / eps))
    if n_sites < 1 or abs(n_sites * eps - length) > 1e-9 * length:
        raise ShapeMismatchError(f"eps {eps} does not divide the length {length}")
    return n_sites


@dataclass(frozen=True)
class ConvergenceStudy:
    eps: np.ndarray
    values: np.ndarray
    extrapolated: float  # complex for the hopping observable
    errors: np.ndarray
    orders: np.ndarray


def convergence_study(params, eps_list, observable="occupation", order=1):
    """Lattice values across eps with Richardson-extrapolated errors.

    observable is "occupation" or a tuple ("hopping"/"pair", separation);
    separations must be integer multiples of every eps, and the steps must
    be distinct.  The reference
    value extrapolates the two finest steps assuming first-order
    convergence, so the error column should shrink by the eps ratio (the
    empirical orders report the observed exponents).  Hopping values and
    their extrapolation are complex, and the errors are the moduli of the
    complex differences; occupation and pair values are real.
    """
    eps_arr = np.asarray(eps_list, dtype=float).ravel()
    if eps_arr.size < 2:
        raise ShapeMismatchError("need at least two eps values")
    eps_arr = np.sort([_lattice_step(eps, "eps") for eps in eps_arr])[::-1]
    if np.any(eps_arr[1:] == eps_arr[:-1]):
        raise ValidationError(f"eps values must be distinct, got {eps_arr.tolist()}")

    finite = isinstance(params.geometry, Finite)
    values = []
    for eps in eps_arr:
        tensors = lattice_tensors(params, eps, order=order)
        kwargs = {}
        if finite:
            kwargs = {"n_sites": finite_site_count(params.geometry.length, eps),
                      "boundary_rho": params.geometry.boundary_rho}
        if observable == "occupation":
            values.append(lattice_correlators(tensors, "occupation", **kwargs))
        else:
            kind, sep = observable
            m = int(round(sep / eps))
            if abs(m * eps - sep) > 1e-9 * abs(sep):
                raise ShapeMismatchError(f"separation {sep} is not a multiple of eps {eps}")
            values.append(lattice_correlators(tensors, kind, distances=[m], **kwargs)[0])
    hopping = observable != "occupation" and observable[0] == "hopping"
    values = np.asarray(values, dtype=complex if hopping else float)

    ratio = eps_arr[-2] / eps_arr[-1]
    extrapolated = (ratio * values[-1] - values[-2]) / (ratio - 1.0)
    errors = np.abs(values - extrapolated)
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log(errors[:-1] / errors[1:]) / np.log(eps_arr[:-1] / eps_arr[1:])
    return ConvergenceStudy(
        eps=eps_arr,
        values=values,
        extrapolated=extrapolated.item(),
        errors=errors,
        orders=orders,
    )
