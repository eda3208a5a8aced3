"""Lattice oracle: site tensors, transfer matrix, and lattice correlators.

A step-eps discretization replaces the continuum state by a chain with site
tensors

    A0 = 1 + eps Q,   A1 = sqrt(eps) R,   A2 = (eps / sqrt 2) R^2 (order 2),

where the particle number carried by a site is the tensor index.  Their
field table `LatticeTensors.fields` adds B_n = sqrt(n) A_n for n >= 1.
The transfer matrix E, rho -> sum_n A_n rho A_n^dag, is the
`liouville.Superoperator` of the table (A0, A0), (A1, A1), ...; it
reproduces the continuum generator to first order, E = 1 + eps L +
O(eps^2).  The estimators are tables over the same fields (`ESTIMATORS`)
that act on D x D matrices by `liouville.action`, at O(D^3), as the
continuum insertions do.  `OBSERVABLES` is the one list of what the
oracle reads: each observable's estimators, power of eps and value type.
Lattice expectation values (occupation / eps, hopping / eps, pair
occupation / eps^2) converge to the continuum density, two-point function
and pair correlator with O(eps) error, which is what makes this module an
independent check on the insertion calculus: everything here is
contracted directly from the tensors, with no use of the continuum
generator or its exponential.

E preserves Hermiticity, so in the Hermitian basis of
`liouville.hermitian_basis` it is a real matrix (`Superoperator.hmat`),
the only map of the oracle that is built, and the walk between the
estimators runs in real arithmetic; they act through `HermitianBasis.act`.

Thermodynamic values use the dominant left/right fixed points of the real
E, both real because E is a positive map (Evans and Hoegh-Krohn, J.
London Math. Soc. 17, 345, 1978), from the eigenvalues alone of
`liouville.spectrum` and one bordered LU factorization
(`_dominant_pair`).  Finite chains open on the boundary state at the left
edge, like the continuum convention, and close on covectors <1| E^k from
the real binary powers of E.  The window is the parameter set's geometry,
which `lattice_tensors` records on the tensors: no caller hands the
oracle a site count or a boundary state.  Its inputs follow the rules
`core` owns for every method: `_lattice_step` for a step, `_integer` for
a count and `finite_site_count` for the sites that tile a window; a value
that breaks one is a `ValidationError` that names the value.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg.lapack

from .core import Finite, Geometry, _array, _integer, _lattice_step, _real, finite_site_count
from .errors import (
    PositionOutOfRangeError,
    ShapeMismatchError,
    ValidationError,
    WindowTooSmallError,
)
from .liouville import (
    Superoperator,
    bordered_lu,
    fields,
    finite,
    hermitian_basis,
    spectrum,
    term_norm,
    trace_functional,
)

# absolute, because the dominant transfer eigenvalue is eta = 1 + O(eps)
# in every length unit: the site map is dimensionless
FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class LatticeTensors:
    eps: float
    matrices: tuple
    geometry: Geometry

    @property
    def dim(self):
        return self.matrices[0].shape[0]

    @property
    def order(self):
        return len(self.matrices) - 1

    @cached_property
    def fields(self):
        """The field table of the chain: the site tensors A_n, and
        B_n = sqrt(n) A_n for n >= 1, which carry the estimators' weights."""
        f = {f"A{n}": a for n, a in enumerate(self.matrices)}
        return f | {f"B{n}": math.sqrt(n) * a for n, a in enumerate(self.matrices) if n}

    @cached_property
    def transfer(self):
        """E (`transfer_matrix`), built once however many readers it has."""
        return transfer_matrix(self)


def lattice_tensors(params, eps, order=1):
    """Site tensors at step eps; order 2 adds the two-particle tensor."""
    eps = _lattice_step(eps, "lattice step")
    order = _integer(order, "tensor order")
    if order not in (1, 2):
        raise ShapeMismatchError(f"tensor order must be 1 or 2, got {order}")
    q = fields(params.K, params.R)["Q"]
    mats = [np.eye(params.dim, dtype=complex) + eps * q, np.sqrt(eps) * params.R]
    if order == 2:
        with np.errstate(over="ignore", invalid="ignore"):  # the term norm refuses it
            mats.append((eps / np.sqrt(2.0)) * (params.R @ params.R))
    return LatticeTensors(eps=eps, matrices=tuple(mats), geometry=params.geometry)


def transfer_matrix(tensors):
    """E, the `Superoperator` of the table (A0, A0), (A1, A1), ... over `tensors.fields`."""
    return Superoperator(tuple((f"A{n}",) * 2 for n in range(tensors.order + 1)), tensors.fields)


# The estimators as tables over `LatticeTensors.fields`, one pair per
# particle number n >= 1 of a site: number rho -> sum n A_n rho A_n^dag,
# lowering sum sqrt(n) A_n rho A_{n-1}^dag, raising sum sqrt(n) A_{n-1} rho A_n^dag
ESTIMATORS = {
    "number": lambda n: (f"B{n}", f"B{n}"),
    "lowering": lambda n: (f"B{n}", f"A{n - 1}"),
    "raising": lambda n: (f"A{n - 1}", f"B{n}"),
}


class _Observable(namedtuple("_Observable", "sites power dtype")):
    """A lattice observable: its estimators (the one at site 0 and, for a
    pair, the one at site m), the power of eps that maps it to its field
    operator, and the type of its values."""

    @property
    def paired(self):
        """Whether it is read at site distances, not as one number."""
        return len(self.sites) > 1


OBSERVABLES = {
    "occupation": _Observable(("number",), 1, float),
    "hopping": _Observable(("raising", "lowering"), 1, complex),
    "pair": _Observable(("number", "number"), 2, float),
}


def _dominant_pair(emat):
    """Dominant eigenvalue eta with left/right fixed points of the real
    matrix E (`Superoperator.hmat`), as (eta, left / <left|right>, right).

    The eigenvalues come from the package's one eigensolve,
    `liouville.spectrum`, without eigenvectors and at scale 1: E is
    dimensionless, and a failed solve is its NoConvergenceError.
    E is a positive map, so its spectral radius is an eigenvalue with a
    positive fixed point; a dominant eigenvalue of a complex pair has a
    partner of equal modulus and fails the degeneracy check, so eta is
    real.  Both fixed points then come from one LU factorization
    (`liouville.bordered_lu`) of the bordered matrix B = E - eta + |eta| e <1|,
    with e = |1>/D and <1| the trace functional: B x = <1|^T and
    B^T y = <1|^T solve for multiples of the right and left fixed points,
    because <1| is not in the range of (E - eta)^T and e is not in the
    range of E - eta when the fixed points are positive.  A singular B
    raises.  Both vectors are scaled to unit 2-norm before the residual
    check, so FIXED_POINT_TOL bounds the same quantity as for unit
    eigenvectors.
    """
    w = spectrum(emat, 1.0)
    mags = np.abs(w)
    i = int(np.argmax(mags))
    eta = w.real[i]
    mags = np.sort(mags)[::-1]
    if mags.size > 1 and mags[0] - mags[1] < 1e-12 * max(1.0, mags[0]):
        raise WindowTooSmallError("dominant transfer eigenvalue is degenerate")
    one = trace_functional(math.isqrt(emat.shape[0])).real
    lu, piv, info = bordered_lu(emat, eta, abs(eta))
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
    if not res <= FIXED_POINT_TOL * max(1.0, abs(eta)):  # a nan residual fails too
        raise WindowTooSmallError(f"transfer fixed-point residual {res:.3e}")
    overlap = left @ right
    if abs(overlap) < 1e-12:
        raise WindowTooSmallError("left/right transfer fixed points are orthogonal")
    return eta, left / overlap, right


def lattice_correlators(tensors, observable, distances=None):
    """Lattice estimators of continuum observables.

    observable: a name in `OBSERVABLES`, "occupation" (scalar density, no
    distances), "hopping" or "pair" (values at integer site distances >= 1,
    in any order, continuum separation = distance * eps; no distances give
    an empty array).  The first estimator acts at site 0, one walk with E
    keeps the vector at each sorted distance, and the second acts on all of
    them at once.  A thermodynamic window (`tensors.geometry`) opens and
    closes on the dominant fixed points of E; Finite(length, boundary_rho)
    has finite_site_count(length, eps) sites, opens on boundary_rho (its
    Hermitian part) and closes each distance with its tail <1| E^k.
    Values are divided by the observable's power of eps, which maps its
    lattice operator to the field operator.  A transfer matrix whose term
    norm is not finite is refused as NoConvergenceError before it is built,
    and so is a value that is not finite, which an overflow on the way
    leaves (`liouville.finite`).
    """
    eps = tensors.eps
    d = tensors.dim
    obs = OBSERVABLES.get(observable) if isinstance(observable, str) else None
    if obs is None:
        raise ShapeMismatchError(f"unknown lattice observable {observable!r}")
    if not obs.paired:
        if distances is not None:
            raise ShapeMismatchError(f"the {observable} takes no distances")
        distances = [0]
    else:
        if distances is None:
            raise ShapeMismatchError(f"the {observable} needs distances")
        distances = [_integer(m, "site distance") for m in np.atleast_1d(distances)]
        if any(m < 1 for m in distances):
            raise ShapeMismatchError("site distances must be >= 1")
    n_sites = None
    if isinstance(tensors.geometry, Finite):
        n_sites = finite_site_count(tensors.geometry.length, eps)
        # a chain with insertions at sites 0 and m covers m + 1 sites
        if distances and n_sites < max(distances) + 1:
            raise PositionOutOfRangeError(
                f"chain of {n_sites} sites cannot hold span {max(distances) + 1}")

    tables = [tuple(ESTIMATORS[kind](n) for n in range(1, tensors.order + 1)) for kind in obs.sites]
    # a chain that emits nothing (every B_n zero) has every estimator zero
    if not distances or not any(a.any() for a in tensors.matrices[1:]):
        return _typed(np.zeros(len(distances), dtype=obs.dtype), obs)

    term_norm(tensors.transfer, "transfer matrix")
    emat = tensors.transfer.hmat
    basis = hermitian_basis(d)
    ms = sorted(set(distances))
    used = [m + 1 for m in ms]
    # an overflow in the fixed points, the powers of E, the walk or the
    # rescaling leaves a value that is not finite, which is refused once below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if n_sites is None:
            eta, close, open_vec = _dominant_pair(emat)
        else:
            open_vec = basis.coordinates(tensors.geometry.boundary_rho).real
            # closing covectors <1| E^k at the k a chain closes on: the tail
            # after each span, and the full norm.  Each k is reached from the
            # one before by the binary powers E^(2^j), squared once.
            w = trace_functional(d).real
            tails, at, powers = {}, 0, [emat]
            for k in sorted({n_sites - u for u in used} | {n_sites}):
                step, j = k - at, 0
                while step:
                    if j == len(powers):
                        powers.append(powers[-1] @ powers[-1])
                    if step & 1:
                        w = w @ powers[j]
                    step, j = step >> 1, j + 1
                tails[k], at = w, k

        first, *second = tables
        stops = basis.act(first, tensors.fields, open_vec)
        if second:
            # E is real: walk the real and imaginary parts as two columns
            x = np.column_stack([stops[0].real, stops[0].imag])
            walk = np.empty((len(ms), *x.shape))
            for i, (prev, m) in enumerate(zip([1, *ms], ms)):
                for _ in range(m - prev):
                    x = emat @ x
                walk[i] = x
            stops = basis.act(second[0], tensors.fields, walk[..., 0] + 1j * walk[..., 1])
        if n_sites is None:
            values = (stops @ close) / (close @ open_vec) / eta ** np.array(used)
        else:
            values = np.array([tails[n_sites - u] @ v for u, v in zip(used, stops)])
            values /= tails[n_sites] @ open_vec
        values = values[np.searchsorted(ms, distances)] / eps**obs.power
    finite(values, f"lattice {observable} value")
    return _typed(values, obs)


def _typed(values, obs):
    """Lattice values as the observable's type: an array at the site
    distances of a pair, one number for a one-site observable."""
    values = values.real if obs.dtype is float else values
    return values if obs.paired else obs.dtype(values[0])


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
    eps_arr = _array(eps_list, "eps").ravel()
    if eps_arr.size < 2:
        raise ShapeMismatchError("need at least two eps values")
    eps_arr = np.sort([_lattice_step(eps, "eps") for eps in eps_arr])[::-1]
    if np.any(eps_arr[1:] == eps_arr[:-1]):
        raise ValidationError(f"eps values must be distinct, got {eps_arr.tolist()}")

    # a one-site observable is named alone, a pair with its separation
    bare = isinstance(observable, str)
    try:
        kind, sep = (observable, None) if bare else observable
    except (TypeError, ValueError):
        kind = None
    obs = OBSERVABLES.get(kind) if isinstance(kind, str) else None
    if obs is None or obs.paired == bare:
        raise ShapeMismatchError(f"observable must be 'occupation' or a ('hopping' or"
                                 f" 'pair', separation) pair, got {observable!r}")
    if obs.paired:
        sep = _real(sep, "separation")
    values = []
    for eps in eps_arr:
        tensors = lattice_tensors(params, eps, order=order)
        if not obs.paired:
            values.append(lattice_correlators(tensors, kind))
        else:
            m = int(round(sep / eps))
            if abs(m * eps - sep) > 1e-9 * abs(sep):
                raise ShapeMismatchError(f"separation {sep} is not a multiple of eps {eps}")
            values.append(lattice_correlators(tensors, kind, distances=[m])[0])
    values = np.asarray(values, dtype=obs.dtype)

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
