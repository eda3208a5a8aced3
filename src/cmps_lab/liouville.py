"""Vectorized evolution generator and its spectrum.

Density matrices are flattened row-major ("row stacking"): entry (j, k) of M
sits at index j*D + k of vec(M).  Every superoperator in the package is a
sum of sandwiches rho -> a rho b^dag, and `sandwich(a, b)` is the only code
that knows how the row-stacking layout turns one into a matrix:
vec(a rho b^dag) = (a kron conj(b)) vec(rho).  Only `superop` calls it.
(`choi_matrix` reads such a matrix back, and `HermitianBasis.transform`,
called only by `Superoperator.hmat`, moves it to the Hermitian basis
below.)  The generator of

    d rho / dx = -i[K, rho] + R rho R^dag - (1/2){R^dag R, rho}
               = Q rho + rho Q^dag + R rho R^dag,   Q = -i K - (1/2) R^dag R,

is therefore the D^2 x D^2 matrix

    L = sandwich(Q, 1) + sandwich(1, Q) + sandwich(R, R).

Every D^2 x D^2 map of the package is one `Superoperator`: a field table,
a tuple of (a, b) names into a dict f of D x D matrices, read as
rho -> sum f[a] rho f[b]^dag, whose dense forms are computed from the
table when first read.  The exact calculus reads one table,
`fields(K, R)` = {1, Q, R, X = -[Q, R]}: the generator is `GENERATOR` =
(Q, 1), (1, Q), (R, R), and the insertions of `correlators.INSERTIONS`
are one pair each, named by their kind.  `lindblad`'s two generator
forms are tables (G, 1), (1, G) plus one pair per jump, and the lattice
transfer matrix (A0, A0), (A1, A1), ... and its estimators are tables
over the site tensors.  A table acts on a stack of D x D matrices by
`action`, at O(D^3) per matrix, and by its adjoint `action_adjoint`;
every insertion and estimator runs through these two, and only the maps
that are exponentiated, factored or eigen-solved read `Superoperator.mat`
or `hmat`.  The product rule is one table transform: along K + t dK,
R + t dR the fields move by `fields_tangent` (dQ, dR, dX), and the map of
`terms` moves by the map of `tangent_terms(terms)` over the merged table
f | df.

The dense kernels run in a second layout, the Hermitian basis (Alicki
and Lendi's coherence vector), which lives here and nowhere else.
`hermitian_basis(D)` is a unitary U that keeps the diagonal entries E_jj
and replaces each off-diagonal pair E_jk, E_kj by the Hermitian matrices
(E_jk + E_kj)/sqrt 2 and i (E_jk - E_kj)/sqrt 2.  A Hermitian matrix has
real coordinates there, and a superoperator that maps Hermitian matrices
to Hermitian matrices, as every table above does, is the real matrix
U^dag S U, `Superoperator.hmat`, on which every dense kernel runs: real
eigenvalue solves, linear solves and exponentials cost a fraction of
complex ones.  `exponential` exponentiates every `hmat` but the Frechet
legs of `correlators.family_derivative`, and refuses a result that is not
finite.  `HermitianBasis.matrices` and `coordinates` are the one
conversion between coordinates and D x D matrices, which `act` wraps
around a table's `action`; `rowstacked` maps exp(G dx) back for the Choi
test of `lindblad.compare_forms`.  `vectorize`, `trace_functional`
and `choi_matrix` are row-stacked; the trace functional is the same
vector in both layouts, because U leaves the diagonal alone.

The trace functional is the row vector vec(1)^dag; trace preservation reads
vec(1)^dag L = 0.  Spectra live in the closed left half plane.  The fixed
point needs no spectrum: one LU factorization of the bordered generator
(`bordered_lu`) gives it by a linear solve, and a condition estimate of
the same factors certifies that the fixed space is one-dimensional.  The
eigenvalues, and the gap (minus the largest real part after the fixed
point's zero), are computed only where they are read.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import DegenerateFixedSpaceError, NoConvergenceError, ShapeMismatchError


@dataclass(frozen=True)
class Tolerances:
    """Thresholds of a parameter set: herm for K, dK and boundary_rho
    (relative to the largest entry), zero_real and residual for the fixed
    point (relative to the generator's term norm, which a change of length
    unit scales like L), moment for the field moments."""

    herm: float = 1e-12
    zero_real: float = 1e-10
    residual: float = 1e-10
    moment: float = 1e-12


def vectorize(m):
    """Row-major flattening of a matrix."""
    return np.asarray(m, dtype=complex).reshape(-1)


def devectorize(v):
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ShapeMismatchError(f"vector of length {v.size} is not a flattened square matrix")
    return v.reshape(d, d)


def sandwich(a, b):
    """Superoperator of rho -> a rho b^dag on row-stacked matrices.

    Entry (i D + k, j D + l) is a[i, j] conj(b[k, l]): np.kron(a, conj(b)),
    written as one broadcast product.
    """
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * np.conj(b)[None, :, None, :]).reshape(n, n)


GENERATOR = (("Q", "1"), ("1", "Q"), ("R", "R"))


def fields(K, R):
    """The field table: the boundary matrices every superoperator is made of.

    "1" is the identity, "Q" = -i K - (1/2) R^dag R the no-jump generator,
    "R" the emission, and "X" = -[Q, R] the derivative field.  An overflow
    leaves a field non-finite, silently: its readers refuse it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = -1j * K - 0.5 * (R.conj().T @ R)
        return {"1": np.eye(K.shape[0]), "Q": q, "R": R, "X": -(q @ R - R @ q)}


def superop(terms, f):
    """Row-stacked matrix of rho -> sum over (a, b) in terms of f[a] rho f[b]^dag."""
    return reduce(np.add, (sandwich(f[a], f[b]) for a, b in terms))


def tangent_terms(terms):
    """The product rule as a table transform, read over the merged table
    f | df (`fields_tangent` names each moving field "d" + name): each
    (a, b) gives ("d" + a, b) and (a, "d" + b); the identity does not move
    and gives no piece."""
    out = []
    for a, b in terms:
        if a != "1":
            out.append(("d" + a, b))
        if b != "1":
            out.append((a, "d" + b))
    return tuple(out)


def _sandwiched(a, m, b):
    """a m b^dag on a stack m of shape (..., D, D); None is the identity,
    which is never multiplied."""
    if a is not None:
        m = a @ m
    return m if b is None else m @ b.conj().T


def action(terms, f, m):
    """sum over (a, b) in terms of f[a] m f[b]^dag, on a stack m of shape
    (..., D, D): the map of the table applied without building its matrix,
    at O(D^3) per matrix instead of O(D^4) to build and O(D^4) to apply."""
    g = {**f, "1": None}
    return reduce(np.add, (_sandwiched(g[a], m, g[b]) for a, b in terms))


def action_adjoint(terms, f, m):
    """sum over (a, b) in terms of f[a]^dag m f[b], the Hilbert-Schmidt
    adjoint of `action`: the action over the table of adjoint fields."""
    return action(terms, {name: x.conj().T for name, x in f.items()}, m)


def fields_tangent(f, dK, dR):
    """The moving fields dQ, dR, dX of the table `f` along K + t dK,
    R + t dR at t = 0.

    dQ = -i dK - (1/2)(dR^dag R + R^dag dR), and X = -[Q, R] moves by
    -[dQ, R] - [Q, dR]; the identity does not move.
    """
    R, q = f["R"], f["Q"]
    dq = -1j * dK - 0.5 * (dR.conj().T @ R + R.conj().T @ dR)
    return {"dQ": dq, "dR": dR, "dX": -(dq @ R - R @ dq) - (q @ dR - dR @ q)}


def trace_functional(dim):
    """Row vector implementing M -> tr(M) on flattened matrices."""
    return vectorize(np.eye(dim)).conj()


_R2 = np.sqrt(0.5)


class HermitianBasis:
    """Orthonormal Hermitian basis of the D x D matrices, as a unitary U.

    Column j D + j of U is vec(E_jj); for each pair j < k, with a = j D + k
    and b = k D + j, columns a and b are vec((E_jk + E_kj)/sqrt 2) and
    vec(i (E_jk - E_kj)/sqrt 2).  U mixes each index pair (a, b) with one
    2 x 2 block and leaves the diagonal alone, so it is applied by indexing
    and never stored.  The coordinates U^dag vec(M) of a Hermitian M are
    real, and a superoperator that maps Hermitian matrices to Hermitian
    matrices is real in this basis, U^dag S U.  The trace functional is the
    same row vector in both layouts: it reads only the diagonal.
    """

    def __init__(self, dim):
        j, k = np.triu_indices(dim, 1)
        self.dim = dim
        self.a = j * dim + k
        self.b = k * dim + j

    def _mix(self, m, phase, axis):
        """Apply U^dag (phase -i) or U^T (phase +i) along `axis` of complex m, in place."""
        view = m if axis == 0 else m.T
        va, vb = view[self.a], view[self.b]
        view[self.a] = (va + vb) * _R2
        view[self.b] = (va - vb) * (phase * _R2)
        return m

    def coords(self, v):
        """U^dag v: coordinates of row-stacked vectors (along the first axis)."""
        return self._mix(np.array(v, dtype=complex), -1j, 0)

    def _unmix(self, x, phase, axis):
        """Apply U (phase +i) or conj(U) (phase -i) along `axis` of complex x, in place."""
        view = x if axis == 0 else x.T
        xa, xb = view[self.a], view[self.b] * (phase * _R2)
        view[self.a] = xa * _R2 + xb
        view[self.b] = xa * _R2 - xb
        return x

    def vec(self, x):
        """U x: the row-stacked vector of coordinates x (along the first axis)."""
        return self._unmix(np.array(x, dtype=complex), 1j, 0)

    def matrices(self, x):
        """The D x D matrices of coordinate vectors x, one per row, as a
        stack (k, D, D); a single vector gives a stack of one."""
        return self.vec(x.T).T.reshape(-1, self.dim, self.dim)

    def coordinates(self, m):
        """The coordinate vectors of a stack of D x D matrices, one per row."""
        return self.coords(m.reshape(len(m), -1).T).T

    def act(self, terms, f, x):
        """The `action` of a table on coordinate vectors x, one per row (or
        x alone), as coordinates, one per row."""
        return self.coordinates(action(terms, f, self.matrices(x)))

    def transform(self, m):
        """U^dag m U: a row-stacked superoperator matrix in this basis (real
        up to roundoff when the superoperator preserves Hermiticity)."""
        return self._mix(self._mix(np.array(m, dtype=complex), 1j, 1), -1j, 0)

    def rowstacked(self, x):
        """U x U^dag: the row-stacked matrix of a superoperator x given in
        this basis, the inverse of `transform`."""
        return self._unmix(self._unmix(np.array(x, dtype=complex), -1j, 1), 1j, 0)


@lru_cache(maxsize=None)
def hermitian_basis(dim):
    """The `HermitianBasis` of D x D matrices, one per D."""
    return HermitianBasis(dim)


@dataclass(frozen=True)
class Superoperator:
    """rho -> sum over (a, b) in terms of f[a] rho f[b]^dag over the table
    `fields`, with its dense forms computed when first read: mat, the
    row-stacked matrix (`superop`); hmat, mat in the Hermitian basis, real
    (every map whose hmat is read preserves Hermiticity) and contiguous;
    scale, the term norm sum ||f[a]||_1 ||f[b]||_1, which bounds ||mat||_1
    but is not roundoff where the terms cancel (the generator at D = 1)."""

    terms: tuple
    fields: dict

    @property
    def dim(self):
        return self.fields[self.terms[0][0]].shape[0]

    @cached_property
    def mat(self):
        return superop(self.terms, self.fields)

    @cached_property
    def hmat(self):
        return np.ascontiguousarray(hermitian_basis(self.dim).transform(self.mat).real)

    @cached_property
    def scale(self):
        # "1" is the identity; a square term is a power, so the generator's is
        # 2 ||Q||_1 + ||R||_1 ** 2 to the bit (pow(x, 2) and x * x can differ in
        # the last bit); an overflow gives inf, which the readers refuse
        with np.errstate(over="ignore", invalid="ignore"):
            names = set().union(*self.terms) - {"1"}
            norm = {"1": 1.0} | {name: np.abs(self.fields[name]).sum(axis=0).max() for name in names}
            return float(sum(norm[a] ** 2 if a == b else norm[a] * norm[b] for a, b in self.terms))


def fixed_mode(evals, zero_real_tol):
    """(index of the fixed point's zero among evals, gap), in any order of
    evals.

    More than one eigenvalue with |Re| <= zero_real_tol raises
    DegenerateFixedSpaceError.  The zero is that eigenvalue, or else the
    one of least modulus; the gap is minus the largest real part of the
    others, and 0.0 when that is not below -zero_real_tol or when there
    are no others (D = 1, gapless by convention).
    """
    near_zero = np.flatnonzero(np.abs(evals.real) <= zero_real_tol)
    if near_zero.size > 1:
        raise DegenerateFixedSpaceError(
            "fixed space is degenerate; stationary quantities are ill-defined")
    zero = int(near_zero[0]) if near_zero.size else int(np.argmin(np.abs(evals)))
    rest = np.delete(evals.real, zero)
    second = rest.max() if rest.size else 0.0
    return zero, float(-second) if second < -zero_real_tol else 0.0


@dataclass(frozen=True)
class SpectralData:
    """The unique fixed point of a generator, and its spectrum on demand.

    generator is the `Superoperator` the fixed point was certified on, and
    lu, piv the LAPACK LU factors of its bordered matrix (`bordered_lu`),
    which `solve` reuses.  zero_real_tol is Tolerances.zero_real times the
    generator's term norm.  eigenvalues (descending real part), gap and
    gapless are computed from the generator when first read, by one
    eigenvalue solve of its real matrix `hmat`, and read by `fixed_mode`:
    the read raises DegenerateFixedSpaceError when more than one eigenvalue
    has |Re| <= zero_real_tol, and the gap is minus the largest real part
    after the fixed point's zero (0.0 for the one-dimensional generator,
    which is gapless by convention).  The arrays are read-only.
    """

    generator: Superoperator
    steady_state: np.ndarray
    zero_real_tol: float
    lu: np.ndarray
    piv: np.ndarray

    def solve(self, b):
        """x with B x = b, for real b and B the bordered generator, from the factors."""
        x, _ = scipy.linalg.lapack.dgetrs(self.lu, self.piv, b)
        return x

    @cached_property
    def eigenvalues(self):
        try:
            evals = np.linalg.eigvals(self.generator.hmat).astype(complex)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"eigenvalue solve failed: {exc}") from exc
        evals = evals[np.lexsort((evals.imag, -evals.real))]
        fixed_mode(evals, self.zero_real_tol)  # refuses a degenerate fixed space
        evals.setflags(write=False)
        return evals

    @cached_property
    def gap(self):
        return fixed_mode(self.eigenvalues, self.zero_real_tol)[1]

    @property
    def gapless(self):
        return self.gap <= self.zero_real_tol


def build_liouvillian(K, R):
    """Assemble the vectorized generator for matrices (K, R).

    K is assumed Hermitian (validated upstream by `new_cmps`); shapes must
    agree.
    """
    K = np.asarray(K, dtype=complex)
    R = np.asarray(R, dtype=complex)
    if K.ndim != 2 or K.shape != R.shape or K.shape[0] != K.shape[1]:
        raise ShapeMismatchError(f"K and R must be square and equal-shaped, got {K.shape}, {R.shape}")
    return Superoperator(GENERATOR, fields(K, R))


def exponential(hmat, dx):
    """exp(hmat dx) of a real Hermitian-basis matrix, by `scipy.linalg.expm`
    looked up when called.  A result that is not finite (an exponent too
    large for expm) is refused as NoConvergenceError, before any reader
    turns it into nan values or a failed eigensolve."""
    e = scipy.linalg.expm(hmat * dx)
    if not np.isfinite(e).all():
        raise NoConvergenceError(f"the exponential at step {dx} is not finite")
    return e


def bordered_lu(hmat, shift, weight):
    """LAPACK dgetrf's (lu, piv, info) of B = hmat - shift + weight e <1|,
    e = vec(1)/D, written into one Fortran copy of the real Hermitian-basis
    matrix hmat, where <1| and vec(1) are 1 at the coordinates j (D + 1).

    For a generator L with shift 0 and weight c, B is invertible exactly
    when the fixed space of L is one-dimensional; as <1| L = 0 and
    <1|e> = 1, a solution of B x = b has <1|x> = <1|b>/c.
    """
    n = hmat.shape[0]
    d = math.isqrt(n)
    b = np.array(hmat, order="F")
    b.flat[::n + 1] -= shift
    b[::d + 1, ::d + 1] += weight / d
    return scipy.linalg.lapack.dgetrf(b, overwrite_a=1)


def steady_state(superop, tol=Tolerances()):
    """Unique fixed point of the generator, certified from one LU factorization.

    The real bordered matrix B = L + c e <1|, c the term norm
    `superop.scale`, is factored once (`bordered_lu`), and the fixed point
    solves B x = c e (so <1|x> = 1 and L x = 0); its coordinates are real,
    so it is Hermitian exactly, and it is trace-normalized.  B is
    invertible exactly when the fixed space is one-dimensional, and every
    eigenvalue lambda of L other than the fixed point's zero is one of B,
    so ||B^-1||_1 >= 1 / |lambda|.  An exactly singular B, or one whose
    ||B^-1||_1 (dgecon's estimate, told ||B||_1 = 1) times c reaches
    1 / tol.zero_real, raises
    DegenerateFixedSpaceError.  The residual ||L rho||_max, taken on the
    row-stacked `mat`, must not exceed tol.residual times the term norm.
    No spectrum is computed here: `SpectralData` computes it when read.
    """
    if not np.isfinite(superop.scale):
        raise NoConvergenceError("generator has non-finite entries")
    lu, piv, info = bordered_lu(superop.hmat, 0.0, superop.scale)
    if info > 0:
        raise DegenerateFixedSpaceError(
            "fixed space is degenerate (the bordered generator is singular);"
            " stationary quantities are ill-defined")
    rcond, _ = scipy.linalg.lapack.dgecon(lu, 1.0, norm="1")
    if rcond <= tol.zero_real * superop.scale:
        raise DegenerateFixedSpaceError(
            f"fixed space is degenerate (||B^-1||_1 x term norm reaches"
            f" 1 / {tol.zero_real}); stationary quantities are ill-defined")

    one = trace_functional(superop.dim).real
    x, _ = scipy.linalg.lapack.dgetrs(lu, piv, one * (superop.scale / superop.dim))
    rho = devectorize(hermitian_basis(superop.dim).vec(x))
    rho = rho / np.trace(rho).real

    residual = np.abs(superop.mat @ vectorize(rho)).max()
    limit = tol.residual * superop.scale
    if residual > limit:
        raise NoConvergenceError(
            f"fixed-point residual {residual:.3e} above {limit:.3e}"
            f" ({tol.residual} x term norm)")

    for arr in (rho, lu, piv):
        arr.setflags(write=False)
    return SpectralData(
        generator=superop,
        steady_state=rho,
        zero_real_tol=tol.zero_real * superop.scale,
        lu=lu,
        piv=piv,
    )


def choi_matrix(channel_mat):
    """Reshuffle a row-stacking channel matrix into its Choi matrix.

    The channel is completely positive iff the Choi matrix is PSD; the
    returned matrix is Hermitized before any eigenvalue test the caller
    runs.
    """
    channel_mat = np.asarray(channel_mat, dtype=complex)
    n = channel_mat.shape[0]
    d = int(round(np.sqrt(n)))
    if d * d != n or channel_mat.shape != (n, n):
        raise ShapeMismatchError("channel matrix must be D^2 x D^2")
    c = channel_mat.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(n, n)
    return (c + c.conj().T) / 2


def choi_min_eigenvalue(channel_mat):
    return float(np.linalg.eigvalsh(choi_matrix(channel_mat)).min())
