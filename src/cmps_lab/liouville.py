"""The boundary generator and its spectrum, in one dense layout.

The boundary state evolves along the field by

    d rho / dx = -i[K, rho] + R rho R^dag - (1/2){R^dag R, rho}
               = Q rho + rho Q^dag + R rho R^dag,   Q = -i K - (1/2) R^dag R.

Every D^2 x D^2 map of the package is one `Superoperator`: a field table,
a tuple of (a, b) names into a dict f of D x D matrices, read as
rho -> sum f[a] rho f[b]^dag.  The exact calculus reads one table,
`fields(K, R)` = {1, Q, R, X = -[Q, R]}: the generator is `GENERATOR` =
(Q, 1), (1, Q), (R, R), and each insertion of `correlators.INSERTIONS` is
one pair.  `lindblad`'s generator forms, the lattice transfer matrix and
its estimators are tables too.  A table acts on a stack of D x D matrices
by `action`, at O(D^3) per matrix, and by its adjoint `action_adjoint`;
only the maps that are exponentiated, factored or eigen-solved are built
as matrices.  The product rule is one rewrite of the table: along
K + t dK, R + t dR the fields move by `fields_tangent`, and the map of
`terms` by the map of `tangent_terms(terms)` over the merged table f | df.

The one dense layout is the Hermitian basis (Alicki and Lendi's coherence
vector): `hermitian_basis(D)` is a unitary U that keeps the diagonal
matrix units E_jj and replaces each pair E_jk, E_kj by the Hermitian
matrices (E_jk + E_kj)/sqrt 2 and i (E_jk - E_kj)/sqrt 2.  A map that
takes Hermitian matrices to Hermitian matrices, as every table above
does, is the real matrix U^dag S U there, `Superoperator.hmat`, built
from the table in column blocks (`HermitianBasis.dense`); every dense
kernel runs on it in real arithmetic.  `exponential` exponentiates it, and
`exponential_frechet` also gives the Frechet derivative along a second
map; both refuse an exponent that would overflow or whose exponential is
not resolved in double precision (`exponent`), and a result that is not
finite.  `finite` is the package's one test of a computed number: every
value that an overflow may leave non-finite, an exponential, a closed
correlator chain, a lattice value or a transfer defect, passes through
it and is refused as NoConvergenceError ("... is not finite").
`HermitianBasis.matrices` and `coordinates` are the one conversion
between coordinates and D x D matrices.  `choi_min_eigenvalue` reads a
channel in coordinates through its complex D^2 x D^2 Choi matrix; the
other complex D^2 x D^2 arrays are the eigenvectors of the generator,
`Superoperator.modes`, and their inverse.  `spectrum` is the package's
one non-Hermitian eigensolve: it divides the matrix by the power of two
of the term norm its caller holds and multiplies the eigenvalues back, so
no bit of a spectrum depends on the length unit, and it is the one place
where a failed solve becomes NoConvergenceError; the lattice oracle's
transfer matrix, which has no unit, runs it at scale 1.  `eigenmodes`
runs it with eigenvectors and is the one inverse of its basis: it
certifies the basis by its condition number (EIG_COND_LIMIT), bounded
first by the Frobenius norms of V and V^-1 and taken from an SVD only
where that bound cannot decide, and by the backward error of the
eigenpairs, for the correlators' separation scans,
`correlators.spectral_envelope` and the sampler's no-jump flow alike,
which all read the same inverse.

The trace functional <1| reads the diagonal coordinates, and trace
preservation is <1| L = 0.  The fixed point needs no spectrum: one LU
factorization of the bordered generator (`bordered_lu`) gives it by a
linear solve, and a condition estimate of the same factors certifies
that the fixed space is one-dimensional.  The eigenvalues and the gap are
computed only where they are read.
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


def tangent_terms(terms):
    """The product rule as a rewrite of the table, read over the merged table
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


def _product(a, m, b):
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
    return reduce(np.add, (_product(g[a], m, g[b]) for a, b in terms))


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
    """<1|, the covector of M -> tr(M) in coordinates: 1 at the diagonal
    coordinates j (D + 1), 0 elsewhere, conjugated as a covector is."""
    return np.eye(dim, dtype=complex).reshape(-1).conj()


_R2 = np.sqrt(0.5)


def _mix(view, a, b, phase):
    """Mix rows a and b of view in place, to (a + b)/sqrt 2 and
    phase (a - b)/sqrt 2 (U^dag for phase -i, U^T for +i)."""
    va, vb = view[a], view[b]
    view[a], view[b] = (va + vb) * _R2, (va - vb) * (phase * _R2)
    return view


def _unmix(view, a, b, phase):
    """Undo `_mix` of rows a and b of view in place: U for phase +i,
    conj(U) for -i."""
    xa, xb = view[a], view[b] * (phase * _R2)
    view[a] = xa * _R2 + xb
    view[b] = xa * _R2 - xb
    return view


def _columns(terms, left, right, j, l):
    """Columns j D + l of the table's map on flattened matrices: the
    Kronecker columns left[a][:, j] kron right[b][:, l], summed over the
    terms (a, b) in order, each term written into one reused buffer."""
    def kron(a, b, out=None):
        return np.multiply(left[a].take(j, axis=1)[:, None], right[b].take(l, axis=1)[None], out=out)

    (a, b), *rest = terms
    block = kron(a, b).astype(complex, copy=False)
    part = np.empty_like(block)
    for a, b in rest:
        block += kron(a, b, part)
    return block.reshape(-1, j.size)


class HermitianBasis:
    """Orthonormal Hermitian basis of the D x D matrices, as a unitary U.

    Coordinate j D + j is that of E_jj; for each pair j < k, coordinates
    a = j D + k and b = k D + j are those of (E_jk + E_kj)/sqrt 2 and
    i (E_jk - E_kj)/sqrt 2.  U mixes each index pair (a, b) of a flattened
    matrix (entry (j, k) at j D + k) with one 2 x 2 block and leaves the
    diagonal alone, so it is applied by indexing and never stored.  The
    coordinates of a Hermitian matrix are real, and a superoperator that
    maps Hermitian matrices to Hermitian matrices is a real matrix here,
    `dense`.  The trace functional <1| reads only the diagonal.
    """

    def __init__(self, dim):
        j, k = np.triu_indices(dim, 1)
        self.dim = dim
        self.a = j * dim + k
        self.b = k * dim + j
        # the column blocks of `dense`, 4 D index pairs each and the diagonal
        # in the first: (columns, their (j, l), the a and b columns' slices)
        self.blocks = []
        for start in range(0, max(self.a.size, 1), 4 * dim):
            a, b = self.a[start:start + 4 * dim], self.b[start:start + 4 * dim]
            lead = np.arange(dim) * (dim + 1) if start == 0 else a[:0]
            cols = np.concatenate([lead, a, b])
            m, n = lead.size, a.size
            self.blocks.append((cols, *np.divmod(cols, dim), slice(m, m + n), slice(m + n, None)))

    def matrices(self, x):
        """The D x D matrices U x of coordinate vectors x, one per row, as a
        stack (k, D, D); a single vector gives a stack of one."""
        v = _unmix(np.array(x.T, dtype=complex), self.a, self.b, 1j)
        return v.T.reshape(-1, self.dim, self.dim)

    def coordinates(self, m):
        """The coordinates U^dag vec(M) of a D x D matrix M, or of each
        matrix of a stack (k, D, D), one per row."""
        v = m.reshape(-1) if m.ndim == 2 else m.reshape(len(m), -1).T
        return _mix(np.array(v, dtype=complex), self.a, self.b, -1j).T

    def act(self, terms, f, x):
        """The `action` of a table on coordinate vectors x, one per row (or
        x alone), as coordinates, one per row."""
        return self.coordinates(action(terms, f, self.matrices(x)))

    def dense(self, terms, f):
        """The real D^2 x D^2 matrix U^dag S U of the table's map S, built
        in column blocks (`blocks`) so that no complex D^2 x D^2 array is
        formed: each block sums its Kronecker columns (`_columns`) of the
        fields f[a] and conj(f[b]), mixes its paired columns, then its rows,
        and keeps the real part (every table whose matrix is read preserves
        Hermiticity).  Each entry is the same products, sums and 2 x 2 mixes
        whatever the block size."""
        out = np.empty((self.dim ** 2,) * 2)
        right = {b: np.conj(f[b]) for _, b in terms}
        for cols, j, l, a, b in self.blocks:
            block = _columns(terms, f, right, j, l)
            _mix(block.T, a, b, 1j)
            _mix(block, self.a, self.b, -1j)
            out[:, cols] = block.real
        return out


@lru_cache(maxsize=None)
def hermitian_basis(dim):
    """The `HermitianBasis` of D x D matrices, one per D."""
    return HermitianBasis(dim)


# a sum of exponentials over an eigenbasis V loses about eps x cond(V)^2
# (relative); at this bound that stays below 1e-10
EIG_COND_LIMIT = 1e3


@dataclass(frozen=True)
class Eigenmodes:
    """The eigenpairs a V = V diag(values) of a square matrix a, from one
    `np.linalg.eig`, the inverse of V (None when V is singular) and whether
    V is a certified basis (`eigenmodes`).  The arrays are read-only."""

    values: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray | None
    certified: bool

    def coefficients(self, row, col):
        """c = (row V) * (V^-1 col), so that row exp(a x) col is
        sum_j c_j exp(values_j x); V must have its inverse."""
        return (row @ self.vectors) * (self.inverse @ col)


def spectrum(a, scale, vectors=False):
    """The eigenvalues of a square matrix a (`np.linalg.eigvals`), or with
    vectors=True the pair (eigenvalues, eigenvectors) (`np.linalg.eig`):
    the package's one non-Hermitian eigensolve, which the generator's
    modes and spectrum, the sampler's no-jump generator and the lattice
    oracle's transfer matrix all run.

    scale is the bound on ||a|| that the caller holds (a term norm).  The
    solve runs on a / 2^e, e the binary exponent of scale (e = 0 when
    scale is 0 or not finite), and the eigenvalues are multiplied back by
    2^e.  Both products are exact, and a change of length unit by a power
    of two leaves a / 2^e the same bits, so it leaves every bit of the
    solve as it was, where LAPACK's absolute thresholds (the 4 eps of its
    2 x 2 blocks) would see the unit.  A failed solve raises
    NoConvergenceError.
    """
    # frexp gives e = 0 at 0, inf and nan; the clamp keeps 2^e and 2^-e normal
    e = min(max(math.frexp(scale)[1], -1022), 1022)
    b = a * math.ldexp(1.0, -e)
    try:
        if vectors:
            values, vecs = np.linalg.eig(b)
            return values * math.ldexp(1.0, e), vecs
        return np.linalg.eigvals(b) * math.ldexp(1.0, e)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolve failed: {exc}") from exc


def eigenmodes(a, scale):
    """The `Eigenmodes` of a from its `spectrum` (scale a bound on
    ||a||_1, a term norm), and the package's one inverse of the basis V.

    V is certified as a basis when cond(V) <= EIG_COND_LIMIT and the
    eigenpairs pass a backward-error test, ||a V - V diag(values)||_1 <=
    Tolerances.residual x scale x ||V||_1, from the one product a V: a
    well-conditioned V can still hold a wrong pair, as eig gives for a
    generator whose entries span 200 decades.  A residual that overflows
    is not certified, nor is a singular V.  cond(V) is bounded first by
    ||V||_F ||V^-1||_F, from the inverse the coefficients and the sampler
    read anyway; only when that bound exceeds the limit does one SVD give
    cond(V) itself, so the verdict is that of cond(V) alone.
    """
    values, vectors = spectrum(a, scale, vectors=True)
    try:
        inverse = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        inverse = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        defect = np.abs(a @ vectors - vectors * values).sum(axis=0).max()
        bound = Tolerances.residual * scale * np.abs(vectors).sum(axis=0).max()
        certified = bool(inverse is not None and defect <= bound)
        if certified and not np.linalg.norm(vectors) * np.linalg.norm(inverse) <= EIG_COND_LIMIT:
            s = np.linalg.svd(vectors, compute_uv=False)
            certified = bool(s[0] / s[-1] <= EIG_COND_LIMIT)
    for arr in (values, vectors, inverse):
        if arr is not None:
            arr.setflags(write=False)
    return Eigenmodes(values, vectors, inverse, certified)


@dataclass(frozen=True)
class Superoperator:
    """rho -> sum over (a, b) in terms of f[a] rho f[b]^dag over the table
    `fields`, with its one dense form, its eigenmodes and its norm computed
    when first read: hmat, its real matrix in the Hermitian basis
    (`HermitianBasis.dense`); modes, the `Eigenmodes` of hmat, certified
    against the term norm (`eigenmodes`), which hold two complex D^2 x D^2
    arrays, V and V^-1 (16 MB each at D = 32); scale, the term norm
    sum ||f[a]||_1 ||f[b]||_1, each term one product (a square term too),
    which bounds the map's 1-norm, and D times it every entry of hmat, but
    is not roundoff where the terms cancel (the generator at D = 1)."""

    terms: tuple
    fields: dict

    @property
    def dim(self):
        return self.fields[self.terms[0][0]].shape[0]

    @cached_property
    def hmat(self):
        return hermitian_basis(self.dim).dense(self.terms, self.fields)

    @cached_property
    def modes(self):
        return eigenmodes(self.hmat, self.scale)

    @cached_property
    def scale(self):
        # "1" is the identity, so every term is one product norm[a] * norm[b]
        # and a change of unit by a power of two scales it exactly; an
        # overflow gives inf, which the readers refuse
        with np.errstate(over="ignore", invalid="ignore"):
            names = set().union(*self.terms) - {"1"}
            norm = {"1": 1.0} | {name: np.abs(self.fields[name]).sum(axis=0).max() for name in names}
            return float(sum(norm[a] * norm[b] for a, b in self.terms))


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
    eigenvalue solve of its real matrix `hmat` (`spectrum`, against the
    generator's term norm), and read by `fixed_mode`:
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
        evals = spectrum(self.generator.hmat, self.generator.scale).astype(complex)
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
    """The generator of (K, R), the `Superoperator` of `GENERATOR`.

    K is assumed Hermitian (validated upstream by `new_cmps`); shapes must
    agree.
    """
    K = np.asarray(K, dtype=complex)
    R = np.asarray(R, dtype=complex)
    if K.ndim != 2 or K.shape != R.shape or K.shape[0] != K.shape[1]:
        raise ShapeMismatchError(f"K and R must be square and equal-shaped, got {K.shape}, {R.shape}")
    return Superoperator(GENERATOR, fields(K, R))


def sourced_generator(f, lam, mu):
    """The generator over the table f with Q -> Q + lam R + mu X: a site of
    the source functional, whose source term lam (R, 1) + conj(lam) (1, R)
    + mu (X, 1) + conj(mu) (1, X) is that shift.  A zero source adds
    nothing, so a field that overflowed (X) enters only with a source; an
    overflow in the shift leaves the term norm non-finite, silently, as in
    `fields`, and `exponent` refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = f["Q"] + lam * f["R"] + (mu * f["X"] if mu else 0.0)
        return Superoperator(GENERATOR, {**f, "Q": q})


# largest term norm x |dx| of an exponent: expm resolves exp(L dx) only to
# about 2^-53 of ||L dx||.  Over [1e9, 1e10] the error against 80-digit
# mpmath reaches 4.8e-6 relative in `compare_forms`' Choi minimum (driven
# emitter, dx = 0.1), 4.7e-7 in a finite `family_derivative` and 1.9e-7 in
# a gapped D = 3 `two_point` past its decay; it grows about tenfold per
# decade beyond, and the Choi minimum has the wrong sign at 1e15
EXPONENT_LIMIT = 1e10


def bounded_step(op, dx):
    """dx, refused as NoConvergenceError when the exponent hmat dx of the
    `Superoperator` op could overflow: D x scale x |dx|, which bounds its
    entries, is not finite."""
    if not math.isfinite(op.dim * op.scale * abs(float(dx))):
        raise NoConvergenceError(f"the exponent at step {dx} overflows")
    return dx


def certify_step(op, dx):
    """dx, refused as NoConvergenceError when the exponent hmat dx of the
    `Superoperator` op could overflow (|dx| > 1 and `bounded_step` refuses
    it) or when its exponential is not resolved in double precision (scale
    x |dx| above `EXPONENT_LIMIT`, which also covers an overflow at
    |dx| <= 1): the certificate of every leg, whether it is exponentiated
    or read from the eigenmodes."""
    step = abs(float(dx))
    if step > 1.0:
        bounded_step(op, dx)
    if not op.scale * step <= EXPONENT_LIMIT:
        raise NoConvergenceError(f"term norm x |dx| = {op.scale * step:.3e} exceeds {EXPONENT_LIMIT:g}:"
                                 f" the exponential at step {dx} is not resolved in double precision")
    return dx


def exponent(op, dx):
    """hmat dx of a `Superoperator`, refused by `certify_step` before it is
    formed."""
    return op.hmat * certify_step(op, dx)


def term_norm(op, what):
    """The term norm of the `Superoperator` op, refused as
    NoConvergenceError ("<what> has a non-finite term norm") when it
    overflowed: the one test of a map before it is built or factored."""
    if not np.isfinite(op.scale):
        raise NoConvergenceError(f"{what} has a non-finite term norm")
    return op.scale


def finite(values, what):
    """values, a computed number or array, refused as NoConvergenceError
    ("<what> is not finite") when any entry is not: the package's one test
    of a computed number.  Its callers let an overflow on the way pass
    without a warning (`np.errstate`) and test the result here."""
    if not np.isfinite(values).all():
        raise NoConvergenceError(f"{what} is not finite")
    return values


def exponential(op, dx):
    """exp(L dx) of a `Superoperator` L, from its real matrix hmat by
    `scipy.linalg.expm` looked up when called.  An exponent that `exponent`
    refuses, or a result that is not finite, is refused as
    NoConvergenceError (`finite`), before any reader turns it into nan
    values or a failed eigensolve, and before an overflow inside expm
    warns."""
    a = exponent(op, dx)
    with np.errstate(over="ignore", invalid="ignore"):
        return finite(scipy.linalg.expm(a), f"the exponential at step {dx}")


def exponential_frechet(op, dop, dx):
    """(exp(L dx), its Frechet derivative at L dx in the direction dL dx) of
    `Superoperator`s L and dL, by `scipy.linalg.expm_frechet` looked up when
    called, refused as `exponential` is, for L's exponent and both results.
    The derivative is linear in its direction, so it is resolved as L's
    exponent is: dL dx is refused, before it is formed, only where it could
    overflow (`bounded_step`), in any length unit."""
    a, da = exponent(op, dx), dop.hmat * bounded_step(dop, dx)
    with np.errstate(over="ignore", invalid="ignore"):
        e, de = scipy.linalg.expm_frechet(a, da)
    what = f"the exponential at step {dx}"
    return finite(e, what), finite(de, what)


def bordered_lu(hmat, shift, weight):
    """LAPACK dgetrf's (lu, piv, info) of B = hmat - shift + weight e <1|,
    e = |1>/D, written into one Fortran copy of the real Hermitian-basis
    matrix hmat, where <1| and |1> are 1 at the coordinates j (D + 1).

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


def steady_state(generator, tol=Tolerances()):
    """Unique fixed point of the generator, certified from one LU factorization.

    The real bordered matrix B = L + c e <1|, c the term norm
    `generator.scale` (`term_norm`), or 1 where that is 0 (L = 0, whose
    one fixed point at D = 1 is the vacuum), is factored once
    (`bordered_lu`), and the fixed point solves B x = c e (so <1|x> = 1 and
    L x = 0); its coordinates are real, so it is Hermitian exactly, and it
    is trace-normalized.  B is invertible exactly when the fixed space is
    one-dimensional, and every eigenvalue lambda of L other than the fixed
    point's zero is one of B, so ||B^-1||_1 >= 1 / |lambda|.  An exactly
    singular B, or one whose ||B^-1||_1 (dgecon's estimate, told
    ||B||_1 = 1) times the term norm reaches 1 / tol.zero_real, raises
    DegenerateFixedSpaceError.  The residual ||L rho||_max, from the
    table's `action` on rho at O(D^3), must not exceed tol.residual times
    the term norm.
    No spectrum is computed here: `SpectralData` computes it when read.
    """
    weight = term_norm(generator, "generator") or 1.0
    lu, piv, info = bordered_lu(generator.hmat, 0.0, weight)
    if info > 0:
        raise DegenerateFixedSpaceError(
            "fixed space is degenerate (the bordered generator is singular);"
            " stationary quantities are ill-defined")
    rcond, _ = scipy.linalg.lapack.dgecon(lu, 1.0, norm="1")
    if rcond <= tol.zero_real * generator.scale:
        raise DegenerateFixedSpaceError(
            f"fixed space is degenerate (||B^-1||_1 x term norm reaches"
            f" 1 / {tol.zero_real}); stationary quantities are ill-defined")

    one = trace_functional(generator.dim).real
    x, _ = scipy.linalg.lapack.dgetrs(lu, piv, one * (weight / generator.dim))
    rho = hermitian_basis(generator.dim).matrices(x)[0]
    rho = rho / np.trace(rho).real

    residual = np.abs(action(generator.terms, generator.fields, rho)).max()
    limit = tol.residual * generator.scale
    if residual > limit:
        raise NoConvergenceError(
            f"fixed-point residual {residual:.3e} above {limit:.3e}"
            f" ({tol.residual} x term norm)")

    for arr in (rho, lu, piv):
        arr.setflags(write=False)
    return SpectralData(
        generator=generator,
        steady_state=rho,
        zero_real_tol=tol.zero_real * generator.scale,
        lu=lu,
        piv=piv,
    )


def choi_min_eigenvalue(x):
    """Least eigenvalue of the Choi matrix sum_jk E_jk kron S(E_jk) of a
    channel S given by its real matrix x in the Hermitian basis; S is
    completely positive iff it is >= 0.  x is mixed back to matrix units,
    U x U^dag, by the 2 x 2 mixes at O(D^4), reshuffled and Hermitized."""
    n = x.shape[0]
    d = math.isqrt(n)
    if d * d != n or x.shape != (n, n):
        raise ShapeMismatchError("channel matrix must be D^2 x D^2")
    basis, m = hermitian_basis(d), np.array(x, dtype=complex)
    _unmix(m.T, basis.a, basis.b, -1j)
    _unmix(m, basis.a, basis.b, 1j)
    c = m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(n, n)
    return float(np.linalg.eigvalsh((c + c.conj().T) / 2).min())
