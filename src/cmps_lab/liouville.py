"""Vectorized evolution generator and its spectrum.

Density matrices are flattened row-major ("row stacking"): entry (j, k) of M
sits at index j*D + k of vec(M).  Every superoperator in the package is a
sum of sandwiches rho -> a rho b^dag, and `sandwich(a, b)` is the only code
that knows how the row-stacking layout turns one into a matrix:
vec(a rho b^dag) = (a kron conj(b)) vec(rho).  (`choi_matrix` reads such a
matrix back.)  The generator of

    d rho / dx = -i[K, rho] + R rho R^dag - (1/2){R^dag R, rho}
               = Q rho + rho Q^dag + R rho R^dag,   Q = -i K - (1/2) R^dag R,

is therefore the D^2 x D^2 matrix

    L = sandwich(Q, 1) + sandwich(1, Q) + sandwich(R, R).

The exact calculus writes each of its superoperators as a list of (a, b)
names into one field table, `fields(K, R)` = {1, Q, R, X = -[Q, R]}: the
generator is `GENERATOR` = (Q, 1), (1, Q), (R, R), and the insertions of
`correlators.INSERTIONS` are one pair each.  `superop` is the only code
that turns such a list into a matrix, and `superop_tangent` its only
derivative (the product rule over the moving fields); a matrix-free
calculus swaps the bodies of these two functions.

The trace functional is the row vector vec(1)^dag; trace preservation reads
vec(1)^dag L = 0.  Spectra live in the closed left half plane; the fixed
point is the eigenvector of the eigenvalue closest to zero, Hermitized and
trace-normalized, and the gap is minus the largest remaining real part.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

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
    """Superoperator of rho -> a rho b^dag on row-stacked matrices."""
    return np.kron(a, np.conj(b))


GENERATOR = (("Q", "1"), ("1", "Q"), ("R", "R"))


def fields(K, R):
    """The field table: the boundary matrices every superoperator is made of.

    "1" is the identity, "Q" = -i K - (1/2) R^dag R the no-jump generator,
    "R" the emission, and "X" = -[Q, R] the derivative field.
    """
    q = -1j * K - 0.5 * (R.conj().T @ R)
    return {"1": np.eye(K.shape[0]), "Q": q, "R": R, "X": -(q @ R - R @ q)}


def superop(terms, f):
    """Superoperator of rho -> sum over (a, b) in terms of f[a] rho f[b]^dag."""
    return reduce(np.add, (sandwich(f[a], f[b]) for a, b in terms))


def superop_tangent(terms, f, df):
    """Directional derivative of `superop(terms, f)` when the fields move by df.

    The product rule gives sandwich(df[a], f[b]) + sandwich(f[a], df[b]) per
    term; the identity does not move, so it contributes no piece.
    """
    pieces = []
    for a, b in terms:
        if a != "1":
            pieces.append(sandwich(df[a], f[b]))
        if b != "1":
            pieces.append(sandwich(f[a], df[b]))
    return reduce(np.add, pieces)


def trace_functional(dim):
    """Row vector implementing M -> tr(M) on flattened matrices."""
    return vectorize(np.eye(dim)).conj()


@dataclass(frozen=True)
class Superoperator:
    """Dense generator acting on row-stacked density matrices.  scale, its
    term norm, sums the 1-norms of the sandwiches it is built from: it
    bounds ||mat||_1 but is not roundoff where they cancel, as at D = 1."""

    mat: np.ndarray
    dim: int
    scale: float


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (descending real part), fixed point, and gap.

    zero_real_tol is the threshold up to which |Re lambda| counts as zero:
    Tolerances.zero_real times the generator's term norm.  The arrays are
    read-only.
    """

    eigenvalues: np.ndarray
    steady_state: np.ndarray
    gap: float
    degenerate_fixed_space: bool
    zero_real_tol: float

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
    f = fields(K, R)
    scale = 2.0 * np.linalg.norm(f["Q"], 1) + np.linalg.norm(R, 1) ** 2
    return Superoperator(mat=superop(GENERATOR, f), dim=K.shape[0], scale=float(scale))


def steady_state(superop, tol=Tolerances()):
    """Dense eigendecomposition of the generator.

    Returns SpectralData with eigenvalues sorted by descending real part,
    the Hermitized, trace-normalized fixed point, the spectral gap (0.0 for
    the one-dimensional case, which is gapless by convention), and a flag
    marking a degenerate fixed space (more than one eigenvalue with
    |Re| <= tol.zero_real times the term norm `superop.scale`; gap-based
    claims are unreliable when set).  The fixed point's residual
    ||L rho||_max must not exceed tol.residual times the term norm.
    """
    mat = superop.mat
    zero_tol = tol.zero_real * superop.scale
    try:
        evals, evecs = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigendecomposition failed: {exc}") from exc
    order = np.lexsort((evals.imag, -evals.real))
    evals = evals[order]
    evecs = evecs[:, order]

    near_zero = np.flatnonzero(np.abs(evals.real) <= zero_tol)
    degenerate = near_zero.size > 1

    # Fixed point: among near-zero modes prefer the one carrying the most
    # trace (degenerate spaces can hide the physical state in a traceless
    # combination); fall back to the eigenvalue closest to zero.
    candidates = near_zero if near_zero.size else np.array([np.argmin(np.abs(evals))])
    best, best_trace = None, 0.0
    for idx in candidates:
        rho = devectorize(evecs[:, idx])
        rho = (rho + rho.conj().T) / 2
        nrm = np.linalg.norm(rho)
        if nrm == 0.0:
            continue
        tr = abs(np.trace(rho)) / nrm
        if tr > best_trace:
            best, best_trace = idx, tr
    if best is None or best_trace < 1e-8:
        raise NoConvergenceError("no trace-carrying fixed point found")
    rho = devectorize(evecs[:, best])
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho).real

    residual = np.abs(mat @ vectorize(rho)).max()
    limit = tol.residual * superop.scale
    if residual > limit and not degenerate:
        raise NoConvergenceError(
            f"fixed-point residual {residual:.3e} above {limit:.3e}"
            f" ({tol.residual} x term norm)")

    rest = [ev.real for i, ev in enumerate(evals) if i != best]
    if not rest:
        gap = 0.0
    else:
        second = max(rest)
        gap = -second if second < -zero_tol else 0.0

    evals.setflags(write=False)
    rho.setflags(write=False)
    return SpectralData(
        eigenvalues=evals,
        steady_state=rho,
        gap=float(gap),
        degenerate_fixed_space=bool(degenerate),
        zero_real_tol=zero_tol,
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


def require_unique_fixed_space(spectral):
    """Guard used by bulk correlators: degenerate fixed spaces have no
    well-defined stationary expectations."""
    if spectral.degenerate_fixed_space:
        raise DegenerateFixedSpaceError(
            "fixed space is degenerate; stationary quantities are ill-defined"
        )
    return spectral
