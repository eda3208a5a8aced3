"""Field-state parameterization.

A translation-invariant field state on an interval is specified by a pair of
D x D matrices: a Hermitian K (the boundary Hamiltonian part) and an
arbitrary R (the emission part).  All rates are per unit length, so R scales
as 1/sqrt(length) and K as 1/length.  Together they define the non-Hermitian
generator Q = -i K - (1/2) R^dag R that drives the no-jump evolution of the
boundary system; Q + Q^dag = -R^dag R holds by construction.

Geometry is either `Thermodynamic()` (bulk quantities in the stationary
regime) or `Finite(length, boundary_rho)` with an explicit boundary density
matrix at x = 0.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidBoundaryStateError,
    NonHermitianKError,
    ShapeMismatchError,
    ValidationError,
)
from .liouville import Tolerances, build_liouvillian, fields, require_unique_fixed_space, steady_state


def _as_complex_matrix(m, name):
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    return arr


def _frozen(arr):
    out = np.array(arr, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Thermodynamic:
    """Infinite-length geometry; expectations are stationary bulk values."""


@dataclass(frozen=True)
class Finite:
    """Interval [0, length] with boundary state rho(0) = boundary_rho.

    boundary_rho is Hermitian to within tol.herm; its trace and positivity
    are checked to an absolute 1e-12, because a density matrix is
    dimensionless and does not change with the length unit.
    """

    length: float
    boundary_rho: np.ndarray
    tol: Tolerances = Tolerances()

    def __post_init__(self):
        if not (0.0 < float(self.length) < np.inf):
            raise ShapeMismatchError("finite geometry needs a finite length > 0")
        rho = _as_complex_matrix(self.boundary_rho, "boundary_rho")
        scale = max(1.0, np.abs(rho).max())
        if np.abs(rho - rho.conj().T).max() > self.tol.herm * scale:
            raise InvalidBoundaryStateError("boundary_rho is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise InvalidBoundaryStateError("boundary_rho must have trace 1")
        if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-12:
            raise InvalidBoundaryStateError("boundary_rho must be positive semidefinite")
        object.__setattr__(self, "boundary_rho", _frozen(rho))
        object.__setattr__(self, "length", float(self.length))


Geometry = Thermodynamic | Finite


@dataclass(frozen=True)
class CmpsParams:
    """Validated (dim, K, R, geometry, tol) bundle.  Arrays are read-only.

    `stationary` is the spectrum and unique fixed point of the generator,
    computed once per parameter set on first use and then shared by every
    consumer.  It is certified against the set's own `tol`, whose spectral
    thresholds are relative to the generator's term norm
    2 ||Q||_1 + ||R||_1^2.
    """

    dim: int
    K: np.ndarray
    R: np.ndarray
    geometry: Geometry = field(default_factory=Thermodynamic)
    tol: Tolerances = Tolerances()

    @cached_property
    def stationary(self):
        """SpectralData of the generator; raises when the fixed space is degenerate."""
        return require_unique_fixed_space(steady_state(build_liouvillian(self.K, self.R), self.tol))


@dataclass(frozen=True)
class GeneratorQ:
    """No-jump generator Q = -i K - (1/2) R^dag R."""

    mat: np.ndarray


def new_cmps(dim, K, R, geometry=None, tol=Tolerances()):
    """Validate and freeze a parameter set.

    tol is bound to the set: K must be Hermitian to within tol.herm
    relative to its largest entry, and `stationary` is certified against
    it.  Symmetrize explicitly ((K + K^dag)/2) if an input is only
    approximately Hermitian.  For finite geometry the boundary state must
    be a density matrix (Hermitian, PSD, trace 1) of matching dimension.
    """
    dim = int(dim)
    if dim < 1:
        raise ShapeMismatchError("dim must be >= 1")
    K = _as_complex_matrix(K, "K")
    R = _as_complex_matrix(R, "R")
    if K.shape != (dim, dim) or R.shape != (dim, dim):
        raise ShapeMismatchError(
            f"K and R must be {dim} x {dim}, got {K.shape} and {R.shape}"
        )
    scale = max(1.0, np.abs(K).max())
    if np.abs(K - K.conj().T).max() > tol.herm * scale:
        raise NonHermitianKError(f"K must be Hermitian within {tol.herm} (relative)")
    if geometry is None:
        geometry = Thermodynamic()
    if isinstance(geometry, Finite) and geometry.boundary_rho.shape != (dim, dim):
        raise ShapeMismatchError("boundary_rho dimension does not match dim")
    if not isinstance(geometry, (Thermodynamic, Finite)):
        raise ShapeMismatchError(f"unknown geometry {geometry!r}")
    return CmpsParams(dim=dim, K=_frozen(K), R=_frozen(R), geometry=geometry, tol=tol)


def q_matrix(params):
    """Return GeneratorQ for a parameter set; Q + Q^dag = -R^dag R to rounding."""
    return GeneratorQ(mat=_frozen(fields(params.K, params.R)["Q"]))
