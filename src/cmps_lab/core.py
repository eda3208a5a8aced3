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

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidBoundaryStateError,
    NonHermitianKError,
    ShapeMismatchError,
    StepNotPositiveError,
    ValidationError,
)
from .liouville import Tolerances, build_liouvillian, steady_state


def _integer(value, name):
    """A count, an index or a seed as an int: a value that is not a whole
    number (1.5, nan, a string) is a ValidationError, never truncated."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _float(value, name):
    """value as float() reads it; a value it cannot read (None, a word, a
    complex number) is a ValidationError that names it, as `_integer`
    names a value that is not a whole number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None


def _real(value, name):
    """A real number as a float (`_float`), refused as ValidationError
    unless finite."""
    value = _float(value, name)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def _lattice_step(value, name):
    """A lattice step as a float: finite (ValidationError) and positive."""
    value = _real(value, name)
    if value <= 0:
        raise StepNotPositiveError(f"{name} must be positive, got {value}")
    return value


def finite_site_count(length, eps):
    """Number of step-eps sites that tile a finite window of `length` exactly.

    Exactly means to 1e-9 of the length, so the verdict holds in every
    length unit.
    """
    n_sites = int(round(length / eps))
    if n_sites < 1 or abs(n_sites * eps - length) > 1e-9 * length:
        raise ShapeMismatchError(f"eps {eps} does not divide the length {length}")
    return n_sites


def _dark(weight, r):
    """Whether a weight tr(R rho R^dag), a density or a post-jump weight,
    is zero.  The zero is 1e-14 ||R||_F^2: that bounds the weight and
    scales with it, so the verdict holds in every length unit."""
    return weight <= 1e-14 * np.linalg.norm(r) ** 2


def _as_complex_matrix(m, name):
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    return arr


def _shrunk(m):
    """(m 2^-k, 2^-k) for the least k >= 0 that brings every real and
    imaginary part of m below 2.  A power of two scales exactly, so a test
    on the shrunk matrix, with its threshold scaled alike, cannot overflow
    and keeps the verdict of the test on m; entries below 2 are not scaled."""
    k = max(math.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))[1] - 1, 0)
    shrink = math.ldexp(1.0, -k)
    return m * shrink, shrink


def _is_hermitian(m, herm):
    """Whether m is Hermitian to within herm relative to its largest entry
    (at least 1), tested on `_shrunk`(m), so that a large m cannot overflow."""
    s, shrink = _shrunk(m)
    return np.abs(s - s.conj().T).max() <= herm * max(shrink, np.abs(s).max())


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

    The trace and positivity of boundary_rho are checked here, to an
    absolute 1e-12, because a density matrix is dimensionless and does not
    change with the length unit; both tests run on `_shrunk`(boundary_rho),
    so that large entries cannot overflow them.  Its Hermiticity is checked
    by `new_cmps`, against the parameter set's own tol.herm.
    """

    length: float
    boundary_rho: np.ndarray

    def __post_init__(self):
        length = _float(self.length, "finite geometry length")
        if not 0.0 < length < np.inf:
            raise ShapeMismatchError("finite geometry needs a finite length > 0")
        rho = _as_complex_matrix(self.boundary_rho, "boundary_rho")
        s, shrink = _shrunk(rho)
        trace = np.trace(s)
        if abs(trace.real - shrink) > 1e-12 * shrink or abs(trace.imag) > 1e-12 * shrink:
            raise InvalidBoundaryStateError("boundary_rho must have trace 1")
        if np.linalg.eigvalsh((s + s.conj().T) / 2).min() < -1e-12 * shrink:
            raise InvalidBoundaryStateError("boundary_rho must be positive semidefinite")
        object.__setattr__(self, "boundary_rho", _frozen(rho))
        object.__setattr__(self, "length", length)


Geometry = Thermodynamic | Finite


@dataclass(frozen=True)
class CmpsParams:
    """Validated (dim, K, R, geometry, tol) bundle.  Arrays are read-only.

    `generator` is the boundary generator of (K, R), the `Superoperator`
    of `liouville.GENERATOR`, built on first use and shared, with its
    matrix `hmat` and its term norm, by every exact reader: the fixed
    point, the correlator chains of both geometries and the transfer
    defect of `discretize`.  `stationary` is the unique fixed point of the
    generator (`liouville.steady_state`: one LU factorization of the
    bordered generator, no eigenvalues), computed once per parameter set on
    first use and then shared by every consumer, with the generator it was
    certified on.  Its eigenvalues ride on the same object and are computed
    only where they are read (`steady`, `gap`); the generator's eigenmodes
    (`Superoperator.modes`) are computed once where a separation scan,
    `spectral_envelope` or `decay_fit` reads them.  The fixed point is
    certified against the set's own `tol`, whose thresholds are relative
    to the generator's term norm 2 ||Q||_1 + ||R||_1^2, and the gap and
    the fixed point's mode are told from the rest by its `zero_real`.  The
    eigenmodes are not: `liouville.eigenmodes` certifies them against the
    class default `Tolerances.residual` and `liouville.EIG_COND_LIMIT`, so
    neither a set's `tol` nor the CLI's `--tolerance-overrides` reach them.
    """

    dim: int
    K: np.ndarray
    R: np.ndarray
    geometry: Geometry = field(default_factory=Thermodynamic)
    tol: Tolerances = Tolerances()

    @cached_property
    def generator(self):
        return build_liouvillian(self.K, self.R)

    @cached_property
    def stationary(self):
        """SpectralData of the generator; raises when the fixed space is degenerate."""
        return steady_state(self.generator, self.tol)


def new_cmps(dim, K, R, geometry=None, tol=Tolerances()):
    """Validate and freeze a parameter set.

    tol is bound to the set: K, and boundary_rho in a finite window, must
    be Hermitian to within tol.herm relative to their largest entry, and
    `stationary` is certified against it.  Symmetrize explicitly
    ((K + K^dag)/2) if an input is only approximately Hermitian.  For
    finite geometry the boundary state must be a density matrix
    (Hermitian, PSD, trace 1) of matching dimension.
    """
    dim = _integer(dim, "dim")
    if dim < 1:
        raise ShapeMismatchError("dim must be >= 1")
    K = _as_complex_matrix(K, "K")
    R = _as_complex_matrix(R, "R")
    if K.shape != (dim, dim) or R.shape != (dim, dim):
        raise ShapeMismatchError(
            f"K and R must be {dim} x {dim}, got {K.shape} and {R.shape}"
        )
    if not _is_hermitian(K, tol.herm):
        raise NonHermitianKError(f"K must be Hermitian within {tol.herm} (relative)")
    if geometry is None:
        geometry = Thermodynamic()
    if isinstance(geometry, Finite):
        if geometry.boundary_rho.shape != (dim, dim):
            raise ShapeMismatchError("boundary_rho dimension does not match dim")
        if not _is_hermitian(geometry.boundary_rho, tol.herm):
            raise InvalidBoundaryStateError("boundary_rho is not Hermitian")
    if not isinstance(geometry, (Thermodynamic, Finite)):
        raise ShapeMismatchError(f"unknown geometry {geometry!r}")
    return CmpsParams(dim=dim, K=_frozen(K), R=_frozen(R), geometry=geometry, tol=tol)
