"""Dissipative generator for a general Gaussian input field.

The input field is specified by its per-meter second moments
(psi_dag_sq, psi_sq, psi_dag_psi, psi_psi_dag) = (<a^dag a^dag>, <a a>,
<a^dag a>, <a a^dag>), dimensionless, with psi_sq = conj(psi_dag_sq) and
psi_psi_dag = psi_dag_psi + 1 (canonical commutator).  Vacuum is
(0, 0, 0, 1).

Expanding the meter interaction to second order gives, in addition to the
Hamiltonian part -i[K, rho]:

    (1/2) (psi_dag_sq [R, [R, rho]] + h.c.)          anomalous part
    + psi_dag_psi  D[R^dag](rho)                      upward jumps
    + psi_psi_dag  D[R](rho)                          downward jumps

with D[M](rho) = M rho M^dag - (1/2){M^dag M, rho}.  At vacuum this reduces
entrywise to the generator of `build_liouvillian`, and
for thermal moments (0, 0, nbar, nbar + 1) it is the familiar two-sided
damping generator.  The whole expression is trace preserving for every
admissible moment set, anomalous or not.

A flat list of jump operators

    M1 = i a R - b R^dag,  M2 = i a R + b R^dag,  M3 = c R^dag,  M4 = d R
    a = sqrt(psi_dag_sq / 2), b = sqrt(psi_sq / 2),
    c = sqrt(psi_dag_psi),    d = sqrt(psi_psi_dag)     (principal roots)

reproduces the diagonal-moment part exactly, but the cross terms of M1 and
M2 cancel pairwise, so sum_j D[M_j] cannot represent the anomalous
double-commutator part.  `compare_forms` therefore measures the discrepancy
instead of asserting it away; it vanishes (to roundoff) iff psi_dag_sq = 0.

Both generators here have the shape of the exact calculus's:
G rho + rho G^dag + sum a rho b^dag, written as a field table
(G, 1), (1, G), (a_j, b_j) and held as a `liouville.Superoperator`.  For
the moment generator (n = psi_dag_psi, alpha = psi_dag_sq)

    G = -i K - (1/2)(n + 1) R^dag R - (1/2) n R R^dag
        + (1/2)(alpha R^2 + conj(alpha) R^dag^2),
    pairs (sqrt(n + 1) R, sqrt(n + 1) R), (sqrt(n) R^dag, sqrt(n) R^dag),
          (-alpha R, R^dag), (-conj(alpha) R^dag, R);

the jump-sum form has G_J = -i K - (1/2) sum_j M_j^dag M_j and the pairs
(M_j, M_j).

Both generators map Hermitian matrices to Hermitian matrices, and
`compare_forms` reads both on their one dense form, the real matrix
`Superoperator.hmat`: the matrix difference, the trace defects, and the
Choi test (`liouville.choi_min_eigenvalue`) of each exp(G dx).
"""

from dataclasses import dataclass

import numpy as np

from .discretizer import _lattice_step
from .errors import InvalidMomentsError, ShapeMismatchError
from .liouville import (
    Superoperator,
    Tolerances,
    choi_min_eigenvalue,
    exponential,
    trace_functional,
)


@dataclass(frozen=True)
class FieldMoments:
    """Validated second moments of the input field (per meter), checked
    to within tol.moment."""

    psi_dag_sq: complex
    psi_sq: complex
    psi_dag_psi: float
    psi_psi_dag: float
    tol: Tolerances = Tolerances()

    def __post_init__(self):
        a = complex(self.psi_dag_sq)
        b = complex(self.psi_sq)
        n = complex(self.psi_dag_psi)
        nt = complex(self.psi_psi_dag)
        scale = 1.0 + max(abs(a), abs(n))
        if abs(b - a.conjugate()) > self.tol.moment * scale:
            raise InvalidMomentsError("psi_sq must equal conj(psi_dag_sq)")
        if abs(n.imag) > self.tol.moment * scale or n.real < -self.tol.moment:
            raise InvalidMomentsError("psi_dag_psi must be real and nonnegative")
        if abs(nt - n - 1.0) > self.tol.moment * scale:
            raise InvalidMomentsError("psi_psi_dag must equal psi_dag_psi + 1")
        # Gaussian admissibility: |<a a>|^2 <= <a^dag a> <a a^dag>
        if abs(a) ** 2 > n.real * (n.real + 1.0) + self.tol.moment * scale:
            raise InvalidMomentsError(
                "anomalous moment too large: |psi_dag_sq|^2 must not exceed "
                "psi_dag_psi * psi_psi_dag"
            )
        occ = max(0.0, float(n.real))
        object.__setattr__(self, "psi_dag_sq", a)
        object.__setattr__(self, "psi_sq", a.conjugate())
        object.__setattr__(self, "psi_dag_psi", occ)
        object.__setattr__(self, "psi_psi_dag", occ + 1.0)

    @classmethod
    def vacuum(cls):
        return cls(0.0, 0.0, 0.0, 1.0)

    @classmethod
    def thermal(cls, nbar):
        if nbar < 0:
            raise InvalidMomentsError("thermal occupation must be >= 0")
        return cls(0.0, 0.0, float(nbar), float(nbar) + 1.0)


@dataclass(frozen=True)
class JumpSet:
    """Jump operators of the flat decomposition plus the Hamiltonian part."""

    operators: tuple
    K: np.ndarray


def _dissipative_form(g, pairs):
    """The `Superoperator` of rho -> G rho + rho G^dag + sum over (a, b) in
    pairs of a rho b^dag, as one field table."""
    f = {"1": np.eye(g.shape[0]), "G": g}
    terms = [("G", "1"), ("1", "G")]
    for j, (a, b) in enumerate(pairs):
        f[f"a{j}"], f[f"b{j}"] = a, b
        terms.append((f"a{j}", f"b{j}"))
    return Superoperator(tuple(terms), f)


def build_general_generator(K, R, moments):
    """The generator for the given field moments, a `Superoperator`.

    The field table of the module docstring.  Equals
    `build_liouvillian(K, R)` entrywise at vacuum moments and is trace
    preserving for every admissible moment set.
    """
    if not isinstance(moments, FieldMoments):
        moments = FieldMoments(*moments)
    K = np.asarray(K, dtype=complex)
    R = np.asarray(R, dtype=complex)
    if K.shape != R.shape or K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ShapeMismatchError(f"K and R must be square and equal-shaped, got {K.shape}, {R.shape}")
    alpha, n = moments.psi_dag_sq, moments.psi_dag_psi
    rd = R.conj().T
    g = (-1j * K - 0.5 * moments.psi_psi_dag * (rd @ R) - 0.5 * n * (R @ rd)
         + 0.5 * (alpha * (R @ R) + np.conj(alpha) * (rd @ rd)))
    up, down = np.sqrt(n), np.sqrt(moments.psi_psi_dag)
    return _dissipative_form(g, [(down * R, down * R), (up * rd, up * rd),
                                 (-alpha * R, rd), (-np.conj(alpha) * rd, R)])


def jump_decomposition(K, R, moments):
    """Flat jump-operator list (principal square roots of the moments).

    Diagnostic companion to `build_general_generator`: the sum of standard
    dissipators over these operators matches the generator exactly only for
    diagonal moments (psi_dag_sq = 0); see `compare_forms`.
    """
    if not isinstance(moments, FieldMoments):
        moments = FieldMoments(*moments)
    R = np.asarray(R, dtype=complex)
    K = np.asarray(K, dtype=complex)
    a = np.sqrt(complex(moments.psi_dag_sq) / 2.0)
    b = np.sqrt(complex(moments.psi_sq) / 2.0)
    c = np.sqrt(complex(moments.psi_dag_psi))
    dd = np.sqrt(complex(moments.psi_psi_dag))
    rd = R.conj().T
    ops = (
        1j * a * R - b * rd,
        1j * a * R + b * rd,
        c * rd,
        dd * R,
    )
    return JumpSet(operators=ops, K=K)


@dataclass(frozen=True)
class FormComparison:
    """Diagnostics from comparing the two generator constructions, read on
    their real matrices hmat: max_difference is the largest entry of
    |hmat_general - hmat_jump_form| (a basis-dependent figure: 0.6 on the
    anomalous driven emitter, where the flattened matrices differ by 0.3),
    the trace defects the largest of |<1| hmat|, the Choi minima those of
    exp(G dx)."""

    max_difference: float
    trace_defect_general: float
    trace_defect_jump_form: float
    choi_min_general: float
    choi_min_jump_form: float


def compare_forms(K, R, moments, dx=0.1):
    """Measure the gap between the moment generator and the jump-sum form.

    Returns max-norm matrix difference, trace defects of both forms, and
    the minimum Choi eigenvalue of exp(G dx) for both.  Nothing is
    asserted here; callers decide what counts as agreement (diagonal
    moments should give max_difference at roundoff, anomalous moments a
    finite discrepancy).  A dx that is not finite and positive is refused.
    """
    dx = _lattice_step(dx, "dx")
    gen = build_general_generator(K, R, moments)
    jumps = jump_decomposition(K, R, moments)
    g = -1j * jumps.K - 0.5 * sum(m.conj().T @ m for m in jumps.operators)
    jform = _dissipative_form(g, [(m, m) for m in jumps.operators])
    one = trace_functional(gen.dim).real
    return FormComparison(
        max_difference=float(np.abs(gen.hmat - jform.hmat).max()),
        trace_defect_general=float(np.abs(one @ gen.hmat).max()),
        trace_defect_jump_form=float(np.abs(one @ jform.hmat).max()),
        choi_min_general=choi_min_eigenvalue(exponential(gen, dx)),
        choi_min_jump_form=choi_min_eigenvalue(exponential(jform, dx)),
    )
