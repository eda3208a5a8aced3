"""Field states with finite-dimensional boundary dynamics.

Observables of the field are computed three independent ways: exactly
through the spectral calculus of the boundary generator, through a
lattice discretization with a controlled continuum limit, and through
Monte Carlo sampling of the jump record the state induces on a detector.
The package exists to compute each and to check them against each other.
"""

__version__ = "0.1.0"

from .core import CmpsParams, Finite, Thermodynamic, new_cmps
from .liouville import (
    SpectralData,
    Superoperator,
    Tolerances,
    build_liouvillian,
    choi_matrix,
    choi_min_eigenvalue,
    devectorize,
    steady_state,
    trace_functional,
    vectorize,
)
from .correlators import (
    CorrelatorResult,
    DecayFit,
    SourceField,
    decay_fit,
    density,
    expectation,
    family_derivative,
    generating_functional,
    kinetic_density,
    lieb_liniger_energy_density,
    pair_correlation,
    source_consistency_check,
    spectral_envelope,
    two_point,
)
from .lindblad import (
    FieldMoments,
    FormComparison,
    JumpSet,
    build_general_generator,
    compare_forms,
    jump_decomposition,
)
from .discretizer import (
    ConvergenceStudy,
    LatticeTensors,
    convergence_study,
    lattice_correlators,
    lattice_tensors,
    transfer_matrix,
)
from .trajectories import (
    JumpRecord,
    TrajectoryStats,
    estimate_stats,
    no_jump_survival,
    sample_ensemble,
    sample_trajectory,
    waiting_bin_probs,
    waiting_time_analytic,
)
from . import errors
