"""Sampler cases that outlived the fixed-step kernels this module once tested.

They keep their original test ids: a trajectory must not depend on the rows
that share its batch, and a large bond dimension must sample like a small one.
"""

import numpy as np

from cmps_lab import Finite, new_cmps, sample_ensemble, sample_trajectory


def test_single_trajectory_matches_ensemble_member(rf):
    recs = sample_ensemble(rf, n_traj=3, length=5.0, master_seed=123)
    solo = sample_trajectory(rf, length=5.0, master_seed=123, index=2)
    assert np.array_equal(solo.positions, recs[2].positions)
    assert np.array_equal(solo.final_state, recs[2].final_state)
    assert solo.seed_info == (123, 2)


def test_large_dimension_routes_to_numpy_path():
    # a bond dimension above the old compiled kernel's 64-wide work buffer,
    # with nothing to emit
    d = 70
    rho = np.zeros((d, d))
    rho[0, 0] = 1.0
    p = new_cmps(d, np.zeros((d, d)), np.zeros((d, d)),
                 Finite(length=0.5, boundary_rho=rho))
    recs = sample_ensemble(p, n_traj=2, length=0.5, master_seed=1)
    assert all(r.positions.size == 0 for r in recs)
    assert all(abs(np.linalg.norm(r.final_state) - 1.0) < 1e-9 for r in recs)
