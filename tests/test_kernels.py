"""Sampler cases that outlived the fixed-step kernels this module once tested.

They keep their original test ids: a trajectory must not depend on the rows
that share its batch, and a large bond dimension must sample like a small one.
"""

import numpy as np

from cmps_lab import Finite, new_cmps, sample_ensemble, sample_trajectory

from conftest import EP_K, EXCITED, RF_K, RF_R


def test_single_trajectory_matches_ensemble_member(rf):
    # the thermodynamic emitter, the emitter in a finite window, and the
    # exceptional point, whose survival comes from expm; the solver's start
    # table depends on the model and the record length alone
    window = Finite(length=5.0, boundary_rho=EXCITED)
    for p in (rf, new_cmps(2, RF_K, RF_R, window), new_cmps(2, EP_K, RF_R, window)):
        recs = sample_ensemble(p, n_traj=3, length=5.0, master_seed=123)
        solo = sample_trajectory(p, length=5.0, master_seed=123, index=2)
        assert np.array_equal(solo.positions, recs[2].positions)
        assert np.array_equal(solo.final_state, recs[2].final_state)
        assert solo.seed_info == (123, 2)
        assert solo.positions.size
        # a member deep in a larger batch that starts elsewhere
        wide = sample_ensemble(p, n_traj=40, length=5.0, master_seed=123, first_index=1)
        assert np.array_equal(wide[1].positions, recs[2].positions)
        assert np.array_equal(wide[1].final_state, recs[2].final_state)


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
