"""Sampler cases that outlived the fixed-step kernels this module once tested.

They keep their original test ids: a trajectory must not depend on the rows
that share its batch, and a large bond dimension must sample like a small one.
"""

import numpy as np

from cmps_lab import Finite, new_cmps, sample_ensemble, sample_trajectory

from conftest import EP_K, EXCITED, RF_K, RF_R, rand_herm, rand_mat


def test_single_trajectory_matches_ensemble_member(rf):
    # the thermodynamic emitter, the emitter in a finite window, the
    # exceptional point, whose survival comes from expm, and a random D = 8
    # instance in both geometries, where the sums over D are long enough
    # for their order to matter.  A member of a batch of 1, 7 or 33
    # records, starting at index 0 or elsewhere, is bit for bit the
    # trajectory sampled alone; the solver's start table depends on the
    # model and the record length alone
    rng = np.random.default_rng(8)
    k8, r8, b8 = rand_herm(8, rng), 0.3 * rand_mat(8, rng), rand_mat(8, rng)
    rho8 = b8 @ b8.conj().T / np.trace(b8 @ b8.conj().T).real
    window = Finite(length=5.0, boundary_rho=EXCITED)
    for p in (rf, new_cmps(2, RF_K, RF_R, window), new_cmps(2, EP_K, RF_R, window),
              new_cmps(8, k8, r8), new_cmps(8, k8, r8, Finite(length=5.0, boundary_rho=rho8))):
        solo = [sample_trajectory(p, length=5.0, master_seed=123, index=i) for i in range(33)]
        assert [rec.seed_info for rec in solo] == [(123, i) for i in range(33)]
        assert sum(rec.positions.size for rec in solo) >= 33
        for n_traj, first in ((1, 2), (7, 0), (7, 26), (33, 0)):
            batch = sample_ensemble(p, n_traj=n_traj, length=5.0, master_seed=123,
                                    first_index=first)
            for rec, alone in zip(batch, solo[first:first + n_traj], strict=True):
                assert rec.seed_info == alone.seed_info
                assert np.array_equal(rec.positions, alone.positions)
                assert np.array_equal(rec.final_state, alone.final_state)


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
