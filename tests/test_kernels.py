"""The sampler's batch kernels: a trajectory must not depend on the rows
that share its batch, a sum over D runs term by term in index order however
the batch lies in memory, and a large bond dimension samples like a small
one.
"""

import numpy as np
import pytest

from cmps_lab import Finite, new_cmps, sample_ensemble, sample_trajectory
from cmps_lab.trajectories import _sum_d

from conftest import EP_K, EXCITED, RF_K, RF_R, rand_herm, rand_mat


def _random_pair(d, r_scale, rng):
    """A random instance of bond dimension d in the thermodynamic geometry
    and in a finite window on a random boundary state."""
    k, r, b = rand_herm(d, rng), r_scale * rand_mat(d, rng), rand_mat(d, rng)
    rho = b @ b.conj().T / np.trace(b @ b.conj().T).real
    return new_cmps(d, k, r), new_cmps(d, k, r, Finite(length=5.0, boundary_rho=rho))


def test_single_trajectory_matches_ensemble_member(rf):
    # the thermodynamic emitter, the emitter in a finite window, the
    # exceptional point, whose survival comes from expm, random D = 1
    # instances, where a lone row's every product is one element long,
    # and a random D = 8 instance, where the sums over D are long enough
    # for their order to matter, each in both geometries.  A member of a
    # batch of 1, 7 or 33 records, starting at index 0 or elsewhere, is bit
    # for bit the trajectory sampled alone; the solver's start table
    # depends on the model and the record length alone
    rng = np.random.default_rng(8)
    window = Finite(length=5.0, boundary_rho=EXCITED)
    randoms = [p for d, r_scale in ((8, 0.3), (1, 1.0), (1, 1.0), (1, 1.0))
               for p in _random_pair(d, r_scale, rng)]
    for p in [rf, new_cmps(2, RF_K, RF_R, window), new_cmps(2, EP_K, RF_R, window), *randoms]:
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


@pytest.mark.parametrize("d", [1, 7, 8, 130])
@pytest.mark.parametrize("rows", [1, 2, 33])
@pytest.mark.parametrize("order", ["C", "F"])
def test_sums_over_d_run_in_index_order(d, rows, order):
    # NumPy sums pairwise along the fast axis in memory, which from 8 terms
    # on is not the index order; a lone row or a column-major batch would
    # make D that axis
    rng = np.random.default_rng([d, rows])
    terms = rng.normal(size=(2, d, rows)) * 10.0 ** rng.integers(-8, 9, size=(2, d, rows))
    terms = np.asarray(terms, order=order)
    expected = terms[:, 0, :].copy()
    for i in range(1, d):
        expected = expected + terms[:, i, :]
    assert np.array_equal(_sum_d(terms), expected)
    assert np.array_equal(_sum_d(terms[1]), expected[1])


def test_large_dimension_routes_to_numpy_path():
    # a bond dimension of 70, with nothing to emit
    d = 70
    rho = np.zeros((d, d))
    rho[0, 0] = 1.0
    p = new_cmps(d, np.zeros((d, d)), np.zeros((d, d)),
                 Finite(length=0.5, boundary_rho=rho))
    recs = sample_ensemble(p, n_traj=2, length=0.5, master_seed=1)
    assert all(r.positions.size == 0 for r in recs)
    assert all(abs(np.linalg.norm(r.final_state) - 1.0) < 1e-9 for r in recs)
