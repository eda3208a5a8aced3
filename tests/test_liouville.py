import numpy as np
import pytest
import scipy.linalg

from cmps_lab import (
    annihilate,
    build_liouvillian,
    choi_matrix,
    choi_min_eigenvalue,
    create,
    density,
    deriv_annihilate,
    deriv_create,
    devectorize,
    family_derivative,
    new_cmps,
    require_unique_fixed_space,
    steady_state,
    trace_functional,
    vectorize,
)
from cmps_lab.errors import DegenerateFixedSpaceError, ShapeMismatchError
from cmps_lab.liouville import GENERATOR, fields, superop

from conftest import DAMP_K, DAMP_R, RF_K, RF_R, rand_herm, rand_mat


def test_vectorize_roundtrip():
    rng = np.random.default_rng(1)
    m = rand_mat(4, rng)
    assert np.array_equal(devectorize(vectorize(m)), m)
    # row-stacking: vec Amat B = (A kron B^T) vec(mat)
    a, b = rand_mat(4, rng), rand_mat(4, rng)
    lhs = vectorize(a @ m @ b)
    rhs = np.kron(a, b.T) @ vectorize(m)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_trace_functional_is_left_null_vector():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        L = build_liouvillian(rand_herm(d, rng), rand_mat(d, rng)).mat
        assert np.abs(trace_functional(d) @ L).max() < 1e-12 * max(1.0, np.abs(L).max())


def test_liouvillian_matches_dense_action():
    # L vec(rho) must equal vec of the master-equation right-hand side
    rng = np.random.default_rng(7)
    d = 3
    K, R = rand_herm(d, rng), rand_mat(d, rng)
    L = build_liouvillian(K, R).mat
    rho = rand_mat(d, rng)
    rhs = (
        -1j * (K @ rho - rho @ K)
        + R @ rho @ R.conj().T
        - 0.5 * (R.conj().T @ R @ rho + rho @ R.conj().T @ R)
    )
    assert np.abs(devectorize(L @ vectorize(rho)) - rhs).max() < 1e-12


def test_build_liouvillian_validates_shapes():
    with pytest.raises(ShapeMismatchError):
        build_liouvillian(np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("s", [1e-10, 1e-6, 1.0, 1e6])
def test_fixed_point_does_not_depend_on_the_length_unit(s):
    # K -> s K, R -> sqrt(s) R is a change of length unit: L -> s L, every
    # rate scales by s and the stationary state stays put
    ref = require_unique_fixed_space(steady_state(build_liouvillian(RF_K, RF_R)))
    p = new_cmps(2, s * RF_K, np.sqrt(s) * RF_R)
    spec = require_unique_fixed_space(steady_state(build_liouvillian(p.K, p.R)))
    assert not spec.gapless
    assert spec.gap / s == pytest.approx(ref.gap, rel=1e-8)
    assert density(p) / s == pytest.approx(density(new_cmps(2, RF_K, RF_R)), rel=1e-8)
    assert np.abs(spec.steady_state - ref.steady_state).max() < 1e-8 * np.abs(ref.steady_state).max()

    # the derivative along the ray (s K, sqrt(s) R) of <create(0) annihilate(1/s)>
    def along_ray(q, scale):
        chain = [(0.0, create(q)), (1.0 / scale, annihilate(q))]
        return family_derivative(q, q.K, q.R, chain) / scale

    unit = new_cmps(2, RF_K, RF_R)
    assert along_ray(p, s) == pytest.approx(along_ray(unit, 1.0), rel=1e-10)


def test_rf_spectrum_and_steady_state():
    spec = steady_state(build_liouvillian(RF_K, RF_R))
    ev = np.sort_complex(spec.eigenvalues)
    osc = np.sqrt(15.0) / 4.0
    expected = np.sort_complex(
        np.array([0.0, -0.5, -0.75 + 1j * osc, -0.75 - 1j * osc])
    )
    assert np.abs(ev - expected).max() < 1e-10
    assert abs(spec.gap - 0.5) < 1e-12
    assert not spec.degenerate_fixed_space
    rho = spec.steady_state
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert abs(rho[0, 0] - 1.0 / 3.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-12


def test_damping_spectrum_and_dark_steady_state():
    spec = steady_state(build_liouvillian(DAMP_K, DAMP_R))
    ev = np.sort(spec.eigenvalues.real)
    assert np.abs(np.sort(ev) - np.array([-1.0, -0.5, -0.5, 0.0])).max() < 1e-12
    assert np.abs(spec.eigenvalues.imag).max() < 1e-12
    assert np.abs(spec.steady_state - np.diag([0.0, 1.0])).max() < 1e-12


def test_steady_state_random_instances_are_density_matrices():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(2, 6))
        L = build_liouvillian(rand_herm(d, rng), rand_mat(d, rng))
        spec = require_unique_fixed_space(steady_state(L))
        rho = spec.steady_state
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -1e-10
        assert np.abs(devectorize(L.mat @ vectorize(rho))).max() < 1e-9
        assert spec.gap > 0


def test_degenerate_fixed_space_detected():
    # no dissipation: every K-eigenprojector is stationary
    spec = steady_state(build_liouvillian(np.diag([1.0, 2.0]), np.zeros((2, 2))))
    assert spec.degenerate_fixed_space
    with pytest.raises(DegenerateFixedSpaceError):
        require_unique_fixed_space(spec)


def test_propagation_preserves_trace_and_positivity():
    rng = np.random.default_rng(4)
    d = 3
    L = build_liouvillian(rand_herm(d, rng), rand_mat(d, rng))
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    out = devectorize(scipy.linalg.expm(L.mat * 1.3) @ vectorize(rho))
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-12


def test_choi_positivity_random_channels():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        d = int(rng.integers(2, 6))
        L = build_liouvillian(rand_herm(d, rng), rand_mat(d, rng)).mat
        chan = scipy.linalg.expm(L * 0.1)
        c = choi_matrix(chan)
        assert np.abs(c - c.conj().T).max() < 1e-10
        assert choi_min_eigenvalue(chan) > -1e-9
        # trace-preserving channel: partial trace of Choi over the output
        # index gives the identity
        d2 = int(np.sqrt(c.shape[0]))
        pt = c.reshape(d2, d2, d2, d2).trace(axis1=0, axis2=2)
        assert np.abs(pt - np.eye(d2)).max() < 1e-10


def test_source_term_is_a_shift_of_q():
    # lam (R, 1) + conj(lam) (1, R) + mu (X, 1) + conj(mu) (1, X) is the
    # generator with Q -> Q + lam R + mu X
    rng = np.random.default_rng(17)
    d = 3
    p = new_cmps(d, rand_herm(d, rng), rand_mat(d, rng))
    lam, mu = 0.7 - 0.4j, -0.3 + 1.1j
    source = (lam * annihilate(p).superop + np.conj(lam) * create(p).superop
              + mu * deriv_annihilate(p).superop + np.conj(mu) * deriv_create(p).superop)
    want = build_liouvillian(p.K, p.R).mat + source
    f = fields(p.K, p.R)
    got = superop(GENERATOR, {**f, "Q": f["Q"] + lam * f["R"] + mu * f["X"]})
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()
