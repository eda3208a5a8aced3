import numpy as np
import pytest
import scipy.linalg

from cmps_lab import (
    FieldMoments,
    build_general_generator,
    build_liouvillian,
    compare_forms,
    jump_decomposition,
    trace_functional,
)
from cmps_lab.errors import (
    InvalidMomentsError,
    NoConvergenceError,
    ShapeMismatchError,
    ValidationError,
)
from conftest import RF_K, RF_R, choi_reference, kron_map, rand_herm, rand_mat


def _dissipator(m):
    """Plain-kron reference for D[M]: rho -> M rho M^dag - (1/2){M^dag M, rho}
    on row-stacked matrices, vec(a rho b) = (a kron b^T) vec(rho)."""
    eye = np.eye(m.shape[0])
    mdm = m.conj().T @ m
    return np.kron(m, m.conj()) - 0.5 * (np.kron(mdm, eye) + np.kron(eye, mdm.T))


def test_moment_validation():
    FieldMoments(0.0, 0.0, 0.0, 1.0)
    FieldMoments(0.1 + 0.2j, 0.1 - 0.2j, 0.5, 1.5)
    with pytest.raises(InvalidMomentsError):
        FieldMoments(0.1, 0.2, 0.5, 1.5)  # psi_sq != conj(psi_dag_sq)
    with pytest.raises(InvalidMomentsError):
        FieldMoments(0.0, 0.0, -0.2, 0.8)  # negative occupation
    with pytest.raises(InvalidMomentsError):
        FieldMoments(0.0, 0.0, 0.5, 1.2)  # commutator broken
    with pytest.raises(InvalidMomentsError):
        FieldMoments(2.0, 2.0, 0.5, 1.5)  # |<psi psi>| above the Gaussian bound
    with pytest.raises(InvalidMomentsError):
        FieldMoments.thermal(-0.1)
    assert FieldMoments.vacuum().psi_psi_dag == 1.0
    th = FieldMoments.thermal(0.7)
    assert th.psi_dag_psi == 0.7 and th.psi_psi_dag == 1.7


def test_vacuum_reduces_to_liouvillian():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        d = int(rng.integers(2, 7))
        K, R = rand_herm(d, rng), rand_mat(d, rng)
        gen = build_general_generator(K, R, FieldMoments.vacuum())
        assert np.array_equal(gen.hmat, build_liouvillian(K, R).hmat)


def test_thermal_generator_is_two_channel_dissipation():
    # occupation n: emission at rate n+1 through R, absorption at rate n
    # through R^dag, on top of the Hamiltonian part
    rng = np.random.default_rng(11)
    d = 3
    K, R = rand_herm(d, rng), rand_mat(d, rng)
    n = 0.6
    gen = build_general_generator(K, R, FieldMoments.thermal(n))
    eye = np.eye(d)
    manual = (
        -1j * np.kron(K, eye)
        + 1j * np.kron(eye, K.T)
        + (n + 1.0) * _dissipator(R)
        + n * _dissipator(R.conj().T)
    )
    assert np.abs(kron_map(gen.terms, gen.fields) - manual).max() < 1e-12


def test_anomalous_generator_matches_the_double_commutator_expansion():
    # -i[K, rho] + (1/2)(alpha [R, [R, rho]] + h.c.) + n D[R^dag] + (n + 1) D[R],
    # written out with plain krons
    rng = np.random.default_rng(15)
    d = 3
    K, R = rand_herm(d, rng), rand_mat(d, rng)
    alpha, n = 0.4 - 0.3j, 0.8
    eye = np.eye(d)

    def double_commutator(r):
        r2 = r @ r
        return np.kron(r2, eye) - 2.0 * np.kron(r, r.T) + np.kron(eye, r2.T)

    manual = (
        -1j * np.kron(K, eye)
        + 1j * np.kron(eye, K.T)
        + 0.5 * (alpha * double_commutator(R) + np.conj(alpha) * double_commutator(R.conj().T))
        + (n + 1.0) * _dissipator(R)
        + n * _dissipator(R.conj().T)
    )
    gen = build_general_generator(K, R, FieldMoments(alpha, np.conj(alpha), n, n + 1.0))
    assert np.abs(kron_map(gen.terms, gen.fields) - manual).max() < 1e-13 * np.abs(manual).max()


def test_generator_always_trace_preserving():
    rng = np.random.default_rng(12)
    for moments in (
        FieldMoments.vacuum(),
        FieldMoments.thermal(1.3),
        FieldMoments(0.4 + 0.1j, 0.4 - 0.1j, 0.8, 1.8),
    ):
        d = 3
        K, R = rand_herm(d, rng), rand_mat(d, rng)
        gen = build_general_generator(K, R, moments)
        assert np.abs(trace_functional(d).real @ gen.hmat).max() < 1e-12 * max(
            1.0, np.abs(gen.hmat).max()
        )


def test_generator_shape_validation():
    with pytest.raises(ShapeMismatchError):
        build_general_generator(np.zeros((2, 2)), np.zeros((3, 3)), FieldMoments.vacuum())


def test_compare_forms_diagonal_agreement():
    rng = np.random.default_rng(13)
    for nbar in (0.0, 0.5, 2.0):
        d = 3
        K, R = rand_herm(d, rng), rand_mat(d, rng)
        cmp = compare_forms(K, R, FieldMoments.thermal(nbar))
        assert cmp.max_difference < 1e-12
        assert cmp.trace_defect_general < 1e-12
        assert cmp.trace_defect_jump_form < 1e-12
        assert cmp.choi_min_general > -1e-9
        assert cmp.choi_min_jump_form > -1e-9


def test_compare_forms_anomalous_discrepancy_is_finite_and_reported():
    # squeezed moments: the jump-sum form cannot represent the
    # double-commutator part, so the discrepancy must be nonzero while both
    # forms stay trace preserving
    moments = FieldMoments(0.3, 0.3, 0.5, 1.5)
    cmp = compare_forms(RF_K, RF_R, moments)
    assert cmp.max_difference > 1e-3
    # the largest entry of the difference of the real Hermitian-basis
    # matrices; on flattened matrices the same difference peaks at 0.3
    assert cmp.max_difference == pytest.approx(0.6, rel=1e-12)
    assert np.isfinite(cmp.max_difference)
    assert cmp.trace_defect_general < 1e-12
    assert cmp.trace_defect_jump_form < 1e-12
    assert cmp.choi_min_general > -1e-9


def test_jump_decomposition_reproduces_diagonal_generator():
    rng = np.random.default_rng(14)
    d = 2
    K, R = rand_herm(d, rng), rand_mat(d, rng)
    js = jump_decomposition(K, R, FieldMoments.thermal(0.9))
    eye = np.eye(d)
    mat = -1j * np.kron(js.K, eye) + 1j * np.kron(eye, js.K.T)
    for m in js.operators:
        mat = mat + _dissipator(m)
    gen = build_general_generator(K, R, FieldMoments.thermal(0.9))
    assert np.abs(mat - kron_map(gen.terms, gen.fields)).max() < 1e-12


def test_moments_accepted_as_tuple():
    gen_a = build_general_generator(RF_K, RF_R, (0.0, 0.0, 0.5, 1.5))
    gen_b = build_general_generator(RF_K, RF_R, FieldMoments.thermal(0.5))
    assert np.array_equal(gen_a.hmat, gen_b.hmat)


@pytest.mark.parametrize("seed", range(6))
def test_compare_forms_choi_minima_match_the_complex_exponential(seed):
    # compare_forms exponentiates the real Hermitian-basis generators; the
    # complex row-stacked expm of the plain-kron forms must give the same
    # Choi minima.  Over 300 random draws (D = 1-6, anomalous moments,
    # dx 0.01-0.5) the two agreed to 1.8e-15 of max(1, ||G dx||_1).
    rng = np.random.default_rng(320 + seed)
    d = 1 + seed
    K, R = rand_herm(d, rng), rand_mat(d, rng)
    n = 0.7
    alpha = 0.9 * np.sqrt(n * (n + 1.0)) * np.exp(2j * np.pi * rng.uniform())
    moments = FieldMoments(alpha, np.conj(alpha), n, n + 1.0)
    dx = 0.1
    cmp = compare_forms(K, R, moments, dx=dx)
    jumps = jump_decomposition(K, R, moments)
    eye = np.eye(d)
    jump_form = -1j * np.kron(K, eye) + 1j * np.kron(eye, K.T)
    for m in jumps.operators:
        jump_form = jump_form + _dissipator(m)
    gen = build_general_generator(K, R, moments)
    for got, mat in ((cmp.choi_min_general, kron_map(gen.terms, gen.fields)),
                     (cmp.choi_min_jump_form, jump_form)):
        c = choi_reference(scipy.linalg.expm(mat * dx))
        want = np.linalg.eigvalsh((c + c.conj().T) / 2).min()
        scale = max(1.0, np.abs(mat).sum(axis=0).max() * dx)
        assert abs(got - want) <= 1e-14 * scale


@pytest.mark.parametrize("dx", [-1.0, 0.0, float("nan"), float("inf")])
def test_compare_forms_rejects_a_step_that_is_not_finite_and_positive(dx):
    # exp(G dx) is a channel only forward in x: a negative dx reported a
    # negative Choi eigenvalue as if it were a finding
    with pytest.raises(ValidationError, match=f"dx must be (finite|positive), got {dx}"):
        compare_forms(RF_K, RF_R, FieldMoments(0.2, 0.2, 0.5, 1.5), dx=dx)


def test_compare_forms_refuses_a_non_finite_exponential(capfd):
    # exp(G dx) at K = 1e50 sigma_x / 2 is nan, and the Choi eigensolve
    # raised a bare LinAlgError on it
    k = 0.5e50 * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NoConvergenceError, match="exponential at step 0.1 is not finite"):
        compare_forms(k, RF_R, FieldMoments(0.0, 0.0, 0.0, 1.0))
    assert capfd.readouterr() == ("", "")
