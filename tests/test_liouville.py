import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from cmps_lab import (
    build_liouvillian,
    choi_min_eigenvalue,
    density,
    family_derivative,
    kinetic_density,
    new_cmps,
    pair_correlation,
    sample_ensemble,
    steady_state,
    trace_functional,
    two_point,
)
from cmps_lab.errors import (
    DegenerateFixedSpaceError,
    NoConvergenceError,
    ShapeMismatchError,
    ZeroDensityError,
)
from cmps_lab.correlators import INSERTIONS, _Chain
from cmps_lab.liouville import (
    EXPONENT_LIMIT,
    GENERATOR,
    Superoperator,
    Tolerances,
    _columns,
    action,
    action_adjoint,
    bordered_lu,
    exponent,
    exponential,
    exponential_frechet,
    fields,
    fields_tangent,
    hermitian_basis,
    sourced_generator,
    tangent_terms,
)

from conftest import (
    DAMP_K,
    DAMP_R,
    RF_K,
    RF_R,
    basis_unitary,
    choi_reference,
    coupled_blocks,
    hmat_reference,
    kron_map,
    rand_herm,
    rand_mat,
    unvec,
    vec,
)


def test_trace_functional_is_left_null_vector():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        L = build_liouvillian(rand_herm(d, rng), rand_mat(d, rng)).hmat
        assert np.abs(trace_functional(d).real @ L).max() < 1e-12 * max(1.0, np.abs(L).max())


def test_liouvillian_matches_dense_action():
    # L rho must equal the master-equation right-hand side, in coordinates
    # and in the row-stacked reference the other tests compare against
    rng = np.random.default_rng(7)
    d = 3
    K, R = rand_herm(d, rng), rand_mat(d, rng)
    lv = build_liouvillian(K, R)
    basis = hermitian_basis(d)
    rho = rand_mat(d, rng)
    rhs = (
        -1j * (K @ rho - rho @ K)
        + R @ rho @ R.conj().T
        - 0.5 * (R.conj().T @ R @ rho + rho @ R.conj().T @ R)
    )
    assert np.abs(basis.matrices(lv.hmat @ basis.coordinates(rho))[0] - rhs).max() < 1e-12
    assert np.abs(unvec(kron_map(lv.terms, lv.fields) @ vec(rho)) - rhs).max() < 1e-12


def test_build_liouvillian_validates_shapes():
    with pytest.raises(ShapeMismatchError):
        build_liouvillian(np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("s", [1e-10, 1e-6, 1.0, 1e6])
def test_fixed_point_does_not_depend_on_the_length_unit(s):
    # K -> s K, R -> sqrt(s) R is a change of length unit: L -> s L, every
    # rate scales by s and the stationary state stays put
    ref = steady_state(build_liouvillian(RF_K, RF_R))
    p = new_cmps(2, s * RF_K, np.sqrt(s) * RF_R)
    spec = steady_state(build_liouvillian(p.K, p.R))
    assert not spec.gapless
    assert spec.gap / s == pytest.approx(ref.gap, rel=1e-8)
    assert density(p) / s == pytest.approx(density(new_cmps(2, RF_K, RF_R)), rel=1e-8)
    assert np.abs(spec.steady_state - ref.steady_state).max() < 1e-8 * np.abs(ref.steady_state).max()

    # the derivative along the ray (s K, sqrt(s) R) of <create(0) annihilate(1/s)>
    def along_ray(q, scale):
        chain = [(0.0, "create"), (1.0 / scale, "annihilate")]
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
        spec = steady_state(L)
        rho = spec.steady_state
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -1e-10
        assert np.abs(unvec(kron_map(L.terms, L.fields) @ vec(rho))).max() < 1e-9
        assert spec.gap > 0


def test_degenerate_fixed_space_detected(monkeypatch):
    # no dissipation: every K-eigenprojector is stationary.  The bordered
    # factorization decides it, before any fixed-point solve
    def no_solve(*args):
        raise AssertionError("solved for a fixed point of a degenerate generator")

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrs", no_solve)
    with pytest.raises(DegenerateFixedSpaceError):
        steady_state(build_liouvillian(np.diag([1.0, 2.0]), np.zeros((2, 2))))


def test_exactly_singular_bordered_generator_raises_without_warning():
    # K = diag(1, 2), R = 0: eigenvalues 0, 0 (the populations) and -+ i (the
    # coherence), so the bordered generator is exactly singular
    k, r = np.diag([1.0, 2.0]), np.zeros((2, 2))
    lv = build_liouvillian(k, r)
    ev = np.sort_complex(np.linalg.eigvals(lv.hmat))
    np.testing.assert_allclose(ev, [-1j, 0.0, 0.0, 1j], atol=1e-15)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateFixedSpaceError, match="singular"):
            steady_state(lv)
        with pytest.raises(DegenerateFixedSpaceError):
            kinetic_density(new_cmps(2, k, r))
    assert caught == []


BLOCK_COUPLINGS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 0.0]


def _bulk_refuses(k, r):
    try:
        kinetic_density(new_cmps(k.shape[0], k, r))
    except DegenerateFixedSpaceError:
        return True
    return False


def _count_refuses(k, r):
    lv = build_liouvillian(k, r)
    near_zero = np.abs(np.linalg.eigvals(lv.hmat).real) <= Tolerances().zero_real * lv.scale
    return int(near_zero.sum()) > 1


@pytest.mark.parametrize("coupling", ["K", "R"])
def test_bordered_certificate_agrees_with_the_eigenvalue_count(coupling):
    # two dissipative blocks whose coupling t lifts the second zero
    # eigenvalue by ~t^2: the bulk path refuses from t = 1e-5 down, as the
    # eigenvalue count does.  The condition estimate bounds 1/|lambda_2|
    # from above, by 6-9x on these blocks, so between t = 1e-5 and 1e-4
    # (at 3e-5) it refuses a fixed point that the count still passes
    decisions = []
    for t in BLOCK_COUPLINGS:
        k, r = coupled_blocks(t, coupling)
        bulk = _bulk_refuses(k, r)
        assert bulk == _count_refuses(k, r), t
        decisions.append(bulk)
    assert decisions == [t <= 1e-5 for t in BLOCK_COUPLINGS]


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e6])
def test_fixed_space_decision_holds_in_every_length_unit(s):
    cases = [(RF_K, RF_R, False), (np.diag([1.0, 2.0]), np.zeros((2, 2)), True)]
    cases += [(*coupled_blocks(t), t <= 1e-5) for t in BLOCK_COUPLINGS]
    for k, r, refused in cases:
        assert _bulk_refuses(s * k, np.sqrt(s) * r) == refused


def _zero_mode_reference(lv):
    """Eigenvector of the eigenvalue closest to zero, Hermitized and trace-normalized."""
    evals, evecs = np.linalg.eig(kron_map(lv.terms, lv.fields))
    rho = unvec(evecs[:, np.argmin(np.abs(evals))])
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def test_bordered_fixed_point_matches_zero_mode_eigenvector():
    instances = [build_liouvillian(DAMP_K, DAMP_R)]  # dark state diag(0, 1)
    for seed in range(12):
        rng = np.random.default_rng(300 + seed)
        d = int(rng.integers(2, 7))
        instances.append(build_liouvillian(rand_herm(d, rng), rand_mat(d, rng)))
    assert {lv.dim for lv in instances[1:]} == {2, 3, 4, 5, 6}
    for lv in instances:
        rho = steady_state(lv).steady_state
        assert np.abs(rho - _zero_mode_reference(lv)).max() < 1e-12


def test_residual_certificate_fires():
    lv = build_liouvillian(RF_K, RF_R)
    with pytest.raises(NoConvergenceError, match="fixed-point residual"):
        steady_state(lv, Tolerances(residual=1e-30))
    p = new_cmps(2, RF_K, RF_R, tol=Tolerances(residual=1e-30))
    with pytest.raises(NoConvergenceError):
        p.stationary


def test_non_finite_generator_is_not_certified():
    k = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NoConvergenceError, match="non-finite"):
        steady_state(build_liouvillian(k, np.eye(2)))


def test_propagation_preserves_trace_and_positivity():
    rng = np.random.default_rng(4)
    d = 3
    L = build_liouvillian(rand_herm(d, rng), rand_mat(d, rng))
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    basis = hermitian_basis(d)
    out = basis.matrices(exponential(L, 1.3) @ basis.coordinates(rho))[0]
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-12


def test_choi_positivity_random_channels():
    # the Choi minimum read from the channel in coordinates is that of the
    # row-stacked reference channel's Choi matrix
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        d = int(rng.integers(2, 6))
        L = build_liouvillian(rand_herm(d, rng), rand_mat(d, rng))
        c = choi_reference(scipy.linalg.expm(kron_map(L.terms, L.fields) * 0.1))
        assert np.abs(c - c.conj().T).max() < 1e-10
        low = choi_min_eigenvalue(exponential(L, 0.1))
        assert low > -1e-9
        assert abs(low - np.linalg.eigvalsh((c + c.conj().T) / 2).min()) < 1e-12
        # trace-preserving channel: partial trace of Choi over the output
        # index gives the identity
        pt = c.reshape(d, d, d, d).trace(axis1=0, axis2=2)
        assert np.abs(pt - np.eye(d)).max() < 1e-10
    with pytest.raises(ShapeMismatchError):
        choi_min_eigenvalue(np.eye(3))


def test_source_term_is_a_shift_of_q():
    # lam (R, 1) + conj(lam) (1, R) + mu (X, 1) + conj(mu) (1, X) is the
    # generator with Q -> Q + lam R + mu X
    rng = np.random.default_rng(17)
    d = 3
    p = new_cmps(d, rand_herm(d, rng), rand_mat(d, rng))
    lam, mu = 0.7 - 0.4j, -0.3 + 1.1j
    f = fields(p.K, p.R)
    coef = {"annihilate": lam, "create": np.conj(lam),
            "deriv_annihilate": mu, "deriv_create": np.conj(mu)}
    source = sum(c * kron_map(INSERTIONS[k], f) for k, c in coef.items())
    want = kron_map(GENERATOR, f) + source
    got = kron_map(GENERATOR, {**f, "Q": f["Q"] + lam * f["R"] + mu * f["X"]})
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sandwich_is_the_kronecker_product(d):
    # the columns that `HermitianBasis.dense` sums are those of
    # np.kron(a, conj(b)), to the bit, for every column at once
    rng = np.random.default_rng(40 + d)
    f = {"a": rand_mat(d, rng), "b": rand_mat(d, rng), "1": np.eye(d)}
    conj = {name: np.conj(x) for name, x in f.items()}
    j, l = np.divmod(np.arange(d * d), d)
    for a, b in (("a", "b"), ("1", "b")):
        assert np.array_equal(_columns(((a, b),), f, conj, j, l), np.kron(f[a], np.conj(f[b])))


@pytest.mark.parametrize("d", [1, 2, 3, 18])
def test_dense_matches_the_kronecker_reference(d):
    # hmat, built in column blocks, against Re(U^dag S U) with U and S
    # built densely here; D = 18 spans three blocks of up to 4 D index pairs.
    # Relative to the same product of |U| and the table of |f|, the
    # roundoff scale of the dense reference
    rng = np.random.default_rng(50 + d)
    k, r = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    f = fields(k, r)
    df = fields_tangent(f, rand_herm(d, rng), rand_mat(d, rng))
    lam, mu = 0.7 - 0.4j, -0.3 + 1.1j
    shifted = {**f, "Q": f["Q"] + lam * f["R"] + mu * f["X"]}
    u = np.abs(basis_unitary(d))
    assert len(hermitian_basis(d).blocks) == max(1, math.ceil((d - 1) / 8))
    for terms, table in ((GENERATOR, f), (tangent_terms(GENERATOR), f | df), (GENERATOR, shifted)):
        got = Superoperator(terms, table).hmat
        bound = u.T @ kron_map(terms, {n: np.abs(x) for n, x in table.items()}).real @ u
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.abs(got - hmat_reference(terms, table)).max() <= 1e-14 * bound.max()


def test_building_hmat_holds_at_most_four_real_matrices():
    # the complex row-stacked matrix and its basis change took eight real
    # D^2 x D^2 arrays at D = 24; the column blocks keep the build under four
    rng = np.random.default_rng(51)
    d = 24
    lv = build_liouvillian(rand_herm(d, rng), 0.7 * rand_mat(d, rng))
    tracemalloc.start()
    try:
        lv.hmat
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (d * d) ** 2 * 8


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hermitian_basis_is_unitary_and_makes_generators_real(d):
    # D = 1 has no off-diagonal pairs: the basis is the identity
    basis = hermitian_basis(d)
    n = d * d
    rng = np.random.default_rng(60 + d)
    u = basis_unitary(d)
    assert np.abs(basis.matrices(np.eye(n)).reshape(n, n).T - u).max() <= 1e-16
    assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-15
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.abs(basis.coordinates(basis.matrices(v))[0] - v).max() <= 1e-15 * np.abs(v).max()
    # the trace functional reads the diagonal, which the basis leaves alone
    assert np.array_equal(trace_functional(d) @ u, trace_functional(d))
    h = rand_herm(d, rng)
    assert np.abs(basis.coordinates(h).imag).max() == 0.0
    assert np.array_equal(basis.coordinates(h), basis.coordinates(h[None])[0])

    k, r = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    lv = build_liouvillian(k, r)
    f = fields(k, r)
    df = fields_tangent(f, rand_herm(d, rng), rand_mat(d, rng))
    lam, mu = 0.7 - 0.4j, -0.3 + 1.1j
    site = kron_map(GENERATOR, {**f, "Q": f["Q"] + lam * f["R"] + mu * f["X"]})
    for mat in (kron_map(GENERATOR, f), kron_map(tangent_terms(GENERATOR), f | df), site):
        assert np.abs((u.conj().T @ mat @ u).imag).max() <= 1e-14 * lv.scale
    assert lv.hmat.dtype == np.float64


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_field_table_actions_match_the_dense_superoperators(d):
    # `action`, its adjoint and the action of its `tangent_terms` are the
    # row-stacked reference, its adjoint and the tangent terms' applied
    # without being built, on one matrix and on a stack; a chain's
    # insertions and closing covectors are the same maps in the Hermitian
    # basis.  Relative to the sum of |term| |x| over the terms,
    # the roundoff scale: the D = 1 generator's terms cancel to zero
    rng = np.random.default_rng(80 + d)
    p = new_cmps(d, rand_herm(d, rng), rand_mat(d, rng))
    f = fields(p.K, p.R)
    df = fields_tangent(f, rand_herm(d, rng), rand_mat(d, rng))
    chain, u, one = _Chain(p), basis_unitary(d), trace_functional(d)
    stack = np.array([rand_mat(d, rng) for _ in range(3)])
    rows = stack.reshape(3, d * d)  # row-stacked, one matrix per row
    coords = rng.normal(size=(3, d * d)) + 1j * rng.normal(size=(3, d * d))

    def close(got, dense, x, bound=None):
        """got against the rows of x times dense^T; bound sums |term|."""
        want = x @ dense.T
        scale = (np.abs(x) @ np.abs(dense if bound is None else bound).T).max()
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * scale

    absf = {name: np.abs(x) for name, x in f.items()}
    absdf = {name: np.abs(x) for name, x in df.items()}
    tables = {**INSERTIONS, "generator": GENERATOR}
    for kind, terms in tables.items():
        s, ds = kron_map(terms, f), kron_map(tangent_terms(terms), f | df)
        bound = kron_map(terms, absf)  # |kron(a, conj b)| = kron(|a|, |b|)
        dbound = kron_map(tangent_terms(terms), absf | absdf)
        for dense, bnd, act in ((s, bound, lambda m: action(terms, f, m)),
                                (s.conj().T, bound.T, lambda m: action_adjoint(terms, f, m)),
                                (ds, dbound, lambda m: action(tangent_terms(terms), f | df, m))):
            close(act(stack).reshape(3, d * d), dense, rows, bnd)
            close(act(stack[0]).reshape(d * d), dense, rows[0], bnd)
        if kind in INSERTIONS:
            h = u.conj().T @ s @ u
            close(chain.act(kind, coords), h, coords)
            close(chain.act(kind, coords[0]), h, coords[0])
            close(chain.covector(kind), h.T, one)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_tangent_terms_match_a_central_difference_of_the_maps(d):
    # the product rule against the maps it differentiates: along
    # (K + t dK, R + t dR) every field is a polynomial of degree at most 3
    # in t (X = -[Q, R] is cubic), and so is every table's matrix, which
    # the fourth-order central difference differentiates exactly.  What is
    # left is roundoff, relative to the stencil's sum of |term|: the D = 1
    # generator's terms cancel to zero
    rng = np.random.default_rng(90 + d)
    k, r = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    dk, dr = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    f = fields(k, r)
    moving = f | fields_tangent(f, dk, dr)
    h = 0.25
    stencil = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}
    at = {j: fields(k + j * h * dk, r + j * h * dr) for j in stencil}
    for kind, terms in {**INSERTIONS, "generator": GENERATOR}.items():
        got = kron_map(tangent_terms(terms), moving)
        want = sum(c * kron_map(terms, at[j]) for j, c in stencil.items()) / (12 * h)
        bound = sum(abs(c) * kron_map(terms, {n: np.abs(x) for n, x in at[j].items()})
                    for j, c in stencil.items()).max() / (12 * h)
        assert np.abs(got - want).max() <= 1e-14 * bound, kind

    # the generator's term norm is 2 ||Q||_1 + ||R||_1^2 to the bit
    gen = build_liouvillian(k, r)
    assert gen.scale == 2.0 * np.linalg.norm(f["Q"], 1) + np.linalg.norm(f["R"], 1) ** 2


def test_bordered_lu_factors_the_bordered_matrix_without_touching_hmat():
    # hmat - shift + weight e <1| is written into a copy, never into hmat,
    # which is a cached field every reader of the generator shares; the
    # factors are dgetrf's of the same matrix built densely
    rng = np.random.default_rng(15)
    for d in (1, 3, 5):
        h = rng.normal(size=(d * d, d * d))
        before = h.copy()
        one = trace_functional(d).real
        for shift, weight in ((0.0, 2.5), (0.9, 0.9)):
            dense = h - shift * np.eye(d * d) + np.outer(one * (weight / d), one)
            for got, want in zip(bordered_lu(h, shift, weight),
                                 scipy.linalg.lapack.dgetrf(dense)):
                assert np.array_equal(got, want)
        assert np.array_equal(h, before)


def test_the_exponential_keeps_expm_bits_and_refuses_a_non_finite_one(monkeypatch):
    # one dense exponential for every reader: a finite result is expm's to
    # the bit, found through the module attribute that tracers and
    # monkeypatches replace; nan or inf in it is NoConvergenceError
    lv = build_liouvillian(RF_K, RF_R)
    assert np.array_equal(exponential(lv, 0.7), scipy.linalg.expm(lv.hmat * 0.7))
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a.shape) or expm(a))
    exponential(lv, 0.7)
    assert calls == [(4, 4)]
    for bad in (np.nan, np.inf):
        monkeypatch.setattr(scipy.linalg, "expm", lambda a, _bad=bad: np.full_like(a, _bad))
        with pytest.raises(NoConvergenceError, match="exponential at step 0.7 is not finite"):
            exponential(lv, 0.7)


def test_an_exponential_that_overflows_inside_expm_is_refused_without_a_warning(capfd):
    # a sourced site Q -> Q + 1000 R of K = sigma_x / 2, R = diag(1, 1/2):
    # the exponent is certified (term norm about 2e3), but exp(L) is about
    # e^2000.  expm and expm_frechet printed overflow warnings before the
    # refusal, and raised them under warnings as errors
    f = fields(RF_K, np.diag([1.0, 0.5]).astype(complex))
    op = Superoperator(GENERATOR, {**f, "Q": f["Q"] + 1000.0 * f["R"]})
    for call in (lambda: exponential(op, 1.0), lambda: exponential_frechet(op, op, 1.0)):
        with pytest.raises(NoConvergenceError, match="^the exponential at step 1.0 is not finite$"):
            call()
    assert capfd.readouterr() == ("", "")


def test_a_sourced_site_reads_x_only_under_a_source(capfd):
    # K = sigma_x / 2, R = 1e104 sigma_minus: X = -[Q, R] overflows while the
    # generator's term norm (2e208) does not.  The source functional formed
    # Q + lam R + 0 X, where 0 x inf warned and left the site nan
    f = fields(RF_K.astype(complex), 1e104 * RF_R.astype(complex))
    assert not np.isfinite(f["X"]).all()
    site = sourced_generator(f, 0.5, 0.0)
    assert np.array_equal(site.fields["Q"], f["Q"] + 0.5 * f["R"])
    assert np.isfinite(exponential(site, 1e-200)).all()
    with pytest.raises(NoConvergenceError, match=r"^term norm x \|dx\| = (inf|nan) exceeds"):
        exponential(sourced_generator(f, 0.5, 0.1), 1e-200)
    assert capfd.readouterr() == ("", "")


def test_the_one_dimensional_vacuum_is_its_own_fixed_point():
    # K = R = 0 at D = 1: L = 0 has term norm 0, and a border of that weight
    # was singular, so the vacuum was refused as degenerate.  A
    # one-dimensional boundary space has one fixed point; L = 0 at D = 2
    # still has two
    p = new_cmps(1, [[0.0]], [[0.0]])
    assert p.generator.scale == 0.0
    assert p.stationary.steady_state.tolist() == [[1.0]]
    assert p.stationary.gap == 0.0 and p.stationary.gapless
    assert density(p) == 0.0
    assert not two_point(p, [0.0, 1.0, 2.5]).values.any()
    with pytest.raises(ZeroDensityError):
        pair_correlation(p, [0.0, 1.0])
    assert not any(r.positions.size for r in sample_ensemble(p, 3, 5.0, master_seed=1))
    with pytest.raises(DegenerateFixedSpaceError, match="singular"):
        steady_state(build_liouvillian(np.zeros((2, 2)), np.zeros((2, 2))))


def test_a_generator_whose_term_norm_overflows_has_one_message():
    # every entry of K = 1e308 (1 1; 1 1) is finite but the term norm is
    # not; the fixed point said "generator has non-finite entries", where
    # every other reader says what is tested
    with pytest.raises(NoConvergenceError, match="^generator has a non-finite term norm$"):
        steady_state(build_liouvillian(np.full((2, 2), 1e308), RF_R))


def test_an_exponent_that_would_overflow_is_refused_before_it_is_formed(monkeypatch):
    # D x term norm x |dx| bounds every entry of hmat dx: where |dx| > 1 and
    # the bound is not finite, the product is never formed, so no overflow
    # warning fires.  Entry for entry, hmat stays inside that bound
    rng = np.random.default_rng(52)
    for d in (1, 2, 5):
        lv = build_liouvillian(rand_herm(d, rng), rand_mat(d, rng))
        assert np.abs(lv.hmat).max() <= d * lv.scale
    lv = build_liouvillian(50.0 * np.array([[0.0, 1.0], [1.0, 0.0]]), 10.0 * DAMP_R)
    assert np.array_equal(exponent(lv, 0.5), lv.hmat * 0.5)
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: pytest.fail("expm was called"))
    for dx in (1e307, -1e307, np.float64(1e307)):
        with pytest.raises(NoConvergenceError, match="exponent at step .* overflows"):
            exponential(lv, dx)
    p = new_cmps(2, 50.0 * np.array([[0.0, 1.0], [1.0, 0.0]]), 10.0 * DAMP_R)
    with pytest.raises(NoConvergenceError, match="overflows"):
        two_point(p, [1e307])
    # the Frechet legs of the family derivative form their exponents alike
    monkeypatch.setattr(scipy.linalg, "expm_frechet", lambda a, e: pytest.fail("expm_frechet"))
    with pytest.raises(NoConvergenceError, match="exponent at step .* overflows"):
        family_derivative(p, RF_K, RF_R, [(0.0, "create"), (1e307, "annihilate")])


def test_an_exponent_past_the_certificate_is_refused_before_expm_runs(monkeypatch):
    # term norm x |dx| above EXPONENT_LIMIT: expm resolves the exponential
    # to about 1e-6 at the bound and gets its leading digits wrong by 1e15.
    # Just below it, a two_point past the decay reads |<R>|^2 = 1/9 to 1e-6
    # (9e-8 measured)
    p = new_cmps(2, RF_K, RF_R)
    step = EXPONENT_LIMIT / p.generator.scale
    assert abs(two_point(p, [0.999 * step]).values[0] - 1 / 9) <= 1e-6 / 9
    assert np.array_equal(exponent(p.generator, 0.5 * step), p.generator.hmat * (0.5 * step))
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: pytest.fail("expm was called"))
    for dx in (1.001 * step, -1.001 * step):
        with pytest.raises(NoConvergenceError, match=r"term norm x \|dx\| = 1\.001e\+10 exceeds"
                                                     r" 1e\+10: the exponential at step"):
            exponential(p.generator, dx)
    with pytest.raises(NoConvergenceError, match="not resolved in double precision"):
        two_point(p, [1.001 * step])
