import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg

from cmps_lab import (
    Finite,
    Thermodynamic,
    build_liouvillian,
    convergence_study,
    density,
    expectation,
    lattice_correlators,
    lattice_tensors,
    new_cmps,
    pair_correlation,
    transfer_matrix,
    two_point,
)
import cmps_lab
from cmps_lab import core, correlators, discretizer, liouville
from cmps_lab.discretizer import _dominant_pair
from cmps_lab.liouville import build_liouvillian, fields
from cmps_lab.errors import (
    NoConvergenceError,
    ShapeMismatchError,
    StepNotPositiveError,
    ValidationError,
    WindowTooSmallError,
)

from conftest import (
    EXCITED,
    RF_K,
    RF_R,
    hmat_reference,
    kron_map,
    rand_herm,
    rand_mat,
    random_instance,
)


def _windowed(p, eps, n_sites, rho0, order=1):
    """Site tensors of p's (K, R) at step eps: on a finite window of n_sites
    sites that opens on rho0, or in p's own geometry when n_sites is None."""
    if n_sites is not None:
        p = new_cmps(p.dim, p.K, p.R, Finite(length=n_sites * eps, boundary_rho=rho0))
    return lattice_tensors(p, eps, order=order)


def test_tensor_formulas(rf):
    eps = 0.01
    t = lattice_tensors(rf, eps)
    q = fields(rf.K, rf.R)["Q"]
    assert len(t.matrices) == 2
    assert np.abs(t.matrices[0] - (np.eye(2) + eps * q)).max() < 1e-15
    assert np.abs(t.matrices[1] - np.sqrt(eps) * RF_R).max() < 1e-15
    t2 = lattice_tensors(rf, eps, order=2)
    assert len(t2.matrices) == 3
    assert np.abs(t2.matrices[2] - (eps / np.sqrt(2)) * (RF_R @ RF_R)).max() < 1e-15


def test_tensor_validation(rf):
    with pytest.raises(StepNotPositiveError):
        lattice_tensors(rf, 0.0)
    with pytest.raises(ShapeMismatchError):
        lattice_tensors(rf, 0.01, order=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_lattice_steps_are_bad_input(rf, bad):
    # a NaN step fails every comparison, so "eps <= 0" alone let it through
    named = f"finite, got {bad}"
    with pytest.raises(ValidationError, match=named):
        lattice_tensors(rf, bad)
    with pytest.raises(ValidationError, match=named):
        convergence_study(rf, [0.01, bad])


def test_transfer_defect_second_order(rf):
    # E = 1 + eps L + O(eps^2): the defect must shrink by 4 per eps halving
    L = build_liouvillian(RF_K, RF_R).hmat
    prev = None
    for eps in (0.01, 0.005, 0.0025):
        E = transfer_matrix(lattice_tensors(rf, eps)).hmat
        defect = np.abs(E - np.eye(4) - eps * L).max()
        if prev is not None:
            assert 2.8 < prev / defect < 5.2
        prev = defect


def test_transfer_trace_fixed_point(rf):
    # trace row is an exact left fixed point up to the eps^2 defect
    eps = 0.01
    E = transfer_matrix(lattice_tensors(rf, eps)).hmat
    tr = np.eye(2).reshape(-1)  # <1| reads the diagonal coordinates
    assert np.abs(tr @ E - tr).max() < 10 * eps**2


def test_occupation_error_halves(rf):
    n_exact = density(rf)
    errs = []
    for eps in (0.01, 0.005, 0.0025):
        occ = lattice_correlators(lattice_tensors(rf, eps), "occupation")
        errs.append(abs(occ - n_exact))
    for a, b in zip(errs, errs[1:]):
        assert 1.6 < a / b < 2.4


def test_lattice_oracle_agreement_and_halving(rf):
    # occupation, hopping and pair estimators against the exact calculus at
    # eps = 1e-3, then the discrepancy itself halves with eps
    n_exact = density(rf)
    d = 1.0
    tp_exact = complex(two_point(rf, np.array([d])).values[0])
    g2n2_exact = float(pair_correlation(rf, np.array([d])).values[0].real) * n_exact**2

    gaps = {"occupation": [], "hopping": [], "pair": []}
    for eps in (1e-3, 5e-4):
        t = lattice_tensors(rf, eps)
        m = int(round(d / eps))
        occ = lattice_correlators(t, "occupation")
        hop = lattice_correlators(t, "hopping", distances=[m])[0]
        pair = lattice_correlators(t, "pair", distances=[m])[0]
        if eps == 1e-3:
            assert abs(occ - n_exact) < 5 * eps * max(1.0, n_exact)
            assert abs(hop - tp_exact) < 5 * eps * max(1.0, abs(tp_exact))
            assert abs(pair - g2n2_exact) < 10 * eps * max(1.0, abs(g2n2_exact))
        gaps["occupation"].append(abs(occ - n_exact))
        gaps["hopping"].append(abs(hop - tp_exact))
        gaps["pair"].append(abs(pair - g2n2_exact))
    for key, (a, b) in gaps.items():
        assert 1.6 < a / b < 2.4, key


def test_coherent_lattice_values_exact_to_derived_order(coherent):
    # D=1: occupation estimator is |r|^2/(1 + eps^2 |q|^2) exactly, so the
    # deviation is O(eps^2); hopping picks up an O(eps) phase factor
    p = coherent(r=0.8, k=0.3)
    q = complex(fields(p.K, p.R)["Q"][0, 0])
    for eps in (0.02, 0.01):
        t = lattice_tensors(p, eps)
        occ = lattice_correlators(t, "occupation")
        assert abs(occ - 0.64 / (1.0 + eps**2 * abs(q) ** 2)) < 1e-13
        hop = lattice_correlators(t, "hopping", distances=[1])[0]
        assert abs(hop - 0.64) < 5 * eps * 0.64


def test_order_two_coincides_on_nilpotent_emission(rf):
    # R^2 = 0 here, so the two-particle tensor vanishes identically
    eps = 0.005
    e1 = transfer_matrix(lattice_tensors(rf, eps, order=1)).hmat
    e2 = transfer_matrix(lattice_tensors(rf, eps, order=2)).hmat
    assert np.array_equal(e1, e2)


def test_order_two_adds_pair_channel_and_stays_first_order():
    rng = np.random.default_rng(31)
    p = new_cmps(2, rand_herm(2, rng), 0.8 * rand_mat(2, rng))
    eps = 0.01
    e1, e2 = (transfer_matrix(lattice_tensors(p, eps, order=order)) for order in (1, 2))
    e1, e2 = kron_map(e1.terms, e1.fields), kron_map(e2.terms, e2.fields)
    r2 = p.R @ p.R
    extra = (eps**2 / 2.0) * np.kron(r2, r2.conj())
    assert np.abs(e2 - e1 - extra).max() < 1e-15
    study = convergence_study(p, [0.01, 0.005, 0.0025], order=2)
    assert np.all(np.abs(study.orders - 1.0) < 0.35)


def test_finite_chain_matches_finite_continuum(damping_finite):
    # boundary-driven chain against the continuum finite-geometry calculus
    eps = 1e-3
    t = lattice_tensors(damping_finite, eps)
    sep = 2.0
    m = int(round(sep / eps))
    hop = lattice_correlators(t, "hopping", distances=[m])[0]
    exact = complex(two_point(damping_finite, np.array([sep])).values[0])
    assert abs(hop - exact) < 5 * eps * max(1.0, abs(exact))


def test_lattice_validation_errors(rf):
    t = lattice_tensors(rf, 0.01)
    with pytest.raises(ShapeMismatchError):
        lattice_correlators(t, "nonsense")
    with pytest.raises(ShapeMismatchError):
        lattice_correlators(t, "hopping")
    with pytest.raises(ShapeMismatchError):
        lattice_correlators(t, "hopping", distances=[0])
    # a distance given for the occupation used to be ignored
    with pytest.raises(ShapeMismatchError, match="occupation takes no distances"):
        lattice_correlators(t, "occupation", distances=[3])
    with pytest.raises(WindowTooSmallError):
        lattice_correlators(_windowed(rf, 0.01, 10, np.eye(2) / 2), "hopping", distances=[30])


def test_convergence_study_rf(rf):
    study = convergence_study(rf, [0.01, 0.005, 0.0025])
    assert np.all(study.eps[:-1] > study.eps[1:])
    assert np.all(np.abs(study.orders - 1.0) < 0.2)
    assert abs(study.extrapolated - 1.0 / 3.0) < 1e-5
    with pytest.raises(ShapeMismatchError):
        convergence_study(rf, [0.01])
    with pytest.raises(StepNotPositiveError):
        convergence_study(rf, [0.01, -0.005])


@pytest.mark.parametrize("eps", [[0.01, 0.01, 0.02], [0.02, 0.01, 0.02]])
def test_convergence_study_rejects_repeated_steps(rf, eps):
    # equal steps make the Richardson ratio or an order's log ratio 1
    with pytest.raises(ValidationError, match="distinct"):
        convergence_study(rf, eps)


def test_convergence_study_hopping_observable(rf):
    study = convergence_study(rf, [0.01, 0.005], observable=("hopping", 1.0))
    exact = complex(two_point(rf, np.array([1.0])).values[0])
    assert isinstance(study.extrapolated, complex)
    assert abs(study.extrapolated - exact) < 1e-4
    # a D = 3 instance whose hopping correlator has an imaginary part: the
    # study keeps it in the values and in the extrapolation
    p = random_instance(3, dims=(3, 4))
    study = convergence_study(p, [0.01, 0.005], observable=("hopping", 0.2))
    exact = complex(two_point(p, np.array([0.2])).values[0])
    assert abs(exact.imag) > 1e-3
    assert study.values.dtype == complex
    assert abs(study.extrapolated - exact) <= study.errors[-1]
    assert abs(study.extrapolated.imag - exact.imag) < 0.01 * abs(exact.imag)
    np.testing.assert_array_equal(study.errors, np.abs(study.values - study.extrapolated))


@pytest.mark.parametrize("s", [1e-10, 1.0, 1e6])
def test_finite_window_tiles_in_every_length_unit(s):
    # K -> s K, R -> sqrt(s) R with the window and steps scaled by 1/s
    # leaves the site tensors unchanged, so the lattice occupation scales by s
    def study(unit):
        window = Finite(length=0.7 / unit, boundary_rho=EXCITED)
        p = new_cmps(2, unit * RF_K, np.sqrt(unit) * RF_R, window)
        return convergence_study(p, [0.02 / unit, 0.01 / unit]).values / unit

    np.testing.assert_allclose(study(s), study(1.0), rtol=1e-10)


@pytest.mark.parametrize("s", [1.0, 1e9])
def test_separation_off_the_grid_is_rejected_in_every_length_unit(s):
    p = new_cmps(2, s * RF_K, np.sqrt(s) * RF_R)
    with pytest.raises(ShapeMismatchError, match="not a multiple"):
        convergence_study(p, [0.02 / s, 0.01 / s], observable=("hopping", 1.005 / s))


def test_dark_lattice_is_zero():
    p = new_cmps(2, RF_K, np.zeros((2, 2)),
                 Finite(length=1.0, boundary_rho=np.eye(2) / 2))
    t = lattice_tensors(p, 0.01)
    assert lattice_correlators(t, "occupation") == 0.0
    # the window is tiled before the dark shortcut: a step that does not
    # tile it is refused, dark chain or not
    with pytest.raises(ShapeMismatchError, match="does not divide"):
        lattice_correlators(lattice_tensors(p, 0.3), "occupation")


@pytest.mark.parametrize("n_sites", [1, 2, 7, 64])
def test_finite_occupation_matches_site_by_site_chain(n_sites):
    # the closing covectors <1| E^k come from binary powers of E; walking
    # the chain one site at a time must give the same value
    rng = np.random.default_rng(41)
    d = 3
    p = new_cmps(d, rand_herm(d, rng), 0.7 * rand_mat(d, rng))
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    t = _windowed(p, 0.05, n_sites, rho0)
    emat = kron_map(transfer_matrix(t).terms, t.fields)
    number = np.kron(t.matrices[1], t.matrices[1].conj())
    w = np.eye(d, dtype=complex).reshape(-1)
    tails = [w]
    for _ in range(n_sites):
        w = w @ emat
        tails.append(w)
    v = rho0.reshape(-1)
    want = (tails[n_sites - 1] @ (number @ v)) / (tails[n_sites] @ v) / t.eps
    got = lattice_correlators(t, "occupation")
    assert got == pytest.approx(want.real, rel=1e-12)


def _one_sided_fixed_points(emat):
    """(eta, left / <left|right>, right) from np.linalg.eig of E and of E^dag."""
    w, vr = np.linalg.eig(emat)
    i = np.argmax(np.abs(w))
    eta, right = w[i], vr[:, i]
    wl, vl = np.linalg.eig(emat.conj().T)
    left = vl[:, np.argmin(np.abs(wl - np.conj(eta)))].conj()
    return eta, left / (left @ right), right


def _two_sided_fixed_points(emat):
    """(eta, left / <left|right>, right) from one scipy.linalg.eig call with
    left and right eigenvectors."""
    w, vl, vr = scipy.linalg.eig(emat, left=True, right=True)
    i = np.argmax(np.abs(w))
    left = vl[:, i].conj()
    return w[i], left / (left @ vr[:, i]), vr[:, i]


def _reference_lattice(tensors, observable, distances, fixed_points=_one_sided_fixed_points):
    """The lattice estimators by a complex row-stacked contraction written
    out here: np.kron superoperators, the dominant eigenvectors of E from
    `fixed_points`, a finite chain (the window of `tensors.geometry`)
    walked one site at a time."""
    mats = tensors.matrices
    n_sites = None
    if isinstance(tensors.geometry, Finite):
        n_sites = round(tensors.geometry.length / tensors.eps)
        rho0 = tensors.geometry.boundary_rho

    def kron(a, b):
        return np.kron(a, b.conj())

    emat = sum(kron(a, a) for a in mats)
    if observable == "hopping":
        lower = sum(np.sqrt(n) * kron(mats[n], mats[n - 1]) for n in range(1, len(mats)))
        raise_ = sum(np.sqrt(n) * kron(mats[n - 1], mats[n]) for n in range(1, len(mats)))
    else:
        lower = raise_ = sum(n * kron(a, a) for n, a in enumerate(mats))
    one = np.eye(tensors.dim).reshape(-1)
    if n_sites is None:
        eta, close, opening = fixed_points(emat)
    else:
        opening = rho0.reshape(-1).astype(complex)
        norm = one.astype(complex)
        for _ in range(n_sites):
            norm = norm @ emat
    values = []
    for m in distances:
        if observable == "occupation":
            v, used = lower @ opening, 1
        else:
            v = raise_ @ opening
            for _ in range(m - 1):
                v = emat @ v
            v, used = lower @ v, m + 1
        if n_sites is None:
            values.append(close @ v / eta**used)
        else:
            tail = one.astype(complex)
            for _ in range(n_sites - used):
                tail = tail @ emat
            values.append((tail @ v) / (norm @ opening))
    return np.array(values) / tensors.eps ** (2 if observable == "pair" else 1)


# Roundoff of the real Hermitian-basis lattice against _reference_lattice,
# measured over 2000 random draws (D = 1-6, eps 0.002-0.1, both tensor
# orders, distances 1, 3, 7), relative to the largest reference value:
# thermodynamic values within 1.1e-14 / eps, finite chains of 40 sites
# within 3.0e-14.  The thermodynamic fixed points of E are conditioned like
# 1 / (eps gap), because every eigenvalue of E is 1 + O(eps), and the
# estimators divide by eps.  A 40-digit mpmath contraction puts the
# real-basis and the complex eigensolver paths at the same distance from
# the exact value.  The bounds leave a factor of about 5.
THERMO_RTOL_TIMES_EPS = 5e-14
FINITE_RTOL = 2e-13


@pytest.mark.parametrize("seed", range(12))
def test_real_basis_lattice_matches_complex_row_stacked_contraction(seed):
    rng = np.random.default_rng(700 + seed)
    d = 1 + seed % 6
    eps = (0.05, 0.01, 0.002)[seed % 3]
    order = 1 + seed % 2
    p = new_cmps(d, rand_herm(d, rng), 0.7 * rand_mat(d, rng))
    a = rand_mat(d, rng)
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    for n_sites, rtol in ((None, THERMO_RTOL_TIMES_EPS / eps), (40, FINITE_RTOL)):
        t = _windowed(p, eps, n_sites, rho0, order)
        for observable in ("occupation", "hopping", "pair"):
            distances = [0] if observable == "occupation" else [1, 3, 7]
            got = np.atleast_1d(lattice_correlators(
                t, observable, distances=None if observable == "occupation" else distances))
            want = _reference_lattice(t, observable, distances)
            if observable != "hopping":
                assert got.dtype == np.float64
                want = want.real
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= rtol, (observable, n_sites, err)


@pytest.mark.parametrize("seed", range(10))
def test_thermodynamic_lattice_matches_two_sided_eigenvectors(seed):
    # the bordered-LU fixed points against the left and right eigenvectors
    # of one two-sided complex eigensolve, at the roundoff scale above
    rng = np.random.default_rng(860 + seed)
    d = 2 + seed % 5
    p = new_cmps(d, rand_herm(d, rng), 0.7 * rand_mat(d, rng))
    for eps in (0.02, 0.01, 0.005):
        for order in (1, 2):
            t = lattice_tensors(p, eps, order=order)
            for observable in ("occupation", "hopping", "pair"):
                distances = [0] if observable == "occupation" else [1, 3, 7]
                got = np.atleast_1d(lattice_correlators(
                    t, observable, distances=None if observable == "occupation" else distances))
                want = _reference_lattice(t, observable, distances,
                                          fixed_points=_two_sided_fixed_points)
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= THERMO_RTOL_TIMES_EPS / eps, (eps, order, observable, err)


def test_thermodynamic_chain_runs_one_eigenvalue_only_dgeev(monkeypatch):
    # the fixed points come from a factorization, not from eigenvectors
    dgeev = scipy.linalg.lapack.dgeev
    calls = []

    def counting_dgeev(a, compute_vl=1, compute_vr=1, **kwargs):
        calls.append((compute_vl, compute_vr))
        return dgeev(a, compute_vl=compute_vl, compute_vr=compute_vr, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgeev", counting_dgeev)
    p = random_instance(5, dims=(4, 5))
    t = lattice_tensors(p, 0.01, order=2)
    for observable, distances in (("occupation", None), ("hopping", [1, 3]), ("pair", [2])):
        calls.clear()
        lattice_correlators(t, observable, distances=distances)
        assert calls == [(0, 0)], observable


def test_transfer_fixed_point_refusals(rf, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(discretizer, "FIXED_POINT_TOL", 1e-30)
        with pytest.raises(WindowTooSmallError, match="residual"):
            lattice_correlators(lattice_tensors(rf, 0.01), "occupation")
    # D = 2 layout, trace functional on coordinates 0 and 3.  The dominant
    # eigenvalue 2 is simple, but its fixed point e_1 is traceless, so the
    # bordered matrix has a zero column
    with pytest.raises(WindowTooSmallError, match="singular"):
        _dominant_pair(np.diag([0.5, 2.0, 0.3, 0.1]))
    # the dominant eigenvalue 1 is simple with right fixed point e_0, and
    # the left one is (1, 0, 0, 2a) with a = 2^40: the pair overlaps to
    # 1 / sqrt(1 + 4 a^2) < 1e-12.  Powers of two keep every step exact
    emat = np.diag([1.0, 0.125, 0.125, 0.5])
    emat[0, 3] = 2.0**40
    with pytest.raises(WindowTooSmallError, match="orthogonal"):
        _dominant_pair(emat)


def test_transfer_hmat_is_the_real_hermitian_basis_image(rf):
    tm = transfer_matrix(lattice_tensors(rf, 0.01, order=2))
    assert tm.hmat.dtype == np.float64
    assert np.abs(tm.hmat - hmat_reference(tm.terms, tm.fields)).max() < 1e-15


def test_degenerate_transfer_fixed_points_still_raise():
    # K = R = 0 gives E = 1 (to the basis change's roundoff); every state
    # is dark, so the chains never reach the eigensolve and it is asked
    # directly
    zero = np.zeros((2, 2))
    identity = transfer_matrix(lattice_tensors(new_cmps(2, zero, zero), 0.01))
    assert np.abs(identity.hmat - np.eye(4)).max() < 1e-15
    with pytest.raises(WindowTooSmallError, match="degenerate"):
        _dominant_pair(identity.hmat)
    # R = 1 makes E = (1 + eps^2 / 4) 1 while the number operator is not zero
    p = new_cmps(2, zero, np.eye(2))
    with pytest.raises(WindowTooSmallError, match="degenerate"):
        lattice_correlators(lattice_tensors(p, 0.01), "occupation")


def test_lattice_arguments_that_are_not_integers_are_refused(rf):
    # a distance of 1.5 sites used to be truncated
    t = lattice_tensors(rf, 0.01)
    with pytest.raises(ValidationError, match="site distance must be an integer, got .*1.5"):
        lattice_correlators(t, "hopping", distances=[1.5])
    with pytest.raises(ValidationError, match="site distance must be an integer"):
        lattice_correlators(t, "pair", distances=[float("nan")])
    # whole numbers given as floats are the same distances
    assert np.array_equal(lattice_correlators(t, "hopping", distances=[2.0, 3]),
                          lattice_correlators(t, "hopping", distances=[2, 3]))


def test_dark_chain_hopping_is_complex():
    # R = 0 short-cuts every estimator to zero; hopping stays complex
    dark = lattice_tensors(new_cmps(2, np.eye(2), np.zeros((2, 2))), 0.01)
    hop = lattice_correlators(dark, "hopping", distances=[1, 2])
    assert hop.dtype == np.complex128 and not hop.any()
    assert lattice_correlators(dark, "pair", distances=[1]).dtype == np.float64


@pytest.mark.parametrize("order", [1, 2])
def test_unsorted_and_repeated_distances_match_the_reference(order):
    # one walk reads the sorted distinct distances and hands them back in
    # the order asked, repeats included
    rng = np.random.default_rng(53)
    d, eps, distances = 3, 0.01, [7, 1, 3, 3]
    p = new_cmps(d, rand_herm(d, rng), 0.7 * rand_mat(d, rng))
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    for n_sites, rtol in ((None, THERMO_RTOL_TIMES_EPS / eps), (40, FINITE_RTOL)):
        t = _windowed(p, eps, n_sites, rho0, order)
        for observable in ("hopping", "pair"):
            got = lattice_correlators(t, observable, distances=distances)
            want = _reference_lattice(t, observable, distances)
            assert got.shape == (4,) and got[2] == got[3]
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= rtol, (observable, n_sites, err)


def test_lattice_oracle_builds_only_the_transfer_matrix(monkeypatch):
    # the oracle is independent of the continuum calculus: no generator and
    # no exponential.  Its one D^2 x D^2 map is E, of order + 1 terms, built
    # by one call of the one builder; the estimators act on D x D matrices
    d = 4
    rng = np.random.default_rng(19)
    p = new_cmps(d, rand_herm(d, rng), 0.7 * rand_mat(d, rng))
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    built, continuum = [], []
    dense = liouville.HermitianBasis.dense
    monkeypatch.setattr(liouville.HermitianBasis, "dense",
                        lambda self, terms, f: built.append(len(terms)) or dense(self, terms, f))
    for module, name in ((liouville, "build_liouvillian"), (core, "build_liouvillian"),
                         (correlators, "build_liouvillian"), (cmps_lab, "build_liouvillian"),
                         (scipy.linalg, "expm"), (scipy.linalg, "expm_frechet"),
                         (scipy.sparse.linalg, "expm_multiply")):
        def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
            continuum.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    for order in (1, 2):
        for n_sites in (None, 12):
            for observable, distances in (("occupation", None), ("hopping", [1, 4]),
                                          ("pair", [5, 2])):
                t = _windowed(p, 0.05, n_sites, rho0, order)
                built.clear()
                lattice_correlators(t, observable, distances=distances)
                assert built == [order + 1], (order, observable)
    assert continuum == []


def test_no_distances_give_an_empty_array_of_the_observables_type(rf):
    # as two_point does for no separations, in both geometries
    assert two_point(rf, []).values.shape == (0,)
    for n_sites in (None, 10):
        t = _windowed(rf, 0.01, n_sites, np.eye(2) / 2)
        for observable, dtype in (("hopping", np.complex128), ("pair", np.float64)):
            got = lattice_correlators(t, observable, distances=[])
            assert got.shape == (0,) and got.dtype == dtype, (observable, n_sites)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_convergence_study_refuses_a_separation_that_is_not_finite(rf, bad):
    # int(round(sep / eps)) raised a bare ValueError or OverflowError
    with pytest.raises(ValidationError, match=f"separation must be finite, got {bad}"):
        convergence_study(rf, [0.01, 0.005], observable=("hopping", bad))


@pytest.mark.parametrize("geometry", [Thermodynamic(),
                                      Finite(length=1.0, boundary_rho=np.eye(2) / 2)])
@pytest.mark.parametrize("k, r, order", [(1e308 * np.ones((2, 2)), RF_R, 1),
                                         (np.zeros((2, 2)), np.diag([1e160, 0.0]), 2)])
def test_a_transfer_matrix_whose_term_norm_overflows_is_refused(geometry, k, r, order, capfd):
    # every entry of the first tensors is finite, but ||A0||_1^2 is not:
    # the bulk chain used to hand inf to LAPACK, which printed
    # illegal-value lines, and the finite chain returned nan after overflow
    # warnings.  The second overflows R^dag R and, at order 2, R^2
    p = new_cmps(2, k, r, geometry)
    with pytest.raises(NoConvergenceError, match="transfer matrix has a non-finite term norm"):
        convergence_study(p, [0.01, 0.005], order=order)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("observable", ["density", ("occupation", 0.1), ("hopping",), 3])
def test_convergence_study_names_an_unknown_observable(rf, observable):
    # "density" used to fail with a bare "too many values to unpack"
    with pytest.raises(ShapeMismatchError, match="observable must be 'occupation' or a"):
        convergence_study(rf, [0.02, 0.01], observable)


# each lattice observable's continuum insertions at separation sep
_EXACT_INSERTIONS = {
    "occupation": lambda sep: [(0.0, "pair_density")],
    "hopping": lambda sep: [(0.0, "create"), (sep, "annihilate")],
    "pair": lambda sep: [(0.0, "pair_density"), (sep, "pair_density")],
}


def test_extrapolated_lattice_values_match_the_exact_calculus_on_random_instances():
    # the lattice oracle against the insertion calculus, two independent
    # methods, on seeds 0-39 (D = 1-3) in both geometries: the Richardson
    # value lies within the study's largest error of the exact one.  Steps
    # are eps0 = 0.02 / term norm, eps0 / 2 and eps0 / 4; the separation is
    # 8 eps0 and the finite window 20 eps0.  Seeds 0-199 of this setup hold
    # with a largest ratio of 0.81.  The finest step's error alone is not
    # a bound: where the O(eps) coefficient nearly vanishes it understates
    # the extrapolation's error
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 3
        k, r = rand_herm(d, rng), rand_mat(d, rng)
        eps0 = 0.02 / build_liouvillian(k, r).scale
        a = rand_mat(d, rng)
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        sep = 8 * eps0
        for geometry in (Thermodynamic(), Finite(length=20 * eps0, boundary_rho=rho0)):
            p = new_cmps(d, k, r, geometry)
            for name, insertions in _EXACT_INSERTIONS.items():
                exact = expectation(p, insertions(sep))
                study = convergence_study(p, [eps0, eps0 / 2, eps0 / 4],
                                          name if name == "occupation" else (name, sep))
                assert abs(study.extrapolated - exact) <= study.errors.max(), (seed, geometry, name)
