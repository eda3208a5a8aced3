import json

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from cmps_lab import (
    FieldMoments,
    Finite,
    SourceField,
    Thermodynamic,
    Tolerances,
    build_general_generator,
    choi_min_eigenvalue,
    compare_forms,
    convergence_study,
    decay_fit,
    estimate_stats,
    expectation,
    family_derivative,
    generating_functional,
    jump_decomposition,
    kinetic_density,
    lattice_tensors,
    lieb_liniger_energy_density,
    new_cmps,
    no_jump_survival,
    pair_correlation,
    sample_ensemble,
    source_consistency_check,
    two_point,
    waiting_bin_probs,
    waiting_time_analytic,
)
from cmps_lab import core, liouville
from cmps_lab.cli import main
from cmps_lab.errors import (
    DegenerateFixedSpaceError,
    InvalidBoundaryStateError,
    InvalidMomentsError,
    NegativeDistanceError,
    NoConvergenceError,
    NonHermitianKError,
    ShapeMismatchError,
    SignalBelowFloorError,
    ValidationError,
)
from cmps_lab.liouville import fields

from conftest import RF_K, RF_R, rand_herm, rand_mat


def test_new_cmps_accepts_valid_input():
    p = new_cmps(2, RF_K, RF_R)
    assert p.dim == 2
    assert isinstance(p.geometry, Thermodynamic)
    assert np.array_equal(p.K, RF_K)
    assert np.array_equal(p.R, RF_R)


def test_arrays_are_read_only():
    p = new_cmps(2, RF_K, RF_R)
    with pytest.raises(ValueError):
        p.K[0, 0] = 1.0
    with pytest.raises(ValueError):
        p.R[0, 0] = 1.0


def test_shape_validation():
    with pytest.raises(ShapeMismatchError):
        new_cmps(2, np.zeros((2, 3)), RF_R)
    with pytest.raises(ShapeMismatchError):
        new_cmps(3, RF_K, RF_R)
    with pytest.raises(ShapeMismatchError):
        new_cmps(0, np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(ShapeMismatchError):
        new_cmps(2, np.zeros(4), RF_R)


def test_hermiticity_enforced_relative_to_scale():
    K = np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]])
    with pytest.raises(NonHermitianKError):
        new_cmps(2, K, RF_R)
    # same asymmetry is fine once the matrix is large: the check is relative
    big = 1e5 * np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
    new_cmps(2, big, RF_R)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrices_rejected(bad):
    K = np.array([[bad, 0.5], [0.5, 0.0]])
    with pytest.raises(ValidationError):
        new_cmps(2, K, RF_R)
    R = np.array([[0.0, 0.0], [bad, 0.0]])
    with pytest.raises(ValidationError):
        new_cmps(2, RF_K, R)


def test_r_needs_no_symmetry():
    rng = np.random.default_rng(0)
    new_cmps(3, rand_herm(3, rng), rand_mat(3, rng))


def test_finite_geometry_validation():
    rho = np.array([[0.5, 0.0], [0.0, 0.5]])
    p = new_cmps(2, RF_K, RF_R, Finite(length=2.0, boundary_rho=rho))
    assert p.geometry.length == 2.0
    with pytest.raises(ShapeMismatchError):
        Finite(length=-1.0, boundary_rho=rho)
    with pytest.raises(ShapeMismatchError):
        Finite(length=0.0, boundary_rho=rho)
    for length in (np.inf, np.nan):
        with pytest.raises(ValidationError):
            Finite(length=length, boundary_rho=rho)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            Finite(length=1.0, boundary_rho=np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(InvalidBoundaryStateError):
        new_cmps(2, RF_K, RF_R, Finite(length=1.0, boundary_rho=np.array([[0.5, 0.3], [0.0, 0.5]])))
    with pytest.raises(InvalidBoundaryStateError):
        Finite(length=1.0, boundary_rho=np.array([[0.7, 0.0], [0.0, 0.5]]))
    with pytest.raises(InvalidBoundaryStateError):
        Finite(length=1.0, boundary_rho=np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ShapeMismatchError):
        new_cmps(3, np.zeros((3, 3)), np.zeros((3, 3)),
                 Finite(length=1.0, boundary_rho=rho))


@pytest.mark.parametrize("build, error, message", [
    (lambda: new_cmps(2, [[0.0, 1e308], [-1e308, 0.0]], np.eye(2)),
     NonHermitianKError, "Hermitian"),
    (lambda: new_cmps(2, np.diag([1e308j, 0.0]), np.eye(2)), NonHermitianKError, "Hermitian"),
    (lambda: new_cmps(2, RF_K, RF_R, Finite(1.0, [[0.5, 1e308], [-1e308, 0.5]])),
     InvalidBoundaryStateError, "not Hermitian"),
    (lambda: Finite(1.0, [[0.5, 1e308], [1e308, 0.5]]),
     InvalidBoundaryStateError, "positive semidefinite"),
    (lambda: Finite(1.0, np.diag([1e308, 1e308])), InvalidBoundaryStateError, "trace 1"),
], ids=["K-skew", "K-imaginary-diagonal", "rho-skew", "rho-indefinite", "rho-trace"])
def test_large_inputs_are_refused_without_overflow(build, error, message, capfd):
    # K - K^dag, rho - rho^dag, (rho + rho^dag) / 2 and tr rho used to
    # overflow (a RuntimeWarning, an error under -W error) before their tests
    # ran; every test now runs on the matrix scaled by a power of two
    with pytest.raises(error, match=message):
        build()
    assert capfd.readouterr() == ("", "")


def test_q_matrix_dissipation_identity():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        p = new_cmps(d, rand_herm(d, rng), rand_mat(d, rng))
        q = fields(p.K, p.R)["Q"]
        gram = p.R.conj().T @ p.R
        scale = max(1.0, np.abs(gram).max())
        assert np.abs(q + q.conj().T + gram).max() < 1e-14 * scale


def test_q_matrix_rf_value():
    q = fields(RF_K, RF_R)["Q"]
    expected = -1j * RF_K - 0.5 * np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.abs(q - expected).max() < 1e-15


def test_stationary_state_is_computed_once_per_parameter_set(monkeypatch, tmp_path):
    # the correlators, the sampler and the waiting-time oracle all open on
    # the fixed point: between them one generator, one bordered LU
    # factorization and no D^2 x D^2 eigenvalue solve.  Only steady and gap,
    # which print the spectrum, pay for one
    rng = np.random.default_rng(5)
    d = 3
    p = new_cmps(d, rand_herm(d, rng), 0.7 * rand_mat(d, rng))
    kernels = {"eig": np.linalg, "eigvals": np.linalg, "dgetrf": scipy.linalg.lapack}
    shapes = {name: [] for name in kernels}
    for name, module in kernels.items():
        def counting(a, *args, _name=name, _fn=getattr(module, name), **kwargs):
            shapes[_name].append((np.shape(a), np.asarray(a).dtype))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    builds = []

    def building(*args, _fn=core.build_liouvillian):
        builds.append(args)
        return _fn(*args)
    monkeypatch.setattr(core, "build_liouvillian", building)
    big = ((d * d, d * d), np.dtype(np.float64))

    def count(name):
        return sum(shape == big[0] for shape, _ in shapes[name])

    def clear():
        builds.clear()
        for calls in shapes.values():
            calls.clear()

    source_consistency_check(p, eps=0.05, h=0.01, n_sites=8)
    sample_ensemble(p, 4, 2.0, 7)
    no_jump_survival(p, [0.0, 0.5, 1.0])
    assert shapes["dgetrf"] == [big]
    assert len(builds) == 1
    assert count("eigvals") == 0
    assert count("eig") == 0

    # one bulk expectation on a fresh parameter set: one bordered
    # factorization of the real generator of the Hermitian basis
    clear()
    kinetic_density(new_cmps(d, p.K, p.R))
    assert shapes["dgetrf"] == [big]
    assert count("eigvals") == 0
    assert count("eig") == 0

    model = {"dim": d, "K": {"re": p.K.real.tolist(), "im": p.K.imag.tolist()},
             "R": {"re": p.R.real.tolist(), "im": p.R.imag.tolist()}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model, "geometry": "thermodynamic"}))
    for command in ("steady", "gap"):
        clear()
        assert main([command, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
        assert shapes["eigvals"] == [big]
        assert shapes["dgetrf"] == [big]
        assert count("eig") == 0


def test_two_point_propagates_with_real_exponentials(monkeypatch):
    # a certified basis reads every stop from one eig of the real
    # D^2 x D^2 generator and runs no expm; without it (EIG_COND_LIMIT = 0)
    # every propagator exp(L dx) of the scan is a real D^2 x D^2 exponential
    rng = np.random.default_rng(6)
    d = 3
    k, r = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    calls = {"expm": [], "eig": []}

    def recording(name, fn):
        def call(a, *args, **kwargs):
            calls[name].append((np.shape(a), np.asarray(a).dtype))
            return fn(a, *args, **kwargs)
        return call

    monkeypatch.setattr(scipy.linalg, "expm", recording("expm", scipy.linalg.expm))
    monkeypatch.setattr(np.linalg, "eig", recording("eig", np.linalg.eig))
    real = ((d * d, d * d), np.dtype(np.float64))
    for limit, walked in ((liouville.EIG_COND_LIMIT, "eig"), (0.0, "expm")):
        monkeypatch.setattr(liouville, "EIG_COND_LIMIT", limit)
        for geometry in (Thermodynamic(), Finite(length=2.0, boundary_rho=np.eye(d) / d)):
            calls["expm"].clear()
            calls["eig"].clear()
            two_point(new_cmps(d, k, r, geometry), [0.0, 0.3, 0.3, 1.1, 2.0])
            assert calls["eig"] == [real]
            assert calls["expm"] == ([] if walked == "eig" else [real] * 3)


@pytest.mark.parametrize("strict_first", [True, False])
def test_parameter_sets_with_different_tolerances_coexist(strict_first):
    # a slightly non-Hermitian K also nudges the zero mode off the axis,
    # so the loose set loosens the spectral certificates alongside herm
    k = RF_K.copy()
    k[0, 1] += 1e-7
    loose = Tolerances(herm=1e-6, zero_real=1e-5, residual=1e-5)

    def strict_raises():
        with pytest.raises(NonHermitianKError, match="within 1e-12"):
            new_cmps(2, k, RF_R)

    if strict_first:
        strict_raises()
    p = new_cmps(2, k, RF_R, tol=loose)
    assert p.tol == loose
    assert p.stationary.gap == pytest.approx(0.5, abs=1e-5)
    strict_raises()
    with pytest.raises(NonHermitianKError, match="within 1e-08"):
        new_cmps(2, k, RF_R, tol=Tolerances(herm=1e-8))
    assert new_cmps(2, RF_K, RF_R).stationary.gap == pytest.approx(0.5, abs=1e-12)


def test_finite_and_field_moments_honour_their_tolerances():
    rho = np.array([[0.5, 1e-9], [0.0, 0.5]])
    with pytest.raises(InvalidBoundaryStateError):
        new_cmps(2, RF_K, RF_R, Finite(length=1.0, boundary_rho=rho))
    p = new_cmps(2, RF_K, RF_R, Finite(length=1.0, boundary_rho=rho), tol=Tolerances(herm=1e-6))
    assert p.geometry.boundary_rho[0, 1] == 1e-9
    with pytest.raises(InvalidMomentsError):
        FieldMoments(0.0, 0.0, 0.5, 1.5 + 1e-9)
    moments = FieldMoments(0.0, 0.0, 0.5, 1.5 + 1e-9, tol=Tolerances(moment=1e-6))
    assert moments.psi_psi_dag == 1.5


@pytest.mark.parametrize("field", ["herm", "zero_real", "residual", "moment"])
@pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf, "x"])
def test_a_tolerance_that_is_not_finite_and_positive_is_refused(field, bad):
    # only the CLI's loader refused them: with the coupled blocks at t = 1e-7,
    # which the defaults refuse as degenerate, zero_real = nan certified the
    # fixed point with gap 0.0 but gapless False
    with pytest.raises(ValidationError,
                       match=f"^tolerance {field} must be a finite positive number, got "):
        Tolerances(**{field: bad})


@pytest.mark.parametrize("call, message", [
    (lambda p: sample_ensemble(p, 2.5, 1.0, 1), "n_traj must be an integer, got 2.5"),
    (lambda p: sample_ensemble(p, 2, 1.0, 1.5), "master_seed must be an integer, got 1.5"),
    (lambda p: sample_ensemble(p, 2, 1.0, -1), "master_seed and first_index must be >= 0"),
    (lambda p: sample_ensemble(p, 2, 1.0, 1, first_index=-1),
     "master_seed and first_index must be >= 0"),
    (lambda p: lattice_tensors(p, 0.01, order=2.5), "tensor order must be an integer, got 2.5"),
    (lambda p: new_cmps(2.5, p.K, p.R), "dim must be an integer, got 2.5"),
], ids=["n_traj", "master_seed", "negative_seed", "first_index", "order", "dim"])
def test_counts_seeds_and_dimensions_are_never_truncated(rf, call, message):
    # each used to raise a bare TypeError or ValueError, or to truncate
    with pytest.raises(ValidationError, match=message):
        call(rf)


def test_whole_number_floats_are_the_same_counts(rf):
    records = sample_ensemble(rf, 2.0, 5.0, 7.0, first_index=1.0)
    assert [r.seed_info for r in records] == [(7, 1), (7, 2)]
    assert all(np.array_equal(a.positions, b.positions)
               for a, b in zip(records, sample_ensemble(rf, 2, 5.0, 7, first_index=1)))
    assert lattice_tensors(rf, 0.01, order=2.0).order == 2
    assert new_cmps(2.0, rf.K, rf.R).dim == 2


# one call per scalar read; each value is one that float() cannot read
NOT_NUMBERS = {
    "ll-energy-c": lambda p: lieb_liniger_energy_density(p, "x", 1),
    "ll-energy-c-none": lambda p: lieb_liniger_energy_density(p, None, 1),
    "lattice-step": lambda p: lattice_tensors(p, "x"),
    "record-length": lambda p: sample_ensemble(p, 2, None, 1),
    "burn-in": lambda p: estimate_stats(sample_ensemble(p, 2, 5.0, 1), [0.0, 1.0], burn_in="x"),
    "fit-window": lambda p: decay_fit(p, "x", 2.0),
    "finite-length": lambda p: Finite(length="x", boundary_rho=np.eye(2) / 2),
    "dx": lambda p: compare_forms(RF_K, RF_R, FieldMoments.vacuum(), dx="x"),
    "source-eps": lambda p: generating_functional(p, SourceField(np.zeros(8), np.zeros(8)), eps=None),
}


@pytest.mark.parametrize("call", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_a_scalar_that_is_not_a_number_is_bad_input(rf, call):
    # a raw ValueError or TypeError would break the error contract
    with pytest.raises(ValidationError, match=r"must be a real number, got ('x'|None)$"):
        call(rf)


ZERO = np.zeros((2, 2))
WORD_MATRIX = [["x", 0.0], [0.0, 0.0]]
NUMBERS_ONLY = r"must hold numbers only, got .*'x'"
NOT_A_PAIR = r"an insertion must be a \(position, kind\) pair, got "
# one call per array, matrix, moment or insertion read; each input holds
# something that is not a number
NOT_NUMBER_ARRAYS = {
    "two-point": (lambda p: two_point(p, ["x"]), "separations " + NUMBERS_ONLY),
    "pair-correlation": (lambda p: pair_correlation(p, [0.0, "x"]), "separations " + NUMBERS_ONLY),
    "no-jump-survival": (lambda p: no_jump_survival(p, ["x"]), "tau " + NUMBERS_ONLY),
    "waiting-analytic": (lambda p: waiting_time_analytic(p, ["x"]), "tau " + NUMBERS_ONLY),
    "waiting-bins": (lambda p: waiting_bin_probs(p, ["x", 1.0]), "bin edges " + NUMBERS_ONLY),
    "estimate-stats": (lambda p: estimate_stats(sample_ensemble(p, 2, 5.0, 1), ["x", 1.0]),
                       "bin edges " + NUMBERS_ONLY),
    "convergence-eps": (lambda p: convergence_study(p, ["x", 0.01]), "eps " + NUMBERS_ONLY),
    "convergence-separation": (lambda p: convergence_study(p, [0.02, 0.01], ("pair", "x")),
                               "separation must be a real number, got 'x'$"),
    "convergence-separation-none": (lambda p: convergence_study(p, [0.02, 0.01], ("pair", None)),
                                    "separation must be a real number, got None$"),
    "insertion-position": (lambda p: expectation(p, [("x", "create")]),
                           "insertion position must be a real number, got 'x'$"),
    "insertion-swapped": (lambda p: family_derivative(p, ZERO, ZERO, [("create", 0.0)]),
                          "insertion position must be a real number, got 'create'$"),
    "insertion-short": (lambda p: family_derivative(p, ZERO, ZERO, [(0.0,)]),
                        NOT_A_PAIR + r"\(0.0,\)$"),
    "insertion-long": (lambda p: family_derivative(p, ZERO, ZERO, [(0.0, "create", 1)]),
                       NOT_A_PAIR + r"\(0.0, 'create', 1\)$"),
    "direction": (lambda p: family_derivative(p, "x", ZERO, [(0.0, "create")]),
                  "dK " + NUMBERS_ONLY),
    "new-cmps": (lambda p: new_cmps(2, WORD_MATRIX, p.R), "K " + NUMBERS_ONLY),
    "boundary-rho": (lambda p: Finite(length=1.0, boundary_rho=WORD_MATRIX),
                     "boundary_rho " + NUMBERS_ONLY),
    "source-field": (lambda p: SourceField(["x"], [0.0]), "source lam " + NUMBERS_ONLY),
    "compare-forms": (lambda p: compare_forms(WORD_MATRIX, RF_R, FieldMoments.vacuum()),
                      "K " + NUMBERS_ONLY),
    "field-moments": (lambda p: FieldMoments("x", 0, 0, 1), "field moments " + NUMBERS_ONLY),
    "thermal": (lambda p: FieldMoments.thermal("x"),
                "thermal occupation must be a real number, got 'x'$"),
    # a complex array where a real one is asked for: NumPy read its real part
    "complex-separations": (lambda p: two_point(p, np.array([1.0 + 1j])),
                            r"separations must be real, got array\(\[1.\+1.j\]\)$"),
    "complex-tau": (lambda p: no_jump_survival(p, np.array([0.5j])), "tau must be real, got "),
    "complex-bin-edges": (lambda p: waiting_bin_probs(p, np.array([0.0, 1.0 + 0j])),
                          "bin edges must be real, got "),
    "complex-eps": (lambda p: convergence_study(p, np.array([0.02, 0.01 + 1e-3j])),
                    "eps must be real, got "),
}


@pytest.mark.parametrize("call, message", NOT_NUMBER_ARRAYS.values(), ids=NOT_NUMBER_ARRAYS.keys())
def test_an_input_that_is_not_numbers_is_bad_input(rf, call, message):
    # each used to raise a raw ValueError or TypeError
    with pytest.raises(ValidationError, match=message):
        call(rf)


VACUUM = FieldMoments.vacuum()
NAN_K = np.full((2, 2), np.nan)
PAIR_SHAPES = r"K and R must be square and equal-shaped, got "


def _window(k, r, length=1.0):
    return new_cmps(2, k, r, Finite(length=length, boundary_rho=np.eye(2) / 2))


# one call per refusal that no other test reaches, with its error and
# message.  The first rows are inputs that lindblad read without the (K, R)
# pair rule or a finiteness check: jump_decomposition returned 3 x 3
# operators beside a 2 x 2 K, or 1-d "operators", and a NaN K gave an
# all-NaN generator, which compare_forms refused as a numerical failure
REFUSED = {
    "jump-shapes": (lambda p: jump_decomposition(np.eye(2), np.eye(3), VACUUM),
                    ShapeMismatchError, PAIR_SHAPES + r"\(2, 2\), \(3, 3\)$"),
    "jump-vectors": (lambda p: jump_decomposition(np.ones(2), np.ones(2), VACUUM),
                     ShapeMismatchError, PAIR_SHAPES + r"\(2,\), \(2,\)$"),
    "generator-nan-k": (lambda p: build_general_generator(NAN_K, RF_R, VACUUM),
                        ValidationError, "^K must be finite, got nan$"),
    "compare-nan-k": (lambda p: compare_forms(NAN_K, np.eye(2), VACUUM),
                      ValidationError, "^K must be finite, got nan$"),
    "jump-inf-r": (lambda p: jump_decomposition(RF_K, np.full((2, 2), np.inf), VACUUM),
                   ValidationError, "^R must be finite, got inf$"),
    "moments-tuple": (lambda p: jump_decomposition(RF_K, RF_R, (0.0, 0.0, 0.0, 2.0)),
                      InvalidMomentsError, "^psi_psi_dag must equal psi_dag_psi \\+ 1$"),
    # NumPy's eigensolve raised its own LinAlgError, outside the error contract
    "choi-nan": (lambda p: choi_min_eigenvalue(np.full((4, 4), np.nan)), NoConvergenceError,
                 "^channel matrix is not finite$"),
    "decay-fit-window": (lambda p: decay_fit(p, 2.0, 2.0), NegativeDistanceError,
                         "^need d_max > d_min$"),
    # R = 0 emits nothing: every value of the window's scan is 0
    "decay-fit-no-signal": (lambda p: decay_fit(_window(RF_K, ZERO, 4.0), 0.0, 2.0),
                            SignalBelowFloorError, r"^connected signal below 0.000e\+00 on "),
    "source-lengths": (lambda p: SourceField(np.zeros(3), np.zeros(2)), ShapeMismatchError,
                       r"^lam and mu must be equal-length 1d arrays, got \(3,\), \(2,\)$"),
    "sources-not-iterable": (lambda p: generating_functional(p, 1.0, 0.1), ShapeMismatchError,
                             "^sources must be a SourceField or a non-empty sequence of them$"),
    "sources-short-of-window": (lambda p: generating_functional(
        _window(RF_K, RF_R), SourceField(np.zeros(3), np.zeros(3)), 0.25), ShapeMismatchError,
        "^3 sites of step 0.25 do not cover length 1.0$"),
    "consistency-three-sites": (lambda p: source_consistency_check(p, 0.1, 1e-3, 3),
                                ShapeMismatchError, "^need at least 4 lattice sites$"),
    "consistency-one-site": (lambda p: source_consistency_check(p, 0.1, 1e-3, 4, (2, 2)),
                             ShapeMismatchError, r"^site pair \(2, 2\) invalid for 4 sites$"),
    "fixed-mode-degenerate": (lambda p: liouville.fixed_mode(np.array([0.0, 1e-12, -1.0]), 1e-10),
                              DegenerateFixedSpaceError, "^fixed space is degenerate; "),
    "geometry-name": (lambda p: new_cmps(2, RF_K, RF_R, "finite"), ShapeMismatchError,
                      "^unknown geometry 'finite'$"),
}


@pytest.mark.parametrize("call, error, message", REFUSED.values(), ids=REFUSED.keys())
def test_each_refusal_raises_its_error(rf, call, error, message):
    with pytest.raises(error, match=message):
        call(rf)
