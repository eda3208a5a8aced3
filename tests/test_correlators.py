import tracemalloc

import numpy as np
import pytest

from cmps_lab import (
    Finite,
    Thermodynamic,
    annihilate,
    build_liouvillian,
    create,
    decay_fit,
    density,
    deriv_annihilate,
    expectation,
    family_derivative,
    generating_functional,
    kinetic_density,
    lieb_liniger_energy_density,
    new_cmps,
    pair_correlation,
    pair_density,
    source_consistency_check,
    spectral_envelope,
    steady_state,
    two_point,
)
from cmps_lab.correlators import INSERTIONS, Insertion, SourceField, insertion
from cmps_lab.errors import (
    GaplessStateError,
    NonHermitianKError,
    PositionOutOfRangeError,
    ShapeMismatchError,
    UnsortedPositionsError,
    ZeroDensityError,
)

from conftest import DAMP_K, DAMP_R, RF_K, RF_R, rand_herm, rand_mat, random_instance

def master_equation_g2(K, R, taus, rtol=1e-11):
    """Independent pair-correlation oracle: integrate the master equation
    with solve_ivp from the post-jump state and normalize the conditional
    emission rate by the stationary one."""
    from scipy.integrate import solve_ivp

    d = K.shape[0]

    def rhs(_, y):
        rho = y.reshape(d, d)
        out = (
            -1j * (K @ rho - rho @ K)
            + R @ rho @ R.conj().T
            - 0.5 * (R.conj().T @ R @ rho + rho @ R.conj().T @ R)
        )
        return out.reshape(-1)

    # relax far past the slowest rate to get the stationary state
    horizon = 60.0
    rho0 = np.eye(d, dtype=complex).reshape(-1) / d
    ss = solve_ivp(rhs, (0.0, horizon), rho0, rtol=rtol, atol=1e-13).y[:, -1].reshape(d, d)
    n_ss = np.trace(R @ ss @ R.conj().T).real
    start = R @ ss @ R.conj().T / n_ss
    sol = solve_ivp(rhs, (0.0, max(taus) + 1e-9), start.reshape(-1), rtol=rtol,
                    atol=1e-13, t_eval=taus, dense_output=False)
    vals = []
    for k in range(len(taus)):
        rho = sol.y[:, k].reshape(d, d)
        vals.append(np.trace(R @ rho @ R.conj().T).real / n_ss)
    return np.array(vals)


def test_coherent_state_values(coherent):
    p = coherent(r=0.8)
    assert abs(density(p) - 0.64) < 1e-12
    tp = two_point(p, np.array([0.0, 0.5, 3.0, 10.0]))
    assert np.abs(tp.values - 0.64).max() < 1e-12
    g2 = pair_correlation(p, np.array([0.0, 1.0, 7.0]))
    assert np.abs(g2.values - 1.0).max() < 1e-12
    assert abs(kinetic_density(p)) < 1e-12


def test_rf_density_and_moments(rf):
    assert abs(density(rf) - 1.0 / 3.0) < 1e-12
    assert abs(kinetic_density(rf) - 1.0 / 6.0) < 1e-12
    # e = kinetic + c <pair> - mu <n>; the emitter never holds two photons
    assert abs(lieb_liniger_energy_density(rf, 1.0, 1.0) - (1.0 / 6.0 - 1.0 / 3.0)) < 1e-12
    e = lieb_liniger_energy_density(rf, 2.0, 0.5)
    pair = expectation(rf, [(0.0, pair_density(rf)), (0.0, pair_density(rf))])
    assert abs(e - (1.0 / 6.0 + 2.0 * pair.real - 0.5 / 3.0)) < 1e-12


def test_pair_correlation_does_not_depend_on_the_length_unit(rf):
    # g2 is dimensionless: at s = 1e-15 the density is 3.3e-16 per unit
    # length, small in that unit but far from zero relative to ||R||^2
    s = 1e-15
    p = new_cmps(2, s * RF_K, np.sqrt(s) * RF_R)
    d = np.array([0.0, 0.5, 2.0])
    assert density(p) / s == pytest.approx(1.0 / 3.0, rel=1e-8)
    got = pair_correlation(p, d / s).values
    assert np.abs(got - pair_correlation(rf, d).values).max() < 1e-8
    with pytest.raises(ZeroDensityError):
        pair_correlation(new_cmps(2, s * DAMP_K, np.sqrt(s) * DAMP_R), d / s)  # dark


@pytest.mark.parametrize("s", [1.0, 1e-6])
def test_window_end_is_reachable_in_every_length_unit(s):
    # 3 * (0.1 / s) overshoots 0.3 / s by one rounding step in every unit
    window = Finite(length=0.3 / s, boundary_rho=np.eye(2) / 2)
    p = new_cmps(2, s * RF_K, np.sqrt(s) * RF_R, window)
    unit = new_cmps(2, RF_K, RF_R, Finite(length=0.3, boundary_rho=np.eye(2) / 2))
    got = expectation(p, [(3 * (0.1 / s), annihilate(p))]) / np.sqrt(s)
    assert got == pytest.approx(expectation(unit, [(0.3, annihilate(unit))]), rel=1e-10)


def test_rf_pair_correlation_against_integrated_master_equation(rf):
    d = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    got = pair_correlation(rf, d).values.real
    oracle = master_equation_g2(RF_K, RF_R, d)
    assert got[0] < 1e-12  # antibunching: a fresh emitter cannot emit again
    assert np.abs(got - oracle).max() < 1e-7


def test_two_point_approaches_density_at_least_linearly(rf):
    # the deviation err(d) must vanish no slower than d; instances with
    # extra symmetry (this one) come in quadratically
    steps = (1e-2, 1e-3, 1e-4)
    for p in (rf, random_instance(90)):
        n = density(p)
        errs = [abs(complex(two_point(p, np.array([d])).values[0]) - n) for d in steps]
        assert errs[-1] < 1e-5 * max(1.0, n)
        slopes = [e / d for e, d in zip(errs, steps)]
        assert slopes[1] <= slopes[0] * 1.05 and slopes[2] <= slopes[1] * 1.05


def test_two_point_hermitian_symmetry():
    p = random_instance(42)
    d = 1.3
    fwd = expectation(p, [(0.0, create(p)), (d, annihilate(p))])
    rev = expectation(p, [(0.0, annihilate(p)), (d, create(p))])
    assert abs(fwd - np.conj(rev)) < 1e-12


def test_rf_envelope_constants(rf):
    c0, pref, gap = spectral_envelope(rf)
    assert abs(c0 - 1.0 / 9.0) < 1e-12
    assert abs(gap - 0.5) < 1e-12
    assert 0.25 < pref < 0.4
    d = np.linspace(1.0, 20.0, 30)
    conn = np.abs(two_point(rf, d).values - c0)
    assert np.all(conn <= pref * np.exp(-gap * d) + 1e-12)


def test_clustering_bound_random_instances():
    d = np.linspace(1.0, 15.0, 25)
    found = 0
    seed = 0
    while found < 5 and seed < 60:
        seed += 1
        try:
            p = random_instance(7000 + seed, dims=(2, 5))
            c0, pref, gap = spectral_envelope(p)
        except GaplessStateError:
            continue
        if not 0.05 <= gap <= 1.5:
            continue
        found += 1
        conn = np.abs(two_point(p, d).values - c0)
        assert np.all(conn <= pref * np.exp(-gap * d) + 1e-12)
    assert found == 5


def test_damping_two_point_and_fit(damping_finite):
    d = np.linspace(0.0, 6.0, 13)
    vals = two_point(damping_finite, d).values
    assert np.abs(vals - np.exp(-0.5 * d)).max() < 1e-10
    fit = decay_fit(damping_finite, 0.5, 6.0, n_points=12)
    assert abs(fit.rate - 0.5) < 1e-6
    assert abs(fit.prefactor - 1.0) < 1e-6
    assert fit.residual < 1e-8


def test_decay_fit_does_not_depend_on_the_length_unit(rf):
    # the signal floor is relative to the values, which scale like 1/length
    ref = decay_fit(rf, 1.0, 30.0)
    assert ref.n_used == 33
    for s in (1e-8, 1e-12):
        p = new_cmps(2, s * RF_K, np.sqrt(s) * RF_R)
        fit = decay_fit(p, 1.0 / s, 30.0 / s)
        assert fit.n_used == 33
        assert fit.rate / s == pytest.approx(ref.rate, rel=1e-8)


def test_rf_decay_fit_sees_slowest_mode(rf):
    # connected correlator decays at the gap rate, which is real for this
    # instance (the oscillatory pair lies deeper)
    fit = decay_fit(rf, 2.0, 10.0)
    assert abs(fit.rate - 0.5) / 0.5 < 0.05


def test_gapless_and_validation_errors(coherent):
    p1 = coherent()
    with pytest.raises(GaplessStateError):
        spectral_envelope(p1)
    with pytest.raises(GaplessStateError):
        decay_fit(p1, 1.0, 5.0)
    p = new_cmps(2, RF_K, RF_R)
    with pytest.raises(UnsortedPositionsError):
        expectation(p, [(1.0, create(p)), (0.5, annihilate(p))])
    with pytest.raises(ShapeMismatchError):
        q = new_cmps(3, np.zeros((3, 3)), np.ones((3, 3)))
        expectation(p, [(0.0, create(q))])
    fin = new_cmps(2, RF_K, RF_R, Finite(length=2.0, boundary_rho=np.eye(2) / 2))
    with pytest.raises(PositionOutOfRangeError):
        expectation(fin, [(0.0, create(fin)), (3.0, annihilate(fin))])
    dark = new_cmps(2, RF_K, np.zeros((2, 2)),
                    Finite(length=2.0, boundary_rho=np.eye(2) / 2))
    with pytest.raises(ZeroDensityError):
        pair_correlation(dark, np.array([1.0]))


def test_negative_separation_rejected(rf):
    from cmps_lab.errors import NegativeDistanceError

    with pytest.raises(NegativeDistanceError):
        two_point(rf, np.array([-0.5]))


def test_family_derivative_trivial_directions(rf):
    zero = np.zeros((2, 2))
    val = family_derivative(rf, zero, zero, [(0.0, pair_density(rf))])
    assert abs(val) < 1e-12
    # no insertions: the norm is stationary along any admissible family
    rng = np.random.default_rng(5)
    assert abs(family_derivative(rf, rand_herm(2, rng), rand_mat(2, rng), [])) < 1e-10


def test_family_derivative_rejects_nonhermitian_dk(rf):
    with pytest.raises(NonHermitianKError):
        family_derivative(rf, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)),
                          [(0.0, pair_density(rf))])
    with pytest.raises(ShapeMismatchError):
        family_derivative(rf, np.zeros((3, 3)), np.zeros((3, 3)),
                          [(0.0, pair_density(rf))])


def test_family_derivative_matches_central_differences():
    rng = np.random.default_rng(21)
    d = 3
    K, R = rand_herm(d, rng), 0.6 * rand_mat(d, rng)
    dK, dR = 0.3 * rand_herm(d, rng), 0.3 * rand_mat(d, rng)
    rho = rand_mat(d, rng)
    rho = rho @ rho.conj().T
    window = Finite(length=2.0, boundary_rho=rho / np.trace(rho).real)
    for geometry in (Thermodynamic(), window):
        base = new_cmps(d, K, R, geometry)
        val = family_derivative(base, dK, dR,
                                [(0.0, create(base)), (0.9, deriv_annihilate(base)),
                                 (1.4, annihilate(base))])

        def observable(t):
            p = new_cmps(d, K + t * dK, R + t * dR, geometry)
            return expectation(p, [(0.0, create(p)), (0.9, deriv_annihilate(p)),
                                   (1.4, annihilate(p))])

        errs = [abs((observable(h) - observable(-h)) / (2 * h) - val) for h in (0.02, 0.01)]
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert errs[1] < 1e-3


@pytest.mark.parametrize("geometry", ["thermodynamic", "finite"])
@pytest.mark.parametrize("kind", sorted(INSERTIONS))
def test_family_derivative_of_each_kind_matches_central_differences(kind, geometry):
    # the kind sits at the opening point and again after a free leg, so its
    # tangent enters both before and after the propagation moves
    rng = np.random.default_rng(23)
    d = 3
    K, R = rand_herm(d, rng), 0.6 * rand_mat(d, rng)
    dK, dR = 0.3 * rand_herm(d, rng), 0.3 * rand_mat(d, rng)
    rho = rand_mat(d, rng)
    rho = rho @ rho.conj().T
    geom = (Thermodynamic() if geometry == "thermodynamic"
            else Finite(length=2.0, boundary_rho=rho / np.trace(rho).real))

    def chain(p):
        return [(0.0, insertion(p, kind)), (0.7, create(p)), (1.4, insertion(p, kind))]

    def observable(t):
        p = new_cmps(d, K + t * dK, R + t * dR, geom)
        return expectation(p, chain(p))

    def central(h):
        return (observable(h) - observable(-h)) / (2 * h)

    h = 1e-3
    richardson = (4.0 * central(h / 2) - central(h)) / 3.0
    base = new_cmps(d, K, R, geom)
    val = family_derivative(base, dK, dR, chain(base))
    assert abs(richardson) > 1e-3
    assert abs(val - richardson) < 1e-8 * abs(richardson)


def test_family_derivative_rejects_an_insertion_of_unknown_kind(rf):
    custom = Insertion("custom", annihilate(rf).superop)
    with pytest.raises(ShapeMismatchError, match="unknown kind 'custom'"):
        family_derivative(rf, np.zeros((2, 2)), np.zeros((2, 2)),
                          [(0.0, create(rf)), (0.5, custom)])
    with pytest.raises(ShapeMismatchError, match="unknown insertion kind 'custom'"):
        insertion(rf, "custom")


def test_family_derivative_is_exact_on_a_stiff_instance():
    """Unit gap, but K makes ||L||_1 about 115: fast oscillation that a
    quadrature grid at a fixed step resolves only to about 1e-4."""
    rng = np.random.default_rng(0)
    d = 3
    K, R = 30.0 * rand_herm(d, rng), rand_mat(d, rng)
    gap = steady_state(build_liouvillian(K, R)).gap
    K, R = K / gap, R / np.sqrt(gap)  # a change of length unit: unit gap
    dK, dR = 0.5 * rand_herm(d, rng), 0.5 * rand_mat(d, rng)
    rho = rand_mat(d, rng)
    rho = rho @ rho.conj().T
    window = Finite(length=2.0, boundary_rho=rho / np.trace(rho).real)
    for geometry in (Thermodynamic(), window):

        def chain(p):
            return [(0.5, create(p)), (1.5, annihilate(p))]

        def observable(t):
            p = new_cmps(d, K + t * dK, R + t * dR, geometry)
            return expectation(p, chain(p))

        def central(h):
            return (observable(h) - observable(-h)) / (2 * h)

        h = 1e-4
        richardson = (4.0 * central(h / 2) - central(h)) / 3.0
        base = new_cmps(d, K, R, geometry)
        val = family_derivative(base, dK, dR, chain(base))
        assert abs(val - richardson) < 1e-8 * abs(richardson)


def test_generating_functional_normalization(rf):
    sources = SourceField(lam=np.zeros(30), mu=np.zeros(30))
    z = generating_functional(rf, sources, eps=0.05)
    assert abs(z - 1.0) < 1e-12


def test_source_consistency_shrinks_under_refinement(rf):
    levels = [(0.1, 0.02, 40), (0.05, 0.01, 80), (0.025, 0.005, 160)]
    singles, doubles = [], []
    for eps, h, n in levels:
        out = source_consistency_check(rf, eps=eps, h=h, n_sites=n)
        singles.append(out["single_insertion_error"])
        doubles.append(out["two_insertion_error"])
    assert singles[0] < 1e-6 and doubles[0] < 1e-3
    assert singles[0] / singles[1] > 1.5 and singles[1] / singles[2] > 1.5
    assert doubles[0] / doubles[1] > 1.5 and doubles[1] / doubles[2] > 1.5


def test_kinetic_density_matches_lattice_stencil(rf):
    from cmps_lab import lattice_correlators, lattice_tensors

    kin = kinetic_density(rf)
    ests = []
    for eps in (0.004, 0.002):
        t = lattice_tensors(rf, eps)
        occ = lattice_correlators(t, "occupation")
        hop = lattice_correlators(t, "hopping", distances=[1])[0]
        ests.append(2.0 * (occ - hop.real) / eps**2)
    richardson = 2.0 * ests[1] - ests[0]
    assert abs(richardson - kin) / kin < 1e-4


def test_two_point_holds_one_propagator_at_a_time():
    # every one of 200 distinct separations needs its own exp(L dx); a chain
    # that kept them would hold 200 propagators of (D^2)^2 complex entries
    rng = np.random.default_rng(11)
    d = 8
    p = new_cmps(d, rand_herm(d, rng), 0.7 * rand_mat(d, rng))
    seps = np.sort(rng.uniform(0.0, 10.0, 200))
    assert np.unique(np.diff(seps)).size == seps.size - 1
    propagator_bytes = (d * d) ** 2 * 16
    tracemalloc.start()
    try:
        two_point(p, seps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * propagator_bytes
