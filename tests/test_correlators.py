import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from cmps_lab import (
    Finite,
    Thermodynamic,
    build_liouvillian,
    decay_fit,
    density,
    expectation,
    family_derivative,
    generating_functional,
    kinetic_density,
    lieb_liniger_energy_density,
    liouville,
    new_cmps,
    pair_correlation,
    source_consistency_check,
    spectral_envelope,
    steady_state,
    trace_functional,
    two_point,
)
from cmps_lab import core, correlators
from cmps_lab.correlators import INSERTIONS, SourceField
from cmps_lab.errors import (
    GaplessStateError,
    NoConvergenceError,
    NonHermitianKError,
    PositionOutOfRangeError,
    ShapeMismatchError,
    UnsortedPositionsError,
    ValidationError,
    ZeroDensityError,
)
from cmps_lab.liouville import GENERATOR, fields

from conftest import (
    DAMP_K,
    DAMP_R,
    EXCITED,
    HUGE_X_K,
    HUGE_X_R,
    JORDAN_K,
    RF_K,
    RF_R,
    kron_map,
    rand_herm,
    rand_mat,
    random_instance,
    vec,
)

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
    pair = expectation(rf, [(0.0, "pair_density"), (0.0, "pair_density")])
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
    got = expectation(p, [(3 * (0.1 / s), "annihilate")]) / np.sqrt(s)
    assert got == pytest.approx(expectation(unit, [(0.3, "annihilate")]), rel=1e-10)


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
    fwd = expectation(p, [(0.0, "create"), (d, "annihilate")])
    rev = expectation(p, [(0.0, "annihilate"), (d, "create")])
    assert abs(fwd - np.conj(rev)) < 1e-12


def test_rf_envelope_constants(rf):
    c0, pref, gap = spectral_envelope(rf)
    assert abs(c0 - 1.0 / 9.0) < 1e-12
    assert abs(gap - 0.5) < 1e-12
    assert 0.25 < pref < 0.4
    d = np.linspace(1.0, 20.0, 30)
    conn = np.abs(two_point(rf, d).values - c0)
    assert np.all(conn <= pref * np.exp(-gap * d) + 1e-12)


def test_envelope_constant_is_the_product_of_one_point_functions():
    # spectral_envelope's c0 is tr(R rho) tr(rho R^dag), the constant that
    # decay_fit subtracts, read the same way; the eigendecomposition's
    # coefficient was up to 1e-13 off
    checked = 0
    for seed in range(500, 540):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        p = new_cmps(d, rand_herm(d, rng), 0.7 * rand_mat(d, rng))
        try:
            c0, _, _ = spectral_envelope(p)
        except GaplessStateError:
            continue
        rho = p.stationary.steady_state / np.trace(p.stationary.steady_state)
        want = np.trace(p.R @ rho) * np.trace(rho @ p.R.conj().T)
        assert abs(c0 - want) <= 1e-14 * abs(want)
        checked += 1
    assert checked >= 30


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


def test_decay_fit_reads_a_tail_below_the_range_of_its_prefactor():
    # on [1430, 1440] the signal e^{-d/2} is below 2^-1022 of its prefactor
    # 1: the fit, run on log(y / 2^ey), reads the prefactor exp(c) 2^ey as
    # exp(c - n ln 2) 2^(n + ey), so exp(c), about 2^1032, never overflows
    p = new_cmps(2, DAMP_K, DAMP_R, Finite(length=1500.0, boundary_rho=EXCITED))
    fit = decay_fit(p, 1430.0, 1440.0, n_points=9)
    assert abs(fit.rate - 0.5) < 1e-10 and abs(fit.prefactor - 1.0) < 1e-8


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
    with pytest.raises(GaplessStateError):
        family_derivative(p1, np.zeros((1, 1)), np.ones((1, 1)),
                          [(0.0, "create"), (1.0, "annihilate")])
    p = new_cmps(2, RF_K, RF_R)
    with pytest.raises(UnsortedPositionsError):
        expectation(p, [(1.0, "create"), (0.5, "annihilate")])
    for kind in ("bogus", ["pair_density"]):
        with pytest.raises(ShapeMismatchError, match="unknown insertion kind"):
            expectation(p, [(0.0, "create"), (0.5, kind)])
    fin = new_cmps(2, RF_K, RF_R, Finite(length=2.0, boundary_rho=np.eye(2) / 2))
    with pytest.raises(PositionOutOfRangeError):
        expectation(fin, [(0.0, "create"), (3.0, "annihilate")])
    dark = new_cmps(2, RF_K, np.zeros((2, 2)),
                    Finite(length=2.0, boundary_rho=np.eye(2) / 2))
    with pytest.raises(ZeroDensityError):
        pair_correlation(dark, np.array([1.0]))


def test_an_insertion_belongs_to_no_parameter_set():
    # a kind name is resolved against the field table of the set it is
    # evaluated on, so two sets of one dimension cannot be mixed
    rng = np.random.default_rng(1)
    a = new_cmps(3, rand_herm(3, rng), rand_mat(3, rng))
    b = new_cmps(3, rand_herm(3, rng), rand_mat(3, rng))
    d = 1.0
    chain = [(0.0, "create"), (d, "annihilate")]
    assert expectation(b, chain) == two_point(b, [d]).values[0]
    assert expectation(a, chain) == two_point(a, [d]).values[0]
    assert abs(expectation(a, chain) - expectation(b, chain)) > 0.1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("geometry", ["thermodynamic", "finite"])
def test_non_finite_positions_are_bad_input(bad, geometry):
    geom = (Thermodynamic() if geometry == "thermodynamic"
            else Finite(length=2.0, boundary_rho=np.eye(2) / 2))
    p = new_cmps(2, RF_K, RF_R, geom)
    with pytest.raises(ValidationError, match="finite"):
        two_point(p, np.array([0.5, bad]))
    with pytest.raises(ValidationError, match="finite"):
        expectation(p, [(0.0, "create"), (bad, "annihilate")])
    with pytest.raises(ValidationError, match="finite"):
        expectation(p, [(bad, "pair_density")])
    with pytest.raises(ValidationError, match="finite"):
        family_derivative(p, 0.1 * np.eye(2), np.zeros((2, 2)),
                          [(0.0, "create"), (bad, "annihilate")])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_steps_and_sources_are_bad_input(rf, bad):
    # a NaN step fails every comparison, so "eps <= 0" alone let it through
    zeros = np.zeros(8)
    named = f"finite, got {bad}"
    with pytest.raises(ValidationError, match=named):
        generating_functional(rf, SourceField(zeros, zeros), bad)
    with pytest.raises(ValidationError, match=named):
        source_consistency_check(rf, 0.1, bad, 8)
    with pytest.raises(ValidationError, match=named):
        source_consistency_check(rf, bad, 0.01, 8)
    for lam, mu in ((zeros + bad, zeros), (zeros, zeros + 1j * bad)):
        with pytest.raises(ValidationError, match="finite"):
            SourceField(lam, mu)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_fit_window_is_bad_input(rf, bad):
    # an infinite end made the fit grid non-finite (a RuntimeWarning), not
    # an error
    with pytest.raises(ValidationError, match=f"finite, got .*{bad}"):
        decay_fit(rf, 0.0, bad)
    with pytest.raises(ValidationError, match=f"finite, got .*{bad}"):
        decay_fit(rf, bad, 10.0)


def test_negative_separation_rejected(rf):
    from cmps_lab.errors import NegativeDistanceError

    with pytest.raises(NegativeDistanceError):
        two_point(rf, np.array([-0.5]))


def test_a_separation_grid_that_is_not_one_dimensional_is_refused(rf):
    # a 2-D grid reached float() of an array and raised a bare TypeError
    for correlator in (two_point, pair_correlation):
        with pytest.raises(ShapeMismatchError, match=r"1-D grid, got shape \(2, 2\)"):
            correlator(rf, [[0.0, 1.0], [2.0, 3.0]])


def test_family_derivative_trivial_directions(rf):
    zero = np.zeros((2, 2))
    val = family_derivative(rf, zero, zero, [(0.0, "pair_density")])
    assert abs(val) < 1e-12
    # no insertions: the norm is stationary along any admissible family
    rng = np.random.default_rng(5)
    assert abs(family_derivative(rf, rand_herm(2, rng), rand_mat(2, rng), [])) < 1e-10


def test_family_derivative_rejects_nonhermitian_dk(rf):
    with pytest.raises(NonHermitianKError):
        family_derivative(rf, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)),
                          [(0.0, "pair_density")])
    with pytest.raises(ShapeMismatchError):
        family_derivative(rf, np.zeros((3, 3)), np.zeros((3, 3)),
                          [(0.0, "pair_density")])


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
        chain = [(0.0, "create"), (0.9, "deriv_annihilate"), (1.4, "annihilate")]
        val = family_derivative(base, dK, dR, chain)

        def observable(t):
            return expectation(new_cmps(d, K + t * dK, R + t * dR, geometry), chain)

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

    chain = [(0.0, kind), (0.7, "create"), (1.4, kind)]

    def observable(t):
        return expectation(new_cmps(d, K + t * dK, R + t * dR, geom), chain)

    def central(h):
        return (observable(h) - observable(-h)) / (2 * h)

    h = 1e-3
    richardson = (4.0 * central(h / 2) - central(h)) / 3.0
    base = new_cmps(d, K, R, geom)
    val = family_derivative(base, dK, dR, chain)
    assert abs(richardson) > 1e-3
    assert abs(val - richardson) < 1e-8 * abs(richardson)


def test_family_derivative_rejects_an_insertion_of_unknown_kind(rf):
    for kind in ("custom", ["pair_density"]):
        with pytest.raises(ShapeMismatchError, match=re.escape(f"unknown insertion kind {kind!r}")):
            family_derivative(rf, np.zeros((2, 2)), np.zeros((2, 2)),
                              [(0.0, "create"), (0.5, kind)])


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

        chain = [(0.5, "create"), (1.5, "annihilate")]

        def observable(t):
            return expectation(new_cmps(d, K + t * dK, R + t * dR, geometry), chain)

        def central(h):
            return (observable(h) - observable(-h)) / (2 * h)

        h = 1e-4
        richardson = (4.0 * central(h / 2) - central(h)) / 3.0
        base = new_cmps(d, K, R, geometry)
        val = family_derivative(base, dK, dR, chain)
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


def test_two_point_holds_one_propagator_at_a_time(monkeypatch):
    # every one of 200 distinct separations needs its own exp(L dx); a chain
    # that kept them would hold 200 propagators of (D^2)^2 complex entries.
    # Read from the eigenmodes, the 200 stops build no stops x modes array;
    # walked (EIG_COND_LIMIT = 0), the chain holds one propagator at a time
    rng = np.random.default_rng(11)
    d = 8
    k, r = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    seps = np.sort(rng.uniform(0.0, 10.0, 200))
    assert np.unique(np.diff(seps)).size == seps.size - 1
    propagator_bytes = (d * d) ** 2 * 16
    for limit in (liouville.EIG_COND_LIMIT, 0.0):
        monkeypatch.setattr(liouville, "EIG_COND_LIMIT", limit)
        p = new_cmps(d, k, r)
        tracemalloc.start()
        try:
            two_point(p, seps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.generator.modes.certified == (limit > 0.0)
        assert peak < 32 * propagator_bytes


def test_a_long_scan_is_read_from_the_eigenmodes_in_bounded_memory():
    # 20 000 stops at D = 8 (64 modes): the stops x modes table of
    # exponentials would take 20.5 MB; read SUMS_CHUNK entries at a time the
    # whole call peaks at about 5.3 MB.  The values agree with a per-stop
    # sum over the same modes, and every d = 0 value is the walked one
    rng = np.random.default_rng(31)
    d = 8
    k, r = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    seps = rng.uniform(0.0, 10.0, 20000)
    zeros = rng.choice(seps.size, 5, replace=False)
    seps[zeros] = 0.0
    p = new_cmps(d, k, r)
    tracemalloc.start()
    try:
        got = two_point(p, seps).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    modes = p.generator.modes
    assert modes.certified
    table_bytes = seps.size * modes.values.size * 16
    assert peak < table_bytes / 2
    chain = correlators._Chain(p)
    row, v = chain.covector("annihilate"), chain.act("create", chain.right)
    lam = modes.values.astype(complex)
    lam[liouville.fixed_mode(lam, chain.zero_real_tol)[0]] = 0.0
    c = (row @ modes.vectors) * np.linalg.solve(modes.vectors, v)
    want = np.array([c @ np.exp(lam * x) for x in seps])
    nonzero = seps != 0.0
    assert np.abs(got - want)[nonzero].max() <= 1e-14 * np.abs(want).max()
    walked = two_point(p, [0.0, 0.0, 1.0]).values[0]  # one nonzero step: walked
    assert np.array_equal(got[zeros], np.full(zeros.size, walked))


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_scans_read_from_the_eigenmodes_match_the_walked_scans(d, monkeypatch):
    # the stops of a scan read from the generator's eigenmodes against the
    # same scan walked leg by leg (EIG_COND_LIMIT = 0), out to d = 200,
    # in both geometries; d = 0 is read from the vector itself
    rng = np.random.default_rng([29, d])
    k, r = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    a = rand_mat(d, rng)
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    seps = np.concatenate([[0.0], np.geomspace(1e-3, 200.0, 12)])
    for geometry in (Thermodynamic(), Finite(length=200.0, boundary_rho=rho)):
        read = new_cmps(d, k, r, geometry)
        with monkeypatch.context() as m:
            m.setattr(liouville, "EIG_COND_LIMIT", 0.0)
            walked = new_cmps(d, k, r, geometry)
            want = [f(walked, seps).values for f in (two_point, pair_correlation)]
        got = [f(read, seps).values for f in (two_point, pair_correlation)]
        assert read.generator.modes.certified and not walked.generator.modes.certified
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
            assert g[0] == w[0]


def test_a_scan_read_from_the_eigenmodes_keeps_the_fixed_point_mode_at_any_distance(rf):
    # <create(0) annihilate(d)> tends to |<psi>|^2 = 1/9 on the driven
    # emitter.  eig puts the fixed point's eigenvalue 1.6e-16 off 0, which
    # moved the value at d = 1e6 by 1.6e-10 relative; it is read as 0
    seps = [0.0, 1.0, 1e3, 1e5, 1e6]
    values = two_point(rf, seps).values
    assert rf.generator.modes.certified
    assert np.abs(values[2:] - 1.0 / 9.0).max() <= 1e-15


def test_the_certificate_refuses_a_well_conditioned_basis_with_a_wrong_pair(monkeypatch):
    # R = 1e104 sigma_minus: eig gives the generator a basis with cond(V)
    # about 1, but the vector of its -1e208 mode is wrong by about ||L||.
    # The trace of the opening state, read at stops across that mode's
    # decay, is 1 at every stop (<1| exp(L d) = <1|); read from those modes
    # it fell to 0.5.  The backward error refuses them, and the scan walks
    p = new_cmps(2, RF_K, 1e104 * RF_R, Finite(4e-200, np.eye(2) / 2))
    modes = p.generator.modes
    h, v = p.generator.hmat, modes.vectors
    assert np.linalg.cond(v) <= liouville.EIG_COND_LIMIT
    assert np.abs(h @ v - v * modes.values).sum(axis=0).max() > 1e-3 * p.generator.scale
    assert not modes.certified
    expm, calls = scipy.linalg.expm, []
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(1) or expm(a))
    chain = correlators._Chain(p)
    seps = [0.0, 1e-209, 5e-209, 1e-208, 3e-208, 1e-200]
    traces = chain.read([], np.diff(seps, prepend=0.0))
    assert len(calls) == 5
    assert np.abs(traces - 1.0).max() <= 1e-14


def test_insertions_act_without_building_a_superoperator(monkeypatch):
    # an insertion acts on D x D matrices: the only D^2 x D^2 maps built
    # are the generator (three terms) and, in family_derivative, its tangent
    # (four pieces), each by one call of the one builder.  A finite chain at
    # one point walks no leg, so it builds no D^2 x D^2 map at all
    d = 6
    rng = np.random.default_rng(12)
    k, r = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    dk, dr = rand_herm(d, rng), rand_mat(d, rng)
    built = []
    dense = liouville.HermitianBasis.dense
    monkeypatch.setattr(liouville.HermitianBasis, "dense",
                        lambda self, terms, f: built.append(len(terms)) or dense(self, terms, f))
    chain = [(0.0, "create"), (0.7, "pair_density"), (1.3, "deriv_annihilate")]
    # (job, terms of each map built) in the thermodynamic geometry, then
    # in the finite one
    jobs = [(kinetic_density, [3], []),
            (lambda p: lieb_liniger_energy_density(p, 1.0, 0.5), [3], []),
            (lambda p: two_point(p, [0.0, 0.4, 1.1]), [3], [3]),
            (lambda p: pair_correlation(p, [0.0, 0.4]), [3], [3]),
            (lambda p: family_derivative(p, dk, dr, chain), [3, 4], [3, 4])]
    geometries = (Thermodynamic(), Finite(length=2.0, boundary_rho=np.eye(d) / d))
    for g, geometry in enumerate(geometries):
        for job, *counts in jobs:
            built.clear()
            job(new_cmps(d, k, r, geometry))
            assert sorted(built) == counts[g]


@pytest.mark.parametrize("seps, legs", [([0.0, 0.3, 0.3, 1.1, 2.0], 3), ([0.5, 1.0, 1.5], 1)])
def test_finite_two_point_runs_one_exponential_per_leg_length(monkeypatch, seps, legs):
    # the generator preserves the trace, so nothing right of the last
    # insertion is walked.  A certified basis reads every stop from the
    # eigenmodes and runs no expm; the driven emitter at its generator's
    # exceptional point has none, and a scan there makes one expm per
    # distinct nonzero leg, in a finite window as in the thermodynamic limit
    rng = np.random.default_rng(13)
    d = 3
    k, r = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    expm, calls = scipy.linalg.expm, []
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a.shape) or expm(a))
    for model, dim, expected in (((k, r), d, 0), ((JORDAN_K, RF_R), 2, legs)):
        for geometry in (Thermodynamic(), Finite(length=2.5, boundary_rho=np.eye(dim) / dim)):
            p = new_cmps(dim, *model, geometry)
            calls.clear()
            two_point(p, seps)
            assert p.generator.modes.certified == (expected == 0)
            assert calls == [(dim * dim, dim * dim)] * expected


def test_a_finite_chain_at_one_point_reads_the_boundary_state():
    # a single-point observable is tr(S rho0) / tr rho0, and the norm of a
    # finite chain is tr rho0, here 1 + 5e-13 (inside the trace check)
    rng = np.random.default_rng(14)
    d = 4
    k, r = rand_herm(d, rng), 0.7 * rand_mat(d, rng)
    a = rand_mat(d, rng)
    rho = a @ a.conj().T
    rho *= (1.0 + 5e-13) / np.trace(rho).real
    p = new_cmps(d, k, r, Finite(length=3.0, boundary_rho=rho))
    f = fields(k, r)
    trace = np.trace(rho).real
    for got, s in ((kinetic_density(p), f["X"]), (density(p), f["R"])):
        want = np.trace(s @ rho @ s.conj().T).real / trace
        assert abs(got - want) <= 1e-14 * want
    assert abs(two_point(p, [0.5]).normalization - trace) <= 1e-15


def test_spectral_envelope_runs_one_eigensolve(rf, monkeypatch):
    # the gap and the modes come from one eig of the real generator; they
    # match the decomposition of the complex row-stacked superoperators
    p = random_instance(7003)
    refs = []
    for q in (rf, p):
        f = fields(q.K, q.R)
        evals, vecs = np.linalg.eig(kron_map(GENERATOR, f))
        row = trace_functional(q.dim) @ kron_map(INSERTIONS["annihilate"], f)
        col = kron_map(INSERTIONS["create"], f) @ vec(q.stationary.steady_state)
        coefs = (row @ vecs) * np.linalg.solve(vecs, col)
        zero = np.argmin(np.abs(evals))
        rest = np.delete(coefs, zero)
        refs.append((coefs[zero], np.abs(rest).sum(), -np.delete(evals.real, zero).max()))
    calls = []
    for name in ("eig", "eigvals"):
        def counting(a, _name=name, _fn=getattr(np.linalg, name)):
            calls.append(_name)
            return _fn(a)
        monkeypatch.setattr(np.linalg, name, counting)
    for q, want in zip((rf, p), refs):
        calls.clear()
        got = spectral_envelope(q)
        assert calls == ["eig"]
        assert np.abs(np.subtract(got, want)).max() <= 1e-12 * max(1.0, abs(want[0]))
        calls.clear()
        decay_fit(new_cmps(q.dim, q.K, q.R), 1.0, 5.0)
        assert calls == ["eig"]


def test_spectral_envelope_refuses_an_eigenbasis_without_an_inverse(monkeypatch):
    # the envelope reads the coefficients of an uncertified basis too, but a
    # singular one has none: the envelope refuses it itself, before it asks
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    p = new_cmps(2, RF_K, RF_R)
    with pytest.raises(GaplessStateError,
                       match="^generator not diagonalizable: its eigenvectors are singular$"):
        spectral_envelope(p)
    assert p.generator.modes.inverse is None and not p.generator.modes.certified


def test_one_eigensolve_serves_every_scan_of_a_parameter_set(monkeypatch):
    # the generator's eigenmodes are computed once per parameter set and
    # read by the envelope, the decay fit and both separation scans; the
    # decay fit's gap is the fixed point's eigenvalue solve
    p = random_instance(7003)
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    spectral_envelope(p)
    decay_fit(p, 1.0, 5.0)
    two_point(p, np.linspace(0.0, 4.0, 9))
    pair_correlation(p, np.linspace(0.0, 4.0, 9))
    assert calls == [(p.dim**2, p.dim**2)]
    assert p.generator.modes.certified


@pytest.mark.parametrize("bad", ["nan_dK", "inf_dR"])
def test_family_derivative_rejects_a_direction_that_is_not_finite(rf, bad):
    dk, dr = np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex)
    if bad == "nan_dK":
        dk[0, 0] = np.nan
    else:
        dr[1, 0] = np.inf
    name = bad[-2:]
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        family_derivative(rf, dk, dr, [(0.0, "create"), (1.0, "annihilate")])


def test_family_derivative_refuses_an_overflowing_tangent(rf):
    # every entry is finite, but the tangent generator's term norm is not
    dk = np.array([[1e308, 0.0], [0.0, 0.0]])
    with pytest.raises(NoConvergenceError, match="term norm is not finite"):
        family_derivative(rf, dk, np.zeros((2, 2)), [(0.0, "create"), (1.0, "annihilate")])


@pytest.mark.parametrize("geometry", [Thermodynamic(),
                                      Finite(length=2.0, boundary_rho=np.eye(2) / 2)])
def test_a_generator_whose_term_norm_overflows_is_refused_in_both_geometries(geometry):
    # every entry of K, R and the fields is finite, but ||Q||_1 is not; a
    # finite chain used to walk on and return nan+nanj after overflow warnings
    p = new_cmps(2, 1e308 * np.ones((2, 2)), RF_R, geometry)
    with pytest.raises(NoConvergenceError, match="non-finite"):
        two_point(p, [0.5])


@pytest.mark.parametrize("n_points", [0, 1, 2.5, -3])
def test_decay_fit_rejects_too_few_or_fractional_points(rf, n_points):
    with pytest.raises(ValidationError, match="n_points"):
        decay_fit(rf, 1.0, 5.0, n_points=n_points)


def test_source_check_rejects_fractional_sites(rf):
    # 8.5 sites or site 2.5 used to be truncated to 8 and 2
    with pytest.raises(ValidationError, match="n_sites must be an integer, got 8.5"):
        source_consistency_check(rf, 0.1, 0.01, 8.5)
    with pytest.raises(ValidationError, match="site index must be an integer, got 2.5"):
        source_consistency_check(rf, 0.1, 0.01, 8, site_pair=(2.5, 6))


def test_family_derivative_walks_a_large_direction_scaled_to_order_one(rf):
    # linear in (dK, dR): 2^1000 ones walks as ones and is scaled back,
    # where it used to overflow inside expm_frechet
    ins = [(0.0, "create"), (1.0, "annihilate")]
    zero = np.zeros((2, 2))
    at_ones = family_derivative(rf, np.ones((2, 2)), zero, ins)
    assert at_ones == pytest.approx(0.16164473326528073, rel=1e-14)
    assert family_derivative(rf, 2.0**1000 * np.ones((2, 2)), zero, ins) == 2.0**1000 * at_ones
    big = family_derivative(rf, 1e307 * np.ones((2, 2)), zero, ins)
    assert abs(big - 1e307 * at_ones) <= 1e-15 * abs(1e307 * at_ones)


def test_family_derivative_certifies_the_tangent_exponent_only_against_overflow(rf):
    # in a unit 4^36 times shorter the walk runs on the direction scaled to
    # order one, whose tangent term norm x |dx| is 3.4e11, past
    # EXPONENT_LIMIT, while L's is 3.  The derivative is linear in its
    # direction, so it is resolved as L's exponent is: the value keeps every
    # bit, where the tangent's exponent used to be refused
    ins = [(0.0, "create"), (1.0, "annihilate")]
    want = family_derivative(rf, RF_K, RF_R, ins)
    s = 4.0**36
    p = new_cmps(2, RF_K / s, RF_R / np.sqrt(s))
    got = family_derivative(p, RF_K / s, RF_R / np.sqrt(s), [(0.0, "create"), (s, "annihilate")])
    assert got * s == want


def test_family_derivative_refuses_a_value_that_overflows():
    # strongly driven, fast decay: the derivative along sigma_minus is about
    # 2.4e6 per unit, so at 1e303 its value overflows while its term norm does not
    p = new_cmps(2, 200.0 * RF_K, 10.0 * RF_R)
    ins = [(10.0 * i, "pair_density") for i in range(4)]
    per_unit = family_derivative(p, np.zeros((2, 2)), RF_R, ins)
    assert per_unit.real == pytest.approx(2.4278e6, rel=1e-4)
    with pytest.raises(NoConvergenceError, match="^family derivative is not finite$"):
        family_derivative(p, np.zeros((2, 2)), 1e303 * RF_R, ins)


@pytest.mark.parametrize("site_pair", [(1, 5, 7), (3,), 4])
def test_source_consistency_check_needs_exactly_two_sites(rf, site_pair):
    # a third site used to be dropped without a word
    with pytest.raises(ShapeMismatchError, match="site_pair must be two site indices"):
        source_consistency_check(rf, 0.1, 0.02, 40, site_pair=site_pair)


@pytest.mark.parametrize("dk", [np.array([[0.0, 1e308], [-1e308, 0.0]]),
                                np.array([[1e308j, 0.0], [0.0, 0.0]])])
def test_a_large_nonhermitian_dk_is_refused_without_overflow(rf, dk):
    # dK - dK^dag used to overflow (a RuntimeWarning) before the test ran
    with pytest.raises(NonHermitianKError):
        family_derivative(rf, dk, np.zeros((2, 2)), [(0.0, "pair_density")])


def test_the_scaled_hermiticity_test_keeps_the_unscaled_verdict(rf):
    # where dK - dK^dag does not overflow, the test on the scaled dK agrees
    # with the unscaled one, also on either side of the threshold's edge
    rng = np.random.default_rng(8)
    herm, skew = rand_herm(2, rng), 1j * rand_herm(2, rng)
    tol = rf.tol.herm

    def unscaled(dk):
        return np.abs(dk - dk.conj().T).max() > tol * max(1.0, np.abs(dk).max())

    def refused(dk):
        try:
            family_derivative(rf, dk, np.zeros((2, 2)), [])
        except NonHermitianKError:
            return True
        return False

    for size in (1e-300, 1e-3, 1.0, 3.7, 2.0**40, 1e150, 1e300):
        ts = list(tol * np.array([0.1, 0.5, 0.6, 10.0, 1e4]))
        lo, hi = 0.0, 1e4 * tol
        if unscaled(size * (herm + hi * skew)):
            for _ in range(80):  # the last t accepted and the first refused
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if unscaled(size * (herm + mid * skew)) else (mid, hi)
            ts += [lo, hi]
        for t in ts:
            dk = size * (herm + t * skew)
            assert refused(dk) == unscaled(dk), (size, t)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("call", [
    lambda p: two_point(p, [0.5]),
    lambda p: pair_correlation(p, [0.5]),
    lambda p: expectation(p, [(0.3, "pair_density")]),
    lambda p: generating_functional(p, SourceField(np.full(10, 0.1), np.zeros(10)), 0.1),
    lambda p: source_consistency_check(p, 0.1, 0.01, 10),
    lambda p: two_point(p, [0.0, 0.25, 0.5]),
    lambda p: decay_fit(p, 0.1, 0.5),
], ids=["two_point", "pair_correlation", "expectation", "generating_functional",
        "source_consistency_check", "two_point_from_modes", "decay_fit_from_modes"])
def test_a_non_finite_exponential_is_refused(call, capfd):
    # exp(L dx) at K = 1e50 sigma_x / 2 is nan: every finite chain returned
    # nan.  Its exponent is now refused before expm runs.  The thermodynamic
    # fixed point refuses this K before any chain.  A grid read from the
    # (certified) eigenmodes refuses each leg as its exponential would be
    window = Finite(length=1.0, boundary_rho=np.eye(2) / 2)
    p = new_cmps(2, 0.5e50 * SIGMA_X, DAMP_R, window)
    with pytest.raises(NoConvergenceError, match="exponential at step .* is not resolved"):
        call(p)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("geometry", [Thermodynamic(), Finite(length=1.0, boundary_rho=EXCITED)],
                         ids=["thermodynamic", "finite"])
def test_a_derivative_insertion_that_overflows_is_refused(geometry, capfd):
    # the fixed point is finite, but the covector of X^dag X overflows:
    # kinetic_density read nan (inf in the window) and expectation nan+nanj,
    # after overflow warnings
    p = new_cmps(2, HUGE_X_K, HUGE_X_R, geometry)
    deriv = [(0.0, "deriv_create"), (0.0, "deriv_annihilate")]
    for call in (lambda: kinetic_density(p), lambda: expectation(p, deriv),
                 lambda: lieb_liniger_energy_density(p, 1.0, 1.0)):
        with pytest.raises(NoConvergenceError,
                           match="correlator value closing on deriv_annihilate is not finite"):
            call()
    assert capfd.readouterr() == ("", "")


def test_a_separation_scan_whose_read_overflows_is_refused(capfd):
    # R = 1e100 diag(1, 1/2): the density (about 6e199) is finite, but
    # <pair pair> at d = 0 is about 1e400; the read of the scan overflowed
    # in a product, and g2 came out inf
    window = Finite(length=1.0, boundary_rho=np.eye(2) / 2)
    p = new_cmps(2, np.zeros((2, 2)), 1e100 * np.diag([1.0, 0.5]), window)
    assert two_point(p, [0.0]).values[0] == pytest.approx(6.25e199, rel=1e-14)
    with pytest.raises(NoConvergenceError,
                       match="correlator value closing on pair_density is not finite"):
        pair_correlation(p, [0.0])
    assert capfd.readouterr() == ("", "")


def test_a_family_derivative_walk_that_overflows_is_refused(capfd, monkeypatch):
    # at K = 1e20 sigma_x / 2 the finite walk overflowed in a product (a
    # RuntimeWarning) before its value was found not finite; at 1e18 it
    # returned -437.06 (mpmath: 0.4527) and at 1e50 0j.  Every exponent is
    # now refused before expm_frechet runs
    window = Finite(length=1.0, boundary_rho=np.eye(2) / 2)
    monkeypatch.setattr(scipy.linalg, "expm_frechet", lambda a, e: pytest.fail("expm_frechet"))
    for k in (1e18, 1e20, 1e50):
        p = new_cmps(2, 0.5 * k * SIGMA_X, DAMP_R, window)
        with pytest.raises(NoConvergenceError, match="exponential at step 0.5 is not resolved"):
            family_derivative(p, np.zeros((2, 2)), DAMP_R, [(0.0, "create"), (0.5, "annihilate")])
    assert capfd.readouterr() == ("", "")


def test_a_source_functional_whose_walk_overflows_is_refused(capfd):
    # K = sigma_x / 2, R = diag(1, 1/2), four sites of step 1: one source
    # of 200 gives Z about 2.6e173, but sources of 200 at sites 1 and 3
    # overflowed the walk, and Z read nan+nanj after RuntimeWarnings
    p = new_cmps(2, RF_K, np.diag([1.0, 0.5]))
    zeros = np.zeros(4)
    one = generating_functional(p, SourceField(np.array([0.0, 200.0, 0.0, 0.0]), zeros), 1.0)
    assert np.isfinite(one) and one.real > 1e173
    with pytest.raises(NoConvergenceError,
                       match="^correlator value closing on the trace is not finite$"):
        generating_functional(p, SourceField(np.array([0.0, 200.0, 0.0, 200.0]), zeros), 1.0)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("geometry", [Thermodynamic(), Finite(4e-200, np.eye(2) / 2)],
                         ids=["thermodynamic", "finite"])
def test_a_source_functional_whose_x_overflows_walks_without_it(geometry, capfd):
    # R = 1e104 sigma_minus: X = -[Q, R] overflows, but the generator's term
    # norm (2e208) times eps = 1e-200 is certified.  A sourced site formed
    # Q + lam R + 0 X, which warned (0 x inf) and was refused on a nan term
    # norm; a site without a mu source does not read X
    p = new_cmps(2, RF_K, 1e104 * RF_R, geometry)
    zeros = np.zeros(4)
    z = generating_functional(p, [SourceField(np.array([0.0, 0.5, 0.0, 0.5j]), zeros),
                                  SourceField(zeros, zeros)], 1e-200)
    assert np.allclose(z, 1.0, rtol=0.0, atol=1e-15)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("c, mu, error, message", [
    (np.nan, 1.0, ValidationError, "c must be finite, got nan"),
    (1.0, np.inf, ValidationError, "mu must be finite, got inf"),
    (1.0, -np.inf, ValidationError, "mu must be finite, got -inf"),
    (1e308, 0.0, NoConvergenceError, "energy density is not finite"),
    (np.float64(1e308), 0.0, NoConvergenceError, "energy density is not finite"),
    (0.0, -1e308, NoConvergenceError, "energy density is not finite"),
    (1e308, 1e308, NoConvergenceError, "energy density is not finite"),
], ids=["nan-c", "inf-mu", "minus-inf-mu", "huge-c", "numpy-huge-c", "huge-mu", "inf-minus-inf"])
def test_an_energy_density_that_is_not_finite_is_refused(c, mu, error, message, capfd):
    # R = diag(2, 1): <pair pair> and the density exceed 1, so c = 1e308
    # made the energy inf, c = nan nan and mu = inf -inf, with no error
    p = new_cmps(2, RF_K, np.diag([2.0, 1.0]))
    assert np.isfinite(lieb_liniger_energy_density(p, 1e300, -1e300))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        lieb_liniger_energy_density(p, c, mu)
    assert capfd.readouterr() == ("", "")


def _finite_instance():
    rng = np.random.default_rng(19)
    rho = rand_mat(3, rng)
    rho = rho @ rho.conj().T
    window = Finite(length=2.0, boundary_rho=rho / np.trace(rho).real)
    return new_cmps(3, rand_herm(3, rng), 0.7 * rand_mat(3, rng), window)


@pytest.mark.parametrize("params", [random_instance(23, dims=(3, 4)), _finite_instance()],
                         ids=["thermodynamic", "finite"])
def test_a_batch_of_source_fields_equals_separate_calls(params):
    eps, n = 0.25, 8
    zeros = np.zeros(n, dtype=complex)

    def at(values):
        out = zeros.copy()
        for site, value in values.items():
            out[site] = value
        return out

    fields = [
        SourceField(at({2: 0.3 - 0.1j}), at({5: 0.2j})),
        SourceField(at({2: 0.3 - 0.1j, 6: 0.3 - 0.1j}), zeros),  # one value at two sites
        SourceField(zeros, zeros),  # no source
        SourceField(at({6: 0.3 - 0.1j}), at({6: -0.4})),
        SourceField(at({0: 0.5, 7: -0.2j}), at({2: 0.2j})),
    ]
    batch = generating_functional(params, fields, eps)
    assert batch.shape == (len(fields),)
    for z, field in zip(batch, fields):
        assert abs(z - generating_functional(params, field, eps)) < 1e-13
    assert generating_functional(params, fields[:1], eps)[0] == generating_functional(
        params, fields[0], eps)
    with pytest.raises(ShapeMismatchError, match="share one site count"):
        generating_functional(params, [fields[0], SourceField(zeros[:4], zeros[:4])], eps)
    for empty in ([], ()):
        with pytest.raises(ShapeMismatchError, match="non-empty sequence"):
            generating_functional(params, empty, eps)


def test_source_check_evaluates_every_field_in_one_walk(rf, monkeypatch):
    # 20 fields through one chain: one free step and one exponential per
    # distinct source value, where 20 chains made 57 expm calls
    expms, walks = [], []
    expm = scipy.linalg.expm
    walk = correlators.generating_functional
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: expms.append(1) or expm(a))
    monkeypatch.setattr(correlators, "generating_functional",
                        lambda *args: walks.append(1) or walk(*args))
    source_consistency_check(rf, eps=0.05, h=0.01, n_sites=40)
    monkeypatch.undo()
    assert len(walks) == 1
    assert len(expms) <= 10


def test_a_parameter_set_builds_one_generator(monkeypatch):
    # every chain on a parameter set reads its one generator, and that
    # generator's one matrix: a finite source_consistency_check builds the
    # generator once and makes 5 dense builds (it, and the 4 distinct
    # sourced sites), and three finite correlators build nothing more
    rng = np.random.default_rng(31)
    d = 3
    window = Finite(length=2.0, boundary_rho=np.eye(d) / d)
    builds, dense = [], []
    build, build_dense = core.build_liouvillian, liouville.HermitianBasis.dense
    monkeypatch.setattr(core, "build_liouvillian", lambda k, r: builds.append(1) or build(k, r))
    monkeypatch.setattr(liouville.HermitianBasis, "dense",
                        lambda self, terms, f: dense.append(len(terms)) or build_dense(self, terms, f))
    p = new_cmps(d, rand_herm(d, rng), 0.7 * rand_mat(d, rng), window)
    source_consistency_check(p, eps=0.25, h=0.01, n_sites=8)
    assert (len(builds), len(dense)) == (1, 5)
    q = new_cmps(d, p.K, p.R, window)
    builds.clear()
    dense.clear()
    two_point(q, [0.5, 1.0])
    expectation(q, [(0.3, "create"), (1.2, "annihilate")])
    pair_correlation(q, [0.0, 0.7])
    assert (len(builds), len(dense)) == (1, 1)
