"""Properties over random instances, drawn by hypothesis (seeded profile in conftest)."""

import numpy as np
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from cmps_lab import (
    Finite,
    build_liouvillian,
    convergence_study,
    decay_fit,
    density,
    estimate_stats,
    family_derivative,
    generating_functional,
    kinetic_density,
    new_cmps,
    pair_correlation,
    sample_ensemble,
    spectral_envelope,
    trace_functional,
    two_point,
    waiting_bin_probs,
)
from cmps_lab.correlators import INSERTIONS, SourceField
from cmps_lab.errors import CmpsError
from cmps_lab.liouville import GENERATOR, fields, fields_tangent, tangent_terms

from conftest import kron_map, rand_herm, rand_mat, unvec, vec
from test_discretizer import THERMO_RTOL_TIMES_EPS

SEPARATIONS = np.array([0.0, 0.4, 1.3])


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
       log_s=st.floats(-10.0, 6.0))
def test_exact_outputs_are_covariant_under_a_change_of_length_unit(seed, dim, log_s):
    # K -> s K, R -> sqrt(s) R rescales lengths by 1/s: a density scales by
    # s, a kinetic density by s^3, and g2 is dimensionless
    rng = np.random.default_rng(seed)
    k, r = rand_herm(dim, rng), 0.7 * rand_mat(dim, rng)
    dk, dr = rand_herm(dim, rng), rand_mat(dim, rng)
    s = 10.0**log_s
    unit = new_cmps(dim, k, r)
    scaled = new_cmps(dim, s * k, np.sqrt(s) * r)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-14)

    close(density(scaled) / s, density(unit))
    close(two_point(scaled, SEPARATIONS / s).values / s, two_point(unit, SEPARATIONS).values)
    close(kinetic_density(scaled) / s**3, kinetic_density(unit))
    if dim == 1:
        return  # D = 1 is gapless: no family derivative, and g2 = 1 identically

    close(pair_correlation(scaled, SEPARATIONS / s).values,
          pair_correlation(unit, SEPARATIONS).values)

    def derivative(p, unit_scale):
        chain = [(0.0, "create"), (1.3 / unit_scale, "annihilate")]
        return family_derivative(p, unit_scale * dk, np.sqrt(unit_scale) * dr, chain) / unit_scale

    close(derivative(scaled, s), derivative(unit, 1.0))


def _random_state(seed, dim, geometry, length):
    """(K, R, geometry, rng) of a seeded instance, rng to draw on from; a
    finite window opens on a random density matrix."""
    rng = np.random.default_rng(seed)
    k, r = rand_herm(dim, rng), 0.7 * rand_mat(dim, rng)
    a = rand_mat(dim, rng)
    rho0 = a @ a.conj().T
    window = Finite(length=length, boundary_rho=rho0 / np.trace(rho0).real)
    return k, r, window if geometry == "finite" else None, rng


LATTICE_EPS = np.array([0.1, 0.05])
LATTICE_SEPARATION = 0.2
RECORD_BINS = np.array([0.0, 0.5, 1.0])


def _or_refusal(call):
    """call(), or the line of the package error it raised."""
    try:
        return call()
    except CmpsError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3, 4]),
       geometry=st.sampled_from(["thermodynamic", "finite"]),
       k=st.sampled_from([-60, 60]) | st.integers(-60, 60))
# a close pair of eigenvalues that LAPACK's 2 x 2 blocks tell apart by an
# absolute 4 eps, unless the eigensolve divides out the unit
@example(seed=510185034, dim=2, geometry="thermodynamic", k=23)
@example(seed=510185034, dim=2, geometry="thermodynamic", k=24)
# an estimator rate whose square through libm's pow is not x * x
@example(seed=3095719690, dim=2, geometry="thermodynamic", k=24)
# a tangent exponent that a resolution limit would refuse in this unit only
@example(seed=9, dim=2, geometry="thermodynamic", k=28)
def test_every_method_keeps_every_bit_under_a_change_of_length_unit_by_4_to_the_k(
        seed, dim, geometry, k):
    # K -> K / 4^k, R -> R / 2^k and every length x 4^k change the unit by a
    # power of two, which binary arithmetic carries exactly; so does every
    # threshold that is relative to the generator's term norm.  Each output,
    # times its power of 4, must therefore keep every bit, and a refusal
    # (D = 1 is gapless; the envelope is a thermodynamic quantity) must be
    # the same refusal.  The ends of the range, drawn often, move every value
    # across any absolute threshold: at k = 24 a density of order 1 reads
    # below 1e-14
    length = 6.0
    K, R, window, rng = _random_state(seed, dim, geometry, length)
    dk, dr = rand_herm(dim, rng), rand_mat(dim, rng)
    # sources on 8 sites of step 0.75: lam R and mu X, with X = -[Q, R]
    lam, mu = np.zeros(8, dtype=complex), np.zeros(8, dtype=complex)
    lam[2], mu[2], lam[5] = 0.4 - 0.3j, 0.2j, -0.5

    def outputs(s):
        geo = window and Finite(length=window.length * s, boundary_rho=window.boundary_rho)
        p = new_cmps(dim, K / s, R / np.sqrt(s), geo)
        chain = [(0.0, "create"), (1.3 * s, "annihilate")]

        def envelope():
            c0, prefactor, gap = spectral_envelope(p)
            return np.array([c0, prefactor, gap]) * s

        def fit():
            f = decay_fit(p, 0.5 * s, 4.0 * s, n_points=9)
            return np.array([f.rate * s, f.prefactor * s, f.residual, f.n_used])

        out = {"density": density(p) * s,
               "two_point": two_point(p, SEPARATIONS * s).values * s,
               "pair_correlation": pair_correlation(p, SEPARATIONS * s).values,
               "kinetic_density": kinetic_density(p) * s**3, "gap": p.stationary.gap * s,
               "family_derivative": _or_refusal(
                   lambda: family_derivative(p, dk / s, dr / np.sqrt(s), chain) * s),
               "spectral_envelope": _or_refusal(envelope), "decay_fit": _or_refusal(fit),
               "generating_functional": generating_functional(
                   p, SourceField(lam / np.sqrt(s), mu * np.sqrt(s)), 0.75 * s),
               "waiting_bin_probs": waiting_bin_probs(p, RECORD_BINS * s)}
        # the lattice reads densities: per unit length, and per unit length
        # squared for the pair
        for observable, unit in (("occupation", s), ("hopping", s), ("pair", s * s)):
            study = convergence_study(p, LATTICE_EPS * s, observable if observable == "occupation"
                                      else (observable, LATTICE_SEPARATION * s))
            out[observable] = np.append(study.values, study.extrapolated) * unit
        records = sample_ensemble(p, 20, length * s, 7)
        out["positions"] = np.concatenate([rec.positions for rec in records]) / s
        stats = estimate_stats(records, RECORD_BINS * s, burn_in=1.0 * s)
        out["rate"] = np.array([stats.rate, stats.rate_stderr]) * s
        out["waiting_probs"] = stats.waiting_probs
        out["record pair_correlation"] = stats.pair_correlation
        return out

    unit, scaled = outputs(1.0), outputs(4.0**k)
    for key, value in unit.items():
        np.testing.assert_array_equal(scaled[key], value, err_msg=key)


GAUGE_RTOL = 1e-13


@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]),
       geometry=st.sampled_from(["thermodynamic", "finite"]))
def test_exact_and_lattice_outputs_do_not_see_a_gauge_or_a_field_phase(seed, dim, geometry):
    # (K, R, boundary_rho) -> (U K U^dag, e^{i phi} U R U^dag, U rho U^dag)
    # for a random unitary U is the same field state (Haegeman, Cirac,
    # Osborne & Verstraete, PRB 88, 085118, 2013); the phase cancels in every
    # observable that pairs a creation with an annihilation
    K, R, window, rng = _random_state(seed, dim, geometry, 2.0)
    u, _ = np.linalg.qr(rand_mat(dim, rng))
    phase = np.exp(2j * np.pi * rng.uniform())
    eps = np.array([0.02, 0.01])

    def outputs(k, r, geo):
        p = new_cmps(dim, k, r, geo)
        out = {"two_point": two_point(p, SEPARATIONS).values,
               "pair_correlation": pair_correlation(p, SEPARATIONS).values,
               "kinetic_density": kinetic_density(p), "gap": p.stationary.gap}
        lattice = {kind: convergence_study(p, eps, (kind, LATTICE_SEPARATION)).values
                   for kind in ("hopping", "pair")}
        return out, lattice

    gauged = window and Finite(length=window.length,
                               boundary_rho=u @ window.boundary_rho @ u.conj().T)
    (exact, lattice), (exact_g, lattice_g) = (
        outputs(K, R, window),
        outputs(u @ K @ u.conj().T, phase * u @ R @ u.conj().T, gauged))
    for key, want in exact.items():
        err = np.abs(np.asarray(exact_g[key]) - want).max() / np.abs(want).max()
        assert err <= GAUGE_RTOL, (key, err)
    for key, want in lattice.items():
        err = np.abs(lattice_g[key] - want) / np.abs(want).max()
        assert np.all(err <= THERMO_RTOL_TIMES_EPS / eps), (key, err)


# measured over 12000 records (40 seeds, D = 2-4, both geometries): no jump
# count differed, and no position by more than 9e-14 of itself
SAMPLER_GAUGE_RTOL = 1e-10


@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]),
       geometry=st.sampled_from(["thermodynamic", "finite"]))
def test_the_sampler_does_not_see_a_permutation_of_the_boundary_basis(seed, dim, geometry):
    # a permutation P relabels the boundary basis, so (P K P^T, P R P^T,
    # P rho P^T) is the same field state: from the same master seed the
    # sampler draws the same jumps, up to its root finder's roundoff.  P is
    # a D-cycle, which moves every basis vector; R is scaled by 0.7 / sqrt D
    # to keep the jump counts of D = 4 near those of D = 2
    length = 6.0
    K, R, window, rng = _random_state(seed, dim, geometry, length)
    R = R / np.sqrt(dim)
    order = rng.permutation(dim)
    cycle = np.empty_like(order)
    cycle[order] = np.roll(order, 1)
    perm = np.eye(dim)[cycle]
    gauged = window and Finite(length=length, boundary_rho=perm @ window.boundary_rho @ perm.T)
    records = sample_ensemble(new_cmps(dim, K, R, window), 50, length, 11)
    records_g = sample_ensemble(new_cmps(dim, perm @ K @ perm.T, perm @ R @ perm.T, gauged),
                                50, length, 11)
    for rec, rec_g in zip(records, records_g, strict=True):
        assert rec_g.positions.size == rec.positions.size
        np.testing.assert_allclose(rec_g.positions, rec.positions, rtol=SAMPLER_GAUGE_RTOL, atol=0)


def _expm_and_frechet(a, e):
    """exp(a) and its Frechet derivative in direction e, from one block exponential."""
    n = a.shape[0]
    big = scipy.linalg.expm(np.block([[a, e], [np.zeros_like(a), a]]))
    return big[:n, :n], big[:n, n:]


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3, 4]),
       geometry=st.sampled_from(["thermodynamic", "finite"]))
def test_real_calculus_matches_the_complex_row_stacked_reference(seed, dim, geometry):
    # every chain of the package runs on the real generator of the Hermitian
    # basis; the reference below propagates the row-stacked complex
    # Kronecker matrix of each table
    rng = np.random.default_rng(seed)
    k, r = rand_herm(dim, rng), 0.7 * rand_mat(dim, rng)
    dk, dr = rand_herm(dim, rng), rand_mat(dim, rng)
    length, eps = 2.0, 0.25
    if geometry == "finite":
        a = rand_mat(dim, rng)
        rho0 = a @ a.conj().T
        rho0 = (rho0 + rho0.conj().T) / (2 * np.trace(rho0).real)
        p = new_cmps(dim, k, r, Finite(length=length, boundary_rho=rho0))
    else:
        p = new_cmps(dim, k, r)
    lv = build_liouvillian(k, r)
    f = fields(p.K, p.R)
    mat, one = kron_map(GENERATOR, f), trace_functional(dim)
    df = fields_tangent(f, dk, dr)
    ins = {kind: kron_map(INSERTIONS[kind], f) for kind in INSERTIONS}
    dins = {kind: kron_map(tangent_terms(INSERTIONS[kind]), f | df) for kind in INSERTIONS}
    dmat = kron_map(tangent_terms(GENERATOR), f | df)

    def close(got, want, rel=1e-12):
        got, want = np.asarray(got), np.asarray(want)
        assert np.abs(got - want).max() <= rel * np.abs(want).max()

    # the fixed point and the spectrum, against the complex bordered solve
    border = np.outer(one * (lv.scale / dim), one)
    x = np.linalg.solve(mat + border, one * (lv.scale / dim))
    rho_ss = unvec(x)
    rho_ss = (rho_ss + rho_ss.conj().T) / (2 * np.trace(rho_ss).real)
    close(p.stationary.steady_state, rho_ss)
    want = np.linalg.eigvals(mat)
    got = p.stationary.eigenvalues
    rows, cols = scipy.optimize.linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    assert np.abs(got[rows] - want[cols]).max() <= 1e-12 * lv.scale

    thermo = geometry == "thermodynamic"
    start = vec(rho_ss if thermo else rho0)

    def closed(v, pos):
        # carry to the right edge of a finite window, trace, normalize
        if thermo:
            return one @ v
        e = scipy.linalg.expm(mat * length)
        return (one @ e @ v) / (one @ e @ start)

    def chain(first, second, d):
        return closed(ins[second] @ scipy.linalg.expm(mat * d) @ ins[first] @ start, d)

    seps = np.array([0.0, 0.3, 1.1, 2.0])
    close(two_point(p, seps).values, [chain("create", "annihilate", d) for d in seps])
    n = closed(ins["pair_density"] @ start, 0.0).real
    close(pair_correlation(p, seps).values,
          [chain("pair_density", "pair_density", d) / n**2 for d in seps])
    close(kinetic_density(p),
          closed(ins["deriv_annihilate"] @ ins["deriv_create"] @ start, 0.0).real)

    # d/dt <create(0) annihilate(d)> along (K + t dk, R + t dr)
    if thermo and dim == 1:
        pass  # D = 1 is gapless: no thermodynamic family derivative
    else:
        d = 1.1
        e, de = _expm_and_frechet(mat * d, dmat * d)
        dstart = (np.linalg.solve(mat + border, -(dmat @ start)) if thermo
                  else np.zeros_like(start))
        mid, dmid = ins["create"] @ start, ins["create"] @ dstart + dins["create"] @ start
        v, dv = e @ mid, e @ dmid + de @ mid
        dv = ins["annihilate"] @ dv + dins["annihilate"] @ v
        close(family_derivative(p, dk, dr, [(0.0, "create"), (d, "annihilate")]),
              closed(dv, d))

    # Z[J] on 8 sites, two of them sourced
    lam = np.zeros(8, dtype=complex)
    mu = np.zeros(8, dtype=complex)
    lam[2], mu[2], lam[5] = 0.4 - 0.3j, 0.2j, -0.5
    v = start
    for lr, mr in zip(lam, mu):
        site = kron_map(GENERATOR, {**f, "Q": f["Q"] + lr * f["R"] + mr * f["X"]})
        v = scipy.linalg.expm(site * eps) @ v
    want = one @ v
    if not thermo:
        want /= one @ scipy.linalg.expm(mat * length) @ start
    close(generating_functional(p, SourceField(lam, mu), eps), want)
