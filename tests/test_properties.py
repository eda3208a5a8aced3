"""Properties over random instances, drawn by hypothesis (seeded profile in conftest)."""

import numpy as np
import scipy.linalg
import scipy.optimize
from hypothesis import given, strategies as st

from cmps_lab import (
    Finite,
    build_liouvillian,
    density,
    family_derivative,
    generating_functional,
    kinetic_density,
    new_cmps,
    pair_correlation,
    trace_functional,
    two_point,
)
from cmps_lab.correlators import INSERTIONS, SourceField
from cmps_lab.liouville import GENERATOR, fields, fields_tangent, tangent_terms

from conftest import kron_map, rand_herm, rand_mat, unvec, vec

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
