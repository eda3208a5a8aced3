"""Properties over random instances, drawn by hypothesis (seeded profile in conftest)."""

import numpy as np
from hypothesis import given, strategies as st

from cmps_lab import (
    density,
    family_derivative,
    kinetic_density,
    new_cmps,
    pair_correlation,
    two_point,
)

from conftest import rand_herm, rand_mat

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
