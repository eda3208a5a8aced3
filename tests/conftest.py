"""Shared instances, random-matrix helpers and the row-stacked reference
for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import settings

from cmps_lab import Finite, new_cmps

# property tests draw the same examples on every run and stay bounded in time
settings.register_profile("cmps-lab", derandomize=True, max_examples=50, deadline=None,
                          database=None)
settings.load_profile("cmps-lab")

# driven two-level emitter: K = (Omega/2) sigma_x with Omega = 1, R = sigma_minus.
# Exact stationary values used throughout: density 1/3, Liouvillian gap 1/2,
# eigenvalues {0, -1/2, -3/4 +- i sqrt(15)/4}, |<R>_ss|^2 = 1/9.
RF_K = np.array([[0.0, 0.5], [0.5, 0.0]])
RF_R = np.array([[0.0, 0.0], [1.0, 0.0]])

# pure decay: no drive, emission only.  From the excited state the no-jump
# survival is exp(-tau) and exactly one jump ever happens.
DAMP_K = np.zeros((2, 2))
DAMP_R = np.array([[0.0, 0.0], [1.0, 0.0]])
EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]])


def rand_herm(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def rand_mat(n, rng):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


# -- the row-stacked reference.  The package's one dense form is the
# Hermitian basis; these independent references flatten a matrix row-major
# (entry (j, k) at j D + k) and write the map rho -> sum f[a] rho f[b]^dag
# of a table as a sum of Kronecker products.


def vec(m):
    """Row-major flattening of a matrix."""
    return np.asarray(m, dtype=complex).reshape(-1)


def unvec(v):
    """The D x D matrix of a row-stacked vector."""
    d = math.isqrt(v.size)
    return v.reshape(d, d)


def kron_map(terms, f):
    """Row-stacked matrix of a table: vec(a rho b^dag) = (a kron conj b) vec(rho)."""
    return sum(np.kron(f[a], np.conj(f[b])) for a, b in terms)


def basis_unitary(d):
    """The Hermitian basis as a dense unitary, column by column from its
    definition: vec(E_jj), and for j < k, with a = j D + k and b = k D + j,
    vec((E_jk + E_kj)/sqrt 2) and vec(i (E_jk - E_kj)/sqrt 2)."""
    u = np.zeros((d * d, d * d), dtype=complex)
    r = math.sqrt(0.5)
    for j in range(d):
        u[j * d + j, j * d + j] = 1.0
        for k in range(j + 1, d):
            a, b = j * d + k, k * d + j
            u[a, a] = u[b, a] = r
            u[a, b], u[b, b] = 1j * r, -1j * r
    return u


def hmat_reference(terms, f):
    """Re(U^dag S U) of a table, with U and S built densely."""
    d = next(iter(f.values())).shape[0]
    u = basis_unitary(d)
    return (u.conj().T @ kron_map(terms, f) @ u).real


def choi_reference(channel):
    """Choi matrix sum_jk E_jk kron S(E_jk) of a row-stacked channel matrix."""
    n = channel.shape[0]
    d = math.isqrt(n)
    return channel.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(n, n)


def coupled_blocks(t, coupling="K", seed=0):
    """(K, R) of two dissipative D = 3 blocks, coupled with strength t.

    Each block alone has a unique fixed point, so at t = 0 the fixed space
    is two-dimensional; the coupling, through K or through R, lifts the
    second zero eigenvalue by about t^2 times the term norm.
    """
    rng = np.random.default_rng(seed)
    K = np.zeros((6, 6), dtype=complex)
    R = np.zeros((6, 6), dtype=complex)
    for block in (slice(0, 3), slice(3, 6)):
        K[block, block] = rand_herm(3, rng)
        R[block, block] = rand_mat(3, rng)
    c = np.zeros((6, 6), dtype=complex)
    c[:3, 3:] = rand_mat(3, rng)
    c = t * (c + c.conj().T)
    return (K + c, R) if coupling == "K" else (K, R + c)


def random_instance(seed, dims=(2, 5), scale=0.7):
    """Seeded random thermodynamic instance with Hermitian K."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(dims[0], dims[1]))
    return new_cmps(d, rand_herm(d, rng), scale * rand_mat(d, rng))


@pytest.fixture
def rf():
    return new_cmps(2, RF_K, RF_R)


@pytest.fixture
def damping_finite():
    return new_cmps(2, DAMP_K, DAMP_R, Finite(length=8.0, boundary_rho=EXCITED))


@pytest.fixture
def coherent():
    """D=1 instance; the field is a coherent state with amplitude r."""
    def make(r=0.8, k=0.3):
        return new_cmps(1, np.array([[k]]), np.array([[r]], dtype=complex))
    return make
