"""Seeded CLI configs for the three benchmark workloads.

Every workload runs all twelve CLI commands, one job each, so that every
`<command>_s` metric exists on every workload.  A workload's *featured*
jobs run at the sizes that stress the layer it is about; its other jobs are
small *probes* (bond dimension 2 to 4) that time the command's fixed cost
and act as the "should not move" control for an optimisation of the
featured layer.  Smoke mode runs every job at probe size.

Random (K, R) instances and the trajectory master seed are drawn from the
workload seed; the CLI only ever sees the generated config files.  Configs
carry no `dt` key (the sampler default applies), so they stay valid when
the fixed-step sampler and its `dt` key go away.
"""

from dataclasses import dataclass

import numpy as np

COMMANDS = (
    "steady", "gap", "converge", "lindblad-check",
    "correlate", "g2", "kinetic", "ll-energy", "family-deriv",
    "zfunctional-check", "discretize",
    "trajectories",
)

# The jobs each workload runs at full size; why: README.md, "Workloads".
FEATURED = {
    "exact-spectrum": ("steady", "gap", "converge", "lindblad-check"),
    "exact-scan": ("correlate", "g2", "kinetic", "ll-energy", "family-deriv",
                   "zfunctional-check", "discretize"),
    "mc-sample": ("trajectories",),
}
WORKLOADS = tuple(FEATURED)

# Driven two-level emitter: K = sigma_x / 2, R = sigma_minus.  Exact
# stationary density 1/3.
EMITTER_K = [[0.0, 0.5], [0.5, 0.0]]
EMITTER_R = [[0.0, 0.0], [1.0, 0.0]]
EMITTER_DENSITY = 1.0 / 3.0

# Random instances are rescaled (K -> sK, R -> sqrt(s) R, a change of length
# unit) to a generator 1-norm of L1_PER_DIM * dim^1.5, the typical size of
# the unscaled draws, so that the expm cost does not swing with the seed.
L1_PER_DIM = 6.0

EPSILONS = [0.02, 0.01, 0.005]

# (full size, probe size) per command.  Full sizes keep every featured job
# near 0.1 s (trajectories 0.6 s), so that each runs dozens of times per
# run and the median over those executions repeats from run to run on a
# shared machine.
SIZES = {
    "steady": ({"dim": 16}, {"dim": 4}),
    "gap": ({"dim": 16}, {"dim": 4}),
    # at D = 3 and eps 0.005 the O(eps) coefficient can nearly vanish, and
    # the finest step's error then understates the extrapolation's
    "converge": ({"dim": 10, "epsilons": EPSILONS},
                 {"dim": 3, "epsilons": [0.002, 0.001, 0.0005]}),
    "lindblad-check": ({"dim": 14}, {"dim": 4}),
    "correlate": ({"dim": 8, "n_seps": 50}, {"dim": 4, "n_seps": 8}),
    "g2": ({"dim": 8, "n_seps": 50}, {"dim": 4, "n_seps": 8}),
    "kinetic": ({"dim": 12}, {"dim": 4}),
    "ll-energy": ({"dim": 12}, {"dim": 4}),
    "family-deriv": ({"dim": 12}, {"dim": 3}),
    "zfunctional-check": ({"dim": 6}, {"dim": 3}),
    "discretize": ({"dim": 12, "length": 20.0}, {"dim": 4, "length": 2.0}),
    # the probe's first pair bin is wider: in 500 short trajectories the
    # antibunched [0, 0.5) bin holds too few pairs for a Gaussian error bar
    "trajectories": ({"n_traj": 500, "length": 40.0, "burn_in": 8.0,
                      "bins": [0.0, 0.5, 1.0, 2.0, 4.0]},
                     {"n_traj": 500, "length": 10.0, "burn_in": 2.0,
                      "bins": [0.0, 1.0, 2.0, 4.0]}),
}


@dataclass(frozen=True)
class Job:
    command: str
    config: dict


def _matrix(m):
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _rand_herm(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def _rand_mat(n, rng):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def generator(k, r):
    """Row-stacked dense generator of (K, R), assembled here, not by cmps_lab."""
    eye = np.eye(k.shape[0])
    rdr = r.conj().T @ r
    return (-1j * np.kron(k, eye) + 1j * np.kron(eye, k.T) + np.kron(r, r.conj())
            - 0.5 * (np.kron(rdr, eye) + np.kron(eye, rdr.T)))


def _rescaled(k, r, s):
    return s * k, np.sqrt(s) * r


def _random_model(dim, rng, unit_gap=False):
    """Random (K, R); with unit_gap the length unit makes the spectral gap 1."""
    k, r = _rand_herm(dim, rng), _rand_mat(dim, rng)
    one_norm = np.abs(generator(k, r)).sum(axis=0).max()
    k, r = _rescaled(k, r, L1_PER_DIM * dim**1.5 / one_norm)
    if unit_gap:
        gap = -np.sort(np.linalg.eigvals(generator(k, r)).real)[-2]
        k, r = _rescaled(k, r, 1.0 / gap)
    return {"dim": dim, "K": _matrix(k), "R": _matrix(r)}


def _random_density_matrix(dim, rng):
    a = _rand_mat(dim, rng)
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _thermodynamic(dim, rng, unit_gap=False, **extra):
    cfg = {"model": _random_model(dim, rng, unit_gap), "geometry": "thermodynamic"}
    cfg.update(extra)
    return cfg


def _separations(n, rng):
    """0 plus n distinct, non-uniform separations in (0, 10].

    One jittered point per stratum of a quadratic grid: every step needs
    its own propagator, and the jitter averages out where the steps cross
    expm's scaling thresholds, so the cost barely changes with the seed.
    """
    u = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    return [0.0] + [float(x) for x in 10.0 * u**2]


def make_config(command, size, rng):
    """One job's config for `command` at `size`, drawn from `rng`."""
    dim = size.get("dim")
    if command in ("steady", "gap", "kinetic"):
        return _thermodynamic(dim, rng)
    if command in ("correlate", "g2"):
        return _thermodynamic(dim, rng, separations=_separations(size["n_seps"], rng))
    if command == "ll-energy":
        return _thermodynamic(dim, rng, c=float(rng.uniform(0.5, 2.0)),
                              mu=float(rng.uniform(0.5, 2.0)))
    if command == "converge":
        return _thermodynamic(dim, rng, epsilons=size["epsilons"], observable="occupation")
    if command == "lindblad-check":
        # anomalous (squeezed) moments inside the Gaussian admissible set
        n = 0.5
        alpha = 0.6 * np.sqrt(n * (n + 1.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        return _thermodynamic(dim, rng, moments={
            "psi_dag_sq": {"re": float(alpha.real), "im": float(alpha.imag)},
            "psi_dag_psi": n})
    if command == "family-deriv":
        # the quadrature window is 20/gap long: fix the gap, fix the work
        cfg = _thermodynamic(dim, rng, unit_gap=True)
        cfg["dK"] = _matrix(0.5 * _rand_herm(dim, rng))
        cfg["dR"] = _matrix(0.5 * _rand_mat(dim, rng))
        cfg["insertions"] = [{"kind": "create", "position": 0.0},
                             {"kind": "annihilate", "position": 1.0}]
        return cfg
    if command == "zfunctional-check":
        return _thermodynamic(dim, rng, eps=0.05, h=0.01, n_sites=40)
    if command == "discretize":
        return {"model": _random_model(dim, rng), "geometry": "finite",
                "length": size["length"],
                "boundary_rho": _matrix(_random_density_matrix(dim, rng)),
                "epsilons": EPSILONS}
    if command == "trajectories":
        return {"model": {"dim": 2, "K": {"re": EMITTER_K}, "R": {"re": EMITTER_R}},
                "geometry": "thermodynamic", "length": size["length"],
                "n_traj": size["n_traj"], "seed": int(rng.integers(0, 2**31)),
                "bins": size["bins"], "burn_in": size["burn_in"]}
    raise ValueError(f"unknown command {command!r}")


def make_jobs(workload, seed, smoke=False):
    """The workload's jobs, one per command, in a fixed order."""
    if workload not in FEATURED:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = []
    for i, command in enumerate(COMMANDS):
        full, probe = SIZES[command]
        size = full if command in FEATURED[workload] and not smoke else probe
        rng = np.random.default_rng([seed, WORKLOADS.index(workload), i])
        jobs.append(Job(command, make_config(command, size, rng)))
    return jobs
