"""Output checks that hold for any workload seed.

Each check reads one job's config and output file and raises `CheckFailed`
when the output is wrong.  References are computed here with plain numpy
and scipy, not with cmps_lab, and are cached per config so repeated
executions of a job pay for them once.  No check reads the output's `dt`.
"""

import json
import math

import numpy as np
import scipy.linalg

from workloads import EMITTER_DENSITY, generator

# Bounds set from measurements: about ten times the largest errors seen
# (single / pair insertion) on 240 seeds at D = 3, 60 at D = 6 and 20 at
# D = 8: 3.0e-6 / 1.9e-3, 1.7e-6 / 7.9e-4 and 7.2e-7 / 3.7e-4.
ZFUNCTIONAL_SINGLE_MAX = 3e-5
ZFUNCTIONAL_PAIR_MAX = 2e-2
# Simpson step 0.01 vs a central difference; largest errors measured 2.7e-5
# (20 seeds, D = 16), 2.7e-6 (25 seeds, D = 12), 1.9e-5 (240 seeds, D = 3).
FAMILY_DERIV_RTOL = 3e-4
# Monte Carlo band in reported standard errors.  Each run tests five
# quantities and a comparison of two versions takes dozens of runs; with a
# 3-sigma band a correct sampler would fail about one run in seventy.
SIGMA_BAND = 4.0


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(value, reference, rtol, what):
    err = abs(value - reference)
    _require(err <= rtol * max(1.0, abs(reference)),
             f"{what}: {value!r} vs reference {reference!r} (error {err:.3e})")


def _matrix(node):
    return np.asarray(node["re"], dtype=float) + 1j * np.asarray(node["im"], dtype=float)


def _model(cfg):
    return _matrix(cfg["model"]["K"]), _matrix(cfg["model"]["R"])


def _read(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        return np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    return json.loads(text)["result"]


# -- references ----------------------------------------------------------


def _apply_generator(K, R, rho):
    """-i[K, rho] + R rho R^dag - (1/2){R^dag R, rho}, matrix-free."""
    rdr = R.conj().T @ R
    return (-1j * (K @ rho - rho @ K) + R @ rho @ R.conj().T
            - 0.5 * (rdr @ rho + rho @ rdr))


def _generator_norm_bound(K, R):
    """Upper bound on the generator's norm on Frobenius-normed matrices."""
    return 2.0 * np.linalg.norm(K, 2) + 2.0 * np.linalg.norm(R, 2) ** 2


def _steady(K, R):
    """Stationary state by one linear solve with the trace constraint."""
    d = K.shape[0]
    a = generator(K, R)
    a[0, :] = np.eye(d).reshape(-1)
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = np.linalg.solve(a, b).reshape(d, d)
    return (rho + rho.conj().T) / 2


def _q(K, R):
    return -1j * K - 0.5 * (R.conj().T @ R)


def _moments(K, R):
    """Density, local pair density and kinetic density of the stationary state."""
    rho = _steady(K, R)
    x = -(_q(K, R) @ R - R @ _q(K, R))
    r2 = R @ R
    density = np.trace(R @ rho @ R.conj().T).real
    pair = np.trace(r2 @ rho @ r2.conj().T).real
    kinetic = np.trace(x @ rho @ x.conj().T).real
    return density, pair, kinetic


def _two_point_at(K, R, dK, dR, h, d):
    """<create(0) annihilate(d)> along the family (K + h dK, R + h dR)."""
    k, r = K + h * dK, R + h * dR
    rho = _steady(k, r)
    prop = scipy.linalg.expm(generator(k, r) * d)
    w = prop @ (rho @ r.conj().T).reshape(-1)
    return np.trace(r @ w.reshape(rho.shape))


def _emitter_g2(tau):
    """Exact g2 of the resonantly driven emitter with Rabi frequency 1, decay 1."""
    mu = math.sqrt(15.0) / 4.0
    return 1.0 - np.exp(-0.75 * tau) * (np.cos(mu * tau) + 0.75 / mu * np.sin(mu * tau))


def _emitter_bin_means(edges):
    out = []
    for a, b in zip(edges, edges[1:]):
        grid = np.linspace(a, b, 4001)
        out.append(np.trapezoid(_emitter_g2(grid), grid) / (b - a))
    return out


# -- checks per command ----------------------------------------------------


def _spectrum(res, K, R):
    re = np.asarray(res["eigenvalues"]["re"])
    scale = _generator_norm_bound(K, R)
    _require(abs(re[0]) <= 1e-10 * scale, f"leading eigenvalue {re[0]:.3e} is not zero")
    _require(not res["gapless"] and res["gap"] > 0, "random instance reported gapless")
    _close(res["gap"], -re[1], 1e-12, "gap vs second real part")


def check_steady(cfg, out, cache):
    res = _read(out)
    K, R = _model(cfg)
    rho = _matrix(res["rho_ss"])
    _require(np.abs(rho - rho.conj().T).max() <= 1e-14 * np.abs(rho).max(), "rho not Hermitian")
    _close(np.trace(rho).real, 1.0, 1e-12, "trace of rho")
    _require(abs(np.trace(rho).imag) <= 1e-12, "trace of rho not real")
    lam_min = np.linalg.eigvalsh(rho).min()
    _require(lam_min >= -1e-10, f"rho not PSD (eigenvalue {lam_min:.3e})")
    scale = _generator_norm_bound(K, R)
    resid = np.linalg.norm(_apply_generator(K, R, rho)) / np.linalg.norm(rho)
    _require(resid <= 1e-10 * scale, f"fixed-point residual {resid:.3e} above 1e-10 * {scale:.3e}")
    _spectrum(res, K, R)


def check_gap(cfg, out, cache):
    _spectrum(_read(out), *_model(cfg))


def check_correlate(cfg, out, cache):
    rows = _read(out)
    _require(rows.shape == (len(cfg["separations"]), 3), f"bad CSV shape {rows.shape}")
    _require(np.all(np.isfinite(rows)), "non-finite correlator values")
    n, _, _ = cache(lambda: _moments(*_model(cfg)))
    at0 = rows[rows[:, 0] == 0.0]
    _require(at0.size > 0, "no d = 0 row")
    _close(complex(at0[0, 1], at0[0, 2]), n, 1e-8, "correlate(0) vs tr(R rho R^dag)")


def check_g2(cfg, out, cache):
    rows = _read(out)
    _require(rows.shape == (len(cfg["separations"]), 3), f"bad CSV shape {rows.shape}")
    _require(np.all(np.isfinite(rows)), "non-finite g2 values")
    n, pair, _ = cache(lambda: _moments(*_model(cfg)))
    at0 = rows[rows[:, 0] == 0.0]
    _require(at0.size > 0, "no d = 0 row")
    _close(complex(at0[0, 1], at0[0, 2]), pair / n**2, 1e-8, "g2(0) vs tr(R^2 rho R^dag^2) / n^2")


def check_kinetic(cfg, out, cache):
    value = _read(out)["kinetic_density"]
    _, _, kin = cache(lambda: _moments(*_model(cfg)))
    _require(value >= 0.0, f"negative kinetic density {value}")
    _close(value, kin, 1e-8, "kinetic density vs tr(X rho X^dag)")


def check_ll_energy(cfg, out, cache):
    value = _read(out)["energy_density"]
    n, pair, kin = cache(lambda: _moments(*_model(cfg)))
    expected = kin + cfg["c"] * pair - cfg["mu"] * n
    scale = abs(kin) + abs(cfg["c"] * pair) + abs(cfg["mu"] * n)
    _require(abs(value - expected) <= 1e-8 * scale,
             f"energy {value!r} vs kinetic + c pair - mu n = {expected!r}")


def check_converge(cfg, out, cache):
    res = _read(out)
    n, _, _ = cache(lambda: _moments(*_model(cfg)))
    finest = int(np.argmin(res["epsilons"]))
    err = abs(res["extrapolated"] - n)
    _require(err <= res["errors"][finest],
             f"extrapolated occupation off by {err:.3e}, more than the finest "
             f"step's reported error {res['errors'][finest]:.3e}")


def _lattice_occupation(a0, a1, rho, eps, n_sites):
    """Edge occupation of a finite first-order chain, contracted site by site."""
    def site(m):
        return a0 @ m @ a0.conj().T + a1 @ m @ a1.conj().T

    num, norm = a1 @ rho @ a1.conj().T, site(rho)
    for _ in range(n_sites - 1):
        num, norm = site(num), site(norm)
    return np.trace(num).real / np.trace(norm).real / eps


def check_discretize(cfg, out, cache):
    res = _read(out)
    K, R = _model(cfg)
    rho = _matrix(cfg["boundary_rho"])
    eps = np.asarray(res["epsilons"])

    def reference():
        gen = generator(K, R)
        eye = np.eye(gen.shape[0])
        occ, defect = [], []
        for e in eps:
            a0, a1 = np.eye(K.shape[0]) + e * _q(K, R), np.sqrt(e) * R
            emat = np.kron(a0, a0.conj()) + np.kron(a1, a1.conj())
            defect.append(np.linalg.norm(emat - eye - e * gen))
            occ.append(_lattice_occupation(a0, a1, rho, e, int(round(cfg["length"] / e))))
        return occ, defect

    occ, defect = cache(reference)
    for k, e in enumerate(eps):
        _close(res["occupation"][k], occ[k], 1e-8, f"edge occupation at eps {e}")
        _close(res["transfer_defect"][k], defect[k], 1e-8, f"transfer defect at eps {e}")


def check_lindblad_check(cfg, out, cache):
    res = _read(out)
    for key in ("trace_defect_general", "trace_defect_jump_form"):
        _require(abs(res[key]) < 1e-12, f"{key} = {res[key]:.3e}")
    _require(res["max_difference"] > 0.0, "anomalous moments gave identical forms")


def check_family_deriv(cfg, out, cache):
    node = _read(out)["derivative"]
    value = complex(node["re"], node["im"])
    K, R = _model(cfg)
    dK, dR = _matrix(cfg["dK"]), _matrix(cfg["dR"])
    (p0, k0), (p1, k1) = [(i["position"], i["kind"]) for i in cfg["insertions"]]
    _require((k0, k1) == ("create", "annihilate"), "unexpected insertions")
    h = 1e-4

    def central():
        return (_two_point_at(K, R, dK, dR, h, p1 - p0)
                - _two_point_at(K, R, dK, dR, -h, p1 - p0)) / (2 * h)

    reference = cache(central)
    _close(value, reference, FAMILY_DERIV_RTOL, "family derivative vs central difference")


def check_zfunctional_check(cfg, out, cache):
    res = _read(out)
    _require(res["single_insertion_error"] <= ZFUNCTIONAL_SINGLE_MAX,
             f"single-insertion error {res['single_insertion_error']:.3e}")
    _require(res["two_insertion_error"] <= ZFUNCTIONAL_PAIR_MAX,
             f"two-insertion error {res['two_insertion_error']:.3e}")


def check_trajectories(cfg, out, cache):
    res = _read(out)
    z_rate = (res["rate"] - EMITTER_DENSITY) / res["rate_stderr"]
    _require(abs(z_rate) <= SIGMA_BAND, f"rate {res['rate']:.5f} is {z_rate:.2f} sigma off 1/3")
    exact = _emitter_bin_means(res["bin_edges"])
    for k, (g2, se, ref) in enumerate(zip(res["pair_correlation"], res["pair_stderr"], exact)):
        z = (g2 - ref) / se
        _require(abs(z) <= SIGMA_BAND, f"g2 bin {k}: {g2:.4f} is {z:.2f} sigma off {ref:.4f}")


CHECKS = {
    "steady": check_steady,
    "gap": check_gap,
    "correlate": check_correlate,
    "g2": check_g2,
    "kinetic": check_kinetic,
    "ll-energy": check_ll_energy,
    "converge": check_converge,
    "discretize": check_discretize,
    "lindblad-check": check_lindblad_check,
    "family-deriv": check_family_deriv,
    "zfunctional-check": check_zfunctional_check,
    "trajectories": check_trajectories,
}
