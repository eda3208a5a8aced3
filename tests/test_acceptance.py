"""End-to-end acceptance checks.

One test per acceptance criterion; every test prints a single summary line
(visible in the verbose report) with the measured numbers before asserting,
so a red criterion still leaves its evidence in the log.
"""

import json

import numpy as np
import pytest
import scipy.linalg

from cmps_lab import (
    FieldMoments,
    build_general_generator,
    build_liouvillian,
    compare_forms,
    decay_fit,
    density,
    estimate_stats,
    expectation,
    family_derivative,
    kinetic_density,
    lattice_correlators,
    lattice_tensors,
    new_cmps,
    pair_correlation,
    sample_ensemble,
    source_consistency_check,
    spectral_envelope,
    steady_state,
    trace_functional,
    transfer_matrix,
    two_point,
    vectorize,
)
from cmps_lab.cli import main
from cmps_lab.correlators import INSERTIONS
from cmps_lab.liouville import choi_min_eigenvalue, fields, superop

from conftest import RF_K, RF_R, rand_herm, rand_mat, random_instance


def _report(num, label, details):
    print(f"criterion {num} ({label}): PASS - {details}")


def test_criterion_01_coherent_field_exactness(coherent):
    p = coherent(r=0.8, k=0.3)
    grid = np.array([0.0, 0.7, 3.1, 10.0])
    n = density(p)
    tp = two_point(p, grid).values
    g2 = pair_correlation(p, grid).values
    kin = kinetic_density(p)
    worst = max(
        abs(n - 0.64),
        float(np.abs(tp - 0.64).max()),
        float(np.abs(g2 - 1.0).max()),
        abs(kin),
    )
    _report(1, "coherent-field exactness", f"worst deviation {worst:.3e}")
    assert abs(n - 0.64) < 1e-12
    assert np.abs(tp - 0.64).max() < 1e-12
    assert np.abs(g2 - 1.0).max() < 1e-12
    assert abs(kin) < 1e-12


def test_criterion_02_generator_trace_and_positivity():
    worst_trace = 0.0
    worst_choi = np.inf
    for seed in range(100):
        p = random_instance(seed, dims=(2, 7))
        lv = build_liouvillian(p.K, p.R)
        defect = np.abs(trace_functional(p.dim) @ lv.mat).max()
        channel = scipy.linalg.expm(lv.mat * 0.1)
        low = choi_min_eigenvalue(channel)
        worst_trace = max(worst_trace, float(defect))
        worst_choi = min(worst_choi, low)
    _report(2, "trace preservation and positivity",
            f"100 instances, worst trace defect {worst_trace:.2e}, "
            f"min Choi eigenvalue {worst_choi:+.2e}")
    assert worst_trace < 1e-12
    assert worst_choi >= -1e-9


def test_criterion_03_vacuum_moments_reduce_to_jump_form():
    vacuum = FieldMoments(psi_dag_sq=0.0, psi_sq=0.0, psi_dag_psi=0.0, psi_psi_dag=1.0)
    worst = 0.0
    for seed in range(200, 250):
        p = random_instance(seed)
        general = build_general_generator(p.K, p.R, vacuum).mat
        bare = build_liouvillian(p.K, p.R).mat
        worst = max(worst, float(np.abs(general - bare).max()))
    _report(3, "vacuum reduction", f"50 instances, worst entry difference {worst:.2e}")
    assert worst < 1e-12


def test_criterion_04_lattice_refinement_orders(rf):
    eps_list = [1e-2, 5e-3, 2.5e-3]
    lv = build_liouvillian(RF_K, RF_R)
    eye = np.eye(4)
    dens_errors, defects = [], []
    for eps in eps_list:
        tensors = lattice_tensors(rf, eps)
        occ = lattice_correlators(tensors, "occupation")
        dens_errors.append(abs(float(occ) - 1.0 / 3.0))
        emat = transfer_matrix(tensors).mat
        defects.append(float(np.linalg.norm(emat - eye - eps * lv.mat)))
    dens_ratios = [dens_errors[i] / dens_errors[i + 1] for i in range(2)]
    defect_ratios = [defects[i] / defects[i + 1] for i in range(2)]
    _report(4, "continuum refinement",
            f"density error ratios {dens_ratios[0]:.2f}, {dens_ratios[1]:.2f} "
            f"(target 2); transfer defect ratios {defect_ratios[0]:.2f}, "
            f"{defect_ratios[1]:.2f} (target 4)")
    for r in dens_ratios:
        assert 1.6 < r < 2.4
    for r in defect_ratios:
        assert 2.8 < r < 5.2


def _slow_mode_window(params):
    """Slowest decaying mode of the two-point function and a fit window.

    Returns (rate, is_real, a, b): the window [a, b] inside d in [1, 20] on
    which subdominant modes contaminate by at most 1e-2 while the slow-mode
    signal stays above 1e-11.  Quasi-degenerate spectra yield b - a < 2 and
    are reported as infeasible by the caller.
    """
    lv = build_liouvillian(params.K, params.R)
    data = steady_state(lv)
    evals, vecs = np.linalg.eig(lv.mat)
    winv = np.linalg.inv(vecs)
    f = fields(params.K, params.R)
    row = trace_functional(params.dim) @ superop(INSERTIONS["annihilate"], f)
    col = superop(INSERTIONS["create"], f) @ vectorize(data.steady_state)
    coefs = (row @ vecs) * (winv @ col)
    zero_idx = int(np.argmin(np.abs(evals)))
    keep = [k for k in range(evals.size) if k != zero_idx and abs(coefs[k]) > 1e-12]
    if not keep:
        return None
    rates = -evals.real
    slow = min(keep, key=lambda k: rates[k])
    r1 = rates[slow]
    is_real = abs(evals[slow].imag) <= 1e-9
    twins = [k for k in keep if abs(rates[k] - r1) <= 1e-9]
    rest = [k for k in keep if k not in twins]
    c1 = sum(abs(coefs[k]) for k in twins)
    a = 1.0
    if rest:
        r2 = min(rates[k] for k in rest)
        contamination = sum(abs(coefs[k]) for k in rest) / c1
        if contamination > 1e-2:
            a = max(1.0, np.log(100.0 * contamination) / (r2 - r1))
    b = min(20.0, np.log(c1 / 1e-11) / r1)
    return r1, is_real, a, b


def test_criterion_05_exponential_clustering():
    instances = []
    seed = 1001
    while len(instances) < 20:
        p = random_instance(seed)
        seed += 1
        data = steady_state(build_liouvillian(p.K, p.R))
        if 0.05 <= data.gap <= 1.2:
            instances.append(p)
    grid = np.linspace(1.0, 20.0, 39)

    worst_ratio = 0.0
    fitted, skipped, fit_errs = 0, 0, []
    for p in instances:
        c0, pref, gap = spectral_envelope(p)
        connected = np.abs(two_point(p, grid).values - c0)
        envelope = pref * np.exp(-gap * grid)
        worst_ratio = max(worst_ratio, float(
            (connected / (envelope * (1 + 1e-9) + 1e-13)).max()))

        mode = _slow_mode_window(p)
        if mode is None:
            skipped += 1
            continue
        r1, is_real, a, b = mode
        if not is_real or b - a < 2.0:
            # oscillating envelope or quasi-degenerate spectrum: no window
            # inside d in [1, 20] isolates the slow mode, so no rate check
            skipped += 1
            continue
        fit = decay_fit(p, a, b)
        fit_errs.append(abs(fit.rate - r1) / r1)
        fitted += 1

    _report(5, "exponential clustering",
            f"20 instances; pointwise bound ratio max {worst_ratio:.3f} (< 1); "
            f"{fitted} slow-mode fits, worst rate error "
            f"{max(fit_errs):.2%}; {skipped} without an isolating window")
    assert worst_ratio <= 1.0
    assert fitted >= 10
    assert all(e < 0.05 for e in fit_errs)


def test_criterion_06_jump_statistics_match_correlators(rf):
    edges = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0])
    recs = sample_ensemble(rf, 10000, 100.0, master_seed=606)
    stats = estimate_stats(recs, edges, burn_in=20.0)

    rate_z = abs(stats.rate - 1.0 / 3.0) / stats.rate_stderr
    zs = []
    for k in range(edges.size - 1):
        fine = np.linspace(edges[k], edges[k + 1], 201)
        g2 = pair_correlation(rf, fine).values.real
        mean_g2 = np.trapezoid(g2, fine) / (fine[-1] - fine[0])
        zs.append((stats.pair_correlation[k] - mean_g2) / stats.pair_stderr[k])
    max_z = float(np.abs(zs).max())

    _report(6, "jump statistics vs correlators",
            f"10000 trajectories; rate {stats.rate:.4f} vs 1/3 "
            f"(z = {rate_z:.2f}); pair bins max |z| = {max_z:.2f}; "
            f"first-bin g2 = {stats.pair_correlation[0]:.3f}")
    assert rate_z < 3.0
    assert max_z < 3.0
    assert stats.pair_correlation[0] < 0.2


def test_criterion_07_source_functional_refinement(rf):
    levels = [(0.1, 0.02, 40), (0.05, 0.01, 80), (0.025, 0.005, 160)]
    singles, doubles = [], []
    for eps, h, n in levels:
        out = source_consistency_check(rf, eps=eps, h=h, n_sites=n)
        singles.append(out["single_insertion_error"])
        doubles.append(out["two_insertion_error"])
    _report(7, "source-functional consistency",
            f"single-insertion errors {singles[0]:.2e} -> {singles[2]:.2e}, "
            f"two-insertion errors {doubles[0]:.2e} -> {doubles[2]:.2e} "
            "under simultaneous refinement")
    assert singles[0] < 1e-6 and doubles[0] < 1e-3
    for seq in (singles, doubles):
        assert seq[0] / seq[1] > 1.5 and seq[1] / seq[2] > 1.5


def test_criterion_08_family_derivative_is_second_order(rf):
    ratios, errs = [], []
    for i in range(10):
        rng = np.random.default_rng(6000 + i)
        dk = rand_herm(2, rng)
        dr = 0.5 * rand_mat(2, rng)
        if i % 2 == 0:
            chain = [(0.8, "pair_density")]
        else:
            chain = [(0.5, "create"), (1.3, "annihilate")]

        exact = family_derivative(rf, dk, dr, chain)

        def objective(h):
            return expectation(new_cmps(2, RF_K + h * dk, RF_R + h * dr), chain)

        fd_errs = []
        for h in (0.01, 0.005):
            fd = (objective(h) - objective(-h)) / (2 * h)
            fd_errs.append(abs(fd - exact))
        errs.append(fd_errs[0])
        ratios.append(fd_errs[0] / fd_errs[1])
    _report(8, "family-derivative order",
            f"10 perturbations; error(h=0.01) max {max(errs):.2e}; "
            f"halving ratios in [{min(ratios):.3f}, {max(ratios):.3f}] (target 4)")
    assert max(errs) < 1e-3
    assert all(3.5 < r < 4.5 for r in ratios)


def test_criterion_09_byte_identical_reruns(tmp_path):
    model = {"dim": 2, "K": {"re": [[0.0, 0.5], [0.5, 0.0]]},
             "R": {"re": [[0.0, 0.0], [1.0, 0.0]]}}
    steady_cfg = tmp_path / "steady.json"
    steady_cfg.write_text(json.dumps({"model": model, "geometry": "thermodynamic"}))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"steady_{tag}.json"
        assert main(["steady", "--config", str(steady_cfg), "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    steady_equal = outs[0] == outs[1]

    traj_cfg = tmp_path / "traj.json"
    traj_cfg.write_text(json.dumps({
        "model": model, "geometry": "thermodynamic", "length": 30.0,
        "n_traj": 30, "seed": 12, "bins": [0.0, 1.0, 2.0],
    }))
    touts = []
    for tag in ("a", "b", "c"):
        out = tmp_path / f"traj_{tag}.json"
        assert main(["trajectories", "--config", str(traj_cfg),
                     "--output", str(out)]) == 0
        touts.append(out.read_bytes())
    traj_equal = touts[0] == touts[1] == touts[2]

    _report(9, "deterministic outputs",
            "steady rerun byte-identical: %s; three trajectories reruns "
            "byte-identical: %s" % (steady_equal, traj_equal))
    assert steady_equal
    assert traj_equal


def test_criterion_10_generator_form_comparison(rf):
    worst_diag = 0.0
    for nbar in (0.0, 0.5, 2.0):
        m = FieldMoments(psi_dag_sq=0.0, psi_sq=0.0,
                         psi_dag_psi=nbar, psi_psi_dag=nbar + 1.0)
        comp = compare_forms(RF_K, RF_R, m, dx=0.1)
        worst_diag = max(worst_diag, comp.max_difference)

    anomalous = FieldMoments(psi_dag_sq=0.3, psi_sq=0.3,
                             psi_dag_psi=0.5, psi_psi_dag=1.5)
    diag = compare_forms(RF_K, RF_R, anomalous, dx=0.1)
    _report(10, "generator form comparison",
            f"diagonal moments agree to {worst_diag:.2e}; anomalous moments "
            f"deviate by {diag.max_difference:.3e} at dx=0.1 while both forms "
            f"stay trace preserving (defects {diag.trace_defect_general:.1e} / "
            f"{diag.trace_defect_jump_form:.1e}) - diagnostic, not a failure")
    assert worst_diag < 1e-12
    assert diag.max_difference > 1e-3
    assert abs(diag.trace_defect_general) < 1e-12
    assert abs(diag.trace_defect_jump_form) < 1e-12
