"""Jump trajectory sampler and record statistics.

Exact checks use hand-built records and closed-form waiting densities; the
Monte Carlo checks run at fixed master seeds so every assertion is a
deterministic 3 sigma test against an independently computed reference.
"""

import numpy as np
import pytest
import scipy.linalg

from cmps_lab import (
    Finite,
    JumpRecord,
    Thermodynamic,
    build_liouvillian,
    density,
    estimate_stats,
    new_cmps,
    no_jump_survival,
    pair_correlation,
    sample_ensemble,
    sample_trajectory,
    steady_state,
    two_point,
    waiting_bin_probs,
    waiting_time_analytic,
)
from cmps_lab.errors import (
    InsufficientDataError,
    NoConvergenceError,
    ValidationError,
    WindowTooSmallError,
)
from cmps_lab.trajectories import _record_histograms, _stream

from conftest import DAMP_R, EXCITED, RF_K, RF_R, kron_map, random_instance, unvec, vec

# the driven emitter at its exceptional point: Q = -i sigma_x / 4 - |e><e| / 2
# has the double eigenvalue -1/4 and a single eigenvector
EP_K = np.array([[0.0, 0.25], [0.25, 0.0]])


def _record(positions, length=10.0):
    return JumpRecord(
        positions=np.asarray(positions, dtype=float),
        final_state=np.array([1.0 + 0j, 0.0j]),
        seed_info=(0, 0),
        length=length,
    )


def _loop_histograms(records, edges, burn_in, window):
    """Record-by-record, jump-by-jump reference for _record_histograms."""
    tau_max = edges[-1]
    n_rec, n_bins = len(records), edges.size - 1
    counts = np.empty(n_rec)
    pair_hist = np.zeros((n_rec, n_bins))
    wait_counts = np.zeros((n_rec, n_bins))
    wait_cond = np.zeros(n_rec)
    for i, rec in enumerate(records):
        pos = rec.positions[rec.positions >= burn_in] - burn_in
        counts[i] = pos.size
        stop = np.searchsorted(pos, pos + tau_max, side="left")
        for j, left in enumerate(pos):
            gaps = pos[j + 1:stop[j]] - left
            which = np.searchsorted(edges, gaps, side="right") - 1
            keep = (which >= 0) & (which < n_bins)
            np.add.at(pair_hist[i], which[keep], 1.0 / (window - gaps[keep]))
        left_ok = pos[pos <= window - tau_max]
        wait_cond[i] = left_ok.size
        nxt = np.searchsorted(pos, left_ok, side="right")
        has_next = nxt < pos.size
        gaps = pos[nxt[has_next]] - left_ok[has_next]
        gaps = gaps[gaps < tau_max]
        which = np.searchsorted(edges, gaps, side="right") - 1
        keep = (which >= 0) & (which < n_bins)
        np.add.at(wait_counts[i], which[keep], 1.0)
    return counts, pair_hist, wait_counts, wait_cond


def test_sampler_rejects_bad_steps_and_lengths(rf):
    for length in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValidationError):
            sample_ensemble(rf, 2, length, master_seed=0)
    with pytest.raises(ValidationError):
        sample_ensemble(rf, 0, 1.0, master_seed=0)


def test_zero_emission_gives_empty_records_and_zero_rate():
    p = new_cmps(2, RF_K, np.zeros((2, 2)), Finite(length=2.0, boundary_rho=np.eye(2) / 2))
    recs = sample_ensemble(p, 3, 2.0, master_seed=5)
    assert all(r.positions.size == 0 for r in recs)
    assert all(abs(np.linalg.norm(r.final_state) - 1.0) < 1e-9 for r in recs)
    stats = estimate_stats(recs, [0.0, 0.5, 1.0])
    assert stats.rate == 0.0
    assert stats.rate_stderr == 0.0
    assert np.isnan(stats.pair_correlation).all()
    assert np.isnan(stats.waiting_probs).all()
    assert stats.n_conditioning_jumps == 0


def test_pure_decay_jumps_exactly_once(damping_finite):
    recs = sample_ensemble(damping_finite, 10000, 8.0, master_seed=42)
    njumps = np.array([r.positions.size for r in recs])
    # the post-jump state is dark, so a second jump is impossible
    assert njumps.max() <= 1
    # no-jump survival over the whole record is exp(-8)
    assert (njumps == 0).mean() < 2e-3
    pos = np.concatenate([r.positions for r in recs if r.positions.size])
    # first passage at unit rate has mean exactly 1
    assert abs(pos.mean() - 1.0) < 3.5 * pos.std() / np.sqrt(pos.size)
    # S(tau) = exp(-tau), so a jump lands at -log u for the stream's draw
    # after the initial-state one
    for i in range(20):
        gen = _stream(42, i)
        gen.random()
        u = gen.random()
        if u > np.exp(-8.0):
            assert recs[i].positions[0] == pytest.approx(-np.log(u), rel=1e-12)


def test_jump_positions_read_the_stream_across_blocks(coherent):
    # at D = 1, S(tau) = exp(-r^2 tau) from every state, so the k-th jump
    # lies at the running sum of -log(u) / r^2 over the stream's scalar
    # draws 2 .. k + 1 (draw 1 picks the initial state).  Records of more
    # than 40 jumps read their stream across several blocks
    r = 1.1
    length = 50.0
    recs = sample_ensemble(coherent(r=r), 3, length, master_seed=99, first_index=7)
    for rec in recs:
        assert rec.positions.size >= 40
        gen = _stream(*rec.seed_info)
        gen.random()
        waits = [-np.log(gen.random()) / r**2 for _ in range(rec.positions.size + 1)]
        expected = np.cumsum(waits)
        np.testing.assert_allclose(rec.positions, expected[:-1], rtol=1e-12, atol=0)
        # the next draw ends the record
        assert expected[-1] > length


@pytest.mark.parametrize("k", [RF_K, EP_K], ids=["emitter", "exceptional"])
def test_first_jump_times_follow_survival(k, monkeypatch):
    # from the excited state the first jump has survival S(tau) exactly
    p = new_cmps(2, k, RF_R, Finite(length=6.0, boundary_rho=EXCITED))
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(1) or expm(a))
    recs = sample_ensemble(p, 4000, 6.0, master_seed=2718)
    monkeypatch.undo()
    # the emitter's Q is diagonalizable and needs no expm; at the
    # exceptional point S comes from expm
    assert bool(calls) == (k is EP_K)
    edges = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
    first = np.array([r.positions[0] for r in recs if r.positions.size])
    observed = np.append(np.histogram(first, edges)[0], len(recs) - first.size) / len(recs)
    expected = np.append(waiting_bin_probs(p, edges, initial=EXCITED),
                         no_jump_survival(p, [edges[-1]], initial=EXCITED))
    stderr = np.sqrt(expected * (1 - expected) / len(recs))
    assert np.all(np.abs(observed - expected) < 3.0 * stderr)


def test_coherent_counts_are_poissonian(coherent):
    p = coherent(r=0.8, k=0.3)
    recs = sample_ensemble(p, 2000, 50.0, master_seed=7)
    edges = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0])
    stats = estimate_stats(recs, edges)
    assert abs(stats.rate - 0.64) < 3.0 * stats.rate_stderr
    # memoryless emission: flat pair correlation, exponential waiting times
    assert np.all(np.abs(stats.pair_correlation - 1.0) < 3.0 * stats.pair_stderr)
    ref = waiting_bin_probs(p, edges)
    assert np.all(np.abs(stats.waiting_probs - ref) < 3.0 * stats.waiting_stderr)


def test_stationary_rate_matches_density(rf):
    recs = sample_ensemble(rf, 1200, 50.0, master_seed=11)
    stats = estimate_stats(recs, [0.0, 1.0, 2.0], burn_in=20.0)
    assert abs(stats.rate - 1.0 / 3.0) < 3.0 * stats.rate_stderr


def test_bitwise_reproducibility_and_stream_independence(rf):
    a = sample_trajectory(rf, 30.0, master_seed=123, index=4)
    b = sample_trajectory(rf, 30.0, master_seed=123, index=4)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.final_state, b.final_state)
    assert a.seed_info == (123, 4)
    assert a.length == 30.0
    c = sample_trajectory(rf, 30.0, master_seed=123, index=5)
    d = sample_trajectory(rf, 30.0, master_seed=124, index=4)
    assert not np.array_equal(a.positions, c.positions)
    assert not np.array_equal(a.positions, d.positions)


def test_estimator_semantics_on_synthetic_records():
    recs = [_record([1.0, 1.5, 9.0]), _record([4.0, 5.2])]
    stats = estimate_stats(recs, [0.0, 1.0, 2.0])
    assert stats.rate == pytest.approx(0.25, abs=1e-15)
    assert stats.rate_stderr == pytest.approx(np.std([0.3, 0.2], ddof=1) / np.sqrt(2))
    # ordered pairs below the horizon: gap 0.5 weighted 1/9.5, gap 1.2
    # weighted 1/8.8; per-record densities averaged then divided by rate^2
    assert stats.pair_correlation == pytest.approx([16.0 / 19.0, 16.0 / 17.6], rel=1e-12)
    # conditioning jumps are those at most window - tau_max = 8: two per
    # record; observed next-gaps below the horizon are 0.5 and 1.2
    assert stats.n_conditioning_jumps == 4
    assert stats.waiting_probs == pytest.approx([0.25, 0.25], abs=1e-15)

    # burn-in drops early jumps and shrinks the window
    late = estimate_stats(recs, [0.0, 1.0], burn_in=5.0)
    assert late.rate == pytest.approx(0.2, abs=1e-15)
    assert late.pair_correlation[0] == 0.0
    assert late.waiting_probs[0] == 0.0
    assert late.n_conditioning_jumps == 2

    # the array histograms equal the jump-by-jump loop, with repeated
    # positions, empty records and burn-in
    more = recs + [_record([]), _record([0.2, 0.2, 0.9, 3.0, 3.0, 3.4, 7.9]), _record([])]
    for edges, burn_in in (([0.0, 1.0, 2.0], 0.0), ([0.0, 1.0], 5.0),
                           ([0.3, 0.5, 2.5], 0.2), ([0.0, 1.0, 2.0], 7.5)):
        edges = np.asarray(edges)
        window = 10.0 - burn_in
        got = _record_histograms(more, edges, burn_in, window)
        want = _loop_histograms(more, edges, burn_in, window)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)


def test_estimator_rejects_malformed_input():
    recs = [_record([1.0]), _record([2.0])]
    with pytest.raises(InsufficientDataError):
        estimate_stats(recs[:1], [0.0, 1.0])
    with pytest.raises(ValidationError):
        estimate_stats(recs, [1.0, 0.5])
    with pytest.raises(ValidationError):
        estimate_stats(recs, [-1.0, 1.0])
    with pytest.raises(ValidationError):
        estimate_stats(recs, [0.0])
    with pytest.raises(WindowTooSmallError):
        estimate_stats(recs, [0.0, 10.0])
    with pytest.raises(WindowTooSmallError):
        estimate_stats(recs, [0.0, 4.0], burn_in=6.0)
    mixed = [_record([1.0]), _record([2.0], length=12.0)]
    with pytest.raises(ValidationError):
        estimate_stats(mixed, [0.0, 1.0])


def test_shared_length_check_does_not_depend_on_the_length_unit():
    # K -> K / s, R -> R / sqrt(s): records of length 1e-13 and 2e-13 are
    # as different as records of length 10 and 20 in the unit s = 1
    s = 1e-14
    p = new_cmps(2, RF_K / s, RF_R / np.sqrt(s))
    short = sample_ensemble(p, 3, 10.0 * s, 4)
    long = sample_ensemble(p, 3, 20.0 * s, 5)
    edges = [0.0, 1.0 * s, 2.0 * s]
    assert estimate_stats(short, edges).n_traj == 3
    with pytest.raises(ValidationError, match="share one length"):
        estimate_stats(short + long, edges)


def test_finite_ensemble_tracks_driven_relaxation():
    p = new_cmps(2, RF_K, RF_R, Finite(length=4.0, boundary_rho=EXCITED))
    recs = sample_ensemble(p, 16000, 3.5, master_seed=88)
    lv = build_liouvillian(RF_K, RF_R)
    mat, v0 = kron_map(lv.terms, lv.fields), vec(EXCITED)
    half = 0.125
    for center in (0.5, 1.5, 3.0):
        in_bin = np.array([np.count_nonzero(np.abs(r.positions - center) <= half)
                           for r in recs])
        empirical = in_bin.mean() / (2 * half)
        stderr = in_bin.std(ddof=1) / np.sqrt(in_bin.size) / (2 * half)
        grid = np.linspace(center - half, center + half, 61)
        exact = [
            np.trace(RF_R @ unvec(scipy.linalg.expm(mat * s) @ v0) @ RF_R.conj().T).real
            for s in grid
        ]
        expected = np.trapezoid(exact, grid) / (2 * half)
        assert abs(empirical - expected) < 3.5 * stderr


def test_random_instances_match_spectral_predictions():
    # two bond-dimension-3 instances with well-separated gaps
    for inst_seed, ens_seed in ((5002, 7702), (5007, 7707)):
        p = random_instance(inst_seed, dims=(3, 4))
        data = steady_state(build_liouvillian(p.K, p.R))
        gap = data.gap
        dens = density(p)
        burn = 10.0 / gap
        edges = np.array([0.0, 0.5, 1.0, 1.5, 2.5, 4.0]) / gap
        recs = sample_ensemble(p, 4000, 30.0 / gap + burn, master_seed=ens_seed)
        stats = estimate_stats(recs, edges, burn_in=burn)
        assert abs(stats.rate - dens) < 3.0 * stats.rate_stderr
        for k in range(edges.size - 1):
            grid = np.linspace(edges[k], edges[k + 1], 201)
            g2 = pair_correlation(p, grid).values.real
            mean_g2 = np.trapezoid(g2, grid) / (grid[-1] - grid[0])
            z = (stats.pair_correlation[k] - mean_g2) / stats.pair_stderr[k]
            assert abs(z) < 3.0


def test_waiting_histogram_matches_renewal_density(rf):
    edges = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5])
    recs = sample_ensemble(rf, 6000, 60.0, master_seed=314)
    stats = estimate_stats(recs, edges, burn_in=20.0)
    ref = waiting_bin_probs(rf, edges)
    z = (stats.waiting_probs - ref) / stats.waiting_stderr
    assert np.max(np.abs(z)) < 3.0
    assert stats.n_conditioning_jumps > 10000


def test_waiting_closed_forms(damping_finite):
    taus = np.linspace(0.0, 6.0, 25)
    # pure decay from the excited state: survival and density are exp(-tau)
    assert np.allclose(no_jump_survival(damping_finite, taus), np.exp(-taus), atol=1e-12)
    assert np.allclose(waiting_time_analytic(damping_finite, taus), np.exp(-taus), atol=1e-12)
    probs = waiting_bin_probs(damping_finite, [0.0, 1.0, 3.0])
    assert probs == pytest.approx([1 - np.exp(-1), np.exp(-1) - np.exp(-3)], abs=1e-12)

    # no emission channel: flat survival, vanishing density
    p0 = new_cmps(2, RF_K, np.zeros((2, 2)), Finite(length=2.0, boundary_rho=np.eye(2) / 2))
    assert np.allclose(no_jump_survival(p0, taus), 1.0, atol=1e-12)
    assert np.allclose(waiting_time_analytic(p0, taus), 0.0)
    assert np.allclose(waiting_bin_probs(p0, [0.0, 1.0, 2.0]), 0.0, atol=1e-12)

    with pytest.raises(ValidationError):
        no_jump_survival(damping_finite, [-0.1])
    with pytest.raises(ValidationError):
        waiting_bin_probs(damping_finite, [1.0, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
def test_no_jump_oracle_rejects_bad_taus(rf, damping_finite, bad):
    # NaN used to come back as a NaN survival and inf as a RuntimeWarning;
    # a dark state (R = 0) checks its taus like any other
    dark = new_cmps(2, RF_K, np.zeros((2, 2)))
    for p in (rf, damping_finite, dark):
        for oracle in (no_jump_survival, waiting_time_analytic):
            with pytest.raises(ValidationError, match=f"finite and nonnegative, got {bad}"):
                oracle(p, [0.0, bad])
        with pytest.raises(ValidationError):
            waiting_bin_probs(p, [0.0, 1.0, bad])


def test_waiting_density_integrates_to_bin_masses(rf):
    # w = -dS/dtau, so quadrature of w over a bin recovers S(a) - S(b)
    edges = np.array([0.0, 0.8, 2.0, 4.0])
    probs = waiting_bin_probs(rf, edges)
    for k in range(edges.size - 1):
        grid = np.linspace(edges[k], edges[k + 1], 801)
        quad = np.trapezoid(waiting_time_analytic(rf, grid), grid)
        assert abs(quad - probs[k]) < 1e-6
    assert 0.0 < probs.sum() < 1.0
    # the density is normalizable: it never integrates past unity
    wide = np.linspace(0.0, 40.0, 1501)
    total = np.trapezoid(waiting_time_analytic(rf, wide), wide)
    assert total < 1.0 + 1e-9


@pytest.mark.parametrize("burn_in", [-10.0, -1e-300, float("nan"), float("inf")])
def test_estimator_rejects_a_burn_in_that_is_negative_or_not_finite(burn_in):
    # a negative burn-in would widen the window past the record's start
    # and bias the rate low
    recs = [_record([1.0, 5.0]), _record([2.0])]
    with pytest.raises(ValidationError, match=f"burn_in must be finite and nonnegative, got {burn_in}"):
        estimate_stats(recs, [0.0, 0.5, 1.0], burn_in=burn_in)


@pytest.mark.parametrize("edges", [[0.0, float("nan")], [0.0, 1.0, float("inf")],
                                   [float("inf"), float("inf")]])
def test_estimator_rejects_bin_edges_that_are_not_finite(edges):
    recs = [_record([1.0, 5.0]), _record([2.0])]
    with pytest.raises(ValidationError, match="bin edges must be a finite ascending 1d array, got"):
        estimate_stats(recs, edges)


def test_a_drive_the_sampler_cannot_resolve_is_refused_before_any_propagation(monkeypatch):
    # K = k sigma_x / 2, R = sigma_-: the density is 1/2 at strong drive.
    # ||Q||_1 x length = 5e12 is sampled at that density; above PHASE_LIMIT
    # = 1e13 the sampler and the no-jump oracle refuse the model before
    # anything is propagated, so no warning fires even at k = 1e20
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    window = Finite(length=10.0, boundary_rho=np.eye(2) / 2)
    weak, strong = (new_cmps(2, k * sx / 2, DAMP_R, window) for k in (1e2, 1e12))
    rates = [np.mean([r.positions.size for r in sample_ensemble(p, 200, 10.0, 3)]) / 10.0
             for p in (weak, strong)]
    assert rates[0] == rates[1]
    assert abs(rates[1] - 0.5) < 0.05
    assert no_jump_survival(new_cmps(2, 5e12 * sx / 2, DAMP_R, window), [1.0])[0] >= 0.0
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: pytest.fail("expm was called"))
    monkeypatch.setattr(np.linalg, "eig", lambda a: pytest.fail("Q was diagonalized"))
    for k in (5e12, 1e20):
        p = new_cmps(2, k * sx / 2, DAMP_R, window)
        for call in (lambda: sample_ensemble(p, 200, 10.0, 3),
                     lambda: no_jump_survival(p, [0.0, 10.0]),
                     lambda: waiting_time_analytic(p, [10.0]),
                     lambda: waiting_bin_probs(p, [0.0, 5.0, 10.0])):
            with pytest.raises(NoConvergenceError, match="not resolved in double precision"):
                call()


@pytest.mark.parametrize("geometry", [Thermodynamic(),
                                      Finite(length=1.0, boundary_rho=np.eye(2) / 2)])
def test_fields_that_overflow_are_refused_without_a_warning(geometry):
    # every entry of K and R is finite, but R^dag R reaches 1e320: the
    # fields used to warn (an error under this suite's settings) before any
    # reader refused them, the sampler then raised a bare LinAlgError, and
    # a finite survival returned nan
    p = new_cmps(2, 1e300 * RF_K, 1e160 * RF_R, geometry)
    for call in (lambda: sample_ensemble(p, 3, 1.0, 1),
                 lambda: no_jump_survival(p, [0.5]),
                 lambda: waiting_time_analytic(p, [0.5]),
                 lambda: two_point(p, [0.5])):
        with pytest.raises(NoConvergenceError, match="non-finite"):
            call()
