"""Unraveled photon-counting trajectories of the measured field.

A pure internal state phi evolves under the no-jump contraction
exp(Q tau) until a jump phi -> R phi / ||R phi||.  The probability that no
jump occurs within tau is the survival S(tau) = ||exp(Q tau) phi||^2, so
the sampler draws the waiting time to each jump exactly: it draws a
uniform u and solves S(tau) = u (Dalibard, Castin & Molmer, PRL 68, 580,
1992).  When S over the rest of the record stays at or above u, the
trajectory has no further jump and keeps the normalized
exp(Q * remaining) phi as its final state.  Jump positions along the
record are the point process whose statistics (intensity, pair
correlation, waiting times) the state-space correlators predict; the
estimators here are the empirical side of that comparison.

S is a sum of exponentials in the eigenbasis of Q.  Near an exceptional
point that basis is ill-conditioned (or Q is defective), and S is then
evaluated with scipy.linalg.expm instead; the choice follows from the
condition number of the eigenvector matrix.

Reproducibility: trajectory index i of master seed s draws from
Generator(PCG64(SeedSequence([s, i]))), using one uniform for the
initial-state draw, one per jump and one for the draw that ends the
record.  The stream is read ahead in blocks (`_Uniforms`), and
Generator.random(k) yields the same doubles as k scalar draws, so the
values a record uses do not change with the block size.  Every
per-trajectory quantity is computed row by row in a fixed order, and a
row leaves the root finder as soon as it converges, so a record is
bit-identical whichever trajectories share its batch: an ensemble member
equals the single trajectory sampled at its index.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Finite, _integer
from .errors import (
    InsufficientDataError,
    NoConvergenceError,
    NonNormalizableStateError,
    ValidationError,
    WindowTooSmallError,
)
from .liouville import fields

# the sum of exponentials loses about eps * cond(V)^2 of S (relative); at
# this bound that stays below 1e-10, beyond it S comes from expm
EIG_COND_LIMIT = 1e3
# relative accuracy of each sampled waiting time
WAIT_RTOL = 1e-12
# largest ||Q||_1 x span of no-jump evolution sampled or evaluated: the
# phase of exp(Q tau) is rounded by about ||Q|| tau 2^-53, and the driven
# emitter's sampled rate (K = k sigma_x / 2, R = sigma_-, length 10) is bit
# for bit the weakly driven one up to 1e13, drifts from 2.5e13 on and is
# wrong without a warning from 5e15
PHASE_LIMIT = 1e13


@dataclass(frozen=True)
class JumpRecord:
    """One trajectory: jump positions plus the surviving pure state."""

    positions: np.ndarray
    final_state: np.ndarray
    seed_info: tuple
    length: float


@dataclass(frozen=True)
class TrajectoryStats:
    n_traj: int
    length: float
    rate: float
    rate_stderr: float
    bin_edges: np.ndarray
    pair_correlation: np.ndarray
    pair_stderr: np.ndarray
    waiting_probs: np.ndarray
    waiting_stderr: np.ndarray
    n_conditioning_jumps: int


def _no_jump_generator(params, span):
    """Q, refused as NoConvergenceError when its fields overflow or when
    ||Q||_1 x span, the longest no-jump evolution asked for, exceeds
    PHASE_LIMIT."""
    q = fields(params.K, params.R)["Q"]
    if not np.isfinite(q).all():
        raise NoConvergenceError("no-jump generator Q has non-finite entries")
    with np.errstate(over="ignore"):
        phase = float(np.abs(q).sum(axis=0).max()) * span
    if phase > PHASE_LIMIT:
        raise NoConvergenceError(
            f"||Q||_1 x {span:g} = {phase:.3e} exceeds {PHASE_LIMIT:g}: the no-jump"
            f" evolution is not resolved in double precision")
    return q


def _stream(master_seed, index):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([master_seed, index]))
    )


class _Uniforms:
    """The uniforms of a batch of streams, one row per stream, read from
    each stream `BLOCK` at a time and refilled when a row runs out."""

    BLOCK = 16

    def __init__(self, gens):
        self.gens = gens
        self.buf = np.empty((len(gens), self.BLOCK))
        self.used = np.full(len(gens), self.BLOCK)

    def draw(self, rows):
        """The next uniform of each stream in rows."""
        empty = rows[self.used[rows] == self.BLOCK]
        for b in empty:
            self.buf[b] = self.gens[b].random(self.BLOCK)
        self.used[empty] = 0
        u = self.buf[rows, self.used[rows]]
        self.used[rows] += 1
        return u


def _initial_ensemble(params):
    """Eigen-decomposed rho(0): cumulative weights and the pure states."""
    if isinstance(params.geometry, Finite):
        rho = params.geometry.boundary_rho
    else:
        rho = params.stationary.steady_state
    vals, vecs = np.linalg.eigh(rho)
    probs = np.clip(vals.real, 0.0, None)
    probs = probs / probs.sum()
    return np.cumsum(probs), vecs


def _pick_initial(u, cum, vecs):
    """Pure initial states, one per uniform, drawn from the ensemble."""
    idx = np.minimum(np.searchsorted(cum, u, side="right"), vecs.shape[1] - 1)
    phi = vecs[:, idx].T
    return phi / np.sqrt((phi.real**2 + phi.imag**2).sum(axis=1))[:, None]


def _matvec(mat, vecs):
    """Row-wise mat @ vecs[b] for a (D, D) or per-row (B, D, D) matrix.

    Accumulates over the columns in a fixed order with elementwise
    operations, so a row's result never depends on the other rows.
    """
    out = mat[..., 0] * vecs[:, :1]
    for j in range(1, vecs.shape[1]):
        out = out + mat[..., j] * vecs[:, j:j + 1]
    return out


def _quadratic(mat, vecs):
    """Row-wise real part of vecs[b]^dag mat vecs[b]."""
    return (vecs.conj() * _matvec(mat, vecs)).real.sum(axis=1)


class _NoJumpFlow:
    """exp(Q tau), 0 <= tau <= length, on a batch of states held in
    coordinates z = V^-1 phi.

    V diagonalizes Q when it is well conditioned, and propagation is then
    elementwise; otherwise V is the identity and each row takes its own
    expm(Q tau).  gram = V^dag V and rate = (R V)^dag (R V) give the
    survival S = z^dag gram z and the jump density -S' = z^dag rate z of a
    propagated (unnormalized) row.
    """

    def __init__(self, params, length):
        q = _no_jump_generator(params, length)
        lam, vecs = np.linalg.eig(q)
        if np.linalg.cond(vecs) <= EIG_COND_LIMIT:
            self.lam, self.q, basis = lam, None, vecs
        else:
            self.lam, self.q, basis = None, q, np.eye(params.dim, dtype=complex)
        inv = np.linalg.inv(basis)
        r_basis = params.R @ basis
        self.basis = basis
        self.inv = inv
        self.gram = basis.conj().T @ basis
        self.rate = r_basis.conj().T @ r_basis
        self.jump_op = inv @ r_basis

    def coordinates(self, phi):
        return _matvec(self.inv, phi)

    def propagate(self, z, taus):
        if self.lam is not None:
            return np.exp(taus[:, None] * self.lam) * z
        return _matvec(scipy.linalg.expm(self.q * taus[:, None, None]), z)

    def survival(self, y):
        return _quadratic(self.gram, y)

    def jump_density(self, y):
        return _quadratic(self.rate, y)

    def jump(self, y):
        """Normalized R phi for every propagated row."""
        weight = self.jump_density(y)
        if not np.all(weight > 0.0):
            raise NonNormalizableStateError("post-jump state has zero norm")
        return _matvec(self.jump_op, y) / np.sqrt(weight)[:, None]

    def state(self, y):
        """Normalized phi for every propagated row."""
        phi = _matvec(self.basis, y)
        norm = np.sqrt((phi.real**2 + phi.imag**2).sum(axis=1))
        if not np.all(norm > 0.0):
            raise NonNormalizableStateError("state norm underflow")
        return phi / norm[:, None]


def _waiting_times(flow, z, u, rem):
    """Solve S(tau) = u on (0, rem) for each row, where S(rem) < u.

    Newton on log S, safeguarded by bisection of the bracket [lo, hi]
    (rtsafe, Numerical Recipes 9.4).  Rows leave the iteration as soon as
    they converge, so each row follows its own sequence of iterates.
    """
    n = rem.size
    out = np.empty(n)
    rows = np.arange(n)
    log_u = np.log(u)
    lo, hi = np.zeros(n), rem.copy()
    tau = np.zeros(n)
    dx = dx_old = rem.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while rows.size:
            y = flow.propagate(z[rows], tau)
            s = flow.survival(y)
            g = np.log(s) - log_u[rows]
            slope = -flow.jump_density(y) / s
            above = g > 0
            lo = np.where(above, tau, lo)
            hi = np.where(above, hi, tau)
            newton = tau - g / slope
            close = np.abs(newton - tau) <= WAIT_RTOL * tau
            bisect = (~((newton > lo) & (newton < hi))
                      | (np.abs(2.0 * g) > np.abs(dx_old * slope)))
            dx_old = dx
            dx = np.where(bisect, 0.5 * (hi - lo), newton - tau)
            tau = np.where(bisect & ~close, lo + dx, newton)
            done = close | (np.abs(dx) <= WAIT_RTOL * tau)
            out[rows[done]] = tau[done]
            keep = ~done
            rows, lo, hi, tau, dx, dx_old = (
                a[keep] for a in (rows, lo, hi, tau, dx, dx_old))
    return out


def sample_trajectory(params, length, master_seed, index=0):
    records = sample_ensemble(params, 1, length, master_seed, first_index=index)
    return records[0]


def sample_ensemble(params, n_traj, length, master_seed, first_index=0):
    """Draw n_traj independent trajectories of the given record length."""
    length = float(length)
    if not 0.0 < length < np.inf:
        raise ValidationError("record length must be finite and positive")
    n_traj = _integer(n_traj, "n_traj")
    master_seed = _integer(master_seed, "master_seed")
    first_index = _integer(first_index, "first_index")
    if n_traj < 1:
        raise ValidationError("n_traj must be at least 1")
    if master_seed < 0 or first_index < 0:
        raise ValidationError(
            f"master_seed and first_index must be >= 0, got {master_seed} and {first_index}")
    flow = _NoJumpFlow(params, length)
    cum, vecs = _initial_ensemble(params)
    indices = [first_index + i for i in range(n_traj)]
    uniforms = _Uniforms([_stream(master_seed, i) for i in indices])
    active = np.arange(n_traj)
    z = flow.coordinates(_pick_initial(uniforms.draw(active), cum, vecs))
    t = np.zeros(n_traj)
    final = np.empty_like(z)
    jump_rows, jump_pos = [], []

    while active.size:
        u = uniforms.draw(active)
        rem = length - t[active]
        y_end = flow.propagate(z[active], rem)
        ends = flow.survival(y_end) >= u
        final[active[ends]] = flow.state(y_end[ends])
        go = ~ends
        active = active[go]
        if not active.size:
            break
        tau = _waiting_times(flow, z[active], u[go], rem[go])
        z[active] = flow.jump(flow.propagate(z[active], tau))
        t[active] += tau
        jump_rows.append(active)
        jump_pos.append(t[active])

    rows = np.concatenate(jump_rows) if jump_rows else np.empty(0, dtype=np.intp)
    pos = np.concatenate(jump_pos) if jump_pos else np.empty(0)
    order = np.argsort(rows, kind="stable")
    rows, pos = rows[order], pos[order]
    bounds = np.searchsorted(rows, np.arange(n_traj + 1))
    return [
        JumpRecord(positions=pos[bounds[b]:bounds[b + 1]].copy(),
                   final_state=final[b].copy(),
                   seed_info=(master_seed, idx),
                   length=length)
        for b, idx in enumerate(indices)
    ]


def _record_histograms(records, edges, burn_in, window):
    """Per-record jump counts, pair histograms and waiting-time counts.

    Returns (counts, pair_hist, wait_counts, wait_cond): jumps after
    burn-in, inverse-measure-weighted ordered pairs per separation bin,
    next-jump gaps per bin, and the conditioning jumps of each record.
    """
    n_rec = len(records)
    n_bins = edges.size - 1
    tau_max = edges[-1]
    # every record's jumps after burn-in in one array, record after record;
    # end[j] is one past the last jump of the record that holds jump j
    sizes = [rec.positions.size for rec in records]
    raw = np.concatenate([rec.positions for rec in records])
    late = raw >= burn_in
    pos = raw[late] - burn_in
    rec_of = np.repeat(np.arange(n_rec), sizes)[late]
    counts = np.bincount(rec_of, minlength=n_rec).astype(float)
    end = np.cumsum(counts).astype(np.intp)[rec_of]

    def histogram(rec, gaps, weights=None):
        which = np.searchsorted(edges, gaps, side="right") - 1
        keep = (which >= 0) & (which < n_bins)
        cells = rec[keep] * n_bins + which[keep]
        hist = np.bincount(cells, None if weights is None else weights[keep],
                           minlength=n_rec * n_bins)
        return hist.astype(float).reshape(n_rec, n_bins)

    # ordered pairs, weighted by the inverse of the admissible left-point
    # measure so the bin average is the raw pair density; lag k pairs each
    # jump with the k-th next one, until all partners are past tau_max
    left = np.arange(pos.size)
    left_all, right_all = [left[:0]], [left[:0]]
    lag = 1
    while left.size:
        left = left[left + lag < end[left]]
        left = left[pos[left + lag] < pos[left] + tau_max]
        left_all.append(left)
        right_all.append(left + lag)
        lag += 1
    left, right = np.concatenate(left_all), np.concatenate(right_all)
    gaps = pos[right] - pos[left]
    pair_hist = histogram(rec_of[left], gaps, 1.0 / (window - gaps))

    # waiting times conditioned on a jump early enough that any gap up
    # to tau_max is observable, which removes censoring entirely; the next
    # jump is the first one strictly later in the same record
    new_value = np.ones(pos.size, dtype=bool)
    new_value[1:] = (pos[1:] != pos[:-1]) | (rec_of[1:] != rec_of[:-1])
    run_start = np.flatnonzero(new_value)
    run_stop = np.append(run_start[1:], pos.size)
    nxt = run_stop[np.cumsum(new_value) - 1]
    left = np.flatnonzero(pos <= window - tau_max)
    wait_cond = np.bincount(rec_of[left], minlength=n_rec).astype(float)
    left = left[nxt[left] < end[left]]
    gaps = pos[nxt[left]] - pos[left]
    below = gaps < tau_max
    wait_counts = histogram(rec_of[left][below], gaps[below])

    return counts, pair_hist, wait_counts, wait_cond


def estimate_stats(records, bins, burn_in=0.0):
    """Empirical rate, pair correlation, and waiting-time histogram.

    bins is one ascending edge array shared by the pair-separation and
    waiting-time histograms; its last edge is the waiting-time horizon.
    Non-finite edges and a negative or non-finite burn_in are refused.
    """
    if len(records) < 2:
        raise InsufficientDataError("need at least 2 trajectories")
    edges = np.asarray(bins, dtype=float)
    if (edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all()
            or np.any(np.diff(edges) <= 0)):
        raise ValidationError(f"bin edges must be a finite ascending 1d array, got {edges.tolist()}")
    if edges[0] < 0:
        raise ValidationError("bin edges must be nonnegative")
    if not 0.0 <= burn_in < np.inf:
        raise ValidationError(f"burn_in must be finite and nonnegative, got {burn_in}")
    length = records[0].length
    tau_max = edges[-1]
    window = length - burn_in
    if window <= tau_max:
        raise WindowTooSmallError(
            "record length after burn-in (%g) must exceed the largest bin edge (%g)"
            % (window, tau_max))

    # relative, so that the verdict holds in every length unit
    lengths = np.array([rec.length for rec in records])
    if np.any(np.abs(lengths - length) > 1e-12 * length):
        raise ValidationError("records must share one length")
    counts, pair_hist, wait_counts, wait_cond = _record_histograms(
        records, edges, burn_in, window)
    n_rec, n_bins = pair_hist.shape

    rates = counts / window
    rate = float(rates.mean())
    rate_stderr = float(rates.std(ddof=1) / np.sqrt(n_rec))
    if rate <= 0:
        # jump-free ensemble: the rate is an honest zero, the normalized
        # histograms are 0/0 and reported as NaN
        nan = np.full(n_bins, np.nan)
        return TrajectoryStats(
            n_traj=n_rec, length=float(length),
            rate=0.0, rate_stderr=0.0, bin_edges=edges.copy(),
            pair_correlation=nan.copy(), pair_stderr=nan.copy(),
            waiting_probs=nan.copy(), waiting_stderr=nan.copy(),
            n_conditioning_jumps=0)

    widths = np.diff(edges)
    dens = pair_hist / widths
    pair_g2 = dens.mean(axis=0) / rate**2
    pair_stderr = np.empty(n_bins)
    for k in range(n_bins):
        # delta method for mean pair density over rate^2
        h = dens[:, k]
        grad = np.array([1.0 / rate**2, -2.0 * h.mean() / rate**3])
        cov = np.cov(h, rates, ddof=1)
        var = grad @ cov @ grad / n_rec
        pair_stderr[k] = np.sqrt(max(var, 0.0))

    total_cond = wait_cond.sum()
    if total_cond < 1:
        # every jump fell inside the final tau_max stretch; waiting times
        # are unestimable without censoring bias, so report NaN
        probs = np.full(n_bins, np.nan)
        wait_stderr = np.full(n_bins, np.nan)
    else:
        probs = wait_counts.sum(axis=0) / total_cond
        wait_stderr = np.empty(n_bins)
        m_mean = wait_cond.mean()
        for k in range(n_bins):
            c = wait_counts[:, k]
            p = probs[k]
            cov = np.cov(c, wait_cond, ddof=1)
            var = (cov[0, 0] + p * p * cov[1, 1] - 2 * p * cov[0, 1]) / (n_rec * m_mean**2)
            wait_stderr[k] = np.sqrt(max(var, 0.0))

    return TrajectoryStats(
        n_traj=n_rec, length=float(length),
        rate=rate, rate_stderr=rate_stderr, bin_edges=edges.copy(),
        pair_correlation=pair_g2, pair_stderr=pair_stderr,
        waiting_probs=probs, waiting_stderr=wait_stderr,
        n_conditioning_jumps=int(total_cond))


def _post_jump_state(params):
    """Stationary state immediately after a jump, or None when R = 0."""
    rho = params.R @ params.stationary.steady_state @ params.R.conj().T
    weight = np.trace(rho).real
    if weight <= 1e-300:
        return None
    return rho / weight


def _resolve_initial(params, initial):
    if initial is not None:
        return np.asarray(initial, dtype=complex)
    if isinstance(params.geometry, Finite):
        return params.geometry.boundary_rho
    return _post_jump_state(params)


def _no_jump_oracle(params, taus, initial, weight, dark):
    """weight(exp(Q tau) rho0 exp(Q tau)^dag) at each tau >= 0, where rho0 is
    the resolved initial state; `dark` everywhere when there is none (R = 0).
    Every tau must be finite and nonnegative (ValidationError)."""
    taus = np.asarray(taus, dtype=float)
    bad = taus[~(np.isfinite(taus) & (taus >= 0))]
    if bad.size:
        raise ValidationError(f"tau must be finite and nonnegative, got {bad[0]}")
    rho0 = _resolve_initial(params, initial)
    if rho0 is None:
        return np.full_like(taus, dark)
    q = _no_jump_generator(params, taus.max(initial=0.0))
    out = np.empty(taus.shape)
    for i, tau in enumerate(taus.ravel()):
        prop = scipy.linalg.expm(q * tau)
        out.ravel()[i] = weight(prop @ rho0 @ prop.conj().T)
    return out


def no_jump_survival(params, taus, initial=None):
    """Probability that no jump occurs up to each tau."""
    return _no_jump_oracle(params, taus, initial, lambda sigma: np.trace(sigma).real, 1.0)


def waiting_time_analytic(params, taus, initial=None):
    """Waiting-time density w(tau) = -dS/dtau from the post-jump ensemble.

    S is the no-jump survival; w integrates to at most 1 and is defective
    when dark states can trap the evolution.
    """
    r = params.R
    return _no_jump_oracle(params, taus, initial,
                           lambda sigma: np.trace(r @ sigma @ r.conj().T).real, 0.0)


def waiting_bin_probs(params, edges, initial=None):
    """Exact per-bin waiting-time probabilities S(a) - S(b) over edge pairs."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("bin edges must be a 1d ascending array")
    surv = no_jump_survival(params, edges, initial=initial)
    return -np.diff(surv)
