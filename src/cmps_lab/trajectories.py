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
estimators here are the empirical side of that comparison.  Each ratio
`estimate_stats` reports is one formula, read as 0/0 = NaN where nothing
is observed: an ensemble with no jump after burn-in has rate 0 and NaN
pair and waiting values, and one with no conditioning jump (every jump in
the final tau_max stretch) has NaN waiting values.

The exact side is the no-jump oracle (`no_jump_survival`,
`waiting_time_analytic`, `waiting_bin_probs`).  It opens on the stationary
post-jump state R rho R^dag / tr(R rho R^dag) in the thermodynamic
geometry, or on boundary_rho in a finite window, and propagates it by one
stacked scipy.linalg.expm over all the taus asked for.

S is a sum of exponentials in the eigenbasis of Q.  Near an exceptional
point that basis is ill-conditioned (or Q is defective), and S is then
evaluated with scipy.linalg.expm instead; the choice is the package's one
eigenbasis rule, `liouville.eigenmodes`, which certifies the basis by the
condition number of the eigenvector matrix and the backward error of the
eigenpairs.

The root finder starts each solve near its root, not at tau = 0, where
the jump density of a state just after a jump can vanish (the driven
emitter's ground state) and Newton has no slope.  The start is read off
the survival of the post-jump image R rho(0) R^dag / tr of the opening
state rho(0) (the stationary state, or boundary_rho in a finite window),
tabulated once per ensemble, the first time a record needs a waiting
time, on a geometric grid of (0, length].  The table depends on the
model and the record length alone, and the start only shortens the
search: every waiting time is still solved to the relative accuracy
WAIT_RTOL.
When the image is dark the solves start at tau = 0.  In a finite window a
record is a prefix of the window, and a record length above the window's
is refused.

Reproducibility: trajectory index i of master seed s draws from
Generator(PCG64(SeedSequence([s, i]))), using one uniform for the
initial-state draw, one per jump and one for the draw that ends the
record.  The seeds of a whole ensemble are hashed in one pass
(`_seed_states`): SeedSequence's entropy pool and its
generate_state(4, uint64) run as uint32 array operations over every
index.  The streams are then drawn by one array-wide PCG64 (`_Uniforms`)
that holds every stream's 128-bit state as uint64 arrays and steps a
stream once per draw, so the sampler builds no SeedSequence, PCG64 or
Generator, and the streams are NumPy's, word for word, for any
nonnegative s and i.

The batch is held rows-last: the states of all rows are the columns of a
(D, rows) array, laid out C-ordered with at least two rows wherever the
kernels multiply or sum (`_rows_fast`; a lone row is computed as the
first of two).  Every product then runs elementwise along the rows axis,
and every sum over D is one sum(axis=-2), which NumPy takes term by term
in index order.  So each per-trajectory quantity is computed row by row
in a fixed order, and a row leaves the root finder as soon as it
converges: a record is bit-identical whichever trajectories share its
batch, and an ensemble member equals the single trajectory sampled at its
index, at every D.  The start table is part of the model, not of the
batch, so it keeps that true.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Finite, _array, _dark, _float, _integer
from .errors import NoConvergenceError, NonNormalizableStateError, ValidationError
from .liouville import eigenmodes, fields, finite

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
    """(Q, ||Q||_1), refused as NoConvergenceError when its fields overflow
    (`liouville.finite`) or when ||Q||_1 x span, the longest no-jump
    evolution asked for, exceeds PHASE_LIMIT."""
    q = finite(fields(params.K, params.R)["Q"], "no-jump generator Q")
    with np.errstate(over="ignore"):
        norm = float(np.abs(q).sum(axis=0).max())
        phase = norm * span
    if phase > PHASE_LIMIT:
        raise NoConvergenceError(
            f"||Q||_1 x {span:g} = {phase:.3e} exceeds {PHASE_LIMIT:g}: the no-jump"
            f" evolution is not resolved in double precision")
    return q, norm


# SeedSequence's hash constants and pool size (NumPy's bit_generator, NEP 19)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(n):
    """n >= 0 as SeedSequence reads an int: little-endian 32-bit words,
    at least one."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hasher(const, mult):
    """SeedSequence's hash of uint32 arrays, started at the constant const:
    each call xors the value with the constant, steps the constant by mult,
    multiplies and folds, wrapping modulo 2^32 as the C code does."""

    def hash_words(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hash_words


def _hashed_states(entropy):
    """SeedSequence(row).generate_state(4, np.uint64) for every row of the
    (m, n) uint32 entropy array.

    The hash constants advance the same way for every row of n words, so
    the pool mixing (`_INIT_A`, `_MULT_A`) and generate_state (`_INIT_B`,
    `_MULT_B`) run column by column on all rows at once.
    """
    rows, n = entropy.shape
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> 16)

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    generate = _hasher(_INIT_B, _MULT_B)
    state = np.stack([generate(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _seed_states(master_seed, indices):
    """Row k: SeedSequence([master_seed, indices[k]]).generate_state(4,
    np.uint64), for a range of nonnegative indices with step 1.

    The entropy of [s, i] is the words of s followed by those of i.  Within
    a stretch of indices that share everything above their low word, the
    rows differ in one column and share their word count, so each stretch
    is hashed as one array.
    """
    head = _uint32_words(master_seed)
    parts = []
    start, stop = indices.start, indices.stop
    while start < stop:
        high = start >> 32
        end = min(stop, (high + 1) << 32)
        words = head + [0] + (_uint32_words(high) if high else [])
        entropy = np.tile(np.array(words, dtype=np.uint32), (end - start, 1))
        entropy[:, len(head)] = (start & _MASK32) + np.arange(end - start)
        parts.append(_hashed_states(entropy))
        start = end
    return np.concatenate(parts)


# PCG64 (O'Neill, HMC-CS-2014-0905) as NumPy runs it: a 128-bit LCG whose
# state steps to state * multiplier + inc before each XSL-RR output.  The
# multiplier is held as its high word and the 32-bit halves of its low
# word.  The constants are 0-d uint64 arrays, which NumPy combines with an
# array in less time than a uint64 scalar
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _u64(value):
    return np.array(value, dtype=np.uint64)


_LOW32, _HALF, _WORD = _u64(_MASK32), _u64(32), _u64(64)
_MULT_HIGH, _MULT_LOW = _u64(_PCG_MULT >> 64), _u64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LOW0, _MULT_LOW1 = _MULT_LOW & _LOW32, _MULT_LOW >> _HALF
# the XSL-RR rotation is the state's top 6 bits; a double keeps 53 bits
_ROT_SHIFT, _DOUBLE_SHIFT = _u64(58), _u64(11)


def _step(state, inc):
    """state * multiplier + inc mod 2^128 of (high, low) uint64 arrays,
    which wrap modulo 2^64.  The high word of the low words' product is
    summed from 32-bit halves (Warren, Hacker's Delight, mulhu)."""
    (high, low), (inc_high, inc_low) = state, inc
    a0, a1 = low & _LOW32, low >> _HALF
    t = a1 * _MULT_LOW0 + (a0 * _MULT_LOW0 >> _HALF)
    product_high = a1 * _MULT_LOW1 + (t >> _HALF) + ((a0 * _MULT_LOW1 + (t & _LOW32)) >> _HALF)
    new_low = low * _MULT_LOW + inc_low
    return product_high + high * _MULT_LOW + low * _MULT_HIGH + inc_high + (new_low < inc_low), new_low


class _Uniforms:
    """The uniforms of a batch of streams, one row per stream.

    Row k is the PCG64 stream that NumPy's pcg64_set_seed starts from the
    four words words[k]: the initial state is (words[k][0], words[k][1])
    and the sequence (words[k][2], words[k][3]), high word first.  The
    batch holds each stream's 128-bit state and increment as uint64 (high,
    low) arrays and nothing else.  A draw steps a row's state once, as
    NumPy's pcg64_next64 does, and is (x >> 11) 2^-53 of the XSL-RR output
    x of the new state, which is what Generator.random returns, so each row
    is NumPy's stream word for word and holds its state after its draws.
    """

    def __init__(self, words):
        w = np.asarray(words, dtype=np.uint64).T
        self.inc = ((w[2] << 1) | (w[3] >> 63), (w[3] << 1) | 1)
        # srandom: a step from 0 lands on inc; add the initial state and
        # step again, (init + inc) * a + inc = init * a + (inc * a + inc)
        self.state = _step((w[0], w[1]), _step(self.inc, self.inc))

    def draw(self, rows):
        """The next uniform of each stream in rows, which are distinct."""
        high, low = _step(*((a[rows], b[rows]) for a, b in (self.state, self.inc)))
        self.state[0][rows], self.state[1][rows] = high, low
        x, rot = high ^ low, high >> _ROT_SHIFT
        # NumPy shifts a uint64 by 64 to 0, so rot = 0 needs no case
        return (((x >> rot) | (x << (_WORD - rot))) >> _DOUBLE_SHIFT) * 2.0**-53


def _initial_ensemble(params):
    """Eigen-decomposed rho(0) (`CmpsParams.initial_state`): the weights
    and the pure states (columns)."""
    vals, vecs = np.linalg.eigh(params.initial_state)
    probs = np.clip(vals.real, 0.0, None)
    return probs / probs.sum(), vecs


def _rows_fast(batch):
    """A (..., D, rows) batch as a C-ordered array of at least two rows,
    a lone row read as the first of two.

    NumPy then runs every elementwise product along the rows axis, and a
    sum over D, which is not the fast axis in memory, term by term in index
    order (the np.sum notes).  A lone row would make D the fast axis, and
    at D = 1 its products one-element arrays, which NumPy rounds otherwise
    than the same product broadcast over a batch; a column-major gather
    such as vecs[:, idx] would make D the fast axis too.  So a row's values
    never depend on the rows beside it.
    """
    if batch.shape[-1] == 1:
        return np.concatenate([batch, batch], axis=-1)
    return np.ascontiguousarray(batch)


def _sum_d(terms):
    """The sum over the D axis of (..., D, rows) terms, row by row, term by
    term in index order (`_rows_fast`)."""
    return _rows_fast(terms).sum(axis=-2)[..., :terms.shape[-1]]


def _norms(vecs):
    """The 2-norm of each row of a (D, rows) batch."""
    return np.sqrt(_sum_d(vecs.real**2 + vecs.imag**2))


def _pick_initial(u, cum, vecs):
    """Pure initial states, one row per uniform, drawn from the ensemble."""
    idx = np.minimum(np.searchsorted(cum, u, side="right"), vecs.shape[1] - 1)
    phi = vecs[:, idx]
    return phi / _norms(phi)


def _matvec(mat, vecs):
    """mat @ vecs[:, b] for every row b of the (D, rows) batch vecs, where
    mat is a (..., D, D, 1) matrix that every row shares or a (D, D, rows)
    stack of one per row.

    Accumulates over j in order with elementwise operations along the rows
    axis of `_rows_fast`(vecs), so a row's result never depends on the
    other rows.
    """
    batch = _rows_fast(vecs)
    out = mat[..., 0, :] * batch[0]
    for j in range(1, batch.shape[0]):
        out += mat[..., j, :] * batch[j]
    return out[..., :vecs.shape[-1]]


def _quadratic(mat, vecs):
    """Real part of vecs[:, b]^dag mat vecs[:, b] for every row b; a
    (k, D, D, 1) stack of matrices gives (k, rows) values."""
    return _sum_d((vecs.conj() * _matvec(mat, vecs)).real)


class _NoJumpFlow:
    """exp(Q tau), 0 <= tau <= length, on a batch of states held in
    coordinates z = V^-1 phi, one row per column of a (D, rows) array.

    V diagonalizes Q when `liouville.eigenmodes` certifies it against
    ||Q||_1, and propagation is then elementwise, with V^-1 the inverse
    `Eigenmodes.inverse` that the certificate computed; otherwise V and
    V^-1 are the identity and each row takes expm(Q tau), one per
    distinct tau of the batch.
    gram = V^dag V and rate = (R V)^dag (R V) give the
    survival S = z^dag gram z and the jump density -S' = z^dag rate z of a
    propagated (unnormalized) row.
    """

    # the start table's grid: START_POINTS taus, geometric from
    # length * START_FLOOR to length.  On the driven emitter (500 records
    # of length 40) the root finder propagates 4.07, 3.85, 3.26 and 3.19
    # rows per jump with 64, 128, 256 and 1024 points
    START_POINTS = 256
    START_FLOOR = 2.0**-26

    def __init__(self, params, length):
        q, norm = _no_jump_generator(params, length)
        modes = eigenmodes(q, norm)
        if modes.certified:
            self.lam, self.q, basis, inv = modes.values, None, modes.vectors, modes.inverse
        else:
            self.lam, self.q = None, q
            basis = inv = np.eye(params.dim, dtype=complex)
        r_basis = params.R @ basis
        self.length = length
        self.r = params.R
        self.basis = basis
        self.inv = inv
        # (gram, rate), each with a trailing axis that every row shares
        self.forms = np.stack([basis.conj().T @ basis, r_basis.conj().T @ r_basis])[..., None]
        self.jump_op = inv @ r_basis

    def coordinates(self, phi):
        return _matvec(self.inv[..., None], phi)

    def propagate(self, z, taus):
        if self.lam is not None:
            return np.exp(taus * self.lam[:, None]) * z
        steps, which = np.unique(taus, return_inverse=True)
        prop = scipy.linalg.expm(self.q * steps[:, None, None])[which]
        return _matvec(prop.transpose(1, 2, 0), z)

    def survival(self, y):
        return _quadratic(self.forms[0], y)

    def jump_density(self, y):
        return _quadratic(self.forms[1], y)

    def survival_and_density(self, y):
        """S and -S' of every propagated row, as one stacked quadratic."""
        return _quadratic(self.forms, y)

    def jump(self, y):
        """Normalized R phi for every propagated row."""
        weight = self.jump_density(y)
        if not np.all(weight > 0.0):
            raise NonNormalizableStateError("post-jump state has zero norm")
        return _matvec(self.jump_op[..., None], y) / np.sqrt(weight)

    def state(self, y):
        """Normalized phi for every propagated row."""
        phi = _matvec(self.basis[..., None], y)
        norm = _norms(phi)
        if not np.all(norm > 0.0):
            raise NonNormalizableStateError("state norm underflow")
        return phi / norm

    def start_table(self, probs, vecs):
        """(-log S, tau) on a grid of (0, length], where S is the survival
        of the post-jump image R rho R^dag / tr of rho = sum_k probs[k]
        vecs[:, k] vecs[:, k]^dag: the table `_waiting_times` starts from.

        The image mixes the jumped eigenvectors R v_k / ||R v_k|| with
        weights probs[k] ||R v_k||^2, which sum to tr(R rho R^dag).  When
        that is dark (`_dark`) the table is the single point (0, 0), which
        starts every solve at tau = 0.  S may underflow on the grid; it is
        floored at the smallest normal double, whose -log (708) no uniform
        reaches, and -log S is made nondecreasing against rounding, so the
        interpolation is well defined.
        """
        z = self.coordinates(vecs)
        weight = probs * self.jump_density(z)
        if _dark(weight.sum(), self.r):
            return np.zeros(1), np.zeros(1)
        keep = weight > 0.0
        post, weight = self.jump(z[:, keep]), weight[keep]
        n_post = post.shape[1]
        taus = self.length * np.geomspace(self.START_FLOOR, 1.0, self.START_POINTS)
        y = self.propagate(np.repeat(post, taus.size, axis=1), np.tile(taus, n_post))
        surv = weight @ self.survival(y).reshape(n_post, taus.size) / weight.sum()
        neg_log = -np.log(np.maximum(surv, np.finfo(float).tiny))
        return np.maximum.accumulate(neg_log), taus


def _waiting_times(flow, z, u, rem, table):
    """Solve S(tau) = u on (0, rem) for each row of z, where S(rem) < u.

    Newton on log S, safeguarded by bisection of the bracket [lo, hi]
    (rtsafe, Numerical Recipes 9.4).  Each row starts where the post-jump
    survival of `table` (`_NoJumpFlow.start_table`) reaches u, or at rem / 2
    when that lies at or past rem.  Rows leave the iteration as soon as
    they converge, so each row follows its own sequence of iterates.
    """
    n = rem.size
    out = np.empty(n)
    rows = np.arange(n)
    log_u = np.log(u)
    lo, hi = np.zeros(n), rem.copy()
    tau = np.interp(-log_u, *table)
    tau = np.where(tau < rem, tau, 0.5 * rem)
    dx = dx_old = rem.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while rows.size:
            s, w = flow.survival_and_density(flow.propagate(z, tau))
            g = np.log(s) - log_u
            slope = -w / s
            above = g > 0
            lo = np.where(above, tau, lo)
            hi = np.where(above, hi, tau)
            step = -g / slope
            newton = tau + step
            close = np.abs(step) <= WAIT_RTOL * tau
            bisect = (~((newton > lo) & (newton < hi))
                      | (np.abs(2.0 * g) > np.abs(dx_old * slope)))
            dx_old = dx
            dx = np.where(bisect, 0.5 * (hi - lo), step)
            tau = np.where(bisect & ~close, lo + dx, newton)
            done = close | (np.abs(dx) <= WAIT_RTOL * tau)
            out[rows[done]] = tau[done]
            keep = ~done
            z = z[:, keep]
            rows, log_u, lo, hi, tau, dx, dx_old = (
                a[keep] for a in (rows, log_u, lo, hi, tau, dx, dx_old))
    return out


def sample_trajectory(params, length, master_seed, index=0):
    records = sample_ensemble(params, 1, length, master_seed, first_index=index)
    return records[0]


def sample_ensemble(params, n_traj, length, master_seed, first_index=0):
    """Draw n_traj independent trajectories of the given record length.

    In a finite window a record is a prefix of the window: a length above
    the window's is refused (ValidationError)."""
    length = _float(length, "record length")
    if not 0.0 < length < np.inf:
        raise ValidationError("record length must be finite and positive")
    if isinstance(params.geometry, Finite) and length > params.geometry.length:
        raise ValidationError(
            f"record length {length} exceeds the finite window's length {params.geometry.length}")
    n_traj = _integer(n_traj, "n_traj")
    master_seed = _integer(master_seed, "master_seed")
    first_index = _integer(first_index, "first_index")
    if n_traj < 1:
        raise ValidationError("n_traj must be at least 1")
    if master_seed < 0 or first_index < 0:
        raise ValidationError(
            f"master_seed and first_index must be >= 0, got {master_seed} and {first_index}")
    flow = _NoJumpFlow(params, length)
    probs, vecs = _initial_ensemble(params)
    indices = range(first_index, first_index + n_traj)
    uniforms = _Uniforms(_seed_states(master_seed, indices))
    active = np.arange(n_traj)
    z = flow.coordinates(_pick_initial(uniforms.draw(active), np.cumsum(probs), vecs))
    t = np.zeros(n_traj)
    final = np.empty_like(z)
    jump_rows, jump_pos = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    table = None

    while active.size:
        u = uniforms.draw(active)
        rem = length - t[active]
        y_end = flow.propagate(z[:, active], rem)
        ends = flow.survival(y_end) >= u
        final[:, active[ends]] = flow.state(y_end[:, ends])
        go = ~ends
        active = active[go]
        if not active.size:
            break
        if table is None:
            table = flow.start_table(probs, vecs)
        tau = _waiting_times(flow, z[:, active], u[go], rem[go], table)
        z[:, active] = flow.jump(flow.propagate(z[:, active], tau))
        t[active] += tau
        jump_rows.append(active)
        jump_pos.append(t[active])

    rows, pos = np.concatenate(jump_rows), np.concatenate(jump_pos)
    order = np.argsort(rows, kind="stable")
    rows, pos = rows[order], pos[order]
    bounds = np.searchsorted(rows, np.arange(n_traj + 1)).tolist()
    # each record's positions and final state are views of one array
    return [
        JumpRecord(positions=pos[lo:hi], final_state=state,
                   seed_info=(master_seed, idx), length=length)
        for lo, hi, state, idx in zip(bounds[:-1], bounds[1:], final.T.copy(), indices)
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


def _stderr(psi):
    """Standard error of the mean over records, std(psi, ddof=1) / sqrt(n),
    of per-record values psi (one row per record).  The error of a smooth
    function of per-record means (the delta method) is that of its
    linearization about the means, evaluated per record."""
    return psi.std(axis=0, ddof=1) / np.sqrt(len(psi))


def _bin_edges(bins):
    """bins as a finite, nonnegative, strictly ascending 1d float array of at
    least two edges (ValidationError)."""
    edges = _array(bins, "bin edges")
    if (edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all()
            or np.any(np.diff(edges) <= 0)):
        raise ValidationError(f"bin edges must be a finite ascending 1d array, got {edges.tolist()}")
    if edges[0] < 0:
        raise ValidationError("bin edges must be nonnegative")
    return edges


def estimate_stats(records, bins, burn_in=0.0):
    """Empirical rate, pair correlation, and waiting-time histogram.

    bins is one ascending edge array shared by the pair-separation and
    waiting-time histograms; its last edge is the waiting-time horizon.
    Non-finite edges and a negative or non-finite burn_in are refused.
    The ratios are 0/0 where nothing is observed, and read NaN there: an
    ensemble without a jump after burn-in has rate 0 (stderr 0) and NaN
    pair and waiting values; one whose every jump falls in the final
    tau_max stretch has NaN waiting values, since a waiting time there
    could be censored by the record's end.
    """
    if len(records) < 2:
        raise ValidationError("need at least 2 trajectories")
    edges = _bin_edges(bins)
    burn_in = _float(burn_in, "burn_in")
    if not 0.0 <= burn_in < np.inf:
        raise ValidationError(f"burn_in must be finite and nonnegative, got {burn_in}")
    length = records[0].length
    tau_max = edges[-1]
    window = length - burn_in
    if window <= tau_max:
        raise ValidationError(
            "record length after burn-in (%g) must exceed the largest bin edge (%g)"
            % (window, tau_max))

    # relative, so that the verdict holds in every length unit
    lengths = np.array([rec.length for rec in records])
    if np.any(np.abs(lengths - length) > 1e-12 * length):
        raise ValidationError("records must share one length")
    counts, pair_hist, wait_counts, wait_cond = _record_histograms(
        records, edges, burn_in, window)

    rates = counts / window
    rate = float(rates.mean())
    dens = pair_hist / np.diff(edges)
    mean_dens = dens.mean(axis=0)
    total_cond = wait_cond.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        # powers as products: libm's pow is not correctly rounded, and a
        # product keeps every bit under a change of unit by a power of two
        pair_g2 = mean_dens / (rate * rate)
        # g2 = mean pair density / rate^2, linearized about the means
        pair_stderr = _stderr((dens - mean_dens) / (rate * rate)
                              - 2.0 * mean_dens * (rates - rate)[:, None] / (rate * rate * rate))
        # waiting times are conditioned on a jump early enough that any gap
        # up to tau_max is observable; the ratio of mean counts to mean
        # conditioning jumps, linearized
        probs = wait_counts.sum(axis=0) / total_cond
        wait_stderr = _stderr((wait_counts - probs * wait_cond[:, None]) / wait_cond.mean())

    return TrajectoryStats(
        n_traj=len(records), length=float(length),
        rate=rate, rate_stderr=float(_stderr(rates)), bin_edges=edges.copy(),
        pair_correlation=pair_g2, pair_stderr=pair_stderr,
        waiting_probs=probs, waiting_stderr=wait_stderr,
        n_conditioning_jumps=int(total_cond))


def _opening_state(params):
    """The state the oracle opens on: rho(0) (`CmpsParams.initial_state`)
    in a finite window, else the stationary state right after a jump,
    R rho(0) R^dag normalized.  None when that is dark (`_dark`)."""
    rho = params.initial_state
    if isinstance(params.geometry, Finite):
        return rho
    r = params.R
    rho = r @ rho @ r.conj().T
    weight = np.trace(rho).real
    if _dark(weight, r):
        return None
    return rho / weight


def _no_jump_oracle(params, taus, weight, dark):
    """Re tr weight(sigma) for the stack of sigma = exp(Q tau) rho0
    exp(Q tau)^dag over every tau >= 0, from the opening state rho0;
    `dark` everywhere when it has none.  Every tau must be finite and
    nonnegative (ValidationError)."""
    taus = _array(taus, "tau")
    bad = taus[~(np.isfinite(taus) & (taus >= 0))]
    if bad.size:
        raise ValidationError(f"tau must be finite and nonnegative, got {bad[0]}")
    rho0 = _opening_state(params)
    if rho0 is None:
        return np.full_like(taus, dark)
    q, _ = _no_jump_generator(params, taus.max(initial=0.0))
    prop = scipy.linalg.expm(q * taus.reshape(-1, 1, 1))
    sigma = prop @ rho0 @ prop.conj().transpose(0, 2, 1)
    return np.trace(weight(sigma), axis1=1, axis2=2).real.reshape(taus.shape)


def no_jump_survival(params, taus):
    """Probability that no jump occurs up to each tau, from the opening
    state (`_opening_state`)."""
    return _no_jump_oracle(params, taus, lambda sigma: sigma, 1.0)


def waiting_time_analytic(params, taus):
    """Waiting-time density w(tau) = -dS/dtau from the opening state.

    S is the no-jump survival; w integrates to at most 1 and is defective
    when dark states can trap the evolution.
    """
    r = params.R
    return _no_jump_oracle(params, taus, lambda sigma: r @ sigma @ r.conj().T, 0.0)


def waiting_bin_probs(params, edges):
    """Exact per-bin waiting-time probabilities S(a) - S(b) over the edge
    pairs, which follow the estimator's rule (`_bin_edges`)."""
    return -np.diff(no_jump_survival(params, _bin_edges(edges)))
