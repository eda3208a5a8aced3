"""Normal-ordered field correlators from the boundary picture.

Field operators acting on the physical state translate into superoperators
applied to the flattened boundary state, read left to right in position
order.  Each is a product rho -> a rho b^dag over the field table
`liouville.fields` (1, Q, R and X = -[Q, R]), and `INSERTIONS` holds the
whole dictionary as one (a, b) pair per kind:

    annihilate        psi at x          rho -> R rho          (R, 1)
    create            psi^dag at x      rho -> rho R^dag      (1, R)
    deriv_annihilate  d psi at x        rho -> X rho          (X, 1)
    deriv_create      d psi^dag at x    rho -> rho X^dag      (1, X)
    pair_density      psi^dag psi at x  rho -> R rho R^dag    (R, R)

An insertion is its kind name, for example
`expectation(params, [(0.0, "create"), (1.0, "annihilate")])`: it belongs
to no parameter set.  Each chain resolves the names against its
generator's field table and applies each kind as its D x D action
`liouville.action`, at O(D^3), through `HermitianBasis.act`, as the
lattice oracle's estimators act; `family_derivative` differentiates it by
the action of `liouville.tangent_terms(kind)`, so the table is the only
place the dictionary is written.  Translation invariance makes the
derivative insertions commutator form exact (no explicit x dependence of
R).

Every correlator walks its chain with one scan, `_Chain.scan`: the only
place where exp(L dx) is applied to a vector.  It carries the opening
state through ascending positions, applies each insertion as it passes
it, and hands back the vector at requested stops.  In the thermodynamic
geometry the chain opens on the stationary state; in a finite geometry
it opens on the boundary state at x = 0, and insertions are anchored at
the left edge (the first insertion sits at x1 = 0 for separation grids).
Both close alike: a chain that ends on an insertion S reads the vector
before S with the covector <1| S and divides by the opening state's
trace.  The boundary right of the last insertion is never read, and the
generator preserves the trace, <1| exp(L x) = <1|, so a finite window is
not walked to its edge (Osborne, Eisert & Verstraete, PRL 105, 260401,
2010).  The generator, a `liouville.Superoperator`, preserves
Hermiticity, so each propagator exp(L dx) is the exponential of its real
Hermitian-basis matrix `hmat`, as are the sourced sites of
`generating_functional`, all by `liouville.exponential`, which refuses an
exponent that would overflow and a result that is not finite; the vectors
stay complex, because an insertion need not preserve Hermiticity.
`family_derivative` walks the same legs forward once, carrying the
tangent of the vector alongside it: each leg applies exp(L dx) together
with its Frechet derivative (both real), so the derivative along a
family of states needs no backward march and no quadrature.

A two-point function <create(0) annihilate(d)> therefore evaluates to
<1| (R, 1) exp(L d) (1, R) |rho_ss>, each pair read as its
action, and the pair correlator g2(d) divides the double pair-density
insertion by the squared density.  A source on the field only changes the
boundary generator: the source term
lam (R, 1) + conj(lam) (1, R) + mu (X, 1) + conj(mu) (1, X) equals the
shift Q -> Q + lam R + mu X in `GENERATOR`, which is how
`generating_functional` builds a site that carries sources.  It walks
all the source fields it is given as the rows of one block, in one scan:
a site without a source in any field is the free step exp(eps L), and a
sourced site applies each distinct (lam, mu) exponential to the rows that
carry it, each built once per call.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Finite, Thermodynamic, _integer, _is_hermitian
from .discretizer import _lattice_step, finite_site_count
from .errors import (
    GaplessStateError,
    NegativeDistanceError,
    NoConvergenceError,
    NonHermitianKError,
    PositionOutOfRangeError,
    ShapeMismatchError,
    SignalBelowFloorError,
    UnsortedPositionsError,
    ValidationError,
    ZeroDensityError,
)
from .liouville import (
    GENERATOR,
    Superoperator,
    action,
    action_adjoint,
    build_liouvillian,
    exponent,
    exponential,
    fields_tangent,
    fixed_mode,
    hermitian_basis,
    tangent_terms,
    trace_functional,
)

# relative to the largest |two_point| on a fit grid, the roundoff scale of
# the values
SIGNAL_FLOOR = 1e-13

INSERTIONS = {
    "annihilate": (("R", "1"),),
    "create": (("1", "R"),),
    "deriv_annihilate": (("X", "1"),),
    "deriv_create": (("1", "X"),),
    "pair_density": (("R", "R"),),
}


@dataclass(frozen=True)
class CorrelatorResult:
    separations: np.ndarray
    values: np.ndarray
    normalization: float
    estimator: str


class _Chain:
    """Shared evaluation state: field table, generator, boundary vectors,
    norm, one propagator.

    A chain is walked as a list of legs (dx, op) by `scan`, which carries
    one vector or a (k, D^2) block of vectors, one per row, as
    `HermitianBasis.act` does: propagate every row by exp(L dx), then apply
    op, which is an `INSERTIONS` kind name, a site (a sequence of
    (superoperator matrix, rows) pairs that together cover the block's rows,
    each matrix applied to its rows), None (nothing) or STOP (hand back the
    vector or block there).  A kind is never built as a matrix: `act`
    applies its `liouville.action` over this chain's own field table to
    coordinates (`HermitianBasis.act`), and `covector` gives <1| S from the
    adjoint action: a chain that ends on kind S closes on it, divided by
    `norm`, the opening state's trace (1, or tr boundary_rho in a finite
    window).  There is no propagator cache: the chain holds one propagator
    exp(L dx) at a time (`propagator`), built when a leg of a new length is
    reached and reused while the following legs share that length, for one
    vector and for a block alike.  The stationary state is the parameter
    set's own (`CmpsParams.stationary`), and so, in the thermodynamic
    geometry, is the generator L, whose field table the chain reads; a
    finite chain builds its own, whose matrix is built when a leg first
    reads it, and refuses it as NoConvergenceError when its term norm is not
    finite, as the fixed point refuses the thermodynamic one.
    """

    STOP = object()

    def __init__(self, params):
        self.params = params
        self.basis = hermitian_basis(params.dim)
        self.left = trace_functional(params.dim)
        self._leg = (None, None)  # (dx, exp(L dx)) of the last leg walked
        if isinstance(params.geometry, Thermodynamic):
            self.spectral = params.stationary
            self.L = self.spectral.generator
            rho = self.spectral.steady_state
            self.length = None
            self.norm = 1.0
        else:
            self.spectral = None
            self.L = build_liouvillian(params.K, params.R)
            if not np.isfinite(self.L.scale):
                raise NoConvergenceError("generator has a non-finite term norm")
            rho = params.geometry.boundary_rho
            self.length = params.geometry.length
            self.norm = float(np.trace(rho).real)
        self.fields = self.L.fields
        self.right = self.basis.coordinates(rho)

    def act(self, kind, x):
        """The insertion `kind` on coordinate vectors x, one per row (or x
        alone), through its D x D action."""
        return self.basis.act(INSERTIONS[kind], self.fields, x).reshape(x.shape)

    def covector(self, kind):
        """<1| S for the insertion S of `kind`, in coordinates: tr(S(rho))
        = tr(M rho) with M = sum f[b]^dag f[a], the adjoint of the action's
        image of the identity, whose coordinates conjugated read the trace."""
        m = action_adjoint(INSERTIONS[kind], self.fields, np.eye(self.params.dim))
        return self.basis.coordinates(m).conj()

    def legs(self, items, start):
        """Legs from `start` through (position, kind name or STOP) items.

        Positions must be finite and ascend and, in a finite geometry, lie
        in the window; a kind outside `INSERTIONS` is rejected here.
        """
        positions = [float(p) for p, _ in items]
        if not np.isfinite(positions).all():
            raise ValidationError(f"insertion positions must be finite, got {positions}")
        if any(b < a for a, b in zip(positions, positions[1:])):
            raise UnsortedPositionsError(f"insertion positions must ascend, got {positions}")
        if self.length is not None and positions:
            if positions[0] < 0.0 or positions[-1] > self.length * (1.0 + 1e-12):
                raise PositionOutOfRangeError(
                    f"positions {positions[0]} to {positions[-1]} outside [0, {self.length}]"
                )
        legs, prev = [], start
        for pos, (_, kind) in zip(positions, items):
            if kind is not self.STOP and not (isinstance(kind, str) and kind in INSERTIONS):
                raise ShapeMismatchError(
                    f"unknown insertion kind {kind!r}; known: {sorted(INSERTIONS)}")
            legs.append((pos - prev, kind))
            prev = pos
        return legs

    def propagator(self, dx):
        """exp(L dx), built unless the last leg walked had this length."""
        if dx != self._leg[0]:
            self._leg = (dx, exponential(self.L, dx))
        return self._leg[1]

    def scan(self, v, legs):
        """Carry v, one vector or a block of them one per row, along the
        legs and return what it is at the stops, one per row (or block)."""
        stop = self.STOP
        stops = np.empty((sum(op is stop for _, op in legs), *v.shape), dtype=complex)
        k = 0
        for dx, op in legs:
            if dx != 0.0:
                v = _apply(self.propagator(dx), v)
            if op is stop:
                stops[k] = v
                k += 1
            elif isinstance(op, str):
                v = self.act(op, v)
            elif op is not None:
                w = np.empty_like(v)
                for m, rows in op:
                    w[rows] = _apply(m, v[rows])
                v = w
        return stops

    def evaluate(self, insertions):
        """Close a chain of (position, kind) pairs, ascending order: read
        the vector before its last kind with that kind's covector."""
        start = float(insertions[0][0]) if insertions and self.length is None else 0.0
        legs = self.legs(insertions, start)
        if not legs:
            return complex(self.left @ self.right) / self.norm
        *legs, (dx, last) = legs
        stops = self.scan(self.right, [*legs, (dx, self.STOP)])
        return complex((stops @ self.covector(last))[0]) / self.norm


def _apply(m, v):
    """m on one vector v, or on each row of a block v: (m v^T)^T is the
    plain product m v for a vector."""
    return (m @ v.T).T


def expectation(params, insertions):
    """Evaluate one normal-ordered product given as [(position, kind)].

    Each kind is a key of `INSERTIONS`, for example
    [(0.0, "create"), (1.0, "annihilate")].  Positions must be finite and
    ascending; insertions sharing a position are applied in list order.
    Thermodynamic chains open on the stationary state, so only position
    differences matter; finite chains open on the boundary state at x = 0
    and are normalized by its trace.
    """
    return _Chain(params).evaluate(insertions)


def density(params):
    """Particle density n = tr(R rho R^dag) at the anchor point."""
    return float(expectation(params, [(0.0, "pair_density")]).real)


def _separation_scan(chain, separations, first, second):
    """<first(0) second(d)> on a grid of separations d >= 0, two kind names.

    One scan carries first(0) through the sorted separations, and the
    second kind's covector closes every stop at once, in both geometries.
    """
    seps = np.atleast_1d(np.asarray(separations, dtype=float))
    if seps.size and seps.min() < 0:
        raise NegativeDistanceError("separations must be >= 0")
    order = np.argsort(seps, kind="stable")
    items = [(0.0, first)] + [(seps[i], chain.STOP) for i in order]
    values = np.empty(seps.size, dtype=complex)
    stops = chain.scan(chain.right, chain.legs(items, 0.0))
    values[order] = stops @ chain.covector(second) / chain.norm
    return seps, values


def two_point(params, separations):
    """<create(x1) annihilate(x2)> on a grid of separations d = x2 - x1 >= 0.

    The d = 0 value coincides with the density.  Finite geometry anchors
    x1 = 0.
    """
    chain = _Chain(params)
    seps, values = _separation_scan(chain, separations, "create", "annihilate")
    return CorrelatorResult(
        separations=seps,
        values=values,
        normalization=chain.norm,
        estimator="insertion-calculus",
    )


def pair_correlation(params, separations):
    """Normalized pair correlator g2(d); requires nonzero density."""
    chain = _Chain(params)
    n = float(chain.evaluate([(0.0, "pair_density")]).real)  # the density, on this chain
    # zero relative to ||R||_F^2, which bounds n and scales with it
    if n <= 1e-14 * np.linalg.norm(params.R) ** 2:
        raise ZeroDensityError("pair correlator undefined at zero density")
    seps, values = _separation_scan(chain, separations, "pair_density", "pair_density")
    return CorrelatorResult(
        separations=seps,
        values=values / n**2,
        normalization=n * n,
        estimator="insertion-calculus",
    )


def kinetic_density(params):
    """<derivative-create derivative-annihilate> at one point; nonnegative."""
    chain = _Chain(params)
    val = chain.evaluate([(0.0, "deriv_create"), (0.0, "deriv_annihilate")])
    return float(val.real)


def lieb_liniger_energy_density(params, c, mu):
    """Energy density e = kinetic + c <pair pair at 0> - mu * density."""
    chain = _Chain(params)
    kin = chain.evaluate([(0.0, "deriv_create"), (0.0, "deriv_annihilate")]).real
    inter = chain.evaluate([(0.0, "pair_density"), (0.0, "pair_density")]).real
    n = chain.evaluate([(0.0, "pair_density")]).real
    return float(kin + c * inter - mu * n)


# -- spectral envelope and decay fits ---------------------------------------


def spectral_envelope(params):
    """Mode decomposition of the two-point function.

    Returns (c0, prefactor, gap): the disconnected constant carried by the
    fixed-point mode, the sum of the remaining coefficient magnitudes, and
    the spectral gap.  Every nonzero mode decays at least as fast as
    e^{-gap d}, so |two_point(d) - c0| <= prefactor * e^{-gap d} pointwise.
    The gap and the modes come from one eigensolve of the generator, read
    by the rule of `liouville.fixed_mode` that the fixed point's
    `SpectralData` reads too.
    """
    chain = _Chain(params)
    if chain.spectral is None:
        raise ShapeMismatchError("spectral envelope is a thermodynamic quantity")
    tol = chain.spectral.zero_real_tol
    evals, vecs = np.linalg.eig(chain.L.hmat)
    zero_idx, gap = fixed_mode(evals, tol)
    if gap <= tol:
        raise GaplessStateError("no spectral gap; correlations need not decay")
    try:
        winv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise GaplessStateError(f"generator not diagonalizable: {exc}") from exc
    row = chain.covector("annihilate")
    col = chain.act("create", chain.right)
    coefs = (row @ vecs) * (winv @ col)
    c0 = complex(coefs[zero_idx])
    pref = float(sum(abs(coefs[k]) for k in range(coefs.size) if k != zero_idx))
    return c0, pref, gap


@dataclass(frozen=True)
class DecayFit:
    rate: float
    prefactor: float
    residual: float
    n_used: int


def decay_fit(params, d_min, d_max, n_points=33):
    """Least-squares decay rate of the connected two-point envelope.

    Fits log |two_point(d) - c0| over [d_min, d_max], where c0 is the
    fixed-point-mode constant (subtracting it is what makes the fit see the
    slowest genuinely decaying mode).  Points below SIGNAL_FLOOR times the
    largest |two_point| on the grid (a floor in any length unit) are
    dropped; fewer than two surviving points is an error.  Complex slow
    modes make the envelope oscillate, so the fitted rate is then only an
    envelope-scale estimate (callers should check the residual).
    """
    if not (np.isfinite(d_min) and np.isfinite(d_max)):
        raise ValidationError(f"fit window must be finite, got [{d_min}, {d_max}]")
    if d_max <= d_min:
        raise NegativeDistanceError("need d_max > d_min")
    n_points = _integer(n_points, "n_points")
    if n_points < 2:
        raise ValidationError(f"a decay fit needs n_points >= 2, got {n_points}")
    if isinstance(params.geometry, Finite):
        c0 = 0.0  # boundary-driven signal, no stationary mode to subtract
    else:
        c0, _, _ = spectral_envelope(params)  # raises GaplessState when unfit
    grid = np.linspace(d_min, d_max, n_points)
    vals = two_point(params, grid).values
    y = np.abs(vals - c0)
    floor = SIGNAL_FLOOR * np.abs(vals).max()
    mask = y > floor
    if mask.sum() < 2:
        raise SignalBelowFloorError(
            f"connected signal below {floor:.3e} on [{d_min}, {d_max}]"
        )
    x = grid[mask]
    logy = np.log(y[mask])
    coeffs = np.polyfit(x, logy, 1)
    fit = np.polyval(coeffs, x)
    residual = float(np.sqrt(np.mean((logy - fit) ** 2)))
    return DecayFit(
        rate=float(-coeffs[0]),
        prefactor=float(np.exp(coeffs[1])),
        residual=residual,
        n_used=int(mask.sum()),
    )


# -- family derivative -------------------------------------------------------


def family_derivative(params, dK, dR, insertions):
    """d/dt of an insertion expectation along (K + t dK, R + t dR) at t = 0.

    One forward pass over the chain's legs carries the vector v together
    with its tangent dv.  A leg of length dx maps (v, dv) to
    (E v, E dv + dE v), where E = exp(L dx) and dE is the Frechet derivative
    of the exponential at L dx in the direction dL dx; an insertion S maps
    it to (S v, S dv + dS v), because the insertions are built from (K, R)
    and move with the family.  S acts on v and dv as one stack of two
    D x D matrices (`liouville.action`); by the product rule over the
    chain's table merged with `fields_tangent`, dS v is the action of
    `tangent_terms(S)` and dL the `Superoperator` of
    `tangent_terms(GENERATOR)`, so no insertion is built as a matrix.  A
    non-finite dK or dR raises ValidationError.  The derivative is linear
    in the direction, so the walk runs on (dK, dR) scaled exactly by a
    power of two to entries below 2 and the value is scaled back; a
    direction whose tangent generator's term norm overflows, a leg whose
    exponent would (`liouville.exponent`), or a value that does, raises
    NoConvergenceError.  A thermodynamic chain opens on the stationary
    state, whose tangent solves B drho = -dL rho, B the
    fixed point's bordered generator, with the `bordered_lu` factors the
    fixed point was solved with (`SpectralData.solve`; B is invertible
    when the fixed space is one-dimensional, and the solution is
    traceless, so the border drops out); a finite chain opens on the fixed
    boundary state, dv = 0.  D = 1 is gapless by convention and raises GaplessStateError in
    the thermodynamic geometry.  The chain closes on <1| dv / norm after
    its last insertion: nothing to its right adds a dE term and the norm
    does not move, because <1| L = <1| dL = 0.  The result is exact up to
    roundoff: there is no quadrature grid.
    """
    dK = np.asarray(dK, dtype=complex)
    dR = np.asarray(dR, dtype=complex)
    if dK.shape != (params.dim, params.dim) or dR.shape != (params.dim, params.dim):
        raise ShapeMismatchError("dK and dR must match the parameter dimension")
    for name, m in (("dK", dK), ("dR", dR)):
        if not np.isfinite(m).all():
            raise ValidationError(f"{name} must be finite, got {m[~np.isfinite(m)][0]}")
    if not _is_hermitian(dK, params.tol.herm):
        raise NonHermitianKError("dK must be Hermitian (K stays Hermitian along the family)")
    if not insertions:
        return 0.0j  # trace preservation along the family: norm derivative is 0

    # the derivative is linear in (dK, dR): the walk runs on the direction
    # scaled by 1 / unit to entries below 2, which is exact, and the value is
    # scaled back, so a large but finite direction cannot overflow the walk
    parts = np.concatenate([dK, dR]).view(float)
    k = math.frexp(np.abs(parts).max())[1] - 1
    scaled = np.ldexp(parts, -k).view(complex)
    dK, dR, unit = scaled[:params.dim], scaled[params.dim:], math.ldexp(1.0, k)
    chain = _Chain(params)
    start = float(insertions[0][0]) if chain.length is None else 0.0
    legs = chain.legs(insertions, start)
    f = chain.fields
    moving = f | fields_tangent(f, dK, dR)
    tangent = Superoperator(tangent_terms(GENERATOR), moving)
    if not math.isfinite(tangent.scale * unit):  # the unscaled direction's term norm
        raise NoConvergenceError("tangent generator's term norm is not finite")
    dgen = tangent.hmat
    v = chain.right
    if chain.length is None:
        if params.dim == 1:
            raise GaplessStateError("thermodynamic family derivative needs a spectral gap")
        # the fixed point's coordinates are real, so the tangent solve is real
        dv = chain.spectral.solve(-(dgen @ v.real))
    else:
        dv = np.zeros_like(v)
    # an overflow in the walk leaves the value non-finite, which is refused
    with np.errstate(over="ignore", invalid="ignore"):
        for dx, kind in legs:
            if dx > 0.0:
                e, de = scipy.linalg.expm_frechet(exponent(chain.L, dx), exponent(tangent, dx))
                v, dv = e @ v, e @ dv + de @ v
            terms = INSERTIONS[kind]
            m = chain.basis.matrices(np.stack([v, dv]))
            w = action(terms, f, m)
            w[1] += action(tangent_terms(terms), moving, m[0])
            v, dv = chain.basis.coordinates(w)
        value = complex(chain.left @ dv) / chain.norm
        value = complex(value.real * unit, value.imag * unit)
    if not cmath.isfinite(value):
        raise NoConvergenceError("family derivative overflows")
    return value


# -- discretized generating functional ---------------------------------------


@dataclass(frozen=True)
class SourceField:
    """Per-site complex sources (lam couples to annihilation-type insertions,
    mu to derivative-annihilation ones; conjugates couple to the creation
    side).  Site r covers [r eps, (r+1) eps)."""

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=complex))
        mu = np.atleast_1d(np.asarray(self.mu, dtype=complex))
        if lam.shape != mu.shape or lam.ndim != 1 or lam.size < 1:
            raise ShapeMismatchError(
                f"lam and mu must be equal-length 1d arrays, got {lam.shape}, {mu.shape}"
            )
        for name, values in (("lam", lam), ("mu", mu)):
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise ValidationError(f"source {name} must be finite, got {bad[0]}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    @property
    def n_sites(self):
        return self.lam.size


def generating_functional(params, sources, eps):
    """Discretized source functional Z[J], for one `SourceField` or for each
    of a sequence of them that share one site count.

    Z multiplies per-site transfer factors exp[eps (L + J_r)] with
    J_r = lam_r (R, 1) + conj(lam_r) (1, R) + mu_r (X, 1) + conj(mu_r) (1, X)
    over the field table (X = -[Q, R]), between the opening state and the
    trace functional, divided by the chain's norm (L + J_r is the
    generator with Q -> Q + lam_r R + mu_r X).  One chain walks every field
    at once, as one row each of a block: a site without a source in any
    field is the free step exp(eps L) of the chain's scan, built once; at a
    sourced site each distinct (lam_r, mu_r) is exponentiated once and
    applied to the rows that carry it (a row without a source there takes
    the free step).  One field gives one complex number, a sequence an
    array of one Z per field.  All sources zero gives 1 in both
    geometries, up to roundoff.  Wirtinger derivatives with respect to
    lam_r / conj(lam_r) reproduce eps times the annihilation / creation
    insertions up to O(eps) lattice error.
    """
    try:
        fields = [sources] if isinstance(sources, SourceField) else list(sources)
    except TypeError:
        fields = []
    if not fields or not all(isinstance(s, SourceField) for s in fields):
        raise ShapeMismatchError("sources must be a SourceField or a non-empty sequence of them")
    counts = sorted({s.n_sites for s in fields})
    if len(counts) > 1:
        raise ShapeMismatchError(f"source fields must share one site count, got {counts}")
    eps = _lattice_step(eps, "lattice step")
    chain = _Chain(params)
    n = counts[0]
    if chain.length is not None and finite_site_count(chain.length, eps) != n:
        raise ShapeMismatchError(f"{n} sites of step {eps} do not cover length {chain.length}")
    f = chain.fields
    sites = {}  # (lam, mu) -> exp(eps (L + J)), one per distinct source value

    def site(lam, mu):
        if lam == 0 and mu == 0:
            return chain.propagator(eps)
        if (lam, mu) not in sites:
            shifted = {**f, "Q": f["Q"] + lam * f["R"] + mu * f["X"]}
            sites[lam, mu] = exponential(Superoperator(GENERATOR, shifted), eps)
        return sites[lam, mu]

    lam = np.stack([s.lam for s in fields], axis=1)  # (sites, fields)
    mu = np.stack([s.mu for s in fields], axis=1)
    legs = []
    for lam_r, mu_r in zip(lam, mu):
        if not (lam_r.any() or mu_r.any()):
            legs.append((eps, None))
            continue
        rows = {}
        for row, key in enumerate(zip(lam_r.tolist(), mu_r.tolist())):
            rows.setdefault(key, []).append(row)
        legs.append((0.0, [(site(*key), idx) for key, idx in rows.items()]))
    block = np.tile(chain.right, (len(fields), 1))
    (v,) = chain.scan(block, legs + [(0.0, chain.STOP)])
    z = v @ chain.left / chain.norm
    return complex(z[0]) if isinstance(sources, SourceField) else z


def _wirtinger_pair(f, h):
    """Wirtinger derivatives (df/dz, df/dzbar) at 0 by central differences,
    from the values f holds at h, -h, ih and -ih, in that order."""
    f_h, f_mh, f_ih, f_mih = f
    fx = (f_h - f_mh) / (2 * h)
    fy = (f_ih - f_mih) / (2 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def source_consistency_check(params, eps, h, n_sites, site_pair=None):
    """Finite-difference consistency of the discretized source functional.

    Differentiates Z with respect to the complex source at single sites and
    compares against the corresponding insertion expectations: dZ/dlam_r
    against eps * <annihilate at r eps> and the mixed second derivative
    d2 Z / dlam_s dconj(lam_r) against eps^2 * <create(r) ... annihilate(s)>.
    Returns a dict of absolute errors (after dividing out the eps powers);
    both shrink under simultaneous refinement of eps and h (O(eps) + O(h^2)).
    The differences need Z at 20 source fields (four steps of size h at
    site r alone, and every pair of them at r and s), which one call of
    `generating_functional` evaluates in one walk over every site, so Z is
    still checked independently of the insertion chains it is compared to.
    """
    eps = _lattice_step(eps, "eps")
    h = _lattice_step(h, "h")
    n_sites = _integer(n_sites, "n_sites")
    if n_sites < 4:
        raise ShapeMismatchError("need at least 4 lattice sites")
    if site_pair is None:
        site_pair = (n_sites // 4, (3 * n_sites) // 4)
    try:
        r, s = site_pair
    except (TypeError, ValueError):
        raise ShapeMismatchError(f"site_pair must be two site indices, got {site_pair!r}") from None
    r, s = _integer(r, "site index"), _integer(s, "site index")
    if not (0 <= r < n_sites and 0 <= s < n_sites and r != s):
        raise ShapeMismatchError(f"site pair {site_pair} invalid for {n_sites} sites")
    zeros = np.zeros(n_sites, dtype=complex)

    def field(lam_r, lam_s):
        lam = zeros.copy()
        lam[r] = lam_r
        lam[s] = lam_s
        return SourceField(lam, zeros)

    steps = (h, -h, 1j * h, -1j * h)
    pairs = [(a, 0.0) for a in steps] + [(a, b) for a in steps for b in steps]
    z = generating_functional(params, [field(a, b) for a, b in pairs], eps)
    d_lam, d_lam_bar = _wirtinger_pair(z[:4], h)
    single_ann = expectation(params, [(r * eps, "annihilate")])
    single_cre = expectation(params, [(r * eps, "create")])
    err_single = max(
        abs(d_lam / eps - single_ann),
        abs(d_lam_bar / eps - single_cre),
    )

    # d2 Z / d lam_s d conj(lam_r): creation at site r, annihilation at site s.
    d_dlam_s = [_wirtinger_pair(row, h)[0] for row in z[4:].reshape(4, 4)]
    _, mixed = _wirtinger_pair(d_dlam_s, h)
    lo, hi = sorted((r, s))
    kinds = {r: "create", s: "annihilate"}
    pair_val = expectation(params, [(lo * eps, kinds[lo]), (hi * eps, kinds[hi])])
    err_pair = abs(mixed / eps**2 - pair_val)
    return {
        "single_insertion_error": float(err_single),
        "two_insertion_error": float(err_pair),
        "single_insertion_value": single_ann,
        "two_insertion_value": pair_val,
        "epsilon": eps,
        "h": h,
        "sites": (r, s),
    }
