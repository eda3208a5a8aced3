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

Every correlator walks its chain with one scan, `_Chain.scan`, over the
one generator of its parameter set (`CmpsParams.generator`): the only
exact walk of the package.  It carries the opening state through
ascending positions, takes each leg by the chain's one leg step, applies
each insertion as it passes it, and hands back the vector at the end
of its legs.  In the thermodynamic
geometry the chain opens on the stationary state; in a finite geometry
it opens on the boundary state at x = 0, and insertions are anchored at
the left edge (the first insertion sits at x1 = 0 for separation grids).
Every walk closes through one reader, `_Chain.read`, which takes the
chain's tail, the steps after the end of its legs, explicitly and reads
the vector at the end of each step: a chain that ends on an insertion S
reads the vector before S with the covector <1| S, a chain without one
(the source functional's block, the family derivative's tangent) reads
it with <1|, and either divides by the opening state's trace.  The
reader lets an overflow in the walk pass silently and refuses a value
that is not finite as NoConvergenceError through the package's one
gate, `liouville.finite`.  The boundary right
of the last insertion is never read, and the generator preserves the
trace, <1| exp(L x) = <1|, so a finite window is not walked to its
edge (Osborne, Eisert & Verstraete, PRL 105, 260401, 2010).  The
generator, a `liouville.Superoperator`, preserves Hermiticity, so each
propagator exp(L dx) is the exponential of its real Hermitian-basis
matrix `hmat`, as are the sourced sites of
`generating_functional`, all by `liouville.exponential`, which refuses an
exponent that would overflow or that double precision does not resolve,
and a result that is not finite; the vectors stay complex, because an
insertion need not preserve Hermiticity.  A tail of two or more
nonzero steps, the whole grid of a separation scan, is not walked: the
value at the end of each step is a
sum of exponentials over the generator's spectrum, sum_j c_j e^{lambda_j d}
(Haegeman, Cirac, Osborne & Verstraete, PRB 88, 085118, 2013), read
from its eigenmodes (`Superoperator.modes`, one eigensolve per parameter
set) at O(D^2) per step, all steps in a few products, when
`liouville.eigenmodes` certifies them;
otherwise every distinct step takes one exponential.  `family_derivative`
scans the same legs forward once on a chain that carries the tangent of
the vector alongside it (`_TangentChain`, which overrides only the leg
step and the insertion action): each leg applies exp(L dx)
together with its Frechet derivative (both real,
`liouville.exponential_frechet`), so the derivative along a family of
states needs no backward march and no quadrature.

A two-point function <create(0) annihilate(d)> therefore evaluates to
<1| (R, 1) exp(L d) (1, R) |rho_ss>, each pair read as its
action, and the pair correlator g2(d) divides the double pair-density
insertion by the squared density.  A source on the field only changes the
boundary generator: the source term
lam (R, 1) + conj(lam) (1, R) + mu (X, 1) + conj(mu) (1, X) equals the
shift Q -> Q + lam R + mu X in `GENERATOR`, which is how
`generating_functional` builds a site that carries sources
(`liouville.sourced_generator`).  It walks
all the source fields it is given as the rows of one block, in one scan:
a site without a source in any field is the free step exp(eps L), and a
sourced site applies each distinct (lam, mu) exponential to the rows that
carry it, each built once per call.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Thermodynamic, _dark, _integer, _is_hermitian, _lattice_step, _real, finite_site_count
from .errors import (
    DegenerateFixedSpaceError,
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
    certify_step,
    exponential,
    exponential_frechet,
    fields_tangent,
    finite,
    fixed_mode,
    hermitian_basis,
    sourced_generator,
    tangent_terms,
    term_norm,
    trace_functional,
)

# relative to the largest |two_point| on a fit grid, the roundoff scale of
# the values
SIGNAL_FLOOR = 1e-13

# entries of the separations x modes table of exponentials that `_Chain.sums`
# builds at once: 1 MiB of complex values, so a grid of any length reads in
# bounded memory, and a 50-stop grid at D = 8 (64 modes) in one product
SUMS_CHUNK = 2**16

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
    norm, one leg memo.

    A chain is walked as a list of legs (dx, op), from `legs`, by `scan`,
    which carries one vector or a (k, D^2) block of vectors, one per row,
    as `HermitianBasis.act` does: it takes each leg by `step` (exp(L dx) on
    every row), then applies op, which is an `INSERTIONS` kind name, a site
    (a sequence of (superoperator matrix, rows) pairs that together cover
    the block's rows, each matrix applied to its rows) or None (nothing),
    and hands back the vector or block at the end of the legs.  A subclass
    that carries another block overrides `step` and `act`, never `scan`
    (`_TangentChain`).  A kind is never built as a matrix: `act`
    applies its `liouville.action` over this chain's own field table to
    coordinates (`HermitianBasis.act`), and `covector` gives <1| S from the
    adjoint action: every walk closes in `read`, which reads the vector or
    block at the end of each step of the chain's tail on the covector of
    the kind S it ends on, or on <1| when it ends on none, divided by
    `norm`, the opening state's trace (1, or tr boundary_rho in a finite
    window); `read` refuses a value that is not finite as
    NoConvergenceError (`liouville.finite`).  A tail of two or more nonzero
    steps is read from the generator's certified eigenmodes, and walked
    otherwise.  A caller that walks a block sets `right`, the
    opening, to it.  There is no propagator cache: a walk holds the
    exponential of one leg at a time (`leg`), built when a leg of a new
    length is reached and reused while the following legs share that
    length, for one vector and for a block alike.  The generator L, whose
    field table the chain reads, is the parameter set's own
    (`CmpsParams.generator`), built once per set with its matrix, and so
    is the stationary state (`CmpsParams.stationary`); a finite chain
    refuses L as NoConvergenceError when its term norm is not finite
    (`liouville.term_norm`), as the fixed point refuses it in the
    thermodynamic geometry.
    """

    def __init__(self, params):
        self.basis = hermitian_basis(params.dim)
        self.left = trace_functional(params.dim)
        self.L = params.generator
        self._last = (None, None)  # (dx, its exponential) of the last leg walked
        if isinstance(params.geometry, Thermodynamic):
            self.spectral = params.stationary
            rho = self.spectral.steady_state
            self.length = None
            self.norm = 1.0
        else:
            term_norm(self.L, "generator")
            self.spectral = None
            rho = params.geometry.boundary_rho
            self.length = params.geometry.length
            self.norm = float(np.trace(rho).real)
        self.fields = self.L.fields
        self.right = self.basis.coordinates(rho)
        self.zero_real_tol = params.tol.zero_real * self.L.scale

    def act(self, kind, x):
        """The insertion `kind` on coordinate vectors x, one per row (or x
        alone), through its D x D action."""
        return self.basis.act(INSERTIONS[kind], self.fields, x).reshape(x.shape)

    def covector(self, kind):
        """<1| S for the insertion S of `kind`, in coordinates: tr(S(rho))
        = tr(M rho) with M = sum f[b]^dag f[a], the adjoint of the action's
        image of the identity, whose coordinates conjugated read the trace."""
        m = action_adjoint(INSERTIONS[kind], self.fields, np.eye(self.basis.dim))
        return self.basis.coordinates(m).conj()

    def legs(self, items):
        """Legs through (position, kind name) items, from the first
        position in the thermodynamic geometry, where only differences
        matter, and from the left edge x = 0 of a finite window.

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
        legs, prev = [], positions[0] if positions and self.length is None else 0.0
        for pos, (_, kind) in zip(positions, items):
            if not (isinstance(kind, str) and kind in INSERTIONS):
                raise ShapeMismatchError(
                    f"unknown insertion kind {kind!r}; known: {sorted(INSERTIONS)}")
            legs.append((pos - prev, kind))
            prev = pos
        return legs

    def leg(self, dx, exp, *ops):
        """exp(*ops, dx), the exponential of a leg of length dx (exp(L dx)
        for `liouville.exponential` and L), built unless the last leg walked
        had this length."""
        if dx != self._last[0]:
            self._last = (dx, exp(*ops, dx))
        return self._last[1]

    def step(self, dx, v):
        """One leg of length dx on v, one vector or a block: exp(L dx) v."""
        return _apply(self.leg(dx, exponential, self.L), v)

    def scan(self, v, legs):
        """Carry v, one vector or a block of them one per row, along the
        legs and return it at their end."""
        for dx, op in legs:
            if dx != 0.0:
                v = self.step(dx, v)
            if isinstance(op, str):
                v = self.act(op, v)
            elif op is not None:
                w = np.empty_like(v)
                for m, rows in op:
                    w[rows] = _apply(m, v[rows])
                v = w
        return v

    def sums(self, row, v, seps):
        """row exp(L d) v at each separation d for one vector v, from the
        generator's certified eigenmodes: sum_j c_j e^{lambda_j d} with
        c = `Eigenmodes.coefficients(row, v)`, read as exp(d lambda^T) c
        for SUMS_CHUNK entries of the separations x modes table at a time;
        at d = 0, row v.  The fixed point's eigenvalue, when the rule of
        `liouville.fixed_mode` picks a unique one, is read as exactly 0,
        because <1| L = 0."""
        modes = self.L.modes
        lam = np.array(modes.values, dtype=complex)
        try:
            lam[fixed_mode(lam, self.zero_real_tol)[0]] = 0.0
        except DegenerateFixedSpaceError:
            pass
        c = modes.coefficients(row, v)
        values = np.empty(seps.size, dtype=complex)
        rows = max(1, SUMS_CHUNK // lam.size)
        for start in range(0, seps.size, rows):
            values[start:start + rows] = np.exp(np.multiply.outer(seps[start:start + rows], lam)) @ c
        # v is read as two rows, by the product that a walked tail takes, so
        # a step of length 0 reads what the walk reads there
        values[seps == 0.0] = (np.stack([v, v]) @ row)[0]
        return values

    def read(self, legs, steps=(0.0,), kind=None):
        """Scan the legs from the opening `right`, then read the vector or
        block at the end of each tail step with the covector row of `kind`
        (the trace functional <1| for None), divided by `norm`: the one
        closing of an exact walk.  A tail of two or more nonzero steps, which
        only a chain on one vector has, is read by `sums` at their partial
        sums when the generator's eigenmodes are certified, every step
        certified as its exponential would be (`liouville.certify_step` on
        the longest); otherwise each nonzero step is walked.  An overflow in
        the walk or the read passes silently and leaves a value that is not
        finite, which `finite` refuses."""
        row = self.left if kind is None else self.covector(kind)
        # each nonzero step of the ascending tail reaches a new separation
        from_modes = sum(dx != 0.0 for dx in steps) > 1 and self.L.modes.certified
        with np.errstate(over="ignore", invalid="ignore"):
            v = self.scan(self.right, legs)
            if from_modes:
                # the certificate grows with |dx|: every step passes when the
                # longest does
                certify_step(self.L, max(steps, key=abs))
                values = self.sums(row, v, np.cumsum(steps))
            else:
                ends = np.empty((len(steps), *v.shape), dtype=complex)
                for i, dx in enumerate(steps):
                    ends[i] = v = self.scan(v, [(dx, None)])
                values = ends @ row
            values = values / self.norm
        return finite(values, f"correlator value closing on {kind or 'the trace'}")

    def evaluate(self, insertions):
        """Close a chain of (position, kind) pairs, ascending order: read
        the vector before its last kind with that kind's covector (no
        insertion reads the opening state's trace)."""
        *legs, (dx, last) = self.legs(insertions) or [(0.0, None)]
        return complex(self.read(legs, (dx,), last)[0])


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

    One read closes first(0) at every sorted separation with the second
    kind's covector, in both geometries: the steps between the sorted
    separations are the chain's tail, read from the generator's eigenmodes
    or walked (`_Chain.read`).  A grid that is not 1-D raises
    ShapeMismatchError.
    """
    seps = np.atleast_1d(np.asarray(separations, dtype=float))
    if seps.ndim != 1:
        raise ShapeMismatchError(f"separations must be a 1-D grid, got shape {seps.shape}")
    if seps.size and seps.min() < 0:
        raise NegativeDistanceError("separations must be >= 0")
    order = np.argsort(seps, kind="stable")
    head, *tail = chain.legs([(0.0, first)] + [(seps[i], second) for i in order])
    values = np.empty(seps.size, dtype=complex)
    values[order] = chain.read([head], [dx for dx, _ in tail], second)
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
    """Normalized pair correlator g2(d); requires nonzero density, and a
    squared density that overflows is refused as NoConvergenceError."""
    chain = _Chain(params)
    n = float(chain.evaluate([(0.0, "pair_density")]).real)  # the density, on this chain
    if _dark(n, params.R):
        raise ZeroDensityError("pair correlator undefined at zero density")
    seps, values = _separation_scan(chain, separations, "pair_density", "pair_density")
    # a product of Python floats overflows to inf without a warning
    norm = finite(n * n, "squared density")
    return CorrelatorResult(
        separations=seps,
        values=values / norm,
        normalization=norm,
        estimator="insertion-calculus",
    )


def kinetic_density(params):
    """<derivative-create derivative-annihilate> at one point; nonnegative."""
    chain = _Chain(params)
    val = chain.evaluate([(0.0, "deriv_create"), (0.0, "deriv_annihilate")])
    return float(val.real)


def lieb_liniger_energy_density(params, c, mu):
    """Energy density e = kinetic + c <pair pair at 0> - mu * density.

    A c or mu that is not finite raises ValidationError, and an energy that
    overflows NoConvergenceError."""
    c, mu = _real(c, "c"), _real(mu, "mu")
    chain = _Chain(params)
    kin = chain.evaluate([(0.0, "deriv_create"), (0.0, "deriv_annihilate")]).real
    inter = chain.evaluate([(0.0, "pair_density"), (0.0, "pair_density")]).real
    n = chain.evaluate([(0.0, "pair_density")]).real
    return finite(kin + c * inter - mu * n, "energy density")


# -- spectral envelope and decay fits ---------------------------------------


def _disconnected(chain):
    """The fixed-point mode's coefficient tr(R rho) tr(rho R^dag) of the
    two-point function, read from two one-point chains."""
    return chain.evaluate([(0.0, "annihilate")]) * chain.evaluate([(0.0, "create")])


def _gap(chain):
    """(index of the fixed point's zero, gap) of the generator's eigenmodes
    (`Superoperator.modes`), by the rule of `liouville.fixed_mode`; a
    gapless state raises GaplessStateError."""
    zero, gap = fixed_mode(chain.L.modes.values, chain.zero_real_tol)
    if gap <= chain.zero_real_tol:
        raise GaplessStateError("no spectral gap; correlations need not decay")
    return zero, gap


def spectral_envelope(params):
    """Mode decomposition of the two-point function.

    Returns (c0, prefactor, gap): the disconnected constant carried by the
    fixed-point mode, the sum of the remaining coefficient magnitudes, and
    the spectral gap.  Every nonzero mode decays at least as fast as
    e^{-gap d}, so |two_point(d) - c0| <= prefactor * e^{-gap d} pointwise.
    The gap and the modes come from the generator's one eigensolve
    (`Superoperator.modes`, which the separation scans and `decay_fit` read
    too), the gap read by `_gap`, and the coefficients from
    `Eigenmodes.coefficients`; the basis need not be certified here.  c0
    is read from two one-point chains, as `decay_fit` reads it, not from
    the eigenvectors.
    """
    chain = _Chain(params)
    if chain.spectral is None:
        raise ShapeMismatchError("spectral envelope is a thermodynamic quantity")
    zero_idx, gap = _gap(chain)
    row = chain.covector("annihilate")
    col = chain.act("create", chain.right)
    try:
        coefs = chain.L.modes.coefficients(row, col)
    except np.linalg.LinAlgError as exc:
        raise GaplessStateError(f"generator not diagonalizable: {exc}") from exc
    c0 = complex(_disconnected(chain))
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
    fixed-point-mode constant tr(R rho) tr(rho R^dag) of `spectral_envelope`
    (subtracting it is what makes the fit see the slowest genuinely decaying
    mode), read from two one-point chains; a gapless state, read from the
    generator's eigenmodes that the scan reads too (`_gap`), raises
    GaplessStateError.  Points below SIGNAL_FLOOR times the
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
    chain = _Chain(params)
    c0 = 0.0  # a finite window's signal is boundary-driven: no stationary mode
    if chain.spectral is not None:
        _gap(chain)
        c0 = _disconnected(chain)
    grid = np.linspace(d_min, d_max, n_points)
    _, vals = _separation_scan(chain, grid, "create", "annihilate")
    y = np.abs(vals - c0)
    floor = SIGNAL_FLOOR * np.abs(vals).max()
    mask = y > floor
    if mask.sum() < 2:
        raise SignalBelowFloorError(
            f"connected signal below {floor:.3e} on [{d_min}, {d_max}]"
        )
    # the fit runs on x / 2^ex and log(y / 2^ey), the same bits in every
    # length unit, and the rate and the prefactor are scaled back exactly;
    # the prefactor exp(c) 2^ey is read as exp(c - n ln 2) 2^(n + ey), which
    # overflows only where the prefactor does
    ex, ey = math.frexp(d_max)[1], math.frexp(y.max())[1]
    x = np.ldexp(grid[mask], -ex)
    logy = np.log(np.ldexp(y[mask], -ey))
    coeffs = np.polyfit(x, logy, 1)
    fit = np.polyval(coeffs, x)
    residual = float(np.sqrt(np.mean((logy - fit) ** 2)))
    n = round(coeffs[1] / math.log(2))
    return DecayFit(
        rate=math.ldexp(-coeffs[0], -ex),
        prefactor=float(np.ldexp(np.exp(coeffs[1] - n * math.log(2)), n + ey)),
        residual=residual,
        n_used=int(mask.sum()),
    )


# -- family derivative -------------------------------------------------------


class _TangentChain(_Chain):
    """A chain that carries its vector v and the tangent dv of v along
    (K + t dK, R + t dR) at t = 0 as the two rows of one block (v, dv),
    and closes on a tail of one step of length 0 (`_Chain.read`).

    A leg of length dx maps the block to (E v, E dv + dE v), where
    E = exp(L dx) and dE is the Frechet derivative of the exponential at
    L dx in the direction dL dx (`liouville.exponential_frechet`, through
    the chain's `leg`); an insertion S maps it to (S v, S dv + dS v),
    because the insertions are built from (K, R) and move with the family.
    S acts on v and dv as one stack of two D x D matrices
    (`liouville.action`); by the product rule over the chain's table merged
    with `fields_tangent`, dS v is the action of `tangent_terms(S)` and dL
    the `Superoperator` of `tangent_terms(GENERATOR)`, so no insertion is
    built as a matrix.  A direction whose tangent term norm times `unit`
    is not finite raises NoConvergenceError.  A thermodynamic chain opens
    on the stationary state, whose tangent solves B drho = -dL rho, B the
    fixed point's bordered generator, with the `bordered_lu` factors the
    fixed point was solved with (`SpectralData.solve`; B is invertible when
    the fixed space is one-dimensional, and the solution is traceless, so
    the border drops out); D = 1 is gapless by convention and raises
    GaplessStateError there.  A finite chain opens on the fixed boundary
    state, dv = 0.
    """

    def __init__(self, params, dK, dR, unit):
        super().__init__(params)
        self.moving = self.fields | fields_tangent(self.fields, dK, dR)
        self.tangent = Superoperator(tangent_terms(GENERATOR), self.moving)
        # the unscaled direction's term norm
        finite(self.tangent.scale * unit, "tangent generator's term norm")
        if self.length is not None:
            dv = np.zeros_like(self.right)
        elif params.dim == 1:
            raise GaplessStateError("thermodynamic family derivative needs a spectral gap")
        else:
            # the fixed point's coordinates are real, so the tangent solve is real
            dv = self.spectral.solve(-(self.tangent.hmat @ self.right.real))
        self.right = np.stack([self.right, dv])

    def step(self, dx, x):
        e, de = self.leg(dx, exponential_frechet, self.L, self.tangent)
        return np.stack([e @ x[0], e @ x[1] + de @ x[0]])

    def act(self, kind, x):
        terms = INSERTIONS[kind]
        m = self.basis.matrices(x)
        w = action(terms, self.fields, m)
        w[1] += action(tangent_terms(terms), self.moving, m[0])
        return self.basis.coordinates(w)


def family_derivative(params, dK, dR, insertions):
    """d/dt of an insertion expectation along (K + t dK, R + t dR) at t = 0.

    One forward scan of a `_TangentChain` carries the vector together with
    its tangent through the insertions, so the derivative along a family
    of states needs no backward march and no quadrature; the scan stops
    after the last insertion and closes on <1| dv / norm through
    `_Chain.read`: nothing to its right adds a dE term and the norm does
    not move, because
    <1| L = <1| dL = 0.  A non-finite dK or dR raises ValidationError.  The
    derivative is linear in the direction, so the walk runs on (dK, dR)
    scaled exactly by a power of two to entries below 2 and the value is
    scaled back; a direction whose tangent generator's term norm
    overflows, a leg whose exponent `liouville.exponent` refuses, or a
    value that overflows, raises NoConvergenceError.  The result is exact
    up to roundoff: there is no quadrature grid.
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
    unit = math.ldexp(1.0, k)
    chain = _TangentChain(params, scaled[:params.dim], scaled[params.dim:], unit)
    ((_, dv),) = chain.read(chain.legs(insertions))
    # scaled back in Python floats, whose product overflows to inf without a warning
    value = complex(float(dv.real) * unit, float(dv.imag) * unit)
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
    at once, as one row each of the block it opens on, and closes through
    `_Chain.read`, so a Z that overflows raises NoConvergenceError with no
    warning printed before it.  A site without a source in any
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
    sites = {}  # (lam, mu) -> exp(eps (L + J)), one per distinct source value

    def site(lam, mu):
        if lam == 0 and mu == 0:
            return chain.leg(eps, exponential, chain.L)
        if (lam, mu) not in sites:
            sites[lam, mu] = exponential(sourced_generator(chain.fields, lam, mu), eps)
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
    chain.right = np.tile(chain.right, (len(fields), 1))  # one row per field
    (z,) = chain.read(legs)
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
