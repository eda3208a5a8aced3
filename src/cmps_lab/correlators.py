"""Normal-ordered field correlators from the boundary picture.

Field operators acting on the physical state translate into superoperators
applied to the flattened boundary state, read left to right in position
order.  Each is a sandwich rho -> a rho b^dag over the field table
`liouville.fields` (1, Q, R and X = -[Q, R]), and `INSERTIONS` holds the
whole dictionary as one (a, b) pair per kind:

    annihilate        psi at x          rho -> R rho          (R, 1)
    create            psi^dag at x      rho -> rho R^dag      (1, R)
    deriv_annihilate  d psi at x        rho -> X rho          (X, 1)
    deriv_create      d psi^dag at x    rho -> rho X^dag      (1, X)
    pair_density      psi^dag psi at x  rho -> R rho R^dag    (R, R)

`insertion(params, kind)` builds one with `liouville.superop`, and
`family_derivative` differentiates it with `liouville.superop_tangent`,
so the table is the only place the dictionary is written.  Free
propagation exp(L dx) runs between consecutive insertion points and the
trace functional closes the chain.  Translation invariance makes the
derivative insertions commutator form exact (no explicit x dependence of
R).  In the thermodynamic geometry the chain opens on the stationary state;
in a finite geometry it opens on the boundary state at x = 0, insertions
are anchored at the left edge (the first insertion sits at x1 = 0 for
separation grids), and the chain is closed by propagating to the right
edge and dividing by the norm.

Every correlator walks its chain with one scan, `_Chain.scan`: the only
place where exp(L dx) is applied to a vector.  It carries the opening
state through ascending positions, applies each insertion as it passes it,
and hands back the vector at requested stops.  `family_derivative` walks
the same legs forward once, carrying the tangent of the vector alongside
it: each leg applies exp(L dx) together with its Frechet derivative, so
the derivative along a family of states needs no backward march and no
quadrature.

A two-point function <create(0) annihilate(d)> therefore evaluates to
vec(1)^dag sandwich(R, 1) exp(L d) sandwich(1, R) vec(rho_ss), and the pair
correlator g2(d) divides the double pair-density insertion by the squared
density.  A source on the field only changes the boundary generator: the
source term lam (R, 1) + conj(lam) (1, R) + mu (X, 1) + conj(mu) (1, X)
equals the shift Q -> Q + lam R + mu X in `GENERATOR`, which is how
`generating_functional` builds a site that carries sources.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .core import CmpsParams, Finite, Thermodynamic
from .discretizer import finite_site_count
from .errors import (
    GaplessStateError,
    NegativeDistanceError,
    NonHermitianKError,
    PositionOutOfRangeError,
    ShapeMismatchError,
    SignalBelowFloorError,
    StepNotPositiveError,
    UnsortedPositionsError,
    ZeroDensityError,
)
from .liouville import (
    GENERATOR,
    build_liouvillian,
    fields,
    superop,
    superop_tangent,
    trace_functional,
    vectorize,
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
class Insertion:
    """A point operator of the calculus: a kind tag plus its superoperator."""

    kind: str
    superop: np.ndarray


def insertion(params, kind):
    """The point insertion of one `INSERTIONS` kind, built from (K, R)."""
    if kind not in INSERTIONS:
        raise ShapeMismatchError(f"unknown insertion kind {kind!r}; known: {sorted(INSERTIONS)}")
    return Insertion(kind, superop(INSERTIONS[kind], fields(params.K, params.R)))


def annihilate(params):
    return insertion(params, "annihilate")


def create(params):
    return insertion(params, "create")


def deriv_annihilate(params):
    return insertion(params, "deriv_annihilate")


def deriv_create(params):
    return insertion(params, "deriv_create")


def pair_density(params):
    return insertion(params, "pair_density")


@dataclass(frozen=True)
class CorrelatorResult:
    separations: np.ndarray
    values: np.ndarray
    normalization: float
    estimator: str


class _Chain:
    """Shared evaluation state: generator, boundary vectors, one propagator.

    A chain is walked as a list of legs (dx, op): propagate by exp(L dx),
    then apply op, which is a superoperator matrix, None (nothing) or STOP
    (hand back the vector there).  There is no propagator cache: the chain
    holds one propagator exp(L dx) at a time, built when a leg of a new
    length is reached and reused while the following legs share that
    length.  The stationary state is the parameter set's own
    (`CmpsParams.stationary`).
    """

    STOP = object()

    def __init__(self, params):
        self.params = params
        self.dim = params.dim
        self.left = trace_functional(params.dim)
        self._leg = (None, None)  # (dx, exp(L dx)) of the last leg walked
        if isinstance(params.geometry, Thermodynamic):
            self.spectral = params.stationary
            self.right = vectorize(self.spectral.steady_state)
            self.length = None
        else:
            self.spectral = None
            self.right = vectorize(params.geometry.boundary_rho)
            self.length = params.geometry.length

    @cached_property
    def L(self):
        """The generator, built when a leg first needs it: a chain whose
        insertions all share one point never propagates."""
        return build_liouvillian(self.params.K, self.params.R)

    def legs(self, items, start):
        """Legs from `start` through (position, Insertion or STOP) items.

        Positions must ascend and, in a finite geometry, lie in the window.
        """
        positions = [float(p) for p, _ in items]
        if any(b < a for a, b in zip(positions, positions[1:])):
            raise UnsortedPositionsError(f"insertion positions must ascend, got {positions}")
        if self.length is not None and positions:
            if positions[0] < 0.0 or positions[-1] > self.length * (1.0 + 1e-12):
                raise PositionOutOfRangeError(
                    f"positions {positions[0]} to {positions[-1]} outside [0, {self.length}]"
                )
        legs, prev = [], start
        for pos, (_, op) in zip(positions, items):
            if op is not self.STOP:
                if op.superop.shape != (self.dim**2, self.dim**2):
                    raise ShapeMismatchError("insertion dimension does not match parameters")
                op = op.superop
            legs.append((pos - prev, op))
            prev = pos
        return legs

    def scan(self, v, legs):
        """Carry v along the legs and return the vectors at the stops, one per row."""
        stop = self.STOP
        stops = np.empty((sum(op is stop for _, op in legs), v.size), dtype=complex)
        k = 0
        for dx, op in legs:
            if dx != 0.0:
                if dx != self._leg[0]:
                    self._leg = (dx, scipy.linalg.expm(self.L.mat * dx))
                v = self._leg[1] @ v
            if op is stop:
                stops[k] = v
                k += 1
            elif op is not None:
                v = op @ v
        return stops

    @cached_property
    def norm(self):
        """Trace of the opening state carried across the window (1 if infinite)."""
        if self.length is None:
            return 1.0
        (v,) = self.scan(self.right, [(self.length, self.STOP)])
        return float((self.left @ v).real)

    def close(self, v, pos):
        """End a chain at `pos`: carry v to the right edge, trace, divide by the norm."""
        if self.length is None:
            return complex(self.left @ v)
        (v,) = self.scan(v, [(self.length - pos, self.STOP)])
        return complex(self.left @ v) / self.norm

    def evaluate(self, insertions):
        """Close a chain of (position, Insertion) pairs, ascending order."""
        end = float(insertions[-1][0]) if insertions else 0.0
        start = float(insertions[0][0]) if insertions and self.length is None else 0.0
        (v,) = self.scan(self.right, self.legs([*insertions, (end, self.STOP)], start))
        return self.close(v, end)


def expectation(params, insertions):
    """Evaluate one normal-ordered product given as [(position, Insertion)].

    Positions must be ascending; insertions sharing a position are applied
    in list order.  Thermodynamic chains open on the stationary state, so
    only position differences matter; finite chains are normalized by the
    norm of the fully propagated boundary state.
    """
    return _Chain(params).evaluate(insertions)


def density(params):
    """Particle density n = tr(R rho R^dag) at the anchor point."""
    return float(expectation(params, [(0.0, pair_density(params))]).real)


def _separation_scan(chain, separations, first, second):
    """<first(0) second(d)> on a grid of separations d >= 0.

    One scan carries first(0) through the sorted separations; at each stop
    the second insertion is applied and the chain closed.
    """
    seps = np.atleast_1d(np.asarray(separations, dtype=float))
    if seps.size and seps.min() < 0:
        raise NegativeDistanceError("separations must be >= 0")
    order = np.argsort(seps, kind="stable")
    items = [(0.0, first)] + [(seps[i], chain.STOP) for i in order]
    values = np.empty(seps.size, dtype=complex)
    for i, w in zip(order, chain.scan(chain.right, chain.legs(items, 0.0))):
        values[i] = chain.close(second.superop @ w, float(seps[i]))
    return seps, values


def two_point(params, separations):
    """<create(x1) annihilate(x2)> on a grid of separations d = x2 - x1 >= 0.

    The d = 0 value coincides with the density.  Finite geometry anchors
    x1 = 0.
    """
    chain = _Chain(params)
    seps, values = _separation_scan(chain, separations, create(params), annihilate(params))
    return CorrelatorResult(
        separations=seps,
        values=values,
        normalization=chain.norm,
        estimator="insertion-calculus",
    )


def pair_correlation(params, separations):
    """Normalized pair correlator g2(d); requires nonzero density."""
    chain = _Chain(params)
    pd = pair_density(params)
    n = float(chain.evaluate([(0.0, pd)]).real)  # the density, on this chain
    # zero relative to ||R||_F^2, which bounds n and scales with it
    if n <= 1e-14 * np.linalg.norm(params.R) ** 2:
        raise ZeroDensityError("pair correlator undefined at zero density")
    seps, values = _separation_scan(chain, separations, pd, pd)
    return CorrelatorResult(
        separations=seps,
        values=values / n**2,
        normalization=n * n,
        estimator="insertion-calculus",
    )


def kinetic_density(params):
    """<derivative-create derivative-annihilate> at one point; nonnegative."""
    chain = _Chain(params)
    val = chain.evaluate([(0.0, deriv_create(params)), (0.0, deriv_annihilate(params))])
    return float(val.real)


def lieb_liniger_energy_density(params, c, mu):
    """Energy density e = kinetic + c <pair pair at 0> - mu * density."""
    chain = _Chain(params)
    kin = chain.evaluate(
        [(0.0, deriv_create(params)), (0.0, deriv_annihilate(params))]
    ).real
    pd = pair_density(params)
    inter = chain.evaluate([(0.0, pd), (0.0, pd)]).real
    n = chain.evaluate([(0.0, pd)]).real
    return float(kin + c * inter - mu * n)


# -- spectral envelope and decay fits ---------------------------------------


def spectral_envelope(params):
    """Mode decomposition of the two-point function.

    Returns (c0, prefactor, gap): the disconnected constant carried by the
    fixed-point mode, the sum of the remaining coefficient magnitudes, and
    the spectral gap.  Every nonzero mode decays at least as fast as
    e^{-gap d}, so |two_point(d) - c0| <= prefactor * e^{-gap d} pointwise.
    """
    chain = _Chain(params)
    if chain.spectral is None:
        raise ShapeMismatchError("spectral envelope is a thermodynamic quantity")
    spec = chain.spectral
    if spec.gapless:
        raise GaplessStateError("no spectral gap; correlations need not decay")
    evals, vecs = np.linalg.eig(chain.L.mat)
    try:
        winv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise GaplessStateError(f"generator not diagonalizable: {exc}") from exc
    row = chain.left @ annihilate(params).superop
    col = create(params).superop @ chain.right
    coefs = (row @ vecs) * (winv @ col)
    zero_idx = int(np.argmin(np.abs(evals)))
    c0 = complex(coefs[zero_idx])
    pref = float(sum(abs(coefs[k]) for k in range(coefs.size) if k != zero_idx))
    return c0, pref, spec.gap


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
    if d_max <= d_min:
        raise NegativeDistanceError("need d_max > d_min")
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
    and move with the family (dL and dS are `superop_tangent`s; a kind
    outside `INSERTIONS` cannot be differentiated).  A thermodynamic chain
    opens on the stationary state, whose tangent solves
    (L + c |rho><1|) drho = -dL rho with c the term norm of L, which scales
    like L (invertible when the gap is nonzero; the solution is traceless,
    so free of c); a finite chain opens on the fixed boundary state, dv = 0.  Closing the chain adds no
    dE term and the norm does not move, because <1| dL = 0.  The result is
    exact up to roundoff: there is no quadrature grid.
    """
    dK = np.asarray(dK, dtype=complex)
    dR = np.asarray(dR, dtype=complex)
    if dK.shape != (params.dim, params.dim) or dR.shape != (params.dim, params.dim):
        raise ShapeMismatchError("dK and dR must match the parameter dimension")
    if np.abs(dK - dK.conj().T).max() > params.tol.herm * max(1.0, np.abs(dK).max()):
        raise NonHermitianKError("dK must be Hermitian (K stays Hermitian along the family)")
    if not insertions:
        return 0.0j  # trace preservation along the family: norm derivative is 0
    for _, ins in insertions:
        if ins.kind not in INSERTIONS:
            raise ShapeMismatchError(f"cannot differentiate insertion of unknown kind {ins.kind!r}")

    chain = _Chain(params)
    R, f = params.R, fields(params.K, params.R)
    dq = -1j * dK - 0.5 * (dR.conj().T @ R + R.conj().T @ dR)
    df = {"Q": dq, "R": dR, "X": -(dq @ R - R @ dq) - (f["Q"] @ dR - dR @ f["Q"])}
    dgen = superop_tangent(GENERATOR, f, df)
    v = chain.right
    if chain.length is None:
        if chain.spectral.gapless:
            raise GaplessStateError("thermodynamic family derivative needs a spectral gap")
        start = float(insertions[0][0])
        dv = np.linalg.solve(chain.L.mat + chain.L.scale * np.outer(v, chain.left), -(dgen @ v))
    else:
        start = 0.0
        dv = np.zeros_like(v)
    for (dx, op), (_, ins) in zip(chain.legs(insertions, start), insertions):
        if dx > 0.0:
            e, de = scipy.linalg.expm_frechet(chain.L.mat * dx, dgen * dx)
            v, dv = e @ v, e @ dv + de @ v
        v, dv = op @ v, op @ dv + superop_tangent(INSERTIONS[ins.kind], f, df) @ v
    return chain.close(dv, float(insertions[-1][0]))


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
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    @property
    def n_sites(self):
        return self.lam.size


def generating_functional(params, sources, eps):
    """Discretized source functional Z[J].

    Z multiplies per-site transfer factors exp[eps (L + J_r)] with
    J_r = lam_r sandwich(R, 1) + conj(lam_r) sandwich(1, R)
        + mu_r sandwich(X, 1) + conj(mu_r) sandwich(1, X),  X = -[Q, R],
    between the opening state and the trace functional (L + J_r is the
    generator with Q -> Q + lam_r R + mu_r X); a site without sources is
    the free step exp(eps L) of the chain's scan.  All sources zero gives
    exactly the state norm (1 for both geometries).  Wirtinger
    derivatives with respect to lam_r / conj(lam_r) reproduce eps times the
    annihilation / creation insertions up to O(eps) lattice error.
    """
    if not isinstance(sources, SourceField):
        raise ShapeMismatchError("sources must be a SourceField")
    eps = float(eps)
    if eps <= 0:
        raise StepNotPositiveError(f"lattice step must be positive, got {eps}")
    chain = _Chain(params)
    n = sources.n_sites
    if chain.length is not None and finite_site_count(chain.length, eps) != n:
        raise ShapeMismatchError(f"{n} sites of step {eps} do not cover length {chain.length}")
    f = fields(params.K, params.R)
    legs = []
    for lam, mu in zip(sources.lam, sources.mu):
        lam, mu = complex(lam), complex(mu)
        if lam == 0 and mu == 0:
            legs.append((eps, None))
        else:
            shifted = {**f, "Q": f["Q"] + lam * f["R"] + mu * f["X"]}
            legs.append((0.0, scipy.linalg.expm(superop(GENERATOR, shifted) * eps)))
    (v,) = chain.scan(chain.right, legs + [(0.0, chain.STOP)])
    if chain.length is None:
        return complex(chain.left @ v)
    (norm_v,) = chain.scan(chain.right, [(eps, None)] * n + [(0.0, chain.STOP)])
    return complex(chain.left @ v) / complex(chain.left @ norm_v)


def _wirtinger_pair(f, h):
    """Wirtinger derivatives (df/dz, df/dzbar) at 0 by central differences."""
    fx = (f(h) - f(-h)) / (2 * h)
    fy = (f(1j * h) - f(-1j * h)) / (2 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def source_consistency_check(params, eps, h, n_sites, site_pair=None):
    """Finite-difference consistency of the discretized source functional.

    Differentiates Z with respect to the complex source at single sites and
    compares against the corresponding insertion expectations: dZ/dlam_r
    against eps * <annihilate at r eps> and the mixed second derivative
    d2 Z / dlam_s dconj(lam_r) against eps^2 * <create(r) ... annihilate(s)>.
    Returns a dict of absolute errors (after dividing out the eps powers);
    both shrink under simultaneous refinement of eps and h (O(eps) + O(h^2)).
    """
    eps = float(eps)
    h = float(h)
    n_sites = int(n_sites)
    if eps <= 0 or h <= 0:
        raise StepNotPositiveError("eps and h must be positive")
    if n_sites < 4:
        raise ShapeMismatchError("need at least 4 lattice sites")
    if site_pair is None:
        site_pair = (n_sites // 4, (3 * n_sites) // 4)
    r, s = int(site_pair[0]), int(site_pair[1])
    if not (0 <= r < n_sites and 0 <= s < n_sites and r != s):
        raise ShapeMismatchError(f"site pair {site_pair} invalid for {n_sites} sites")
    zeros = np.zeros(n_sites, dtype=complex)

    def z_single(lam_r):
        lam = zeros.copy()
        lam[r] = lam_r
        return generating_functional(params, SourceField(lam, zeros), eps)

    d_lam, d_lam_bar = _wirtinger_pair(z_single, h)
    single_ann = expectation(params, [(r * eps, annihilate(params))])
    single_cre = expectation(params, [(r * eps, create(params))])
    err_single = max(
        abs(d_lam / eps - single_ann),
        abs(d_lam_bar / eps - single_cre),
    )

    def z_pair(lam_r, lam_s):
        lam = zeros.copy()
        lam[r] = lam_r
        lam[s] = lam_s
        return generating_functional(params, SourceField(lam, zeros), eps)

    # d2 Z / d lam_s d conj(lam_r): creation at site r, annihilation at site s.
    def d_dlam_s(lam_r):
        d1, _ = _wirtinger_pair(lambda x: z_pair(lam_r, x), h)
        return d1

    _, mixed = _wirtinger_pair(d_dlam_s, h)
    lo, hi = sorted((r, s))
    kinds = {r: create(params), s: annihilate(params)}
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
