"""Allocation solvers for the CES welfare program.

The central program: maximize (1/rho) * sum_i v_i(x_i)**rho over allocations
x >= 0 with sum_i x_ij <= 1 per good.  Main entry points:

  - closed_form_single_good: the one-good optimum in closed form
  - solve_ces: the smooth program; its Newton steps use the exact Jacobian
    of the first-order system, assembled from the valuations' analytic
    Hessians
  - extract_multipliers: per-good multipliers read off holder gradients
  - grid_oracle: brute-force simplex-grid enumeration for small instances
  - solve_leontief: the min-ratio (Leontief) program in attained levels,
    with supply multipliers taken from the KKT duals of its Newton solve

Both solvers solve one packing program: a concave objective over the
variables of a ValuationStack subject to z >= 0 and A^T z <= 1 for a
packing matrix A.  The allocation program stacks one identity per agent
(sum_i x_ij <= 1); the Leontief program is the level market of n
unit-linear agents over their levels alpha_i, with A = W.  Both run
through one driver, _solve_smooth: _check_budget, then attempts at
growing search budgets (100, 400, ..., max_iters), each an ellipsoid
search (_ellipsoid_phase) and one active-set Newton polish (_kkt_refine,
whose equality solves go through _newton_residual, _newton_jacobian and
_damped_newton), stopping at the first attempt that kkt_residual, the
one first-order residual of the packing program, certifies.  The search
thus runs only as long as the polish needs.  Every first-order check goes
through one kernel, _scaled_marginals: a point is supported by the convex
price rule exactly when each held variable's scaled marginal
v_i**(e-1) * dv_i/dz equals its price (A q) and each unheld one is at most
its price.  Its derivative, _marginal_jacobian, supplies the Newton steps.
Both, and the search objective, evaluate all agents at once through one
ValuationStack built per solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ellipsoid import ellipsoid_minimize
from .errors import (
    BadParameter,
    DidNotConverge,
    DimensionMismatch,
    EmptyInput,
    InconsistentMultipliers,
    NotLeontief,
    TooLarge,
    UnsupportedValuation,
)
from .valuations import (
    DEGREE_TOL,
    CesForm,
    CobbDouglas,
    Leontief,
    Linear,
    Valuation,
    ValuationStack,
)
from .welfare import (
    WelfareParams,
    ces_objective,
    implied_scaled_gradient,
    scaled_gradient,
)

# Values below this are answered with a surrogate objective inside solver
# iterations; certification never sees floored values.
VALUE_FLOOR = 1e-12
_SURROGATE = 1e30
# Gradients queried by the solver are evaluated at bundles floored here, so
# divergent boundary partials stay finite during the search.
_GRAD_POINT_FLOOR = 1e-9

_HOLDER_EPS = 1e-10       # an agent "holds" a good above this
_SUPPORT_SEED = 1e-5      # ellipsoid mass above this seeds the Newton support
_DROP_X = 1e-8            # support coordinates at/below this may be dropped
_DROP_RES = -1e-7         # ... when their marginal sits this far below price
_ADD_RES = 1e-9           # off-support marginal excess that re-opens a coordinate
_NEWTON_FLOOR = 1e-13     # support coordinates are evaluated at least here
_NEWTON_RTOL = 1e-13      # Newton stops at max |F| <= this * max(1, max |q|)
_NEWTON_STEPS = 60        # Newton steps per equality solve
_REFINE_ROUNDS = 40       # support and priced-set repairs per refine
_FIRST_BUDGET = 100       # search budget of the smooth solve's first attempt


@dataclass(frozen=True)
class Instance:
    """A market: one valuation per agent, shared degree, curvature rho."""

    valuations: tuple[Valuation, ...]
    rho: float

    def __post_init__(self):
        vals = tuple(self.valuations)
        if len(vals) == 0:
            raise EmptyInput("an instance needs at least one agent")
        object.__setattr__(self, "valuations", vals)
        m = vals[0].m
        for v in vals:
            if v.m != m:
                raise DimensionMismatch("all valuations must cover the same goods")
        if not (0.0 < self.rho <= 1.0):
            raise BadParameter(f"instance rho must lie in (0, 1], got {self.rho}")
        r0 = vals[0].degree
        for v in vals:
            if abs(v.degree - r0) > DEGREE_TOL:
                raise BadParameter(
                    "agents must share one homogeneity degree; mixed degrees "
                    "admit no common supporting price rule"
                )

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def m(self) -> int:
        return self.valuations[0].m

    @property
    def degree(self) -> float:
        return self.valuations[0].degree

    def values_at(self, allocation) -> np.ndarray:
        X = as_allocation(allocation, self.n, self.m)
        return ValuationStack(self.valuations).values(X)


@dataclass(frozen=True)
class SolveResult:
    allocation: np.ndarray      # (n, m)
    values: np.ndarray          # (n,)
    multipliers: np.ndarray     # (m,) supply multipliers q
    objective: float
    iterations: int
    max_kkt_residual: float

    def __post_init__(self):
        for name in ("allocation", "values", "multipliers"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class LeontiefResult:
    allocation: np.ndarray      # (n, m), x_ij = w_ij * alpha_i
    alphas: np.ndarray          # (n,) attained consumption levels
    multipliers: np.ndarray     # (m,) KKT duals of the supply bounds
    duals: np.ndarray           # (n, m) per-constraint duals, 0 off support
    objective: float
    iterations: int

    def __post_init__(self):
        for name in ("allocation", "alphas", "multipliers", "duals"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def as_allocation(x, n: int, m: int) -> np.ndarray:
    """Coerce to an (n, m) float array; entries >= 0, per-good sums <= 1."""
    X = np.asarray(x, dtype=float)
    if X.shape != (n, m):
        raise DimensionMismatch(f"allocation must have shape ({n}, {m}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise BadParameter("allocation entries must be finite")
    if np.any(X < 0):
        raise BadParameter("allocation entries must be nonnegative")
    if np.any(X.sum(axis=0) > 1.0 + 1e-9):
        raise BadParameter("allocation oversubscribes a good")
    return X


def closed_form_single_good(weights, degree: float, rho: float) -> np.ndarray:
    """Optimal single-good shares for v_i(x) = w_i * x**degree.

    For degree*rho < 1 the shares are proportional to
    w_i**(rho / (1 - degree*rho)); the formula extends unchanged to rho < 0,
    which the negative-curvature demonstration relies on.  At
    degree = rho = 1 the objective is linear and the lexicographically
    smallest maximum-weight agent takes the whole supply.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.ndim != 1:
        raise DimensionMismatch("weights must be a vector")
    if w.shape[0] == 0:
        raise EmptyInput("closed_form_single_good needs at least one agent")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise BadParameter("weights must be positive and finite")
    if not (0.0 < degree <= 1.0):
        raise BadParameter(f"degree must lie in (0, 1], got {degree}")
    if not np.isfinite(rho) or rho == 0.0 or rho > 1.0:
        raise BadParameter(f"rho must lie in (-inf, 0) or (0, 1], got {rho}")
    if degree * rho == 1.0:
        shares = np.zeros(w.shape[0])
        shares[int(np.argmax(w))] = 1.0
        return shares
    shares = w ** (rho / (1.0 - degree * rho))
    return shares / shares.sum()


# ---------------------------------------------------------------------------
# first-order kernel
# ---------------------------------------------------------------------------


def _scaled_marginals(stack, X, e, weights=None):
    """Scaled marginals a_i * v_i**(e-1) * dv_i/dx_ij over an (n, m) allocation.

    The exponent picks the program: e = rho is the CES program, e = 0 the
    log (Nash) program because 1/v = v**(0-1), and e = rho - 1 with weights
    a_i = v_i the weighted-shift check.  Returns (M, div): div marks the
    partials that diverge at a zero holding, where M is NaN.  A zero value
    with e < 1 gives an infinite factor, so every positive partial of that
    row reads +inf while goods the agent does not value keep marginal 0.
    """
    G, ok = stack.partials(X)
    G[~ok] = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        M = scaled_gradient(G, stack.values(X), e, weights)
    M[G == 0.0] = 0.0
    return M, ~ok


def _marginal_jacobian(stack, X, e):
    """Per-agent blocks of the Jacobian of _scaled_marginals (weights 1).

    Block i is d M_i / d x_i = (e-1) v_i**(e-2) g_i g_i^T + v_i**(e-1) H_i
    with g_i and H_i the gradient and Hessian of v_i at x_i; M_i does not
    depend on other agents' bundles.  Returns an (n, m, m) array.  Entries
    are not finite where v_i = 0 or a partial diverges.
    """
    G, _ = stack.partials(X)
    H = stack.hessians(X)
    V = stack.values(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_gg = ((e - 1.0) * V ** (e - 2.0))[:, None, None]
        c_h = (V ** (e - 1.0))[:, None, None]
        return c_gg * G[:, :, None] * G[:, None, :] + c_h * H


def _holder_mean(M, X, empty=0.0):
    """Per-good mean of M over the agents holding the good; `empty` if none does."""
    held = X > _HOLDER_EPS
    count = held.sum(axis=0)
    total = np.where(held, M, 0.0).sum(axis=0)
    return np.where(count > 0, total / np.maximum(count, 1), empty)


def _value_per_cost(v, q):
    """Largest v(x) / (q . x) of an agent of degree 1.

    Closed forms cover the kinds whose partials diverge at zero at degree 1
    (Cobb-Douglas, CES with sigma < 1).  Any other kind only diverges below
    degree 1, where every ray from zero is profitable: the result is inf.
    """
    sel = v.valued_goods()
    with np.errstate(divide="ignore"):
        if isinstance(v, CobbDouglas):
            e = v.exponents[sel]
            return float(v.scale * np.prod((e / q[sel]) ** e))
        if isinstance(v, CesForm) and v.sigma < 1.0:
            s = v.sigma
            terms = v.weights[sel] ** (1.0 / (1.0 - s)) * q[sel] ** (-s / (1.0 - s))
            return float(terms.sum() ** ((1.0 - s) / s))
    return np.inf


def _stationarity_residual(vals, X, P, e, weights=None):
    """Worst violation of [scaled marginal <= P_ij, equality where x_ij > 0].

    P holds each agent's price row (one shared row broadcasts).  Agents
    with zero weight impose no conditions.  A partial that diverges at a
    zero holding is a violation, with one exception: at e = 1 an agent of
    degree 1 that holds none of its valued goods has those coordinates
    waived, and must instead value no bundle above its cost at its prices;
    its best value per unit cost minus 1 is the residual on the waived
    coordinates.  Returns (residual, waived coordinate list).
    """
    P = np.broadcast_to(P, X.shape)
    M, div = _scaled_marginals(ValuationStack(vals), X, e, weights)
    with np.errstate(invalid="ignore"):
        E = M - P
        gap = np.where(X > 0.0, np.abs(E), np.maximum(E, 0.0))
    gap[div] = np.inf
    waived = []
    for i in np.flatnonzero(div.any(axis=1)):
        v = vals[i]
        idle = not X[i, v.valued_goods()].any()
        if e == 1.0 and idle and v.degree == 1.0:
            gap[i, div[i]] = max(_value_per_cost(v, P[i]) - 1.0, 0.0)
            waived += [(int(i), int(j)) for j in np.flatnonzero(div[i])]
    if weights is not None:
        gap = gap[np.asarray(weights) != 0.0]
    return float(gap.max(initial=0.0)), waived


def _supply_rows(n, m):
    """The allocation program's packing matrix: sum_i x_ij <= 1 per good j."""
    return np.tile(np.eye(m), (n, 1))


def kkt_residual(vals, rho, X, q, A=None):
    """Max first-order violation of the packing program at (X, q).

    `rho` is the exponent of the program (0 for the log program).  X holds
    the stack's (n, k) variables, packed by the (n k, m) matrix A (default
    _supply_rows, k = m) and priced at A q.  Held variables must price
    exactly and unheld ones must not be profitable, under the waiver rule
    of _stationarity_residual; q must be nonnegative, no constraint may be
    oversubscribed, and constraints with q_j > 0 must be tight.
    """
    n, k = X.shape
    A = _supply_rows(n, k) if A is None else A
    res, _ = _stationarity_residual(vals, X, (A @ q).reshape(n, k), rho)
    if np.any(q < 0):
        res = max(res, float(-q.min()))
    usage = _bundles(X, A).sum(axis=0)
    res = max(res, float(usage.max()) - 1.0)
    priced = q > 0
    if priced.any():
        res = max(res, float(np.abs(usage[priced] - 1.0).max()))
    return res


# ---------------------------------------------------------------------------
# search phase: ellipsoid over the packing polytope
# ---------------------------------------------------------------------------


def _ellipsoid_phase(stack, A, e, tolerance, max_iters):
    """Central-cut ellipsoid search for an approximate optimum.

    Searches the stack's (n, k) variables, flattened, over the packing
    polytope of the (n k, m) matrix A.  The best iterate is tracked with
    true values, answered with a surrogate near zero values.  Cuts come
    from the objective's ascent gradient, built from valuation gradients
    alone: the bundles are floored at a tiny interior point first, so
    boundary singularities stay finite, and the values come from the
    gradients through homogeneity (welfare.implied_scaled_gradient).
    """
    n, k = stack.n, stack.m
    r = stack.valuations[0].degree

    def objective(z):
        X = np.maximum(z.reshape(n, k), 0.0)
        V = stack.values(X)
        if e < 1.0 and V.min() < VALUE_FLOOR:
            f = _SURROGATE
        elif e == 0.0:
            f = -float(np.log(V).sum())
        else:
            f = -float((V**e).sum() / e)
        Xe = np.maximum(X, _GRAD_POINT_FLOOR)
        G, _ = stack.partials(Xe)
        g = -implied_scaled_gradient(G, Xe, r, e)[1]
        return f, g.ravel()

    best, _, iters = ellipsoid_minimize(
        objective, A, tolerance=tolerance, max_iters=max_iters
    )
    return np.maximum(best.reshape(n, k), 0.0), iters


# ---------------------------------------------------------------------------
# refinement phase: active-set Newton on the first-order system
# ---------------------------------------------------------------------------


def _support_point(support, z):
    """The (n, k) variables that the Newton unknowns z hold on the support.

    Support coordinates are floored at _NEWTON_FLOOR.  The multipliers
    follow the support coordinates in z.
    """
    X = np.zeros(support.shape)
    X[support] = np.maximum(z[: int(support.sum())], _NEWTON_FLOOR)
    return X


def _bundles(X, A):
    """Per-agent bundles (n, m): each agent's variables through its rows of A."""
    n, k = X.shape
    return (X[:, :, None] * A.reshape(n, k, -1)).sum(axis=1)


def _newton_residual(stack, A, e, support, pr, z):
    """Scaled marginal minus (A q) on the support, then usage - 1 on goods pr.

    Usage sums the per-agent bundles (_bundles).
    """
    n_x = int(support.sum())
    X = _support_point(support, z)
    M, _ = _scaled_marginals(stack, X, e)
    return np.concatenate(
        [
            M[support] - A[:, pr][support.ravel()] @ z[n_x:],
            _bundles(X, A).sum(axis=0)[pr] - 1.0,
        ]
    )


def _newton_jacobian(stack, A, e, support, pr, z):
    """Exact Jacobian of _newton_residual at z.

    The x-block is block diagonal by agent, from _marginal_jacobian; q
    enters with -A and usage with +A^T, restricted to the support and pr.
    A coordinate below the floor does not move the floored point, so its
    column is zero.
    """
    n_x = int(support.sum())
    rows, cols = np.nonzero(support)      # the order of X[support]
    coupling = A[:, pr][support.ravel()]
    B = _marginal_jacobian(stack, _support_point(support, z), e)
    J = np.zeros((n_x + pr.size, n_x + pr.size))
    J[:n_x, :n_x] = np.where(
        rows[:, None] == rows[None, :], B[rows[:, None], cols[:, None], cols], 0.0
    )
    J[:n_x, n_x:] = -coupling
    J[n_x:, :n_x] = coupling.T
    J[:, np.flatnonzero(z[:n_x] < _NEWTON_FLOOR)] = 0.0
    return J


def _damped_newton(F, J, z, n_pos):
    """Damped least-squares Newton on F(z) = 0, keeping z[:n_pos] nonnegative.

    Each step solves J(z) dz = -F(z) in least squares, is cut where the
    first n_pos unknowns reach zero, and is halved up to 14 times until the
    residual norm falls by the Armijo factor.  Stops once max |F| <=
    _NEWTON_RTOL * max(1, max |z[n_pos:]|) at the start, after
    _NEWTON_STEPS steps, or when no step is accepted.  Returns (z, steps).

    Cutting onto zero, not just short of it, matters: a coordinate that
    lands below _NEWTON_FLOOR is held at the floor by the callers' F, while
    one left at a millionth of its value keeps a near-singular marginal
    that can stall the smooth program's refine.
    """
    target = _NEWTON_RTOL * max(1.0, float(np.abs(z[n_pos:]).max(initial=0.0)))
    Fz = F(z)
    steps = 0
    for _ in range(_NEWTON_STEPS):
        steps += 1
        if np.abs(Fz).max() <= target:
            break
        dz, *_ = np.linalg.lstsq(J(z), -Fz, rcond=None)
        dx = dz[:n_pos]
        shrink = dx < 0
        t = 1.0
        if shrink.any():
            t = min(1.0, float(np.min(z[:n_pos][shrink] / -dx[shrink])))
        norm0 = float(np.linalg.norm(Fz))
        for _ in range(14):
            z_new = z + t * dz
            F_new = F(z_new)
            if float(np.linalg.norm(F_new)) <= (1.0 - 1e-4 * t) * norm0:
                z, Fz = z_new, F_new
                break
            t *= 0.5
        else:
            break
    return z, steps


def _newton_system(stack, A, e, support, priced, X_init):
    """Solve the equality system on a fixed support by exact-Jacobian Newton.

    Unknowns: the variables on the support and q on the priced constraints.
    Equations: scaled marginal = (A q) on every support variable, and usage
    = 1 on every priced constraint.  Each multiplier starts at the mean,
    over the agents whose bundle uses its constraint, of the agent's
    marginal per unit of that use (1 if no agent uses it); _damped_newton
    then steps with the exact Jacobian of the residual (_newton_jacobian).
    """
    n, k = support.shape
    pr = np.flatnonzero(priced)
    n_x = int(support.sum())

    # support coordinates get a small interior floor
    xs0 = np.maximum(X_init[support], 1e-6)
    X = np.zeros((n, k))
    X[support] = xs0
    M, _ = _scaled_marginals(stack, X, e)
    A3 = A.reshape(n, k, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_unit = np.where(A3 > 0.0, M[:, :, None] / A3, 0.0).sum(axis=1)
    qs0 = _holder_mean(per_unit, _bundles(X, A), empty=1.0)[pr]
    z, its = _damped_newton(
        lambda zz: _newton_residual(stack, A, e, support, pr, zz),
        lambda zz: _newton_jacobian(stack, A, e, support, pr, zz),
        np.concatenate([xs0, qs0]),
        n_x,
    )
    X = np.zeros((n, k))
    X[support] = np.maximum(z[:n_x], 0.0)
    q = np.zeros(A.shape[1])
    q[pr] = z[n_x:]
    # snap numerically-zero artifacts; the refine unprices anything below
    q[(q < 0) & (q >= -1e-10)] = 0.0
    return X, q, its


def _kkt_refine(stack, A, e, X0):
    """Polish an approximate optimum to the first-order system's root.

    Works on the packing program of the (n k, m) matrix A.  Picks the
    support from the search-phase iterate (forcing coordinates whose
    marginal value diverges at zero) and prices the constraints the iterate
    nearly saturates, plus each valued variable's fullest constraint if
    none of its own is priced.  Every priced constraint gets a support
    variable that uses it, and no more constraints are priced than the
    support's rows of A have rank (at most the support size; the slackest
    are released), since more would make the equality system inconsistent
    or singular.  Then it solves that system by
    Newton's method and repairs the guess until the full system is
    consistent: it unprices constraints whose multiplier turns negative,
    prices constraints the solution oversubscribes, drops coordinates that
    want out and adds profitable ones.
    """
    n, k = X0.shape
    vals = stack.valuations
    uses = A > 0.0
    valued = np.stack([v.valued_goods() for v in vals])
    var_valued = valued.ravel()
    usage = X0.ravel() @ A
    priced = (usage > 1.0 - 1e-3) & uses[var_valued].any(axis=0)
    lone = var_valued & ~(uses & priced).any(axis=1)
    priced[np.argmax(np.where(uses[lone], usage, -np.inf), axis=1)] = True
    divergent = np.stack([v.divergent_at_zero() for v in vals]) & valued
    if e < 1.0:
        active = np.ones(n, dtype=bool)
    else:
        active = np.array(
            [
                v.degree < 1.0 or X0[i][valued[i]].sum() > _SUPPORT_SEED
                for i, v in enumerate(vals)
            ]
        )
    support = ((X0 > _SUPPORT_SEED) & valued) | divergent
    support &= active[:, None]
    # every active agent holds its best-loaded valued good
    for i in range(n):
        if active[i] and valued[i].any() and not support[i].any():
            support[i, int(np.argmax(np.where(valued[i], X0[i], -1.0)))] = True
    # every priced constraint needs at least one prospective user
    G0 = np.stack(
        [v.gradient(np.maximum(X0[i], _GRAD_POINT_FLOOR)) for i, v in enumerate(vals)]
    )

    def ensure_holders():
        for j in np.flatnonzero(priced):
            if not (support.ravel() & uses[:, j]).any():
                cand = np.where(
                    uses[:, j] & var_valued & np.repeat(active, k), G0.ravel(), -np.inf
                )
                if np.isfinite(cand.max()):
                    support[divmod(int(np.argmax(cand)), k)] = True

    ensure_holders()
    # more priced constraints than the rank of the support's rows of A (at
    # most the support size) leave the usage equations dependent, and
    # inconsistent unless all are tight: release the slackest, but never a
    # valued variable's only priced constraint, which would leave it unpriced
    while priced.sum() > np.linalg.matrix_rank(A[support.ravel()][:, priced]):
        need = uses[var_valued] & priced
        spare = priced & ~need[need.sum(axis=1) == 1].any(axis=0)
        if not spare.any():
            break
        B = np.flatnonzero(spare)
        priced[B[np.argmax(1.0 - usage[B])]] = False

    iters = 0
    seen = set()
    for _ in range(_REFINE_ROUNDS):
        key = support.tobytes() + priced.tobytes()
        if key in seen:
            break
        seen.add(key)
        X, q, its = _newton_system(stack, A, e, support, priced, X0)
        iters += its
        negative = priced & (q < -1e-10)
        if negative.any():
            priced &= ~negative
            X0 = X
            continue
        over = ~priced & (X.ravel() @ A > 1.0 + 1e-10)
        if over.any():
            priced |= over
            X0 = X
            continue
        P = (A @ q).reshape(n, k)
        M, _ = _scaled_marginals(stack, X, e)
        E = M - P
        if e == 1.0:
            # With linear prices an agent whose bundle is worth less than it
            # costs belongs at zero: homogeneity makes welfare gain P.x - v(x)
            # from handing its mass to the price-setting holders.  Equality
            # supports satisfy v = deg * P.x, so a 0.1% deficit only appears
            # when Newton stalled on a dominated agent.
            V = stack.values(X)
            starve = np.zeros(n, dtype=bool)
            for i in range(n):
                if not support[i].any():
                    continue
                cost = float(P[i] @ X[i])
                if cost > 0.0 and V[i] < cost * (1.0 - 1e-3):
                    starve[i] = True
            if starve.any():
                support[starve] = False
                active[starve] = False
                ensure_holders()
                X0 = X
                continue
        with np.errstate(invalid="ignore"):
            drop = support & (X <= _DROP_X) & (E < _DROP_RES)
            add = (
                (~support)
                & valued
                & np.isfinite(E)
                & (E > _ADD_RES)
            )
        if drop.any():
            support &= ~drop
            X0 = X
            continue
        if add.any():
            support |= add
            X0 = X
            continue
        break
    return X, q, iters


def _check_budget(tolerance, max_iters):
    """Both solvers' parameter check: a positive finite tolerance, max_iters >= 1."""
    if tolerance <= 0 or not np.isfinite(tolerance):
        raise BadParameter("tolerance must be positive")
    if max_iters < 1:
        raise BadParameter("max_iters must be at least 1")


def _solve_smooth(stack, e, *, tolerance, max_iters, A=None):
    """Search then refine the packing program with exponent e (0: log program).

    A is the (n k, m) packing matrix, by default the allocation program's
    supply rows.  Attempt k searches from scratch with budget
    min(_FIRST_BUDGET * 4**k, max_iters) and refines the search's best
    point.  The first attempt whose kkt_residual is within `tolerance` is
    returned, and so is one whose search stopped before its budget (the
    search is deterministic, so a larger budget would replay the same
    iterates) or ran the full max_iters.  Returns (X, q, iterations of
    every attempt, residual).
    """
    _check_budget(tolerance, max_iters)
    for v in stack.valuations:
        if isinstance(v, Leontief):
            raise UnsupportedValuation(
                "Leontief valuations have no gradient; use solve_leontief"
            )
    A = _supply_rows(stack.n, stack.m) if A is None else A
    budget = min(_FIRST_BUDGET, max_iters)
    iters = 0
    while True:
        X0, searched = _ellipsoid_phase(stack, A, e, tolerance, budget)
        X, q, polished = _kkt_refine(stack, A, e, X0)
        iters += searched + polished
        residual = kkt_residual(stack.valuations, e, X, q, A)
        if residual <= tolerance or searched < budget or budget == max_iters:
            return X, q, iters, residual
        budget = min(4 * budget, max_iters)


def solve_ces(
    instance: Instance,
    *,
    tolerance: float = 1e-8,
    max_iters: int = 100_000,
) -> SolveResult:
    """Maximize (1/rho) sum_i v_i(x_i)**rho over the allocation polytope.

    The ellipsoid search restarts at budgets of 100, 400, 1600, ...
    iterations, each attempt followed by the Newton polish, and the solve
    returns the first attempt whose first-order residual is within
    `tolerance`.  `max_iters` is the search budget: it caps the last
    attempt, the one full search and polish that an uncertified market
    ends with.  `iterations` counts the search and Newton iterations of
    every attempt.

    Deterministic: identical inputs produce identical results.  Raises
    DidNotConverge (carrying the best iterate) when the final first-order
    residual exceeds `tolerance`.
    """
    stack = ValuationStack(instance.valuations)
    X, q, iters, residual = _solve_smooth(
        stack, instance.rho, tolerance=tolerance, max_iters=max_iters
    )
    values = stack.values(X)
    objective = ces_objective(WelfareParams(instance.rho), values)
    result = SolveResult(
        allocation=X,
        values=values,
        multipliers=q,
        objective=objective,
        iterations=iters,
        max_kkt_residual=residual,
    )
    if not np.isfinite(residual) or residual > tolerance:
        raise DidNotConverge(
            f"first-order residual {residual:.3e} above tolerance {tolerance:.1e}",
            result=result,
        )
    return result


def extract_multipliers(
    instance: Instance, allocation, *, spread_tol: float = 1e-5
) -> np.ndarray:
    """Per-good multipliers recovered from holder gradients.

    Every holder of good j prices it at v_i**(rho-1) * dv_i/dx_ij; at an
    optimum these agree, so the mean is returned.  Goods held by nobody get
    multiplier 0.  Raises InconsistentMultipliers when holder estimates
    disagree by more than 10x the allowed relative spread.
    """
    X = as_allocation(allocation, instance.n, instance.m)
    M, _ = _scaled_marginals(ValuationStack(instance.valuations), X, instance.rho)
    held = X > _HOLDER_EPS
    q = _holder_mean(M, X)
    for j in np.flatnonzero(held.any(axis=0)):
        cands = M[held[:, j], j]
        if not np.all(np.isfinite(cands)):
            raise InconsistentMultipliers(
                f"good {j}: a holder's implied multiplier is not finite"
            )
        spread = float(cands.max() - cands.min())
        rel = spread / max(abs(q[j]), 1e-30)
        if rel > 10.0 * spread_tol:
            raise InconsistentMultipliers(
                f"good {j}: holder multipliers spread {rel:.3e} "
                f"exceeds 10 x {spread_tol:.1e}"
            )
    return q


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length `parts` summing to `total`.

    Stars and bars: each choice of parts - 1 bar positions among
    total + parts - 1 slots is one vector, its parts the gaps between bars.
    Rows come in lexicographic order.
    """
    slots = total + parts - 1
    count = math.comb(slots, parts - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64,
        count=count * (parts - 1),
    ).reshape(count, parts - 1)
    edges = np.hstack(
        [np.full((count, 1), -1, dtype=np.int64), bars, np.full((count, 1), slots, dtype=np.int64)]
    )
    return np.diff(edges, axis=1) - 1


def grid_oracle(
    instance: Instance, resolution: int, *, max_points: int = 30_000_000
) -> np.ndarray:
    """Exhaustive search over per-good simplex grids; ground truth for tests.

    Each good's supply is split among agents in integer multiples of
    1/resolution (valuations are nondecreasing, so exhausting the supply is
    never worse).  Raises TooLarge when the full product grid would exceed
    `max_points` candidates.  Deterministic: first best candidate wins.
    """
    if resolution < 1:
        raise BadParameter("resolution must be at least 1")
    n, m = instance.n, instance.m
    rho = instance.rho
    per_good = math.comb(resolution + n - 1, n - 1)
    total = per_good**m
    if total > max_points:
        raise TooLarge(
            f"{per_good}**{m} = {total} grid points exceed the {max_points} budget"
        )
    cols = _compositions(resolution, n).astype(float) / resolution  # (K, n)
    K = cols.shape[0]
    best_obj = -np.inf
    best_flat = 0
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        X = np.empty((idx.shape[0], n, m))
        rem = idx
        for j in range(m - 1, -1, -1):
            rem, col_idx = np.divmod(rem, K)
            X[:, :, j] = cols[col_idx]
        obj = np.zeros(idx.shape[0])
        for i, v in enumerate(instance.valuations):
            obj += v.values_batch(X[:, i, :]) ** rho
        obj = obj / rho
        k = int(np.argmax(obj))
        if obj[k] > best_obj:
            best_obj = float(obj[k])
            best_flat = int(idx[k])
    X = np.empty((n, m))
    rem = best_flat
    for j in range(m - 1, -1, -1):
        rem, col_idx = divmod(rem, K)
        X[:, j] = cols[col_idx]
    return X


# ---------------------------------------------------------------------------
# Leontief program
# ---------------------------------------------------------------------------


def solve_leontief(
    instance: Instance, *, tolerance: float = 1e-8, max_iters: int = 100_000
) -> LeontiefResult:
    """Welfare optimum when every agent has a Leontief (min-ratio) valuation.

    Works in the attained-level variables alpha_i (x_ij = w_ij * alpha_i is
    then the minimal bundle reaching alpha_i): maximize (1/rho) sum
    alpha_i**rho subject to W^T alpha <= 1.  That is the packing program of
    the level market, n unit-linear agents over one variable each, with
    A = W, so the smooth solver's driver (_solve_smooth) solves it, and
    certifies it at `tolerance`, as it does for solve_ces.  The supply
    multipliers are the KKT duals of the supply bounds from its polish, so
    each agent with alpha_i > 0 pays exactly rho * alpha_i under the
    induced rule.  The polish prices no more goods than the rank of its
    support levels' weight rows, which at rho = 1 keeps a vertex from
    over-binding; where the duals are still not unique the multipliers are
    the least-squares solution the Newton steps reach on the priced goods.
    """
    vals = instance.valuations
    for v in vals:
        if not isinstance(v, Leontief):
            raise NotLeontief("solve_leontief requires Leontief valuations only")
    rho = instance.rho
    W = np.stack([v.weights for v in vals])
    level = ValuationStack((Linear([1.0]),) * instance.n)
    Z, q, iters, res = _solve_smooth(
        level, rho, tolerance=tolerance, max_iters=max_iters, A=W
    )
    alpha = Z[:, 0]
    X = W * alpha[:, None]
    lam = np.where(X > 0, q[None, :], 0.0)
    result = LeontiefResult(
        allocation=X,
        alphas=alpha,
        multipliers=q,
        duals=lam,
        objective=ces_objective(WelfareParams(rho), alpha),
        iterations=iters,
    )
    if not np.isfinite(res) or res > tolerance:
        raise DidNotConverge(
            f"Leontief first-order residual {res:.3e} above tolerance {tolerance:.1e}",
            result=result,
        )
    return result
