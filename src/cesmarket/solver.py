"""Allocation solvers for the CES welfare program.

The central program: maximize (1/rho) * sum_i v_i(x_i)**rho over allocations
x >= 0 with sum_i x_ij <= 1 per good.  Main entry points:

  - closed_form_single_good: the one-good optimum in closed form
  - solve_ces: the smooth program; its Newton steps solve the exact
    Jacobian of the first-order system, built from the valuations' analytic
    Hessians, agent by agent
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
search budgets 1, 100, 400, 1600, ..., max_iters, each an ellipsoid
search (_ellipsoid_phase) and one active-set Newton polish (_kkt_refine,
whose equality solves, _newton_system, go through _newton_residual and
_newton_step), stopping at the first attempt that kkt_residual, the one
first-order residual of the packing program, certifies.  The program is
concave, so a certified point is a global optimum however it was found:
the one-iteration first attempt polishes the search's start point, and
the search runs only as long as the polish needs.  _solve_smooth also
solves the mixed-degree witness of demos.py, a stack that no Instance
admits: the search's cuts take the first agent's degree, but the refine
and the residual read each agent's, so the point it returns is a
certified optimum.  Every first-order check goes
through one kernel, _scaled_marginals: a point is supported by the convex
price rule exactly when each held variable's scaled marginal
v_i**(e-1) * dv_i/dz equals its price (A q) and each unheld one is at most
its price.  Its derivative, _marginal_jacobian, is block diagonal by
agent, so _newton_step eliminates the agents' blocks one by one and
solves the Schur system on the priced constraints; it falls back to dense
least squares on _newton_jacobian where a block is singular or a support
coordinate sits at the floor.  _newton_step holds the package's only
linear solves.  The kernel, its derivative and the search objective
evaluate all agents at once through one ValuationStack per market (an
Instance builds its stack once), which also holds the per-agent facts the
refine and the residual read.  The residual, _stationarity_residual,
takes its caller's stack: the certificate passes the instance's, the
driver passes its own through kkt_residual, and the public kkt_residual
builds one when handed valuations.  Only the refine's gradient query (G0)
and the waiver's best value at unit cost (_value_per_cost in
valuations.py, which the Fisher check also reads) ask each agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    Leontief,
    Linear,
    Valuation,
    ValuationStack,
    _row_dot,
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
_FIRST_BUDGET = 100       # search budget of the first attempt past the start point
_ORACLE_POINTS = 30_000_000  # grid points the oracle scores at most by default
_ORACLE_CHUNK = 1 << 16      # grid points the oracle scores per block


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

    @cached_property
    def _stack(self) -> ValuationStack:
        # cached_property writes the instance __dict__, which a frozen
        # dataclass allows
        return ValuationStack(self.valuations)

    def values_at(self, allocation) -> np.ndarray:
        X = as_allocation(allocation, self.n, self.m)
        return self._stack.values(X)


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


def _stationarity_residual(stack, X, P, e, weights=None):
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
    M, div = _scaled_marginals(stack, X, e, weights)
    with np.errstate(invalid="ignore"):
        E = M - P
        gap = np.where(X > 0.0, np.abs(E), np.maximum(E, 0.0))
    gap[div] = np.inf
    idle = (e == 1.0) & (stack.degrees == 1.0) & ~(stack.valued & (X != 0.0)).any(axis=1)
    waived = div & idle[:, None]
    for i in np.flatnonzero(waived.any(axis=1)):
        gap[i, waived[i]] = max(stack.valuations[i]._value_per_cost(P[i]) - 1.0, 0.0)
    if weights is not None:
        gap = gap[np.asarray(weights) != 0.0]
    return float(gap.max(initial=0.0)), [(int(i), int(j)) for i, j in np.argwhere(waived)]


def _supply_rows(n, m):
    """The allocation program's packing matrix: sum_i x_ij <= 1 per good j."""
    return np.tile(np.eye(m), (n, 1))


def kkt_residual(vals, rho, X, q, A=None):
    """Max first-order violation of the packing program at (X, q).

    `vals` is the agents' valuations, or their ValuationStack, which is
    used as given.  `rho` is the exponent of the program (0 for the log
    program).  X holds the stack's (n, k) variables, packed by the (n k, m)
    matrix A (default _supply_rows, k = m) and priced at A q.  Held
    variables must price exactly and unheld ones must not be profitable,
    under the waiver rule of _stationarity_residual; q must be nonnegative,
    no constraint may be oversubscribed, and constraints with q_j > 0 must
    be tight.
    """
    n, k = X.shape
    A = _supply_rows(n, k) if A is None else A
    stack = vals if isinstance(vals, ValuationStack) else ValuationStack(vals)
    res, _ = _stationarity_residual(stack, X, (A @ q).reshape(n, k), rho)
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


def _newton_jacobian(stack, A, e, support, pr, z, B=None):
    """Exact Jacobian of _newton_residual at z.

    The x-block is block diagonal by agent, from _marginal_jacobian (or the
    caller's B, its value at z); q enters with -A and usage with +A^T,
    restricted to the support and pr.  A coordinate below the floor does
    not move the floored point, so its column is zero.
    """
    n_x = z.size - pr.size
    rows, cols = support.nonzero()        # the order of X[support]
    coupling = A[:, pr][support.ravel()]
    if B is None:
        B = _marginal_jacobian(stack, _support_point(support, z), e)
    J = np.zeros((n_x + pr.size, n_x + pr.size))
    J[:n_x, :n_x] = np.where(
        rows[:, None] == rows[None, :], B[rows[:, None], cols[:, None], cols], 0.0
    )
    J[:n_x, n_x:] = -coupling
    J[n_x:, :n_x] = coupling.T
    J[:, :n_x][:, z[:n_x] < _NEWTON_FLOOR] = 0.0
    return J


def _newton_step(stack, A, e, support, pr, z, Fz, dense):
    """The Newton step dz of J(z) dz = -F(z), eliminated agent by agent.

    J is [[B, -C], [C^T, 0]] with B block diagonal by agent and C the
    support's rows of A on the priced constraints pr.  Each agent's block,
    padded to k x k with identity off its support, is solved against
    [-F_x | C_i] in one batched solve; the |pr| x |pr| Schur system
    sum_i C_i^T B_i^-1 C_i dq = -F_q - sum_i C_i^T B_i^-1 (-F_x,i) gives dq,
    and dx_i = B_i^-1 (-F_x,i + C_i dq).  The step falls back to dense
    least squares on _newton_jacobian when `dense` is set, when a support
    coordinate sits below the floor (its column of J is zero), or when the
    blocks or the Schur system are singular, non-finite or leave J dz + F
    above 1e-9 max(1, max |F|).  Returns (dz, whether it fell back).
    """
    n_x = z.size - pr.size
    B = _marginal_jacobian(stack, _support_point(support, z), e)
    if not dense and z[:n_x].min(initial=_NEWTON_FLOOR) >= _NEWTON_FLOOR:
        n, k = support.shape
        Bp = np.where(support[:, :, None] & support[:, None, :], B, 0.0)
        off, j = (~support).nonzero()
        Bp[off, j, j] = 1.0
        R = np.zeros((n, k, 1 + pr.size))      # [-F_x | C], zero off the support
        R[:, :, 1:] = A.reshape(n, k, -1)[:, :, pr] * support[:, :, None]
        R[support, 0] = -Fz[:n_x]
        C = R[:, :, 1:].reshape(n * k, -1)
        try:
            with np.errstate(all="ignore"):
                Y = np.linalg.solve(Bp, R)
                u, W = Y[:, :, 0], Y[:, :, 1:]
                dq = np.linalg.solve(
                    C.T @ W.reshape(n * k, -1), -Fz[n_x:] - C.T @ u.ravel()
                )
                dx = u + W @ dq
                r = np.concatenate([
                    ((Bp @ dx[:, :, None])[:, :, 0] - R[:, :, 0]).ravel() - C @ dq,
                    C.T @ dx.ravel() + Fz[n_x:],
                ])
            # a NaN residual fails the test too
            if np.abs(r).max() <= 1e-9 * max(1.0, float(np.abs(Fz).max())):
                return np.concatenate([dx[support], dq]), False
        except np.linalg.LinAlgError:
            pass
    J = _newton_jacobian(stack, A, e, support, pr, z, B)
    return np.linalg.lstsq(J, -Fz, rcond=None)[0], True


def _newton_system(stack, A, e, support, priced, X_init):
    """Solve the equality system on a fixed support by damped exact-Jacobian Newton.

    Unknowns: the variables on the support, z[:n_x], then q on the priced
    constraints.  Equations (_newton_residual): scaled marginal = (A q) on
    every support variable, and usage = 1 on every priced constraint.  Each
    multiplier starts at the mean, over the agents whose bundle uses its
    constraint, of the agent's marginal per unit of that use (1 if no agent
    uses it).  The steps are _newton_step's; once one has fallen back to
    dense least squares, the rest stay dense: a floored coordinate stays at
    the floor, and a singular block mostly stays singular.  Each step is cut
    where the support variables reach zero, and is halved up to 14 times
    until the residual norm falls by the Armijo factor.  Stops once max |F|
    <= _NEWTON_RTOL * max(1, max |q|) at the start, after _NEWTON_STEPS
    steps, when the cut leaves a step of length exactly 0, or when no step
    is accepted.  Returns (X, q, steps).

    A cut of length 0 comes from a support variable at zero, below
    _NEWTON_FLOOR, where _newton_step takes its dense path, which depends
    only on z and F(z): the Armijo test holds at t = 0, so every later step
    would be this one again, accepted with z unchanged, up to _NEWTON_STEPS.

    Cutting onto zero, not just short of it, matters: a coordinate that
    lands below _NEWTON_FLOOR is held at the floor by _newton_residual,
    while one left at a millionth of its value keeps a near-singular
    marginal that can stall the refine.
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
    z = np.concatenate([xs0, qs0])
    target = _NEWTON_RTOL * max(1.0, float(np.abs(qs0).max(initial=0.0)))
    Fz = _newton_residual(stack, A, e, support, pr, z)
    dense = False
    for steps in range(1, _NEWTON_STEPS + 1):
        if np.abs(Fz).max() <= target:
            break
        dz, dense = _newton_step(stack, A, e, support, pr, z, Fz, dense)
        dx = dz[:n_x]
        shrink = dx < 0
        t = 1.0
        if shrink.any():
            t = min(1.0, float(np.min(z[:n_x][shrink] / -dx[shrink])))
        if t == 0.0:    # not t <= 0: some solves certify only through t < 0 steps
            break
        norm0 = float(np.linalg.norm(Fz))
        for _ in range(14):
            z_new = z + t * dz
            F_new = _newton_residual(stack, A, e, support, pr, z_new)
            if float(np.linalg.norm(F_new)) <= (1.0 - 1e-4 * t) * norm0:
                z, Fz = z_new, F_new
                break
            t *= 0.5
        else:
            break
    X = np.zeros((n, k))
    X[support] = np.maximum(z[:n_x], 0.0)
    q = np.zeros(A.shape[1])
    q[pr] = z[n_x:]
    # snap numerically-zero artifacts; the refine unprices anything below
    q[(q < 0) & (q >= -1e-10)] = 0.0
    return X, q, steps


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
    uses = A > 0.0
    valued = stack.valued
    var_valued = valued.ravel()
    usage = X0.ravel() @ A
    priced = (usage > 1.0 - 1e-3) & uses[var_valued].any(axis=0)
    lone = var_valued & ~(uses & priced).any(axis=1)
    priced[np.argmax(np.where(uses[lone], usage, -np.inf), axis=1)] = True
    held = np.where(valued, X0, 0.0).sum(axis=1)
    active = (e < 1.0) | (stack.degrees < 1.0) | (held > _SUPPORT_SEED)
    support = ((X0 > _SUPPORT_SEED) & valued) | stack.divergent
    support &= active[:, None]
    # every active agent holds its best-loaded valued good
    bare = active & ~support.any(axis=1)
    support[bare, np.argmax(np.where(valued, X0, -1.0), axis=1)[bare]] = True
    # every priced constraint needs at least one prospective user
    G0 = np.stack(
        [v.gradient(np.maximum(x, _GRAD_POINT_FLOOR)) for v, x in zip(stack.valuations, X0)]
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
            cost, V = _row_dot(P, X), stack.values(X)
            starve = support.any(axis=1) & (cost > 0.0) & (V < cost * (1.0 - 1e-3))
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
    supply rows.  Each attempt searches from scratch and refines the
    search's best point.  The budgets are 1, then
    min(_FIRST_BUDGET * 4**k, max_iters) for k = 0, 1, ...: a
    one-iteration search evaluates and returns its start point,
    cap / (2 max A^T cap), which is x_ij = 1/(2n) on the allocation
    program.  The first attempt whose kkt_residual is within `tolerance` is
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
    budget = 1
    iters = 0
    while True:
        X0, searched = _ellipsoid_phase(stack, A, e, tolerance, budget)
        X, q, polished = _kkt_refine(stack, A, e, X0)
        iters += searched + polished
        residual = kkt_residual(stack, e, X, q, A)
        if residual <= tolerance or searched < budget or budget == max_iters:
            return X, q, iters, residual
        budget = min(_FIRST_BUDGET if budget == 1 else 4 * budget, max_iters)


def solve_ces(
    instance: Instance,
    *,
    tolerance: float = 1e-8,
    max_iters: int = 100_000,
) -> SolveResult:
    """Maximize (1/rho) sum_i v_i(x_i)**rho over the allocation polytope.

    The ellipsoid search restarts at budgets of 1, 100, 400, 1600, ...
    iterations, each attempt followed by the Newton polish, and the solve
    returns the first attempt whose first-order residual is within
    `tolerance`; the first attempt polishes the search's start point.
    `max_iters` is the search budget: it caps the last attempt, the one
    full search and polish that an uncertified market ends with.
    `iterations` counts the search and Newton iterations of every attempt.

    Deterministic: identical inputs produce identical results.  Raises
    DidNotConverge (carrying the best iterate) when the final first-order
    residual exceeds `tolerance`.
    """
    stack = instance._stack
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
    M, _ = _scaled_marginals(instance._stack, X, instance.rho)
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


def _compositions(
    total: int, parts: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Rows [start, stop) of the nonnegative integer vectors of length
    `parts` summing to `total`, in lexicographic order; all rows by default.

    Each row is unranked part by part (the combinatorial number system), so
    a range costs only its own rows.  With t units left for the last q
    parts there are N(t) = C(t + q - 1, q - 1) rows; the one of rank r
    among them has next part t - u for the u with N(u - 1) < N(t) - r <=
    N(u), found by a search of N (for q = 2, N(u) = u + 1, a subtraction),
    and rank N(u) - N(t) + r among the rows of q - 1 parts that follow.
    The array is column-major, so each part's column is contiguous.
    """
    ways = [np.ones(total + 1, dtype=np.int64)]             # ways[q - 1] is N for q
    for _ in range(parts - 1):
        ways.append(np.cumsum(ways[-1]))
    span = range(ways[-1][-1])[start:stop]
    out = np.empty((len(span), parts), dtype=np.int64, order="F")
    rank = np.arange(span.start, span.stop)
    left = total
    for q in range(parts, 1, -1):
        N = ways[q - 1]
        back = N[left] - rank
        u = back - 1 if q == 2 else np.searchsorted(N, back)
        out[:, parts - q] = left - u
        rank = N[u] - back
        left = u
    out[:, -1] = left
    return out


def grid_oracle(
    instance: Instance, resolution: int, *, max_points: int = _ORACLE_POINTS
) -> np.ndarray:
    """Exhaustive search over per-good simplex grids; ground truth for tests.

    Each good's supply is split among agents in integer multiples of
    1/resolution (valuations are nondecreasing, so exhausting the supply is
    never worse).  Raises TooLarge when the full product grid would exceed
    `max_points` candidates.  Deterministic: first best candidate wins, in
    the lexicographic order of the goods' splits.

    Points are scored in lexicographic order, in blocks of at most
    _ORACLE_CHUNK (2^16): the trailing s goods, s < m the most with
    K**s <= _ORACLE_CHUNK for K splits per good, are enumerated once, and a
    block repeats them under a run of splits of good m - s - 1, the goods
    before it fixed; a grid of at most _ORACLE_CHUNK points is one block.
    Each block takes only its own splits from _compositions, so memory
    grows with the block (0.5 MB per vector), not with the grid: 3 agents
    over one good at resolution 2000, 2,003,001 points, peak under 10 MB.
    An agent's bundle depends only on its own unit counts, of which it can
    hold L = resolution + 1 per good (1 when n = 1).  So in each block, one
    values_batch call scores an agent's table: its fixed counts of the head
    goods, each distinct count it holds in the run, and all L**s count
    vectors of the trailing goods.  A point gathers each agent's entry by
    the agent's run count and trail code, the codes built once per call;
    when L == K (n <= 2) the table is the block itself and needs no gather.
    A table has at most as many rows as its block has points, and far fewer
    once n >= 3.
    """
    if resolution < 1:
        raise BadParameter("resolution must be at least 1")
    n, m = instance.n, instance.m
    rho = instance.rho
    K = math.comb(resolution + n - 1, n - 1)
    if K**m > max_points:
        raise TooLarge(f"{K}**{m} = {K**m} grid points exceed the {max_points} budget")
    frac = np.arange(resolution + 1) / resolution           # each unit count's share
    s = max(t for t in range(m) if K**t <= _ORACLE_CHUNK)
    head = m - s - 1                                        # goods fixed per block
    step = min(K, _ORACLE_CHUNK // K**s)
    # Rank each agent's unit counts in the order they first appear among the
    # splits, which come in lexicographic order: counting up from 0, the last
    # agent's counting down from resolution.  An agent that holds a distinct
    # count at every split (L == K, so n <= 2) then has rank k at split k.
    # The trailing goods' codes rank every split, which s > 0 keeps within
    # a block (K <= K**s <= _ORACLE_CHUNK).
    L = resolution + 1 if n > 1 else 1
    units = _compositions(resolution, n, stop=K if s else 0).T    # (n, K) or (n, 0)
    # Every agent's table bundles share one buffer, which the blocks reuse and
    # whose trailing rows are written once.  Under glibc, freeing it at the
    # end also raises the heap's trim threshold, so the next call's block
    # temporaries reuse pages instead of faulting fresh ones in.
    buf = np.empty((n, m, min(step, L), L**s))
    agents = []
    for i, a in enumerate(units):
        last = i == n - 1
        share = frac[::-1] if last else frac                # share of each rank
        code = np.zeros(1, dtype=np.int64)
        for _ in range(s):
            code = (code[:, None] * L + (resolution - a if last else a)).ravel()
        buf[i, head + 1 :] = share[np.indices((L,) * s).reshape(s, L**s)][:, None, :]
        agents.append((last, share, code, buf[i]))
    best_obj = -np.inf
    for fixed in np.ndindex((K,) * head):
        held = np.array([_compositions(resolution, n, f, f + 1)[0] for f in fixed],
                        dtype=np.int64).reshape(head, n)      # the head goods' units
        for (*_, B), h in zip(agents, held.T):
            B[:head] = frac[h][:, None, None]
        for start in range(0, K, step):
            run = _compositions(resolution, n, start, start + step).T
            obj = None
            for a, (last, share, code, B), v in zip(run, agents, instance.valuations):
                rank = resolution - a if last else a
                seen = np.zeros(L, dtype=bool)
                seen[rank] = True
                distinct = np.flatnonzero(seen)
                B[head, : distinct.size] = share[distinct][:, None]
                table = v.values_batch(B[:, : distinct.size].reshape(m, -1).T)
                if rho != 1.0:      # x ** 1.0 is x to the bit; skip the pass
                    table **= rho
                table = table.reshape(distinct.size, L**s)
                if L < K:
                    table = table[(np.cumsum(seen) - 1)[rank]][:, code]
                if obj is None:     # a new array: values_batch's or a gather
                    obj = table
                else:
                    obj += table
            obj = obj.ravel()
            if rho != 1.0:
                obj /= rho
            k = int(np.argmax(obj))
            if obj[k] > best_obj:
                best_obj = float(obj[k])
                j, t = divmod(k, K**s)
                trail = units[:, list(np.unravel_index(t, (K,) * s))]
                best = frac[np.column_stack([held.T, run[:, j], trail])]
    return best


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
