"""Allocation solvers for the CES welfare program.

The central program: maximize (1/rho) * sum_i v_i(x_i)**rho over allocations
x >= 0 with sum_i x_ij <= 1 per good.  Main entry points:

  - closed_form_single_good: the one-good optimum in closed form
  - solve_ces: ellipsoid search phase plus an active-set Newton
    refinement that drives the first-order residual to certification grade
  - extract_multipliers: per-good multipliers read off holder gradients
  - grid_oracle: brute-force simplex-grid enumeration for small instances
  - solve_leontief: the min-ratio (Leontief) variational program, with
    supply multipliers taken from the KKT duals of its Newton solve

Every first-order check goes through one kernel, _scaled_marginals: the
allocation is supported by the convex price rule exactly when each held
coordinate's scaled marginal v_i**(e-1) * dv_i/dx_ij equals q_j and each
unheld one is at most q_j.
"""

from __future__ import annotations

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
from .valuations import CesForm, CobbDouglas, Leontief, Valuation
from .welfare import WelfareParams, ces_objective, scaled_gradient

# Values below this are answered with a surrogate objective inside solver
# iterations; certification never sees floored values.
VALUE_FLOOR = 1e-12
_SURROGATE = 1e30
# Gradients queried by the solver are evaluated at bundles floored here, so
# divergent boundary partials stay finite during the search.
_GRAD_POINT_FLOOR = 1e-9

# Agents of one instance must share their homogeneity degree to this tolerance.
DEGREE_TOL = 1e-9

_HOLDER_EPS = 1e-10       # an agent "holds" a good above this
_SUPPORT_SEED = 1e-5      # ellipsoid mass above this seeds the Newton support
_DROP_X = 1e-8            # support coordinates at/below this may be dropped
_DROP_RES = -1e-7         # ... when their marginal sits this far below price
_ADD_RES = 1e-9           # off-support marginal excess that re-opens a coordinate


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
        return np.array([v.value(X[i]) for i, v in enumerate(self.valuations)])


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


def _scaled_marginals(vals, X, e, weights=None):
    """Scaled marginals a_i * v_i**(e-1) * dv_i/dx_ij over an (n, m) allocation.

    The exponent picks the program: e = rho is the CES program, e = 0 the
    log (Nash) program because 1/v = v**(0-1), and e = rho - 1 with weights
    a_i = v_i the weighted-shift check.  Returns (M, div): div marks the
    partials that diverge at a zero holding, where M is NaN.  A zero value
    with e < 1 gives an infinite factor, so every positive partial of that
    row reads +inf while goods the agent does not value keep marginal 0.
    """
    n, m = X.shape
    G = np.empty((n, m))
    div = np.empty((n, m), dtype=bool)
    V = np.empty(n)
    for i, v in enumerate(vals):
        g, ok = v.partials(X[i])
        G[i] = np.where(ok, g, np.nan)
        div[i] = ~ok
        V[i] = v.value(X[i])
    with np.errstate(divide="ignore", invalid="ignore"):
        M = scaled_gradient(G, V, e, weights)
    M[G == 0.0] = 0.0
    return M, div


def _holder_mean(M, X, empty=0.0):
    """Per-good mean of M over the agents holding the good; `empty` if none does."""
    held = X > _HOLDER_EPS
    count = held.sum(axis=0)
    total = np.where(held, M, 0.0).sum(axis=0)
    return np.where(count > 0, total / np.maximum(count, 1), empty)


def _value_per_cost(v, q):
    """Largest v(x) / (q . x) of an agent whose degree is 1 within DEGREE_TOL.

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


def _stationarity_residual(vals, X, q, e, weights=None):
    """Worst violation of [scaled marginal <= q_j, equality where x_ij > 0].

    Agents with zero weight impose no conditions.  A partial that diverges
    at a zero holding is a violation, with one exception: at e = 1 an agent
    of degree 1 that holds none of its valued goods has those coordinates
    waived, and must instead value no bundle above its cost at q; its best
    value per unit cost minus 1 is the residual on the waived coordinates.
    Returns (residual, waived coordinate list).
    """
    M, div = _scaled_marginals(vals, X, e, weights)
    with np.errstate(invalid="ignore"):
        E = M - q
        gap = np.where(X > 0.0, np.abs(E), np.maximum(E, 0.0))
    gap[div] = np.inf
    waived = []
    for i in np.flatnonzero(div.any(axis=1)):
        v = vals[i]
        idle = not X[i, v.valued_goods()].any()
        if e == 1.0 and idle and abs(v.degree - 1.0) <= DEGREE_TOL:
            gap[i, div[i]] = max(_value_per_cost(v, q) - 1.0, 0.0)
            waived += [(int(i), int(j)) for j in np.flatnonzero(div[i])]
    if weights is not None:
        gap = gap[np.asarray(weights) != 0.0]
    return float(gap.max(initial=0.0)), waived


def kkt_residual(vals, rho, X, q):
    """Max first-order violation of the welfare program at (X, q).

    `rho` is the exponent of the program (0 for the log program).  Held
    coordinates must price exactly and unheld ones must not be profitable,
    under the waiver rule of _stationarity_residual; q must be nonnegative,
    and goods with q_j > 0 must clear.
    """
    res, _ = _stationarity_residual(vals, X, q, rho)
    if np.any(q < 0):
        res = max(res, float(-q.min()))
    priced = q > 0
    if priced.any():
        res = max(res, float(np.abs(X[:, priced].sum(axis=0) - 1.0).max()))
    return res


# ---------------------------------------------------------------------------
# search phase: ellipsoid over the allocation polytope
# ---------------------------------------------------------------------------


def _floored_query(vals, e, X):
    """Ascent gradient of the objective from valuation gradients alone.

    Bundles are floored at a tiny interior point before the gradient query
    so boundary singularities stay finite, and each value is reconstructed
    from its own gradient through the homogeneity identity
    v = (1/r) * x . grad v.
    """
    r = vals[0].degree
    Xe = np.maximum(X, _GRAD_POINT_FLOOR)
    G = np.stack([v.gradient(Xe[i]) for i, v in enumerate(vals)])
    implied = (Xe * G).sum(axis=1) / r
    return scaled_gradient(G, implied, e)


def _tracking_objective(vals, e, X):
    """True objective for best-iterate tracking; surrogate near zero values."""
    V = np.array([v.value(X[i]) for i, v in enumerate(vals)])
    if e < 1.0 and V.min() < VALUE_FLOOR:
        return -_SURROGATE
    if e == 0.0:
        return float(np.log(V).sum())
    return float((V**e).sum() / e)


def _ellipsoid_phase(vals, e, tolerance, max_iters):
    """Central-cut ellipsoid search for an approximate optimum.

    Cuts come from gradient queries at floored bundles; the best iterate is
    tracked with true values, so the search queries both gradients and
    values.
    """
    n, m = len(vals), vals[0].m
    d = n * m
    cut_template = np.zeros((n, m))

    def separation(z):
        neg = z < -1e-12
        if neg.any():
            a = np.zeros(d)
            a[int(np.flatnonzero(neg)[0])] = -1.0
            return a
        sums = z.reshape(n, m).sum(axis=0)
        over = sums > 1.0 + 1e-12
        if over.any():
            cut_template[:] = 0.0
            cut_template[:, int(np.flatnonzero(over)[0])] = 1.0
            return cut_template.ravel().copy()
        return None

    def objective(z):
        X = np.maximum(z.reshape(n, m), 0.0)
        f = -_tracking_objective(vals, e, X)
        g = -_floored_query(vals, e, X)
        return f, g.ravel()

    center = np.full(d, 1.0 / (2 * n))
    best, _, iters = ellipsoid_minimize(
        objective,
        separation,
        center,
        radius=math.sqrt(d),
        tolerance=tolerance,
        max_iters=max_iters,
        stall_window=50 * d,
    )
    if best is None:
        best = center
    return np.maximum(best.reshape(n, m), 0.0), iters


# ---------------------------------------------------------------------------
# refinement phase: active-set Newton on the first-order system
# ---------------------------------------------------------------------------


def _fd_jacobian(F, z, F0, n_x):
    """Finite-difference Jacobian; one-sided near the x >= 0 boundary."""
    p = z.shape[0]
    J = np.empty((F0.shape[0], p))
    for k in range(p):
        if k < n_x and z[k] < 1e-6:
            h = 1e-7
            zp = z.copy()
            zp[k] += h
            J[:, k] = (F(zp) - F0) / h
        else:
            h = 1e-6 * max(1.0, abs(z[k]))
            zp = z.copy()
            zm = z.copy()
            zp[k] += h
            zm[k] -= h
            J[:, k] = (F(zp) - F(zm)) / (2.0 * h)
    return J


def _newton_system(vals, e, support, priced, X_init):
    """Solve the equality system on a fixed support to high accuracy.

    Unknowns: x on the support coordinates and q on the priced goods.
    Equations: scaled marginal = q_j on every support coordinate, and
    sum_i x_ij = 1 on every priced good.
    """
    n, m = support.shape
    pr = np.flatnonzero(priced)
    n_x = int(support.sum())

    def F(z):
        X = np.zeros((n, m))
        X[support] = np.maximum(z[:n_x], 1e-13)
        q = np.zeros(m)
        q[pr] = z[n_x:]
        M, _ = _scaled_marginals(vals, X, e)
        return np.concatenate([(M - q)[support], X.sum(axis=0)[pr] - 1.0])

    # assemble z0; support coordinates get a small interior floor, and each
    # multiplier starts at its holders' mean scaled marginal (1 if unheld)
    xs0 = np.maximum(X_init[support], 1e-6)
    X = np.zeros((n, m))
    X[support] = xs0
    M, _ = _scaled_marginals(vals, X, e)
    qs0 = _holder_mean(M, X, empty=1.0)[pr]
    z = np.concatenate([xs0, qs0])

    Fz = F(z)
    scale = max(1.0, float(np.abs(qs0).max()) if qs0.size else 1.0)
    target = 1e-12 * scale
    its = 0
    for _ in range(60):
        its += 1
        if np.abs(Fz).max() <= target:
            break
        J = _fd_jacobian(F, z, Fz, n_x)
        dz, *_ = np.linalg.lstsq(J, -Fz, rcond=None)
        # keep x coordinates nonnegative
        dx = dz[:n_x]
        shrink = dx < 0
        t_max = 1.0
        if shrink.any():
            t_max = min(1.0, float(np.min(z[:n_x][shrink] / -dx[shrink])))
        t = t_max
        norm0 = float(np.linalg.norm(Fz))
        accepted = False
        for _ in range(14):
            z_new = z + t * dz
            F_new = F(z_new)
            if float(np.linalg.norm(F_new)) <= (1.0 - 1e-4 * t) * norm0:
                z, Fz = z_new, F_new
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    X = np.zeros((n, m))
    X[support] = np.maximum(z[:n_x], 0.0)
    q = np.zeros(m)
    q[pr] = z[n_x:]
    # snap numerically-zero artifacts
    q[(q < 0) & (q > -1e-11)] = 0.0
    return X, q, its


def _kkt_refine(vals, e, X0, *, max_rounds=40):
    """Polish an approximate optimum to the first-order system's root.

    Picks the support from the search-phase iterate (forcing coordinates
    whose marginal value diverges at zero), solves the equality system by
    Newton's method, and repairs the guess by dropping coordinates that want
    out and adding profitable ones until the full system is consistent.
    """
    n, m = X0.shape
    valued = np.stack([v.valued_goods() for v in vals])
    priced = valued.any(axis=0)
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
    # every priced good needs at least one prospective holder
    G0 = np.stack(
        [v.gradient(np.maximum(X0[i], _GRAD_POINT_FLOOR)) for i, v in enumerate(vals)]
    )

    def ensure_holders():
        for j in np.flatnonzero(priced):
            if not support[:, j].any():
                cand = np.where(valued[:, j] & active, G0[:, j], -np.inf)
                if np.isfinite(cand.max()):
                    support[int(np.argmax(cand)), j] = True

    ensure_holders()

    X, q = X0, None
    iters = 0
    seen = set()
    for _ in range(max_rounds):
        key = support.tobytes()
        if key in seen:
            break
        seen.add(key)
        X, q, its = _newton_system(vals, e, support, priced, X0)
        iters += its
        M, _ = _scaled_marginals(vals, X, e)
        E = M - q
        if e == 1.0:
            # With linear prices an agent whose bundle is worth less than it
            # costs belongs at zero: homogeneity makes welfare gain q.x - v(x)
            # from handing its mass to the price-setting holders.  Equality
            # supports satisfy v = deg * q.x, so a 0.1% deficit only appears
            # when Newton stalled on a dominated agent.
            starve = np.zeros(n, dtype=bool)
            for i in range(n):
                if not support[i].any():
                    continue
                cost = float(q @ X[i])
                if cost > 0.0 and vals[i].value(X[i]) < cost * (1.0 - 1e-3):
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
    if q is None:
        q = np.zeros(m)
    return X, q, iters


def _solve_smooth(vals, e, *, tolerance, max_iters):
    """Search then refine the program with exponent e (0 for the log program)."""
    for v in vals:
        if isinstance(v, Leontief):
            raise UnsupportedValuation(
                "Leontief valuations have no gradient; use solve_leontief"
            )
    X0, it1 = _ellipsoid_phase(vals, e, tolerance, max_iters)
    X, q, it2 = _kkt_refine(vals, e, X0)
    return X, q, it1 + it2


def solve_ces(
    instance: Instance,
    *,
    tolerance: float = 1e-8,
    max_iters: int = 100_000,
) -> SolveResult:
    """Maximize (1/rho) sum_i v_i(x_i)**rho over the allocation polytope.

    Deterministic: identical inputs produce identical results.  Raises
    DidNotConverge (carrying the best iterate) when the final first-order
    residual exceeds `tolerance`.
    """
    if tolerance <= 0 or not np.isfinite(tolerance):
        raise BadParameter("tolerance must be positive")
    if max_iters < 1:
        raise BadParameter("max_iters must be at least 1")
    vals = instance.valuations
    X, q, iters = _solve_smooth(
        vals, instance.rho, tolerance=tolerance, max_iters=max_iters
    )
    residual = kkt_residual(vals, instance.rho, X, q)
    values = np.array([v.value(X[i]) for i, v in enumerate(vals)])
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
    M, _ = _scaled_marginals(instance.valuations, X, instance.rho)
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
    """All nonnegative integer vectors of length `parts` summing to `total`."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    blocks = []
    for first in range(total + 1):
        rest = _compositions(total - first, parts - 1)
        lead = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([lead, rest]))
    return np.vstack(blocks)


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
            vi = v.values_batch(X[:, i, :])
            if rho < 0:
                with np.errstate(divide="ignore"):
                    obj += np.where(vi > 0, vi, np.nan) ** rho
            else:
                obj += vi**rho
        if rho < 0:
            obj = np.where(np.isnan(obj), -np.inf, obj / rho)
        else:
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


def _leontief_objective(alpha, rho):
    a = np.maximum(alpha, 0.0)
    if rho == 1.0:
        return float(a.sum())
    return float((a**rho).sum() / rho)


def _leontief_newton(W, rho, s, alpha_init, binding_init, *, max_rounds=12):
    """Active-set Newton for: max (1/rho) sum alpha**rho, W^T alpha <= s.

    Returns (alpha, binding_mask, q, objective, iterations).  The stationarity
    condition is alpha_i**(rho-1) = sum_j q_j w_ij with one-sided slack at
    alpha_i = 0 (possible only at rho = 1, where the objective is linear).
    """
    n, m = W.shape
    binding = binding_init.copy()
    if rho == 1.0:
        act = alpha_init > 1e-9
        if not act.any():
            act[int(np.argmax(alpha_init))] = True
    else:
        act = np.ones(n, dtype=bool)
    alpha = np.maximum(alpha_init, 1e-9 if rho < 1.0 else 0.0)
    q = np.zeros(m)
    its = 0
    for _ in range(max_rounds):
        B = np.flatnonzero(binding)
        A = np.flatnonzero(act)
        if B.shape[0] == 0:
            # nothing binds: only possible when supply is effectively free
            break
        Wab = W[np.ix_(A, B)]
        a = np.maximum(alpha[A], 1e-12)
        qb = q[B] if q[B].any() else np.maximum(
            np.linalg.lstsq(Wab, a ** (rho - 1.0), rcond=None)[0], 0.0
        )
        z = np.concatenate([a, qb])
        nA, nB = A.shape[0], B.shape[0]

        def F(zz):
            aa = np.maximum(zz[:nA], 1e-13)
            qq = zz[nA:]
            if rho == 1.0:
                stat = 1.0 - Wab @ qq
            else:
                stat = aa ** (rho - 1.0) - Wab @ qq
            full = np.zeros(n)
            full[A] = aa
            clear = W[:, B].T @ full - s[B]
            return np.concatenate([stat, clear])

        Fz = F(z)
        for _ in range(40):
            its += 1
            if np.abs(Fz).max() <= 1e-13 * max(1.0, float(np.abs(z[nA:]).max())):
                break
            aa = np.maximum(z[:nA], 1e-13)
            J = np.zeros((nA + nB, nA + nB))
            if rho < 1.0:
                J[:nA, :nA] = np.diag((rho - 1.0) * aa ** (rho - 2.0))
            J[:nA, nA:] = -Wab
            J[nA:, :nA] = Wab.T
            dz, *_ = np.linalg.lstsq(J, -Fz, rcond=None)
            da = dz[:nA]
            t = 1.0
            shrink = da < 0
            if shrink.any():
                t = min(1.0, float(np.min(aa[shrink] / -da[shrink])) * 0.999999)
            norm0 = float(np.linalg.norm(Fz))
            accepted = False
            for _ in range(14):
                z_new = z + t * dz
                F_new = F(z_new)
                if float(np.linalg.norm(F_new)) <= (1.0 - 1e-4 * t) * norm0:
                    z, Fz = z_new, F_new
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break
        alpha = np.zeros(n)
        alpha[A] = np.maximum(z[:nA], 0.0)
        q = np.zeros(m)
        q[B] = z[nA:]
        usage = W.T @ alpha
        changed = False
        # goods whose multipliers went negative stop binding
        for j in B[q[B] < -1e-10]:
            binding[j] = False
            changed = True
        # violated goods start binding
        for j in np.flatnonzero(~binding & (usage > s + 1e-10)):
            binding[j] = True
            changed = True
        if rho == 1.0:
            margin = 1.0 - W @ np.maximum(q, 0.0)
            for i in A[(alpha[A] < 1e-9) & (margin[A] < -1e-9)]:
                act[i] = False
                changed = True
            for i in np.flatnonzero(~act & (margin > 1e-9)):
                act[i] = True
                changed = True
        if not changed:
            break
    return alpha, binding, np.maximum(q, 0.0), _leontief_objective(alpha, rho), its


def solve_leontief(
    instance: Instance, *, tolerance: float = 1e-8, max_iters: int = 100_000
) -> LeontiefResult:
    """Welfare optimum when every agent has a Leontief (min-ratio) valuation.

    Works in the attained-level variables alpha_i (x_ij = w_ij * alpha_i is
    then the minimal bundle reaching alpha_i): maximize (1/rho) sum
    alpha_i**rho subject to W^T alpha <= 1.  The supply multipliers are
    the KKT duals of the supply bounds from the active-set Newton solve, so
    each agent with alpha_i > 0 pays exactly rho * alpha_i under the
    induced rule.  Where the duals are not unique (at rho = 1, when more
    goods bind than agents have alpha_i > 0) the multipliers are the
    least-squares solution the Newton steps reach on the binding set,
    clipped at 0.
    """
    vals = instance.valuations
    for v in vals:
        if not isinstance(v, Leontief):
            raise NotLeontief("solve_leontief requires Leontief valuations only")
    n, m = instance.n, instance.m
    rho = instance.rho
    W = np.stack([v.weights for v in vals])
    s = np.ones(m)

    # box bound on alpha: each agent alone can reach at most min_j s_j / w_ij
    with np.errstate(divide="ignore"):
        ratios = np.where(W > 0, s[None, :] / np.where(W > 0, W, 1.0), np.inf)
    cap = ratios.min(axis=1)

    def separation(z):
        neg = z < -1e-12
        if neg.any():
            a = np.zeros(n)
            a[int(np.flatnonzero(neg)[0])] = -1.0
            return a
        usage = W.T @ z
        over = usage > s + 1e-12
        if over.any():
            return W[:, int(np.flatnonzero(over)[0])].copy()
        return None

    def objective(z):
        a = np.maximum(z, 0.0)
        if rho < 1.0 and a.min() < VALUE_FLOOR:
            f = _SURROGATE
        else:
            f = -_leontief_objective(a, rho)
        g = -np.maximum(a, _GRAD_POINT_FLOOR) ** (rho - 1.0)
        return f, g

    best, _, it1 = ellipsoid_minimize(
        objective,
        separation,
        cap / 2.0,
        radius=float(np.linalg.norm(cap)),
        tolerance=tolerance,
        max_iters=max_iters,
        stall_window=50 * n,
    )
    if best is None:
        best = cap / 4.0
    alpha0 = np.maximum(best, 0.0)
    usage = W.T @ alpha0
    binding0 = usage > s - 1e-3 * np.maximum(1.0, s)
    if not binding0.any():
        binding0[int(np.argmax(usage - s))] = True
    alpha, binding, q, objective_val, it2 = _leontief_newton(
        W, rho, s, alpha0, binding0
    )

    # the stationarity residual at the Newton duals decides convergence
    res = 0.0
    margin = (
        1.0 - W @ q
        if rho == 1.0
        else np.maximum(alpha, 1e-300) ** (rho - 1.0) - W @ q
    )
    pos = alpha > 0
    if pos.any():
        res = float(np.abs(margin[pos]).max())
    if (~pos).any():
        res = max(res, float(np.maximum(margin[~pos], 0.0).max()))
    usage = W.T @ alpha
    res = max(res, float(np.maximum(usage - s, 0.0).max()))
    if binding.any():
        res = max(res, float(np.abs(usage[binding] - s[binding]).max()))

    X = W * alpha[:, None]
    lam = np.where(X > 0, q[None, :], 0.0)
    result = LeontiefResult(
        allocation=X,
        alphas=alpha,
        multipliers=q,
        duals=lam,
        objective=objective_val,
        iterations=it1 + it2,
    )
    if not np.isfinite(res) or res > max(tolerance, 1e-9):
        raise DidNotConverge(
            f"Leontief first-order residual {res:.3e} above tolerance", result=result
        )
    return result
