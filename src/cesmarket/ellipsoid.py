"""Central-cut ellipsoid minimization with a separation oracle.

Generic engine used by the allocation solvers: minimize a convex function
over a polytope given only (a) a feasibility/separation callback and (b) a
value-and-subgradient callback.  Deterministic: no randomness anywhere.
"""

from __future__ import annotations

import numpy as np


def ellipsoid_minimize(
    objective,
    separation,
    center: np.ndarray,
    radius: float,
    *,
    tolerance: float,
    max_iters: int,
    stall_window: int,
):
    """Minimize objective over the feasible set inside a starting ball.

    objective(x) -> (f, g): f is the tracking value (may be a large
        surrogate for points the caller refuses to rank), g a (sub)gradient
        used as the cut direction.
    separation(x) -> None if x is feasible, else the normal vector a of a
        violated constraint a . y <= b (so the cut keeps {y : a.y <= a.x}).

    Stops when max_iters is hit, when the best feasible tracking value has
    not improved by at least `tolerance` over `stall_window` consecutive
    feasible evaluations (infeasible centers do not age the window; long
    corridors of feasibility cuts would otherwise end runs early), or when
    the ellipsoid degenerates numerically.

    Returns (best_x, best_f, iterations).  best_x is None when no feasible
    center was ever seen (cannot happen if `center` itself is feasible).
    """
    d = center.shape[0]
    c = center.astype(float).copy()
    P = np.eye(d) * float(radius) ** 2
    best_x = None
    best_f = np.inf
    last_progress = 0
    feasible_evals = 0
    k = 0
    while k < max_iters:
        k += 1
        a = separation(c)
        if a is None:
            feasible_evals += 1
            f, g = objective(c)
            if f < best_f:
                if best_f - f >= tolerance:
                    last_progress = feasible_evals
                best_f = f
                best_x = c.copy()
            if feasible_evals - last_progress >= stall_window:
                break
        else:
            g = a
        gPg = float(g @ P @ g)
        if not np.isfinite(gPg) or gPg <= 0.0:
            break
        if d == 1:
            # Degenerate dimension: the ellipsoid is an interval and the cut
            # halves it toward the feasible/descent side.
            half = np.sqrt(P[0, 0])
            c = c - 0.5 * half * np.sign(g)
            P = P / 4.0
            continue
        gt = (P @ g) / np.sqrt(gPg)
        c = c - gt / (d + 1.0)
        P = (d * d / (d * d - 1.0)) * (P - (2.0 / (d + 1.0)) * np.outer(gt, gt))
        P = 0.5 * (P + P.T)
    return best_x, best_f, k
