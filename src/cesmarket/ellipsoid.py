"""Central-cut ellipsoid minimization over a packing polytope.

Generic engine used by both solvers: minimize a convex function over
{z >= 0, A^T z <= 1} for a nonnegative (d, m) packing matrix A, given a
value-and-subgradient callback.  The start, the starting ball and the stall
window all follow from A.  Deterministic: no randomness anywhere.
"""

from __future__ import annotations

import numpy as np

_CUT_SLACK = 1e-12        # constraint violations up to this count as feasible


def _violated_cut(A, z):
    """Normal of the first constraint z violates: -e_k for z_k < 0, else A[:, j]."""
    neg = z < -_CUT_SLACK
    k = int(np.argmax(neg))          # the first True, or 0 when none is
    if neg[k]:
        a = np.zeros(z.shape[0])
        a[k] = -1.0
        return a
    over = A.T @ z > 1.0 + _CUT_SLACK
    j = int(np.argmax(over))
    if over[j]:
        return A[:, j].copy()
    return None


def ellipsoid_minimize(objective, A, *, tolerance: float, max_iters: int):
    """Minimize objective over {z >= 0, A^T z <= 1}.

    objective(z) -> (f, g): f is the tracking value (may be a large
        surrogate for points the caller refuses to rank), g a (sub)gradient
        used as the cut direction.
    A: (d, m) nonnegative, every row with a positive entry, so that z_k is
        bounded by cap_k = min_j 1 / A_kj.

    The run starts at cap / (2 max_j (A^T cap)_j), which uses at most half
    of every constraint, inside the ball of radius |cap| that holds the box
    [0, cap] and so the polytope.  An infeasible center is cut by its first
    negative coordinate (-e_k) or else its first violated column (A[:, j]).

    Stops when max_iters is hit, when the best feasible tracking value has
    not improved by at least `tolerance` over 50 * d consecutive feasible
    evaluations (infeasible centers do not age the window; long corridors
    of feasibility cuts would otherwise end runs early), or when the
    ellipsoid degenerates numerically.

    Returns (best_z, best_f, iterations); best_z is the start until a
    feasible center beats it.
    """
    d = A.shape[0]
    with np.errstate(divide="ignore"):
        cap = (1.0 / A).min(axis=1)
    c = cap / (2.0 * (A.T @ cap).max())
    P = np.eye(d) * float(np.linalg.norm(cap)) ** 2
    stall_window = 50 * d
    best_x = c.copy()
    best_f = np.inf
    last_progress = 0
    feasible_evals = 0
    k = 0
    while k < max_iters:
        k += 1
        g = _violated_cut(A, c)
        if g is None:
            feasible_evals += 1
            f, g = objective(c)
            if f < best_f:
                if best_f - f >= tolerance:
                    last_progress = feasible_evals
                best_f = f
                best_x = c.copy()
            if feasible_evals - last_progress >= stall_window:
                break
        # long runs can overflow P; once it is not finite, gPg is not
        # either and the run stops as degenerate, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            gPg = float(g @ P @ g)
            if not np.isfinite(gPg) or gPg <= 0.0:
                break
            if d == 1:
                # Degenerate dimension: the ellipsoid is an interval and the
                # cut halves it toward the feasible/descent side.
                half = np.sqrt(P[0, 0])
                c = c - 0.5 * half * np.sign(g)
                P = P / 4.0
                continue
            gt = (P @ g) / np.sqrt(gPg)
            c = c - gt / (d + 1.0)
            # the rank-one update keeps a symmetric P exactly symmetric
            P = (d * d / (d * d - 1.0)) * (P - (2.0 / (d + 1.0)) * np.outer(gt, gt))
    return best_x, best_f, k
