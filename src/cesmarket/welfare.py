"""CES welfare aggregates and their gradient-only evaluation forms.

The central objects are the welfare function

    Phi(rho, v) = (sum_i a_i * v_i**rho) ** (1/rho)

for rho in (-inf, 0) union (0, 1], and the scalarized objective

    (1/rho) * sum_i a_i * v_i**rho

which shares its maximizers and is concave in the allocation.  rho = 1 is
the utilitarian sum, rho -> -inf approaches max-min, and the rho -> 0
limit (Nash welfare) is served by a separate logarithmic objective, never
by taking a numeric limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, DimensionMismatch, DomainError


@dataclass(frozen=True)
class WelfareParams:
    """Curvature rho and optional per-agent multipliers a (default all ones)."""

    rho: float
    multipliers: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.rho) or self.rho == 0.0 or self.rho > 1.0:
            raise BadParameter(
                f"rho must lie in (-inf, 0) or (0, 1], got {self.rho}"
            )
        if self.multipliers is not None:
            a = np.atleast_1d(np.asarray(self.multipliers, dtype=float))
            if a.ndim != 1:
                raise DimensionMismatch("multipliers must be a vector")
            if not np.all(np.isfinite(a)) or np.any(a < 0) or not np.any(a > 0):
                raise BadParameter(
                    "multipliers must be finite, nonnegative, not all zero"
                )
            a.flags.writeable = False
            object.__setattr__(self, "multipliers", a)

    def weights_for(self, n: int) -> np.ndarray:
        if self.multipliers is None:
            return np.ones(n)
        if self.multipliers.shape[0] != n:
            raise DimensionMismatch(
                f"{self.multipliers.shape[0]} multipliers for {n} values"
            )
        return self.multipliers


def _check_values(values, rho: float) -> np.ndarray:
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch("values must be a vector")
    if v.shape[0] == 0:
        raise DimensionMismatch("values must be nonempty")
    if not np.all(np.isfinite(v)):
        raise DomainError("values must be finite")
    if np.any(v < 0):
        raise DomainError("values must be nonnegative")
    if rho < 0 and np.any(v == 0.0):
        raise DomainError("rho < 0 requires strictly positive values")
    return v


def ces_welfare(params: WelfareParams, values) -> float:
    """Phi(rho, v): homogeneous of degree 1 in v."""
    v = _check_values(values, params.rho)
    a = params.weights_for(v.shape[0])
    rho = params.rho
    if rho == 1.0:
        return float(a @ v)
    return float((a @ v**rho) ** (1.0 / rho))


def ces_objective(params: WelfareParams, values) -> float:
    """(1/rho) * sum_i a_i v_i**rho: the scalarization actually optimized."""
    v = _check_values(values, params.rho)
    a = params.weights_for(v.shape[0])
    return float(a @ v**params.rho / params.rho)


def nash_objective(multipliers, values) -> float:
    """sum_i a_i * log(v_i): the rho -> 0 (Nash) objective, own code path."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.ndim != 1 or v.shape[0] == 0:
        raise DimensionMismatch("values must be a nonempty vector")
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        raise DomainError("Nash welfare requires strictly positive values")
    a = np.ones(v.shape[0]) if multipliers is None else np.asarray(multipliers, float)
    if a.shape != v.shape:
        raise DimensionMismatch("one multiplier per value required")
    return float(a @ np.log(v))


def scaled_gradient(grads, values, e, weights=None):
    """a_i * v_i**(e-1) * grads_ij: the allocation gradient of the objective.

    (1/e) * sum_i a_i v_i**e and, at e = 0, sum_i a_i log v_i share this
    form, because 1/v = v**(0-1).  It is the one place the first-order
    scaling is written.  No validation: a zero value with e < 1 gives an
    infinite factor.
    """
    fac = values ** (e - 1.0)
    if weights is not None:
        fac = weights * fac
    return fac[:, None] * grads


def objective_and_gradient_via_val_gradients(instance, x, multipliers=None):
    """Objective and its allocation gradient from valuation gradients alone.

    Uses the homogeneity identity v_i(x_i) = (1/r) * x_i . grad v_i(x_i) to
    reconstruct each value from its gradient, so the whole computation needs
    only first-order valuation queries:

        objective = (1/rho) * sum_i a_i * ((1/r) x_i . g_i) ** rho
        d objective / d x_ij = a_i * g_ij * ((1/r) x_i . g_i) ** (rho - 1)

    Gradient errors (Leontief, divergent boundary partials) propagate.
    Raises DomainError when a reconstructed value is zero with rho < 1.
    """
    rho = instance.rho
    vals = instance.valuations
    n, m = len(vals), instance.m
    X = np.asarray(x, dtype=float).reshape(n, m)
    a = np.ones(n) if multipliers is None else np.asarray(multipliers, float)
    if a.shape != (n,):
        raise DimensionMismatch("one multiplier per agent required")
    r = instance.degree

    grads = np.empty((n, m))
    for i, v in enumerate(vals):
        grads[i] = v.gradient(X[i])
    implied = (X * grads).sum(axis=1) / r
    if rho < 1.0 and np.any(implied <= 0.0):
        raise DomainError(
            "gradient-only objective undefined: an implied value is zero with rho < 1"
        )
    obj = float(a @ implied**rho / rho)
    return obj, scaled_gradient(grads, implied, rho, a)
