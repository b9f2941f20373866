"""Convex pricing rules and equilibrium certification.

A welfare optimum together with its supply multipliers q induces the pricing
rule p(x) = rho * r**((rho-1)/rho) * (sum_j q_j x_j)**(1/rho), which charges
each agent exactly rho * r * v_i(x_i) and makes the optimal allocation a
market equilibrium: every agent's bundle maximizes v_i(x) - p(x), and priced
goods clear.  This module builds the rule, measures how far an (allocation,
rule) pair is from equilibrium, converts a certified equilibrium into a
budget (Fisher) market, and runs the weighted lower-curvature cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, DimensionMismatch, InconsistentMultipliers, NotEquilibrium
from .jsonio import to_plain
from .solver import (
    Instance,
    _stationarity_residual,
    as_allocation,
    extract_multipliers,
)
from .valuations import Valuation, ValuationStack, as_bundle

DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class PricingRule:
    """p(x) = rho * degree**((rho-1)/rho) * (q . x)**(1/rho).

    Convex and nondecreasing coordinatewise for rho in (0, 1]; exactly the
    linear rule q . x at rho = 1.  Zero bundles always price to zero.
    """

    q: np.ndarray
    rho: float
    degree: float

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float)).copy()
        if q.ndim != 1:
            raise DimensionMismatch("q must be a vector")
        if not np.all(np.isfinite(q)) or np.any(q < 0):
            raise BadParameter("price coefficients must be finite and nonnegative")
        if not (0.0 < self.rho <= 1.0):
            raise BadParameter(f"pricing requires rho in (0, 1], got {self.rho}")
        if not (0.0 < self.degree <= 1.0):
            raise BadParameter(f"pricing requires degree in (0, 1], got {self.degree}")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "degree", float(self.degree))

    @property
    def m(self) -> int:
        return self.q.shape[0]

    @property
    def scale(self) -> float:
        return self.rho * self.degree ** ((self.rho - 1.0) / self.rho)

    def price(self, bundle) -> float:
        return float(self.price_many(as_bundle(bundle, self.m)[None])[0])

    def price_many(self, bundles) -> np.ndarray:
        Y = np.asarray(bundles, dtype=float)
        s = Y @ self.q
        return self.scale * s ** (1.0 / self.rho)

    def marginal(self, bundle) -> np.ndarray:
        """Gradient of the price at `bundle`; finite everywhere on the orthant."""
        x = as_bundle(bundle, self.m)
        s = float(self.q @ x)
        # 0**0 = 1 at rho = 1 gives the constant linear marginal
        return (
            self.degree ** ((self.rho - 1.0) / self.rho)
            * self.q
            * s ** ((1.0 - self.rho) / self.rho)
        )

    def to_json(self) -> dict:
        return to_plain(self)


def make_pricing_rule(q, rho: float, degree: float) -> PricingRule:
    """Pricing rule with coefficients q for curvature rho and degree r."""
    return PricingRule(q=np.asarray(q, dtype=float), rho=rho, degree=degree)


@dataclass(frozen=True)
class Certificate:
    """Residuals of the equilibrium conditions at a given (x, rule) pair.

    stationarity: worst violation of q_j >= v_i**(rho-1) dv_i/dx_ij
        (equality required on held coordinates)
    clearing: worst |1 - sum_i x_ij| over goods with q_j > 0
    payment_ratio: worst |p(x_i) - rho*r*v_i(x_i)|
    waived: coordinates (i, j) where the valuation's partial diverges at a
        zero holding of an agent that holds none of its valued goods, at
        rho = 1 and degree 1.  The coordinate check is replaced by the
        agent-level one that no bundle is worth more than it costs, and the
        coordinate is recorded.
    """

    stationarity: float
    clearing: float
    payment_ratio: float
    tolerance: float = DEFAULT_TOL
    waived: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return bool(
            self.stationarity <= self.tolerance
            and self.clearing <= self.tolerance
            and self.payment_ratio <= self.tolerance
        )

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.clearing, self.payment_ratio)

    def to_json(self) -> dict:
        return {
            "stationarity": float(self.stationarity),
            "clearing": float(self.clearing),
            "payment_ratio": float(self.payment_ratio),
            "pass": self.passed,
            "waived": [[int(i), int(j)] for i, j in self.waived],
        }


def demand_residual(rule: PricingRule, v: Valuation, bundle) -> float:
    """How far `bundle` is from maximizing v(x) - p(x) under the rule.

    First-order form: the valuation marginal may not exceed the price
    marginal anywhere, and must match it on held coordinates.  Zero is
    membership in the demand set (v concave, p convex).  A valuation partial
    that diverges at a zero holding makes the residual inf, under the
    certificate's one exception: under a linear rule (rho = 1) an agent of
    degree 1 holding none of its valued goods is measured by its best value
    per unit cost minus 1.
    """
    x = as_bundle(bundle, rule.m)
    if v.m != rule.m:
        raise DimensionMismatch("valuation and rule cover different goods")
    res, waived = _stationarity_residual(
        ValuationStack((v,)), x[None, :], rule.marginal(x), 1.0
    )
    if waived and rule.rho != 1.0:
        # the value-per-cost bound decides demand only at linear prices
        return float("inf")
    return res


def we_certificate(
    instance: Instance, allocation, rule: PricingRule, tolerance: float = DEFAULT_TOL
) -> Certificate:
    """Certify (allocation, rule) as a market equilibrium for the instance.

    Checks the three conditions the supporting-price construction
    guarantees: multiplier stationarity, clearing of priced goods, and the
    payment identity p(x_i) = rho * r * v_i(x_i).  Failures are reported in
    the certificate, never raised.
    """
    X = as_allocation(allocation, instance.n, instance.m)
    if rule.m != instance.m:
        raise DimensionMismatch("rule and instance cover different goods")
    q = rule.q
    stack = instance._stack
    stat, waived = _stationarity_residual(stack, X, q, instance.rho)

    priced = q > 0
    clearing = 0.0
    if priced.any():
        clearing = float(np.abs(1.0 - X[:, priced].sum(axis=0)).max())

    target = instance.rho * instance.degree
    payment = np.abs(rule.price_many(X) - target * stack.values(X)).max()

    return Certificate(
        stationarity=stat,
        clearing=clearing,
        payment_ratio=float(payment),
        tolerance=tolerance,
        waived=tuple(waived),
    )


def equilibrium_rule(instance: Instance, allocation) -> PricingRule:
    """Pricing rule induced by an (approximately) optimal allocation."""
    q = extract_multipliers(instance, allocation)
    return make_pricing_rule(q, instance.rho, instance.degree)


@dataclass(frozen=True)
class FisherBudgets:
    """Per-agent budgets B_i = p(x_i) of the equivalent budget market."""

    budgets: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.budgets, dtype=float)).copy()
        b.flags.writeable = False
        object.__setattr__(self, "budgets", b)

    def to_json(self) -> dict:
        return to_plain(self)


def to_fisher(
    instance: Instance, allocation, rule: PricingRule, tolerance: float = DEFAULT_TOL
):
    """Convert a certified equilibrium into budgets and verify them.

    Budgets are the equilibrium payments B_i = p(x_i).  The price rises
    with q . x, so agent i's budget set {p(x) <= B_i} is the whole set
    {x >= 0 : q . x <= q . x_i}, and the verification is exact over it:
    fisher_pass says no agent can afford a bundle worth more than its own
    (within 1e-6).  Returns (FisherBudgets, fisher_pass).

    Raises NotEquilibrium when the input pair fails certification.
    """
    _require_certified(we_certificate(instance, allocation, rule, tolerance))
    return _fisher_check(instance, np.asarray(allocation, dtype=float), rule)


def _require_certified(cert):
    """The one NotEquilibrium gate: raise unless the certificate passed.

    we_certificate validated the allocation, so callers past the gate read
    it with np.asarray and validate it no more.
    """
    if not cert.passed:
        raise NotEquilibrium(
            f"certificate residual {cert.max_residual:.3e} "
            f"exceeds tolerance {cert.tolerance:.1e}"
        )


def _fisher_check(instance, X, rule):
    """to_fisher's budgets and budget-optimality check on a certified pair.

    By homogeneity the best value at cost beta_i = q . x_i is
    u_i * beta_i**r, u_i the agent's best value at unit cost.
    """
    stack = instance._stack
    u = np.array([v._value_per_cost(rule.q) for v in stack.valuations])
    with np.errstate(invalid="ignore"):
        # a free valued good makes any budget, even zero, unbounded
        best = np.where(np.isinf(u), np.inf, u * (X @ rule.q) ** stack.degrees)
    fisher_pass = bool(np.all(best <= stack.values(X) + 1e-6))
    return FisherBudgets(budgets=rule.price_many(X)), fisher_pass


def weighted_shift_certificate(
    instance: Instance, allocation, tolerance: float = DEFAULT_TOL
) -> bool:
    """Check the optimum also solves the value-weighted lower-curvature program.

    With weights a_i = v_i(x_i), the same allocation and multipliers must
    satisfy the first-order conditions of the weighted program at curvature
    rho - 1 (the weighted log objective when rho = 1), rho the instance's.
    Raises NotEquilibrium when the unweighted certificate fails to begin with.
    """
    try:
        rule = equilibrium_rule(instance, allocation)
    except InconsistentMultipliers as exc:
        raise NotEquilibrium(f"allocation is not an optimum: {exc}") from exc
    _require_certified(we_certificate(instance, allocation, rule, tolerance))
    X = np.asarray(allocation, dtype=float)
    stack = instance._stack
    res, _ = _stationarity_residual(
        stack, X, rule.q, instance.rho - 1.0, weights=stack.values(X)
    )
    return res <= tolerance
