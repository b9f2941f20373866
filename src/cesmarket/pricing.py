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
from .solver import (
    Instance,
    _stationarity_residual,
    as_allocation,
    extract_multipliers,
)
from .valuations import Valuation, as_bundle

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

    @property
    def m(self) -> int:
        return self.q.shape[0]

    @property
    def scale(self) -> float:
        return self.rho * self.degree ** ((self.rho - 1.0) / self.rho)

    def price(self, bundle) -> float:
        x = as_bundle(bundle, self.m)
        s = float(self.q @ x)
        return self.scale * s ** (1.0 / self.rho)

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
        return {
            "q": [float(v) for v in self.q],
            "rho": float(self.rho),
            "degree": float(self.degree),
        }


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
    membership in the demand set (v concave, p convex).  A divergent
    valuation partial at a held-zero coordinate is waived when the price
    marginal there is finite, matching the certificate convention.
    """
    x = as_bundle(bundle, rule.m)
    if v.m != rule.m:
        raise DimensionMismatch("valuation and rule cover different goods")
    g, ok = v.partials(x)
    pm = rule.marginal(x)
    res = 0.0
    for j in range(rule.m):
        if not ok[j]:
            if x[j] == 0.0 and np.isfinite(pm[j]):
                continue
            return float("inf")
        gap = g[j] - pm[j]
        res = max(res, abs(gap) if x[j] > 0.0 else max(gap, 0.0))
    return float(res)


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
    stat, waived = _stationarity_residual(instance.valuations, X, q, instance.rho)

    priced = q > 0
    clearing = 0.0
    if priced.any():
        clearing = float(np.abs(1.0 - X[:, priced].sum(axis=0)).max())

    target = instance.rho * instance.degree
    payment = 0.0
    for i, v in enumerate(instance.valuations):
        payment = max(payment, abs(rule.price(X[i]) - target * v.value(X[i])))

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
        return {"budgets": [float(b) for b in self.budgets]}


def _affordable_best(rule, v, budget, candidates):
    """Largest valuation among candidate bundles costing at most `budget`."""
    prices = rule.price_many(candidates)
    ok = prices <= budget + 1e-9
    if not ok.any():
        return -np.inf
    vals = v.values_batch(candidates[ok])
    return float(vals.max())


def _fisher_candidates(m, x_i):
    """Deterministic probe bundles for the budget-optimality scan."""
    if m == 1:
        return np.linspace(0.0, 1.0, 2001)[:, None]
    if m == 2:
        axis = np.linspace(0.0, 1.0, 161)
        A, B = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([A.ravel(), B.ravel()])
    # m >= 3: coordinate line scans plus pairwise transfers around x_i
    ts = np.linspace(0.0, 1.0, 101)
    out = [x_i[None, :]]
    for j in range(m):
        block = np.repeat(x_i[None, :], ts.shape[0], axis=0)
        block[:, j] = ts
        out.append(block)
    deltas = np.linspace(0.0, 1.0, 51)
    for j in range(m):
        for k in range(m):
            if j == k:
                continue
            d = deltas[deltas <= x_i[k]]
            block = np.repeat(x_i[None, :], d.shape[0], axis=0)
            block[:, j] += d
            block[:, k] -= d
            out.append(np.clip(block, 0.0, 1.0))
    return np.vstack(out)


def to_fisher(
    instance: Instance, allocation, rule: PricingRule, tolerance: float = DEFAULT_TOL
):
    """Convert a certified equilibrium into budgets and verify them.

    Budgets are the equilibrium payments B_i = p(x_i).  The verification
    scans affordable bundles (full grid up to two goods, coordinate and
    pairwise-transfer scans above that) and checks no agent can afford a
    strictly better bundle.  Returns (FisherBudgets, fisher_pass).

    Raises NotEquilibrium when the input pair fails certification.
    """
    X = as_allocation(allocation, instance.n, instance.m)
    cert = we_certificate(instance, X, rule, tolerance)
    if not cert.passed:
        raise NotEquilibrium(
            f"cannot convert: certificate residual {cert.max_residual:.3e} "
            f"exceeds tolerance {tolerance:.1e}"
        )
    budgets = np.array([rule.price(X[i]) for i in range(instance.n)])
    fisher_pass = True
    for i, v in enumerate(instance.valuations):
        candidates = _fisher_candidates(instance.m, X[i])
        best = _affordable_best(rule, v, budgets[i], candidates)
        if best > v.value(X[i]) + 1e-6:
            fisher_pass = False
            break
    return FisherBudgets(budgets=budgets), fisher_pass


def weighted_shift_certificate(
    instance: Instance, allocation, rho: float | None = None, tolerance: float = DEFAULT_TOL
) -> bool:
    """Check the optimum also solves the value-weighted lower-curvature program.

    With weights a_i = v_i(x_i), the same allocation and multipliers must
    satisfy the first-order conditions of the weighted program at curvature
    rho - 1 (the weighted log objective when rho = 1).  Raises
    NotEquilibrium when the unweighted certificate fails to begin with.
    """
    X = as_allocation(allocation, instance.n, instance.m)
    if rho is None:
        rho = instance.rho
    try:
        q = extract_multipliers(instance, X)
    except InconsistentMultipliers as exc:
        raise NotEquilibrium(f"allocation is not an optimum: {exc}") from exc
    rule = make_pricing_rule(q, rho, instance.degree)
    cert = we_certificate(instance, X, rule, tolerance)
    if not cert.passed:
        raise NotEquilibrium(
            f"certificate residual {cert.max_residual:.3e} exceeds {tolerance:.1e}"
        )
    weights = instance.values_at(X)
    res, _ = _stationarity_residual(
        instance.valuations, X, q, rho - 1.0, weights=weights
    )
    return res <= tolerance
