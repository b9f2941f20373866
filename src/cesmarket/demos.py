"""Executable boundary demonstrations.

Four small markets show where convex supporting prices stop working and one
shows where they are not needed:

  - linear_gap_demo: linear prices leave an n**(1/rho - 1) welfare gap
  - exchange_violation_demo: three optima that no pricing rule of the
    required shape can support (mixed degrees, negative curvature, and a
    differentiable rule at the proportional-fairness point); the
    mixed-degree optimum is the smooth solver's, certified at first-order
    residual 1e-12
  - nash_threshold_pricing: the proportional-fairness optimum supported by
    per-good thresholds with unit budgets
  - first_welfare_check: linear-price equilibria maximize the plain sum of
    values, verified against the brute-force oracle
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, BadRho, DidNotConverge, NotEquilibrium
from .jsonio import to_plain
from .pricing import demand_residual, make_pricing_rule
from .solver import (
    _ORACLE_POINTS,
    Instance,
    _solve_smooth,
    as_allocation,
    closed_form_single_good,
    grid_oracle,
)
from .valuations import Linear, Power, ValuationStack


@dataclass(frozen=True)
class GapReport:
    """Welfare attained by the best linear-price equilibrium vs the optimum."""

    n: int
    eps: float
    rho: float
    we_welfare: float
    opt_welfare: float
    ratio: float
    bound: float

    def to_json(self) -> dict:
        return to_plain(self)

    def describe(self) -> str:
        return (
            f"One good, {self.n} linear agents with weights "
            f"(1+{self.eps:g}, 1, ..., 1), curvature rho={self.rho:g}.\n"
            f"Linear prices force winner-take-all: welfare {self.we_welfare:.6g}.\n"
            f"The welfare optimum spreads the good and reaches "
            f"{self.opt_welfare:.6g}.\n"
            f"Ratio {self.ratio:.6g} respects the cap "
            f"(1+eps)/n^(1/rho-1) = {self.bound:.6g}."
        )


def linear_gap_demo(n: int, eps: float, rho: float) -> GapReport:
    """Welfare lost by insisting on linear prices.

    Market: one good, one agent with weight 1 + eps, n - 1 agents with
    weight 1.  Under any linear price only maximum-weight agents buy, so
    equilibrium welfare is 1 + eps, while the curved optimum grows like
    n**(1/rho - 1).
    """
    if n < 2:
        raise BadParameter("the gap needs at least two agents")
    if not (np.isfinite(eps) and eps > 0):
        raise BadParameter("eps must be positive")
    if not (0.0 < rho <= 1.0):
        raise BadParameter(f"rho must lie in (0, 1], got {rho}")
    w = np.ones(n)
    w[0] = 1.0 + eps
    we_welfare = 1.0 + eps
    if rho == 1.0:
        opt = 1.0 + eps
    else:
        e = rho / (1.0 - rho)
        opt = float((w**e).sum()) ** ((1.0 - rho) / rho)
    bound = (1.0 + eps) / n ** (1.0 / rho - 1.0)
    return GapReport(
        n=n,
        eps=eps,
        rho=rho,
        we_welfare=we_welfare,
        opt_welfare=opt,
        ratio=we_welfare / opt,
        bound=bound,
    )


@dataclass(frozen=True)
class ViolationReport:
    """A strict witness that no pricing rule of the required shape exists.

    The inequality named in `inequality` must hold at any supported
    allocation; at the welfare optimum it fails by `margin` = rhs - lhs.
    """

    kind: str
    allocation: tuple[float, ...]
    lhs: float
    rhs: float
    margin: float
    inequality: str

    def to_json(self) -> dict:
        return to_plain(self)

    def describe(self) -> str:
        return (
            f"[{self.kind}] optimum x* = {tuple(round(a, 6) for a in self.allocation)}\n"
            f"Supported allocations need: {self.inequality}\n"
            f"Here lhs = {self.lhs:.9g} < rhs = {self.rhs:.9g}; "
            f"margin {self.margin:.9g} > 0, so no such pricing rule exists."
        )


MIXED_DEGREE = "mixed-degree"
NEGATIVE_RHO = "negative-rho"
NASH_DIFFERENTIABLE = "nash-differentiable"


def exchange_violation_demo(kind: str, rho: float | None = None) -> ViolationReport:
    """Witness an optimum that no pricing rule of the relevant class supports.

    mixed-degree (rho in (0,1)): agents v1 = x and v2 = sqrt(2x) share one
        good; agent-optimality under any common price forces
        v1(x1) - v1(x2) >= v2(x1) - v2(x2), which the welfare optimum breaks.
        The optimum comes from the smooth solver (solver._solve_smooth) and
        is certified at first-order residual 1e-12, else DidNotConverge.
    negative-rho (rho < 0): v1 = x, v2 = 2x; the optimum gives the
        low-weight agent more, so the same exchange inequality flips.
    nash-differentiable: at the proportional-fairness optimum of v1 = x,
        v2 = 2x, both agents consume 1/2, so a differentiable rule would
        need one marginal price equal to both marginal values 1 and 2.
    """
    if kind == MIXED_DEGREE:
        if rho is None:
            rho = 0.5
        if not (0.0 < rho < 1.0):
            raise BadRho(f"{kind} needs rho in (0, 1), got {rho}")
        # a bare stack: Instance rejects mixed degrees, which no rule supports
        stack = ValuationStack((Linear([1.0]), Power(math.sqrt(2.0), 0.5)))
        X, _, _, residual = _solve_smooth(stack, rho, tolerance=1e-12, max_iters=100_000)
        if not residual <= 1e-12:
            raise DidNotConverge(f"mixed-degree residual {residual:.3e} above 1e-12")
        x1, x2 = (float(x) for x in X[:, 0])
        lhs = x1 - x2
        rhs = math.sqrt(2.0 * x1) - math.sqrt(2.0 * x2)
        return ViolationReport(
            kind=kind,
            allocation=(x1, x2),
            lhs=lhs,
            rhs=rhs,
            margin=rhs - lhs,
            inequality="v1(x1) - v1(x2) >= v2(x1) - v2(x2)",
        )
    if kind == NEGATIVE_RHO:
        if rho is None:
            rho = -1.0
        if not (np.isfinite(rho) and rho < 0.0):
            raise BadRho(f"{kind} needs rho < 0, got {rho}")
        x = closed_form_single_good([1.0, 2.0], 1.0, rho)
        x1, x2 = float(x[0]), float(x[1])
        lhs = x1 - x2
        rhs = 2.0 * (x1 - x2)
        return ViolationReport(
            kind=kind,
            allocation=(x1, x2),
            lhs=lhs,
            rhs=rhs,
            margin=rhs - lhs,
            inequality="v1(x1) - v1(x2) >= v2(x1) - v2(x2)",
        )
    if kind == NASH_DIFFERENTIABLE:
        return ViolationReport(
            kind=kind,
            allocation=(0.5, 0.5),
            lhs=1.0,
            rhs=2.0,
            margin=1.0,
            inequality="p'(1/2) = v1'(1/2) and p'(1/2) = v2'(1/2)",
        )
    raise BadParameter(
        f"unknown kind {kind!r}; expected one of "
        f"{MIXED_DEGREE!r}, {NEGATIVE_RHO!r}, {NASH_DIFFERENTIABLE!r}"
    )


def _nash_solve(instance: Instance, tolerance: float = 1e-6):
    """Proportional-fairness optimum, per-good thresholds, agent spends, and
    whether every spend is the unit budget within `tolerance`.

    The log program is the exponent-0 program: its scaled marginals are
    dv_i/dx_ij / v_i.
    """
    X, q, _, residual = _solve_smooth(
        instance._stack, 0.0, tolerance=1e-8, max_iters=100_000
    )
    if residual > tolerance:
        raise DidNotConverge(
            f"threshold-pricing residual {residual:.3e} above {tolerance:.1e}"
        )
    spends = X @ q
    return X, q, spends, bool(np.all(np.abs(spends - 1.0) <= tolerance))


def nash_threshold_pricing(instance: Instance, tolerance: float = 1e-6):
    """Per-good threshold prices supporting the proportional-fairness point.

    Solves the log-welfare program, takes each good's threshold from the
    solve's multipliers (at the optimum every holder's dv_i/dx_ij / v_i
    equals q_j), and checks every agent's spend
    q . x_i equals the unit budget within `tolerance`.  Returns
    (q, budget_check).  The spend identity is q . x_i = degree, so the
    check passes exactly for degree-1 markets.
    """
    _, q, _, budget_check = _nash_solve(instance, tolerance)
    return q, budget_check


def _oracle_resolution(n: int, m: int) -> int:
    if m == 1 and n <= 3:
        return 2000
    for res in (400, 200, 100, 60, 40, 24, 16, 12, 8, 6, 4):
        if math.comb(res + n - 1, n - 1) ** m <= _ORACLE_POINTS:
            return res
    return 3


def first_welfare_check(
    instance: Instance, allocation, linear_q, tolerance: float = 1e-6
) -> bool:
    """Linear-price equilibria maximize the plain sum of values.

    Verifies the equilibrium preconditions first (each agent's bundle beats
    every alternative at prices linear_q, and priced goods clear), raising
    NotEquilibrium naming the failed part.  Then compares the total value
    against the brute-force utilitarian optimum, from grid_oracle at the
    finest resolution whose grid fits the oracle's point budget.  Raises
    TooLarge when even the coarsest grid, 3 units per good, does not fit:
    8 agents over 4 goods already have 120**4 = 207,360,000 points.
    """
    X = as_allocation(allocation, instance.n, instance.m)
    q = np.atleast_1d(np.asarray(linear_q, dtype=float))
    rule = make_pricing_rule(q, 1.0, 1.0)
    for i, v in enumerate(instance.valuations):
        res = demand_residual(rule, v, X[i])
        if res > tolerance:
            raise NotEquilibrium(
                f"agent {i}'s bundle is not optimal at the linear prices "
                f"(residual {res:.3e})"
            )
    priced = q > 0
    if priced.any():
        clear = float(np.abs(1.0 - X[:, priced].sum(axis=0)).max())
        if clear > tolerance:
            raise NotEquilibrium(f"a priced good does not clear (residual {clear:.3e})")
    total = float(sum(instance.values_at(X)))
    utilitarian = Instance(instance.valuations, 1.0)
    Y = grid_oracle(utilitarian, _oracle_resolution(instance.n, instance.m))
    best = float(sum(instance.values_at(Y)))
    return total >= best - 1e-6
