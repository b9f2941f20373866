"""Negative-result demonstrations and the linear-price welfare checks."""

import math

import numpy as np
import pytest

from cesmarket import (
    BadParameter,
    BadRho,
    CobbDouglas,
    DidNotConverge,
    Instance,
    Linear,
    NotEquilibrium,
    TooLarge,
    WelfareParams,
    ces_welfare,
    exchange_violation_demo,
    first_welfare_check,
    grid_oracle,
    linear_gap_demo,
    nash_threshold_pricing,
)
from cesmarket.demos import MIXED_DEGREE, NASH_DIFFERENTIABLE, NEGATIVE_RHO

from conftest import water_instance

# margin of the mixed-degree witness from the exact optimum at rho = 1/2:
# with eps = x1* - 1/2, margin = 4*eps/(sqrt(1+2*eps) + sqrt(1-2*eps)) - 2*eps,
# where x1* is the root of x**2 = (2*(1 - x))**3 (MIXED_EPS is its double)
MIXED_EPS = 0.13183706084293081
MIXED_MARGIN = 4 * MIXED_EPS / (
    math.sqrt(1 + 2 * MIXED_EPS) + math.sqrt(1 - 2 * MIXED_EPS)
) - 2 * MIXED_EPS


# -- welfare gap under linear prices -----------------------------------------------


def test_gap_demo_canonical_cell():
    rep = linear_gap_demo(4, 0.1, 0.5)
    assert rep.we_welfare == pytest.approx(1.1)
    assert rep.opt_welfare == pytest.approx(4.1, abs=5e-3)
    assert rep.ratio == pytest.approx(0.26829, abs=1e-4)
    assert rep.bound == pytest.approx(1.1 / 4.0)
    assert rep.ratio <= rep.bound + 1e-9


def test_gap_demo_rho_one_has_no_gap():
    rep = linear_gap_demo(4, 0.1, 1.0)
    assert rep.ratio == pytest.approx(1.0)
    assert rep.bound == pytest.approx(1.1)


def test_gap_demo_two_agents():
    rep = linear_gap_demo(2, 1.0, 0.5)
    assert rep.we_welfare == pytest.approx(2.0)
    assert rep.opt_welfare == pytest.approx(3.0)
    assert rep.ratio == pytest.approx(2.0 / 3.0)


def test_gap_demo_opt_matches_grid():
    # independent check of the closed-form optimum for n=2, eps=1, rho=0.5
    inst = Instance((Linear([2.0]), Linear([1.0])), 0.5)
    X = grid_oracle(inst, 2000)
    vals = inst.values_at(X)
    grid_opt = ces_welfare(WelfareParams(0.5), vals)
    assert linear_gap_demo(2, 1.0, 0.5).opt_welfare == pytest.approx(
        grid_opt, abs=1e-3
    )


def test_gap_demo_sweep():
    for n in (2, 4, 8):
        for eps in (0.1, 1.0):
            for rho in (0.25, 0.5, 1.0):
                rep = linear_gap_demo(n, eps, rho)
                assert rep.ratio <= rep.bound + 1e-9
                assert rep.ratio <= 1.0 + 1e-12


def test_gap_demo_guards():
    with pytest.raises(BadParameter):
        linear_gap_demo(1, 0.1, 0.5)
    with pytest.raises(BadParameter):
        linear_gap_demo(4, 0.0, 0.5)
    with pytest.raises(BadParameter):
        linear_gap_demo(4, 0.1, 1.5)


# -- impossibility witnesses ---------------------------------------------------------


def test_mixed_degree_witness():
    rep = exchange_violation_demo(MIXED_DEGREE, 0.5)
    assert rep.kind == MIXED_DEGREE
    assert rep.margin > 1e-9
    assert rep.margin == pytest.approx(MIXED_MARGIN, abs=1e-12)
    x1, x2 = rep.allocation
    assert x1 > x2
    assert x1 + x2 == pytest.approx(1.0, abs=1e-9)
    # the witness says the curved agent's gap beats the linear agent's
    assert rep.rhs > rep.lhs


def _mixed_degree_root(rho):
    """x1 with x1**(rho-1) = (2*(1 - x1))**(rho/2 - 1), bisected to adjacent doubles."""
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (rho - 1.0) * math.log(mid) > (rho / 2.0 - 1.0) * math.log(2.0 * (1.0 - mid)):
            lo = mid
        else:
            hi = mid
    return mid


@pytest.mark.parametrize("rho", [1e-6, 0.1, 0.3, 0.5, 0.9])
def test_mixed_degree_witness_is_first_order_optimal(rho):
    # the optimum equates the scaled marginals v_i**(rho-1) * v_i' of the two
    # agents: x1**(rho-1) = (2*x2)**(rho/2 - 1) with x2 = 1 - x1
    x1, x2 = exchange_violation_demo(MIXED_DEGREE, rho).allocation
    assert abs(x1 - _mixed_degree_root(rho)) <= 1e-12
    assert x1 + x2 == pytest.approx(1.0, abs=1e-12)


def test_mixed_degree_witness_raises_above_its_tolerance(monkeypatch):
    from cesmarket import demos

    def uncertified(stack, e, **kwargs):
        return np.full((2, 1), 0.5), np.zeros(1), 1, 2e-12

    monkeypatch.setattr(demos, "_solve_smooth", uncertified)
    with pytest.raises(DidNotConverge, match="mixed-degree residual 2.000e-12"):
        exchange_violation_demo(MIXED_DEGREE)


def test_mixed_degree_witness_against_grid():
    # rebuild the optimum on a fine grid and evaluate the inequality directly
    rho = 0.5
    grid = np.linspace(1e-9, 1.0 - 1e-9, 200_001)
    v1 = grid
    v2 = np.sqrt(2.0 * (1.0 - grid))
    obj = (v1**rho + v2**rho) / rho
    x1 = float(grid[np.argmax(obj)])
    x2 = 1.0 - x1
    lhs = x1 - x2
    rhs = math.sqrt(2.0 * x1) - math.sqrt(2.0 * x2)
    rep = exchange_violation_demo(MIXED_DEGREE, rho)
    assert rep.margin == pytest.approx(rhs - lhs, abs=1e-5)


def test_negative_rho_witness():
    rep = exchange_violation_demo(NEGATIVE_RHO, -1.0)
    x1, x2 = rep.allocation
    assert x1 / x2 == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert rep.margin == pytest.approx(x1 - x2, rel=1e-12)
    assert rep.margin > 1e-9


def test_negative_rho_witness_against_grid():
    grid = np.linspace(1e-6, 1.0 - 1e-6, 100_001)
    rho = -1.0
    obj = (grid**rho + (2.0 * (1.0 - grid)) ** rho) / rho
    x1 = float(grid[np.argmax(obj)])
    rep = exchange_violation_demo(NEGATIVE_RHO, rho)
    assert rep.allocation[0] == pytest.approx(x1, abs=1e-4)


def test_nash_differentiable_witness():
    rep = exchange_violation_demo(NASH_DIFFERENTIABLE)
    assert rep.allocation == (0.5, 0.5)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(2.0)
    assert rep.margin == pytest.approx(1.0)


def test_violation_rho_guards():
    with pytest.raises(BadRho):
        exchange_violation_demo(MIXED_DEGREE, -0.5)
    with pytest.raises(BadRho):
        exchange_violation_demo(MIXED_DEGREE, 1.0)
    with pytest.raises(BadRho):
        exchange_violation_demo(NEGATIVE_RHO, 0.5)
    with pytest.raises(BadParameter):
        exchange_violation_demo("unknown-kind")


def test_violation_report_shape():
    rep = exchange_violation_demo(MIXED_DEGREE, 0.5)
    blob = rep.to_json()
    assert set(blob) == {"kind", "allocation", "lhs", "rhs", "margin", "inequality"}
    assert "margin" in rep.describe() or rep.describe()


# -- Nash threshold pricing ------------------------------------------------------------


def test_nash_threshold_two_linear_agents():
    inst = Instance((Linear([1.0]), Linear([2.0])), 1.0)
    q, ok = nash_threshold_pricing(inst)
    assert ok
    assert q[0] == pytest.approx(2.0, abs=1e-6)


def test_nash_threshold_identical_agents_split_equally():
    # equal split: v_i = w/n, so q = grad/value = n regardless of the weight
    inst = Instance((Linear([3.0]), Linear([3.0]), Linear([3.0])), 1.0)
    q, ok = nash_threshold_pricing(inst)
    assert ok
    assert q[0] == pytest.approx(3.0, abs=1e-5)


def test_nash_threshold_symmetric_cobb_douglas():
    v = CobbDouglas([0.5, 0.5])
    inst = Instance((v, v), 1.0)
    q, ok = nash_threshold_pricing(inst)
    assert ok
    np.testing.assert_allclose(q, [1.0, 1.0], atol=1e-5)


def test_nash_threshold_raises_above_tolerance():
    # the log program certifies at residual 2.2e-16, above a 1e-300 tolerance
    inst = Instance((CobbDouglas([0.3, 0.7]), CobbDouglas([0.6, 0.4])), 1.0)
    with pytest.raises(DidNotConverge, match="threshold-pricing residual"):
        nash_threshold_pricing(inst, tolerance=1e-300)


def test_nash_threshold_spend_is_unit(rng):
    for _ in range(5):
        n = int(rng.integers(2, 4))
        inst = Instance(
            tuple(Linear(rng.uniform(0.5, 3.0, 2)) for _ in range(n)), 1.0
        )
        q, ok = nash_threshold_pricing(inst)
        assert ok


# -- first welfare check ------------------------------------------------------------------


def test_first_welfare_figure_market():
    inst = water_instance(1.0)
    assert first_welfare_check(inst, np.array([[0.0], [1.0], [0.0]]), [6.0])


def test_first_welfare_rejects_wrong_winner():
    inst = water_instance(1.0)
    with pytest.raises(NotEquilibrium):
        first_welfare_check(inst, np.array([[1.0], [0.0], [0.0]]), [6.0])


def test_first_welfare_trivial_market():
    inst = Instance((Linear([1.0, 0.0]),), 1.0)
    x = np.array([[1.0, 0.0]])
    assert first_welfare_check(inst, x, [1.0, 0.0])


def test_first_welfare_too_large_for_the_oracle():
    # eight linear agents over four goods: even the coarsest grid, 3 units
    # per good, has 120**4 = 207,360,000 points, over the oracle's budget
    inst = Instance(tuple(Linear(np.ones(4)) for _ in range(8)), 1.0)
    X = np.zeros((8, 4))
    X[0] = 1.0
    with pytest.raises(TooLarge):
        first_welfare_check(inst, X, np.ones(4))


def test_first_welfare_rejects_nonclearing():
    inst = water_instance(1.0)
    with pytest.raises(NotEquilibrium):
        first_welfare_check(inst, np.array([[0.0], [0.5], [0.0]]), [6.0])
