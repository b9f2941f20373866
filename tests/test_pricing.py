"""Pricing rules, demand optimality, certificates, Fisher conversion."""

import numpy as np
import pytest

from cesmarket import (
    BadParameter,
    CesForm,
    Certificate,
    CobbDouglas,
    Instance,
    Linear,
    NotEquilibrium,
    Power,
    WelfareParams,
    ces_objective,
    demand_residual,
    equilibrium_rule,
    extract_multipliers,
    grid_oracle,
    make_pricing_rule,
    solve_ces,
    to_fisher,
    we_certificate,
    weighted_shift_certificate,
)

from cesmarket.solver import kkt_residual

from conftest import random_instance, water_instance

Q_WATER = 2.0 * np.sqrt(3.0)  # supply multiplier of the curved water market
X_WATER = np.array([[1.0 / 12.0], [0.5], [5.0 / 12.0]])


# -- rule -----------------------------------------------------------------------


def test_rule_curved_example():
    rule = make_pricing_rule([Q_WATER], 0.5, 1.0)
    # p(x) = 0.5 * (q x)^2 = 6 x^2
    assert rule.price([0.5]) == pytest.approx(1.5, rel=1e-12)
    assert rule.price([0.0]) == 0.0
    assert rule.price([1.0]) == pytest.approx(6.0, rel=1e-12)


def test_rule_linear_case():
    rule = make_pricing_rule([3.0, 4.0], 1.0, 1.0)
    assert rule.price([1.0, 1.0]) == pytest.approx(7.0)
    np.testing.assert_allclose(rule.marginal([0.0, 0.0]), [3.0, 4.0])


def test_rule_convex_and_monotone(rng):
    for _ in range(30):
        m = int(rng.integers(1, 4))
        rule = make_pricing_rule(
            rng.uniform(0.1, 4.0, m),
            float(rng.choice([0.25, 0.5, 1.0])),
            float(rng.choice([0.5, 1.0])),
        )
        x = rng.uniform(0.0, 1.0, m)
        y = rng.uniform(0.0, 1.0, m)
        mid = rule.price(0.5 * x + 0.5 * y)
        assert mid <= 0.5 * rule.price(x) + 0.5 * rule.price(y) + 1e-10
        assert rule.price(np.maximum(x, y)) >= rule.price(x) - 1e-12
        assert rule.price(np.zeros(m)) == 0.0


def test_rule_marginal_matches_finite_differences(rng):
    for _ in range(20):
        m = int(rng.integers(1, 4))
        rule = make_pricing_rule(
            rng.uniform(0.1, 4.0, m), float(rng.choice([0.25, 0.5, 1.0])), 1.0
        )
        x = rng.uniform(0.1, 1.0, m)
        h = 1e-6
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            fd = (rule.price(x + e) - rule.price(x - e)) / (2 * h)
            assert rule.marginal(x)[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_rule_validation():
    with pytest.raises(BadParameter):
        make_pricing_rule([1.0], 0.0, 1.0)
    with pytest.raises(BadParameter):
        make_pricing_rule([1.0], 0.5, 1.5)
    with pytest.raises(BadParameter):
        make_pricing_rule([-1.0], 0.5, 1.0)


# -- demand residual ---------------------------------------------------------------


def test_demand_residual_at_equilibrium():
    inst = water_instance(0.5)
    rule = make_pricing_rule([Q_WATER], 0.5, 1.0)
    for i, v in enumerate(inst.valuations):
        assert demand_residual(rule, v, X_WATER[i]) <= 1e-8


def test_demand_residual_flags_perturbation():
    rule = make_pricing_rule([Q_WATER], 0.5, 1.0)
    assert demand_residual(rule, Linear([6.0]), [0.6]) > 0.01


def test_demand_residual_zero_iff_grid_argmax(rng):
    # independent oracle: bundle maximizes v(x) - p(x) over a fine 1-D grid
    grid = np.linspace(0.0, 1.0, 10_001)
    for w in (1.0, 6.0, 5.0):
        v = Linear([w])
        rule = make_pricing_rule([Q_WATER], 0.5, 1.0)
        surplus = w * grid - rule.price_many(grid[:, None])
        best = grid[int(np.argmax(surplus))]
        x_star = (w / 12.0,)  # analytic demand at these prices
        assert abs(best - x_star[0]) <= 1e-4
        assert demand_residual(rule, v, [best]) <= 1e-2


def test_demand_residual_rejects_divergent_boundary():
    # curved valuation, zero bundle: v(0.1) - p(0.1) = +0.306, so buying pays
    rule = make_pricing_rule([1.0], 0.5, 0.5)
    v = Power(1.0, 0.5)
    assert v.value([0.1]) - rule.price([0.1]) > 0.3
    assert demand_residual(rule, v, [0.0]) == np.inf


def test_demand_residual_idle_agent_at_linear_prices():
    # degree 1, nothing held: best value per unit cost prod((e/q)**e) - 1
    rule = make_pricing_rule([1.0, 1.0], 1.0, 1.0)
    assert demand_residual(rule, CobbDouglas([0.5, 0.5]), [0.0, 0.0]) == 0.0
    res = demand_residual(rule, CobbDouglas([0.5, 0.5], scale=3.0), [0.0, 0.0])
    assert res == pytest.approx(0.5, abs=1e-12)


def test_demand_residual_waived_coordinates_under_curved_prices():
    # the value-per-cost bound decides demand only at linear prices; a rho < 1
    # rule's marginal is zero at zero, where the divergent partials want in
    rule = make_pricing_rule([1.0, 1.0], 0.5, 1.0)
    assert demand_residual(rule, CobbDouglas([0.5, 0.5]), [0.0, 0.0]) == np.inf


# -- certificates -------------------------------------------------------------------


def test_certificate_water_curved():
    inst = water_instance(0.5)
    rule = make_pricing_rule([Q_WATER], 0.5, 1.0)
    cert = we_certificate(inst, X_WATER, rule)
    assert cert.passed
    payments = [rule.price(X_WATER[i]) for i in range(3)]
    np.testing.assert_allclose(payments, [1.0 / 24.0, 1.5, 25.0 / 24.0], rtol=1e-10)


def test_certificate_water_linear():
    inst = water_instance(1.0)
    x = np.array([[0.0], [1.0], [0.0]])
    cert = we_certificate(inst, x, make_pricing_rule([6.0], 1.0, 1.0))
    assert cert.passed


def test_certificate_fails_on_uniform_split_at_rho_one():
    inst = water_instance(1.0)
    x = np.full((3, 1), 1.0 / 3.0)
    cert = we_certificate(inst, x, make_pricing_rule([6.0], 1.0, 1.0))
    assert not cert.passed
    assert cert.stationarity > 1e-3


@pytest.mark.parametrize("rho", [1.0, 0.5])
def test_certificate_rejects_starved_agent_with_divergent_partials(rho):
    # the first agent values both goods twice as much but gets nothing; its
    # partials diverge at zero, which must not hide that it would buy
    strong, weak = CesForm([2.0, 2.0], 0.5, 1.0), CesForm([1.0, 1.0], 0.5, 1.0)
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    inst = Instance((strong, weak), rho)
    q = extract_multipliers(inst, X)
    assert not we_certificate(inst, X, make_pricing_rule(q, rho, 1.0)).passed
    assert kkt_residual(inst.valuations, rho, X, q) > 0.0
    # swapped, the idle agent is below break-even: waived, and certified
    if rho == 1.0:
        inst = Instance((weak, strong), rho)
        q = extract_multipliers(inst, X)
        cert = we_certificate(inst, X, make_pricing_rule(q, rho, 1.0))
        assert cert.passed
        assert cert.waived == ((0, 0), (0, 1))
        assert kkt_residual(inst.valuations, rho, X, q) <= 1e-12


def test_certificate_payment_identity(rng):
    for _ in range(10):
        inst = random_instance(rng, n=int(rng.integers(1, 4)), m=int(rng.integers(1, 3)))
        res = solve_ces(inst)
        rule = equilibrium_rule(inst, res.allocation)
        cert = we_certificate(inst, res.allocation, rule)
        assert cert.passed
        for i in range(inst.n):
            v = res.values[i]
            p = rule.price(res.allocation[i])
            assert abs(p - inst.rho * inst.degree * v) <= 1e-8 * max(1.0, v)


def test_certificate_converse_probe(rng):
    # moving at least 1% of some agent's mass must break the certificate
    inst = water_instance(0.5)
    rule = make_pricing_rule([Q_WATER], 0.5, 1.0)
    for _ in range(20):
        x = X_WATER.copy()
        i, k = rng.choice(3, size=2, replace=False)
        shift = 0.01 + 0.2 * rng.random()
        x[i, 0] += shift
        x[k, 0] -= shift
        if x.min() < 0:
            continue
        cert = we_certificate(inst, x, rule, tolerance=1e-6)
        assert cert.max_residual > 1e-5


def test_certified_rho_one_equals_utilitarian_grid(rng):
    for _ in range(5):
        inst = random_instance(rng, n=2, m=2, rho=1.0)
        res = solve_ces(inst)
        X = grid_oracle(inst, 60)
        best = ces_objective(WelfareParams(1.0), np.maximum(inst.values_at(X), 0.0))
        assert res.objective >= best - 1e-3


def test_everyone_buys_when_rho_below_one():
    res = solve_ces(water_instance(0.5))
    assert np.all(res.allocation[:, 0] > 0.01)


def test_certificate_json_shape():
    cert = Certificate(1e-9, 2e-9, 3e-9, tolerance=1e-6, waived=((0, 1),))
    blob = cert.to_json()
    assert blob["pass"] is True
    assert blob["waived"] == [[0, 1]]
    assert set(blob) == {"stationarity", "clearing", "payment_ratio", "pass", "waived"}


# -- Fisher conversion ----------------------------------------------------------------


def test_to_fisher_water_curved():
    inst = water_instance(0.5)
    rule = make_pricing_rule([Q_WATER], 0.5, 1.0)
    budgets, ok = to_fisher(inst, X_WATER, rule)
    assert ok
    np.testing.assert_allclose(
        budgets.budgets, [1.0 / 24.0, 1.5, 25.0 / 24.0], rtol=1e-10
    )


def test_to_fisher_water_linear_zero_budgets():
    inst = water_instance(1.0)
    x = np.array([[0.0], [1.0], [0.0]])
    budgets, ok = to_fisher(inst, x, make_pricing_rule([6.0], 1.0, 1.0))
    assert ok
    np.testing.assert_allclose(budgets.budgets, [0.0, 6.0, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "v, q",
    [
        (Linear([1.0, 2.0]), [1.0, 1.0]),
        (Linear([1.0, 3.0, 0.1]), [1.0, 2.0, 1.0]),
        (CesForm([1.0, 3.0, 0.1], 1.0, 0.5), [0.5, 1.0, 0.5]),
    ],
    ids=["m2", "m3", "m3-degree0.5"],
)
def test_to_fisher_flags_an_affordable_better_bundle(v, q):
    # the agent holds good 0; the loose tolerance passes stationarity and
    # clearing residuals of 1 and below.  At m = 2 good 1 costs the budget at
    # twice the value.  At m = 3 half a unit of the pricier good 1 costs the
    # budget and is worth 1.5 (sqrt 1.5 at degree .5): no probe that moves
    # mass one for one finds it.
    inst = Instance((v,), 1.0)
    x = np.eye(1, v.m)
    rule = make_pricing_rule(q, 1.0, v.degree)
    assert we_certificate(inst, x, rule, 2.0).passed
    budgets, ok = to_fisher(inst, x, rule, 2.0)
    assert not ok
    np.testing.assert_array_equal(budgets.budgets, [q[0]])


def test_to_fisher_rejects_non_equilibrium():
    inst = water_instance(0.5)
    x = np.full((3, 1), 1.0 / 3.0)
    with pytest.raises(NotEquilibrium):
        to_fisher(inst, x, make_pricing_rule([Q_WATER], 0.5, 1.0))


def test_to_fisher_random_instances(rng):
    for _ in range(6):
        inst = random_instance(rng, n=int(rng.integers(1, 4)), m=int(rng.integers(1, 4)))
        res = solve_ces(inst)
        rule = equilibrium_rule(inst, res.allocation)
        budgets, ok = to_fisher(inst, res.allocation, rule)
        assert ok
        np.testing.assert_allclose(
            budgets.budgets,
            [rule.price(res.allocation[i]) for i in range(inst.n)],
            atol=1e-10,
        )


# -- weighted shift ----------------------------------------------------------------------


def test_weighted_shift_water():
    assert weighted_shift_certificate(water_instance(0.5), X_WATER)
    assert weighted_shift_certificate(
        water_instance(1.0), np.array([[0.0], [1.0], [0.0]])
    )


def test_weighted_shift_rejects_non_optimum():
    with pytest.raises(NotEquilibrium):
        weighted_shift_certificate(water_instance(0.5), np.full((3, 1), 1 / 3))


def test_weighted_shift_random(rng):
    for _ in range(6):
        inst = random_instance(rng, n=int(rng.integers(1, 4)), m=int(rng.integers(1, 3)))
        res = solve_ces(inst)
        assert weighted_shift_certificate(inst, res.allocation)
