"""Allocation solvers: closed form, ellipsoid, grid oracle, Leontief."""

import numpy as np
import pytest

from cesmarket import (
    BadParameter,
    CobbDouglas,
    DidNotConverge,
    EmptyInput,
    InconsistentMultipliers,
    Instance,
    Leontief,
    Linear,
    NotLeontief,
    TooLarge,
    UnsupportedValuation,
    WelfareParams,
    ces_objective,
    closed_form_single_good,
    extract_multipliers,
    grid_oracle,
    make_pricing_rule,
    solve_ces,
    solve_leontief,
)
from cesmarket.solver import as_allocation, kkt_residual

from conftest import random_instance, water_instance


# -- Instance ------------------------------------------------------------------


def test_instance_validation():
    inst = water_instance(0.5)
    assert (inst.n, inst.m, inst.degree) == (3, 1, 1.0)
    with pytest.raises(BadParameter):
        Instance((Linear([1.0]),), 0.0)
    with pytest.raises(BadParameter):
        Instance((Linear([1.0]),), 1.5)
    with pytest.raises(EmptyInput):
        Instance((), 0.5)
    from cesmarket import DimensionMismatch, Power

    with pytest.raises(DimensionMismatch):
        Instance((Linear([1.0]), Linear([1.0, 2.0])), 0.5)
    with pytest.raises(BadParameter):
        # degree mismatch: 1 vs 0.5
        Instance((Linear([1.0]), Power(1.0, 0.5)), 0.5)


def test_values_at():
    inst = water_instance(1.0)
    np.testing.assert_allclose(
        inst.values_at(np.array([[0.0], [1.0], [0.0]])), [0.0, 6.0, 0.0]
    )


def test_as_allocation_validation():
    as_allocation(np.array([[0.5, 0.5], [0.5, 0.5]]), 2, 2)
    with pytest.raises(BadParameter):
        as_allocation(np.array([[0.7, 0.0], [0.7, 0.0]]), 2, 2)  # oversubscribed
    with pytest.raises(BadParameter):
        as_allocation(np.array([[-0.1, 0.0], [0.5, 0.0]]), 2, 2)


# -- closed form ----------------------------------------------------------------


def test_closed_form_examples():
    np.testing.assert_allclose(
        closed_form_single_good([1.0, 6.0, 5.0], 1.0, 0.5),
        [1.0 / 12.0, 6.0 / 12.0, 5.0 / 12.0],
    )
    np.testing.assert_allclose(
        closed_form_single_good([1.0, 6.0, 5.0], 1.0, 1.0), [0.0, 1.0, 0.0]
    )
    np.testing.assert_allclose(closed_form_single_good([3.0], 0.5, 0.75), [1.0])


def test_closed_form_tie_breaks_lexicographically():
    np.testing.assert_allclose(
        closed_form_single_good([2.0, 5.0, 5.0], 1.0, 1.0), [0.0, 1.0, 0.0]
    )


def test_closed_form_negative_rho():
    # continuation below rho = 0: exponent rho/(1 - r*rho) stays valid
    x = closed_form_single_good([1.0, 2.0], 1.0, -1.0)
    s = 2.0**-0.5
    np.testing.assert_allclose(x, [1.0 / (1.0 + s), s / (1.0 + s)], atol=1e-12)
    # more aversion means the lighter-weight agent keeps the larger share
    assert x[0] > x[1]


def test_closed_form_matches_grid(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        w = rng.uniform(0.5, 3.0, n)
        rho = float(rng.choice([0.25, 0.5, 0.75]))
        inst = Instance(tuple(Linear([wi]) for wi in w), rho)
        x = closed_form_single_good(w, 1.0, rho)
        X = grid_oracle(inst, 2000)
        np.testing.assert_allclose(x, X[:, 0], atol=1e-3)


def test_closed_form_empty():
    with pytest.raises(EmptyInput):
        closed_form_single_good([], 1.0, 0.5)


# -- solve_ces ------------------------------------------------------------------


def test_solve_water_instance_rho_half():
    res = solve_ces(water_instance(0.5))
    np.testing.assert_allclose(
        res.allocation[:, 0], [1.0 / 12.0, 0.5, 5.0 / 12.0], atol=1e-6
    )
    assert res.max_kkt_residual <= 1e-8
    np.testing.assert_allclose(res.values, [1.0 / 12.0, 3.0, 25.0 / 12.0], atol=1e-5)


def test_solve_water_instance_rho_one():
    res = solve_ces(water_instance(1.0))
    np.testing.assert_allclose(res.allocation[:, 0], [0.0, 1.0, 0.0], atol=1e-8)
    assert res.objective == pytest.approx(6.0, abs=1e-8)


def test_solve_symmetric_cobb_douglas():
    v = CobbDouglas([0.5, 0.5])
    res = solve_ces(Instance((v, v), 0.5))
    np.testing.assert_allclose(res.allocation, np.full((2, 2), 0.5), atol=1e-7)


def test_solve_matches_grid_oracle(rng):
    for _ in range(8):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        inst = random_instance(rng, n=n, m=m)
        res = solve_ces(inst)
        X = grid_oracle(inst, 200 if n * m > 1 else 2000)
        params = WelfareParams(inst.rho)
        best = ces_objective(params, np.maximum(inst.values_at(X), 1e-300))
        assert res.objective >= best - 1e-3


def test_solve_is_deterministic():
    inst = Instance(
        (Linear([1.0, 2.0]), CobbDouglas([0.5, 0.5]), Linear([2.0, 1.0])), 0.5
    )
    a = solve_ces(inst)
    b = solve_ces(inst)
    assert np.array_equal(a.allocation, b.allocation)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_solve_rejects_leontief_and_bad_method():
    inst = Instance((Leontief([1.0, 1.0]),), 0.5)
    with pytest.raises(UnsupportedValuation):
        solve_ces(inst)
    with pytest.raises(BadParameter):
        solve_ces(water_instance(0.5), tolerance=-1.0)


def test_did_not_converge_carries_result():
    with pytest.raises(DidNotConverge) as err:
        solve_ces(water_instance(0.5), tolerance=1e-30)
    res = err.value.result
    assert res is not None
    # the carried iterate is still essentially optimal
    np.testing.assert_allclose(res.allocation[:, 0], [1 / 12, 0.5, 5 / 12], atol=1e-5)


def test_kkt_residual_flags_suboptimal_points():
    inst = water_instance(0.5)
    x_opt = np.array([[1.0 / 12.0], [0.5], [5.0 / 12.0]])
    q = extract_multipliers(inst, x_opt)
    assert kkt_residual(inst.valuations, 0.5, x_opt, q) <= 1e-9
    x_bad = np.array([[0.4], [0.3], [0.3]])
    assert kkt_residual(inst.valuations, 0.5, x_bad, q) > 0.01


# -- multiplier extraction --------------------------------------------------------


def test_extract_multipliers_water():
    inst = water_instance(0.5)
    x = np.array([[1.0 / 12.0], [0.5], [5.0 / 12.0]])
    q = extract_multipliers(inst, x)
    assert q[0] == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)


def test_extract_multipliers_rho_one():
    q = extract_multipliers(water_instance(1.0), np.array([[0.0], [1.0], [0.0]]))
    assert q[0] == pytest.approx(6.0)


def test_extract_multipliers_unheld_good_is_free():
    inst = Instance((Linear([1.0, 0.0]), Linear([2.0, 0.0])), 1.0)
    q = extract_multipliers(inst, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert q[1] == 0.0
    assert q[0] == pytest.approx(2.0)


def test_extract_multipliers_rejects_disagreement():
    inst = water_instance(0.5)
    with pytest.raises(InconsistentMultipliers):
        extract_multipliers(inst, np.array([[0.4], [0.3], [0.3]]))


# -- grid oracle ------------------------------------------------------------------


def test_grid_oracle_water():
    inst = water_instance(0.5)
    X = grid_oracle(inst, 2000)
    np.testing.assert_allclose(X[:, 0], [1 / 12, 0.5, 5 / 12], atol=1e-3)
    X1 = grid_oracle(water_instance(1.0), 100)
    np.testing.assert_allclose(X1[:, 0], [0.0, 1.0, 0.0])


def test_grid_oracle_single_agent_takes_everything():
    inst = Instance((Linear([2.0, 3.0]),), 0.5)
    X = grid_oracle(inst, 50)
    np.testing.assert_allclose(X, [[1.0, 1.0]])


def test_grid_oracle_too_large():
    inst = Instance(tuple(Linear([1.0]) for _ in range(5)), 0.5)
    with pytest.raises(TooLarge):
        grid_oracle(inst, 2000)
    with pytest.raises(BadParameter):
        grid_oracle(inst, 0)


def test_grid_oracle_exhausts_supply(rng):
    for _ in range(5):
        inst = random_instance(rng, n=2, m=2)
        X = grid_oracle(inst, 30)
        np.testing.assert_allclose(X.sum(axis=0), [1.0, 1.0], atol=1e-12)


# -- Leontief ---------------------------------------------------------------------


def test_leontief_symmetric_pair():
    v = Leontief([1.0, 1.0])
    res = solve_leontief(Instance((v, v), 0.5))
    np.testing.assert_allclose(res.allocation, np.full((2, 2), 0.5), atol=1e-8)
    np.testing.assert_allclose(res.alphas, [0.5, 0.5], atol=1e-8)


def test_leontief_single_agent():
    res = solve_leontief(Instance((Leontief([1.0, 2.0]),), 0.5))
    assert res.alphas[0] == pytest.approx(0.5, abs=1e-10)
    np.testing.assert_allclose(res.allocation, [[0.5, 1.0]], atol=1e-10)
    # only the second good binds: alpha**(rho-1) = 2 * q_2
    np.testing.assert_allclose(
        res.multipliers, [0.0, 0.5**-0.5 / 2.0], rtol=1e-12, atol=1e-15
    )


def test_leontief_multipliers_satisfy_payment_identity():
    # the induced rule charges each agent rho * v_i, to rounding
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        rho = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        inst = Instance(tuple(Leontief(rng.uniform(0.3, 2.0, m)) for _ in range(n)), rho)
        res = solve_leontief(inst)
        rule = make_pricing_rule(res.multipliers, rho, 1.0)
        for i in range(n):
            assert abs(rule.price(res.allocation[i]) - rho * res.alphas[i]) <= 1e-12


def test_leontief_vs_grid():
    inst = Instance((Leontief([1.0, 0.0]), Leontief([1.0, 1.0])), 0.5)
    res = solve_leontief(inst)
    X = grid_oracle(inst, 2000, max_points=40_000_000)
    np.testing.assert_allclose(res.alphas, inst.values_at(X), atol=1e-4)


def test_leontief_alpha_tightness(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        vals = tuple(Leontief(rng.uniform(0.3, 2.0, m)) for _ in range(n))
        inst = Instance(vals, float(rng.choice([0.25, 0.5, 0.75, 1.0])))
        res = solve_leontief(inst)
        for i, v in enumerate(vals):
            ratios = res.allocation[i] / v.weights
            assert abs(res.alphas[i] - ratios.min()) <= 1e-8
        # duals vanish off the binding ratios
        slack = res.allocation - np.outer(res.alphas, np.ones(m)) * np.array(
            [v.weights for v in vals]
        )
        assert np.all(res.duals[slack > 1e-6] == 0.0)


def test_leontief_rejects_other_kinds():
    with pytest.raises(NotLeontief):
        solve_leontief(water_instance(0.5))
