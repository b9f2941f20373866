"""Allocation solvers: closed form, ellipsoid, grid oracle, Leontief."""

import contextlib
import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesmarket import (
    BadParameter,
    CesForm,
    CobbDouglas,
    DidNotConverge,
    DimensionMismatch,
    EmptyInput,
    InconsistentMultipliers,
    Instance,
    Leontief,
    Linear,
    NotLeontief,
    Power,
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
    to_fisher,
    we_certificate,
)
from cesmarket import solver
from cesmarket.solver import (
    _ellipsoid_phase,
    _kkt_refine,
    _newton_jacobian,
    _newton_residual,
    _newton_step,
    _supply_rows,
    as_allocation,
    kkt_residual,
)
from cesmarket.valuations import ValuationStack

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
    from cesmarket import DimensionMismatch

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


def test_instance_builds_its_stack_once(monkeypatch):
    built = []

    class CountingStack(ValuationStack):
        def __init__(self, valuations):
            built.append(valuations)
            super().__init__(valuations)

    monkeypatch.setattr(solver, "ValuationStack", CountingStack)
    X = np.array([[1 / 12], [0.5], [5 / 12]])
    rule = make_pricing_rule([2.0 * np.sqrt(3.0)], 0.5, 1.0)
    uses = (
        lambda inst: (inst.values_at(X), inst.values_at(X), extract_multipliers(inst, X)),
        lambda inst: (we_certificate(inst, X, rule), to_fisher(inst, X, rule)),
    )
    for use in uses:
        built.clear()
        use(water_instance(0.5))
        assert len(built) == 1


def test_as_allocation_validation():
    as_allocation(np.array([[0.5, 0.5], [0.5, 0.5]]), 2, 2)
    with pytest.raises(BadParameter):
        as_allocation(np.array([[0.7, 0.0], [0.7, 0.0]]), 2, 2)  # oversubscribed
    with pytest.raises(BadParameter):
        as_allocation(np.array([[-0.1, 0.0], [0.5, 0.0]]), 2, 2)
    with pytest.raises(DimensionMismatch, match="must have shape"):
        as_allocation(np.full((2, 2), 0.25), 2, 3)
    with pytest.raises(BadParameter, match="must be finite"):
        as_allocation(np.array([[np.nan, 0.0], [0.5, 0.0]]), 2, 2)


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


@pytest.mark.parametrize(
    "weights, degree, rho, error, message",
    [
        ([[1.0, 2.0]], 1.0, 0.5, DimensionMismatch, "weights must be a vector"),
        ([1.0, 0.0], 1.0, 0.5, BadParameter, "weights must be positive"),
        ([1.0, -2.0], 1.0, 0.5, BadParameter, "weights must be positive"),
        ([1.0, 2.0], 0.0, 0.5, BadParameter, "degree must lie"),
        ([1.0, 2.0], 1.5, 0.5, BadParameter, "degree must lie"),
        ([1.0, 2.0], 1.0, 0.0, BadParameter, "rho must lie"),
        ([1.0, 2.0], 1.0, 1.5, BadParameter, "rho must lie"),
    ],
)
def test_closed_form_rejects_bad_input(weights, degree, rho, error, message):
    with pytest.raises(error, match=message):
        closed_form_single_good(weights, degree, rho)


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


def test_solve_power_one_ulp_below_degree_one():
    # degree 1 - 1 ulp once kept the idle agents active: residual inf
    vals = tuple(Power(w, np.nextafter(1.0, 0.0)) for w in (1.0, 2.0, 1.0))
    res = solve_ces(Instance(vals, 1.0))
    np.testing.assert_allclose(res.allocation[:, 0], [0.0, 1.0, 0.0], atol=1e-8)
    assert res.max_kkt_residual <= 1e-8


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


@pytest.mark.parametrize(
    "solve, inst",
    [
        (
            solve_ces,
            Instance((Linear([1.0, 2.0]), CobbDouglas([0.5, 0.5]), Linear([2.0, 1.0])), 0.5),
        ),
        (
            solve_leontief,
            Instance((Leontief([1.0, 2.0]), Leontief([2.0, 0.5]), Leontief([1.0, 1.0])), 0.5),
        ),
    ],
    ids=["ces", "leontief"],
)
def test_solve_is_deterministic(solve, inst):
    a = solve(inst)
    b = solve(inst)
    assert np.array_equal(a.allocation, b.allocation)
    assert np.array_equal(a.multipliers, b.multipliers)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_solve_rejects_leontief_and_bad_method():
    inst = Instance((Leontief([1.0, 1.0]),), 0.5)
    with pytest.raises(UnsupportedValuation):
        solve_ces(inst)


@pytest.mark.parametrize(
    "kwargs",
    [{"tolerance": float("nan")}, {"tolerance": 0.0}, {"tolerance": -1.0}, {"max_iters": 0}],
)
@pytest.mark.parametrize(
    "solve, inst",
    [
        (solve_ces, water_instance(0.5)),
        (solve_leontief, Instance((Leontief([1.0, 2.0]), Leontief([2.0, 1.0])), 0.5)),
    ],
    ids=["ces", "leontief"],
)
def test_solvers_reject_bad_budget(solve, inst, kwargs):
    with pytest.raises(BadParameter):
        solve(inst, **kwargs)


def test_did_not_converge_carries_result():
    with pytest.raises(DidNotConverge) as err:
        solve_ces(water_instance(0.5), tolerance=1e-30)
    res = err.value.result
    assert res is not None
    # the carried iterate is still essentially optimal
    np.testing.assert_allclose(res.allocation[:, 0], [1 / 12, 0.5, 5 / 12], atol=1e-5)


def test_leontief_did_not_converge_carries_result():
    # the 100-iteration search point stalls the refine at residual .273
    W = [[2.5, 2.0, 1.5], [0.5, 0.5, 2.5], [1.5, 1.5, 1.0], [1.5, 2.0, 1.5]]
    inst = Instance(tuple(Leontief(w) for w in W), 1.0)
    with pytest.raises(DidNotConverge, match="Leontief first-order residual") as err:
        solve_leontief(inst, max_iters=100)
    res = err.value.result
    np.testing.assert_allclose(res.alphas, [0.0, 0.0, 8.0 / 11.0, 0.0], atol=1e-12)
    np.testing.assert_array_equal(res.allocation, np.asarray(W) * res.alphas[:, None])


def test_solve_linear_market_from_rough_search():
    # a 1000-iteration search leaves the refine far from the optimum; with a
    # finite-difference Jacobian it stalled at residual 0.73
    rng = np.random.default_rng(0)
    inst = Instance(tuple(Linear(w) for w in rng.uniform(0.3, 3.0, (5, 5))), 0.5)
    res = solve_ces(inst, max_iters=1000)
    assert res.max_kkt_residual <= 1e-8


@pytest.mark.parametrize(
    "weights, sigmas",
    [
        # the second agent ends with nothing, where its CES Hessian once
        # raised ZeroDivisionError inside the Newton Jacobian
        ([[1.0, 0.8, 2.7, 0.4], [0.8, 2.4, 0.9, 1.0]], [0.5, 0.8]),
        # Newton steps cut 0.999999 of the way to x = 0, not onto it, stall
        ([[2.87, 2.12, 2.95, 2.82], [1.93, 1.62, 2.34, 0.42]], [0.5, 0.5]),
        # draws 15, 80, 116, 282 and 328 of 400 rho = 1 CES markets (n from
        # integers(2, 4), m from integers(2, 5), then per agent weights
        # uniform(0.3, 3, m) and sigma from {.5, .8, 1}, from default_rng(3)):
        # the polish of a 100-1000-iteration search point stalled; the
        # polish of the start point certifies them
        (
            [
                [2.829721383302788, 0.6402508990907987, 1.4209444547850545],
                [2.6887304527106037, 2.9994681763700353, 0.6878197551387509],
                [1.7507038559537538, 2.679241427558828, 0.4431801221177389],
            ],
            [1.0] * 3,
        ),
        (
            [
                [2.0019838626224087, 2.6549472869116895, 0.5110774655514474, 2.8217271940455086],
                [0.943778929053056, 2.219530375766644, 0.3162334951812783, 2.6364813620772667],
                [1.4192403929727508, 2.299325946673765, 2.446639531881179, 0.37180632053846335],
            ],
            [1.0] * 3,
        ),
        (
            [
                [2.3379282104545958, 0.6712263136704586, 0.7652315163194205, 2.1636754055635405],
                [1.916134125395857, 2.5625071820424576, 1.052104082330403, 0.956235691318708],
            ],
            [1.0] * 2,
        ),
        (
            [
                [1.1739482812429913, 0.46744546209996135, 2.603090289229262, 2.8834276652326545],
                [0.4074905349984355, 1.3583330818146417, 0.36861069789233664, 2.0681657233597237],
            ],
            [1.0] * 2,
        ),
        (
            [
                [2.9674015704856758, 1.765952691196192, 2.3339576349826063, 1.2550432866857084],
                [0.8119399335978783, 2.0733215354308996, 0.4924151089557276, 1.6713355458631527],
            ],
            [1.0] * 2,
        ),
    ],
    ids=["agent-left-empty", "step-onto-boundary"]
    + [f"rho1-draw-{k}" for k in (15, 80, 116, 282, 328)],
)
def test_solve_rho_one_ces_from_rough_search(weights, sigmas):
    inst = Instance(tuple(CesForm(w, s, 1.0) for w, s in zip(weights, sigmas)), 1.0)
    res = solve_ces(inst, max_iters=1000)
    assert res.max_kkt_residual <= 1e-8


def _full_search_then_refine(stack, e, max_iters, A=None):
    """The single search-then-polish that ends every uncertified solve."""
    A = _supply_rows(stack.n, stack.m) if A is None else A
    X0, _ = _ellipsoid_phase(stack, A, e, 1e-8, max_iters)
    return _kkt_refine(stack, A, e, X0)


@pytest.mark.parametrize(
    "n, make",
    [
        (8, lambda w: CesForm(w, 0.5, 1.0)),
        (12, lambda w: CesForm(w, 0.5, 1.0)),
        (8, Linear),
        (20, lambda w: CesForm(w, 0.5, 1.0)),
        (12, Linear),
    ],
    ids=["8x8-ces", "12x12-ces", "8x8-linear", "20x20-ces", "12x12-linear"],
)
def test_large_markets_certify(n, make):
    # a full 100000-iteration search took 35 s (8x8) and 72 s (12x12) on the
    # CES markets; an early attempt's short search certifies them.  The 12x12
    # linear market needs Newton's t < 0 steps: ending a solve at t <= 0, not
    # only at t == 0, left it uncertified
    w = np.random.default_rng(0).uniform(0.3, 3.0, (n, n))
    res = solve_ces(Instance(tuple(make(row) for row in w), 0.5))
    assert res.max_kkt_residual <= 1e-8


# default_rng(0).uniform(0.3, 3.0, (30, 30)) rounded to two decimals, one
# agent per two lines
WEIGHTS_30X30 = """
    2.02 1.03 0.41 0.34 2.50 2.76 1.94 2.27 1.77 2.82 2.50 0.31 2.61 0.39 2.27
    0.77 2.63 1.76 1.11 1.44 0.38 0.64 2.11 2.05 1.96 1.34 2.99 2.95 2.15 2.06
    2.16 1.35 0.66 2.25 1.72 1.14 1.61 2.70 2.82 1.27 1.84 1.17 1.90 1.21 1.36
    2.70 0.91 1.98 0.53 2.55 2.43 0.95 2.67 0.46 1.21 0.71 1.52 2.45 0.92 0.44
    1.39 0.84 0.55 1.87 1.11 2.11 0.84 2.84 1.29 0.58 2.00 2.80 1.49 2.88 1.65
    1.45 1.97 2.99 2.86 1.54 2.35 1.64 1.73 2.42 1.42 2.28 2.22 2.82 0.61 2.27
    2.80 2.91 0.34 2.63 2.95 2.88 0.70 2.93 2.70 2.52 1.60 0.93 2.47 2.79 1.02
    1.76 1.50 2.81 0.41 2.28 1.96 0.38 2.24 0.34 2.35 1.68 2.81 0.48 2.57 0.48
    1.23 1.46 2.91 1.82 1.00 0.95 2.70 0.91 0.64 1.08 1.88 1.80 2.49 1.81 1.08
    1.41 2.51 1.99 2.89 1.30 1.79 1.90 2.59 0.69 1.40 2.76 0.42 2.52 1.42 2.54
    0.33 1.29 0.51 2.06 1.04 2.20 2.85 0.64 2.63 0.46 1.33 1.46 1.62 2.94 2.39
    1.13 1.03 2.63 2.68 1.68 1.23 2.99 1.15 0.79 2.68 2.49 2.10 2.89 2.80 2.32
    2.62 0.97 0.68 2.11 2.23 0.75 1.37 2.76 1.82 1.86 0.82 1.72 1.71 0.54 2.95
    1.84 0.32 2.39 2.94 1.89 1.16 0.81 2.12 0.83 1.86 1.93 2.90 0.50 1.65 2.31
    0.78 1.35 0.47 2.26 0.54 1.37 2.66 1.58 2.76 2.37 2.77 0.64 0.50 0.49 2.65
    2.01 1.64 0.74 2.12 1.16 2.22 1.54 1.67 2.43 0.55 1.86 0.83 2.48 1.62 2.97
    0.79 2.90 2.46 1.60 2.50 1.93 2.07 2.77 0.48 2.55 1.33 1.18 2.98 2.41 1.61
    1.44 2.67 0.53 2.21 2.43 2.46 1.17 2.45 0.91 1.28 1.43 1.76 0.60 1.40 0.30
    2.31 2.60 0.68 2.20 2.52 2.95 2.58 1.45 2.95 2.93 1.66 2.33 2.77 1.59 2.63
    2.19 1.09 2.37 1.84 0.55 1.36 0.50 1.59 1.46 1.44 1.88 0.63 2.82 2.15 2.52
    2.72 1.87 0.41 2.22 1.84 2.53 1.74 2.50 2.99 1.25 0.76 1.36 2.33 1.49 1.89
    0.64 2.26 1.06 0.81 2.63 1.82 1.61 2.73 0.53 2.18 1.19 0.77 2.12 1.28 1.19
    2.85 0.84 1.68 0.36 0.74 2.69 2.43 1.80 0.90 1.81 0.33 2.23 2.24 2.04 1.95
    0.50 0.97 1.85 1.36 2.98 2.79 0.71 1.89 2.18 0.67 1.14 2.23 2.73 1.22 0.95
    2.52 1.88 1.59 0.99 0.50 0.35 1.87 0.82 2.93 0.59 1.52 1.37 0.93 2.32 2.04
    2.26 0.52 1.25 1.70 1.45 0.41 0.82 2.85 0.74 2.60 2.52 1.36 1.56 2.52 2.14
    2.56 2.35 2.17 2.77 2.52 0.78 2.32 0.53 1.45 1.37 0.85 2.83 0.56 0.31 1.17
    2.98 1.01 2.54 0.77 1.88 2.89 2.23 2.95 1.85 2.96 2.56 2.40 2.70 2.01 1.26
    1.73 0.91 2.40 0.76 1.86 1.75 2.11 2.35 0.60 1.99 1.42 1.96 2.17 1.88 2.28
    1.70 1.55 1.07 0.92 2.18 2.18 0.83 2.92 2.11 1.73 2.57 1.61 1.59 1.00 0.72
    2.22 2.58 2.13 1.30 1.85 1.82 2.83 1.35 0.74 2.67 2.72 0.43 0.84 2.02 2.43
    1.94 0.82 0.62 1.67 2.50 0.89 0.50 1.79 0.82 0.48 2.39 2.52 1.38 1.09 1.05
    1.27 1.86 1.73 1.26 2.02 2.12 1.81 1.35 1.98 1.90 1.22 1.12 1.77 1.95 1.95
    1.33 1.83 2.96 1.46 2.58 0.52 2.66 2.84 1.01 0.33 1.60 0.79 2.92 2.72 2.89
    1.93 1.69 2.55 2.06 0.97 2.82 1.49 2.39 1.65 0.80 1.10 1.85 0.69 0.34 1.47
    2.36 1.96 1.18 2.24 1.61 3.00 2.40 2.54 1.00 0.71 0.84 1.47 1.68 0.83 2.41
    2.64 1.15 1.67 1.90 2.25 0.70 1.06 2.27 1.83 2.73 1.51 1.40 1.13 0.92 2.06
    1.01 2.63 1.03 2.12 1.83 2.00 2.72 0.76 0.70 0.63 0.51 1.74 0.75 2.48 0.36
    1.31 1.58 0.88 1.26 0.90 1.06 2.80 1.43 1.34 1.95 2.09 2.08 0.53 1.87 2.29
    2.45 1.89 0.65 0.53 1.17 2.80 1.58 2.72 1.54 2.34 1.61 2.21 1.16 2.70 1.02
    0.32 2.25 2.13 2.07 2.16 1.88 0.61 2.11 0.32 0.79 1.44 1.32 0.62 1.45 1.98
    1.32 2.21 0.92 0.69 2.32 2.11 1.46 0.67 2.09 2.32 0.74 2.16 1.26 2.77 2.33
    1.04 2.83 0.37 0.80 0.95 2.28 1.72 1.55 0.90 2.34 0.62 0.97 2.48 1.52 2.67
    1.92 2.43 0.81 1.15 1.32 1.63 1.58 2.52 0.77 2.60 2.70 0.50 0.33 1.09 1.38
    2.92 0.49 2.41 1.58 0.65 1.29 1.33 0.96 1.09 1.43 2.90 1.54 2.87 0.38 0.48
    0.38 2.10 0.89 1.86 2.45 1.20 0.96 2.26 1.58 0.70 0.54 2.29 2.62 2.70 1.68
    0.71 0.91 1.52 2.60 2.06 1.04 2.34 1.48 2.95 1.46 2.56 0.34 2.24 1.38 1.65
    0.84 2.81 0.84 1.82 1.91 2.62 1.56 2.54 1.71 2.88 2.23 2.76 2.84 2.47 0.63
    0.64 1.96 1.03 1.34 0.77 2.36 2.61 0.66 1.70 1.37 2.43 1.56 2.27 1.83 2.94
    1.43 2.97 1.42 0.79 2.41 1.03 1.83 2.04 0.84 0.39 2.96 2.51 0.63 2.59 1.00
    0.97 2.39 2.34 2.58 0.67 2.32 1.57 1.18 2.28 2.58 1.17 0.72 2.98 2.78 1.08
    2.50 0.54 2.76 2.39 0.83 1.10 1.91 1.26 2.29 1.90 0.86 1.95 0.34 0.60 0.74
    1.25 0.33 2.81 0.95 1.03 1.31 2.84 1.25 1.46 1.11 2.94 1.29 0.53 2.08 2.23
    1.31 0.87 1.40 1.49 2.99 2.62 1.98 0.82 2.16 2.35 0.50 1.32 1.18 1.84 2.06
    0.79 1.57 2.98 0.34 1.30 1.20 1.40 2.65 1.48 2.68 1.85 1.45 0.98 2.52 2.04
    0.87 0.65 0.64 2.75 1.39 2.51 2.72 0.91 0.39 0.79 2.39 0.34 1.82 0.82 2.37
    1.59 1.78 1.09 1.53 0.42 2.49 2.75 2.33 1.64 2.58 0.31 2.10 2.37 1.18 2.61
    0.30 2.01 1.11 2.00 0.98 0.87 1.99 1.64 0.81 2.69 2.68 1.78 2.21 1.52 2.46
    2.55 2.36 0.96 0.37 2.08 1.41 2.71 2.62 1.74 1.32 2.23 2.22 2.14 2.57 1.86
    1.69 1.70 2.70 1.29 2.57 1.66 0.53 1.51 1.09 1.73 2.60 0.78 1.58 1.87 2.38
"""


def test_30x30_ces_certifies_at_the_start_point():
    # the polish of the search's start point certifies it in 12 iterations
    # (.03 s); a 100-iteration search and its polish take 110 (.35 s)
    w = np.array(WEIGHTS_30X30.split(), dtype=float).reshape(30, 30)
    res = solve_ces(Instance(tuple(CesForm(row, 0.5, 1.0) for row in w), 0.5))
    assert res.max_kkt_residual <= 1e-8
    assert res.iterations < 100


@pytest.mark.parametrize(
    "n, rho, sigma, max_iters",
    [(8, 0.5, 0.5, 100_000), (12, 0.5, 0.5, 100_000), (20, 0.5, 0.5, 100_000)]
    # the benchmark's refine markets: a short search, the refine does the work
    + [(8, 0.25, 0.5, 300), (10, 0.5, 0.3, 300), (12, 0.75, 0.7, 300)],
    ids=["8x8", "12x12", "20x20", "refine-8x8", "refine-10x10", "refine-12x12"],
)
def test_strictly_concave_markets_take_no_dense_step(n, rho, sigma, max_iters, lstsq_calls):
    # every block of these markets is negative definite and no coordinate
    # reaches the floor, so every Newton step is the agent-block one
    w = np.random.default_rng(0).uniform(0.3, 3.0, (n, n))
    inst = Instance(tuple(CesForm(row, sigma, 1.0) for row in w), rho)
    res = solve_ces(inst, max_iters=max_iters)
    assert res.max_kkt_residual <= 1e-8
    assert lstsq_calls == []


def _record_attempts(monkeypatch):
    """Patch the search to log each attempt's (budget, iterations searched)."""
    attempts = []
    search = solver._ellipsoid_phase

    def logged(stack, A, e, tolerance, budget):
        X, iters = search(stack, A, e, tolerance, budget)
        attempts.append((budget, iters))
        return X, iters

    monkeypatch.setattr(solver, "_ellipsoid_phase", logged)
    return attempts


def test_fall_through_matches_full_search(monkeypatch):
    # the attempts at 1 (the start point), 100, 400 and 1600 fail and the
    # search stalls at 5396 of 6400, so the solve ends with the full-budget
    # search and polish; the weights are default_rng(94).uniform(0.3, 3.0, (3, 4))
    weights = [
        [0.9471114989882476, 2.4294712209441713, 2.2495202874037576, 0.4236005884434136],
        [1.1895337099438013, 1.0077059197148908, 1.8235384727696557, 2.6943953606043487],
        [1.1250289616900708, 2.9247056633224715, 1.6464154958521817, 2.482220339991037],
    ]
    sigmas = [0.8, 1.0, 1.0]
    inst = Instance(tuple(CesForm(w, s, 1.0) for w, s in zip(weights, sigmas)), 0.25)
    attempts = _record_attempts(monkeypatch)
    res = solve_ces(inst)
    assert attempts == [(1, 1), (100, 100), (400, 400), (1600, 1600), (6400, 5396)]
    X, q, _ = _full_search_then_refine(ValuationStack(inst.valuations), inst.rho, 100_000)
    assert np.array_equal(res.allocation, X)
    assert np.array_equal(res.multipliers, q)
    assert res.iterations > 7497    # every attempt's iterations count


def test_search_stops_silently_when_the_ellipsoid_overflows():
    # about 50000 cuts grow the ellipsoid's matrix past the float range;
    # solve_ces certifies this market from an early attempt and never gets here
    weights = [
        [1.0655156731292452, 2.2924934933397583, 1.0388266656148417, 2.794322342230959],
        [0.6295434202204526, 1.4249982945663122, 2.2191240509073378, 2.935606411152862],
    ]
    stack = ValuationStack(tuple(Linear(w) for w in weights))
    A = np.tile(np.eye(4), (2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, iters = _ellipsoid_phase(stack, A, 0.25, 1e-8, 100_000)
    assert 40_000 < iters < 100_000
    assert np.all(np.isfinite(X)) and np.all(X.sum(axis=0) <= 1.0 + 1e-9)


def test_budget_below_first_attempt_is_start_point_then_full_search(monkeypatch):
    # the start point's polish fails here, and the next budget, 100, is cut
    # to max_iters, so the second attempt is the one full search and polish
    rng = np.random.default_rng(0)
    inst = Instance(tuple(Linear(w) for w in rng.uniform(0.3, 3.0, (3, 3))), 0.5)
    X, q, polished = _full_search_then_refine(ValuationStack(inst.valuations), inst.rho, 50)
    attempts = _record_attempts(monkeypatch)
    res = solve_ces(inst, max_iters=50)
    assert attempts == [(1, 1), (50, 50)]
    assert np.array_equal(res.allocation, X)
    assert np.array_equal(res.multipliers, q)
    assert res.iterations > 1 + 50 + polished    # the start point's polish counts


# Agent 1 keeps its valued goods on the support and agent 3 has a coordinate
# held at the floor.  The degree-1 market mixes three kinds, and its CES
# group is agents 0 and 3, so the stacked blocks must scatter back to them.
# The "level" market is solve_leontief's: unit-linear agents over their
# levels, packed by a weight matrix that is not an indicator.
NEWTON_MARKETS = {
    "ces-cd-0.7": (
        CesForm([1.0, 2.0, 0.5], 0.5, 0.7),
        CobbDouglas([0.3, 0.0, 0.4]),
        CesForm([0.8, 1.5, 0.0], 1.0, 0.7),
        CesForm([1.0, 0.3, 2.0], 0.6, 0.7),
    ),
    "linear-ces-cd-1": (
        CesForm([1.0, 2.0, 0.5], 0.6, 1.0),
        CobbDouglas([0.3, 0.0, 0.7]),
        Linear([0.8, 1.5, 0.0]),
        CesForm([1.0, 0.3, 2.0], 0.6, 1.0),
    ),
    "level": (Linear([1.0]),) * 4,
}


@pytest.mark.parametrize(
    "e, market",
    [pytest.param(e, "ces-cd-0.7", id=str(e)) for e in (0.5, 0.0, 1.0)]
    + [pytest.param(e, "linear-ces-cd-1", id=f"{e}-linear-ces-cd-1") for e in (0.5, 0.0, 1.0)]
    + [pytest.param(e, "level", id=f"{e}-level") for e in (0.25, 1.0)],
)
def test_newton_jacobian_matches_finite_differences(e, market):
    rng = np.random.default_rng(5)
    vals = NEWTON_MARKETS[market]
    stack = ValuationStack(vals)
    if market == "level":
        A = rng.uniform(0.3, 2.0, (4, 3))
        support = np.array([[True], [False], [True], [True]])
    else:
        A = np.tile(np.eye(3), (4, 1))
        support = np.stack([v.valued_goods() for v in vals]) & (rng.random((4, 3)) < 0.8)
        support[1] = vals[1].valued_goods()
    pr = np.array([0, 2])
    z = np.concatenate([rng.uniform(0.1, 0.6, int(support.sum())), [0.7, 1.3]])
    floored = int(np.flatnonzero(np.nonzero(support)[0] == 3)[0])
    z[floored] = 0.0  # held at the floor: F does not move with it
    J = _newton_jacobian(stack, A, e, support, pr, z)
    fd = np.empty_like(J)
    n_x = int(support.sum())
    for k in range(z.shape[0]):
        dz = np.zeros_like(z)
        dz[k] = 1e-14 if k == floored else 1e-6  # the floor sits at 1e-13
        if k >= n_x:
            # F is affine in q: a wide step is exact and keeps the rounding of
            # a floored level's huge marginal out of the difference quotient
            dz[k] = 0.1
        F_plus = _newton_residual(stack, A, e, support, pr, z + dz)
        F_minus = _newton_residual(stack, A, e, support, pr, z - dz)
        fd[:, k] = (F_plus - F_minus) / (2 * dz[k])
    assert not J[:, floored].any()
    np.testing.assert_allclose(J, fd, rtol=1e-5, atol=1e-5)


# Newton points for the block step: goods (or, in the level market,
# constraints) 0 and 2 priced, no coordinate at the floor.  Agent 2 of the
# degree-0.7 market is (0.8 x_0 + 1.5 x_1)**0.7, whose block is rank one on
# both goods, so it holds one of them.
BLOCK_SUPPORTS = {
    "ces-cd-0.7": [[0, 1, 1], [1, 0, 1], [0, 1, 0], [1, 1, 1]],
    "linear-ces-cd-1": [[0, 1, 1], [1, 0, 1], [0, 1, 0], [1, 1, 1]],
    "level": [[1], [0], [1], [1]],
}


def _newton_point(market, e):
    rng = np.random.default_rng(5)
    support = np.array(BLOCK_SUPPORTS[market], dtype=bool)
    A = rng.uniform(0.3, 2.0, (4, 3)) if market == "level" else np.tile(np.eye(3), (4, 1))
    z = np.concatenate([rng.uniform(0.1, 0.6, int(support.sum())), [0.7, 1.3]])
    return ValuationStack(NEWTON_MARKETS[market]), A, e, support, np.array([0, 2]), z


def _dense_step(stack, A, e, support, pr, z):
    F = _newton_residual(stack, A, e, support, pr, z)
    J = _newton_jacobian(stack, A, e, support, pr, z)
    return np.linalg.lstsq(J, -F, rcond=None)[0]


@contextlib.contextmanager
def _counted_lstsq():
    """The shapes of the matrices np.linalg.lstsq is called on in the block."""
    calls = []
    lstsq = np.linalg.lstsq

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return lstsq(a, *args, **kwargs)

    np.linalg.lstsq = counting
    try:
        yield calls
    finally:
        np.linalg.lstsq = lstsq


@pytest.fixture
def lstsq_calls():
    with _counted_lstsq() as calls:
        yield calls


def _assert_block_step_is_dense_step(case, lstsq_calls):
    F = _newton_residual(*case)
    dz, dense = _newton_step(*case, F, False)
    assert not dense and lstsq_calls == []
    ref = _dense_step(*case)
    assert np.abs(dz - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize(
    "market, e",
    [("ces-cd-0.7", 0.5), ("ces-cd-0.7", 0.0), ("level", 0.25)],
    ids=["0.5", "0.0", "0.25-level"],
)
def test_block_step_matches_dense_step(market, e, lstsq_calls):
    _assert_block_step_is_dense_step(_newton_point(market, e), lstsq_calls)


@pytest.mark.parametrize(
    "market, e, floored, dense",
    [
        ("ces-cd-0.7", 0.5, True, False),       # a zero column in J
        ("linear-ces-cd-1", 1.0, False, False),  # the linear agent's block is 0
        ("ces-cd-0.7", 0.5, False, True),       # an earlier step fell back
    ],
    ids=["floored", "linear-1", "sticky"],
)
def test_block_step_falls_back_to_least_squares(market, e, floored, dense, lstsq_calls):
    case = _newton_point(market, e)
    if floored:
        case[-1][0] = 0.0
    dz, fell_back = _newton_step(*case, _newton_residual(*case), dense)
    assert fell_back and len(lstsq_calls) == 1
    np.testing.assert_array_equal(dz, _dense_step(*case))


@st.composite
def strictly_concave_newton_points(draw):
    """A Newton point of a CES market with sigma < 1 at e < 1: every block is
    negative definite, and every priced good has a support coordinate."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 4))
    e = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75]))
    degree = draw(st.sampled_from([0.5, 0.75, 1.0]))
    vals = tuple(
        CesForm(
            draw(st.lists(st.floats(0.3, 3.0), min_size=m, max_size=m)),
            draw(st.sampled_from([0.3, 0.5, 0.7])),
            degree,
        )
        for _ in range(n)
    )
    flags = st.lists(st.booleans(), min_size=n * m, max_size=n * m)
    support = np.array(draw(flags)).reshape(n, m)
    support[0, 0] = True
    held = np.flatnonzero(support.any(axis=0))
    pr = held[draw(st.lists(st.booleans(), min_size=held.size, max_size=held.size))]
    n_x = int(support.sum())
    z = draw(st.lists(st.floats(0.05, 0.6), min_size=n_x, max_size=n_x))
    z += draw(st.lists(st.floats(0.3, 2.0), min_size=pr.size, max_size=pr.size))
    return ValuationStack(vals), _supply_rows(n, m), e, support, pr, np.array(z)


@settings(max_examples=100)
@given(strictly_concave_newton_points())
def test_block_step_matches_dense_step_property(case):
    with _counted_lstsq() as calls:
        _assert_block_step_is_dense_step(case, calls)


def test_newton_system_stops_at_a_zero_length_step(monkeypatch):
    # one support variable from z = .25 and every step dx = -1: the first
    # step is cut onto exactly 0, the next is cut to length 0, so the system
    # returns after two steps with x where the first cut left it
    calls = []

    def step(stack, A, e, support, pr, z, Fz, dense):
        calls.append(z.tobytes())
        return np.array([-1.0]), True

    monkeypatch.setattr(solver, "_newton_residual", lambda *args: args[-1] + 1.0)
    monkeypatch.setattr(solver, "_newton_step", step)
    support = np.array([[True]])
    X, q, steps = solver._newton_system(
        ValuationStack((Linear([1.0]),)), _supply_rows(1, 1), 0.5, support,
        np.array([False]), np.array([[0.25]]),
    )
    assert steps == 2
    assert calls == [np.array([0.25]).tobytes(), np.array([0.0]).tobytes()]
    assert X.tobytes() == np.zeros((1, 1)).tobytes() and q.tobytes() == bytes(8)


def _record_newton_steps(mp):
    """Patch the solver so that each Newton system adds a list to the result
    and each of its steps adds the bytes of the z it steps from."""
    systems = []
    newton_system, newton_step = solver._newton_system, solver._newton_step

    def system(*args):
        systems.append([])
        return newton_system(*args)

    def step(stack, A, e, support, pr, z, Fz, dense):
        systems[-1].append(z.tobytes())
        return newton_step(stack, A, e, support, pr, z, Fz, dense)

    mp.setattr(solver, "_newton_system", system)
    mp.setattr(solver, "_newton_step", step)
    return systems


def _assert_no_step_repeats(systems):
    """No Newton system steps twice in a row from a byte-equal z, as it
    would after a step that moved nothing."""
    assert systems
    for points in systems:
        assert all(a != b for a, b in zip(points, points[1:]))


def test_linear_refine_takes_no_zero_length_step(monkeypatch):
    # the benchmark ladder's 4x4 linear market at rho .5, seed 1: its support
    # coordinates reach zero and the dense step points below them
    weights = [
        [2.512992141622048, 2.144874646208794, 2.4251617421979628, 0.8173638993543653],
        [2.466383235063231, 0.8165746003544407, 0.5201920668814843, 2.6091128305750892],
        [2.625465439679705, 2.6666501603247674, 1.5741562422687336, 1.0399306492570395],
        [0.3191479372285489, 2.0434464180523593, 2.2437553354734714, 2.5560368845507404],
    ]
    systems = _record_newton_steps(monkeypatch)
    res = solve_ces(Instance(tuple(Linear(w) for w in weights), 0.5))
    assert res.max_kkt_residual <= 1e-8
    _assert_no_step_repeats(systems)


@st.composite
def newton_markets(draw):
    """A linear, CES or Leontief market, 2 to 4 agents and goods."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 4))
    kind = draw(st.sampled_from([Linear, CesForm, Leontief]))
    weights = st.lists(st.floats(0.3, 3.0), min_size=m, max_size=m)
    if kind is CesForm:
        sigma = draw(st.sampled_from([0.4, 0.6, 1.0]))
        vals = tuple(CesForm(draw(weights), sigma, 1.0) for _ in range(n))
    else:
        vals = tuple(kind(draw(weights)) for _ in range(n))
    return Instance(vals, draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])))


@settings(max_examples=50)
@given(newton_markets())
def test_newton_takes_no_zero_length_step_property(inst):
    solve = solve_leontief if isinstance(inst.valuations[0], Leontief) else solve_ces
    with pytest.MonkeyPatch.context() as mp:
        systems = _record_newton_steps(mp)
        # some linear markets with tied weights do not certify at rho = 1;
        # their Newton steps must not repeat either
        with contextlib.suppress(DidNotConverge):
            solve(inst)
    _assert_no_step_repeats(systems)


def test_kkt_residual_flags_suboptimal_points():
    inst = water_instance(0.5)
    x_opt = np.array([[1.0 / 12.0], [0.5], [5.0 / 12.0]])
    q = extract_multipliers(inst, x_opt)
    assert kkt_residual(inst.valuations, 0.5, x_opt, q) <= 1e-9
    x_bad = np.array([[0.4], [0.3], [0.3]])
    assert kkt_residual(inst.valuations, 0.5, x_bad, q) > 0.01
    # good 1 is unpriced, valued by nobody and oversubscribed by 0.4
    X = np.array([[0.5, 0.7], [0.5, 0.7]])
    res = kkt_residual((Linear([1.0, 0.0]),) * 2, 1.0, X, np.array([1.0, 0.0]))
    assert res == pytest.approx(0.4)
    # the level market of solve_leontief: levels packed by its weights
    W = np.array([[1.0, 2.0], [2.0, 0.5], [1.0, 1.0]])
    out = solve_leontief(Instance(tuple(Leontief(w) for w in W), 0.5))
    level = (Linear([1.0]),) * 3
    Z = out.alphas[:, None]
    assert kkt_residual(level, 0.5, Z, out.multipliers, W) <= 1e-8
    assert kkt_residual(level, 0.5, 1.01 * Z, out.multipliers, W) > 1e-3


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


def _naive_splits(resolution, n):
    """One good's splits among n agents, in lexicographic order."""
    return [c for c in itertools.product(range(resolution + 1), repeat=n) if sum(c) == resolution]


def _naive_oracle(inst, resolution):
    """First best grid point, and its objective, by enumerating the product grid."""
    splits = _naive_splits(resolution, inst.n)
    points = np.array(list(itertools.product(splits, repeat=inst.m))).transpose(0, 2, 1)
    points = points / resolution                                  # (points, n, m)
    obj = sum(v.values_batch(points[:, i]) ** inst.rho for i, v in enumerate(inst.valuations))
    obj = obj / inst.rho
    k = int(np.argmax(obj))
    return points[k], obj[k]


@pytest.mark.parametrize("total, parts", [(0, 3), (5, 1), (7, 2), (6, 3), (4, 5), (0, 1)])
def test_compositions_match_lexicographic_enumeration(total, parts):
    splits = np.array(_naive_splits(total, parts))
    np.testing.assert_array_equal(solver._compositions(total, parts), splits)
    K = len(splits)
    # any range is the same rows of the full list: empty (at the front, in
    # the middle, past the end), one row, clipped by a stop past the end,
    # and interior spans
    for start, stop in [(0, 0), (K // 2, K // 2), (K + 2, K + 5), (0, 1), (K - 1, K),
                        (K // 2, K // 2 + 1), (K - 1, K + 4), (1, None), (K // 3, 2 * K // 3 + 1)]:
        rows = solver._compositions(total, parts, start, stop)
        assert rows.shape == (len(range(K)[start:stop]), parts)
        np.testing.assert_array_equal(rows, splits[start:stop])
        assert rows.flags.f_contiguous


@pytest.mark.parametrize(
    "weights, resolution",
    [
        ([1.0, 6.0, 5.0], 2000),      # the demo first-welfare grid: 2,003,001 splits
        ([1.0, 6.0, 5.0, 2.0], 200),  # 1,373,701 splits
    ],
)
def test_grid_oracle_memory_is_a_few_blocks(weights, resolution):
    # all 2,003,001 splits of the first at once would take about 180 MB
    inst = Instance(tuple(Linear([w]) for w in weights), 1.0)
    tracemalloc.start()
    try:
        X = grid_oracle(inst, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(X[:, 0], np.eye(len(weights))[1])
    assert peak < 16 * 2**20


@pytest.mark.parametrize("chunk", [1 << 18, 2])
@pytest.mark.parametrize(
    "weights, rho, expected",
    [
        # every split ties exactly, so the first split of every good wins
        ([1.0], 1.0, [[0.0], [1.0]]),
        ([1.0, 1.0], 1.0, [[0.0, 0.0], [1.0, 1.0]]),
        # the tie is agent 0 holding 1.5 in all: the first such point
        ([1.0, 1.0, 1.0], 0.5, [[0.0, 0.5, 1.0], [1.0, 0.5, 0.0]]),
    ],
)
def test_grid_oracle_breaks_ties_lexicographically(monkeypatch, chunk, weights, rho, expected):
    monkeypatch.setattr(solver, "_ORACLE_CHUNK", chunk)
    inst = Instance((Linear(weights), Linear(weights)), rho)
    np.testing.assert_array_equal(grid_oracle(inst, 4), expected)


# (market, resolution): K = 7 splits per good for the 2x3 market, 21 for
# the 3x2 one
ORACLE_MARKETS = [
    (Instance((Linear([1.0, 2.0, 0.5]), Linear([1.5, 0.5, 1.0])), 0.5), 6),
    (
        Instance(
            (CesForm([1.0, 2.0], 0.5, 1.0), CesForm([2.0, 0.7], 0.6, 1.0), Linear([1.2, 1.1])),
            0.75,
        ),
        5,
    ),
]


# The chunk sets s, the trailing goods enumerated once (the most, short
# of m, with K**s <= chunk), and the run of splits of good m - s - 1 that
# one block walks; the default chunk scores each market in one block.
@pytest.mark.parametrize(
    "market, chunk",
    [
        (0, 343),   # s = 2, runs of 7: one block
        (0, 100),   # s = 2, runs of 2, the last one short
        (0, 20),    # s = 1, runs of 2 under each split of good 0
        (0, 10),    # s = 1, runs of 1
        (0, 5),     # s = 0, K > chunk: runs of 5 under each split of goods 0, 1
        (1, 30),    # s = 1, runs of 1
        (1, 20),    # s = 0, runs of 20, the last one short
    ],
)
def test_grid_oracle_blocks_match_naive_enumeration(monkeypatch, market, chunk):
    inst, resolution = ORACLE_MARKETS[market]
    X = grid_oracle(inst, resolution)
    best, best_obj = _naive_oracle(inst, resolution)
    np.testing.assert_array_equal(X, best)
    obj = sum(v.values_batch(X[i][None]) ** inst.rho for i, v in enumerate(inst.valuations))
    assert float(obj[0] / inst.rho) == best_obj
    monkeypatch.setattr(solver, "_ORACLE_CHUNK", chunk)
    rows = _counted_rows(monkeypatch, inst)
    assert grid_oracle(inst, resolution).tobytes() == X.tobytes()
    # each agent is scored once per bundle it can hold in a block, at most
    # `chunk` rows at a time
    assert sum(rows) == _table_rows(inst.n, inst.m, resolution, chunk)
    assert max(rows) <= chunk


def _counted_rows(monkeypatch, inst):
    """The row count of each values_batch call on the instance's kinds."""
    rows = []
    for cls in {type(v) for v in inst.valuations}:
        monkeypatch.setattr(
            cls, "values_batch", lambda v, Z, f=cls.values_batch: rows.append(len(Z)) or f(v, Z)
        )
    return rows


def _table_rows(n, m, resolution, chunk):
    """Bundles the oracle values: per block and agent, the agent's distinct
    units of the run good times every vector of units it can hold in the
    trailing goods."""
    splits = _naive_splits(resolution, n)
    K = len(splits)
    s = max(t for t in range(m) if K**t <= chunk)
    step = min(K, chunk // K**s)
    rows = 0
    for i in range(n):
        trail = len({c[i] for c in splits}) ** s
        for start in range(0, K, step):
            rows += len({c[i] for c in splits[start : start + step]}) * trail
    return K ** (m - s - 1) * rows


def test_grid_oracle_values_far_fewer_bundles_than_points(monkeypatch):
    # the oracle benchmark's 3x2 CES shape: K = 1891 splits per good, so
    # blocks of 34 splits of good 0 over all 1891 of good 1, 56 blocks
    weights = ([1.0, 2.0], [2.0, 0.7], [1.2, 1.1])
    inst = Instance(tuple(CesForm(w, 0.5, 1.0) for w in weights), 0.75)
    rows = _counted_rows(monkeypatch, inst)
    grid_oracle(inst, 60)
    # 215,330 rows: each agent's distinct units of good 0 in a block times
    # the 61 of good 1, about 50x fewer than scoring every point
    # (3 * 1891**2 = 10,727,643 rows)
    assert sum(rows) == _table_rows(3, 2, 60, solver._ORACLE_CHUNK)
    assert 40 * sum(rows) < 3 * 1891**2
    # with two agents every split is a distinct bundle: one row per point
    inst, resolution = ORACLE_MARKETS[0]
    rows = _counted_rows(monkeypatch, inst)
    grid_oracle(inst, resolution)
    assert sum(rows) == 2 * 7**3


@st.composite
def oracle_markets(draw):
    """A small degree-1 market with a grid of at most 600 points; its agents
    are sometimes all one valuation, so that grid points tie exactly."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    top = max(r for r in range(1, 9) if math.comb(r + n - 1, n - 1) ** m <= 600)
    resolution = draw(st.integers(1, top))
    weights = st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=m, max_size=m)

    def valuation():
        kind = draw(st.sampled_from(["linear", "ces", "cobb-douglas", "leontief"]))
        w = np.array(draw(weights))
        if kind == "linear":
            return Linear(w)
        if kind == "ces":
            return CesForm(w, draw(st.sampled_from([0.4, 0.6, 1.0])), 1.0)
        if kind == "cobb-douglas":
            return CobbDouglas(w / w.sum())
        return Leontief(w)

    first = valuation()
    same = draw(st.booleans())
    vals = (first,) + tuple(first if same else valuation() for _ in range(n - 1))
    return Instance(vals, draw(st.sampled_from([0.25, 0.5, 1.0]))), resolution


@settings(max_examples=100)
@given(oracle_markets(), st.sampled_from([1, 2, 7, 60, None]))
def test_grid_oracle_matches_naive_enumeration_property(market, chunk):
    inst, resolution = market
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(solver, "_ORACLE_CHUNK", chunk)
        X = grid_oracle(inst, resolution)
    assert X.tobytes() == _naive_oracle(inst, resolution)[0].tobytes()


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


def _assert_payment_identity(inst, res):
    """The induced rule charges each agent rho * v_i, to rounding."""
    rule = make_pricing_rule(res.multipliers, inst.rho, 1.0)
    for i in range(inst.n):
        assert abs(rule.price(res.allocation[i]) - inst.rho * res.alphas[i]) <= 1e-12


def test_leontief_multipliers_satisfy_payment_identity():
    # draw 23 binds more goods than agents at rho = 1 after the search
    rng = np.random.default_rng(0)
    for _ in range(30):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        rho = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        inst = Instance(tuple(Leontief(rng.uniform(0.3, 2.0, m)) for _ in range(n)), rho)
        _assert_payment_identity(inst, solve_leontief(inst))


# Leontief markets that once failed to certify, each with the reason
STALLED_LEONTIEF = [
    # the tied agent 0 was left at alpha 9.7e-7, counted as active
    (1.0, [[1.0], [0.5], [0.5]]),
    (1.0, [[1.2012436058959137], [1.0], [1.0]]),
    (1.0, [[1.0], [1.5239214129139889], [1.0]]),
    (0.5, [[0.9157353936054806, 0.0, 0.0], [0.0, 1.3868895782008253, 1.3862222905454564]]),
    # releasing good 0, the idle agent 0's only constraint, leaves it unpriced
    (1.0, [[1.0, 0.0], [0.5, 0.5]]),
    # identical agents: two priced goods, but their usage rows have rank 1
    (0.25, [[1.3137991892148941, 1.3125], [1.3137991892148941, 1.3125]]),
    # a rho = 1 vertex where agent 1 is starved and good 0 ends unpriced
    # and oversubscribed until the refine prices it again
    (1.0, [[1.5, 0.0, 1.4320068692783616, 0.5], [1.0, 0.31376299786676265, 0.0, 1.0]]),
    # needs the 1e-13 Newton target: at 1e-12 its payment gap is 1.4e-12
    (0.75, [[0.0, 0.375], [1.1673767338595415, 0.0], [0.0, 0.375], [0.0, 0.375]]),
    # two draws of the Leontief sweep, each the one where a refine rule
    # fires: a multiplier turns negative (unprice), and the search point
    # nearly saturates more goods than there are agents with alpha_i > 0
    (
        0.25,
        [
            [1.5115486493044903, 1.7030497805100684, 1.8649723064938137, 0.5097484042718763],
            [0.4560768523577361, 1.9793816891391072, 0.4984860246727001, 0.6005728505327232],
            [1.2774199875093324, 1.0586641616923789, 1.575666725257316, 0.6239473218687928],
            [1.854527194651863, 0.6692312387231282, 1.6074886833172877, 0.4149259929659031],
            [1.104784399187181, 0.35534915529682803, 0.833478200875075, 0.8307921460975494],
        ],
    ),
    (
        1.0,
        [
            [0.3372776236357561, 1.3445965595497336, 0.47360882708771135,
             0.36589956419213254, 1.7699504794062135, 1.7377642934436055],
            [1.8629640219507417, 0.4716454438344283, 0.8281092585721435,
             0.6265165575299313, 0.8601771599110144, 0.5254071090674857],
            [1.216979706355986, 1.672472269814415, 1.9318902485758576,
             1.6665499883207544, 1.1140828447309299, 0.9146779161060155],
        ],
    ),
]
STALLED_IDS = [
    "tie-1-half-half",
    "rho1-three-agents",
    "rho1-middle-wins",
    "rho-half-zero-weights",
    "rho1-idle-agent-keeps-its-good",
    "identical-agents-rank-one",
    "rho1-vertex-reprices-good-0",
    "payment-gap-at-newton-stop",
    "unprice-7-30",
    "release-3-118",
]


@pytest.mark.parametrize(
    "rho, W",
    STALLED_LEONTIEF
    # the full search stalls the refine at alpha (0, .4615, 0, 0), residual
    # .769; the second attempt's point certifies
    + [(1.0, [[2.5, 2.0, 1.5], [0.5, 0.5, 2.5], [1.5, 1.5, 1.0], [1.5, 2.0, 1.5]])],
    ids=STALLED_IDS + ["rho1-full-search-stalls"],
)
def test_leontief_markets_that_stalled_certify(rho, W):
    inst = Instance(tuple(Leontief(w) for w in W), rho)
    _assert_payment_identity(inst, solve_leontief(inst))


@pytest.mark.parametrize("rho, W", STALLED_LEONTIEF, ids=STALLED_IDS)
def test_leontief_full_search_then_refine_certifies(rho, W):
    # early attempts certify most of these markets before the refine rules
    # they pin can fire; the full-budget search keeps those rules covered
    W = np.asarray(W)
    level = ValuationStack((Linear([1.0]),) * W.shape[0])
    Z, q, _ = _full_search_then_refine(level, rho, 100_000, W)
    assert kkt_residual(level.valuations, rho, Z, q, W) <= 1e-8
    inst = Instance(tuple(Leontief(w) for w in W), rho)
    out = SimpleNamespace(alphas=Z[:, 0], allocation=W * Z, multipliers=q)
    _assert_payment_identity(inst, out)


@pytest.mark.parametrize("n, rho", [(3, 1.0), (4, 0.75), (5, 0.5), (6, 0.25)])
def test_leontief_certifies_from_an_early_attempt(n, rho):
    # the one full-budget search took 711, 709, 778 and 1018 iterations
    W = np.random.default_rng(0).uniform(0.3, 3.0, (n, n))
    res = solve_leontief(Instance(tuple(Leontief(w) for w in W), rho))
    assert res.iterations < 400


@st.composite
def leontief_markets(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    rho = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    weight = st.one_of(st.just(0.0), st.floats(0.3, 2.0))
    row = st.lists(weight, min_size=m, max_size=m).filter(any)
    return Instance(tuple(Leontief(draw(row)) for _ in range(n)), rho)


@settings(max_examples=50)
@given(leontief_markets())
def test_leontief_solve_certifies_property(inst):
    res = solve_leontief(inst)    # raises DidNotConverge unless certified
    _assert_payment_identity(inst, res)
    W = np.stack([v.weights for v in inst.valuations])
    assert np.all(W.T @ res.alphas <= 1.0 + 1e-9)


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
