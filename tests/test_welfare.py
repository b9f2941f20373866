"""Welfare aggregates and the gradient-only objective form."""

import math

import numpy as np
import pytest

from cesmarket import (
    BadParameter,
    BoundaryGradient,
    DimensionMismatch,
    DomainError,
    Instance,
    Linear,
    WelfareParams,
    ces_objective,
    ces_welfare,
    nash_objective,
    objective_and_gradient_via_val_gradients,
)

from conftest import random_instance


def test_params_validation():
    WelfareParams(0.5)
    WelfareParams(-2.0)
    WelfareParams(1.0, multipliers=[1.0, 2.0])
    with pytest.raises(BadParameter):
        WelfareParams(0.0)
    with pytest.raises(BadParameter):
        WelfareParams(1.5)
    with pytest.raises(BadParameter):
        WelfareParams(math.nan)
    with pytest.raises(BadParameter):
        WelfareParams(0.5, multipliers=[0.0, 0.0])
    with pytest.raises(BadParameter):
        WelfareParams(0.5, multipliers=[-1.0, 1.0])
    with pytest.raises(DimensionMismatch, match="multipliers must be a vector"):
        WelfareParams(0.5, multipliers=[[1.0, 2.0]])


def test_ces_welfare_values():
    assert ces_welfare(WelfareParams(1.0), [1.0, 6.0, 5.0]) == 12.0
    assert ces_welfare(WelfareParams(0.5), [0.25] * 4) == pytest.approx(4.0)
    # weighted: (2*4^0.5)^2 = 16
    p = WelfareParams(0.5, multipliers=[2.0])
    assert ces_welfare(p, [4.0]) == pytest.approx(16.0)


def test_ces_welfare_single_good_closed_form():
    # best split of one unit across linear agents w: Phi* has a closed form
    w = np.array([1.1, 1.0, 1.0, 1.0])
    rho = 0.5
    e = rho / (1.0 - rho)
    shares = w**e / (w**e).sum()
    phi = ces_welfare(WelfareParams(rho), w * shares)
    expected = float((w ** (rho / (1 - rho))).sum() ** ((1 - rho) / rho))
    assert phi == pytest.approx(expected, rel=1e-12)
    assert phi == pytest.approx(4.1, abs=5e-3)


def test_ces_objective_values():
    assert ces_objective(WelfareParams(1.0), [1.0, 6.0, 5.0]) == 12.0
    assert ces_objective(WelfareParams(0.5), [4.0]) == pytest.approx(4.0)
    # monotone transform of welfare: (1/rho) * Phi^rho
    v = [0.3, 0.9, 1.4]
    for rho in (0.25, 0.5, 1.0, -1.0):
        p = WelfareParams(rho)
        assert ces_objective(p, v) == pytest.approx(
            ces_welfare(p, v) ** rho / rho, rel=1e-12
        )


def test_domain_errors():
    with pytest.raises(DomainError):
        ces_welfare(WelfareParams(-1.0), [1.0, 0.0])
    with pytest.raises(DomainError):
        ces_welfare(WelfareParams(0.5), [1.0, -0.5])
    with pytest.raises(DomainError):
        ces_objective(WelfareParams(0.5), [np.inf])
    with pytest.raises(DimensionMismatch):
        ces_welfare(WelfareParams(0.5), [])
    with pytest.raises(DimensionMismatch):
        ces_welfare(WelfareParams(0.5, multipliers=[1.0, 1.0]), [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch, match="values must be a vector"):
        ces_welfare(WelfareParams(0.5), [[1.0, 2.0]])


def test_nash_objective():
    assert nash_objective(None, [1.0, 1.0]) == 0.0
    assert nash_objective(None, [math.e, math.e]) == pytest.approx(2.0)
    assert nash_objective([1.0, 2.0], [1.0, math.e]) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        nash_objective(None, [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        nash_objective([1.0], [1.0, 2.0])
    for values in ([], [[1.0, 2.0]]):
        with pytest.raises(DimensionMismatch, match="nonempty vector"):
            nash_objective(None, values)


def test_scale_covariance(rng):
    for _ in range(30):
        rho = float(rng.choice([0.25, 0.5, 1.0, -1.0]))
        v = rng.uniform(0.1, 3.0, int(rng.integers(1, 6)))
        lam = float(rng.uniform(0.2, 5.0))
        p = WelfareParams(rho)
        assert ces_welfare(p, lam * v) == pytest.approx(
            lam * ces_welfare(p, v), rel=1e-10
        )


def test_equal_split_dominates_for_curved_rho(rng):
    for _ in range(30):
        rho = float(rng.choice([0.25, 0.5, 0.75, -1.0]))
        n = int(rng.integers(2, 6))
        v = rng.uniform(0.1, 2.0, n)
        equal = np.full(n, v.sum() / n)
        p = WelfareParams(rho)
        assert ces_welfare(p, equal) >= ces_welfare(p, v) - 1e-10


def test_gradient_only_objective_linear_single_good():
    inst = Instance((Linear([6.0]),), 1.0)
    obj, grad = objective_and_gradient_via_val_gradients(inst, np.array([[1.0]]))
    assert obj == 6.0
    assert grad[0, 0] == 6.0


def test_gradient_only_objective_matches_direct(rng):
    for _ in range(40):
        inst = random_instance(rng, n=int(rng.integers(1, 5)), m=int(rng.integers(1, 4)))
        X = rng.uniform(0.05, 1.0 / inst.n, (inst.n, inst.m))
        obj, grad = objective_and_gradient_via_val_gradients(inst, X)
        vals = inst.values_at(X)
        direct = ces_objective(WelfareParams(inst.rho), vals)
        assert obj == pytest.approx(direct, rel=1e-8)
        # gradient against central differences of the direct objective
        h = 1e-6
        for _check in range(3):
            i = int(rng.integers(0, inst.n))
            j = int(rng.integers(0, inst.m))
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += h
            Xm[i, j] -= h
            fd = (
                ces_objective(WelfareParams(inst.rho), inst.values_at(Xp))
                - ces_objective(WelfareParams(inst.rho), inst.values_at(Xm))
            ) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_gradient_only_objective_errors():
    inst = Instance((Linear([1.0, 0.0]), Linear([0.0, 1.0])), 0.5)
    with pytest.raises(DomainError):
        # agent 0 holds nothing it values, so its implied value is zero
        objective_and_gradient_via_val_gradients(
            inst, np.array([[0.0, 0.5], [0.0, 0.5]])
        )
    from cesmarket import CobbDouglas

    curved = Instance((CobbDouglas([0.5, 0.5]),), 0.5)
    with pytest.raises(BoundaryGradient):
        objective_and_gradient_via_val_gradients(curved, np.array([[0.0, 1.0]]))
    with pytest.raises(DimensionMismatch, match="one multiplier per agent"):
        objective_and_gradient_via_val_gradients(
            inst, np.array([[0.5, 0.5], [0.5, 0.5]]), multipliers=[1.0]
        )
