"""Ellipsoid engine checks."""

import numpy as np
import pytest

from cesmarket.ellipsoid import ellipsoid_minimize


def test_ellipsoid_on_quadratic():
    # min (x - t)^2 over the box via nonnegativity separation, t feasible
    t = np.array([0.3, 0.1, 0.25])

    def objective(x):
        return float(np.sum((x - t) ** 2)), 2.0 * (x - t)

    def separation(x):
        for j in range(3):
            if x[j] < 0:
                a = np.zeros(3)
                a[j] = -1.0
                return a
        if x.sum() > 1.0:
            return np.ones(3)
        return None

    best_x, best_f, iters = ellipsoid_minimize(
        objective,
        separation,
        center=np.full(3, 1.0 / 6.0),
        radius=2.0,
        tolerance=1e-12,
        max_iters=20_000,
        stall_window=400,
    )
    assert best_f <= 1e-8
    np.testing.assert_allclose(best_x, t, atol=1e-4)


def test_ellipsoid_constrained_optimum_on_face():
    # min -(x0 + 2 x1) s.t. x >= 0, sum <= 1: optimum at (0, 1)
    def objective(x):
        return float(-(x[0] + 2.0 * x[1])), np.array([-1.0, -2.0])

    def separation(x):
        if x[0] < 0:
            return np.array([-1.0, 0.0])
        if x[1] < 0:
            return np.array([0.0, -1.0])
        if x.sum() > 1.0:
            return np.ones(2)
        return None

    best_x, best_f, _ = ellipsoid_minimize(
        objective,
        separation,
        center=np.full(2, 0.25),
        radius=2.0,
        tolerance=1e-12,
        max_iters=20_000,
        stall_window=400,
    )
    assert best_f == pytest.approx(-2.0, abs=1e-6)
    np.testing.assert_allclose(best_x, [0.0, 1.0], atol=1e-5)


def test_ellipsoid_one_dimension_bisects():
    def objective(x):
        return float((x[0] - 0.4) ** 2), np.array([2.0 * (x[0] - 0.4)])

    def separation(x):
        if x[0] < 0:
            return np.array([-1.0])
        if x[0] > 1:
            return np.array([1.0])
        return None

    best_x, best_f, _ = ellipsoid_minimize(
        objective,
        separation,
        center=np.array([0.5]),
        radius=1.0,
        tolerance=1e-14,
        max_iters=5_000,
        stall_window=200,
    )
    assert abs(best_x[0] - 0.4) <= 1e-6


def test_stall_window_ends_run_without_progress():
    calls = {"n": 0}

    def objective(x):
        calls["n"] += 1
        return 1.0, np.array([1.0, 0.0])  # constant value: no progress ever

    best_x, best_f, iters = ellipsoid_minimize(
        objective,
        lambda x: None,
        center=np.zeros(2),
        radius=1.0,
        tolerance=1e-9,
        max_iters=100_000,
        stall_window=25,
    )
    assert best_f == 1.0
    assert calls["n"] <= 30
