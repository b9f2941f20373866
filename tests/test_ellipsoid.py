"""Ellipsoid engine checks."""

import numpy as np
import pytest

from cesmarket.ellipsoid import ellipsoid_minimize


def test_ellipsoid_on_quadratic():
    # min (x - t)^2 over the simplex {x >= 0, sum <= 1}, t inside
    t = np.array([0.3, 0.1, 0.25])

    def objective(x):
        return float(np.sum((x - t) ** 2)), 2.0 * (x - t)

    best_x, best_f, iters = ellipsoid_minimize(
        objective, np.ones((3, 1)), tolerance=1e-12, max_iters=20_000
    )
    assert best_f <= 1e-8
    np.testing.assert_allclose(best_x, t, atol=1e-4)


def test_ellipsoid_constrained_optimum_on_face():
    # min -(x0 + 2 x1) s.t. x >= 0, sum <= 1: optimum at (0, 1)
    def objective(x):
        return float(-(x[0] + 2.0 * x[1])), np.array([-1.0, -2.0])

    best_x, best_f, _ = ellipsoid_minimize(
        objective, np.ones((2, 1)), tolerance=1e-12, max_iters=20_000
    )
    assert best_f == pytest.approx(-2.0, abs=1e-6)
    np.testing.assert_allclose(best_x, [0.0, 1.0], atol=1e-5)


def test_ellipsoid_one_dimension_bisects():
    def objective(x):
        return float((x[0] - 0.4) ** 2), np.array([2.0 * (x[0] - 0.4)])

    best_x, best_f, _ = ellipsoid_minimize(
        objective, np.ones((1, 1)), tolerance=1e-14, max_iters=5_000
    )
    assert abs(best_x[0] - 0.4) <= 1e-6


def test_stall_window_ends_run_without_progress():
    # the first evaluation sets the best value; the run ends once 50 more
    # per variable bring no progress
    calls = {"n": 0}
    t = np.array([0.3, 0.1])

    def objective(x):
        calls["n"] += 1
        return 1.0, 2.0 * (x - t)  # constant value: no progress ever

    best_x, best_f, iters = ellipsoid_minimize(
        objective, np.ones((2, 1)), tolerance=1e-9, max_iters=100_000
    )
    assert best_f == 1.0
    assert calls["n"] == 1 + 50 * 2
    assert iters < 100_000


def test_start_is_feasible_when_users_overload_a_good():
    # three agents each able to use a whole good on their own: half of every
    # cap (the old start) would use 3/2 of each good
    A = np.ones((3, 2))
    seen = []

    def objective(z):
        seen.append(z.copy())
        return -float(np.sqrt(np.maximum(z, 0.0)).sum()), -0.5 / np.sqrt(np.maximum(z, 1e-9))

    best_x, best_f, _ = ellipsoid_minimize(objective, A, tolerance=1e-10, max_iters=5_000)
    assert np.all(seen[0] >= 0.0) and np.all(A.T @ seen[0] <= 0.5)
    assert best_x is not None and np.isfinite(best_f)
    assert np.all(A.T @ best_x <= 1.0 + 1e-12)
    np.testing.assert_allclose(best_x, np.full(3, 1.0 / 3.0), atol=1e-3)
