"""Shared builders for the test suite.

Random instances are drawn from a seeded generator so every run sees the
same cases.  All agents of an instance share one homogeneity degree; kinds
are chosen so the degree constraint stays satisfiable (linear only at
degree 1, power only for one good).  Property tests run under a
derandomized Hypothesis profile: every run draws the same examples and
keeps no example database.
"""

import numpy as np
import pytest
from hypothesis import settings

from cesmarket import CesForm, CobbDouglas, Instance, Linear, Power

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")

RHO_CHOICES = (0.25, 0.5, 0.75, 1.0)


def random_valuation(rng, m, degree, kind=None):
    if kind is None:
        options = ["ces", "cobb-douglas"]
        if degree == 1.0:
            options.append("linear")
        if m == 1:
            options.append("power")
        kind = options[int(rng.integers(0, len(options)))]
    if kind == "linear":
        return Linear(rng.uniform(0.3, 3.0, m))
    if kind == "power":
        return Power(float(rng.uniform(0.3, 3.0)), degree)
    if kind == "cobb-douglas":
        e = rng.uniform(0.2, 1.0, m)
        e = e / e.sum() * degree
        return CobbDouglas(e, scale=float(rng.uniform(0.5, 2.0)))
    if kind == "ces":
        sigma = float(rng.choice([0.4, 0.6, 1.0]))
        return CesForm(rng.uniform(0.3, 3.0, m), sigma, degree)
    raise ValueError(kind)


def random_instance(rng, n=None, m=None, rho=None, degree=None):
    if n is None:
        n = int(rng.integers(1, 6))
    if m is None:
        m = int(rng.integers(1, 4))
    if rho is None:
        rho = float(rng.choice(RHO_CHOICES))
    if degree is None:
        degree = float(rng.choice([1.0, 0.5, 0.75]))
    vals = tuple(random_valuation(rng, m, degree) for _ in range(n))
    return Instance(vals, rho)


def water_instance(rho):
    """One good, linear weights (1, 6, 5)."""
    return Instance((Linear([1.0]), Linear([6.0]), Linear([5.0])), rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
