"""Valuation kinds: values, gradients, homogeneity, JSON round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cesmarket import (
    BadParameter,
    BoundaryGradient,
    CesForm,
    CobbDouglas,
    DimensionMismatch,
    Leontief,
    Linear,
    NotDifferentiable,
    Power,
    euler_residual,
)
from cesmarket.solver import _compositions
from cesmarket.valuations import DEGREE_TOL, ValuationStack, as_bundle, from_json

from conftest import random_valuation


def fd_gradient(v, x, h=1e-6):
    """Central-difference gradient oracle (interior points only)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (v.value(x + e) - v.value(x - e)) / (2 * h)
    return g


# -- values -------------------------------------------------------------------


def test_linear_value():
    assert Linear([6.0]).value([1.0]) == 6.0
    assert Linear([1.0, 2.0]).value([0.5, 0.25]) == 1.0


def test_cobb_douglas_value():
    v = CobbDouglas([0.5, 0.5])
    assert v.value([0.25, 1.0]) == pytest.approx(0.5, abs=1e-12)
    assert v.value([0.0, 1.0]) == 0.0


def test_leontief_value():
    v = Leontief([1.0, 2.0])
    assert v.value([0.5, 0.6]) == pytest.approx(0.3, abs=1e-12)
    # zero-weight goods are ignored by the min
    assert Leontief([1.0, 0.0]).value([0.5, 0.0]) == 0.5


def test_power_value():
    v = Power(2.0, 0.5)
    assert v.value([0.25]) == pytest.approx(1.0, abs=1e-12)
    assert v.value([0.0]) == 0.0


def test_ces_value():
    v = CesForm([1.0, 1.0], 0.5, 1.0)
    assert v.value([0.25, 0.25]) == pytest.approx(1.0, abs=1e-12)
    # sigma = degree = 1 reduces to linear
    w = CesForm([2.0, 3.0], 1.0, 1.0)
    assert w.value([1.0, 1.0]) == pytest.approx(5.0, abs=1e-12)


def test_value_zero_bundle_is_zero(rng):
    for _ in range(20):
        m = int(rng.integers(1, 4))
        v = random_valuation(rng, m, float(rng.choice([1.0, 0.5, 0.75])))
        assert v.value(np.zeros(m)) == 0.0


# -- gradients ----------------------------------------------------------------


def test_linear_gradient_constant():
    v = Linear([1.0, 2.0])
    np.testing.assert_allclose(v.gradient([0.3, 0.9]), [1.0, 2.0])
    np.testing.assert_allclose(v.gradient([0.0, 0.0]), [1.0, 2.0])


def test_power_gradient():
    v = Power(2.0, 0.5)
    assert v.gradient([0.25])[0] == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(BoundaryGradient):
        v.gradient([0.0])
    # degree 1 stays differentiable at zero
    assert Power(3.0, 1.0).gradient([0.0])[0] == 3.0


@pytest.mark.parametrize("x0", [0.0, 0.4])
@pytest.mark.parametrize("exponents", [[1.0], [1.0, 0.0]], ids=["m1", "m2"])
def test_unit_exponent_cobb_douglas_is_linear(exponents, x0):
    # v = 2 x_0: the partial along good 0 is 2, finite at x_0 = 0 too
    cd, lin = CobbDouglas(exponents, 2.0), Linear([2.0, 0.0][: len(exponents)])
    x = [x0, 0.7][: cd.m]
    assert cd.value(x) == lin.value(x)
    for got, want in zip(cd.partials(x), lin.partials(x)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(cd.gradient(x), lin.gradient(x))
    np.testing.assert_array_equal(cd.hessian(x), lin.hessian(x))
    np.testing.assert_array_equal(cd.divergent_at_zero(), lin.divergent_at_zero())


def test_unit_exponent_hessian_row_and_column_at_zero():
    # a second exponent of at most DEGREE_TOL: v = x_0 * x_1**e, whose mixed
    # partial e * x_1**(e-1) is finite at x_0 = 0
    e = 1e-10
    H = CobbDouglas([1.0, e]).hessian([0.0, 0.5])
    assert np.isfinite(H).all()
    np.testing.assert_array_equal(H, H.T)
    assert H[0, 0] == 0.0
    assert H[0, 1] == pytest.approx(e * 0.5 ** (e - 1.0), rel=1e-14)


@pytest.mark.parametrize("r", [0.3, 0.5, 1.0, np.nextafter(1.0, 0.0)])
def test_power_matches_its_analytic_forms(r):
    w = 2.5
    v = Power(w, r)
    assert isinstance(v, CobbDouglas)
    r = v.degree  # one ulp below 1 is 1
    for x in (0.0, 1e-3, 0.37, 1.0, 2.0):
        assert v.value([x]) == pytest.approx(w * x**r, rel=1e-14, abs=0.0)
        g, ok = v.partials([x])
        H = v.hessian([x])
        if x == 0.0 and r < 1.0:
            assert not ok[0] and g[0] == np.inf and not np.isfinite(H[0, 0])
            continue
        assert ok[0]
        assert g[0] == pytest.approx(w * r * x ** (r - 1.0), rel=1e-14, abs=0.0)
        want = w * r * (r - 1.0) * x ** (r - 2.0) if r < 1.0 else 0.0
        assert H[0, 0] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_power_json_form_and_weight():
    v = Power(1.5, 0.5)
    assert v.to_json() == {"kind": "power", "weights": [1.5], "degree": 0.5}
    again = from_json(v.to_json())
    assert type(again) is Power and again.to_json() == v.to_json()
    assert (v.weight, v.degree, v.scale) == (1.5, 0.5, 1.5)
    with pytest.raises(AttributeError):
        v.weight = 2.0


def test_cobb_douglas_boundary_gradient():
    v = CobbDouglas([0.5, 0.5])
    with pytest.raises(BoundaryGradient):
        v.gradient([0.0, 1.0])


def test_ces_boundary_gradient_only_when_sigma_below_one():
    curved = CesForm([1.0, 1.0], 0.5, 1.0)
    with pytest.raises(BoundaryGradient):
        curved.gradient([0.0, 0.5])
    smooth = CesForm([1.0, 2.0], 1.0, 0.5)
    g = smooth.gradient([0.0, 0.5])
    assert np.all(np.isfinite(g))


def test_leontief_not_differentiable():
    with pytest.raises(NotDifferentiable):
        Leontief([1.0, 2.0]).gradient([0.5, 0.5])
    with pytest.raises(NotDifferentiable):
        Leontief([1.0, 2.0]).hessian([0.5, 0.5])
    with pytest.raises(NotDifferentiable):
        euler_residual(Leontief([1.0]), [0.5])


def test_gradient_matches_finite_differences(rng):
    for _ in range(60):
        m = int(rng.integers(1, 4))
        v = random_valuation(rng, m, float(rng.choice([1.0, 0.5, 0.75])))
        x = rng.uniform(0.1, 1.0, m)
        np.testing.assert_allclose(v.gradient(x), fd_gradient(v, x), atol=1e-4)


def fd_hessian(v, x, h=1e-6):
    """Central differences of the partials (interior points only)."""
    H = np.zeros((x.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = h
        H[:, k] = (v.partials(x + e)[0] - v.partials(x - e)[0]) / (2 * h)
    return H


@pytest.mark.parametrize(
    "v",
    [
        Linear([1.0, 2.0, 0.5]),
        Power(2.0, 0.5),
        CobbDouglas([0.2, 0.3, 0.4]),
        CobbDouglas([0.5, 0.0, 0.5], scale=1.5),
        CesForm([1.0, 2.0, 0.5], 0.5, 0.7),
        CesForm([1.0, 0.0, 0.5], 0.4, 1.0),
        CesForm([1.0, 2.0, 0.5], 1.0, 0.6),
        CesForm([1.0, 2.0, 0.5], 1.0, 1.0),
        CesForm([1.0, 2.0], 0.8, 1.0),
    ],
)
def test_hessian_matches_finite_differences(v):
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(0.1, 1.0, v.m)
        H = v.hessian(x)
        assert H.shape == (v.m, v.m)
        np.testing.assert_allclose(H, fd_hessian(v, x), rtol=1e-6, atol=1e-6)
    # at the zero bundle, entries between divergent partials are not finite
    _, ok = v.partials(np.zeros(v.m))
    H0 = v.hessian(np.zeros(v.m))
    assert not np.isfinite(H0[np.ix_(~ok, ~ok)]).any()
    assert np.isfinite(H0[np.ix_(ok, ok)]).all()


# -- agent-stacked evaluation -------------------------------------------------

# Zero weights and exponents give goods an agent ignores; zero coordinates
# give divergent partials and non-finite Hessian entries.
_weights = st.one_of(st.just(0.0), st.floats(0.3, 3.0))
_coordinates = st.one_of(st.just(0.0), st.floats(0.05, 2.0))


@st.composite
def stacked_markets(draw):
    """Agents of mixed kinds at one shared degree, and an (n, m) bundle array."""
    m = draw(st.integers(1, 4))
    degree = draw(st.sampled_from([1.0, 0.75, 0.5]))
    kinds = ["ces", "cobb-douglas"]
    if degree == 1.0:
        kinds.append("linear")
    elif m == 1:
        kinds.append("power")
    n = draw(st.integers(1, 6))
    vals = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        w = np.array(draw(st.lists(_weights, min_size=m, max_size=m)))
        if not w.any():
            w[draw(st.integers(0, m - 1))] = 1.0
        if kind == "linear":
            vals.append(Linear(w))
        elif kind == "power":
            vals.append(Power(draw(st.floats(0.3, 3.0)), degree))
        elif kind == "cobb-douglas":
            vals.append(CobbDouglas(w / w.sum() * degree, draw(st.floats(0.5, 2.0))))
        else:
            vals.append(CesForm(w, draw(st.sampled_from([0.4, 0.6, 1.0])), degree))
    X = np.array(draw(st.lists(_coordinates, min_size=n * m, max_size=n * m)))
    return vals, X.reshape(n, m)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a, b)  # readable report; inf and NaN placement
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@given(stacked_markets())
def test_stack_matches_each_agents_own_evaluation(market):
    vals, X = market
    stack = ValuationStack(vals)
    V = stack.values(X)
    G, ok = stack.partials(X)
    H = stack.hessians(X)
    for i, v in enumerate(vals):
        g, ok_i = v.partials(X[i])
        assert_same_bits(V[i], v.value(X[i]))
        assert_same_bits(G[i], g)
        assert_same_bits(ok[i], ok_i)
        assert_same_bits(H[i], v.hessian(X[i]))
        assert_same_bits(stack.valued[i], v.valued_goods())
        assert_same_bits(stack.divergent[i], v.divergent_at_zero() & v.valued_goods())
        assert stack.degrees[i] == v.degree


# -- structural properties ----------------------------------------------------


def test_euler_residual_examples():
    assert euler_residual(Linear([1.0, 2.0]), [0.2, 0.3]) == 0.0
    r = euler_residual(CobbDouglas([0.5, 0.5]), [0.5, 0.5])
    assert r <= 1e-8


def test_euler_residual_random(rng):
    for _ in range(100):
        m = int(rng.integers(1, 4))
        v = random_valuation(rng, m, float(rng.choice([1.0, 0.5, 0.75])))
        x = rng.uniform(0.05, 1.0, m)
        assert euler_residual(v, x) <= 1e-8 * max(1.0, v.value(x))


def test_homogeneity(rng):
    for _ in range(40):
        m = int(rng.integers(1, 4))
        v = random_valuation(rng, m, float(rng.choice([1.0, 0.5, 0.75])))
        x = rng.uniform(0.1, 0.5, m)
        base = v.value(x)
        for lam in (0.25, 0.5, 2.0):
            expected = lam**v.degree * base
            assert v.value(lam * x) == pytest.approx(expected, rel=1e-10)


def test_monotone_and_concave(rng):
    for _ in range(40):
        m = int(rng.integers(1, 4))
        kind = ["linear", "ces", "cobb-douglas", "leontief"][int(rng.integers(0, 4))]
        deg = 1.0 if kind in ("linear", "leontief") else 0.75
        v = (
            Leontief(rng.uniform(0.5, 2.0, m))
            if kind == "leontief"
            else random_valuation(rng, m, deg, kind=kind)
        )
        x = rng.uniform(0.0, 1.0, m)
        y = x * rng.uniform(0.0, 1.0, m)
        assert v.value(x) >= v.value(y) - 1e-12
        z = rng.uniform(0.0, 1.0, m)
        mid = v.value(0.5 * x + 0.5 * z)
        assert mid >= 0.5 * v.value(x) + 0.5 * v.value(z) - 1e-10


def test_divergent_at_zero_masks():
    assert not Linear([1.0, 2.0]).divergent_at_zero().any()
    assert Power(1.0, 0.5).divergent_at_zero().all()
    assert not Power(1.0, 1.0).divergent_at_zero().any()
    np.testing.assert_array_equal(
        CobbDouglas([0.5, 0.0, 0.5]).divergent_at_zero(), [True, False, True]
    )
    assert CesForm([1.0, 1.0], 0.5, 1.0).divergent_at_zero().all()
    assert not CesForm([1.0, 1.0], 1.0, 1.0).divergent_at_zero().any()


def _unit_cost_cases():
    w, base = np.array([1.0, 3.0, 0.5]), np.array([3.0, 2.0, 1.0])
    for m in (1, 2, 3):
        yield pytest.param(Linear(w[:m]), id=f"linear-m{m}")
        for r in (0.6, 1.0):
            v = CobbDouglas(r * base[:m] / base[:m].sum(), 2.0)
            yield pytest.param(v, id=f"cobb-douglas-r{r}-m{m}")
        for sigma in (0.5, 1.0):
            for r in (0.5, 1.0):
                yield pytest.param(CesForm(w[:m], sigma, r), id=f"ces-s{sigma}-r{r}-m{m}")
    for r in (0.5, 1.0):
        yield pytest.param(Power(2.0, r), id=f"power-r{r}-m1")


@pytest.mark.parametrize("v", _unit_cost_cases())
def test_value_per_cost_is_the_best_value_at_unit_cost(v):
    # a simplex grid of budget shares y, mapped onto q . d = 1 by d = y / q
    q = np.array([0.7, 1.3, 2.1])[: v.m]
    grid = v.values_batch(_compositions(400, v.m) / 400 / q)
    best = v._value_per_cost(q)
    assert np.all(grid <= best * (1.0 + 1e-12))
    assert best <= grid.max() * (1.0 + 1e-3)
    free = q.copy()
    free[0] = 0.0
    assert v._value_per_cost(free) == np.inf


def test_valued_goods():
    np.testing.assert_array_equal(Linear([0.0, 3.0]).valued_goods(), [False, True])
    np.testing.assert_array_equal(Leontief([2.0, 0.0]).valued_goods(), [True, False])


# -- construction and bundle validation ----------------------------------------


def test_constructor_rejections():
    with pytest.raises(BadParameter):
        Linear([0.0, 0.0])
    with pytest.raises(BadParameter):
        Linear([-1.0, 2.0])
    with pytest.raises(BadParameter):
        Power(1.0, 1.5)
    with pytest.raises(BadParameter):
        Power(0.0, 0.5)
    with pytest.raises(BadParameter, match="degree must lie"):
        Power(1.0, 0.0)
    with pytest.raises(DimensionMismatch, match="weights must be a vector"):
        Linear([[1.0, 2.0]])
    with pytest.raises(BadParameter):
        CobbDouglas([0.7, 0.7])  # exponent sum 1.4 > 1
    with pytest.raises(BadParameter):
        CobbDouglas([0.5, 0.5], scale=-1.0)
    with pytest.raises(BadParameter):
        CesForm([1.0, 1.0], 1.5, 1.0)
    with pytest.raises(BadParameter):
        CesForm([1.0, 1.0], 0.5, 0.0)
    with pytest.raises(BadParameter):
        Leontief([0.0, 0.0])


@pytest.mark.parametrize(
    "make",
    [Linear, Leontief, CobbDouglas, lambda w: CesForm(w, 0.5, 1.0)],
    ids=["linear", "leontief", "cobb-douglas", "ces"],
)
def test_constructors_keep_their_own_weight_vector(make):
    w = np.array([0.5, 0.5])
    v = make(w)
    w[0] = 0.0  # the caller's array stays writable
    assert v.to_json()["weights"] == [0.5, 0.5]


def test_degree_one_ulp_past_one_is_one():
    # Dirichlet exponents sum to 1.0000000000000002 or 0.9999999999999999
    # for some draws (draw 0 is below 1)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        assert CobbDouglas(rng.dirichlet(np.ones(3))).degree == 1.0
    assert CesForm([1.0], 0.5, 1.0 + DEGREE_TOL).degree == 1.0
    assert Power(1.0, np.nextafter(1.0, 0.0)).degree == 1.0
    assert Power(1.0, 1.0 - 2 * DEGREE_TOL).degree == 1.0 - 2 * DEGREE_TOL
    with pytest.raises(BadParameter):
        Power(1.0, 1.0 + 2 * DEGREE_TOL)


def test_bundle_validation():
    v = Linear([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        v.value([1.0])
    with pytest.raises(BadParameter):
        v.value([-0.1, 0.5])
    with pytest.raises(BadParameter):
        v.value([np.nan, 0.5])
    with pytest.raises(DimensionMismatch):
        as_bundle([[1.0, 2.0]])


# -- JSON ----------------------------------------------------------------------


def test_json_round_trips(rng):
    for _ in range(30):
        m = int(rng.integers(1, 4))
        deg = float(rng.choice([1.0, 0.5, 0.75]))
        v = random_valuation(rng, m, deg)
        w = from_json(v.to_json())
        assert type(w) is type(v)
        x = rng.uniform(0.05, 1.0, m)
        assert w.value(x) == pytest.approx(v.value(x), rel=1e-12)
    leo = Leontief([1.0, 2.0])
    again = from_json(leo.to_json())
    assert again.value([0.5, 0.6]) == leo.value([0.5, 0.6])


def test_from_json_errors():
    with pytest.raises(BadParameter):
        from_json({"kind": "mystery", "weights": [1.0]})
    with pytest.raises(BadParameter):
        from_json({"kind": "linear"})
    with pytest.raises(DimensionMismatch):
        from_json({"kind": "power", "weights": [1.0, 2.0], "degree": 0.5})
    with pytest.raises(BadParameter):
        from_json({"kind": "ces", "weights": [1.0]})
    with pytest.raises(BadParameter):
        from_json({"kind": "cobb-douglas", "weights": [0.5, 0.5], "degree": 0.8})
    with pytest.raises(BadParameter):
        from_json("linear")
