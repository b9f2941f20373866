"""Identity-multiplication analysis at degree 1."""

import math

import numpy as np
import pytest

from cesmarket import (
    BadMultiplicity,
    BadParameter,
    Instance,
    Linear,
    NotEquilibrium,
    Power,
    SybilParams,
    SybilStatus,
    UnsupportedDegree,
    WelfareParams,
    ces_welfare,
    equilibrium_rule,
    make_pricing_rule,
    single_good_sybil_cap,
    solve_ces,
    swe_check,
    sybil_status,
    sybil_utility,
)

from conftest import water_instance


def test_params_validation():
    SybilParams(0.1, np.array([1, 2, 3]))
    with pytest.raises(BadParameter):
        SybilParams(-0.1, np.array([1]))
    with pytest.raises(BadMultiplicity):
        SybilParams(0.1, np.array([0]))
    with pytest.raises(BadMultiplicity):
        SybilParams(0.1, np.array([1.5]))


def test_sybil_utility_arithmetic():
    # q chosen so one identity holding 0.3 pays 0.15
    rule = make_pricing_rule([0.5], 1.0, 1.0)
    v = Linear([1.0])
    u3 = sybil_utility(v, [0.3], 3, rule, 0.1)
    assert u3 == pytest.approx(3 * (0.3 - 0.15 - 0.1), abs=1e-12)
    u1 = sybil_utility(v, [0.3], 1, rule, 0.1)
    assert u1 == pytest.approx(0.05, abs=1e-12)


def test_sybil_utility_linear_in_eta_at_degree_one(rng):
    for _ in range(20):
        m = int(rng.integers(1, 4))
        v = Linear(rng.uniform(0.2, 3.0, m))
        rule = make_pricing_rule(rng.uniform(0.1, 2.0, m), 1.0, 1.0)
        x = rng.uniform(0.0, 0.4, m)
        kappa = float(rng.uniform(0.0, 0.3))
        u1 = sybil_utility(v, x, 1, rule, kappa)
        for eta in (2, 5, 9):
            assert sybil_utility(v, x, eta, rule, kappa) == pytest.approx(
                eta * u1, abs=1e-10
            )


def test_sybil_utility_guards():
    rule = make_pricing_rule([1.0], 1.0, 1.0)
    with pytest.raises(BadMultiplicity):
        sybil_utility(Linear([1.0]), [0.5], 0, rule, 0.1)
    with pytest.raises(BadMultiplicity):
        sybil_utility(Linear([1.0]), [0.5], 2.5, rule, 0.1)
    with pytest.raises(BadParameter):
        sybil_utility(Linear([1.0]), [0.5], 1, rule, -0.1)


def test_sybil_status_examples():
    assert sybil_status(0.3, 0.5, 0.2) is SybilStatus.STABLE
    assert sybil_status(3.0, 0.5, 0.2) is SybilStatus.UNBOUNDED
    assert sybil_status(100.0, 1.0, 0.0) is SybilStatus.STABLE
    for rho in (0.0, 1.5):
        with pytest.raises(BadParameter, match="rho must lie"):
            sybil_status(0.3, rho, 0.2)
    with pytest.raises(BadParameter, match="kappa must be nonnegative"):
        sybil_status(0.3, 0.5, -0.2)


def test_swe_check_symmetric_market():
    # four identical unit-weight agents, rho = 0.5, kappa = 0.2
    inst = Instance(tuple(Linear([1.0]) for _ in range(4)), 0.5)
    res = solve_ces(inst)
    rule = equilibrium_rule(inst, res.allocation)
    report = swe_check(inst, res.allocation, rule, 0.2)
    assert report.is_swe
    assert report.cap == pytest.approx(0.4)
    assert report.welfare_cap == pytest.approx(6.4)
    assert all(s is SybilStatus.STABLE for s in report.statuses)
    np.testing.assert_allclose(report.values, [0.25] * 4, atol=1e-7)


def test_swe_check_water_market_fails():
    inst = water_instance(0.5)
    res = solve_ces(inst)
    rule = equilibrium_rule(inst, res.allocation)
    report = swe_check(inst, res.allocation, rule, 0.1)
    assert not report.is_swe
    assert report.cap == pytest.approx(0.2)
    # the big-value agents break stability, the smallest does not
    assert report.statuses[0] is SybilStatus.STABLE
    assert report.statuses[1] is SybilStatus.UNBOUNDED
    assert report.statuses[2] is SybilStatus.UNBOUNDED


def test_swe_check_rho_one_always_stable():
    inst = water_instance(1.0)
    x = np.array([[0.0], [1.0], [0.0]])
    report = swe_check(inst, x, make_pricing_rule([6.0], 1.0, 1.0), 0.0)
    assert report.is_swe
    assert report.cap == math.inf
    assert report.welfare_cap == math.inf


def test_swe_check_guards():
    inst = water_instance(0.5)
    with pytest.raises(NotEquilibrium):
        swe_check(inst, np.full((3, 1), 1 / 3), make_pricing_rule([1.0], 0.5, 1.0), 0.1)
    curved = Instance((Power(1.0, 0.5),), 0.5)
    res = solve_ces(curved)
    rule = equilibrium_rule(curved, res.allocation)
    with pytest.raises(UnsupportedDegree):
        swe_check(curved, res.allocation, rule, 0.1)
    x = np.array([[1.0 / 12.0], [0.5], [5.0 / 12.0]])
    with pytest.raises(BadParameter):
        swe_check(inst, x, equilibrium_rule(inst, x), -1.0)


def test_is_swe_iff_every_agent_stable(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        inst = Instance(tuple(Linear([float(w)]) for w in rng.uniform(0.5, 4.0, n)), 0.5)
        res = solve_ces(inst)
        rule = equilibrium_rule(inst, res.allocation)
        kappa = float(rng.uniform(0.01, 1.5))
        report = swe_check(inst, res.allocation, rule, kappa)
        statuses = [sybil_status(v, 0.5, kappa) for v in report.values]
        assert report.is_swe == all(s is SybilStatus.STABLE for s in statuses)
        assert list(report.statuses) == statuses


def test_escalation_brute_force():
    """Splitting into eta identities pays exactly when v*(1-rho) > kappa.

    Each identity demands the agent's full demand-set bundle, so
    u(eta) = eta * ((1 - rho) * v - kappa) at degree 1: escalation is
    monotone exactly above the stability threshold.
    """
    inst = water_instance(0.5)
    res = solve_ces(inst)
    rule = equilibrium_rule(inst, res.allocation)
    for i in range(3):
        x = res.allocation[i]
        v = inst.valuations[i]
        for kappa in (0.05, 0.2, 1.0, 2.0):
            best_eta = 1
            best_u = sybil_utility(v, x, 1, rule, kappa)
            for eta in range(2, 11):
                u = sybil_utility(v, x, eta, rule, kappa)
                if u > best_u + 1e-12:
                    best_u = u
                    best_eta = eta
            gains = res.values[i] * (1 - 0.5) > kappa
            assert (best_eta > 1) == gains
            if gains:
                assert best_eta == 10  # strictly monotone escalation


def test_welfare_cap_dominates(rng):
    # any market that passes the SWE check has CES welfare under the cap
    for _ in range(10):
        n = int(rng.integers(2, 5))
        inst = Instance(tuple(Linear([float(w)]) for w in rng.uniform(0.5, 3.0, n)), 0.5)
        res = solve_ces(inst)
        rule = equilibrium_rule(inst, res.allocation)
        kappa = float(rng.uniform(0.05, 2.0))
        report = swe_check(inst, res.allocation, rule, kappa)
        if report.is_swe:
            welfare = ces_welfare(WelfareParams(0.5), np.maximum(res.values, 1e-12))
            assert welfare <= report.welfare_cap + 1e-9


def test_single_good_sybil_cap():
    assert single_good_sybil_cap(2.0, 0.5) == pytest.approx(0.5)
    assert single_good_sybil_cap(3.0, 1.0) == pytest.approx(0.5)
    assert single_good_sybil_cap(2.0, 0.0) == 0.0
    with pytest.raises(BadParameter):
        single_good_sybil_cap(1.0, 0.5)
    with pytest.raises(BadParameter):
        single_good_sybil_cap(0.5, 0.5)
    with pytest.raises(BadParameter, match="kappa must be nonnegative"):
        single_good_sybil_cap(2.0, -0.5)


def test_report_json():
    inst = Instance(tuple(Linear([1.0]) for _ in range(4)), 0.5)
    res = solve_ces(inst)
    rule = equilibrium_rule(inst, res.allocation)
    blob = swe_check(inst, res.allocation, rule, 0.2).to_json()
    assert blob["is_swe"] is True
    assert blob["statuses"] == ["stable"] * 4
    assert blob["kappa"] == 0.2
