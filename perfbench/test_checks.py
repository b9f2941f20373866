"""Each reference check accepts the program's output and rejects a perturbed one.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import cesmarket as cm  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _ces_market(n, m, rho, seed=3):
    rng = np.random.default_rng(seed)
    return cm.Instance(tuple(cm.CesForm(rng.uniform(0.3, 3.0, m), 0.5, 1.0)
                             for _ in range(n)), rho)


@pytest.fixture(scope="module")
def ces():
    inst = _ces_market(3, 2, 0.5)
    return inst, cm.solve_ces(inst).allocation


def _moved(X, amount=1e-3):
    Y = np.array(X)
    Y[0, 0] -= amount
    Y[1, 0] += amount
    return Y


def test_first_order_rejects_allocation_off_the_optimum(ces):
    inst, X = ces
    assert checks.first_order(inst, X) == []
    assert checks.first_order(inst, _moved(X))


def test_first_order_checks_agents_holding_nothing():
    inst = cm.Instance((cm.Linear([2.0]), cm.Linear([1.0])), 1.0)
    assert checks.first_order(inst, np.array([[1.0], [0.0]])) == []
    assert checks.first_order(inst, np.array([[0.0], [1.0]]))
    ces_inst = cm.Instance((cm.CesForm([2.0, 2.0], 0.5, 1.0),
                            cm.CesForm([1.0, 1.0], 0.5, 1.0)), 1.0)
    assert checks.first_order(ces_inst, np.array([[1.0, 1.0], [0.0, 0.0]])) == []
    assert checks.first_order(ces_inst, np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_leontief_first_order_rejects_a_shrunk_optimum():
    rng = np.random.default_rng(5)
    inst = cm.Instance(tuple(cm.Leontief(rng.uniform(0.3, 3.0, 3)) for _ in range(3)), 0.5)
    X = cm.solve_leontief(inst).allocation
    assert checks.leontief_first_order(inst, X) == []
    assert checks.leontief_first_order(inst, X * 0.999)
    assert checks.leontief_first_order(inst, _moved(X))


def test_feasibility_rejects_oversubscribed_and_negative(ces):
    inst, X = ces
    assert checks.feasibility(X, inst.n, inst.m) == []
    over = np.array(X)
    over[0, 0] += 1e-6
    assert checks.feasibility(over, inst.n, inst.m)
    assert checks.feasibility(_moved(X, X[0, 0] + 1e-3), inst.n, inst.m)


def test_payment_identity_rejects_prices_off_by_1e5(ces):
    inst, X = ces
    rule = cm.equilibrium_rule(inst, X)
    assert checks.payment_identity(inst, X, rule) == []
    off = cm.make_pricing_rule(rule.q * (1 + 1e-5), inst.rho, inst.degree)
    assert checks.payment_identity(inst, X, off)


def test_single_good_shares_against_the_closed_form():
    w = np.array([1.0, 6.0, 5.0])
    inst = cm.Instance(tuple(cm.Linear([x]) for x in w), 0.5)
    shares = cm.solve_ces(inst).allocation[:, 0]
    assert checks.single_good_shares(shares, w, 1.0, 0.5) == []
    np.testing.assert_allclose(shares, [1 / 12, 1 / 2, 5 / 12], atol=1e-9)
    assert checks.single_good_shares(shares + [1e-6, -1e-6, 0.0], w, 1.0, 0.5)


def test_oracle_bounds_reject_a_worse_grid_point_and_a_worse_optimum(ces):
    inst, X = ces
    res = 40
    Y = cm.grid_oracle(inst, res)
    assert checks.oracle_bounds(inst, Y, X, res) == []
    corner = np.zeros_like(Y)
    corner[0] = 1.0
    assert checks.oracle_bounds(inst, corner, X, res)
    assert checks.oracle_bounds(inst, Y, corner, res)
    assert checks.oracle_bounds(inst, Y + 0.1 / res, X, res)


def _mechanism_outputs(prof):
    profile = cm.BidProfile(prof.bids, prof.degree, prof.rho)
    out = {"allocation": cm.truthful_allocation(profile)}
    for i, b in enumerate(prof.bids):
        out[f"payment{i}"] = cm.truthful_payment(profile, i)
        out[f"scan{i}"] = cm.best_response_scan(float(b), np.delete(prof.bids, i),
                                                prof.degree, prof.rho, 400)
    return out


@pytest.mark.parametrize("degree,rho", [(1.0, 0.5), (0.5, 0.9), (1.0, 0.9)])
def test_mechanism_checks_reject_payment_scan_and_share_errors(degree, rho):
    prof = workloads.Profile("p", np.array([0.7, 2.9, 1.6, 1.1]), degree, rho)
    out = _mechanism_outputs(prof)
    assert checks.mechanism(prof, out, 400) == []
    step = (4.0 - 0.25) * prof.bids[1] / 399
    for key, delta in (("payment2", 1e-5), ("scan1", 2 * step)):
        bad = dict(out)
        bad[key] = out[key] + delta
        assert checks.mechanism(prof, bad, 400), key
    bad = dict(out, allocation=out["allocation"] + [1e-6, -1e-6, 0.0, 0.0])
    assert checks.mechanism(prof, bad, 400)


def test_reference_payment_matches_the_closed_form_at_degree_one():
    # At r = 1 and rho = 0.5, alpha = 1 and the share t / (t + c) integrates
    # to b - c * ln((b + c) / c).
    c, b = 2.0, 1.5
    expected = b * b / (b + c) - (b - c * np.log((b + c) / c))
    assert checks.reference_payment(b, [c], 1.0, 0.5) == pytest.approx(expected, rel=1e-12)


def test_identical_rejects_a_one_ulp_change(ces):
    inst, X = ces
    first = {"m": {"solve": cm.solve_ces(inst)}}
    again = {"m": {"solve": cm.solve_ces(inst)}}
    assert checks.identical(first, again) == []
    Y = np.array(X)
    Y[0, 0] = np.nextafter(Y[0, 0], 1.0)
    assert checks.identical(first, {"m": {"solve": Y}})


def test_round_checks_pass_on_the_mechanism_workload():
    inp = workloads.build("mechanism", 0)
    inp.profiles = inp.profiles[::9]
    rnd = workloads.Round().run(inp)
    assert rnd.failed == 0
    assert checks.round_outputs(inp, rnd.outputs, workloads.SCAN_GRID) == []


def test_tracer_restores_the_package_and_counts_layers():
    original = cm.solve_ces
    inst = _ces_market(2, 2, 0.5)
    tracer = Tracer()
    since = tracer.mark()
    with tracer:
        assert cm.solve_ces is not original
        result = cm.solve_ces(inst)
        cm.to_fisher(inst, result.allocation, cm.equilibrium_rule(inst, result.allocation))
    assert cm.solve_ces is original
    assert cm.pricing.we_certificate is cm.sybil.we_certificate
    metrics = tracer.layer_metrics(since)
    assert metrics["ellipsoid.iters"] > 0
    assert metrics["ellipsoid.iters"] + metrics["solver.refine_iters"] == result.iterations
    assert metrics["valuations.gradient_calls"] > 0
    assert metrics["pricing.certificate_s"] > 0 and metrics["pricing.fisher_s"] > 0
    names = {s["name"] for s in tracer.spans}
    assert "pricing.we_certificate" in names and "solver.kkt_residual" in names
