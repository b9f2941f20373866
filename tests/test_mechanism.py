"""Single-good truthful mechanism: shares, payments, incentives."""

import math

import numpy as np
import pytest

from cesmarket import (
    BadBid,
    BadParameter,
    BidProfile,
    EmptyInput,
    QuadratureFailure,
    best_response_scan,
    response_curve,
    single_bid_payment,
    truthful_allocation,
    truthful_payment,
    vcg_single_good,
)


def analytic_payment_r1_rho_half(b, others):
    """Closed-form payment for degree 1, rho = 0.5 (alpha = 1).

    The integrand c * t / (t + c)^2 has antiderivative
    c * (ln(t + c) + c / (t + c)); evaluate from 0 to b.
    """
    c = float(np.sum(np.asarray(others, dtype=float)))
    return c * (math.log((b + c) / c) + c / (b + c) - 1.0)


def dense_simpson_payment(b, others, degree, rho, panels=40_000):
    """Composite-Simpson payment oracle on the substituted integrand.

    Uses the same endpoint substitution t = u**k as the implementation but a
    fixed dense grid instead of adaptive refinement, so agreement checks the
    adaptive logic rather than the change of variables.
    """
    alpha = rho / (1.0 - degree * rho)
    comp = np.asarray(others, dtype=float)
    c = float((comp**alpha).sum())
    if c == 0.0 or b == 0.0:
        return 0.0
    ra = degree * alpha
    k = max(1, math.ceil(4.0 / (1.0 + ra)))
    e = k * (1.0 + ra) - 1.0
    u = np.linspace(0.0, b ** (1.0 / k), 2 * panels + 1)
    g = k * u**e / ((u ** (k * alpha) + c) ** (degree + 1.0))
    h = u[1] - u[0]
    integral = h / 3.0 * (g[0] + g[-1] + 4.0 * g[1::2].sum() + 2.0 * g[2:-2:2].sum())
    return ra * c * integral


# -- profile and shares ----------------------------------------------------------


def test_profile_validation():
    p = BidProfile(np.array([1.0, 2.0]), 1.0, 0.5)
    assert p.n == 2
    assert p.alpha == pytest.approx(1.0)
    with pytest.raises(BadBid):
        BidProfile(np.array([0.0, 1.0]), 1.0, 0.5)
    with pytest.raises(EmptyInput, match="at least one bid"):
        BidProfile([], 1.0, 0.5)
    with pytest.raises(BadParameter):
        BidProfile(np.array([1.0]), 1.5, 0.5)
    with pytest.raises(BadParameter):
        # rho = 1 with degree 1 is the second-price case, not this mechanism
        BidProfile(np.array([1.0]), 1.0, 1.0)


def test_allocation_examples():
    p = BidProfile(np.array([1.0, 1.0]), 1.0, 0.5)
    np.testing.assert_allclose(truthful_allocation(p), [0.5, 0.5])
    # degree 1, rho = 2/3: alpha = 2, shares b^2 / sum b^2
    p2 = BidProfile(np.array([2.0, 1.0]), 1.0, 2.0 / 3.0)
    np.testing.assert_allclose(truthful_allocation(p2), [0.8, 0.2])


def test_allocation_matches_welfare_optimum():
    # the share formula is the closed-form welfare optimum at the bids
    from cesmarket import closed_form_single_good

    p = BidProfile(np.array([2.0, 1.0]), 1.0, 2.0 / 3.0)
    np.testing.assert_allclose(
        truthful_allocation(p), closed_form_single_good([2.0, 1.0], 1.0, 2.0 / 3.0)
    )


# -- payments ----------------------------------------------------------------------


def test_payment_oracle_equal_bids():
    # degree 1, rho = 0.5, bids (1, 1): payment = ln 2 - 1/2
    p = BidProfile(np.array([1.0, 1.0]), 1.0, 0.5)
    expected = math.log(2.0) - 0.5
    assert truthful_payment(p, 0) == pytest.approx(expected, abs=1e-9)
    assert truthful_payment(p, 1) == pytest.approx(expected, abs=1e-9)


def test_payment_oracle_unequal_bids():
    # degree 1, rho = 0.5, bids (2, 1): agent 0 pays ln 3 + 1/3 - 1
    p = BidProfile(np.array([2.0, 1.0]), 1.0, 0.5)
    expected = math.log(3.0) + 1.0 / 3.0 - 1.0
    assert truthful_payment(p, 0) == pytest.approx(expected, abs=1e-9)


def test_payment_matches_analytic_antiderivative(rng):
    for _ in range(50):
        b = float(rng.uniform(0.1, 5.0))
        others = rng.uniform(0.1, 5.0, int(rng.integers(1, 4)))
        got = single_bid_payment(b, others, 1.0, 0.5)
        assert got == pytest.approx(analytic_payment_r1_rho_half(b, others), abs=1e-9)


def test_payment_matches_dense_simpson(rng):
    for _ in range(12):
        degree = float(rng.choice([0.5, 0.75, 1.0]))
        rho = float(rng.choice([0.25, 0.5, 0.9]))
        b = float(rng.uniform(0.2, 3.0))
        others = rng.uniform(0.2, 3.0, int(rng.integers(1, 4)))
        got = single_bid_payment(b, others, degree, rho)
        want = dense_simpson_payment(b, others, degree, rho)
        assert got == pytest.approx(want, abs=1e-7)


def test_payment_edge_cases():
    assert single_bid_payment(0.0, [1.0], 1.0, 0.5) == 0.0
    assert single_bid_payment(2.0, [], 1.0, 0.5) == 0.0  # alone: full share, free
    with pytest.raises(BadBid):
        single_bid_payment(-1.0, [1.0], 1.0, 0.5)
    with pytest.raises(BadParameter):
        single_bid_payment(1.0, [1.0], 1.0, 0.5, quad_tol=0.0)
    with pytest.raises(QuadratureFailure):
        # no subdivision within the depth budget reaches this tolerance
        single_bid_payment(1.0, [1.0], 1.0, 0.5, quad_tol=1e-300)
    with pytest.raises(BadParameter):
        truthful_payment(BidProfile(np.array([1.0, 1.0]), 1.0, 0.5), 2)


QUERIES = [
    lambda others, degree, rho: single_bid_payment(1.0, others, degree, rho),
    lambda others, degree, rho: response_curve(1.0, others, degree, rho, [0.5, 1.0]),
    lambda others, degree, rho: best_response_scan(1.0, others, degree, rho),
]
QUERY_IDS = ["payment", "curve", "scan"]


@pytest.mark.parametrize("query", QUERIES, ids=QUERY_IDS)
@pytest.mark.parametrize("others", [[-1.0], [np.inf], [np.nan], [1.0, -0.5]])
def test_queries_reject_bad_competitor_bids(query, others):
    with pytest.raises(BadBid):
        query(others, 1.0, 0.5)


@pytest.mark.parametrize("query", QUERIES, ids=QUERY_IDS)
@pytest.mark.parametrize(
    "degree, rho",
    [(1.0, 1.0), (1.0, 0.0), (1.0, 1.5), (1.5, 0.5), (0.0, 0.5), (np.nan, 0.5)],
)
def test_queries_reject_bad_curvature(query, degree, rho):
    with pytest.raises(BadParameter):
        query([1.0], degree, rho)


def test_zero_competitor_bids_take_no_share():
    assert single_bid_payment(1.0, [0.0, 0.0], 1.0, 0.5) == 0.0


def test_payment_monotone_in_own_bid(rng):
    for _ in range(10):
        degree = float(rng.choice([0.5, 1.0]))
        rho = float(rng.choice([0.25, 0.5, 0.9]))
        others = rng.uniform(0.2, 3.0, 2)
        bids = np.sort(rng.uniform(0.1, 4.0, 5))
        pays = [single_bid_payment(float(b), others, degree, rho) for b in bids]
        assert all(p2 >= p1 - 1e-12 for p1, p2 in zip(pays, pays[1:]))


def test_payment_never_exceeds_value_of_share(rng):
    # individual rationality under truthful reporting
    for _ in range(10):
        degree = float(rng.choice([0.5, 1.0]))
        rho = float(rng.choice([0.25, 0.5, 0.9]))
        w = rng.uniform(0.2, 3.0, 3)
        p = BidProfile(w, degree, rho)
        shares = truthful_allocation(p)
        for i in range(3):
            value = w[i] * shares[i] ** degree
            assert truthful_payment(p, i) <= value + 1e-9


# -- incentives -------------------------------------------------------------------


def test_best_response_is_truthful(rng):
    for _ in range(20):
        degree = float(rng.choice([0.5, 0.75]))
        rho = float(rng.choice([0.25, 0.5, 0.9]))
        true_w = float(rng.uniform(0.5, 3.0))
        others = rng.uniform(0.2, 3.0, int(rng.integers(1, 4)))
        best = best_response_scan(true_w, others, degree, rho, grid=200)
        step = (4.0 * true_w - true_w / 4.0) / 199
        assert abs(best - true_w) <= step + 1e-12


def test_response_curve_without_competition():
    # zero competitor bids take no share: any bid wins everything for free
    curve = response_curve(2.0, [0.0, 0.0], 1.0, 0.5, [1.0, 0.0, 0.5])
    np.testing.assert_array_equal(curve, [2.0, 2.0, 2.0])
    assert single_bid_payment(0.5, [0.0, 0.0], 1.0, 0.5) == 0.0


def test_response_curve_matches_pointwise_payments():
    others = [1.0, 1.5]
    alpha = 1.0
    c = sum(others)
    # unsorted bids are answered in their own order
    for bids in ([0.5, 1.0, 2.0], [2.0, 1.0, 0.0, 1.5, 0.5]):
        curve = response_curve(2.0, others, 1.0, 0.5, bids)
        for k, b in enumerate(bids):
            share = b**alpha / (b**alpha + c)
            util = 2.0 * share - single_bid_payment(float(b), others, 1.0, 0.5)
            assert curve[k] == pytest.approx(util, abs=1e-8)


@pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
def test_response_curve_rejects_bad_bids(bad):
    with pytest.raises(BadBid):
        response_curve(2.0, [1.0], 1.0, 0.5, [1.0, bad])


def test_scan_guards():
    with pytest.raises(BadBid):
        best_response_scan(0.0, [1.0], 1.0, 0.5)
    with pytest.raises(BadParameter):
        best_response_scan(1.0, [1.0], 1.0, 0.5, grid=10)


# -- second-price endpoint -----------------------------------------------------------


def test_vcg_examples():
    alloc, pay = vcg_single_good([1.0, 6.0, 5.0])
    np.testing.assert_allclose(alloc, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(pay, [0.0, 5.0, 0.0])


def test_vcg_tie_and_singleton():
    alloc, pay = vcg_single_good([4.0, 4.0])
    np.testing.assert_allclose(alloc, [1.0, 0.0])
    np.testing.assert_allclose(pay, [4.0, 0.0])
    alloc1, pay1 = vcg_single_good([3.0])
    np.testing.assert_allclose(alloc1, [1.0])
    np.testing.assert_allclose(pay1, [0.0])


def test_vcg_guards():
    from cesmarket import EmptyInput

    with pytest.raises(EmptyInput):
        vcg_single_good([])
    with pytest.raises(BadBid):
        vcg_single_good([1.0, -2.0])


def test_vcg_truthfulness_brute_force(rng):
    # reporting the true weight is optimal for every agent on random draws
    for _ in range(20):
        w = rng.uniform(0.5, 5.0, 3)
        i = int(rng.integers(0, 3))
        _, pay = vcg_single_good(w)
        alloc, _ = vcg_single_good(w)
        truthful_util = alloc[i] * w[i] - pay[i]
        for lie in rng.uniform(0.1, 6.0, 10):
            wl = w.copy()
            wl[i] = lie
            a2, p2 = vcg_single_good(wl)
            assert a2[i] * w[i] - p2[i] <= truthful_util + 1e-12
