"""Truthful single-good mechanism for curved welfare, plus the VCG baseline.

Agents report weights b_i for valuations v_i(x) = w_i * x**r over one unit
of a single good.  The mechanism allocates shares proportional to b_i**alpha
with alpha = rho / (1 - r*rho) and charges the threshold-style payment

    p_i = r * alpha * C * integral_0^{b_i} t**(r*alpha) / (t**alpha + C)**(r+1) dt,

C = sum_{k != i} b_k**alpha, computed by adaptive Simpson quadrature.
Reporting the true weight maximizes w_i * share**r - payment.  rho = 1 is
the utilitarian edge where the classic second-price (VCG) auction applies
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadBid, BadParameter, EmptyInput, QuadratureFailure

_SIMPSON_MAX_DEPTH = 60


def _check_curvature(degree, rho):
    if not (0.0 < degree <= 1.0):
        raise BadParameter(f"degree must lie in (0, 1], got {degree}")
    if not (0.0 < rho < 1.0):
        raise BadParameter(
            f"the curved mechanism needs rho in (0, 1), got {rho}; "
            "rho = 1 is the second-price case"
        )


def _competition(others, degree, rho):
    """Allocation exponent alpha and competitor mass C = sum_k b_k**alpha.

    Applies BidProfile's rules to a payment query: degree in (0, 1], rho in
    (0, 1), and competitor bids finite and nonnegative (a zero bid takes no
    share).
    """
    _check_curvature(degree, rho)
    comp = np.atleast_1d(np.asarray(others, dtype=float))
    if not np.all(np.isfinite(comp)) or np.any(comp < 0):
        raise BadBid("competitor bids must be nonnegative and finite")
    alpha = rho / (1.0 - degree * rho)
    return alpha, float((comp**alpha).sum())


@dataclass(frozen=True)
class BidProfile:
    """Reported weights plus the public curvature parameters.

    Requires rho in (0, 1) so r*rho < 1 and the allocation exponent
    alpha = rho / (1 - r*rho) is finite and positive.
    """

    bids: np.ndarray
    degree: float
    rho: float

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.bids, dtype=float)).copy()
        if b.ndim != 1 or b.shape[0] == 0:
            raise EmptyInput("a bid profile needs at least one bid")
        if not np.all(np.isfinite(b)) or np.any(b <= 0):
            raise BadBid("bids must be strictly positive and finite")
        _check_curvature(self.degree, self.rho)
        b.flags.writeable = False
        object.__setattr__(self, "bids", b)

    @property
    def n(self) -> int:
        return self.bids.shape[0]

    @property
    def alpha(self) -> float:
        return self.rho / (1.0 - self.degree * self.rho)


def truthful_allocation(profile: BidProfile) -> np.ndarray:
    """Shares proportional to bid**alpha; sums to one."""
    powered = profile.bids**profile.alpha
    return powered / powered.sum()


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = f(lm)
    frm = f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= _SIMPSON_MAX_DEPTH:
        raise QuadratureFailure(
            f"adaptive quadrature failed to reach tolerance {tol:.1e} "
            f"within {_SIMPSON_MAX_DEPTH} subdivision levels"
        )
    half = 0.5 * tol
    return _adaptive_simpson(f, a, mid, fa, flm, fm, left, half, depth + 1) + (
        _adaptive_simpson(f, mid, b, fm, frm, fb, right, half, depth + 1)
    )


def _integrate(f, a, b, tol):
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, 0)


def _payment_integral(c, alpha, ra, degree, a, b, tol):
    """integral_a^b t**ra / (t**alpha + c)**(degree+1) dt, a >= 0.

    For ra < 3 the integrand's derivatives blow up at t = 0, which stalls
    interval halving; substituting t = u**k with k = ceil(4/(1+ra)) turns
    the integrand into k * u**(k*(1+ra)-1) / (u**(k*alpha) + c)**(degree+1),
    which has at least three continuous derivatives at 0.
    """
    k = max(1, math.ceil(4.0 / (1.0 + ra)))
    e = k * (1.0 + ra) - 1.0

    def g(u):
        return k * u**e / ((u ** (k * alpha) + c) ** (degree + 1.0))

    return _integrate(g, a ** (1.0 / k), b ** (1.0 / k), tol)


def single_bid_payment(
    bid: float, others, degree: float, rho: float, quad_tol: float = 1e-9
) -> float:
    """Payment charged for reporting `bid` against fixed competitor bids.

    `others` may be empty (or all-zero): a lone agent pays nothing.  The
    bid itself may be 0, the empty-integral limit.
    """
    if bid < 0 or not np.isfinite(bid):
        raise BadBid("bid must be nonnegative and finite")
    if quad_tol <= 0:
        raise BadParameter("quad_tol must be positive")
    alpha, c = _competition(others, degree, rho)
    if bid == 0.0 or c == 0.0:
        return 0.0
    ra = degree * alpha
    # the prefactor can be large for alpha >> 1; tighten the integration
    # tolerance so quad_tol bounds the error of the payment, not the integral
    tol = quad_tol / max(1.0, ra * c)
    return ra * c * _payment_integral(c, alpha, ra, degree, 0.0, bid, tol)


def truthful_payment(profile: BidProfile, i: int, quad_tol: float = 1e-9) -> float:
    """Payment of agent i under the profile; see module docstring."""
    if not 0 <= i < profile.n:
        raise BadParameter(f"agent index {i} out of range for {profile.n} bids")
    others = np.delete(profile.bids, i)
    return single_bid_payment(
        float(profile.bids[i]), others, profile.degree, profile.rho, quad_tol
    )


def response_curve(true_w: float, others, degree: float, rho: float, bids):
    """Utility w * share**r - payment at each candidate bid.

    Payments accumulate segment by segment along the bids in ascending
    order, so a whole curve costs one quadrature sweep instead of one per
    point; the utilities come back in the order of `bids`.
    """
    bids = np.asarray(bids, dtype=float)
    if not np.all(np.isfinite(bids)) or np.any(bids < 0):
        raise BadBid("candidate bids must be nonnegative and finite")
    alpha, c = _competition(others, degree, rho)
    ra = degree * alpha
    seg_tol = 1e-10 / max(1.0, ra * c) if c > 0.0 else 1e-10
    utilities = np.empty(bids.shape[0])
    acc = 0.0
    prev = 0.0
    for k in np.argsort(bids, kind="stable"):
        b = float(bids[k])
        if c > 0.0:
            acc += _payment_integral(c, alpha, ra, degree, prev, b, seg_tol)
            prev = b
            payment = ra * c * acc
            share = b**alpha / (b**alpha + c)
        else:
            payment = 0.0
            share = 1.0
        utilities[k] = true_w * share**degree - payment
    return utilities


def best_response_scan(
    true_w: float, others, degree: float, rho: float, grid: int = 400
) -> float:
    """Grid argmax of the reporting utility over bids in [w/4, 4w].

    Truthfulness means the returned bid sits within one grid step of the
    true weight.
    """
    if true_w <= 0 or not np.isfinite(true_w):
        raise BadBid("the true weight must be strictly positive")
    if grid < 100:
        raise BadParameter("the scan needs at least 100 grid points")
    bids = np.linspace(true_w / 4.0, 4.0 * true_w, grid)
    utilities = response_curve(true_w, others, degree, rho, bids)
    return float(bids[int(np.argmax(utilities))])


def vcg_single_good(weights):
    """Second-price auction for one unit: utilitarian, linear valuations.

    The lexicographically smallest maximum-weight agent receives the unit
    and pays the second-highest weight (zero when alone); everyone else
    pays nothing.  Returns (allocation, payments).
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.ndim != 1 or w.shape[0] == 0:
        raise EmptyInput("need at least one weight")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise BadBid("weights must be nonnegative and finite")
    winner = int(np.argmax(w))
    allocation = np.zeros(w.shape[0])
    allocation[winner] = 1.0
    payments = np.zeros(w.shape[0])
    if w.shape[0] > 1:
        payments[winner] = float(np.max(np.delete(w, winner)))
    return allocation, payments
