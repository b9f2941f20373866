"""Identity-multiplication (Sybil) analysis under convex pricing.

Convex prices charge less for two half bundles than one whole bundle, so an
agent may gain by splitting demand across fake identities at cost kappa per
identity.  For degree-1 valuations the calculus collapses to a threshold:
at the supported optimum, running eta identities on the optimal bundle pays
off iff v_i(x_i) * (1 - rho) > kappa.  An equilibrium where nobody gains is
Sybil-proof, and its per-agent value is capped at kappa / (1 - rho).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadMultiplicity, BadParameter, NotEquilibrium, UnsupportedDegree
from .jsonio import to_plain
from .pricing import PricingRule, we_certificate
from .solver import Instance, as_allocation
from .valuations import Valuation, as_bundle


class SybilStatus(enum.Enum):
    STABLE = "stable"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SybilParams:
    """Identity cost kappa and per-agent multiplicities (each >= 1)."""

    kappa: float
    eta: tuple[int, ...]

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise BadParameter("kappa must be finite and nonnegative")
        if any(int(e) != e or e < 1 for e in self.eta):
            raise BadMultiplicity("multiplicities must be integers >= 1")
        object.__setattr__(self, "eta", tuple(int(e) for e in self.eta))


def sybil_utility(
    v: Valuation, bundle, eta: int, rule: PricingRule, kappa: float
) -> float:
    """Utility of running eta identities, each buying `bundle`:
    v(eta * bundle) - eta * p(bundle) - eta * kappa."""
    if int(eta) != eta or eta < 1:
        raise BadMultiplicity(f"eta must be an integer >= 1, got {eta}")
    if kappa < 0:
        raise BadParameter("kappa must be nonnegative")
    x = as_bundle(bundle, v.m)
    return float(v.value(eta * x) - eta * rule.price(x) - eta * kappa)


def sybil_status(value_at_opt: float, rho: float, kappa: float) -> SybilStatus:
    """Threshold test at a supported optimum (degree-1 valuations).

    Splitting pays iff the agent's value times (1 - rho) exceeds the
    identity cost; rho = 1 (linear prices) is always stable.
    """
    if not (0.0 < rho <= 1.0):
        raise BadParameter(f"rho must lie in (0, 1], got {rho}")
    if kappa < 0:
        raise BadParameter("kappa must be nonnegative")
    if value_at_opt * (1.0 - rho) <= kappa:
        return SybilStatus.STABLE
    return SybilStatus.UNBOUNDED


@dataclass(frozen=True)
class SweReport:
    is_swe: bool
    cap: float
    welfare_cap: float
    statuses: tuple[SybilStatus, ...]
    values: tuple[float, ...]
    kappa: float
    rho: float

    def to_json(self) -> dict:
        return to_plain(self)


def swe_check(
    instance: Instance, allocation, rule: PricingRule, kappa: float,
    tolerance: float = 1e-6,
) -> SweReport:
    """Is the certified equilibrium Sybil-proof at identity cost kappa?

    Requires a degree-1 instance (the split calculus uses homogeneity
    degree one).  is_swe is true iff every agent's value clears the
    threshold test; cap = kappa / (1 - rho) bounds each stable agent's
    value and n**(1/rho) * cap bounds the attainable welfare.
    """
    if instance.degree != 1.0:
        raise UnsupportedDegree(
            f"Sybil analysis covers degree-1 valuations only, got degree "
            f"{instance.degree}"
        )
    if kappa < 0:
        raise BadParameter("kappa must be nonnegative")
    X = as_allocation(allocation, instance.n, instance.m)
    cert = we_certificate(instance, X, rule, tolerance)
    if not cert.passed:
        raise NotEquilibrium(
            f"allocation is not a certified equilibrium "
            f"(residual {cert.max_residual:.3e})"
        )
    rho = instance.rho
    values = tuple(instance.values_at(X).tolist())
    statuses = tuple(sybil_status(v, rho, kappa) for v in values)
    cap = math.inf if rho == 1.0 else kappa / (1.0 - rho)
    welfare_cap = math.inf if rho == 1.0 else instance.n ** (1.0 / rho) * cap
    return SweReport(
        is_swe=all(s is SybilStatus.STABLE for s in statuses),
        cap=cap,
        welfare_cap=welfare_cap,
        statuses=statuses,
        values=values,
        kappa=kappa,
        rho=rho,
    )


def single_good_sybil_cap(w: float, kappa: float) -> float:
    """Value cap kappa / (w - 1) for the low-weight agents in the
    one-good market where one agent's weight w exceeds everyone else's 1.

    Any Sybil-proof equilibrium must hold every other agent's value at or
    below this; as kappa -> 0 the outcome degenerates to winner-take-all.
    """
    if not (np.isfinite(w) and w > 1.0):
        raise BadParameter(f"the heavy agent's weight must exceed 1, got {w}")
    if kappa < 0:
        raise BadParameter("kappa must be nonnegative")
    return kappa / (w - 1.0)
