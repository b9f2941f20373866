"""Homogeneous concave valuation families with value and gradient oracles.

Every kind maps a nonnegative bundle x to a scalar value v(x) >= 0 with
v(0) = 0, is concave and nondecreasing, and is homogeneous of a stored
degree r in (0, 1]: v(t * x) = t**r * v(x).  The degree is validated
numerically at construction.  Gradients are exact where they exist;
divergent boundary partials are reported as errors, never as infinities.
Hessians are exact wherever every partial is finite.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import (
    BadParameter,
    BoundaryGradient,
    DimensionMismatch,
    NotDifferentiable,
)

# Relative tolerance for the numeric homogeneity check run at construction,
# and the scale factors it probes.
HOMOGENEITY_RTOL = 1e-8
_HOMOGENEITY_SCALES = (0.25, 0.5, 2.0)

# Degrees within this of each other are one degree: agents of an instance
# must share theirs to it, and a degree up to 1 + DEGREE_TOL (exponents that
# sum one ulp past 1) is taken as exactly 1.
DEGREE_TOL = 1e-9


def as_bundle(x, m: int | None = None) -> np.ndarray:
    """Coerce x to a 1-D nonnegative float array, checking length when m given.

    Entries above 1.0 are allowed: bundles are validated against supply by the
    allocation layer, not here, and some analyses evaluate scaled-up bundles.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise DimensionMismatch(f"bundle must be 1-D, got shape {arr.shape}")
    if m is not None and arr.shape[0] != m:
        raise DimensionMismatch(f"bundle has {arr.shape[0]} entries, expected {m}")
    if not np.all(np.isfinite(arr)):
        raise BadParameter("bundle entries must be finite")
    if np.any(arr < 0):
        raise BadParameter("bundle entries must be nonnegative")
    return arr


class Valuation(ABC):
    """One agent's valuation over m divisible goods."""

    kind: str = ""

    def __init__(self, m: int, degree: float):
        if m < 1:
            raise DimensionMismatch("valuation needs at least one good")
        if not (0.0 < degree <= 1.0 + DEGREE_TOL):
            raise BadParameter(f"degree must lie in (0, 1], got {degree}")
        self.m = int(m)
        self.degree = min(float(degree), 1.0)

    # -- required per-kind operations -------------------------------------

    @abstractmethod
    def value(self, x) -> float:
        """v(x) for a single bundle."""

    @abstractmethod
    def values_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized v over rows of an (k, m) array.  No validation."""

    @abstractmethod
    def partials(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Gradient with a finiteness mask.

        Returns (g, ok) where g[j] is the partial derivative when ok[j] is
        True and np.inf when the partial diverges at a zero coordinate.
        Raises NotDifferentiable for kinds with no gradient at all.
        """

    @abstractmethod
    def hessian(self, x) -> np.ndarray:
        """(m, m) matrix of second partials at x.

        Exact wherever partials() reports every partial finite.  Entries
        whose row and column both belong to divergent partials are not
        finite (never an exception), and entries between finite partials
        stay exact.  Raises NotDifferentiable for kinds with no gradient at
        all.
        """

    @abstractmethod
    def valued_goods(self) -> np.ndarray:
        """Boolean mask of goods this valuation actually responds to."""

    @abstractmethod
    def to_json(self) -> dict:
        """JSON-ready parameter fragment for this valuation."""

    # -- shared behaviour ---------------------------------------------------

    def gradient(self, x) -> np.ndarray:
        """Exact gradient of v at x.

        Raises BoundaryGradient when any partial diverges (zero coordinate of
        a kind with exponent < 1 there) and NotDifferentiable for Leontief.
        """
        g, ok = self.partials(x)
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            raise BoundaryGradient(
                f"{self.kind} partial derivative diverges at zero coordinate {bad}"
            )
        return g

    def divergent_at_zero(self) -> np.ndarray:
        """Mask of goods whose partial diverges as that coordinate -> 0.

        Any optimum of a strictly concave welfare aggregate holds a positive
        amount of every such good for every agent that consumes at all; the
        solver uses this to pin interior support coordinates.
        """
        return np.zeros(self.m, dtype=bool)

    def _check_homogeneity(self):
        """Numeric check that value() scales like degree says, at 3 points."""
        base = 0.3 + 0.4 * ((np.arange(self.m) * 0.37) % 1.0)
        v0 = self.value(base)
        for t in _HOMOGENEITY_SCALES:
            expected = t**self.degree * v0
            got = self.value(t * base)
            if abs(got - expected) > HOMOGENEITY_RTOL * max(1.0, abs(expected)):
                raise BadParameter(
                    f"{self.kind} valuation is not homogeneous of degree "
                    f"{self.degree}: v({t}*x) = {got}, expected {expected}"
                )

    def __repr__(self):
        return f"{type(self).__name__}({self.to_json()})"


class Linear(Valuation):
    """v(x) = w . x with w >= 0, some w_j > 0.  Degree 1."""

    kind = "linear"

    def __init__(self, weights):
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.ndim != 1:
            raise DimensionMismatch("weights must be a vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise BadParameter("linear weights must be finite and nonnegative")
        if not np.any(w > 0):
            raise BadParameter("linear valuation needs a positive weight")
        super().__init__(w.shape[0], 1.0)
        self.weights = w
        self.weights.flags.writeable = False
        self._check_homogeneity()

    def value(self, x):
        return float(self.weights @ as_bundle(x, self.m))

    def values_batch(self, X):
        return X @ self.weights

    def partials(self, x):
        as_bundle(x, self.m)
        return self.weights.copy(), np.ones(self.m, dtype=bool)

    def hessian(self, x):
        as_bundle(x, self.m)
        return np.zeros((self.m, self.m))

    def valued_goods(self):
        return self.weights > 0

    def to_json(self):
        return {"kind": self.kind, "weights": [float(w) for w in self.weights]}


class Power(Valuation):
    """v(x) = w * x**r on a single good, w > 0, r in (0, 1]."""

    kind = "power"

    def __init__(self, weight, degree):
        w = float(weight)
        if not np.isfinite(w) or w <= 0:
            raise BadParameter("power weight must be positive and finite")
        super().__init__(1, degree)
        self.weight = w
        self._check_homogeneity()

    def value(self, x):
        xb = as_bundle(x, 1)
        return float(self.weight * xb[0] ** self.degree)

    def values_batch(self, X):
        return self.weight * X[:, 0] ** self.degree

    def partials(self, x):
        xb = as_bundle(x, 1)
        if self.degree == 1.0:
            return np.array([self.weight]), np.ones(1, dtype=bool)
        if xb[0] == 0.0:
            return np.array([np.inf]), np.zeros(1, dtype=bool)
        g = self.weight * self.degree * xb[0] ** (self.degree - 1.0)
        return np.array([g]), np.ones(1, dtype=bool)

    def hessian(self, x):
        xb = as_bundle(x, 1)
        r = self.degree
        if r == 1.0:
            return np.zeros((1, 1))
        with np.errstate(divide="ignore"):
            return np.array([[self.weight * r * (r - 1.0) * xb[0] ** (r - 2.0)]])

    def valued_goods(self):
        return np.array([True])

    def divergent_at_zero(self):
        return np.array([self.degree < 1.0])

    def to_json(self):
        return {
            "kind": self.kind,
            "weights": [float(self.weight)],
            "degree": float(self.degree),
        }


class CobbDouglas(Valuation):
    """v(x) = scale * prod_j x_j**e_j with e >= 0 and degree = sum(e) in (0, 1]."""

    kind = "cobb-douglas"

    def __init__(self, exponents, scale=1.0):
        e = np.atleast_1d(np.asarray(exponents, dtype=float))
        if e.ndim != 1:
            raise DimensionMismatch("exponents must be a vector")
        if not np.all(np.isfinite(e)) or np.any(e < 0):
            raise BadParameter("exponents must be finite and nonnegative")
        if not np.any(e > 0):
            raise BadParameter("Cobb-Douglas valuation needs a positive exponent")
        c = float(scale)
        if not np.isfinite(c) or c <= 0:
            raise BadParameter("scale must be positive and finite")
        super().__init__(e.shape[0], float(e.sum()))
        self.exponents = e
        self.exponents.flags.writeable = False
        self.scale = c
        self._active = e > 0
        self._check_homogeneity()

    def value(self, x):
        xb = as_bundle(x, self.m)
        sel = self._active
        return float(self.scale * np.prod(xb[sel] ** self.exponents[sel]))

    def values_batch(self, X):
        sel = self._active
        return self.scale * np.prod(X[:, sel] ** self.exponents[sel], axis=1)

    def partials(self, x):
        xb = as_bundle(x, self.m)
        g = np.zeros(self.m)
        ok = np.ones(self.m, dtype=bool)
        sel = self._active
        zero_active = sel & (xb == 0.0)
        if zero_active.any():
            # v vanishes on this slice, so partials along goods with x_j > 0
            # are zero; the partials at the zero coordinates diverge.
            g[zero_active] = np.inf
            ok[zero_active] = False
            return g, ok
        v = self.value(xb)
        g[sel] = self.exponents[sel] * v / xb[sel]
        return g, ok

    def hessian(self, x):
        # v * (e e^T - diag e) / (x x^T) on the active goods
        xb = as_bundle(x, self.m)
        sel = self._active
        e, xs = self.exponents[sel], xb[sel]
        v = self.scale * np.prod(xs**e)
        H = np.zeros((self.m, self.m))
        with np.errstate(divide="ignore", invalid="ignore"):
            H[np.ix_(sel, sel)] = v * (np.outer(e, e) - np.diag(e)) / np.outer(xs, xs)
        return H

    def valued_goods(self):
        return self._active.copy()

    def divergent_at_zero(self):
        return self._active.copy()

    def to_json(self):
        return {
            "kind": self.kind,
            "weights": [float(e) for e in self.exponents],
            "scale": float(self.scale),
        }


class CesForm(Valuation):
    """v(x) = (sum_j w_j * x_j**sigma)**(degree/sigma), sigma in (0, 1]."""

    kind = "ces"

    def __init__(self, weights, sigma, degree):
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.ndim != 1:
            raise DimensionMismatch("weights must be a vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise BadParameter("weights must be finite and nonnegative")
        if not np.any(w > 0):
            raise BadParameter("CES valuation needs a positive weight")
        s = float(sigma)
        if not (0.0 < s <= 1.0):
            raise BadParameter(f"sigma must lie in (0, 1], got {sigma}")
        super().__init__(w.shape[0], degree)
        self.weights = w
        self.weights.flags.writeable = False
        self.sigma = s
        self._check_homogeneity()

    def _inner(self, xb):
        sel = self.weights > 0
        return float(self.weights[sel] @ xb[sel] ** self.sigma)

    def value(self, x):
        xb = as_bundle(x, self.m)
        S = self._inner(xb)
        return float(S ** (self.degree / self.sigma))

    def values_batch(self, X):
        sel = self.weights > 0
        S = X[:, sel] ** self.sigma @ self.weights[sel]
        return S ** (self.degree / self.sigma)

    def partials(self, x):
        xb = as_bundle(x, self.m)
        r, s = self.degree, self.sigma
        sel = self.weights > 0
        g = np.zeros(self.m)
        ok = np.ones(self.m, dtype=bool)
        S = self._inner(xb)
        if S == 0.0:
            # Every valued coordinate is zero.  With sigma = 1 and r = 1 the
            # function is linear and the gradient survives; otherwise the
            # partials at the valued coordinates diverge.
            if s == 1.0 and r == 1.0:
                g[sel] = self.weights[sel]
                return g, ok
            g[sel] = np.inf
            ok[sel] = False
            return g, ok
        if s < 1.0:
            zero_valued = sel & (xb == 0.0)
            if zero_valued.any():
                g[zero_valued] = np.inf
                ok[zero_valued] = False
            pos = sel & (xb > 0.0)
            g[pos] = r * self.weights[pos] * xb[pos] ** (s - 1.0) * S ** ((r - s) / s)
            return g, ok
        # sigma = 1: smooth in each coordinate as long as S > 0.
        g[sel] = r * self.weights[sel] * S ** (r - 1.0)
        return g, ok

    def hessian(self, x):
        # r(r-s) S**(r/s-2) u u^T + diag(r(s-1) S**(r/s-1) w x**(s-2)) on the
        # valued goods, u = w x**(s-1); the diagonal term vanishes at s = 1.
        xb = as_bundle(x, self.m)
        r, s = self.degree, self.sigma
        sel = self.weights > 0
        w, xs = self.weights[sel], xb[sel]
        # a numpy scalar, so S = 0 gives inf under errstate, not ZeroDivisionError
        S = np.float64(self._inner(xb))
        H = np.zeros((self.m, self.m))
        if r == 1.0 and s == 1.0:
            return H
        with np.errstate(divide="ignore", invalid="ignore"):
            u = w * xs ** (s - 1.0)
            block = r * (r - s) * S ** (r / s - 2.0) * np.outer(u, u)
            if s < 1.0:
                block += np.diag(r * (s - 1.0) * S ** (r / s - 1.0) * w * xs ** (s - 2.0))
        H[np.ix_(sel, sel)] = block
        return H

    def valued_goods(self):
        return self.weights > 0

    def divergent_at_zero(self):
        if self.sigma < 1.0:
            return self.weights > 0
        return np.zeros(self.m, dtype=bool)

    def to_json(self):
        return {
            "kind": self.kind,
            "weights": [float(w) for w in self.weights],
            "sigma": float(self.sigma),
            "degree": float(self.degree),
        }


class Leontief(Valuation):
    """v(x) = min over valued goods of x_j / w_j.  Degree 1, no gradient."""

    kind = "leontief"

    def __init__(self, weights):
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.ndim != 1:
            raise DimensionMismatch("weights must be a vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise BadParameter("weights must be finite and nonnegative")
        if not np.any(w > 0):
            raise BadParameter("Leontief valuation needs a positive weight")
        super().__init__(w.shape[0], 1.0)
        self.weights = w
        self.weights.flags.writeable = False
        self._check_homogeneity()

    def value(self, x):
        xb = as_bundle(x, self.m)
        sel = self.weights > 0
        return float(np.min(xb[sel] / self.weights[sel]))

    def values_batch(self, X):
        sel = self.weights > 0
        return np.min(X[:, sel] / self.weights[sel], axis=1)

    def partials(self, x):
        raise NotDifferentiable("Leontief valuations have no gradient")

    def hessian(self, x):
        raise NotDifferentiable("Leontief valuations have no gradient")

    def gradient(self, x):
        raise NotDifferentiable("Leontief valuations have no gradient")

    def valued_goods(self):
        return self.weights > 0

    def to_json(self):
        return {"kind": self.kind, "weights": [float(w) for w in self.weights]}


# -- module-level operations -------------------------------------------------


def value(v: Valuation, x) -> float:
    return v.value(x)


def gradient(v: Valuation, x) -> np.ndarray:
    return v.gradient(x)


def euler_residual(v: Valuation, x) -> float:
    """|x . grad v(x) - r * v(x)|; zero for exactly homogeneous valuations."""
    xb = as_bundle(x, v.m)
    g = v.gradient(xb)
    return abs(float(xb @ g) - v.degree * v.value(xb))


_KINDS = {
    cls.kind: cls for cls in (Linear, Power, CobbDouglas, CesForm, Leontief)
}


def from_json(fragment: dict) -> Valuation:
    """Build a valuation from its JSON fragment; inverse of to_json()."""
    if not isinstance(fragment, dict):
        raise BadParameter("valuation fragment must be an object")
    kind = fragment.get("kind")
    if kind not in _KINDS:
        raise BadParameter(f"unknown valuation kind {kind!r}")
    weights = fragment.get("weights")
    if weights is None:
        raise BadParameter(f"{kind} fragment is missing 'weights'")
    if kind == "linear":
        return Linear(weights)
    if kind == "power":
        if len(weights) != 1:
            raise DimensionMismatch("power valuations cover a single good")
        return Power(weights[0], fragment.get("degree", 1.0))
    if kind == "cobb-douglas":
        val = CobbDouglas(weights, fragment.get("scale", 1.0))
        stated = fragment.get("degree")
        if stated is not None and abs(val.degree - float(stated)) > DEGREE_TOL:
            raise BadParameter(
                f"cobb-douglas degree {stated} does not match exponent sum {val.degree}"
            )
        return val
    if kind == "ces":
        if "sigma" not in fragment or "degree" not in fragment:
            raise BadParameter("ces fragment needs 'sigma' and 'degree'")
        return CesForm(weights, fragment["sigma"], fragment["degree"])
    return Leontief(weights)
