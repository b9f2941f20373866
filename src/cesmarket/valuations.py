"""Homogeneous concave valuation families with value and gradient oracles.

Every kind maps a nonnegative bundle x to a scalar value v(x) >= 0 with
v(0) = 0, is concave and nondecreasing, and is homogeneous of a stored
degree r in (0, 1]: v(t * x) = t**r * v(x).  The degree is validated
numerically at construction.  Gradients are exact where they exist;
divergent boundary partials are reported as errors, never as infinities.
Hessians are exact wherever every partial is finite.

Each closed form is written once, in an agent-stacked kernel.  A kind's
static _values, _partials and _hessians take its stacked parameters
(from _stack) and a (k, m) array whose row i is agent i's bundle.  They
return the k values, the (k, m) partials with their finiteness mask, or
the (k, m, m) Hessians; Leontief has values only.  The public one-bundle
methods value, partials and hessian check the bundle with as_bundle, then
run the same kernel on one row.  ValuationStack groups a market's agents
by kind, and by the scalars a kind's kernels take (sigma and degree for
CES, the degree for power).  It evaluates every agent with one kernel
call per group and no validation; the solver builds one per solve and
reads its per-agent facts (valued, divergent, degrees) from it.
values_batch, one agent's values over many bundles (a matrix-vector
product), is the grid oracle's path and keeps its own form.  Every kind
with a gradient has one agent-level closed form, _value_per_cost(q): the
largest v(d) over bundles with q . d = 1, at any degree (inf when a valued
good is free), so that by homogeneity beta**r times it is the best value
at cost beta.  Leontief, which never reaches a first-order check, has none.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property

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
# must share theirs to it, and a degree within DEGREE_TOL of 1 (exponents
# that sum one ulp either side of 1) is taken as exactly 1.
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


def _row_dot(A, B):
    """Row-wise dot products of two (k, m) arrays.

    A stacked matmul: each entry equals the one-row A[i] @ B[i] bit for bit,
    which einsum and (A * B).sum(1) do not.
    """
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def _best_ratio(w, q) -> float:
    """max w_j / q_j over the goods with w_j > 0; inf when one of them is free."""
    sel = w > 0
    with np.errstate(divide="ignore"):
        return float(np.max(w[sel] / q[sel]))


class Valuation(ABC):
    """One agent's valuation over m divisible goods."""

    kind: str = ""

    def __init__(self, m: int, degree: float):
        if m < 1:
            raise DimensionMismatch("valuation needs at least one good")
        if not (0.0 < degree <= 1.0 + DEGREE_TOL):
            raise BadParameter(f"degree must lie in (0, 1], got {degree}")
        self.m = int(m)
        self.degree = 1.0 if degree >= 1.0 - DEGREE_TOL else float(degree)

    # -- required per-kind operations -------------------------------------

    @classmethod
    @abstractmethod
    def _stack(cls, members) -> tuple:
        """Kernel parameters of same-group members, stacked row by row."""

    @staticmethod
    @abstractmethod
    def _values(P, X) -> np.ndarray:
        """Values of the k agents with stacked parameters P at the rows of X."""

    @staticmethod
    @abstractmethod
    def _partials(P, X) -> tuple[np.ndarray, np.ndarray]:
        """(G, ok) of shape (k, m) at the rows of X, as partials() per row."""

    @staticmethod
    @abstractmethod
    def _hessians(P, X) -> np.ndarray:
        """(k, m, m) second partials at the rows of X, as hessian() per row."""

    @abstractmethod
    def values_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized v over rows of an (k, m) array.  No validation."""

    @abstractmethod
    def valued_goods(self) -> np.ndarray:
        """Boolean mask of goods this valuation actually responds to."""

    @abstractmethod
    def to_json(self) -> dict:
        """JSON-ready parameter fragment for this valuation."""

    # -- shared behaviour ---------------------------------------------------

    def _group(self):
        """Agents with equal keys stack into one kernel call: one kind, and
        one value of each scalar the kind's kernels take."""
        return (type(self),)

    @cached_property
    def _row(self):
        """This agent's kernel parameters, stacked as a group of one."""
        return self._stack([self])

    def value(self, x) -> float:
        """v(x) for a single bundle."""
        return float(self._values(self._row, as_bundle(x, self.m)[None])[0])

    def partials(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Gradient with a finiteness mask.

        Returns (g, ok) where g[j] is the partial derivative when ok[j] is
        True and np.inf when the partial diverges at a zero coordinate.
        Raises NotDifferentiable for kinds with no gradient at all.
        """
        G, ok = self._partials(self._row, as_bundle(x, self.m)[None])
        return G[0], ok[0]

    def hessian(self, x) -> np.ndarray:
        """(m, m) matrix of second partials at x.

        Exact wherever partials() reports every partial finite.  Entries
        whose row and column both belong to divergent partials are not
        finite (never an exception), and entries between finite partials
        stay exact.  Raises NotDifferentiable for kinds with no gradient at
        all.
        """
        return self._hessians(self._row, as_bundle(x, self.m)[None])[0]

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

    @classmethod
    def _stack(cls, members):
        return (np.stack([v.weights for v in members]),)

    @staticmethod
    def _values(P, X):
        return _row_dot(P[0], X)

    @staticmethod
    def _partials(P, X):
        return P[0].copy(), np.ones(X.shape, dtype=bool)

    @staticmethod
    def _hessians(P, X):
        k, m = X.shape
        return np.zeros((k, m, m))

    def values_batch(self, X):
        return X @ self.weights

    def valued_goods(self):
        return self.weights > 0

    def _value_per_cost(self, q):
        return _best_ratio(self.weights, q)

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

    def _group(self):
        return (Power, self.degree)

    @classmethod
    def _stack(cls, members):
        return np.array([v.weight for v in members]), members[0].degree

    @staticmethod
    def _values(P, X):
        w, r = P
        return w * X[:, 0] ** r

    @staticmethod
    def _partials(P, X):
        w, r = P
        if r == 1.0:
            return w[:, None].copy(), np.ones(X.shape, dtype=bool)
        zero = X == 0.0
        with np.errstate(divide="ignore"):
            G = (w * r * X[:, 0] ** (r - 1.0))[:, None]
        G[zero] = np.inf
        return G, ~zero

    @staticmethod
    def _hessians(P, X):
        w, r = P
        if r == 1.0:
            return np.zeros((X.shape[0], 1, 1))
        with np.errstate(divide="ignore"):
            return (w * r * (r - 1.0) * X[:, 0] ** (r - 2.0))[:, None, None]

    def values_batch(self, X):
        return self.weight * X[:, 0] ** self.degree

    def valued_goods(self):
        return np.array([True])

    def divergent_at_zero(self):
        return np.array([self.degree < 1.0])

    def _value_per_cost(self, q):
        with np.errstate(divide="ignore"):
            return float(self.weight * q[0] ** -self.degree)

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

    @classmethod
    def _stack(cls, members):
        return (
            np.stack([v.exponents for v in members]),
            np.array([v.scale for v in members]),
        )

    @staticmethod
    def _values(P, X):
        # x**0 = 1 exactly, so goods with a zero exponent drop out of the product
        E, c = P
        return c * np.prod(X**E, axis=1)

    @staticmethod
    def _partials(P, X):
        # at a zero active coordinate v vanishes on that slice: partials along
        # goods with x_j > 0 are zero and those at the zero coordinates diverge
        E = P[0]
        zero = (E > 0.0) & (X == 0.0)
        smooth = (E > 0.0) & ~zero.any(axis=1, keepdims=True)
        V = CobbDouglas._values(P, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            G = np.where(smooth, E * V[:, None] / X, 0.0)
        G[zero] = np.inf
        return G, ~zero

    @staticmethod
    def _hessians(P, X):
        # v * (e e^T - diag e) / (x x^T) on the active goods
        E = P[0]
        m = E.shape[1]
        active = E > 0.0
        V = CobbDouglas._values(P, X)
        EE = E[:, :, None] * E[:, None, :]
        diag = np.arange(m)
        EE[:, diag, diag] -= E
        with np.errstate(divide="ignore", invalid="ignore"):
            H = V[:, None, None] * EE / (X[:, :, None] * X[:, None, :])
        return np.where(active[:, :, None] & active[:, None, :], H, 0.0)

    def values_batch(self, X):
        sel = self._active
        return self.scale * np.prod(X[:, sel] ** self.exponents[sel], axis=1)

    def valued_goods(self):
        return self._active.copy()

    def divergent_at_zero(self):
        return self._active.copy()

    def _value_per_cost(self, q):
        # the optimum spends the share e_j / r of the budget on good j
        e = self.exponents[self._active]
        with np.errstate(divide="ignore"):
            return float(self.scale * np.prod((e / (self.degree * q[self._active])) ** e))

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

    def _group(self):
        return (CesForm, self.sigma, self.degree)

    @classmethod
    def _stack(cls, members):
        return np.stack([v.weights for v in members]), members[0].sigma, members[0].degree

    @staticmethod
    def _inner(W, s, X):
        """S = sum_j w_j x_j**s per row."""
        return _row_dot(W, X**s)

    @staticmethod
    def _values(P, X):
        W, s, r = P
        return CesForm._inner(W, s, X) ** (r / s)

    @staticmethod
    def _partials(P, X):
        # The partial along a valued good is r w_j x_j**(s-1) S**((r-s)/s)
        # with S = sum_j w_j x_j**s.  It diverges at x_j = 0 when s < 1, and
        # at S = 0 when s = 1 and r < 1; at s = r = 1 the form is linear.
        W, s, r = P
        valued = W > 0.0
        S = CesForm._inner(W, s, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            if s < 1.0:
                G = r * W * X ** (s - 1.0) * (S ** ((r - s) / s))[:, None]
                div = valued & (X == 0.0)
            else:
                G = r * W * (S ** (r - 1.0))[:, None]
                div = valued & (S == 0.0)[:, None] & (r < 1.0)
        G = np.where(valued & ~div, G, 0.0)
        G[div] = np.inf
        return G, ~div

    @staticmethod
    def _hessians(P, X):
        # r(r-s) S**(r/s-2) u u^T + diag(r(s-1) S**(r/s-1) w x**(s-2)) on the
        # valued goods, u = w x**(s-1); the diagonal term vanishes at s = 1.
        W, s, r = P
        k, m = X.shape
        if r == 1.0 and s == 1.0:
            return np.zeros((k, m, m))
        valued = W > 0.0
        S = CesForm._inner(W, s, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            U = W * X ** (s - 1.0)
            H = (r * (r - s) * S ** (r / s - 2.0))[:, None, None] * (
                U[:, :, None] * U[:, None, :]
            )
            if s < 1.0:
                diag = np.arange(m)
                H[:, diag, diag] += (
                    (r * (s - 1.0) * S ** (r / s - 1.0))[:, None] * W * X ** (s - 2.0)
                )
        return np.where(valued[:, :, None] & valued[:, None, :], H, 0.0)

    def values_batch(self, X):
        sel = self.weights > 0
        S = X[:, sel] ** self.sigma @ self.weights[sel]
        return S ** (self.degree / self.sigma)

    def valued_goods(self):
        return self.weights > 0

    def divergent_at_zero(self):
        if self.sigma < 1.0:
            return self.weights > 0
        return np.zeros(self.m, dtype=bool)

    def _value_per_cost(self, q):
        # the degree-1 form's best value u at unit cost, raised to the degree
        s = self.sigma
        if s == 1.0:
            return _best_ratio(self.weights, q) ** self.degree
        sel = self.weights > 0
        with np.errstate(divide="ignore"):
            terms = self.weights[sel] ** (1.0 / (1.0 - s)) * q[sel] ** (-s / (1.0 - s))
            return float(terms.sum() ** ((1.0 - s) / s)) ** self.degree

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

    @classmethod
    def _stack(cls, members):
        return (np.stack([v.weights for v in members]),)

    @staticmethod
    def _values(P, X):
        W = P[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.min(np.where(W > 0.0, X / W, np.inf), axis=1)

    @staticmethod
    def _partials(P, X):
        raise NotDifferentiable("Leontief valuations have no gradient")

    _hessians = _partials

    def values_batch(self, X):
        sel = self.weights > 0
        return np.min(X[:, sel] / self.weights[sel], axis=1)

    def valued_goods(self):
        return self.weights > 0

    def to_json(self):
        return {"kind": self.kind, "weights": [float(w) for w in self.weights]}


class ValuationStack:
    """A market's valuations grouped for agent-stacked evaluation.

    Agents whose parameters stack (one kind and degree, and for CES one
    sigma) form a group.  Each method evaluates every group with its kind's
    kernel on the group's rows of an (n, m) allocation and scatters the
    results back into agent order.  No validation, and no per-agent Python
    work: build it once and evaluate it many times.  The per-agent facts
    valued, divergent (n, m) and degrees (n,) are stacked on first use.
    """

    def __init__(self, valuations):
        self.valuations = tuple(valuations)
        self.n, self.m = len(self.valuations), self.valuations[0].m
        groups = {}
        for i, v in enumerate(self.valuations):
            groups.setdefault(v._group(), []).append(i)
        self._groups = []
        for rows in groups.values():
            members = [self.valuations[i] for i in rows]
            # a single group covers every agent in order: no gather or scatter
            index = slice(None) if len(rows) == self.n else np.array(rows)
            self._groups.append((type(members[0]), index, type(members[0])._stack(members)))

    @cached_property
    def valued(self) -> np.ndarray:
        return np.stack([v.valued_goods() for v in self.valuations])

    @cached_property
    def divergent(self) -> np.ndarray:
        return np.stack([v.divergent_at_zero() for v in self.valuations]) & self.valued

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array([v.degree for v in self.valuations])

    def values(self, X) -> np.ndarray:
        """(n,) values, agent i at row i of X."""
        V = np.empty(self.n)
        for cls, rows, P in self._groups:
            V[rows] = cls._values(P, X[rows])
        return V

    def partials(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(n, m) partials and finiteness mask, as Valuation.partials per row."""
        G = np.empty((self.n, self.m))
        ok = np.empty((self.n, self.m), dtype=bool)
        for cls, rows, P in self._groups:
            G[rows], ok[rows] = cls._partials(P, X[rows])
        return G, ok

    def hessians(self, X) -> np.ndarray:
        """(n, m, m) Hessians, as Valuation.hessian per row."""
        H = np.empty((self.n, self.m, self.m))
        for cls, rows, P in self._groups:
            H[rows] = cls._hessians(P, X[rows])
        return H


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
