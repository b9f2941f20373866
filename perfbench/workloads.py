"""Workload inputs drawn from a seed, and one round of public-API calls on them.

Every workload is a list of markets taken to a certified equilibrium, grid
oracle jobs, first-welfare checks and mechanism bid profiles.  The seed
draws weights, bids and the kappa of the Sybil report; the shapes, kinds,
rho, sigma and degrees are fixed per workload, so the work per round hardly
depends on the seed.  Every workload also carries the same small, fixed
anchor set (a single-good market, an oracle, a first-welfare check and
eight bid profiles), so each stage's time is measured on every workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import cesmarket as cm

WORKLOADS = ("ladder", "refine", "oracle", "mechanism")

# (kind, n, m, rho); CES agents use sigma 0.5 and degree 1, Cobb-Douglas
# agents degree 0.9.  Smooth 6x6 markets take 3-7 s each and are left out
# so that a run holds several rounds; the 6x6 rung is Leontief.
LADDER = (
    ("linear", 3, 3, 0.25),
    ("ces", 3, 3, 0.5),
    ("cobb-douglas", 3, 3, 0.75),
    ("leontief", 3, 3, 1.0),
    ("linear", 4, 4, 0.5),
    ("ces", 4, 4, 1.0),
    ("cobb-douglas", 4, 4, 0.25),
    ("leontief", 4, 4, 0.75),
    ("linear", 5, 5, 0.75),
    ("leontief", 5, 5, 0.5),
    ("leontief", 6, 6, 0.25),
)
# (n = m, rho, sigma): strictly concave CES markets with a short search.
REFINE = ((8, 0.25, 0.5), (10, 0.5, 0.3), (12, 0.75, 0.7))
REFINE_MAX_ITERS = 300
# Oracle jobs: (kind, n, m, rho, resolution).  The 3x1 job is
# enumeration-bound, the multi-good jobs are scoring-bound.
ORACLE = (
    ("linear", 3, 1, 0.5, 800),
    ("ces", 3, 2, 0.75, 60),
    ("ces", 2, 3, 0.5, 100),
)
# First-welfare checks on linear markets (n, m); the library picks the
# grid: 2x3 scores 201**3 points.
FIRST_WELFARE = ((2, 3),)
# Mechanism profiles: every n in 2..8 at each (rho, degree).
MECHANISM_RHOS = (0.25, 0.5, 0.75, 0.9)
MECHANISM_DEGREES = (1.0, 0.5)
MECHANISM_NS = range(2, 9)
ANCHOR_RESOLUTION = 200
SCAN_GRID = 400

CERTIFIED, ORACLE_STAGE, MECHANISM_STAGE = "certified_s", "oracle_s", "mechanism_s"
STAGES = (CERTIFIED, ORACLE_STAGE, MECHANISM_STAGE)


@dataclass
class Market:
    key: str
    instance: cm.Instance
    kappa: float
    max_iters: int = 100_000


@dataclass
class OracleJob:
    key: str
    market: Market
    resolution: int


@dataclass
class WelfareJob:
    key: str
    instance: cm.Instance
    allocation: np.ndarray
    prices: np.ndarray


@dataclass
class Profile:
    key: str
    bids: np.ndarray
    degree: float
    rho: float


@dataclass
class Inputs:
    markets: list = field(default_factory=list)
    oracles: list = field(default_factory=list)
    welfare: list = field(default_factory=list)
    profiles: list = field(default_factory=list)
    order: list = field(default_factory=list)    # (Round method, input) in call order

    def items(self):
        return ([("market", x) for x in self.markets] + [("oracle", x) for x in self.oracles]
                + [("welfare", x) for x in self.welfare]
                + [("profile", x) for x in self.profiles])


def _valuation(rng, kind, m, sigma=0.5):
    w = rng.uniform(0.3, 3.0, m)
    if kind == "linear":
        return cm.Linear(w)
    if kind == "ces":
        return cm.CesForm(w, sigma, 1.0)
    if kind == "cobb-douglas":
        u = rng.uniform(0.2, 1.0, m)
        return cm.CobbDouglas(0.9 * u / u.sum(), float(w[0]))
    return cm.Leontief(w)


def _market(rng, key, kind, n, m, rho, sigma=0.5, max_iters=100_000):
    vals = tuple(_valuation(rng, kind, m, sigma) for _ in range(n))
    return Market(key, cm.Instance(vals, rho), float(rng.uniform(0.1, 1.0)), max_iters)


def _linear_equilibrium(key, W):
    """A linear market with its linear-price equilibrium written out:
    each good goes to its highest-weight agent at a price of that weight."""
    n, m = W.shape
    X = np.zeros((n, m))
    X[np.argmax(W, axis=0), np.arange(m)] = 1.0
    inst = cm.Instance(tuple(cm.Linear(w) for w in W), 1.0)
    return WelfareJob(key, inst, X, W.max(axis=0))


# The anchor set is fixed: with drawn weights its small stage times moved
# with the draw.  The market is the water market of the package README.
ANCHOR = Market(
    "anchor-water-3x1-linear-rho0.5",
    cm.Instance((cm.Linear([1.0]), cm.Linear([6.0]), cm.Linear([5.0])), 0.5),
    kappa=0.5,
)
ANCHOR_WELFARE = _linear_equilibrium("anchor-2x2-first-welfare",
                                     np.array([[1.0, 2.0], [3.0, 0.5]]))
ANCHOR_BIDS = np.array([1.0, 6.0, 5.0, 2.0, 4.0, 3.0, 0.5, 1.5])
ANCHOR_PROFILES = [
    Profile(f"anchor-bids8-deg{degree}-rho{rho}", ANCHOR_BIDS, degree, rho)
    for rho in MECHANISM_RHOS for degree in MECHANISM_DEGREES
]


def build(workload, seed):
    """Inputs of one workload; the same (workload, seed) gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inp = Inputs()
    if workload == "ladder":
        for kind, n, m, rho in LADDER:
            inp.markets.append(_market(rng, f"{n}x{m}-{kind}-rho{rho}", kind, n, m, rho))
    elif workload == "refine":
        for n, rho, sigma in REFINE:
            key = f"{n}x{n}-ces-sigma{sigma}-rho{rho}"
            inp.markets.append(
                _market(rng, key, "ces", n, n, rho, sigma, REFINE_MAX_ITERS)
            )
    elif workload == "oracle":
        for kind, n, m, rho, res in ORACLE:
            market = _market(rng, f"{n}x{m}-{kind}-rho{rho}", kind, n, m, rho)
            inp.markets.append(market)
            inp.oracles.append(OracleJob(f"{market.key}-grid{res}", market, res))
        for n, m in FIRST_WELFARE:
            W = rng.uniform(0.3, 3.0, (n, m))
            inp.welfare.append(_linear_equilibrium(f"{n}x{m}-first-welfare", W))
    else:
        for rho in MECHANISM_RHOS:
            for degree in MECHANISM_DEGREES:
                for n in MECHANISM_NS:
                    key = f"bids{n}-deg{degree}-rho{rho}"
                    inp.profiles.append(Profile(key, rng.uniform(0.5, 3.0, n), degree, rho))
    anchor = Inputs([ANCHOR], [OracleJob(f"{ANCHOR.key}-grid{ANCHOR_RESOLUTION}", ANCHOR,
                                         ANCHOR_RESOLUTION)],
                    [ANCHOR_WELFARE], list(ANCHOR_PROFILES))
    # Spread the anchor calls evenly through the round, so that they see the
    # same stretch of machine time as the workload's own calls.
    inp.order = inp.items()
    n, extra = len(inp.order), anchor.items()
    for k in reversed(range(len(extra))):
        inp.order.insert(n * (k + 1) // (len(extra) + 1), extra[k])
    for name in ("markets", "oracles", "welfare", "profiles"):
        getattr(inp, name).extend(getattr(anchor, name))
    return inp


def _is_leontief(market):
    return isinstance(market.instance.valuations[0], cm.Leontief)


class Round:
    """One pass over every input, timing each public call by stage.

    Calls go through attributes of the ``cm`` module at call time, so an
    installed tracer sees them.  An operation that raises is counted as
    failed, and so are the later operations of the same market, which are
    then not attempted; `attempted` is therefore the same every round.
    """

    def __init__(self, tracer=None, tag=""):
        self.tracer = tracer
        self.tag = tag
        self.times = {}          # (stage, market key, call index) -> seconds
        self.outputs = {}
        self.failed = 0
        self.failed_keys = set()
        self.errors = []

    @property
    def attempted(self):
        return len(self.times) + self.failed

    def _call(self, stage, key, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.market = self.tag + key
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times[stage, key, len(self.times)] = time.perf_counter() - start
        return out

    def _guarded(self, key, steps, body):
        try:
            body()
        except cm.CesMarketError as exc:
            done = len(self.outputs.get(key, {}))
            self.failed += steps - done
            self.failed_keys.add(key)
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")

    def market(self, market):
        inst = market.instance
        out = self.outputs.setdefault(market.key, {})
        if _is_leontief(market):
            def body():
                res = self._call(CERTIFIED, market.key, cm.solve_leontief, inst,
                                 max_iters=market.max_iters)
                out["solve"] = res
                out["rule"] = self._call(CERTIFIED, market.key, cm.make_pricing_rule,
                                         res.multipliers, inst.rho, inst.degree)
            self._guarded(market.key, 2, body)
            return

        def body():
            res = self._call(CERTIFIED, market.key, cm.solve_ces, inst,
                             max_iters=market.max_iters)
            out["solve"] = res
            X = res.allocation
            rule = self._call(CERTIFIED, market.key, cm.equilibrium_rule, inst, X)
            out["rule"] = rule
            out["certificate"] = self._call(CERTIFIED, market.key, cm.we_certificate,
                                            inst, X, rule)
            out["fisher"] = self._call(CERTIFIED, market.key, cm.to_fisher, inst, X, rule)
            if inst.degree == 1.0:
                out["sybil"] = self._call(CERTIFIED, market.key, cm.swe_check, inst, X,
                                          rule, market.kappa)
        self._guarded(market.key, 4 + (inst.degree == 1.0), body)

    def oracle(self, job):
        out = self.outputs.setdefault(job.key, {})

        def body():
            out["oracle"] = self._call(ORACLE_STAGE, job.key, cm.grid_oracle,
                                       job.market.instance, job.resolution)
        self._guarded(job.key, 1, body)

    def welfare(self, job):
        out = self.outputs.setdefault(job.key, {})

        def body():
            out["first_welfare"] = self._call(ORACLE_STAGE, job.key, cm.first_welfare_check,
                                              job.instance, job.allocation, job.prices)
        self._guarded(job.key, 1, body)

    def profile(self, prof):
        out = self.outputs.setdefault(prof.key, {})
        n = prof.bids.shape[0]

        def body():
            profile = cm.BidProfile(prof.bids, prof.degree, prof.rho)
            out["allocation"] = self._call(MECHANISM_STAGE, prof.key,
                                           cm.truthful_allocation, profile)
            for i in range(n):
                out[f"payment{i}"] = self._call(MECHANISM_STAGE, prof.key,
                                                cm.truthful_payment, profile, i)
            others = [np.delete(prof.bids, i) for i in range(n)]
            for i in range(n):
                out[f"scan{i}"] = self._call(MECHANISM_STAGE, prof.key,
                                             cm.best_response_scan, float(prof.bids[i]),
                                             others[i], prof.degree, prof.rho,
                                             SCAN_GRID)
        self._guarded(prof.key, 1 + 2 * n, body)

    def run(self, inp):
        for method, item in inp.order:
            getattr(self, method)(item)
        return self
