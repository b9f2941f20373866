"""Layer tracing for the benchmark, installed from outside the package.

The tracer replaces module attributes of ``cesmarket`` with timing
wrappers while it is installed and puts the originals back afterwards.  A
function imported under the same object into several modules (for example
``solve_ces`` in ``solver``, ``cli`` and the package namespace, or
``we_certificate`` in ``pricing`` and ``sybil``) is replaced everywhere it
appears, so calls between modules are seen too.

Function calls become spans (name, start, end, parent, market id) kept in
memory.  Valuation methods are called millions of times by the search, so
they are counted instead: one counter per method, plus the summed time of
``values_batch``.  Only the outermost valuation call is counted; a
``partials`` made inside ``gradient`` is part of that gradient call.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# Layers named by their defining module.  ``_compositions`` is the grid
# oracle's enumeration; it recurses through its module attribute, so only
# its outermost call becomes a span.  extract_multipliers and
# make_pricing_rule stay inside equilibrium_rule.
SPAN_FUNCTIONS = {
    "ellipsoid": ("ellipsoid_minimize",),
    "solver": ("solve_ces", "solve_leontief", "kkt_residual", "grid_oracle",
               "_compositions"),
    "pricing": ("equilibrium_rule", "we_certificate", "to_fisher"),
    "sybil": ("swe_check",),
    "mechanism": ("truthful_allocation", "truthful_payment", "best_response_scan"),
    "demos": ("first_welfare_check",),
}
MODULES = (
    "cesmarket",
    "cesmarket.ellipsoid",
    "cesmarket.valuations",
    "cesmarket.welfare",
    "cesmarket.solver",
    "cesmarket.pricing",
    "cesmarket.sybil",
    "cesmarket.mechanism",
    "cesmarket.demos",
    "cesmarket.jsonio",
    "cesmarket.cli",
)
VALUATION_METHODS = ("value", "gradient", "partials", "values_batch")


class Tracer:
    """Spans and counters for one process; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []          # dicts; "parent" is an index into spans or None
        self.counters = Counter()
        self.market = None       # id shared by the spans of one market
        self._stack = []
        self._valuation_depth = 0
        self._saved = []         # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(name) for name in MODULES]
        for modname, names in SPAN_FUNCTIONS.items():
            home = importlib.import_module(f"cesmarket.{modname}")
            for name in names:
                original = getattr(home, name)
                wrapped = self._span_wrapper(f"{modname}.{name}", original)
                for mod in modules:
                    for attr, obj in list(vars(mod).items()):
                        if obj is original:
                            self._replace(mod, attr, wrapped)
        valuations = importlib.import_module("cesmarket.valuations")
        for cls in vars(valuations).values():
            if isinstance(cls, type) and issubclass(cls, valuations.Valuation):
                for meth in VALUATION_METHODS:
                    if meth in vars(cls):
                        original = vars(cls)[meth]
                        self._replace(cls, meth, self._count_wrapper(meth, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer._stack and tracer.spans[tracer._stack[-1]]["name"] == name:
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "market": tracer.market,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "start": time.perf_counter(),
            }
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            rows = tracer.counters["oracle_rows"]
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span["end"] = time.perf_counter()
            if name == "ellipsoid.ellipsoid_minimize":
                span["iterations"] = int(out[2])
            elif name in ("solver.solve_ces", "solver.solve_leontief"):
                span["iterations"] = int(out.iterations)
            elif name == "solver.grid_oracle":
                span["points"] = (tracer.counters["oracle_rows"] - rows) // args[0].n
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _count_wrapper(self, meth, fn):
        tracer = self
        timed = meth == "values_batch"

        def wrapped(*args, **kwargs):
            if tracer._valuation_depth:
                return fn(*args, **kwargs)
            tracer.counters[f"valuations.{meth}"] += 1
            tracer._valuation_depth += 1
            start = time.perf_counter() if timed else 0.0
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._valuation_depth -= 1
            if timed:
                tracer.counters["valuations.values_batch_s"] += time.perf_counter() - start
                if tracer._inside("solver.grid_oracle"):
                    tracer.counters["oracle_rows"] += len(args[1])
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _inside(self, name):
        return any(self.spans[i]["name"] == name for i in self._stack)

    # -- results -----------------------------------------------------------

    def mark(self):
        """Position to measure from: (first new span, counters so far)."""
        return len(self.spans), Counter(self.counters)

    def layer_metrics(self, since):
        """Per-layer metrics of the spans and counts recorded after `since`."""
        first, before = since
        spans = self.spans[first:]
        child = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        own = defaultdict(float)
        iters = defaultdict(int)
        points = 0
        for k, span in enumerate(spans, start=first):
            own[span["name"]] += span["end"] - span["start"] - child[k]
            iters[span["name"]] += span.get("iterations", 0)
            points += span.get("points", 0)
        count = {k: self.counters[k] - before[k] for k in self.counters}
        count = defaultdict(float, count)
        solves = ("solver.solve_ces", "solver.solve_leontief")
        return {
            "ellipsoid.search_s": own["ellipsoid.ellipsoid_minimize"],
            "ellipsoid.iters": iters["ellipsoid.ellipsoid_minimize"],
            "valuations.gradient_calls": count["valuations.gradient"],
            "valuations.value_calls": count["valuations.value"],
            "valuations.partials_calls": count["valuations.partials"],
            "valuations.values_batch_s": count["valuations.values_batch_s"],
            "solver.refine_s": sum(own[n] for n in solves),
            "solver.refine_iters": sum(iters[n] for n in solves)
            - iters["ellipsoid.ellipsoid_minimize"],
            "solver.kkt_residual_s": own["solver.kkt_residual"],
            "solver.oracle_enum_s": own["solver._compositions"],
            "solver.oracle_points": points,
            "pricing.rule_s": own["pricing.equilibrium_rule"],
            "pricing.certificate_s": own["pricing.we_certificate"],
            "pricing.fisher_s": own["pricing.to_fisher"],
            "sybil.swe_s": own["sybil.swe_check"],
            "demos.first_welfare_s": own["demos.first_welfare_check"],
            "mechanism.payment_s": own["mechanism.truthful_payment"],
            "mechanism.scan_s": own["mechanism.best_response_scan"],
            "mechanism.payments": sum(
                1 for s in spans if s["name"] == "mechanism.truthful_payment"
            ),
            "mechanism.scans": sum(
                1 for s in spans if s["name"] == "mechanism.best_response_scan"
            ),
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
