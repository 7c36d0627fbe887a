"""Per-layer tracing of semiswitch from outside the program.

The tracer replaces public functions on the module attributes their
callers look up (``semiswitch.cli.build_field``,
``semiswitch.families.nuclei``, ...) with wrappers that record a span
per call: name, start, end, parent span and run id.  It also counts
``BinaryOp.__call__`` evaluations.  Spans stay in memory until the run
ends.  A layer's self time is its spans' durations minus the parts
covered by their direct children; ``cli.self`` is the ``cli.main`` span
minus everything wrapped below it, so all self times together add up to
the time spent inside ``cli.main``.

Nothing under ``src/`` is edited: :meth:`Tracer.install` patches
attributes and :meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "cli.main"

# span name -> (module, attribute) pairs through which callers reach the function
TARGETS = {
    "gf.build_field": [("semiswitch.cli", "build_field")],
    "linpoly.search": [("semiswitch.linpoly", "search")],
    "linpoly.switching_predicate": [
        ("semiswitch.linpoly", "switching_predicate"),
        ("semiswitch.families", "switching_predicate"),
    ],
    "codes.full_weight_search": [("semiswitch.codes", "full_weight_search")],
    "families.classify": [("semiswitch.families", "classify")],
    "families.matches_n3": [("semiswitch.families", "matches_n3")],
    "presemifield.verify_presemifield": [
        ("semiswitch.presemifield", "verify_presemifield"),
        ("semiswitch.families", "verify_presemifield"),
    ],
    "presemifield.unitalize": [
        ("semiswitch.presemifield", "unitalize"),
        ("semiswitch.families", "unitalize"),
    ],
    "presemifield.nuclei": [
        ("semiswitch.presemifield", "nuclei"),
        ("semiswitch.families", "nuclei"),
    ],
    "presemifield.commutative_isotopy_test": [
        ("semiswitch.presemifield", "commutative_isotopy_test"),
        ("semiswitch.families", "commutative_isotopy_test"),
    ],
    "presemifield.find_zero_divisor": [("semiswitch.presemifield", "find_zero_divisor")],
    "hws.curve_verdicts": [("semiswitch.hws", "curve_verdicts")],
    "hws.min_max_leader": [("semiswitch.hws", "min_max_leader")],
    "hws.rational_point_count": [("semiswitch.hws", "rational_point_count")],
    "digits.vanishing_sums_check": [("semiswitch.digits", "vanishing_sums_check")],
}

EXTRA_COUNTS = (
    "linpoly.search.candidates",
    "linpoly.search.hits",
    "presemifield.op_calls",
    "hws.elements_scanned",
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TARGETS:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({name: "count" for name in EXTRA_COUNTS})
    units["linpoly.search.hit_ratio"] = "ratio"
    units["cli.self.s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


def _count_search(counts, bound, result):
    ctx, support, mode = bound["ctx"], bound["support"], bound["mode"]
    if mode == "random":
        from semiswitch.linpoly import search_budget

        candidates = search_budget(bound["budget"])
    else:
        size = ctx.n if support is None else len(set(support))
        candidates = ctx.order**size
    counts["linpoly.search.candidates"] += candidates
    counts["linpoly.search.hits"] += len(result)


def _count_points(counts, bound, result):
    counts["hws.elements_scanned"] += bound["L"].ctx.order


COUNTERS = {
    "linpoly.search": _count_search,
    "hws.rational_point_count": _count_points,
}


class Tracer:
    """Spans and counts of traced runs; one instance per benchmark run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.counts = defaultdict(Counter)  # run id -> counts
        self.run_id = 0
        self.missing = []
        self._stack = []
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.counts[self.run_id][f"{name}.calls"] += 1
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer.counts[tracer.run_id], bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every target attribute and ``BinaryOp.__call__``."""
        wrappers = {}
        self.missing = []
        for name, sites in TARGETS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
        from semiswitch.presemifield import BinaryOp

        original_call = BinaryOp.__call__
        tracer = self

        def counted_call(op, x, y):
            tracer.counts[tracer.run_id]["presemifield.op_calls"] += 1
            return original_call(op, x, y)

        self._saved.append((BinaryOp, "__call__", original_call))
        BinaryOp.__call__ = counted_call

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def self_times(self, run_id):
        """Span name -> summed self time over the spans of one run."""
        child = defaultdict(float)
        for name, start, end, parent, rid in self.spans:
            if rid == run_id and parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid == run_id:
                out[name] += end - start - child[idx]
        return out

    def layer_metrics(self, run_id, wall):
        """Per-layer metrics of one traced pass that took ``wall`` seconds."""
        self_s = self.self_times(run_id)
        counts = self.counts[run_id]
        metrics = {}
        for name in TARGETS:
            metrics[f"{name}.s"] = self_s.get(name, 0.0)
            metrics[f"{name}.calls"] = counts[f"{name}.calls"]
        for name in EXTRA_COUNTS:
            metrics[name] = counts[name]
        candidates = counts["linpoly.search.candidates"]
        metrics["linpoly.search.hit_ratio"] = (
            counts["linpoly.search.hits"] / candidates if candidates else 0.0
        )
        metrics["cli.self.s"] = self_s.get(ROOT_SPAN, 0.0)
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = wall - sum(self_s.values())
        return metrics

    def span_records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]
