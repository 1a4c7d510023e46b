"""In-memory span tracer that wraps ifwb functions at their import sites.

A span is (id, name, start, end, parent, op id, outcome). Parents are tracked
per thread; a span opened on a thread with no open span of its own (a region
ThreadPoolExecutor worker) is attributed to the innermost open span of the
thread that started the tracer, i.e. to ``region.enumerate_achievable_points``.
Children can therefore overlap in time, so self time is the span's duration
minus the *union* of its children's intervals.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import defaultdict

import ifwb
import ifwb.cli
import ifwb.lattice
import ifwb.linalg
import ifwb.rates
import ifwb.region
import ifwb.simulate

LAYERS = {
    "cli": ifwb.cli,
    "rates": ifwb.rates,
    "lattice": ifwb.lattice,
    "linalg": ifwb.linalg,
    "region": ifwb.region,
    "simulate": ifwb.simulate,
}

# (layer, public function) pairs that get a span; the layer is the module
# that defines the function, whatever module calls it.
TRACED = (
    ("cli", "main"),
    ("rates", "optimal_a"),
    ("rates", "successive_if_rates"),
    ("rates", "if_rates"),
    ("rates", "mmse_sic_plan"),
    ("rates", "if_effective_model"),
    ("rates", "pseudo_triangularize"),
    ("rates", "allocate_rates"),
    ("lattice", "kz_reduce"),
    ("lattice", "kz_approx_successive_lll"),
    ("lattice", "brute_force_min_max"),
    ("lattice", "int_det"),
    ("linalg", "cholesky_lower"),
    ("region", "enumerate_achievable_points"),
    ("region", "pentagon_contains"),
    ("simulate", "run_successive_if_trials"),
)

# Result attribute recorded as the span outcome (a ratio's numerator).
_OUTCOME = {"rates.allocate_rates": "monotone_feasible"}


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        outcome_attr = _OUTCOME.get(name)
        spans, ids, clock, main_stack = self.spans, self._ids, time.perf_counter, self._main_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            sid = next(ids)
            stack.append(sid)
            outcome = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome_attr is not None:
                    outcome = bool(getattr(result, outcome_attr))
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op_id, outcome))

        return traced

    def install(self) -> None:
        modules = [ifwb, *LAYERS.values()]
        for layer, fname in TRACED:
            original = getattr(LAYERS[layer], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op,outcome\n")
            for sid, name, start, end, parent, op, outcome in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{op},{outcome}\n")


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans):
    """Per-name {calls, total_s, self_s, true} and per-(name, parent name) counts.

    ``true`` counts spans whose recorded outcome was True.
    """
    children = defaultdict(list)
    names = {}
    for sid, name, start, end, parent, _op, _outcome in spans:
        children[parent].append((start, end))
        names[sid] = name
    stats = {f"{layer}.{fname}": {"calls": 0, "total_s": 0.0, "self_s": 0.0, "true": 0}
             for layer, fname in TRACED}
    by_parent = defaultdict(lambda: {"calls": 0, "true": 0})
    for sid, name, start, end, parent, _op, outcome in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        entry["self_s"] += (end - start) - _union_length(kids)
        entry["true"] += outcome is True
        pair = by_parent[(name, names.get(parent))]
        pair["calls"] += 1
        pair["true"] += outcome is True
    return stats, by_parent
