"""Spans around the public functions of each rsentropy module, recorded from
outside the program.

The package's modules import each other's functions by name
(``from .ratmap import preimages``), so wrapping a function in its defining
module alone would miss most calls. ``Tracer.install`` therefore rebinds
every module-level name, in every loaded ``rsentropy`` module, that refers to
a traced function, and ``uninstall`` restores them.

A span is (name, start, end, parent, op); spans stay in memory until the
run writes them out. Counters derived from a call's arguments and result
ride on its span as ``attrs``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    op: int
    ok: bool
    attrs: dict = field(default_factory=dict)


def _estimate_attrs(args, kwargs, result):
    est, _rows = result
    return {"nu_cut": kwargs["nu_max"] - est.nu_range[1]}


def _tree_attrs(args, kwargs, result):
    return {"nodes": sum(len(level) for level in result.values())}


def _preimage_attrs(args, kwargs, result):
    return {"critical": int(any(mult > 1 for _, mult in result))}


def _count_attrs(args, kwargs, result):
    return {"exact": int(result.exact), "pool": result.pool_size,
            "family": result.count}


def _bounds_attrs(args, kwargs, result):
    return {"nodes": result.details["graph_nodes"],
            "edges": result.details["graph_edges"]}


def _ledger_attrs(args, kwargs, result):
    return {"words": result.total_words, "distinct": result.distinct}


# (span name, defining module, function, attrs of a successful call)
TARGETS = (
    ("config.parse", "rsentropy.config", "parse_config", None),
    ("report.build", "rsentropy.report", "build_report", None),
    ("estimate", "rsentropy.estimate", "estimate_entropy", _estimate_attrs),
    ("estimate.fit", "rsentropy.estimate", "entropy_fit", None),
    ("orbits.tree", "rsentropy.orbits", "preimage_tree_levels", _tree_attrs),
    ("ratmap.preimages", "rsentropy.ratmap", "preimages", _preimage_attrs),
    ("polynomial.aberth", "rsentropy.polynomial", "aberth_roots", None),
    ("ratmap.compose", "rsentropy.ratmap", "compose", None),
    ("polynomial.form_mul", "rsentropy.polynomial", "form_mul", None),
    ("polynomial.coprime", "rsentropy.polynomial", "forms_coprime", None),
    ("separation.count", "rsentropy.separation", "count_separated", _count_attrs),
    ("separation.sum_up", "rsentropy.separation", "sum_up_partition", None),
    ("coincidence.set", "rsentropy.coincidence", "coincidence_set", None),
    ("coincidence.recurrence", "rsentropy.coincidence", "is_recurrent", None),
    ("coincidence.bounds", "rsentropy.coincidence", "friedland_bounds", _bounds_attrs),
    ("coincidence.karp", "rsentropy.coincidence", "karp_max_mean_cycle", None),
    ("correspondence.ledger", "rsentropy.correspondence", "enumerate_words", _ledger_attrs),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span of its own (used for the per-call root span)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op, False)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return traced

    def install(self):
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "rsentropy" or n.startswith("rsentropy."))]
        for name, module, attr, attrs in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(name, original, attrs)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def write(self, fh, origin, cycle):
        """Write the spans as JSON lines, times in seconds since ``origin``."""
        for s in self.spans:
            fh.write(json.dumps({
                "cycle": cycle, "name": s.name, "start": s.start - origin,
                "end": s.end - origin, "parent": s.parent, "op": s.op,
                "ok": s.ok, "attrs": s.attrs}) + "\n")


def summarize(spans):
    """Per span name: calls, failed calls, busy and self seconds, attr sums."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s.name, {"calls": 0, "failed": 0, "busy_s": 0.0,
                                      "self_s": 0.0, "attrs": {}})
        dur = s.end - s.start
        agg["calls"] += 1
        agg["failed"] += 0 if s.ok else 1
        agg["busy_s"] += dur
        agg["self_s"] += dur - child[i]
        for key, value in s.attrs.items():
            agg["attrs"][key] = agg["attrs"].get(key, 0) + value
    return out
