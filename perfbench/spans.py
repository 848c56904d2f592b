"""Spans around the public calls into each qinv module.

`instrument` replaces every public function of the qinv modules, and the
public and arithmetic methods of their classes, with a wrapper that records
one span per call: trace id, span id, parent span id, name, layer, start,
end, and counts taken at the same boundary (terms produced, term pairs
multiplied, cache hit).  Every reference to a wrapped function is rebound,
including the names other qinv modules imported and the verify suite table,
so calls between layers are recorded too.

Calls that run millions of times per workload are not wrapped, because a
span would cost more than the call: GaussianRational arithmetic, monomial
merging, the character recursion `mn_character` and `z_lambda`.  Their time
is self time of the calling span; the layer probe (probe.py) measures the
arithmetic directly.

Spans stay in memory and are written out once, when the process ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

# CLOCK_MONOTONIC is system-wide, so start and end times from different
# processes of one run lie on one time line.
clock = time.monotonic

LAYERS = ("gaussian", "poly", "transvection", "catalog", "linalg",
          "invariants", "characters", "hilbert", "measures", "verify", "cli")

METHODS = {
    "Polynomial": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__pow__", "__eq__", "partial",
                   "conjugate", "evaluate", "batch_evaluator", "pretty"),
    "Covariant": ("__post_init__", "__mul__", "__rmul__", "__pow__",
                  "evaluate"),
    "InvariantExpr": ("__post_init__", "__add__", "__sub__", "__mul__",
                      "__rmul__", "__pow__", "conjugate", "evaluate"),
}

HOT = {"amp", "amp_conj", "aux", "mono_mul", "mn_character", "z_lambda"}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, trace_id: str = "", parent: str | None = None):
        self.spans: list[tuple] = []
        self.trace = trace_id
        self.current = parent
        self._prefix = f"{os.getpid()}."
        self._next = 0

    def _new_id(self) -> str:
        self._next += 1
        return f"{self._prefix}{self._next}"

    def record(self, name, layer, start, end, parent, counts=None, sid=None):
        sid = sid or self._new_id()
        self.spans.append((self.trace, sid, parent, name, layer, start, end,
                           counts))
        return sid

    def root(self, name: str, trace_id: str):
        """Context manager: a root span of layer "bench" for one op."""
        return _Root(self, name, trace_id)

    def wrap(self, fn, name: str, layer: str):
        tracer = self
        cached = hasattr(fn, "cache_info")
        pairs = name.endswith(("__mul__", "__rmul__"))
        validates = name.endswith("__post_init__")
        compiles = name.endswith("batch_evaluator")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            sid = tracer._new_id()
            tracer.current = sid
            hits = fn.cache_info().hits if cached else 0
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.current = parent
                counts = _counts(args[0] if validates else result, args,
                                 pairs)
                if cached:
                    counts["hit"] = fn.cache_info().hits - hits
                tracer.spans.append((tracer.trace, sid, parent, name, layer,
                                     start, end, counts or None))
            if compiles:
                return tracer.wrap(result, f"{layer}.batch_run", layer)
            return result

        return traced

    def write(self, path: str):
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")
        self.spans.clear()


SPAN_FIELDS = ("trace", "id", "parent", "name", "layer", "start", "end",
               "counts")


class _Root:
    def __init__(self, tracer, name, trace_id):
        self.tracer, self.name, self.trace_id = tracer, name, trace_id

    def __enter__(self):
        t = self.tracer
        t.trace = self.trace_id
        self.sid = t._new_id()
        self.parent = t.current
        t.current = self.sid
        self.start = clock()
        return self.sid

    def __exit__(self, *exc):
        t = self.tracer
        t.current = self.parent
        t.record(self.name, "bench", self.start, clock(), self.parent,
                 sid=self.sid)
        return False


def _terms(obj):
    if isinstance(obj, tuple) and obj and all(
            hasattr(x, "terms") for x in obj):
        return sum(len(x.terms) for x in obj)
    terms = getattr(obj, "terms", None)
    if terms is None:
        terms = getattr(getattr(obj, "poly", None), "terms", None)
    return None if terms is None else len(terms)


def _counts(produced, args, pairs) -> dict:
    out = {}
    n = _terms(produced)
    if n is not None:
        out["terms"] = n
    if pairs and len(args) == 2:
        a, b = _terms(args[0]), _terms(args[1])
        if a is not None and b is not None:
            out["pairs"] = a * b
    return out


def instrument(tracer: Tracer):
    """Wrap the public calls of every qinv module; returns nothing."""
    import importlib

    import qinv

    modules = {layer: importlib.import_module(f"qinv.{layer}")
               for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or name in HOT:
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for meth in METHODS.get(name, ()):
                    setattr(obj, meth, tracer.wrap(
                        obj.__dict__[meth], f"{layer}.{name}.{meth}", layer))
            elif callable(obj):
                wrapped[id(obj)] = tracer.wrap(obj, f"{layer}.{name}", layer)
    for mod in (qinv, *modules.values()):
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in wrapped:
                        obj[key] = wrapped[id(val)]


def summarize(spans) -> dict:
    """Self time per layer and per span name, and the poly.mul counts.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest, and the child-process spans of a
    CLI op lie inside that op's root span.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    layers = defaultdict(lambda: {"spans": 0, "self_s": 0.0, "hits": 0,
                                  "misses": 0})
    names = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "terms": 0})
    pairs = out_terms = 0
    traces = set()
    for s in spans:
        dur = s["end"] - s["start"]
        own = dur - child[s["id"]]
        lay, nm = layers[s["layer"]], names[s["name"]]
        lay["spans"] += 1
        lay["self_s"] += own
        nm["calls"] += 1
        nm["self_s"] += own
        nm["total_s"] += dur
        counts = s["counts"] or {}
        nm["terms"] += counts.get("terms", 0)
        if "hit" in counts:
            lay["hits" if counts["hit"] else "misses"] += 1
        if "pairs" in counts:
            pairs += counts["pairs"]
            out_terms += counts.get("terms", 0)
        traces.add(s["trace"])
    return {
        "traces": len(traces),
        "spans": len(spans),
        "self_s_total": sum(v["self_s"] for v in layers.values()),
        "layers": {k: layers[k] for k in sorted(layers)},
        "names": {k: names[k] for k in sorted(names)},
        "poly_mul_pairs": pairs,
        "poly_mul_out_per_pair": out_terms / pairs if pairs else None,
    }
