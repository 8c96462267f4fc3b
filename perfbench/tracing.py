"""Outside-in layer tracing for the benchmark's traced pass.

Every public function a quandlehom module defines is replaced, in every
quandlehom module namespace that refers to it, by a span recorder; the
originals are put back when the pass ends.  Calls made through a module
attribute (``chains.boundary``), through a name imported with ``from ...
import`` (``search.g_map``) and between functions of one module
(``boundary`` calling ``f_map``) are all seen.  Generator functions and
classes are left alone: their time lands in whoever consumes them.

A span is (id, name, parent id, start, end) within one run id.  The first
SPANS_KEPT spans of each (name, parent name) pair are kept whole; beyond that
they are only aggregated, since the search makes hundreds of thousands of
leaf calls.  Self time is a span's duration minus the time of its child
spans, so the self times of all spans under a root add up to the root's
duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

SPANS_KEPT = 100

# Short span names for the functions the metric names refer to; every other
# public function is traced as "<module>.<function>".
ALIASES = {
    "structure.concrete_families": "structure.families",
    "structure.enumerate_f_connected": "structure.census",
    "cocycles.verify_cocycle_condition": "cocycles.verify",
    "intlinalg.rational_kernel_basis": "intlinalg.rational",
    "intlinalg.integer_kernel_basis": "intlinalg.integer",
    "tables.index_pattern_rows": "tables.rows",
}


def _matrix_entries(args, kwargs, result):
    rows, ncols = args
    return len(rows) * ncols


# Work counters taken at a span boundary: span -> ((counter, fn(args, kwargs, result)), ...)
COUNTERS = {
    "chains.f_map": (("chains.f_map.terms_in", lambda a, k, r: len(a[0].terms)),),
    "chains.g_map": (("chains.g_map.terms_in", lambda a, k, r: len(a[0].terms)),),
    "structure.families": (("structure.families.out", lambda a, k, r: len(r)),),
    "intlinalg.rational": (("intlinalg.entries", _matrix_entries),),
    "intlinalg.integer": (("intlinalg.entries", _matrix_entries), ("intlinalg.rank", lambda a, k, r: len(r))),
    "kernels.build_slice": (("kernels.generators", lambda a, k, r: len(r.generators)),),
}


class RunTrace:
    """Spans and aggregates of one traced pass."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [id, name, parent id, start, end]
        self.agg = {}  # (name, parent name) -> [calls, inclusive s, self s]
        self.outer = {}  # span or layer name -> inclusive s, outermost spans only
        self.counters = {}
        self.wall = 0.0

    def metrics(self):
        """Per-layer metrics: <layer>.s, <layer>.self_s, <span>.s, <span>.self_s,
        <span>.calls and the work counters."""
        out = {k + ".s": v for k, v in self.outer.items()}
        for (name, _parent), (calls, _incl, self_s) in self.agg.items():
            layer = name.split(".")[0]
            for key, amount in (
                (name + ".calls", calls),
                (name + ".self_s", self_s),
                (layer + ".self_s", self_s),
            ):
                out[key] = out.get(key, 0) + amount
        out.update(self.counters)
        out["trace.spans"] = sum(a[0] for a in self.agg.values())
        return out

    def to_json(self):
        return {
            "run_id": self.run_id,
            "wall_s": self.wall,
            "spans": self.spans,
            "aggregates": [[n, p, c, i, s] for (n, p), (c, i, s) in sorted(self.agg.items())],
        }


class Tracer:
    def __init__(self):
        self.runs = []
        self._patched = []

    def install(self, run_id):
        """Start a run and wrap the public functions of the loaded package."""
        run = RunTrace(run_id)
        self.runs.append(run)
        clock = time.perf_counter
        origin = clock()
        root = ["<pass>", None, origin, 0.0, 0]
        stack = [root]
        depth = {}
        kept = {}
        next_id = [0]

        def record(frame, end, args, kwargs, result):
            name, layer, start, child, span_id = frame
            dur = end - start
            parent = stack[-1]
            parent[3] += dur
            key = (name, parent[0])
            agg = run.agg.get(key)
            if agg is None:
                agg = run.agg[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
            for scope in (name, layer):
                depth[scope] -= 1
                if not depth[scope]:
                    run.outer[scope] = run.outer.get(scope, 0.0) + dur
            if kept.get(key, 0) < SPANS_KEPT:
                kept[key] = kept.get(key, 0) + 1
                run.spans.append([span_id, name, parent[4], start - origin, end - origin])
            if result is not None:
                for counter, fn in COUNTERS.get(name, ()):
                    run.counters[counter] = run.counters.get(counter, 0) + fn(args, kwargs, result)

        def wrap(fn, name, layer):
            @functools.wraps(fn)
            def span(*args, **kwargs):
                next_id[0] += 1
                frame = [name, layer, 0.0, 0.0, next_id[0]]
                depth[name] = depth.get(name, 0) + 1
                depth[layer] = depth.get(layer, 0) + 1
                stack.append(frame)
                result = None
                frame[2] = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    record(frame, end, args, kwargs, result)

            return span

        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("quandlehom.") and mod is not None
        }
        wrappers = {}
        for modname, mod in modules.items():
            layer = modname.split(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not callable(fn)
                    or inspect.isclass(fn)
                    or inspect.isgeneratorfunction(fn)
                    or getattr(fn, "__module__", None) != modname
                ):
                    continue
                name = "%s.%s" % (layer, attr)
                wrappers[id(fn)] = (fn, wrap(fn, ALIASES.get(name, name), layer))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        """Put the original functions back and close the current run."""
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
