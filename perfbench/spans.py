"""Span tracing of crossint's public functions, applied from outside.

Every public function of every ``crossint`` module is replaced, in every
``crossint`` module namespace that binds it, by a wrapper that records a
span: function, start, end, parent span and an optional size (arcs of a
flow network, edges of a bipartite graph, sets enumerated, report bytes).
Because the wrappers sit in the namespaces the program looks names up
in, internal calls such as ``build_chain_decomposition`` ->
``build_orbit_graph`` are traced as well.  Nothing in ``src/crossint``
is edited.

Spans live in flat ``array`` columns while the traced round runs and are
written out once at the end.  Layer metrics are derived from them
afterwards: a span's self time is its duration minus its child spans,
and each layer is named after its module.
"""

import functools
import importlib
import json
import pkgutil
import time
import types
from array import array


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


#: Size recorded on the span of a traced call, keyed by "module.function".
SIZERS = {
    "bipartite.max_flow":
        lambda a, kw, r: len(_first_arg(a, kw, "net").nodes)
        + len(_first_arg(a, kw, "net").arcs),
    "bipartite.max_weight_independent_set":
        lambda a, kw, r: len(_first_arg(a, kw, "g").edges),
    "sets.enumerate_ksubsets": lambda a, kw, r: len(r),
    "report.emit_report": lambda a, kw, r: len(r.encode("utf-8")),
}


class Tracer:
    """Wraps crossint's public functions and keeps their spans."""

    def __init__(self):
        package = importlib.import_module("crossint")
        self.modules = [package] + [
            importlib.import_module(f"crossint.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        self.functions = []   # "layer.function", indexed by function id
        self.fn_span = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._patched = []
        self.sizer_errors = set()

    def install(self):
        wrappers = {}
        for module in self.modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    qualified = f"{layer}.{name}"
                    self.functions.append(qualified)
                    wrappers[obj] = self._wrap(len(self.functions) - 1, obj,
                                               SIZERS.get(qualified))
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patched.append((module, name, obj))

    def remove(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, fid, fn, sizer):
        fn_span, parent, start, end, size = (self.fn_span, self.parent,
                                             self.start, self.end, self.size)
        stack = self._stack
        clock = time.perf_counter
        errors = self.sizer_errors
        qualified = self.functions[fid]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fn_span)
            fn_span.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            size.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if sizer is not None:
                try:
                    size[idx] = sizer(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    errors.add(qualified)
            return result

        return traced

    def span_count(self):
        return len(self.fn_span)

    def write(self, path):
        """One JSON header line, then the raw columns in header order."""
        header = {"functions": self.functions, "spans": self.span_count(),
                  "columns": [["function", "i"], ["parent", "i"],
                              ["start", "d"], ["end", "d"], ["size", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.fn_span, self.parent, self.start, self.end,
                           self.size):
                column.tofile(fh)


class SpanTotals:
    """Per-function and per-layer sums over the spans [lo, hi)."""

    def __init__(self, tracer, lo=0, hi=None):
        hi = tracer.span_count() if hi is None else hi
        functions = tracer.functions
        layer_of = [name.split(".", 1)[0] for name in functions]
        fn_span, parent = tracer.fn_span, tracer.parent
        start, end, size = tracer.start, tracer.end, tracer.size
        nfun = len(functions)
        fn_total = [0.0] * nfun
        fn_calls = [0] * nfun
        fn_size = [0] * nfun
        self_time = dict.fromkeys(layer_of, 0.0)
        busy = dict.fromkeys(layer_of, 0.0)
        entries = dict.fromkeys(layer_of, 0)
        # Children start after their parent, so a reverse scan has added
        # every child's duration to child[parent] before reaching it.
        child = array("d", bytes(8 * (hi - lo)))
        for idx in range(hi - 1, lo - 1, -1):
            f = fn_span[idx]
            layer = layer_of[f]
            dur = end[idx] - start[idx]
            fn_total[f] += dur
            fn_calls[f] += 1
            fn_size[f] += size[idx]
            self_time[layer] += dur - child[idx - lo]
            p = parent[idx]
            if p >= lo:
                child[p - lo] += dur
                if layer_of[fn_span[p]] == layer:
                    continue
            busy[layer] += dur
            entries[layer] += 1
        self.layers = set(layer_of)
        self.fn_index = {name: i for i, name in enumerate(functions)}
        self.fn_total, self.fn_calls, self.fn_size = fn_total, fn_calls, fn_size
        self.self_time, self.busy, self.entries = self_time, busy, entries

    def has(self, name):
        """Whether "layer" or "layer.function" exists in the program."""
        return name in self.fn_index or name in self.layers

    def total(self, name):
        return self.fn_total[self.fn_index[name]]

    def calls(self, name):
        return self.fn_calls[self.fn_index[name]]

    def sized(self, name):
        return self.fn_size[self.fn_index[name]]


def calls_under(tracer, lo, hi, callee, caller_layer=None):
    """(calls, summed size) of ``callee`` spans in [lo, hi), counting only
    those whose parent span belongs to ``caller_layer`` when it is given."""
    functions = tracer.functions
    fid = functions.index(callee)
    fn_span, parent, size = tracer.fn_span, tracer.parent, tracer.size
    calls = total = 0
    for idx in range(lo, hi):
        if fn_span[idx] != fid:
            continue
        if caller_layer is not None:
            p = parent[idx]
            if p < lo or functions[fn_span[p]].split(".", 1)[0] != caller_layer:
                continue
        calls += 1
        total += size[idx]
    return calls, total
