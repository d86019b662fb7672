"""Per-layer tracing from outside the package.

`Tracer.install` wraps the public functions of every qrationals module
(and the public methods and constructors of its model classes) in each
module namespace that holds them, so calls between modules go through
the wrappers.  verify's checks are reached through `verify.CHECKS`, so
that tuple is replaced by one of wrapped checks.  A wrapper opens a span
only when the call crosses into another layer; a call within its own
layer runs inside the caller's span.  Spans (name, operation id, parent
span, start, end) stay in memory, in columns, until `write`.  A layer's
self time is the time of its spans minus the time of their child spans.
Count hooks run on every call, crossing or not, so the work counts do
not depend on layering.
"""

import functools
import gzip
import inspect
import json
import sys
import time
import types
from array import array

MODULES = ("words", "cf", "qpoly", "numeration", "fence", "snake", "markoff", "polytope", "verify", "cli")
LAYERS = MODULES + ("oracle",)

# Brute-force reference functions, traced as their own pseudo-layer.
ORACLES = frozenset({"matchings_by_backtracking", "ideals_by_subset_filter", "phi_by_pop", "christoffel_closure"})

# qpoly's value types are built inside every polynomial operation, so
# their constructors stay unwrapped; Poly.__mul__ is wrapped for counts.
VALUE_TYPES = frozenset({"Poly", "Mat2", "QRational"})

COUNTS = (
    "qpoly.poly_mul",
    "qpoly.term_products",
    "fence.ideals_listed",
    "snake.matchings_listed",
    "numeration.vectors_listed",
    "fence.stat_terms",
    "snake.stat_terms",
    "numeration.stat_terms",
    "polytope.separates_calls",
)


def _terms(pair):
    return sum(len(p.coeffs) for p in pair)


def _hooks(counts):
    """Count hooks, keyed by 'module.function', called as hook(args, result)."""

    def add(key, amount):
        counts[key] += amount

    def poly_mul(args, result):
        if result is NotImplemented:
            return
        a, b = args
        add("qpoly.poly_mul", 1)
        add("qpoly.term_products", len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else int(bool(b))))

    def table_terms(args, table):
        add("snake.stat_terms", sum(c != 0 for row in table["prefixes"] + table["suffixes"] for c in row))

    def histogram(args, hist):
        add("snake.matchings_listed", sum(hist.values()))
        add("snake.stat_terms", len(hist))

    return {
        "qpoly.Poly.__mul__": poly_mul,
        "qpoly.Poly.__rmul__": poly_mul,
        "fence.enumerate_ideals": lambda args, r: add("fence.ideals_listed", len(r)),
        "snake.enumerate_matchings": lambda args, r: add("snake.matchings_listed", len(r)),
        "snake.area_histogram": histogram,
        "numeration.enumerate_admissible": lambda args, r: add("numeration.vectors_listed", len(r)),
        "fence.ideal_statistics": lambda args, r: add("fence.stat_terms", _terms(r)),
        "snake.matching_statistics": lambda args, r: add("snake.stat_terms", _terms(r)),
        "snake.prefix_suffix_table": table_terms,
        "numeration.norm1_statistics": lambda args, r: add("numeration.stat_terms", _terms(r)),
        "polytope.separates": lambda args, r: add("polytope.separates_calls", 1),
    }


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("q")
        self.span_op = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # frames: [layer, time of child spans, span index]
        self.stack = [["bench", 0.0, -1]]
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = -1
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_op.append(self.op)
        self.span_parent.append(self.stack[-1][2])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return idx

    def run_op(self, kind, call):
        """Run one benchmark operation as a root span with a fresh id."""
        self.op += 1
        frame = ["bench", 0.0, self._open(self._name_id("op " + kind))]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.span_start[frame[2]], self.span_end[frame[2]] = t0, t1

    def wrap(self, fn, layer, name, hook=None):
        name_id = self._name_id(name)
        stack, calls, self_s = self.stack, self.calls, self.self_s
        starts, ends, clock = self.span_start, self.span_end, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0, self._open(name_id)]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    starts[frame[2]], ends[frame[2]] = t0, t1
                    stack[-1][1] += t1 - t0
                    calls[layer] += 1
                    self_s[layer] += t1 - t0 - frame[1]
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function, and the public methods and
        constructors of the public classes, of the qrationals modules."""
        hooks = _hooks(self.counts)
        wrappers = {}
        for short in MODULES:
            mod = sys.modules["qrationals." + short]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    if inspect.isgeneratorfunction(obj):
                        continue
                    key = "%s.%s" % (short, name)
                    wrappers[obj] = self.wrap(obj, "oracle" if name in ORACLES else short, key, hooks.get(key))
                elif isinstance(obj, type):
                    for attr, fn in list(vars(obj).items()):
                        key = "%s.%s.%s" % (short, name, attr)
                        public = not attr.startswith("_") or (attr == "__init__" and name not in VALUE_TYPES)
                        if isinstance(fn, types.FunctionType) and (public or key in hooks):
                            self._patch(obj, attr, self.wrap(fn, short, key, hooks.get(key)))
        for modname, mod in list(sys.modules.items()):
            if modname == "qrationals" or modname.startswith("qrationals."):
                for attr, value in list(vars(mod).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        self._patch(mod, attr, wrappers[value])
        verify = sys.modules["qrationals.verify"]
        checks = tuple((name, self.wrap(fn, "verify", "verify." + fn.__name__)) for name, fn in verify.CHECKS)
        self._patch(verify, "CHECKS", checks)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """{name: (value, unit)} for the layers and the work counts."""
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = (self.calls[layer], "count")
            out[layer + ".self_s"] = (self.self_s[layer], "s")
        for key in COUNTS:
            out[key] = (self.counts[key], "count")
        for layer, listed in (("fence", "ideals"), ("snake", "matchings"), ("numeration", "vectors")):
            terms = self.counts[layer + ".stat_terms"]
            ratio = self.counts["%s.%s_listed" % (layer, listed)] / terms if terms else 0.0
            out[layer + ".listed_per_term"] = (ratio, "ratio")
        return out

    def write(self, path):
        """Write the spans as gzipped JSON, one array per column."""
        with gzip.open(path, "wt") as fh:
            fh.write('{"names": %s' % json.dumps(self.names))
            for column in ("name", "op", "parent", "start", "end"):
                fh.write(', "%s": ' % column)
                json.dump(getattr(self, "span_" + column).tolist(), fh)
            fh.write("}\n")
