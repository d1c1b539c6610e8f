"""Per-layer tracing of aspw from outside the package.

Tracer.install() wraps the public module-level functions of every layer
module, a few private helpers the metrics name, and the arithmetic methods
of the field, polynomial and rational-function classes.  Every binding of a
wrapped function is replaced: module globals that imported it
(``asext.factor``, ``witt._reduce_rhs``) and class-attribute aliases
(``__radd__ = __add__``).

Self time is inclusive time minus the time spent in wrapped children, kept
on a stack; time in unwrapped helpers (``Poly.degree``, ``FFElem.is_zero``)
counts toward the wrapped frame that called them.  Module-level functions
outside the hot arithmetic layers also get one span each (name, start, end,
parent span, query id), kept in memory and written out by the caller.
Field and polynomial methods run about a million times per pipeline, so
they get counts and self time only.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "parsing", "gf", "upoly", "addpoly", "asext", "witt", "oracle")

# class methods wrapped per layer; module-level public functions are found
# by inspection
METHODS = {
    "gf": {
        "FFElem": ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                   "__truediv__", "__rtruediv__", "inverse", "__pow__"),
        "FieldCtx": ("elements",),
    },
    "upoly": {
        "Poly": ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__divmod__", "__pow__", "__call__", "eval_embedded"),
        "RatFunc": ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                    "__truediv__", "__rtruediv__", "__pow__", "scale_const"),
    },
    "asext": {"ExtensionSpec": ("is_irreducible",)},
    "witt": {"WittUniversalTables": ("__init__",)},
}
PRIVATE = {"asext": ("_reduce_rhs",)}
# module-level functions of these layers are hot helpers: no spans
NO_SPANS = {"gf", "upoly"}
SPAN_EXCEPTIONS = {"upoly.factor", "upoly.residue_field", "upoly.partial_fractions"}
MAX_SPANS = 200_000

RATFUNC_OPS = tuple(f"upoly.RatFunc.{m}" for m in METHODS["upoly"]["RatFunc"])

# per-layer count metric -> the wrapped functions whose calls it sums
COUNTS = {
    "gf.mul.calls": ("gf.FFElem.__mul__",),
    "gf.addsub.calls": ("gf.FFElem.__add__", "gf.FFElem.__sub__",
                        "gf.FFElem.__rsub__", "gf.FFElem.__neg__"),
    "gf.inverse.calls": ("gf.FFElem.inverse",),
    "gf.pow.calls": ("gf.FFElem.__pow__",),
    "upoly.divmod.calls": ("upoly.Poly.__divmod__",),
    "upoly.gcd.calls": ("upoly.poly_gcd", "upoly.poly_extgcd"),
    "upoly.ratfunc_ops.calls": RATFUNC_OPS,
    "upoly.factor.calls": ("upoly.factor",),
    "upoly.residue_field.calls": ("upoly.residue_field",),
    "addpoly.root_group.calls": ("addpoly.root_group",),
    "asext.reduce.calls": ("asext.reduce_global", "asext.wp_membership",
                           "asext.asq_solve", "asext._reduce_rhs"),
    "asext.wp_membership.calls": ("asext.wp_membership",),
    "asext.subextensions.calls": ("asext.subextensions",),
    "asext.qa_verify.calls": ("asext.qa_verify",),
    "witt.arith.calls": ("witt.witt_arith",),
    "witt.asw_operator.calls": ("witt.asw_operator",),
    "witt.reduce.calls": ("witt.witt_reduce",),
    "witt.tables.built": ("witt.WittUniversalTables.__init__",),
    "oracle.splitting_oracle.calls": ("oracle.splitting_oracle",),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.yields = {"analytic": 0, "oracle": 0, "other": 0}
        self.factor_inputs: set = set()
        self.hyperplanes = 0
        self.spans: list = []
        self.spans_dropped = 0
        self.query = None
        self._stack: list = []  # [child seconds, layer] per active wrapped call
        self._span_stack: list = []
        self._patches: list = []
        self._origin = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"aspw.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or name in PRIVATE.get(layer, ()))):
                    key = f"{layer}.{name}"
                    span = layer not in NO_SPANS or key in SPAN_EXCEPTIONS
                    wrappers[id(obj)] = self._wrap(key, layer, obj, span)
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for name in names:
                    fn = vars(cls).get(name)
                    if fn is None:
                        continue
                    key = f"{layer}.{cls_name}.{name}"
                    if key == "gf.FieldCtx.elements":
                        wrappers[id(fn)] = self._wrap_generator(key, fn)
                    else:
                        wrappers[id(fn)] = self._wrap(key, layer, fn, False)
                # aliases such as __radd__ = __add__ share the wrapper
                for name, value in list(vars(cls).items()):
                    if id(value) in wrappers:
                        self._patch(cls, name, wrappers[id(value)])
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "aspw" or mod_name.startswith("aspw."):
                for name, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and id(value) in wrappers:
                        self._patch(mod, name, wrappers[id(value)])
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, key, layer, fn, span):
        self.calls.setdefault(key, 0)
        self.inclusive.setdefault(key, 0.0)
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        clock = time.perf_counter
        before = self._hooks_before(key)
        after = self._hooks_after(key)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            calls[key] += 1
            frame = [0.0, layer]
            stack.append(frame)
            if span:
                sid = None
                if len(spans) < MAX_SPANS:
                    sid = len(spans)
                    spans.append(None)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                inclusive[key] += dt
                if stack:
                    stack[-1][0] += dt
                if span:
                    span_stack.pop()
                    if sid is None:
                        tracer.spans_dropped += 1
                    else:
                        spans[sid] = (key, t0 - tracer._origin, t0 + dt - tracer._origin,
                                      parent, tracer.query)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, key, fn):
        """FieldCtx.elements: count yields by the nearest non-gf caller layer."""
        self.calls.setdefault(key, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            category = tracer._scan_category()
            for x in fn(*args, **kwargs):
                tracer.yields[category] += 1
                yield x

        wrapper.__wrapped__ = fn
        return wrapper

    def _scan_category(self) -> str:
        for _, layer in reversed(self._stack):
            if layer == "oracle":
                return "oracle"
            if layer in ("upoly", "addpoly", "asext", "witt"):
                return "analytic"
            if layer in ("cli", "parsing"):
                return "other"
        return "analytic" if self._stack else "other"

    def _hooks_before(self, key):
        if key == "upoly.factor":
            def note_input(args):
                t0 = time.perf_counter()
                f = args[0]
                self.factor_inputs.add((repr(f.ctx), f.to_str()))
                if self._stack:  # keep the bookkeeping out of the caller's self time
                    self._stack[-1][0] += time.perf_counter() - t0
            return note_input
        return None

    def _hooks_after(self, key):
        if key == "addpoly.enumerate_hyperplanes":
            def note_result(result):
                self.hyperplanes += len(result)
            return note_result
        return None

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for name, keys in COUNTS.items():
            m[name] = (sum(self.calls.get(k, 0) for k in keys), "count")
        m["gf.elements.yielded.analytic"] = (self.yields["analytic"], "count")
        m["gf.elements.yielded.oracle"] = (self.yields["oracle"], "count")
        factor_calls = self.calls.get("upoly.factor", 0)
        m["upoly.factor.distinct_ratio"] = (
            len(self.factor_inputs) / factor_calls if factor_calls else 0.0, "ratio")
        m["addpoly.hyperplanes.enumerated"] = (self.hyperplanes, "count")
        m["asext.irreducible_s"] = (self.inclusive.get("asext.ExtensionSpec.is_irreducible", 0.0), "s")
        m["parsing.calls"] = (sum(v for k, v in self.calls.items() if k.startswith("parsing.")),
                              "count")
        return m

    def layer_calls(self) -> dict:
        out = {layer: 0 for layer in LAYERS}
        for key, n in self.calls.items():
            out[key.split(".", 1)[0]] += n
        return out

    def missing(self) -> list:
        """Names the metrics sum over that no longer exist in the package."""
        wanted = {k for keys in COUNTS.values() for k in keys}
        return sorted(wanted - set(self.calls))

    def write_spans(self, path):
        with open(path, "w") as fh:
            for key, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": key, "start": round(start, 7), "end": round(end, 7),
                                     "parent": parent, "query": query}) + "\n")
