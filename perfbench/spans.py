"""Per-layer spans and counts, installed around twistdet from outside it.

Modules bind functions with `from ... import`, so a wrapper replaces every
module attribute that holds the original function; methods are wrapped on
their class. A timed wrapper keeps a span stack: a span's self time is its
duration minus the time of the wrapped spans nested in it. A counting
wrapper only counts. uninstall() puts every original back.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

RING_CLASSES = {"RationalField": "rational", "IntegersMod": "int_mod",
                "RationalMatrixRing": "matrix", "GroupAlgebra": "group_algebra",
                "TruncatedFreeAlgebra": "free_trunc"}

# (module, function names, span name)
FUNCTION_SPANS = [
    ("cli", ("main",), "cli.self"),
    ("cli", ("execute_job",), "cli.execute_job"),
    ("documents", ("series_ring_from_doc", "coeff_ring_from_doc"), "documents.ring_from_doc"),
    ("documents", ("matrix_from_doc", "coeff_matrix_from_doc", "novikov_from_doc",
                   "series_from_doc"), "documents.operand_from_doc"),
    ("documents", ("matrix_to_doc", "cyclog_to_doc", "orbit_report_to_doc", "canonical_json",
                   "series_to_doc", "novikov_to_doc"), "documents.to_doc"),
    ("literals", ("parse_series",), "literals.parse"),
    ("literals", ("render_series",), "literals.render"),
    ("series", ("formal_log", "formal_exp"), "series.log_exp"),
    ("matrices", ("ldu_decompose",), "matrices.ldu"),
    ("matrices", ("dieudonne_det",), "matrices.det"),
    ("matrices", ("mat_invert",), "matrices.mat_invert"),
    ("kgroup", ("c_generator",), "kgroup.c_generator"),
    ("kgroup", ("cyc_log",), "kgroup.cyc_log"),
    ("kgroup", ("vaserstein_transform",), "kgroup.vaserstein"),
    ("kgroup", ("endo_class_invariant", "exact_sequence_additivity_check"), "kgroup.endo_class"),
    ("novikov", ("nov_invert",), "novikov.nov_invert"),
    ("novikov", ("w1_invariant",), "novikov.w1"),
    ("novikov", ("orbit_counts",), "novikov.orbit_counts"),
]
# (module, class, method, span name)
METHOD_SPANS = [
    ("series", "TwistedSeries", "__mul__", "series.mul"),
    ("series", "TwistedSeries", "__add__", "series.add"),
    ("series", "TwistedSeries", "inverse", "series.inverse"),
    ("matrices", "SeriesMatrix", "__mul__", "matrices.mul"),
]
# spans whose nested series products are counted per call
MUL_COUNTING = ("series.inverse", "series.log_exp")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.open = Counter()
        self._stack = []
        self._restore = []

    # -- wrappers ------------------------------------------------------------------
    def timed(self, name, fn):
        stack, self_s, calls, open_ = self._stack, self.self_s, self.calls, self.open
        counting = name == "series.mul"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if counting:
                for tag in MUL_COUNTING:
                    if open_[tag]:
                        calls[tag + ".mul"] += 1
            frame = [0.0]
            stack.append(frame)
            open_[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_[name] -= 1
                stack.pop()
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def auto_apply(self, fn):
        calls = self.calls

        def apply(auto, a):
            calls["rings.auto_apply_id" if auto.name == "id" else "rings.auto_apply"] += 1
            return fn(auto, a)
        return apply

    # -- installation -----------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, original, wrapper):
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "twistdet":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        mods = {name: sys.modules.get("twistdet." + name)
                for name in ("cli", "documents", "literals", "series", "rings",
                             "matrices", "kgroup", "novikov")}
        for mod_name, names, span in FUNCTION_SPANS:
            mod = mods[mod_name]
            if mod is None:
                continue
            for fname in names:
                original = getattr(mod, fname)
                self._replace_function(original, self.timed(span, original))
        for mod_name, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(mods[mod_name], cls_name)
            self._set(cls, meth, self.timed(span, vars(cls)[meth]))
        rings = mods["rings"]
        for cls_name, kind in RING_CLASSES.items():
            cls = getattr(rings, cls_name)
            self._set(cls, "mul", self.timed(f"rings.{kind}.mul", vars(cls)["mul"]))
            for op in ("add", "invert"):
                self._set(cls, op, self.counted(f"rings.{kind}.{op}", vars(cls)[op]))
        auto = rings.RingAutomorphism
        self._set(auto, "apply", self.auto_apply(vars(auto)["apply"]))
        if mods["cli"] is not None:
            jsonschema = mods["cli"].jsonschema
            self._set(jsonschema, "validate", self.timed("cli.validate", jsonschema.validate))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- report ------------------------------------------------------------------------
    def metrics(self, passes):
        """Per-layer metrics for one pass over the traced job list."""
        ms = lambda name: 1000 * self.self_s[name] / passes  # noqa: E731
        n = lambda name: self.calls[name] / passes  # noqa: E731
        per = lambda num, den: self.calls[num] / self.calls[den] if self.calls[den] else 0.0  # noqa: E731
        out = {
            "cli.self_ms": (ms("cli.self"), "ms"),
            "cli.execute_job.ms": (ms("cli.execute_job"), "ms"),
            "cli.validate.ms": (ms("cli.validate"), "ms"),
            "documents.ring_from_doc.ms": (ms("documents.ring_from_doc"), "ms"),
            "documents.operand_from_doc.ms": (ms("documents.operand_from_doc"), "ms"),
            "documents.to_doc.ms": (ms("documents.to_doc"), "ms"),
            "literals.parse.ms": (ms("literals.parse"), "ms"),
            "literals.render.ms": (ms("literals.render"), "ms"),
            "literals.parse.calls": (n("literals.parse"), "count"),
            "series.mul.calls": (n("series.mul"), "count"),
            "series.mul.ms": (ms("series.mul"), "ms"),
            "series.add.ms": (ms("series.add"), "ms"),
            "series.inverse.calls": (n("series.inverse"), "count"),
            "series.inverse.ms": (ms("series.inverse"), "ms"),
            "series.inverse.mul_calls": (per("series.inverse.mul", "series.inverse"), "count"),
            "series.log_exp.ms": (ms("series.log_exp"), "ms"),
            "series.log_exp.mul_calls": (per("series.log_exp.mul", "series.log_exp"), "count"),
        }
        for kind in RING_CLASSES.values():
            base = f"rings.{kind}"
            out[base + ".mul.calls"] = (n(base + ".mul"), "count")
            out[base + ".add.calls"] = (n(base + ".add"), "count")
            out[base + ".invert.calls"] = (n(base + ".invert"), "count")
            mul_calls = self.calls[base + ".mul"]
            out[base + ".mul.us"] = (1e6 * self.self_s[base + ".mul"] / mul_calls
                                     if mul_calls else 0.0, "us")
        out["rings.auto_apply_id.calls"] = (n("rings.auto_apply_id"), "count")
        out["rings.auto_apply.calls"] = (n("rings.auto_apply"), "count")
        out["matrices.mul.calls"] = (n("matrices.mul"), "count")
        for name in ("matrices.mul", "matrices.ldu", "matrices.det", "matrices.mat_invert",
                     "kgroup.c_generator", "kgroup.cyc_log", "kgroup.vaserstein",
                     "kgroup.endo_class", "novikov.nov_invert", "novikov.w1",
                     "novikov.orbit_counts"):
            out[name + ".ms"] = (ms(name), "ms")
        return out
