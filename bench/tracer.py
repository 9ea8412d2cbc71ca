"""Spans around calls into qgordon's public functions, installed from
outside the package.

Every public function of each layer module is wrapped, and the wrapper
is bound in every qgordon namespace that holds the original: a module
that did `from .gordon import involute_gordon` keeps its own binding,
and would bypass a span placed on gordon alone.  Series products are
traced at TruncatedSeries.__mul__ (named series.mul), since the function
series.mul only applies the operator.

Spans are folded into per-name totals as they close rather than kept:
a law sweep makes millions of calls.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("partitions", "series", "gordon", "pipelines", "harness", "cli")
MAPS = ("gordon.involute_gordon", "pipelines.involute_pipeline")
ENUMERATORS = ("partitions.enumerate_family", "partitions.enumerate_distinct",
               "pipelines.enumerate_ground")


class Tracer:
    def __init__(self):
        self.spans = {}        # name -> [calls, total seconds, self seconds]
        self.counts = {}       # name -> exact count
        self.stack = []        # open spans: [name, seconds covered by children]
        self.open = {}         # name -> open spans with that name

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _enter(self, name, args):
        if name == "pipelines.enumerate_ground" and self.open.get(MAPS[1]):
            self.count("pipelines.enumerate_ground.in_map")
        elif name == "gordon.classify" and self.open.get(MAPS[0]):
            self.count("gordon.classify.in_map")
        elif name in MAPS and self.stack \
                and self.stack[-1][0] == "harness.check_involution_laws":
            self.count("harness.sweep_map_calls")
        elif name == "series.mul":
            n = len(args[0].coeffs)
            # dense Cauchy product to truncation n - 1: n(n+1)/2 terms
            self.count("series.mul.madds",
                       n * (n + 1) // 2 if hasattr(args[1], "coeffs") else n)

    def wrap(self, name, fn):
        spans, stack, open_ = self.spans, self.stack, self.open
        spans.setdefault(name, [0, 0.0, 0.0])
        items = name + ".items" if name in ENUMERATORS else None

        def traced(*args, **kwargs):
            self._enter(name, args)
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] = open_.get(name, 0) + 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_[name] -= 1
                if stack:
                    stack[-1][1] += dt
                st = spans[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
            if items:
                self.count(items, len(out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap the public functions of every layer in place."""
        package = importlib.import_module("qgordon")
        modules = {m: importlib.import_module("qgordon." + m) for m in LAYERS}
        namespaces = [package] + list(modules.values())
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)
                        or (layer, attr) == ("series", "mul")):
                    continue
                traced = self.wrap(layer + "." + attr, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)
        series_cls = getattr(modules["series"], "TruncatedSeries", None)
        if series_cls is not None:
            mul = self.wrap("series.mul", series_cls.__mul__)
            series_cls.__mul__ = series_cls.__rmul__ = mul
            if hasattr(series_cls, "invert_unit"):
                series_cls.invert_unit = self.wrap("series.invert_unit",
                                                   series_cls.invert_unit)

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}
