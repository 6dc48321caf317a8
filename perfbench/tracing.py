"""Per-layer tracing from outside the package.

The tracer replaces functions with timing wrappers while it is active and
puts the originals back when it exits.  gpdext modules bind helpers at
import (``from .exact import smul``), so a function is patched under every
name that refers to it, in every loaded gpdext module and in the modules
passed as ``extra_modules``.  Methods and numpy.linalg functions are looked
up at call time and are patched once, on the class or module.

A wrapper keeps a span stack: a span's self time is its duration minus the
durations of the wrapped calls it made.  Counts and times accumulate per
name; spans that cross a layer boundary are kept in memory (up to
MAX_SPANS) and written out once, by the caller, at the end.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from time import perf_counter

import numpy.linalg

LAYERS = (
    "exact",
    "groupoid",
    "cocycle",
    "algebra",
    "extension",
    "cyclic_oracle",
    "morita",
    "documents",
    "cli",
    "randgen",
)

MAX_SPANS = 50_000

# Methods wrapped on their class (module-level functions are all wrapped).
# Cheap accessors such as FiniteGroupoid.compose_or_none are left out on
# purpose: wrapping them would cost more than they do, so their time stays
# in their callers' self time.
METHODS = {
    ("exact", "Cyclo"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "rotated", "conj", "is_zero",
    ),
    ("cocycle", "TwoCocycle"): ("check_identity",),
    ("algebra", "TwistedAlgebra"): (
        "convolve", "involute", "regular_rep", "reduced_norm",
        "full_norm_certificate", "center_dimension",
    ),
    ("cyclic_oracle", "CyclicExtension"): ("__init__",),
    ("cli", "Report"): ("to_machine",),
}


def _conductor(value) -> int:
    """lcm of the angle denominators of a Cyclo (its terms are keyed by
    Fraction angles)."""
    return math.lcm(*(a.denominator for a in value.terms))


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, extra_modules=()):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {
            "is_zero.dense": 0,
            "is_zero.conductor_max": 0,
            "cyclic_decompose.checks": 0,
            "report_bytes": 0,
        }
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.item = -1
        self._stack: list[list] = []  # [name, layer, start, child_time]
        self._extra = tuple(extra_modules)
        self._restore: list[tuple] = []

    # -- wrapping --------------------------------------------------------

    def _hooks(self, name: str):
        if name == "exact.Cyclo.is_zero":
            def before(args):
                if len(args[0].terms) > 2:
                    self.counters["is_zero.dense"] += 1
                n = _conductor(args[0])
                if n > self.counters["is_zero.conductor_max"]:
                    self.counters["is_zero.conductor_max"] = n
            return before, None
        if name == "extension.cyclic_decompose":
            def after(result):
                self.counters["cyclic_decompose.checks"] += sum(
                    getattr(result, f, 0)
                    for f in ("products_checked", "stars_checked", "projections_checked")
                )
            return None, after
        if name == "cli.Report.to_machine":
            def after(result):
                self.counters["report_bytes"] += len(result.encode())
            return None, after
        return None, None

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        stat = self.stats.setdefault(name, Stat())
        before, after = self._hooks(name)
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            frame = [name, layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dt = end - frame[2]
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[3]
                if parent is not None:
                    parent[3] += dt
                if parent is None or parent[1] != layer:
                    if len(spans) < MAX_SPANS:
                        spans.append(
                            (self.item, name, parent[0] if parent else None, frame[2], end)
                        )
                    else:
                        self.dropped_spans += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def __enter__(self):
        modules = {
            name.rsplit(".", 1)[-1]: m
            for name, m in list(sys.modules.items())
            if name.startswith("gpdext.") and m is not None
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(layer)
            for attr, obj in vars(mod).items() if mod is not None else ():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (sys.modules["gpdext"], *modules.values(), *self._extra):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules.get(layer), cls_name, None)
            for meth in methods:
                if cls is not None and meth in vars(cls):
                    name = f"{layer}.{cls_name}.{meth}"
                    self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))
        for attr in numpy.linalg.__all__:
            fn = getattr(numpy.linalg, attr)
            if callable(fn) and not isinstance(fn, type):
                self._patch(numpy.linalg, attr, self._wrap(f"linalg.{attr}", fn))
        return self

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    # -- reading ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        return {n: s.self_time for n, s in self.stats.items()}

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n].self_time for n in names if n in self.stats)

    def total_s(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def to_doc(self) -> dict:
        return {
            "stats": {
                n: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                for n, s in sorted(self.stats.items())
                if s.calls
            },
            "counters": dict(self.counters),
            "spans": [
                {"item": i, "name": n, "parent": p, "start": a, "end": b}
                for i, n, p, a, b in self.spans
            ],
            "dropped_spans": self.dropped_spans,
        }


# ---------------------------------------------------------------------------
# per-layer metrics

def loglog_slope(per_item, names) -> float | None:
    """Least-squares slope of log(self time per item) against log(size),
    over the upper half of the sizes, where per-call overhead no longer
    dominates.  Items of one size contribute their median."""
    by_size: dict[int, list[float]] = {}
    for size, times in per_item:
        if size > 0:
            by_size.setdefault(size, []).append(sum(times.get(n, 0.0) for n in names))
    sizes = sorted(by_size)
    if len(sizes) < 2:
        return None
    cut = statistics.median(sizes)
    pts = [
        (math.log(s), math.log(statistics.median(by_size[s])))
        for s in sizes
        if s >= cut and statistics.median(by_size[s]) > 0
    ]
    if len(pts) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


CYCLO_ARITH = tuple(f"exact.Cyclo.{m}" for m in METHODS[("exact", "Cyclo")] if m != "is_zero")
DISPATCH = ("exact.smul", "exact.sadd", "exact.sconj", "exact.scalars_equal")
IS_ZERO = ("exact.Cyclo.is_zero",)


def method(mod: str, cls: str, name: str) -> tuple[str, str]:
    """A method and the module-level wrapper of the same name, if any."""
    return (f"{mod}.{cls}.{name}", f"{mod}.{name}")


ALGEBRA = {
    m: method("algebra", "TwistedAlgebra", m)
    for m in ("convolve", "regular_rep", "reduced_norm", "full_norm_certificate", "center_dimension")
}


def per_layer_metrics(tracer, per_item, size_axis, time_scale, overhead) -> tuple[dict, dict]:
    """(metrics, reasons): every per-layer metric as (value, unit), times
    multiplied by `time_scale`, and why a metric could not be measured on
    this workload (reported as 0)."""
    out, why_not = {}, {}
    calls, self_s = tracer.calls, tracer.self_s
    linalg = tuple(n for n in tracer.stats if n.startswith("linalg."))

    def put(name, unit, value, reason=None):
        if value is None:
            why_not[name] = reason
            value = 0
        out[name] = (value * time_scale if unit == "s" else value, unit)

    def exponent(name, names, axis):
        if size_axis != axis:
            put(name, "1", None, f"this workload has no {axis} size axis")
        else:
            put(name, "1", loglog_slope(per_item, names), "fewer than two sizes with time")

    zero_calls = calls(*IS_ZERO)
    c = tracer.counters
    put("exact.cyclo_arith.calls", "count", calls(*CYCLO_ARITH))
    put("exact.cyclo_arith.self_s", "s", self_s(*CYCLO_ARITH))
    put("exact.dispatch.calls", "count", calls(*DISPATCH))
    put("exact.is_zero.calls", "count", zero_calls)
    put("exact.is_zero.self_s", "s", self_s(*IS_ZERO))
    put(
        "exact.is_zero.dense_ratio", "ratio",
        c["is_zero.dense"] / zero_calls if zero_calls else None, "no is_zero calls",
    )
    put(
        "exact.is_zero.conductor_max", "count",
        c["is_zero.conductor_max"] if zero_calls else None, "no is_zero calls",
    )
    exponent("exact.is_zero.exponent", IS_ZERO, "conductor")
    put("groupoid.validate.calls", "count", calls("groupoid.validate"))
    put("groupoid.validate.self_s", "s", self_s("groupoid.validate"))
    put("cocycle.check_identity.self_s", "s", self_s(*method("cocycle", "TwoCocycle", "check_identity")))
    # The build includes validating the extension groupoid: inclusive time.
    put("cyclic_oracle.build.self_s", "s", tracer.total_s("cyclic_oracle.CyclicExtension.__init__"))
    for m in ("convolve", "regular_rep"):
        put(f"algebra.{m}.calls", "count", calls(ALGEBRA[m][0]))
    for m, names in ALGEBRA.items():
        put(f"algebra.{m}.self_s", "s", self_s(*names))
    for m, names in ALGEBRA.items():
        exponent(f"algebra.{m}.exponent", names, "arrows")
    put("extension.cyclic_decompose.self_s", "s", self_s("extension.cyclic_decompose"))
    put("extension.cyclic_decompose.checks", "count", c["cyclic_decompose.checks"])
    for f in ("intertwine_check", "check_reduced_decomposition", "decompose", "oracle_norm_deviation"):
        put(f"extension.{f}.self_s", "s", self_s(f"extension.{f}"))
    put("cyclic_oracle.conv.calls", "count", calls("cyclic_oracle.conv"))
    for f in ("conv", "mode_projection", "faithfulness_rank", "reduced_norm"):
        put(f"cyclic_oracle.{f}.self_s", "s", self_s(f"cyclic_oracle.{f}"))
    for f in ("saturation_report", "fullness_check"):
        put(f"morita.{f}.self_s", "s", self_s(f"morita.{f}"))
    put("documents.parse_spec.self_s", "s", self_s("documents.parse_spec"))
    put("cli.cmd_verify_all.self_s", "s", self_s("cli.cmd_verify_all"))
    put("cli.report_bytes", "bytes", c["report_bytes"])
    put("linalg.matrix_rank.calls", "count", calls("linalg.matrix_rank"))
    put("linalg.norm.calls", "count", calls("linalg.norm"))
    put("linalg.self_s", "s", self_s(*linalg))
    out.update(overhead)
    return out, why_not
