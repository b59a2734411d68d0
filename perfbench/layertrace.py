"""Per-layer tracing for the benchmark, installed from outside the library.

``install`` replaces, in every coxkit namespace, each binding of a public
function of the library modules with a span wrapper, so that a call made
as ``coxeter.det_poly`` (bound by ``from .algebra import det_poly``) is seen
as well as one made as ``algebra.det_poly``.  Each function is wrapped once
and each binding replaced once; modules reached through another module
(``cli.coxeter`` is ``coxeter``) are not wrapped again.

Spans are folded into per-name totals as they close: calls, self time (the
span's duration minus the time covered by its child spans) and, for the
Coxeter polynomial functions, how many calls repeat a diagram already seen.
``Poly``/``Laurent`` multiplication and ``Poly.exact_div`` are called far too
often to time, so they only count calls and the operations they compute.

Everything runs on one thread and does no I/O, so no layer queues or waits;
there are no wait metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from workloads import SUITES

MODULES = ("algebra", "diagram", "coxeter", "cfrac", "identities",
           "kostant", "braid", "report", "cli")
_SPANNED = ("algebra", "diagram", "coxeter", "cfrac", "identities",
            "kostant", "braid")
# diagram.delete(d, vs) only calls d.delete(vs); the method is the span
_SKIP = {"diagram.delete"}
_REPEAT = {"coxeter.coxeter_poly", "coxeter.char_poly", "coxeter.cofactors"}
_RATFUNC_METHODS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                    "__neg__", "__mul__", "__rmul__", "__truediv__",
                    "__rtruediv__", "reciprocal")
# kostant functions that are not identity checks
_KOSTANT_DATA = {"kostant.poincare_series", "kostant.klein_data",
                 "kostant.klein_types"}


class Tracer:
    """Span and counter totals for one pass."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.repeats: dict[str, int] = defaultdict(int)
        self.max_n: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        # time covered by child spans of each open span; [0] is the root
        self._stack = [0.0]

    def span(self, name: str, fn):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack, clock = self._stack, time.perf_counter
        seen = self._seen[name] if name in _REPEAT else None
        sized = name == "algebra.det_poly"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if seen is not None:
                if args[0] in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(args[0])
            if sized and len(args[0]) > self.max_n[name]:
                self.max_n[name] = len(args[0])
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                self_s[name] += dt - stack.pop()
                total_s[name] += dt
                stack[-1] += dt
        return wrapper

    def counter(self, name: str, fn, work=None):
        calls, totals = self.calls, self.work

        @functools.wraps(fn)
        def wrapper(a, b):
            calls[name] += 1
            if work is not None:
                totals[name] += work(a, b)
            return fn(a, b)
        return wrapper


def _term_mults(a, b) -> int:
    """Coefficient products of a * b (b may be an int).  ``_c`` is read
    directly: the public views sort or copy, which would cost more than the
    multiplication being counted."""
    return len(a._c) * (len(b._c) if type(b) is type(a) else 1)


def _wrap_methods(tracer, cls, attrs, name, make):
    done = {}
    for attr in attrs:
        fn = vars(cls)[attr]
        if fn not in done:
            done[fn] = make(name, fn)
        setattr(cls, attr, done[fn])


def install(tracer: Tracer) -> None:
    """Wrap the library in place; call once per process, before the pass."""
    from coxkit import algebra, cli, diagram, report

    wrapped = {}
    for short in _SPANNED:
        mod = sys.modules[f"coxkit.{short}"]
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in _SKIP):
                wrapped[obj] = tracer.span(name, obj)
    wrapped[cli.main] = tracer.span("cli.main", cli.main)
    namespaces = [m for key, m in list(sys.modules.items())
                  if key == "coxkit" or key.startswith("coxkit.")]
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for suite, fn in list(cli.VERIFIERS.items()):
        cli.VERIFIERS[suite] = tracer.span(f"cli.verify.{suite}", fn)

    _wrap_methods(tracer, diagram.Diagram, ("delete",), "diagram.delete",
                  tracer.span)
    _wrap_methods(tracer, algebra.RatFunc, _RATFUNC_METHODS,
                  "algebra.ratfunc", tracer.span)
    compare = tracer.span("report.compare", report.IdentityReport.compare)
    report.IdentityReport.compare = staticmethod(compare)
    _wrap_methods(tracer, algebra.Poly, ("__mul__", "__rmul__"),
                  "algebra.poly_mul",
                  lambda n, f: tracer.counter(n, f, _term_mults))
    _wrap_methods(tracer, algebra.Poly, ("exact_div",),
                  "algebra.poly_exact_div", tracer.counter)
    _wrap_methods(tracer, algebra.Laurent, ("__mul__", "__rmul__"),
                  "algebra.laurent_mul",
                  lambda n, f: tracer.counter(n, f, _term_mults))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

COUNTS = (
    "algebra.det_poly.calls", "algebra.det_poly.max_n",
    "algebra.det_exact.calls", "algebra.poly_mul.calls",
    "algebra.poly_mul.coef_mults", "algebra.poly_exact_div.calls",
    "algebra.laurent_mul.calls", "algebra.laurent_mul.term_mults",
    "algebra.bezoutian.calls", "algebra.ratfunc.calls",
    "diagram.delete.calls",
    "coxeter.coxeter_poly.calls", "coxeter.char_poly.calls",
    "coxeter.cofactors.calls", "coxeter.schur_step.calls",
    "coxeter.coxeter_poly.repeat_ratio", "coxeter.char_poly.repeat_ratio",
    "coxeter.cofactors.repeat_ratio",
)
SELF_TIMES = (
    "algebra.det_poly", "algebra.det_exact", "algebra.bezoutian",
    "algebra.wronskian", "algebra.ratfunc", "algebra.mat_mul",
    "diagram.delete",
    "coxeter.coxeter_poly", "coxeter.char_poly", "coxeter.cofactors",
    "coxeter.schur_step",
    "identities.cd_coxeter", "identities.cd_wronskian", "identities.cd_char",
    "identities.poincare_cd",
    "kostant.poincare_series", "kostant.checks",
    "cfrac.expand_tree", "cfrac.evaluate",
    "braid.burau", "braid.milnor", "braid.magnus", "braid.levin_check",
    "report.compare",
)
ROLLUP = MODULES + ("bench",)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in COUNTS:
        units[name] = ("ratio" if name.endswith("repeat_ratio")
                       else "rows" if name.endswith("max_n") else "count")
    for name in SELF_TIMES:
        units[f"{name}.self_s"] = "s"
    for suite in SUITES:
        units[f"cli.verify.{suite}.s"] = "s"
    for mod in ROLLUP:
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.self_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def layer_values(tracer: Tracer, pass_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass; overhead_ratio is left to the
    caller, which has the untraced passes."""
    values: dict[str, float] = {}
    for name in COUNTS:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.calls.get(base, 0)
        elif stat == "max_n":
            values[name] = tracer.max_n.get(base, 0)
        elif stat == "repeat_ratio":
            calls = tracer.calls.get(base, 0)
            repeats = tracer.repeats.get(base, 0)
            values[name] = repeats / calls if calls else 0.0
        else:
            values[name] = tracer.work.get(base, 0)
    self_s = dict(tracer.self_s)
    self_s["kostant.checks"] = sum(
        s for name, s in tracer.self_s.items()
        if name.startswith("kostant.") and name not in _KOSTANT_DATA)
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for suite in SUITES:
        values[f"cli.verify.{suite}.s"] = tracer.total_s.get(
            f"cli.verify.{suite}", 0.0)
    modules = {mod: 0.0 for mod in ROLLUP}
    for name, s in tracer.self_s.items():
        modules[name.split(".", 1)[0]] += s
    # bench: the time outside every span, the benchmark's own loop and checks
    modules["bench"] = pass_s - sum(tracer.self_s.values())
    for mod, s in modules.items():
        values[f"{mod}.self_s"] = s
        values[f"{mod}.self_share"] = s / pass_s if pass_s else 0.0
    return values
