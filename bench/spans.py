"""Spans and counters recorded from outside the program.

A ``Tracer`` replaces public functions and methods of the planejac modules
with wrappers.  A span wrapper records (name, start, end, parent, error,
info) for every call; a counter wrapper only counts calls.  Spans stay in
memory until the run ends and are reduced to per-layer metrics by
``layer_metrics``.  Every binding of a wrapped function is replaced, including
names a module imported with ``from .poly import ...``, and ``restore`` puts
the originals back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, ERROR, INFO = range(6)

#: find_roots calls of degree <= SMALL_DEGREE are "small", the rest "large"
SMALL_DEGREE = 4


def _planejac_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "planejac" or name.startswith("planejac."))]


class Patcher:
    """Replaces every binding of a function or method and undoes it."""

    def __init__(self):
        self._undo = []

    def patch_function(self, module, attr, make):
        orig = getattr(module, attr)
        new = make(orig)
        for mod in _planejac_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, name, orig))
                    setattr(mod, name, new)
        return new

    def patch_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        new = make(orig)
        for name, value in list(cls.__dict__.items()):
            if value is orig:  # aliases such as __radd__ = __add__
                self._undo.append((cls, name, orig))
                setattr(cls, name, new)
        return new

    def restore(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def span_wrapper(self, name, info=None):
        """Wrapper factory: times each call as a span under the open span.
        ``info(args, result)`` may attach a value to the span; result is None
        when the call raised."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            def wrapper(*args, **kw):
                rec = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
                stack.append(len(spans))
                spans.append(rec)
                out = None
                try:
                    out = fn(*args, **kw)
                    return out
                except BaseException as e:
                    rec[ERROR] = type(e).__name__
                    raise
                finally:
                    rec[END] = clock()
                    stack.pop()
                    if info is not None:
                        rec[INFO] = info(args, out)
            return wrapper
        return make

    def counter_wrapper(self, name, by_parent=False):
        """Wrapper factory: counts calls; with by_parent, per innermost span."""
        counts, spans, stack = self.counts, self.spans, self.stack

        def make(fn):
            if by_parent:
                def wrapper(*args, **kw):
                    counts[(name, spans[stack[-1]][NAME] if stack else None)] += 1
                    return fn(*args, **kw)
            else:
                def wrapper(*args, **kw):
                    counts[name] += 1
                    return fn(*args, **kw)
            return wrapper
        return make

    def open(self, name):
        """Open a span from the benchmark itself (a job); returns its index."""
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-2] if len(self.stack) > 1 else -1, None, None])
        return self.stack[-1]

    def close(self, idx, error=None):
        rec = self.spans[idx]
        rec[END] = time.perf_counter()
        rec[ERROR] = error
        self.stack.pop()

    def install(self, patcher):
        """Wrap the public functions of each planejac layer."""
        from planejac import cli, exceptional, gaussian, lattice, poly, roots, series

        span, count = self.span_wrapper, self.counter_wrapper
        for attr in ("load_map_file", "emit"):
            patcher.patch_function(cli, attr, span(f"cli.{attr}"))

        gr = gaussian.GaussianRational
        patcher.patch_method(gr, "__init__", count("gaussian.GaussianRational.new"))
        for attr in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                     "__rtruediv__", "__neg__"):
            patcher.patch_method(gr, attr, count("gaussian.GaussianRational.ops"))

        patcher.patch_method(poly.Poly, "__init__", count("poly.Poly.new"))
        patcher.patch_method(poly.Poly, "evaluate", span("poly.Poly.evaluate"))
        patcher.patch_function(poly, "resultant", span(
            "poly.resultant",
            info=lambda a, out: a[0].degree_in(a[2]) + a[1].degree_in(a[2])))
        patcher.patch_function(poly, "exact_div", span(
            "poly.exact_div", info=lambda a, out: out is None))
        for attr in ("det_bareiss", "poly_gcd", "squarefree_part"):
            patcher.patch_function(poly, attr, span(f"poly.{attr}"))

        for attr in ("nonproper_candidates", "critical_values", "topological_degree",
                     "certify_nonproper", "exceptional_set"):
            patcher.patch_function(exceptional, attr, span(f"exceptional.{attr}"))

        patcher.patch_function(lattice, "verify_dist_inequality", span(
            "lattice.verify_dist_inequality",
            info=lambda a, out: out["checked"] if out else 0))
        for attr in ("verify_dhat_inequality", "dist_upper_bound", "dhat",
                     "enumerate_fiber_points"):
            patcher.patch_function(lattice, attr, span(f"lattice.{attr}"))

        patcher.patch_function(roots, "find_roots", span(
            "roots.find_roots", info=lambda a, out: len(a[0]) - 1))
        patcher.patch_function(roots, "cluster_roots", span("roots.cluster_roots"))

        patcher.patch_function(series, "local_inverse", span("series.local_inverse"))
        patcher.patch_function(series, "compose_truncated", span("series.compose_truncated"))
        patcher.patch_method(series.TruncSeries2, "__mul__",
                             count("series.TruncSeries2.mul", by_parent=True))


def _ancestor_named(spans, idx, name):
    p = spans[idx][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(tracer, passes):
    """Per-layer metrics per pass of the job list: {name: (value, unit)}."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls, self_s = Counter(), defaultdict(float)
    errors = Counter()
    for i, rec in enumerate(spans):
        calls[rec[NAME]] += 1
        self_s[rec[NAME]] += rec[END] - rec[START] - child[i]
        if rec[ERROR]:
            errors[rec[NAME]] += 1

    def per_pass(v):
        return v / passes

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for layer in ("cli.load_map_file", "cli.emit", "poly.det_bareiss",
                  "poly.squarefree_part", "roots.cluster_roots",
                  "series.compose_truncated"):
        put(f"{layer}.self_s", per_pass(self_s[layer]), "s/pass")
    for layer in ("poly.resultant", "poly.exact_div", "poly.poly_gcd", "poly.Poly.evaluate",
                  "exceptional.nonproper_candidates", "exceptional.critical_values",
                  "exceptional.topological_degree", "exceptional.certify_nonproper",
                  "exceptional.exceptional_set", "lattice.dist_upper_bound", "lattice.dhat",
                  "lattice.enumerate_fiber_points", "roots.find_roots",
                  "series.local_inverse"):
        put(f"{layer}.calls", per_pass(calls[layer]), "count/pass")
        put(f"{layer}.self_s", per_pass(self_s[layer]), "s/pass")
    for name in ("gaussian.GaussianRational.new", "gaussian.GaussianRational.ops",
                 "poly.Poly.new"):
        put(name, per_pass(tracer.counts[name]), "count/pass")

    res = [r for r in spans if r[NAME] == "poly.resultant"]
    put("poly.resultant.dim_max", max((r[INFO] for r in res), default=0), "rows")
    divs = [r for r in spans if r[NAME] == "poly.exact_div" and not r[ERROR]]
    put("poly.exact_div.none_frac",
        sum(1 for r in divs if r[INFO]) / len(divs) if divs else 0.0, "ratio")

    under_td = sum(1 for i, r in enumerate(spans) if r[NAME] == "poly.resultant"
                   and _ancestor_named(spans, i, "exceptional.topological_degree"))
    put("exceptional.topological_degree.resultants", per_pass(under_td), "count/pass")

    points = sum(r[INFO] for r in spans if r[NAME] == "lattice.verify_dist_inequality")
    put("lattice.verify_dist_inequality.points", per_pass(points), "count/pass")
    solves = Counter()
    fallbacks = 0
    for r in spans:
        if r[NAME] == "roots.find_roots" and r[PARENT] >= 0:
            parent = spans[r[PARENT]][NAME]
            solves[parent] += 1
            if parent == "lattice.enumerate_fiber_points" and r[ERROR]:
                fallbacks += 1
    dub = calls["lattice.dist_upper_bound"]
    put("lattice.dist_upper_bound.solves_per_call",
        solves["lattice.dist_upper_bound"] / dub if dub else 0.0, "solves/call")
    put("lattice.enumerate_fiber_points.solves",
        per_pass(solves["lattice.enumerate_fiber_points"]), "count/pass")
    put("lattice.np_roots_fallbacks", per_pass(fallbacks), "count/pass")

    put("roots.find_roots.errors", per_pass(errors["roots.find_roots"]), "count/pass")
    for size, keep in (("small", lambda d: d <= SMALL_DEGREE),
                       ("large", lambda d: d > SMALL_DEGREE)):
        ts = [r[END] - r[START] for r in spans
              if r[NAME] == "roots.find_roots" and keep(r[INFO])]
        put(f"roots.find_roots.{size}.calls", per_pass(len(ts)), "count/pass")
        put(f"roots.find_roots.{size}.mean_us", 1e6 * sum(ts) / len(ts) if ts else 0.0, "us")

    put("series.local_inverse.series_muls",
        per_pass(tracer.counts[("series.TruncSeries2.mul", "series.local_inverse")]), "count/pass")
    return m
