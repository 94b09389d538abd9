"""Spans around the calls into each cartanflat layer, for the traced run.

Tracing is installed only inside a traced job's worker, after the fork, so
the parent and the untraced workers never see a wrapper.  The wrappers live
here, in the benchmark: the package itself is measured from outside.

A wrapper replaces a public function or method wherever the package holds
it; two private ones are wrapped too, the RK4 integrator ``_rk4_transport``
(``transport.integrate_self_s``) and the zcr ``_pde_fn`` property (part of
``zcr.rep_build_s``).  Functions imported by name into other modules (``compile_expressions``
into six of them, ``differentiate``, ``orthonormal_frame``, ...) are rebound
in every module whose namespace holds the same object.  The closures that
``compile_expressions`` returns are wrapped too, so evaluation time is
measured where it happens.

Each span records its name, start, end and parent; the job id is the job's
name, added when spans are written out.  Spans stay in memory until the job
ends, and then, for the one traced pass a run keeps, are appended to a JSON
lines file.  A span's self time is its duration minus the durations of its direct
children, which (one thread, nested calls) is the part of its interval that
no child covers.  The whole job is one root span, ``job``, so the self
times of all spans add up to the traced job time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

from cartanflat import bundle, cartan, cli, exprlang, metricspace, presets, sasaki, transport, zcr
from cartanflat.exprlang import Binary, Const, Unary, Var

_MODULES = (bundle, cartan, cli, exprlang, metricspace, presets, sasaki, transport, zcr)

ROOT = "job"

#: Per-layer metrics: (metric, kind, source).  ``self`` and ``calls`` read the
#: span named by source; ``count`` reads a counter the wrappers keep.
LAYER_METRICS = (
    ("exprlang.compile_s", "self", "exprlang.compile"),
    ("exprlang.compile_calls", "calls", "exprlang.compile"),
    ("exprlang.differentiate_s", "self", "exprlang.differentiate"),
    ("exprlang.compiled_ops", "count", "compiled_ops"),
    ("exprlang.unique_ops_ratio", "ratio", ("unique_ops", "compiled_ops")),
    ("exprlang.eval_calls", "calls", "exprlang.eval"),
    ("exprlang.eval_s", "self", "exprlang.eval"),
    ("metricspace.metric_build_s", "self", "metricspace.metric_build"),
    ("metricspace.christoffel_calls", "calls", "metricspace.christoffel"),
    ("metricspace.christoffel_s", "self", "metricspace.christoffel"),
    ("metricspace.metric_at_calls", "calls", "metricspace.metric_at"),
    ("metricspace.metric_at_s", "self", "metricspace.metric_at"),
    ("metricspace.inverse_at_calls", "calls", "metricspace.inverse_at"),
    ("metricspace.riemann_calls", "calls", "metricspace.riemann"),
    ("metricspace.riemann_s", "self", "metricspace.riemann"),
    ("cartan.frame_build_s", "self", "cartan.frame_build"),
    ("cartan.frame_at_calls", "calls", "cartan.frame_at"),
    ("cartan.frame_at_s", "self", "cartan.frame_at"),
    ("sasaki.curvature_form_s", "self", "sasaki.curvature_form"),
    ("sasaki.form_at_calls", "calls", "sasaki.form_at"),
    ("sasaki.form_at_s", "self", "sasaki.form_at"),
    ("sasaki.scan_self_s", "self", "sasaki.scan"),
    ("sasaki.points", "count", "points"),
    ("bundle.covariant_derivative_calls", "calls", "bundle.covariant_derivative"),
    ("bundle.covariant_derivative_hit_ratio", "ratio", ("cache_hits", "cache_lookups")),
    ("bundle.covariant_derivative_s", "self", "bundle.covariant_derivative"),
    ("bundle.section_at_calls", "calls", "bundle.section_at"),
    ("bundle.section_at_s", "self", "bundle.section_at"),
    ("transport.rk4_steps", "count", "rk4_steps"),
    ("transport.slope_evals", "count", "slope_evals"),
    ("transport.curve_eval_s", "self", "transport.curve_eval"),
    ("transport.integrate_self_s", "self", "transport.integrate"),
    ("zcr.rep_build_s", "self", "zcr.rep_build"),
    ("zcr.scan_self_s", "self", "zcr.scan"),
    ("cli.self_s", "self", "cli.main"),
)


def dag_census(expressions) -> tuple[int, int]:
    """(operation nodes distinct by identity, of those distinct by structure)
    over a batch handed to the compiler, which emits one line per node that
    is distinct by identity."""
    interned: dict[tuple, int] = {}
    key_of: dict[int, int] = {}
    op_keys: set[int] = set()
    ops = 0
    stack = [(node, False) for node in expressions]
    while stack:
        node, expanded = stack.pop()
        if id(node) in key_of:
            continue
        if isinstance(node, Const):
            key = ("c", repr(node.value))
        elif isinstance(node, Var):
            key = ("v", node.name)
        elif not expanded:
            stack.append((node, True))
            children = (node.operand,) if isinstance(node, Unary) else (node.left, node.right)
            stack.extend((child, False) for child in children if id(child) not in key_of)
            continue
        elif isinstance(node, Unary):
            key = ("u", node.op, key_of[id(node.operand)])
        else:
            key = ("b", node.op, key_of[id(node.left)], key_of[id(node.right)])
        key_of[id(node)] = interned.setdefault(key, len(interned))
        if isinstance(node, (Unary, Binary)):
            ops += 1
            op_keys.add(key_of[id(node)])
    return ops, len(op_keys)


class Tracer:
    """Spans and counters of one job in one worker."""

    def __init__(self, census: bool = False, spans_file: str | None = None):
        self.census = census
        self.spans_file = spans_file
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[list] = []  # [span index, time covered by children]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._covariant_derivative = bundle.covariant_derivative  # the lru_cache object
        self._cache_before = self._covariant_derivative.cache_info()

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, open_spans, self_s, calls = self.spans, self._open, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_spans[-1][0] if open_spans else -1
            record = [name, clock(), 0.0, parent]
            open_spans.append([len(spans), 0.0])
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                duration = end - record[1]
                _, covered = open_spans.pop()
                self_s[name] += duration - covered
                calls[name] += 1
                if open_spans:
                    open_spans[-1][1] += duration

        return traced

    def wrap_job(self, call):
        return self.wrap(ROOT, call)

    def report(self, job: str) -> dict:
        """Self times, calls and counters; writes the spans out if asked to."""
        info = self._covariant_derivative.cache_info()
        hits = info.hits - self._cache_before.hits
        misses = info.misses - self._cache_before.misses
        counts = dict(self.counts, cache_hits=hits, cache_lookups=hits + misses)
        if self.spans_file is not None:
            with open(self.spans_file, "a", encoding="utf-8") as out:
                for index, (name, start, end, parent) in enumerate(self.spans):
                    record = {"job": job, "id": index, "parent": parent, "name": name,
                              "start": start, "end": end}
                    out.write(json.dumps(record) + "\n")
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": counts}

    # -- installing the wrappers ----------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every traced layer entry point; call once, in a worker."""
        self._wrap_compiler()
        self._rebind(exprlang.differentiate, self.wrap("exprlang.differentiate", exprlang.differentiate))

        metric = metricspace.ChartMetric
        self._method(metric, "__init__", "metricspace.metric_build")
        for method in ("christoffel", "metric_at", "inverse_at", "riemann"):
            self._method(metric, method, f"metricspace.{method}")

        self._rebind(cartan.orthonormal_frame, self.wrap("cartan.frame_build", cartan.orthonormal_frame))
        self._cached(cartan.FrameField, "connection", "cartan.frame_build")
        self._method(cartan.FrameField, "frame_at", "cartan.frame_at")

        self._rebind(sasaki.curvature_form, self.wrap("sasaki.curvature_form", sasaki.curvature_form))
        self._method(sasaki.MatrixOneForm, "at", "sasaki.form_at")
        self._method(sasaki.MatrixTwoForm, "at", "sasaki.form_at")
        self._rebind(sasaki.flatness_scan, self._counting_scan(sasaki.flatness_scan))

        self._rebind(
            bundle.covariant_derivative,
            self.wrap("bundle.covariant_derivative", bundle.covariant_derivative),
        )
        self._method(bundle.BundleSection, "at", "bundle.section_at")

        self._rebind(transport._rk4_transport, self._counting_rk4(transport._rk4_transport))
        self._method(transport.ChartCurve, "point_at", "transport.curve_eval")
        self._method(transport.ChartCurve, "velocity_at", "transport.curve_eval")

        self._rebind(zcr.representation, self.wrap("zcr.rep_build", zcr.representation))
        for prop in ("triple", "connection", "curvature", "structure_forms", "_pde_fn"):
            self._cached(zcr.SineGordonRep, prop, "zcr.rep_build")
        self._rebind(zcr.equivalence_scan, self.wrap("zcr.scan", zcr.equivalence_scan))

        self._rebind(cli.main, self.wrap("cli.main", cli.main))
        return self

    @staticmethod
    def _rebind(original, replacement):
        for module in _MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)

    def _method(self, cls, attr: str, name: str):
        setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def _cached(self, cls, attr: str, name: str):
        prop = functools.cached_property(self.wrap(name, vars(cls)[attr].func))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)

    def _wrap_compiler(self):
        compile_expressions = exprlang.compile_expressions
        wrap_eval = functools.partial(self.wrap, "exprlang.eval")
        counts = self.counts
        census = self.census

        def compile_and_wrap(expressions, variables):
            if census:
                expressions = list(expressions)
                ops, unique = dag_census(expressions)
                counts["compiled_ops"] += ops
                counts["unique_ops"] += unique
            return wrap_eval(compile_expressions(expressions, variables))

        self._rebind(compile_expressions, self.wrap("exprlang.compile", compile_and_wrap))

    def _counting_scan(self, flatness_scan):
        counts = self.counts

        def scan(*args, **kwargs):
            report = flatness_scan(*args, **kwargs)
            counts["points"] += report.points
            return report

        return self.wrap("sasaki.scan", scan)

    def _counting_rk4(self, rk4_transport):
        counts = self.counts

        def integrate(connection, metric, curve, *args, **kwargs):
            counts["rk4_steps"] += curve.steps
            counts["slope_evals"] += 4 * curve.steps
            return rk4_transport(connection, metric, curve, *args, **kwargs)

        return self.wrap("transport.integrate", integrate)


def layer_metrics(self_s: dict, calls: dict, counts: dict) -> dict:
    """The per-layer metric values of one pass from its summed job reports."""
    out = {}
    for metric, kind, source in LAYER_METRICS:
        if kind == "self":
            out[metric] = self_s.get(source, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(source, 0)
        elif kind == "count":
            out[metric] = counts.get(source, 0)
        else:
            numerator, denominator = (counts.get(key, 0) for key in source)
            out[metric] = numerator / denominator if denominator else 0.0
    return out
