"""Span tracing installed from the benchmark's own files.

The tracer wraps the public functions and methods of each lowrank
module.  A function is patched under every module attribute that holds
it, because the modules import each other by name (classify looks up
build_algebra and find_standard_involution in its own namespace, cli
looks up verify_main_theorem); a method is patched on its class.  While
installed, every wrapped call records a span (name, parent, start, end,
exception) in memory, and counts ride on the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
from collections import defaultdict

# (span name, module, attribute); attributes with a dot are methods.
# cli.build_parser is wrapped separately, see _parser_factory.
SPANS = (
    ("classify.verify_main_theorem", "classify", "verify_main_theorem"),
    ("classify.enumerate_cubic", "classify", "enumerate_cubic"),
    ("classify.exceptional_classes", "classify", "exceptional_classes"),
    ("classify.is_isomorphic_bruteforce", "classify", "is_isomorphic_bruteforce"),
    ("classify.quadratic_census", "classify", "quadratic_census"),
    ("algebra.StructureConstants.init", "algebra", "StructureConstants.__init__"),
    ("algebra.verify_associativity", "algebra", "StructureConstants.verify_associativity"),
    ("algebra.AlgebraMap.verify_isomorphism", "algebra", "AlgebraMap.verify_isomorphism"),
    ("algebra.left_regular_rep", "algebra", "left_regular_rep"),
    ("algebra.char_poly", "algebra", "SquareMatrix.char_poly"),
    ("algebra.min_poly", "algebra", "min_poly"),
    ("cubic.CubicCoefficients", "cubic", "CubicCoefficients.__init__"),
    ("cubic.build_algebra", "cubic", "build_algebra"),
    ("cubic.classify_case", "cubic", "classify_case"),
    ("cubic.matrix_rep", "cubic", "matrix_rep"),
    ("cubic.gl2_act", "cubic", "gl2_act"),
    ("cubic.exceptional_witness", "cubic", "exceptional_witness"),
    ("involutions.find_standard_involution", "involutions", "find_standard_involution"),
    ("involutions.verify_involution", "involutions", "verify_involution"),
    ("involutions.verify_standard", "involutions", "verify_standard"),
    ("rings.square_class_witness", "rings", "square_class_witness"),
    ("quadratic.is_isomorphic_2unit", "quadratic", "is_isomorphic_2unit"),
    ("quadratic.is_isomorphic_over_z", "quadratic", "is_isomorphic_over_z"),
    ("cli.parse", "cli", "_load_json"),
    ("cli.parse", "cli", "_ring_from_args"),
    ("cli.report", "cli", "_emit"),
    ("cli.report", "classify", "CensusReport.to_json"),
    ("cli.report", "classify", "QuadraticCensusReport.to_json"),
)

ROOT = "request"

# Span names whose self time the per-layer output reports.
SELF_TIME = tuple(dict.fromkeys(name for name, _, _ in SPANS)) + (ROOT,)
CALLS = (
    "classify.enumerate_cubic",
    "classify.is_isomorphic_bruteforce",
    "cubic.CubicCoefficients",
    "cubic.build_algebra",
    "involutions.find_standard_involution",
    "rings.square_class_witness",
)


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.names = []
        self.name_ids = {}
        # one record per span: [name id, parent index, start ns, end ns, exception name]
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.in_flight = 0
        self.max_in_flight = 0
        self._patches = self._plan()
        self._root = self.span(ROOT, lambda run: run())

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name, fn, after=None):
        """Wrap fn so that each call records a span; `after(args, result)`
        updates counts when the call returns."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_id, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[3] = clock()
                record[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
            record[3] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _guard_counter(self, fn, refused_type):
        counts = self.counts

        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except refused_type:
                counts["errors.guard_refusals"] += 1
                raise

        return guarded

    def _parser_factory(self, build_parser):
        """cli.parse covers building the parser and parsing argv.  The
        parse is wrapped on the parser instance, not on argparse itself,
        which the speed probe also uses."""

        def build(*args, **kwargs):
            parser = build_parser(*args, **kwargs)
            parser.parse_args = self.span("cli.parse", parser.parse_args)
            return parser

        return self.span("cli.parse", functools.wraps(build_parser)(build))

    def _after_hooks(self):
        counts = self.counts

        def enumerate_after(args, result):
            counts["enumerate.scanned"] += args[0].p ** 6
            counts["enumerate.kept"] += len(result)

        def iso_after(args, result):
            counts["iso.found"] += bool(result[0])

        def inv_after(args, result):
            counts["inv.found"] += result is not None

        return {
            "classify.enumerate_cubic": enumerate_after,
            "classify.is_isomorphic_bruteforce": iso_after,
            "involutions.find_standard_involution": inv_after,
        }

    def _plan(self):
        """Every (target, attribute, original, wrapper) the tracer swaps in."""
        hooks = self._after_hooks()
        plan = []

        def function(module_name, attr, wrapped_for):
            original = getattr(self.mods[module_name], attr)
            wrapped = wrapped_for(original)
            for mod in self.mods.values():
                if getattr(mod, attr, None) is original:
                    plan.append((mod, attr, original, wrapped))

        for name, module, attr in SPANS:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(self.mods[module], cls_name)
                original = cls.__dict__[method]
                plan.append((cls, method, original, self.span(name, original, hooks.get(name))))
            else:
                function(module, attr, lambda fn, n=name: self.span(n, fn, hooks.get(n)))
        function("cli", "build_parser", self._parser_factory)
        ring_cls = self.mods["rings"].RingElement
        original = ring_cls.__dict__["__init__"]
        plan.append((ring_cls, "__init__", original, self._counter("rings.elements_constructed", original)))
        guard_type = self.mods["errors"].GuardExceeded
        function("errors", "check_guard", lambda fn: self._guard_counter(fn, guard_type))
        return plan

    def traced(self, run):
        """Run one request with the wrappers installed, under a root span.
        The wrappers come out again between requests, so nothing else the
        benchmark does (the speed probe uses argparse too) is traced.  One
        client: at most one request is ever in flight, and no layer has
        work waiting for it."""
        for target, attr, _, wrapped in self._patches:
            setattr(target, attr, wrapped)
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            return self._root(run)
        finally:
            self.in_flight -= 1
            for target, attr, original, _ in reversed(self._patches):
                setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self ns, ns in calls that raised
        GuardExceeded).  Self time is a span's duration minus the
        durations of its direct children; one thread runs the spans, so
        children never overlap."""
        child = [0] * len(self.spans)
        for name_id, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for idx, (name_id, _, start, end, exc) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row[0] += 1
            row[1] += end - start - child[idx]
            if exc == "GuardExceeded":
                row[2] += end - start
        return out

    def layer_metrics(self, traced_walls, untraced_wall_s, report_bytes, speed):
        """Per-layer metrics, each per traced pass of the job list; span
        times are multiplied by `speed` to bring them to reference speed.
        `traced_walls` holds the scaled time of each traced pass."""
        stats = self.self_times()
        counts = self.counts
        passes = len(traced_walls)
        per_pass_s = speed / 1e9 / passes

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for name in SELF_TIME:
            m[f"{name}.self_s"] = (stats[name][1] * per_pass_s, "s")
        for name in CALLS:
            m[f"{name}.calls"] = (stats[name][0] / passes, "count")
        m["classify.enumerate_cubic.kept_ratio"] = (
            ratio(counts["enumerate.kept"], counts["enumerate.scanned"]), "ratio")
        m["classify.exceptional_classes.guard_wasted_s"] = (
            stats["classify.exceptional_classes"][2] * per_pass_s, "s")
        m["errors.guard_refusals"] = (counts["errors.guard_refusals"] / passes, "count")
        m["classify.is_isomorphic_bruteforce.found_ratio"] = (
            ratio(counts["iso.found"], stats["classify.is_isomorphic_bruteforce"][0]), "ratio")
        m["involutions.find_standard_involution.found_ratio"] = (
            ratio(counts["inv.found"], stats["involutions.find_standard_involution"][0]), "ratio")
        m["rings.elements_constructed"] = (counts["rings.elements_constructed"] / passes, "count")
        m["cli.report.bytes"] = (report_bytes / passes, "bytes")
        total_self = sum(row[1] for row in stats.values()) * speed / 1e9
        m["trace.accounted_ratio"] = (ratio(total_self, sum(traced_walls)), "ratio")
        m["trace.overhead_ratio"] = (ratio(statistics.median(traced_walls), untraced_wall_s), "ratio")
        m["trace.max_in_flight"] = (self.max_in_flight, "count")
        return m

    def write(self, path, extra):
        """Write every span and the per-name summary, gzip-compressed."""
        stats = self.self_times()
        summary = {
            name: {"calls": row[0], "self_s": row[1] / 1e9, "guard_s": row[2] / 1e9, "wait_s": 0.0}
            for name, row in sorted(stats.items())
        }
        doc = {
            **extra,
            "names": self.names,
            "span_fields": ["name", "parent", "start_ns", "end_ns", "exception"],
            "spans": self.spans,
            "summary": summary,
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
