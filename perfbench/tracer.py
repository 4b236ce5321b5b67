"""Span tracing from outside the program.

The tracer wraps public functions of the trustlens modules at every place
their name is looked up (a module global such as ``engine.filter_by_context``
and ``sim.filter_by_context`` is a separate binding of ``core.filter_by_context``),
records one span per call with its parent span, and keeps counters next to
the spans. ``uninstall`` puts every original object back.

Spans are kept in memory; per-layer figures are computed from them once the
traced work has finished.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace

# (span name, module, attribute path). The span name is the layer metric prefix.
SPAN_TARGETS = (
    ("core.read_log_csv", "core", "read_log_csv"),
    ("core.filter_by_context", "core", "filter_by_context"),
    ("core.append", "core", "TransactionLog.append"),
    ("lda.train", "lda", "train"),
    ("dtree.discretize", "dtree", "discretize"),
    ("dtree.build_domains", "dtree", "build_domains"),
    ("dtree.build_tree", "dtree", "build_tree"),
    ("dtree.classify_dt", "dtree", "classify_dt"),
    ("engine.assess", "engine", "assess"),
    ("engine.record_outcome", "engine", "record_outcome"),
    ("lkson.combined_assessment", "lkson", "OverlayGraph.combined_assessment"),
    ("lkson.combine", "lkson", "combine"),
    ("lkson.share_knowledge", "lkson", "share_knowledge"),
    ("lkson.post_transaction_update", "lkson", "post_transaction_update"),
    ("lkson.bootstrap_providers", "lkson", "bootstrap_providers"),
    ("baselines.aggregate_feedback", "baselines", "aggregate_feedback"),
    ("baselines.stereotrust_predict", "baselines", "stereotrust_predict"),
    ("sim.run_experiment", "sim", "run_experiment"),
    ("sim.write_results_csv", "sim", "write_results_csv"),
    ("cli.cmd_ingest", "cli", "cmd_ingest"),
    ("cli.cmd_assess", "cli", "cmd_assess"),
    ("cli.cmd_simulate", "cli", "cmd_simulate"),
)

# Called too often for a span each (hundreds of thousands of calls per
# assessment stream); these only count calls.
COUNT_TARGETS = (("dtree.information_gain", "dtree", "information_gain"),)


def _filter_counts(counters, args, kwargs, result):
    log = args[0] if args else kwargs["log"]
    counters["core.filter_by_context.rows_scanned"] += len(log.entries)
    counters["core.filter_by_context.rows_kept"] += len(result.entries)


def _read_counts(counters, args, kwargs, result):
    counters["core.read_log_csv.rows"] += len(result.entries)


def _overlay_counts(counters, args, kwargs, result):
    counters["lkson.tuples_returned"] += len(result[1])


def _assess_counts(counters, args, kwargs, result):
    counters["engine.assess.local"] += result.knowledge_source == "local"


COUNTER_HOOKS = {
    "core.filter_by_context": _filter_counts,
    "core.read_log_csv": _read_counts,
    "lkson.combined_assessment": _overlay_counts,
    "engine.assess": _assess_counts,
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = -1


class Tracer:
    """Installs timing wrappers on a loaded program and collects spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = COUNTER_HOOKS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counters = self.counters
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, program: SimpleNamespace) -> None:
        """Wrap every target at every binding that holds the original object."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [program.package] + [getattr(program, m) for m in program.module_names]
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for name, module_name, path in targets:
                owner = getattr(program, module_name)
                if "." in path:  # a method: the class attribute is its one lookup site
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, make(name, original))
                    continue
                original = getattr(owner, path)
                wrapper = make(name, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched_sites(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- results ----------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the part of it covered by child spans."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = []
        for span in self.spans:
            covered = 0
            cursor = span.start_ns
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start_ns):
                lo = max(child.start_ns, cursor)
                hi = min(child.end_ns, span.end_ns)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.end_ns - span.start_ns - covered)
        return out

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (outermost calls only) and self seconds."""
        selfs = self.self_times_ns()
        names = {span.id: span.name for span in self.spans}
        parents = {span.id: span.parent for span in self.spans}
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for span, self_ns in zip(self.spans, selfs):
            entry = totals[span.name]
            entry["calls"] += 1
            entry["self_s"] += self_ns / 1e9
            ancestor = span.parent
            while ancestor is not None and names[ancestor] != span.name:
                ancestor = parents[ancestor]
            if ancestor is None:  # a call nested in one of the same name is already counted
                entry["busy_s"] += (span.end_ns - span.start_ns) / 1e9
        return totals
