"""Tracing for the benchmark's traced run, installed from outside vgstore.

The tracer replaces vgstore functions and methods with wrappers. A span
wrapper records (name, start, end, parent span, operation id); a count
wrapper only bumps counters, because the calls it sees (version-set probes,
term serialization) are too frequent to keep a span each. Names are patched
in the module that calls them, so `vgstore.repo.parse_patch` counts the
patches a load parses and not the one `vg commit` reads from its input.

Spans stay in memory until `Tracer.write` runs at the end of the benchmark.
`layer_metrics` turns spans and counters into per-operation figures.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import vgstore.bench
import vgstore.cli
import vgstore.engine
import vgstore.ntriples
import vgstore.repo
from vgstore.store import AnnotatedStore
from vgstore.versionsets import ExtensionSet, IntervalSet

SETUP_OP = "setup"

# span name -> (owner, attribute) pairs that get the same wrapper
SPAN_TARGETS: dict[str, list[tuple[object, str]]] = {
    "cli.run": [(vgstore.cli, "run")],
    "sparql.parse_query": [(vgstore.cli, "parse_query")],
    "repo.load_repository": [(vgstore.cli, "load_repository"), (vgstore.repo, "load_repository")],
    "repo.parse_patch": [(vgstore.repo, "parse_patch")],
    "repo.save_repository": [(vgstore.cli, "save_repository"), (vgstore.bench, "save_repository")],
    "store.apply_commit": [(AnnotatedStore, "apply_commit")],
    "store.materialize": [(AnnotatedStore, "materialize")],
    "engine.eval_annotated": [(vgstore.cli, "eval_annotated"), (vgstore.engine, "eval_annotated")],
    "engine.eval_checkout": [(vgstore.engine, "eval_checkout")],
    "engine.format_results": [(vgstore.cli, "format_results"), (vgstore.engine, "format_results")],
}

# counter name -> (owner, attribute) pairs counted per call
COUNT_TARGETS: dict[str, list[tuple[object, str]]] = {
    "versionsets.contains.calls": [(ExtensionSet, "contains"), (IntervalSet, "contains")],
    "versionsets.insert.calls": [(ExtensionSet, "insert"), (IntervalSet, "insert")],
    "versionsets.from_iterable.calls": [
        (ExtensionSet, "from_iterable"), (IntervalSet, "from_iterable"),
    ],
    "ntriples.format_term.calls": [(vgstore.engine, "format_term"), (vgstore.ntriples, "format_term")],
    "repo.serialize_patch.calls": [(vgstore.repo, "serialize_patch")],
}

# span name -> (counter, function of the wrapped call's result)
RESULT_COUNTS = {
    "repo.parse_patch": ("repo.statements_parsed", lambda d: len(d.additions) + len(d.removals)),
    "engine.eval_annotated": ("engine.rows_out", lambda table: len(table.rows)),
}


class Tracer:
    """Spans and counters for one benchmark run; `op` tags new spans."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, object]] = []
        self.counts: Counter = Counter()
        self.op: object = SETUP_OP
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- installation ----------------------------------------------------

    def install_spans(self) -> None:
        for name, targets in SPAN_TARGETS.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))

    def install_counts(self) -> None:
        """Count wrappers; kept out of set-up so oracle timings stay clean."""
        for name, targets in COUNT_TARGETS.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._count_wrapper(name, original.__func__))
                else:
                    wrapped = self._count_wrapper(name, original)
                self._patch(owner, attr, wrapped)
        for cls in (ExtensionSet, IntervalSet):
            self._patch(cls, "intersect", self._intersect_wrapper(cls.intersect))
        self._patch(AnnotatedStore, "match", self._match_wrapper(AnnotatedStore.match))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    # --- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        result_count = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            op = self.op
            spans.append((name, 0.0, 0.0, parent, op))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if result_count is not None:
                counts[result_count[0]] += result_count[1](result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _intersect_wrapper(self, fn):
        counts = self.counts

        def wrapper(a, b):
            out = fn(a, b)
            counts["versionsets.intersect.calls"] += 1
            counts["versionsets.cardinality_carried"] += out.cardinality()
            return out

        return wrapper

    def _match_wrapper(self, fn):
        counts = self.counts

        def wrapper(store, s=None, p=None, o=None):
            counts["store.match.calls"] += 1
            for item in fn(store, s, p, o):
                counts["store.match.yielded"] += 1
                yield item

        return wrapper

    # --- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line with the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                f.write(json.dumps(record) + "\n")
            f.write(json.dumps({"counters": dict(self.counts)}) + "\n")


def _self_ms(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover, in ms.

    Spans come from one thread, so a span's children are disjoint intervals
    inside it.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            child[parent] += end - start
    return [(end - start - child[i]) * 1000.0 for i, (_n, start, end, _p, _o) in enumerate(spans)]


SELF_MS = (
    "repo.load_repository", "repo.parse_patch", "store.apply_commit", "store.materialize",
    "repo.save_repository", "engine.eval_annotated", "engine.format_results",
    "sparql.parse_query", "cli.run",
)
SPAN_CALLS = ("repo.parse_patch", "store.apply_commit", "store.materialize")
COUNTERS = (
    "repo.statements_parsed", "store.match.calls", "store.match.yielded",
    "versionsets.contains.calls", "versionsets.insert.calls",
    "versionsets.intersect.calls", "versionsets.from_iterable.calls",
    "versionsets.cardinality_carried", "repo.serialize_patch.calls",
    "repo.files_written", "repo.bytes_written", "engine.rows_out",
    "ntriples.format_term.calls",
)


def layer_metrics(tracer: Tracer, ops: int, oracle_qids, ops_per_s: float) -> dict[str, float]:
    """Per-layer figures: per timed operation, except the set-up oracle ones.

    Timed operations are the spans whose op tag is an int; set-up spans
    carry a string tag. `repo.files_written` and `repo.bytes_written` are
    counters the runner adds from directory snapshots.
    """
    self_ms = _self_ms(tracer.spans)
    sums: Counter = Counter()
    calls: Counter = Counter()
    total_ms: Counter = Counter()
    for i, (name, start, end, _parent, op) in enumerate(tracer.spans):
        if isinstance(op, int):
            sums[name] += self_ms[i]
            calls[name] += 1
        else:
            total_ms[(name, op)] += (end - start) * 1000.0
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = sums[name] / ops
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = calls[name] / ops
    for name in COUNTERS:
        out[name] = counts[name] / ops
    yielded = counts["store.match.yielded"]
    out["engine.rows_out_per_match"] = counts["engine.rows_out"] / yielded if yielded else 0.0
    checkout = annotated = 0.0
    for qid in oracle_qids:
        ms = total_ms[("engine.eval_checkout", f"oracle:{qid}")]
        out[f"engine.eval_checkout.ms.{qid}"] = ms
        checkout += ms
        annotated += total_ms[("engine.eval_annotated", f"check:{qid}:extension")]
    out["engine.checkout_over_annotated"] = checkout / annotated if annotated else 0.0
    out["trace.ops_per_s"] = ops_per_s
    return out


def metric_units(oracle_qids) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.self_ms": "ms" for name in SELF_MS}
    units.update({f"{name}.calls": "count" for name in SPAN_CALLS})
    units.update({name: "count" for name in COUNTERS})
    units["repo.bytes_written"] = "bytes"
    units["engine.rows_out_per_match"] = "ratio"
    units.update({f"engine.eval_checkout.ms.{qid}": "ms" for qid in oracle_qids})
    units["engine.checkout_over_annotated"] = "ratio"
    units["trace.ops_per_s"] = "1/s"
    return units
