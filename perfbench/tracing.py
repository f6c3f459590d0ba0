"""Timing spans recorded from outside the program.

The traced run wraps the public functions of each layer in a span kept
by :class:`Recorder`; nothing inside ``src/`` is changed.  A wrapped
name is replaced wherever a loaded ``repro`` module binds the same
object, so calls through a package re-export and calls from inside
another module (``reingest_pages`` calling ``ingest_pages``) are both
seen.  :meth:`Tracing.restore` puts every original back.

Span names are ``<layer>.<what>``; :func:`layer_report` turns a
finished recording into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from perfbench.measure import SpanRecord, self_times

#: Module-level functions wrapped: (module, attribute, span name).
FUNCTIONS = (
    ("repro.ingest.fetch", "fetch_crawl", "crawl.fetch"),
    ("repro.ingest.fingerprint", "profile_pages", "ingest.fingerprint"),
    ("repro.ingest.classify", "classify_profiles", "ingest.classify"),
    ("repro.ingest.cluster", "cluster_profiles", "ingest.cluster"),
    ("repro.ingest.bundle", "ingest_pages", "ingest.bundle"),
    ("repro.ingest.diff", "reingest_pages", "ingest.bundle"),
    ("repro.ingest.bundle", "write_bundles", "ingest.write"),
    ("repro.ingest.diff", "write_reingest", "ingest.write"),
    ("repro.extraction.extracts", "extract_strings", "extraction.extracts"),
    ("repro.store.ingest", "ingest_batch", "store.ingest"),
    ("repro.store.query", "query_store", "store.query"),
    ("repro.lifecycle", "invalidate_consumers", "lifecycle.invalidate"),
)

#: Methods wrapped: (module, class, method, span name).
METHODS = (
    ("repro.template.finder", "TemplateFinder", "find", "template.find"),
    ("repro.csp.segmenter", "CspSegmenter", "segment", "csp.segment"),
    (
        "repro.core.pipeline",
        "SegmentationPipeline",
        "segment_site",
        "core.segment_site",
    ),
    ("repro.runner.engine", "BatchRunner", "run", "runner.run"),
)

ROOT_SPAN = "path"


class Recorder:
    """In-memory span stack for one thread, plus named counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._rows: list[list[Any]] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self._rows)
        self._rows.append([name, self.clock(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self._rows[index][2] = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def spans(self) -> list[SpanRecord]:
        """Every span, in start order (call once all have ended)."""
        if self._stack:
            raise RuntimeError("spans are still open")
        return [SpanRecord(*row) for row in self._rows]


class Tracing:
    """Install span wrappers around every layer's public functions."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, Any]] = []

    def _traced(self, func: Callable, name: str) -> Callable:
        recorder = self.recorder

        @functools.wraps(func)
        def traced(*args, **kwargs):
            try:
                with recorder.span(name):
                    result = func(*args, **kwargs)
            except Exception:
                _count_result(recorder, name, None)
                raise
            _count_result(recorder, name, result)
            return result

        return traced

    def _set(self, owner: object, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> "Tracing":
        import importlib

        from repro.extraction.observations import ObservationTable
        from repro.webdoc.page import Page

        for module_name, attribute, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute)
            traced = self._traced(original, name)
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attribute) is original
                ):
                    self._set(module, attribute, traced)
        for module_name, class_name, method, name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._set(cls, method, self._traced(cls.__dict__[method], name))

        build = ObservationTable.__dict__["build"].__func__
        self._set(
            ObservationTable,
            "build",
            classmethod(self._traced(build, "extraction.observations")),
        )
        self._set(Page, "tokens", self._tokens(Page.__dict__["tokens"]))
        return self

    def _tokens(self, original: Callable) -> Callable:
        """Time tokenization only on a miss; a hit costs a field read."""
        recorder = self.recorder

        @functools.wraps(original)
        def tokens(page):
            if page._tokens is not None:
                return original(page)
            with recorder.span("webdoc.tokenize"):
                result = original(page)
            recorder.count("webdoc.tokens", len(result))
            return result

        return tokens

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def _count_result(recorder: Recorder, name: str, result: Any) -> None:
    """Book the counts a wrapped call's result carries (None: it raised)."""
    if name == "template.find":
        # A raised or failed verdict is the whole-page fallback.
        recorder.count("template.sites")
        if result is None or not result.ok:
            recorder.count("template.fallbacks")
    elif result is None:
        return
    elif name == "extraction.observations":
        recorder.count("extraction.observations", len(result.observations))
    elif name == "csp.segment":
        recorder.count("csp.pages")


def layer_report(recorder: Recorder) -> dict[str, float]:
    """Per-layer times from a recording with one :data:`ROOT_SPAN`.

    ``<span>_s`` keys are inclusive span totals (``store.query_s``
    also counts queries asked after the root span ends);
    ``ingest.bundle_s`` and ``core.self_s`` are self times (the layer's
    own code, not the layers it calls).  ``trace.unaccounted_s`` is the
    root span's self time: wall time spent outside every wrapped layer.
    ``trace.layers_s`` sums every other self time inside the root, so
    it plus the unaccounted part is exactly ``trace.wall_s``.
    """
    spans = recorder.spans()
    inside = _inside_root(spans)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    for span, self_s, timed in zip(spans, self_times(spans), inside):
        total[span.name] += span.duration
        if timed:
            self_total[span.name] += self_s
    report = {
        "crawl.fetch_s": total["crawl.fetch"],
        "ingest.fingerprint_s": total["ingest.fingerprint"],
        "ingest.classify_s": total["ingest.classify"],
        "ingest.cluster_s": total["ingest.cluster"],
        "ingest.bundle_s": self_total["ingest.bundle"],
        "ingest.write_s": total["ingest.write"],
        "webdoc.tokenize_s": total["webdoc.tokenize"],
        "template.find_s": total["template.find"],
        "extraction.extracts_s": total["extraction.extracts"],
        "extraction.observations_s": total["extraction.observations"],
        "csp.segment_s": total["csp.segment"],
        "core.segment_site_s": total["core.segment_site"],
        "core.self_s": self_total["core.segment_site"],
        "store.ingest_s": total["store.ingest"],
        "store.query_s": total["store.query"],
        "lifecycle.invalidate_s": total["lifecycle.invalidate"],
        "trace.wall_s": total[ROOT_SPAN],
        "trace.unaccounted_s": self_total[ROOT_SPAN],
        "trace.layers_s": sum(
            value for name, value in self_total.items() if name != ROOT_SPAN
        ),
    }
    for name in (
        "webdoc.tokens",
        "template.sites",
        "template.fallbacks",
        "extraction.observations",
        "csp.pages",
    ):
        report[name] = recorder.counts.get(name, 0)
    return report


def _inside_root(spans: list[SpanRecord]) -> list[bool]:
    """Which spans lie in the one :data:`ROOT_SPAN` subtree (itself too)."""
    roots = [i for i, span in enumerate(spans) if span.name == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN!r} span, got {len(roots)}")
    inside = []
    for i, span in enumerate(spans):
        inside.append(i == roots[0] or (span.parent is not None and inside[span.parent]))
    return inside


def layer_self_times(recorder: Recorder) -> dict[str, float]:
    """Self seconds per layer (first name segment) inside the root span.

    The root's own self time is reported as ``unaccounted``; the values
    add up to the root span's wall time.
    """
    spans = recorder.spans()
    by_layer: dict[str, float] = defaultdict(float)
    for span, self_s, timed in zip(spans, self_times(spans), _inside_root(spans)):
        if timed:
            layer = "unaccounted" if span.name == ROOT_SPAN else span.name.split(".")[0]
            by_layer[layer] += self_s
    return dict(sorted(by_layer.items()))
