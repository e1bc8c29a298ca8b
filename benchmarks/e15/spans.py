"""Spans recorded from outside the program, at the boundaries it exposes.

The traced topology wraps three object boundaries with delegating classes:

* :class:`TracedBackend` around every :class:`QueryBackend` (the front
  backend and each dataset backend),
* :class:`TracedEndpoint` around every :class:`HttpSparqlEndpoint` the
  mediator calls,
* :class:`TracedStore` around the :class:`Store` under every served graph.

Each records into one shared :class:`SpanRecorder`, in memory; nothing is
written until the run ends.  The wrappers keep references to the query and
result objects they saw, so the pure-function layers that cannot be wrapped
(parse, analysis, rewrite, serialise, plan, render) can be replayed on the
exact inputs afterwards.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from time import perf_counter

from repro.federation.endpoint import SparqlEndpoint
from repro.rdf import Store
from repro.server import QueryBackend

__all__ = ["Span", "SpanRecorder", "TracedBackend", "TracedEndpoint", "TracedStore"]


class Span:
    """One recorded call: who, when, on which thread, and what it saw."""

    __slots__ = ("kind", "label", "thread", "start", "end", "query", "result",
                 "op", "failed", "store_calls", "store_s", "store_ids", "io")

    def __init__(self, kind: str, label: str, query, op: str = "") -> None:
        self.kind = kind
        self.label = label
        self.thread = threading.get_ident()
        self.query = query
        self.op = op
        self.result = None
        self.failed = False
        self.store_calls = 0
        self.store_s = 0.0
        self.store_ids = 0
        self.io: dict[str, int] | None = None
        self.end = 0.0
        self.start = perf_counter()


class SpanRecorder:
    """In-memory span sink shared by the wrappers of one topology.

    ``list.append`` is atomic under the interpreter lock, so handler
    threads append without further synchronisation.  The backend span a
    thread is currently inside is kept per thread, which is how store
    calls find the (sub-)query they belong to.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self._current = threading.local()

    def open_backend_span(self, span: Span) -> None:
        self._current.span = span

    def close_backend_span(self) -> None:
        self._current.span = None

    def current_backend_span(self) -> Span | None:
        return getattr(self._current, "span", None)


class TracedBackend(QueryBackend):
    """A :class:`QueryBackend` whose ``execute`` calls are recorded."""

    def __init__(self, inner: QueryBackend, recorder: SpanRecorder, label: str,
                 io_counters=None) -> None:
        self.inner = inner
        self.recorder = recorder
        self.label = label
        #: ``SegmentStore.io`` of the served store, read before and after
        #: each call (exact while one request is in flight at a time).
        self._io = io_counters

    @property
    def description(self) -> str:  # type: ignore[override]
        return self.inner.description

    @property
    def strict(self) -> bool:  # type: ignore[override]
        return self.inner.strict

    @property
    def generation(self) -> int:
        return self.inner.generation

    def health(self):
        return self.inner.health()

    def metrics(self):
        return self.inner.metrics()

    def analyze(self, query_text: str):
        return self.inner.analyze(query_text)

    def execute(self, query_text: str):
        recorder = self.recorder
        if not recorder.recording:
            return self.inner.execute(query_text)
        span = Span("backend", self.label, query_text)
        before = self._io.as_dict() if self._io is not None else None
        recorder.open_backend_span(span)
        try:
            span.result = self.inner.execute(query_text)
            return span.result
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = perf_counter()
            recorder.close_backend_span()
            if before is not None:
                after = self._io.as_dict()
                span.io = {key: after[key] - before[key] for key in after}
            recorder.spans.append(span)


class TracedEndpoint(SparqlEndpoint):
    """A :class:`SparqlEndpoint` whose SELECT and ASK calls are recorded."""

    def __init__(self, inner: SparqlEndpoint, recorder: SpanRecorder, label: str) -> None:
        self.inner = inner
        self.recorder = recorder
        self.label = label
        self.uri = inner.uri

    def __getattr__(self, name: str):
        # ``statistics``, ``name`` and the like: whatever the federation
        # layer reads off an endpoint by ``getattr``.
        return getattr(self.inner, name)

    def _call(self, op: str, query):
        recorder = self.recorder
        operation = getattr(self.inner, op)
        if not recorder.recording:
            return operation(query)
        span = Span("endpoint", self.label, query, op)
        try:
            span.result = operation(query)
            return span.result
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = perf_counter()
            recorder.spans.append(span)

    def select(self, query):
        return self._call("select", query)

    def ask(self, query):
        return self._call("ask", query)

    def construct(self, query):
        return self.inner.construct(query)


class TracedStore(Store):
    """A :class:`Store` that times its two read operations.

    ``triples_ids`` is timed per ``next()``: only the time spent inside the
    store's iterator counts, not the executor's work between two pulls.
    Totals are added to the backend span the calling thread is inside.
    """

    def __init__(self, inner: Store, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder

    @property
    def dictionary(self):
        return self.inner.dictionary

    @property
    def stats(self):
        return self.inner.stats

    @property
    def version(self) -> int:
        return self.inner.version

    def __len__(self) -> int:
        return len(self.inner)

    def add(self, s, p, o) -> bool:
        return self.inner.add(s, p, o)

    def discard(self, s, p, o) -> bool:
        return self.inner.discard(s, p, o)

    def clear(self) -> None:
        self.inner.clear()

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()

    def triples_ids(self, s: int = 0, p: int = 0, o: int = 0) -> Iterator[tuple[int, int, int]]:
        span = self.recorder.current_backend_span() if self.recorder.recording else None
        if span is None:
            yield from self.inner.triples_ids(s, p, o)
            return
        inside = 0.0
        yielded = 0
        iterator = self.inner.triples_ids(s, p, o)
        try:
            while True:
                started = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    inside += perf_counter() - started
                    return
                inside += perf_counter() - started
                yielded += 1
                yield item
        finally:
            span.store_calls += 1
            span.store_s += inside
            span.store_ids += yielded

    def cardinality(self, s=None, p=None, o=None) -> int:
        span = self.recorder.current_backend_span() if self.recorder.recording else None
        if span is None:
            return self.inner.cardinality(s, p, o)
        started = perf_counter()
        try:
            return self.inner.cardinality(s, p, o)
        finally:
            span.store_s += perf_counter() - started
            span.store_calls += 1
