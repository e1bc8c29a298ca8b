"""Distributed tracing with W3C ``traceparent`` propagation.

A :class:`Span` is one timed operation; spans form a tree under a shared
128-bit trace id.  The active span is carried in a :data:`contextvars.
ContextVar`, so nesting works across plain calls and — with
:func:`contextvars.copy_context` at submission points — across thread
pools.  Crossing a real socket is handled by the W3C Trace Context header:
``format_traceparent`` on the client, ``parse_traceparent`` on the server,
so a federated sub-query joins the caller's trace even though it travels
over HTTP.

Tracing is **off by default** and the disabled path is deliberately cheap:
``Tracer.start_span`` returns one shared no-op singleton without
allocating, and the batched executor is never touched at all — per-operator
spans are synthesized *after* execution from the run's one record, the
:class:`~repro.sparql.exec.QueryRunEvent` that
:func:`repro.sparql.exec.finish_run` builds from the operators'
:class:`~repro.sparql.exec.OpMetrics` timings (``add_operator_spans``), so
the hot loop carries zero tracing overhead in either mode.

Finished spans are kept in a bounded in-memory ring (for tests and the
slow-query log) and exported as JSONL via the ``REPRO_RUN_EVENTS`` sink
(``"kind": "span"`` lines), where ``repro trace`` renders them.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any

from .export import SINK

__all__ = [
    "TRACE_ENV",
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "get_tracer",
    "set_tracer",
    "parse_traceparent",
    "format_traceparent",
]

#: Environment variable: any non-empty value enables tracing at import.
TRACE_ENV = "REPRO_TRACE"

#: W3C Trace Context version rendered into outgoing headers.
_TRACEPARENT_VERSION = "00"

#: The active span of the current execution context.
_current_span: ContextVar[Span | None] = ContextVar("repro_current_span", default=None)


def _new_trace_id() -> str:
    """A 128-bit trace id as 32 lowercase hex characters."""
    return os.urandom(16).hex()


def _new_span_id() -> str:
    """A 64-bit span id as 16 lowercase hex characters."""
    return os.urandom(8).hex()


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a ``traceparent`` header.

    Accepts the W3C ``version-traceid-spanid-flags`` shape and rejects
    malformed values (wrong field widths, non-hex digits, the all-zero
    ids the spec declares invalid).
    """
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16 or len(flags) != 2:
        return None
    try:
        for part in parts:
            int(part, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render a W3C ``traceparent`` header value (sampled flag set)."""
    return f"{_TRACEPARENT_VERSION}-{trace_id}-{span_id}-01"


class Span:
    """One timed operation in a trace.

    Usable as a context manager (entering activates it in the current
    context; exiting ends it and restores the previous active span).
    Attribute/event mutation is single-writer by construction — a span is
    owned by the context that created it — so no lock is needed.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start", "end", "attributes", "events",
        "_tracer", "_token",
    )

    #: Real spans record; the no-op singleton advertises False so call
    #: sites can skip computing expensive attributes.
    recording = True

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attributes: dict[str, Any] | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.time()
        self.end: float | None = None
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.events: list[dict[str, Any]] = []
        self._token = None

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def set_attribute(self, key: str, value: Any) -> Span:
        self.attributes[key] = value
        return self

    def add_event(self, name: str, **attributes: Any) -> Span:
        """Record a point-in-time event (retry, breaker transition, error)."""
        event: dict[str, Any] = {"name": name, "time": time.time()}
        if attributes:
            event.update(attributes)
        self.events.append(event)
        return self

    def traceparent(self) -> str:
        """The ``traceparent`` header identifying *this* span as parent."""
        return format_traceparent(self.trace_id, self.span_id)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def finish(self) -> None:
        """End the span (idempotent) and hand it to the tracer."""
        if self.end is not None:
            return
        self.end = time.time()
        self._tracer._record(self)

    def __enter__(self) -> Span:
        self._token = _current_span.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.add_event("exception", type=exc_type.__name__, message=str(exc))
        self.finish()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "kind": "span",
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": self.attributes,
            "events": self.events,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name} {self.trace_id[:8]}…/{self.span_id}>"


class _NoopSpan:
    """The shared disabled-mode span: every operation is a cheap no-op.

    A single module-level instance is returned for every ``start_span``
    call while tracing is disabled, so the disabled path allocates
    nothing per call.
    """

    __slots__ = ()

    recording = False
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    attributes: dict[str, Any] = {}
    events: list[dict[str, Any]] = []
    duration = 0.0

    def set_attribute(self, key: str, value: Any) -> _NoopSpan:
        return self

    def add_event(self, name: str, **attributes: Any) -> _NoopSpan:
        return self

    def traceparent(self) -> None:
        return None

    def finish(self) -> None:
        return None

    def __enter__(self) -> _NoopSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The singleton returned by ``start_span`` while tracing is disabled.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates spans, tracks the active one, keeps a ring of finished ones."""

    def __init__(self, enabled: bool = False, capacity: int = 1024) -> None:
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=capacity)
        self.enabled = enabled

    # ------------------------------------------------------------------ #
    # Enablement
    # ------------------------------------------------------------------ #
    def enable(self) -> Tracer:
        """Turn tracing on (also refreshes the JSONL export destination)."""
        SINK.refresh()
        self.enabled = True
        return self

    def disable(self) -> Tracer:
        self.enabled = False
        return self

    # ------------------------------------------------------------------ #
    # Span creation
    # ------------------------------------------------------------------ #
    def start_span(
        self,
        name: str,
        attributes: dict[str, Any] | None = None,
        traceparent: str | None = None,
    ) -> Span | _NoopSpan:
        """A new span under the current one (or a remote ``traceparent``).

        An explicit ``traceparent`` (an incoming HTTP header) wins over the
        context: the new span joins the remote caller's trace.  With no
        parent anywhere a fresh 128-bit trace id is minted.
        """
        if not self.enabled:
            return NOOP_SPAN
        remote = parse_traceparent(traceparent)
        if remote is not None:
            trace_id, parent_id = remote
        else:
            parent = _current_span.get()
            if parent is not None and parent.recording:
                trace_id, parent_id = parent.trace_id, parent.span_id
            else:
                trace_id, parent_id = _new_trace_id(), None
        return Span(self, name, trace_id, _new_span_id(), parent_id, attributes)

    def current_span(self) -> Span | None:
        return _current_span.get()

    def current_traceparent(self) -> str | None:
        """The header to inject into an outbound request (None when off)."""
        if not self.enabled:
            return None
        span = _current_span.get()
        if span is None or not span.recording:
            return None
        return span.traceparent()

    # ------------------------------------------------------------------ #
    # Post-hoc operator spans (the exec layer's timing hooks)
    # ------------------------------------------------------------------ #
    def add_operator_spans(self, event: Any, elapsed: float) -> Span | _NoopSpan:
        """Synthesize per-operator spans from a run's event.

        ``event`` is a :class:`~repro.sparql.exec.QueryRunEvent`.  The
        batched executor's hot loop is never instrumented directly; its
        :class:`~repro.sparql.exec.OpMetrics` counters carry per-operator
        inclusive wall time into ``event.operators``, and this method
        converts them into a span subtree after the fact — a root
        ``exec.query`` span of duration ``elapsed`` with one child span per
        operator, nested by the operators' recorded depth.  Span start
        times are anchored backwards from "now", so durations are exact
        while offsets are approximate.
        """
        if not self.enabled:
            return NOOP_SPAN
        now = time.time()
        root = self.start_span("exec.query", {"engine": event.engine, "layer": "exec"})
        assert isinstance(root, Span)
        root.start = now - elapsed
        stack: list[tuple[int, Span]] = [(-1, root)]
        for entry in event.operators:
            depth = entry["depth"]
            while stack[-1][0] >= depth:
                stack.pop()
            span = Span(
                self,
                entry["span"],
                root.trace_id,
                _new_span_id(),
                stack[-1][1].span_id,
                {
                    "operator": entry["operator"],
                    "rows_in": entry["rows_in"],
                    "rows_out": entry["rows_out"],
                    "batches": entry["batches"],
                    "layer": "exec",
                },
            )
            span.start = now - entry["seconds"]
            span.end = now
            self._record(span)
            stack.append((depth, span))
        root.set_attribute("rows", event.rows)
        root.finish()
        return root

    # ------------------------------------------------------------------ #
    # Finished spans
    # ------------------------------------------------------------------ #
    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)
        SINK.emit(span.to_json_dict())

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()


#: The process-wide tracer (enable with REPRO_TRACE=1 or ``enable()``).
_TRACER = Tracer(enabled=bool(os.environ.get(TRACE_ENV)))


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process tracer (tests); returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous
