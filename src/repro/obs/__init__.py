"""Observability: tracing, metrics and the slow-query log.

This package is the cross-cutting instrumentation layer of the stack:

* :mod:`repro.obs.trace` — distributed tracing with W3C ``traceparent``
  propagation (spans join one trace across real HTTP sockets),
* :mod:`repro.obs.metrics` — a labeled Counter/Histogram registry
  with Prometheus text exposition,
* :mod:`repro.obs.slowlog` — a threshold-triggered ring buffer of recent
  slow queries with their plans,
* :mod:`repro.obs.export` — the serialized JSONL sink behind
  ``REPRO_RUN_EVENTS`` (run events and trace spans share one file).

One record describes a run: every executed plan, local
(:class:`~repro.sparql.exec.ExecPlan`) or federated (the mediator's plan
executor), ends in :func:`repro.sparql.exec.finish_run`, which builds
one :class:`~repro.sparql.exec.QueryRunEvent` only when something reads
it — the JSONL sink, the tracer, the slow log or an explicit ANALYZE —
and feeds all of them from that one object.

Everything here is stdlib-only and must stay importable from any layer
(core, federation, sparql, server) without introducing import cycles:
nothing in this package imports from the rest of :mod:`repro`.
"""

from .export import RUN_EVENTS_ENV, SINK, EventSink
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    rewrite_cache_counter,
)
from .slowlog import SLOW_LOG, SLOWLOG_ENV, SlowQueryLog
from .trace import (
    NOOP_SPAN,
    TRACE_ENV,
    Span,
    Tracer,
    format_traceparent,
    get_tracer,
    parse_traceparent,
)

__all__ = [
    "RUN_EVENTS_ENV",
    "SINK",
    "EventSink",
    "DEFAULT_LATENCY_BUCKETS",
    "REGISTRY",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "rewrite_cache_counter",
    "SLOW_LOG",
    "SLOWLOG_ENV",
    "SlowQueryLog",
    "NOOP_SPAN",
    "TRACE_ENV",
    "Span",
    "Tracer",
    "format_traceparent",
    "get_tracer",
    "parse_traceparent",
]
