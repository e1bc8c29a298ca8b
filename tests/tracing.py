"""A tracer that keeps the spans it finishes, for tests to read.

The product tracer exports finished spans to the ``REPRO_RUN_EVENTS`` sink
and keeps none; tests that inspect spans install this one instead.
"""

from __future__ import annotations

import threading

from repro.obs.trace import Span, Tracer


class RecordingTracer(Tracer):
    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled)
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    def _record(self, span: Span) -> None:
        super()._record(span)
        with self._lock:
            self._spans.append(span)

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)
