"""A threshold-triggered ring buffer of recent slow queries.

A run's finishing function (:func:`repro.sparql.exec.finish_run`, shared
by the evaluator and the federated plan executor) offers fields of the
run's :class:`~repro.sparql.exec.QueryRunEvent`, and the HTTP server
offers the request's query text, elapsed seconds and backend; entries
crossing the threshold are retained as plain dicts in a bounded ring,
newest last.  An entry is what it was offered (``query``, ``elapsed``,
``engine``, ``plan``) plus ``layer``, ``trace_id``, ``threshold`` and
``sequence``; the HTTP entry has ``plan`` None.
The default threshold comes from ``REPRO_SLOWLOG_SECONDS`` (read once at
construction); ``0`` captures everything, unset uses a serving-oriented
default of 0.75s.
"""

from __future__ import annotations

import os
import threading
from typing import Any

__all__ = ["SLOWLOG_ENV", "SlowQueryLog", "SLOW_LOG"]

#: Environment variable: slow-query threshold in (float) seconds.
SLOWLOG_ENV = "REPRO_SLOWLOG_SECONDS"

#: Threshold applied when the environment does not specify one.
_DEFAULT_THRESHOLD = 0.75


class SlowQueryLog:
    """Bounded ring of slow-query dicts, newest last."""

    def __init__(self, threshold: float | None = None, capacity: int = 32) -> None:
        if threshold is None:
            raw = os.environ.get(SLOWLOG_ENV)
            if raw:
                try:
                    threshold = float(raw)
                except ValueError:
                    threshold = _DEFAULT_THRESHOLD
            else:
                threshold = _DEFAULT_THRESHOLD
        self.threshold = float(threshold)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: list[dict[str, Any]] = []
        self._sequence = 0

    def record(
        self,
        run: dict[str, Any],
        layer: str,
        trace_id: str | None = None,
    ) -> dict[str, Any] | None:
        """Retain ``run`` if its ``elapsed`` crosses the threshold.

        ``run`` holds at least ``query``, ``elapsed``, ``engine`` and
        ``plan``.  Returns the retained entry, or None when the query was
        fast enough.
        """
        if run["elapsed"] < self.threshold:
            return None
        entry = dict(run, layer=layer, trace_id=trace_id, threshold=self.threshold)
        with self._lock:
            self._sequence += 1
            entry["sequence"] = self._sequence
            self._entries.append(entry)
            if len(self._entries) > self.capacity:
                del self._entries[: len(self._entries) - self.capacity]
        return entry

    def entries(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._entries)

    def as_dict(self) -> dict[str, Any]:
        entries = self.entries()
        return {
            "threshold": self.threshold,
            "capacity": self.capacity,
            "recorded": entries[-1]["sequence"] if entries else 0,
            "entries": entries,
        }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: The process-wide slow-query log.
SLOW_LOG = SlowQueryLog()
