"""The JSONL export sink behind ``REPRO_RUN_EVENTS``.

Run events (:class:`repro.sparql.exec.QueryRunEvent`) and trace spans
(:class:`repro.obs.trace.Span`) are appended to the same JSONL file, one
JSON object per line.  Span lines are distinguished by ``"kind": "span"``;
run-event lines carry no ``kind`` key, which keeps the file format
backward-compatible with every existing ``REPRO_RUN_EVENTS`` consumer
(``benchmarks/compare.py --events`` skips span lines).

Two defects of the original ``maybe_emit_event`` are fixed here:

* concurrent federation threads appended lines without any locking, so a
  long line could interleave with another thread's write mid-record.  The
  sink serializes every emission behind one lock and issues exactly one
  ``write()`` call per line.
* ``os.environ`` was consulted on *every* event.  The sink caches the
  lookup; the cache is refreshed at well-defined configuration points
  (evaluator construction, server construction, tracer enablement) via
  :meth:`EventSink.refresh` instead of per event.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any

__all__ = ["RUN_EVENTS_ENV", "EventSink", "SINK"]

#: Environment variable: when set to a path, run events and trace spans
#: are appended there as JSON lines.
RUN_EVENTS_ENV = "REPRO_RUN_EVENTS"


class EventSink:
    """Serialized JSONL appender with a cached destination path.

    The destination is read from the environment once and cached;
    :meth:`refresh` re-reads it (called when an evaluator, server or
    tracer is configured — the points where a changed environment should
    become visible).  :meth:`configure` sets the path programmatically,
    bypassing the environment entirely.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._path: str | None = None
        self._known = False

    # ------------------------------------------------------------------ #
    # Destination management
    # ------------------------------------------------------------------ #
    def refresh(self) -> str | None:
        """Re-read the destination from the environment and cache it."""
        path = os.environ.get(RUN_EVENTS_ENV) or None
        with self._lock:
            self._path = path
            self._known = True
        return path

    def configure(self, path: str | None) -> None:
        """Set (or clear) the destination explicitly."""
        with self._lock:
            self._path = path
            self._known = True

    @property
    def path(self) -> str | None:
        """The cached destination (first access consults the environment)."""
        with self._lock:
            if self._known:
                return self._path
        return self.refresh()

    @property
    def enabled(self) -> bool:
        return self.path is not None

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #
    def emit(self, payload: dict[str, Any]) -> bool:
        """Append ``payload`` as one JSON line; returns whether it was written.

        The line is rendered outside the lock (JSON encoding is the
        expensive part) and written with a single ``write()`` call under
        the lock, so concurrent emitters cannot interleave records.
        """
        path = self.path
        if not path:
            return False
        line = json.dumps(payload, sort_keys=True) + "\n"
        with self._lock:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line)
        return True


#: The process-wide sink used by run-event emission and span export.
SINK = EventSink()
