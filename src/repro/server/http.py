"""W3C SPARQL 1.1 Protocol server on plain sockets.

:class:`SparqlHttpServer` publishes a :class:`QueryBackend` over real
sockets: ``socketserver.ThreadingTCPServer`` accepts connections, one
thread per connection, and the handler frames each message with
:mod:`repro.http11`, the HTTP/1.1 codec the sub-request client shares; no
runtime dependencies beyond the standard library.  The protocol surface:

* ``GET /sparql?query=…`` — the protocol's query-via-GET binding,
* ``POST /sparql`` — ``application/x-www-form-urlencoded`` (``query=``
  parameter) or a raw ``application/sparql-query`` body, sized by
  ``Content-Length`` or chunked, at most 1 MiB (413 beyond),
* content negotiation on ``Accept``: SELECT results as SPARQL JSON
  (default), XML, CSV or TSV; ASK as JSON/XML; CONSTRUCT as Turtle or
  N-Triples,
* ``GET``/``POST /analyze`` — EXPLAIN ANALYZE: executes the query and
  returns the structured run event (per-operator rows/batches/timings,
  endpoints contacted) as JSON, never cached,
* ``GET /health`` — backend health (circuit-breaker states for a
  federation backend),
* ``GET /metrics`` — per-endpoint :class:`EndpointStatistics` plus server
  counters (requests, errors, cache hits/misses) as JSON, or the
  Prometheus text exposition when the ``Accept`` header prefers
  ``text/plain`` (or ``?format=prometheus``),
* ``GET /`` — a small JSON service description.

Connections are kept alive (HTTP/1.1 by default, HTTP/1.0 on
``Connection: keep-alive``) until the client sends ``Connection: close``
or a response leaves a request body unread.  ``Expect: 100-continue`` is
answered just before the body is read.  Each response leaves as two
writes, the head and then the body.

Successful query responses are cached in an LRU keyed by
``(backend.generation, query text, format)``; the federation backend's
generation is ``AlignmentStore.generation``, so editing the alignment KB
invalidates every cached response whose rewrite could have changed.

Error mapping mirrors the client side: unusable requests → 400, an
unacceptable ``Accept`` → 406, unsupported media type → 415, backend
endpoint failures → 503, backend timeouts → 504.  Framing errors answer
400, an over-long request line 414, an over-long or oversized header
section 431, a method other than GET/POST 501 and an HTTP version other
than 1.0 or 1.1 505, and close the connection.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
import time
import urllib.parse
from collections import OrderedDict
from http import HTTPStatus

from .. import http11
from ..federation.endpoint import EndpointError, EndpointTimeout, EndpointUnavailable
from ..obs.export import SINK
from ..obs.metrics import REGISTRY, MetricsRegistry
from ..obs.slowlog import SLOW_LOG
from ..obs.trace import get_tracer
from ..rdf import Graph
from ..sparql import AskResult, ResultSet, TermSerializationError
from ..sparql.formats import (
    ASK_MEDIA_TYPES,
    GRAPH_MEDIA_TYPES,
    RESULT_MEDIA_TYPES,
    negotiate,
    negotiate_graph,
    write_graph,
    write_results,
)
from .backends import BadQuery, QueryBackend, RejectedQuery

__all__ = ["SparqlHttpServer", "ResponseCache"]

#: Upper bound for request bodies (1 MiB is generous for a SPARQL query).
_MAX_BODY_BYTES = 1 << 20

_SERVER = "repro-sparql/0.2"
_STATUS_LINES = {status.value: f"HTTP/1.1 {status.value} {status.phrase}" for status in HTTPStatus}
_METHODS = ("GET", "POST")


class ResponseCache:
    """Thread-safe LRU of rendered protocol responses.

    Keys embed the backend generation, so a generation bump makes every
    older entry unreachable; the LRU then ages those entries out.
    """

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = max(0, max_entries)
        self._entries: OrderedDict[tuple, tuple[str, bytes]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> tuple[str, bytes] | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, content_type: str, body: bytes) -> None:
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = (content_type, body)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}


def _call_backend(operation, query_text: str):
    """``operation(query_text)`` with the backend's exceptions mapped to
    HTTP statuses — the one mapping of every query resource."""
    try:
        return operation(query_text)
    except RejectedQuery as exc:
        raise _HttpError(
            400, str(exc),
            payload={"error": str(exc), "diagnostics": exc.to_json_list()},
        ) from exc
    except BadQuery as exc:
        raise _HttpError(400, str(exc)) from exc
    except EndpointTimeout as exc:
        raise _HttpError(504, str(exc)) from exc
    except EndpointUnavailable as exc:
        raise _HttpError(503, str(exc)) from exc
    except EndpointError as exc:
        # The backend reached its upstream but got garbage back
        # (e.g. a proxied endpoint returning a malformed document).
        raise _HttpError(502, str(exc)) from exc
    except TermSerializationError as exc:
        raise _HttpError(500, str(exc)) from exc
    except Exception as exc:  # noqa: BLE001
        # A server must answer even when the backend has a bug —
        # dropping the socket would surface as a transport failure on
        # the client and mis-train its circuit breaker.
        raise _HttpError(500, f"internal error: {type(exc).__name__}: {exc}") from exc


class _HttpError(Exception):
    """Internal: abort request handling with a protocol error response.

    ``payload`` switches the error body from plain text to JSON (used by
    strict mode to ship structured analyzer diagnostics with the 400).
    """

    def __init__(
        self, status: int, message: str, payload: dict[str, object] | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.payload = payload


class _SparqlHttpd(socketserver.ThreadingTCPServer):
    """Thread-per-connection TCP server carrying the shared server state.

    Each server instance owns a private :class:`MetricsRegistry`, so two
    loopback servers in one process (a federation test) keep independent
    request counters; process-wide metrics (the rewrite-cache counter) live
    in the global registry and are concatenated into the Prometheus
    exposition.

    It also tracks its open connections: a kept-alive connection keeps its
    handler thread serving after ``shutdown()``, so stopping the server
    has to close them too.
    """

    daemon_threads = True
    allow_reuse_address = True

    backend: QueryBackend
    cache: ResponseCache
    registry: MetricsRegistry
    quiet: bool

    def __init__(self, server_address, handler_class) -> None:
        self._connections = set()
        self._connections_lock = threading.Lock()
        self._date = (0, "")
        super().__init__(server_address, handler_class)

    def date(self) -> str:
        """The ``Date`` field value, formatted once per second."""
        second, value = self._date
        now = int(time.time())
        if now != second:
            value = http11.format_date(now)
            self._date = (now, value)
        return value

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection; each handler then sees end of input."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already gone

    def handle_error(self, request, client_address) -> None:
        # A client abandoning its socket mid-response (timeout, Ctrl-C) is
        # normal operation for a server, not a stack-trace-worthy bug.
        exc = sys.exception()
        if isinstance(exc, (ConnectionError, BrokenPipeError, TimeoutError)):
            return
        if not self.quiet:  # pragma: no cover - diagnostic path
            super().handle_error(request, client_address)


class _SparqlRequestHandler(socketserver.StreamRequestHandler):
    """One connection: read a request, answer it, repeat while it is kept alive."""

    server: _SparqlHttpd

    def handle(self) -> None:
        self.close_connection = False
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        """Read one request head and answer the request; may close the connection."""
        self.close_connection = True
        self._body_pending = False
        self.requestline = ""
        try:
            line = http11.read_line(self.rfile, 414)
            if not line:
                return  # the client closed the connection
            self.requestline = line.decode("latin-1").rstrip("\r\n")
            self._parse_request_line()
            self.headers = http11.read_fields(self.rfile)
        except http11.ProtocolError as error:
            self._send_error(_HttpError(error.status, str(error)))
            return
        tokens = self.headers.get("connection", "").lower()
        if self.request_version == "HTTP/1.1":
            self.close_connection = "close" in tokens
        else:
            self.close_connection = "keep-alive" not in tokens
        self._body_pending = (
            "transfer-encoding" in self.headers
            or (self.headers.get("content-length") or "0") != "0"
        )
        self._handle(self.command)

    def _parse_request_line(self) -> None:
        words = self.requestline.split()
        if len(words) != 3:
            raise http11.ProtocolError(f"bad request line {self.requestline[:40]!r}")
        self.command, self.path, self.request_version = words
        if not self.request_version.startswith("HTTP/"):
            raise http11.ProtocolError(f"bad request version {self.request_version[:40]!r}")
        if self.request_version not in ("HTTP/1.0", "HTTP/1.1"):
            raise http11.ProtocolError(f"unsupported version {self.request_version[:40]}", 505)
        if self.command not in _METHODS:
            raise http11.ProtocolError(f"unsupported method {self.command[:40]!r}", 501)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _handle(self, method: str) -> None:
        """Count, trace and time one request, then route it.

        The request span joins the caller's trace when the request carries
        a W3C ``traceparent`` header (a federated sub-query issued by
        :class:`~repro.federation.http_endpoint.HttpSparqlEndpoint`), and
        starts a fresh trace otherwise.
        """
        self._count("requests")
        parsed = urllib.parse.urlsplit(self.path)
        started = time.perf_counter()
        span = get_tracer().start_span(
            "http.server.request",
            {"method": method, "path": parsed.path, "layer": "http"},
            traceparent=self.headers.get("traceparent"),
        )
        with span:
            try:
                if method == "GET":
                    self._route_get(parsed)
                else:
                    self._route_post(parsed)
            except _HttpError as error:
                if span.recording:
                    span.set_attribute("status", error.status)
                self._send_error(error)
        if parsed.path in ("/sparql", "/query", "/analyze"):
            self.server.registry.histogram(
                "repro_http_request_seconds",
                "Query request latency in seconds by handler",
                labels=("handler",),
            ).observe(time.perf_counter() - started, handler=parsed.path.lstrip("/"))

    def _route_get(self, parsed: urllib.parse.SplitResult) -> None:
        if parsed.path in ("/sparql", "/query"):
            parameters = urllib.parse.parse_qs(parsed.query)
            queries = parameters.get("query")
            if not queries:
                raise _HttpError(400, "missing required 'query' parameter")
            self._answer_query(queries[0])
        elif parsed.path == "/analyze":
            parameters = urllib.parse.parse_qs(parsed.query)
            queries = parameters.get("query")
            if not queries:
                raise _HttpError(400, "missing required 'query' parameter")
            self._answer_analyze(queries[0])
        elif parsed.path == "/health":
            self._send_json(200, self._health_payload())
        elif parsed.path == "/metrics":
            self._answer_metrics()
        elif parsed.path == "/":
            self._send_json(200, self._service_payload())
        else:
            raise _HttpError(404, f"no such resource: {parsed.path}")

    def _route_post(self, parsed: urllib.parse.SplitResult) -> None:
        if parsed.path == "/analyze":
            self._answer_analyze(self._read_query_body())
        elif parsed.path in ("/sparql", "/query"):
            self._answer_query(self._read_query_body())
        else:
            raise _HttpError(404, f"no such resource: {parsed.path}")

    # ------------------------------------------------------------------ #
    # The protocol's query operation
    # ------------------------------------------------------------------ #
    def _read_query_body(self) -> str:
        body = self._read_body().decode("utf-8", errors="replace")
        content_type = (self.headers.get("content-type") or "").split(";")[0].strip().lower()
        if content_type in ("", "application/x-www-form-urlencoded"):
            parameters = urllib.parse.parse_qs(body)
            queries = parameters.get("query")
            if not queries:
                raise _HttpError(400, "missing required 'query' parameter")
            return queries[0]
        if content_type == "application/sparql-query":
            if not body.strip():
                raise _HttpError(400, "empty query body")
            return body
        raise _HttpError(415, f"unsupported request media type: {content_type}")

    def _read_body(self) -> bytes:
        """The request body, chunked or sized by ``Content-Length``.

        A body left unread would be parsed as the next request on a
        kept-alive connection, so a refusal here leaves ``_body_pending``
        set and the response closes the connection.
        """
        coding = self.headers.get("transfer-encoding")
        if coding is None:
            declared = self.headers.get("content-length") or "0"
            if not (declared.isascii() and declared.isdigit()):
                raise _HttpError(400, "invalid Content-Length")
            if int(declared) > _MAX_BODY_BYTES:
                raise _HttpError(413, "request body too large")
        elif coding.lower() != "chunked":
            raise _HttpError(501, f"unsupported Transfer-Encoding: {coding[:40]}")
        if (self.request_version == "HTTP/1.1"
                and self.headers.get("expect", "").lower() == "100-continue"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            if coding is None:
                body = http11.read_exactly(self.rfile, int(declared))
            else:
                body = http11.read_chunked(self.rfile, _MAX_BODY_BYTES)
        except http11.ProtocolError as error:
            raise _HttpError(error.status, str(error)) from error
        self._body_pending = False
        return body

    def _answer_query(self, query_text: str) -> None:
        backend = self.server.backend
        accept = self.headers.get("accept")
        generation = backend.generation
        self._count("queries")

        # A cached response is only reusable when the *rendered* document
        # would be identical, so the cache key needs the negotiated format.
        # Negotiation needs the result kind (SELECT and CONSTRUCT accept
        # different media types), which the already-rendered cache entry
        # remembers: probe every format family before executing.
        cached = self._cache_lookup(generation, query_text, accept)
        if cached is not None:
            content_type, body = cached
            self._send(200, content_type, body)
            return

        # 5xx responses are counted once, in _send_error.
        started = time.perf_counter()
        result = _call_backend(backend.execute, query_text)
        format_name, content_type, body = self._render(result, accept)
        elapsed = time.perf_counter() - started
        if elapsed >= SLOW_LOG.threshold:
            span = get_tracer().current_span()
            SLOW_LOG.record(
                {"query": query_text, "elapsed": elapsed,
                 "engine": backend.description, "plan": None},
                "http",
                span.trace_id if span is not None and span.recording else None,
            )
        self.server.cache.put((generation, query_text, format_name), content_type, body)
        self._send(200, content_type, body)

    def _answer_analyze(self, query_text: str) -> None:
        """EXPLAIN ANALYZE resource: executes, returns the run event as JSON.

        Never cached — the whole point is fresh per-operator timings.
        """
        backend = self.server.backend
        self._count("queries")
        result, event = _call_backend(backend.analyze, query_text)
        payload: dict[str, object] = {
            "event": event.to_json_dict(),
            "report": event.render(),
        }
        diagnostics = getattr(result, "diagnostics", None)
        if diagnostics:
            payload["diagnostics"] = [d.to_json_dict() for d in diagnostics]
        if isinstance(result, ResultSet):
            payload["rows"] = len(result)
        elif isinstance(result, AskResult):
            payload["boolean"] = bool(result)
        elif isinstance(result, Graph):
            payload["triples"] = len(result)
        self._send_json(200, payload)

    def _cache_lookup(
        self, generation: int, query_text: str, accept: str | None
    ) -> tuple[str, bytes] | None:
        for name in self._candidate_formats(accept):
            entry = self.server.cache.get((generation, query_text, name))
            if entry is not None:
                return entry
        return None

    @staticmethod
    def _candidate_formats(accept: str | None) -> tuple[str, ...]:
        """Formats this Accept header could negotiate to, most specific first."""
        candidates = []
        result_format = negotiate(accept)
        if result_format is not None:
            candidates.append(result_format)
        graph_format = negotiate_graph(accept)
        if graph_format is not None:
            candidates.append(graph_format)
        return tuple(candidates)

    def _render(self, result, accept: str | None) -> tuple[str, str, bytes]:
        """(format name, content type, encoded document) for a backend result."""
        if isinstance(result, Graph):
            format_name = negotiate_graph(accept)
            media_types = GRAPH_MEDIA_TYPES
            write = write_graph
        elif isinstance(result, AskResult):
            format_name = negotiate(accept, allowed=tuple(ASK_MEDIA_TYPES))
            media_types = ASK_MEDIA_TYPES
            write = write_results
        elif isinstance(result, ResultSet):
            format_name = negotiate(accept)
            media_types = RESULT_MEDIA_TYPES
            write = write_results
        else:
            raise _HttpError(
                500, f"backend produced an unservable result: {type(result).__name__}"
            )
        if format_name is None:
            raise _HttpError(406, self._not_acceptable(accept, media_types))
        return format_name, media_types[format_name], write(result, format_name).encode("utf-8")

    @staticmethod
    def _not_acceptable(accept: str | None, supported: dict[str, str]) -> str:
        return (
            f"no supported media type in Accept: {accept!r}; "
            f"supported: {', '.join(sorted(supported.values()))}"
        )

    # ------------------------------------------------------------------ #
    # Observability resources
    # ------------------------------------------------------------------ #
    def _health_payload(self) -> dict[str, object]:
        payload = self.server.backend.health()
        payload.setdefault("status", "ok")
        return payload

    def _answer_metrics(self) -> None:
        """``/metrics``: JSON by default, Prometheus text when asked.

        An ``Accept`` header preferring ``text/plain`` (what a Prometheus
        scraper sends) or a ``?format=prometheus`` query parameter selects
        the text exposition; everything else keeps the original JSON
        payload.
        """
        parsed = urllib.parse.urlsplit(self.path)
        parameters = urllib.parse.parse_qs(parsed.query)
        accept = self.headers.get("accept", "").lower()
        wants_text = (
            "prometheus" in parameters.get("format", [])
            or "text/plain" in accept
            or "openmetrics" in accept
        )
        if wants_text:
            body = self.server.registry.render_prometheus() + REGISTRY.render_prometheus()
            self._send(200, "text/plain; version=0.0.4", body.encode("utf-8"))
        else:
            self._send_json(200, self._metrics_payload())

    def _metrics_payload(self) -> dict[str, object]:
        """The backward-compatible JSON metrics document.

        Each constituent (registry counters, cache info, backend metrics)
        snapshots consistently under its own lock, and the payload carries
        the backend generation it was sampled at, so a reader can detect
        that the alignment KB changed between two scrapes instead of
        puzzling over counters that moved independently.
        """
        registry = self.server.registry
        counters = {
            key: int(self._counter(key).value())
            for key in ("requests", "queries", "errors")
        }
        latency = registry.histogram(
            "repro_http_request_seconds",
            "Query request latency in seconds by handler",
            labels=("handler",),
        )
        payload: dict[str, object] = {
            "server": {**counters, "cache": self.server.cache.info()},
            "endpoints": self.server.backend.metrics(),
            "generation": self.server.backend.generation,
            "latency": {
                "sparql": latency.snapshot(handler="sparql"),
                "analyze": latency.snapshot(handler="analyze"),
            },
            "slowlog": SLOW_LOG.as_dict(),
        }
        return payload

    def _service_payload(self) -> dict[str, object]:
        return {
            "service": "repro SPARQL Protocol server",
            "description": self.server.backend.description,
            "query": "/sparql",
            "analyze": "/analyze",
            "health": "/health",
            "metrics": "/metrics",
            "result_formats": sorted(set(RESULT_MEDIA_TYPES.values())),
            "graph_formats": sorted(set(GRAPH_MEDIA_TYPES.values())),
        }

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #
    def _send(self, status: int, content_type: str, body: bytes) -> None:
        """Write the head and then the body, in two writes."""
        if self._body_pending:
            self.close_connection = True
        fields = [
            ("Server", _SERVER),
            ("Date", self.server.date()),
            ("Content-Type", f"{content_type}; charset=utf-8"),
            ("Content-Length", str(len(body))),
        ]
        if self.close_connection:
            fields.append(("Connection", "close"))
        elif self.request_version == "HTTP/1.0":
            fields.append(("Connection", "keep-alive"))
        self.wfile.write(http11.head(_STATUS_LINES[status], fields))
        self.wfile.write(body)
        if not self.server.quiet:
            sys.stderr.write(f'{self.client_address[0]} - - [{self.server.date()}] '
                             f'"{self.requestline}" {status} {len(body)}\n')

    def _send_json(self, status: int, payload: dict[str, object]) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, "application/json", body)

    def _send_error(self, error: _HttpError) -> None:
        if error.status >= 500:
            self._count("errors")
        if error.payload is not None:
            content_type = "application/json"
            body = (json.dumps(error.payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
        else:
            content_type = "text/plain"
            body = (error.message + "\n").encode("utf-8")
        self._send(error.status, content_type, body)

    _COUNTER_HELP = {
        "requests": "HTTP requests received",
        "queries": "SPARQL protocol query operations",
        "errors": "Responses with status >= 500",
    }

    def _counter(self, key: str):
        return self.server.registry.counter(
            f"repro_http_{key}_total", self._COUNTER_HELP.get(key, key)
        )

    def _count(self, key: str) -> None:
        self._counter(key).inc()


class SparqlHttpServer:
    """Lifecycle wrapper: bind, serve in a background thread, stop.

    >>> server = SparqlHttpServer(EndpointBackend(endpoint)).start()
    >>> server.query_url
    'http://127.0.0.1:49152/sparql'
    >>> server.stop()

    ``port=0`` binds an ephemeral port (the default — loopback federation
    tests run many servers side by side).  Also usable as a context
    manager, and :meth:`serve_forever` blocks for CLI use.
    """

    def __init__(
        self,
        backend: QueryBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 128,
        quiet: bool = True,
    ) -> None:
        self.backend = backend
        self._httpd = _SparqlHttpd((host, port), _SparqlRequestHandler)
        self._httpd.backend = backend
        self._httpd.cache = ResponseCache(cache_size)
        self._httpd.registry = MetricsRegistry()
        self._httpd.quiet = quiet
        self._thread: threading.Thread | None = None
        self._serving = False
        # Server construction is a configuration point: pick up any change
        # to REPRO_RUN_EVENTS made since the last refresh.
        SINK.refresh()

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def query_url(self) -> str:
        """The SPARQL Protocol query resource."""
        return f"{self.url}/sparql"

    @property
    def cache(self) -> ResponseCache:
        return self._httpd.cache

    # ------------------------------------------------------------------ #
    def start(self) -> SparqlHttpServer:
        """Serve in a daemon thread; returns immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        # The short poll interval keeps stop() prompt (shutdown() blocks
        # until serve_forever notices the flag on its next poll).
        self._serving = True
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05),
            name=f"sparql-http-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (blocks; Ctrl-C to stop)."""
        self._serving = True
        self._httpd.serve_forever()

    def stop(self) -> None:
        """End the serving loop if one was started, close open connections,
        release the socket.

        ``shutdown()`` waits for a loop to acknowledge it, so on a server
        that never served it would wait forever.
        """
        if self._serving:
            self._serving = False
            self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> SparqlHttpServer:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SparqlHttpServer {self.url} ({self.backend.description})>"
