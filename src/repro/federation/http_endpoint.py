"""Remote SPARQL endpoints over HTTP (the client half of the protocol).

:class:`HttpSparqlEndpoint` implements the :class:`SparqlEndpoint`
interface against a W3C SPARQL 1.1 Protocol service over plain sockets,
framing each message with :mod:`repro.http11`, the HTTP/1.1 codec the
server shares (``ssl`` is imported only when an ``https`` URL connects).
Transport and protocol failures are mapped onto the same exception
vocabulary :class:`LocalSparqlEndpoint` raises — :class:`EndpointUnavailable`
for refused connections, HTTP error statuses, broken framing and malformed
bodies, :class:`EndpointTimeout` for a request past its deadline — so
the federation layer's retry/backoff/circuit-breaker policies (PR 2)
apply to remote endpoints unchanged.

Each endpoint keeps a small pool of kept-alive connections, so a
federated sub-query costs one request on an open socket rather than a
connect, an accept and a server thread.  The pool never holds more
connections than the endpoint ever had requests in flight at once.

* Each request leaves in one ``sendall``.  After it the client sets
  ``TCP_QUICKACK``: a server that writes headers and body in two sends
  (this package's own, or any ``http.server``-based one) would otherwise
  hold the body behind the client's ~40 ms delayed ACK.  On a platform
  without the option every request says ``Connection: close`` and no
  connection is kept.
* A *reused* connection the server has closed in the meantime is reset
  or ends before a status line arrives; the request is then retried once
  on a fresh connection (query operations are safe to repeat).
* A request's timeout is a deadline for the whole exchange: before each
  raw read the time left becomes the socket's timeout, so a server that
  trickles its response cannot stretch the call past its budget.
* A connection that times out or fails mid-exchange is closed, never
  pooled, so a late answer cannot be read as the next request's.

The client speaks the protocol's POST binding by default
(``application/x-www-form-urlencoded`` with a ``query`` parameter, which
has no URL-length ceiling) and can be switched to the GET binding.  SELECT
and ASK responses are negotiated as SPARQL results JSON; CONSTRUCT
responses as Turtle.
"""

from __future__ import annotations

import io
import socket
import threading
import time
import urllib.parse

from .. import http11
from ..obs.trace import get_tracer
from ..rdf import Graph, URIRef
from ..sparql import AskResult, Query, ResultSet
from ..sparql.formats import (
    FormatError,
    GRAPH_MEDIA_TYPES,
    RESULT_MEDIA_TYPES,
    parse_results,
    read_graph,
)
from .endpoint import (
    EndpointError,
    EndpointStatistics,
    EndpointTimeout,
    EndpointUnavailable,
    SparqlEndpoint,
)

__all__ = ["HttpSparqlEndpoint"]

#: How much of an HTTP error body to quote in exception messages.
_ERROR_SNIPPET = 200

#: Connections are kept alive only where each response can be acked at once.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)

#: What a kept-alive connection closed by the server raises on reuse.
_STALE = (ConnectionResetError, BrokenPipeError)

_DEFAULT_PORTS = {"http": 80, "https": 443}


class _Connection(io.RawIOBase):
    """One client socket, read under the current request's deadline.

    ``reader`` buffers it for :func:`http11.read_response`.  Before each raw
    read, the time left until ``deadline`` becomes the socket's timeout, and
    a read with no time left raises :class:`TimeoutError`: a response that
    trickles in byte by byte cannot hold a call past its budget.
    """

    def __init__(self, sock: socket.socket) -> None:
        super().__init__()
        self.sock: socket.socket | None = sock
        #: ``time.monotonic()`` by which the current response must be read.
        self.deadline: float | None = None
        self.reader = io.BufferedReader(self)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self.deadline is not None:
            self.sock.settimeout(_remaining(self.deadline))
        return self.sock.recv_into(buffer)

    def close(self) -> None:
        if self.sock is not None:
            super().close()
            self.sock.close()
            self.sock = None


def _remaining(deadline: float) -> float:
    """Seconds left until ``deadline``; :class:`TimeoutError` when none are."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("the request's deadline passed")
    return remaining


class HttpSparqlEndpoint(SparqlEndpoint):
    """A SPARQL endpoint reached over HTTP.

    Parameters
    ----------
    uri:
        Identity of the endpoint (the value recorded in voiD profiles and
        used by the registry's policies/breakers).
    url:
        The HTTP URL queries are sent to; defaults to ``str(uri)`` when the
        identity already is the service URL.
    name:
        Human-readable label for logs and error messages.
    timeout:
        Deadline in seconds for each request, from connect to the last byte
        of the response (``None`` = none).  A call's own ``timeout`` (the
        federation layer's per-attempt budget) overrides it for that
        request.
    method:
        ``"post"`` (default) or ``"get"`` protocol binding.
    result_format:
        Results format requested for SELECT/ASK (``json`` or ``xml``).
    graph_format:
        RDF format requested for CONSTRUCT (``turtle`` or ``ntriples``).
    """

    def __init__(
        self,
        uri: URIRef | str,
        url: str | None = None,
        name: str | None = None,
        timeout: float | None = None,
        method: str = "post",
        result_format: str = "json",
        graph_format: str = "turtle",
    ) -> None:
        if method not in ("post", "get"):
            raise ValueError(f"method must be 'post' or 'get', not {method!r}")
        if result_format not in ("json", "xml"):
            raise ValueError(f"result_format must be 'json' or 'xml', not {result_format!r}")
        if graph_format not in GRAPH_MEDIA_TYPES:
            raise ValueError(f"unsupported graph_format: {graph_format!r}")
        self.uri = URIRef(str(uri))
        self.url = url if url is not None else str(uri)
        self.name = name or self.url
        self.timeout = timeout
        self.method = method
        self.result_format = result_format
        self.graph_format = graph_format
        self.statistics = EndpointStatistics()
        self._lock = threading.Lock()
        parts = urllib.parse.urlsplit(self.url)
        self._scheme = parts.scheme
        try:
            port = parts.port or _DEFAULT_PORTS.get(parts.scheme)
        except ValueError:  # a malformed port fails the first request, not construction
            port = None
        self._address = (parts.hostname, port)
        self._host = parts.netloc
        self._target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._tls = None  # the ssl context, made on the first https connect
        self._idle: list[_Connection] = []

    # ------------------------------------------------------------------ #
    # Query interface
    # ------------------------------------------------------------------ #
    def select(self, query: Query | str, timeout: float | None = None) -> ResultSet:
        body = self._request(
            query, RESULT_MEDIA_TYPES[self.result_format], "select_queries", timeout
        )
        result = self._parse_results(body)
        if not isinstance(result, ResultSet):
            raise EndpointError(f"endpoint {self.name} did not return SELECT results")
        return result

    def ask(self, query: Query | str, timeout: float | None = None) -> AskResult:
        body = self._request(
            query, RESULT_MEDIA_TYPES[self.result_format], "ask_queries", timeout
        )
        result = self._parse_results(body)
        if not isinstance(result, AskResult):
            raise EndpointError(f"endpoint {self.name} did not return an ASK result")
        return result

    def construct(self, query: Query | str) -> Graph:
        body = self._request(query, GRAPH_MEDIA_TYPES[self.graph_format], "construct_queries")
        try:
            return read_graph(body, format=self.graph_format)
        except Exception as exc:
            self._count_failure("injected_failures")
            raise EndpointError(
                f"endpoint {self.name} returned an unparseable RDF body: {exc}"
            ) from exc

    def close(self) -> None:
        """Close the idle kept-alive connections; a later request opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _request(
        self, query: Query | str, accept: str, kind: str, timeout: float | None = None
    ) -> str:
        query_text = query.serialize() if isinstance(query, Query) else str(query)
        budget = self.timeout if timeout is None else timeout
        with self._lock:
            setattr(self.statistics, kind, getattr(self.statistics, kind) + 1)
        target, data = self._encode(query_text)
        fields = [("Host", self._host), ("Accept", accept)]
        if data is not None:
            fields += [
                ("Content-Type", "application/x-www-form-urlencoded"),
                ("Content-Length", str(len(data))),
            ]
        if _QUICKACK is None:
            fields.append(("Connection", "close"))
        # The client span's own id rides the outbound traceparent header,
        # so the remote server's request span becomes its child and the
        # federated sub-query joins this trace across the socket.
        with get_tracer().start_span(
            "http.client.request",
            {"endpoint": self.name, "url": self.url, "layer": "client"},
        ) as span:
            traceparent = span.traceparent()
            if traceparent is not None:
                fields.append(("traceparent", traceparent))
            method = "GET" if data is None else "POST"
            request = http11.head(f"{method} {target} HTTP/1.1", fields) + (data or b"")
            try:
                status, payload = self._exchange(request, budget)
            except TimeoutError as exc:
                self._count_failure("transport_failures")
                raise EndpointTimeout(self._timeout_message(budget)) from exc
            except (OSError, http11.ProtocolError) as exc:
                self._count_failure("transport_failures")
                raise EndpointUnavailable(
                    f"endpoint {self.name} is unreachable: {exc}"
                ) from exc
            if span.recording:
                span.set_attribute("status", status)
            if not 200 <= status < 300:
                # The server answered, with an error status: the endpoint is
                # reachable but refused or failed the query.
                snippet = payload.decode("utf-8", errors="replace").strip()[:_ERROR_SNIPPET]
                self._count_failure("injected_failures")
                if status == 504:
                    raise EndpointTimeout(
                        f"endpoint {self.name} reported an upstream timeout (504): {snippet}"
                    )
                raise EndpointUnavailable(
                    f"endpoint {self.name} answered HTTP {status}: {snippet}"
                )
            body = payload.decode("utf-8")
            if span.recording:
                span.set_attribute("bytes", len(body))
        return body

    def _exchange(self, request: bytes, timeout: float | None) -> tuple[int, bytes]:
        """One request and its whole response on a pooled connection.

        ``timeout`` is this request's deadline, from connect to the last
        byte read (:class:`TimeoutError` once it passes); the connection
        goes back to the pool with the endpoint's own ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            idle = self._idle.pop() if self._idle else None
        connection = self._connect(deadline) if idle is None else idle
        try:
            try:
                status, payload, keep_alive = self._send(connection, request, deadline)
            except _STALE:
                if connection is not idle:
                    raise
                connection.close()
                connection = self._connect(deadline)
                status, payload, keep_alive = self._send(connection, request, deadline)
        except BaseException:
            connection.close()
            raise
        if not keep_alive or _QUICKACK is None:
            connection.close()
        else:
            if deadline is not None:
                connection.deadline = None
                connection.sock.settimeout(self.timeout)
            with self._lock:
                self._idle.append(connection)
        return status, payload

    @staticmethod
    def _send(connection: _Connection, request: bytes,
              deadline: float | None) -> tuple[int, bytes, bool]:
        """Send one request, ack what comes back at once, read the response."""
        if deadline is not None:
            connection.sock.settimeout(_remaining(deadline))
            connection.deadline = deadline
        connection.sock.sendall(request)
        if _QUICKACK is not None:
            connection.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        return http11.read_response(connection.reader)

    def _connect(self, deadline: float | None) -> _Connection:
        if self._scheme not in _DEFAULT_PORTS or None in self._address:
            raise http11.ProtocolError(f"unsupported URL {self.url!r}")
        timeout = None if deadline is None else _remaining(deadline)
        sock = socket.create_connection(self._address, timeout=timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._scheme == "https":
                if self._tls is None:
                    import ssl

                    self._tls = ssl.create_default_context()
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _timeout_message(self, budget: float | None) -> str:
        after = f" after {budget:g}s" if budget is not None else ""
        return f"endpoint {self.name} timed out{after}"

    def _encode(self, query_text: str) -> tuple[str, bytes | None]:
        """(request target, body) for the configured protocol binding."""
        encoded = urllib.parse.urlencode({"query": query_text})
        if self.method == "get":
            separator = "&" if "?" in self._target else "?"
            return f"{self._target}{separator}{encoded}", None
        return self._target, encoded.encode("utf-8")

    def _parse_results(self, body: str) -> ResultSet | AskResult:
        try:
            return parse_results(body, format=self.result_format)
        except FormatError as exc:
            self._count_failure("injected_failures")
            raise EndpointError(
                f"endpoint {self.name} returned a malformed result document: {exc}"
            ) from exc

    def _count_failure(self, kind: str) -> None:
        with self._lock:
            setattr(self.statistics, kind, getattr(self.statistics, kind) + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HttpSparqlEndpoint {self.name} ({self.method.upper()} {self.url})>"
