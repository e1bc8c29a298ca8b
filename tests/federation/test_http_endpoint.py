"""HttpSparqlEndpoint: protocol bindings, failure mapping, connection pool,
policy integration."""

import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.federation import (
    EndpointError,
    EndpointTimeout,
    EndpointUnavailable,
    HttpSparqlEndpoint,
    LocalSparqlEndpoint,
)
from repro.rdf import URIRef
from repro.server import EndpointBackend, SparqlHttpServer
from repro.turtle import parse_graph

DATA = """
@prefix ex: <http://example.org/> .
ex:a ex:knows ex:b .
ex:b ex:knows ex:c .
"""

SELECT = "SELECT ?s ?o WHERE { ?s <http://example.org/knows> ?o }"
ASK = "ASK { <http://example.org/a> <http://example.org/knows> <http://example.org/b> }"
CONSTRUCT = (
    "CONSTRUCT { ?o <http://example.org/knownBy> ?s } "
    "WHERE { ?s <http://example.org/knows> ?o }"
)


@pytest.fixture()
def local():
    return LocalSparqlEndpoint(URIRef("http://example.org/dataset"), parse_graph(DATA))


@pytest.fixture()
def server(local):
    with SparqlHttpServer(EndpointBackend(local)) as running:
        yield running


@pytest.fixture()
def connect(server):
    """Builds clients of ``server``; each one is closed after the test."""
    made = []

    def build(**options) -> HttpSparqlEndpoint:
        made.append(HttpSparqlEndpoint(URIRef(server.query_url), **{"timeout": 5, **options}))
        return made[-1]

    yield build
    for endpoint in made:
        endpoint.close()


@pytest.fixture()
def remote(connect):
    return connect()


def _dead_url() -> str:
    # Bind-then-close guarantees a dead port.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}/sparql"


#: Connections are pooled only where the client can ack each response at once.
keeps_alive = pytest.mark.skipif(
    not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK: every request closes"
)


class TestQueryForms:
    def test_select_matches_local(self, local, remote):
        over_http = remote.select(SELECT)
        in_process = local.select(SELECT)
        assert over_http.variables == in_process.variables
        assert over_http.bindings == in_process.bindings

    def test_ask(self, remote):
        assert bool(remote.ask(ASK)) is True

    def test_construct_matches_local(self, local, remote):
        assert set(remote.construct(CONSTRUCT)) == set(local.construct(CONSTRUCT))

    def test_get_binding(self, connect, local):
        remote = connect(method="get")
        assert remote.select(SELECT).bindings == local.select(SELECT).bindings

    def test_xml_result_format(self, connect, local):
        remote = connect(result_format="xml")
        assert remote.select(SELECT).bindings == local.select(SELECT).bindings

    def test_statistics_count_queries(self, remote):
        remote.select(SELECT)
        remote.ask(ASK)
        remote.construct(CONSTRUCT)
        assert remote.statistics.select_queries == 1
        assert remote.statistics.ask_queries == 1
        assert remote.statistics.construct_queries == 1
        assert remote.statistics.total_queries == 3

    def test_wrong_result_kind_raises(self, remote):
        with pytest.raises(EndpointError):
            remote.select(ASK)


class TestFailureMapping:
    def test_http_error_status_maps_to_unavailable(self, local, remote):
        local.fail_next(1)
        with pytest.raises(EndpointUnavailable) as excinfo:
            remote.select(SELECT)
        assert "HTTP 503" in str(excinfo.value)
        assert remote.statistics.injected_failures == 1

    def test_bad_query_maps_to_unavailable_with_status(self, remote):
        with pytest.raises(EndpointUnavailable) as excinfo:
            remote.select("SELECT WHERE {")
        assert "HTTP 400" in str(excinfo.value)

    def test_connection_refused_maps_to_unavailable(self):
        dead = HttpSparqlEndpoint(URIRef(_dead_url()), timeout=2)
        with pytest.raises(EndpointUnavailable):
            dead.select(SELECT)
        assert dead.statistics.transport_failures == 1

    def test_slow_endpoint_maps_to_timeout(self, local, connect):
        local.latency = 1.0
        impatient = connect(timeout=0.1)
        with pytest.raises(EndpointTimeout):
            impatient.select(SELECT)
        assert impatient.statistics.transport_failures == 1


class TestConnectionPool:
    """Kept-alive connections: reuse, stale retry, discard on failure."""

    def test_after_a_timeout_the_next_select_gets_its_own_answer(self, local, connect):
        local.latency = 1.0
        impatient = connect(timeout=0.2)
        with pytest.raises(EndpointTimeout):
            impatient.select(SELECT)
        local.latency = 0.0
        # A different query: the first one's late answer would not match it.
        own = "SELECT ?o WHERE { <http://example.org/a> <http://example.org/knows> ?o }"
        result = impatient.select(own)
        assert [str(v) for v in result.variables] == ["o"]
        assert [str(row["o"]) for row in result.bindings] == ["http://example.org/b"]
        assert impatient.statistics.transport_failures == 1

    @keeps_alive
    def test_a_restarted_server_costs_no_failure(self, local):
        first = SparqlHttpServer(EndpointBackend(local)).start()
        remote = HttpSparqlEndpoint(URIRef(first.query_url), timeout=5)
        try:
            assert len(remote.select(SELECT)) == 2
            [stale] = remote._idle
        finally:
            first.stop()
        with SparqlHttpServer(EndpointBackend(local), port=first.port):
            assert len(remote.select(SELECT)) == 2
            [fresh] = remote._idle
        assert fresh is not stale
        assert remote.statistics.transport_failures == 0
        remote.close()

    @keeps_alive
    def test_a_stopped_server_is_unavailable_after_one_fresh_attempt(self, local):
        server = SparqlHttpServer(EndpointBackend(local)).start()
        remote = HttpSparqlEndpoint(URIRef(server.query_url), timeout=5)
        remote.select(SELECT)
        server.stop()
        opened = self._count_connects(remote)
        with pytest.raises(EndpointUnavailable):
            remote.select(SELECT)
        assert len(opened) == 1
        assert remote._idle == []
        assert remote.statistics.transport_failures == 1

    def test_a_refused_fresh_connection_is_not_retried(self):
        dead = HttpSparqlEndpoint(URIRef(_dead_url()), timeout=2)
        opened = self._count_connects(dead)
        with pytest.raises(EndpointUnavailable):
            dead.select(SELECT)
        assert len(opened) == 1
        assert dead._idle == []
        assert dead.statistics.transport_failures == 1

    @keeps_alive
    def test_error_statuses_leave_the_connection_reusable(self, local, remote):
        remote.select(SELECT)
        [connection] = remote._idle
        local.fail_next(1)
        with pytest.raises(EndpointUnavailable, match="HTTP 503"):
            remote.select(SELECT + " LIMIT 5")  # not in the server's response cache
        with pytest.raises(EndpointUnavailable, match="HTTP 400"):
            remote.select("SELECT WHERE {")
        assert len(remote.select(SELECT)) == 2
        assert len(remote._idle) == 1 and remote._idle[0] is connection

    @keeps_alive
    def test_concurrent_selects_get_their_own_answers_from_a_bounded_pool(self, remote):
        threads, rounds = 8, 20
        start = threading.Barrier(threads, timeout=30)

        def worker(thread: int) -> list[str]:
            start.wait()
            answers = []
            for i in range(rounds):
                result = remote.select(f'SELECT ?n WHERE {{ VALUES ?n {{ "t{thread}-{i}" }} }}')
                answers.extend(str(row["n"]) for row in result.bindings)
            return answers

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(threads) as pool:
                answers = list(pool.map(worker, range(threads), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert answers == [[f"t{t}-{i}" for i in range(rounds)] for t in range(threads)]
        assert 1 <= len(remote._idle) <= threads

    @keeps_alive
    def test_close_empties_the_pool(self, remote):
        remote.select(SELECT)
        [connection] = remote._idle
        remote.close()
        assert remote._idle == []
        assert connection.sock is None
        assert len(remote.select(SELECT)) == 2  # a later request reconnects

    @staticmethod
    def _count_connects(endpoint: HttpSparqlEndpoint) -> list:
        opened = []
        connect = endpoint._connect

        def counting(timeout):
            opened.append(True)
            return connect(timeout)

        endpoint._connect = counting
        return opened


class TestCallTimeout:
    """A call's ``timeout`` bounds that request on the caller's thread."""

    OWN = "SELECT ?o WHERE { <http://example.org/a> <http://example.org/knows> ?o }"

    @keeps_alive
    def test_a_policy_timeout_fails_fast_without_starting_a_thread(self, local, connect):
        from repro import MediatorService
        from repro.alignment import AlignmentStore
        from repro.coreference import SameAsService
        from repro.federation import DatasetRegistry, ExecutionPolicy, RegisteredDataset
        from repro.federation.void import DatasetDescription
        from repro.sparql import parse_query

        remote = connect()  # the endpoint's own timeout is 5 s
        target = RegisteredDataset(
            DatasetDescription(uri=remote.uri, endpoint_uri=remote.uri), remote
        )
        registry = DatasetRegistry([target], default_policy=ExecutionPolicy(timeout=0.1))
        engine = MediatorService(AlignmentStore(), registry, SameAsService()).federation
        remote.select(SELECT)  # the server's thread for the pooled connection is up
        threads = threading.active_count()
        local.latency = 1.0
        started = time.perf_counter()
        result, attempts, error = engine.call_endpoint(target, parse_query(SELECT))
        elapsed = time.perf_counter() - started
        assert (result, attempts) == (None, 1)
        # The endpoint's socket fired, naming the budget that fired, not its 5 s.
        assert error == f"endpoint {remote.name} timed out after 0.1s"
        assert remote.statistics.transport_failures == 1
        assert elapsed < 0.5
        assert threading.active_count() <= threads

        # The next untimed call gets its own answer on a connection whose
        # timeout is the endpoint's own again.
        local.latency = 0.0
        own = remote.select(self.OWN)
        assert [str(row["o"]) for row in own.bindings] == ["http://example.org/b"]
        assert [connection.sock.gettimeout() for connection in remote._idle] == [5]

    @keeps_alive
    def test_a_timed_call_returns_its_connection_with_the_endpoint_timeout(self, remote):
        assert len(remote.select(SELECT, timeout=0.5)) == 2
        assert bool(remote.ask(ASK, timeout=0.5)) is True
        assert [connection.sock.gettimeout() for connection in remote._idle] == [5]

    def test_a_fresh_connection_takes_the_call_timeout(self, local, connect):
        local.latency = 1.0
        remote = connect()
        with pytest.raises(EndpointTimeout, match=r"timed out after 0\.1s$"):
            remote.select(SELECT, timeout=0.1)
        assert remote._idle == []

    def test_a_trickled_response_times_out_at_the_deadline(self):
        # 115 bytes, one every 50 ms: each read arrives well inside 0.1 s,
        # so only a deadline over the whole response stops the call.
        answer = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(ASK_TRUE), ASK_TRUE)
        )
        assert len(answer) == 115
        stub = _StubServer([answer], trickle=0.05)
        remote = HttpSparqlEndpoint(URIRef(stub.url()), timeout=30)
        started = time.perf_counter()
        try:
            with pytest.raises(EndpointTimeout, match=r"timed out after 0\.1s$"):
                remote.ask(ASK, timeout=0.1)
            elapsed = time.perf_counter() - started
        finally:
            remote.close()
            stub.close()
        assert elapsed < 0.5
        assert remote._idle == []
        assert remote.statistics.transport_failures == 1


class TestPolicyIntegration:
    """PR 2's retry/breaker machinery must drive remote endpoints unchanged."""

    def test_retries_recover_from_injected_failures(self, local, remote):
        from repro.federation import DatasetRegistry, ExecutionPolicy, RegisteredDataset
        from repro.federation.void import DatasetDescription

        dataset_uri = URIRef("http://example.org/dataset")
        registry = DatasetRegistry(
            [RegisteredDataset(
                DatasetDescription(uri=dataset_uri, endpoint_uri=remote.uri),
                remote,
            )],
            default_policy=ExecutionPolicy(max_retries=2, backoff=0.0),
        )
        local.fail_next(2)
        breaker = registry.breaker_for(dataset_uri)
        policy = registry.policy_for(dataset_uri)

        result = None
        for attempt in range(policy.max_attempts):
            if not breaker.allow():
                break
            try:
                result = remote.select(SELECT)
                breaker.record_success()
                break
            except EndpointUnavailable:
                breaker.record_failure()
        assert result is not None and len(result) == 2
        assert breaker.state == "closed"

    def test_repeated_remote_failures_trip_the_breaker(self, local, remote):
        from repro.federation import CircuitBreaker

        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=60)
        local.fail_next(10)
        for _ in range(3):
            assert breaker.allow()
            with pytest.raises(EndpointUnavailable):
                remote.select(SELECT)
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()


class _StubServer:
    """Answers each request on one accepted connection with canned bytes.

    ``answers`` holds one byte string per request; after the last one the
    connection closes.  ``requests`` collects the request heads received.
    With ``trickle`` seconds, each answer leaves one byte at a time, that
    long apart, until the client hangs up.
    """

    def __init__(self, answers: list[bytes], trickle: float = 0.0) -> None:
        self.answers = answers
        self.trickle = trickle
        self.requests: list[bytes] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        connection, _ = self._listener.accept()
        with connection, connection.makefile("rb") as reader:
            for answer in self.answers:
                head = b""
                while (line := reader.readline()) not in (b"\r\n", b""):
                    head += line
                self.requests.append(head)
                length = [int(line.split(b":")[1]) for line in head.split(b"\r\n")
                          if line.lower().startswith(b"content-length:")]
                reader.read(length[0] if length else 0)
                if not self.trickle:
                    connection.sendall(answer)
                    continue
                for index in range(len(answer)):
                    time.sleep(self.trickle)
                    try:
                        connection.sendall(answer[index:index + 1])
                    except OSError:
                        return

    def url(self, scheme: str = "http") -> str:
        return f"{scheme}://127.0.0.1:{self.port}/sparql"

    def close(self) -> None:
        self._thread.join(timeout=5)
        self._listener.close()


ASK_TRUE = b'{"head": {}, "boolean": true}'


class TestResponseFraming:
    """The client's half of the codec, against a server that frames its own way."""

    @keeps_alive
    def test_chunked_and_interim_responses(self):
        chunked = (
            b"HTTP/1.1 100 Continue\r\n\r\n"
            b"HTTP/1.1 102 Processing\r\nX-Interim: 1\r\n\r\n"
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Type: application/sparql-results+json\r\n\r\n"
            + b"".join(b"%x;ext=1\r\n%s\r\n" % (len(part), part)
                       for part in (ASK_TRUE[:10], ASK_TRUE[10:]))
            + b"0\r\nX-Trailer: t\r\n\r\n"
        )
        sized = (
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(ASK_TRUE), ASK_TRUE)
        )
        stub = _StubServer([chunked, sized])
        remote = HttpSparqlEndpoint(URIRef(stub.url()), timeout=5)
        try:
            assert bool(remote.ask(ASK)) is True
            [connection] = remote._idle
            assert bool(remote.ask(ASK)) is True  # the same socket, still in step
            assert remote._idle == [connection]
        finally:
            remote.close()
            stub.close()
        assert len(stub.requests) == 2
        assert stub.requests[0].startswith(b"POST /sparql HTTP/1.1\r\n")
        assert b"Host: 127.0.0.1:%d\r\n" % stub.port in stub.requests[0]

    def test_a_body_read_to_the_end_of_the_stream_is_not_pooled(self):
        stub = _StubServer([b"HTTP/1.0 200 OK\r\n\r\n" + ASK_TRUE])
        remote = HttpSparqlEndpoint(URIRef(stub.url()), timeout=5)
        try:
            assert bool(remote.ask(ASK)) is True
            assert remote._idle == []
        finally:
            stub.close()

    def test_a_truncated_body_is_unavailable_and_never_pooled(self):
        stub = _StubServer([b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + ASK_TRUE])
        remote = HttpSparqlEndpoint(URIRef(stub.url()), timeout=5)
        opened = TestConnectionPool._count_connects(remote)
        try:
            with pytest.raises(EndpointUnavailable, match="body ended after"):
                remote.ask(ASK)
        finally:
            stub.close()
        assert len(opened) == 1
        assert remote._idle == []
        assert remote.statistics.transport_failures == 1

    def test_a_garbled_status_line_is_unavailable(self):
        stub = _StubServer([b"SPARQL/1.0 200 OK\r\n\r\n"])
        remote = HttpSparqlEndpoint(URIRef(stub.url()), timeout=5)
        try:
            with pytest.raises(EndpointUnavailable, match="bad status line"):
                remote.ask(ASK)
        finally:
            stub.close()
        assert remote._idle == []

    def test_https_to_a_plain_server_fails_in_the_tls_handshake(self):
        import ssl

        listener = socket.create_server(("127.0.0.1", 0))

        def plain_server() -> None:
            connection, _ = listener.accept()
            with connection:
                connection.recv(65536)  # the ClientHello, read as a request
                connection.sendall(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n")

        thread = threading.Thread(target=plain_server, daemon=True)
        thread.start()
        port = listener.getsockname()[1]
        remote = HttpSparqlEndpoint(URIRef(f"https://127.0.0.1:{port}/sparql"), timeout=5)
        try:
            with pytest.raises(EndpointUnavailable) as excinfo:
                remote.ask(ASK)
        finally:
            thread.join(timeout=5)
            listener.close()
        assert isinstance(excinfo.value.__cause__, ssl.SSLError)
        assert remote._idle == []
        assert remote.statistics.transport_failures == 1

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1/sparql", "http://127.0.0.1:port/sparql"])
    def test_an_unusable_url_is_unavailable(self, url):
        remote = HttpSparqlEndpoint(URIRef(url), timeout=5)
        with pytest.raises(EndpointUnavailable):
            remote.ask(ASK)
