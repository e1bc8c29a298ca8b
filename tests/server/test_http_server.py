"""The SPARQL Protocol server: bindings, negotiation, errors, cache, health."""

import json
import socket
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.federation import (
    EndpointError,
    EndpointTimeout,
    EndpointUnavailable,
    LocalSparqlEndpoint,
)
from repro.rdf import URIRef
from repro.server import (
    BadQuery,
    EndpointBackend,
    FederationBackend,
    QueryBackend,
    RejectedQuery,
    SparqlHttpServer,
)
from repro.sparql import TermSerializationError
from repro.sparql.formats import parse_results
from repro.turtle import parse_graph

DATA = """
@prefix ex: <http://example.org/> .
ex:a ex:knows ex:b .
ex:b ex:knows ex:c .
ex:a ex:name "Alice" .
"""

SELECT = "SELECT ?s ?o WHERE { ?s <http://example.org/knows> ?o }"
ASK = "ASK { <http://example.org/a> <http://example.org/knows> <http://example.org/b> }"
CONSTRUCT = (
    "CONSTRUCT { ?s <http://example.org/linked> ?o } "
    "WHERE { ?s <http://example.org/knows> ?o }"
)


@pytest.fixture()
def endpoint():
    return LocalSparqlEndpoint(URIRef("http://example.org/dataset"), parse_graph(DATA))


@pytest.fixture()
def server(endpoint):
    with SparqlHttpServer(EndpointBackend(endpoint)) as running:
        yield running


def _get(server, query, accept=None, path="/sparql"):
    url = f"{server.url}{path}?" + urllib.parse.urlencode({"query": query})
    request = urllib.request.Request(url, headers={"Accept": accept} if accept else {})
    with urllib.request.urlopen(request) as response:
        return response.status, response.headers.get("Content-Type"), response.read().decode()


def _cache_info(server):
    """The response cache's counters, as the ``/metrics`` resource reports them."""
    with urllib.request.urlopen(server.url + "/metrics") as response:
        return json.loads(response.read())["server"]["cache"]


def _post(server, body, content_type, accept=None):
    headers = {"Content-Type": content_type}
    if accept:
        headers["Accept"] = accept
    request = urllib.request.Request(
        server.query_url, data=body.encode("utf-8"), headers=headers
    )
    with urllib.request.urlopen(request) as response:
        return response.status, response.headers.get("Content-Type"), response.read().decode()


def _status_of(callable_):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_()
    return excinfo.value.code


class TestQueryBindings:
    def test_get_binding_defaults_to_json(self, server):
        status, content_type, body = _get(server, SELECT)
        assert status == 200
        assert content_type.startswith("application/sparql-results+json")
        result = parse_results(body, "json")
        assert len(result) == 2

    def test_post_urlencoded(self, server):
        body = urllib.parse.urlencode({"query": SELECT})
        status, _, text = _post(server, body, "application/x-www-form-urlencoded")
        assert status == 200
        assert len(parse_results(text, "json")) == 2

    def test_post_raw_sparql_query(self, server):
        status, _, text = _post(server, SELECT, "application/sparql-query")
        assert status == 200
        assert len(parse_results(text, "json")) == 2

    def test_ask_query(self, server):
        status, _, body = _get(server, ASK)
        assert status == 200
        assert json.loads(body)["boolean"] is True

    def test_construct_returns_turtle(self, server):
        status, content_type, body = _get(server, CONSTRUCT)
        assert status == 200
        assert content_type.startswith("text/turtle")
        graph = parse_graph(body)
        assert len(graph) == 2

    def test_construct_ntriples_negotiation(self, server):
        status, content_type, body = _get(server, CONSTRUCT, accept="application/n-triples")
        assert status == 200
        assert content_type.startswith("application/n-triples")
        assert len(parse_graph(body, format="ntriples")) == 2

    def test_alternate_query_path(self, server):
        status, _, _ = _get(server, SELECT, path="/query")
        assert status == 200


class TestContentNegotiation:
    @pytest.mark.parametrize("accept,expected_type", [
        ("application/sparql-results+xml", "application/sparql-results+xml"),
        ("text/csv", "text/csv"),
        ("text/tab-separated-values", "text/tab-separated-values"),
        ("application/json", "application/sparql-results+json"),
        ("*/*", "application/sparql-results+json"),
    ])
    def test_select_formats(self, server, accept, expected_type):
        status, content_type, _ = _get(server, SELECT, accept=accept)
        assert status == 200
        assert content_type.startswith(expected_type)

    def test_quality_weights(self, server):
        accept = "text/csv;q=0.3, application/sparql-results+xml;q=0.9"
        _, content_type, _ = _get(server, SELECT, accept=accept)
        assert content_type.startswith("application/sparql-results+xml")

    def test_unacceptable_select(self, server):
        assert _status_of(lambda: _get(server, SELECT, accept="image/png")) == 406

    def test_ask_rejects_csv(self, server):
        assert _status_of(lambda: _get(server, ASK, accept="text/csv")) == 406


class TestProtocolErrors:
    def test_missing_query_parameter(self, server):
        code = _status_of(lambda: urllib.request.urlopen(server.query_url + "?other=1"))
        assert code == 400

    def test_malformed_query(self, server):
        assert _status_of(lambda: _get(server, "SELECT WHERE {")) == 400

    def test_unknown_path(self, server):
        code = _status_of(
            lambda: urllib.request.urlopen(server.url + "/nope?query=SELECT")
        )
        assert code == 404

    def test_unsupported_post_media_type(self, server):
        assert _status_of(lambda: _post(server, SELECT, "text/plain")) == 415

    def test_unavailable_endpoint_maps_to_503(self, endpoint, server):
        endpoint.available = False
        assert _status_of(lambda: _get(server, SELECT)) == 503

    def test_injected_flake_maps_to_503(self, endpoint, server):
        endpoint.fail_next(1)
        assert _status_of(lambda: _get(server, SELECT)) == 503
        status, _, _ = _get(server, SELECT)  # next attempt recovers
        assert status == 200

    @pytest.mark.parametrize("length", ["-1", "abc", "-5"])
    def test_malformed_content_length_answers_400_and_closes(self, server, length):
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(
                f"POST /sparql HTTP/1.1\r\nHost: {server.host}\r\n"
                "Content-Type: application/x-www-form-urlencoded\r\n"
                f"Content-Length: {length}\r\n\r\n".encode("ascii")
            )
            received = b""
            while chunk := sock.recv(4096):  # ends only when the server closes
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert body == b"invalid Content-Length\n"

    def test_backend_timeout_maps_to_504(self):
        class TimingOutBackend(QueryBackend):
            def execute(self, query_text):
                raise EndpointTimeout("upstream took too long")

        with SparqlHttpServer(TimingOutBackend()) as server:
            code = _status_of(
                lambda: urllib.request.urlopen(
                    server.query_url + "?" + urllib.parse.urlencode({"query": SELECT})
                )
            )
        assert code == 504


class TestObservability:
    def test_service_description(self, server):
        with urllib.request.urlopen(server.url + "/") as response:
            payload = json.loads(response.read())
        assert payload["query"] == "/sparql"
        assert "application/sparql-results+json" in payload["result_formats"]

    def test_health_reports_endpoint(self, server):
        with urllib.request.urlopen(server.url + "/health") as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert payload["endpoint"] == "http://example.org/dataset"
        assert payload["triples"] == 3

    def test_health_reflects_unavailability(self, endpoint, server):
        endpoint.available = False
        with urllib.request.urlopen(server.url + "/health") as response:
            payload = json.loads(response.read())
        assert payload["status"] == "unavailable"

    def test_metrics_counts_queries_and_statistics(self, endpoint, server):
        _get(server, SELECT)
        _get(server, ASK)
        with urllib.request.urlopen(server.url + "/metrics") as response:
            payload = json.loads(response.read())
        assert payload["server"]["queries"] == 2
        endpoint_stats = payload["endpoints"]["http://example.org/dataset"]
        assert endpoint_stats["select_queries"] == 1
        assert endpoint_stats["ask_queries"] == 1

    def test_metrics_json_includes_latency_and_slowlog(self, server):
        import time

        _get(server, SELECT)
        # The latency observation lands just after the response is sent.
        deadline = time.time() + 5.0
        while True:
            with urllib.request.urlopen(server.url + "/metrics") as response:
                payload = json.loads(response.read())
            if payload["latency"]["sparql"]["count"] or time.time() > deadline:
                break
            time.sleep(0.01)
        latency = payload["latency"]["sparql"]
        assert latency["count"] >= 1
        assert latency["p50"] is not None
        assert set(latency) == {"count", "p50", "p95", "p99"}
        assert {"threshold", "capacity", "recorded", "entries"} <= set(
            payload["slowlog"]
        )

    def test_slow_query_is_retained_with_its_text(self, server, monkeypatch):
        from repro.obs.slowlog import SLOW_LOG

        # Drop the threshold so even this trivial query counts as slow.
        monkeypatch.setattr(SLOW_LOG, "threshold", 0.0)
        SLOW_LOG.clear()
        try:
            _get(server, SELECT)
            with urllib.request.urlopen(server.url + "/metrics") as response:
                payload = json.loads(response.read())
            entries = payload["slowlog"]["entries"]
            assert any(
                entry["layer"] == "http" and entry["query"] == SELECT
                for entry in entries
            )
        finally:
            SLOW_LOG.clear()


class TestPrometheusExposition:
    def _scrape(self, server, accept=None, path="/metrics"):
        headers = {"Accept": accept} if accept else {}
        request = urllib.request.Request(server.url + path, headers=headers)
        with urllib.request.urlopen(request) as response:
            return response.headers.get("Content-Type"), response.read().decode()

    def test_json_stays_the_default(self, server):
        content_type, body = self._scrape(server)
        assert content_type.startswith("application/json")
        json.loads(body)

    def test_accept_text_plain_negotiates_prometheus(self, server):
        import time

        _get(server, SELECT)
        # The handler records its latency after the response bytes are out,
        # so the histogram may land an instant after _get returns.
        deadline = time.time() + 5.0
        while True:
            content_type, body = self._scrape(server, accept="text/plain")
            if "repro_http_request_seconds" in body or time.time() > deadline:
                break
            time.sleep(0.01)
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE repro_http_requests_total counter" in body
        assert "# TYPE repro_http_request_seconds histogram" in body
        assert 'repro_http_request_seconds_bucket{handler="sparql",le="+Inf"}' in body

    def test_format_parameter_negotiates_prometheus(self, server):
        _, body = self._scrape(server, path="/metrics?format=prometheus")
        assert "# TYPE repro_http_requests_total counter" in body

    def test_exposition_passes_the_format_checker(self, server):
        import importlib.util
        import sys
        from pathlib import Path

        _get(server, SELECT)
        _get(server, ASK)
        _, body = self._scrape(server, accept="text/plain")
        path = (Path(__file__).resolve().parents[2] / "tools"
                / "check_prom_format.py")
        spec = importlib.util.spec_from_file_location("check_prom_format", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules.setdefault("check_prom_format", module)
        spec.loader.exec_module(module)
        problems, types, samples = module.check(body)
        assert problems == []
        assert types["repro_http_requests_total"] == "counter"
        assert samples

    def test_counters_agree_between_json_and_prometheus(self, server):
        _get(server, SELECT)
        _, json_body = self._scrape(server)
        queries = json.loads(json_body)["server"]["queries"]
        _, prom_body = self._scrape(server, accept="text/plain")
        # The scrape above was itself a request, but not a query.
        assert f"repro_http_queries_total {queries}" in prom_body


class TestResponseCache:
    def test_repeated_query_hits_the_cache(self, endpoint, server):
        _get(server, SELECT)
        before = endpoint.statistics.select_queries
        status, _, _ = _get(server, SELECT)
        assert status == 200
        assert endpoint.statistics.select_queries == before  # served from cache
        assert _cache_info(server)["hits"] >= 1

    def test_different_formats_are_cached_separately(self, endpoint, server):
        _get(server, SELECT, accept="text/csv")
        before = endpoint.statistics.select_queries
        _get(server, SELECT, accept="application/sparql-results+xml")
        assert endpoint.statistics.select_queries == before + 1

    def test_cache_can_be_disabled(self, endpoint):
        with SparqlHttpServer(EndpointBackend(endpoint), cache_size=0) as server:
            _get(server, SELECT)
            before = endpoint.statistics.select_queries
            _get(server, SELECT)
            assert endpoint.statistics.select_queries == before + 1


class TestFederationBackendCacheInvalidation:
    def test_alignment_kb_edit_invalidates_cached_responses(self):
        from repro.datasets import build_resist_scenario
        from repro.alignment import OntologyAlignment

        scenario = build_resist_scenario(n_persons=8, n_papers=12, seed=5)
        backend = FederationBackend(
            scenario.service,
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
        )
        person = scenario.akt_person_uri(scenario.world.most_prolific_author())
        query = (
            "PREFIX akt:<http://www.aktors.org/ontology/portal#> "
            f"SELECT DISTINCT ?a WHERE {{ ?paper akt:has-author <{person}> . "
            "?paper akt:has-author ?a }"
        )
        with SparqlHttpServer(backend) as server:
            _get(server, query)
            generation = backend.generation
            hits_before = _cache_info(server)["hits"]
            _get(server, query)
            assert _cache_info(server)["hits"] == hits_before + 1

            # Editing the alignment KB bumps the store generation: the next
            # request must miss the cache and recompute.
            scenario.alignment_store.add(
                OntologyAlignment(
                    source_ontologies=[URIRef("http://example.org/ontology/src")],
                    target_ontologies=[URIRef("http://example.org/ontology/dst")],
                )
            )
            assert backend.generation != generation
            misses_before = _cache_info(server)["misses"]
            _get(server, query)
            assert _cache_info(server)["misses"] > misses_before


class TestReviewRegressions:
    def test_bare_endpoint_error_maps_to_502_not_dropped_connection(self):
        from repro.federation import EndpointError

        class GarblingBackend(QueryBackend):
            def execute(self, query_text):
                raise EndpointError("upstream returned an unparseable document")

        with SparqlHttpServer(GarblingBackend()) as server:
            code = _status_of(
                lambda: urllib.request.urlopen(
                    server.query_url + "?" + urllib.parse.urlencode({"query": SELECT})
                )
            )
        assert code == 502

    def test_unexpected_backend_bug_still_answers_500(self):
        class BuggyBackend(QueryBackend):
            def execute(self, query_text):
                raise RuntimeError("boom")

        with SparqlHttpServer(BuggyBackend()) as server:
            code = _status_of(
                lambda: urllib.request.urlopen(
                    server.query_url + "?" + urllib.parse.urlencode({"query": SELECT})
                )
            )
        assert code == 500

    def test_error_counter_counts_each_5xx_once(self, endpoint, server):
        endpoint.fail_next(1)
        assert _status_of(lambda: _get(server, SELECT)) == 503
        with urllib.request.urlopen(server.url + "/metrics") as response:
            payload = json.loads(response.read())
        assert payload["server"]["errors"] == 1

    def test_graph_mutation_invalidates_endpoint_backend_cache(self):
        from repro.rdf import Triple, URIRef as U

        graph = parse_graph(DATA)
        endpoint = LocalSparqlEndpoint(URIRef("http://example.org/dataset"), graph)
        with SparqlHttpServer(EndpointBackend(endpoint)) as server:
            first = json.loads(_get(server, SELECT)[2])
            assert len(first["results"]["bindings"]) == 2
            # The response is cached; a data change must not serve it stale.
            graph.add(Triple(
                U("http://example.org/c"), U("http://example.org/knows"),
                U("http://example.org/d"),
            ))
            second = json.loads(_get(server, SELECT)[2])
        assert len(second["results"]["bindings"]) == 3


class _RaisingBackend(QueryBackend):
    """Both query resources fail the same way."""

    def __init__(self, error: Exception) -> None:
        self.error = error

    def execute(self, query_text):
        raise self.error

    def analyze(self, query_text):
        raise self.error


BACKEND_ERRORS = [
    (RejectedQuery("rejected by analysis", []), 400, None),
    (BadQuery("malformed query"), 400, "malformed query"),
    (EndpointTimeout("upstream took too long"), 504, "upstream took too long"),
    (EndpointUnavailable("upstream is down"), 503, "upstream is down"),
    (EndpointError("unparseable upstream document"), 502, "unparseable upstream document"),
    (TermSerializationError("variable leaked into a result"), 500,
     "variable leaked into a result"),
    (RuntimeError("boom"), 500, "internal error: RuntimeError: boom"),
]


@pytest.mark.parametrize("path", ["/sparql", "/analyze"])
@pytest.mark.parametrize(
    "error, status, message", BACKEND_ERRORS,
    ids=[type(error).__name__ for error, _, _ in BACKEND_ERRORS],
)
def test_backend_errors_map_to_the_same_status_on_every_resource(path, error, status, message):
    with SparqlHttpServer(_RaisingBackend(error)) as server:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, SELECT, path=path)
        body = excinfo.value.read().decode()
    assert excinfo.value.code == status
    if message is None:  # strict mode ships its diagnostics as JSON
        assert json.loads(body) == {"error": "rejected by analysis", "diagnostics": []}
    else:
        assert body == message + "\n"


class TestAnalyzeRoute:
    """GET/POST /analyze: EXPLAIN ANALYZE over the wire."""

    def test_get_returns_event_report_and_rows(self, server):
        status, content_type, body = _get(server, SELECT, path="/analyze")
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["rows"] == 2
        assert payload["event"]["engine"] == "planner"
        assert payload["event"]["operators"]
        assert "EXPLAIN ANALYZE" in payload["report"]

    def test_post_urlencoded(self, server):
        body = urllib.parse.urlencode({"query": ASK}).encode()
        request = urllib.request.Request(
            server.url + "/analyze", data=body,
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        assert payload["boolean"] is True

    def test_construct_reports_triples(self, server):
        _, _, body = _get(server, CONSTRUCT, path="/analyze")
        payload = json.loads(body)
        assert payload["triples"] == 2

    def test_malformed_query_maps_to_400(self, server):
        assert _status_of(lambda: _get(server, "SELEKT", path="/analyze")) == 400

    def test_analyze_is_never_cached(self, endpoint, server):
        _get(server, SELECT, path="/analyze")
        before = endpoint.statistics.select_queries
        _get(server, SELECT, path="/analyze")
        # A second analyze must re-execute: timings are per-run.
        assert endpoint.statistics.select_queries == before + 1

    def test_service_document_advertises_analyze(self, server):
        with urllib.request.urlopen(server.url + "/") as response:
            payload = json.loads(response.read())
        assert payload["analyze"] == "/analyze"

    def test_federation_backend_analyze(self):
        from repro.datasets import build_resist_scenario

        scenario = build_resist_scenario(n_persons=8, n_papers=12, seed=5)
        backend = FederationBackend(
            scenario.service,
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
            strategy="decompose",
        )
        person = scenario.akt_person_uri(scenario.world.most_prolific_author())
        query = (
            "PREFIX akt:<http://www.aktors.org/ontology/portal#> "
            f"SELECT DISTINCT ?a WHERE {{ ?paper akt:has-author <{person}> . "
            "?paper akt:has-author ?a }"
        )
        with SparqlHttpServer(backend) as server:
            _, _, body = _get(server, query, path="/analyze")
        payload = json.loads(body)
        assert payload["event"]["engine"] == "decompose"
        assert payload["event"]["endpoints"]
        assert payload["rows"] >= 1


# --------------------------------------------------------------------------- #
# Strict mode: static analysis rejects bad queries with structured JSON
# --------------------------------------------------------------------------- #
class TestStrictMode:
    @pytest.fixture()
    def strict_server(self, endpoint):
        with SparqlHttpServer(EndpointBackend(endpoint, strict=True)) as running:
            yield running

    def test_error_diagnostics_reject_with_structured_json(self, strict_server):
        url = f"{strict_server.url}/sparql?" + urllib.parse.urlencode(
            {"query": "SELECT ?nope WHERE { ?s ?p ?o }"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url)
        response = excinfo.value
        assert response.status == 400
        assert response.headers.get("Content-Type", "").startswith("application/json")
        payload = json.loads(response.read().decode())
        assert payload["error"]
        [error] = [d for d in payload["diagnostics"] if d["severity"] == "error"]
        assert error["code"] == "SQA101"
        assert error["span"]["line"] == 1

    def test_warnings_do_not_reject(self, strict_server):
        status, content_type, body = _get(
            strict_server, "SELECT ?s WHERE { ?s ?p ?o FILTER(1 = 2) }",
            accept="application/sparql-results+json",
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["results"]["bindings"] == []
        codes = [d["code"] for d in payload["diagnostics"]]
        assert "SQA108" in codes

    def test_non_strict_server_answers_with_warning_field(self, server):
        status, _, body = _get(
            server, "SELECT ?s WHERE { ?s ?p ?o FILTER(1 = 2) }",
            accept="application/sparql-results+json",
        )
        assert status == 200
        payload = json.loads(body)
        assert any(d["code"] == "SQA108" for d in payload["diagnostics"])


# --------------------------------------------------------------------------- #
# The request path analyses a query once
# --------------------------------------------------------------------------- #
class TestAnalysisRunsOnce:
    WARNING = "SELECT ?s WHERE { ?s ?p ?o FILTER(1 = 2) }"

    @pytest.fixture()
    def analyses(self, monkeypatch):
        """Every ``analyze_query`` call made while the test runs."""
        from repro.sparql import analysis

        calls = []
        original = analysis.analyze_query

        def counting(query, graph=None):
            calls.append(graph is not None)
            return original(query, graph)

        monkeypatch.setattr(analysis, "analyze_query", counting)
        return calls

    def test_local_endpoint_is_analysed_by_its_evaluator_only(self, endpoint, analyses):
        result = EndpointBackend(endpoint).execute(self.WARNING)
        assert analyses == [True]  # once, against the graph
        assert "SQA108" in [d.code for d in result.diagnostics]

    def test_strict_mode_still_refuses_before_executing(self, endpoint, analyses):
        from repro.server import RejectedQuery

        with pytest.raises(RejectedQuery):
            EndpointBackend(endpoint, strict=True).execute("SELECT ?nope WHERE { ?s ?p ?o }")
        assert analyses == [False]
        assert endpoint.statistics.select_queries == 0

    def test_an_endpoint_that_evaluates_elsewhere_is_analysed_here(self, analyses):
        from repro.federation import SparqlEndpoint
        from repro.sparql import ResultSet

        class Remote(SparqlEndpoint):
            uri = URIRef("http://example.org/remote")

            def select(self, query):
                return ResultSet([], [])

        result = EndpointBackend(Remote()).execute(self.WARNING)
        assert analyses == [False]
        assert "SQA108" in [d.code for d in result.diagnostics]


# --------------------------------------------------------------------------- #
# Wire framing, driven over raw sockets
# --------------------------------------------------------------------------- #
def _exchange(server, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection; everything received until the server closes."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(data)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


def _responses(received: bytes) -> list[tuple[bytes, dict[str, str], bytes]]:
    """Split a byte stream into ``(status line, fields, body)`` by Content-Length."""
    responses = []
    while received:
        head, _, received = received.partition(b"\r\n\r\n")
        status, *lines = head.split(b"\r\n")
        fields = {
            name.decode().lower(): value.strip().decode()
            for name, _, value in (line.partition(b":") for line in lines)
        }
        length = int(fields.get("content-length", 0))
        responses.append((status, fields, received[:length]))
        received = received[length:]
    return responses


def _get_request(query: str, version: str = "HTTP/1.1", extra: str = "") -> bytes:
    target = "/sparql?" + urllib.parse.urlencode({"query": query})
    return f"GET {target} {version}\r\nHost: x\r\n{extra}\r\n".encode("ascii")


class TestWireFraming:
    def test_requests_are_kept_alive_on_one_socket(self, server):
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            reader = sock.makefile("rb")
            for query in (SELECT, ASK):
                sock.sendall(_get_request(query))
                assert reader.readline().startswith(b"HTTP/1.1 200 ")
                fields = {}
                while (line := reader.readline()) != b"\r\n":
                    name, _, value = line.partition(b":")
                    fields[name.decode().lower()] = value.strip().decode()
                assert "connection" not in fields
                assert json.loads(reader.read(int(fields["content-length"])))
            reader.close()

    def test_http_1_0_closes_after_one_response(self, server):
        [(status, fields, body)] = _responses(_exchange(server, _get_request(SELECT, "HTTP/1.0")))
        assert status.startswith(b"HTTP/1.1 200 ")
        assert fields["connection"] == "close"
        assert len(parse_results(body.decode(), "json")) == 2

    def test_http_1_0_keep_alive_is_echoed(self, server):
        request = _get_request(SELECT, "HTTP/1.0", "Connection: keep-alive\r\n")
        last = _get_request(ASK, "HTTP/1.0")
        [(_, first, _), (_, second, body)] = _responses(_exchange(server, request + last))
        assert first["connection"] == "keep-alive"
        assert second["connection"] == "close"
        assert json.loads(body)["boolean"] is True

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        body = urllib.parse.urlencode({"query": SELECT}).encode()
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(
                b"POST /sparql HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Content-Type: application/x-www-form-urlencoded\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body + _get_request(ASK).replace(b"Host: x", b"Connection: close"))
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        [(status, _, first), (_, _, second)] = _responses(received)
        assert status.startswith(b"HTTP/1.1 200 ")
        assert len(parse_results(first.decode(), "json")) == 2
        assert json.loads(second)["boolean"] is True

    def test_a_chunked_body_is_read_and_the_connection_stays_in_step(self, server):
        body = urllib.parse.urlencode({"query": SELECT}).encode()
        chunked = b"".join(
            b"%x\r\n%s\r\n" % (len(part), part) for part in (body[:29], body[29:])
        ) + b"0\r\nX-Trailer: ignored\r\n\r\n"
        request = (
            b"POST /sparql HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n\r\n" + chunked
        )
        last = _get_request(ASK, extra="Connection: close\r\n")
        responses = _responses(_exchange(server, request + last))
        assert [status.split(b" ")[1] for status, _, _ in responses] == [b"200", b"200"]
        assert len(parse_results(responses[0][2].decode(), "json")) == 2
        assert json.loads(responses[1][2])["boolean"] is True

    def test_a_chunked_body_over_the_cap_answers_413_and_closes(self, server):
        request = (
            b"POST /sparql HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"100001\r\n"
        )
        [(status, fields, body)] = _responses(_exchange(server, request))
        assert status.startswith(b"HTTP/1.1 413 ")
        assert fields["connection"] == "close"
        assert body == b"request body too large\n"

    @pytest.mark.parametrize("request_bytes,status", [
        # Lines one byte over the 64 KiB cap, and 101 fields; each request
        # stops where the server does, so no unread byte turns its close
        # into a reset.
        (b"GET /" + b"a" * 65521 + b" HTTP/1.1\r\n", b"414"),
        (b"GET / HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101, b"431"),
        (b"GET / HTTP/1.1\r\nX-Long: " + b"a" * 65527 + b"\r\n", b"431"),
        (b"GET / HTTP/1.1\r\nno colon here\r\n\r\n", b"400"),
        (b"GET / HTTP/1.1\r\n folded: value\r\n\r\n", b"400"),
        (b"GET /\r\n\r\n", b"400"),
        (b"PUT /sparql HTTP/1.1\r\nHost: x\r\n\r\n", b"501"),
        (b"GET /sparql HTTP/2.0\r\nHost: x\r\n\r\n", b"505"),
        (b"POST /sparql HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", b"501"),
    ], ids=["long-request-line", "101-fields", "long-field-line", "no-colon", "obs-fold",
            "two-words", "unknown-method", "http-2", "unknown-coding"])
    def test_framing_errors_answer_and_close(self, server, request_bytes, status):
        [(status_line, fields, body)] = _responses(_exchange(server, request_bytes))
        assert status_line.split(b" ")[:2] == [b"HTTP/1.1", status]
        assert fields["connection"] == "close"
        assert fields["content-type"] == "text/plain; charset=utf-8"
        assert body.endswith(b"\n")

    def test_a_post_to_an_unknown_path_closes_with_the_body_unread(self, server):
        request = b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc"
        [(status, fields, _)] = _responses(_exchange(server, request))
        assert status.startswith(b"HTTP/1.1 404 ")
        assert fields["connection"] == "close"

    def test_responses_carry_a_date(self, server):
        [(_, fields, _)] = _responses(_exchange(server, _get_request(ASK, "HTTP/1.0")))
        assert fields["date"].endswith(" GMT") and len(fields["date"]) == 29
        assert fields["server"] == "repro-sparql/0.2"


class TestLifecycle:
    def test_stopping_a_server_that_never_started_returns(self, endpoint):
        import threading

        server = SparqlHttpServer(EndpointBackend(endpoint))
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        with pytest.raises(OSError):
            socket.create_connection((server.host, server.port), timeout=1).close()
