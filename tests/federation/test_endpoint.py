"""Unit tests for the local SPARQL endpoint abstraction."""

import time

import pytest

from repro.federation import (
    EndpointError,
    EndpointTimeout,
    EndpointUnavailable,
    LocalSparqlEndpoint,
)
from repro.rdf import Graph, Literal, RDF, Triple, URIRef
from repro.sparql import ResultSet

EX = "http://ex.org/"


def uri(name: str) -> URIRef:
    return URIRef(EX + name)


@pytest.fixture()
def endpoint() -> LocalSparqlEndpoint:
    graph = Graph()
    graph.namespace_manager.bind("ex", EX)
    graph.add(Triple(uri("alice"), RDF.type, uri("Person")))
    graph.add(Triple(uri("alice"), uri("name"), Literal("Alice")))
    graph.add(Triple(uri("bob"), RDF.type, uri("Person")))
    return LocalSparqlEndpoint(uri("sparql"), graph, name="test-endpoint")


PREFIX = "PREFIX ex: <http://ex.org/>\n"


class TestQueries:
    def test_select(self, endpoint):
        result = endpoint.select(PREFIX + "SELECT ?p WHERE { ?p a ex:Person }")
        assert isinstance(result, ResultSet)
        assert len(result) == 2

    def test_ask(self, endpoint):
        assert bool(endpoint.ask(PREFIX + 'ASK { ex:alice ex:name "Alice" }'))
        assert not bool(endpoint.ask(PREFIX + 'ASK { ex:alice ex:name "Zoe" }'))

    def test_construct(self, endpoint):
        graph = endpoint.construct(PREFIX + "CONSTRUCT { ?p ex:label ?n } WHERE { ?p ex:name ?n }")
        assert len(graph) == 1

    def test_wrong_result_type_raises(self, endpoint):
        with pytest.raises(EndpointError):
            endpoint.select(PREFIX + "ASK { ?s ?p ?o }")
        with pytest.raises(EndpointError):
            endpoint.ask(PREFIX + "SELECT ?s WHERE { ?s ?p ?o }")

    def test_statistics_track_queries(self, endpoint):
        endpoint.select(PREFIX + "SELECT ?s WHERE { ?s ?p ?o }")
        endpoint.select(PREFIX + "SELECT ?s WHERE { ?s ?p ?o }")
        endpoint.ask(PREFIX + "ASK { ?s ?p ?o }")
        assert endpoint.statistics.select_queries == 2
        assert endpoint.statistics.ask_queries == 1
        assert endpoint.statistics.total_queries == 3

    def test_unavailable_endpoint_raises(self, endpoint):
        endpoint.available = False
        with pytest.raises(EndpointUnavailable):
            endpoint.select(PREFIX + "SELECT ?s WHERE { ?s ?p ?o }")

    def test_latency_beyond_the_call_timeout_waits_the_budget_and_times_out(self, endpoint):
        endpoint.latency = 1.0
        started = time.perf_counter()
        with pytest.raises(EndpointTimeout, match=r"timed out after 0\.05s$"):
            endpoint.select(PREFIX + "SELECT ?s WHERE { ?s ?p ?o }", timeout=0.05)
        assert time.perf_counter() - started < 0.5
        endpoint.latency = 0.01
        assert bool(endpoint.ask(PREFIX + 'ASK { ex:alice ex:name "Alice" }', timeout=1.0))

    def test_triple_count_follows_the_graph(self):
        graph = Graph()
        graph.add(Triple(uri("alice"), RDF.type, uri("Person")))
        endpoint = LocalSparqlEndpoint(uri("sparql"), graph)
        assert endpoint.triple_count() == 1
        graph.add(Triple(uri("carol"), RDF.type, uri("Person")))
        assert endpoint.triple_count() == 2

    def test_read_only_view(self, endpoint):
        view = endpoint.graph
        assert len(view) == endpoint.triple_count()
        assert not hasattr(view, "add")
