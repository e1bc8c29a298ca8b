"""Unit tests for the dataset registry."""

import pytest

from repro.federation import (
    DatasetDescription,
    DatasetRegistry,
    LocalSparqlEndpoint,
    RegisteredDataset,
)
from repro.rdf import Graph, RDF, URIRef, VOID

KISTI_ONT = URIRef("http://www.kisti.re.kr/isrl/ResearchRefOntology#")
AKT_ONT = URIRef("http://www.aktors.org/ontology/portal#")


def make_dataset(name: str, ontology: URIRef) -> RegisteredDataset:
    description = DatasetDescription(
        uri=URIRef(f"http://{name}.org/void"),
        endpoint_uri=URIRef(f"http://{name}.org/sparql"),
        ontologies=(ontology,),
        uri_pattern=rf"http://{name}\.org/id/\S*",
        title=name,
    )
    endpoint = LocalSparqlEndpoint(description.endpoint_uri, Graph(), name=name)
    return RegisteredDataset(description, endpoint)


@pytest.fixture()
def registry() -> DatasetRegistry:
    registry = DatasetRegistry()
    registry.register(make_dataset("kisti", KISTI_ONT))
    registry.register(make_dataset("rkb", AKT_ONT))
    return registry


class TestRegistry:
    def test_membership_and_lookup(self, registry):
        uri = URIRef("http://kisti.org/void")
        assert uri in registry
        assert registry.get(uri).description.title == "kisti"

    def test_unknown_dataset_raises(self, registry):
        with pytest.raises(KeyError):
            registry.get(URIRef("http://unknown.org/void"))

    def test_iteration_sorted_by_uri(self, registry):
        uris = [str(d.uri) for d in registry]
        assert uris == sorted(uris)

    def test_register_endpoint_convenience(self):
        registry = DatasetRegistry()
        description = DatasetDescription(
            uri=URIRef("http://new.org/void"),
            endpoint_uri=URIRef("http://new.org/sparql"),
        )
        registered = registry.register_endpoint(
            description, LocalSparqlEndpoint(description.endpoint_uri, Graph())
        )
        assert registered.uri in registry
        assert len(registry) == 1

    def test_void_graph_describes_every_dataset(self, registry):
        graph = registry.void_graph()
        datasets = list(graph.subjects(RDF.type, VOID.Dataset))
        assert len(datasets) == 2

    def test_replacing_registration(self, registry):
        replacement = make_dataset("kisti", AKT_ONT)
        registry.register(replacement)
        assert len(registry) == 2
        assert registry.get(URIRef("http://kisti.org/void")).ontologies == (AKT_ONT,)

    def test_accessors(self, registry):
        dataset = registry.get(URIRef("http://kisti.org/void"))
        assert dataset.uri_pattern == r"http://kisti\.org/id/\S*"
        assert dataset.ontologies == (KISTI_ONT,)


class TestEndpointHealth:
    """health() carries statistics while staying string-comparable."""

    def test_health_values_compare_as_state_strings(self, registry):
        report = registry.health()
        for value in report.values():
            assert value == "closed"
            assert str(value) == "closed"

    def test_health_exposes_endpoint_statistics(self, registry):
        uri = URIRef("http://kisti.org/void")
        endpoint = registry.get(uri).endpoint
        endpoint.select("SELECT ?s WHERE { ?s ?p ?o }")
        report = registry.health()
        assert report[uri].statistics is endpoint.statistics
        assert report[uri].statistics.select_queries == 1
        assert report[uri].consecutive_failures == 0

    def test_health_as_dict_is_json_ready(self, registry):
        import json

        uri = URIRef("http://kisti.org/void")
        payload = registry.health()[uri].as_dict()
        assert payload["state"] == "closed"
        assert set(payload) == {"state", "consecutive_failures", "statistics"}
        assert payload["statistics"]["total_queries"] == 0
        json.dumps(payload)  # must be serialisable as-is

    def test_health_counts_breaker_failures(self, registry):
        uri = URIRef("http://kisti.org/void")
        breaker = registry.breaker_for(uri)
        breaker.record_failure()
        breaker.record_failure()
        report = registry.health()
        assert report[uri] == "closed"
        assert report[uri].consecutive_failures == 2

    def test_health_without_statistics_attribute(self):
        from repro.federation import SparqlEndpoint

        class Bare(SparqlEndpoint):
            uri = URIRef("http://bare.org/sparql")

        description = DatasetDescription(
            uri=URIRef("http://bare.org/void"),
            endpoint_uri=URIRef("http://bare.org/sparql"),
            ontologies=(AKT_ONT,),
        )
        registry = DatasetRegistry([RegisteredDataset(description, Bare())])
        report = registry.health()
        assert report[URIRef("http://bare.org/void")].statistics is None


class TestVoidRoundTrip:
    """Regression: the voiD KB must be a *consumable* export, not write-only.

    ``void_graph()`` (write) and ``load_void_graph()`` (read, via
    ``descriptions_from_graph``) must round-trip every description —
    including the vocabulary partitions that source selection depends on.
    """

    def test_descriptions_round_trip_through_void_graph(self, registry):
        graph = registry.void_graph()
        restored = DatasetRegistry()
        loaded = restored.load_void_graph(
            graph,
            endpoint_factory=lambda d: LocalSparqlEndpoint(d.endpoint_uri, Graph()),
        )
        assert len(loaded) == len(registry)
        for dataset in registry:
            assert restored.get(dataset.uri).description == dataset.description

    def test_round_trip_preserves_vocabulary_partitions(self):
        registry = DatasetRegistry()
        data = Graph()
        subject = URIRef("http://stats.org/id/x")
        data.add((subject, URIRef("http://stats.org/p"), URIRef("http://stats.org/o")))
        data.add((subject, RDF.type, URIRef("http://stats.org/Thing")))
        description = DatasetDescription(
            uri=URIRef("http://stats.org/void"),
            endpoint_uri=URIRef("http://stats.org/sparql"),
        )
        registry.register_endpoint(
            description, LocalSparqlEndpoint(description.endpoint_uri, data)
        )
        assert registry.refresh_statistics() == 1
        refreshed = registry.get(description.uri).description
        assert refreshed.advertises_vocabulary
        assert URIRef("http://stats.org/p") in refreshed.predicates()
        assert URIRef("http://stats.org/Thing") in refreshed.classes()
        assert refreshed.triple_count == 2

        restored = DatasetRegistry()
        restored.load_void_graph(
            registry.void_graph(),
            endpoint_factory=lambda d: LocalSparqlEndpoint(d.endpoint_uri, Graph()),
        )
        assert restored.get(description.uri).description == refreshed

    def test_refresh_statistics_tracks_mutations(self):
        registry = DatasetRegistry()
        data = Graph()
        description = DatasetDescription(
            uri=URIRef("http://stats.org/void"),
            endpoint_uri=URIRef("http://stats.org/sparql"),
        )
        endpoint = LocalSparqlEndpoint(description.endpoint_uri, data)
        registry.register_endpoint(description, endpoint)
        registry.refresh_statistics()
        assert not registry.get(description.uri).description.advertises_vocabulary
        data.add_all([
            (URIRef("http://stats.org/id/x"), URIRef("http://stats.org/p"),
             URIRef("http://stats.org/o")),
        ])
        registry.refresh_statistics()
        assert URIRef("http://stats.org/p") in \
            registry.get(description.uri).description.predicates()

    def test_refresh_preserves_breaker_state(self):
        registry = DatasetRegistry()
        description = DatasetDescription(
            uri=URIRef("http://stats.org/void"),
            endpoint_uri=URIRef("http://stats.org/sparql"),
        )
        registry.register_endpoint(
            description, LocalSparqlEndpoint(description.endpoint_uri, Graph())
        )
        registry.breaker_for(description.uri).record_failure()
        registry.refresh_statistics()
        assert registry.breaker_for(description.uri).consecutive_failures == 1

    def test_default_factory_builds_http_clients(self, registry):
        from repro.federation import HttpSparqlEndpoint

        restored = DatasetRegistry()
        restored.load_void_graph(registry.void_graph())
        for dataset in restored:
            assert isinstance(dataset.endpoint, HttpSparqlEndpoint)
            assert dataset.endpoint.url == str(dataset.description.endpoint_uri)
