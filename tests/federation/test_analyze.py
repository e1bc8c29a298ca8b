"""EXPLAIN ANALYZE across the federation layers, and the decomposer's
bound joins exercised over loopback HTTP.

Three concerns:

* ``LocalSparqlEndpoint.analyze`` — counted as traffic, same result as a
  plain query, event carries the batched executor's operator metrics;
* ``FederatedQueryEngine.analyze`` / ``MediatorService.analyze`` — the
  fan-out strategy summarises per-dataset traffic, the decompose strategy
  surfaces the vectorized mediator plan (units, bound joins, rows shipped);
* the decomposer over *remote* endpoints: registries of
  ``HttpSparqlEndpoint`` clients talking to loopback ``SparqlHttpServer``s
  must produce the same merged results as the same data served in-process —
  including the VALUES-driven bound-join requests the decomposer ships.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.alignment import AlignmentStore
from repro.coreference import SameAsService
from repro.datasets import build_resist_scenario
from repro.federation import (
    DatasetDescription,
    DatasetRegistry,
    HttpSparqlEndpoint,
    LocalSparqlEndpoint,
    MediatorService,
)
from repro.rdf import Graph, Triple, URIRef
from repro.server import EndpointBackend, SparqlHttpServer
from repro.turtle import parse_graph

EX = "http://ex.org/"

DATA = """
@prefix ex: <http://example.org/> .
ex:a ex:knows ex:b .
ex:b ex:knows ex:c .
ex:a ex:name "Alice" .
"""

SELECT = "SELECT ?s ?o WHERE { ?s <http://example.org/knows> ?o }"


def _multiset(result):
    return sorted(
        tuple((k, str(v)) for k, v in sorted(b.as_dict().items()))
        for b in result.merged_bindings
    )


# --------------------------------------------------------------------------- #
# Endpoint layer
# --------------------------------------------------------------------------- #
class TestEndpointAnalyze:
    @pytest.fixture()
    def endpoint(self):
        return LocalSparqlEndpoint(URIRef(EX + "dataset"), parse_graph(DATA))

    def test_analyze_matches_select_and_counts_traffic(self, endpoint):
        plain = endpoint.select(SELECT)
        result, event = endpoint.analyze(SELECT)
        assert sorted(map(str, result.bindings)) == sorted(map(str, plain.bindings))
        assert endpoint.statistics.select_queries == 2
        assert event.rows == 2
        assert event.operators

    def test_analyze_ask_counts_as_ask_traffic(self, endpoint):
        result, event = endpoint.analyze(
            "ASK { <http://example.org/a> <http://example.org/knows> ?x }"
        )
        assert bool(result) is True
        assert endpoint.statistics.ask_queries == 1
        assert event.engine == "planner"

    def test_analyze_respects_failure_injection(self, endpoint):
        from repro.federation import EndpointUnavailable

        endpoint.fail_next(1)
        with pytest.raises(EndpointUnavailable):
            endpoint.analyze(SELECT)


# --------------------------------------------------------------------------- #
# Federation layer
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def scenario():
    return build_resist_scenario(n_persons=12, n_papers=24, seed=7)


@pytest.fixture(scope="module")
def coauthor_query(scenario):
    person_uri = scenario.akt_person_uri(scenario.world.most_prolific_author())
    return f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author <{person_uri}> .
      ?paper akt:has-author ?a .
      FILTER (!(?a = <{person_uri}>))
    }}
    """


class TestFederationAnalyze:
    def _analyze(self, scenario, query, strategy):
        return scenario.service.analyze(
            query,
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
            strategy=strategy,
        )

    def test_fanout_event_summarises_per_dataset_traffic(self, scenario, coauthor_query):
        outcome, event = self._analyze(scenario, coauthor_query, "fanout")
        assert event.engine == "federate-fanout"
        assert len(event.endpoints) == len(outcome.per_dataset)
        assert event.rows_shipped == outcome.total_rows
        for entry in event.endpoints:
            assert entry["requests"] >= 1

    def test_decompose_event_carries_the_operator_plan(self, scenario, coauthor_query):
        outcome, event = self._analyze(scenario, coauthor_query, "decompose")
        assert event.engine == "decompose"
        assert "BindJoin" in event.plan
        assert "Unit" in event.plan
        assert event.rows_shipped == sum(e["rows_shipped"] for e in event.endpoints)
        assert event.rows == len(outcome.merged_bindings)

    def test_analyze_result_matches_federate(self, scenario, coauthor_query):
        for strategy in ("fanout", "decompose"):
            outcome, _ = self._analyze(scenario, coauthor_query, strategy)
            plain = scenario.service.federate(
                coauthor_query,
                source_ontology=scenario.source_ontology,
                source_dataset=scenario.rkb_dataset,
                mode="filter-aware",
                strategy=strategy,
            )
            assert _multiset(outcome) == _multiset(plain)

    def test_render_is_human_readable(self, scenario, coauthor_query):
        _, event = self._analyze(scenario, coauthor_query, "decompose")
        text = event.render()
        assert "EXPLAIN ANALYZE" in text
        assert "endpoint " in text


# --------------------------------------------------------------------------- #
# Decomposition over loopback HTTP
# --------------------------------------------------------------------------- #
def _split_join_graphs(n_items=12):
    """Data split so the ?m join crosses endpoints: p-edges on one
    dataset, q-edges on the other — only a bound join can bridge them."""
    left, right = Graph(), Graph()
    for i in range(n_items):
        left.add(Triple(
            URIRef(f"{EX}s-{i:02d}"), URIRef(EX + "p"), URIRef(f"{EX}m-{i:02d}")
        ))
        right.add(Triple(
            URIRef(f"{EX}m-{i:02d}"), URIRef(EX + "q"), URIRef(f"{EX}o-{i:02d}")
        ))
    return left, right


JOIN_QUERY = (
    "PREFIX ex: <http://ex.org/>\n"
    "SELECT ?s ?m ?o WHERE { ?s ex:p ?m . ?m ex:q ?o }"
)


def _service_over(endpoints):
    registry = DatasetRegistry()
    ontology = URIRef(EX + "ontology")
    for index, endpoint in enumerate(endpoints):
        registry.register_endpoint(
            DatasetDescription(
                uri=URIRef(f"{EX}dataset-{index}"),
                endpoint_uri=endpoint.uri,
                ontologies=(ontology,),
            ),
            endpoint,
        )
    return MediatorService(AlignmentStore(), registry, SameAsService())


class TestDecomposeOverLoopbackHttp:
    @pytest.fixture()
    def graphs(self):
        return _split_join_graphs()

    @pytest.fixture()
    def http_endpoints(self, graphs):
        with contextlib.ExitStack() as stack:
            remotes = []
            for index, graph in enumerate(graphs):
                local = LocalSparqlEndpoint(
                    URIRef(f"{EX}dataset-{index}/sparql"), graph,
                    name=f"endpoint-{index}",
                )
                server = stack.enter_context(
                    SparqlHttpServer(EndpointBackend(local), cache_size=0)
                )
                remotes.append(HttpSparqlEndpoint(URIRef(server.query_url), timeout=10))
            yield remotes

    def test_cross_endpoint_join_matches_in_process(self, graphs, http_endpoints):
        in_process = _service_over([
            LocalSparqlEndpoint(URIRef(f"{EX}dataset-{index}/sparql"), graph)
            for index, graph in enumerate(graphs)
        ])
        over_http = _service_over(http_endpoints)
        expected = _multiset(in_process.federate(JOIN_QUERY, strategy="decompose"))
        got = _multiset(over_http.federate(JOIN_QUERY, strategy="decompose"))
        assert got == expected
        assert len(got) == 12

    @pytest.mark.parametrize("batch", [1, 4, 100])
    def test_values_batches_over_http_never_change_results(
        self, graphs, http_endpoints, batch
    ):
        # The bound join ships its left rows as VALUES blocks over HTTP;
        # the chunk size must never change the merged result set.
        service = _service_over(http_endpoints)
        service.federation.bind_join_batch = batch
        result = service.federate(JOIN_QUERY, strategy="decompose")
        assert len(_multiset(result)) == 12

    def test_analyze_reports_http_requests_shipped(self, http_endpoints):
        service = _service_over(http_endpoints)
        outcome, event = service.analyze(JOIN_QUERY, strategy="decompose")
        assert event.engine == "decompose"
        assert len(event.endpoints) == 2
        assert event.rows_shipped > 0
        assert _multiset(outcome)
