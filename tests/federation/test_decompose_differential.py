"""Differential suite: ``--strategy decompose`` ≡ fan-out on E6/E7.

The acceptance bar for the decomposer: on the paper's scenarios —
per-dataset URI spaces linked by owl:sameAs (E6) and overlapping
single-vocabulary repositories (E7) — source selection, exclusive groups
and bound joins must reproduce the fan-out strategy's merged result set
exactly.  (The guarantee is scenario-scoped: with subjects *split* across
endpoints the decomposer's cross-endpoint joins find rows per-dataset
evaluation cannot; ``test_decompose.py`` asserts that capability gap
explicitly.)
"""

import pytest

from repro.alignment import AlignmentStore
from repro.coreference import SameAsService
from repro.datasets import build_resist_scenario
from repro.federation import (
    DEFAULT_BIND_JOIN_BATCH,
    DatasetDescription,
    DatasetRegistry,
    LocalSparqlEndpoint,
    MediatorService,
)
from repro.rdf import Graph, Triple, URIRef

from .workers import one_worker

EX = "http://ex.org/"


def _multiset(result):
    return sorted(
        tuple((k, str(v)) for k, v in sorted(b.as_dict().items()))
        for b in result.merged_bindings
    )


@pytest.fixture(scope="module")
def scenario():
    return build_resist_scenario(
        n_persons=14,
        n_papers=30,
        n_projects=3,
        n_organizations=3,
        rkb_coverage=0.7,
        kisti_coverage=0.6,
        dbpedia_coverage=0.5,
        seed=11,
    )


def _subjects(scenario, count=4):
    by_papers = sorted(
        scenario.world.persons,
        key=lambda person: -len(scenario.world.papers_of(person.key)),
    )
    return [person.key for person in by_papers[:count]]


class TestE6Differential:
    """The co-author workload over RKB + KISTI + DBpedia."""

    def test_coauthor_query_is_result_identical(self, scenario):
        for person_key in _subjects(scenario):
            person_uri = scenario.akt_person_uri(person_key)
            query = f"""
            PREFIX akt:<http://www.aktors.org/ontology/portal#>
            SELECT DISTINCT ?a WHERE {{
              ?paper akt:has-author <{person_uri}> .
              ?paper akt:has-author ?a .
              FILTER (!(?a = <{person_uri}>))
            }}
            """
            kwargs = dict(
                source_ontology=scenario.source_ontology,
                source_dataset=scenario.rkb_dataset,
                mode="filter-aware",
            )
            fanout = scenario.service.federate(query, **kwargs)
            decomposed = scenario.service.federate(query, strategy="decompose", **kwargs)
            assert _multiset(decomposed) == _multiset(fanout), person_uri

    def test_filter_free_query_in_bgp_mode(self, scenario):
        query = """
        PREFIX akt:<http://www.aktors.org/ontology/portal#>
        SELECT DISTINCT ?paper ?a WHERE {
          ?paper akt:has-author ?a .
        }
        """
        kwargs = dict(
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="bgp",
        )
        fanout = scenario.service.federate(query, **kwargs)
        decomposed = scenario.service.federate(query, strategy="decompose", **kwargs)
        assert _multiset(decomposed) == _multiset(fanout)

    def test_multi_pattern_star_query(self, scenario):
        query = """
        PREFIX akt:<http://www.aktors.org/ontology/portal#>
        SELECT DISTINCT ?paper ?a ?t WHERE {
          ?paper akt:has-author ?a .
          ?paper akt:has-title ?t .
        }
        """
        kwargs = dict(
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
        )
        fanout = scenario.service.federate(query, **kwargs)
        decomposed = scenario.service.federate(query, strategy="decompose", **kwargs)
        assert _multiset(decomposed) == _multiset(fanout)

    @pytest.mark.parametrize("batch", [1, 3, 32, DEFAULT_BIND_JOIN_BATCH])
    def test_batch_size_never_changes_results(self, scenario, batch):
        person_uri = scenario.akt_person_uri(_subjects(scenario, 1)[0])
        query = f"""
        PREFIX akt:<http://www.aktors.org/ontology/portal#>
        SELECT DISTINCT ?a WHERE {{
          ?paper akt:has-author <{person_uri}> .
          ?paper akt:has-author ?a .
          FILTER (!(?a = <{person_uri}>))
        }}
        """
        kwargs = dict(
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
        )
        fanout = scenario.service.federate(query, **kwargs)
        engine = scenario.service.federation
        previous = engine.bind_join_batch
        try:
            engine.bind_join_batch = batch
            decomposed = scenario.service.federate(query, strategy="decompose", **kwargs)
        finally:
            engine.bind_join_batch = previous
        assert _multiset(decomposed) == _multiset(fanout)


class TestE7Differential:
    """Overlapping single-vocabulary repositories (the E7 fan-out setup)."""

    @staticmethod
    def _service(n_endpoints=8):
        registry = DatasetRegistry()
        ontology = URIRef(EX + "ontology")
        for index in range(n_endpoints):
            graph = Graph()
            for item in range(5 * index, 5 * index + 10):
                graph.add(Triple(
                    URIRef(f"{EX}item-{item:03d}"),
                    URIRef(EX + "p"),
                    URIRef(f"{EX}value-{item:03d}"),
                ))
            uri = URIRef(f"{EX}dataset-{index}")
            registry.register_endpoint(
                DatasetDescription(
                    uri=uri,
                    endpoint_uri=URIRef(f"{EX}dataset-{index}/sparql"),
                    ontologies=(ontology,),
                ),
                LocalSparqlEndpoint(
                    URIRef(f"{EX}dataset-{index}/sparql"), graph,
                    name=f"endpoint-{index}",
                ),
            )
        return MediatorService(AlignmentStore(), registry, SameAsService())

    @pytest.mark.parametrize("n_endpoints", [1, 2, 4, 8])
    def test_single_pattern_query(self, n_endpoints):
        service = self._service(n_endpoints)
        query = "PREFIX ex: <http://ex.org/>\nSELECT ?s ?o WHERE { ?s ex:p ?o }"
        fanout = service.federate(query)
        decomposed = service.federate(query, strategy="decompose")
        assert _multiset(decomposed) == _multiset(fanout)

    def test_ordered_query(self):
        service = self._service(4)
        query = (
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?s ?o WHERE { ?s ex:p ?o } ORDER BY ?s"
        )
        fanout = service.federate(query)
        decomposed = service.federate(query, strategy="decompose")
        assert _multiset(decomposed) == _multiset(fanout)
        # ORDER BY is applied globally by the decomposer.
        rendered = [str(b.get_term("s")) for b in decomposed.merged_bindings]
        assert rendered == sorted(rendered)

    def test_sequential_and_parallel_fanout_both_match(self):
        service = self._service(4)
        query = "PREFIX ex: <http://ex.org/>\nSELECT ?s ?o WHERE { ?s ex:p ?o }"
        with one_worker(service):
            sequential = service.federate(query)
        decomposed = service.federate(query, strategy="decompose")
        assert _multiset(decomposed) == _multiset(sequential)
