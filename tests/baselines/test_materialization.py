"""Unit tests for the materialisation (forward-chaining) baseline."""

import pytest

from benchmarks.baselines import MaterializationIntegrator
from repro.datasets import RKB_URI_PATTERN, akt_to_kisti_alignment
from repro.rdf import AKT, Graph, KISTI, KISTI_ID, Literal, RDF, RKB_ID, Triple
from repro.sparql import QueryEvaluator


@pytest.fixture()
def kisti_graph(sameas_service) -> Graph:
    """A small KISTI-vocabulary dataset describing one paper and two authors."""
    graph = Graph()
    paper = KISTI_ID["PAP_000000000001"]
    author_known = KISTI_ID["PER_00000000000105047"]  # linked to RKB person-02686
    author_local = KISTI_ID["PER_00000000000999999"]  # no RKB equivalent
    graph.add(Triple(paper, RDF.type, KISTI["Paper"]))
    graph.add(Triple(paper, KISTI["title"], Literal("Linked Data Integration")))
    for index, author in enumerate([author_known, author_local]):
        info = KISTI_ID[f"CRE_{index}"]
        graph.add(Triple(info, RDF.type, KISTI["CreatorInfo"]))
        graph.add(Triple(paper, KISTI["hasCreatorInfo"], info))
        graph.add(Triple(info, KISTI["hasCreator"], author))
        graph.add(Triple(author, RDF.type, KISTI["Researcher"]))
    return graph


@pytest.fixture()
def integrator(sameas_service) -> MaterializationIntegrator:
    alignments = list(akt_to_kisti_alignment())
    return MaterializationIntegrator(alignments, sameas_service, RKB_URI_PATTERN)


class TestMaterialization:
    def test_reverse_application_of_chain_rule(self, integrator, kisti_graph):
        materialized, stats = integrator.integrate([kisti_graph])
        # The CreatorInfo chain is folded back into akt:has-author triples.
        authors = list(materialized.triples(None, AKT["has-author"], None))
        assert len(authors) == 2
        assert stats.derived_triples == len(materialized)
        assert stats.input_triples == len(kisti_graph)
        assert stats.rule_applications > 0

    def test_known_uris_translated_to_source_space(self, integrator, kisti_graph):
        materialized, stats = integrator.integrate([kisti_graph])
        objects = {t.object for t in materialized.triples(None, AKT["has-author"], None)}
        assert RKB_ID["person-02686"] in objects
        assert stats.sameas_translations > 0

    def test_unlinked_uris_kept(self, integrator, kisti_graph):
        materialized, _ = integrator.integrate([kisti_graph])
        objects = {t.object for t in materialized.triples(None, AKT["has-author"], None)}
        assert KISTI_ID["PER_00000000000999999"] in objects

    def test_class_memberships_translated(self, integrator, kisti_graph):
        materialized, _ = integrator.integrate([kisti_graph])
        assert list(materialized.triples(None, RDF.type, AKT["Person"]))
        assert list(materialized.triples(None, RDF.type, AKT["Article-Reference"]))

    def test_literal_properties_translated(self, integrator, kisti_graph):
        materialized, _ = integrator.integrate([kisti_graph])
        titles = list(materialized.triples(None, AKT["has-title"], None))
        assert len(titles) == 1
        assert titles[0].object == Literal("Linked Data Integration")

    def test_source_query_works_on_materialized_graph(self, integrator, kisti_graph):
        materialized, _ = integrator.integrate([kisti_graph])
        result = QueryEvaluator(materialized).select("""
            PREFIX akt:<http://www.aktors.org/ontology/portal#>
            SELECT DISTINCT ?a WHERE { ?p akt:has-author ?a }
        """)
        assert len(result) == 2

    def test_cost_grows_with_data_size(self, integrator, kisti_graph, sameas_service):
        """The defining weakness: work is proportional to the data, not the query."""
        bigger = Graph()
        bigger.add_all(kisti_graph)
        for index in range(50):
            paper = KISTI_ID[f"PAP_X{index}"]
            info = KISTI_ID[f"CRE_X{index}"]
            author = KISTI_ID[f"PER_X{index}"]
            bigger.add(Triple(paper, KISTI["hasCreatorInfo"], info))
            bigger.add(Triple(info, KISTI["hasCreator"], author))
        _, small_stats = integrator.integrate([kisti_graph])
        _, big_stats = integrator.integrate([bigger])
        assert big_stats.rule_applications > small_stats.rule_applications
        assert big_stats.derived_triples > small_stats.derived_triples

    def test_empty_input(self, integrator):
        materialized, stats = integrator.integrate([])
        assert len(materialized) == 0
        assert stats.input_triples == 0

    def test_integration_is_idempotent_on_output_size(self, integrator, kisti_graph):
        first, _ = integrator.integrate([kisti_graph])
        second, _ = integrator.integrate([kisti_graph, kisti_graph])
        assert len(first) == len(second)
