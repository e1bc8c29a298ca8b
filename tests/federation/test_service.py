"""Unit tests for the MediatorService facade (the REST/UI tier)."""

import pytest

from repro.rdf import MAP, RDF, VOID

from ..conftest import FIGURE_1_QUERY


class TestServiceOperations:
    def test_every_dataset_is_registered_with_data(self, small_scenario):
        registry = small_scenario.service.registry
        assert len(registry) == 3
        assert small_scenario.kisti_dataset in registry
        assert all(dataset.endpoint.triple_count() > 0 for dataset in registry)

    def test_translate_response_fields(self, small_scenario):
        response = small_scenario.service.translate(
            FIGURE_1_QUERY, small_scenario.kisti_dataset,
            source_ontology=small_scenario.source_ontology,
        )
        assert response.alignments_considered == 24
        assert response.triples_matched == 2
        assert response.triples_unmatched == 0
        assert "hasCreatorInfo" in response.translated_query

    def test_translate_and_run(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        person_uri = small_scenario.akt_person_uri(person)
        query = f"""
        PREFIX akt:<http://www.aktors.org/ontology/portal#>
        SELECT DISTINCT ?a WHERE {{
          ?paper akt:has-author <{person_uri}> .
          ?paper akt:has-author ?a .
        }}
        """
        response = small_scenario.service.translate_and_run(
            query, small_scenario.kisti_dataset,
            source_ontology=small_scenario.source_ontology,
        )
        assert response.row_count == len(response.rows)
        if response.row_count:
            assert all("a" in row for row in response.rows)
            assert all("kisti.rkbexplorer.com" in row["a"] for row in response.rows)

    def test_translate_unknown_dataset_raises(self, small_scenario):
        from repro.rdf import URIRef

        with pytest.raises(KeyError):
            small_scenario.service.translate(FIGURE_1_QUERY, URIRef("http://unknown.org/void"))

    def test_alignment_kb_export(self, small_scenario):
        kb = small_scenario.service.alignment_kb()
        ontology_alignments = list(kb.subjects(RDF.type, MAP.OntologyAlignment))
        entity_alignments = list(kb.subjects(RDF.type, MAP.EntityAlignment))
        assert len(ontology_alignments) == 2
        assert len(entity_alignments) == 66

    def test_void_kb_export(self, small_scenario):
        kb = small_scenario.service.void_kb()
        datasets = list(kb.subjects(RDF.type, VOID.Dataset))
        assert len(datasets) == 3

    def test_federate_via_service(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        person_uri = small_scenario.akt_person_uri(person)
        query = f"""
        PREFIX akt:<http://www.aktors.org/ontology/portal#>
        SELECT DISTINCT ?a WHERE {{ ?paper akt:has-author <{person_uri}> .
                                    ?paper akt:has-author ?a . }}
        """
        result = small_scenario.service.federate(
            query,
            source_ontology=small_scenario.source_ontology,
            source_dataset=small_scenario.rkb_dataset,
        )
        assert len(result.per_dataset) == 3
