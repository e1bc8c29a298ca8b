"""Unit tests for the alignment knowledge base (store + selection)."""

import pytest

from repro.alignment import (
    AlignmentStore,
    OntologyAlignment,
    class_alignment,
    property_alignment,
)
from repro.datasets import akt_to_dbpedia_alignment, akt_to_kisti_alignment
from repro.rdf import AKT, KISTI, URIRef

AKT_ONT = URIRef("http://www.aktors.org/ontology/portal#")
KISTI_ONT = URIRef("http://www.kisti.re.kr/isrl/ResearchRefOntology#")
DBPEDIA_ONT = URIRef("http://dbpedia.org/ontology/")
KISTI_DATASET = URIRef("http://kisti.rkbexplorer.com/id/void")
DBPEDIA_DATASET = URIRef("http://dbpedia.org/void")
OTHER_DATASET = URIRef("http://other.org/void")


@pytest.fixture()
def store() -> AlignmentStore:
    store = AlignmentStore()
    store.add(akt_to_kisti_alignment())
    store.add(akt_to_dbpedia_alignment())
    return store


class TestSelection:
    def test_counts_match_paper(self, store):
        counts = store.counts_by_pair()
        assert counts[((str(AKT_ONT),), (str(KISTI_DATASET),))] == 24
        assert counts[((str(AKT_ONT),), (str(DBPEDIA_DATASET),))] == 42
        assert store.entity_alignment_count() == 66
        assert len(store) == 2

    def test_selection_by_target_dataset(self, store):
        selected = store.for_target_dataset(KISTI_DATASET, source_ontology=AKT_ONT)
        assert len(selected) == 1
        assert selected[0].applies_to_target_dataset(KISTI_DATASET)

    def test_selection_filters_by_source_ontology(self, store):
        assert store.for_target_dataset(KISTI_DATASET, source_ontology=KISTI_ONT) == []

    def test_unknown_dataset_gets_nothing(self, store):
        assert store.for_target_dataset(OTHER_DATASET) == []

    def test_ontology_scoped_alignment_reused_for_new_dataset(self):
        reusable = OntologyAlignment(
            source_ontologies=[AKT_ONT],
            target_ontologies=[KISTI_ONT],
            entity_alignments=[class_alignment(AKT["Person"], KISTI["Researcher"])],
        )
        store = AlignmentStore([reusable])
        selected = store.for_target_dataset(OTHER_DATASET, dataset_ontologies=[KISTI_ONT])
        assert selected == [reusable]
        # Without declaring the dataset's ontologies nothing is selected.
        assert store.for_target_dataset(OTHER_DATASET) == []

    def test_dataset_specific_preferred_over_reusable(self):
        specific = OntologyAlignment(
            source_ontologies=[AKT_ONT],
            target_datasets=[KISTI_DATASET],
            entity_alignments=[class_alignment(AKT["Person"], KISTI["Researcher"])],
        )
        reusable = OntologyAlignment(
            source_ontologies=[AKT_ONT],
            target_ontologies=[KISTI_ONT],
            entity_alignments=[property_alignment(AKT["has-title"], KISTI["title"])],
        )
        store = AlignmentStore([reusable, specific])
        selected = store.for_target_dataset(KISTI_DATASET, dataset_ontologies=[KISTI_ONT])
        assert selected[0] is specific
        assert selected[1] is reusable

    def test_entity_alignments_union_deduplicates(self):
        shared = class_alignment(AKT["Person"], KISTI["Researcher"])
        first = OntologyAlignment(
            source_ontologies=[AKT_ONT], target_datasets=[KISTI_DATASET],
            entity_alignments=[shared],
        )
        second = OntologyAlignment(
            source_ontologies=[AKT_ONT], target_ontologies=[KISTI_ONT],
            entity_alignments=[class_alignment(AKT["Person"], KISTI["Researcher"])],
        )
        store = AlignmentStore([first, second])
        merged = store.entity_alignments_for(dataset=KISTI_DATASET,
                                             dataset_ontologies=[KISTI_ONT])
        assert len(merged) == 1

    def test_entity_alignments_for_without_target_returns_all_for_source(self, store):
        merged = store.entity_alignments_for(source_ontology=AKT_ONT)
        assert len(merged) == 66

    def test_source_ontologies_and_target_datasets(self, store):
        assert store.source_ontologies() == {AKT_ONT}
        assert store.target_datasets() == {KISTI_DATASET, DBPEDIA_DATASET}


class TestRdfPersistence:
    def test_store_graph_roundtrip(self, store):
        graph = store.to_graph()
        reloaded = AlignmentStore()
        imported = reloaded.load_graph(graph)
        assert imported == 2
        assert reloaded.entity_alignment_count() == store.entity_alignment_count()
        counts = reloaded.counts_by_pair()
        assert counts[((str(AKT_ONT),), (str(KISTI_DATASET),))] == 24
