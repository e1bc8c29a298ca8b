"""Tests for the mediator's rewrite cache and the batch rewriting APIs."""

import pytest

from repro.alignment import AlignmentStore
from repro.core import Mediator, TargetProfile
from repro.datasets import (
    AKT_ONTOLOGY_URI,
    KISTI_DATASET_URI,
    KISTI_URI_PATTERN,
    akt_to_kisti_alignment,
)
from repro.rdf import KISTI, URIRef

from ..conftest import FIGURE_1_QUERY, FIGURE_6_QUERY


@pytest.fixture()
def store() -> AlignmentStore:
    return AlignmentStore([akt_to_kisti_alignment()])


@pytest.fixture()
def mediator(store, sameas_service) -> Mediator:
    mediator = Mediator(store, sameas_service)
    mediator.register_target(TargetProfile(
        dataset=KISTI_DATASET_URI,
        ontologies=(URIRef("http://www.kisti.re.kr/isrl/ResearchRefOntology#"),),
        uri_pattern=KISTI_URI_PATTERN,
        prefixes=(("kisti", str(KISTI)),),
    ))
    return mediator


class TestRewriteCache:
    def test_repeat_translation_hits_cache(self, mediator):
        first = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI,
                                   source_ontology=AKT_ONTOLOGY_URI)
        second = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI,
                                    source_ontology=AKT_ONTOLOGY_URI)
        info = mediator.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert second.query_text == first.query_text
        assert second.alignments_considered == first.alignments_considered
        assert second.report.matched_count == first.report.matched_count

    def test_cache_hit_returns_independent_query_objects(self, mediator):
        first = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        second = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        assert second.rewritten_query is not first.rewritten_query
        # Mutating one result must not leak into subsequent cache hits.
        first.rewritten_query.triples_blocks().__next__().patterns.clear()
        third = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        assert third.query_text == second.query_text

    def test_equivalent_query_text_shares_cache_entry(self, mediator):
        # The key is the *normalized* query, so formatting differences
        # (whitespace) still hit.
        reformatted = FIGURE_1_QUERY.replace("\n", " ").replace("  ", " ")
        mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        mediator.translate(reformatted, KISTI_DATASET_URI)
        assert mediator.cache_info()["hits"] == 1

    def test_mode_and_strict_are_part_of_the_key(self, mediator):
        mediator.translate(FIGURE_6_QUERY, KISTI_DATASET_URI, mode="bgp")
        mediator.translate(FIGURE_6_QUERY, KISTI_DATASET_URI, mode="filter-aware")
        mediator.translate(FIGURE_6_QUERY, KISTI_DATASET_URI, mode="filter-aware", strict=True)
        info = mediator.cache_info()
        assert info["hits"] == 0 and info["misses"] == 3

    def test_store_mutation_invalidates_cache(self, mediator, store):
        from repro.alignment import OntologyAlignment
        from repro.alignment.levels import property_alignment
        from repro.rdf import Namespace

        EX = Namespace("http://example.org/extra#")
        baseline = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        store.add(OntologyAlignment(
            source_ontologies=[AKT_ONTOLOGY_URI],
            target_datasets=[KISTI_DATASET_URI],
            entity_alignments=[property_alignment(EX["p"], EX["q"])],
        ))
        refreshed = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        info = mediator.cache_info()
        assert info["hits"] == 0 and info["misses"] == 2
        # The new alignment is now part of the selection.
        assert refreshed.alignments_considered == baseline.alignments_considered + 1

    def test_sameas_mutation_invalidates_cache(self, mediator, sameas_service):
        from repro.rdf import URIRef as U

        # First translation: person-12345 has no KISTI equivalent, so the
        # sameas FD cannot fire for it.
        query = FIGURE_1_QUERY.replace("person-02686", "person-12345")
        before = mediator.translate(query, KISTI_DATASET_URI,
                                    source_ontology=AKT_ONTOLOGY_URI)
        assert "PER_99" not in before.query_text
        # Adding the co-reference link must invalidate the rewrite cache:
        # the next translation picks it up instead of replaying the miss.
        sameas_service.add_equivalence(
            U("http://southampton.rkbexplorer.com/id/person-12345"),
            U("http://kisti.rkbexplorer.com/id/PER_99"),
        )
        after = mediator.translate(query, KISTI_DATASET_URI,
                                   source_ontology=AKT_ONTOLOGY_URI)
        assert mediator.cache_info()["hits"] == 0
        assert "PER_99" in after.query_text

    def test_registry_mutation_invalidates_cache(self, mediator):
        from repro.rdf import URIRef as U

        mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        mediator.registry.register(U("http://example.org/fn#identity"), lambda term: term)
        mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        assert mediator.cache_info()["hits"] == 0

    def test_cache_hit_report_entries_are_independent(self, mediator):
        first = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        first.report.rewrites[0].produced.clear()
        second = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        assert second.report.rewrites[0].produced
        assert second.report.output_size > 0

    def test_load_graph_invalidates_cache(self, mediator, store):
        mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        store.load_graph(store.to_graph())
        mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        assert mediator.cache_info()["hits"] == 0

    def test_register_target_clears_cache(self, mediator):
        mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI)
        mediator.register_target(TargetProfile(
            dataset=KISTI_DATASET_URI,
            uri_pattern=KISTI_URI_PATTERN,
        ))
        assert mediator.cache_info()["results"] == 0

    def test_ruleset_shared_across_modes(self, mediator):
        target = mediator.target(KISTI_DATASET_URI)
        ruleset = mediator.compiled_ruleset(target, AKT_ONTOLOGY_URI)
        assert mediator.compiled_ruleset(target, AKT_ONTOLOGY_URI) is ruleset


class TestRewriteMany:
    def test_batch_matches_individual_translations(self, mediator):
        individual = [
            mediator.translate(q, KISTI_DATASET_URI, source_ontology=AKT_ONTOLOGY_URI)
            for q in (FIGURE_1_QUERY, FIGURE_6_QUERY)
        ]
        batch = mediator.rewrite_many(
            [FIGURE_1_QUERY, FIGURE_6_QUERY], KISTI_DATASET_URI,
            source_ontology=AKT_ONTOLOGY_URI,
        )
        assert [r.query_text for r in batch] == [r.query_text for r in individual]

    def test_batch_preserves_input_order_with_duplicates(self, mediator):
        batch = mediator.rewrite_many(
            [FIGURE_1_QUERY, FIGURE_6_QUERY, FIGURE_1_QUERY], KISTI_DATASET_URI,
        )
        assert len(batch) == 3
        assert batch[0].query_text == batch[2].query_text
        assert mediator.cache_info()["hits"] == 1

    def test_unknown_target_raises(self, mediator):
        with pytest.raises(KeyError):
            mediator.rewrite_many([FIGURE_1_QUERY], URIRef("http://unknown.org/void"))
