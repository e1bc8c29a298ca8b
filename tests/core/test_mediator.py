"""Unit tests for the Mediator (alignment selection + rewriting orchestration)."""

import pytest

from repro.alignment import AlignmentStore
from repro.core import Mediator, TargetProfile
from repro.datasets import (
    AKT_ONTOLOGY_URI,
    DBPEDIA_DATASET_URI,
    KISTI_DATASET_URI,
    KISTI_URI_PATTERN,
    akt_to_dbpedia_alignment,
    akt_to_kisti_alignment,
)
from repro.rdf import DBPO, KISTI, URIRef

from ..conftest import FIGURE_1_QUERY, FIGURE_6_QUERY


@pytest.fixture()
def mediator(sameas_service) -> Mediator:
    store = AlignmentStore([akt_to_kisti_alignment(), akt_to_dbpedia_alignment()])
    mediator = Mediator(store, sameas_service)
    mediator.register_target(TargetProfile(
        dataset=KISTI_DATASET_URI,
        ontologies=(URIRef("http://www.kisti.re.kr/isrl/ResearchRefOntology#"),),
        uri_pattern=KISTI_URI_PATTERN,
        prefixes=(("kisti", str(KISTI)),),
    ))
    mediator.register_target(TargetProfile(
        dataset=DBPEDIA_DATASET_URI,
        ontologies=(URIRef("http://dbpedia.org/ontology/"),),
        uri_pattern=r"http://dbpedia\.org/resource/\S*",
    ))
    return mediator


class TestTargets:
    def test_registered_targets_listed(self, mediator):
        for dataset in (KISTI_DATASET_URI, DBPEDIA_DATASET_URI):
            assert mediator.target(dataset).dataset == dataset

    def test_unknown_target_raises(self, mediator):
        with pytest.raises(KeyError):
            mediator.target(URIRef("http://unknown.org/void"))

    def test_select_alignments_for_kisti(self, mediator):
        alignments = mediator.select_alignments(mediator.target(KISTI_DATASET_URI),
                                                source_ontology=AKT_ONTOLOGY_URI)
        assert len(alignments) == 24

    def test_select_alignments_for_dbpedia(self, mediator):
        alignments = mediator.select_alignments(mediator.target(DBPEDIA_DATASET_URI),
                                                source_ontology=AKT_ONTOLOGY_URI)
        assert len(alignments) == 42


class TestTranslate:
    def test_translation_to_kisti(self, mediator):
        result = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI,
                                    source_ontology=AKT_ONTOLOGY_URI)
        assert result.alignments_considered == 24
        assert "hasCreatorInfo" in result.query_text
        assert result.mode == "bgp"

    def test_translation_to_dbpedia_uses_other_alignments(self, mediator):
        result = mediator.translate(FIGURE_1_QUERY, DBPEDIA_DATASET_URI,
                                    source_ontology=AKT_ONTOLOGY_URI)
        assert result.alignments_considered == 42
        # The akt:has-author property is rewritten to the DBpedia author
        # property (possibly under an auto-generated prefix).
        assert str(DBPO) in result.query_text
        assert ":author" in result.query_text
        assert "has-author" not in result.query_text

    def test_filter_aware_mode(self, mediator):
        result = mediator.translate(FIGURE_6_QUERY, KISTI_DATASET_URI,
                                    source_ontology=AKT_ONTOLOGY_URI, mode="filter-aware")
        assert "PER_00000000000105047" in result.query_text

    def test_algebra_mode_raises(self, mediator):
        with pytest.raises(ValueError, match="unknown mediation mode"):
            mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI,
                               source_ontology=AKT_ONTOLOGY_URI, mode="algebra")

    def test_unknown_mode_raises(self, mediator):
        with pytest.raises(ValueError):
            mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI, mode="nope")

    def test_filter_aware_requires_uri_pattern(self, sameas_service):
        store = AlignmentStore([akt_to_kisti_alignment()])
        mediator = Mediator(store, sameas_service)
        mediator.register_target(TargetProfile(dataset=KISTI_DATASET_URI, uri_pattern=None))
        with pytest.raises(ValueError):
            mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI, mode="filter-aware")

    def test_every_registered_target_translates(self, mediator):
        results = {
            target.dataset: mediator.translate(FIGURE_1_QUERY, target.dataset,
                                               source_ontology=AKT_ONTOLOGY_URI)
            for target in map(mediator.target, (KISTI_DATASET_URI, DBPEDIA_DATASET_URI))
        }
        assert set(results) == {KISTI_DATASET_URI, DBPEDIA_DATASET_URI}
        assert all(result.report.matched_count == 2 for result in results.values())

    def test_wrong_source_ontology_rewrites_nothing(self, mediator):
        result = mediator.translate(FIGURE_1_QUERY, KISTI_DATASET_URI,
                                    source_ontology=URIRef("http://other.org/onto#"))
        assert result.alignments_considered == 0
        assert result.report.matched_count == 0
        # The query comes back unchanged (no matching alignments).
        assert "has-author" in result.query_text
