"""Unit tests for the reconstructed alignment knowledge bases (Section 3.4)."""

from repro.alignment import classify_level
from repro.datasets import (
    AKT_ONTOLOGY_URI,
    DBPEDIA_DATASET_URI,
    KISTI_DATASET_URI,
    KISTI_URI_PATTERN,
    akt_to_dbpedia_alignment,
    akt_to_kisti_alignment,
    has_author_chain_alignment,
)
from tests.alignment.validation import validate_ontology_alignment
from repro.rdf import AKT, KISTI


class TestAktToKisti:
    def test_exactly_24_entity_alignments(self):
        assert len(akt_to_kisti_alignment()) == 24

    def test_context_of_validity(self):
        oa = akt_to_kisti_alignment()
        assert oa.applies_to_source(AKT_ONTOLOGY_URI)
        assert oa.applies_to_target_dataset(KISTI_DATASET_URI)

    def test_contains_the_worked_example_chain(self):
        oa = akt_to_kisti_alignment()
        chains = [ea for ea in oa if ea.lhs.predicate == AKT["has-author"]]
        assert len(chains) == 1
        chain = chains[0]
        assert len(chain.rhs) == 2
        assert len(chain.functional_dependencies) == 2
        assert {p.predicate for p in chain.rhs} == {
            KISTI["hasCreatorInfo"], KISTI["hasCreator"]
        }

    def test_mixed_concept_and_property_alignments(self):
        oa = akt_to_kisti_alignment()
        levels = [classify_level(ea) for ea in oa]
        # The 10 concept alignments are plain level-0 renamings; the property
        # alignments carry sameas functional dependencies (or the CreatorInfo
        # chain) and therefore classify as level 2 graph rewritings.
        assert levels.count(0) == 10
        assert levels.count(2) == 14

    def test_no_validation_errors(self):
        issues = validate_ontology_alignment(akt_to_kisti_alignment())
        assert not [issue for issue in issues if issue.is_error()]

    def test_every_head_predicate_unique(self):
        oa = akt_to_kisti_alignment()
        heads = [(ea.lhs.predicate, ea.lhs.object) for ea in oa]
        assert len(heads) == len(set(heads))


class TestAktToDbpedia:
    def test_exactly_42_entity_alignments(self):
        assert len(akt_to_dbpedia_alignment()) == 42

    def test_context_of_validity(self):
        oa = akt_to_dbpedia_alignment()
        assert oa.applies_to_source(AKT_ONTOLOGY_URI)
        assert oa.applies_to_target_dataset(DBPEDIA_DATASET_URI)

    def test_level_mix_includes_level1(self):
        oa = akt_to_dbpedia_alignment()
        levels = [classify_level(ea) for ea in oa]
        assert 1 in levels
        assert 0 in levels

    def test_no_validation_errors(self):
        issues = validate_ontology_alignment(akt_to_dbpedia_alignment())
        assert not [issue for issue in issues if issue.is_error()]


class TestChainAlignmentFactory:
    def test_fds_translate_into_the_kisti_uri_space(self):
        alignment = has_author_chain_alignment()
        for dependency in alignment.functional_dependencies:
            assert dependency.parameters[1].lexical == KISTI_URI_PATTERN
