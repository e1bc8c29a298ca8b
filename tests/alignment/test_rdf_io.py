"""Unit tests for the RDF (reification) encoding of alignments."""

import pytest

from repro.alignment import (
    AlignmentError,
    AlignmentGraphReader,
    AlignmentGraphWriter,
    EntityAlignment,
    OntologyAlignment,
    alignments_from_graph,
    alignments_from_turtle,
    alignments_to_graph,
    alignments_to_turtle,
    class_alignment,
    ontology_alignment_to_graph,
    ontology_alignments_from_graph,
    property_alignment,
)
from repro.rdf import AKT, Graph, KISTI, Literal, MAP, RDF, Triple, URIRef, Variable
from tests.alignment.validation import structurally_equivalent


class TestEntityAlignmentRoundtrip:
    def test_worked_example_roundtrip(self, figure2_alignment):
        graph = alignments_to_graph([figure2_alignment])
        restored = alignments_from_graph(graph)
        assert len(restored) == 1
        assert structurally_equivalent(restored[0], figure2_alignment)

    def test_graph_uses_paper_vocabulary(self, figure2_alignment):
        graph = alignments_to_graph([figure2_alignment])
        nodes = list(graph.subjects(RDF.type, MAP.EntityAlignment))
        assert len(nodes) == 1
        node = nodes[0]
        assert len(list(graph.objects(node, MAP.lhs))) == 1
        assert len(list(graph.objects(node, MAP.rhs))) == 2
        assert len(list(graph.objects(node, MAP.hasFunctionalDependency))) == 2
        # Patterns are encoded through rdf:Statement reification.
        statements = list(graph.subjects(RDF.type, RDF.Statement))
        assert len(statements) >= 3

    def test_turtle_roundtrip(self, figure2_alignment):
        text = alignments_to_turtle([figure2_alignment])
        assert "map:EntityAlignment" in text
        restored = alignments_from_turtle(text)
        assert structurally_equivalent(restored[0], figure2_alignment)

    def test_multiple_alignments_keep_variables_separate(self):
        first = class_alignment(AKT["Person"], KISTI["Researcher"])
        second = property_alignment(AKT["has-title"], KISTI["title"])
        graph = alignments_to_graph([first, second])
        restored = alignments_from_graph(graph)
        assert len(restored) == 2
        # Order-insensitive structural comparison.
        assert any(structurally_equivalent(r, first) for r in restored)
        assert any(structurally_equivalent(r, second) for r in restored)

    def test_identifier_preserved_for_named_alignments(self):
        named = class_alignment(AKT["Person"], KISTI["Researcher"],
                                identifier=URIRef("http://ex.org/align#person"))
        restored = alignments_from_graph(alignments_to_graph([named]))
        assert restored[0].identifier == URIRef("http://ex.org/align#person")

    def test_fd_parameters_roundtrip_in_order(self, figure2_alignment):
        restored = alignments_from_graph(alignments_to_graph([figure2_alignment]))[0]
        fd = next(d for d in restored.functional_dependencies)
        assert len(fd.parameters) == 2
        assert isinstance(fd.parameters[0], Variable)
        assert isinstance(fd.parameters[1], Literal)


class TestMalformedDescriptions:
    def _base_graph(self) -> Graph:
        graph = Graph()
        node = URIRef("http://ex.org/broken")
        graph.add(Triple(node, RDF.type, MAP.EntityAlignment))
        return graph

    def test_missing_lhs_rejected(self):
        graph = self._base_graph()
        with pytest.raises(AlignmentError):
            AlignmentGraphReader(graph).read_all_entity_alignments()

    def test_multiple_lhs_rejected(self, figure2_alignment):
        graph = alignments_to_graph([figure2_alignment])
        node = list(graph.subjects(RDF.type, MAP.EntityAlignment))[0]
        extra = Graph()
        writer = AlignmentGraphWriter(graph)
        # Add a second map:lhs arc pointing at an existing statement node.
        statement = list(graph.subjects(RDF.type, RDF.Statement))[0]
        graph.add(Triple(node, MAP.lhs, statement))
        reader = AlignmentGraphReader(graph)
        lhs_values = list(graph.objects(node, MAP.lhs))
        if len(lhs_values) > 1:
            with pytest.raises(AlignmentError):
                reader.read_entity_alignment(node)

    def test_fd_without_function_uri_rejected(self):
        graph = self._base_graph()
        node = URIRef("http://ex.org/broken")
        writer = AlignmentGraphWriter(graph)
        lhs_node = writer._write_pattern(  # noqa: SLF001 - exercising low-level writer
            Triple(Variable("x"), AKT["has-title"], Variable("y")), "ea1"
        )
        graph.add(Triple(node, MAP.lhs, lhs_node))
        rhs_node = writer._write_pattern(
            Triple(Variable("x"), KISTI["title"], Variable("y")), "ea1"
        )
        graph.add(Triple(node, MAP.rhs, rhs_node))
        # A functional dependency whose rdf:predicate is a literal.
        fd_node = URIRef("http://ex.org/brokenfd")
        graph.add(Triple(node, MAP.hasFunctionalDependency, fd_node))
        graph.add(Triple(fd_node, RDF.subject, Variable("y").n3() and Literal("y")))
        graph.add(Triple(fd_node, RDF.predicate, Literal("not-a-uri")))
        graph.add(Triple(fd_node, RDF.object, RDF.nil))
        with pytest.raises(AlignmentError):
            AlignmentGraphReader(graph).read_entity_alignment(node)


class TestOntologyAlignmentRoundtrip:
    def test_full_roundtrip(self, figure2_alignment):
        original = OntologyAlignment(
            source_ontologies=[URIRef("http://www.aktors.org/ontology/portal#")],
            target_ontologies=[URIRef("http://www.kisti.re.kr/isrl/ResearchRefOntology#")],
            target_datasets=[URIRef("http://kisti.rkbexplorer.com/id/void")],
            entity_alignments=[figure2_alignment,
                               class_alignment(AKT["Person"], KISTI["Researcher"])],
            identifier=URIRef("http://ex.org/oa#akt2kisti"),
        )
        graph = ontology_alignment_to_graph(original)
        restored = ontology_alignments_from_graph(graph)
        assert len(restored) == 1
        loaded = restored[0]
        assert loaded.source_ontologies == original.source_ontologies
        assert loaded.target_ontologies == original.target_ontologies
        assert loaded.target_datasets == original.target_datasets
        assert loaded.identifier == original.identifier
        assert len(loaded) == 2

    def test_ontology_alignment_vocabulary(self, figure2_alignment):
        original = OntologyAlignment(
            source_ontologies=[URIRef("http://www.aktors.org/ontology/portal#")],
            target_datasets=[URIRef("http://kisti.rkbexplorer.com/id/void")],
            entity_alignments=[figure2_alignment],
        )
        graph = ontology_alignment_to_graph(original)
        oa_nodes = list(graph.subjects(RDF.type, MAP.OntologyAlignment))
        assert len(oa_nodes) == 1
        assert list(graph.objects(oa_nodes[0], MAP.sourceOntology))
        assert list(graph.objects(oa_nodes[0], MAP.targetDataset))
        assert list(graph.objects(oa_nodes[0], MAP.hasEntityAlignment))
