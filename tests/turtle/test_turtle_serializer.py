"""Unit tests for the Turtle serialiser."""

from repro.rdf import (
    BNode,
    Graph,
    Literal,
    NamespaceManager,
    RDF,
    Triple,
    URIRef,
    XSD,
)
from repro.turtle import parse_turtle, serialize_turtle
from tests.isomorphism import isomorphic


def build_graph() -> Graph:
    graph = Graph()
    graph.namespace_manager.bind("ex", "http://ex.org/")
    ex = "http://ex.org/"
    graph.add(Triple(URIRef(ex + "alice"), RDF.type, URIRef(ex + "Person")))
    graph.add(Triple(URIRef(ex + "alice"), URIRef(ex + "name"), Literal("Alice")))
    graph.add(Triple(URIRef(ex + "alice"), URIRef(ex + "age"),
                     Literal("42", datatype=XSD.integer)))
    graph.add(Triple(URIRef(ex + "alice"), URIRef(ex + "greets"), Literal("bonjour", lang="fr")))
    graph.add(Triple(BNode("b1"), URIRef(ex + "knows"), URIRef(ex + "alice")))
    return graph


class TestSerialisation:
    def test_prefixes_emitted_only_when_used(self):
        text = serialize_turtle(build_graph())
        assert "@prefix ex:" in text
        assert "@prefix akt:" not in text

    def test_rdf_type_rendered_as_a(self):
        text = serialize_turtle(build_graph())
        assert " a ex:Person" in text

    def test_language_and_datatype_rendering(self):
        text = serialize_turtle(build_graph())
        assert '"bonjour"@fr' in text
        assert '"42"^^xsd:integer' in text or '"42"^^<http://www.w3.org/2001/XMLSchema#integer>' in text

    def test_roundtrip_isomorphic(self):
        graph = build_graph()
        reparsed = parse_turtle(serialize_turtle(graph))
        assert isomorphic(graph, reparsed)

    def test_deterministic_output(self):
        assert serialize_turtle(build_graph()) == serialize_turtle(build_graph())

    def test_uri_without_prefix_uses_angle_brackets(self):
        graph = Graph(namespace_manager=NamespaceManager(install_defaults=False))
        graph.add(Triple(URIRef("http://nowhere.org/x"), URIRef("http://nowhere.org/p"),
                         URIRef("http://nowhere.org/y")))
        text = serialize_turtle(graph)
        assert "<http://nowhere.org/x>" in text

    def test_empty_graph(self):
        assert serialize_turtle(Graph()).strip() == ""

    def test_subject_grouping(self):
        text = serialize_turtle(build_graph())
        # Alice appears once as a subject block with semicolons.
        assert text.count("ex:alice\n") == 1
        assert ";" in text
