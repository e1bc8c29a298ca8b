"""Unit tests for statement reification (the paper's alignment encoding)."""

import pytest

from repro.rdf import BNode, Graph, Literal, RDF, Term, Triple, URIRef, reify

EX = "http://example.org/"


def uri(name: str) -> URIRef:
    return URIRef(EX + name)


# The reader side of reification: the product only writes reified
# statements, so these helpers check what it wrote.

class ReificationError(ValueError):
    """Raised when a reified statement description is malformed."""


def is_statement_node(graph: Graph, node: Term) -> bool:
    """True when ``node`` is typed ``rdf:Statement`` in ``graph``."""
    return Triple(node, RDF.type, RDF.Statement) in graph


def _single_value(graph: Graph, node: Term, predicate: URIRef) -> Term:
    values = list(graph.objects(node, predicate))
    if not values:
        raise ReificationError(f"reified statement {node} lacks {predicate}")
    if len(values) > 1:
        raise ReificationError(f"reified statement {node} has multiple {predicate} values")
    return values[0]


def dereify(graph: Graph, node: Term) -> Triple:
    """Reconstruct the triple described by the reification node ``node``."""
    subject = _single_value(graph, node, RDF.subject)
    predicate = _single_value(graph, node, RDF.predicate)
    obj = _single_value(graph, node, RDF.object)
    try:
        return Triple(subject, predicate, obj)
    except TypeError as exc:
        raise ReificationError(f"reified statement {node} is not a valid triple: {exc}") from exc


def dereify_all(graph: Graph) -> list[tuple[Term, Triple]]:
    """Return ``(statement_node, triple)`` for every reified statement."""
    return [(node, dereify(graph, node))
            for node in sorted(graph.subjects(RDF.type, RDF.Statement), key=lambda t: t.sort_key())]


class TestReify:
    def test_reify_produces_four_triples(self):
        graph = Graph()
        node = reify(graph, Triple(uri("s"), uri("p"), uri("o")))
        assert len(graph) == 4
        assert Triple(node, RDF.type, RDF.Statement) in graph
        assert graph.value(node, RDF.subject, None) == uri("s")
        assert graph.value(node, RDF.predicate, None) == uri("p")
        assert graph.value(node, RDF.object, None) == uri("o")

    def test_reify_returns_a_fresh_statement_node(self):
        graph = Graph()
        first = reify(graph, Triple(uri("s"), uri("p"), Literal("o")))
        second = reify(graph, Triple(uri("s"), uri("p"), Literal("o")))
        assert isinstance(first, BNode) and first != second
        assert is_statement_node(graph, first) and is_statement_node(graph, second)

    def test_reify_pattern_with_bnodes(self):
        """Alignment patterns use blank nodes in subject/object positions."""
        graph = Graph()
        node = reify(graph, Triple(BNode("p1"), uri("has-author"), BNode("a1")))
        reconstructed = dereify(graph, node)
        assert reconstructed.subject == BNode("p1")
        assert reconstructed.object == BNode("a1")


class TestDereify:
    def test_roundtrip(self):
        graph = Graph()
        original = Triple(uri("s"), uri("p"), Literal("value"))
        node = reify(graph, original)
        assert dereify(graph, node) == original

    def test_missing_component_raises(self):
        graph = Graph()
        node = uri("st")
        graph.add(Triple(node, RDF.type, RDF.Statement))
        graph.add(Triple(node, RDF.subject, uri("s")))
        graph.add(Triple(node, RDF.predicate, uri("p")))
        with pytest.raises(ReificationError):
            dereify(graph, node)

    def test_ambiguous_component_raises(self):
        graph = Graph()
        node = uri("st")
        graph.add(Triple(node, RDF.type, RDF.Statement))
        graph.add(Triple(node, RDF.subject, uri("s")))
        graph.add(Triple(node, RDF.predicate, uri("p")))
        graph.add(Triple(node, RDF.object, uri("o1")))
        graph.add(Triple(node, RDF.object, uri("o2")))
        with pytest.raises(ReificationError):
            dereify(graph, node)

    def test_invalid_reconstruction_raises(self):
        graph = Graph()
        node = uri("st")
        graph.add(Triple(node, RDF.type, RDF.Statement))
        graph.add(Triple(node, RDF.subject, uri("s")))
        graph.add(Triple(node, RDF.predicate, uri("p")))
        # A literal "predicate" cannot be dereified into a valid triple when
        # placed in the predicate slot; simulate by using a literal subject.
        graph.remove(Triple(node, RDF.subject, uri("s")))
        graph.add(Triple(node, RDF.subject, Literal("bad")))
        graph.add(Triple(node, RDF.object, uri("o")))
        with pytest.raises(ReificationError):
            dereify(graph, node)


class TestDereifyAll:
    def test_returns_every_statement(self):
        graph = Graph()
        reify(graph, Triple(uri("s1"), uri("p"), uri("o1")))
        reify(graph, Triple(uri("s2"), uri("p"), uri("o2")))
        statements = dereify_all(graph)
        assert len(statements) == 2
        assert {triple.subject for _node, triple in statements} == {uri("s1"), uri("s2")}

    def test_empty_graph(self):
        assert dereify_all(Graph()) == []

    def test_is_statement_node_negative(self):
        graph = Graph()
        graph.add(Triple(uri("x"), uri("p"), uri("o")))
        assert not is_statement_node(graph, uri("x"))
