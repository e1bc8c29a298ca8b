"""Unit tests for blank-node-aware graph comparison."""

from repro.rdf import (
    BNode,
    Graph,
    Literal,
    Triple,
    URIRef,
)
from tests.isomorphism import canonical_hash, isomorphic

EX = "http://example.org/"


def uri(name: str) -> URIRef:
    return URIRef(EX + name)


def graph_of(*triples: Triple) -> Graph:
    graph = Graph()
    graph.add_all(triples)
    return graph


class TestIsomorphic:
    def test_identical_ground_graphs(self):
        a = graph_of(Triple(uri("s"), uri("p"), uri("o")))
        b = graph_of(Triple(uri("s"), uri("p"), uri("o")))
        assert isomorphic(a, b)

    def test_different_ground_graphs(self):
        a = graph_of(Triple(uri("s"), uri("p"), uri("o")))
        b = graph_of(Triple(uri("s"), uri("p"), uri("other")))
        assert not isomorphic(a, b)

    def test_different_sizes(self):
        a = graph_of(Triple(uri("s"), uri("p"), uri("o")))
        b = Graph()
        assert not isomorphic(a, b)

    def test_bnode_renaming_is_isomorphic(self):
        a = graph_of(
            Triple(BNode("x"), uri("p"), uri("o")),
            Triple(BNode("x"), uri("q"), Literal("v")),
        )
        b = graph_of(
            Triple(BNode("y"), uri("p"), uri("o")),
            Triple(BNode("y"), uri("q"), Literal("v")),
        )
        assert isomorphic(a, b)

    def test_bnode_structure_mismatch(self):
        # One graph uses the same bnode twice, the other two different bnodes.
        a = graph_of(
            Triple(BNode("x"), uri("p"), uri("o1")),
            Triple(BNode("x"), uri("p"), uri("o2")),
        )
        b = graph_of(
            Triple(BNode("y"), uri("p"), uri("o1")),
            Triple(BNode("z"), uri("p"), uri("o2")),
        )
        assert not isomorphic(a, b)

    def test_chained_bnodes(self):
        a = graph_of(
            Triple(uri("s"), uri("p"), BNode("a")),
            Triple(BNode("a"), uri("q"), BNode("b")),
            Triple(BNode("b"), uri("r"), Literal("end")),
        )
        b = graph_of(
            Triple(uri("s"), uri("p"), BNode("n1")),
            Triple(BNode("n1"), uri("q"), BNode("n2")),
            Triple(BNode("n2"), uri("r"), Literal("end")),
        )
        assert isomorphic(a, b)

    def test_swapped_chain_not_isomorphic(self):
        a = graph_of(
            Triple(uri("s"), uri("p"), BNode("a")),
            Triple(BNode("a"), uri("q"), Literal("one")),
        )
        b = graph_of(
            Triple(uri("s"), uri("p"), BNode("a")),
            Triple(BNode("a"), uri("q"), Literal("two")),
        )
        assert not isomorphic(a, b)

    def test_accepts_plain_triple_lists(self):
        triples = [Triple(uri("s"), uri("p"), BNode("x"))]
        other = [Triple(uri("s"), uri("p"), BNode("y"))]
        assert isomorphic(triples, other)

    def test_parallel_bnodes_same_signature(self):
        """Two interchangeable bnodes still admit a correct bijection."""
        a = graph_of(
            Triple(uri("s"), uri("p"), BNode("x")),
            Triple(uri("s"), uri("p"), BNode("y")),
        )
        b = graph_of(
            Triple(uri("s"), uri("p"), BNode("u")),
            Triple(uri("s"), uri("p"), BNode("v")),
        )
        assert isomorphic(a, b)


class TestCanonicalHash:
    def test_hash_invariant_under_renaming(self):
        a = graph_of(
            Triple(BNode("x"), uri("p"), uri("o")),
            Triple(BNode("x"), uri("q"), Literal("v")),
        )
        b = graph_of(
            Triple(BNode("renamed"), uri("p"), uri("o")),
            Triple(BNode("renamed"), uri("q"), Literal("v")),
        )
        assert canonical_hash(a) == canonical_hash(b)

    def test_hash_differs_for_different_graphs(self):
        a = graph_of(Triple(uri("s"), uri("p"), uri("o1")))
        b = graph_of(Triple(uri("s"), uri("p"), uri("o2")))
        assert canonical_hash(a) != canonical_hash(b)
