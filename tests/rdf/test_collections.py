"""Unit tests for rdf:List helpers (used by FD parameter lists)."""

import pytest

from repro.rdf import (
    CollectionError,
    Graph,
    Literal,
    RDF,
    Triple,
    URIRef,
    build_list,
    read_list,
)

EX = "http://example.org/"


def uri(name: str) -> URIRef:
    return URIRef(EX + name)


class TestBuildList:
    def test_empty_list_is_nil(self):
        graph = Graph()
        assert build_list(graph, []) == RDF.nil
        assert len(graph) == 0

    def test_single_item(self):
        graph = Graph()
        head = build_list(graph, [Literal("only")])
        assert read_list(graph, head) == [Literal("only")]

    def test_multiple_items_preserve_order(self):
        graph = Graph()
        items = [uri("a"), Literal("b"), uri("c")]
        head = build_list(graph, items)
        assert read_list(graph, head) == items

    def test_list_structure_size(self):
        graph = Graph()
        build_list(graph, [uri("a"), uri("b")])
        # Two rdf:first + two rdf:rest arcs.
        assert len(graph) == 4


class TestReadList:
    def test_read_nil(self):
        assert read_list(Graph(), RDF.nil) == []

    def test_missing_first_raises(self):
        graph = Graph()
        node = uri("broken")
        graph.add(Triple(node, RDF.rest, RDF.nil))
        with pytest.raises(CollectionError):
            read_list(graph, node)

    def test_missing_rest_raises(self):
        graph = Graph()
        node = uri("broken")
        graph.add(Triple(node, RDF.first, Literal("x")))
        with pytest.raises(CollectionError):
            read_list(graph, node)

    def test_cyclic_list_raises(self):
        graph = Graph()
        a, b = uri("a"), uri("b")
        graph.add(Triple(a, RDF.first, Literal("1")))
        graph.add(Triple(a, RDF.rest, b))
        graph.add(Triple(b, RDF.first, Literal("2")))
        graph.add(Triple(b, RDF.rest, a))
        with pytest.raises(CollectionError):
            read_list(graph, a)


def is_list_node(graph: Graph, node) -> bool:
    """True when ``node`` is ``rdf:nil`` or carries an ``rdf:first`` arc."""
    return node == RDF.nil or graph.value(node, RDF.first, None) is not None


class TestIsListNode:
    def test_nil_is_a_list(self):
        assert is_list_node(Graph(), RDF.nil)

    def test_head_node_is_a_list(self):
        graph = Graph()
        head = build_list(graph, [uri("x")])
        assert is_list_node(graph, head)

    def test_random_node_is_not_a_list(self):
        graph = Graph()
        graph.add(Triple(uri("a"), uri("p"), uri("b")))
        assert not is_list_node(graph, uri("a"))
