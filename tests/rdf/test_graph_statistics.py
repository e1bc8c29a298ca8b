"""Incremental graph statistics and exact cardinality answers."""

from __future__ import annotations

import pytest

from repro.rdf import RDF, Graph, Literal, Triple, URIRef, Variable


def u(name: str) -> URIRef:
    return URIRef(f"http://stats.example/{name}")


@pytest.fixture()
def graph() -> Graph:
    g = Graph()
    g.add(Triple(u("a"), RDF.type, u("Person")))
    g.add(Triple(u("b"), RDF.type, u("Person")))
    g.add(Triple(u("c"), RDF.type, u("Robot")))
    g.add(Triple(u("a"), u("knows"), u("b")))
    g.add(Triple(u("a"), u("knows"), u("c")))
    g.add(Triple(u("b"), u("name"), Literal("b")))
    return g


def _brute_count(graph: Graph, s, p, o) -> int:
    return sum(1 for _ in graph.triples(s, p, o))


def test_counters_track_adds(graph: Graph) -> None:
    stats = graph.stats
    assert stats.subject_counts[u("a")] == 3
    assert stats.predicate_counts[RDF.type] == 3
    assert stats.predicate_counts[u("knows")] == 2
    assert stats.object_counts[u("Person")] == 2
    assert stats.class_counts == {u("Person"): 2, u("Robot"): 1}


def test_counters_track_removals(graph: Graph) -> None:
    graph.discard(Triple(u("a"), RDF.type, u("Person")))
    stats = graph.stats
    assert stats.subject_counts[u("a")] == 2
    assert stats.class_counts[u("Person")] == 1
    graph.discard(Triple(u("b"), RDF.type, u("Person")))
    assert u("Person") not in stats.class_counts
    assert u("Person") not in stats.object_counts


def test_duplicate_add_does_not_double_count(graph: Graph) -> None:
    before = dict(graph.stats.predicate_counts)
    graph.add(Triple(u("a"), u("knows"), u("b")))
    assert graph.stats.predicate_counts == before


def test_clear_resets_statistics(graph: Graph) -> None:
    graph.clear()
    assert graph.stats.subject_counts == {}
    assert graph.stats.class_counts == {}
    assert graph.cardinality(None, None, None) == 0


def test_cardinality_is_exact_for_every_pattern_shape(graph: Graph) -> None:
    terms = [None, u("a"), u("b"), RDF.type, u("knows"), u("Person"), Literal("b")]
    for s in terms:
        for p in terms:
            for o in terms:
                assert graph.cardinality(s, p, o) == _brute_count(graph, s, p, o), (s, p, o)


def test_variables_act_as_wildcards(graph: Graph) -> None:
    assert graph.cardinality(Variable("x"), RDF.type, Variable("y")) == 3


def test_invalid_positions_match_nothing(graph: Graph) -> None:
    # A variable bound to a literal can end up as a subject/predicate lookup;
    # that must count (and match) zero, not crash.
    assert graph.cardinality(Literal("b"), None, None) == 0
    assert graph.cardinality(None, Literal("b"), None) == 0
    assert list(graph.triples(Literal("b"), None, None)) == []
    assert list(graph.triples(u("a"), Literal("b"), u("b"))) == []


def test_histograms_come_from_statistics(graph: Graph) -> None:
    assert dict(graph.stats.predicate_counts) == {
        RDF.type: 3, u("knows"): 2, u("name"): 1,
    }
    assert dict(graph.stats.class_counts) == {u("Person"): 2, u("Robot"): 1}


def test_readonly_view_forwards_cardinality(graph: Graph) -> None:
    from repro.rdf import GraphView

    view = GraphView(graph)
    assert view.cardinality(None, RDF.type, None) == 3
    assert view.stats is graph.stats
