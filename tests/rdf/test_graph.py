"""Unit tests for the indexed Graph."""

import pytest

from repro.rdf import Graph, Literal, RDF, Triple, URIRef, Variable

EX = "http://example.org/"


def uri(name: str) -> URIRef:
    return URIRef(EX + name)


@pytest.fixture()
def sample_graph() -> Graph:
    graph = Graph()
    graph.add(Triple(uri("alice"), RDF.type, uri("Person")))
    graph.add(Triple(uri("bob"), RDF.type, uri("Person")))
    graph.add(Triple(uri("paper1"), RDF.type, uri("Paper")))
    graph.add(Triple(uri("paper1"), uri("author"), uri("alice")))
    graph.add(Triple(uri("paper1"), uri("author"), uri("bob")))
    graph.add(Triple(uri("paper1"), uri("title"), Literal("A paper")))
    return graph


class TestMutation:
    def test_add_and_len(self, sample_graph):
        assert len(sample_graph) == 6

    def test_add_is_idempotent(self, sample_graph):
        before = len(sample_graph)
        sample_graph.add(Triple(uri("alice"), RDF.type, uri("Person")))
        assert len(sample_graph) == before

    def test_add_tuple_form(self):
        graph = Graph()
        graph.add((uri("s"), uri("p"), uri("o")))
        assert Triple(uri("s"), uri("p"), uri("o")) in graph

    def test_add_rejects_variables(self):
        graph = Graph()
        with pytest.raises(ValueError):
            graph.add(Triple(Variable("x"), uri("p"), uri("o")))

    def test_remove(self, sample_graph):
        triple = Triple(uri("paper1"), uri("title"), Literal("A paper"))
        sample_graph.remove(triple)
        assert triple not in sample_graph
        with pytest.raises(KeyError):
            sample_graph.remove(triple)

    def test_discard_missing_is_noop(self, sample_graph):
        before = len(sample_graph)
        sample_graph.discard(Triple(uri("x"), uri("y"), uri("z")))
        assert len(sample_graph) == before

    def test_remove_pattern(self, sample_graph):
        removed = sample_graph.remove_pattern(uri("paper1"), uri("author"))
        assert removed == 2
        assert not list(sample_graph.triples(uri("paper1"), uri("author"), None))

    def test_clear(self, sample_graph):
        sample_graph.clear()
        assert len(sample_graph) == 0
        assert not list(sample_graph.triples())


class TestPatternMatching:
    def test_fully_bound_lookup(self, sample_graph):
        matches = list(sample_graph.triples(uri("paper1"), uri("author"), uri("alice")))
        assert len(matches) == 1

    def test_subject_predicate_lookup(self, sample_graph):
        matches = list(sample_graph.triples(uri("paper1"), uri("author"), None))
        assert {m.object for m in matches} == {uri("alice"), uri("bob")}

    def test_predicate_object_lookup(self, sample_graph):
        matches = list(sample_graph.triples(None, RDF.type, uri("Person")))
        assert {m.subject for m in matches} == {uri("alice"), uri("bob")}

    def test_subject_object_lookup(self, sample_graph):
        matches = list(sample_graph.triples(uri("paper1"), None, uri("alice")))
        assert [m.predicate for m in matches] == [uri("author")]

    def test_single_position_lookups(self, sample_graph):
        assert len(list(sample_graph.triples(uri("paper1"), None, None))) == 4
        assert len(list(sample_graph.triples(None, uri("author"), None))) == 2
        assert len(list(sample_graph.triples(None, None, uri("Person")))) == 2

    def test_full_scan(self, sample_graph):
        assert len(list(sample_graph.triples())) == 6

    def test_variables_act_as_wildcards(self, sample_graph):
        matches = list(sample_graph.triples(Variable("s"), uri("author"), Variable("o")))
        assert len(matches) == 2

    def test_match_pattern_helper(self, sample_graph):
        pattern = Triple(Variable("s"), uri("author"), Variable("o"))
        assert len(list(sample_graph.match_pattern(pattern))) == 2

    def test_no_match_returns_empty(self, sample_graph):
        assert list(sample_graph.triples(uri("nobody"), None, None)) == []

    def test_index_consistency_after_removal(self, sample_graph):
        sample_graph.remove(Triple(uri("paper1"), uri("author"), uri("alice")))
        assert list(sample_graph.triples(None, uri("author"), uri("alice"))) == []
        assert len(list(sample_graph.triples(None, uri("author"), None))) == 1


class TestProjections:
    def test_subjects(self, sample_graph):
        assert set(sample_graph.subjects(RDF.type, uri("Person"))) == {uri("alice"), uri("bob")}

    def test_objects(self, sample_graph):
        assert set(sample_graph.objects(uri("paper1"), uri("author"))) == {uri("alice"), uri("bob")}

    def test_predicates(self, sample_graph):
        assert uri("author") in set(sample_graph.predicates(uri("paper1")))

    def test_value(self, sample_graph):
        assert sample_graph.value(uri("paper1"), uri("title")) == Literal("A paper")
        assert sample_graph.value(uri("paper1"), uri("missing")) is None
        assert sample_graph.value(uri("paper1"), uri("missing"), default=Literal("x")) == Literal("x")

    def test_value_is_one_of_the_objects(self, sample_graph):
        objects = set(sample_graph.objects(uri("paper1"), uri("author")))
        assert sample_graph.value(uri("paper1"), uri("author")) in objects

    def test_subjects_of_type(self, sample_graph):
        assert set(sample_graph.subjects_of_type(uri("Paper"))) == {uri("paper1")}


class TestStatistics:
    def test_predicate_histogram(self, sample_graph):
        histogram = sample_graph.predicate_histogram()
        assert histogram[uri("author")] == 2
        assert histogram[RDF.type] == 3

    def test_class_histogram(self, sample_graph):
        histogram = sample_graph.class_histogram()
        assert histogram[uri("Person")] == 2
        assert histogram[uri("Paper")] == 1

    def test_vocabularies(self, sample_graph):
        vocabularies = sample_graph.vocabularies()
        assert EX in vocabularies
        assert str(RDF) in vocabularies


class TestSetAlgebra:
    def test_union(self, sample_graph):
        other = Graph()
        other.add(Triple(uri("carol"), RDF.type, uri("Person")))
        combined = sample_graph + other
        assert len(combined) == len(sample_graph) + 1
        # Originals untouched.
        assert Triple(uri("carol"), RDF.type, uri("Person")) not in sample_graph

    def test_difference(self, sample_graph):
        other = Graph()
        other.add(Triple(uri("alice"), RDF.type, uri("Person")))
        difference = sample_graph - other
        assert Triple(uri("alice"), RDF.type, uri("Person")) not in difference
        assert len(difference) == len(sample_graph) - 1

    def test_intersection(self, sample_graph):
        other = Graph()
        other.add(Triple(uri("alice"), RDF.type, uri("Person")))
        other.add(Triple(uri("not"), uri("in"), uri("sample")))
        intersection = sample_graph & other
        assert len(intersection) == 1

    def test_iadd(self, sample_graph):
        sample_graph += [Triple(uri("carol"), RDF.type, uri("Person"))]
        assert Triple(uri("carol"), RDF.type, uri("Person")) in sample_graph

    def test_copy_independent(self, sample_graph):
        clone = sample_graph.copy()
        clone.add(Triple(uri("new"), uri("p"), uri("o")))
        assert len(clone) == len(sample_graph) + 1

    def test_equality_is_set_equality(self, sample_graph):
        assert sample_graph == sample_graph.copy()
        assert sample_graph != Graph()


class TestSerialisationHooks:
    def test_turtle_roundtrip_via_graph_methods(self, sample_graph):
        text = sample_graph.serialize(format="turtle")
        parsed = Graph.parse(text, format="turtle")
        assert parsed == sample_graph

    def test_ntriples_roundtrip_via_graph_methods(self, sample_graph):
        text = sample_graph.serialize(format="ntriples")
        parsed = Graph.parse(text, format="ntriples")
        assert parsed == sample_graph
