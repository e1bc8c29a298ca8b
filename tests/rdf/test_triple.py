"""Unit tests for triples and triple patterns."""

import pytest

from repro.rdf import BNode, Literal, Triple, URIRef, Variable

EX = "http://example.org/"


def uri(name: str) -> URIRef:
    return URIRef(EX + name)


class TestTripleConstruction:
    def test_valid_ground_triple(self):
        triple = Triple(uri("s"), uri("p"), Literal("o"))
        assert triple.subject == uri("s")
        assert triple.predicate == uri("p")
        assert triple.object == Literal("o")

    def test_literal_subject_rejected(self):
        with pytest.raises(TypeError):
            Triple(Literal("bad"), uri("p"), uri("o"))

    def test_literal_predicate_rejected(self):
        with pytest.raises(TypeError):
            Triple(uri("s"), Literal("bad"), uri("o"))

    def test_bnode_predicate_rejected(self):
        with pytest.raises(TypeError):
            Triple(uri("s"), BNode("b"), uri("o"))

    def test_variable_positions_allowed(self):
        triple = Triple(Variable("s"), Variable("p"), Variable("o"))
        assert triple.variables() == {Variable("s"), Variable("p"), Variable("o")}


class TestTripleBehaviour:
    def test_iteration_and_indexing(self):
        triple = Triple(uri("s"), uri("p"), uri("o"))
        assert list(triple) == [uri("s"), uri("p"), uri("o")]
        assert triple[0] == uri("s")
        assert triple[2] == uri("o")
        assert len(triple) == 3

    def test_equality_and_hash(self):
        a = Triple(uri("s"), uri("p"), uri("o"))
        b = Triple(uri("s"), uri("p"), uri("o"))
        c = Triple(uri("s"), uri("p"), uri("other"))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a in {b}

    def test_variables(self):
        triple = Triple(Variable("x"), uri("p"), BNode("b"))
        assert triple.variables() == {Variable("x")}

    def test_map_terms(self):
        triple = Triple(Variable("x"), uri("p"), Variable("y"))
        mapped = triple.map_terms(lambda t: uri("a") if isinstance(t, Variable) else t)
        assert mapped == Triple(uri("a"), uri("p"), uri("a"))

    def test_bnodes_as_variables(self):
        triple = Triple(BNode("p1"), uri("p"), BNode("a1"))
        converted = triple.map_terms(
            lambda term: term.to_variable() if isinstance(term, BNode) else term
        )
        assert converted == Triple(Variable("p1"), uri("p"), Variable("a1"))

    def test_n3_and_str(self):
        triple = Triple(uri("s"), uri("p"), Literal("o"))
        assert triple.n3().startswith("<http://example.org/s>")
        assert str(triple).endswith(" .")

    def test_ordering(self):
        a = Triple(uri("a"), uri("p"), uri("o"))
        b = Triple(uri("b"), uri("p"), uri("o"))
        assert sorted([b, a]) == [a, b]
