"""Unit tests for the RDF term model."""

import pytest
from decimal import Decimal

from repro.rdf import (
    BNode,
    Literal,
    URIRef,
    Variable,
    XSD,
    fresh_bnode,
    is_ground,
    is_variable_like,
    reset_bnode_counter,
)
from repro.rdf.terms import resolve_relative


class TestURIRef:
    def test_value_and_str(self):
        uri = URIRef("http://example.org/thing")
        assert str(uri) == "http://example.org/thing"
        assert uri.value == "http://example.org/thing"

    def test_n3_form(self):
        assert URIRef("http://example.org/x").n3() == "<http://example.org/x>"

    def test_equality_and_hash(self):
        assert URIRef("http://a") == URIRef("http://a")
        assert URIRef("http://a") != URIRef("http://b")
        assert hash(URIRef("http://a")) == hash(URIRef("http://a"))

    def test_uri_not_equal_to_literal_with_same_text(self):
        assert URIRef("http://a") != Literal("http://a")

    def test_invalid_characters_rejected(self):
        with pytest.raises(ValueError):
            URIRef("http://example.org/has space")
        with pytest.raises(ValueError):
            URIRef("<http://example.org/x>")

    def test_namespace_split_hash(self):
        ns, local = URIRef("http://ex.org/onto#Person").namespace_split()
        assert ns == "http://ex.org/onto#"
        assert local == "Person"

    def test_namespace_split_slash(self):
        ns, local = URIRef("http://ex.org/data/person-1").namespace_split()
        assert ns == "http://ex.org/data/"
        assert local == "person-1"

    def test_startswith(self):
        assert URIRef("http://ex.org/x").startswith("http://ex.org/")
        assert not URIRef("http://ex.org/x").startswith("https://")

    def test_base_resolution(self):
        assert URIRef("person", base="http://ex.org/data/") == URIRef("http://ex.org/data/person")
        assert URIRef("#frag", base="http://ex.org/doc") == URIRef("http://ex.org/doc#frag")
        assert URIRef("http://other.org/x", base="http://ex.org/") == URIRef("http://other.org/x")


class TestResolveRelative:
    def test_absolute_path(self):
        assert resolve_relative("http://ex.org/a/b", "/c") == "http://ex.org/c"

    def test_relative_path(self):
        assert resolve_relative("http://ex.org/a/b", "c") == "http://ex.org/a/c"

    def test_scheme_relative(self):
        assert resolve_relative("https://ex.org/a", "//other.org/b") == "https://other.org/b"

    def test_empty_reference(self):
        assert resolve_relative("http://ex.org/a", "") == "http://ex.org/a"


class TestLiteral:
    def test_plain_literal(self):
        literal = Literal("hello")
        assert literal.lexical == "hello"
        assert literal.lang is None
        assert literal.datatype is None
        assert literal.n3() == '"hello"'

    def test_language_literal(self):
        literal = Literal("bonjour", lang="FR")
        assert literal.lang == "fr"
        assert literal.n3() == '"bonjour"@fr'

    def test_integer_inference(self):
        literal = Literal(42)
        assert literal.datatype == XSD.integer
        assert literal.to_python() == 42

    def test_float_inference(self):
        literal = Literal(3.5)
        assert literal.datatype == XSD.double
        assert literal.to_python() == pytest.approx(3.5)

    def test_boolean_inference(self):
        assert Literal(True).lexical == "true"
        assert Literal(False).to_python() is False

    def test_decimal_inference(self):
        literal = Literal(Decimal("10.25"))
        assert literal.datatype == XSD.decimal
        assert literal.to_python() == Decimal("10.25")

    def test_lang_and_datatype_conflict(self):
        with pytest.raises(ValueError):
            Literal("x", lang="en", datatype=XSD.string)

    def test_malformed_language_tag(self):
        with pytest.raises(ValueError):
            Literal("x", lang="not a tag")

    def test_equality_includes_datatype_and_lang(self):
        assert Literal("1") != Literal("1", datatype=XSD.integer)
        assert Literal("a", lang="en") != Literal("a", lang="de")
        assert Literal("a", lang="en") == Literal("a", lang="EN")

    def test_malformed_numeric_falls_back_to_string(self):
        literal = Literal("not-a-number", datatype=XSD.integer)
        assert literal.to_python() == "not-a-number"

    def test_n3_escaping(self):
        literal = Literal('say "hi"\nplease')
        assert '\\"' in literal.n3()
        assert "\\n" in literal.n3()

    def test_is_numeric(self):
        assert Literal(1).is_numeric()
        assert Literal("1", datatype=XSD.double).is_numeric()
        assert not Literal("1").is_numeric()


class TestBNode:
    def test_label_normalisation(self):
        assert BNode("_:b1") == BNode("b1")
        assert BNode("b1").n3() == "_:b1"

    def test_auto_label(self):
        reset_bnode_counter()
        node = BNode()
        assert node.value

    def test_fresh_bnode_unique(self):
        reset_bnode_counter()
        assert fresh_bnode() != fresh_bnode()

    def test_malformed_label(self):
        with pytest.raises(ValueError):
            BNode("has space")

    def test_to_variable(self):
        assert BNode("p1").to_variable() == Variable("p1")


class TestVariable:
    def test_name_normalisation(self):
        assert Variable("?x") == Variable("x") == Variable("$x")
        assert Variable("x").n3() == "?x"
        assert Variable("x").name == "x"

    def test_malformed_name(self):
        with pytest.raises(ValueError):
            Variable("")
        with pytest.raises(ValueError):
            Variable("a b")

    def test_variable_not_equal_to_bnode(self):
        assert Variable("x") != BNode("x")


class TestTermPredicates:
    def test_is_ground(self):
        assert is_ground(URIRef("http://x"))
        assert is_ground(Literal("x"))
        assert not is_ground(BNode("b"))
        assert not is_ground(Variable("v"))

    def test_is_variable_like(self):
        assert is_variable_like(Variable("v"))
        assert is_variable_like(BNode("b"))
        assert not is_variable_like(URIRef("http://x"))
        assert not is_variable_like(Literal("x"))

    def test_total_ordering_across_kinds(self):
        terms = [Literal("z"), URIRef("http://a"), Variable("v"), BNode("b")]
        ordered = sorted(terms)
        # Variables sort first, then URIs, then bnodes, then literals.
        assert isinstance(ordered[0], Variable)
        assert isinstance(ordered[-1], Literal)
