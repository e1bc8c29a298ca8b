"""Unit tests for the N-Triples reader/writer."""

import pytest

from repro.rdf import BNode, Literal, Triple, URIRef, XSD
from repro.turtle import NTriplesError, iter_ntriples, parse_ntriples, serialize_ntriples
from repro.turtle.ntriples import escape, unescape
from tests.isomorphism import isomorphic


class TestParsing:
    def test_simple_triple(self):
        graph = parse_ntriples(
            "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n"
        )
        assert len(graph) == 1
        assert Triple(URIRef("http://ex.org/s"), URIRef("http://ex.org/p"),
                      URIRef("http://ex.org/o")) in graph

    def test_plain_literal(self):
        graph = parse_ntriples('<http://ex.org/s> <http://ex.org/p> "hello" .')
        assert list(graph)[0].object == Literal("hello")

    def test_language_literal(self):
        graph = parse_ntriples('<http://ex.org/s> <http://ex.org/p> "hallo"@de .')
        assert list(graph)[0].object == Literal("hallo", lang="de")

    def test_typed_literal(self):
        graph = parse_ntriples(
            '<http://ex.org/s> <http://ex.org/p> '
            '"5"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        )
        assert list(graph)[0].object == Literal("5", datatype=XSD.integer)

    def test_blank_nodes(self):
        graph = parse_ntriples("_:a <http://ex.org/p> _:b .")
        triple = list(graph)[0]
        assert triple.subject == BNode("a")
        assert triple.object == BNode("b")

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\n<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n"
        assert len(parse_ntriples(text)) == 1

    def test_escaped_quotes_and_newlines(self):
        graph = parse_ntriples(r'<http://ex.org/s> <http://ex.org/p> "say \"hi\"\n" .')
        assert list(graph)[0].object.lexical == 'say "hi"\n'

    def test_missing_dot_raises(self):
        with pytest.raises(NTriplesError):
            parse_ntriples("<http://ex.org/s> <http://ex.org/p> <http://ex.org/o>")

    def test_wrong_term_count_raises(self):
        with pytest.raises(NTriplesError):
            parse_ntriples("<http://ex.org/s> <http://ex.org/p> .")

    def test_literal_subject_raises(self):
        with pytest.raises(NTriplesError):
            parse_ntriples('"bad" <http://ex.org/p> <http://ex.org/o> .')

    def test_bnode_predicate_raises(self):
        with pytest.raises(NTriplesError):
            parse_ntriples("<http://ex.org/s> _:p <http://ex.org/o> .")

    def test_unterminated_literal_raises(self):
        with pytest.raises(NTriplesError):
            parse_ntriples('<http://ex.org/s> <http://ex.org/p> "oops .')

    def test_iter_ntriples_is_lazy(self):
        lines = "\n".join(
            f"<http://ex.org/s{i}> <http://ex.org/p> <http://ex.org/o> ." for i in range(5)
        )
        iterator = iter_ntriples(lines)
        assert next(iterator).subject == URIRef("http://ex.org/s0")
        assert sum(1 for _ in iterator) == 4


class TestSerialisation:
    def test_roundtrip(self):
        triples = [
            Triple(URIRef("http://ex.org/s"), URIRef("http://ex.org/p"), Literal("x", lang="en")),
            Triple(URIRef("http://ex.org/s"), URIRef("http://ex.org/q"),
                   Literal("7", datatype=XSD.integer)),
            Triple(BNode("b"), URIRef("http://ex.org/p"), URIRef("http://ex.org/o")),
        ]
        text = serialize_ntriples(triples)
        parsed = parse_ntriples(text)
        assert isomorphic(parsed, triples)

    def test_output_is_sorted_and_terminated(self):
        triples = [
            Triple(URIRef("http://ex.org/b"), URIRef("http://ex.org/p"), Literal("2")),
            Triple(URIRef("http://ex.org/a"), URIRef("http://ex.org/p"), Literal("1")),
        ]
        text = serialize_ntriples(triples)
        lines = text.strip().splitlines()
        assert lines[0].startswith("<http://ex.org/a>")
        assert all(line.endswith(".") for line in lines)

    def test_empty_input(self):
        assert serialize_ntriples([]) == ""


class TestEscaping:
    def test_escape_unescape_inverse(self):
        original = 'tab\t newline\n quote" backslash\\'
        assert unescape(escape(original)) == original

    def test_unicode_escapes(self):
        assert unescape("\\u00e9") == "é"
        assert unescape("\\U0001F600") == "😀"

    def test_unknown_escape_preserved(self):
        # The paper's alignment listing contains "\S*" inside a literal.
        assert unescape(r"http://kisti.rkbexplorer.com/id/\S*") == r"http://kisti.rkbexplorer.com/id/\S*"
