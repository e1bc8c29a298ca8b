"""Unit tests for the SPARQL tokenizer."""

import pytest

from repro.sparql import SparqlLexError, tokenize_sparql


def kinds(text: str):
    return [token.kind for token in tokenize_sparql(text)]


def values(text: str, kind: str):
    return [token.value for token in tokenize_sparql(text) if token.kind == kind]


class TestTokenKinds:
    def test_keywords_case_insensitive(self):
        tokens = tokenize_sparql("select Distinct WHERE filter OPTIONAL union")
        assert [t.value for t in tokens[:-1]] == [
            "SELECT", "DISTINCT", "WHERE", "FILTER", "OPTIONAL", "UNION",
        ]
        assert all(t.kind == "KEYWORD" for t in tokens[:-1])

    def test_variables_both_sigils(self):
        assert values("?x $y ?longName42", "VAR") == ["?x", "$y", "?longName42"]

    def test_iri_and_pname(self):
        tokens = tokenize_sparql("<http://ex.org/x> akt:has-author :bare")
        assert tokens[0].kind == "IRIREF"
        assert tokens[1].kind == "PNAME" and tokens[1].value == "akt:has-author"
        assert tokens[2].kind == "PNAME" and tokens[2].value == ":bare"

    def test_pname_does_not_swallow_statement_dot(self):
        tokens = tokenize_sparql("ex:thing. }")
        assert tokens[0].value == "ex:thing"
        assert tokens[1].kind == "DOT"

    def test_numbers(self):
        assert kinds("42 -7 3.14 1.0e6")[:-1] == ["INTEGER", "INTEGER", "DECIMAL", "DOUBLE"]

    def test_strings_with_lang_and_datatype(self):
        tokens = tokenize_sparql('"hi"@en "5"^^xsd:integer \'\'\'long\ntext\'\'\'')
        assert tokens[0].kind == "STRING"
        assert tokens[1].kind == "LANGTAG"
        assert tokens[2].kind == "STRING"
        assert tokens[3].kind == "DATATYPE_MARKER"
        assert tokens[5].kind == "STRING"

    def test_operators(self):
        expected = ["NEQ", "LE", "GE", "AND", "OR", "EQ", "BANG", "LT", "GT",
                    "PLUS", "MINUS", "STAR", "SLASH"]
        assert kinds("!= <= >= && || = ! < > + - * /")[:-1] == expected

    def test_punctuation(self):
        assert kinds("{ } ( ) [ ] ; , .")[:-1] == [
            "LBRACE", "RBRACE", "LPAREN", "RPAREN", "LBRACKET", "RBRACKET",
            "SEMICOLON", "COMMA", "DOT",
        ]

    def test_blank_node(self):
        assert values("_:b1 _:anon.x", "BLANK_NODE") == ["_:b1", "_:anon.x"]

    def test_comments_skipped(self):
        assert kinds("?x # a comment\n?y")[:-1] == ["VAR", "VAR"]

    def test_a_keyword_vs_word(self):
        tokens = tokenize_sparql("a abc")
        assert tokens[0].kind == "KEYWORD" and tokens[0].value == "A"
        assert tokens[1].kind == "WORD"

    def test_line_and_column_tracking(self):
        tokens = tokenize_sparql("SELECT ?x\nWHERE { ?x ?p ?o }")
        where = next(t for t in tokens if t.value == "WHERE")
        assert where.line == 2
        assert where.column == 1

    def test_only_long_strings_span_lines(self):
        # The long forms carry the line count across their newlines ...
        tokens = tokenize_sparql('?a """one\ntwo\n  three""" ?b\n\'\'\'x\ny\'\'\' ?c')
        long, after, single, last = tokens[1], tokens[2], tokens[3], tokens[4]
        assert (long.kind, long.line, long.column) == ("STRING", 1, 4)
        assert (long.end_line, long.end_column) == (3, 11)
        assert (after.value, after.line, after.column) == ("?b", 3, 12)
        assert (single.kind, single.line, single.end_line, single.end_column) == ("STRING", 4, 5, 5)
        assert (last.value, last.line, last.column) == ("?c", 5, 6)
        # ... the short forms stop at the end of the line, escapes included.
        for text in ('?a "one\ntwo"', "?a 'one\ntwo'", '?a "one\\\ntwo"'):
            with pytest.raises(SparqlLexError) as error:
                tokenize_sparql(text)
            assert (error.value.line, error.value.column) == (1, 4)

    def test_eof_always_last(self):
        assert tokenize_sparql("")[-1].kind == "EOF"
        assert tokenize_sparql("SELECT")[-1].kind == "EOF"

    def test_unexpected_character_raises(self):
        with pytest.raises(SparqlLexError):
            tokenize_sparql("SELECT § WHERE")

    def test_iriref_not_confused_with_less_than(self):
        tokens = tokenize_sparql("FILTER (?x < 5)")
        assert "LT" in [t.kind for t in tokens]
        tokens = tokenize_sparql("?s <http://ex.org/p> ?o")
        assert tokens[1].kind == "IRIREF"
