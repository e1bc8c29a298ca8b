"""Wire formats: golden files, negotiation, strict term serialisation."""

from pathlib import Path

import pytest

from repro.rdf import BNode, Literal, URIRef, Variable, XSD
from repro.sparql import AskResult, Binding, ResultSet, TermSerializationError
from repro.sparql.formats import (
    FormatError,
    negotiate,
    negotiate_graph,
    parse_results,
    term_from_json,
    write_results,
)
from repro.sparql.results import _term_to_json as term_to_json

GOLDEN_DIR = Path(__file__).parent / "golden"


def read_golden(name: str) -> str:
    """Golden file text, byte-faithful (CSV line endings are \\r\\n)."""
    return (GOLDEN_DIR / name).read_bytes().decode("utf-8")


def golden_result_set() -> ResultSet:
    """A small result set exercising every term kind and an unbound cell."""
    s, label, count = Variable("s"), Variable("label"), Variable("count")
    return ResultSet(
        [s, label, count],
        [
            Binding({
                s: URIRef("http://example.org/alpha"),
                label: Literal("Alpha", lang="en"),
                count: Literal(3),
            }),
            Binding({
                s: BNode("node1"),
                label: Literal('say "hi",\tok'),
            }),
            Binding({
                s: URIRef("http://example.org/beta"),
                count: Literal("2.5", datatype=XSD.decimal),
            }),
        ],
    )


class TestGoldenFiles:
    """Each format's output is pinned byte-for-byte and parses back."""

    @pytest.mark.parametrize("format_name", ["json", "xml", "csv", "tsv"])
    def test_select_matches_golden(self, format_name):
        expected = read_golden(f"select.{format_name}")
        assert write_results(golden_result_set(), format_name) == expected

    @pytest.mark.parametrize("format_name", ["json", "xml", "tsv"])
    def test_select_golden_parses_back_losslessly(self, format_name):
        text = read_golden(f"select.{format_name}")
        parsed = parse_results(text, format_name)
        reference = golden_result_set()
        assert parsed.variables == reference.variables
        assert parsed.bindings == reference.bindings

    def test_select_golden_csv_is_value_faithful(self):
        text = read_golden("select.csv")
        parsed = parse_results(text, "csv")
        # CSV is lossy by specification; re-serialising the parse must be a
        # fixed point (same cells), even though term kinds are gone.
        assert write_results(parsed, "csv") == text

    @pytest.mark.parametrize("format_name", ["json", "xml"])
    def test_ask_matches_golden_and_round_trips(self, format_name):
        expected = read_golden(f"ask.{format_name}")
        assert write_results(AskResult(True), format_name) == expected
        assert parse_results(expected, format_name) == AskResult(True)


class TestAskRestrictions:
    @pytest.mark.parametrize("format_name", ["csv", "tsv"])
    def test_ask_has_no_tabular_encoding(self, format_name):
        with pytest.raises(FormatError):
            write_results(AskResult(True), format_name)

    def test_table_format_renders_ask(self):
        assert write_results(AskResult(False), "table") == "False\n"


class TestStrictTermSerialisation:
    """The _term_to_json fix: unknown terms raise instead of lying."""

    def test_variable_in_binding_raises_typed_error(self):
        with pytest.raises(TermSerializationError):
            term_to_json(Variable("leaked"))

    def test_json_writer_propagates_the_error(self):
        v = Variable("x")
        poisoned = ResultSet([v], [Binding({v: Variable("leaked")})])
        with pytest.raises(TermSerializationError):
            write_results(poisoned, "json")

    @pytest.mark.parametrize("format_name", ["xml", "csv", "tsv"])
    def test_other_writers_propagate_the_error(self, format_name):
        v = Variable("x")
        poisoned = ResultSet([v], [Binding({v: Variable("leaked")})])
        with pytest.raises(TermSerializationError):
            write_results(poisoned, format_name)

    def test_term_from_json_rejects_unknown_types(self):
        with pytest.raises(FormatError):
            term_from_json({"type": "unknown", "value": "x"})

    def test_term_from_json_accepts_legacy_typed_literal(self):
        term = term_from_json({
            "type": "typed-literal", "value": "5",
            "datatype": str(XSD.integer),
        })
        assert term == Literal(5)


class TestNegotiation:
    def test_default_without_header(self):
        assert negotiate(None) == "json"
        assert negotiate("") == "json"
        assert negotiate("*/*") == "json"

    def test_exact_media_types(self):
        assert negotiate("application/sparql-results+xml") == "xml"
        assert negotiate("text/csv") == "csv"
        assert negotiate("text/tab-separated-values") == "tsv"
        assert negotiate("application/json") == "json"

    def test_quality_weights_order_preferences(self):
        assert negotiate("text/csv;q=0.5, application/sparql-results+json") == "json"
        assert negotiate("text/csv;q=0.9, application/sparql-results+xml;q=0.1") == "csv"

    def test_zero_quality_is_a_refusal(self):
        assert negotiate("text/csv;q=0") is None

    def test_unsupported_returns_none(self):
        assert negotiate("image/png") is None

    def test_allowed_restricts_candidates(self):
        assert negotiate("text/csv", allowed=("json", "xml")) is None
        assert negotiate("application/json", allowed=("json", "xml")) == "json"

    def test_type_wildcard(self):
        assert negotiate("text/*") in ("csv", "tsv", "xml")

    def test_graph_negotiation(self):
        assert negotiate_graph(None) == "turtle"
        assert negotiate_graph("application/n-triples") == "ntriples"
        assert negotiate_graph("text/turtle") == "turtle"
        assert negotiate_graph("image/png") is None


class TestParserErrors:
    def test_malformed_json(self):
        with pytest.raises(FormatError):
            parse_results("{not json", "json")

    def test_json_missing_head(self):
        with pytest.raises(FormatError):
            parse_results('{"results": {"bindings": []}}', "json")

    def test_malformed_xml(self):
        with pytest.raises(FormatError):
            parse_results("<sparql", "xml")

    def test_tsv_header_must_be_variables(self):
        with pytest.raises(FormatError):
            parse_results("a\tb\n", "tsv")

    def test_tsv_row_wider_than_header(self):
        with pytest.raises(FormatError):
            parse_results('?a\n<http://x.org/1>\t<http://x.org/2>\n', "tsv")

    def test_unknown_format(self):
        with pytest.raises(FormatError):
            parse_results("", "yaml")
        with pytest.raises(FormatError):
            write_results(golden_result_set(), "yaml")
