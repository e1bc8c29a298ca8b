"""SPARQL query-result wire formats: writers, parsers, content negotiation.

The W3C SPARQL 1.1 Protocol transports SELECT/ASK results in one of four
result formats (JSON, XML, CSV, TSV) and CONSTRUCT results as an RDF
document (Turtle or N-Triples here).  This module generalises
:meth:`ResultSet.to_json_dict` into symmetric *writer/parser* pairs for
every format, so the HTTP server and the HTTP endpoint client can exchange
result sets without loss:

* JSON — ``application/sparql-results+json`` (lossless),
* XML — ``application/sparql-results+xml`` (lossless),
* TSV — ``text/tab-separated-values`` with N-Triples-encoded terms
  (lossless),
* CSV — ``text/csv`` with plain value strings (lossy *by specification*:
  a URI and a string literal with the same characters are
  indistinguishable; parsing yields plain literals).

ASK results round-trip through JSON and XML only — the W3C CSV/TSV result
formats do not define a boolean encoding, and inventing one would collide
with a single-column SELECT result.

:func:`negotiate` implements the ``Accept``-header side of the protocol,
mapping media ranges (with ``q`` weights) onto format names.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ElementTree
from collections.abc import Mapping, Sequence

from ..rdf import BNode, Literal, Term, URIRef, Variable
from .results import AskResult, Binding, ResultSet, TermSerializationError

__all__ = [
    "FormatError",
    "RESULT_MEDIA_TYPES",
    "ASK_MEDIA_TYPES",
    "GRAPH_MEDIA_TYPES",
    "negotiate",
    "write_results",
    "parse_results",
    "write_json",
    "write_xml",
    "write_csv",
    "write_tsv",
    "parse_json",
    "parse_xml",
    "parse_csv",
    "parse_tsv",
    "write_graph",
    "read_graph",
    "term_from_json",
]

#: XML namespace of the SPARQL results vocabulary.
SPARQL_RESULTS_NS = "http://www.w3.org/2005/sparql-results#"

#: Canonical media type served per SELECT result format.
RESULT_MEDIA_TYPES: dict[str, str] = {
    "json": "application/sparql-results+json",
    "xml": "application/sparql-results+xml",
    "csv": "text/csv",
    "tsv": "text/tab-separated-values",
}

#: Formats able to carry an ASK (boolean) result.
ASK_MEDIA_TYPES: dict[str, str] = {
    "json": RESULT_MEDIA_TYPES["json"],
    "xml": RESULT_MEDIA_TYPES["xml"],
}

#: Canonical media type served per CONSTRUCT graph format.
GRAPH_MEDIA_TYPES: dict[str, str] = {
    "turtle": "text/turtle",
    "ntriples": "application/n-triples",
}

#: Accepted media ranges (exact match, lower-cased) → format name.
_RESULT_ALIASES: dict[str, str] = {
    "application/sparql-results+json": "json",
    "application/json": "json",
    "application/sparql-results+xml": "xml",
    "application/xml": "xml",
    "text/xml": "xml",
    "text/csv": "csv",
    "text/tab-separated-values": "tsv",
}

_GRAPH_ALIASES: dict[str, str] = {
    "text/turtle": "turtle",
    "application/x-turtle": "turtle",
    "application/n-triples": "ntriples",
    "text/plain": "ntriples",
}


class FormatError(ValueError):
    """A result document (or format name) is malformed or unsupported."""


# --------------------------------------------------------------------------- #
# Content negotiation
# --------------------------------------------------------------------------- #
def _parse_accept(header: str) -> list[tuple[str, float]]:
    """``Accept`` media ranges as (type, q) pairs, highest preference first."""
    ranges: list[tuple[str, float, int]] = []
    for position, part in enumerate(header.split(",")):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(";")
        media = pieces[0].strip().lower()
        quality = 1.0
        for parameter in pieces[1:]:
            parameter = parameter.strip()
            if parameter.startswith("q="):
                try:
                    quality = float(parameter[2:])
                except ValueError:
                    quality = 0.0
        ranges.append((media, quality, position))
    # Sort by q descending; ties keep the header's order (stable positions).
    ranges.sort(key=lambda entry: (-entry[1], entry[2]))
    return [(media, quality) for media, quality, _ in ranges]


def negotiate(
    accept: str | None,
    aliases: Mapping[str, str] | None = None,
    default: str = "json",
    allowed: Sequence[str] | None = None,
) -> str | None:
    """Pick a result format for an ``Accept`` header.

    Returns the format name for the client's most-preferred supported media
    range, ``default`` for a missing header or a wildcard, and ``None``
    when every range is unsupported (the server answers 406).  ``allowed``
    restricts the candidate formats (e.g. JSON/XML only for ASK).
    """
    table = dict(aliases if aliases is not None else _RESULT_ALIASES)
    if allowed is not None:
        table = {media: name for media, name in table.items() if name in allowed}
    if not accept or not accept.strip():
        return default
    for media, quality in _parse_accept(accept):
        if quality <= 0:
            continue
        if media in table:
            return table[media]
        if media == "*/*":
            return default
        if media.endswith("/*"):
            prefix = media[:-1]
            for candidate, name in table.items():
                if candidate.startswith(prefix):
                    return name
    return None


def negotiate_graph(accept: str | None) -> str | None:
    """:func:`negotiate` specialised to CONSTRUCT graph formats (Turtle first)."""
    return negotiate(accept, aliases=_GRAPH_ALIASES, default="turtle")


# --------------------------------------------------------------------------- #
# Term encoding
# --------------------------------------------------------------------------- #
def term_from_json(payload: Mapping[str, str]) -> Term:
    """Inverse of the results writers' term encoding (accepts the legacy ``typed-literal``)."""
    try:
        kind = payload["type"]
        value = payload["value"]
    except KeyError as exc:
        raise FormatError(f"result term is missing {exc} in {dict(payload)!r}") from None
    if kind == "uri":
        return URIRef(value)
    if kind == "bnode":
        return BNode(value)
    if kind in ("literal", "typed-literal"):
        lang = payload.get("xml:lang")
        datatype = payload.get("datatype")
        if lang:
            return Literal(value, lang=lang)
        if datatype:
            return Literal(value, datatype=URIRef(datatype))
        return Literal(value)
    raise FormatError(f"unknown result term type: {kind!r}")


def _require_protocol_term(term: Term) -> None:
    """Reject terms that may not appear in a protocol response binding."""
    if not isinstance(term, (URIRef, BNode, Literal)):
        raise TermSerializationError(
            f"term {term!r} ({type(term).__name__}) cannot appear in a SPARQL result binding"
        )


def _term_to_n3(term: Term) -> str:
    _require_protocol_term(term)
    return term.n3()


_N3_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _unescape_n3_string(text: str) -> str:
    out: list[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\":
            if index + 1 >= len(text):
                raise FormatError(f"dangling escape in literal: {text!r}")
            escape = text[index + 1]
            if escape not in _N3_ESCAPES:
                raise FormatError(f"unknown escape \\{escape} in literal: {text!r}")
            out.append(_N3_ESCAPES[escape])
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def parse_n3_term(text: str) -> Term:
    """Parse one N-Triples-style term (the TSV cell encoding)."""
    text = text.strip()
    if not text:
        raise FormatError("empty term")
    if text.startswith("<") and text.endswith(">"):
        return URIRef(text[1:-1])
    if text.startswith("_:"):
        return BNode(text[2:])
    if text.startswith('"'):
        # Find the closing quote, skipping escaped characters.
        index = 1
        while index < len(text):
            if text[index] == "\\":
                index += 2
                continue
            if text[index] == '"':
                break
            index += 1
        if index >= len(text):
            raise FormatError(f"unterminated literal: {text!r}")
        lexical = _unescape_n3_string(text[1:index])
        suffix = text[index + 1 :]
        if not suffix:
            return Literal(lexical)
        if suffix.startswith("@"):
            return Literal(lexical, lang=suffix[1:])
        if suffix.startswith("^^<") and suffix.endswith(">"):
            return Literal(lexical, datatype=URIRef(suffix[3:-1]))
        raise FormatError(f"malformed literal suffix: {text!r}")
    # Turtle shorthand forms some emitters use for numbers/booleans.
    if text in ("true", "false"):
        return Literal(text == "true")
    try:
        return Literal(int(text))
    except ValueError:
        pass
    try:
        return Literal(float(text))
    except ValueError:
        pass
    raise FormatError(f"unparseable term: {text!r}")


# --------------------------------------------------------------------------- #
# Writers
# --------------------------------------------------------------------------- #
#: The C string escaper ``json.dumps(..., ensure_ascii=False)`` itself uses.
_json_string = json.encoder.encode_basestring

# The pieces of one term object as ``json.dumps(..., indent=2)`` lays it
# out at its depth in a results document (a value of a row object, which
# is an element of ``results.bindings``).
_JSON_URI = '{\n          "type": "uri",\n          "value": '
_JSON_BNODE = '{\n          "type": "bnode",\n          "value": '
_JSON_LITERAL = '{\n          "type": "literal",\n          "value": '
_JSON_LANG = ',\n          "xml:lang": '
_JSON_DATATYPE = ',\n          "datatype": '
_JSON_TERM_END = "\n        }"


def _json_term(term: Term) -> str:
    """One term as the text of its SPARQL-results-JSON object."""
    if isinstance(term, URIRef):
        return _JSON_URI + _json_string(str(term)) + _JSON_TERM_END
    if isinstance(term, Literal):
        text = _JSON_LITERAL + _json_string(term.lexical)
        if term.lang:
            text += _JSON_LANG + _json_string(term.lang)
        elif term.datatype is not None:
            text += _JSON_DATATYPE + _json_string(str(term.datatype))
        return text + _JSON_TERM_END
    if isinstance(term, BNode):
        return _JSON_BNODE + _json_string(str(term)) + _JSON_TERM_END
    _require_protocol_term(term)
    raise AssertionError("unreachable")  # pragma: no cover


def _json_value(value: object, indent: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` prints it at ``indent``.

    For the small, fixed-shape parts of a document (the variable list,
    attached diagnostics): strings, integers, booleans, ``None`` and
    lists/dicts of those.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [
            f"{inner}{_json_string(key)}: {_json_value(item, inner)}"
            for key, item in value.items()
        ]
        opening, closing = "{", "}"
    elif isinstance(value, list):
        items = [inner + _json_value(item, inner) for item in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"cannot write {type(value).__name__} into a results document")
    if not items:
        return opening + closing
    return f"{opening}\n" + ",\n".join(items) + f"\n{indent}{closing}"


def write_json(result: ResultSet | AskResult) -> str:
    """SPARQL 1.1 Query Results JSON document.

    When the evaluator attached static-analysis diagnostics, they ride
    along under a top-level ``diagnostics`` key (a spec-tolerated
    extension; parsers ignore unknown keys).

    The document is what ``json.dumps(result.to_json_dict(), indent=2,
    ensure_ascii=False)`` prints, byte for byte, assembled from per-term
    fragments instead: ``indent=`` would route every cell through the
    pure-Python encoder.
    """
    if isinstance(result, AskResult):
        body = '{\n  "head": {},\n  "boolean": ' + ("true" if result.value else "false")
    else:
        names = [variable.name for variable in result.variables]
        # A row object has one key per distinct name, at its first position.
        columns: dict[str, int] = {}
        for index, name in enumerate(names):
            columns.setdefault(name, index)
        keys = [
            (index, f"        {_json_string(name)}: ") for name, index in columns.items()
        ]
        objects = []
        for row in result.rows:
            cells = [
                key + _json_term(row[index]) for index, key in keys if row[index] is not None
            ]
            objects.append(
                "      {\n" + ",\n".join(cells) + "\n      }" if cells else "      {}"
            )
        bindings = "[\n" + ",\n".join(objects) + "\n    ]" if objects else "[]"
        body = (
            '{\n  "head": {\n    "vars": ' + _json_value(names, "    ")
            + '\n  },\n  "results": {\n    "bindings": ' + bindings + "\n  }"
        )
    if result.diagnostics:
        body += ',\n  "diagnostics": ' + _json_value(
            [diagnostic.to_json_dict() for diagnostic in result.diagnostics], "  "
        )
    return body + "\n}\n"


def _xml_escape(text: str) -> str:
    # \r must go out as a character reference: XML parsers normalise raw
    # carriage returns to \n, which would silently corrupt literals.
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;").replace("\r", "&#13;")
    )


def write_xml(result: ResultSet | AskResult) -> str:
    """SPARQL Query Results XML document."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<sparql xmlns="{SPARQL_RESULTS_NS}">',
    ]
    if isinstance(result, AskResult):
        lines.append("  <head/>")
        lines.append(f"  <boolean>{'true' if result.value else 'false'}</boolean>")
    else:
        names = [_xml_escape(variable.name) for variable in result.variables]
        lines.append("  <head>")
        lines.extend(f'    <variable name="{name}"/>' for name in names)
        lines.append("  </head>")
        lines.append("  <results>")
        openings = [f'      <binding name="{name}">' for name in names]
        for row in result.rows:
            lines.append("    <result>")
            lines.extend(
                f"{opening}{_xml_term(term)}</binding>"
                for opening, term in zip(openings, row, strict=True)
                if term is not None
            )
            lines.append("    </result>")
        lines.append("  </results>")
    lines.append("</sparql>")
    return "\n".join(lines) + "\n"


def _xml_term(term: Term) -> str:
    if isinstance(term, URIRef):
        return f"<uri>{_xml_escape(str(term))}</uri>"
    if isinstance(term, BNode):
        return f"<bnode>{_xml_escape(str(term))}</bnode>"
    if isinstance(term, Literal):
        attributes = ""
        if term.lang:
            attributes = f' xml:lang="{_xml_escape(term.lang)}"'
        elif term.datatype is not None:
            attributes = f' datatype="{_xml_escape(str(term.datatype))}"'
        return f"<literal{attributes}>{_xml_escape(term.lexical)}</literal>"
    _require_protocol_term(term)
    raise AssertionError("unreachable")  # pragma: no cover


def _csv_cell(term: Term | None) -> str:
    if term is None:
        return ""
    _require_protocol_term(term)
    return term.n3() if isinstance(term, BNode) else str(term)


def write_csv(result: ResultSet | AskResult) -> str:
    """SPARQL 1.1 CSV results: header of variable names, plain value cells."""
    if isinstance(result, AskResult):
        raise FormatError("ASK results have no CSV encoding; use json or xml")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow([variable.name for variable in result.variables])
    writer.writerows([_csv_cell(term) for term in row] for row in result.rows)
    return buffer.getvalue()


def write_tsv(result: ResultSet | AskResult) -> str:
    """SPARQL 1.1 TSV results: ``?var`` header, N-Triples-encoded cells."""
    if isinstance(result, AskResult):
        raise FormatError("ASK results have no TSV encoding; use json or xml")
    lines = ["\t".join(f"?{variable.name}" for variable in result.variables)]
    lines.extend(
        "\t".join(["" if term is None else _term_to_n3(term) for term in row])
        for row in result.rows
    )
    return "\n".join(lines) + "\n"


_RESULT_WRITERS = {
    "json": write_json,
    "xml": write_xml,
    "csv": write_csv,
    "tsv": write_tsv,
}


def write_results(result: ResultSet | AskResult, format: str = "json") -> str:
    """Serialise a SELECT/ASK result in the named format."""
    if format == "table":
        if isinstance(result, AskResult):
            return f"{result.value}\n"
        return result.to_table() + "\n"
    try:
        writer = _RESULT_WRITERS[format]
    except KeyError:
        raise FormatError(f"unsupported result format: {format!r}") from None
    return writer(result)


def write_graph(graph, format: str = "turtle") -> str:
    """Serialise a CONSTRUCT graph (Turtle or N-Triples)."""
    if format not in GRAPH_MEDIA_TYPES:
        raise FormatError(f"unsupported graph format: {format!r}")
    return graph.serialize(format=format)


def read_graph(text: str, format: str = "turtle"):
    """Parse a CONSTRUCT response body back into a graph."""
    from ..turtle import parse_graph

    if format not in GRAPH_MEDIA_TYPES:
        raise FormatError(f"unsupported graph format: {format!r}")
    return parse_graph(text, format=format)


# --------------------------------------------------------------------------- #
# Parsers
# --------------------------------------------------------------------------- #
def parse_json(text: str) -> ResultSet | AskResult:
    """Parse a SPARQL results JSON document."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed results JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError("results JSON must be an object")
    if "boolean" in payload:
        return AskResult(bool(payload["boolean"]))
    try:
        names = payload["head"]["vars"]
        rows = payload["results"]["bindings"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"results JSON is missing {exc}") from None
    variables = [Variable(name) for name in names]
    bindings = []
    for row in rows:
        data = {}
        for name, term_payload in row.items():
            data[Variable(name)] = term_from_json(term_payload)
        bindings.append(Binding(data))
    return ResultSet(variables, bindings)


def parse_xml(text: str) -> ResultSet | AskResult:
    """Parse a SPARQL results XML document."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise FormatError(f"malformed results XML: {exc}") from None
    ns = {"sr": SPARQL_RESULTS_NS}
    boolean = root.find("sr:boolean", ns)
    if boolean is not None:
        return AskResult((boolean.text or "").strip().lower() == "true")
    variables = [
        Variable(element.attrib["name"])
        for element in root.findall("sr:head/sr:variable", ns)
    ]
    bindings = []
    for result in root.findall("sr:results/sr:result", ns):
        data = {}
        for binding in result.findall("sr:binding", ns):
            name = binding.attrib.get("name")
            if name is None:
                raise FormatError("<binding> without a name attribute")
            data[Variable(name)] = _xml_term_from(binding)
        bindings.append(Binding(data))
    return ResultSet(variables, bindings)


def _xml_term_from(binding: ElementTree.Element) -> Term:
    ns = {"sr": SPARQL_RESULTS_NS}
    uri = binding.find("sr:uri", ns)
    if uri is not None:
        return URIRef(uri.text or "")
    bnode = binding.find("sr:bnode", ns)
    if bnode is not None:
        return BNode(bnode.text or "")
    literal = binding.find("sr:literal", ns)
    if literal is not None:
        lexical = literal.text or ""
        lang = literal.attrib.get("{http://www.w3.org/XML/1998/namespace}lang")
        datatype = literal.attrib.get("datatype")
        if lang:
            return Literal(lexical, lang=lang)
        if datatype:
            return Literal(lexical, datatype=URIRef(datatype))
        return Literal(lexical)
    raise FormatError("binding carries no <uri>, <bnode> or <literal> child")


def parse_csv(text: str) -> ResultSet:
    """Parse SPARQL CSV results.

    CSV is lossy by specification: every non-empty cell comes back as a
    plain literal (or a blank node for ``_:``-prefixed cells); an empty
    cell is an unbound variable.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise FormatError("CSV results need a header row")
    variables = [Variable(name) for name in rows[0]]
    bindings = []
    for row in rows[1:]:
        if len(row) > len(variables):
            raise FormatError(f"CSV row wider than the header: {row!r}")
        data = {}
        for variable, cell in zip(variables, row, strict=False):
            if cell == "":
                continue
            if cell.startswith("_:"):
                data[variable] = BNode(cell[2:])
            else:
                data[variable] = Literal(cell)
        bindings.append(Binding(data))
    return ResultSet(variables, bindings)


def parse_tsv(text: str) -> ResultSet:
    """Parse SPARQL TSV results (lossless: cells are N-Triples terms)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("TSV results need a header row")
    header = lines[0].split("\t")
    variables = []
    for name in header:
        if name == "":
            # A zero-variable result set has an empty header line.
            continue
        if not name.startswith("?") and not name.startswith("$"):
            raise FormatError(f"TSV header cells must start with '?': {name!r}")
        variables.append(Variable(name))
    bindings = []
    for line in lines[1:]:
        cells = line.split("\t") if variables else []
        if len(cells) > len(variables):
            raise FormatError(f"TSV row wider than the header: {line!r}")
        data = {}
        for variable, cell in zip(variables, cells, strict=False):
            if cell == "":
                continue
            data[variable] = parse_n3_term(cell)
        bindings.append(Binding(data))
    return ResultSet(variables, bindings)


_RESULT_PARSERS = {
    "json": parse_json,
    "xml": parse_xml,
    "csv": parse_csv,
    "tsv": parse_tsv,
}


def parse_results(text: str, format: str = "json") -> ResultSet | AskResult:
    """Parse a SELECT/ASK result document in the named format."""
    try:
        parser = _RESULT_PARSERS[format]
    except KeyError:
        raise FormatError(f"unsupported result format: {format!r}") from None
    return parser(text)
