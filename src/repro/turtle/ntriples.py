"""N-Triples reader and writer.

N-Triples is the line-oriented subset of Turtle: one triple per line, no
prefixes, no abbreviations.  It is used as the bulk-exchange format between
the synthetic dataset generators and the local endpoints, and as the
fallback serialisation when Turtle prettification is not wanted.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

from ..rdf import BNode, Graph, Literal, Triple, URIRef

__all__ = ["parse_ntriples", "serialize_ntriples", "NTriplesError"]


class NTriplesError(ValueError):
    """Raised on malformed N-Triples input."""

    def __init__(self, message: str, line_number: int = 0) -> None:
        super().__init__(f"line {line_number}: {message}" if line_number else message)


_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_BNODE_RE = re.compile(r"_:([A-Za-z0-9_][A-Za-z0-9_.-]*)")
_LITERAL_RE = re.compile(
    r'"((?:[^"\\]|\\.)*)"'           # lexical form with escapes
    r"(?:@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)"  # language tag
    r"|\^\^<([^<>\"{}|^`\\\x00-\x20]*)>)?"  # or datatype
)

_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def unescape(text: str) -> str:
    """Decode N-Triples/Turtle string escapes (\\n, \\t, \\uXXXX, ...).

    Unknown escape sequences are preserved verbatim (backslash included)
    rather than rejected: Linked Data literals frequently embed regular
    expressions — the paper's own alignment listing contains the pattern
    ``http://kisti.rkbexplorer.com/id/\\S*`` — and the original system
    accepted them as-is.
    """
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            out.append(ch)
            break
        nxt = text[i + 1]
        if nxt in _ESCAPES:
            out.append(_ESCAPES[nxt])
            i += 2
        elif nxt == "u":
            out.append(chr(int(text[i + 2 : i + 6], 16)))
            i += 6
        elif nxt == "U":
            out.append(chr(int(text[i + 2 : i + 10], 16)))
            i += 10
        else:
            out.append("\\" + nxt)
            i += 2
    return "".join(out)


def escape(text: str) -> str:
    """Encode a string for inclusion in an N-Triples/Turtle literal.

    Control characters are emitted as ``\\uXXXX`` escapes so that
    serialisations remain line-oriented regardless of the literal content.
    """
    encoded = (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    return "".join(
        ch if ch >= " " or ch in ("\t",) else f"\\u{ord(ch):04X}"
        for ch in encoded
    )


def _parse_term(token: str, line_number: int):
    token = token.strip()
    match = _IRI_RE.fullmatch(token)
    if match:
        return URIRef(match.group(1))
    match = _BNODE_RE.fullmatch(token)
    if match:
        return BNode(match.group(1))
    match = _LITERAL_RE.fullmatch(token)
    if match:
        lexical = unescape(match.group(1))
        lang = match.group(2)
        datatype = match.group(3)
        if lang:
            return Literal(lexical, lang=lang)
        if datatype:
            return Literal(lexical, datatype=URIRef(datatype))
        return Literal(lexical)
    raise NTriplesError(f"unparseable term: {token!r}", line_number)


def _split_terms(line: str, line_number: int) -> list[str]:
    """Split an N-Triples statement into its three term tokens."""
    terms: list[str] = []
    i = 0
    length = len(line)
    while i < length:
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "<":
            end = line.index(">", i)
            # absorb an optional datatype that follows a literal elsewhere
            terms.append(line[i : end + 1])
            i = end + 1
        elif ch == "_":
            match = re.match(r"_:[A-Za-z0-9_][A-Za-z0-9_.-]*", line[i:])
            if not match:
                raise NTriplesError("malformed blank node", line_number)
            terms.append(match.group(0))
            i += match.end()
        elif ch == '"':
            j = i + 1
            while j < length:
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == '"':
                    break
                j += 1
            if j >= length:
                raise NTriplesError("unterminated literal", line_number)
            end = j + 1
            # language tag or datatype suffix
            rest = line[end:]
            suffix_match = re.match(r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*|\^\^<[^>]*>", rest)
            if suffix_match:
                end += suffix_match.end()
            terms.append(line[i:end])
            i = end
        elif ch == ".":
            i += 1
        else:
            raise NTriplesError(f"unexpected character {ch!r}", line_number)
    return terms


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples text into a new :class:`Graph`."""
    graph = Graph()
    for triple in iter_ntriples(text):
        graph.add(triple)
    return graph


def iter_ntriples(text: str) -> Iterator[Triple]:
    """Yield triples from N-Triples text one line at a time."""
    for line_number, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if not line.endswith("."):
            raise NTriplesError("statement does not end with '.'", line_number)
        body = line[:-1].strip()
        tokens = _split_terms(body, line_number)
        if len(tokens) != 3:
            raise NTriplesError(
                f"expected 3 terms, found {len(tokens)}", line_number
            )
        subject = _parse_term(tokens[0], line_number)
        predicate = _parse_term(tokens[1], line_number)
        obj = _parse_term(tokens[2], line_number)
        if isinstance(subject, Literal):
            raise NTriplesError("literal in subject position", line_number)
        if not isinstance(predicate, URIRef):
            raise NTriplesError("predicate must be an IRI", line_number)
        yield Triple(subject, predicate, obj)


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialise triples to canonical (sorted) N-Triples text."""
    lines = []
    for triple in sorted(triples):
        lines.append(f"{_term_to_nt(triple.subject)} {_term_to_nt(triple.predicate)} "
                     f"{_term_to_nt(triple.object)} .")
    return "\n".join(lines) + ("\n" if lines else "")


def _term_to_nt(term) -> str:
    if isinstance(term, Literal):
        body = f'"{escape(term.lexical)}"'
        if term.lang:
            return f"{body}@{term.lang}"
        if term.datatype is not None:
            return f"{body}^^<{term.datatype}>"
        return body
    return term.n3()
