"""RDF term model.

This module defines the node types that appear in RDF triples and SPARQL
queries:

* :class:`URIRef` -- an IRI identifying a resource.
* :class:`Literal` -- a data value with optional language tag or datatype.
* :class:`BNode` -- a blank (anonymous) node, interpreted as an
  existentially quantified variable following the RDF semantics adopted by
  the paper (Hayes, *RDF Semantics*, W3C 2004).
* :class:`Variable` -- a SPARQL query variable (``?x`` / ``$x``).

All terms are immutable, hashable and totally ordered (ordering is used for
deterministic serialisation and result presentation, not for semantics).

The design mirrors the small fragment of the Jena/rdflib node APIs that the
rewriting algorithm of Correndo et al. requires: the paper's ``match``
function only needs to distinguish *variables* (query variables and blank
nodes in alignment patterns) from *ground terms* (URIs and literals).
"""

from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation
from typing import Any

__all__ = [
    "Term",
    "Identifier",
    "URIRef",
    "Literal",
    "BNode",
    "Variable",
    "XSD",
    "is_ground",
    "is_variable_like",
    "fresh_bnode",
    "reset_bnode_counter",
]


class Term:
    """Abstract base class of every RDF term.

    Concrete subclasses are :class:`URIRef`, :class:`Literal`,
    :class:`BNode` and :class:`Variable`.  Terms behave as value objects:
    equality and hashing are structural.
    """

    __slots__ = ()

    #: Sort key rank used for the total order across term kinds.
    _rank = 99

    def n3(self) -> str:
        """Return the N3/Turtle textual form of the term."""
        raise NotImplementedError

    def sort_key(self) -> tuple:
        """Key usable to order heterogeneous terms deterministically."""
        return (self._rank, str(self))

    def __lt__(self, other: Any) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: Any) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: Any) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: Any) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


class Identifier(Term):
    """Base class for terms identified by a single string value."""

    __slots__ = ("_value",)

    def __init__(self, value: str) -> None:
        self._value = str(value)

    @property
    def value(self) -> str:
        """The raw string carried by the identifier."""
        return self._value

    def __str__(self) -> str:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._value!r})"

    def __eq__(self, other: Any) -> bool:
        return type(self) is type(other) and self._value == other._value

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._value))


_IRI_ILLEGAL = re.compile(r"[<>\"{}|^`\\\x00-\x20]")


class URIRef(Identifier):
    """An IRI reference (the paper's set ``I``).

    The constructor performs a light validation: characters that are never
    legal inside an IRI reference (angle brackets, spaces, control
    characters) raise :class:`ValueError`.  Full RFC 3987 validation is out
    of scope; Linked Data URIs in the wild are frequently sloppy and the
    original system accepted them as-is.
    """

    __slots__ = ()
    _rank = 1

    def __init__(self, value: str, base: str | None = None) -> None:
        value = str(value)
        if base is not None and not _has_scheme(value):
            value = resolve_relative(base, value)
        if _IRI_ILLEGAL.search(value):
            raise ValueError(f"invalid character in IRI: {value!r}")
        super().__init__(value)

    def n3(self) -> str:
        return f"<{self._value}>"

    def namespace_split(self) -> tuple[str, str]:
        """Split the URI into a (namespace, local-name) pair.

        The split point is after the last ``#`` or ``/`` character; if
        neither occurs the namespace is the empty string.
        """
        value = self._value
        for sep in ("#", "/"):
            if sep in value:
                idx = value.rindex(sep)
                return value[: idx + 1], value[idx + 1 :]
        return "", value

    def startswith(self, prefix: str) -> bool:
        """Convenience wrapper over ``str.startswith`` for URI prefixes."""
        return self._value.startswith(prefix)


def _has_scheme(value: str) -> bool:
    return bool(re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", value))


def resolve_relative(base: str, relative: str) -> str:
    """Resolve ``relative`` against ``base`` (simplified RFC 3986 merge).

    Supports the cases that occur in Turtle documents with ``@base``:
    fragment-only references, absolute paths and relative paths.
    """
    if not relative:
        return base
    if relative.startswith("#"):
        return base.split("#", 1)[0] + relative
    if relative.startswith("//"):
        scheme = base.split(":", 1)[0]
        return f"{scheme}:{relative}"
    if relative.startswith("/"):
        match = re.match(r"^([A-Za-z][A-Za-z0-9+.-]*://[^/]*)", base)
        root = match.group(1) if match else base.rstrip("/")
        return root + relative
    # Relative path: replace everything after the last '/'.
    if "/" in base:
        return base.rsplit("/", 1)[0] + "/" + relative
    return relative


class _XSD:
    """Tiny holder of the XML Schema datatype URIs used by literals."""

    _NS = "http://www.w3.org/2001/XMLSchema#"

    def __getattr__(self, name: str) -> URIRef:
        return URIRef(self._NS + name)

    @property
    def namespace(self) -> str:
        return self._NS


XSD = _XSD()

#: Datatypes whose lexical forms are interpreted as Python numbers.
_NUMERIC_DATATYPES = {
    str(XSD.integer),
    str(XSD.int),
    str(XSD.long),
    str(XSD.short),
    str(XSD.byte),
    str(XSD.nonNegativeInteger),
    str(XSD.positiveInteger),
    str(XSD.negativeInteger),
    str(XSD.nonPositiveInteger),
    str(XSD.unsignedInt),
    str(XSD.unsignedLong),
    str(XSD.decimal),
    str(XSD.float),
    str(XSD.double),
}

_INTEGER_DATATYPES = {
    str(XSD.integer),
    str(XSD.int),
    str(XSD.long),
    str(XSD.short),
    str(XSD.byte),
    str(XSD.nonNegativeInteger),
    str(XSD.positiveInteger),
    str(XSD.negativeInteger),
    str(XSD.nonPositiveInteger),
    str(XSD.unsignedInt),
    str(XSD.unsignedLong),
}


class Literal(Term):
    """An RDF literal: lexical form + optional language tag or datatype.

    ``Literal`` accepts native Python values and infers the datatype:

    >>> Literal(42).datatype == XSD.integer
    True
    >>> Literal(True).lexical
    'true'
    >>> Literal("bonjour", lang="fr").lang
    'fr'

    :meth:`to_python` gives the value SPARQL FILTER evaluation compares.
    """

    __slots__ = ("_lexical", "_lang", "_datatype")
    _rank = 3

    def __init__(
        self,
        value: str | int | float | bool | Decimal,
        lang: str | None = None,
        datatype: URIRef | None = None,
    ) -> None:
        if lang is not None and datatype is not None:
            raise ValueError("a literal cannot carry both a language tag and a datatype")
        if isinstance(value, bool):
            lexical = "true" if value else "false"
            datatype = datatype or XSD.boolean
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or XSD.integer
        elif isinstance(value, float):
            lexical = repr(value)
            datatype = datatype or XSD.double
        elif isinstance(value, Decimal):
            lexical = str(value)
            datatype = datatype or XSD.decimal
        else:
            lexical = str(value)
        if lang is not None:
            lang = lang.lower()
            if not re.match(r"^[a-z]+(-[a-z0-9]+)*$", lang):
                raise ValueError(f"malformed language tag: {lang!r}")
        self._lexical = lexical
        self._lang = lang
        self._datatype = datatype

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def lexical(self) -> str:
        """The lexical form (the literal's string content)."""
        return self._lexical

    @property
    def lang(self) -> str | None:
        """The language tag, lower-cased, or ``None``."""
        return self._lang

    @property
    def datatype(self) -> URIRef | None:
        """The datatype URI, or ``None`` for a plain literal."""
        return self._datatype

    # ------------------------------------------------------------------ #
    # Value space
    # ------------------------------------------------------------------ #
    def to_python(self) -> Any:
        """Map the literal into the Python value space.

        Numeric datatypes become ``int``/``float``/``Decimal``, booleans
        become ``bool``; anything else (including malformed numerics) is
        returned as the plain lexical string.
        """
        if self._datatype is None:
            return self._lexical
        dt = str(self._datatype)
        try:
            if dt in _INTEGER_DATATYPES:
                return int(self._lexical)
            if dt == str(XSD.decimal):
                return Decimal(self._lexical)
            if dt in (str(XSD.float), str(XSD.double)):
                return float(self._lexical)
            if dt == str(XSD.boolean):
                return self._lexical.strip().lower() in ("true", "1")
        except (ValueError, InvalidOperation):
            return self._lexical
        return self._lexical

    def is_numeric(self) -> bool:
        """True when the datatype is one of the XSD numeric types."""
        return self._datatype is not None and str(self._datatype) in _NUMERIC_DATATYPES

    # ------------------------------------------------------------------ #
    # Term protocol
    # ------------------------------------------------------------------ #
    def n3(self) -> str:
        escaped = (
            self._lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        body = f'"{escaped}"'
        if self._lang is not None:
            return f"{body}@{self._lang}"
        if self._datatype is not None:
            return f"{body}^^{self._datatype.n3()}"
        return body

    def __str__(self) -> str:
        return self._lexical

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self._lang:
            extra = f", lang={self._lang!r}"
        elif self._datatype is not None:
            extra = f", datatype={str(self._datatype)!r}"
        return f"Literal({self._lexical!r}{extra})"

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, Literal)
            and self._lexical == other._lexical
            and self._lang == other._lang
            and self._datatype == other._datatype
        )

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(("Literal", self._lexical, self._lang, self._datatype))

    def sort_key(self) -> tuple:
        return (self._rank, self._lexical, self._lang or "", str(self._datatype or ""))


_bnode_counter = 0


def reset_bnode_counter() -> None:
    """Reset the automatic blank-node label counter (useful in tests)."""
    global _bnode_counter
    _bnode_counter = 0


def fresh_bnode(prefix: str = "b") -> BNode:
    """Return a new blank node with a label unique within the process."""
    global _bnode_counter
    _bnode_counter += 1
    return BNode(f"{prefix}{_bnode_counter}")


class BNode(Identifier):
    """A blank node.

    Per the RDF semantics used by the paper, a blank node denotes an
    existentially quantified variable; in alignment patterns (`_:p1`,
    `_:a1`, ...) blank nodes therefore behave like variables during
    matching (see :func:`is_variable_like`).
    """

    __slots__ = ()
    _rank = 2

    def __init__(self, value: str | None = None) -> None:
        if value is None:
            value = fresh_bnode().value
        value = str(value)
        if value.startswith("_:"):
            value = value[2:]
        if not value or not re.match(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$", value):
            raise ValueError(f"malformed blank node label: {value!r}")
        super().__init__(value)

    def n3(self) -> str:
        return f"_:{self._value}"

    def to_variable(self) -> Variable:
        """Translate the blank node into the SPARQL variable ``?<label>``.

        The paper's alignment semantics interprets blank nodes in LHS/RHS
        patterns as variables; this helper performs that reading.
        """
        return Variable(self._value)


class Variable(Identifier):
    """A SPARQL query variable (``?name``)."""

    __slots__ = ()
    _rank = 0

    def __init__(self, value: str) -> None:
        value = str(value)
        if value and value[0] in "?$":
            value = value[1:]
        if not value or not re.match(r"^[A-Za-z0-9_][A-Za-z0-9_]*$", value):
            raise ValueError(f"malformed variable name: {value!r}")
        super().__init__(value)

    @property
    def name(self) -> str:
        """The variable name without the leading ``?``."""
        return self._value

    def n3(self) -> str:
        return f"?{self._value}"


def is_ground(term: Term) -> bool:
    """True when the term is a ground value (URI or literal)."""
    return isinstance(term, (URIRef, Literal))


def is_variable_like(term: Term) -> bool:
    """True when the term acts as a variable during pattern matching.

    Both SPARQL variables and blank nodes qualify: the paper treats blank
    nodes in alignment patterns as existentially quantified variables.
    """
    return isinstance(term, (Variable, BNode))
