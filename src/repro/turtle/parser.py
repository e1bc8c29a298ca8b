"""Recursive-descent parser for Turtle documents.

Supports the Turtle features used throughout the project and in the
paper's listings:

* ``@prefix`` / ``@base`` directives (and their SPARQL-style spellings),
* subject / predicate-object list / object list abbreviations (``;`` ``,``),
* the ``a`` keyword for ``rdf:type``,
* blank node labels and anonymous blank node property lists ``[...]``,
* collections ``( ... )`` encoded as ``rdf:List``,
* string literals (short and long forms) with language tags and datatypes,
* numeric and boolean literals.
"""

from __future__ import annotations


from ..rdf import (
    BNode,
    Graph,
    Literal,
    NamespaceManager,
    RDF,
    Term,
    Triple,
    URIRef,
    XSD,
    fresh_bnode,
)
from .lexer import Token, tokenize
from .ntriples import unescape

__all__ = ["TurtleParser", "TurtleParseError", "parse_turtle"]


class TurtleParseError(ValueError):
    """Raised when a Turtle document is syntactically invalid."""

    def __init__(self, message: str, token: Token | None = None) -> None:
        location = f" (line {token.line}, column {token.column})" if token else ""
        super().__init__(message + location)


class TurtleParser:
    """Parse a Turtle document into a :class:`Graph`.

    The parser is re-usable: each call to :meth:`parse` starts from a clean
    namespace environment (default prefixes are *not* pre-installed so that
    documents must declare what they use, exactly as the original Turtle
    listings do; pass ``namespace_manager`` to seed bindings).
    """

    def __init__(self, namespace_manager: NamespaceManager | None = None) -> None:
        self._seed_manager = namespace_manager

    def parse(self, text: str, graph: Graph | None = None) -> Graph:
        """Parse ``text`` and return the populated graph."""
        tokens = tokenize(text)
        state = _ParserState(tokens, graph, self._seed_manager)
        state.run()
        return state.graph


class _ParserState:
    """Internal cursor over the token stream."""

    def __init__(
        self,
        tokens: list[Token],
        graph: Graph | None,
        seed_manager: NamespaceManager | None,
    ) -> None:
        self._tokens = tokens
        self._index = 0
        manager = seed_manager.copy() if seed_manager else NamespaceManager(install_defaults=False)
        self.graph = graph if graph is not None else Graph(namespace_manager=manager)
        if graph is not None and seed_manager is not None:
            self.graph.namespace_manager = manager
        self._base: str | None = None

    # ------------------------------------------------------------------ #
    # Token stream helpers
    # ------------------------------------------------------------------ #
    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _next(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._next()
        if token.kind != kind:
            raise TurtleParseError(f"expected {kind}, found {token.kind} {token.value!r}", token)
        return token

    def _at(self, kind: str) -> bool:
        return self._peek().kind == kind

    # ------------------------------------------------------------------ #
    # Grammar
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        while not self._at("EOF"):
            if self._at("PREFIX_DIRECTIVE"):
                self._prefix_directive()
            elif self._at("BASE_DIRECTIVE"):
                self._base_directive()
            else:
                self._triples_block()

    def _prefix_directive(self) -> None:
        directive = self._next()
        pname = self._expect("PNAME")
        if not pname.value.endswith(":"):
            raise TurtleParseError("prefix declaration must end with ':'", pname)
        prefix = pname.value[:-1]
        iri = self._expect("IRIREF")
        self.graph.namespace_manager.bind(prefix, self._resolve_iri(iri.value))
        if directive.value.startswith("@"):
            self._expect("DOT")
        elif self._at("DOT"):  # tolerate a stray dot after SPARQL-style PREFIX
            self._next()

    def _base_directive(self) -> None:
        directive = self._next()
        iri = self._expect("IRIREF")
        self._base = iri.value[1:-1]
        if directive.value.startswith("@"):
            self._expect("DOT")
        elif self._at("DOT"):
            self._next()

    def _triples_block(self) -> None:
        if self._at("LBRACKET"):
            subject = self._blank_node_property_list()
            # A bare "[...] ." statement is legal; predicates are optional.
            if not self._at("DOT"):
                self._predicate_object_list(subject)
        else:
            subject = self._term(position="subject")
            self._predicate_object_list(subject)
        self._expect("DOT")

    def _predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self._verb()
            self._object_list(subject, predicate)
            if self._at("SEMICOLON"):
                self._next()
                # Trailing semicolons before '.' or ']' are allowed.
                while self._at("SEMICOLON"):
                    self._next()
                if self._at("DOT") or self._at("RBRACKET") or self._at("EOF"):
                    return
                continue
            return

    def _object_list(self, subject: Term, predicate: Term) -> None:
        while True:
            obj = self._term(position="object")
            self.graph.add(Triple(subject, predicate, obj))
            if self._at("COMMA"):
                self._next()
                continue
            return

    def _verb(self) -> Term:
        if self._at("A"):
            self._next()
            return RDF.type
        term = self._term(position="predicate")
        if not isinstance(term, URIRef):
            raise TurtleParseError(f"predicate must be an IRI, found {term!r}")
        return term

    # ------------------------------------------------------------------ #
    # Terms
    # ------------------------------------------------------------------ #
    def _term(self, position: str) -> Term:
        token = self._peek()
        if token.kind == "IRIREF":
            self._next()
            return self._resolve_iri(token.value)
        if token.kind == "PNAME":
            self._next()
            return self._expand_pname(token)
        if token.kind == "BLANK_NODE":
            self._next()
            return BNode(token.value)
        if token.kind == "LBRACKET":
            return self._blank_node_property_list()
        if token.kind == "LPAREN":
            return self._collection()
        if token.kind in ("STRING", "INTEGER", "DECIMAL", "DOUBLE", "BOOLEAN"):
            if position != "object":
                raise TurtleParseError(f"literal not allowed in {position} position", token)
            return self._literal()
        if token.kind == "A" and position == "object":
            # "a" is only a keyword in the predicate position.
            self._next()
            raise TurtleParseError("'a' keyword cannot be used as an object", token)
        raise TurtleParseError(f"unexpected token {token.kind} {token.value!r}", token)

    def _resolve_iri(self, raw: str) -> URIRef:
        value = unescape(raw[1:-1])
        if self._base is not None:
            return URIRef(value, base=self._base)
        return URIRef(value)

    def _expand_pname(self, token: Token) -> URIRef:
        value = token.value
        prefix, _, local = value.partition(":")
        namespace = self.graph.namespace_manager.namespace(prefix)
        if namespace is None:
            raise TurtleParseError(f"undeclared prefix {prefix!r}", token)
        local = local.replace("%20", " ") if False else local  # keep percent-encoding
        return URIRef(namespace + local)

    def _blank_node_property_list(self) -> Term:
        self._expect("LBRACKET")
        node = fresh_bnode("anon")
        if not self._at("RBRACKET"):
            self._predicate_object_list(node)
        self._expect("RBRACKET")
        return node

    def _collection(self) -> Term:
        self._expect("LPAREN")
        items: list[Term] = []
        while not self._at("RPAREN"):
            items.append(self._term(position="object"))
        self._expect("RPAREN")
        if not items:
            return RDF.nil
        head: Term | None = None
        previous: Term | None = None
        for item in items:
            node = fresh_bnode("list")
            self.graph.add(Triple(node, RDF.first, item))
            if previous is not None:
                self.graph.add(Triple(previous, RDF.rest, node))
            if head is None:
                head = node
            previous = node
        assert previous is not None and head is not None
        self.graph.add(Triple(previous, RDF.rest, RDF.nil))
        return head

    def _literal(self) -> Literal:
        token = self._next()
        if token.kind == "STRING":
            lexical = self._strip_quotes(token.value)
            if self._at("LANGTAG"):
                lang = self._next().value[1:]
                return Literal(lexical, lang=lang)
            if self._at("DATATYPE_MARKER"):
                self._next()
                dt_token = self._next()
                if dt_token.kind == "IRIREF":
                    datatype = self._resolve_iri(dt_token.value)
                elif dt_token.kind == "PNAME":
                    datatype = self._expand_pname(dt_token)
                else:
                    raise TurtleParseError("datatype must be an IRI", dt_token)
                return Literal(lexical, datatype=datatype)
            return Literal(lexical)
        if token.kind == "INTEGER":
            return Literal(token.value, datatype=XSD.integer)
        if token.kind == "DECIMAL":
            return Literal(token.value, datatype=XSD.decimal)
        if token.kind == "DOUBLE":
            return Literal(token.value, datatype=XSD.double)
        if token.kind == "BOOLEAN":
            return Literal(token.value, datatype=XSD.boolean)
        raise TurtleParseError(f"not a literal token: {token.kind}", token)

    @staticmethod
    def _strip_quotes(raw: str) -> str:
        if raw.startswith('"""') or raw.startswith("'''"):
            return unescape(raw[3:-3])
        return unescape(raw[1:-1])


def parse_turtle(text: str, namespace_manager: NamespaceManager | None = None) -> Graph:
    """Convenience wrapper: parse Turtle text into a new graph."""
    return TurtleParser(namespace_manager).parse(text)
