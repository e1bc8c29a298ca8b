"""Recursive-descent parser for SPARQL 1.0 queries.

Grammar coverage (the subset needed by the paper's examples plus what a
practical mediator encounters):

* ``SELECT [DISTINCT|REDUCED] (var+ | *) WHERE { ... }``
* ``ASK { ... }``
* ``CONSTRUCT { template } WHERE { ... }``
* prologue: ``PREFIX`` and ``BASE``
* group graph patterns with triple blocks, ``FILTER``, ``OPTIONAL``,
  ``UNION`` and nested groups
* triple patterns with ``;`` and ``,`` abbreviations, ``a``, blank node
  property lists and literals
* FILTER expressions: ``|| && = != < > <= >= + - * /``, unary ``!``/``-``,
  parentheses, the built-ins ``BOUND REGEX STR LANG LANGMATCHES DATATYPE
  isURI isIRI isLITERAL isBLANK sameTerm`` and extension-function calls by
  IRI
* solution modifiers: ``ORDER BY [ASC|DESC]``, ``LIMIT``, ``OFFSET``
"""

from __future__ import annotations


from ..rdf import (
    BNode,
    Literal,
    NamespaceManager,
    RDF,
    Term,
    Triple,
    URIRef,
    Variable,
    XSD,
    fresh_bnode,
)
from ..turtle.ntriples import unescape
from .ast import (
    AskQuery,
    BinaryExpression,
    ConstructQuery,
    Expression,
    Filter,
    FunctionCall,
    GroupGraphPattern,
    InlineData,
    OptionalPattern,
    OrderCondition,
    Prologue,
    Query,
    SelectQuery,
    SolutionModifiers,
    TermExpression,
    TriplesBlock,
    UnaryExpression,
    UnionPattern,
    VariableExpression,
)
from .tokenizer import SourceSpan, SparqlToken, tokenize_sparql

__all__ = ["SparqlParser", "SparqlParseError", "parse_query"]

_BUILTIN_FUNCTIONS = {
    "BOUND", "REGEX", "STR", "LANG", "LANGMATCHES", "DATATYPE",
    "ISURI", "ISIRI", "ISLITERAL", "ISBLANK", "SAMETERM",
}


class SparqlParseError(ValueError):
    """Raised when a query is syntactically invalid.

    ``line``/``column`` (1-based) and ``span`` locate the offending token
    when one is available, so callers can report exact source positions
    without re-parsing the rendered message.
    """

    def __init__(self, message: str, token: SparqlToken | None = None) -> None:
        location = f" (line {token.line}, column {token.column})" if token else ""
        super().__init__(message + location)
        self.line: int | None = token.line if token else None
        self.column: int | None = token.column if token else None
        self.span: SourceSpan | None = token.span if token else None


class SparqlParser:
    """Parse SPARQL text into the AST of :mod:`repro.sparql.ast`."""

    def parse(self, text: str) -> Query:
        tokens = tokenize_sparql(text)
        state = _ParserState(tokens)
        query = state.parse_query()
        state.expect_eof()
        if len(tokens) > 1:  # more than the EOF token
            query.span = tokens[0].span.cover(tokens[-2].span)
        return query


class _ParserState:
    def __init__(self, tokens: list[SparqlToken]) -> None:
        self._tokens = tokens
        self._index = 0
        self.prologue = Prologue(namespace_manager=NamespaceManager(install_defaults=False))

    # ------------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------------ #
    def _peek(self, ahead: int = 0) -> SparqlToken:
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> SparqlToken:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def _expect(self, kind: str, value: str | None = None) -> SparqlToken:
        token = self._next()
        if token.kind != kind or (value is not None and token.value != value):
            expected = f"{kind} {value}" if value else kind
            raise SparqlParseError(
                f"expected {expected}, found {token.kind} {token.value!r}", token
            )
        return token

    def _prev_span(self) -> SourceSpan:
        """The span of the most recently consumed token."""
        return self._tokens[max(self._index - 1, 0)].span

    def _at_keyword(self, *names: str) -> bool:
        token = self._peek()
        return token.kind == "KEYWORD" and token.value in names

    def _accept_keyword(self, *names: str) -> SparqlToken | None:
        if self._at_keyword(*names):
            return self._next()
        return None

    def expect_eof(self) -> None:
        token = self._peek()
        if token.kind != "EOF":
            raise SparqlParseError(f"unexpected trailing input: {token.value!r}", token)

    # ------------------------------------------------------------------ #
    # Query forms
    # ------------------------------------------------------------------ #
    def parse_query(self) -> Query:
        self._parse_prologue()
        if self._at_keyword("SELECT"):
            return self._parse_select()
        if self._at_keyword("ASK"):
            return self._parse_ask()
        if self._at_keyword("CONSTRUCT"):
            return self._parse_construct()
        token = self._peek()
        raise SparqlParseError(
            f"expected SELECT, ASK or CONSTRUCT, found {token.value!r}", token
        )

    def _parse_prologue(self) -> None:
        while True:
            if self._at_keyword("PREFIX"):
                self._next()
                pname = self._expect("PNAME")
                if not pname.value.endswith(":"):
                    raise SparqlParseError("PREFIX declaration must end with ':'", pname)
                iri = self._expect("IRIREF")
                self.prologue.bind(pname.value[:-1], iri.value[1:-1])
            elif self._at_keyword("BASE"):
                self._next()
                iri = self._expect("IRIREF")
                self.prologue.base = iri.value[1:-1]
            else:
                return

    def _parse_select(self) -> SelectQuery:
        self._expect("KEYWORD", "SELECT")
        modifiers = SolutionModifiers()
        if self._accept_keyword("DISTINCT"):
            modifiers.distinct = True
        elif self._accept_keyword("REDUCED"):
            modifiers.reduced = True

        projection: list[Variable] = []
        projection_spans: list[SourceSpan | None] = []
        if self._peek().kind == "STAR":
            self._next()
        else:
            while self._peek().kind == "VAR":
                token = self._next()
                projection.append(Variable(token.value))
                projection_spans.append(token.span)
            if not projection:
                raise SparqlParseError("SELECT requires '*' or at least one variable", self._peek())

        self._accept_keyword("WHERE")
        where = self._parse_group_graph_pattern()
        self._parse_solution_modifiers(modifiers)
        return SelectQuery(self.prologue, projection, where, modifiers, projection_spans)

    def _parse_ask(self) -> AskQuery:
        self._expect("KEYWORD", "ASK")
        self._accept_keyword("WHERE")
        where = self._parse_group_graph_pattern()
        return AskQuery(self.prologue, where)

    def _parse_construct(self) -> ConstructQuery:
        self._expect("KEYWORD", "CONSTRUCT")
        template = self._parse_construct_template()
        self._accept_keyword("WHERE")
        where = self._parse_group_graph_pattern()
        modifiers = SolutionModifiers()
        self._parse_solution_modifiers(modifiers)
        return ConstructQuery(self.prologue, template, where, modifiers)

    def _parse_construct_template(self) -> list[Triple]:
        self._expect("LBRACE")
        block = TriplesBlock()
        while self._peek().kind != "RBRACE":
            self._parse_triples_same_subject(block)
            while self._peek().kind == "DOT":
                self._next()
        self._expect("RBRACE")
        return block.patterns

    # ------------------------------------------------------------------ #
    # Graph patterns
    # ------------------------------------------------------------------ #
    def _parse_group_graph_pattern(self) -> GroupGraphPattern:
        lbrace = self._expect("LBRACE")
        group = GroupGraphPattern()
        current_block: TriplesBlock | None = None

        while self._peek().kind != "RBRACE":
            token = self._peek()
            if token.kind == "KEYWORD" and token.value == "FILTER":
                self._next()
                expression = self._parse_filter_constraint()
                group.add(Filter(expression, span=token.span.cover(self._prev_span())))
                current_block = None
            elif token.kind == "KEYWORD" and token.value == "OPTIONAL":
                self._next()
                inner = self._parse_group_graph_pattern()
                group.add(OptionalPattern(inner, span=token.span.cover(self._prev_span())))
                current_block = None
            elif token.kind == "KEYWORD" and token.value == "VALUES":
                self._next()
                data = self._parse_inline_data()
                data.span = token.span.cover(self._prev_span())
                group.add(data)
                current_block = None
            elif token.kind == "LBRACE":
                nested = self._parse_group_graph_pattern()
                alternatives = [nested]
                while self._at_keyword("UNION"):
                    self._next()
                    alternatives.append(self._parse_group_graph_pattern())
                if len(alternatives) > 1:
                    group.add(
                        UnionPattern(alternatives, span=token.span.cover(self._prev_span()))
                    )
                else:
                    group.add(nested)
                current_block = None
            elif token.kind == "DOT":
                self._next()
            else:
                if current_block is None:
                    current_block = TriplesBlock()
                    group.add(current_block)
                self._parse_triples_same_subject(current_block)
                current_block.span = (
                    current_block.span.cover(self._prev_span())
                    if current_block.span
                    else token.span.cover(self._prev_span())
                )
                if self._peek().kind == "DOT":
                    self._next()
        rbrace = self._expect("RBRACE")
        group.span = lbrace.span.cover(rbrace.span)
        return group

    def _parse_filter_constraint(self) -> Expression:
        token = self._peek()
        if token.kind == "LPAREN":
            self._next()
            expression = self._parse_expression()
            self._expect("RPAREN")
            return expression
        if token.kind == "KEYWORD" and token.value in _BUILTIN_FUNCTIONS:
            return self._parse_builtin_call()
        if token.kind in ("IRIREF", "PNAME"):
            return self._parse_function_call()
        raise SparqlParseError("FILTER requires a bracketted expression or function call", token)

    # ------------------------------------------------------------------ #
    # Inline data (VALUES)
    # ------------------------------------------------------------------ #
    def _parse_inline_data(self) -> InlineData:
        """``VALUES ?x { ... }`` or ``VALUES (?x ?y) { (...) ... }``."""
        token = self._peek()
        if token.kind == "VAR":
            self._next()
            data = InlineData([Variable(token.value)])
            self._expect("LBRACE")
            while self._peek().kind != "RBRACE":
                data.add_row((self._parse_data_value(),))
            self._expect("RBRACE")
            return data
        self._expect("LPAREN")
        columns: list[Variable] = []
        while self._peek().kind == "VAR":
            columns.append(Variable(self._next().value))
        self._expect("RPAREN")
        data = InlineData(columns)
        self._expect("LBRACE")
        while self._peek().kind != "RBRACE":
            self._expect("LPAREN")
            row: list[Term | None] = []
            while self._peek().kind != "RPAREN":
                row.append(self._parse_data_value())
            self._expect("RPAREN")
            try:
                data.add_row(row)
            except ValueError as exc:
                raise SparqlParseError(str(exc), self._peek()) from exc
        self._expect("RBRACE")
        return data

    def _parse_data_value(self) -> Term | None:
        """One VALUES cell: an IRI, a literal, or ``UNDEF`` (``None``)."""
        token = self._peek()
        if token.kind == "KEYWORD" and token.value == "UNDEF":
            self._next()
            return None
        if token.kind == "IRIREF":
            self._next()
            return self._resolve_iri(token)
        if token.kind == "PNAME":
            self._next()
            return self._expand_pname(token)
        if token.kind in ("STRING", "INTEGER", "DECIMAL", "DOUBLE"):
            return self._parse_literal()
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            self._next()
            return Literal(token.value.lower(), datatype=XSD.boolean)
        raise SparqlParseError(
            f"unexpected token in VALUES data: {token.value!r}", token
        )

    # ------------------------------------------------------------------ #
    # Triple patterns
    # ------------------------------------------------------------------ #
    def _parse_triples_same_subject(self, block: TriplesBlock) -> None:
        start = self._peek().span
        subject = self._parse_term(position="subject", block=block)
        self._parse_property_list(subject, block, start)

    def _parse_property_list(
        self, subject: Term, block: TriplesBlock, start: SourceSpan | None = None
    ) -> None:
        if start is None:
            start = self._peek().span
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_term(position="object", block=block)
                block.add(Triple(subject, predicate, obj), span=start.cover(self._prev_span()))
                if self._peek().kind == "COMMA":
                    self._next()
                    continue
                break
            if self._peek().kind == "SEMICOLON":
                self._next()
                while self._peek().kind == "SEMICOLON":
                    self._next()
                nxt = self._peek()
                if nxt.kind in ("DOT", "RBRACE", "RBRACKET") or nxt.kind == "EOF":
                    return
                continue
            return

    def _parse_verb(self) -> Term:
        token = self._peek()
        if token.kind == "KEYWORD" and token.value == "A":
            self._next()
            return RDF.type
        if token.kind == "VAR":
            self._next()
            return Variable(token.value)
        term = self._parse_iri()
        return term

    def _parse_term(self, position: str, block: TriplesBlock | None = None) -> Term:
        token = self._peek()
        if token.kind == "VAR":
            self._next()
            return Variable(token.value)
        if token.kind == "IRIREF":
            self._next()
            return self._resolve_iri(token)
        if token.kind == "PNAME":
            self._next()
            return self._expand_pname(token)
        if token.kind == "BLANK_NODE":
            self._next()
            return BNode(token.value)
        if token.kind == "LBRACKET":
            return self._parse_blank_node_property_list(block)
        if token.kind in ("STRING", "INTEGER", "DECIMAL", "DOUBLE"):
            if position != "object":
                raise SparqlParseError(f"literal not allowed in {position} position", token)
            return self._parse_literal()
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            self._next()
            return Literal(token.value.lower(), datatype=XSD.boolean)
        raise SparqlParseError(f"unexpected token in triple pattern: {token.value!r}", token)

    def _parse_blank_node_property_list(self, block: TriplesBlock | None) -> Term:
        self._expect("LBRACKET")
        node = fresh_bnode("anon")
        if self._peek().kind != "RBRACKET":
            if block is None:
                raise SparqlParseError("blank node property list not allowed here", self._peek())
            self._parse_property_list(node, block)
        self._expect("RBRACKET")
        return node

    def _parse_literal(self) -> Literal:
        token = self._next()
        if token.kind == "STRING":
            lexical = self._strip_quotes(token.value)
            nxt = self._peek()
            if nxt.kind == "LANGTAG":
                self._next()
                return Literal(lexical, lang=nxt.value[1:])
            if nxt.kind == "DATATYPE_MARKER":
                self._next()
                dt_token = self._next()
                if dt_token.kind == "IRIREF":
                    return Literal(lexical, datatype=self._resolve_iri(dt_token))
                if dt_token.kind == "PNAME":
                    return Literal(lexical, datatype=self._expand_pname(dt_token))
                raise SparqlParseError("datatype must be an IRI", dt_token)
            return Literal(lexical)
        if token.kind == "INTEGER":
            return Literal(token.value, datatype=XSD.integer)
        if token.kind == "DECIMAL":
            return Literal(token.value, datatype=XSD.decimal)
        if token.kind == "DOUBLE":
            return Literal(token.value, datatype=XSD.double)
        raise SparqlParseError(f"not a literal: {token.value!r}", token)

    @staticmethod
    def _strip_quotes(raw: str) -> str:
        if raw.startswith('"""') or raw.startswith("'''"):
            return unescape(raw[3:-3])
        return unescape(raw[1:-1])

    def _parse_iri(self) -> URIRef:
        token = self._next()
        if token.kind == "IRIREF":
            return self._resolve_iri(token)
        if token.kind == "PNAME":
            return self._expand_pname(token)
        raise SparqlParseError(f"expected an IRI, found {token.value!r}", token)

    def _resolve_iri(self, token: SparqlToken) -> URIRef:
        value = token.value[1:-1]
        if self.prologue.base:
            return URIRef(value, base=self.prologue.base)
        return URIRef(value)

    def _expand_pname(self, token: SparqlToken) -> URIRef:
        prefix, _, local = token.value.partition(":")
        namespace = self.prologue.namespace_manager.namespace(prefix)
        if namespace is None:
            raise SparqlParseError(f"undeclared prefix {prefix!r}", token)
        return URIRef(namespace + local)

    # ------------------------------------------------------------------ #
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------ #
    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._peek().kind == "OR":
            self._next()
            left = BinaryExpression("||", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        while self._peek().kind == "AND":
            self._next()
            left = BinaryExpression("&&", left, self._parse_relational())
        return left

    _RELATIONAL = {"EQ": "=", "NEQ": "!=", "LT": "<", "GT": ">", "LE": "<=", "GE": ">="}

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        kind = self._peek().kind
        if kind in self._RELATIONAL:
            self._next()
            right = self._parse_additive()
            return BinaryExpression(self._RELATIONAL[kind], left, right)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self._peek().kind in ("PLUS", "MINUS"):
            operator = "+" if self._next().kind == "PLUS" else "-"
            left = BinaryExpression(operator, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self._peek().kind in ("STAR", "SLASH"):
            operator = "*" if self._next().kind == "STAR" else "/"
            left = BinaryExpression(operator, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.kind == "BANG":
            self._next()
            return UnaryExpression("!", self._parse_unary())
        if token.kind == "MINUS":
            self._next()
            return UnaryExpression("-", self._parse_unary())
        if token.kind == "PLUS":
            self._next()
            return UnaryExpression("+", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.kind == "LPAREN":
            self._next()
            expression = self._parse_expression()
            self._expect("RPAREN")
            return expression
        if token.kind == "VAR":
            self._next()
            return VariableExpression(Variable(token.value))
        if token.kind == "KEYWORD" and token.value in _BUILTIN_FUNCTIONS:
            return self._parse_builtin_call()
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            self._next()
            return TermExpression(Literal(token.value.lower(), datatype=XSD.boolean))
        if token.kind in ("STRING", "INTEGER", "DECIMAL", "DOUBLE"):
            return TermExpression(self._parse_literal())
        if token.kind in ("IRIREF", "PNAME"):
            # Either an extension function call or a plain IRI constant.
            if self._peek(1).kind == "LPAREN":
                return self._parse_function_call()
            self._next()
            if token.kind == "IRIREF":
                return TermExpression(self._resolve_iri(token))
            return TermExpression(self._expand_pname(token))
        raise SparqlParseError(f"unexpected token in expression: {token.value!r}", token)

    def _parse_builtin_call(self) -> Expression:
        name = self._next().value
        self._expect("LPAREN")
        arguments: list[Expression] = []
        if self._peek().kind != "RPAREN":
            arguments.append(self._parse_expression())
            while self._peek().kind == "COMMA":
                self._next()
                arguments.append(self._parse_expression())
        self._expect("RPAREN")
        return FunctionCall(name, arguments)

    def _parse_function_call(self) -> Expression:
        token = self._next()
        if token.kind == "IRIREF":
            function_iri = self._resolve_iri(token)
        else:
            function_iri = self._expand_pname(token)
        self._expect("LPAREN")
        arguments: list[Expression] = []
        if self._peek().kind != "RPAREN":
            arguments.append(self._parse_expression())
            while self._peek().kind == "COMMA":
                self._next()
                arguments.append(self._parse_expression())
        self._expect("RPAREN")
        return FunctionCall(str(function_iri), arguments)

    # ------------------------------------------------------------------ #
    # Solution modifiers
    # ------------------------------------------------------------------ #
    def _parse_solution_modifiers(self, modifiers: SolutionModifiers) -> None:
        if self._at_keyword("ORDER"):
            self._next()
            self._expect("KEYWORD", "BY")
            while True:
                token = self._peek()
                if token.kind == "KEYWORD" and token.value in ("ASC", "DESC"):
                    self._next()
                    descending = token.value == "DESC"
                    self._expect("LPAREN")
                    expression = self._parse_expression()
                    self._expect("RPAREN")
                    modifiers.order_by.append(
                        OrderCondition(
                            expression, descending, span=token.span.cover(self._prev_span())
                        )
                    )
                elif token.kind == "VAR":
                    self._next()
                    modifiers.order_by.append(
                        OrderCondition(
                            VariableExpression(Variable(token.value)), span=token.span
                        )
                    )
                elif token.kind == "LPAREN":
                    self._next()
                    expression = self._parse_expression()
                    self._expect("RPAREN")
                    modifiers.order_by.append(
                        OrderCondition(expression, span=token.span.cover(self._prev_span()))
                    )
                else:
                    break
        # LIMIT and OFFSET may appear in either order.
        for _ in range(2):
            if self._at_keyword("LIMIT"):
                self._next()
                modifiers.limit = int(self._expect("INTEGER").value)
            elif self._at_keyword("OFFSET"):
                self._next()
                modifiers.offset = int(self._expect("INTEGER").value)


def parse_query(text: str) -> Query:
    """Parse SPARQL text into a :class:`Query` AST."""
    return SparqlParser().parse(text)
