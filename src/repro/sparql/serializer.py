"""Serialisation of query ASTs back to SPARQL text.

The rewriter produces a modified AST; this module renders it so the query
can be shipped to a (possibly remote) SPARQL endpoint — exactly what the
paper's mediator does after translation (Figure 3 shows such an output).
Prefixes declared in the prologue are used to compact URIs; URIs with no
matching prefix are emitted in ``<...>`` form.
"""

from __future__ import annotations


from ..rdf import BNode, Literal, NamespaceManager, RDF, Term, URIRef, Variable
from ..turtle.ntriples import escape
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
    Query,
    SelectQuery,
    TermExpression,
    TriplesBlock,
    UnaryExpression,
    UnionPattern,
    VariableExpression,
)

__all__ = ["serialize_query", "serialize_expression"]

_BUILTIN_SPELLING = {
    "BOUND": "BOUND", "REGEX": "REGEX", "STR": "STR", "LANG": "LANG",
    "LANGMATCHES": "LANGMATCHES", "DATATYPE": "DATATYPE", "ISURI": "isURI",
    "ISIRI": "isIRI", "ISLITERAL": "isLITERAL", "ISBLANK": "isBLANK",
    "SAMETERM": "sameTerm",
}


class _Writer:
    def __init__(self, namespace_manager: NamespaceManager | None) -> None:
        self._nsm = namespace_manager

    # -- terms --------------------------------------------------------------- #
    def term(self, term: Term) -> str:
        if isinstance(term, Variable):
            return f"?{term.name}"
        if isinstance(term, URIRef):
            if self._nsm is not None:
                compact = self._nsm.compact(term)
                if compact:
                    return compact
            return term.n3()
        if isinstance(term, Literal):
            return self._literal(term)
        if isinstance(term, BNode):
            return term.n3()
        return term.n3()

    def _literal(self, literal: Literal) -> str:
        body = f'"{escape(literal.lexical)}"'
        if literal.lang:
            return f"{body}@{literal.lang}"
        if literal.datatype is not None:
            datatype = literal.datatype
            if self._nsm is not None:
                compact = self._nsm.compact(datatype)
                if compact:
                    return f"{body}^^{compact}"
            return f"{body}^^{datatype.n3()}"
        return body

    def predicate(self, term: Term) -> str:
        if term == RDF.type:
            return "a"
        return self.term(term)

    # -- expressions ---------------------------------------------------------- #
    def expression(self, expression: Expression) -> str:
        if isinstance(expression, TermExpression):
            return self.term(expression.term)
        if isinstance(expression, VariableExpression):
            return f"?{expression.variable.name}"
        if isinstance(expression, UnaryExpression):
            return f"{expression.operator}{self._maybe_parenthesise(expression.operand)}"
        if isinstance(expression, BinaryExpression):
            left = self._maybe_parenthesise(expression.left)
            right = self._maybe_parenthesise(expression.right)
            return f"{left} {expression.operator} {right}"
        if isinstance(expression, FunctionCall):
            return self._function_call(expression)
        raise TypeError(f"unsupported expression node: {expression!r}")

    def _maybe_parenthesise(self, expression: Expression) -> str:
        text = self.expression(expression)
        if isinstance(expression, BinaryExpression):
            return f"({text})"
        return text

    def _function_call(self, call: FunctionCall) -> str:
        arguments = ", ".join(self.expression(argument) for argument in call.arguments)
        name = call.name
        if name in _BUILTIN_SPELLING:
            return f"{_BUILTIN_SPELLING[name]}({arguments})"
        # Extension function identified by IRI.
        iri = URIRef(name)
        if self._nsm is not None:
            compact = self._nsm.compact(iri)
            if compact:
                return f"{compact}({arguments})"
        return f"{iri.n3()}({arguments})"

    # -- patterns ------------------------------------------------------------- #
    def group(self, group: GroupGraphPattern, indent: int = 0) -> str:
        pad = "  " * indent
        lines: list[str] = [pad + "{"]
        for element in group.elements:
            lines.extend(self._element(element, indent + 1))
        lines.append(pad + "}")
        return "\n".join(lines)

    def _element(self, element, indent: int) -> list[str]:
        pad = "  " * indent
        if isinstance(element, TriplesBlock):
            return [f"{pad}{self.triple(pattern)} ." for pattern in element.patterns]
        if isinstance(element, Filter):
            return [f"{pad}FILTER ({self.expression(element.expression)})"]
        if isinstance(element, OptionalPattern):
            body = self.group(element.group, indent)
            return [f"{pad}OPTIONAL {body.lstrip()}"]
        if isinstance(element, UnionPattern):
            parts = [self.group(alternative, indent).lstrip() for alternative in element.alternatives]
            return [pad + (" UNION ".join(parts))]
        if isinstance(element, InlineData):
            return self._inline_data(element, indent)
        if isinstance(element, GroupGraphPattern):
            return [self.group(element, indent)]
        raise TypeError(f"unsupported pattern element: {element!r}")

    def _inline_data(self, data: InlineData, indent: int) -> list[str]:
        pad = "  " * indent
        header = " ".join(f"?{variable.name}" for variable in data.columns)
        lines = [f"{pad}VALUES ({header}) {{"]
        cell_pad = "  " * (indent + 1)
        for row in data.rows:
            cells = " ".join(
                "UNDEF" if term is None else self.term(term) for term in row
            )
            lines.append(f"{cell_pad}({cells})")
        lines.append(f"{pad}}}")
        return lines

    def triple(self, pattern) -> str:
        return (
            f"{self.term(pattern.subject)} "
            f"{self.predicate(pattern.predicate)} "
            f"{self.term(pattern.object)}"
        )


def serialize_query(query: Query) -> str:
    """Render a query AST as SPARQL text."""
    nsm = query.prologue.namespace_manager
    writer = _Writer(nsm)
    lines: list[str] = []

    if query.prologue.base:
        lines.append(f"BASE <{query.prologue.base}>")
    for prefix, namespace in nsm.namespaces():
        lines.append(f"PREFIX {prefix}: <{namespace}>")
    if lines:
        lines.append("")

    if isinstance(query, SelectQuery):
        header = "SELECT"
        if query.modifiers.distinct:
            header += " DISTINCT"
        elif query.modifiers.reduced:
            header += " REDUCED"
        if query.select_all:
            header += " *"
        else:
            header += " " + " ".join(f"?{v.name}" for v in query.projection)
        lines.append(header)
        lines.append("WHERE " + writer.group(query.where).lstrip())
    elif isinstance(query, AskQuery):
        lines.append("ASK " + writer.group(query.where).lstrip())
    elif isinstance(query, ConstructQuery):
        lines.append("CONSTRUCT {")
        for pattern in query.template:
            lines.append(f"  {writer.triple(pattern)} .")
        lines.append("}")
        lines.append("WHERE " + writer.group(query.where).lstrip())
    else:
        raise TypeError(f"unsupported query form: {type(query).__name__}")

    modifiers = query.modifiers
    if modifiers.order_by:
        parts = []
        for condition in modifiers.order_by:
            body = writer.expression(condition.expression)
            if condition.descending:
                parts.append(f"DESC({body})")
            elif not isinstance(condition.expression, VariableExpression):
                parts.append(f"ASC({body})")
            else:
                parts.append(body)
        lines.append("ORDER BY " + " ".join(parts))
    if modifiers.limit is not None:
        lines.append(f"LIMIT {modifiers.limit}")
    if modifiers.offset is not None:
        lines.append(f"OFFSET {modifiers.offset}")
    return "\n".join(lines) + "\n"


def serialize_expression(expression: Expression,
                         namespace_manager: NamespaceManager | None = None) -> str:
    """Render a FILTER expression as SPARQL text."""
    return _Writer(namespace_manager).expression(expression)
