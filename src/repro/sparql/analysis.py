"""Static semantic analysis of SPARQL queries.

The analyzer runs over the parsed AST *before* any engine executes and
emits structured :class:`Diagnostic` objects, each carrying a stable
code, a severity and an exact :class:`~repro.sparql.tokenizer.SourceSpan`.
It exists because the mediator's rewriting pipeline can silently produce
queries that never answer — variables that fall out of scope, filters
over terms an alignment rewrote away, literals migrated into subject
position — and the first report of that used to come from deep inside
the execution engine or, worse, from a remote endpoint.

Severity taxonomy
-----------------

``error``
    The query can never produce the intended answer as written
    (projecting a variable that no pattern binds, a literal in subject
    or predicate position).  ``QueryEvaluator(strict=True)`` and the
    HTTP server's strict mode refuse these with
    :class:`QueryAnalysisError`.
``warning``
    The query is legal but almost certainly wrong or wasteful: a
    constant-false FILTER (the group is provably empty), a disconnected
    basic graph pattern (cartesian product), a statically ill-typed
    expression, a pattern no registered dataset can answer.
``info``
    Style and planning hints: unused variables, constant-true filters,
    constructs that force the federation layer's fan-out fallback.

Besides diagnostics the analyzer produces machine-consumable facts the
execution layers feed on: per-query certain/possible variable scopes,
constant-folded FILTER values, and a *provably empty* verdict that lets
:class:`~repro.sparql.evaluator.QueryEvaluator` and the federation
decomposer answer without a single index lookup or endpoint request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence
from typing import Any

from ..rdf import BNode, Literal, Triple, URIRef, Variable, XSD
from ..rdf.terms import _NUMERIC_DATATYPES
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
)
from .expressions import ExpressionError, effective_boolean_value, evaluate_expression
from .results import Binding
from .tokenizer import SourceSpan

__all__ = [
    "Diagnostic",
    "AnalysisResult",
    "QueryAnalysisError",
    "DIAGNOSTIC_CODES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SEVERITY_INFO",
    "analyze_query",
    "prune_query",
]

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

#: Every diagnostic code, with its fixed severity and a one-line
#: description.  The analyzer emits the SQA1xx codes; the federation
#: planner (``repro.federation.decompose``) raises SQA201 and SQA202 with
#: the same :class:`Diagnostic` type.  Codes are stable across releases:
#: tests, CI gates and API clients key on them.
DIAGNOSTIC_CODES: dict[str, tuple[str, str]] = {
    "SQA101": (SEVERITY_ERROR, "projection references a variable no pattern can bind"),
    "SQA102": (SEVERITY_ERROR, "ORDER BY references a variable no pattern can bind"),
    "SQA103": (SEVERITY_ERROR, "FILTER references a variable no pattern can bind"),
    "SQA104": (SEVERITY_INFO, "variable is bound but never used"),
    "SQA105": (SEVERITY_ERROR, "literal in subject position can never match"),
    "SQA106": (SEVERITY_ERROR, "literal in predicate position can never match"),
    "SQA107": (SEVERITY_WARNING, "disconnected basic graph pattern (cartesian product)"),
    "SQA108": (SEVERITY_WARNING, "FILTER is constant false: the group is provably empty"),
    "SQA109": (SEVERITY_INFO, "FILTER is constant true (redundant)"),
    "SQA110": (SEVERITY_WARNING, "statically ill-typed expression"),
    "SQA111": (SEVERITY_WARNING, "VALUES block has no rows: the group is provably empty"),
    "SQA201": (SEVERITY_WARNING, "triple pattern matches no registered dataset"),
    "SQA202": (SEVERITY_INFO, "query shape forces the fan-out federation fallback"),
}

#: Fallback extent used when a programmatically-built AST node carries no
#: source position (rewritten queries share this with the query start).
FALLBACK_SPAN = SourceSpan(1, 1, 1, 2)


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding: stable code, severity, message and extent."""

    code: str
    severity: str
    message: str
    span: SourceSpan
    hint: str | None = None

    def render(self, source: str | None = None) -> str:
        """``source:line:col: severity[code] message`` (one line)."""
        prefix = f"{source}:" if source else ""
        text = (
            f"{prefix}{self.span.line}:{self.span.column}: "
            f"{self.severity}[{self.code}] {self.message}"
        )
        if self.hint:
            text += f" ({self.hint})"
        return text

    def to_json_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "span": {
                "line": self.span.line,
                "column": self.span.column,
                "end_line": self.span.end_line,
                "end_column": self.span.end_column,
            },
        }
        if self.hint:
            payload["hint"] = self.hint
        return payload


class QueryAnalysisError(ValueError):
    """Raised in strict mode when analysis finds error-severity findings."""

    def __init__(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.diagnostics: list[Diagnostic] = list(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == SEVERITY_ERROR]
        summary = "; ".join(d.render() for d in errors[:3]) or "query rejected by analysis"
        if len(errors) > 3:
            summary += f" (+{len(errors) - 3} more)"
        super().__init__(summary)


@dataclass
class AnalysisResult:
    """Diagnostics plus the machine-consumable facts execution feeds on."""

    query: Query
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Variables bound in every solution of the WHERE clause.
    certain_variables: frozenset[Variable] = frozenset()
    #: Variables bound in at least some solution (OPTIONAL/UNION arms).
    possible_variables: frozenset[Variable] = frozenset()
    #: Constant-folded FILTER truth, keyed by ``id()`` of the Filter node.
    constant_filters: dict[int, bool] = field(default_factory=dict)
    #: True when the WHERE clause provably yields no solutions.
    provably_empty: bool = False
    empty_reason: str | None = None

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_INFO]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == SEVERITY_ERROR for d in self.diagnostics)

    def to_json_list(self) -> list[dict[str, Any]]:
        return [d.to_json_dict() for d in self.diagnostics]


# --------------------------------------------------------------------------- #
# Variable scoping
# --------------------------------------------------------------------------- #
def group_scopes(group: GroupGraphPattern) -> tuple[set[Variable], set[Variable]]:
    """``(certain, possible)`` variable sets of one group graph pattern.

    *Certain* variables are bound in every solution the group produces;
    *possible* variables are bound in at least one.  OPTIONAL bodies
    contribute only possible variables, a UNION binds certainly only what
    every branch binds, and a VALUES column is certain only when no row
    leaves it UNDEF — the same rules the algebra-level planner applies.
    """
    certain: set[Variable] = set()
    possible: set[Variable] = set()
    for element in group.elements:
        if isinstance(element, TriplesBlock):
            block_vars = element.variables()
            certain |= block_vars
            possible |= block_vars
        elif isinstance(element, GroupGraphPattern):
            inner_certain, inner_possible = group_scopes(element)
            certain |= inner_certain
            possible |= inner_possible
        elif isinstance(element, OptionalPattern):
            possible |= group_scopes(element.group)[1]
        elif isinstance(element, UnionPattern):
            branch_certain: set[Variable] | None = None
            for alternative in element.alternatives:
                alt_certain, alt_possible = group_scopes(alternative)
                possible |= alt_possible
                branch_certain = (
                    alt_certain if branch_certain is None else branch_certain & alt_certain
                )
            certain |= branch_certain or set()
        elif isinstance(element, InlineData):
            possible |= set(element.columns)
            for index, column in enumerate(element.columns):
                if element.rows and all(row[index] is not None for row in element.rows):
                    certain.add(column)
    return certain, possible


# --------------------------------------------------------------------------- #
# Constant folding
# --------------------------------------------------------------------------- #
def fold_constant(expression: Expression) -> bool | None:
    """The effective boolean value of a variable-free expression.

    Returns ``None`` when the expression cannot be folded (it mentions a
    variable).  A SPARQL
    expression error on constants is deterministic — the filter rejects
    every row — so it folds to ``False`` exactly as it would at runtime.
    """
    if expression.variables():
        return None
    try:
        return effective_boolean_value(evaluate_expression(expression, Binding()))
    except ExpressionError:
        return False


# --------------------------------------------------------------------------- #
# Static expression typing
# --------------------------------------------------------------------------- #
_TYPE_NUMERIC = "numeric"
_TYPE_STRING = "string"
_TYPE_BOOLEAN = "boolean"
_TYPE_IRI = "iri"

_COMPARABLE = {_TYPE_NUMERIC, _TYPE_STRING, _TYPE_BOOLEAN}
_ARITHMETIC_OPERATORS = {"+", "-", "*", "/"}
_ORDERING_OPERATORS = {"<", ">", "<=", ">="}


def _literal_type(literal: Literal) -> str | None:
    if literal.lang is not None:
        return _TYPE_STRING
    datatype = literal.datatype
    if datatype is None or str(datatype) == str(XSD.string):
        return _TYPE_STRING
    if str(datatype) in _NUMERIC_DATATYPES:
        return _TYPE_NUMERIC
    if str(datatype) == str(XSD.boolean):
        return _TYPE_BOOLEAN
    return None  # unknown datatype: assume nothing statically.


def _static_type(expression: Expression) -> str | None:
    """The statically-known value category of an expression, if any."""
    if isinstance(expression, TermExpression):
        term = expression.term
        if isinstance(term, (URIRef, BNode)):
            return _TYPE_IRI
        if isinstance(term, Literal):
            return _literal_type(term)
        return None
    if isinstance(expression, BinaryExpression):
        if expression.operator in _ARITHMETIC_OPERATORS:
            return _TYPE_NUMERIC
        return _TYPE_BOOLEAN
    if isinstance(expression, UnaryExpression):
        if expression.operator == "!":
            return _TYPE_BOOLEAN
        return _TYPE_NUMERIC
    if isinstance(expression, FunctionCall):
        name = expression.name
        if name in ("STR", "LANG"):
            return _TYPE_STRING
        if name == "DATATYPE":
            return _TYPE_IRI
        if name in ("BOUND", "REGEX", "LANGMATCHES", "ISURI", "ISIRI",
                    "ISLITERAL", "ISBLANK", "SAMETERM"):
            return _TYPE_BOOLEAN
    return None


def _iter_subexpressions(expression: Expression) -> Iterator[Expression]:
    yield expression
    if isinstance(expression, BinaryExpression):
        yield from _iter_subexpressions(expression.left)
        yield from _iter_subexpressions(expression.right)
    elif isinstance(expression, UnaryExpression):
        yield from _iter_subexpressions(expression.operand)
    elif isinstance(expression, FunctionCall):
        for argument in expression.arguments:
            yield from _iter_subexpressions(argument)


def _expression_text(expression: Expression, query: Query | None = None) -> str:
    from .serializer import serialize_expression

    manager = query.prologue.namespace_manager if query is not None else None
    return serialize_expression(expression, manager)


# --------------------------------------------------------------------------- #
# The analyzer
# --------------------------------------------------------------------------- #
class _Analyzer:
    def __init__(self, query: Query, graph: Any = None) -> None:
        self.query = query
        self.graph = graph
        self.result = AnalysisResult(query=query)

    # -- helpers ----------------------------------------------------------- #
    def _span(self, span: SourceSpan | None) -> SourceSpan:
        if span is not None:
            return span
        if self.query.span is not None:
            return SourceSpan(self.query.span.line, self.query.span.column,
                              self.query.span.line, self.query.span.column + 1)
        return FALLBACK_SPAN

    def emit(self, code: str, message: str, span: SourceSpan | None,
             hint: str | None = None) -> None:
        severity = DIAGNOSTIC_CODES[code][0]
        self.result.diagnostics.append(
            Diagnostic(code, severity, message, self._span(span), hint)
        )

    # -- driver ------------------------------------------------------------ #
    def run(self) -> AnalysisResult:
        certain, possible = group_scopes(self.query.where)
        self.result.certain_variables = frozenset(certain)
        self.result.possible_variables = frozenset(possible)

        self._check_projection(possible)
        self._check_order_by(possible)
        self._check_filters(possible)
        self._check_unused(possible)
        self._check_pattern_terms()
        self._check_cartesian()
        empty_reason = self._group_empty_reason(self.query.where)
        if empty_reason is not None:
            self.result.provably_empty = True
            self.result.empty_reason = empty_reason
        self.result.diagnostics.sort(
            key=lambda d: (d.span.line, d.span.column, d.code)
        )
        return self.result

    # -- never-bound variables --------------------------------------------- #
    def _check_projection(self, possible: set[Variable]) -> None:
        if not isinstance(self.query, SelectQuery) or self.query.select_all:
            return
        for index, variable in enumerate(self.query.projection):
            if variable not in possible:
                span = None
                if index < len(self.query.projection_spans):
                    span = self.query.projection_spans[index]
                self.emit(
                    "SQA101",
                    f"projected variable ?{variable.name} is never bound by the "
                    f"WHERE clause",
                    span,
                    hint=self._nearest_hint(variable, possible),
                )

    def _check_order_by(self, possible: set[Variable]) -> None:
        for condition in self.query.modifiers.order_by:
            for variable in sorted(condition.expression.variables(), key=str):
                if variable not in possible:
                    self.emit(
                        "SQA102",
                        f"ORDER BY references ?{variable.name}, which is never "
                        f"bound by the WHERE clause",
                        condition.span,
                        hint=self._nearest_hint(variable, possible),
                    )

    def _check_filters(self, possible: set[Variable]) -> None:
        for filter_element in self._all_filters(self.query.where):
            for variable in sorted(filter_element.expression.variables(), key=str):
                if variable not in possible:
                    self.emit(
                        "SQA103",
                        f"FILTER references ?{variable.name}, which is never "
                        f"bound by the WHERE clause",
                        filter_element.span,
                        hint=self._nearest_hint(variable, possible),
                    )
            self._check_expression_types(filter_element.expression, filter_element.span)
        for condition in self.query.modifiers.order_by:
            self._check_expression_types(condition.expression, condition.span)

    @staticmethod
    def _nearest_hint(variable: Variable, candidates: set[Variable]) -> str | None:
        """Suggest a bound variable differing only by an edit-adjacent name."""
        needle = variable.name.lower()
        best: str | None = None
        for candidate in sorted(candidates, key=str):
            name = candidate.name.lower()
            if name == needle:
                continue
            if _edit_distance_at_most_two(needle, name):
                best = candidate.name
                break
        return f"did you mean ?{best}?" if best else None

    def _all_filters(self, group: GroupGraphPattern) -> Iterator[Filter]:
        yield from group.filters()

    # -- unused variables --------------------------------------------------- #
    def _check_unused(self, possible: set[Variable]) -> None:
        if isinstance(self.query, AskQuery):
            return  # every pattern variable is an existence wildcard in ASK.
        if isinstance(self.query, SelectQuery) and self.query.select_all:
            return  # SELECT * projects everything.

        mentions: dict[Variable, int] = {}
        first_span: dict[Variable, SourceSpan | None] = {}
        for block in self.query.where.triples_blocks():
            for index, pattern in enumerate(block.patterns):
                for term in pattern:
                    if isinstance(term, Variable):
                        mentions[term] = mentions.get(term, 0) + 1
                        first_span.setdefault(term, block.span_of(index))
        for element in self._all_inline_data(self.query.where):
            for column in element.columns:
                mentions[column] = mentions.get(column, 0) + 1
                first_span.setdefault(column, element.span)

        used: set[Variable] = set()
        if isinstance(self.query, SelectQuery):
            used |= set(self.query.projection)
        if isinstance(self.query, ConstructQuery):
            for pattern in self.query.template:
                used |= pattern.variables()
        for filter_element in self.query.where.filters():
            used |= filter_element.expression.variables()
        for condition in self.query.modifiers.order_by:
            used |= condition.expression.variables()

        for variable in sorted(mentions, key=str):
            if mentions[variable] == 1 and variable not in used:
                self.emit(
                    "SQA104",
                    f"variable ?{variable.name} is bound but never used "
                    f"(not projected, filtered, ordered on, or joined)",
                    first_span.get(variable),
                )

    def _all_inline_data(self, group: GroupGraphPattern) -> Iterator[InlineData]:
        for element in group.elements:
            if isinstance(element, InlineData):
                yield element
            elif isinstance(element, GroupGraphPattern):
                yield from self._all_inline_data(element)
            elif isinstance(element, OptionalPattern):
                yield from self._all_inline_data(element.group)
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    yield from self._all_inline_data(alternative)

    # -- impossible pattern terms ------------------------------------------- #
    def _check_pattern_terms(self) -> None:
        for block in self.query.where.triples_blocks():
            for index, pattern in enumerate(block.patterns):
                span = block.span_of(index)
                if isinstance(pattern.subject, Literal):
                    self.emit(
                        "SQA105",
                        f"literal {pattern.subject.n3()} in subject position "
                        f"matches nothing (RDF has no literal subjects)",
                        span,
                    )
                if isinstance(pattern.predicate, Literal):
                    self.emit(
                        "SQA106",
                        f"literal {pattern.predicate.n3()} in predicate position "
                        f"matches nothing (RDF predicates are IRIs)",
                        span,
                    )

    # -- disconnected BGPs --------------------------------------------------- #
    def _check_cartesian(self) -> None:
        for group in self._all_groups(self.query.where):
            patterns: list[Triple] = []
            spans: list[SourceSpan | None] = []
            for element in group.elements:
                if isinstance(element, TriplesBlock):
                    patterns.extend(element.patterns)
                    spans.extend(
                        element.span_of(i) for i in range(len(element.patterns))
                    )
            self._check_cartesian_patterns(patterns, spans)

    def _all_groups(self, group: GroupGraphPattern) -> Iterator[GroupGraphPattern]:
        yield group
        for element in group.elements:
            if isinstance(element, GroupGraphPattern):
                yield from self._all_groups(element)
            elif isinstance(element, OptionalPattern):
                yield from self._all_groups(element.group)
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    yield from self._all_groups(alternative)

    def _check_cartesian_patterns(
        self, patterns: list[Triple], spans: list[SourceSpan | None]
    ) -> None:
        # Ground patterns only scale the result by 0 or 1; they cannot
        # create a cartesian blow-up, so only variable-carrying patterns
        # participate in the connectivity check.
        indexed = [
            (index, pattern.variables())
            for index, pattern in enumerate(patterns)
            if pattern.variables()
        ]
        if len(indexed) < 2:
            return
        parent = {index: index for index, _ in indexed}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        by_variable: dict[Variable, int] = {}
        for index, variables in indexed:
            for variable in variables:
                if variable in by_variable:
                    ra, rb = find(by_variable[variable]), find(index)
                    parent[ra] = rb
                else:
                    by_variable[variable] = index
        components: dict[int, list[int]] = {}
        for index, _ in indexed:
            components.setdefault(find(index), []).append(index)
        if len(components) < 2:
            return

        sizes = [
            self._component_estimate([patterns[i] for i in members])
            for members in components.values()
        ]
        product: float | None = None
        if all(size is not None for size in sizes):
            product = 1.0
            for size in sizes:
                product *= size  # type: ignore[operator]
        message = (
            f"{len(components)} pattern groups share no variables: "
            f"the join is a cartesian product"
        )
        hint = (
            f"up to ~{int(product)} rows from this group alone"
            if product is not None
            else None
        )
        first = min(members[0] for members in components.values())
        self.emit("SQA107", message, spans[first] if first < len(spans) else None, hint)

    def _component_estimate(self, patterns: list[Triple]) -> float | None:
        """Upper-bound row estimate of one connected component via Graph.stats."""
        if self.graph is None or not hasattr(self.graph, "cardinality"):
            return None
        best: float | None = None
        for pattern in patterns:
            args = [
                term if not isinstance(term, (Variable, BNode)) else None
                for term in pattern
            ]
            try:
                count = float(self.graph.cardinality(*args))
            except Exception:  # noqa: BLE001 - stats are advisory only
                return None
            best = count if best is None else min(best, count)
        return best

    # -- constant folding and provable emptiness ----------------------------- #
    def _group_empty_reason(self, group: GroupGraphPattern) -> str | None:
        """A human-readable reason the group provably yields no solutions."""
        reason: str | None = None
        for element in group.elements:
            if isinstance(element, Filter):
                folded = fold_constant(element.expression)
                if folded is None:
                    continue
                self.result.constant_filters[id(element)] = folded
                text = _expression_text(element.expression, self.query)
                if folded:
                    self.emit(
                        "SQA109",
                        f"FILTER({text}) is always true and can be removed",
                        element.span,
                    )
                elif reason is None:
                    self.emit(
                        "SQA108",
                        f"FILTER({text}) is always false: this group can "
                        f"never produce a solution",
                        element.span,
                    )
                    reason = f"FILTER({text}) is always false"
                else:
                    self.emit(
                        "SQA108",
                        f"FILTER({text}) is always false: this group can "
                        f"never produce a solution",
                        element.span,
                    )
            elif isinstance(element, TriplesBlock):
                if reason is None:
                    for pattern in element.patterns:
                        if isinstance(pattern.subject, Literal) or isinstance(
                            pattern.predicate, Literal
                        ):
                            reason = (
                                "a triple pattern places a literal in subject or "
                                "predicate position and can never match"
                            )
                            break
            elif isinstance(element, GroupGraphPattern):
                inner = self._group_empty_reason(element)
                if inner is not None and reason is None:
                    reason = inner
            elif isinstance(element, UnionPattern):
                branch_reasons = [
                    self._group_empty_reason(alternative)
                    for alternative in element.alternatives
                ]
                if all(r is not None for r in branch_reasons) and reason is None:
                    reason = f"every UNION branch is empty ({branch_reasons[0]})"
            elif isinstance(element, OptionalPattern):
                # An empty OPTIONAL body never removes solutions; still walk
                # it so its filters get folded and diagnosed.
                self._group_empty_reason(element.group)
            elif isinstance(element, InlineData):
                if not element.rows:
                    self.emit(
                        "SQA111",
                        "VALUES block has no rows: this group can never "
                        "produce a solution",
                        element.span,
                    )
                    if reason is None:
                        reason = "a VALUES block has no rows"
        return reason

    # -- static typing -------------------------------------------------------- #
    def _check_expression_types(
        self, expression: Expression, span: SourceSpan | None
    ) -> None:
        for node in _iter_subexpressions(expression):
            if not isinstance(node, BinaryExpression):
                continue
            left_type = _static_type(node.left)
            right_type = _static_type(node.right)
            if node.operator in _ARITHMETIC_OPERATORS:
                for side, side_type in ((node.left, left_type), (node.right, right_type)):
                    if side_type in (_TYPE_IRI, _TYPE_STRING, _TYPE_BOOLEAN):
                        self.emit(
                            "SQA110",
                            f"arithmetic '{node.operator}' on "
                            f"{_expression_text(side, self.query)} ({side_type} operand): "
                            f"this always raises a SPARQL type error, so the "
                            f"filter rejects every row",
                            span,
                        )
            elif node.operator in _ORDERING_OPERATORS:
                if _TYPE_IRI in (left_type, right_type):
                    self.emit(
                        "SQA110",
                        f"ordering comparison '{node.operator}' on an IRI: "
                        f"IRIs admit only = and != in SPARQL",
                        span,
                    )
                elif (
                    left_type in _COMPARABLE
                    and right_type in _COMPARABLE
                    and left_type != right_type
                ):
                    self.emit(
                        "SQA110",
                        f"comparison '{node.operator}' between {left_type} and "
                        f"{right_type} operands always raises a SPARQL type "
                        f"error, so the filter rejects every row",
                        span,
                    )


def _edit_distance_at_most_two(a: str, b: str) -> bool:
    if abs(len(a) - len(b)) > 2:
        return False
    # Tiny bounded Levenshtein: queries have short variable names.
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        if min(current) > 2:
            return False
        previous = current
    return previous[-1] <= 2


# --------------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------------- #
def analyze_query(query: Query, graph: Any = None) -> AnalysisResult:
    """Statically analyze one parsed query.

    ``graph`` is optional; when given, its exact statistics size the
    cartesian-product warnings.  The analyzer never executes the query
    and never touches an endpoint.
    """
    return _Analyzer(query, graph).run()


def prune_query(query: Query, analysis: AnalysisResult) -> Query:
    """The query with analyzer-proven redundancy removed.

    Currently this drops constant-``true`` FILTERs (folded by
    :func:`analyze_query`); provably-empty groups are handled further up
    by compiling an empty plan instead.  Returns ``query`` unchanged when
    there is nothing to prune; the input AST is never mutated.
    """
    droppable = {
        key for key, value in analysis.constant_filters.items() if value
    }
    if not droppable:
        return query

    def rebuild_group(group: GroupGraphPattern) -> GroupGraphPattern:
        rebuilt = GroupGraphPattern()
        rebuilt.span = group.span
        for element in group.elements:
            if isinstance(element, Filter) and id(element) in droppable:
                continue
            if isinstance(element, GroupGraphPattern):
                rebuilt.add(rebuild_group(element))
            elif isinstance(element, OptionalPattern):
                rebuilt.add(
                    OptionalPattern(rebuild_group(element.group), span=element.span)
                )
            elif isinstance(element, UnionPattern):
                rebuilt.add(
                    UnionPattern(
                        [rebuild_group(a) for a in element.alternatives],
                        span=element.span,
                    )
                )
            else:
                rebuilt.add(element)
        return rebuilt

    where = rebuild_group(query.where)
    pruned: Query
    if isinstance(query, SelectQuery):
        pruned = SelectQuery(
            query.prologue, query.projection, where, query.modifiers,
            query.projection_spans,
        )
    elif isinstance(query, AskQuery):
        pruned = AskQuery(query.prologue, where, query.modifiers)
    elif isinstance(query, ConstructQuery):
        pruned = ConstructQuery(query.prologue, query.template, where, query.modifiers)
    else:  # pragma: no cover - no other query forms exist
        return query
    pruned.span = query.span
    return pruned
