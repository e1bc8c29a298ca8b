"""Abstract syntax tree for SPARQL queries.

The AST mirrors the anatomy described in Section 3.1 of the paper:

* a *prologue* of PREFIX/BASE declarations,
* a *query result form* (SELECT variables / CONSTRUCT template / ASK),
* a *where clause* made of group graph patterns whose leaves are
  :class:`TriplesBlock` objects (the Basic Graph Patterns the rewriting
  algorithm operates on) plus :class:`Filter`, :class:`OptionalPattern`
  and :class:`UnionPattern` nodes,
* solution modifiers (DISTINCT/REDUCED, ORDER BY, LIMIT, OFFSET).

Expression nodes used inside FILTERs live in this module as well; their
evaluation semantics is implemented in :mod:`repro.sparql.expressions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

from ..rdf import NamespaceManager, Term, Triple, Variable
from .tokenizer import SourceSpan

__all__ = [
    # expressions
    "Expression", "TermExpression", "VariableExpression", "BinaryExpression",
    "UnaryExpression", "FunctionCall",
    # patterns
    "PatternElement", "TriplesBlock", "Filter", "OptionalPattern",
    "UnionPattern", "InlineData", "GroupGraphPattern",
    # query forms
    "Prologue", "OrderCondition", "SolutionModifiers",
    "Query", "SelectQuery", "AskQuery", "ConstructQuery",
]


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
class Expression:
    """Base class of FILTER expression nodes."""

    def variables(self) -> set[Variable]:
        """All variables mentioned by the expression."""
        return set()

    def map_terms(self, func) -> Expression:
        """Structurally rebuild the expression applying ``func`` to RDF terms."""
        return self


@dataclass(frozen=True)
class TermExpression(Expression):
    """A constant RDF term (URI or literal) appearing in an expression."""

    term: Term

    def variables(self) -> set[Variable]:
        return {self.term} if isinstance(self.term, Variable) else set()

    def map_terms(self, func) -> Expression:
        return TermExpression(func(self.term))


@dataclass(frozen=True)
class VariableExpression(Expression):
    """A variable reference inside an expression."""

    variable: Variable

    def variables(self) -> set[Variable]:
        return {self.variable}

    def map_terms(self, func) -> Expression:
        mapped = func(self.variable)
        if isinstance(mapped, Variable):
            return VariableExpression(mapped)
        return TermExpression(mapped)


@dataclass(frozen=True)
class BinaryExpression(Expression):
    """A binary operator: ``||  &&  =  !=  <  >  <=  >=  +  -  *  /``."""

    operator: str
    left: Expression
    right: Expression

    def variables(self) -> set[Variable]:
        return self.left.variables() | self.right.variables()

    def map_terms(self, func) -> Expression:
        return BinaryExpression(self.operator, self.left.map_terms(func), self.right.map_terms(func))


@dataclass(frozen=True)
class UnaryExpression(Expression):
    """A unary operator: ``!``, unary ``-`` or unary ``+``."""

    operator: str
    operand: Expression

    def variables(self) -> set[Variable]:
        return self.operand.variables()

    def map_terms(self, func) -> Expression:
        return UnaryExpression(self.operator, self.operand.map_terms(func))


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A built-in call (``BOUND``, ``REGEX``, ``STR``, ...) or extension function."""

    name: str
    arguments: tuple

    def __init__(self, name: str, arguments: Sequence[Expression]) -> None:
        object.__setattr__(self, "name", name.upper() if isinstance(name, str) else name)
        object.__setattr__(self, "arguments", tuple(arguments))

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for argument in self.arguments:
            result |= argument.variables()
        return result

    def map_terms(self, func) -> Expression:
        return FunctionCall(self.name, [a.map_terms(func) for a in self.arguments])


# --------------------------------------------------------------------------- #
# Graph patterns
# --------------------------------------------------------------------------- #
class PatternElement:
    """Base class for the elements of a group graph pattern.

    ``copy()`` gives a structurally independent element: every mutable
    shell (groups, blocks, lists) is new, while terms, triples and
    expressions — frozen values — are shared with the original.
    """

    def variables(self) -> set[Variable]:
        return set()

    def copy(self) -> PatternElement:
        raise NotImplementedError


class TriplesBlock(PatternElement):
    """A Basic Graph Pattern: an ordered block of triple patterns.

    This is the unit Algorithm 1 of the paper rewrites.  The block keeps
    insertion order so rewritten queries remain readable, but equality is
    order-insensitive (a BGP denotes a conjunction).
    """

    def __init__(self, patterns: Iterable[Triple] | None = None) -> None:
        self.patterns: list[Triple] = list(patterns) if patterns else []
        #: Source extent of each pattern, aligned with ``patterns``
        #: (``Triple`` is a frozen value type shared across blocks, so the
        #: positions live here).  ``None`` for programmatically built blocks.
        self.pattern_spans: list[SourceSpan | None] = [None] * len(self.patterns)
        self.span: SourceSpan | None = None

    def add(self, pattern: Triple, span: SourceSpan | None = None) -> TriplesBlock:
        self.patterns.append(pattern)
        self.pattern_spans.append(span)
        return self

    def copy(self) -> TriplesBlock:
        clone = TriplesBlock(self.patterns)
        clone.pattern_spans = list(self.pattern_spans)
        clone.span = self.span
        return clone

    def span_of(self, index: int) -> SourceSpan | None:
        """The source extent of pattern ``index``, if the block was parsed."""
        if 0 <= index < len(self.pattern_spans):
            return self.pattern_spans[index]
        return None

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for pattern in self.patterns:
            result |= pattern.variables()
        return result

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TriplesBlock) and set(self.patterns) == set(other.patterns)

    def __hash__(self) -> int:  # pragma: no cover - blocks are mutable
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TriplesBlock({self.patterns!r})"


@dataclass
class Filter(PatternElement):
    """A FILTER constraint attached to a group."""

    expression: Expression
    span: SourceSpan | None = field(default=None, compare=False)

    def variables(self) -> set[Variable]:
        return self.expression.variables()

    def copy(self) -> Filter:
        return Filter(self.expression, self.span)


@dataclass
class OptionalPattern(PatternElement):
    """An OPTIONAL group."""

    group: GroupGraphPattern
    span: SourceSpan | None = field(default=None, compare=False)

    def variables(self) -> set[Variable]:
        return self.group.variables()

    def copy(self) -> OptionalPattern:
        return OptionalPattern(self.group.copy(), self.span)


@dataclass
class UnionPattern(PatternElement):
    """A UNION of two or more groups."""

    alternatives: list[GroupGraphPattern]
    span: SourceSpan | None = field(default=None, compare=False)

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for alternative in self.alternatives:
            result |= alternative.variables()
        return result

    def copy(self) -> UnionPattern:
        return UnionPattern([group.copy() for group in self.alternatives], self.span)


class InlineData(PatternElement):
    """A ``VALUES`` block: an inline table of solution bindings.

    ``columns`` lists the variables; each row is a tuple of terms aligned
    with ``columns``, with ``None`` standing for ``UNDEF``.  The block
    joins with the rest of its group exactly like a table of precomputed
    solutions — this is what the federation layer's *bound joins* ship to
    remote endpoints so they only evaluate a pattern against the bindings
    already produced by earlier join steps.
    """

    def __init__(
        self,
        columns: Iterable[Variable],
        rows: Iterable[Sequence[Term | None]] = (),
    ) -> None:
        self.columns: list[Variable] = list(columns)
        self.rows: list[tuple] = [tuple(row) for row in rows]
        self.span: SourceSpan | None = None
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"VALUES row width {len(row)} does not match "
                    f"{len(self.columns)} variables"
                )

    def copy(self) -> InlineData:
        clone = InlineData(self.columns)
        clone.rows = list(self.rows)
        clone.span = self.span
        return clone

    def add_row(self, row: Sequence[Term | None]) -> InlineData:
        if len(row) != len(self.columns):
            raise ValueError(
                f"VALUES row width {len(row)} does not match "
                f"{len(self.columns)} variables"
            )
        self.rows.append(tuple(row))
        return self

    def variables(self) -> set[Variable]:
        return set(self.columns)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InlineData)
            and self.columns == other.columns
            and self.rows == other.rows
        )

    def __hash__(self) -> int:  # pragma: no cover - blocks are mutable
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InlineData({self.columns!r}, {len(self.rows)} rows)"


class GroupGraphPattern(PatternElement):
    """A ``{ ... }`` group: an ordered list of pattern elements."""

    def __init__(self, elements: Iterable[PatternElement] | None = None) -> None:
        self.elements: list[PatternElement] = list(elements) if elements else []
        self.span: SourceSpan | None = None

    def add(self, element: PatternElement) -> GroupGraphPattern:
        self.elements.append(element)
        return self

    def copy(self) -> GroupGraphPattern:
        clone = GroupGraphPattern([element.copy() for element in self.elements])
        clone.span = self.span
        return clone

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for element in self.elements:
            result |= element.variables()
        return result

    def triples_blocks(self) -> Iterator[TriplesBlock]:
        """Yield every :class:`TriplesBlock` nested anywhere in the group.

        This is the traversal the query rewriter uses to locate all BGPs,
        including those inside OPTIONAL and UNION branches.
        """
        for element in self.elements:
            if isinstance(element, TriplesBlock):
                yield element
            elif isinstance(element, GroupGraphPattern):
                yield from element.triples_blocks()
            elif isinstance(element, OptionalPattern):
                yield from element.group.triples_blocks()
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    yield from alternative.triples_blocks()

    def filters(self) -> Iterator[Filter]:
        """Yield every FILTER nested anywhere in the group."""
        for element in self.elements:
            if isinstance(element, Filter):
                yield element
            elif isinstance(element, GroupGraphPattern):
                yield from element.filters()
            elif isinstance(element, OptionalPattern):
                yield from element.group.filters()
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    yield from alternative.filters()

    def all_triple_patterns(self) -> list[Triple]:
        """Flat list of every triple pattern in the group (all BGPs)."""
        patterns: list[Triple] = []
        for block in self.triples_blocks():
            patterns.extend(block.patterns)
        return patterns

    def __iter__(self) -> Iterator[PatternElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupGraphPattern({self.elements!r})"


# --------------------------------------------------------------------------- #
# Query forms
# --------------------------------------------------------------------------- #
@dataclass
class Prologue:
    """PREFIX/BASE declarations of a query."""

    namespace_manager: NamespaceManager = field(default_factory=lambda: NamespaceManager(install_defaults=False))
    base: str | None = None

    def bind(self, prefix: str, namespace: str) -> None:
        self.namespace_manager.bind(prefix, namespace)

    def copy(self) -> Prologue:
        return Prologue(self.namespace_manager.copy(), self.base)


@dataclass
class OrderCondition:
    """A single ORDER BY condition."""

    expression: Expression
    descending: bool = False
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class SolutionModifiers:
    """DISTINCT/REDUCED, ORDER BY, LIMIT and OFFSET."""

    distinct: bool = False
    reduced: bool = False
    order_by: list[OrderCondition] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None

    def copy(self) -> SolutionModifiers:
        return SolutionModifiers(
            distinct=self.distinct,
            reduced=self.reduced,
            order_by=[
                OrderCondition(condition.expression, condition.descending, condition.span)
                for condition in self.order_by
            ],
            limit=self.limit,
            offset=self.offset,
        )


class Query:
    """Base class of the three query forms."""

    def __init__(self, prologue: Prologue, where: GroupGraphPattern,
                 modifiers: SolutionModifiers | None = None) -> None:
        self.prologue = prologue
        self.where = where
        self.modifiers = modifiers or SolutionModifiers()
        #: Extent of the whole query text when parsed, else ``None``.
        self.span: SourceSpan | None = None

    # -- introspection used by the rewriter --------------------------------- #
    def triples_blocks(self) -> Iterator[TriplesBlock]:
        """All BGPs of the WHERE clause."""
        return self.where.triples_blocks()

    def filters(self) -> Iterator[Filter]:
        """All FILTERs of the WHERE clause."""
        return self.where.filters()

    def all_triple_patterns(self) -> list[Triple]:
        return self.where.all_triple_patterns()

    def variables(self) -> set[Variable]:
        return self.where.variables()

    def copy(self) -> Query:
        """A query that shares no mutable part with this one.

        Prologue, modifiers, every group, block and list are new; terms,
        triples and expressions are frozen values and stay shared.
        """
        clone = self._copy_form(self.prologue.copy(), self.where.copy(), self.modifiers.copy())
        clone.span = self.span
        return clone

    def _copy_form(
        self, prologue: Prologue, where: GroupGraphPattern, modifiers: SolutionModifiers
    ) -> Query:
        return type(self)(prologue, where, modifiers)

    def serialize(self) -> str:
        """Render the query back to SPARQL text."""
        from .serializer import serialize_query

        return serialize_query(self)

    def __str__(self) -> str:
        return self.serialize()


class SelectQuery(Query):
    """A SELECT query.

    ``projection`` is the list of requested variables; an empty list means
    ``SELECT *`` (project every visible variable).
    """

    def __init__(
        self,
        prologue: Prologue,
        projection: Sequence[Variable],
        where: GroupGraphPattern,
        modifiers: SolutionModifiers | None = None,
        projection_spans: Sequence[SourceSpan | None] | None = None,
    ) -> None:
        super().__init__(prologue, where, modifiers)
        self.projection: list[Variable] = list(projection)
        #: Source extent of each projected variable, aligned with
        #: ``projection`` (``None`` entries for programmatically built queries).
        self.projection_spans: list[SourceSpan | None] = (
            list(projection_spans)
            if projection_spans is not None
            else [None] * len(self.projection)
        )

    def _copy_form(
        self, prologue: Prologue, where: GroupGraphPattern, modifiers: SolutionModifiers
    ) -> SelectQuery:
        return SelectQuery(prologue, self.projection, where, modifiers, self.projection_spans)

    @property
    def select_all(self) -> bool:
        """True for ``SELECT *``."""
        return not self.projection

    def effective_projection(self) -> list[Variable]:
        """The projected variables, expanding ``*`` to all visible variables."""
        if self.projection:
            return list(self.projection)
        return sorted(self.where.variables(), key=str)


class AskQuery(Query):
    """An ASK query (boolean result)."""


class ConstructQuery(Query):
    """A CONSTRUCT query with a template of triple patterns."""

    def __init__(
        self,
        prologue: Prologue,
        template: Sequence[Triple],
        where: GroupGraphPattern,
        modifiers: SolutionModifiers | None = None,
    ) -> None:
        super().__init__(prologue, where, modifiers)
        self.template: list[Triple] = list(template)

    def _copy_form(
        self, prologue: Prologue, where: GroupGraphPattern, modifiers: SolutionModifiers
    ) -> ConstructQuery:
        return ConstructQuery(prologue, self.template, where, modifiers)
