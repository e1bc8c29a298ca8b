"""SPARQL algebra representation.

Section 4 of the paper cites the *SPARQL algebra* (Cyganiak's relational
algebra for SPARQL) for its "homogeneous representation of the whole query
(LISP like structures)": graph patterns and FILTER constraints live in one
operator tree.  Here that tree is what the planner compiles into physical
operators.  This module provides:

* algebra operators: :class:`AlgebraBGP`, :class:`AlgebraJoin`,
  :class:`AlgebraLeftJoin`, :class:`AlgebraUnion`, :class:`AlgebraFilter`,
  :class:`AlgebraProject`, :class:`AlgebraDistinct`, :class:`AlgebraOrderBy`,
  :class:`AlgebraSlice`,
* :func:`translate_query` / :func:`translate_group` -- AST to algebra
  (following the SPARQL 1.0 translation rules, simplified).  Query
  rewriting does not go through it: :class:`repro.core.rewriter.QueryRewriter`
  walks the AST group tree that the serializer prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Sequence

from ..rdf import Triple, Variable
from .ast import (
    Expression,
    Filter,
    GroupGraphPattern,
    InlineData,
    OptionalPattern,
    OrderCondition,
    Query,
    SelectQuery,
    TriplesBlock,
    UnionPattern,
)

__all__ = [
    "AlgebraNode", "AlgebraBGP", "AlgebraJoin", "AlgebraLeftJoin",
    "AlgebraUnion", "AlgebraFilter", "AlgebraProject", "AlgebraDistinct",
    "AlgebraOrderBy", "AlgebraSlice", "AlgebraTable",
    "translate_query", "translate_group",
]


class AlgebraNode:
    """Base class of algebra operators."""

    def children(self) -> Sequence[AlgebraNode]:
        return ()

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for child in self.children():
            result |= child.variables()
        return result

    def walk(self) -> Iterator[AlgebraNode]:
        """Depth-first pre-order traversal of the operator tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def transform(self, func: Callable[[AlgebraNode], AlgebraNode | None]) -> AlgebraNode:
        """Bottom-up rewriting: rebuild children then apply ``func``.

        ``func`` returns either a replacement node or ``None`` to keep the
        (rebuilt) node unchanged.
        """
        rebuilt = self._rebuild([child.transform(func) for child in self.children()])
        replacement = func(rebuilt)
        return replacement if replacement is not None else rebuilt

    def _rebuild(self, children: list[AlgebraNode]) -> AlgebraNode:
        return self


@dataclass
class AlgebraBGP(AlgebraNode):
    """A Basic Graph Pattern leaf."""

    patterns: list[Triple] = field(default_factory=list)

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for pattern in self.patterns:
            result |= pattern.variables()
        return result


@dataclass
class AlgebraTable(AlgebraNode):
    """An inline solution table (the algebra form of a ``VALUES`` block).

    ``rows`` are tuples aligned with ``columns``; ``None`` is ``UNDEF``.
    """

    columns: list[Variable] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)

    def variables(self) -> set[Variable]:
        return set(self.columns)


@dataclass
class AlgebraJoin(AlgebraNode):
    """Join(left, right)."""

    left: AlgebraNode
    right: AlgebraNode

    def children(self) -> Sequence[AlgebraNode]:
        return (self.left, self.right)

    def _rebuild(self, children: list[AlgebraNode]) -> AlgebraNode:
        return AlgebraJoin(children[0], children[1])


@dataclass
class AlgebraLeftJoin(AlgebraNode):
    """LeftJoin(left, right, expr) — the algebra form of OPTIONAL."""

    left: AlgebraNode
    right: AlgebraNode
    expression: Expression | None = None

    def children(self) -> Sequence[AlgebraNode]:
        return (self.left, self.right)

    def _rebuild(self, children: list[AlgebraNode]) -> AlgebraNode:
        return AlgebraLeftJoin(children[0], children[1], self.expression)


@dataclass
class AlgebraUnion(AlgebraNode):
    """Union(left, right)."""

    left: AlgebraNode
    right: AlgebraNode

    def children(self) -> Sequence[AlgebraNode]:
        return (self.left, self.right)

    def _rebuild(self, children: list[AlgebraNode]) -> AlgebraNode:
        return AlgebraUnion(children[0], children[1])


@dataclass
class AlgebraFilter(AlgebraNode):
    """Filter(expr, child)."""

    expression: Expression
    child: AlgebraNode

    def children(self) -> Sequence[AlgebraNode]:
        return (self.child,)

    def variables(self) -> set[Variable]:
        return self.child.variables() | self.expression.variables()

    def _rebuild(self, children: list[AlgebraNode]) -> AlgebraNode:
        return AlgebraFilter(self.expression, children[0])


@dataclass
class AlgebraProject(AlgebraNode):
    """Project(vars, child)."""

    projection: list[Variable]
    child: AlgebraNode

    def children(self) -> Sequence[AlgebraNode]:
        return (self.child,)

    def _rebuild(self, children: list[AlgebraNode]) -> AlgebraNode:
        return AlgebraProject(list(self.projection), children[0])


@dataclass
class AlgebraDistinct(AlgebraNode):
    """Distinct(child)."""

    child: AlgebraNode

    def children(self) -> Sequence[AlgebraNode]:
        return (self.child,)

    def _rebuild(self, children: list[AlgebraNode]) -> AlgebraNode:
        return AlgebraDistinct(children[0])


@dataclass
class AlgebraOrderBy(AlgebraNode):
    """OrderBy(conditions, child)."""

    conditions: list[OrderCondition]
    child: AlgebraNode

    def children(self) -> Sequence[AlgebraNode]:
        return (self.child,)

    def _rebuild(self, children: list[AlgebraNode]) -> AlgebraNode:
        return AlgebraOrderBy(list(self.conditions), children[0])


@dataclass
class AlgebraSlice(AlgebraNode):
    """Slice(offset, limit, child)."""

    offset: int | None
    limit: int | None
    child: AlgebraNode

    def children(self) -> Sequence[AlgebraNode]:
        return (self.child,)

    def _rebuild(self, children: list[AlgebraNode]) -> AlgebraNode:
        return AlgebraSlice(self.offset, self.limit, children[0])


_EMPTY_BGP = AlgebraBGP([])


# --------------------------------------------------------------------------- #
# AST -> algebra
# --------------------------------------------------------------------------- #
def translate_group(group: GroupGraphPattern) -> AlgebraNode:
    """Translate a group graph pattern following the SPARQL translation rules.

    Filters of a group scope over the whole group: they are collected and
    wrapped around the joined pattern at the end (this is exactly the
    behaviour that makes FILTER-expressed constraints invisible to BGP-only
    rewriting, Experiment E7).
    """
    current: AlgebraNode | None = None
    filters: list[Expression] = []

    for element in group.elements:
        if isinstance(element, Filter):
            filters.append(element.expression)
            continue
        translated = _translate_element(element)
        if isinstance(element, OptionalPattern):
            base = current if current is not None else AlgebraBGP([])
            expression = None
            inner = translated
            if isinstance(translated, AlgebraFilter):
                expression = translated.expression
                inner = translated.child
            current = AlgebraLeftJoin(base, inner, expression)
        elif current is None:
            current = translated
        else:
            current = AlgebraJoin(current, translated)

    if current is None:
        current = AlgebraBGP([])
    for expression in filters:
        current = AlgebraFilter(expression, current)
    return current


def _translate_element(element) -> AlgebraNode:
    if isinstance(element, TriplesBlock):
        return AlgebraBGP(list(element.patterns))
    if isinstance(element, InlineData):
        return AlgebraTable(list(element.columns), list(element.rows))
    if isinstance(element, GroupGraphPattern):
        return translate_group(element)
    if isinstance(element, OptionalPattern):
        return translate_group(element.group)
    if isinstance(element, UnionPattern):
        nodes = [translate_group(alternative) for alternative in element.alternatives]
        result = nodes[0]
        for node in nodes[1:]:
            result = AlgebraUnion(result, node)
        return result
    raise TypeError(f"unsupported pattern element: {element!r}")


def translate_query(query: Query) -> AlgebraNode:
    """Translate a full query (pattern + modifiers) into an algebra tree."""
    node = translate_group(query.where)
    modifiers = query.modifiers
    if modifiers.order_by:
        node = AlgebraOrderBy(list(modifiers.order_by), node)
    if isinstance(query, SelectQuery):
        node = AlgebraProject(query.effective_projection(), node)
    if modifiers.distinct:
        node = AlgebraDistinct(node)
    if modifiers.limit is not None or modifiers.offset is not None:
        node = AlgebraSlice(modifiers.offset, modifiers.limit, node)
    return node
