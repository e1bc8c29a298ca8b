"""``clone_query`` copies the mutable shells of a query and nothing else.

Rewriters mutate clones in place (block patterns, FILTER expressions, the
WHERE group, the prologue) and the mediator hands a fresh clone of every
cached rewrite to its caller, so a clone must share no mutable part with
its original — while the frozen values (terms, triples, expressions) are
shared, which is what makes the copy cheap.
"""

from __future__ import annotations

import copy
from pathlib import Path

import pytest

from repro.core import clone_query
from repro.rdf import Literal, Triple, URIRef, Variable
from repro.sparql import (
    ConstructQuery,
    Filter,
    GroupGraphPattern,
    InlineData,
    OptionalPattern,
    OrderCondition,
    SelectQuery,
    TermExpression,
    TriplesBlock,
    UnionPattern,
    parse_query,
)

CASES_DIR = Path(__file__).parent.parent / "sparql" / "conformance" / "cases"
#: One query exercising every mutable node kind at once.
KITCHEN_SINK = """
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?s ?n WHERE {
  ?s ex:name ?n .
  VALUES (?s ?k) { (ex:a 1) (ex:b UNDEF) }
  { ?s ex:knows ?o } UNION { ?s ex:likes ?o . FILTER(?o != ex:a) }
  OPTIONAL { ?o ex:age ?age { ?age ex:unit ?u } }
  FILTER(?n != "x" && ?n != "y")
}
ORDER BY DESC(?n) ?s LIMIT 5 OFFSET 2
"""

#: Every conformance query plus the kitchen sink: small enough to cover
#: exhaustively, so nothing is left to sampling.
CORPUS = {path.stem: path.read_text(encoding="utf-8") for path in sorted(CASES_DIR.glob("*.rq"))}
CORPUS["kitchen-sink"] = KITCHEN_SINK

_EXTRA = Triple(Variable("zz"), URIRef("http://example.org/extra"), Literal("extra"))


def _fingerprint_group(group: GroupGraphPattern) -> tuple:
    return ("group", group.span, tuple(_fingerprint_element(e) for e in group.elements))


def _fingerprint_element(element) -> tuple:
    if isinstance(element, TriplesBlock):
        return ("block", element.span, tuple(element.patterns), tuple(element.pattern_spans))
    if isinstance(element, Filter):
        return ("filter", element.span, element.expression)
    if isinstance(element, OptionalPattern):
        return ("optional", element.span, _fingerprint_group(element.group))
    if isinstance(element, UnionPattern):
        return ("union", element.span, tuple(_fingerprint_group(g) for g in element.alternatives))
    if isinstance(element, InlineData):
        return ("values", element.span, tuple(element.columns), tuple(element.rows))
    if isinstance(element, GroupGraphPattern):
        return _fingerprint_group(element)
    raise AssertionError(f"unknown element {element!r}")


def fingerprint(query) -> tuple:
    """Everything observable about a query, spans included."""
    modifiers = query.modifiers
    return (
        type(query).__name__,
        query.span,
        tuple(query.prologue.namespace_manager.namespaces()),
        query.prologue.base,
        _fingerprint_group(query.where),
        (modifiers.distinct, modifiers.reduced, modifiers.limit, modifiers.offset,
         tuple((c.expression, c.descending, c.span) for c in modifiers.order_by)),
        (tuple(query.projection), tuple(query.projection_spans))
        if isinstance(query, SelectQuery) else None,
        tuple(query.template) if isinstance(query, ConstructQuery) else None,
        query.serialize(),
    )


def _groups(group: GroupGraphPattern):
    yield group
    for element in group.elements:
        if isinstance(element, GroupGraphPattern):
            yield from _groups(element)
        elif isinstance(element, OptionalPattern):
            yield from _groups(element.group)
        elif isinstance(element, UnionPattern):
            for alternative in element.alternatives:
                yield from _groups(alternative)


def mutate_everything(query) -> None:
    """Change every mutable part of ``query`` in place."""
    query.prologue.bind("mutated", "http://mutated.example/")
    query.prologue.base = "http://mutated.example/base"
    query.span = None
    modifiers = query.modifiers
    modifiers.distinct = not modifiers.distinct
    modifiers.reduced = not modifiers.reduced
    modifiers.limit = 99
    modifiers.offset = 98
    for condition in modifiers.order_by:
        condition.descending = not condition.descending
        condition.expression = TermExpression(Literal("mutated"))
        condition.span = None
    modifiers.order_by.append(OrderCondition(TermExpression(Literal("added"))))
    for group in list(_groups(query.where)):
        group.span = None
        for element in group.elements:
            element.span = None
            if isinstance(element, TriplesBlock):
                element.add(_EXTRA)
                element.patterns.reverse()
                element.pattern_spans[:] = [None] * len(element.pattern_spans)
            elif isinstance(element, Filter):
                element.expression = TermExpression(Literal("mutated"))
            elif isinstance(element, OptionalPattern):
                element.group.add(TriplesBlock([_EXTRA]))
            elif isinstance(element, UnionPattern):
                element.alternatives.append(GroupGraphPattern([TriplesBlock([_EXTRA])]))
            elif isinstance(element, InlineData):
                element.columns.append(Variable("mutated"))
                element.rows.clear()
        group.elements.append(TriplesBlock([_EXTRA]))
    if isinstance(query, SelectQuery):
        query.projection.append(Variable("mutated"))
        query.projection_spans.append(None)
    if isinstance(query, ConstructQuery):
        query.template.append(_EXTRA)
    query.where = GroupGraphPattern()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_clone_serialises_like_its_original(name):
    query = parse_query(CORPUS[name])
    clone = clone_query(query)
    assert clone is not query
    assert type(clone) is type(query)
    assert fingerprint(clone) == fingerprint(query)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_mutating_a_clone_leaves_the_original_untouched(name):
    query = parse_query(CORPUS[name])
    snapshot = fingerprint(copy.deepcopy(query))
    clone = clone_query(query)
    assert clone.serialize() == query.serialize()
    mutate_everything(clone)
    assert fingerprint(query) == snapshot
    # ... and the other way round: the clone does not follow its original.
    clone = clone_query(query)
    before = fingerprint(clone)
    mutate_everything(query)
    assert fingerprint(clone) == before


def test_frozen_values_are_shared_not_copied():
    query = parse_query(KITCHEN_SINK)
    clone = clone_query(query)
    for ours, theirs in zip(query.triples_blocks(), clone.triples_blocks(), strict=True):
        assert ours is not theirs
        assert all(a is b for a, b in zip(ours.patterns, theirs.patterns, strict=True))
    for ours, theirs in zip(query.filters(), clone.filters(), strict=True):
        assert ours is not theirs
        assert ours.expression is theirs.expression
