"""The FILTER pass of the query rewriter (the extension sketched in Section 4).

The paper's Algorithm 1 only sees the Basic Graph Pattern; constraints that
the query author chose to express in the FILTER section — Figure 6 shows
the co-author query written that way — are invisible to it, so instance
URIs referenced only in FILTERs are never translated into the target
dataset's URI space and the rewritten query silently returns nothing.

This module holds the two building blocks of the two complementary
remedies that :class:`repro.core.rewriter.QueryRewriter` applies when its
FILTER pass is on:

* **Constraint promotion**: :func:`extract_equality_constraints` finds the
  positive ``?var = <ground>`` conjuncts of a FILTER; the rewriter applies
  them as substitutions to the triples blocks the FILTER's group scopes, so
  the ground value becomes visible to the alignments' functional
  dependencies.  The FILTER itself is retained (promotion never changes the
  query's solution set — it only specialises patterns with information the
  FILTER already enforces).
* **FILTER term translation**: :func:`translate_expression_terms` maps the
  ground URIs of a FILTER expression to their target-dataset equivalents
  through the same co-reference service used by the ``sameas`` functional
  dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..coreference import SameAsService
from ..rdf import Literal, Term, URIRef, Variable
from ..sparql import BinaryExpression, Expression, TermExpression, VariableExpression

__all__ = [
    "EqualityConstraint",
    "extract_equality_constraints",
    "translate_expression_terms",
]


@dataclass(frozen=True)
class EqualityConstraint:
    """A positive ``?variable = ground-term`` constraint found in a FILTER."""

    variable: Variable
    term: Term


def extract_equality_constraints(expression: Expression) -> list[EqualityConstraint]:
    """Collect ``?v = ground`` constraints that hold in every solution.

    Only *positive conjunctive* positions are considered: conjuncts of
    ``&&`` chains and the expression itself.  Constraints under negation,
    disjunction or comparison operators are ignored because they do not
    necessarily hold for every solution.
    """
    constraints: list[EqualityConstraint] = []
    for conjunct in _conjuncts(expression):
        constraint = _as_equality(conjunct)
        if constraint is not None:
            constraints.append(constraint)
    return constraints


def _conjuncts(expression: Expression) -> list[Expression]:
    if isinstance(expression, BinaryExpression) and expression.operator == "&&":
        return _conjuncts(expression.left) + _conjuncts(expression.right)
    return [expression]


def _as_equality(expression: Expression) -> EqualityConstraint | None:
    if not isinstance(expression, BinaryExpression) or expression.operator != "=":
        return None
    left, right = expression.left, expression.right
    variable = _expression_variable(left)
    term = _expression_ground_term(right)
    if variable is None or term is None:
        variable = _expression_variable(right)
        term = _expression_ground_term(left)
    if variable is None or term is None:
        return None
    return EqualityConstraint(variable, term)


def _expression_variable(expression: Expression) -> Variable | None:
    if isinstance(expression, VariableExpression):
        return expression.variable
    if isinstance(expression, TermExpression) and isinstance(expression.term, Variable):
        return expression.term
    return None


def _expression_ground_term(expression: Expression) -> Term | None:
    if isinstance(expression, TermExpression) and isinstance(expression.term, (URIRef, Literal)):
        return expression.term
    return None


def translate_expression_terms(
    expression: Expression,
    service: SameAsService,
    target_uri_pattern: str,
) -> Expression:
    """Rewrite ground URIs inside a FILTER expression into the target URI space.

    Every :class:`URIRef` constant is looked up in the co-reference service
    and replaced by its equivalent matching ``target_uri_pattern`` (URIs
    with no equivalent are kept, which preserves the original — possibly
    unsatisfiable — semantics rather than inventing data).
    """

    def translate(term: Term) -> Term:
        if isinstance(term, URIRef):
            return service.translate_or_keep(term, target_uri_pattern)
        return term

    return expression.map_terms(translate)
