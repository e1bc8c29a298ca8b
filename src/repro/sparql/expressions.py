"""Evaluation of SPARQL FILTER expressions.

Implements the effective boolean value (EBV) rules and the operator/
built-in semantics of SPARQL 1.0 over the :class:`Binding` solution
mappings.  Type errors follow the SPARQL convention: they do not abort
evaluation but mark the expression result as an error, which makes the
enclosing FILTER reject the solution (and lets ``!``/``||``/``&&`` recover
where the specification allows it).
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import Any

from ..rdf import BNode, Literal, Term, URIRef, Variable, XSD
from .ast import (
    BinaryExpression,
    Expression,
    FunctionCall,
    TermExpression,
    UnaryExpression,
    VariableExpression,
)
from .results import Binding

__all__ = ["ExpressionError", "evaluate_expression", "effective_boolean_value", "expression_satisfied"]


class ExpressionError(Exception):
    """A SPARQL expression type error (unbound variable, bad operands...)."""


def expression_satisfied(expression: Expression, binding: Binding) -> bool:
    """True when the FILTER expression evaluates to EBV true.

    Expression errors count as *not satisfied* — the standard FILTER
    semantics — instead of propagating.
    """
    try:
        value = evaluate_expression(expression, binding)
        return effective_boolean_value(value)
    except ExpressionError:
        return False


def evaluate_expression(expression: Expression, binding: Binding) -> Any:
    """Evaluate an expression to an RDF term, a Python value or raise."""
    if isinstance(expression, TermExpression):
        term = expression.term
        if isinstance(term, Variable):
            return _lookup(term, binding)
        return term
    if isinstance(expression, VariableExpression):
        return _lookup(expression.variable, binding)
    if isinstance(expression, UnaryExpression):
        return _evaluate_unary(expression, binding)
    if isinstance(expression, BinaryExpression):
        return _evaluate_binary(expression, binding)
    if isinstance(expression, FunctionCall):
        return _evaluate_function(expression, binding)
    raise ExpressionError(f"unsupported expression node: {expression!r}")


def _lookup(variable: Variable, binding: Binding) -> Term:
    term = binding.get_term(variable)
    if term is None:
        raise ExpressionError(f"unbound variable ?{variable.name}")
    return term


# --------------------------------------------------------------------------- #
# Effective boolean value
# --------------------------------------------------------------------------- #
def effective_boolean_value(value: Any) -> bool:
    """SPARQL 1.0 effective boolean value rules."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float, Decimal)):
        return value != 0
    if isinstance(value, str):
        return len(value) > 0
    if isinstance(value, Literal):
        python_value = value.to_python()
        if isinstance(python_value, bool):
            return python_value
        if isinstance(python_value, (int, float, Decimal)):
            return python_value != 0
        return len(value.lexical) > 0
    if isinstance(value, (URIRef, BNode)):
        raise ExpressionError("EBV of an IRI or blank node is a type error")
    raise ExpressionError(f"no effective boolean value for {value!r}")


# --------------------------------------------------------------------------- #
# Operators
# --------------------------------------------------------------------------- #
def _evaluate_unary(expression: UnaryExpression, binding: Binding) -> Any:
    if expression.operator == "!":
        return not effective_boolean_value(evaluate_expression(expression.operand, binding))
    value = _numeric(evaluate_expression(expression.operand, binding))
    if expression.operator == "-":
        return -value
    return +value


def _evaluate_binary(expression: BinaryExpression, binding: Binding) -> Any:
    operator = expression.operator
    if operator == "||":
        return _logical_or(expression, binding)
    if operator == "&&":
        return _logical_and(expression, binding)

    left = evaluate_expression(expression.left, binding)
    right = evaluate_expression(expression.right, binding)

    if operator == "=":
        return _equals(left, right)
    if operator == "!=":
        return not _equals(left, right)
    if operator in ("<", ">", "<=", ">="):
        return _compare(operator, left, right)
    if operator in ("+", "-", "*", "/"):
        return _arithmetic(operator, left, right)
    raise ExpressionError(f"unknown operator {operator!r}")


def _logical_or(expression: BinaryExpression, binding: Binding) -> bool:
    """``||`` with SPARQL error recovery: true wins over an error."""
    left_error: ExpressionError | None = None
    try:
        if effective_boolean_value(evaluate_expression(expression.left, binding)):
            return True
    except ExpressionError as exc:
        left_error = exc
    try:
        if effective_boolean_value(evaluate_expression(expression.right, binding)):
            return True
    except ExpressionError:
        raise
    if left_error is not None:
        raise left_error
    return False


def _logical_and(expression: BinaryExpression, binding: Binding) -> bool:
    """``&&`` with SPARQL error recovery: false wins over an error."""
    left_error: ExpressionError | None = None
    left_value = True
    try:
        left_value = effective_boolean_value(evaluate_expression(expression.left, binding))
        if not left_value:
            return False
    except ExpressionError as exc:
        left_error = exc
    right_value = effective_boolean_value(evaluate_expression(expression.right, binding))
    if not right_value:
        return False
    if left_error is not None:
        raise left_error
    return left_value and right_value


def _equals(left: Any, right: Any) -> bool:
    left_term = _as_term_or_value(left)
    right_term = _as_term_or_value(right)
    if isinstance(left_term, Literal) and isinstance(right_term, Literal):
        if left_term.is_numeric() and right_term.is_numeric():
            return left_term.to_python() == right_term.to_python()
        return left_term == right_term
    # Mixed numeric comparisons: arithmetic produces plain Python numbers
    # that must still compare equal to numeric literals.
    left_number = _maybe_number(left_term)
    right_number = _maybe_number(right_term)
    if left_number is not None and right_number is not None:
        return left_number == right_number
    if isinstance(left_term, Term) and isinstance(right_term, Term):
        return left_term == right_term
    # Mixed Python/term comparisons (e.g. result of STR()).
    return _plain_value(left_term) == _plain_value(right_term)


def _maybe_number(value: Any) -> int | float | Decimal | None:
    """The numeric value of ``value`` or ``None`` when it is not numeric."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float, Decimal)):
        return value
    if isinstance(value, Literal) and value.is_numeric():
        python_value = value.to_python()
        if isinstance(python_value, (int, float, Decimal)) and not isinstance(python_value, bool):
            return python_value
    return None


def _compare(operator: str, left: Any, right: Any) -> bool:
    left_value = _comparable(left)
    right_value = _comparable(right)
    if isinstance(left_value, str) != isinstance(right_value, str):
        raise ExpressionError(f"cannot compare {left!r} and {right!r}")
    if operator == "<":
        return left_value < right_value
    if operator == ">":
        return left_value > right_value
    if operator == "<=":
        return left_value <= right_value
    return left_value >= right_value


def _arithmetic(operator: str, left: Any, right: Any) -> int | float | Decimal:
    left_value = _numeric(left)
    right_value = _numeric(right)
    if operator == "+":
        return left_value + right_value
    if operator == "-":
        return left_value - right_value
    if operator == "*":
        return left_value * right_value
    if right_value == 0:
        raise ExpressionError("division by zero")
    result = left_value / right_value
    return result


# --------------------------------------------------------------------------- #
# Built-in functions
# --------------------------------------------------------------------------- #
def _evaluate_function(call: FunctionCall, binding: Binding) -> Any:
    name = call.name
    if name == "BOUND":
        return _builtin_bound(call, binding)
    arguments = [evaluate_expression(argument, binding) for argument in call.arguments]
    if name == "STR":
        return _builtin_str(arguments)
    if name == "LANG":
        return _builtin_lang(arguments)
    if name == "LANGMATCHES":
        return _builtin_langmatches(arguments)
    if name == "DATATYPE":
        return _builtin_datatype(arguments)
    if name in ("ISURI", "ISIRI"):
        return isinstance(_single(arguments), URIRef)
    if name == "ISLITERAL":
        return isinstance(_single(arguments), Literal)
    if name == "ISBLANK":
        return isinstance(_single(arguments), BNode)
    if name == "SAMETERM":
        if len(arguments) != 2:
            raise ExpressionError("sameTerm requires two arguments")
        return arguments[0] == arguments[1]
    if name == "REGEX":
        return _builtin_regex(arguments)
    raise ExpressionError(f"unknown function {name!r}")


def _builtin_bound(call: FunctionCall, binding: Binding) -> bool:
    if len(call.arguments) != 1 or not isinstance(call.arguments[0], VariableExpression):
        raise ExpressionError("BOUND requires a single variable argument")
    return binding.get_term(call.arguments[0].variable) is not None


def _builtin_str(arguments) -> str:
    term = _single(arguments)
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, URIRef):
        return str(term)
    if isinstance(term, str):
        return term
    raise ExpressionError(f"STR not defined for {term!r}")


def _builtin_lang(arguments) -> str:
    term = _single(arguments)
    if isinstance(term, Literal):
        return term.lang or ""
    raise ExpressionError("LANG requires a literal")


def _builtin_langmatches(arguments) -> bool:
    if len(arguments) != 2:
        raise ExpressionError("LANGMATCHES requires two arguments")
    tag = _plain_value(arguments[0])
    pattern = _plain_value(arguments[1])
    if not isinstance(tag, str) or not isinstance(pattern, str):
        raise ExpressionError("LANGMATCHES arguments must be strings")
    if not tag:
        return False
    if pattern == "*":
        return True
    return tag.lower() == pattern.lower() or tag.lower().startswith(pattern.lower() + "-")


def _builtin_datatype(arguments) -> URIRef:
    term = _single(arguments)
    if isinstance(term, Literal):
        if term.datatype is not None:
            return term.datatype
        if term.lang is None:
            return XSD.string
        raise ExpressionError("DATATYPE of a language-tagged literal is a type error")
    raise ExpressionError("DATATYPE requires a literal")


def _builtin_regex(arguments) -> bool:
    if len(arguments) not in (2, 3):
        raise ExpressionError("REGEX requires 2 or 3 arguments")
    text = _plain_value(arguments[0])
    pattern = _plain_value(arguments[1])
    flags_text = _plain_value(arguments[2]) if len(arguments) == 3 else ""
    if not isinstance(text, str) or not isinstance(pattern, str):
        raise ExpressionError("REGEX arguments must be strings")
    flags = 0
    if isinstance(flags_text, str) and "i" in flags_text:
        flags |= re.IGNORECASE
    if isinstance(flags_text, str) and "s" in flags_text:
        flags |= re.DOTALL
    if isinstance(flags_text, str) and "m" in flags_text:
        flags |= re.MULTILINE
    try:
        return re.search(pattern, text, flags) is not None
    except re.error as exc:
        raise ExpressionError(f"invalid regular expression: {exc}") from exc


# --------------------------------------------------------------------------- #
# Coercions
# --------------------------------------------------------------------------- #
def _single(arguments) -> Any:
    if len(arguments) != 1:
        raise ExpressionError("built-in expects exactly one argument")
    return arguments[0]


def _as_term_or_value(value: Any) -> Any:
    return value


def _plain_value(value: Any) -> Any:
    if isinstance(value, Literal):
        return value.lexical
    if isinstance(value, URIRef):
        return str(value)
    return value


def _numeric(value: Any) -> int | float | Decimal:
    if isinstance(value, bool):
        raise ExpressionError("boolean is not a number")
    if isinstance(value, (int, float, Decimal)):
        return value
    if isinstance(value, Literal):
        python_value = value.to_python()
        if isinstance(python_value, bool):
            raise ExpressionError("boolean literal is not a number")
        if isinstance(python_value, (int, float, Decimal)):
            return python_value
    raise ExpressionError(f"not a numeric value: {value!r}")


def _comparable(value: Any) -> Any:
    if isinstance(value, Literal):
        python_value = value.to_python()
        if isinstance(python_value, (int, float, Decimal)) and not isinstance(python_value, bool):
            return python_value
        return value.lexical
    if isinstance(value, (int, float, Decimal)) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, URIRef):
        return str(value)
    raise ExpressionError(f"value not comparable: {value!r}")
