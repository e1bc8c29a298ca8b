"""Data-manipulation functions referenced by functional dependencies.

Section 3.2.2 notes that functions in alignments are identified by URIs so
that "the unique identification of functions across organizations" is
possible, and Section 3.3.1 stresses the *safe assumption* that no function
needs to be known by the system that runs the rewritten query: functions
execute at rewrite time over ground values.

:class:`FunctionRegistry` maps function URIs to Python callables.  A
default registry ships with:

* ``fn:sameas`` — the co-reference wrapper of the paper (requires a
  :class:`~repro.coreference.SameAsService`),
* ``fn:uri-prefix-swap`` — rewrite a URI by swapping a namespace prefix,
* ``fn:concat`` / ``fn:split-first`` / ``fn:split-last`` — string assembly
  and disassembly (address-style repackaging mentioned in Section 3.3.1),
* ``fn:km-to-miles`` / ``fn:miles-to-km`` / ``fn:celsius-to-fahrenheit`` —
  unit-measure conversions (the other example the paper gives),
* ``fn:lowercase`` / ``fn:uppercase`` — trivial normalisations.

All functions follow the same contract: they accept RDF terms (or
variables) and return an RDF term; when the *first* argument is an unbound
variable they return it unchanged, implementing the paper's default
mechanism for unbounded variables.
"""

from __future__ import annotations

from decimal import Decimal
from collections.abc import Callable, Sequence

from ..rdf import ALIGN_FN, Literal, Term, URIRef, Variable, XSD, is_variable_like
from ..coreference import SameAsService

__all__ = [
    "TransformFunction",
    "FunctionRegistry",
    "FunctionNotFound",
    "FunctionExecutionError",
    "SAMEAS_FUNCTION",
    "URI_PREFIX_SWAP_FUNCTION",
    "CONCAT_FUNCTION",
    "SPLIT_FIRST_FUNCTION",
    "SPLIT_LAST_FUNCTION",
    "KM_TO_MILES_FUNCTION",
    "MILES_TO_KM_FUNCTION",
    "CELSIUS_TO_FAHRENHEIT_FUNCTION",
    "LOWERCASE_FUNCTION",
    "UPPERCASE_FUNCTION",
    "default_registry",
]

#: Function URIs (the names used in alignment documents).
SAMEAS_FUNCTION = URIRef("http://ecs.soton.ac.uk/om.owl#sameas")
URI_PREFIX_SWAP_FUNCTION = ALIGN_FN["uri-prefix-swap"]
CONCAT_FUNCTION = ALIGN_FN["concat"]
SPLIT_FIRST_FUNCTION = ALIGN_FN["split-first"]
SPLIT_LAST_FUNCTION = ALIGN_FN["split-last"]
KM_TO_MILES_FUNCTION = ALIGN_FN["km-to-miles"]
MILES_TO_KM_FUNCTION = ALIGN_FN["miles-to-km"]
CELSIUS_TO_FAHRENHEIT_FUNCTION = ALIGN_FN["celsius-to-fahrenheit"]
LOWERCASE_FUNCTION = ALIGN_FN["lowercase"]
UPPERCASE_FUNCTION = ALIGN_FN["uppercase"]

#: Signature of a transform function.
TransformFunction = Callable[..., Term]


class FunctionNotFound(KeyError):
    """Raised when a functional dependency names an unregistered function."""


class FunctionExecutionError(ValueError):
    """Raised when a transform function cannot be applied to its arguments."""


class FunctionRegistry:
    """URI-keyed registry of data-manipulation functions."""

    def __init__(self) -> None:
        self._functions: dict[URIRef, TransformFunction] = {}
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every registry mutation.

        Rewrite results depend on which functions are registered (missing
        functions are skipped in non-strict mode), so the mediator's
        rewrite cache keys on this value.
        """
        return self._generation

    def register(self, uri: URIRef, function: TransformFunction) -> None:
        """Register (or replace) the implementation of ``uri``."""
        self._functions[URIRef(str(uri))] = function
        self._generation += 1

    def __contains__(self, uri: URIRef) -> bool:
        return URIRef(str(uri)) in self._functions

    def get(self, uri: URIRef) -> TransformFunction:
        """The callable registered for ``uri``; raises :class:`FunctionNotFound`."""
        key = URIRef(str(uri))
        if key not in self._functions:
            raise FunctionNotFound(f"no function registered for {uri}")
        return self._functions[key]

    def call(self, uri: URIRef, arguments: Sequence[Term]) -> Term:
        """Invoke a registered function over RDF-term arguments."""
        function = self.get(uri)
        try:
            return function(*arguments)
        except FunctionExecutionError:
            raise
        except Exception as exc:  # pragma: no cover - defensive wrapper
            raise FunctionExecutionError(f"function {uri} failed: {exc}") from exc

    def __len__(self) -> int:
        return len(self._functions)


# --------------------------------------------------------------------------- #
# Built-in functions
# --------------------------------------------------------------------------- #
def make_sameas(service: SameAsService, strict: bool = False) -> TransformFunction:
    """Build the paper's ``sameas(x, regex)`` function over a local service.

    ``sameas`` returns its first argument unchanged when it is an unbound
    variable; otherwise it returns the member of the owl:sameAs equivalence
    class of the argument that matches the regular expression.  With
    ``strict=False`` (the default, matching the deployed system) a URI with
    no matching equivalent is returned unchanged, producing an
    unsatisfiable — but harmless — pattern on the target endpoint.
    """

    def sameas(value: Term, pattern: Term) -> Term:
        if is_variable_like(value):
            return value
        if not isinstance(value, URIRef):
            raise FunctionExecutionError(f"sameas expects a URI, got {value!r}")
        regex = _text(pattern)
        if strict:
            return service.lookup_strict(value, regex)
        return service.translate_or_keep(value, regex)

    return sameas


def uri_prefix_swap(value: Term, source_prefix: Term, target_prefix: Term) -> Term:
    """Rewrite ``value`` by replacing ``source_prefix`` with ``target_prefix``.

    A purely syntactic fallback useful when two datasets mint URIs from the
    same local identifiers (no co-reference service required).
    """
    if is_variable_like(value):
        return value
    if not isinstance(value, URIRef):
        raise FunctionExecutionError(f"uri-prefix-swap expects a URI, got {value!r}")
    source = _text(source_prefix)
    target = _text(target_prefix)
    text = str(value)
    if not text.startswith(source):
        return value
    return URIRef(target + text[len(source):])


def concat(*arguments: Term) -> Term:
    """Concatenate literal/URI lexical forms into one plain literal."""
    if arguments and is_variable_like(arguments[0]):
        return arguments[0]
    return Literal("".join(_text(argument) for argument in arguments))


def split_first(value: Term, separator: Term) -> Term:
    """The part of a literal before the first occurrence of ``separator``."""
    if is_variable_like(value):
        return value
    return Literal(_text(value).split(_text(separator), 1)[0])


def split_last(value: Term, separator: Term) -> Term:
    """The part of a literal after the last occurrence of ``separator``."""
    if is_variable_like(value):
        return value
    return Literal(_text(value).rsplit(_text(separator), 1)[-1])


def km_to_miles(value: Term) -> Term:
    """Convert a numeric literal from kilometres to miles."""
    return _numeric_transform(value, lambda x: x * 0.621371)


def miles_to_km(value: Term) -> Term:
    """Convert a numeric literal from miles to kilometres."""
    return _numeric_transform(value, lambda x: x / 0.621371)


def celsius_to_fahrenheit(value: Term) -> Term:
    """Convert a numeric literal from Celsius to Fahrenheit."""
    return _numeric_transform(value, lambda x: x * 9.0 / 5.0 + 32.0)


def lowercase(value: Term) -> Term:
    """Lower-case a literal's lexical form."""
    if is_variable_like(value):
        return value
    return Literal(_text(value).lower())


def uppercase(value: Term) -> Term:
    """Upper-case a literal's lexical form."""
    if is_variable_like(value):
        return value
    return Literal(_text(value).upper())


def _numeric_transform(value: Term, transform: Callable[[float], float]) -> Term:
    if is_variable_like(value):
        return value
    if not isinstance(value, Literal):
        raise FunctionExecutionError(f"numeric conversion expects a literal, got {value!r}")
    python_value = value.to_python()
    if isinstance(python_value, Decimal):
        python_value = float(python_value)
    if not isinstance(python_value, (int, float)) or isinstance(python_value, bool):
        raise FunctionExecutionError(f"not a numeric literal: {value!r}")
    return Literal(round(transform(float(python_value)), 6), datatype=XSD.double)


def _text(term: Term) -> str:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, URIRef):
        return str(term)
    if isinstance(term, Variable):
        raise FunctionExecutionError(f"variable {term.n3()} used where a ground value is required")
    return str(term)


def default_registry(sameas_service: SameAsService | None = None) -> FunctionRegistry:
    """A registry with every built-in function installed.

    ``sameas`` is only available when a co-reference service is supplied
    (it has no meaningful default behaviour without one).
    """
    registry = FunctionRegistry()
    if sameas_service is not None:
        registry.register(SAMEAS_FUNCTION, make_sameas(sameas_service))
    registry.register(URI_PREFIX_SWAP_FUNCTION, uri_prefix_swap)
    registry.register(CONCAT_FUNCTION, concat)
    registry.register(SPLIT_FIRST_FUNCTION, split_first)
    registry.register(SPLIT_LAST_FUNCTION, split_last)
    registry.register(KM_TO_MILES_FUNCTION, km_to_miles)
    registry.register(MILES_TO_KM_FUNCTION, miles_to_km)
    registry.register(CELSIUS_TO_FAHRENHEIT_FUNCTION, celsius_to_fahrenheit)
    registry.register(LOWERCASE_FUNCTION, lowercase)
    registry.register(UPPERCASE_FUNCTION, uppercase)
    return registry
