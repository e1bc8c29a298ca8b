"""Unit tests for the data-manipulation function registry and built-ins."""

import pytest

from repro.alignment import (
    CONCAT_FUNCTION,
    CELSIUS_TO_FAHRENHEIT_FUNCTION,
    FunctionExecutionError,
    FunctionNotFound,
    FunctionRegistry,
    KM_TO_MILES_FUNCTION,
    LOWERCASE_FUNCTION,
    MILES_TO_KM_FUNCTION,
    SAMEAS_FUNCTION,
    SPLIT_FIRST_FUNCTION,
    SPLIT_LAST_FUNCTION,
    UPPERCASE_FUNCTION,
    URI_PREFIX_SWAP_FUNCTION,
    default_registry,
    make_sameas,
)
from repro.coreference import CoReferenceError, SameAsService
from repro.rdf import Literal, URIRef, Variable, XSD

RKB = "http://southampton.rkbexplorer.com/id/"
KISTI = "http://kisti.rkbexplorer.com/id/"
KISTI_PATTERN = Literal(r"http://kisti\.rkbexplorer\.com/id/\S*")


@pytest.fixture()
def service() -> SameAsService:
    service = SameAsService()
    service.add_equivalence(URIRef(RKB + "person-02686"), URIRef(KISTI + "PER_0105047"))
    return service


class TestRegistry:
    def test_default_registry_contains_builtins(self, service):
        registry = default_registry(service)
        for uri in (SAMEAS_FUNCTION, CONCAT_FUNCTION, KM_TO_MILES_FUNCTION,
                    URI_PREFIX_SWAP_FUNCTION, LOWERCASE_FUNCTION):
            assert uri in registry

    def test_sameas_absent_without_service(self):
        registry = default_registry()
        assert SAMEAS_FUNCTION not in registry

    def test_unknown_function_raises(self):
        registry = FunctionRegistry()
        with pytest.raises(FunctionNotFound):
            registry.get(SAMEAS_FUNCTION)
        with pytest.raises(FunctionNotFound):
            registry.call(SAMEAS_FUNCTION, [])

    def test_register(self):
        registry = FunctionRegistry()
        assert URIRef("http://ex.org/fn") not in registry
        registry.register(URIRef("http://ex.org/fn"), lambda value: value)
        assert URIRef("http://ex.org/fn") in registry

    def test_call_wraps_unexpected_errors(self):
        registry = FunctionRegistry()

        def broken(value):
            raise RuntimeError("boom")

        registry.register(URIRef("http://ex.org/fn"), broken)
        with pytest.raises(FunctionExecutionError):
            registry.call(URIRef("http://ex.org/fn"), [Literal("x")])



class TestSameAs:
    def test_ground_uri_translated(self, service):
        sameas = make_sameas(service)
        result = sameas(URIRef(RKB + "person-02686"), KISTI_PATTERN)
        assert result == URIRef(KISTI + "PER_0105047")

    def test_unbound_variable_passes_through(self, service):
        sameas = make_sameas(service)
        assert sameas(Variable("paper"), KISTI_PATTERN) == Variable("paper")

    def test_unknown_uri_kept_by_default(self, service):
        sameas = make_sameas(service)
        orphan = URIRef(RKB + "orphan")
        assert sameas(orphan, KISTI_PATTERN) == orphan

    def test_strict_mode_raises_on_unknown(self, service):
        sameas = make_sameas(service, strict=True)
        with pytest.raises(CoReferenceError):
            sameas(URIRef(RKB + "orphan"), KISTI_PATTERN)

    def test_literal_input_rejected(self, service):
        sameas = make_sameas(service)
        with pytest.raises(FunctionExecutionError):
            sameas(Literal("not a uri"), KISTI_PATTERN)


class TestStringFunctions:
    def test_concat(self):
        registry = default_registry()
        result = registry.call(CONCAT_FUNCTION, [Literal("Nigel"), Literal(" "), Literal("Shadbolt")])
        assert result == Literal("Nigel Shadbolt")

    def test_concat_with_leading_variable_passes_through(self):
        registry = default_registry()
        assert registry.call(CONCAT_FUNCTION, [Variable("x"), Literal("!")]) == Variable("x")

    def test_split_first_and_last(self):
        registry = default_registry()
        assert registry.call(SPLIT_FIRST_FUNCTION, [Literal("Nigel Shadbolt"), Literal(" ")]) == Literal("Nigel")
        assert registry.call(SPLIT_LAST_FUNCTION, [Literal("Nigel R Shadbolt"), Literal(" ")]) == Literal("Shadbolt")

    def test_case_functions(self):
        registry = default_registry()
        assert registry.call(LOWERCASE_FUNCTION, [Literal("MiXeD")]) == Literal("mixed")
        assert registry.call(UPPERCASE_FUNCTION, [Literal("MiXeD")]) == Literal("MIXED")

    def test_uri_prefix_swap(self):
        registry = default_registry()
        result = registry.call(
            URI_PREFIX_SWAP_FUNCTION,
            [URIRef(RKB + "person-1"), Literal(RKB), Literal(KISTI)],
        )
        assert result == URIRef(KISTI + "person-1")

    def test_uri_prefix_swap_non_matching_prefix_kept(self):
        registry = default_registry()
        uri = URIRef("http://other.org/person-1")
        assert registry.call(URI_PREFIX_SWAP_FUNCTION, [uri, Literal(RKB), Literal(KISTI)]) == uri

    def test_uri_prefix_swap_rejects_literal(self):
        registry = default_registry()
        with pytest.raises(FunctionExecutionError):
            registry.call(URI_PREFIX_SWAP_FUNCTION, [Literal("x"), Literal(RKB), Literal(KISTI)])


class TestNumericFunctions:
    def test_km_to_miles_and_back(self):
        registry = default_registry()
        miles = registry.call(KM_TO_MILES_FUNCTION, [Literal(100.0)])
        assert float(miles.lexical) == pytest.approx(62.1371, rel=1e-4)
        km = registry.call(MILES_TO_KM_FUNCTION, [miles])
        assert float(km.lexical) == pytest.approx(100.0, rel=1e-4)

    def test_celsius_to_fahrenheit(self):
        registry = default_registry()
        result = registry.call(CELSIUS_TO_FAHRENHEIT_FUNCTION, [Literal(100)])
        assert float(result.lexical) == pytest.approx(212.0)
        assert result.datatype == XSD.double

    def test_numeric_conversion_of_variable_passes_through(self):
        registry = default_registry()
        assert registry.call(KM_TO_MILES_FUNCTION, [Variable("d")]) == Variable("d")

    def test_numeric_conversion_rejects_non_numeric(self):
        registry = default_registry()
        with pytest.raises(FunctionExecutionError):
            registry.call(KM_TO_MILES_FUNCTION, [Literal("not a number")])
        with pytest.raises(FunctionExecutionError):
            registry.call(KM_TO_MILES_FUNCTION, [URIRef("http://ex.org/x")])
