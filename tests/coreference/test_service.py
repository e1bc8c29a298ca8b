"""Unit tests for the SameAsService (local sameas.org stand-in)."""

import pytest

from repro.coreference import CoReferenceError, SameAsService
from repro.rdf import Graph, Literal, OWL, Triple, URIRef
from tests.sameas import sameas_graph

RKB = "http://southampton.rkbexplorer.com/id/"
KISTI = "http://kisti.rkbexplorer.com/id/"
DBP = "http://dbpedia.org/resource/"

KISTI_PATTERN = r"http://kisti\.rkbexplorer\.com/id/\S*"


@pytest.fixture()
def service() -> SameAsService:
    service = SameAsService()
    service.add_bundle([
        URIRef(RKB + "person-02686"),
        URIRef(KISTI + "PER_0105047"),
        URIRef(DBP + "Nigel_Shadbolt"),
    ])
    service.add_equivalence(URIRef(RKB + "paper-1"), URIRef(KISTI + "PAP_1"))
    return service


class TestLookup:
    def test_equivalence_class_contains_all_members(self, service):
        bundle = service.equivalence_class(URIRef(RKB + "person-02686"))
        assert len(bundle) == 3

    def test_equivalence_class_of_unknown_uri_is_singleton(self, service):
        bundle = service.equivalence_class(URIRef(RKB + "unknown"))
        assert bundle == {URIRef(RKB + "unknown")}

    def test_lookup_selects_member_matching_pattern(self, service):
        result = service.lookup(URIRef(RKB + "person-02686"), KISTI_PATTERN)
        assert result == URIRef(KISTI + "PER_0105047")

    def test_lookup_no_match_returns_none(self, service):
        assert service.lookup(URIRef(RKB + "person-02686"), r"http://nowhere\.org/\S*") is None

    def test_lookup_strict_raises(self, service):
        with pytest.raises(CoReferenceError):
            service.lookup_strict(URIRef(RKB + "person-02686"), r"http://nowhere\.org/\S*")

    def test_translate_or_keep(self, service):
        translated = service.translate_or_keep(URIRef(RKB + "person-02686"), KISTI_PATTERN)
        assert translated == URIRef(KISTI + "PER_0105047")
        untouched = service.translate_or_keep(URIRef(RKB + "orphan"), KISTI_PATTERN)
        assert untouched == URIRef(RKB + "orphan")

    def test_lookup_deterministic_when_multiple_match(self):
        service = SameAsService()
        service.add_bundle([URIRef(KISTI + "B"), URIRef(KISTI + "A"), URIRef(RKB + "x")])
        assert service.lookup(URIRef(RKB + "x"), KISTI_PATTERN) == URIRef(KISTI + "A")

    def test_co_referring_uris_share_a_class(self, service):
        shadbolt = service.equivalence_class(URIRef(RKB + "person-02686"))
        assert URIRef(DBP + "Nigel_Shadbolt") in shadbolt
        assert URIRef(RKB + "paper-1") not in shadbolt


class TestPopulation:
    def test_add_equivalence_requires_uris(self):
        service = SameAsService()
        with pytest.raises(TypeError):
            service.add_equivalence(URIRef(RKB + "x"), Literal("not-a-uri"))  # type: ignore[arg-type]

    def test_load_graph(self):
        graph = Graph()
        graph.add(Triple(URIRef(RKB + "a"), OWL.sameAs, URIRef(KISTI + "a")))
        graph.add(Triple(URIRef(RKB + "b"), OWL.sameAs, URIRef(KISTI + "b")))
        # Non-URI objects are ignored.
        graph.add(Triple(URIRef(RKB + "c"), OWL.sameAs, Literal("ignored")))
        service = SameAsService()
        assert service.load_graph(graph) == 2
        assert URIRef(KISTI + "a") in service.equivalence_class(URIRef(RKB + "a"))

    def test_graph_roundtrip(self, service):
        reloaded = SameAsService()
        reloaded.load_graph(sameas_graph(service))
        shadbolt = reloaded.equivalence_class(URIRef(RKB + "person-02686"))
        assert URIRef(KISTI + "PER_0105047") in shadbolt
        assert reloaded.bundle_count() == service.bundle_count()

    def test_statistics(self, service):
        stats = service.statistics()
        assert stats["uris"] == 5
        assert stats["bundles"] == 2
        assert stats["largest_bundle"] == 3
        assert stats["mean_bundle_size"] == pytest.approx(2.5)

    def test_empty_service_statistics(self):
        stats = SameAsService().statistics()
        assert stats["uris"] == 0
        assert stats["bundles"] == 0


class TestPatternCache:
    """lookup() compiles each regex once and reuses the compiled object."""

    def test_compiled_pattern_is_cached(self, service):
        first = service._compiled(KISTI_PATTERN)
        service.lookup(URIRef(RKB + "person-02686"), KISTI_PATTERN)
        assert service._compiled(KISTI_PATTERN) is first

    def test_distinct_patterns_cached_separately(self, service):
        kisti = service._compiled(KISTI_PATTERN)
        dbp = service._compiled(r"http://dbpedia\.org/resource/\S*")
        assert kisti is not dbp
        assert service._compiled(KISTI_PATTERN) is kisti

    def test_lookup_behaviour_unchanged_by_cache(self, service):
        uri = URIRef(RKB + "person-02686")
        for _ in range(3):
            assert service.lookup(uri, KISTI_PATTERN) == URIRef(KISTI + "PER_0105047")

    def test_invalid_pattern_still_raises(self, service):
        import re
        with pytest.raises(re.error):
            service.lookup(URIRef(RKB + "person-02686"), "(unclosed")
