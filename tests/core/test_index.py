"""Tests for the indexed matching subsystem (PatternIndex / CompiledRuleSet).

The contract under test is strict equivalence: for any alignment KB and any
query triple, the indexed path must return exactly what the reference
linear scan returns — same matches, same substitutions, same KB order —
and full rewrites through the indexed rewriter must be byte-identical to
the linear rewriter's output.
"""

from hypothesis import given, settings, strategies as st

from repro.alignment import EntityAlignment
from repro.alignment.levels import class_alignment, property_alignment
from repro.core import CompiledRuleSet, GraphPatternRewriter, QueryRewriter, find_matches
from repro.core.index import PatternIndex
from repro.datasets import akt_to_kisti_alignment
from repro.rdf import AKT, KISTI, Literal, Namespace, RDF, Triple, URIRef, Variable
from repro.sparql import parse_query

from ..conftest import FIGURE_1_QUERY, FIGURE_6_QUERY

EX = Namespace("http://example.org/ns#")


class TestPatternIndexBuckets:
    def test_ground_predicate_lookup_skips_other_buckets(self):
        alignments = [property_alignment(EX[f"p{i}"], EX[f"q{i}"]) for i in range(100)]
        ruleset = CompiledRuleSet(alignments)
        candidates = ruleset.index.candidates(
            Triple(Variable("s"), EX["p7"], Variable("o"))
        )
        assert [rule.alignment for rule in candidates] == [alignments[7]]

    def test_unknown_predicate_yields_no_candidates(self):
        ruleset = CompiledRuleSet([property_alignment(EX["p"], EX["q"])])
        assert ruleset.index.candidates(
            Triple(Variable("s"), EX["unknown"], Variable("o"))
        ) == []

    def test_variable_predicate_query_only_sees_variable_heads(self):
        # A ground head predicate never matches a variable in the query
        # (Section 3.3.1 asymmetry), so those heads must not be candidates.
        ground = property_alignment(EX["p"], EX["q"])
        wild = EntityAlignment(
            lhs=Triple(Variable("s"), Variable("p"), Variable("o")),
            rhs=[Triple(Variable("s"), Variable("p"), Variable("o"))],
        )
        ruleset = CompiledRuleSet([ground, wild])
        candidates = ruleset.index.candidates(
            Triple(Variable("s"), Variable("any"), Variable("o"))
        )
        assert [rule.alignment for rule in candidates] == [wild]

    def test_rdf_type_heads_bucketed_by_class(self):
        alignments = [class_alignment(EX[f"C{i}"], EX[f"D{i}"]) for i in range(50)]
        ruleset = CompiledRuleSet(alignments)
        candidates = ruleset.index.candidates(
            Triple(Variable("x"), RDF.type, EX["C3"])
        )
        assert [rule.alignment for rule in candidates] == [alignments[3]]

    def test_rdf_type_variable_class_query_skips_ground_class_heads(self):
        ruleset = CompiledRuleSet([class_alignment(EX["C"], EX["D"])])
        assert ruleset.index.candidates(
            Triple(Variable("x"), RDF.type, Variable("cls"))
        ) == []

    def test_candidates_preserve_kb_order_across_buckets(self):
        wild = EntityAlignment(
            lhs=Triple(Variable("s"), Variable("p"), Variable("o")),
            rhs=[Triple(Variable("s"), EX["copy"], Variable("o"))],
        )
        first = property_alignment(EX["p"], EX["q1"])
        second = property_alignment(EX["p"], EX["q2"])
        ruleset = CompiledRuleSet([first, wild, second])
        candidates = ruleset.index.candidates(
            Triple(Variable("s"), EX["p"], Variable("o"))
        )
        assert [rule.alignment for rule in candidates] == [first, wild, second]

    def test_incremental_add_updates_index(self):
        index = PatternIndex()
        assert len(index) == 0
        ruleset = CompiledRuleSet()
        ruleset.add(property_alignment(EX["p"], EX["q"]))
        assert len(ruleset) == 1
        triple = Triple(Variable("s"), EX["p"], Variable("o"))
        assert len(ruleset.find_matches(triple)) == 1


class TestEquivalenceWithLinearScan:
    def test_worked_example_kb_matches_identically(self):
        alignments = list(akt_to_kisti_alignment())
        ruleset = CompiledRuleSet(alignments)
        probes = [
            Triple(Variable("paper"), AKT["has-author"], Variable("a")),
            Triple(Variable("paper"), AKT["has-author"],
                   URIRef("http://southampton.rkbexplorer.com/id/person-02686")),
            Triple(Variable("x"), RDF.type, AKT["Paper-Reference"]),
            Triple(Variable("x"), RDF.type, Variable("cls")),
            Triple(Variable("x"), Variable("p"), Variable("y")),
            Triple(Variable("x"), EX["not-aligned"], Variable("y")),
        ]
        for probe in probes:
            assert ruleset.find_matches(probe) == find_matches(alignments, probe)

    def test_first_match_agrees_with_linear_first(self, figure2_alignment):
        flat = property_alignment(AKT["has-author"], KISTI["hasCreator"])
        for order in ([figure2_alignment, flat], [flat, figure2_alignment]):
            ruleset = CompiledRuleSet(order)
            triple = Triple(Variable("paper"), AKT["has-author"], Variable("a"))
            indexed_first, _rule = ruleset.first_match(triple)
            assert indexed_first == find_matches(order, triple)[0]

    def test_full_query_rewrite_byte_identical(self, registry):
        alignments = list(akt_to_kisti_alignment())
        for query_text in (FIGURE_1_QUERY, FIGURE_6_QUERY):
            query = parse_query(query_text)
            indexed = QueryRewriter(alignments, registry, use_index=True)
            linear = QueryRewriter(alignments, registry, use_index=False)
            assert indexed.rewrite(query)[0].serialize() == linear.rewrite(query)[0].serialize()

    def test_bgp_rewrite_reports_identical(self, registry):
        alignments = list(akt_to_kisti_alignment())
        patterns = [
            Triple(Variable("paper"), AKT["has-author"], Variable("a")),
            Triple(Variable("x"), RDF.type, AKT["Person"]),
            Triple(Variable("x"), EX["untouched"], Variable("y")),
        ]
        indexed = GraphPatternRewriter(alignments, registry, use_index=True)
        linear = GraphPatternRewriter(alignments, registry, use_index=False)
        indexed_result, indexed_report = indexed.rewrite_bgp(patterns)
        linear_result, linear_report = linear.rewrite_bgp(patterns)
        assert indexed_result == linear_result
        assert indexed_report.matched_count == linear_report.matched_count
        assert [r.produced for r in indexed_report.rewrites] \
            == [r.produced for r in linear_report.rewrites]


# --------------------------------------------------------------------------- #
# Property test: indexed == linear on randomly generated KBs and triples.
# --------------------------------------------------------------------------- #
_URIS = [EX["a"], EX["b"], EX["c"], RDF.type]
_VARIABLES = [Variable("x"), Variable("y"), Variable("z")]
_SUBJECTS = _URIS[:3] + _VARIABLES
_PREDICATES = _URIS + _VARIABLES
_OBJECTS = _URIS[:3] + _VARIABLES + [Literal("value")]

_triples = st.builds(
    Triple,
    st.sampled_from(_SUBJECTS),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_OBJECTS),
)
_alignments = st.builds(
    lambda lhs, rhs: EntityAlignment(lhs=lhs, rhs=[rhs]),
    _triples,
    _triples,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_alignments, max_size=12), _triples)
def test_indexed_matching_equals_linear_scan(alignments, query_triple):
    """For any KB and query triple, both paths agree match-for-match."""
    ruleset = CompiledRuleSet(alignments)
    assert ruleset.find_matches(query_triple) == find_matches(alignments, query_triple)
