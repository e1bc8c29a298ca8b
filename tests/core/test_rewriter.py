"""Unit tests for Algorithm 1 (rewrite) and Algorithm 2 (instFunction)."""

import pytest

from repro.alignment import (
    FunctionRegistry,
    SAMEAS_FUNCTION,
    class_alignment,
    class_to_intersection_alignment,
    property_alignment,
)
from repro.core import (
    FreshVariableGenerator,
    GraphPatternRewriter,
    QueryRewriter,
    RewriteError,
    instantiate_functions,
    match_alignment,
)
from repro.rdf import AKT, KISTI, RDF, RKB_ID, Triple, Variable
from repro.sparql import parse_query

from ..conftest import FIGURE_1_QUERY, KISTI_PERSON_URI


class TestFreshVariableGenerator:
    def test_avoids_reserved_names(self):
        generator = FreshVariableGenerator([Variable("new1"), Variable("new2")])
        assert generator.fresh() == Variable("new3")

    def test_sequential_uniqueness(self):
        generator = FreshVariableGenerator()
        names = {generator.fresh().name for _ in range(10)}
        assert len(names) == 10



class TestInstantiateFunctions:
    def test_ground_parameter_executes_sameas(self, figure2_alignment, registry):
        triple = Triple(Variable("paper"), AKT["has-author"], RKB_ID["person-02686"])
        match = match_alignment(figure2_alignment, triple)
        substitution, calls = instantiate_functions(match, registry)
        assert substitution[Variable("a2")] == KISTI_PERSON_URI
        assert calls == 2

    def test_variable_parameter_passes_through(self, figure2_alignment, registry):
        """The paper's default mechanism: sameas of a free variable is the variable."""
        triple = Triple(Variable("paper"), AKT["has-author"], Variable("a"))
        match = match_alignment(figure2_alignment, triple)
        substitution, _ = instantiate_functions(match, registry)
        assert substitution[Variable("p2")] == Variable("paper")
        assert substitution[Variable("a2")] == Variable("a")

    def test_missing_function_skipped_by_default(self, figure2_alignment):
        triple = Triple(Variable("paper"), AKT["has-author"], RKB_ID["person-02686"])
        match = match_alignment(figure2_alignment, triple)
        substitution, calls = instantiate_functions(match, FunctionRegistry())
        assert calls == 0
        assert Variable("a2") not in substitution

    def test_missing_function_raises_in_strict_mode(self, figure2_alignment):
        triple = Triple(Variable("paper"), AKT["has-author"], RKB_ID["person-02686"])
        match = match_alignment(figure2_alignment, triple)
        with pytest.raises(RewriteError):
            instantiate_functions(match, FunctionRegistry(), strict=True)

    def test_failing_function_raises_in_strict_mode(self, figure2_alignment, sameas_service):
        from repro.alignment import make_sameas

        registry = FunctionRegistry()
        registry.register(SAMEAS_FUNCTION, make_sameas(sameas_service, strict=True))
        triple = Triple(Variable("paper"), AKT["has-author"], RKB_ID["person-unknown"])
        match = match_alignment(figure2_alignment, triple)
        with pytest.raises(RewriteError):
            instantiate_functions(match, registry, strict=True)


class TestGraphPatternRewriter:
    def test_unmatched_triple_copied_unchanged(self, figure2_alignment, registry):
        rewriter = GraphPatternRewriter([figure2_alignment], registry)
        pattern = Triple(Variable("x"), AKT["has-title"], Variable("t"))
        result, report = rewriter.rewrite_bgp([pattern])
        assert result == [pattern]
        assert report.matched_count == 0
        assert report.unmatched_count == 1

    def test_matched_triple_replaced_by_rhs(self, figure2_alignment, registry):
        rewriter = GraphPatternRewriter([figure2_alignment], registry)
        pattern = Triple(Variable("paper"), AKT["has-author"], RKB_ID["person-02686"])
        result, report = rewriter.rewrite_bgp([pattern])
        assert len(result) == 2
        assert result[0].predicate == KISTI["hasCreatorInfo"]
        assert result[1].predicate == KISTI["hasCreator"]
        assert result[1].object == KISTI_PERSON_URI
        assert report.matched_count == 1
        assert report.output_size == 2

    def test_fresh_variables_differ_across_applications(self, figure2_alignment, registry):
        rewriter = GraphPatternRewriter([figure2_alignment], registry)
        patterns = [
            Triple(Variable("paper"), AKT["has-author"], RKB_ID["person-02686"]),
            Triple(Variable("paper"), AKT["has-author"], Variable("a")),
        ]
        result, _report = rewriter.rewrite_bgp(patterns)
        # ?c is renamed to a different fresh variable in each application.
        intermediate_1 = result[0].object
        intermediate_2 = result[2].object
        assert intermediate_1 != intermediate_2

    def test_first_matching_alignment_wins(self, figure2_alignment, registry):
        flat = property_alignment(AKT["has-author"], KISTI["hasCreator"])
        pattern = Triple(Variable("p"), AKT["has-author"], Variable("a"))
        chain_first, _ = GraphPatternRewriter([figure2_alignment, flat], registry).rewrite_bgp([pattern])
        flat_first, _ = GraphPatternRewriter([flat, figure2_alignment], registry).rewrite_bgp([pattern])
        assert len(chain_first) == 2
        assert len(flat_first) == 1

    def test_class_alignment_rewrite(self, registry):
        alignment = class_alignment(AKT["Person"], KISTI["Researcher"])
        pattern = Triple(Variable("x"), RDF.type, AKT["Person"])
        result, _ = GraphPatternRewriter([alignment], registry).rewrite_bgp([pattern])
        assert result == [Triple(Variable("x"), RDF.type, KISTI["Researcher"])]

    def test_intersection_alignment_produces_two_memberships(self, registry):
        alignment = class_to_intersection_alignment(
            AKT["Person"], [KISTI["Researcher"], KISTI["Publication"]]
        )
        pattern = Triple(Variable("x"), RDF.type, AKT["Person"])
        result, _ = GraphPatternRewriter([alignment], registry).rewrite_bgp([pattern])
        assert len(result) == 2
        assert {triple.object for triple in result} == {KISTI["Researcher"], KISTI["Publication"]}

    def test_report_tracks_alignments_used(self, figure2_alignment, registry):
        rewriter = GraphPatternRewriter([figure2_alignment], registry)
        patterns = [
            Triple(Variable("paper"), AKT["has-author"], Variable("a")),
            Triple(Variable("paper"), AKT["has-title"], Variable("t")),
        ]
        _, report = rewriter.rewrite_bgp(patterns)
        assert report.alignments_used() == [figure2_alignment]
        assert report.input_size == 2
        assert report.output_size == 3

    def test_empty_bgp(self, figure2_alignment, registry):
        result, report = GraphPatternRewriter([figure2_alignment], registry).rewrite_bgp([])
        assert result == []
        assert report.input_size == 0

    def test_no_alignments_is_identity(self, registry):
        pattern = Triple(Variable("x"), AKT["has-title"], Variable("t"))
        result, report = GraphPatternRewriter([], registry).rewrite_bgp([pattern])
        assert result == [pattern]


class TestQueryRewriter:
    def test_input_query_not_mutated(self, figure2_alignment, registry):
        query = parse_query(FIGURE_1_QUERY)
        before = [str(p) for p in query.all_triple_patterns()]
        QueryRewriter([figure2_alignment], registry).rewrite(query)
        after = [str(p) for p in query.all_triple_patterns()]
        assert before == after

    def test_result_form_and_modifiers_preserved(self, figure2_alignment, registry):
        query = parse_query(FIGURE_1_QUERY)
        rewritten, _ = QueryRewriter([figure2_alignment], registry).rewrite(query)
        assert rewritten.projection == [Variable("a")]
        assert rewritten.modifiers.distinct is True

    def test_filters_preserved_verbatim(self, figure2_alignment, registry):
        """BGP-only rewriting leaves the FILTER untouched (the Section 4 limitation)."""
        query = parse_query(FIGURE_1_QUERY)
        rewritten, _ = QueryRewriter([figure2_alignment], registry).rewrite(query)
        filters = list(rewritten.filters())
        assert len(filters) == 1
        assert "person-02686" in rewritten.serialize()

    def test_optional_and_union_blocks_rewritten(self, registry):
        alignment = property_alignment(AKT["has-title"], KISTI["title"])
        query = parse_query("""
            PREFIX akt:<http://www.aktors.org/ontology/portal#>
            SELECT ?t WHERE {
              { ?p akt:has-title ?t } UNION { ?q akt:has-title ?t }
              OPTIONAL { ?p akt:has-title ?other }
            }
        """)
        rewritten, report = QueryRewriter([alignment], registry).rewrite(query)
        predicates = {pattern.predicate for pattern in rewritten.all_triple_patterns()}
        assert predicates == {KISTI["title"]}
        assert report.matched_count == 3

    def test_prologue_extended_with_target_prefixes(self, figure2_alignment, registry):
        query = parse_query(FIGURE_1_QUERY)
        rewriter = QueryRewriter([figure2_alignment], registry,
                                 extra_prefixes={"kisti": str(KISTI)})
        rewritten, _ = rewriter.rewrite(query)
        assert rewritten.prologue.namespace_manager.namespace("kisti") == str(KISTI)
        assert "kisti:hasCreatorInfo" in rewritten.serialize()

    def test_auto_prefix_generated_when_not_supplied(self, figure2_alignment, registry):
        query = parse_query(FIGURE_1_QUERY)
        rewritten, _ = QueryRewriter([figure2_alignment], registry).rewrite(query)
        # Some prefix is bound to the KISTI namespace so the output is compact.
        assert rewritten.prologue.namespace_manager.prefix(str(KISTI)) is not None

    def test_construct_query_where_clause_rewritten(self, registry):
        alignment = property_alignment(AKT["has-title"], KISTI["title"])
        query = parse_query("""
            PREFIX akt:<http://www.aktors.org/ontology/portal#>
            CONSTRUCT { ?p akt:has-title ?t } WHERE { ?p akt:has-title ?t }
        """)
        rewritten, _ = QueryRewriter([alignment], registry).rewrite(query)
        # WHERE is rewritten, the template kept in the source vocabulary.
        assert rewritten.all_triple_patterns()[0].predicate == KISTI["title"]
        assert rewritten.template[0].predicate == AKT["has-title"]

    def test_rewritten_text(self, figure2_alignment, registry):
        rewritten, _ = QueryRewriter([figure2_alignment], registry).rewrite(
            parse_query(FIGURE_1_QUERY)
        )
        text = rewritten.serialize()
        assert "hasCreatorInfo" in text
        assert "SELECT DISTINCT ?a" in text
