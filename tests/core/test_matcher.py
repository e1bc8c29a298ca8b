"""Unit tests for the matching function of Section 3.3.1."""

from repro.alignment import property_alignment
from repro.core import (
    Substitution,
    find_matches,
    match_alignment,
    match_node,
    match_triple,
)
from repro.rdf import AKT, KISTI, Literal, RDF, RKB_ID, Triple, URIRef, Variable


class TestMatchNode:
    def test_variable_matches_anything(self):
        assert match_node(Variable("p1"), Variable("paper")) == Substitution(
            {Variable("p1"): Variable("paper")}
        )
        assert match_node(Variable("a1"), RKB_ID["person-02686"]) == Substitution(
            {Variable("a1"): RKB_ID["person-02686"]}
        )
        assert match_node(Variable("x"), Literal("text")) is not None

    def test_equal_ground_terms_match_with_empty_substitution(self):
        result = match_node(AKT["has-author"], AKT["has-author"])
        assert result == Substitution()
        assert len(result) == 0

    def test_different_ground_terms_fail(self):
        assert match_node(AKT["has-author"], AKT["has-title"]) is None

    def test_ground_lhs_does_not_match_query_variable(self):
        """The paper's match is asymmetric: ground head vs query variable fails."""
        assert match_node(AKT["has-author"], Variable("p")) is None

    def test_ground_lhs_does_not_match_literal(self):
        assert match_node(URIRef("http://ex.org/a"), Literal("a")) is None


class TestMatchTriple:
    def test_worked_example_first_triple(self, figure2_alignment):
        query_triple = Triple(Variable("paper"), AKT["has-author"], RKB_ID["person-02686"])
        substitution = match_triple(figure2_alignment.lhs, query_triple)
        assert substitution is not None
        assert substitution[Variable("p1")] == Variable("paper")
        assert substitution[Variable("a1")] == RKB_ID["person-02686"]

    def test_worked_example_second_triple(self, figure2_alignment):
        query_triple = Triple(Variable("paper"), AKT["has-author"], Variable("a"))
        substitution = match_triple(figure2_alignment.lhs, query_triple)
        assert substitution is not None
        assert substitution[Variable("a1")] == Variable("a")

    def test_predicate_mismatch_fails(self, figure2_alignment):
        query_triple = Triple(Variable("paper"), AKT["has-title"], Variable("t"))
        assert match_triple(figure2_alignment.lhs, query_triple) is None

    def test_repeated_variable_must_bind_consistently(self):
        head = Triple(Variable("x"), AKT["cites-publication-reference"], Variable("x"))
        same = Triple(RKB_ID["paper-1"], AKT["cites-publication-reference"], RKB_ID["paper-1"])
        different = Triple(RKB_ID["paper-1"], AKT["cites-publication-reference"], RKB_ID["paper-2"])
        assert match_triple(head, same) is not None
        assert match_triple(head, different) is None

    def test_ground_object_in_head_requires_exact_match(self):
        head = Triple(Variable("x"), RDF.type, AKT["Person"])
        assert match_triple(head, Triple(Variable("s"), RDF.type, AKT["Person"])) is not None
        assert match_triple(head, Triple(Variable("s"), RDF.type, AKT["Project"])) is None
        assert match_triple(head, Triple(Variable("s"), RDF.type, Variable("class"))) is None


class TestMatchAlignment:
    def test_match_result_carries_rule_and_binding(self, figure2_alignment):
        triple = Triple(Variable("paper"), AKT["has-author"], RKB_ID["person-02686"])
        result = match_alignment(figure2_alignment, triple)
        assert result is not None
        assert result.alignment is figure2_alignment
        assert result.triple == triple

    def test_no_match_returns_none(self, figure2_alignment):
        triple = Triple(Variable("x"), AKT["has-title"], Literal("t"))
        assert match_alignment(figure2_alignment, triple) is None

    def test_find_matches_returns_all_in_order(self, figure2_alignment):
        other = property_alignment(AKT["has-author"], KISTI["hasCreator"])
        triple = Triple(Variable("paper"), AKT["has-author"], Variable("a"))
        matches = find_matches([figure2_alignment, other], triple)
        assert [match.alignment for match in matches] == [figure2_alignment, other]
        matches_reversed = find_matches([other, figure2_alignment], triple)
        assert matches_reversed[0].alignment is other

    def test_find_matches_empty_for_unmatched_triple(self, figure2_alignment):
        triple = Triple(Variable("x"), RDF.type, AKT["Person"])
        assert find_matches([figure2_alignment], triple) == []


class TestSubstitution:
    def test_merge_consistent(self):
        left = Substitution({Variable("x"): RKB_ID["a"]})
        right = Substitution({Variable("y"): RKB_ID["b"]})
        merged = left.merge(right)
        assert merged is not None and len(merged) == 2

    def test_merge_conflicting_returns_none(self):
        left = Substitution({Variable("x"): RKB_ID["a"]})
        right = Substitution({Variable("x"): RKB_ID["b"]})
        assert left.merge(right) is None

    def test_merge_same_binding_ok(self):
        left = Substitution({Variable("x"): RKB_ID["a"]})
        assert left.merge(Substitution({Variable("x"): RKB_ID["a"]})) == left

    def test_apply_to_term(self):
        substitution = Substitution({Variable("p1"): Variable("paper"),
                                     Variable("a1"): RKB_ID["person-1"]})
        pattern = Triple(Variable("p1"), AKT["has-author"], Variable("a1"))
        assert pattern.map_terms(substitution.apply_to_term) == Triple(
            Variable("paper"), AKT["has-author"], RKB_ID["person-1"]
        )

    def test_apply_leaves_unbound_variables(self):
        substitution = Substitution()
        assert substitution.apply_to_term(Variable("x")) == Variable("x")

    def test_bind_returns_new_substitution(self):
        original = Substitution()
        extended = original.bind(Variable("x"), RKB_ID["a"])
        assert len(original) == 0
        assert extended[Variable("x")] == RKB_ID["a"]
