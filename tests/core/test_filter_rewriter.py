"""Unit tests for the FILTER pass of the query rewriter (Section 4)."""

import pytest

from repro.core import (
    EqualityConstraint,
    QueryRewriter,
    extract_equality_constraints,
    translate_expression_terms,
)
from repro.datasets import build_resist_scenario
from repro.rdf import KISTI, KISTI_ID, RKB_ID, Variable
from repro.sparql import parse_query, serialize_expression

from ..conftest import FIGURE_1_QUERY, FIGURE_6_QUERY, KISTI_PERSON_URI, KISTI_URI_PATTERN


def first_filter_expression(query_text: str):
    return next(iter(parse_query(query_text).filters())).expression


class TestExtractEqualityConstraints:
    def test_figure6_positive_conjunct_found(self):
        constraints = extract_equality_constraints(first_filter_expression(FIGURE_6_QUERY))
        assert EqualityConstraint(Variable("n"), RKB_ID["person-02686"]) in constraints

    def test_negated_equality_not_extracted(self):
        constraints = extract_equality_constraints(first_filter_expression(FIGURE_1_QUERY))
        assert constraints == []

    def test_disjunction_not_extracted(self):
        expression = first_filter_expression("""
            PREFIX id:<http://southampton.rkbexplorer.com/id/>
            SELECT ?a WHERE { ?p ?q ?a . FILTER ((?a = id:x) || (?a = id:y)) }
        """)
        assert extract_equality_constraints(expression) == []

    def test_reversed_operands_supported(self):
        expression = first_filter_expression("""
            PREFIX id:<http://southampton.rkbexplorer.com/id/>
            SELECT ?a WHERE { ?p ?q ?a . FILTER (id:x = ?a) }
        """)
        constraints = extract_equality_constraints(expression)
        assert constraints == [EqualityConstraint(Variable("a"), RKB_ID["x"])]

    def test_variable_to_variable_equality_ignored(self):
        expression = first_filter_expression(
            "SELECT ?a WHERE { ?p ?q ?a . FILTER (?a = ?p) }"
        )
        assert extract_equality_constraints(expression) == []


def filter_pass_rewriter(alignments, registry, sameas_service):
    """The one query rewriter with its FILTER pass on, targeting KISTI."""
    return QueryRewriter(
        alignments, registry, extra_prefixes={"kisti": str(KISTI), "kid": str(KISTI_ID)},
        sameas_service=sameas_service, target_uri_pattern=KISTI_URI_PATTERN,
    )


class TestPromotion:
    def test_promotion_adds_specialised_patterns(self, registry, sameas_service):
        query = parse_query(FIGURE_6_QUERY)
        constraints = extract_equality_constraints(next(iter(query.filters())).expression)
        assert len(constraints) == 1
        # No alignments: the output patterns are exactly the promoted BGP.
        promoted, _ = filter_pass_rewriter([], registry, sameas_service).rewrite(query)
        patterns = promoted.all_triple_patterns()
        # Original two patterns plus one specialised copy with the ground URI.
        assert len(patterns) == 3
        assert any(p.object == RKB_ID["person-02686"] for p in patterns)
        # Original patterns still present: the variable stays bound.
        assert any(p.object == Variable("n") for p in patterns)

    def test_promotion_is_noop_without_constraints(self, registry, sameas_service):
        query = parse_query(FIGURE_1_QUERY)
        promoted, _ = filter_pass_rewriter([], registry, sameas_service).rewrite(query)
        assert len(promoted.all_triple_patterns()) == len(query.all_triple_patterns())

    def test_promotion_does_not_mutate_input(self, figure2_alignment, registry, sameas_service):
        query = parse_query(FIGURE_6_QUERY)
        before = query.serialize()
        filter_pass_rewriter([figure2_alignment], registry, sameas_service).rewrite(query)
        assert query.serialize() == before


class TestExpressionTranslation:
    def test_uris_translated_into_target_space(self, sameas_service):
        expression = first_filter_expression(FIGURE_1_QUERY)
        translated = translate_expression_terms(expression, sameas_service, KISTI_URI_PATTERN)
        text = serialize_expression(translated)
        assert str(KISTI_PERSON_URI) in text
        assert "southampton" not in text

    def test_unknown_uris_left_alone(self, sameas_service):
        expression = first_filter_expression("""
            PREFIX id:<http://southampton.rkbexplorer.com/id/>
            SELECT ?a WHERE { ?p ?q ?a . FILTER (?a = id:unlinked-person) }
        """)
        translated = translate_expression_terms(expression, sameas_service, KISTI_URI_PATTERN)
        assert "unlinked-person" in serialize_expression(translated)


class TestFilterPass:
    def test_figure6_bgp_only_rewriting_misses_the_constraint(self, figure2_alignment, registry):
        rewritten, _ = QueryRewriter([figure2_alignment], registry).rewrite(
            parse_query(FIGURE_6_QUERY)
        )
        # The source URI survives untranslated (the documented failure).
        assert "person-02686" in rewritten.serialize()
        assert str(KISTI_PERSON_URI) not in rewritten.serialize()

    def test_figure6_filter_pass_translates_the_constraint(
        self, figure2_alignment, registry, sameas_service
    ):
        rewriter = filter_pass_rewriter([figure2_alignment], registry, sameas_service)
        rewritten, report = rewriter.rewrite(parse_query(FIGURE_6_QUERY))
        text = rewritten.serialize()
        assert str(KISTI_PERSON_URI) in text or "PER_00000000000105047" in text
        assert "hasCreatorInfo" in text
        # Both original patterns and the one promoted copy were rewritten.
        assert report.matched_count == 3

    def test_figure1_filter_uri_also_translated(self, figure2_alignment, registry, sameas_service):
        rewriter = filter_pass_rewriter([figure2_alignment], registry, sameas_service)
        rewritten, _ = rewriter.rewrite(parse_query(FIGURE_1_QUERY))
        filter_text = serialize_expression(next(iter(rewritten.filters())).expression)
        assert "southampton" not in filter_text

    def test_pass_needs_both_the_service_and_the_pattern(self, figure2_alignment, registry,
                                                         sameas_service):
        query = parse_query(FIGURE_6_QUERY)
        baseline = QueryRewriter([figure2_alignment], registry).rewrite(query)[0].serialize()
        for half in ({"sameas_service": sameas_service},
                     {"target_uri_pattern": KISTI_URI_PATTERN}):
            rewritten, _ = QueryRewriter([figure2_alignment], registry, **half).rewrite(query)
            assert rewritten.serialize() == baseline


_AKT = "PREFIX akt:<http://www.aktors.org/ontology/portal#>\n"


@pytest.fixture(scope="module")
def scenario():
    """The default scenario: person 29 is the KISTI-covered author with most
    papers, and person 14 shares no paper with them."""
    return build_resist_scenario()


def _rows(scenario, text, dataset):
    rows = scenario.service.translate_and_run(
        text, dataset, source_ontology=scenario.source_ontology, mode="filter-aware",
    ).rows
    return sorted(tuple(sorted(row.items())) for row in rows)


class TestScopedPromotion:
    """A FILTER equality specialises its own group and the groups inside it only."""

    def test_union_branch_equalities_stay_in_their_branch(self, scenario):
        p, q = (f"<{scenario.akt_person_uri(key)}>" for key in (29, 14))
        left = f"{{ ?x akt:has-author ?n FILTER(?n = {p}) }}"
        right = f"{{ ?x akt:has-author ?n FILTER(?n = {q}) }}"
        union = _rows(scenario, f"{_AKT}SELECT ?x ?n WHERE {{ {left} UNION {right} }}",
                      scenario.kisti_dataset)
        alone = [_rows(scenario, f"{_AKT}SELECT ?x ?n WHERE {branch}", scenario.kisti_dataset)
                 for branch in (left, right)]
        assert [len(rows) for rows in alone] == [11, 5]
        assert union == sorted(alone[0] + alone[1])

    @pytest.mark.parametrize("dataset", ["kisti_dataset", "dbpedia_dataset"])
    def test_optional_equality_does_not_restrict_the_required_part(self, scenario, dataset):
        p = f"<{scenario.akt_person_uri(29)}>"
        required = "?paper akt:has-author ?a ."
        query = (f"{_AKT}SELECT ?paper ?a ?t WHERE {{ {required} "
                 f"OPTIONAL {{ ?paper akt:has-title ?t FILTER(?a = {p}) }} }}")
        rows = _rows(scenario, query, getattr(scenario, dataset))
        alone = _rows(scenario, f"{_AKT}SELECT ?paper ?a WHERE {{ {required} }}",
                      getattr(scenario, dataset))
        assert len(rows) == len(alone) == {"kisti_dataset": 230, "dbpedia_dataset": 135}[dataset]
        # The translated FILTER lets the OPTIONAL match for the person's papers.
        assert any(dict(row).get("t") for row in rows)

    def test_optional_filter_is_translated(self, scenario):
        p = scenario.akt_person_uri(29)
        query = parse_query(
            f"{_AKT}SELECT * WHERE {{ ?paper akt:has-author ?n . "
            f"OPTIONAL {{ ?paper akt:has-author ?a FILTER(?a != <{p}>) }} FILTER(?n = <{p}>) }}"
        )
        mediator = scenario.service.mediator
        target = mediator.target(scenario.kisti_dataset)
        rewritten, _ = QueryRewriter(
            mediator.compiled_ruleset(target, scenario.source_ontology), mediator.registry,
            sameas_service=scenario.sameas_service, target_uri_pattern=target.uri_pattern,
        ).rewrite(query)
        filters = [serialize_expression(f.expression) for f in rewritten.filters()]
        assert len(filters) == 2
        assert not any("southampton" in text for text in filters)
        assert len(scenario.endpoint(scenario.kisti_dataset).select(rewritten)) == 35
