"""Unit tests for the static query analyzer (``repro.sparql.analysis``).

Covers the diagnostic taxonomy (every SQA1xx code, with its fixed
severity, span and stable code), per-group variable scoping, constant
folding, redundancy pruning, strict-mode rejection, and the executable
guarantee behind provable emptiness: an unsatisfiable query performs
*zero* index lookups on every engine.
"""

from __future__ import annotations

import json

import pytest

from repro.rdf import Graph, Literal, Triple, URIRef, Variable
from repro.sparql import ENGINES, AskResult, QueryEvaluator, parse_query
from repro.sparql.analysis import (
    DIAGNOSTIC_CODES,
    QueryAnalysisError,
    analyze_query,
    group_scopes,
    prune_query,
)
from repro.sparql.ast import Filter, GroupGraphPattern

EX = "http://ex.org/"


def uri(name: str) -> URIRef:
    return URIRef(EX + name)


@pytest.fixture()
def graph() -> Graph:
    g = Graph()
    g.add(Triple(uri("alice"), uri("name"), Literal("Alice")))
    g.add(Triple(uri("alice"), uri("age"), Literal(34)))
    g.add(Triple(uri("bob"), uri("name"), Literal("Bob")))
    return g


def codes(query_text: str) -> list[str]:
    analysis = analyze_query(parse_query(query_text))
    return sorted({d.code for d in analysis.diagnostics})


# --------------------------------------------------------------------------- #
# Diagnostic objects
# --------------------------------------------------------------------------- #
class TestDiagnosticTaxonomy:
    def test_every_code_has_fixed_severity_and_description(self):
        assert set(DIAGNOSTIC_CODES) == {
            "SQA101", "SQA102", "SQA103", "SQA104", "SQA105", "SQA106",
            "SQA107", "SQA108", "SQA109", "SQA110", "SQA111",
            "SQA201", "SQA202",
        }
        for severity, description in DIAGNOSTIC_CODES.values():
            assert severity in {"error", "warning", "info"}
            assert description

    def test_emitted_diagnostics_match_the_table(self):
        analysis = analyze_query(parse_query(
            "SELECT ?nope WHERE { ?s ?p ?o FILTER(1 = 2) }"
        ))
        assert analysis.diagnostics
        for diagnostic in analysis.diagnostics:
            severity, _ = DIAGNOSTIC_CODES[diagnostic.code]
            assert diagnostic.severity == severity
            assert diagnostic.span.line >= 1
            assert diagnostic.span.column >= 1

    def test_render_is_compiler_style(self):
        analysis = analyze_query(parse_query("SELECT ?x WHERE { ?s ?p ?o }"))
        line = analysis.errors[0].render("q.rq")
        assert line.startswith("q.rq:1:8: error[SQA101]")
        assert "?x" in line

    def test_render_without_source_omits_the_prefix(self):
        analysis = analyze_query(parse_query("SELECT ?x WHERE { ?s ?p ?o }"))
        assert analysis.errors[0].render().startswith("1:8: error[SQA101]")

    def test_json_payload_round_trips(self):
        analysis = analyze_query(parse_query("SELECT ?x WHERE { ?s ?p ?o }"))
        payload = json.loads(json.dumps(analysis.to_json_list()))
        entry = payload[0]
        assert entry["code"] == "SQA101"
        assert entry["severity"] == "error"
        assert set(entry["span"]) == {"line", "column", "end_line", "end_column"}

    def test_each_diagnostic_renders_on_one_line(self):
        analysis = analyze_query(parse_query("SELECT ?x WHERE { ?s ?p ?o }"))
        assert analysis.diagnostics
        for diagnostic in analysis.diagnostics:
            assert "\n" not in diagnostic.render("q.rq")


# --------------------------------------------------------------------------- #
# Variable scoping
# --------------------------------------------------------------------------- #
class TestGroupScopes:
    def scopes(self, query_text: str):
        return group_scopes(parse_query(query_text).where)

    def test_plain_bgp_binds_certainly(self):
        certain, possible = self.scopes("SELECT * WHERE { ?s ?p ?o }")
        assert certain == {Variable("s"), Variable("p"), Variable("o")}
        assert possible == certain

    def test_optional_binds_only_possibly(self):
        certain, possible = self.scopes(
            "SELECT * WHERE { ?s <http://e/p> ?o OPTIONAL { ?s <http://e/q> ?x } }"
        )
        assert Variable("x") not in certain
        assert Variable("x") in possible

    def test_union_certain_is_the_branch_intersection(self):
        certain, possible = self.scopes(
            "SELECT * WHERE { { ?s <http://e/p> ?a } UNION { ?s <http://e/q> ?b } }"
        )
        assert Variable("s") in certain
        assert Variable("a") not in certain and Variable("b") not in certain
        assert {Variable("a"), Variable("b")} <= possible

    def test_values_column_with_undef_is_only_possible(self):
        certain, possible = self.scopes(
            "SELECT * WHERE { ?s ?p ?o VALUES (?v ?w) { (1 2) (UNDEF 3) } }"
        )
        assert Variable("w") in certain
        assert Variable("v") not in certain
        assert Variable("v") in possible




# --------------------------------------------------------------------------- #
# Local diagnostics, one code at a time
# --------------------------------------------------------------------------- #
class TestLocalDiagnostics:
    def test_sqa101_never_bound_projection(self):
        assert "SQA101" in codes("SELECT ?nope WHERE { ?s ?p ?o }")

    def test_sqa101_suggests_a_near_miss(self):
        analysis = analyze_query(parse_query(
            "SELECT ?nmae WHERE { ?s <http://e/p> ?name }"
        ))
        [error] = [d for d in analysis.errors if d.code == "SQA101"]
        assert error.hint == "did you mean ?name?"

    def test_optional_variable_is_a_legal_projection(self):
        query = (
            "SELECT ?x WHERE { ?s <http://e/p> ?o "
            "OPTIONAL { ?s <http://e/q> ?x } }"
        )
        assert "SQA101" not in codes(query)

    def test_sqa102_never_bound_order_by(self):
        assert "SQA102" in codes(
            "SELECT ?s WHERE { ?s <http://e/p> ?o } ORDER BY ?missing"
        )

    def test_sqa103_never_bound_filter(self):
        assert "SQA103" in codes(
            "SELECT ?s WHERE { ?s <http://e/p> ?o FILTER(?ghost > 1) }"
        )

    def test_sqa104_unused_variable_is_info(self):
        analysis = analyze_query(parse_query(
            "SELECT ?s WHERE { ?s <http://e/p> ?unused }"
        ))
        [info] = [d for d in analysis.diagnostics if d.code == "SQA104"]
        assert "?unused" in info.message

    def test_sqa105_and_106_literal_in_illegal_position(self):
        # Neither the parser nor Triple's constructor lets a literal into
        # the subject/predicate slot, so smuggle one in the way a buggy
        # programmatic rewrite could: through the slots directly.
        pattern = Triple(uri("s"), uri("p"), Literal("o"))
        pattern._subject = Literal("subj")
        pattern._predicate = Literal("pred")
        query = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
        next(iter(query.where.triples_blocks())).patterns.append(pattern)
        got = {d.code for d in analyze_query(query).diagnostics}
        assert {"SQA105", "SQA106"} <= got

    def test_sqa107_disconnected_bgp(self):
        assert "SQA107" in codes(
            "SELECT * WHERE { ?a <http://e/p> ?b . ?c <http://e/p> ?d }"
        )

    def test_connected_bgp_is_not_flagged(self):
        assert "SQA107" not in codes(
            "SELECT * WHERE { ?a <http://e/p> ?b . ?b <http://e/p> ?c }"
        )

    def test_sqa108_constant_false_filter_proves_emptiness(self):
        analysis = analyze_query(parse_query(
            "SELECT ?s WHERE { ?s ?p ?o FILTER(1 = 2) }"
        ))
        assert any(d.code == "SQA108" for d in analysis.warnings)
        assert analysis.provably_empty
        assert analysis.empty_reason

    def test_sqa109_constant_true_filter_is_redundant(self):
        analysis = analyze_query(parse_query(
            "SELECT ?s WHERE { ?s ?p ?o FILTER(1 = 1) }"
        ))
        assert any(d.code == "SQA109" for d in analysis.diagnostics)
        assert not analysis.provably_empty

    def test_sqa110_statically_ill_typed_expression(self):
        assert "SQA110" in codes(
            'SELECT ?s WHERE { ?s ?p ?o FILTER(1 + "x" > 0) }'
        )

    def test_sqa111_empty_values_block(self):
        analysis = analyze_query(parse_query(
            "SELECT ?s WHERE { ?s ?p ?o VALUES ?v { } }"
        ))
        assert any(d.code == "SQA111" for d in analysis.warnings)
        assert analysis.provably_empty

    def test_spans_point_at_the_offending_line(self):
        analysis = analyze_query(parse_query(
            "SELECT ?nmae WHERE {\n"
            "  ?s <http://e/p> ?name .\n"
            "  FILTER(?nme > 1)\n"
            "}"
        ))
        by_code = {d.code: d for d in analysis.diagnostics}
        assert by_code["SQA101"].span.line == 1
        assert by_code["SQA103"].span.line == 3

    def test_clean_query_yields_no_diagnostics(self):
        assert codes("SELECT ?s ?o WHERE { ?s <http://e/p> ?o }") == []


# --------------------------------------------------------------------------- #
# Constant folding and pruning
# --------------------------------------------------------------------------- #
class TestFoldingAndPruning:
    def test_constant_filters_are_keyed_by_node_identity(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s ?p ?o FILTER(2 > 1) FILTER(?o > 1) }"
        )
        analysis = analyze_query(query)
        filters = [
            element for element in query.where.elements
            if isinstance(element, Filter)
        ]
        assert analysis.constant_filters == {id(filters[0]): True}

    def test_prune_drops_only_the_constant_true_filter(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s ?p ?o FILTER(1 = 1) FILTER(?o > 1) }"
        )
        pruned = prune_query(query, analyze_query(query))
        remaining = [
            element for element in pruned.where.elements
            if isinstance(element, Filter)
        ]
        assert len(remaining) == 1
        # the input AST is never mutated
        assert sum(isinstance(e, Filter) for e in query.where.elements) == 2

    def test_prune_reaches_nested_groups(self):
        query = parse_query(
            "SELECT ?s WHERE { { ?s ?p ?o FILTER(true) } }"
        )
        pruned = prune_query(query, analyze_query(query))
        inner = [
            element for element in pruned.where.elements
            if isinstance(element, GroupGraphPattern)
        ][0]
        assert not any(isinstance(e, Filter) for e in inner.elements)

    def test_prune_is_identity_when_nothing_folds(self):
        query = parse_query("SELECT ?s WHERE { ?s ?p ?o FILTER(?o > 1) }")
        assert prune_query(query, analyze_query(query)) is query


# --------------------------------------------------------------------------- #
# Evaluator integration
# --------------------------------------------------------------------------- #
class TestEvaluatorIntegration:
    EMPTY_SELECT = "SELECT ?s WHERE { ?s ?p ?o FILTER(1 = 2) }"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_provably_empty_select_yields_zero_rows(self, graph, engine):
        result = QueryEvaluator(graph, engine=engine).evaluate(self.EMPTY_SELECT)
        assert len(result) == 0
        assert list(result.variables) == [Variable("s")]
        assert any(d.code == "SQA108" for d in result.diagnostics)

    def test_provably_empty_ask_is_false(self, graph):
        result = QueryEvaluator(graph).evaluate(
            "ASK { ?s ?p ?o FILTER(1 = 2) }"
        )
        assert isinstance(result, AskResult)
        assert not result

    def test_provably_empty_construct_is_an_empty_graph(self, graph):
        result = QueryEvaluator(graph).evaluate(
            "CONSTRUCT { ?s <http://e/p> ?o } WHERE { ?s ?p ?o FILTER(1 = 2) }"
        )
        assert isinstance(result, Graph)
        assert len(result) == 0

    def test_unsatisfiable_query_does_zero_index_lookups(self, graph, monkeypatch):
        lookups = []
        original = Graph.triples_ids

        def counting(self, *args, **kwargs):
            lookups.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "triples_ids", counting)
        monkeypatch.setattr(
            Graph, "triples",
            lambda self, *a, **k: lookups.append(a) or iter(()),
        )
        result = QueryEvaluator(graph).evaluate(self.EMPTY_SELECT)
        assert len(result) == 0
        assert lookups == []

    def test_explain_analyze_shows_the_prune_and_no_scans(self, graph):
        result, event = QueryEvaluator(graph).analyze(self.EMPTY_SELECT)
        assert len(result) == 0
        assert "AnalysisPrune" in event.plan
        assert not any("Scan" in op["operator"] for op in event.operators)
        assert event.rows == 0

    def test_explain_describes_the_pruned_query_that_runs(self, graph):
        text = "SELECT ?s WHERE { ?s <http://ex.org/name> ?o FILTER(1 = 1) }"
        evaluator = QueryEvaluator(graph)
        explained = evaluator.explain(text)
        _, event = evaluator.analyze(text)
        # The constant-true FILTER is pruned before planning, so neither
        # the explained nor the executed scan carries it.
        assert "scan (?s <http://ex.org/name> ?o) est=2.0" in explained
        assert "filter" not in explained.lower()
        assert "filter" not in event.plan.lower()

    def test_explain_of_a_provably_empty_query_is_the_prune(self, graph):
        evaluator = QueryEvaluator(graph)
        explained = evaluator.explain(self.EMPTY_SELECT)
        _, event = evaluator.analyze(self.EMPTY_SELECT)
        [executed] = event.operators
        assert explained.splitlines() == [
            "plan for SELECT query over graph with 3 triples",
            executed["operator"],
        ]
        assert executed["operator"].startswith("AnalysisPrune[")

    def test_strict_mode_raises_on_errors(self, graph):
        evaluator = QueryEvaluator(graph, strict=True)
        with pytest.raises(QueryAnalysisError) as excinfo:
            evaluator.evaluate("SELECT ?nope WHERE { ?s ?p ?o }")
        assert any(d.code == "SQA101" for d in excinfo.value.diagnostics)
        assert "SQA101" in str(excinfo.value)

    def test_strict_mode_passes_warnings_through(self, graph):
        result = QueryEvaluator(graph, strict=True).evaluate(self.EMPTY_SELECT)
        assert len(result) == 0

    def test_diagnostics_attach_on_the_ordinary_path(self, graph):
        result = QueryEvaluator(graph).evaluate(
            "SELECT ?s WHERE { ?s <http://ex.org/name> ?o FILTER(1 = 1) }"
        )
        assert [d.code for d in result.diagnostics] == ["SQA104", "SQA109"]

    def test_analysis_can_be_disabled(self, graph):
        evaluator = QueryEvaluator(graph, analysis=False)
        result = evaluator.evaluate(self.EMPTY_SELECT)
        assert len(result) == 0
        assert result.diagnostics == []

    def test_constant_true_pruning_changes_no_answers(self, graph):
        with_filter = QueryEvaluator(graph).evaluate(
            "SELECT ?s ?o WHERE { ?s <http://ex.org/name> ?o FILTER(1 = 1) }"
        )
        without = QueryEvaluator(graph).evaluate(
            "SELECT ?s ?o WHERE { ?s <http://ex.org/name> ?o }"
        )
        assert sorted(map(str, with_filter)) == sorted(map(str, without))
