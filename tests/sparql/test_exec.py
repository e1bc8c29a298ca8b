"""Unit tests for the batched (vectorized) execution core.

The equivalence of the engines is proven by the conformance corpus and
the differential property tests; this module tests the machinery itself:
the term dictionary, the batch growth schedule, adaptive join reordering
(and its recorded decisions), EXPLAIN ANALYZE reports and the structured
run-event emission hook.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import SLOW_LOG, Tracer
from repro.obs.trace import set_tracer
from repro.rdf import Graph, Literal, TermDictionary, Triple, URIRef, Variable
from repro.sparql import (
    ENGINES,
    Query,
    QueryEvaluator,
    QueryPlanner,
    parse_query,
)
from repro.sparql import exec as executor
from repro.sparql.exec import (
    RUN_EVENTS_ENV,
    UNBOUND,
    Batch,
    ExecContext,
    ScanStep,
    VecBGPOp,
    seed_batches,
)

from .test_plan import CountingGraph

EX = "http://example.org/"


def _graph(*triples) -> Graph:
    graph = Graph()
    for s, p, o in triples:
        graph.add(Triple(URIRef(EX + s), URIRef(EX + p), o))
    return graph


def _chain_graph(length: int) -> Graph:
    """a0 -next-> a1 -next-> ... a<length>."""
    graph = Graph()
    next_uri = URIRef(EX + "next")
    for i in range(length):
        graph.add(Triple(URIRef(EX + f"a{i}"), next_uri, URIRef(EX + f"a{i + 1}")))
    return graph


# --------------------------------------------------------------------------- #
# Term dictionary
# --------------------------------------------------------------------------- #
class TestTermDictionary:
    def test_interning_is_idempotent(self):
        dictionary = TermDictionary()
        uri = URIRef(EX + "a")
        first = dictionary.intern(uri)
        assert dictionary.intern(uri) == first
        assert dictionary.decode(first) == uri

    def test_id_zero_is_reserved_for_unbound(self):
        dictionary = TermDictionary()
        assert dictionary.intern(URIRef(EX + "a")) != UNBOUND
        with pytest.raises(KeyError):
            dictionary.decode(UNBOUND)

    def test_distinct_terms_get_distinct_ids(self):
        dictionary = TermDictionary()
        ids = {dictionary.intern(URIRef(EX + f"t{i}")) for i in range(100)}
        assert len(ids) == 100

    def test_literal_and_uri_do_not_collide(self):
        dictionary = TermDictionary()
        assert dictionary.intern(Literal("a")) != dictionary.intern(URIRef("a"))

    def test_graph_owns_a_dictionary(self):
        graph = _graph(("a", "p", Literal(1)))
        assert isinstance(graph.dictionary, TermDictionary)
        # The read-only view shares the backing graph's dictionary.
        from repro.rdf import GraphView

        assert GraphView(graph).dictionary is graph.dictionary


# --------------------------------------------------------------------------- #
# Batch growth schedule
# --------------------------------------------------------------------------- #
class TestBatching:
    def test_batches_follow_growth_schedule(self, monkeypatch):
        graph = _chain_graph(200)
        query = parse_query("SELECT ?s ?o WHERE { ?s <http://example.org/next> ?o }")
        monkeypatch.setattr(executor, "INITIAL_BATCH_ROWS", 4)
        monkeypatch.setattr(executor, "BATCH_GROWTH", 4)
        monkeypatch.setattr(executor, "MAX_BATCH_ROWS", 32)
        plan = QueryPlanner(graph).plan(query)
        sizes = [len(batch.rows) for batch in plan.execute()]
        assert sum(sizes) == 200
        assert sizes[0] <= 4
        assert max(sizes) <= 32
        # Growth is monotone until the cap.
        for before, after in zip(sizes, sizes[1:-1], strict=False):
            assert after >= before or after == 32

    def test_first_binding_stops_early(self):
        # ASK-style consumption must not scan the whole relation: the
        # initial batch cap bounds the prefetch, so out of 1000 matching
        # triples only the first handful are ever pulled from the index.
        graph = CountingGraph()
        next_uri = URIRef(EX + "next")
        for i in range(1000):
            graph.add(Triple(URIRef(EX + f"a{i}"), next_uri, URIRef(EX + f"a{i + 1}")))
        query = parse_query("ASK { ?s <http://example.org/next> ?o }")
        plan = QueryPlanner(graph).plan(query)
        assert plan.first_binding() is not None
        assert 1 <= graph.matches <= 8

    def test_rows_decode_to_original_terms(self):
        value = Literal("hello", lang="en")
        graph = _graph(("a", "p", value))
        query = parse_query("SELECT ?o WHERE { ?s <http://example.org/p> ?o }")
        plan = QueryPlanner(graph).plan(query)
        bindings = list(plan.bindings())
        assert len(bindings) == 1
        assert bindings[0][Variable("o")] == value


# --------------------------------------------------------------------------- #
# Adaptive join reordering
# --------------------------------------------------------------------------- #
def _fanout_graph() -> Graph:
    """?a p ?b seeds 50 rows; per ?b, r is 1 row and s is 4 rows."""
    graph = Graph()
    for i in range(50):
        graph.add(Triple(URIRef(EX + f"a{i}"), URIRef(EX + "p"), URIRef(EX + f"b{i}")))
        graph.add(Triple(URIRef(EX + f"b{i}"), URIRef(EX + "r"), URIRef(EX + f"c{i}")))
        for j in range(4):
            graph.add(
                Triple(URIRef(EX + f"b{i}"), URIRef(EX + "s"), URIRef(EX + f"d{j}"))
            )
    return graph


def _lying_steps():
    """A 3-step chain whose first estimate is badly off (0.1 vs 50 actual)
    and whose remaining order is the wrong way round (s before r)."""
    a, b, c, d = (Variable(name) for name in "abcd")
    return [
        ScanStep(Triple(a, URIRef(EX + "p"), b), [], 0.1),
        ScanStep(Triple(b, URIRef(EX + "s"), d), [], 1.0),
        ScanStep(Triple(b, URIRef(EX + "r"), c), [], 5.0),
    ]


class TestAdaptivity:
    def test_misestimate_triggers_a_recorded_reorder(self):
        graph = _fanout_graph()
        ctx = ExecContext(graph)
        op = VecBGPOp(ctx, (), _lying_steps(), [])
        rows = [row for batch in op.execute(seed_batches()) for row in batch.rows]
        assert len(rows) == 200
        assert len(ctx.decisions) == 1
        decision = ctx.decisions[0]
        assert decision["estimated"] == 0.1
        assert decision["observed"] > decision["estimated"]
        # The cheap r-scan moves ahead of the 4x s-fan-out.
        assert decision["new_order"] != decision["old_order"]
        assert "/r>" in decision["new_order"][0]

    def test_adaptive_run_matches_non_adaptive(self, monkeypatch):
        graph = _fanout_graph()
        results = {}
        for adaptive in (True, False):
            monkeypatch.setattr(executor, "ADAPTIVE", adaptive)
            ctx = ExecContext(graph)
            op = VecBGPOp(ctx, (), _lying_steps(), [])
            decoded = sorted(
                tuple(sorted(ctx.decode_binding(
                    executor.external_columns(batch.schema), row
                ).as_dict().items()))
                for batch in op.execute(seed_batches())
                for row in batch.rows
            )
            results[adaptive] = decoded
        assert results[True] == results[False]

    def test_non_adaptive_op_records_no_decisions(self, monkeypatch):
        graph = _fanout_graph()
        monkeypatch.setattr(executor, "ADAPTIVE", False)
        ctx = ExecContext(graph)
        op = VecBGPOp(ctx, (), _lying_steps(), [])
        list(op.execute(seed_batches()))
        assert ctx.decisions == []

    def test_adaptivity_decisions_reach_the_run_event(self):
        # End to end: a query whose scan chain reorders must surface the
        # decision in the EXPLAIN ANALYZE event's adaptivity list.
        graph = _fanout_graph()
        query = parse_query("""
        SELECT ?a ?b ?c ?d WHERE {
          ?a <http://example.org/p> ?b .
          ?b <http://example.org/s> ?d .
          ?b <http://example.org/r> ?c .
        }
        """)
        plan = QueryPlanner(graph).plan(query)
        list(plan.execute())
        event = executor.build_run_event(plan, "q", plan.elapsed)
        assert event.adaptivity == plan.ctx.decisions

    def test_evaluator_answers_without_adaptivity(self, monkeypatch):
        graph = _fanout_graph()
        monkeypatch.setattr(executor, "ADAPTIVE", False)
        evaluator = QueryEvaluator(graph)
        result = evaluator.select(parse_query(
            "SELECT ?a ?b WHERE { ?a <http://example.org/p> ?b }"
        ))
        assert len(result) == 50


# --------------------------------------------------------------------------- #
# EXPLAIN ANALYZE
# --------------------------------------------------------------------------- #
class TestAnalyze:
    def test_analyze_returns_result_and_event(self):
        graph = _chain_graph(5)
        evaluator = QueryEvaluator(graph)
        result, event = evaluator.analyze(
            "SELECT ?s ?o WHERE { ?s <http://example.org/next> ?o }"
        )
        assert len(result) == 5
        assert event.engine == "planner"
        assert event.rows == 5
        assert event.elapsed >= 0
        assert "BGPScan" in event.plan

    def test_event_operator_metrics_are_consistent(self):
        graph = _chain_graph(5)
        _, event = QueryEvaluator(graph).analyze(
            "SELECT ?s WHERE { ?s <http://example.org/next> ?o }"
        )
        names = [op["operator"] for op in event.operators]
        assert any("Project" in name for name in names)
        for op in event.operators:
            assert op["rows_out"] >= 0
            assert op["seconds"] >= 0

    def test_render_mentions_rows_and_engine(self):
        graph = _chain_graph(3)
        _, event = QueryEvaluator(graph).analyze(
            "SELECT ?s WHERE { ?s <http://example.org/next> ?o }"
        )
        text = event.render()
        assert "planner" in text
        assert "3 rows" in text

    def test_event_round_trips_through_json(self):
        graph = _chain_graph(3)
        _, event = QueryEvaluator(graph).analyze(
            "SELECT ?s WHERE { ?s <http://example.org/next> ?o }"
        )
        payload = json.loads(json.dumps(event.to_json_dict()))
        assert payload["engine"] == "planner"
        assert payload["rows"] == 3

    def test_reference_engine_analyzes_via_the_planner(self):
        # The oracle has no batched instrumentation; analyze reports the
        # planner's plan instead.
        evaluator = QueryEvaluator(_chain_graph(2), engine="reference")
        result, event = evaluator.analyze("SELECT ?s WHERE { ?s ?p ?o }")
        assert len(result) == 2
        assert event.engine == "planner"
        assert "BGPScan" in event.plan

    def test_reference_engine_labels_a_pruned_plan_planner(self):
        # A query the analyzer proved empty runs the planner's executor
        # too, so it carries the same engine label.
        evaluator = QueryEvaluator(_chain_graph(2), engine="reference")
        result, event = evaluator.analyze("SELECT ?s WHERE { ?s ?p ?o FILTER(1 = 2) }")
        assert len(result) == 0
        assert "AnalysisPrune" in event.plan
        assert event.engine == "planner"


# --------------------------------------------------------------------------- #
# Run-event emission (REPRO_RUN_EVENTS)
# --------------------------------------------------------------------------- #
class TestRunEventEmission:
    def test_events_append_as_jsonl(self, tmp_path, monkeypatch):
        target = tmp_path / "events.jsonl"
        monkeypatch.setenv(RUN_EVENTS_ENV, str(target))
        graph = _chain_graph(4)
        evaluator = QueryEvaluator(graph)
        evaluator.select(parse_query("SELECT ?s WHERE { ?s <http://example.org/next> ?o }"))
        evaluator.evaluate(parse_query("ASK { ?s <http://example.org/next> ?o }"))
        lines = target.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["engine"] == "planner"
        assert first["rows"] == 4

    def test_no_env_no_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RUN_EVENTS_ENV, raising=False)
        graph = _chain_graph(2)
        QueryEvaluator(graph).select(
            parse_query("SELECT ?s WHERE { ?s <http://example.org/next> ?o }")
        )
        assert list(tmp_path.iterdir()) == []

    def test_a_local_event_names_its_query(self, tmp_path, monkeypatch):
        target = tmp_path / "events.jsonl"
        monkeypatch.setenv(RUN_EVENTS_ENV, str(target))
        query = parse_query("SELECT ?s WHERE { ?s <http://example.org/next> ?o }")
        QueryEvaluator(_chain_graph(2)).select(query)
        [line] = target.read_text(encoding="utf-8").splitlines()
        assert json.loads(line)["query"] == query.serialize()

    def test_with_nothing_reading_no_query_is_serialized(self, monkeypatch):
        monkeypatch.delenv(RUN_EVENTS_ENV, raising=False)
        monkeypatch.setattr(SLOW_LOG, "threshold", float("inf"))
        previous = set_tracer(Tracer(enabled=False))
        finished, serialized = [], []
        finish = executor.finish_run

        def finish_spy(plan, query, elapsed, layer, analyze=False):
            finished.append(query)
            return finish(plan, query, elapsed, layer, analyze)

        serialize = Query.serialize

        def serialize_spy(query):
            serialized.append(query)
            return serialize(query)

        monkeypatch.setattr(executor, "finish_run", finish_spy)
        monkeypatch.setattr(Query, "serialize", serialize_spy)
        queries = [parse_query(text) for text in (
            "SELECT ?s WHERE { ?s <http://example.org/next> ?o }",
            "ASK { ?s <http://example.org/next> ?o }",
            "CONSTRUCT { ?o <http://example.org/prev> ?s } "
            "WHERE { ?s <http://example.org/next> ?o }",
        )]
        try:
            evaluator = QueryEvaluator(_chain_graph(2))
            for query in queries:
                evaluator.evaluate(query)
        finally:
            set_tracer(previous)
        # Each run hands the parsed query itself to finish_run, which
        # builds no event and so serializes nothing.
        assert finished == queries
        assert serialized == []


# --------------------------------------------------------------------------- #
# Engine selection plumbing
# --------------------------------------------------------------------------- #
class TestEngineSelection:
    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError):
            QueryEvaluator(Graph(), engine="turbo")

    @pytest.mark.parametrize("engine", ["naive", "streaming"])
    def test_deleted_engines_are_rejected(self, engine):
        with pytest.raises(ValueError, match="planner, reference"):
            QueryEvaluator(Graph(), engine=engine)

    def test_use_planner_flag_is_gone(self):
        with pytest.raises(TypeError):
            QueryEvaluator(Graph(), use_planner=True)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_answers_a_basic_query(self, engine):
        graph = _chain_graph(3)
        evaluator = QueryEvaluator(graph, engine=engine)
        result = evaluator.select(
            parse_query("SELECT ?s ?o WHERE { ?s <http://example.org/next> ?o }")
        )
        assert len(result) == 3


# --------------------------------------------------------------------------- #
# Batch container invariants
# --------------------------------------------------------------------------- #
class TestBatch:
    def test_batch_rows_match_schema_width(self):
        schema = (Variable("a"), Variable("b"))
        batch = Batch(schema, [(1, 2), (3, UNBOUND)])
        assert all(len(row) == len(schema) for row in batch.rows)
        assert len(batch.rows) == 2
