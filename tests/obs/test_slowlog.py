"""The slow-query log: threshold, ring bound, environment configuration."""

import json

from repro.obs.slowlog import SLOW_LOG, SLOWLOG_ENV, SlowQueryLog
from repro.rdf import Graph, Literal, Triple, URIRef
from repro.sparql import QueryEvaluator

#: The keys of every entry, as the ``/metrics`` "slowlog" JSON shows them.
ENTRY_KEYS = {
    "query", "elapsed", "engine", "plan",
    "layer", "trace_id", "threshold", "sequence",
}


def run(query, elapsed, **fields):
    """A run's fields as the finishing function and the HTTP layer offer them."""
    return {"query": query, "elapsed": elapsed, "engine": "planner", "plan": None, **fields}


class TestThreshold:
    def test_fast_queries_are_not_retained(self):
        log = SlowQueryLog(threshold=0.5)
        assert log.record(run("SELECT 1", 0.1), "http") is None
        assert log.entries() == []

    def test_slow_queries_are_retained_with_context(self):
        log = SlowQueryLog(threshold=0.5)
        entry = log.record(
            run("SELECT * WHERE { ?s ?p ?o }", 0.9, plan="Project\n  BGPScan"),
            "evaluator",
            trace_id="ab" * 16,
        )
        assert entry is not None
        assert entry["elapsed"] == 0.9
        assert entry["layer"] == "evaluator"
        assert entry["trace_id"] == "ab" * 16
        assert entry["threshold"] == 0.5
        assert entry["plan"].startswith("Project")

    def test_zero_threshold_captures_everything(self):
        log = SlowQueryLog(threshold=0.0)
        assert log.record(run("q", 0.0), "http") is not None

    def test_threshold_from_environment(self, monkeypatch):
        monkeypatch.setenv(SLOWLOG_ENV, "0.25")
        assert SlowQueryLog().threshold == 0.25

    def test_invalid_environment_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(SLOWLOG_ENV, "not-a-number")
        assert SlowQueryLog().threshold == 0.75


class TestRing:
    def test_capacity_keeps_newest_entries(self):
        log = SlowQueryLog(threshold=0.0, capacity=3)
        for index in range(6):
            log.record(run(f"q{index}", 1.0), "http")
        assert [entry["query"] for entry in log.entries()] == ["q3", "q4", "q5"]
        # Sequence numbers keep counting past evictions.
        assert [entry["sequence"] for entry in log.entries()] == [4, 5, 6]

    def test_as_dict_is_json_ready(self):
        log = SlowQueryLog(threshold=0.0, capacity=2)
        log.record(run("q", 1.5), "evaluator")
        payload = log.as_dict()
        json.dumps(payload)  # must not raise
        assert payload["threshold"] == 0.0
        assert payload["recorded"] == 1
        [entry] = payload["entries"]
        assert entry["query"] == "q"
        assert set(entry) == ENTRY_KEYS


def test_an_evaluator_run_offers_the_entry_shape(monkeypatch):
    """What the finishing function offers, not a hand-built dict: a run's
    operators, rows and endpoints stay in its event, out of the ring."""
    graph = Graph()
    graph.add(Triple(URIRef("http://x/s"), URIRef("http://x/p"), Literal("o")))
    monkeypatch.setattr(SLOW_LOG, "threshold", 0.0)
    SLOW_LOG.clear()
    try:
        QueryEvaluator(graph).select("SELECT ?s WHERE { ?s <http://x/p> ?o }")
        [entry] = SLOW_LOG.entries()
    finally:
        SLOW_LOG.clear()
    assert set(entry) == ENTRY_KEYS
    assert entry["layer"] == "evaluator"
    assert entry["engine"] == "planner"
    assert "Scan" in entry["plan"]

    def test_clear(self):
        log = SlowQueryLog(threshold=0.0)
        log.record(run("q", 1.0), "http")
        log.clear()
        assert log.entries() == []
