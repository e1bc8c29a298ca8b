"""One run record: a federated run ends in the same finishing function as a
local one, and builds its event only when something reads it."""

from __future__ import annotations

import json

import pytest

from repro.alignment import AlignmentStore
from repro.coreference import SameAsService
from repro.federation import (
    DatasetDescription,
    DatasetRegistry,
    LocalSparqlEndpoint,
    MediatorService,
)
from repro.obs import RUN_EVENTS_ENV, SINK, SLOW_LOG, Tracer
from repro.obs.trace import set_tracer
from repro.rdf import Graph, Triple, URIRef
from repro.sparql import exec as executor

EX = "http://ex.org/"

JOIN_QUERY = (
    "PREFIX ex: <http://ex.org/>\n"
    "SELECT ?s ?m ?o WHERE { ?s ex:p ?m . ?m ex:q ?o }"
)


@pytest.fixture()
def service():
    """Two datasets joined on ?m: the decompose strategy bound-joins them."""
    left, right = Graph(), Graph()
    for i in range(6):
        left.add(Triple(URIRef(f"{EX}s{i}"), URIRef(EX + "p"), URIRef(f"{EX}m{i}")))
        right.add(Triple(URIRef(f"{EX}m{i}"), URIRef(EX + "q"), URIRef(f"{EX}o{i}")))
    registry = DatasetRegistry()
    for index, graph in enumerate((left, right)):
        uri = URIRef(f"{EX}dataset-{index}")
        registry.register_endpoint(
            DatasetDescription(uri=uri, endpoint_uri=uri, ontologies=(URIRef(EX + "o"),)),
            LocalSparqlEndpoint(uri, graph),
        )
    return MediatorService(AlignmentStore(), registry, SameAsService(), strategy="decompose")


@pytest.fixture()
def quiet(monkeypatch):
    """No reader: no sink, tracing off, a slow log nothing reaches."""
    monkeypatch.delenv(RUN_EVENTS_ENV, raising=False)
    SINK.refresh()
    previous = set_tracer(Tracer(enabled=False))
    monkeypatch.setattr(SLOW_LOG, "threshold", float("inf"))
    yield
    set_tracer(previous)
    monkeypatch.undo()  # the environment first, so the sink re-reads it
    SINK.refresh()


@pytest.fixture()
def builds(monkeypatch):
    """Every call to the one event builder, counted."""
    calls = []
    build = executor.build_run_event

    def counting(plan, query, elapsed):
        calls.append(plan.engine)
        return build(plan, query, elapsed)

    monkeypatch.setattr(executor, "build_run_event", counting)
    return calls


def test_a_plain_federated_query_builds_no_event(service, quiet, builds):
    outcome = service.federate(JOIN_QUERY)
    assert len(outcome.merged()) == 6
    assert builds == []


def test_analyze_builds_one_event_through_the_same_builder(service, quiet, builds):
    _, event = service.analyze(JOIN_QUERY)
    assert builds == ["decompose"]
    assert event.query == JOIN_QUERY


def test_run_events_file_gets_one_federated_event(service, quiet, tmp_path, monkeypatch):
    target = tmp_path / "events.jsonl"
    monkeypatch.setenv(RUN_EVENTS_ENV, str(target))
    SINK.refresh()
    outcome = service.federate(JOIN_QUERY)
    events = [json.loads(line) for line in target.read_text().splitlines()]
    # The endpoints' own runs are local events (no endpoints); the mediator's
    # run is the one record of the federated query.
    [federated] = [event for event in events if event["endpoints"]]
    assert federated["engine"] == "decompose"
    assert federated["rows"] == 6
    assert federated["rows_shipped"] == outcome.total_rows
    assert [entry["dataset"] for entry in federated["endpoints"]] == [
        f"{EX}dataset-0", f"{EX}dataset-1",
    ]
    assert "BindJoin" in federated["plan"]


def test_a_slow_federated_run_lands_in_the_slow_log_with_its_plan(service, quiet, monkeypatch):
    monkeypatch.setattr(SLOW_LOG, "threshold", 0.0)
    SLOW_LOG.clear()
    try:
        service.federate(JOIN_QUERY)
        [entry] = [entry for entry in SLOW_LOG.entries() if entry["layer"] == "federation"]
    finally:
        SLOW_LOG.clear()
    assert entry["engine"] == "decompose"
    assert entry["query"] == JOIN_QUERY
    assert entry["threshold"] == 0.0
    assert "Unit" in entry["plan"] and "BindJoin" in entry["plan"]
    # Each unit's line names its source; the counters stay in the event.
    assert f"{EX}dataset-0" in entry["plan"] and f"{EX}dataset-1" in entry["plan"]
    assert "endpoints" not in entry and "operators" not in entry
