"""Distributed-trace propagation across the loopback federation stack.

The observability acceptance criterion: one federated query through a
real HTTP server — whose sub-queries travel over real sockets to further
HTTP servers — must produce ONE trace.  The outer server's request span
is the root; the planner, the synthesized per-operator execution spans,
each ``endpoint.call`` (with its retries as span events) and each
outbound HTTP client span nest under it; and because the ``traceparent``
header crosses the sockets, the *inner* servers' request spans join the
same trace as children of the client spans that called them.
"""

import time
import urllib.parse
import urllib.request

import pytest

from repro.datasets import build_resist_scenario
from repro.federation import (
    DatasetRegistry,
    ExecutionPolicy,
    HttpSparqlEndpoint,
    MediatorService,
    RegisteredDataset,
)
from repro.obs.trace import NOOP_SPAN, get_tracer, set_tracer
from repro.server import EndpointBackend, FederationBackend, SparqlHttpServer
from tests.tracing import RecordingTracer

QUERY = (
    "PREFIX akt:<http://www.aktors.org/ontology/portal#> "
    "SELECT DISTINCT ?paper WHERE { ?paper akt:has-author ?a }"
)


@pytest.fixture()
def scenario():
    return build_resist_scenario(n_persons=10, n_papers=20, seed=11)


@pytest.fixture()
def tracing():
    """Install a fresh enabled tracer for the test, restore the old one."""
    previous = set_tracer(RecordingTracer())
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)


@pytest.fixture()
def stack(scenario):
    """The full loopback deployment: inner dataset servers, an HTTP-client
    federation over them, and that federation published by an outer server."""
    inner_servers = []
    datasets = []
    for dataset in scenario.registry:
        server = SparqlHttpServer(EndpointBackend(dataset.endpoint)).start()
        inner_servers.append(server)
        datasets.append(
            RegisteredDataset(
                dataset.description,
                HttpSparqlEndpoint(dataset.uri, url=server.query_url, timeout=10),
            )
        )
    registry = DatasetRegistry(
        datasets,
        default_policy=ExecutionPolicy(max_retries=2, backoff=0.0),
    )
    service = MediatorService(
        scenario.alignment_store, registry, scenario.sameas_service
    )
    backend = FederationBackend(
        service,
        source_ontology=scenario.source_ontology,
        source_dataset=scenario.rkb_dataset,
        strategy="decompose",
    )
    outer = SparqlHttpServer(backend, cache_size=0).start()
    try:
        yield outer
    finally:
        outer.stop()
        for server in inner_servers:
            server.stop()


def _query(server, query=QUERY):
    url = server.query_url + "?" + urllib.parse.urlencode({"query": query})
    request = urllib.request.Request(
        url, headers={"Accept": "application/sparql-results+json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.read()


def _request_trace(tracer):
    """The spans of the (single) trace rooted at the outer request span.

    The outer request span finishes a moment *after* the client has read
    the response body (the handler closes the span once the bytes are
    out), so poll briefly for the root to be recorded.
    """
    deadline = time.time() + 5.0
    while True:
        spans = tracer.finished_spans()
        roots = [
            span for span in spans
            if span.name == "http.server.request" and span.parent_id is None
        ]
        if roots or time.time() > deadline:
            break
        time.sleep(0.01)
    assert len(roots) == 1, [span.name for span in spans]
    members = [span for span in spans if span.trace_id == roots[0].trace_id]
    return roots[0], members


class TestSharedTrace:
    def test_every_layer_joins_one_trace(self, stack, tracing):
        _query(stack)
        root, members = _request_trace(tracing)
        names = {span.name for span in members}
        # Planner, executor, federation and both HTTP sides are all present.
        assert "planner.decompose" in names
        assert "exec.query" in names
        assert "endpoint.call" in names
        assert "http.client.request" in names
        # Three datasets behind three inner servers joined via traceparent.
        inner = [
            span for span in members
            if span.name == "http.server.request" and span.parent_id is not None
        ]
        assert len(inner) >= 3
        # Nothing recorded for this request escaped into another trace.
        assert all(span.trace_id == root.trace_id for span in members)

    def test_parent_child_chain_crosses_the_socket(self, stack, tracing):
        _query(stack)
        root, members = _request_trace(tracing)
        by_id = {span.span_id: span for span in members}
        client_spans = [s for s in members if s.name == "http.client.request"]
        assert client_spans
        for client in client_spans:
            # Client spans hang directly under an endpoint.call, and the
            # ancestor chain (endpoint.call itself, or the planner.decompose
            # span when the call was a source-selection probe) reaches the
            # root request span.
            parent = by_id[client.parent_id]
            assert parent.name == "endpoint.call"
            ancestor = parent
            while ancestor.parent_id is not None:
                ancestor = by_id[ancestor.parent_id]
            assert ancestor.span_id == root.span_id
        # Each inner server's request span is the child of the exact client
        # span whose traceparent header it parsed.
        client_ids = {span.span_id for span in client_spans}
        inner = [
            span for span in members
            if span.name == "http.server.request" and span.parent_id is not None
        ]
        assert inner
        for span in inner:
            assert span.parent_id in client_ids

    def test_operator_spans_nest_under_the_request(self, stack, tracing):
        _query(stack)
        root, members = _request_trace(tracing)
        exec_roots = [
            span for span in members
            if span.name == "exec.query"
            and span.attributes.get("engine") == "decompose"
        ]
        assert len(exec_roots) == 1
        assert exec_roots[0].parent_id == root.span_id
        operators = [
            span for span in members
            if span.parent_id
            and span.attributes.get("layer") == "exec"
            and span.name != "exec.query"
        ]
        assert operators  # per-operator spans were synthesized
        assert {"federation.unit", "federation.canonicalise"} <= {
            span.name for span in members
        }


class TestRetryVisibility:
    def test_injected_failure_appears_as_retry_event(self, scenario, stack, tracing):
        # Make the first sub-request to one dataset fail: its inner server
        # answers 503 once, the federation client retries.
        for dataset in scenario.registry:
            dataset.endpoint.fail_next(1)
        _query(stack)
        root, members = _request_trace(tracing)
        retry_events = [
            event
            for span in members
            if span.name == "endpoint.call"
            for event in span.events
            if event["name"] == "retry"
        ]
        assert retry_events, "injected 503s produced no retry span events"
        for event in retry_events:
            assert event["attempt"] >= 1
            assert "error" in event


class TestDisabledMode:
    def test_disabled_tracing_records_zero_spans(self, stack):
        assert not get_tracer().enabled  # the default state the fixture left alone
        tracer = RecordingTracer(enabled=False)
        previous = set_tracer(tracer)
        try:
            _query(stack)
        finally:
            set_tracer(previous)
        assert tracer.finished_spans() == []
        # The disabled path hands out the shared singleton: no per-call
        # allocation in any hot path.
        assert tracer.start_span("anything", {"k": "v"}) is NOOP_SPAN
