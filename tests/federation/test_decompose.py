"""Unit tests for the federated query decomposer.

Covers source selection (vocabulary, class partitions, ASK probes and
their failure modes), exclusive grouping, the zero-source early exit, the
fan-out fallback for unsupported shapes, and bound-join batching across a
LIMIT boundary.
"""

import time


from repro.alignment import AlignmentStore
from repro.coreference import SameAsService
from repro.federation import (
    DatasetDescription,
    DatasetRegistry,
    ExecutionPolicy,
    LocalSparqlEndpoint,
    MediatorService,
)
from repro.rdf import Graph, RDF, Triple, URIRef

EX = "http://ex.org/"
ONTOLOGY = URIRef(EX + "ontology")


def build_federation(datasets, **service_kwargs):
    """``datasets`` maps a short name to a list of triples."""
    registry = DatasetRegistry()
    for name, triples in datasets.items():
        graph = Graph()
        graph.add_all(triples)
        uri = URIRef(f"{EX}{name}")
        registry.register_endpoint(
            DatasetDescription(
                uri=uri,
                endpoint_uri=URIRef(f"{EX}{name}/sparql"),
                ontologies=(ONTOLOGY,),
            ),
            LocalSparqlEndpoint(URIRef(f"{EX}{name}/sparql"), graph, name=name),
        )
    return MediatorService(AlignmentStore(), registry, SameAsService(), **service_kwargs)


def triple(s, p, o):
    return Triple(URIRef(EX + s), URIRef(EX + p), URIRef(EX + o))


class _OpaqueEndpoint:
    """Endpoint wrapper that hides the graph (forces probes) and can delay ASK."""

    def __init__(self, inner, ask_delay=0.0):
        self._inner = inner
        self.ask_delay = ask_delay
        self.uri = inner.uri
        self.name = inner.name
        self.statistics = inner.statistics

    def select(self, query):
        return self._inner.select(query)

    def ask(self, query, timeout=None):
        if self.ask_delay:
            time.sleep(self.ask_delay)
        return self._inner.ask(query, timeout=timeout)

    def construct(self, query):  # pragma: no cover - not exercised
        return self._inner.construct(query)


def _opaque(service, dataset_name, ask_delay=0.0):
    """Re-register one dataset behind an opaque (graph-less) endpoint."""
    uri = URIRef(f"{EX}{dataset_name}")
    registry = service.registry
    dataset = registry.get(uri)
    registry.register_endpoint(
        dataset.description, _OpaqueEndpoint(dataset.endpoint, ask_delay)
    )
    return registry.get(uri)


class TestSourceSelection:
    def test_vocabulary_excludes_datasets_without_predicate(self):
        service = build_federation({
            "a": [triple("s1", "p", "o1")],
            "b": [triple("s2", "q", "o2")],
        })
        plan = service.federation.decompose_plan(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
        )
        [sources] = plan.pattern_sources
        assert [str(u) for u in sources.relevant_uris()] == [f"{EX}a"]
        assert plan.skipped == {URIRef(f"{EX}b"): "no relevant pattern"}

    def test_class_partition_excludes_wrong_class(self):
        service = build_federation({
            "a": [Triple(URIRef(EX + "s1"), RDF.type, URIRef(EX + "Person"))],
            "b": [Triple(URIRef(EX + "s2"), RDF.type, URIRef(EX + "Paper"))],
        })
        plan = service.federation.decompose_plan(
            f"SELECT ?s WHERE {{ ?s a <{EX}Person> }}"
        )
        [sources] = plan.pattern_sources
        assert [str(u) for u in sources.relevant_uris()] == [f"{EX}a"]

    def test_zero_source_pattern_contacts_no_endpoint(self):
        service = build_federation({
            "a": [triple("s1", "p", "o1")],
            "b": [triple("s2", "p", "o2")],
        })
        before = {
            str(d.uri): d.endpoint.statistics.total_queries
            for d in service.registry
        }
        outcome = service.federate(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}nosuch> ?o }}", strategy="decompose"
        )
        assert len(outcome.merged()) == 0
        assert outcome.total_requests == 0
        assert outcome.decomposition.empty_reason is not None
        after = {
            str(d.uri): d.endpoint.statistics.total_queries
            for d in service.registry
        }
        assert after == before

    def test_open_breaker_excludes_dataset(self):
        service = build_federation({
            "a": [triple("s1", "p", "o1")],
            "b": [triple("s2", "p", "o2")],
        })
        uri = URIRef(f"{EX}b")
        service.registry.set_policy(uri, ExecutionPolicy(failure_threshold=1,
                                                         reset_timeout=60.0))
        breaker = service.registry.breaker_for(uri)
        breaker.record_failure()
        assert breaker.state == "open"
        plan = service.federation.decompose_plan(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
        )
        assert plan.skipped[uri] == "circuit open"
        outcome = service.federate(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}", strategy="decompose"
        )
        assert {str(b.get_term("s")) for b in outcome.merged()} == {f"{EX}s1"}
        # A breaker-skipped dataset is an outage, reported exactly as the
        # fan-out strategy would report it — not a quiet success.
        assert uri in outcome.failed_datasets()
        skipped_entry = next(e for e in outcome.per_dataset if e.dataset_uri == uri)
        assert "circuit open" in skipped_entry.error

    def test_probe_settles_unadvertised_vocabulary(self):
        service = build_federation({
            "a": [triple("s1", "p", "o1")],
            "b": [triple("s2", "q", "o2")],
        })
        _opaque(service, "b")
        plan = service.federation.decompose_plan(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
        )
        assert plan.probes == 1
        [sources] = plan.pattern_sources
        decision = sources.decision_for(URIRef(f"{EX}b"))
        assert not decision.relevant
        assert "ask-probe" in decision.reason

    def test_probe_timeout_falls_back_to_broadcast(self):
        service = build_federation({
            "a": [triple("s1", "p", "o1")],
            "b": [triple("s2", "p", "o2")],
        })
        _opaque(service, "b", ask_delay=0.3)
        engine = service.federation
        engine.probe_timeout = 0.05
        uri = URIRef(f"{EX}b")
        query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
        plan = engine.decompose_plan(query)
        [sources] = plan.pattern_sources
        decision = sources.decision_for(uri)
        assert decision.relevant
        assert "broadcast" in decision.reason
        # The failed probe is visible to the breaker (breaker-aware probing).
        assert engine.registry.breaker_for(uri).consecutive_failures == 1
        # The endpoint is still queried normally, so no answers are lost
        # (and the successful SELECT settles the breaker again).
        outcome = service.federate(query, strategy="decompose")
        assert {str(b.get_term("s")) for b in outcome.merged()} == \
            {f"{EX}s1", f"{EX}s2"}
        assert engine.registry.breaker_for(uri).consecutive_failures == 0

    def test_probes_disabled_broadcasts(self):
        service = build_federation({
            "a": [triple("s1", "p", "o1")],
            "b": [triple("s2", "q", "o2")],
        })
        service.federation.ask_probes = False
        _opaque(service, "b")
        plan = service.federation.decompose_plan(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
        )
        assert plan.probes == 0
        [sources] = plan.pattern_sources
        decision = sources.decision_for(URIRef(f"{EX}b"))
        assert decision.relevant
        assert "broadcast" in decision.reason

    def test_explain_probes_not_billed_to_next_execution(self):
        service = build_federation({
            "a": [triple("s1", "p", "o1")],
            "b": [triple("s2", "q", "o2")],
        })
        _opaque(service, "a")
        _opaque(service, "b")
        engine = service.federation
        query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
        plan = engine.decompose_plan(query)  # probes happen here
        assert plan.probes == 2
        outcome = service.federate(query, strategy="decompose")
        # Decisions are cached, so the execution issues only its own
        # sub-query request; the explain-time probes are not re-billed.
        assert outcome.total_requests == 1

    def test_reenabling_probes_invalidates_broadcast_decisions(self):
        service = build_federation({
            "a": [triple("s1", "p", "o1")],
            "b": [triple("s2", "q", "o2")],
        })
        _opaque(service, "b")
        engine = service.federation
        query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
        engine.ask_probes = False
        broadcast = engine.decompose_plan(query)
        [sources] = broadcast.pattern_sources
        assert sources.decision_for(URIRef(f"{EX}b")).relevant
        engine.ask_probes = True
        probed = engine.decompose_plan(query)
        assert probed.probes == 1
        [sources] = probed.pattern_sources
        assert not sources.decision_for(URIRef(f"{EX}b")).relevant

    def test_decisions_cached_until_kb_generation_changes(self):
        service = build_federation({
            "a": [triple("s1", "p", "o1")],
            "b": [triple("s2", "q", "o2")],
        })
        _opaque(service, "b")
        engine = service.federation
        query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
        first = engine.decompose_plan(query)
        again = engine.decompose_plan(query)
        assert first.probes == 1
        assert again.probes == 0  # cache hit
        # Any alignment-KB mutation bumps the generation and must drop the
        # cached decisions (the translations they were based on changed).
        from repro.alignment import OntologyAlignment

        service.alignment_store.add(OntologyAlignment(
            [URIRef(EX + "other")], target_ontologies=[URIRef(EX + "target")]
        ))
        refreshed = engine.decompose_plan(query)
        assert refreshed.probes == 1  # generation change invalidated the cache


class TestDecomposition:
    def test_exclusive_group_ships_as_one_sub_query(self):
        service = build_federation({
            "a": [triple("s1", "p1", "m1"), triple("m1", "p2", "o1")],
            "b": [triple("s9", "q", "o9")],
        })
        plan = service.federation.decompose_plan(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p1> ?m . ?m <{EX}p2> ?o }}"
        )
        assert len(plan.units) == 1
        [unit] = plan.units
        assert "unit 1 [exclusive group; seed scan;" in plan.explain()
        assert len(unit.patterns) == 2
        assert [str(u) for u in unit.sources] == [f"{EX}a"]
        outcome = service.federate(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p1> ?m . ?m <{EX}p2> ?o }}",
            strategy="decompose",
        )
        # One request evaluates the whole group remotely.
        assert outcome.total_requests == 1
        assert {str(b.get_term("o")) for b in outcome.merged()} == {f"{EX}o1"}

    def test_fallback_for_optional(self):
        service = build_federation({"a": [triple("s1", "p", "o1")]})
        query = (
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o "
            f"OPTIONAL {{ ?s <{EX}q> ?x }} }}"
        )
        plan = service.federation.decompose_plan(query)
        assert not plan.decomposed
        assert "unsupported pattern element" in plan.fallback_reason
        outcome = service.federate(query, strategy="decompose")
        assert outcome.strategy == "decompose"
        assert outcome.decomposition is plan or outcome.decomposition.fallback_reason
        assert len(outcome.merged()) == 1

    def test_fallback_for_ask_query(self):
        service = build_federation({"a": [triple("s1", "p", "o1")]})
        plan = service.federation.decompose_plan(f"ASK {{ ?s <{EX}p> ?o }}")
        assert not plan.decomposed

    def test_explain_lists_sub_queries_per_dataset(self):
        service = build_federation({
            "a": [triple("s1", "p", "o1")],
            "b": [triple("s2", "q", "o2")],
        })
        per_dataset = service.explain(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?v }}",
            strategy="decompose",
        )
        assert "unit" in per_dataset[f"{EX}a"]
        assert "unit" in per_dataset[f"{EX}b"]
        plan = service.federation.decompose_plan(
            f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?v }}"
        )
        rendered = plan.explain()
        assert "bound join on (?s)" in rendered
        assert "VALUES" in rendered


class TestBoundJoin:
    def _service(self, rows=40):
        left = [triple(f"s{i}", "rare", f"w{i}") for i in range(rows)]
        right = [triple(f"s{i}", "common", f"v{i}") for i in range(rows)]
        return build_federation({"left": left, "right": right})

    def test_bound_join_equals_fanout_union_semantics(self):
        service = self._service(rows=10)
        query = f"SELECT ?s ?w ?v WHERE {{ ?s <{EX}rare> ?w . ?s <{EX}common> ?v }}"
        fanout = service.federate(query)
        decomposed = service.federate(query, strategy="decompose")
        # Split across endpoints: fan-out finds nothing per dataset, and the
        # decomposer's cross-endpoint join must respect the dataset-local
        # URI spaces of the scenarios...  here subjects ARE shared, so the
        # decomposed join finds the rows fan-out provably cannot.  This is
        # the capability gap, asserted explicitly so nobody mistakes the
        # differential guarantee for a universal one.
        assert len(fanout.merged()) == 0
        assert len(decomposed.merged()) == 10

    def test_limit_stops_bound_join_batches_early(self):
        service = self._service(rows=40)
        engine = service.federation
        engine.bind_join_batch = 5
        query = (
            f"SELECT ?s ?w ?v WHERE {{ ?s <{EX}rare> ?w . ?s <{EX}common> ?v }} "
            f"LIMIT 13"
        )
        outcome = service.federate(query, strategy="decompose")
        assert len(outcome.merged()) == 13
        # Early termination: 3 batches of 5 cover LIMIT 13 (the third batch
        # straddles the boundary); a full run would need 8 batches.  Unit 1
        # costs one request per source; every batch costs one request per
        # bound-join source.
        requests = outcome.total_requests
        assert requests <= 2 + 3 * 2
        full = service.federate(
            f"SELECT ?s ?w ?v WHERE {{ ?s <{EX}rare> ?w . ?s <{EX}common> ?v }}",
            strategy="decompose",
        )
        assert full.total_requests > requests
        assert len(full.merged()) == 40

    def test_batch_size_one_still_correct(self):
        service = self._service(rows=7)
        engine = service.federation
        engine.bind_join_batch = 1
        query = f"SELECT ?s ?w ?v WHERE {{ ?s <{EX}rare> ?w . ?s <{EX}common> ?v }}"
        outcome = service.federate(query, strategy="decompose")
        assert len(outcome.merged()) == 7
