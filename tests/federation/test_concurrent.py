"""Concurrent federated execution: equivalence, timeouts, retries, breakers.

These tests use a *private* scenario (not the shared session fixture)
because they mutate endpoint health — latency, injected failures, breaker
state — and must not leak that into other tests.
"""

import sys
import threading
import time

import pytest

from repro.datasets import build_resist_scenario
from repro.federation import (
    CircuitState,
    EndpointUnavailable,
    ExecutionPolicy,
    FederatedQueryEngine,
    LocalSparqlEndpoint,
)
from repro.rdf import URIRef
from repro.sparql import parse_query

from .workers import one_worker


@pytest.fixture()
def scenario():
    return build_resist_scenario(
        n_persons=12,
        n_papers=24,
        n_projects=3,
        n_organizations=3,
        rkb_coverage=0.7,
        kisti_coverage=0.6,
        dbpedia_coverage=0.5,
        seed=7,
    )


def _coauthor_query(scenario):
    person_uri = scenario.akt_person_uri(scenario.world.most_prolific_author())
    return f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author <{person_uri}> .
      ?paper akt:has-author ?a .
      FILTER (!(?a = <{person_uri}>))
    }}
    """


class TestConcurrentEquivalence:
    def test_parallel_matches_sequential(self, scenario):
        query = _coauthor_query(scenario)
        kwargs = dict(
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
        )
        with one_worker(scenario.service):
            sequential = scenario.service.federate(query, **kwargs)
        parallel = scenario.service.federate(query, **kwargs)
        assert parallel.merged_bindings == sequential.merged_bindings
        assert [e.dataset_uri for e in parallel.per_dataset] == \
            [e.dataset_uri for e in sequential.per_dataset]
        assert parallel.merged().to_table() == sequential.merged().to_table()

    def test_equivalence_under_shuffled_completion_order(self, scenario):
        """Slow first endpoint, fast last: completion order inverts, results don't."""
        query = _coauthor_query(scenario)
        kwargs = dict(
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
        )
        with one_worker(scenario.service):
            sequential = scenario.service.federate(query, **kwargs)
        latencies = [0.08, 0.04, 0.0]
        for dataset, latency in zip(scenario.registry, latencies, strict=False):
            dataset.endpoint.latency = latency
        try:
            parallel = scenario.service.federate(query, **kwargs)
        finally:
            for dataset in scenario.registry:
                dataset.endpoint.latency = 0.0
        assert parallel.merged_bindings == sequential.merged_bindings
        assert [e.dataset_uri for e in parallel.per_dataset] == \
            [e.dataset_uri for e in sequential.per_dataset]

    def test_parallel_is_faster_with_latency(self, scenario):
        query = _coauthor_query(scenario)
        kwargs = dict(
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
        )
        for dataset in scenario.registry:
            dataset.endpoint.latency = 0.05
        try:
            with one_worker(scenario.service):
                sequential = scenario.service.federate(query, **kwargs)
            parallel = scenario.service.federate(query, **kwargs)
        finally:
            for dataset in scenario.registry:
                dataset.endpoint.latency = 0.0
        assert parallel.elapsed < sequential.elapsed


class TestTimeout:
    def test_slow_endpoint_times_out_and_is_reported(self, scenario):
        slow = scenario.endpoint(scenario.dbpedia_dataset)
        slow.latency = 0.5
        scenario.registry.set_policy(
            scenario.dbpedia_dataset, ExecutionPolicy(timeout=0.05)
        )
        try:
            result = scenario.service.federate(
                _coauthor_query(scenario),
                source_ontology=scenario.source_ontology,
                source_dataset=scenario.rkb_dataset,
            )
        finally:
            slow.latency = 0.0
        assert scenario.dbpedia_dataset in result.failed_datasets()
        failed = next(e for e in result.per_dataset
                      if e.dataset_uri == scenario.dbpedia_dataset)
        assert "timed out" in failed.error
        assert len(result.successful_datasets()) == 2
        assert result.merged_bindings  # the healthy endpoints still contribute

    def test_a_late_answer_from_an_endpoint_ignoring_its_budget_is_a_timeout(self, scenario):
        dataset = scenario.registry.get(scenario.dbpedia_dataset)
        scenario.registry.register_endpoint(
            dataset.description, _LateEndpoint(dataset.endpoint, delay=0.2)
        )
        scenario.registry.set_policy(
            scenario.dbpedia_dataset, ExecutionPolicy(timeout=0.05)
        )
        result = scenario.service.federate(
            _coauthor_query(scenario),
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
        )
        failed = next(e for e in result.per_dataset
                      if e.dataset_uri == scenario.dbpedia_dataset)
        assert not failed.succeeded
        assert failed.error == (
            f"endpoint for {scenario.dbpedia_dataset} timed out after 0.05s"
        )
        assert len(result.successful_datasets()) == 2

    def test_an_attempt_within_its_budget_returns_its_answer_or_its_error(self, scenario):
        target = scenario.registry.get(scenario.kisti_dataset)
        query = parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1")
        assert len(FederatedQueryEngine._attempt(target, query, timeout=5.0)) == 1
        target.endpoint.fail_next(1)
        with pytest.raises(EndpointUnavailable, match="injected"):
            FederatedQueryEngine._attempt(target, query, timeout=5.0)


class _LateEndpoint(LocalSparqlEndpoint):
    """Ignores the call's ``timeout`` and answers after ``delay`` seconds."""

    def __init__(self, inner: LocalSparqlEndpoint, delay: float) -> None:
        super().__init__(inner.uri, inner.graph, name=inner.name)
        self.delay = delay

    def select(self, query, timeout=None):
        time.sleep(self.delay)
        return super().select(query)


class TestRetries:
    def test_flaky_endpoint_recovers_within_retry_budget(self, scenario):
        flaky = scenario.endpoint(scenario.kisti_dataset)
        flaky.fail_next(2)
        scenario.registry.set_policy(
            scenario.kisti_dataset,
            ExecutionPolicy(max_retries=3, backoff=0.0),
        )
        before = flaky.statistics.select_queries
        result = scenario.service.federate(
            _coauthor_query(scenario),
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
        )
        entry = next(e for e in result.per_dataset
                     if e.dataset_uri == scenario.kisti_dataset)
        assert entry.succeeded
        assert entry.attempts == 3
        assert flaky.statistics.select_queries - before == 3
        assert flaky.statistics.injected_failures == 2

    def test_retries_exhausted_reports_error(self, scenario):
        flaky = scenario.endpoint(scenario.kisti_dataset)
        flaky.fail_next(5)
        scenario.registry.set_policy(
            scenario.kisti_dataset,
            ExecutionPolicy(max_retries=1, backoff=0.0),
        )
        result = scenario.service.federate(
            _coauthor_query(scenario),
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
        )
        entry = next(e for e in result.per_dataset
                     if e.dataset_uri == scenario.kisti_dataset)
        assert not entry.succeeded
        assert entry.attempts == 2
        assert "flaked" in entry.error


class TestCircuitBreaker:
    def test_breaker_trips_and_short_circuits(self, scenario):
        dead = scenario.endpoint(scenario.dbpedia_dataset)
        dead.available = False
        scenario.registry.set_policy(
            scenario.dbpedia_dataset,
            ExecutionPolicy(failure_threshold=2, reset_timeout=60.0),
        )
        query = _coauthor_query(scenario)
        kwargs = dict(
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
        )
        scenario.service.federate(query, **kwargs)
        scenario.service.federate(query, **kwargs)
        assert scenario.registry.health()[scenario.dbpedia_dataset] == CircuitState.OPEN

        before = dead.statistics.select_queries
        result = scenario.service.federate(query, **kwargs)
        entry = next(e for e in result.per_dataset
                     if e.dataset_uri == scenario.dbpedia_dataset)
        assert not entry.succeeded
        assert "circuit open" in entry.error
        assert entry.attempts == 0
        # The endpoint was never touched while the breaker was open.
        assert dead.statistics.select_queries == before
        # The healthy datasets are unaffected.
        assert len(result.successful_datasets()) == 2

    def test_breaker_recovers_after_probe(self, scenario):
        dead = scenario.endpoint(scenario.dbpedia_dataset)
        dead.available = False
        scenario.registry.set_policy(
            scenario.dbpedia_dataset,
            ExecutionPolicy(failure_threshold=1, reset_timeout=0.0),
        )
        query = _coauthor_query(scenario)
        kwargs = dict(
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
        )
        scenario.service.federate(query, **kwargs)  # trips the breaker
        dead.available = True
        # reset_timeout=0 → next call is the half-open probe, which succeeds.
        result = scenario.service.federate(query, **kwargs)
        entry = next(e for e in result.per_dataset
                     if e.dataset_uri == scenario.dbpedia_dataset)
        assert entry.succeeded
        assert scenario.registry.health()[scenario.dbpedia_dataset] == CircuitState.CLOSED


class TestThreadSafetySmoke:
    def test_mediator_cache_hammered_from_many_threads(self, scenario):
        """Concurrent translate() calls: no exceptions, consistent counters."""
        mediator = scenario.service.mediator
        queries = [_coauthor_query(scenario) for _ in range(2)]
        targets = [scenario.kisti_dataset, scenario.dbpedia_dataset]
        errors = []
        barrier = threading.Barrier(8)

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                for round_index in range(25):
                    target = targets[(index + round_index) % len(targets)]
                    result = mediator.translate(
                        queries[round_index % len(queries)],
                        target,
                        scenario.source_ontology,
                        mode="bgp",
                    )
                    assert result.rewritten_query is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        info = mediator.cache_info()
        assert info["hits"] + info["misses"] >= 8 * 25

    @pytest.mark.parametrize("strategy", ["fanout", "decompose"])
    def test_one_worker_pool_serves_concurrent_queries(self, scenario, strategy):
        """Eight request threads share a two-worker pool: every answer is
        the sequential one, one pool object serves them all, and closing
        the engine leaves no worker behind."""
        engine = scenario.service.federation
        engine.max_workers = 2
        query = _coauthor_query(scenario)
        kwargs = dict(
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
            strategy=strategy,
        )
        with one_worker(scenario.service):
            expected = scenario.service.federate(query, **kwargs).merged_bindings
        assert expected
        pools, mismatches, errors = set(), [], []
        barrier = threading.Barrier(8)
        before = set(threading.enumerate())

        def worker() -> None:
            try:
                barrier.wait(timeout=10)
                for _ in range(6):
                    got = scenario.service.federate(query, **kwargs)
                    if got.merged_bindings != expected or got.failed_datasets():
                        mismatches.append(got)
                    pools.add(id(engine.worker_pool()))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not mismatches
        assert len(pools) == 1
        workers = [
            thread for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("federate")
        ]
        # (Decomposed units with a single source never leave the caller.)
        assert len(workers) <= 2 and (workers or strategy == "decompose")
        engine.close()
        assert not any(thread.is_alive() for thread in workers)

    def test_sameas_service_concurrent_lookups_and_mutations(self, scenario):
        service = scenario.sameas_service
        pattern = r"http://southampton\.rkbexplorer\.com/id/\S*"
        uris = [scenario.akt_person_uri(p.key) for p in scenario.world.persons]
        errors = []

        def reader() -> None:
            try:
                for _ in range(20):
                    for uri in uris:
                        service.lookup(uri, pattern)
                        service.equivalence_class(uri)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer() -> None:
            try:
                for index in range(50):
                    service.add_equivalence(
                        URIRef(f"http://ex.org/new-{index}"),
                        URIRef(f"http://ex.org/new-{index}-alias"),
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
