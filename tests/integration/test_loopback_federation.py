"""Loopback federation: the E6/E7 scenarios through real sockets.

The acceptance criterion of the network subsystem: serving every scenario
dataset over its own 127.0.0.1 SPARQL Protocol server and federating
through :class:`HttpSparqlEndpoint` clients must produce results
*byte-identical* to the in-process :class:`LocalSparqlEndpoint` path, and
endpoint failures must drive the client-side resilience machinery
(retries, circuit breakers) exactly as they do locally.
"""

import socket
import statistics
import time

import pytest

from repro.datasets import build_resist_scenario
from repro.federation import (
    DEFAULT_BIND_JOIN_BATCH,
    DatasetRegistry,
    ExecutionPolicy,
    HttpSparqlEndpoint,
    MediatorService,
    RegisteredDataset,
)
from repro.server import EndpointBackend, SparqlHttpServer
from repro.sparql import write_results


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


@pytest.fixture()
def loopback(scenario):
    """The same federation, with every dataset behind a real HTTP server."""
    servers = []
    datasets = []
    for dataset in scenario.registry:
        server = SparqlHttpServer(EndpointBackend(dataset.endpoint)).start()
        servers.append(server)
        datasets.append(
            RegisteredDataset(
                dataset.description,
                HttpSparqlEndpoint(dataset.uri, url=server.query_url, timeout=10),
            )
        )
    registry = DatasetRegistry(datasets)
    service = MediatorService(scenario.alignment_store, registry, scenario.sameas_service)
    try:
        yield registry, service
    finally:
        for dataset in datasets:
            dataset.endpoint.close()
        for server in servers:
            server.stop()


def _coauthor_query(scenario, person_key):
    person_uri = scenario.akt_person_uri(person_key)
    return f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author <{person_uri}> .
      ?paper akt:has-author ?a .
      FILTER (!(?a = <{person_uri}>))
    }}
    """


def _subjects(scenario, count=3):
    by_papers = sorted(
        scenario.world.persons,
        key=lambda person: -len(scenario.world.papers_of(person.key)),
    )
    return [person.key for person in by_papers[:count]]


def _federate(scenario, service, query):
    return service.federate(
        query,
        source_ontology=scenario.source_ontology,
        source_dataset=scenario.rkb_dataset,
        mode="filter-aware",
    )


class TestE6LoopbackEquivalence:
    def test_merged_results_are_byte_identical(self, scenario, loopback):
        _, http_service = loopback
        for person_key in _subjects(scenario):
            query = _coauthor_query(scenario, person_key)
            in_process = _federate(scenario, scenario.service, query)
            over_http = _federate(scenario, http_service, query)

            assert over_http.merged_bindings == in_process.merged_bindings
            # Byte-identical in every wire format, not just structurally equal.
            for format_name in ("json", "xml", "csv", "tsv"):
                assert write_results(over_http.merged(), format_name) == \
                    write_results(in_process.merged(), format_name)
            assert over_http.merged().to_table() == in_process.merged().to_table()

    def test_per_dataset_outcomes_match(self, scenario, loopback):
        _, http_service = loopback
        query = _coauthor_query(scenario, _subjects(scenario)[0])
        in_process = _federate(scenario, scenario.service, query)
        over_http = _federate(scenario, http_service, query)
        assert [entry.dataset_uri for entry in over_http.per_dataset] == \
            [entry.dataset_uri for entry in in_process.per_dataset]
        assert [entry.row_count for entry in over_http.per_dataset] == \
            [entry.row_count for entry in in_process.per_dataset]
        assert over_http.successful_datasets() == in_process.successful_datasets()


class TestDecomposeLoopbackEquivalence:
    """``--strategy decompose`` over real sockets ≡ fan-out, E6/E7 scenarios.

    The HTTP endpoints expose no graph, so source selection either consults
    the advertised VoID partitions (when the descriptions carry them) or
    falls back to ASK probes over the wire; bound-join batches travel as
    ``VALUES`` blocks and are re-parsed by the servers.
    """

    def _multiset(self, outcome):
        return sorted(
            tuple((k, str(v)) for k, v in sorted(b.as_dict().items()))
            for b in outcome.merged_bindings
        )

    @pytest.mark.parametrize("batch", [1, 32, DEFAULT_BIND_JOIN_BATCH])
    def test_decomposed_over_http_matches_in_process_fanout(self, scenario, loopback, batch):
        _, http_service = loopback
        http_service.federation.bind_join_batch = batch
        for person_key in _subjects(scenario):
            query = _coauthor_query(scenario, person_key)
            in_process = _federate(scenario, scenario.service, query)
            over_http = http_service.federate(
                query,
                source_ontology=scenario.source_ontology,
                source_dataset=scenario.rkb_dataset,
                mode="filter-aware",
                strategy="decompose",
            )
            assert self._multiset(over_http) == self._multiset(in_process)

    def test_probes_travel_over_the_wire(self, scenario, loopback):
        http_registry, http_service = loopback
        # The loopback descriptions advertise no partitions, so the KISTI
        # translation of the AKT pattern needs an ASK probe per dataset.
        plan = http_service.federation.decompose_plan(
            _coauthor_query(scenario, _subjects(scenario)[0]),
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
        )
        assert plan.probes > 0
        probed = [
            dataset for dataset in http_registry
            if dataset.endpoint.statistics.ask_queries > 0
        ]
        assert probed

    def test_advertised_void_partitions_avoid_probes(self, scenario):
        """Publishing the statistics makes remote selection probe-free."""
        scenario.registry.refresh_statistics()
        servers, datasets = [], []
        for dataset in scenario.registry:
            server = SparqlHttpServer(EndpointBackend(dataset.endpoint)).start()
            servers.append(server)
            datasets.append(
                RegisteredDataset(
                    dataset.description,  # now carries the partitions
                    HttpSparqlEndpoint(dataset.uri, url=server.query_url, timeout=10),
                )
            )
        try:
            registry = DatasetRegistry(datasets)
            service = MediatorService(
                scenario.alignment_store, registry, scenario.sameas_service
            )
            query = _coauthor_query(scenario, _subjects(scenario)[0])
            plan = service.federation.decompose_plan(
                query,
                source_ontology=scenario.source_ontology,
                source_dataset=scenario.rkb_dataset,
                mode="filter-aware",
            )
            assert plan.probes == 0
            over_http = service.federate(
                query,
                source_ontology=scenario.source_ontology,
                source_dataset=scenario.rkb_dataset,
                mode="filter-aware",
                strategy="decompose",
            )
            in_process = _federate(scenario, scenario.service, query)
            assert self._multiset(over_http) == self._multiset(in_process)
        finally:
            for dataset in datasets:
                dataset.endpoint.close()
            for server in servers:
                server.stop()


@pytest.mark.skipif(
    not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK: every request closes"
)
class TestKeptAliveSubRequests:
    """Sub-requests reuse one socket and do not wait for a delayed ACK.

    The server writes headers and body in two sends, so on a kept-alive
    connection the body waits (Nagle) for the client to ack the headers.
    Unless the client acks at once, that is a ~40 ms delayed ACK per
    sub-request.
    """

    def test_sequential_selects_reuse_one_socket_without_the_ack_stall(self, loopback):
        registry, _ = loopback
        endpoint = next(iter(registry)).endpoint
        sockets, elapsed = set(), []
        for _ in range(30):
            started = time.perf_counter()
            endpoint.select("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5")
            elapsed.append(time.perf_counter() - started)
            [connection] = endpoint._idle
            sockets.add(connection.sock.getsockname())
        assert len(sockets) == 1
        assert statistics.median(elapsed) < 0.020


class TestE7LoopbackResilience:
    def test_partial_failure_merges_identically(self, scenario, loopback):
        """A dataset failing over HTTP degrades exactly like a local failure."""
        _, http_service = loopback
        query = _coauthor_query(scenario, _subjects(scenario)[0])

        # Local run with KISTI flaking once (the endpoint is shared with
        # the HTTP servers, so injections must be consumed run by run).
        scenario.endpoint(scenario.kisti_dataset).fail_next(1)
        in_process = _federate(scenario, scenario.service, query)
        assert scenario.kisti_dataset in in_process.failed_datasets()

        scenario.endpoint(scenario.kisti_dataset).fail_next(1)
        over_http = _federate(scenario, http_service, query)
        assert over_http.failed_datasets() == in_process.failed_datasets()
        assert over_http.merged_bindings == in_process.merged_bindings
        assert write_results(over_http.merged(), "json") == \
            write_results(in_process.merged(), "json")

    def test_remote_retries_recover_like_local_ones(self, scenario, loopback):
        http_registry, http_service = loopback
        recovering = ExecutionPolicy(max_retries=2, backoff=0.0)
        scenario.registry.default_policy = recovering
        http_registry.default_policy = recovering
        query = _coauthor_query(scenario, _subjects(scenario)[0])

        scenario.endpoint(scenario.kisti_dataset).fail_next(2)
        in_process = _federate(scenario, scenario.service, query)
        assert in_process.failed_datasets() == []

        scenario.endpoint(scenario.kisti_dataset).fail_next(2)
        over_http = _federate(scenario, http_service, query)
        assert over_http.failed_datasets() == []
        assert over_http.merged_bindings == in_process.merged_bindings
        kisti_attempts = {
            entry.dataset_uri: entry.attempts for entry in over_http.per_dataset
        }[scenario.kisti_dataset]
        assert kisti_attempts == 3  # two failures + the recovering attempt

    def test_injected_failure_trips_the_breaker_remotely_as_locally(
        self, scenario, loopback
    ):
        http_registry, http_service = loopback
        strict = ExecutionPolicy(max_retries=0, failure_threshold=1)
        scenario.registry.default_policy = strict
        scenario.registry.reset_breakers()
        http_registry.default_policy = strict
        http_registry.reset_breakers()
        query = _coauthor_query(scenario, _subjects(scenario)[0])

        scenario.endpoint(scenario.kisti_dataset).fail_next(1)
        _federate(scenario, scenario.service, query)
        local_states = {
            str(uri): str(state) for uri, state in scenario.registry.health().items()
        }
        assert local_states[str(scenario.kisti_dataset)] == "open"

        scenario.endpoint(scenario.kisti_dataset).fail_next(1)
        _federate(scenario, http_service, query)
        remote_states = {
            str(uri): str(state) for uri, state in http_registry.health().items()
        }
        assert remote_states == local_states

        # While open, the remote breaker refuses without touching the wire.
        remote_kisti = http_registry.get(scenario.kisti_dataset).endpoint
        sent_before = remote_kisti.statistics.select_queries
        outcome = _federate(scenario, http_service, query)
        assert scenario.kisti_dataset in outcome.failed_datasets()
        assert remote_kisti.statistics.select_queries == sent_before
