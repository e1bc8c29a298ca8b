"""Dataset registry: voiD descriptions plus live endpoints.

The registry is the runtime companion of the voiD KB: for every registered
dataset it stores the :class:`DatasetDescription` *and* the endpoint object
that actually answers queries (a :class:`LocalSparqlEndpoint` in this
reproduction, an HTTP client in the original system).

It also owns the *health* side of federation: a per-dataset
:class:`ExecutionPolicy` (timeout/retry budget) and a per-dataset
:class:`CircuitBreaker` tracking consecutive endpoint failures, so every
federated engine sharing the registry sees the same endpoint health state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator

from ..rdf import Graph, GraphView, URIRef
from .endpoint import EndpointStatistics, LocalSparqlEndpoint, SparqlEndpoint
from .policy import CircuitBreaker, ExecutionPolicy
from .void import DatasetDescription, descriptions_from_graph, descriptions_to_graph

__all__ = ["RegisteredDataset", "DatasetRegistry", "EndpointHealth"]


class EndpointHealth(str):
    """One dataset's health: breaker state plus endpoint statistics.

    Subclasses ``str`` (the breaker state: ``closed``/``open``/
    ``half-open``) so every existing ``health()[uri] == "closed"``
    comparison keeps working, while ``/metrics`` and the federated CLI can
    read query/failure counts off the same object.
    """

    state: str
    consecutive_failures: int
    statistics: EndpointStatistics | None

    def __new__(
        cls,
        state: str,
        consecutive_failures: int = 0,
        statistics: EndpointStatistics | None = None,
    ) -> EndpointHealth:
        self = super().__new__(cls, state)
        self.state = str(state)
        self.consecutive_failures = consecutive_failures
        self.statistics = statistics
        return self

    def as_dict(self) -> dict:
        """JSON-ready payload (what ``/health`` serves per dataset)."""
        payload: dict = {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
        }
        if self.statistics is not None:
            payload["statistics"] = self.statistics.as_dict()
        return payload


@dataclass(frozen=True)
class RegisteredDataset:
    """A dataset known to the mediator: description + endpoint."""

    description: DatasetDescription
    endpoint: SparqlEndpoint

    @property
    def uri(self) -> URIRef:
        return self.description.uri

    @property
    def ontologies(self):
        return self.description.ontologies

    @property
    def uri_pattern(self) -> str | None:
        return self.description.uri_pattern

    def local_graph(self) -> GraphView | None:
        """A read-only view of the data when the endpoint runs in process
        (a :class:`LocalSparqlEndpoint`), ``None`` for a remote one."""
        endpoint = self.endpoint
        return endpoint.graph if isinstance(endpoint, LocalSparqlEndpoint) else None


class DatasetRegistry:
    """URI-keyed registry of datasets available for federation.

    ``default_policy`` governs endpoints without an explicit per-dataset
    policy; circuit breakers are created lazily from the effective policy's
    ``failure_threshold`` / ``reset_timeout``.
    """

    def __init__(
        self,
        datasets: Iterable[RegisteredDataset] = (),
        default_policy: ExecutionPolicy | None = None,
    ) -> None:
        self._datasets: dict[URIRef, RegisteredDataset] = {}
        self.default_policy = default_policy or ExecutionPolicy()
        self._policies: dict[URIRef, ExecutionPolicy] = {}
        self._breakers: dict[URIRef, CircuitBreaker] = {}
        self._lock = threading.RLock()
        for dataset in datasets:
            self.register(dataset)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, dataset: RegisteredDataset) -> DatasetRegistry:
        """Add (or replace) a dataset."""
        with self._lock:
            self._datasets[dataset.uri] = dataset
            # A replaced dataset may point at a different endpoint, so its
            # recorded health is no longer meaningful.
            self._breakers.pop(dataset.uri, None)
        return self

    def register_endpoint(
        self, description: DatasetDescription, endpoint: SparqlEndpoint
    ) -> RegisteredDataset:
        """Convenience: build and register a :class:`RegisteredDataset`."""
        dataset = RegisteredDataset(description, endpoint)
        self.register(dataset)
        return dataset

    def refresh_statistics(self) -> int:
        """Refresh voiD vocabulary statistics from the endpoints' live graphs.

        For every dataset whose endpoint exposes its graph
        (:class:`LocalSparqlEndpoint` does; remote proxies do not), the
        stored description's ``void:propertyPartition`` /
        ``void:classPartition`` entries and triple count are rebuilt from
        :attr:`repro.rdf.Graph.stats`.  Returns how many descriptions were
        refreshed.  Endpoint health (policies, breakers) is untouched — the
        data changed, not the endpoint.
        """
        refreshed = 0
        with self._lock:
            for dataset_uri in list(self._datasets):
                dataset = self._datasets.get(dataset_uri)
                if dataset is None:
                    continue
                graph = dataset.local_graph()
                if graph is None:
                    continue
                self._datasets[dataset_uri] = RegisteredDataset(
                    dataset.description.with_statistics(graph), dataset.endpoint
                )
                refreshed += 1
        return refreshed

    # ------------------------------------------------------------------ #
    # Execution policies and endpoint health
    # ------------------------------------------------------------------ #
    def set_policy(self, uri: URIRef, policy: ExecutionPolicy) -> None:
        """Attach a per-dataset execution policy (overrides the default)."""
        with self._lock:
            self._policies[uri] = policy
            # Threshold/reset may have changed; rebuild the breaker lazily.
            self._breakers.pop(uri, None)

    def policy_for(self, uri: URIRef) -> ExecutionPolicy:
        """The effective execution policy for ``uri``."""
        with self._lock:
            return self._policies.get(uri, self.default_policy)

    def breaker_for(self, uri: URIRef) -> CircuitBreaker:
        """The circuit breaker tracking ``uri``'s endpoint health."""
        with self._lock:
            breaker = self._breakers.get(uri)
            if breaker is None:
                policy = self.policy_for(uri)
                breaker = CircuitBreaker(
                    failure_threshold=policy.failure_threshold,
                    reset_timeout=policy.reset_timeout,
                )
                self._breakers[uri] = breaker
            return breaker

    def health(self) -> dict[URIRef, EndpointHealth]:
        """Per-dataset health: breaker state enriched with endpoint statistics.

        Values compare equal to their state string (``closed``/``open``/
        ``half-open``) and additionally expose ``consecutive_failures`` and
        the endpoint's :class:`EndpointStatistics` when it keeps any.
        """
        with self._lock:
            snapshot = dict(self._datasets)
        report: dict[URIRef, EndpointHealth] = {}
        for uri in sorted(snapshot, key=str):
            breaker = self.breaker_for(uri)
            report[uri] = EndpointHealth(
                breaker.state,
                consecutive_failures=breaker.consecutive_failures,
                statistics=getattr(snapshot[uri].endpoint, "statistics", None),
            )
        return report

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __contains__(self, uri: URIRef) -> bool:
        with self._lock:
            return uri in self._datasets

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)

    def __iter__(self) -> Iterator[RegisteredDataset]:
        with self._lock:
            snapshot = dict(self._datasets)
        for uri in sorted(snapshot, key=str):
            yield snapshot[uri]

    def get(self, uri: URIRef) -> RegisteredDataset:
        """The dataset registered under ``uri``; raises ``KeyError`` if absent."""
        with self._lock:
            if uri not in self._datasets:
                raise KeyError(f"unknown dataset: {uri}")
            return self._datasets[uri]

    def datasets(self) -> list[RegisteredDataset]:
        return list(iter(self))

    def dataset_uris(self) -> list[URIRef]:
        return [dataset.uri for dataset in self]

    # ------------------------------------------------------------------ #
    # voiD KB export / import
    # ------------------------------------------------------------------ #
    def void_graph(self) -> Graph:
        """The voiD KB describing every registered dataset."""
        return descriptions_to_graph(dataset.description for dataset in self)

    def load_void_graph(
        self,
        graph: Graph,
        endpoint_factory: Callable[[DatasetDescription], SparqlEndpoint] | None = None,
    ) -> list[RegisteredDataset]:
        """Register every dataset described in a voiD graph.

        The read half of the voiD KB round trip: descriptions are parsed
        with :func:`descriptions_from_graph` and each one is registered
        with an endpoint built by ``endpoint_factory`` (default: an
        :class:`~repro.federation.http_endpoint.HttpSparqlEndpoint` at the
        description's ``void:sparqlEndpoint`` URL, which is what consuming
        a remote federation's published voiD KB means in practice).
        Returns the datasets registered, in description order.
        """
        if endpoint_factory is None:
            from .http_endpoint import HttpSparqlEndpoint

            def endpoint_factory(description: DatasetDescription) -> SparqlEndpoint:
                return HttpSparqlEndpoint(description.endpoint_uri)

        registered = []
        for description in descriptions_from_graph(graph):
            registered.append(
                self.register_endpoint(description, endpoint_factory(description))
            )
        return registered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DatasetRegistry {len(self)} datasets>"
