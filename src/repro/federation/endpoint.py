"""SPARQL endpoint abstraction.

The original system dispatched rewritten queries to remote endpoints over
SPARQL/HTTP (Figure 5).  Offline we model an endpoint as "something that
answers SPARQL queries": :class:`LocalSparqlEndpoint` wraps an in-memory
graph behind the same interface a remote endpoint would offer, including
simulated network latency, failure injection and invocation accounting, so
the federation layer's resilience machinery (timeouts, retries, circuit
breakers) is exercisable entirely offline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..rdf import Graph, GraphView, URIRef
from ..sparql import (
    AskQuery,
    AskResult,
    ConstructQuery,
    Query,
    QueryEvaluator,
    ResultSet,
    parse_query,
)

__all__ = [
    "SparqlEndpoint",
    "LocalSparqlEndpoint",
    "EndpointStatistics",
    "EndpointError",
    "EndpointUnavailable",
    "EndpointTimeout",
]


class EndpointError(RuntimeError):
    """Base error for endpoint interaction failures."""


class EndpointUnavailable(EndpointError):
    """Raised when a (simulated) endpoint is switched off or flakes."""


class EndpointTimeout(EndpointError):
    """Raised when an endpoint attempt exceeded its policy's time budget."""


class SparqlEndpoint:
    """Abstract endpoint interface used by the federation layer."""

    #: URI identifying the endpoint (the value stored in the voiD profile).
    uri: URIRef

    def select(self, query: Query | str, timeout: float | None = None) -> ResultSet:
        """Run a SELECT query and return its result set.

        ``timeout`` is the attempt's budget in seconds: an endpoint that
        cannot answer within it raises :class:`EndpointTimeout`.
        """
        raise NotImplementedError

    def ask(self, query: Query | str, timeout: float | None = None) -> AskResult:
        """Run an ASK query (``timeout`` as for :meth:`select`)."""
        raise NotImplementedError

    def construct(self, query: Query | str) -> Graph:
        """Run a CONSTRUCT query."""
        raise NotImplementedError


@dataclass
class EndpointStatistics:
    """Bookkeeping about the traffic an endpoint has served.

    ``injected_failures`` counts failures the endpoint itself produced
    (failure injection on :class:`LocalSparqlEndpoint`, HTTP error bodies
    on a remote endpoint); ``transport_failures`` counts attempts that
    never produced an answer at all (connection refused, socket timeout) —
    only the HTTP client increments it.
    """

    select_queries: int = 0
    ask_queries: int = 0
    construct_queries: int = 0
    injected_failures: int = 0
    transport_failures: int = 0

    @property
    def total_queries(self) -> int:
        return self.select_queries + self.ask_queries + self.construct_queries

    @property
    def total_failures(self) -> int:
        return self.injected_failures + self.transport_failures

    def as_dict(self) -> dict:
        """JSON-ready payload (served by ``/metrics`` and ``health()``)."""
        return {
            "select_queries": self.select_queries,
            "ask_queries": self.ask_queries,
            "construct_queries": self.construct_queries,
            "total_queries": self.total_queries,
            "injected_failures": self.injected_failures,
            "transport_failures": self.transport_failures,
            "total_failures": self.total_failures,
        }


class LocalSparqlEndpoint(SparqlEndpoint):
    """An in-process endpoint over an in-memory RDF graph.

    Parameters
    ----------
    uri:
        The endpoint URI recorded in the dataset's voiD description.
    graph:
        The data served by the endpoint.
    name:
        Human-readable label used in logs and experiment tables.
    latency:
        Simulated per-query network/evaluation delay in seconds.  The
        endpoint sleeps this long before answering, which is what makes
        concurrent fan-out measurably faster than sequential execution in
        the offline benchmarks.  A call whose ``timeout`` is shorter sleeps
        only the budget and raises :class:`EndpointTimeout`.

    Setting ``available`` to false makes every query raise
    :class:`EndpointUnavailable`, and :meth:`fail_next` fails the next
    queries: the failure-injection hooks of the federation tests.
    """

    def __init__(
        self,
        uri: URIRef,
        graph: Graph,
        name: str | None = None,
        latency: float = 0.0,
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.uri = uri
        self.name = name or str(uri)
        self.available = True
        self.latency = latency
        self._fail_next = 0
        self._graph = graph
        self._evaluator = QueryEvaluator(graph)
        self.statistics = EndpointStatistics()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Data access
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> GraphView:
        """Read-only view of the endpoint's data."""
        return GraphView(self._graph)

    def triple_count(self) -> int:
        return len(self._graph)

    # ------------------------------------------------------------------ #
    # Failure injection
    # ------------------------------------------------------------------ #
    def fail_next(self, count: int = 1) -> LocalSparqlEndpoint:
        """Make the next ``count`` queries fail deterministically.

        Used to test bounded retries: ``fail_next(2)`` plus a policy with
        ``max_retries >= 2`` succeeds on the third attempt.
        """
        with self._lock:
            self._fail_next = max(0, count)
        return self

    def _simulate(self, kind: str, timeout: float | None = None) -> None:
        """Account for the query, then apply latency, timeout and injected failures."""
        if not self.available:
            raise EndpointUnavailable(f"endpoint {self.name} is unavailable")
        with self._lock:
            setattr(self.statistics, kind, getattr(self.statistics, kind) + 1)
            flake = self._fail_next > 0
            if flake:
                self._fail_next -= 1
                self.statistics.injected_failures += 1
        latency = self.latency
        if timeout is not None and latency > timeout:
            time.sleep(timeout)
            raise EndpointTimeout(f"endpoint {self.name} timed out after {timeout:g}s")
        if latency:
            time.sleep(latency)
        if flake:
            raise EndpointUnavailable(f"endpoint {self.name} flaked (injected failure)")

    # ------------------------------------------------------------------ #
    # Query interface
    # ------------------------------------------------------------------ #
    def select(self, query: Query | str, timeout: float | None = None) -> ResultSet:
        self._simulate("select_queries", timeout)
        result = self._evaluator.evaluate(self._coerce(query))
        if not isinstance(result, ResultSet):
            raise EndpointError("query did not produce SELECT results")
        return result

    def ask(self, query: Query | str, timeout: float | None = None) -> AskResult:
        self._simulate("ask_queries", timeout)
        result = self._evaluator.evaluate(self._coerce(query))
        if not isinstance(result, AskResult):
            raise EndpointError("query did not produce an ASK result")
        return result

    def construct(self, query: Query | str) -> Graph:
        self._simulate("construct_queries")
        result = self._evaluator.evaluate(self._coerce(query))
        if not isinstance(result, Graph):
            raise EndpointError("query did not produce a CONSTRUCT graph")
        return result

    def explain(self, query: Query | str) -> str:
        """The endpoint evaluator's EXPLAIN plan for ``query`` (no execution).

        Not counted as endpoint traffic and exempt from failure injection —
        planning never touches the data, only the statistics.
        """
        return self._evaluator.explain(self._coerce(query))

    def analyze(self, query: Query | str):
        """EXPLAIN ANALYZE: evaluate ``query`` and return ``(result, event)``.

        The event carries per-operator rows/batches/wall-time from the
        batched executor (see :meth:`repro.sparql.QueryEvaluator.analyze`).
        Counted as endpoint traffic like a normal query of the same form.
        """
        coerced = self._coerce(query)
        if isinstance(coerced, AskQuery):
            kind = "ask_queries"
        elif isinstance(coerced, ConstructQuery):
            kind = "construct_queries"
        else:
            kind = "select_queries"
        self._simulate(kind)
        return self._evaluator.analyze(coerced)

    @staticmethod
    def _coerce(query: Query | str) -> Query:
        if isinstance(query, str):
            return parse_query(query)
        return query

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LocalSparqlEndpoint {self.name} ({self.triple_count()} triples)>"
