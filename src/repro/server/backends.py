"""Query backends the HTTP server can front.

The SPARQL Protocol handler is transport only; *what* answers a query is a
:class:`QueryBackend`:

* :class:`EndpointBackend` — a single :class:`SparqlEndpoint` (local graph
  or a further remote endpoint being proxied).  SELECT, ASK and CONSTRUCT
  are all supported.
* :class:`FederationBackend` — a :class:`MediatorService`: every SELECT is
  mediated over the registered datasets and the merged result set is
  returned.  This is the deployment of Figure 5 — the mediator itself
  published as one SPARQL endpoint.

Backends also supply the observability payloads (``/health``, ``/metrics``)
and a *generation* number: responses may be cached until the generation
changes (the federation backend ties it to ``AlignmentStore.generation``,
so editing the alignment KB invalidates every cached rewrite-dependent
response).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..rdf import Graph, URIRef
from ..sparql import (
    AskQuery,
    AskResult,
    ConstructQuery,
    Query,
    ResultSet,
    SelectQuery,
    parse_query,
)
from ..federation.endpoint import LocalSparqlEndpoint, SparqlEndpoint
from ..federation.service import MediatorService

__all__ = ["BadQuery", "RejectedQuery", "QueryBackend", "EndpointBackend", "FederationBackend"]


class BadQuery(ValueError):
    """The request's query is unusable for this backend (HTTP 400)."""


class RejectedQuery(BadQuery):
    """Strict mode refused the query: static analysis found errors.

    Carries the full list of :class:`repro.sparql.analysis.Diagnostic`
    objects so the protocol layer can return them as structured JSON
    alongside the 400.
    """

    def __init__(self, message: str, diagnostics: Sequence) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics)

    def to_json_list(self):
        return [d.to_json_dict() for d in self.diagnostics]


QueryResult = ResultSet | AskResult | Graph


class QueryBackend:
    """Abstract backend: executes query text, reports health and metrics."""

    #: Human-readable description served in the service document.
    description: str = "SPARQL endpoint"

    #: Strict mode: refuse queries whose static analysis finds
    #: error-severity diagnostics (HTTP 400 with a structured JSON body).
    strict: bool = False

    def _analyze_static(self, query: Query):
        """Run the static analyzer; in strict mode errors reject the query."""
        from ..sparql.analysis import analyze_query

        analysis = analyze_query(query)
        if self.strict and analysis.has_errors:
            raise RejectedQuery(
                "query rejected by static analysis "
                f"({len(analysis.errors)} error(s))",
                analysis.diagnostics,
            )
        return analysis

    @staticmethod
    def _attach_diagnostics(result, analysis):
        """Hand the analyzer's findings to results that can carry them."""
        if analysis is not None and getattr(result, "diagnostics", None) == []:
            result.diagnostics = list(analysis.diagnostics)
        return result

    def execute(self, query_text: str) -> QueryResult:
        raise NotImplementedError

    def analyze(self, query_text: str):
        """EXPLAIN ANALYZE: ``(result, run event)`` for ``query_text``.

        Backends whose underlying engine has no batched instrumentation
        raise :class:`BadQuery` (HTTP 400 at the protocol layer).
        """
        raise BadQuery("this backend does not support EXPLAIN ANALYZE")

    def health(self) -> dict[str, object]:
        """JSON-ready health payload; must contain a ``status`` key."""
        return {"status": "ok"}

    def metrics(self) -> dict[str, object]:
        """JSON-ready metrics payload (per-endpoint statistics)."""
        return {}

    @property
    def generation(self) -> int:
        """Cache epoch: cached responses are valid while this is stable."""
        return 0

    @staticmethod
    def _parse(query_text: str) -> Query:
        from ..sparql import SparqlParseError

        try:
            return parse_query(query_text)
        except SparqlParseError as exc:
            raise BadQuery(f"malformed query: {exc}") from exc


class EndpointBackend(QueryBackend):
    """Serve one :class:`SparqlEndpoint` (SELECT/ASK/CONSTRUCT)."""

    def __init__(
        self,
        endpoint: SparqlEndpoint,
        strict: bool = False,
    ) -> None:
        self.endpoint = endpoint
        self.description = f"SPARQL endpoint for {endpoint.uri}"
        self.strict = strict

    def execute(self, query_text: str) -> QueryResult:
        query = self._parse(query_text)
        # Strict mode must refuse before anything runs.  Otherwise a local
        # endpoint's evaluator analyses the query itself, against its graph,
        # and attaches what it finds; only an endpoint that evaluates
        # elsewhere leaves the analysis to this process.
        analysis = None
        if self.strict or not isinstance(self.endpoint, LocalSparqlEndpoint):
            analysis = self._analyze_static(query)
        if isinstance(query, SelectQuery):
            return self._attach_diagnostics(self.endpoint.select(query), analysis)
        if isinstance(query, AskQuery):
            return self._attach_diagnostics(self.endpoint.ask(query), analysis)
        if isinstance(query, ConstructQuery):
            return self.endpoint.construct(query)
        raise BadQuery(f"unsupported query form: {type(query).__name__}")

    def analyze(self, query_text: str):
        query = self._parse(query_text)
        analyze = getattr(self.endpoint, "analyze", None)
        if analyze is None:
            raise BadQuery("this endpoint does not support EXPLAIN ANALYZE")
        return analyze(query)

    def health(self) -> dict[str, object]:
        available = bool(getattr(self.endpoint, "available", True))
        payload: dict[str, object] = {
            "status": "ok" if available else "unavailable",
            "endpoint": str(self.endpoint.uri),
        }
        triple_count = getattr(self.endpoint, "triple_count", None)
        if callable(triple_count):
            payload["triples"] = triple_count()
        return payload

    def metrics(self) -> dict[str, object]:
        statistics = getattr(self.endpoint, "statistics", None)
        if statistics is None:
            return {}
        return {str(self.endpoint.uri): statistics.as_dict()}

    @property
    def generation(self) -> int:
        # Tie the cache epoch to the served graph's mutation counter so a
        # data change invalidates cached responses; endpoints without a
        # graph view (remote proxies) fall back to the static epoch.
        graph = getattr(self.endpoint, "graph", None)
        return getattr(graph, "version", 0)


class FederationBackend(QueryBackend):
    """Serve a whole federation: every SELECT is mediated and merged.

    Runs the :class:`MediatorService`'s federation engine (``engine``).
    ``source_ontology`` / ``source_dataset`` / ``mode`` / ``datasets`` /
    ``strategy`` are fixed at construction: they describe *this* published
    endpoint's mediation setup, exactly like the deployed mediator's
    configuration page.
    """

    def __init__(
        self,
        service: MediatorService,
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
        datasets: Sequence[URIRef] | None = None,
        strategy: str | None = None,
        strict: bool = False,
    ) -> None:
        self.engine = service.federation
        self.source_ontology = source_ontology
        self.source_dataset = source_dataset
        self.mode = mode
        self.datasets = list(datasets) if datasets is not None else None
        self.strategy = strategy
        self.strict = strict
        self.description = (
            f"mediated federation over {len(self.engine.registry)} datasets"
            + (f" (strategy {strategy})" if strategy else "")
        )

    def execute(self, query_text: str) -> QueryResult:
        query = self._parse_select(query_text)
        analysis = self._analyze_static(query)
        outcome = self.engine.execute(
            query,
            source_ontology=self.source_ontology,
            source_dataset=self.source_dataset,
            mode=self.mode,
            datasets=self.datasets,
            strategy=self.strategy,
        )
        merged = outcome.merged()
        # The decompose strategy sees local + federation diagnostics;
        # fall back to the local analysis for plain fan-out.
        merged.diagnostics = list(outcome.diagnostics) or list(analysis.diagnostics)
        return merged

    def analyze(self, query_text: str):
        query = self._parse_select(query_text)
        outcome, event = self.engine.analyze(
            query,
            source_ontology=self.source_ontology,
            source_dataset=self.source_dataset,
            mode=self.mode,
            datasets=self.datasets,
            strategy=self.strategy,
        )
        return outcome.merged(), event

    def _parse_select(self, query_text: str) -> SelectQuery:
        query = self._parse(query_text)
        if not isinstance(query, SelectQuery):
            raise BadQuery(
                "the federated endpoint answers SELECT queries only "
                f"(got {type(query).__name__})"
            )
        return query

    def health(self) -> dict[str, object]:
        datasets = {
            str(uri): entry.as_dict()
            for uri, entry in self.engine.registry.health().items()
        }
        degraded = any(entry["state"] != "closed" for entry in datasets.values())
        return {
            "status": "degraded" if degraded else "ok",
            "datasets": datasets,
        }

    def metrics(self) -> dict[str, object]:
        payload: dict[str, object] = {}
        for dataset in self.engine.registry:
            statistics = getattr(dataset.endpoint, "statistics", None)
            if statistics is not None:
                payload[str(dataset.uri)] = statistics.as_dict()
        return payload

    @property
    def generation(self) -> int:
        # Merged answers depend on the alignment KB via the mediator's
        # rewrites; bumping the store's generation invalidates the cache.
        return self.engine.mediator.alignment_store.generation
