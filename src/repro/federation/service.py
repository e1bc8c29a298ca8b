"""Mediator service facade (the REST API tier of Figure 5).

The original deployment exposed the rewriter through a GWT web UI and a
REST API backed by a Jena store holding the alignment KB and the voiD KB.
:class:`MediatorService` is the programmatic equivalent: one object that
owns the two knowledge bases, the co-reference service, the dataset
registry and the mediator, and that exposes the operations the UI offered —
translate a query for a chosen dataset, and translate *and run* it against
the dataset's endpoint.

Request/response dataclasses mirror what the REST layer would serialise to
JSON, which keeps the facade easy to wrap in an actual HTTP server without
touching the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..alignment import AlignmentStore
from ..coreference import SameAsService
from ..core import MediationResult, Mediator, TargetProfile
from ..rdf import Graph, URIRef
from ..sparql import Query, parse_query
from .federator import FederatedQueryEngine, FederatedResult
from .registry import DatasetRegistry

__all__ = ["TranslationResponse", "ExecutionResponse", "MediatorService"]


@dataclass
class TranslationResponse:
    """Response of the ``translate`` operation."""

    translated_query: str
    alignments_considered: int
    triples_matched: int
    triples_unmatched: int
    mode: str


@dataclass
class ExecutionResponse:
    """Response of the ``translate_and_run`` operation."""

    translation: TranslationResponse
    row_count: int
    rows: list[dict[str, str]]


class MediatorService:
    """Three-tier mediator: knowledge bases + rewriting + dispatch."""

    def __init__(
        self,
        alignment_store: AlignmentStore,
        registry: DatasetRegistry,
        sameas_service: SameAsService | None = None,
        strategy: str = "fanout",
    ) -> None:
        self.alignment_store = alignment_store
        self.registry = registry
        self.sameas_service = sameas_service or SameAsService()
        self.mediator = Mediator(alignment_store, self.sameas_service)
        for dataset in registry:
            self.mediator.register_target(
                TargetProfile(
                    dataset=dataset.uri,
                    ontologies=tuple(dataset.ontologies),
                    uri_pattern=dataset.uri_pattern,
                )
            )
        #: The engine's settings (``max_workers``, ``ask_probes``,
        #: ``bind_join_batch``, ...) are its attributes.
        self.federation = FederatedQueryEngine(
            self.mediator, registry, self.sameas_service, strategy=strategy
        )

    # ------------------------------------------------------------------ #
    # Knowledge-base views (what the Jena back end stores in Figure 5)
    # ------------------------------------------------------------------ #
    def alignment_kb(self) -> Graph:
        """The alignment KB as RDF."""
        return self.alignment_store.to_graph()

    def void_kb(self) -> Graph:
        """The voiD KB as RDF."""
        return self.registry.void_graph()

    # ------------------------------------------------------------------ #
    # Operations offered by the UI / REST API
    # ------------------------------------------------------------------ #
    def translate(
        self,
        query: Query | str,
        target_dataset: URIRef,
        source_ontology: URIRef | None = None,
        mode: str = "bgp",
    ) -> TranslationResponse:
        """Rewrite ``query`` for ``target_dataset`` (the UI's main button)."""
        if isinstance(query, str):
            query = parse_query(query)
        mediation = self.mediator.translate(query, target_dataset, source_ontology, mode)
        return self._translation_response(mediation)

    def translate_and_run(
        self,
        query: Query | str,
        target_dataset: URIRef,
        source_ontology: URIRef | None = None,
        mode: str = "bgp",
    ) -> ExecutionResponse:
        """Rewrite and execute on the target's endpoint (the UI's second button)."""
        if isinstance(query, str):
            query = parse_query(query)
        mediation = self.mediator.translate(query, target_dataset, source_ontology, mode)
        endpoint = self.registry.get(target_dataset).endpoint
        result = endpoint.select(mediation.rewritten_query)
        return ExecutionResponse(
            translation=self._translation_response(mediation),
            row_count=len(result),
            rows=result.to_dicts(),
        )

    def federate(
        self,
        query: Query | str,
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
        datasets: Sequence[URIRef] | None = None,
        canonical_pattern: str | None = None,
        strategy: str | None = None,
    ) -> FederatedResult:
        """Run the query over every registered dataset and merge the results."""
        return self.federation.execute(
            query,
            source_ontology=source_ontology,
            source_dataset=source_dataset,
            mode=mode,
            datasets=datasets,
            canonical_pattern=canonical_pattern,
            strategy=strategy,
        )

    def analyze(
        self,
        query: Query | str,
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
        datasets: Sequence[URIRef] | None = None,
        canonical_pattern: str | None = None,
        strategy: str | None = None,
    ):
        """EXPLAIN ANALYZE for a federated query: ``(result, event)``.

        Same routing as :meth:`federate`; the event carries the mediator's
        per-operator metrics and the per-dataset traffic — see
        :meth:`repro.federation.FederatedQueryEngine.analyze`.
        """
        return self.federation.analyze(
            query,
            source_ontology=source_ontology,
            source_dataset=source_dataset,
            mode=mode,
            datasets=datasets,
            canonical_pattern=canonical_pattern,
            strategy=strategy,
        )

    def explain(
        self,
        query: Query | str,
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
        datasets: Sequence[URIRef] | None = None,
        strategy: str | None = None,
    ) -> dict[str, str]:
        """Per-dataset physical plans for a federated query (no execution)."""
        plans = self.federation.explain(
            query,
            source_ontology=source_ontology,
            source_dataset=source_dataset,
            mode=mode,
            datasets=datasets,
            strategy=strategy,
        )
        return {str(uri): text for uri, text in plans.items()}

    # ------------------------------------------------------------------ #
    @staticmethod
    def _translation_response(mediation: MediationResult) -> TranslationResponse:
        return TranslationResponse(
            translated_query=mediation.query_text,
            alignments_considered=mediation.alignments_considered,
            triples_matched=mediation.report.matched_count,
            triples_unmatched=mediation.report.unmatched_count,
            mode=mediation.mode,
        )
