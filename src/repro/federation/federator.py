"""Federated query execution with co-reference-aware result merging.

The introduction of the paper motivates rewriting with *recall*: "the
information space on the Web of Data is highly redundant and data
repositories need to be integrated in order to provide high recall result
sets".  :class:`FederatedQueryEngine` is that integration step:

1. the mediator rewrites the source query for each target dataset,
2. the rewrites run on the datasets' endpoints — concurrently, under the
   per-endpoint :class:`ExecutionPolicy` (attempt timeout, bounded retries
   with exponential backoff) and circuit breaker recorded in the
   :class:`DatasetRegistry`,
3. the answers are merged; bindings whose URIs co-refer (per the sameas
   service) are collapsed onto a canonical representative so the merged
   result counts *entities*, not URIs.

Both strategies run as one plan on one executor
(:mod:`repro.federation.decompose`): ``fanout`` is the plan with a single
whole-query unit over every dataset, ``decompose`` splits the query into
units by source selection.  :meth:`FederatedQueryEngine.call_endpoint` is
the one place an endpoint is called.  Results are deterministic regardless
of completion order: sources answer in registry order and the first
occurrence of a row wins, so concurrent and sequential execution produce
identical merged result sets.  Only SELECT queries are federated.

:func:`recall` is the evaluation metric of Experiment E6.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Sequence

from ..coreference import SameAsService
from ..core import MediationResult, Mediator
from ..obs.trace import get_tracer
from ..rdf import Term, URIRef, Variable
from ..sparql import Binding, Query, ResultSet, SelectQuery, parse_query
from ..sparql.exec import QueryRunEvent, finish_run
from .endpoint import EndpointError, EndpointTimeout
from .policy import ExecutionPolicy
from .registry import DatasetRegistry, RegisteredDataset

__all__ = ["DatasetResult", "FederatedResult", "FederatedQueryEngine", "recall"]

#: Default upper bound on concurrent endpoint requests per engine.
_DEFAULT_MAX_WORKERS = 16


@dataclass
class DatasetResult:
    """What one dataset contributed to a federated query.

    A dataset may serve one whole-query request (fan-out) or many
    sub-queries (exclusive groups, bound-join batches, ASK probes); the
    counters aggregate its traffic either way, and the merged answer lives
    on the :class:`FederatedResult`.
    """

    dataset_uri: URIRef
    #: The whole-query rewrite the dataset was sent (fan-out plans; ``None``
    #: for the source dataset and for decomposed plans).
    mediation: MediationResult | None
    error: str | None = None
    #: Endpoint attempts made (> 1 when the policy retried).
    attempts: int = 1
    #: Endpoint calls issued (whole queries, sub-queries and ASK probes).
    requests: int = 0
    #: Rows the dataset returned across all of its calls.
    row_count: int = 0

    @property
    def succeeded(self) -> bool:
        return self.error is None


@dataclass
class FederatedResult:
    """Merged outcome of a federated query."""

    variables: list[Variable]
    per_dataset: list[DatasetResult] = field(default_factory=list)
    merged_bindings: list[Binding] = field(default_factory=list)
    #: Wall-clock seconds for planning, execution and merge.
    elapsed: float = 0.0
    #: Execution strategy that produced the result.
    strategy: str = "fanout"
    #: The plan that ran (under fan-out, one whole-query unit).
    decomposition: DecomposedPlan | None = None

    def merged(self) -> ResultSet:
        """The merged (co-reference-canonicalised, deduplicated) result set."""
        return ResultSet(self.variables, self.merged_bindings)

    def distinct_values(self, variable: Variable | str) -> set[Term]:
        return self.merged().distinct_values(variable)

    def successful_datasets(self) -> list[URIRef]:
        return [entry.dataset_uri for entry in self.per_dataset if entry.succeeded]

    def failed_datasets(self) -> list[URIRef]:
        return [entry.dataset_uri for entry in self.per_dataset if not entry.succeeded]

    @property
    def total_rows(self) -> int:
        """Rows retrieved before merging (sum over datasets)."""
        return sum(entry.row_count for entry in self.per_dataset)

    @property
    def total_attempts(self) -> int:
        """Endpoint attempts across the federation (retries included)."""
        return sum(entry.attempts for entry in self.per_dataset)

    @property
    def total_requests(self) -> int:
        """Endpoint calls issued (whole queries, sub-queries and probes)."""
        return sum(entry.requests for entry in self.per_dataset)

    @property
    def endpoints_contacted(self) -> int:
        """How many datasets actually received at least one request."""
        return sum(
            1 for entry in self.per_dataset
            if entry.attempts > 0 or entry.requests > 0
        )

    @property
    def diagnostics(self) -> list:
        """Static-analysis diagnostics surfaced while planning.

        Populated under the decompose strategy (the plan runs the local
        and federation analyzers before contacting any endpoint); empty
        for plain fan-out, which runs no analysis.
        """
        if self.decomposition is not None:
            return self.decomposition.diagnostics
        return []


class FederatedQueryEngine:
    """Run a source query over every registered dataset through the mediator.

    Parameters
    ----------
    mediator / registry / sameas_service:
        The rewriting core, the dataset registry (which also tracks
        per-endpoint policies and circuit breakers) and the co-reference
        store used for merging.
    parallel:
        Default execution mode: fan out over a thread pool (``True``) or
        query endpoints one after another (``False``).  Either way the
        merged output is identical; per-call ``parallel=`` overrides.
    max_workers:
        Upper bound on the engine's concurrent endpoint requests (the size
        of its worker pool, fixed when the first parallel round runs).
    strategy:
        Default execution strategy: ``"fanout"`` ships the whole rewritten
        query to every dataset; ``"decompose"`` runs per-pattern source
        selection, exclusive groups and bound joins
        (:mod:`repro.federation.decompose`).  Per-call ``strategy=``
        overrides.
    ask_probes:
        Whether source selection may issue ``ASK`` probes for patterns the
        VoID statistics cannot settle (each bounded by ``probe_timeout``,
        an attribute, 2 s).
    bind_join_batch:
        Ceiling on the left rows shipped per bound-join ``VALUES`` block
        (decompose strategy; default ``DEFAULT_BIND_JOIN_BATCH``).
    """

    def __init__(
        self,
        mediator: Mediator,
        registry: DatasetRegistry,
        sameas_service: SameAsService | None = None,
        parallel: bool = True,
        max_workers: int | None = None,
        strategy: str = "fanout",
        ask_probes: bool = True,
        bind_join_batch: int | None = None,
    ) -> None:
        from .decompose import DEFAULT_BIND_JOIN_BATCH, STRATEGIES

        if strategy not in STRATEGIES:
            raise ValueError(f"unknown federation strategy: {strategy!r}")
        self.mediator = mediator
        self.registry = registry
        self.sameas_service = sameas_service or mediator.sameas_service
        self.parallel = parallel
        self.max_workers = max_workers or _DEFAULT_MAX_WORKERS
        self.strategy = strategy
        self.ask_probes = ask_probes
        self.probe_timeout: float | None = 2.0
        self.bind_join_batch = bind_join_batch or DEFAULT_BIND_JOIN_BATCH
        self._selector = None
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    @property
    def source_selector(self):
        """The engine's (lazily created) shared source selector.

        Shared so relevance decisions are cached across queries; the cache
        invalidates itself on alignment-KB generation changes and local
        graph mutations.
        """
        if self._selector is None:
            from .decompose import SourceSelector

            self._selector = SourceSelector(
                self, ask_probes=self.ask_probes, probe_timeout=self.probe_timeout
            )
        else:
            self._selector.ask_probes = self.ask_probes
            self._selector.probe_timeout = self.probe_timeout
        return self._selector

    def worker_pool(self) -> ThreadPoolExecutor:
        """The engine's one pool of endpoint-request workers.

        Shared by every parallel round (a fan-out, a bound-join batch) of
        every query, so a round costs task hand-offs, not thread starts, and
        ``max_workers`` bounds the engine's concurrent endpoint requests as
        a whole.  Created on first use, with the ``max_workers`` of that
        moment; idle workers exit when the engine is closed or collected.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="federate"
                )
            return self._pool

    def close(self) -> None:
        """Stop the worker pool (a later query starts a fresh one)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: Query | str,
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
        datasets: Sequence[URIRef] | None = None,
        canonical_pattern: str | None = None,
        parallel: bool | None = None,
        strategy: str | None = None,
    ) -> FederatedResult:
        """Run ``query`` over the federation.

        ``source_dataset`` names the dataset the query was originally
        written for: that dataset receives the query *unrewritten*; every
        other dataset receives the mediated translation.  ``datasets``
        restricts the federation; ``canonical_pattern`` selects the URI
        space results are canonicalised into (defaults to the source
        dataset's pattern, falling back to plain deduplication).
        ``parallel`` overrides the engine's default execution mode for this
        call; ``strategy`` overrides the engine's default execution strategy
        (``"fanout"`` or ``"decompose"``).  Raises ``ValueError`` for an
        unknown strategy or a non-SELECT query, before any endpoint is
        contacted.
        """
        return self._run(
            query, False, source_ontology, source_dataset, mode, datasets,
            canonical_pattern, parallel, strategy,
        )[0]

    def analyze(
        self,
        query: Query | str,
        **kwargs,
    ) -> tuple[FederatedResult, QueryRunEvent]:
        """EXPLAIN ANALYZE for a federated query: ``(result, event)``.

        Accepts the same keyword arguments as :meth:`execute`.  The event
        carries the mediator pipeline's per-operator metrics and the
        per-dataset traffic (requests, attempts, rows shipped).
        """
        return self._run(query, True, **kwargs)

    def _run(
        self,
        query: Query | str,
        analyze: bool,
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
        datasets: Sequence[URIRef] | None = None,
        canonical_pattern: str | None = None,
        parallel: bool | None = None,
        strategy: str | None = None,
    ) -> tuple[FederatedResult, QueryRunEvent | None]:
        """Plan and run ``query``, then end the run through
        :func:`~repro.sparql.exec.finish_run`: the event exists only when
        ``analyze`` asks for it or the sink, tracer or slow log reads it."""
        from .decompose import execute_decomposed

        select = _select_query(query)
        outcome, executor = execute_decomposed(
            self, select, self._select_targets(datasets),
            source_ontology, source_dataset, mode, canonical_pattern,
            strategy=strategy or self.strategy,
            parallel=self.parallel if parallel is None else parallel,
        )
        event = finish_run(
            executor, query if isinstance(query, str) else select,
            outcome.elapsed, "federation", analyze,
        )
        return outcome, event

    def lint(
        self,
        query: Query | str,
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
    ) -> list:
        """Static diagnostics for ``query`` without executing it.

        Runs the local analyzer and — unless the query is already provably
        empty — the federation analyzer over the registered (breaker-closed)
        datasets.  Source selection may issue ASK probes when the engine is
        configured for them, but the query itself never reaches an endpoint.
        Returns :class:`repro.sparql.analysis.Diagnostic` objects.
        """
        from ..sparql.analysis import analyze_federation, analyze_query

        if isinstance(query, str):
            query = parse_query(query)
        local = analyze_query(query)
        diagnostics = list(local.diagnostics)
        if local.provably_empty:
            return diagnostics
        usable = [
            target
            for target in self._select_targets(None)
            if self.registry.breaker_for(target.uri).state != "open"
        ]
        federation = analyze_federation(
            query, self.source_selector, usable,
            source_ontology, source_dataset, mode, analysis=local,
        )
        diagnostics.extend(federation.diagnostics)
        return diagnostics

    def explain(
        self,
        query: Query | str,
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
        datasets: Sequence[URIRef] | None = None,
        strategy: str | None = None,
    ) -> dict[URIRef, str]:
        """Per-dataset EXPLAIN for a federated query, without executing it.

        Under the fan-out strategy each target receives exactly the query
        :meth:`execute` would send it (the source dataset its original
        query, every other dataset the mediated rewrite) and reports the
        physical plan its endpoint's planner would run; endpoints that
        expose no ``explain`` (remote transports) report the rewritten
        query text instead.  Under the decompose strategy each target
        reports its slice of the decomposed plan — the sub-queries of the
        units it serves (exclusive groups, bound-join fragments) or the
        reason it is skipped.  ``ASK`` probes may contact endpoints when
        source selection needs them.
        """
        from .decompose import _unit_kind, _unit_query, decompose_query

        query = _select_query(query)
        targets = self._select_targets(datasets)
        plan = decompose_query(
            self, query, targets, source_ontology, source_dataset, mode,
            selector=self.source_selector, bind_join_batch=self.bind_join_batch,
            strategy=strategy or self.strategy,
        )
        per_dataset: dict[URIRef, str] = {}
        for target in targets:
            if plan.fallback_reason is not None:
                per_dataset[target.uri] = f"fan-out fallback: {plan.fallback_reason}"
            elif not plan.decomposed:
                try:
                    executable, _ = _unit_query(
                        self, plan.units[0], target, source_ontology, source_dataset,
                        mode, self.source_selector,
                    )
                    explain = getattr(target.endpoint, "explain", None)
                    per_dataset[target.uri] = (
                        explain(executable) if explain else executable.serialize()
                    )
                except (EndpointError, KeyError, ValueError) as exc:
                    per_dataset[target.uri] = f"error: {exc}"
            elif target.uri in plan.skipped:
                per_dataset[target.uri] = f"skipped: {plan.skipped[target.uri]}"
            elif plan.empty_reason is not None:
                per_dataset[target.uri] = f"not contacted: {plan.empty_reason}"
            else:
                lines: list[str] = []
                for index, unit in enumerate(plan.units):
                    if target.uri not in unit.sources:
                        continue
                    lines.append(f"unit {index + 1} [{_unit_kind(unit)}]")
                    sub_query = unit.sub_queries.get(target.uri)
                    if sub_query:
                        lines.extend(f"  {line}" for line in sub_query.strip().splitlines())
                per_dataset[target.uri] = "\n".join(lines) if lines else "no unit assigned"
        return per_dataset

    def decompose_plan(
        self,
        query: Query | str,
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
        datasets: Sequence[URIRef] | None = None,
    ):
        """The decomposed plan for ``query`` (source selection, units, joins).

        Builds the plan without executing the query; ``ASK`` probes may
        contact endpoints when the VoID statistics cannot settle a pattern
        and the engine is configured for probing.  A shape the decomposer
        cannot plan (a non-SELECT form included) yields the fan-out plan
        with its ``fallback_reason``.
        """
        from .decompose import decompose_query

        if isinstance(query, str):
            query = parse_query(query)
        return decompose_query(
            self, query, self._select_targets(datasets),
            source_ontology, source_dataset, mode,
            selector=self.source_selector,
            bind_join_batch=self.bind_join_batch,
        )

    def _select_targets(self, datasets: Sequence[URIRef] | None) -> list[RegisteredDataset]:
        if datasets is None:
            return self.registry.datasets()
        return [self.registry.get(uri) for uri in datasets]

    def call_endpoint(
        self,
        target: RegisteredDataset,
        executable: Query,
        kind: str = "select",
        timeout: float | None = None,
    ) -> tuple[ResultSet | None, int, str | None]:
        """One endpoint call governed by the dataset's policy and breaker.

        Returns ``(result, attempts, error)`` with exactly one of
        ``result``/``error`` set.  ``kind`` selects the endpoint operation
        (``select`` or ``ask``); ``timeout`` overrides the policy's
        per-attempt budget (used for cheap ASK probes).  This is the one
        place an endpoint is called: whole-query, sub-query and probe calls
        of both strategies all go through the same resilience machinery.
        """
        policy = self.registry.policy_for(target.uri)
        breaker = self.registry.breaker_for(target.uri)
        effective_timeout = policy.timeout if timeout is None else timeout
        last_error: str | None = None
        attempts = 0
        with get_tracer().start_span(
            "endpoint.call",
            {"dataset": str(target.uri), "kind": kind, "layer": "federation"},
        ) as span:
            for attempt in range(policy.max_attempts):
                if not breaker.allow():
                    last_error = f"circuit open for {target.uri}"
                    if span.recording:
                        span.add_event("breaker_open")
                    break
                attempts += 1
                before = breaker.state if span.recording else None
                try:
                    result = self._attempt(target, executable, effective_timeout, kind)
                    breaker.record_success()
                    if span.recording:
                        span.set_attribute("attempts", attempts)
                        if breaker.state != before:
                            span.add_event(
                                "breaker_transition",
                                from_state=before, to_state=breaker.state,
                            )
                    return result, attempts, None
                except (EndpointError, KeyError, ValueError) as exc:
                    breaker.record_failure()
                    last_error = str(exc)
                    if span.recording and breaker.state != before:
                        span.add_event(
                            "breaker_transition",
                            from_state=before, to_state=breaker.state,
                        )
                    if attempt < policy.max_retries:
                        delay = policy.retry_delay(attempt)
                        if span.recording:
                            span.add_event(
                                "retry",
                                attempt=attempts, error=last_error, delay=delay,
                            )
                        if delay > 0:
                            time.sleep(delay)
                except BaseException:
                    # Unexpected failure: still settle the breaker (a half-open
                    # probe reservation would otherwise leak and wedge the
                    # breaker refusing forever), then propagate the bug.
                    breaker.record_failure()
                    raise
            if span.recording:
                span.set_attribute("attempts", attempts)
                if last_error is not None:
                    span.set_attribute("error", last_error)
        return None, attempts, last_error

    @staticmethod
    def _attempt(
        target: RegisteredDataset,
        executable: Query,
        timeout: float | None,
        kind: str = "select",
    ):
        """One endpoint attempt, bounded by ``timeout`` seconds.

        The endpoint enforces the budget itself (a socket timeout, a capped
        simulated latency), so no thread is left behind when it fires.  An
        answer that still arrives after the budget is refused with
        :class:`EndpointTimeout`: an attempt succeeds only within its budget.
        """
        operation = getattr(target.endpoint, kind)
        if timeout is None:
            return operation(executable)
        started = time.perf_counter()
        result = operation(executable, timeout=timeout)
        if time.perf_counter() - started > timeout:
            raise EndpointTimeout(
                f"endpoint for {target.uri} timed out after {timeout:g}s"
            )
        return result

    def _canonical_uri(self, uri: URIRef, canonical_pattern: str | None) -> URIRef:
        if canonical_pattern:
            translated = self.sameas_service.lookup(uri, canonical_pattern)
            if translated is not None:
                return translated
        # No preferred URI space: use the lexicographically smallest member
        # of the bundle so co-referent URIs from different datasets collapse.
        bundle = self.sameas_service.equivalence_class(uri)
        return sorted(bundle, key=str)[0]


def _select_query(query: Query | str) -> SelectQuery:
    """``query`` parsed, or ``ValueError`` when it is not a SELECT query.

    The federation merges solution sequences, so it refuses any other form
    before an endpoint sees it (an endpoint answering ASK with a boolean
    would otherwise count as a failure against its breaker).
    """
    if isinstance(query, str):
        query = parse_query(query)
    if not isinstance(query, SelectQuery):
        raise ValueError(
            f"only SELECT queries can be federated (got {type(query).__name__})"
        )
    return query


# --------------------------------------------------------------------------- #
# Evaluation metrics
# --------------------------------------------------------------------------- #
def recall(retrieved: set, relevant: set) -> float:
    """|retrieved ∩ relevant| / |relevant| (1.0 when nothing is relevant)."""
    if not relevant:
        return 1.0
    return len(set(retrieved) & set(relevant)) / len(set(relevant))
