"""Federated query execution with co-reference-aware result merging.

The introduction of the paper motivates rewriting with *recall*: "the
information space on the Web of Data is highly redundant and data
repositories need to be integrated in order to provide high recall result
sets".  The federator implements that integration step:

1. the mediator rewrites the source query once per target dataset,
2. every rewritten query is executed on its dataset's endpoint —
   concurrently, under the per-endpoint :class:`ExecutionPolicy` (attempt
   timeout, bounded retries with exponential backoff) and circuit breaker
   recorded in the :class:`DatasetRegistry`,
3. the per-dataset result sets are merged; bindings whose URIs co-refer
   (per the sameas service) are collapsed onto a canonical representative
   so the merged result counts *entities*, not URIs.

Results are deterministic regardless of completion order: per-dataset
outcomes are collected by target index and merged in registry order, so
concurrent and sequential execution produce byte-identical merged result
sets.

:func:`recall` / :func:`precision` provide the evaluation metrics used by
Experiment E6.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from ..coreference import SameAsService
from ..core import MediationResult, Mediator
from ..obs.metrics import abandoned_attempts_gauge
from ..obs.trace import get_tracer
from ..rdf import Term, URIRef, Variable
from ..sparql import Binding, Query, ResultSet, parse_query
from .endpoint import EndpointError, EndpointTimeout
from .policy import ExecutionPolicy
from .registry import DatasetRegistry, RegisteredDataset

__all__ = ["DatasetResult", "FederatedResult", "FederatedQueryEngine", "recall", "precision", "f1_score"]

#: Default upper bound on concurrent endpoint requests per engine.
_DEFAULT_MAX_WORKERS = 16


@dataclass
class DatasetResult:
    """Result of running one (rewritten) query on one dataset.

    Under the fan-out strategy one entry describes one whole-query request
    (``result`` holds the endpoint's rows).  Under the decompose strategy a
    dataset may serve many sub-queries (exclusive groups, bound-join
    batches, ASK probes); then ``requests``/``rows_shipped`` aggregate the
    traffic and ``result`` stays ``None`` — the merged answer lives on the
    :class:`FederatedResult`.
    """

    dataset_uri: URIRef
    mediation: MediationResult | None
    result: ResultSet | None
    error: str | None = None
    #: Endpoint attempts made (> 1 when the policy retried).
    attempts: int = 1
    #: Wall-clock seconds spent on this dataset (mediation + endpoint).
    elapsed: float = 0.0
    #: Endpoint requests issued (decompose strategy; includes ASK probes).
    requests: int = 0
    #: Rows received from this endpoint across all sub-queries (decompose).
    rows_shipped: int | None = None

    @property
    def succeeded(self) -> bool:
        if self.error is not None:
            return False
        return self.result is not None or self.rows_shipped is not None

    @property
    def row_count(self) -> int:
        if self.rows_shipped is not None:
            return self.rows_shipped
        return len(self.result) if self.result is not None else 0


@dataclass
class FederatedResult:
    """Merged outcome of a federated query."""

    variables: list[Variable]
    per_dataset: list[DatasetResult] = field(default_factory=list)
    merged_bindings: list[Binding] = field(default_factory=list)
    #: Wall-clock seconds for the whole fan-out + merge.
    elapsed: float = 0.0
    #: Execution strategy that produced the result.
    strategy: str = "fanout"
    #: The decomposed plan, when ``strategy == "decompose"``.
    decomposition: DecomposedPlan | None = None
    #: Per-query run event (operator timings, endpoints contacted, rows
    #: shipped) when the strategy executed on the batched operator layer.
    run_event: QueryRunEvent | None = None

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
        """Endpoint attempts across the fan-out (retries included)."""
        return sum(entry.attempts for entry in self.per_dataset)

    @property
    def total_requests(self) -> int:
        """Endpoint requests issued (sub-queries and probes; decompose)."""
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
        for plain fan-out.
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
    ask_probes / probe_timeout:
        Whether source selection may issue ``ASK`` probes for patterns the
        VoID statistics cannot settle, and the per-probe time budget.
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
        probe_timeout: float | None = 2.0,
        bind_join_batch: int | None = None,
    ) -> None:
        from .decompose import DEFAULT_BIND_JOIN_BATCH

        if strategy not in ("fanout", "decompose"):
            raise ValueError(f"unknown federation strategy: {strategy!r}")
        self.mediator = mediator
        self.registry = registry
        self.sameas_service = sameas_service or mediator.sameas_service
        self.parallel = parallel
        self.max_workers = max_workers or _DEFAULT_MAX_WORKERS
        self.strategy = strategy
        self.ask_probes = ask_probes
        self.probe_timeout = probe_timeout
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

        Shared by every fan-out and every bound-join round of every query,
        so a round costs task hand-offs, not thread starts, and
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
        restricts the fan-out; ``canonical_pattern`` selects the URI space
        results are canonicalised into (defaults to the source dataset's
        pattern, falling back to plain deduplication).  ``parallel``
        overrides the engine's default execution mode for this call;
        ``strategy`` overrides the engine's default execution strategy
        (``"fanout"`` or ``"decompose"``).
        """
        if isinstance(query, str):
            query = parse_query(query)
        effective_strategy = strategy or self.strategy
        if effective_strategy == "decompose":
            from .decompose import execute_decomposed

            return execute_decomposed(
                self, query, self._select_targets(datasets),
                source_ontology, source_dataset, mode, canonical_pattern,
                selector=self.source_selector,
                bind_join_batch=self.bind_join_batch,
            )
        if effective_strategy != "fanout":
            raise ValueError(f"unknown federation strategy: {effective_strategy!r}")
        started = time.perf_counter()
        targets = self._select_targets(datasets)
        variables = self._result_variables(query)

        if canonical_pattern is None and source_dataset is not None and source_dataset in self.registry:
            canonical_pattern = self.registry.get(source_dataset).uri_pattern

        outcome = FederatedResult(variables=list(variables))
        outcome.per_dataset = self._fan_out(
            query, targets, source_ontology, source_dataset, mode,
            self.parallel if parallel is None else parallel,
        )
        outcome.merged_bindings = self._merge(
            (entry.result for entry in outcome.per_dataset if entry.result is not None),
            variables,
            canonical_pattern,
        )
        outcome.elapsed = time.perf_counter() - started
        return outcome

    def analyze(
        self,
        query: Query | str,
        **kwargs,
    ) -> tuple[FederatedResult, QueryRunEvent]:
        """EXPLAIN ANALYZE for a federated query: ``(result, event)``.

        Accepts the same keyword arguments as :meth:`execute`.  Under the
        decompose strategy the event carries the mediator pipeline's
        per-operator metrics; under fan-out it summarises the per-dataset
        traffic (requests, attempts, rows shipped).
        """
        from ..sparql.exec import QueryRunEvent

        query_text = query if isinstance(query, str) else query.serialize()
        outcome = self.execute(query, **kwargs)
        event = outcome.run_event
        if event is None:
            event = QueryRunEvent(
                query=query_text,
                engine=f"federate-{outcome.strategy}",
                elapsed=outcome.elapsed,
                rows=len(outcome.merged_bindings),
                endpoints=[
                    {
                        "dataset": str(entry.dataset_uri),
                        "requests": entry.requests or entry.attempts,
                        "attempts": entry.attempts,
                        "rows_shipped": entry.row_count,
                        "errors": [entry.error] if entry.error else [],
                    }
                    for entry in outcome.per_dataset
                ],
                rows_shipped=outcome.total_rows,
            )
            outcome.run_event = event
        event.query = query_text
        return outcome, event

    def lint(
        self,
        query: Query | str,
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
        datasets: Sequence[URIRef] | None = None,
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
            for target in self._select_targets(datasets)
            if self.registry.breaker_for(target.uri).state != "open"
        ]
        federation = analyze_federation(
            query, self.source_selector, usable,
            source_ontology, source_dataset, mode, analysis=local,
        )
        diagnostics.extend(federation.diagnostics)
        return diagnostics

    def execute_many(
        self,
        queries: Sequence[Query | str],
        source_ontology: URIRef | None = None,
        source_dataset: URIRef | None = None,
        mode: str = "bgp",
        datasets: Sequence[URIRef] | None = None,
        canonical_pattern: str | None = None,
        parallel: bool | None = None,
        strategy: str | None = None,
    ) -> list[FederatedResult]:
        """Run a batch of queries over the federation (same order as input).

        The mediator's :meth:`~repro.core.Mediator.rewrite_many` batch API
        pre-translates the whole batch per target dataset, so alignment
        selection/compilation is paid once per target instead of once per
        (query, target) pair; the per-query :meth:`execute` calls then
        replay the cached rewrites.
        """
        parsed: list[Query] = [
            parse_query(query) if isinstance(query, str) else query for query in queries
        ]
        warm_targets = [
            target for target in self._select_targets(datasets)
            if source_dataset is None or target.uri != source_dataset
        ]
        # Warming is only useful while the whole batch fits in the rewrite
        # cache; beyond that the replay loop would evict-and-recompute every
        # entry, doubling the work instead of saving it.
        if len(parsed) * max(1, len(warm_targets)) <= self.mediator.result_cache_limit // 2:
            for target in warm_targets:
                try:
                    self.mediator.rewrite_many(parsed, target.uri, source_ontology, mode)
                except (EndpointError, KeyError, ValueError):
                    # Per-dataset failures are reported by execute(), per query.
                    continue
        return [
            self.execute(query, source_ontology, source_dataset, mode, datasets,
                         canonical_pattern, parallel, strategy)
            for query in parsed
        ]

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
        if isinstance(query, str):
            query = parse_query(query)
        if (strategy or self.strategy) == "decompose":
            plan = self.decompose_plan(query, source_ontology, source_dataset,
                                       mode, datasets)
            return self._explain_decomposed(plan, datasets)
        plans: dict[URIRef, str] = {}
        for target in self._select_targets(datasets):
            try:
                if source_dataset is not None and target.uri == source_dataset:
                    executable: Query = query
                else:
                    executable = self.mediator.translate(
                        query, target.uri, source_ontology, mode
                    ).rewritten_query
                if hasattr(target.endpoint, "explain"):
                    plans[target.uri] = target.endpoint.explain(executable)
                else:
                    plans[target.uri] = executable.serialize()
            except (EndpointError, KeyError, ValueError) as exc:
                plans[target.uri] = f"error: {exc}"
        return plans

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
        and the engine is configured for probing.
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

    def _explain_decomposed(
        self, plan, datasets: Sequence[URIRef] | None
    ) -> dict[URIRef, str]:
        """Slice a decomposed plan into the per-dataset EXPLAIN payloads."""
        per_dataset: dict[URIRef, str] = {}
        for target in self._select_targets(datasets):
            if plan.fallback_reason is not None:
                per_dataset[target.uri] = f"fan-out fallback: {plan.fallback_reason}"
                continue
            if target.uri in plan.skipped:
                per_dataset[target.uri] = f"skipped: {plan.skipped[target.uri]}"
                continue
            if plan.empty_reason is not None:
                per_dataset[target.uri] = f"not contacted: {plan.empty_reason}"
                continue
            lines: list[str] = []
            for index, unit in enumerate(plan.units):
                if target.uri not in unit.sources:
                    continue
                from .decompose import _unit_kind

                lines.append(f"unit {index + 1} [{_unit_kind(unit)}]")
                sub_query = unit.sub_queries.get(target.uri)
                if sub_query:
                    lines.extend(f"  {line}" for line in sub_query.strip().splitlines())
            per_dataset[target.uri] = "\n".join(lines) if lines else "no unit assigned"
        return per_dataset

    def _select_targets(self, datasets: Sequence[URIRef] | None) -> list[RegisteredDataset]:
        if datasets is None:
            return self.registry.datasets()
        return [self.registry.get(uri) for uri in datasets]

    @staticmethod
    def _result_variables(query: Query) -> list[Variable]:
        projection = getattr(query, "projection", None)
        if projection:
            return list(projection)
        return sorted(query.variables(), key=str)

    # ------------------------------------------------------------------ #
    # Fan-out
    # ------------------------------------------------------------------ #
    def _fan_out(
        self,
        query: Query,
        targets: Sequence[RegisteredDataset],
        source_ontology: URIRef | None,
        source_dataset: URIRef | None,
        mode: str,
        parallel: bool,
    ) -> list[DatasetResult]:
        """One :class:`DatasetResult` per target, in target order."""
        if not parallel or len(targets) <= 1:
            return [
                self._run_on_dataset(query, target, source_ontology, source_dataset, mode)
                for target in targets
            ]
        pool = self.worker_pool()
        # copy_context() per task (a Context cannot be entered by two
        # threads at once): each worker sees the submitting thread's
        # active span, so per-dataset spans nest under the request.
        futures = [
            pool.submit(
                contextvars.copy_context().run,
                self._run_on_dataset, query, target,
                source_ontology, source_dataset, mode,
            )
            for target in targets
        ]
        return [future.result() for future in futures]

    def _run_on_dataset(
        self,
        query: Query,
        target: RegisteredDataset,
        source_ontology: URIRef | None,
        source_dataset: URIRef | None,
        mode: str,
    ) -> DatasetResult:
        """Rewrite for one dataset, then execute under its policy."""
        started = time.perf_counter()
        mediation: MediationResult | None = None
        try:
            if source_dataset is not None and target.uri == source_dataset:
                executable: Query = query
            else:
                mediation = self.mediator.translate(query, target.uri, source_ontology, mode)
                executable = mediation.rewritten_query
        except (EndpointError, KeyError, ValueError) as exc:
            return DatasetResult(target.uri, mediation, None, error=str(exc),
                                 attempts=0, elapsed=time.perf_counter() - started)

        result, attempts, last_error = self.call_endpoint(target, executable)
        return DatasetResult(target.uri, mediation, result, error=last_error,
                             attempts=attempts,
                             elapsed=time.perf_counter() - started)

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
        per-attempt budget (used for cheap ASK probes).  This is the shared
        execution primitive of both strategies: the fan-out path issues one
        whole-query call per dataset, the decomposer issues many sub-query
        and probe calls — all through the same resilience machinery.
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

        Endpoints expose no cancellation, so the attempt runs on a daemon
        thread and is abandoned on timeout — exactly how an HTTP client
        would drop a socket while the server keeps computing.  Abandoned
        attempts are visible while they last: the per-dataset
        ``repro_abandoned_attempts`` gauge is incremented by the waiter
        when it gives up and decremented by the attempt thread when it
        finally finishes, so a non-zero value means a thread is still
        burning cycles behind a timeout that already fired.
        """
        operation = getattr(target.endpoint, kind)
        if timeout is None:
            return operation(executable)
        box: dict[str, object] = {}
        done = threading.Event()
        # Waiter and attempt thread agree under this lock on whether the
        # attempt was abandoned; whichever side arrives second settles the
        # gauge, so an attempt finishing in the same instant the timeout
        # fires can never leak an increment.
        state_lock = threading.Lock()
        state = {"abandoned": False, "finished": False}
        gauge = abandoned_attempts_gauge()
        dataset = str(target.uri)

        def run() -> None:
            try:
                box["result"] = operation(executable)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                box["error"] = exc
            finally:
                done.set()
                with state_lock:
                    state["finished"] = True
                    if state["abandoned"]:
                        gauge.dec(dataset=dataset)

        context = contextvars.copy_context()
        thread = threading.Thread(
            target=lambda: context.run(run), daemon=True, name=f"attempt-{target.uri}"
        )
        thread.start()
        if not done.wait(timeout):
            with state_lock:
                if not state["finished"]:
                    state["abandoned"] = True
                    gauge.inc(dataset=dataset)
            raise EndpointTimeout(
                f"endpoint for {target.uri} timed out after {timeout:g}s"
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["result"]  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #
    def _merge(
        self,
        result_sets: Iterable[ResultSet],
        variables: Sequence[Variable],
        canonical_pattern: str | None,
    ) -> list[Binding]:
        merged: list[Binding] = []
        seen: set[frozenset] = set()
        for result_set in result_sets:
            for binding in result_set:
                canonical = self._canonicalise(binding, variables, canonical_pattern)
                key = frozenset(canonical.as_dict().items())
                if key not in seen:
                    seen.add(key)
                    merged.append(canonical)
        return merged

    def _canonicalise(
        self,
        binding: Binding,
        variables: Sequence[Variable],
        canonical_pattern: str | None,
    ) -> Binding:
        data: dict[Variable, Term] = {}
        for variable in variables:
            term = binding.get_term(variable)
            if term is None:
                continue
            if isinstance(term, URIRef):
                term = self._canonical_uri(term, canonical_pattern)
            data[variable] = term
        return Binding(data)

    def _canonical_uri(self, uri: URIRef, canonical_pattern: str | None) -> URIRef:
        if canonical_pattern:
            translated = self.sameas_service.lookup(uri, canonical_pattern)
            if translated is not None:
                return translated
        # No preferred URI space: use the lexicographically smallest member
        # of the bundle so co-referent URIs from different datasets collapse.
        bundle = self.sameas_service.equivalence_class(uri)
        return sorted(bundle, key=str)[0]


# --------------------------------------------------------------------------- #
# Evaluation metrics
# --------------------------------------------------------------------------- #
def recall(retrieved: set, relevant: set) -> float:
    """|retrieved ∩ relevant| / |relevant| (1.0 when nothing is relevant)."""
    if not relevant:
        return 1.0
    return len(set(retrieved) & set(relevant)) / len(set(relevant))


def precision(retrieved: set, relevant: set) -> float:
    """|retrieved ∩ relevant| / |retrieved| (1.0 when nothing is retrieved)."""
    if not retrieved:
        return 1.0
    return len(set(retrieved) & set(relevant)) / len(set(retrieved))


def f1_score(retrieved: set, relevant: set) -> float:
    """Harmonic mean of precision and recall."""
    p = precision(retrieved, relevant)
    r = recall(retrieved, relevant)
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)
