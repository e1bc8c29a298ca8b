"""Federated query planning and execution: one plan, one executor, two strategies.

The paper's integration step rewrites the source query once per target
dataset, runs each rewrite on its endpoint and merges the answers with
co-referent URIs collapsed.  Every federated query here is planned by
:func:`decompose_query` into a :class:`DecomposedPlan` — ordered units
(:class:`QueryUnit`), each a piece of the query and the sources it runs on —
and executed by one mediator pipeline on the batched operator layer
(:mod:`repro.sparql.exec`).  The two strategies differ only in the plan:

* ``fanout`` is the degenerate plan: one *whole-query unit* whose sources
  are every selected dataset.  The source dataset is sent the query as
  written, every other dataset the mediator's rewrite of it.  Planning it
  runs no analysis, no source selection and no probe, and each endpoint
  applies the query's FILTERs and solution modifiers itself, so the
  mediator only canonicalises, projects and deduplicates the union.
* ``decompose`` is FedX-style:

  1. **Source selection** — for every triple pattern of the source query,
     decide per dataset whether the pattern's *translation* for that
     dataset can match anything there.  The decision is answered from the
     dataset's VoID vocabulary statistics (``void:propertyPartition`` /
     ``void:classPartition``, refreshed from the graph's live
     :class:`~repro.rdf.GraphStatistics` for in-process endpoints) and falls
     back to an ``ASK`` probe for patterns the statistics cannot settle.
     Decisions are cached per alignment-KB generation (a KB edit changes
     the translations, hence the decisions).
  2. **Groups** — patterns that one source can join by itself are shipped
     to it as *one* sub-query, so the endpoint evaluates the group's joins
     locally.  Two facts about the sources allow that.  *Exclusive groups*:
     patterns whose sole relevant source coincides.  *Co-located groups*:
     patterns that share a subject and whose relevant sources are all
     members of one subject-hash partition
     (:class:`~repro.federation.void.SubjectPartition`, declared by
     :func:`~repro.federation.shard.shard_graph`) — every triple about one
     subject sits on one member, so each member joins the star over its own
     subjects; the group runs on the members relevant to all of its
     patterns, and on the owning member alone when the subject is ground.
     Everything else (a relevant source outside the partition, members of
     different partitions, a translation that moves the subject) stands
     alone as a one-pattern unit.
  3. **Bound joins** — cross-source joins run at the mediator: the rows
     produced so far are shipped to the next unit's sources as ``VALUES``
     blocks (as few as :data:`DEFAULT_BIND_JOIN_BATCH` allows), so
     endpoints only evaluate the pattern against bindings that can still
     join.  When the join binds the subject of a co-located unit, each key
     is sent only to the member it hashes to rather than to all of them.

  The mediator then canonicalises URIs, applies the source-level FILTERs
  and the solution modifiers *globally* (``LIMIT 10`` yields ten merged
  rows and stops pulling bound-join batches once they are found), projects
  and deduplicates.  A shape the decomposer cannot plan — anything but a
  SELECT over a basic graph pattern plus FILTERs (no OPTIONAL/UNION/nested
  groups, no blank nodes in patterns) — gets the
  fan-out plan instead, with :attr:`DecomposedPlan.fallback_reason` saying
  why.

Because fan-out ships the modifiers to every endpoint and merges the
per-endpoint slices, the strategies can legitimately differ on
LIMIT/OFFSET queries; the differential suite
(``tests/federation/test_decompose_differential.py`` and its loopback
variant) pins them equal on the E6/E7 scenarios for modifier-free and
ORDER-BY-only queries.  Every endpoint call goes through
:meth:`~repro.federation.FederatedQueryEngine.call_endpoint`, so retries,
circuit breakers and tracing apply to both strategies alike.
"""

from __future__ import annotations

import contextvars
import time
from dataclasses import dataclass, field, replace
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any

from ..core import MediationResult
from ..obs.trace import get_tracer
from ..rdf import BNode, Graph, GraphView, RDF, Term, Triple, URIRef, Variable
from ..sparql import (
    AskQuery,
    Binding,
    Filter,
    GroupGraphPattern,
    InlineData,
    Prologue,
    Query,
    SelectQuery,
    TriplesBlock,
)
from ..sparql.evaluator import pattern_text
from ..sparql.exec import (
    UNBOUND,
    Batch,
    ExecContext,
    Schema,
    VecBindJoinOp,
    VecDistinctOp,
    VecFilterOp,
    VecOperator,
    VecOrderByOp,
    VecProjectOp,
    VecSliceOp,
    extend_schema,
    external_columns,
    seed_batches,
)
from .endpoint import EndpointError
from .registry import RegisteredDataset
from .shard import SUBJECT_HASH_SCHEME, shard_for_subject
from .void import SubjectPartition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .federator import FederatedQueryEngine, FederatedResult

__all__ = [
    "DEFAULT_BIND_JOIN_BATCH",
    "STRATEGIES",
    "SourceDecision",
    "PatternSources",
    "QueryUnit",
    "DecomposedPlan",
    "SourceSelector",
    "decompose_query",
    "execute_decomposed",
]

#: Default ceiling on the left rows shipped per bound-join ``VALUES`` block.
#: A sub-request costs the mediator and the endpoint ~1 ms of CPU before its
#: first row (thread hand-off, HTTP framing, parse, plan) and ~35 us per
#: VALUES row after that, so a unit ships its whole left side in one block
#: whenever it fits; 256 rows of IRIs stay two orders of magnitude under the
#: server's 1 MiB request-body limit.  A smaller ``bind_join_batch`` trades
#: rounds for an earlier LIMIT exit.
DEFAULT_BIND_JOIN_BATCH = 256

#: The federation strategies a plan can be built for.
STRATEGIES = ("fanout", "decompose")


# --------------------------------------------------------------------------- #
# Plan data model
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SourceDecision:
    """Why one dataset is (ir)relevant for one source-level pattern."""

    dataset_uri: URIRef
    relevant: bool
    reason: str
    #: Cardinality estimate for the pattern on this dataset (for ordering).
    estimate: float = 0.0
    #: Whether every pattern of the translation still has the source
    #: pattern's subject as its subject (co-located grouping needs it).
    subject_kept: bool = False


@dataclass
class PatternSources:
    """Source-selection outcome for one source-level triple pattern."""

    pattern: Triple
    decisions: list[SourceDecision] = field(default_factory=list)

    def relevant_uris(self) -> list[URIRef]:
        return [d.dataset_uri for d in self.decisions if d.relevant]

    def decision_for(self, uri: URIRef) -> SourceDecision | None:
        for decision in self.decisions:
            if decision.dataset_uri == uri:
                return decision
        return None


@dataclass
class QueryUnit:
    """One execution unit: a pattern group and the sources it runs on."""

    patterns: list[Triple]
    sources: list[URIRef]
    exclusive: bool = False
    #: Join variables shared with the rows produced by earlier units
    #: (filled in once the join order is fixed).
    join_variables: list[Variable] = field(default_factory=list)
    estimate: float = 0.0
    #: Rendered sub-query text per source (for EXPLAIN).
    sub_queries: dict[URIRef, str] = field(default_factory=dict)
    #: Co-located units only: the subject every pattern shares, and the
    #: partition membership of each source.
    subject: Term | None = None
    members: dict[URIRef, SubjectPartition] = field(default_factory=dict)
    #: Whole-query units only (fan-out): the source query, which every
    #: source answers in full, modifiers included.
    query: Query | None = None

    def variables(self) -> set[Variable]:
        if self.query is not None:
            return set(_result_variables(self.query))
        result: set[Variable] = set()
        for pattern in self.patterns:
            result |= pattern.variables()
        return result


@dataclass
class DecomposedPlan:
    """The decomposer's output: ordered units plus the selection evidence."""

    units: list[QueryUnit] = field(default_factory=list)
    pattern_sources: list[PatternSources] = field(default_factory=list)
    #: Datasets excluded from the whole query, with the reason
    #: (no relevant pattern, open breaker, translation failure).
    skipped: dict[URIRef, str] = field(default_factory=dict)
    #: Set when some required pattern has no relevant source at all: the
    #: result is provably empty and no endpoint is contacted.
    empty_reason: str | None = None
    #: Set when the decomposer cannot plan the query's shape, which then
    #: gets the fan-out plan.
    fallback_reason: str | None = None
    bind_join_batch: int = DEFAULT_BIND_JOIN_BATCH
    #: ASK probes issued during source selection.
    probes: int = 0
    #: Static-analysis diagnostics (local analyzer + federation analyzer),
    #: surfaced before any endpoint sees the query.
    diagnostics: list = field(default_factory=list)

    @property
    def decomposed(self) -> bool:
        """False for the fan-out plan: one whole-query unit."""
        return not (self.units and self.units[0].query is not None)

    def explain(self) -> str:
        """EXPLAIN-style rendering of the decomposed plan."""
        lines = [f"decomposed federated plan (bind-join batch {self.bind_join_batch})"]
        if self.fallback_reason is not None:
            lines.append(f"  fallback to fan-out: {self.fallback_reason}")
            return "\n".join(lines)
        if self.empty_reason is not None:
            lines.append(f"  empty result: {self.empty_reason}")
            lines.append("  no endpoint is contacted")
        for index, unit in enumerate(self.units):
            lines.append(f"  unit {index + 1} {_unit_label(unit, seed=index == 0)}")
            for pattern in unit.patterns:
                lines.append(f"    pattern {pattern_text(pattern)}")
            for uri in unit.sources:
                lines.append(f"    source {uri}")
                sub_query = unit.sub_queries.get(uri)
                if sub_query:
                    for sub_line in sub_query.strip().splitlines():
                        lines.append(f"      | {sub_line}")
        if self.skipped:
            for uri in sorted(self.skipped, key=str):
                lines.append(f"  skipped {uri}: {self.skipped[uri]}")
        if self.probes:
            lines.append(f"  ASK probes issued: {self.probes}")
        return "\n".join(lines)


def _unit_kind(unit: QueryUnit) -> str:
    """Human label for a unit: only multi-pattern units are *groups*
    (sole-source ones in the FedX sense, co-located ones per partition
    member); a lone pattern is just a pattern."""
    if unit.query is not None:
        return "whole query"
    if unit.subject is not None and len(unit.patterns) > 1:
        return "co-located group"
    if unit.exclusive and len(unit.patterns) > 1:
        return "exclusive group"
    if unit.exclusive:
        return "exclusive pattern"
    return "pattern"


def _unit_label(unit: QueryUnit, seed: bool) -> str:
    """``[kind; join; est=N]``: what a unit is and how it meets the rows
    produced before it, as both EXPLAIN and ANALYZE print it."""
    if seed:
        join = "seed scan"
    elif not unit.join_variables:
        join = "cross join"
    else:
        rendered = " ".join(f"?{v.name}" for v in unit.join_variables)
        routed = ", keys routed by subject hash" if unit.subject in unit.join_variables else ""
        join = f"bound join on ({rendered}){routed}"
    return f"[{_unit_kind(unit)}; {join}; est={unit.estimate:.1f}]"


# --------------------------------------------------------------------------- #
# Source selection
# --------------------------------------------------------------------------- #
class SourceSelector:
    """Per-pattern, per-dataset relevance decisions.

    Decisions are derived from (in order of preference)

    1. the endpoint's live graph statistics (in-process endpoints),
    2. the dataset's advertised VoID partitions (remote endpoints),
    3. an ``ASK`` probe of the translated pattern (unknown vocabulary),
       falling back to *broadcast* (assume relevant) when the probe itself
       fails or times out — never losing answers to a flaky probe.

    The cache is keyed by the alignment KB generation (translations change
    with the KB) and, for in-process endpoints, the graph version (the
    vocabulary changes with the data).
    """

    def __init__(
        self,
        engine: FederatedQueryEngine,
        ask_probes: bool = True,
        probe_timeout: float | None = 2.0,
    ) -> None:
        self._engine = engine
        self.ask_probes = ask_probes
        self.probe_timeout = probe_timeout
        self._cache: dict[tuple, SourceDecision] = {}
        self._cache_generation: int | None = None
        #: Probe traffic of the most recent selection round, per dataset:
        #: ``uri -> (requests, attempts, last_error)``.
        self.probe_traffic: dict[URIRef, list[int]] = {}
        self.probes_issued = 0

    # -- cache ----------------------------------------------------------- #
    def _check_generation(self) -> None:
        generation = self._engine.mediator.alignment_store.generation
        if generation != self._cache_generation:
            self._cache.clear()
            self._cache_generation = generation

    def _cache_key(
        self,
        pattern: Triple,
        target: RegisteredDataset,
        graph: GraphView | None,
        source_ontology: URIRef | None,
        source_dataset: URIRef | None,
        mode: str,
    ) -> tuple:
        return (
            target.uri,
            graph.version if graph is not None else -1,
            pattern_text(pattern),
            source_ontology,
            source_dataset == target.uri,
            mode,
            # A decision taken without probing ("broadcast") must not
            # shadow the probed decision once probes are (re-)enabled.
            self.ask_probes,
        )

    # -- vocabulary ------------------------------------------------------ #
    @staticmethod
    def _vocabulary(
        target: RegisteredDataset, graph: GraphView | None
    ) -> tuple[frozenset | None, frozenset | None]:
        """``(predicates, classes)`` the dataset can serve; ``None`` = unknown."""
        if graph is not None:
            stats = graph.stats
            predicates = frozenset(
                term for term in stats.predicate_counts if isinstance(term, URIRef)
            )
            classes = frozenset(
                term for term in stats.class_counts if isinstance(term, URIRef)
            )
            return predicates, classes
        description = target.description
        if description.advertises_vocabulary:
            predicates = description.predicates()
            if RDF.type in predicates and not description.class_partitions:
                classes: frozenset | None = None
            else:
                classes = description.classes()
            return predicates, classes
        return None, None

    @staticmethod
    def _estimate(
        target: RegisteredDataset, graph: GraphView | None, patterns: Sequence[Triple]
    ) -> float:
        """Cardinality estimate for a translated pattern group on a dataset."""
        estimates: list[float] = []
        for pattern in patterns:
            if graph is not None:
                estimates.append(
                    float(graph.cardinality(pattern.subject, pattern.predicate, pattern.object))
                )
            elif isinstance(pattern.predicate, URIRef):
                advertised = target.description.predicate_count(pattern.predicate)
                if advertised is not None:
                    estimates.append(float(advertised))
        if estimates:
            return min(estimates)
        if target.description.triple_count is not None:
            return float(target.description.triple_count)
        return 1000.0

    # -- translation ----------------------------------------------------- #
    def translate_patterns(
        self,
        patterns: Sequence[Triple],
        target: RegisteredDataset,
        source_ontology: URIRef | None,
        source_dataset: URIRef | None,
        mode: str,
    ) -> list[Triple]:
        """The dataset-local form of a source pattern group."""
        if source_dataset is not None and target.uri == source_dataset:
            return list(patterns)
        query = SelectQuery(
            Prologue(), [], GroupGraphPattern([TriplesBlock(list(patterns))])
        )
        mediation = self._engine.mediator.translate(
            query, target.uri, source_ontology, mode
        )
        return mediation.rewritten_query.all_triple_patterns()

    # -- decisions ------------------------------------------------------- #
    def decide(
        self,
        pattern: Triple,
        target: RegisteredDataset,
        source_ontology: URIRef | None,
        source_dataset: URIRef | None,
        mode: str,
    ) -> SourceDecision:
        """Is ``pattern`` (translated for ``target``) answerable there?"""
        self._check_generation()
        graph = target.local_graph()
        key = self._cache_key(pattern, target, graph, source_ontology, source_dataset, mode)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        decision = self._decide_uncached(
            pattern, target, graph, source_ontology, source_dataset, mode
        )
        self._cache[key] = decision
        return decision

    def _decide_uncached(
        self,
        pattern: Triple,
        target: RegisteredDataset,
        graph: GraphView | None,
        source_ontology: URIRef | None,
        source_dataset: URIRef | None,
        mode: str,
    ) -> SourceDecision:
        try:
            translated = self.translate_patterns(
                [pattern], target, source_ontology, source_dataset, mode
            )
        except (KeyError, ValueError) as exc:
            # Fan-out reports the same failure as a zero-row dataset error,
            # so excluding the dataset preserves the merged result.
            return SourceDecision(target.uri, False, f"translation failed: {exc}")

        predicates, classes = self._vocabulary(target, graph)
        unknown: list[Triple] = []
        for candidate in translated:
            predicate = candidate.predicate
            if isinstance(predicate, URIRef) and predicates is not None:
                if predicate not in predicates:
                    return SourceDecision(
                        target.uri, False,
                        f"vocabulary: {predicate.n3()} not in dataset",
                    )
                if (
                    predicate == RDF.type
                    and isinstance(candidate.object, URIRef)
                    and classes is not None
                    and candidate.object not in classes
                ):
                    return SourceDecision(
                        target.uri, False,
                        f"class: {candidate.object.n3()} not in dataset",
                    )
            elif isinstance(predicate, URIRef) and predicates is None:
                unknown.append(candidate)
            else:
                # Variable predicate: statistics cannot refute it.
                unknown.append(candidate)
        estimate = self._estimate(target, graph, translated)
        if not unknown:
            decision = SourceDecision(target.uri, True, "vocabulary", estimate)
        elif not self.ask_probes:
            decision = SourceDecision(
                target.uri, True, "broadcast (probes disabled)", estimate
            )
        else:
            decision = self._probe(target, translated, estimate)
        subject_kept = all(candidate.subject == pattern.subject for candidate in translated)
        return replace(decision, subject_kept=subject_kept)

    def _probe(
        self,
        target: RegisteredDataset,
        translated: Sequence[Triple],
        estimate: float,
    ) -> SourceDecision:
        """ASK the endpoint whether the translated group matches anything.

        Probes run under the dataset's policy and circuit breaker through
        the engine's shared execution primitive; a probe that fails or
        times out falls back to *broadcast* for the pattern (the endpoint
        will be queried normally) rather than silently dropping answers.
        """
        probe = AskQuery(
            Prologue(), GroupGraphPattern([TriplesBlock(list(translated))])
        )
        self.probes_issued += 1
        traffic = self.probe_traffic.setdefault(target.uri, [0, 0])
        traffic[0] += 1
        result, attempts, error = self._engine.call_endpoint(
            target, probe, kind="ask", timeout=self.probe_timeout
        )
        traffic[1] += attempts
        if error is not None or result is None:
            return SourceDecision(
                target.uri, True, f"broadcast (probe failed: {error})", estimate
            )
        if bool(result):
            return SourceDecision(target.uri, True, "ask-probe", estimate)
        return SourceDecision(target.uri, False, "ask-probe: no match")


# --------------------------------------------------------------------------- #
# Decomposition
# --------------------------------------------------------------------------- #
def decompose_query(
    engine: FederatedQueryEngine,
    query: Query,
    targets: Sequence[RegisteredDataset],
    source_ontology: URIRef | None = None,
    source_dataset: URIRef | None = None,
    mode: str = "bgp",
    selector: SourceSelector | None = None,
    bind_join_batch: int = DEFAULT_BIND_JOIN_BATCH,
    render_sub_queries: bool = True,
    strategy: str = "decompose",
) -> DecomposedPlan:
    """Build the plan for ``query`` over ``targets`` under ``strategy``.

    ``fanout`` (and a ``decompose`` query whose shape the decomposer cannot
    plan) yields one whole-query unit over every target.  Never executes
    the query itself (ASK probes may contact endpoints when the selector is
    configured for them).
    """
    from ..sparql.analysis import analyze_federation, analyze_query

    if strategy not in STRATEGIES:
        raise ValueError(f"unknown federation strategy: {strategy!r}")
    plan = DecomposedPlan(bind_join_batch=bind_join_batch)
    if strategy == "fanout":
        return _fan_out_plan(plan, query, targets)
    if selector is None:
        selector = SourceSelector(engine)

    # Local static analysis first: a query the analyzer proves empty
    # (unsatisfiable FILTER, empty VALUES, ...) never reaches source
    # selection — zero ASK probes, zero endpoint requests.
    local = analyze_query(query)
    plan.diagnostics = list(local.diagnostics)
    if local.provably_empty:
        plan.empty_reason = local.empty_reason
        return plan

    # Probe traffic is attributed to the call that triggers the probes;
    # whatever an earlier explain/plan left behind is not this call's.
    selector.probe_traffic.clear()

    usable: list[RegisteredDataset] = []
    for target in targets:
        state = engine.registry.breaker_for(target.uri).state
        if state == "open":
            plan.skipped[target.uri] = "circuit open"
            continue
        usable.append(target)

    federation = analyze_federation(
        query, selector, usable, source_ontology, source_dataset, mode
    )
    plan.diagnostics.extend(federation.diagnostics)
    plan.pattern_sources = federation.pattern_sources
    plan.probes = federation.probes
    if federation.fallback_reason is not None:
        plan.fallback_reason = federation.fallback_reason
        return _fan_out_plan(plan, query, targets)
    plan.empty_reason = federation.empty_reason

    for target in usable:
        if not any(
            sources.decision_for(target.uri) is not None
            and sources.decision_for(target.uri).relevant  # type: ignore[union-attr]
            for sources in plan.pattern_sources
        ):
            plan.skipped.setdefault(target.uri, "no relevant pattern")

    if plan.empty_reason is not None:
        return plan

    targets_by_uri = {target.uri: target for target in usable}
    units = _build_units(plan.pattern_sources, targets_by_uri)
    for unit in units:
        if not unit.sources:
            # The members relevant to each pattern do not overlap (or a
            # ground subject's owner is not among them): no subject can
            # match the whole group.
            rendered = " . ".join(pattern_text(pattern) for pattern in unit.patterns)
            plan.empty_reason = f"no partition member can match all of {rendered}"
            return plan
    plan.units = _order_units(units, targets_by_uri, plan.pattern_sources)

    if render_sub_queries:
        bound: set[Variable] = set()
        for unit in plan.units:
            unit.join_variables = sorted(unit.variables() & bound, key=str)
            bound |= unit.variables()
            for uri in unit.sources:
                try:
                    executable, _ = _unit_query(
                        engine, unit, targets_by_uri[uri],
                        source_ontology, source_dataset, mode, selector,
                    )
                except (KeyError, ValueError) as exc:
                    unit.sub_queries[uri] = f"error: {exc}"
                    continue
                if unit.join_variables:
                    marker = " ".join(f"?{v.name}" for v in unit.join_variables)
                    executable = _with_bindings(
                        executable, InlineData(list(unit.join_variables), [])
                    )
                    unit.sub_queries[uri] = executable.serialize().replace(
                        f"VALUES ({marker}) {{\n  }}",
                        f"VALUES ({marker}) {{ ...bound-join batch... }}",
                    )
                else:
                    unit.sub_queries[uri] = executable.serialize()
    return plan


def _fan_out_plan(
    plan: DecomposedPlan, query: Query, targets: Sequence[RegisteredDataset]
) -> DecomposedPlan:
    """``plan`` as one whole-query unit over every target.

    Every target is called, an open breaker included: the call itself
    reports the breaker (or lets a half-open probe through).
    """
    plan.skipped.clear()
    plan.units = [QueryUnit([], [target.uri for target in targets], query=query)]
    return plan


def _supported_shape(
    query: Query,
) -> tuple[list[Triple], list[Filter], str | None]:
    """``(patterns, filters, fallback_reason)`` for the query's WHERE clause."""
    if not isinstance(query, SelectQuery):
        return [], [], f"unsupported query form: {type(query).__name__}"
    patterns: list[Triple] = []
    filters: list[Filter] = []
    for element in query.where.elements:
        if isinstance(element, TriplesBlock):
            patterns.extend(element.patterns)
        elif isinstance(element, Filter):
            filters.append(element)
        else:
            return [], [], f"unsupported pattern element: {type(element).__name__}"
    if not patterns:
        return [], [], "query has no triple patterns"
    for pattern in patterns:
        if any(isinstance(term, BNode) for term in pattern):
            return [], [], "blank nodes in patterns are query-scoped"
    return patterns, filters, None


def _partition_members(
    sources: PatternSources, targets_by_uri: dict[URIRef, RegisteredDataset]
) -> dict[URIRef, SubjectPartition]:
    """The partition membership of each relevant source of a pattern.

    Empty unless all of them are members of the same partition, hashed the
    way :func:`shard_for_subject` hashes, with translations that keep the
    pattern's subject — only then is every match of the pattern on the
    member its subject hashes to.
    """
    members: dict[URIRef, SubjectPartition] = {}
    for decision in sources.decisions:
        if not decision.relevant:
            continue
        member = targets_by_uri[decision.dataset_uri].description.partition
        if member is None or member.scheme != SUBJECT_HASH_SCHEME or not decision.subject_kept:
            return {}
        members[decision.dataset_uri] = member
    if len({(member.id, member.count) for member in members.values()}) > 1:
        return {}
    return members


def _build_units(
    pattern_sources: Sequence[PatternSources],
    targets_by_uri: dict[URIRef, RegisteredDataset],
) -> list[QueryUnit]:
    """Co-located groups per partition and subject, exclusive groups per
    dataset; the rest stand alone."""
    colocated: dict[tuple, QueryUnit] = {}
    exclusive: dict[URIRef, QueryUnit] = {}
    units: list[QueryUnit] = []
    for sources in pattern_sources:
        relevant = sources.relevant_uris()
        members = _partition_members(sources, targets_by_uri)
        if members:
            subject = sources.pattern.subject
            partition = next(iter(members.values()))
            if not isinstance(subject, Variable):
                owner = shard_for_subject(subject, partition.count)
                relevant = [uri for uri in relevant if members[uri].index == owner]
            key = (partition.id, partition.count, subject)
            unit = colocated.get(key)
            if unit is None:
                unit = QueryUnit([], relevant, subject=subject)
                colocated[key] = unit
                units.append(unit)
            else:
                unit.sources = [uri for uri in unit.sources if uri in relevant]
            unit.members.update(members)
            unit.patterns.append(sources.pattern)
        elif len(relevant) == 1:
            unit = exclusive.get(relevant[0])
            if unit is None:
                unit = QueryUnit([], [relevant[0]], exclusive=True)
                exclusive[relevant[0]] = unit
                units.append(unit)
            unit.patterns.append(sources.pattern)
        else:
            units.append(QueryUnit([sources.pattern], list(relevant)))
    return units


def _order_units(
    units: list[QueryUnit],
    targets_by_uri: dict[URIRef, RegisteredDataset],
    pattern_sources: Sequence[PatternSources],
) -> list[QueryUnit]:
    """Greedy deterministic join order: cheapest first, stay connected."""
    estimates: dict[URIRef, dict[str, float]] = {}
    for sources in pattern_sources:
        for decision in sources.decisions:
            if decision.relevant:
                estimates.setdefault(decision.dataset_uri, {})[
                    pattern_text(sources.pattern)
                ] = decision.estimate

    for unit in units:
        total = 0.0
        for uri in unit.sources:
            per_pattern = [
                estimates.get(uri, {}).get(pattern_text(pattern), 1000.0)
                for pattern in unit.patterns
            ]
            total += min(per_pattern) if per_pattern else 0.0
        unit.estimate = total

    def sort_key(unit: QueryUnit) -> tuple:
        return (unit.estimate, " | ".join(sorted(pattern_text(p) for p in unit.patterns)))

    remaining = list(units)
    ordered: list[QueryUnit] = []
    bound: set[Variable] = set()
    while remaining:
        connected = [unit for unit in remaining if unit.variables() & bound]
        pool = connected if connected else remaining
        best = min(pool, key=sort_key)
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables()
    return ordered


def _unit_query(
    engine: FederatedQueryEngine,
    unit: QueryUnit,
    target: RegisteredDataset,
    source_ontology: URIRef | None,
    source_dataset: URIRef | None,
    mode: str,
    selector: SourceSelector,
) -> tuple[Query, MediationResult | None]:
    """The executable sub-query shipping ``unit`` to ``target``, and the
    mediation that produced it when it is a whole-query rewrite.

    A whole-query unit sends the source dataset the query as written and
    every other dataset the mediator's rewrite.  Any other unit projects
    its *source-level* variables: variables introduced by the translation
    (e.g. KISTI's CreatorInfo hop) are existential per dataset and must not
    leak into the mediator-side join.
    """
    if unit.query is not None:
        if source_dataset is not None and target.uri == source_dataset:
            return unit.query, None
        mediation = engine.mediator.translate(unit.query, target.uri, source_ontology, mode)
        return mediation.rewritten_query, mediation
    translated = selector.translate_patterns(
        unit.patterns, target, source_ontology, source_dataset, mode
    )
    projection = sorted(unit.variables(), key=str)
    return SelectQuery(
        Prologue(),
        projection,
        GroupGraphPattern([TriplesBlock(list(translated))]),
    ), None


def _result_variables(query: Query) -> list[Variable]:
    """The variables a federated answer to ``query`` binds, in order."""
    projection = getattr(query, "projection", None)
    if projection:
        return list(projection)
    return sorted(query.variables(), key=str)


def _with_bindings(sub_query: SelectQuery, inline: InlineData) -> SelectQuery:
    """``sub_query`` behind a leading ``VALUES`` block (shares its patterns)."""
    return SelectQuery(
        sub_query.prologue,
        sub_query.projection,
        GroupGraphPattern([inline, *sub_query.where.elements]),
    )


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
class _Traffic:
    """Per-dataset accounting for one federated execution."""

    __slots__ = ("requests", "attempts", "rows", "errors", "mediation")

    def __init__(self) -> None:
        self.requests = 0
        self.attempts = 0
        self.rows = 0
        self.errors: list[str] = []
        #: The whole-query rewrite this dataset was sent (fan-out plans).
        self.mediation: MediationResult | None = None


def execute_decomposed(
    engine: FederatedQueryEngine,
    query: SelectQuery,
    targets: Sequence[RegisteredDataset],
    source_ontology: URIRef | None,
    source_dataset: URIRef | None,
    mode: str,
    canonical_pattern: str | None,
    strategy: str,
    parallel: bool,
) -> tuple[FederatedResult, _PlanExecutor]:
    """Plan ``query`` under ``strategy`` and run the plan.

    ``parallel`` sends a round's calls to several sources from the engine's
    worker pool; otherwise every call leaves from the calling thread.  The
    result carries the plan under :attr:`FederatedResult.decomposition`;
    the executor that ran it goes to the caller, which ends the run with
    :func:`repro.sparql.exec.finish_run`.
    """
    from .federator import DatasetResult, FederatedResult

    started = time.perf_counter()
    selector = engine.source_selector
    with get_tracer().start_span(
        "planner.decompose", {"layer": "planner", "strategy": strategy}
    ) as plan_span:
        plan = decompose_query(
            engine, query, targets, source_ontology, source_dataset, mode,
            selector=selector, bind_join_batch=engine.bind_join_batch,
            render_sub_queries=False, strategy=strategy,
        )
        if plan_span.recording:
            plan_span.set_attribute("units", len(plan.units))
            plan_span.set_attribute("decomposed", plan.decomposed)
            if plan.fallback_reason:
                plan_span.set_attribute("fallback_reason", plan.fallback_reason)

    traffic: dict[URIRef, _Traffic] = {target.uri: _Traffic() for target in targets}
    if plan.probes:
        for uri, (requests, attempts) in selector.probe_traffic.items():
            if uri in traffic:
                entry = traffic[uri]
                entry.requests += requests
                entry.attempts += attempts
        selector.probe_traffic.clear()

    variables = _result_variables(query)
    if canonical_pattern is None and source_dataset is not None:
        if source_dataset in engine.registry:
            canonical_pattern = engine.registry.get(source_dataset).uri_pattern

    # A plan of whole-query units reports as the fan-out it is.
    label = "decompose" if plan.decomposed else f"federate-{strategy}"
    executor = _PlanExecutor(
        engine, label, plan, {target.uri: target for target in targets},
        source_ontology, source_dataset, mode, selector, traffic, parallel,
    )
    merged = executor.execute(query, variables, canonical_pattern)

    per_dataset: list[DatasetResult] = []
    for target in targets:
        entry = traffic[target.uri]
        error = "; ".join(entry.errors) if entry.errors else None
        if plan.skipped.get(target.uri) == "circuit open":
            # Not being contacted because the breaker refuses is an outage,
            # exactly as a refused call reports it — not a success.
            error = error or f"circuit open for {target.uri}"
        per_dataset.append(
            DatasetResult(
                dataset_uri=target.uri,
                mediation=entry.mediation,
                error=error,
                attempts=entry.attempts,
                requests=entry.requests,
                row_count=entry.rows,
            )
        )

    outcome = FederatedResult(
        variables=list(variables),
        per_dataset=per_dataset,
        merged_bindings=merged,
        strategy=strategy,
        decomposition=plan,
    )
    outcome.elapsed = time.perf_counter() - started
    return outcome, executor


class _VecUnitOp(VecOperator):
    """One decomposed unit as a batched operator at the mediator.

    With join variables, left rows are shipped to the unit's sources in
    ``VALUES`` blocks of at most ``bind_join_batch`` rows and merged back by interned
    key tuples; without them the unit is fetched once per execution and
    cross-joined.  Fetched terms are interned into the mediator's own term
    dictionary, so the merge is integer-tuple work like every other join.
    """

    span_name = "federation.unit"

    def __init__(
        self,
        ctx: ExecContext,
        in_schema: Schema,
        unit: QueryUnit,
        executor: _PlanExecutor,
    ) -> None:
        super().__init__(ctx)
        self.unit = unit
        self._executor = executor
        self.in_schema = in_schema
        #: Matches the projection order of :func:`_unit_query`.
        self._unit_vars = sorted(unit.variables(), key=str)
        self.schema = extend_schema(in_schema, self._unit_vars)
        self._join_vars = list(unit.join_variables)
        self._appended = [
            variable for variable in self._unit_vars if variable not in set(in_schema)
        ]
        in_positions = {v: i for i, v in enumerate(in_schema)}
        self._key_cols = [in_positions[v] for v in self._join_vars]
        self.est = unit.estimate
        self._cross_cache: list[tuple] | None = None

    def reset(self) -> None:
        self._cross_cache = None
        super().reset()

    def _intern_fetched(self, fetched: Sequence[Binding]) -> list[tuple]:
        """``(key ids, appended ids)`` per fetched row."""
        intern = self.ctx.dictionary.intern
        rows = []
        for row in fetched:
            key = tuple(
                intern(term) if (term := row.get_term(v)) is not None else UNBOUND
                for v in self._join_vars
            )
            appended = tuple(
                intern(term) if (term := row.get_term(v)) is not None else UNBOUND
                for v in self._appended
            )
            rows.append((key, appended))
        return rows

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        if not self._join_vars:
            yield from self._cross_join(batches)
            return
        yield from self._bound_join(batches)

    def _cross_join(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        """No shared variables: fetch the unit once, cross with the input."""
        schema = self.schema
        for batch in batches:
            if not batch.rows:
                yield Batch(schema, [])
                continue
            if self._cross_cache is None:
                fetched = self._executor._unit_rows(self.unit, None)
                self._cross_cache = [
                    appended for _, appended in self._intern_fetched(fetched)
                ]
            out = [
                row + appended
                for row in batch.rows
                for appended in self._cross_cache
            ]
            yield Batch(schema, out)

    def _bound_join(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        """Ship left rows in batches, injected as a VALUES block."""
        batch_size = max(1, self._executor.bind_join_batch)
        terms = self.ctx.dictionary.terms
        join_vars = self._join_vars
        key_cols = self._key_cols
        schema = self.schema

        def flush(chunk: list[tuple]) -> Batch:
            by_key: dict[tuple, list[tuple]] = {}
            for row in chunk:
                key = tuple(row[index] for index in key_cols)
                by_key.setdefault(key, []).append(row)
            decoded = {
                key: tuple(terms[value] if value else None for value in key)
                for key in by_key
            }
            inline = InlineData(
                list(join_vars),
                sorted(
                    decoded.values(),
                    key=lambda key: tuple(str(term) for term in key),
                ),
            )
            out: list[tuple] = []
            for fetched_key, appended in self._intern_fetched(
                self._executor._unit_rows(self.unit, inline)
            ):
                for left in by_key.get(fetched_key, ()):
                    out.append(left + appended)
            return Batch(schema, out)

        chunk: list[tuple] = []
        for batch in batches:
            for row in batch.rows:
                chunk.append(row)
                if len(chunk) >= batch_size:
                    yield flush(chunk)
                    chunk = []
        if chunk:
            yield flush(chunk)

    def describe(self) -> str:
        sources = ", ".join(str(uri) for uri in self.unit.sources)
        return f"Unit {_unit_label(self.unit, seed=not self.in_schema)} <- {sources}"


class _VecCanonicalOp(VecOperator):
    """Collapse URIs onto their canonical representative (id -> id cache)."""

    span_name = "federation.canonicalise"

    def __init__(
        self,
        ctx: ExecContext,
        child: VecOperator,
        engine: FederatedQueryEngine,
        canonical_pattern: str | None,
    ) -> None:
        super().__init__(ctx)
        self._child = child
        self._engine = engine
        self._pattern = canonical_pattern
        self.schema = child.schema
        self.est = child.est
        self._cache: dict[int, int] = {}

    def _canonical(self, value: int) -> int:
        mapped = self._cache.get(value)
        if mapped is None:
            term = self.ctx.dictionary.terms[value]
            if isinstance(term, URIRef):
                mapped = self.ctx.dictionary.intern(
                    self._engine._canonical_uri(term, self._pattern)
                )
            else:
                mapped = value
            self._cache[value] = mapped
        return mapped

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        canonical = self._canonical
        schema = self.schema
        for batch in self._child.execute(batches):
            rows = [
                tuple(canonical(value) if value else UNBOUND for value in row)
                for row in batch.rows
            ]
            yield Batch(schema, rows)

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        return "Canonicalise URIs"


class _PlanExecutor:
    """Executes a plan on the batched operator layer.

    The mediator-side pipeline — unit joins, URI canonicalisation, the
    source-level FILTERs and the solution modifiers — is the same operator
    set the local engines use (:mod:`repro.sparql.exec`), running over a
    mediator-private term dictionary against no graph at all.  Rows are
    canonicalised before filtering, the projected rows are always
    deduplicated (first occurrence wins), and bound-join batches stop
    being pulled once LIMIT is satisfied.  A whole-query unit's sources
    already applied the query's FILTERs and modifiers, so its pipeline is
    unit -> canonicalise -> project -> DISTINCT.
    """

    def __init__(
        self,
        engine: FederatedQueryEngine,
        label: str,
        plan: DecomposedPlan,
        targets_by_uri: dict[URIRef, RegisteredDataset],
        source_ontology: URIRef | None,
        source_dataset: URIRef | None,
        mode: str,
        selector: SourceSelector,
        traffic: dict[URIRef, _Traffic],
        parallel: bool,
    ) -> None:
        self._engine = engine
        #: Engine label of the run's event, spans and slow-log entry.
        self.engine = label
        self._plan = plan
        self._targets = targets_by_uri
        self._source_ontology = source_ontology
        self._source_dataset = source_dataset
        self._mode = mode
        self._selector = selector
        self._traffic = traffic
        self._parallel = parallel
        self.bind_join_batch = plan.bind_join_batch
        #: Executable sub-query per (unit, source): built for the first
        #: block, reused by every later one.
        self._sub_queries: dict[tuple[int, URIRef], Query] = {}
        self.root: VecOperator | None = None
        self.ctx: ExecContext | None = None
        self.elapsed = 0.0

    # -- sub-query dispatch ------------------------------------------------ #
    def _fetch(
        self,
        unit: QueryUnit,
        target: RegisteredDataset,
        inline: InlineData | None,
    ) -> list[Binding]:
        """Run one sub-query on one source, under its policy and breaker."""
        entry = self._traffic[target.uri]
        key = (id(unit), target.uri)
        executable = self._sub_queries.get(key)
        if executable is None:
            try:
                executable, entry.mediation = _unit_query(
                    self._engine, unit, target,
                    self._source_ontology, self._source_dataset, self._mode,
                    self._selector,
                )
            except (EndpointError, KeyError, ValueError) as exc:
                entry.errors.append(str(exc))
                return []
            self._sub_queries[key] = executable
        if inline is not None:
            assert isinstance(executable, SelectQuery)
            executable = _with_bindings(executable, inline)
        entry.requests += 1
        result, attempts, error = self._engine.call_endpoint(target, executable)
        entry.attempts += attempts
        if error is not None or result is None:
            entry.errors.append(error or "endpoint returned nothing")
            return []
        entry.rows += len(result)
        return list(result)

    @staticmethod
    def _blocks(
        unit: QueryUnit, inline: InlineData | None
    ) -> list[tuple[URIRef, InlineData | None]]:
        """The ``VALUES`` block each source of ``unit`` is sent this round.

        Every source gets the whole block — unless the block binds the
        subject of a co-located unit: then a row goes only to the member
        its subject key hashes to (to every member when that key is
        ``UNDEF``), and a member left with no row is not contacted.
        """
        subject = unit.subject
        if inline is None or not isinstance(subject, Variable) or subject not in inline.columns:
            return [(uri, inline) for uri in unit.sources]
        column = inline.columns.index(subject)
        blocks: list[tuple[URIRef, InlineData | None]] = []
        for uri in unit.sources:
            member = unit.members[uri]
            rows = [
                row for row in inline.rows
                if row[column] is None
                or shard_for_subject(row[column], member.count) == member.index
            ]
            if rows:
                blocks.append((uri, InlineData(inline.columns, rows)))
        return blocks

    def _unit_rows(self, unit: QueryUnit, inline: InlineData | None) -> list[Binding]:
        """One round of a unit: its sources answer, results in source order.

        Sources are independent, so they are queried concurrently when the
        call is parallel — a round over k high-latency endpoints costs one
        round trip, not k.
        """
        blocks = self._blocks(unit, inline)
        if len(blocks) > 1 and self._parallel:
            pool = self._engine.worker_pool()
            # copy_context() per task: per-source endpoint spans keep
            # the submitting thread's span (the request) as parent.
            futures = [
                pool.submit(
                    contextvars.copy_context().run,
                    self._fetch, unit, self._targets[uri], block,
                )
                for uri, block in blocks
            ]
            per_source = [future.result() for future in futures]
        else:
            per_source = [
                self._fetch(unit, self._targets[uri], block) for uri, block in blocks
            ]
        rows: list[Binding] = []
        for fetched in per_source:
            rows.extend(fetched)
        return rows

    # -- pipeline compilation ---------------------------------------------- #
    def compile(
        self,
        query: SelectQuery,
        variables: Sequence[Variable],
        canonical_pattern: str | None,
    ) -> VecOperator:
        """Build the mediator pipeline: units -> canonicalise -> FILTER ->
        ORDER BY -> project -> DISTINCT -> OFFSET/LIMIT (the FILTER, ORDER
        BY and slice only for a decomposed plan)."""
        # The mediator's graph is empty: it only interns the fetched terms
        # (its own ids, private to this plan), and FILTERs are evaluated
        # against no data (an expression reads only its row).
        ctx = ExecContext(Graph())
        root: VecOperator | None = None
        schema: Schema = ()
        bound: set[Variable] = set()
        for unit in self._plan.units:
            unit.join_variables = sorted(unit.variables() & bound, key=str)
            bound |= unit.variables()
            op = _VecUnitOp(ctx, schema, unit, self)
            root = op if root is None else VecBindJoinOp(ctx, root, op)
            schema = op.schema
        if root is None:  # pragma: no cover - plans always carry units
            raise ValueError("decomposed plan has no units to execute")
        root = _VecCanonicalOp(ctx, root, self._engine, canonical_pattern)
        decomposed = self._plan.decomposed
        modifiers = query.modifiers
        if decomposed:
            filters = [
                element.expression
                for element in query.where.elements
                if isinstance(element, Filter)
            ]
            if filters:
                root = VecFilterOp(ctx, root, filters)
            if modifiers.order_by:
                root = VecOrderByOp(ctx, root, modifiers.order_by)
        root = VecProjectOp(ctx, root, list(variables))
        root = VecDistinctOp(ctx, root)
        if decomposed and (modifiers.offset or modifiers.limit is not None):
            root = VecSliceOp(ctx, root, modifiers.offset, modifiers.limit)
        self.root = root
        self.ctx = ctx
        return root

    # -- execution ----------------------------------------------------------- #
    def execute(
        self,
        query: SelectQuery,
        variables: Sequence[Variable],
        canonical_pattern: str | None,
    ) -> list[Binding]:
        if not self._plan.units:  # provably empty: nothing to contact
            return []
        root = self.compile(query, variables, canonical_pattern)
        ctx = self.ctx
        assert ctx is not None
        root.reset()
        started = time.perf_counter()
        merged: list[Binding] = []
        for batch in root.execute(seed_batches()):
            columns = external_columns(batch.schema)
            for row in batch.rows:
                merged.append(ctx.decode_binding(columns, row))
        self.elapsed = time.perf_counter() - started
        return merged

    def endpoints(self) -> list[dict[str, Any]]:
        """Per-source traffic of the most recent :meth:`execute`."""
        return [
            {
                "dataset": str(uri),
                "requests": entry.requests,
                "attempts": entry.attempts,
                "rows_shipped": entry.rows,
                "errors": list(entry.errors),
            }
            for uri, entry in sorted(self._traffic.items(), key=lambda kv: str(kv[0]))
        ]
