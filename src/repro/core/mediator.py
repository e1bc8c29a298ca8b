"""Query mediation: select alignments and rewrite for a target dataset.

The mediator ties the pieces of Section 3 together: given a source query,
the ontology it was written against and the URI of a target dataset, it

1. asks the alignment KB for the relevant ontology alignments (Section
   3.2.1's selection by context of validity),
2. takes the union of their entity alignments,
3. rewrites the query with the one :class:`QueryRewriter`: Algorithm 1 at
   every triples block, plus the FILTER pass in ``filter-aware`` mode,
   executing functional dependencies through the function registry /
   co-reference service.

Execution of the rewritten query against actual endpoints is the
responsibility of :mod:`repro.federation` — the mediator here is transport
agnostic, exactly like the rewriting core of the original three-tier
system.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Sequence

from ..alignment import AlignmentStore, EntityAlignment, default_registry
from ..coreference import SameAsService
from ..obs.metrics import rewrite_cache_counter
from ..rdf import URIRef
from ..sparql import Query, parse_query
from .index import CompiledRuleSet
from .rewriter import QueryRewriter, RewriteReport, TripleRewrite, clone_query

__all__ = ["MEDIATION_MODES", "TargetProfile", "MediationResult", "Mediator"]

#: The settable rewriting modes: the paper's BGP-only Algorithm 1, and the
#: same rewriter with its FILTER pass on.
MEDIATION_MODES = ("bgp", "filter-aware")

#: Upper bound on cached rewrite results (oldest entries evicted first).
_RESULT_CACHE_LIMIT = 512


def _copy_report(report: RewriteReport) -> RewriteReport:
    """Report copy whose entries are safe for callers to mutate.

    Trace entries are mutable dataclasses; sharing them between the cache
    and returned results would let one caller's edit poison later hits.
    Triples and substitutions are immutable, so copying stops there.
    """
    return RewriteReport(
        [
            TripleRewrite(entry.original, list(entry.produced),
                          entry.alignment, entry.substitution)
            for entry in report.rewrites
        ],
        report.function_calls,
    )


@dataclass(frozen=True)
class TargetProfile:
    """What the mediator needs to know about a rewriting target.

    ``uri_pattern`` is the regular expression describing the dataset's
    instance URI space (the second argument the paper passes to
    ``sameas``); ``prefixes`` are namespace bindings to install in the
    rewritten query's prologue for readability.
    """

    dataset: URIRef
    ontologies: tuple[URIRef, ...] = ()
    uri_pattern: str | None = None
    prefixes: tuple[tuple[str, str], ...] = ()

    def prefix_dict(self) -> dict[str, str]:
        return dict(self.prefixes)


@dataclass
class MediationResult:
    """Outcome of one mediation request."""

    rewritten_query: Query
    target: TargetProfile
    report: RewriteReport
    alignments_considered: int
    mode: str

    @property
    def query_text(self) -> str:
        """The rewritten query as SPARQL text (what would be sent over HTTP)."""
        return self.rewritten_query.serialize()


class Mediator:
    """Alignment-driven SPARQL query mediator.

    Parameters
    ----------
    alignment_store:
        The alignment KB.
    sameas_service:
        Co-reference service backing the ``sameas`` functional dependency
        and the FILTER-aware URI translation.

    Functions come from the default registry, with ``sameas`` bound to
    ``sameas_service``; targets are added with :meth:`register_target`.
    """

    def __init__(
        self,
        alignment_store: AlignmentStore,
        sameas_service: SameAsService | None = None,
    ) -> None:
        self.alignment_store = alignment_store
        self.sameas_service = sameas_service or SameAsService()
        self.registry = default_registry(self.sameas_service)
        self._targets: dict[URIRef, TargetProfile] = {}
        # Compiled rule sets shared by both modes, keyed by selection context;
        # rewrite results keyed additionally by normalized query text.  Both
        # caches are only valid for one alignment-KB generation.  The lock
        # makes cache reads/writes safe under the federation layer's
        # concurrent fan-out (rewrites themselves run outside the lock).
        self._cache_lock = threading.RLock()
        self._ruleset_cache: dict[tuple, CompiledRuleSet] = {}
        self._result_cache: OrderedDict[tuple, tuple[Query, RewriteReport, int]] = OrderedDict()
        self._cache_generation = self._current_generation()
        self._cache_hits = 0
        self._cache_misses = 0

    # ------------------------------------------------------------------ #
    # Target management
    # ------------------------------------------------------------------ #
    def register_target(self, target: TargetProfile) -> None:
        """Make a dataset available as a rewriting target.

        Re-registering a dataset may change its profile (ontologies, URI
        pattern, prefixes), so cached rewrites are dropped.
        """
        self._targets[target.dataset] = target
        self._clear_caches()

    def target(self, dataset: URIRef) -> TargetProfile:
        """The registered profile for ``dataset``; raises ``KeyError`` if unknown."""
        if dataset not in self._targets:
            raise KeyError(f"unknown target dataset: {dataset}")
        return self._targets[dataset]

    # ------------------------------------------------------------------ #
    # Mediation
    # ------------------------------------------------------------------ #
    def select_alignments(
        self,
        target: TargetProfile,
        source_ontology: URIRef | None = None,
    ) -> list[EntityAlignment]:
        """The union of entity alignments relevant for ``target``."""
        return self.alignment_store.entity_alignments_for(
            dataset=target.dataset,
            source_ontology=source_ontology,
            dataset_ontologies=target.ontologies,
        )

    def compiled_ruleset(
        self,
        target: TargetProfile,
        source_ontology: URIRef | None = None,
    ) -> CompiledRuleSet:
        """The indexed rule set for ``target``, compiled once per KB generation.

        Shared by both rewriting modes, so selecting + compiling the
        relevant alignments is paid once per (target, source ontology) pair
        instead of once per translation.
        """
        key = (target.dataset, source_ontology)
        with self._cache_lock:
            self._check_generation()
            generation = self._cache_generation
            ruleset = self._ruleset_cache.get(key)
        if ruleset is None:
            ruleset = CompiledRuleSet(self.select_alignments(target, source_ontology))
            with self._cache_lock:
                # Publish only into the generation the rules were selected
                # for — a concurrent KB mutation (possibly already observed
                # by another thread's _check_generation) makes them stale.
                self._check_generation()
                if self._cache_generation == generation:
                    # Another thread may have compiled concurrently; keep one.
                    ruleset = self._ruleset_cache.setdefault(key, ruleset)
        return ruleset

    def translate(
        self,
        query: Query | str,
        target_dataset: URIRef,
        source_ontology: URIRef | None = None,
        mode: str = "bgp",
        strict: bool = False,
    ) -> MediationResult:
        """Rewrite ``query`` so it fits ``target_dataset``.

        ``mode`` is one of :data:`MEDIATION_MODES`:

        * ``"bgp"`` — the paper's Algorithm 1 (BGP-only, FILTERs untouched),
        * ``"filter-aware"`` — the same rewriter with its FILTER pass on:
          scoped constraint promotion and FILTER URI translation.

        Results are cached per (normalized query text, target dataset,
        source ontology, mode, strict, KB generation); any mutation of the
        alignment store or the sameas service invalidates the cache.
        Cache hits return a fresh copy of the rewritten query, so callers
        may mutate it freely.
        """
        if mode not in MEDIATION_MODES:
            raise ValueError(f"unknown mediation mode: {mode!r}")
        if isinstance(query, str):
            query = parse_query(query)
        target = self.target(target_dataset)
        filter_aware = mode == "filter-aware"
        if filter_aware and target.uri_pattern is None:
            raise ValueError(
                f"target {target.dataset} has no URI pattern; filter-aware rewriting "
                "requires one"
            )

        key = (query.serialize(), target.dataset, source_ontology, mode, strict)
        with self._cache_lock:
            self._check_generation()
            generation = self._cache_generation
            cached = self._result_cache.get(key)
            if cached is not None:
                self._cache_hits += 1
                self._result_cache.move_to_end(key)
            else:
                self._cache_misses += 1
        rewrite_cache_counter().inc(outcome="hit" if cached is not None else "miss")
        if cached is not None:
            rewritten, report, considered = cached
            return MediationResult(
                rewritten_query=clone_query(rewritten),
                target=target,
                report=_copy_report(report),
                alignments_considered=considered,
                mode=mode,
            )

        ruleset = self.compiled_ruleset(target, source_ontology)
        rewritten, report = QueryRewriter(
            ruleset, self.registry, strict, target.prefix_dict(),
            sameas_service=self.sameas_service if filter_aware else None,
            target_uri_pattern=target.uri_pattern if filter_aware else None,
        ).rewrite(query)

        with self._cache_lock:
            # Only publish into the generation the rewrite was computed for;
            # a concurrent KB mutation (even one another thread has already
            # folded into _cache_generation) would make this entry stale.
            self._check_generation()
            if self._cache_generation == generation:
                self._result_cache[key] = (rewritten, report, len(ruleset))
                while len(self._result_cache) > _RESULT_CACHE_LIMIT:
                    self._result_cache.popitem(last=False)

        return MediationResult(
            rewritten_query=clone_query(rewritten),
            target=target,
            report=_copy_report(report),
            alignments_considered=len(ruleset),
            mode=mode,
        )

    def rewrite_many(
        self,
        queries: Sequence[Query | str],
        target_dataset: URIRef,
        source_ontology: URIRef | None = None,
        mode: str = "bgp",
    ) -> list[MediationResult]:
        """Rewrite a batch of queries for one target (same order as input).

        The relevant alignments are selected and compiled once for the
        whole batch; repeated queries within the batch hit the rewrite
        cache.  ``repro rewrite`` uses it to amortise per-translation setup.
        """
        target = self.target(target_dataset)
        self.compiled_ruleset(target, source_ontology)  # warm the shared index
        return [
            self.translate(query, target_dataset, source_ontology, mode)
            for query in queries
        ]

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict[str, object]:
        """Hit/miss counters and current cache occupancy (for monitoring)."""
        with self._cache_lock:
            return {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "results": len(self._result_cache),
                "rulesets": len(self._ruleset_cache),
                "generation": self._cache_generation,
            }

    def _current_generation(self) -> tuple[int, int, int]:
        """Combined version of everything rewrite output depends on.

        Alignment-KB mutations change which rules fire; sameas-store
        mutations change what the ``sameas`` functional dependency and the
        FILTER URI translation produce; registry mutations change which
        functional dependencies can execute at all.  Any one must
        invalidate.
        """
        return (
            self.alignment_store.generation,
            self.sameas_service.generation,
            self.registry.generation,
        )

    def _check_generation(self) -> None:
        """Drop every cached structure when a backing KB has changed."""
        with self._cache_lock:
            generation = self._current_generation()
            if generation != self._cache_generation:
                self._clear_caches()
                self._cache_generation = generation

    def _clear_caches(self) -> None:
        with self._cache_lock:
            self._ruleset_cache.clear()
            self._result_cache.clear()
