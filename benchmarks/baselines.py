"""Comparison baselines for the experiments: no rewriting, and materialisation.

Neither is part of the product; Experiments E5, E6 and E10 (and the tests
and the co-author example) measure the mediator against them.

**No rewriting.** The simplest possible "integration" strategy, and the
implicit comparison point of the whole paper, is to send the source query
verbatim to every endpoint.  Because each repository uses its own vocabulary
and URI space, the query only matches on repositories sharing the source
schema, so the contribution of heterogeneous datasets to recall is (near)
zero.  :class:`IdentityFederation` quantifies that gap.

**Materialisation.** Section 2 of the paper argues that the mainstream
alternative to query rewriting, treating ontology alignments as logical
axioms and *reasoning* over the combined data, "does not scale well and data
repositories cannot be integrated relying on reasoning on an overall
mediating ontology", because the inference models grow with the size of the
data.  :class:`MaterializationIntegrator` is a forward-chaining integrator
that materialises every target repository into the source vocabulary ahead
of query time:

* Each entity alignment ``LHS <- RHS`` is applied *right-to-left* as a data
  rule: conjunctive RHS matches over the target data produce LHS triples in
  the source vocabulary.
* ``sameas`` functional dependencies are inverted through the co-reference
  service: a value bound on the target side is mapped back to its source
  URI-space equivalent (other functions are not invertible in general and
  are skipped, which is precisely one of the weaknesses of the
  materialisation approach the paper alludes to).
* Instance URIs are finally canonicalised into the source URI space using
  the owl:sameAs closure.

The integrator's cost is proportional to the *data* size, whereas query
rewriting's cost depends only on the query and alignment KB size;
Experiment E5 measures exactly that contrast.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from time import perf_counter

from repro.alignment import SAMEAS_FUNCTION, EntityAlignment
from repro.coreference import SameAsService
from repro.federation import DatasetRegistry, EndpointError
from repro.rdf import Graph, Term, Triple, URIRef, Variable
from repro.sparql import Binding, Query, ResultSet, match_bgp, parse_query

__all__ = [
    "IdentityBaselineResult",
    "IdentityFederation",
    "MaterializationStatistics",
    "MaterializationIntegrator",
]


@dataclass
class IdentityBaselineResult:
    """Per-dataset and merged results of the no-rewriting baseline."""

    variables: list[Variable]
    per_dataset_rows: dict[URIRef, int] = field(default_factory=dict)
    errors: dict[URIRef, str] = field(default_factory=dict)
    merged_bindings: list[Binding] = field(default_factory=list)

    def merged(self) -> ResultSet:
        return ResultSet(self.variables, self.merged_bindings)

    def distinct_values(self, variable: Variable | str) -> set:
        return self.merged().distinct_values(variable)


class IdentityFederation:
    """Run the *unrewritten* query over every registered dataset."""

    def __init__(self, registry: DatasetRegistry) -> None:
        self.registry = registry

    def execute(
        self,
        query: Query | str,
        datasets: Sequence[URIRef] | None = None,
    ) -> IdentityBaselineResult:
        if isinstance(query, str):
            query = parse_query(query)
        projection = getattr(query, "projection", None) or sorted(query.variables(), key=str)
        result = IdentityBaselineResult(variables=list(projection))
        targets = self.registry.datasets() if datasets is None else [
            self.registry.get(uri) for uri in datasets
        ]
        seen = set()
        for target in targets:
            try:
                rows = target.endpoint.select(query)
            except EndpointError as exc:
                result.errors[target.uri] = str(exc)
                continue
            result.per_dataset_rows[target.uri] = len(rows)
            for binding in rows:
                key = frozenset(binding.as_dict().items())
                if key not in seen:
                    seen.add(key)
                    result.merged_bindings.append(binding)
        return result


@dataclass
class MaterializationStatistics:
    """Cost accounting of one materialisation run."""

    input_triples: int = 0
    derived_triples: int = 0
    rule_applications: int = 0
    sameas_translations: int = 0
    elapsed_seconds: float = 0.0


class MaterializationIntegrator:
    """Materialise heterogeneous repositories into the source vocabulary."""

    def __init__(
        self,
        alignments: Sequence[EntityAlignment],
        sameas_service: SameAsService | None = None,
        source_uri_pattern: str | None = None,
    ) -> None:
        self.alignments = list(alignments)
        self.sameas_service = sameas_service or SameAsService()
        self.source_uri_pattern = source_uri_pattern

    # ------------------------------------------------------------------ #
    # Integration
    # ------------------------------------------------------------------ #
    def integrate(self, graphs: Iterable[Graph]) -> tuple[Graph, MaterializationStatistics]:
        """Derive a source-vocabulary graph from the given target graphs."""
        statistics = MaterializationStatistics()
        start = perf_counter()
        merged = Graph()
        for graph in graphs:
            statistics.input_triples += len(graph)
            for alignment in self.alignments:
                statistics.derived_triples += self._apply_alignment(alignment, graph, merged,
                                                                    statistics)
        statistics.elapsed_seconds = perf_counter() - start
        return merged, statistics

    def _apply_alignment(
        self,
        alignment: EntityAlignment,
        source_graph: Graph,
        output: Graph,
        statistics: MaterializationStatistics,
    ) -> int:
        derived = 0
        inverse_fd = self._invertible_dependencies(alignment)
        for binding in match_bgp(alignment.rhs, source_graph):
            statistics.rule_applications += 1
            triple = self._instantiate_lhs(alignment, binding, inverse_fd, statistics)
            if triple is None:
                continue
            if triple not in output:
                output.add(triple)
                derived += 1
        return derived

    def _invertible_dependencies(self, alignment: EntityAlignment) -> dict[Variable, Variable]:
        """Map RHS-side FD targets back to the LHS variable they determine.

        Only ``sameas`` dependencies of the shape ``?rhs = sameas(?lhs, re)``
        are invertible: knowing the RHS value, the LHS value is the
        equivalent URI in the source URI space.
        """
        inverse: dict[Variable, Variable] = {}
        for dependency in alignment.functional_dependencies:
            if dependency.function != SAMEAS_FUNCTION:
                continue
            if not dependency.parameters:
                continue
            first = dependency.parameters[0]
            if isinstance(first, Variable):
                inverse[dependency.variable] = first
        return inverse

    def _instantiate_lhs(
        self,
        alignment: EntityAlignment,
        binding: Binding,
        inverse_fd: dict[Variable, Variable],
        statistics: MaterializationStatistics,
    ) -> Triple | None:
        values: dict[Variable, Term] = {}
        # Direct bindings for LHS variables shared with the RHS.
        for variable in alignment.lhs_variables():
            term = binding.get_term(variable)
            if term is not None:
                values[variable] = term
        # Inverted sameas dependencies: RHS value -> source-space URI.
        for rhs_variable, lhs_variable in inverse_fd.items():
            term = binding.get_term(rhs_variable)
            if term is None or lhs_variable in values:
                continue
            values[lhs_variable] = self._to_source_space(term, statistics)

        terms = []
        for term in alignment.lhs:
            if isinstance(term, Variable):
                value = values.get(term)
                if value is None:
                    return None
                terms.append(self._to_source_space(value, statistics))
            else:
                terms.append(term)
        try:
            return Triple(*terms)
        except TypeError:
            return None

    def _to_source_space(self, term: Term, statistics: MaterializationStatistics) -> Term:
        if isinstance(term, URIRef) and self.source_uri_pattern is not None:
            translated = self.sameas_service.lookup(term, self.source_uri_pattern)
            if translated is not None:
                statistics.sameas_translations += 1
                return translated
        return term
