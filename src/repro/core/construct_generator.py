"""Generating SPARQL CONSTRUCT queries from entity alignments.

Section 2 of the paper discusses Euzenat et al.'s proposal "to use SPARQL
query language in order to solve data translation problems relying on its
features for extracting data and creating new triples using the CONSTRUCT
statement", and notes that "the problem of how to create dynamically such
queries, exploiting the alignments that ha[ve] been declared between
ontologies, is still an open issue".

This module closes that loop for the alignment formalism of the paper:
every :class:`~repro.alignment.EntityAlignment` can be compiled into a
CONSTRUCT query that *translates data* (not queries) from the source
vocabulary into the target vocabulary:

* the WHERE clause is the alignment's **LHS** (what to extract from a
  source-vocabulary dataset),
* the template is the alignment's **RHS** (what to build in the target
  vocabulary),
* ``sameas`` functional dependencies cannot be executed inside standard
  SPARQL 1.0, so the generator leaves the affected variables shared between
  WHERE and template and reports them; the produced triples can then be
  post-processed with :func:`translate_graph_uris` (the CONSTRUCT-side
  equivalent of running the functions at translation time).

Together with :class:`~repro.sparql.QueryEvaluator` this gives a second,
query-engine-driven implementation of data translation that complements the
materialisation baseline of ``benchmarks/baselines.py`` (which applies the
rules right-to-left).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from ..alignment import EntityAlignment
from ..coreference import SameAsService
from ..rdf import BNode, Graph, Term, URIRef, Variable
from ..sparql import ConstructQuery, GroupGraphPattern, Prologue, QueryEvaluator, TriplesBlock

__all__ = [
    "GeneratedConstruct",
    "construct_query_for_alignment",
    "construct_queries_for_alignments",
    "translate_graph_uris",
    "DataTranslator",
]


@dataclass
class GeneratedConstruct:
    """A CONSTRUCT query generated from one entity alignment."""

    alignment: EntityAlignment
    query: ConstructQuery

    @property
    def query_text(self) -> str:
        return self.query.serialize()


def construct_query_for_alignment(
    alignment: EntityAlignment,
    prefixes: dict[str, str] | None = None,
) -> GeneratedConstruct:
    """Compile one entity alignment into a data-translation CONSTRUCT query.

    The direction is source → target: the WHERE clause matches the LHS over
    source-vocabulary data and the template instantiates the RHS.  RHS
    variables produced by functional dependencies are aliased to the FD's
    first variable parameter (so the value flows through the query); their
    URIs still live in the source URI space until
    :func:`translate_graph_uris` is applied.
    """
    prologue = Prologue()
    for prefix, namespace in (prefixes or {}).items():
        prologue.bind(prefix, namespace)

    # Map FD-produced variables onto the variable they are computed from,
    # when that variable occurs in the LHS (the sameas(?x, re) shape).
    aliases: dict[Variable, Variable] = {}
    lhs_variables = alignment.lhs_variables()
    for dependency in alignment.functional_dependencies:
        source_variables = [p for p in dependency.parameters if isinstance(p, Variable)]
        if source_variables and source_variables[0] in lhs_variables:
            aliases[dependency.variable] = source_variables[0]

    def resolve(term: Term) -> Term:
        if not isinstance(term, Variable):
            return term
        resolved = aliases.get(term, term)
        if isinstance(resolved, Variable) and resolved not in lhs_variables:
            # Fresh RHS variables are existentially quantified in the
            # alignment semantics; in a CONSTRUCT template they become blank
            # nodes, which the evaluator re-mints per solution (this is how
            # the CreatorInfo intermediate node is created for each
            # authorship statement).
            return BNode(f"fresh_{resolved.name}")
        return resolved

    template = [pattern.map_terms(resolve) for pattern in alignment.rhs]
    where = GroupGraphPattern([TriplesBlock([alignment.lhs])])
    query = ConstructQuery(prologue, template, where)
    return GeneratedConstruct(alignment=alignment, query=query)


def construct_queries_for_alignments(
    alignments: Iterable[EntityAlignment],
    prefixes: dict[str, str] | None = None,
) -> list[GeneratedConstruct]:
    """Compile every alignment of a KB into its CONSTRUCT query."""
    return [construct_query_for_alignment(alignment, prefixes) for alignment in alignments]


def translate_graph_uris(
    graph: Graph,
    sameas_service: SameAsService,
    target_uri_pattern: str,
) -> Graph:
    """Map every URI of ``graph`` into the target URI space via owl:sameAs.

    This is the post-processing step standing in for the functional
    dependencies that a plain SPARQL CONSTRUCT cannot execute: after the
    structural translation, instance URIs are swapped for their equivalents
    matching ``target_uri_pattern`` (URIs with no equivalent are kept).
    """
    translated = Graph(namespace_manager=graph.namespace_manager.copy())
    for triple in graph:
        translated.add(triple.map_terms(
            lambda term: sameas_service.translate_or_keep(term, target_uri_pattern)
            if isinstance(term, URIRef) else term
        ))
    return translated


class DataTranslator:
    """Translate whole datasets between vocabularies using CONSTRUCT queries.

    This is the data-level counterpart of the query-level mediator: given
    the same alignment KB, it converts a *source-vocabulary* graph into the
    *target vocabulary* (the direction of the alignments), optionally
    re-minting instance URIs into the target URI space.
    """

    def __init__(
        self,
        alignments: Sequence[EntityAlignment],
        sameas_service: SameAsService | None = None,
        target_uri_pattern: str | None = None,
        prefixes: dict[str, str] | None = None,
    ) -> None:
        self.generated = construct_queries_for_alignments(alignments, prefixes)
        self.sameas_service = sameas_service
        self.target_uri_pattern = target_uri_pattern

    def translate(self, source_graph: Graph) -> Graph:
        """Run every generated CONSTRUCT over ``source_graph`` and merge."""
        evaluator = QueryEvaluator(source_graph)
        output = Graph()
        for generated in self.generated:
            constructed = evaluator.evaluate(generated.query)
            if isinstance(constructed, Graph):
                output.add_all(constructed)
        if self.sameas_service is not None and self.target_uri_pattern is not None:
            output = translate_graph_uris(output, self.sameas_service, self.target_uri_pattern)
        return output

    def query_texts(self) -> list[str]:
        """The generated CONSTRUCT queries as SPARQL text (for inspection)."""
        return [generated.query_text for generated in self.generated]
