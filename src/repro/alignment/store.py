"""Alignment knowledge base (the mediator's *Alignment KB* of Figure 5).

The store holds :class:`OntologyAlignment` objects and answers the
selection question of Section 3.2.1: *"Querying the alignment server we can
retrieve all the relevant ontology alignments for integrating two given
data sets.  The union of the entity alignments belonging to the relevant
ontology alignments can then be used in order to rewrite queries between
the data sets."*

Selection therefore works on the context of validity:

* by **target dataset** — alignments explicitly scoped to that dataset
  (``TD``) are preferred; alignments scoped only to the dataset's
  ontologies (``TO``) are used as reusable fallbacks,
* by **source ontology** — only alignments whose ``SO`` covers the
  vocabularies of the incoming query are returned.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from ..rdf import Graph, URIRef
from .model import EntityAlignment, OntologyAlignment
from .rdf_io import AlignmentGraphWriter, ontology_alignments_from_graph

__all__ = ["AlignmentStore"]


class AlignmentStore:
    """In-memory registry of ontology alignments with context-aware lookup."""

    def __init__(self, alignments: Iterable[OntologyAlignment] = ()) -> None:
        self._alignments: list[OntologyAlignment] = []
        self._generation = 0
        for alignment in alignments:
            self.add(alignment)

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every KB mutation.

        Derived structures (the mediator's compiled rule sets and rewrite
        cache) key their entries on this value, so any :meth:`add` /
        :meth:`load_graph` automatically invalidates them.
        """
        return self._generation

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #
    def add(self, alignment: OntologyAlignment) -> AlignmentStore:
        """Register an ontology alignment."""
        self._alignments.append(alignment)
        self._generation += 1
        return self

    def load_graph(self, graph: Graph) -> int:
        """Import every ontology alignment described in an RDF graph.

        Returns the number of ontology alignments imported.
        """
        imported = ontology_alignments_from_graph(graph)
        for alignment in imported:
            self.add(alignment)
        return len(imported)

    def to_graph(self) -> Graph:
        """Export the whole KB as an RDF graph (the paper's storage format)."""
        writer = AlignmentGraphWriter()
        for alignment in self._alignments:
            writer.add_ontology_alignment(alignment)
        return writer.graph

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def ontology_alignments(self) -> list[OntologyAlignment]:
        """Every registered ontology alignment."""
        return list(self._alignments)

    def for_target_dataset(
        self,
        dataset: URIRef,
        source_ontology: URIRef | None = None,
        dataset_ontologies: Iterable[URIRef] = (),
    ) -> list[OntologyAlignment]:
        """Ontology alignments relevant for rewriting towards ``dataset``.

        Dataset-specific alignments (``TD`` contains the dataset) are
        returned first; ontology-scoped alignments whose ``TO`` intersects
        ``dataset_ontologies`` follow.  When ``source_ontology`` is given,
        alignments not covering it are filtered out.
        """
        dataset_ontologies = set(dataset_ontologies)
        specific: list[OntologyAlignment] = []
        reusable: list[OntologyAlignment] = []
        for alignment in self._alignments:
            if source_ontology is not None and not alignment.applies_to_source(source_ontology):
                continue
            if alignment.applies_to_target_dataset(dataset):
                specific.append(alignment)
            elif dataset_ontologies and (alignment.target_ontologies & dataset_ontologies):
                reusable.append(alignment)
        return specific + reusable

    def entity_alignments_for(
        self,
        dataset: URIRef | None = None,
        source_ontology: URIRef | None = None,
        dataset_ontologies: Iterable[URIRef] = (),
    ) -> list[EntityAlignment]:
        """The union of entity alignments relevant for a rewriting task.

        This is the set Algorithm 1 receives: "the union of the entity
        alignments belonging to the relevant ontology alignments".
        Duplicate rules (same LHS/RHS/FD) are removed while preserving
        order.
        """
        selected: list[OntologyAlignment] = []
        if dataset is not None:
            selected.extend(
                self.for_target_dataset(dataset, source_ontology, dataset_ontologies)
            )
        if dataset is None:
            selected = [
                alignment
                for alignment in self._alignments
                if source_ontology is None or alignment.applies_to_source(source_ontology)
            ]
        merged: list[EntityAlignment] = []
        seen = set()
        for ontology_alignment in selected:
            for entity_alignment in ontology_alignment.entity_alignments:
                key = (entity_alignment.lhs, tuple(entity_alignment.rhs),
                       frozenset(entity_alignment.functional_dependencies))
                if key not in seen:
                    seen.add(key)
                    merged.append(entity_alignment)
        return merged

    # ------------------------------------------------------------------ #
    # Statistics (Section 3.4 reports alignment counts per pair)
    # ------------------------------------------------------------------ #
    def entity_alignment_count(self) -> int:
        """Total number of entity alignments across all OAs."""
        return sum(len(alignment) for alignment in self._alignments)

    def counts_by_pair(self) -> dict[tuple, int]:
        """Entity-alignment counts keyed by (source ontologies, target).

        The *target* component is the target datasets when present, else
        the target ontologies — matching how Section 3.4 reports "42
        alignments between ECS data set and DBpedia" and "24 alignments
        between AKT data and KISTI data set".
        """
        counts: dict[tuple, int] = defaultdict(int)
        for alignment in self._alignments:
            target = alignment.target_datasets or alignment.target_ontologies
            key = (
                tuple(sorted(map(str, alignment.source_ontologies))),
                tuple(sorted(map(str, target))),
            )
            counts[key] += len(alignment)
        return dict(counts)

    def source_ontologies(self) -> set[URIRef]:
        """All source ontologies covered by the KB."""
        result: set[URIRef] = set()
        for alignment in self._alignments:
            result |= alignment.source_ontologies
        return result

    def target_datasets(self) -> set[URIRef]:
        """All target datasets covered by the KB."""
        result: set[URIRef] = set()
        for alignment in self._alignments:
            result |= alignment.target_datasets
        return result

    def __len__(self) -> int:
        return len(self._alignments)

    def __iter__(self):
        return iter(self._alignments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AlignmentStore {len(self._alignments)} ontology alignments, "
            f"{self.entity_alignment_count()} entity alignments>"
        )
