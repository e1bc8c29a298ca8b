"""Alignment expressivity levels and convenience builders.

Section 3.2.2 classifies (after Euzenat's alignment API) the alignments the
formalism can express:

* **Level 0** — one-to-one correspondences between named entities:
  class-to-class and property-to-property equivalences.
* **Level 1** — an entity mapped to a set/intersection of entities (e.g.
  ``wine1:Burgundy -> wine2:Wine AND goods:BurgundyRegionProduct``);
  representable as long as no OWL construct such as ``owl:unionOf`` is
  required.
* **Level 2** — correspondences between graph *expressions* (e.g. a class
  translated into a value partition: ``O1:WhiteWine -> O2:Wine with
  O2:has_color "White"``).

This module provides builders for the common shapes and a classifier used
by Experiment E8 and the alignment statistics of the store.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..rdf import RDF, Term, Triple, URIRef, Variable
from .model import EntityAlignment

__all__ = [
    "class_alignment",
    "property_alignment",
    "class_to_intersection_alignment",
    "class_to_value_partition_alignment",
    "property_chain_alignment",
    "classify_level",
]

_X = Variable("x")
_Y = Variable("y")


def class_alignment(source_class: URIRef, target_class: URIRef,
                    identifier: URIRef | None = None) -> EntityAlignment:
    """Level-0 class correspondence ``C1 -> C2``.

    Encodes ``forall x (Triple(x, rdf:type, C1) -> Triple(x, rdf:type, C2))``.
    """
    return EntityAlignment(
        lhs=Triple(_X, RDF.type, source_class),
        rhs=[Triple(_X, RDF.type, target_class)],
        identifier=identifier,
    )


def property_alignment(source_property: URIRef, target_property: URIRef) -> EntityAlignment:
    """Level-0 property correspondence ``P1 -> P2``.

    Encodes ``forall x, y (Triple(x, P1, y) -> Triple(x, P2, y))``.
    """
    return EntityAlignment(
        lhs=Triple(_X, source_property, _Y),
        rhs=[Triple(_X, target_property, _Y)],
    )


def class_to_intersection_alignment(source_class: URIRef,
                                    target_classes: Iterable[URIRef],
                                    identifier: URIRef | None = None) -> EntityAlignment:
    """Level-1 correspondence mapping a class to an intersection of classes.

    The paper's example: ``wine1:Burgundy -> wine2:Wine AND
    goods:BurgundyRegionProduct``.
    """
    target_classes = list(target_classes)
    if not target_classes:
        raise ValueError("at least one target class is required")
    return EntityAlignment(
        lhs=Triple(_X, RDF.type, source_class),
        rhs=[Triple(_X, RDF.type, target) for target in target_classes],
        identifier=identifier,
    )


def class_to_value_partition_alignment(source_class: URIRef, target_class: URIRef,
                                       partition_property: URIRef,
                                       partition_value: Term) -> EntityAlignment:
    """Level-2 correspondence translating a class into a value partition.

    The paper's example: ``O1:WhiteWine -> O2:Wine with O2:has_color "White"``.
    """
    return EntityAlignment(
        lhs=Triple(_X, RDF.type, source_class),
        rhs=[
            Triple(_X, RDF.type, target_class),
            Triple(_X, partition_property, partition_value),
        ],
    )


def property_chain_alignment(source_property: URIRef, chain: Sequence[URIRef]) -> EntityAlignment:
    """Level-2 correspondence expanding a property into a chain of properties.

    The worked example's shape: ``akt:has-author`` becomes
    ``kisti:CreatorInfo / kisti:hasCreator`` through an intermediate node.
    Intermediate variables are named ``?cN`` and are fresh in the RHS.
    """
    if not chain:
        raise ValueError("the property chain must contain at least one property")
    subject = _X
    rhs: list[Triple] = []
    current: Term = subject
    for index, property_uri in enumerate(chain):
        is_last = index == len(chain) - 1
        target: Term = _Y if is_last else Variable(f"c{index + 1}")
        rhs.append(Triple(current, property_uri, target))
        current = target
    return EntityAlignment(lhs=Triple(subject, source_property, _Y), rhs=rhs)


def classify_level(alignment: EntityAlignment) -> int:
    """Classify an entity alignment into expressivity level 0, 1 or 2.

    * level 0 — single RHS triple with the same structural shape as the LHS
      (entity-to-entity renaming),
    * level 1 — several RHS triples, all sharing the LHS subject variable
      and using only ``rdf:type``-style memberships (entity to set of
      entities),
    * level 2 — anything else (graph expressions: chains, value partitions,
      alignments introducing fresh intermediate variables or literals).
    """
    lhs = alignment.lhs
    if len(alignment.rhs) == 1:
        rhs = alignment.rhs[0]
        same_subject = rhs.subject == lhs.subject
        same_object = rhs.object == lhs.object
        if same_subject and same_object:
            return 0
        if lhs.predicate == RDF.type and rhs.predicate == RDF.type and same_subject:
            return 0
    if alignment.fresh_rhs_variables():
        return 2
    if lhs.predicate == RDF.type and all(
        pattern.predicate == RDF.type and pattern.subject == lhs.subject
        for pattern in alignment.rhs
    ):
        return 1
    if all(
        pattern.subject == lhs.subject and pattern.variables() <= lhs.variables()
        for pattern in alignment.rhs
    ):
        # Multiple patterns over the LHS variables only, at least one of
        # which introduces a ground value: a value-partition style level 2
        # unless it is a pure membership expansion (handled above).
        if len(alignment.rhs) > 1:
            return 2
        return 1
    return 2
