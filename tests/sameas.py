"""Co-reference fixtures: a ``SameAsService``'s bundles as an owl:sameAs graph."""

from __future__ import annotations

from repro.coreference import SameAsService
from repro.rdf import OWL, Graph, Triple


def sameas_graph(service: SameAsService) -> Graph:
    """The bundles as an ``owl:sameAs`` graph, a star per bundle."""
    graph = Graph()
    for bundle in service.bundles():
        members = sorted(bundle, key=str)
        for member in members[1:]:
            graph.add(Triple(member, OWL.sameAs, members[0]))
    return graph
