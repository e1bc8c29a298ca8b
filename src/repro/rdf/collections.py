"""RDF collections (``rdf:List``).

The alignment RDF encoding of Section 3.2.2 represents the parameters of a
functional dependency as an RDF collection (the Turtle ``( _:a1 "regex" )``
syntax, lines 30-33 of the listing).  These helpers build and read the
``rdf:first`` / ``rdf:rest`` linked-list structure.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graph import Graph
from .namespace import RDF
from .terms import Term, fresh_bnode
from .triple import Triple

__all__ = ["build_list", "read_list", "CollectionError"]

#: Longest list :func:`read_list` follows before it calls the list cyclic.
_MAX_LENGTH = 10_000


class CollectionError(ValueError):
    """Raised when an ``rdf:List`` structure is malformed."""


def build_list(graph: Graph, items: Sequence[Term]) -> Term:
    """Assert an ``rdf:List`` holding ``items`` and return its head node.

    The empty list is represented by ``rdf:nil`` as mandated by RDF.
    """
    if not items:
        return RDF.nil
    head: Term | None = None
    previous: Term | None = None
    for item in items:
        node = fresh_bnode("list")
        graph.add(Triple(node, RDF.first, item))
        if previous is not None:
            graph.add(Triple(previous, RDF.rest, node))
        if head is None:
            head = node
        previous = node
    assert previous is not None and head is not None
    graph.add(Triple(previous, RDF.rest, RDF.nil))
    return head


def read_list(graph: Graph, head: Term) -> list[Term]:
    """Read an ``rdf:List`` starting at ``head`` into a Python list.

    Raises :class:`CollectionError` on broken or cyclic lists.
    """
    items: list[Term] = []
    node = head
    seen = set()
    while node != RDF.nil:
        if node in seen or len(items) > _MAX_LENGTH:
            raise CollectionError(f"cyclic or oversized rdf:List at {head}")
        seen.add(node)
        first = graph.value(node, RDF.first, None)
        if first is None:
            raise CollectionError(f"rdf:List node {node} lacks rdf:first")
        items.append(first)
        rest = graph.value(node, RDF.rest, None)
        if rest is None:
            raise CollectionError(f"rdf:List node {node} lacks rdf:rest")
        node = rest
    return items
