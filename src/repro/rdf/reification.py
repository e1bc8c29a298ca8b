"""RDF statement reification helpers.

Section 3.2.2 of the paper encodes alignments *in RDF* and, because an RDF
statement has no URI of its own, uses the reification mechanism: a node of
type ``rdf:Statement`` with ``rdf:subject`` / ``rdf:predicate`` /
``rdf:object`` arcs describes the triple.  :func:`reify` turns a triple into
its reified description; the alignment RDF writer in
``repro.alignment.rdf_io`` builds on it.
"""

from __future__ import annotations

from .graph import Graph
from .namespace import RDF
from .terms import Term, fresh_bnode
from .triple import Triple

__all__ = ["reify"]


def reify(graph: Graph, triple: Triple) -> Term:
    """Describe ``triple`` in ``graph`` using reification.

    Returns the node standing for the statement, a fresh blank node.  Note that, following the paper, the
    reified triple may be a *pattern*: blank nodes are used in the subject
    and object positions of alignment patterns, so no groundness check is
    made on the described triple — only the description triples themselves
    must be assertable, which is guaranteed because patterns are encoded
    with blank nodes rather than SPARQL variables.
    """
    node = fresh_bnode("stmt")
    graph.add(Triple(node, RDF.type, RDF.Statement))
    graph.add(Triple(node, RDF.subject, triple.subject))
    graph.add(Triple(node, RDF.predicate, triple.predicate))
    graph.add(Triple(node, RDF.object, triple.object))
    return node
