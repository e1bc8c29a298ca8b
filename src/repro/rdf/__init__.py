"""RDF data model substrate.

This package provides the RDF data model the rest of the library is built
on: terms, triples, namespaces, indexed graphs,
statement reification and ``rdf:List`` collections.  It substitutes for the Jena model API used by the original
system (see DESIGN.md, substitution table).
"""

from .terms import (
    BNode,
    Literal,
    Term,
    URIRef,
    Variable,
    XSD,
    fresh_bnode,
    is_ground,
    is_variable_like,
    reset_bnode_counter,
)
from .triple import Triple
from .namespace import (
    AKT,
    ALIGN_FN,
    DBPEDIA_RES,
    DBPO,
    DC,
    DEFAULT_PREFIXES,
    FOAF,
    KISTI,
    KISTI_ID,
    MAP,
    Namespace,
    NamespaceManager,
    OWL,
    RDF,
    RDFS,
    RKB_ID,
    SKOS,
    VOID,
    XSD_NS,
)
from .store import (
    GraphStatistics,
    MemoryStore,
    SegmentStore,
    Store,
    StoreError,
    TermDictionary,
    UNBOUND_ID,
    open_graph,
    open_store,
)
from .graph import Graph, GraphView
from .reification import reify
from .collections import CollectionError, build_list, read_list

__all__ = [
    # terms
    "Term", "URIRef", "Literal", "BNode", "Variable", "XSD",
    "fresh_bnode", "reset_bnode_counter", "is_ground", "is_variable_like",
    # triples
    "Triple",
    # namespaces
    "Namespace", "NamespaceManager", "DEFAULT_PREFIXES",
    "RDF", "RDFS", "OWL", "XSD_NS", "FOAF", "DC", "VOID", "SKOS",
    "AKT", "KISTI", "DBPO", "MAP", "ALIGN_FN", "RKB_ID", "KISTI_ID", "DBPEDIA_RES",
    # graph
    "Graph", "GraphView", "GraphStatistics",
    "TermDictionary", "UNBOUND_ID",
    # storage backends
    "Store", "MemoryStore", "SegmentStore", "StoreError",
    "open_store", "open_graph",
    # reification / collections
    "reify", "build_list", "read_list", "CollectionError",
]
