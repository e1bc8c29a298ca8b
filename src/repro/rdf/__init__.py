"""RDF data model substrate.

This package provides the RDF data model the rest of the library is built
on: terms, triples, namespaces, indexed graphs, named-graph datasets,
statement reification, ``rdf:List`` collections and blank-node-aware graph
comparison.  It substitutes for the Jena model API used by the original
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
from .triple import Quad, Triple
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
from .dataset import Dataset
from .reification import ReificationError, dereify, dereify_all, is_statement_node, reify
from .collections import CollectionError, build_list, is_list_node, read_list
from .isomorphism import canonical_hash, isomorphic

__all__ = [
    # terms
    "Term", "URIRef", "Literal", "BNode", "Variable", "XSD",
    "fresh_bnode", "reset_bnode_counter", "is_ground", "is_variable_like",
    # triples
    "Triple", "Quad",
    # namespaces
    "Namespace", "NamespaceManager", "DEFAULT_PREFIXES",
    "RDF", "RDFS", "OWL", "XSD_NS", "FOAF", "DC", "VOID", "SKOS",
    "AKT", "KISTI", "DBPO", "MAP", "ALIGN_FN", "RKB_ID", "KISTI_ID", "DBPEDIA_RES",
    # graph/dataset
    "Graph", "GraphView", "GraphStatistics", "Dataset",
    "TermDictionary", "UNBOUND_ID",
    # storage backends
    "Store", "MemoryStore", "SegmentStore", "StoreError",
    "open_store", "open_graph",
    # reification / collections
    "reify", "dereify", "dereify_all", "is_statement_node", "ReificationError",
    "build_list", "read_list", "is_list_node", "CollectionError",
    # isomorphism
    "isomorphic", "canonical_hash",
]
