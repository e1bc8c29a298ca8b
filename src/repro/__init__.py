"""repro — SPARQL query rewriting for data integration over Linked Data.

A from-scratch Python reproduction of Correndo et al., *SPARQL Query
Rewriting for Implementing Data Integration over Linked Data* (EDBT 2010).

The package is organised bottom-up:

* :mod:`repro.rdf` — RDF data model (terms, triples, graphs, reification).
* :mod:`repro.turtle` — Turtle / N-Triples parsers and serialisers.
* :mod:`repro.sparql` — SPARQL parser, algebra, evaluator and serialiser.
* :mod:`repro.coreference` — local owl:sameAs (sameas.org) service.
* :mod:`repro.alignment` — the paper's alignment model (OA/EA/FD), function
  registry, RDF encoding and alignment KB.
* :mod:`repro.core` — the rewriting algorithms (the paper's contribution).
* :mod:`repro.federation` — endpoints, voiD registry, federated execution,
  mediator service facade.
* :mod:`repro.datasets` — synthetic RKB / KISTI / DBpedia scenario.

Quickstart::

    from repro.datasets import build_resist_scenario

    scenario = build_resist_scenario()
    response = scenario.service.translate_and_run(
        '''PREFIX akt:<http://www.aktors.org/ontology/portal#>
           SELECT ?t WHERE { ?p akt:has-title ?t }''',
        scenario.kisti_dataset,
    )
    print(response.translation.translated_query)
"""

from .alignment import (
    AlignmentStore,
    EntityAlignment,
    FunctionRegistry,
    FunctionalDependency,
    OntologyAlignment,
    default_registry,
)
from .coreference import SameAsService
from .core import (
    GraphPatternRewriter,
    MediationResult,
    Mediator,
    QueryRewriter,
    RewriteReport,
    TargetProfile,
)
from .federation import (
    DatasetDescription,
    DatasetRegistry,
    FederatedQueryEngine,
    LocalSparqlEndpoint,
    MediatorService,
    shard_graph,
)
from .rdf import (
    BNode,
    Graph,
    GraphView,
    Literal,
    MemoryStore,
    Namespace,
    SegmentStore,
    Store,
    Triple,
    URIRef,
    Variable,
    open_graph,
    open_store,
)
from .sparql import QueryEvaluator, parse_query, serialize_query

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # rdf
    "URIRef", "Literal", "BNode", "Variable", "Triple", "Graph", "GraphView",
    "Namespace",
    # storage
    "Store", "MemoryStore", "SegmentStore", "open_store", "open_graph",
    # sparql
    "parse_query", "serialize_query", "QueryEvaluator",
    # alignment
    "EntityAlignment", "FunctionalDependency", "OntologyAlignment",
    "AlignmentStore", "FunctionRegistry", "default_registry",
    # coreference
    "SameAsService",
    # core
    "GraphPatternRewriter", "QueryRewriter", "Mediator", "MediationResult",
    "TargetProfile", "RewriteReport",
    # federation
    "LocalSparqlEndpoint", "DatasetDescription", "DatasetRegistry",
    "FederatedQueryEngine", "MediatorService", "shard_graph",
]
