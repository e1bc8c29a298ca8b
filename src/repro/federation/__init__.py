"""Federation layer: endpoints, voiD registry, federated execution, service facade."""

from .endpoint import (
    EndpointError,
    EndpointStatistics,
    EndpointTimeout,
    EndpointUnavailable,
    LocalSparqlEndpoint,
    SparqlEndpoint,
)
from .decompose import (
    DEFAULT_BIND_JOIN_BATCH,
    DecomposedPlan,
    PatternSources,
    QueryUnit,
    SourceDecision,
    SourceSelector,
    decompose_query,
    execute_decomposed,
)
from .http_endpoint import HttpSparqlEndpoint
from .federator import (
    DatasetResult,
    FederatedQueryEngine,
    FederatedResult,
    recall,
)
from .policy import CircuitBreaker, CircuitState, ExecutionPolicy
from .registry import DatasetRegistry, EndpointHealth, RegisteredDataset
from .service import DatasetInfo, ExecutionResponse, MediatorService, TranslationResponse
from .shard import ShardedGraph, shard_for_subject, shard_graph
from .void import DatasetDescription, descriptions_from_graph, descriptions_to_graph

__all__ = [
    "SparqlEndpoint", "LocalSparqlEndpoint", "HttpSparqlEndpoint",
    "EndpointStatistics",
    "EndpointError", "EndpointUnavailable", "EndpointTimeout",
    "ExecutionPolicy", "CircuitBreaker", "CircuitState",
    "DatasetDescription", "descriptions_to_graph", "descriptions_from_graph",
    "DatasetRegistry", "RegisteredDataset", "EndpointHealth",
    "FederatedQueryEngine", "FederatedResult", "DatasetResult",
    "DecomposedPlan", "QueryUnit", "PatternSources", "SourceDecision",
    "SourceSelector", "decompose_query", "execute_decomposed",
    "DEFAULT_BIND_JOIN_BATCH",
    "recall",
    "ShardedGraph", "shard_graph", "shard_for_subject",
    "MediatorService", "DatasetInfo", "TranslationResponse", "ExecutionResponse",
]
