"""SPARQL substrate: tokenizer, parser, AST, algebra, evaluator, results.

This package substitutes for the Jena ARQ library used by the original
system (see DESIGN.md): it gives the rewriting engine access to the query
structure (Section 3.1's anatomy — result form, basic graph patterns and
filters) and lets the federation layer execute queries against in-memory
graphs standing in for remote endpoints.
"""

from .ast import (
    AskQuery,
    BinaryExpression,
    ConstructQuery,
    Expression,
    Filter,
    FunctionCall,
    GroupGraphPattern,
    InlineData,
    OptionalPattern,
    OrderCondition,
    Prologue,
    Query,
    SelectQuery,
    SolutionModifiers,
    TermExpression,
    TriplesBlock,
    UnaryExpression,
    UnionPattern,
    VariableExpression,
)
from .algebra import (
    AlgebraBGP,
    AlgebraDistinct,
    AlgebraFilter,
    AlgebraJoin,
    AlgebraLeftJoin,
    AlgebraNode,
    AlgebraOrderBy,
    AlgebraProject,
    AlgebraSlice,
    AlgebraTable,
    AlgebraUnion,
    translate_group,
    translate_query,
)
from .evaluator import (
    ENGINES,
    QueryEvaluator,
    evaluate_group,
    match_bgp,
    ordered_bgp_patterns,
)
from .exec import (
    RUN_EVENTS_ENV,
    ExecPlan,
    QueryRunEvent,
)
from .plan import (
    CardinalityEstimator,
    QueryPlanner,
    plan_query,
)
from .expressions import (
    ExpressionError,
    effective_boolean_value,
    evaluate_expression,
    expression_satisfied,
)
from .formats import (
    ASK_MEDIA_TYPES,
    FormatError,
    GRAPH_MEDIA_TYPES,
    RESULT_MEDIA_TYPES,
    negotiate,
    parse_results,
    write_results,
)
from .analysis import (
    AnalysisResult,
    Diagnostic,
    DIAGNOSTIC_CODES,
    QueryAnalysisError,
    analyze_query,
    prune_query,
)
from .parser import SparqlParseError, SparqlParser, parse_query
from .results import AskResult, Binding, ResultSet, TermSerializationError
from .serializer import serialize_expression, serialize_query
from .tokenizer import SourceSpan, SparqlLexError, SparqlToken, tokenize_sparql

__all__ = [
    # parsing
    "SparqlParser", "SparqlParseError", "parse_query",
    "SparqlToken", "SparqlLexError", "tokenize_sparql", "SourceSpan",
    # static analysis
    "Diagnostic", "AnalysisResult", "QueryAnalysisError",
    "DIAGNOSTIC_CODES", "analyze_query", "prune_query",
    # AST
    "Query", "SelectQuery", "AskQuery", "ConstructQuery",
    "Prologue", "SolutionModifiers", "OrderCondition",
    "GroupGraphPattern", "TriplesBlock", "Filter", "OptionalPattern", "UnionPattern",
    "InlineData",
    "Expression", "TermExpression", "VariableExpression", "BinaryExpression",
    "UnaryExpression", "FunctionCall",
    # algebra
    "AlgebraNode", "AlgebraBGP", "AlgebraJoin", "AlgebraLeftJoin", "AlgebraUnion",
    "AlgebraFilter", "AlgebraProject", "AlgebraDistinct", "AlgebraOrderBy", "AlgebraSlice",
    "AlgebraTable",
    "translate_query", "translate_group",
    # evaluation
    "ENGINES", "QueryEvaluator", "evaluate_group", "match_bgp",
    "ordered_bgp_patterns",
    # batched execution core
    "ExecPlan", "QueryRunEvent", "RUN_EVENTS_ENV",
    "ExpressionError", "evaluate_expression", "expression_satisfied",
    "effective_boolean_value",
    # planning
    "QueryPlanner", "CardinalityEstimator",
    "plan_query",
    # results
    "Binding", "ResultSet", "AskResult", "TermSerializationError",
    # wire formats
    "FormatError", "write_results", "parse_results", "negotiate",
    "RESULT_MEDIA_TYPES", "ASK_MEDIA_TYPES", "GRAPH_MEDIA_TYPES",
    # serialisation
    "serialize_query", "serialize_expression",
]
