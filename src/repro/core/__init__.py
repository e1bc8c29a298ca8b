"""Core contribution: alignment-driven SPARQL query rewriting.

Implements the matching function, Algorithm 1 (BGP rewriting), Algorithm 2
(functional dependency instantiation), the query-level rewriter with the
FILTER pass discussed in Section 4, and the mediator that selects
alignments for a target dataset and drives the rewriting.
"""

from .matcher import (
    MatchResult,
    Substitution,
    find_matches,
    match_alignment,
    match_node,
    match_triple,
)
from .index import CompiledRule, CompiledRuleSet, PatternIndex
from .rewriter import (
    FreshVariableGenerator,
    GraphPatternRewriter,
    QueryRewriter,
    RewriteError,
    RewriteReport,
    TripleRewrite,
    clone_query,
    instantiate_functions,
)
from .filter_rewriter import (
    EqualityConstraint,
    extract_equality_constraints,
    translate_expression_terms,
)
from .construct_generator import (
    DataTranslator,
    GeneratedConstruct,
    construct_queries_for_alignments,
    construct_query_for_alignment,
    translate_graph_uris,
)
from .mediator import MEDIATION_MODES, MediationResult, Mediator, TargetProfile

__all__ = [
    # matching
    "Substitution", "MatchResult", "match_node", "match_triple", "match_alignment",
    "find_matches",
    # indexed matching
    "CompiledRule", "CompiledRuleSet", "PatternIndex",
    # rewriting
    "RewriteError", "FreshVariableGenerator", "TripleRewrite", "RewriteReport",
    "instantiate_functions", "GraphPatternRewriter", "QueryRewriter", "clone_query",
    # FILTER pass
    "EqualityConstraint", "extract_equality_constraints", "translate_expression_terms",
    # CONSTRUCT-based data translation
    "GeneratedConstruct", "construct_query_for_alignment",
    "construct_queries_for_alignments", "translate_graph_uris", "DataTranslator",
    # mediation
    "MEDIATION_MODES", "Mediator", "MediationResult", "TargetProfile",
]
