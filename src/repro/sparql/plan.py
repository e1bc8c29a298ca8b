"""Cost-based query planning onto the batched executor.

The reference evaluator (:mod:`repro.sparql.evaluator`) materialises the
full binding list at every step and defers FILTERs to the end of their
group.  This module compiles the :class:`~repro.sparql.algebra.AlgebraNode`
tree of a query straight into the batched operators of
:mod:`repro.sparql.exec` instead:

* :class:`~repro.sparql.exec.VecBGPOp` — a chain of index scans over the
  triple patterns of a BGP, ordered greedily by exact cardinality
  estimates drawn from the graph's incrementally maintained statistics
  (:meth:`repro.rdf.Graph.cardinality`),
* :class:`~repro.sparql.exec.VecHashJoinOp` — a hash join on the shared
  variables of two independent sub-plans (build on the right side, probe
  the left),
* :class:`~repro.sparql.exec.VecBindJoinOp` — the nested-loop (bind) join:
  left solutions flow into the right sub-plan as input rows, so the right
  side's index scans are correlated lookups.  One cost rule picks between
  the two (:meth:`QueryPlanner._compile_join`): the right side is compiled
  both alone and bound to the left's certain variables, and the hash join
  is kept only when it is safe (shared variables certainly bound on both
  sides) and scanning the right side's whole extension to build the table
  costs less than probing it once per left row —
  ``alone.est <= left.est * max(1, bound.est) * _PROBE_COST``.  A small
  ``VALUES`` table therefore drives index lookups; a large one still
  builds once,
* :class:`~repro.sparql.exec.VecLeftJoinOp` /
  :class:`~repro.sparql.exec.VecUnionOp` — OPTIONAL and UNION, correlated
  with their input the same way,
* :class:`~repro.sparql.exec.VecFilterOp` — FILTERs pushed down to the
  earliest operator at which every variable of the expression is
  *certainly* bound (which is exactly the point from which their verdict
  can no longer change),
* project / distinct / order-by / slice operators — the solution-modifier
  pipeline.

This module defines no operator of its own: the operators it builds are
the plan (:class:`~repro.sparql.exec.ExecPlan`), so EXPLAIN
(:meth:`~repro.sparql.exec.ExecPlan.explain`, exposed on the CLI as
``repro query --explain``) and EXPLAIN ANALYZE render the same nodes.
Planned execution is solution-equivalent to the reference evaluator: the
same multiset of solutions, in the same order whenever the query
constrains order (ORDER BY); the conformance corpus and the hypothesis
differential test pin this down.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..rdf import BNode, Graph, GraphView, Term, Triple, Variable
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
from .ast import AskQuery, Expression, Query
from .evaluator import bnode_anchor, pattern_text
from .exec import (
    ExecContext,
    ExecPlan,
    ScanStep,
    Schema,
    VecBGPOp,
    VecBindJoinOp,
    VecDistinctOp,
    VecFilterOp,
    VecHashJoinOp,
    VecLeftJoinOp,
    VecOperator,
    VecOrderByOp,
    VecProjectOp,
    VecSliceOp,
    VecTableOp,
    VecUnionOp,
)

__all__ = [
    "CardinalityEstimator",
    "QueryPlanner",
    "plan_query",
    "order_patterns",
]

#: Hash joins build a table from the full right-hand result; beyond this
#: many estimated build rows the correlated bind-join (which exploits the
#: left bindings as index lookups) is preferred.
_HASH_BUILD_CEILING = 250_000.0

#: Cost of one correlated index probe beyond a hash-table probe, in units of
#: one scanned-and-hashed build row.  Measured break-even (pattern rows per
#: VALUES key at which both joins take equally long; 200-10 000-row patterns
#: x 1-4096 keys): 0.5 on a ``MemoryStore``, 4 on a compacted ``SegmentStore``,
#: 8 on a six-segment one.  2 is the geometric midpoint of that range: inside
#: it the wrong join costs at most 1.4x in memory and 2.1x on six segments,
#: outside it every constant in the range picks the same join.
_PROBE_COST = 2.0


def _binding_variables(pattern: Triple) -> set[Variable]:
    """The variables a scan of ``pattern`` binds (incl. blank-node anchors)."""
    result: set[Variable] = set()
    for term in pattern:
        if isinstance(term, Variable):
            result.add(term)
        elif isinstance(term, BNode):
            result.add(bnode_anchor(term))
    return result


# --------------------------------------------------------------------------- #
# Cardinality estimation
# --------------------------------------------------------------------------- #
class CardinalityEstimator:
    """Estimate how many solutions a triple pattern contributes.

    For patterns whose only free positions are plain wildcards the estimate
    is the *exact* matching-triple count, answered in O(1) from the graph's
    incremental statistics.  A position held by an already-bound variable
    cannot be resolved at plan time, so its average bucket size is used:
    the wildcard count divided by the number of distinct terms in that
    position.
    """

    def __init__(self, graph: Graph | GraphView) -> None:
        self._cardinality = graph.cardinality
        self._stats = graph.stats

    def pattern_estimate(self, pattern: Triple, bound: set[Variable]) -> float:
        lookup: list[Term | None] = []
        bound_positions: list[int] = []
        for index, term in enumerate(pattern):
            if isinstance(term, (Variable, BNode)):
                anchor = term if isinstance(term, Variable) else bnode_anchor(term)
                if anchor in bound:
                    bound_positions.append(index)
                lookup.append(None)
            else:
                lookup.append(term)

        estimate = float(self._cardinality(lookup[0], lookup[1], lookup[2]))
        distinct = (
            self._stats.distinct_subjects,
            self._stats.distinct_predicates,
            self._stats.distinct_objects,
        )
        for index in bound_positions:
            estimate /= max(1, distinct[index])
        return estimate


def order_patterns(
    patterns: Sequence[Triple],
    bound: set[Variable],
    estimator: CardinalityEstimator,
) -> list[Triple]:
    """Greedy, deterministic join order for the patterns of one BGP.

    Repeatedly pick the cheapest pattern (lowest cardinality estimate under
    the variables bound so far, ties broken by the pattern's serialised
    text), preferring patterns connected to already-bound variables so the
    chain never degenerates into an avoidable cross product.
    """
    remaining = list(patterns)
    ordered: list[Triple] = []
    seen_vars = set(bound)
    while remaining:
        connected = [
            pattern for pattern in remaining
            if not _binding_variables(pattern) or _binding_variables(pattern) & seen_vars
        ]
        candidates = connected if connected and seen_vars else remaining

        def sort_key(pattern: Triple) -> tuple[float, str]:
            return (estimator.pattern_estimate(pattern, seen_vars), pattern_text(pattern))

        best = min(candidates, key=sort_key)
        remaining.remove(best)
        ordered.append(best)
        seen_vars |= _binding_variables(best)
    return ordered


# --------------------------------------------------------------------------- #
# Static variable analysis (certain vs. possible bindings)
# --------------------------------------------------------------------------- #
def certain_variables(node: AlgebraNode) -> set[Variable]:
    """Variables bound in *every* solution the node can produce."""
    if isinstance(node, AlgebraBGP):
        result: set[Variable] = set()
        for pattern in node.patterns:
            result |= _binding_variables(pattern)
        return result
    if isinstance(node, AlgebraTable):
        # A variable is certainly bound when no row leaves it UNDEF (an
        # empty table produces no solutions, so the claim is vacuous).
        return {
            variable
            for index, variable in enumerate(node.columns)
            if all(row[index] is not None for row in node.rows)
        }
    if isinstance(node, AlgebraJoin):
        return certain_variables(node.left) | certain_variables(node.right)
    if isinstance(node, AlgebraLeftJoin):
        return certain_variables(node.left)
    if isinstance(node, AlgebraUnion):
        return certain_variables(node.left) & certain_variables(node.right)
    if isinstance(node, AlgebraFilter):
        return certain_variables(node.child)
    if isinstance(node, AlgebraProject):
        return certain_variables(node.child) & set(node.projection)
    if isinstance(node, (AlgebraDistinct, AlgebraOrderBy, AlgebraSlice)):
        return certain_variables(node.children()[0])
    return set()


def possible_variables(node: AlgebraNode) -> set[Variable]:
    """Variables bound in *some* solution the node can produce."""
    if isinstance(node, AlgebraBGP):
        return certain_variables(node)
    if isinstance(node, AlgebraTable):
        return set(node.columns)
    if isinstance(node, (AlgebraJoin, AlgebraLeftJoin, AlgebraUnion)):
        return possible_variables(node.left) | possible_variables(node.right)
    if isinstance(node, AlgebraFilter):
        return possible_variables(node.child)
    if isinstance(node, AlgebraProject):
        return possible_variables(node.child) & set(node.projection)
    if isinstance(node, (AlgebraDistinct, AlgebraOrderBy, AlgebraSlice)):
        return possible_variables(node.children()[0])
    return set()


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #
class QueryPlanner:
    """Compile algebra trees onto batched operators for one graph."""

    def __init__(self, graph: Graph | GraphView) -> None:
        self._graph = graph
        self._estimator = CardinalityEstimator(graph)

    # -- public entry points ------------------------------------------------ #
    def plan(self, query: Query) -> ExecPlan:
        """Plan a full query (WHERE clause plus solution modifiers)."""
        if isinstance(query, AskQuery):
            # ASK ignores solution modifiers; plan the pattern only so the
            # executor can stop at the first solution.
            node = translate_group(query.where)
        else:
            node = translate_query(query)
        ctx = ExecContext(self._graph)
        root, _, _ = self._compile(
            self._coalesce(node), ctx, (), frozenset(), frozenset(), []
        )
        return ExecPlan(query, root, ctx)

    # -- algebra normalisation ---------------------------------------------- #
    @staticmethod
    def _coalesce(node: AlgebraNode) -> AlgebraNode:
        """Fuse Join(BGP, BGP) into one BGP so ordering sees all patterns."""

        def fuse(candidate: AlgebraNode) -> AlgebraNode | None:
            if (
                isinstance(candidate, AlgebraJoin)
                and isinstance(candidate.left, AlgebraBGP)
                and isinstance(candidate.right, AlgebraBGP)
            ):
                return AlgebraBGP(list(candidate.left.patterns) + list(candidate.right.patterns))
            return None

        return node.transform(fuse)

    # -- recursive compilation ---------------------------------------------- #
    def _compile(
        self,
        node: AlgebraNode,
        ctx: ExecContext,
        schema: Schema,
        certain: frozenset,
        possible: frozenset,
        pending: list[Expression],
    ) -> tuple[VecOperator, frozenset, frozenset]:
        """Compile ``node`` given the input stream's rows and variables.

        ``schema`` is the layout of the rows arriving from the operator's
        input stream, and ``certain``/``possible`` the variables they bind;
        ``pending`` are FILTER expressions scoped to this subtree that are
        guaranteed to have been applied by the time the returned
        operator's output emerges.
        """
        if isinstance(node, AlgebraFilter):
            return self._compile(
                node.child, ctx, schema, certain, possible, pending + [node.expression]
            )
        if isinstance(node, AlgebraBGP):
            return self._compile_bgp(node, ctx, schema, certain, possible, pending)
        if isinstance(node, AlgebraTable):
            table_certain = frozenset(certain_variables(node))
            table_possible = frozenset(node.columns)
            op: VecOperator = VecTableOp(ctx, schema, node.columns, node.rows)
            if pending:
                # FILTERs run at their original position, after the join
                # with the inline table.
                op = VecFilterOp(ctx, op, pending)
            return op, certain | table_certain, possible | table_possible
        if isinstance(node, AlgebraJoin):
            return self._compile_join(node, ctx, schema, certain, possible, pending)
        if isinstance(node, AlgebraLeftJoin):
            return self._compile_leftjoin(node, ctx, schema, certain, possible, pending)
        if isinstance(node, AlgebraUnion):
            ord_var = ctx.fresh_ordinal()
            branches: list[VecOperator] = []
            branch_certain: list[frozenset] = []
            branch_possible: list[frozenset] = []
            for child in (node.left, node.right):
                op, c_out, p_out = self._compile(
                    child, ctx, schema + (ord_var,), certain, possible, list(pending)
                )
                branches.append(op)
                branch_certain.append(c_out)
                branch_possible.append(p_out)
            return (
                VecUnionOp(ctx, schema, branches, ord_var),
                certain | (branch_certain[0] & branch_certain[1]),
                possible | branch_possible[0] | branch_possible[1],
            )
        if isinstance(node, AlgebraProject):
            child, c_out, p_out = self._compile(node.child, ctx, schema, certain, possible, pending)
            projection = frozenset(node.projection)
            return (
                VecProjectOp(ctx, child, node.projection),
                c_out & projection,
                p_out & projection,
            )
        if isinstance(node, AlgebraDistinct):
            child, c_out, p_out = self._compile(node.child, ctx, schema, certain, possible, pending)
            return VecDistinctOp(ctx, child), c_out, p_out
        if isinstance(node, AlgebraOrderBy):
            child, c_out, p_out = self._compile(node.child, ctx, schema, certain, possible, pending)
            return VecOrderByOp(ctx, child, node.conditions), c_out, p_out
        if isinstance(node, AlgebraSlice):
            child, c_out, p_out = self._compile(node.child, ctx, schema, certain, possible, pending)
            return VecSliceOp(ctx, child, node.offset, node.limit), c_out, p_out
        raise TypeError(f"cannot compile algebra node: {node!r}")

    def _compile_bgp(
        self,
        node: AlgebraBGP,
        ctx: ExecContext,
        schema: Schema,
        certain: frozenset,
        possible: frozenset,
        pending: list[Expression],
    ) -> tuple[VecOperator, frozenset, frozenset]:
        ordered = order_patterns(node.patterns, set(certain), self._estimator)
        bound = set(certain)
        remaining = list(pending)
        steps: list[ScanStep] = []
        for pattern in ordered:
            est = self._estimator.pattern_estimate(pattern, bound)
            bound |= _binding_variables(pattern)
            attached: list[Expression] = []
            still_pending: list[Expression] = []
            for expr in remaining:
                if expr.variables() <= bound:
                    attached.append(expr)
                else:
                    still_pending.append(expr)
            remaining = still_pending
            steps.append(ScanStep(pattern, attached, est))
        # Whatever could not be pushed runs at the end of the chain — the
        # original FILTER position, so semantics are unchanged.
        op = VecBGPOp(ctx, schema, steps, remaining)
        bgp_vars = frozenset(bound) - certain
        return op, certain | bgp_vars, possible | bgp_vars

    def _compile_join(
        self,
        node: AlgebraJoin,
        ctx: ExecContext,
        schema: Schema,
        certain: frozenset,
        possible: frozenset,
        pending: list[Expression],
    ) -> tuple[VecOperator, frozenset, frozenset]:
        left_static_certain = certain_variables(node.left) | certain
        push_left = [expr for expr in pending if expr.variables() <= left_static_certain]
        rest = [expr for expr in pending if expr not in push_left]
        left_op, left_certain, left_possible = self._compile(
            node.left, ctx, schema, certain, possible, push_left
        )

        right_certain_static = frozenset(certain_variables(node.right))
        right_possible_static = frozenset(possible_variables(node.right))
        shared = left_possible & right_possible_static
        hash_safe = (
            bool(shared)
            and shared <= left_certain
            and shared <= right_certain_static
        )
        right_op, right_certain, right_possible = self._compile(
            node.right, ctx, left_op.schema, left_certain, left_possible, rest
        )
        if hash_safe:
            push_right = [
                expr for expr in rest if expr.variables() <= right_certain_static
            ]
            right_alone, alone_certain, alone_possible = self._compile(
                node.right, ctx, (), frozenset(), frozenset(), push_right
            )
            # Building scans the right side's whole extension once; probing
            # runs the bound right side once per left row.
            probing = left_op.est * max(1.0, right_op.est) * _PROBE_COST
            if right_alone.est <= min(probing, _HASH_BUILD_CEILING):
                leftover = [expr for expr in rest if expr not in push_right]
                op: VecOperator = VecHashJoinOp(
                    ctx, left_op, right_alone, sorted(shared, key=str)
                )
                if leftover:
                    op = VecFilterOp(ctx, op, leftover)
                return (
                    op,
                    left_certain | alone_certain,
                    left_possible | alone_possible,
                )

        return VecBindJoinOp(ctx, left_op, right_op), right_certain, right_possible

    def _compile_leftjoin(
        self,
        node: AlgebraLeftJoin,
        ctx: ExecContext,
        schema: Schema,
        certain: frozenset,
        possible: frozenset,
        pending: list[Expression],
    ) -> tuple[VecOperator, frozenset, frozenset]:
        left_static_certain = certain_variables(node.left) | certain
        push_left = [expr for expr in pending if expr.variables() <= left_static_certain]
        rest = [expr for expr in pending if expr not in push_left]
        left_op, left_certain, left_possible = self._compile(
            node.left, ctx, schema, certain, possible, push_left
        )
        ord_var = ctx.fresh_ordinal()
        right_op, _, right_possible = self._compile(
            node.right, ctx, left_op.schema + (ord_var,), left_certain, left_possible, []
        )
        op: VecOperator = VecLeftJoinOp(ctx, left_op, right_op, node.expression, ord_var)
        if rest:
            # A FILTER above an OPTIONAL also constrains the unextended
            # fallback rows, so it cannot move below the left join.
            op = VecFilterOp(ctx, op, rest)
        return op, left_certain, left_possible | right_possible


def plan_query(query: Query, graph: Graph | GraphView) -> ExecPlan:
    """Module-level convenience: plan ``query`` over ``graph``."""
    return QueryPlanner(graph).plan(query)
