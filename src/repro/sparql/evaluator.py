"""In-memory SPARQL query evaluation over :class:`repro.rdf.Graph`.

The evaluator implements the standard bottom-up semantics:

* BGP matching produces solution bindings by joining triple-pattern matches
  (with a greedy selectivity-based pattern ordering),
* group graph patterns combine element results with join / left-join
  (OPTIONAL) / union semantics,
* FILTER elements restrict the solutions of their enclosing group,
* solution modifiers apply DISTINCT, ORDER BY, OFFSET and LIMIT,
* SELECT projects, ASK checks emptiness, CONSTRUCT instantiates templates.

This substrate plays the role of the remote SPARQL endpoints of the
original deployment (ARQ over Jena behind HTTP): the federation layer runs
rewritten queries against it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from ..obs.export import SINK
from ..obs.trace import get_tracer
from ..rdf import BNode, Graph, Literal, Term, Triple, URIRef, Variable, fresh_bnode
from .ast import (
    AskQuery,
    ConstructQuery,
    Filter,
    GroupGraphPattern,
    InlineData,
    OptionalPattern,
    Query,
    SelectQuery,
    TriplesBlock,
    UnionPattern,
)
from .expressions import ExpressionError, evaluate_expression, expression_satisfied
from .parser import parse_query
from .results import AskResult, Binding, ResultSet

__all__ = [
    "ENGINES",
    "QueryEvaluator",
    "evaluate_group",
    "match_bgp",
    "ordered_bgp_patterns",
    "pattern_text",
]


# --------------------------------------------------------------------------- #
# BGP matching
# --------------------------------------------------------------------------- #
#: Name prefix of the internal variables standing in for query blank nodes.
#: Shared by the reference evaluator and the planner (both must bind and hide
#: blank-node positions identically).
BNODE_ANCHOR_PREFIX = "__bnode_"


def bnode_anchor(term: BNode) -> Variable:
    """The internal variable standing in for a query blank node."""
    return Variable(f"{BNODE_ANCHOR_PREFIX}{term.value}")


def pattern_text(pattern: Triple) -> str:
    """A pattern's N3 text: EXPLAIN rendering and deterministic tie-break key."""
    return " ".join(term.n3() for term in pattern)


def _pattern_selectivity(pattern: Triple, bound_vars: set) -> int:
    """Lower numbers mean more selective (more ground/bound positions)."""
    bound = 0
    for term in pattern:
        if isinstance(term, Variable):
            if term in bound_vars:
                bound += 1
        elif isinstance(term, BNode):
            if bnode_anchor(term) in bound_vars:
                bound += 1
        else:
            bound += 1
    return 3 - bound


def _pattern_binding_vars(pattern: Triple) -> set:
    """The variables (incl. blank-node anchors) a pattern match binds."""
    result = set()
    for term in pattern:
        if isinstance(term, Variable):
            result.add(term)
        elif isinstance(term, BNode):
            result.add(bnode_anchor(term))
    return result


def ordered_bgp_patterns(
    patterns: Sequence[Triple],
    initial: Binding | None = None,
) -> list[Triple]:
    """Deterministic greedy evaluation order for a BGP.

    The order is computed *once*, statically: repeatedly pick the most
    selective pattern under the variables bound so far (ground and
    already-bound positions count equally), breaking ties by the pattern's
    serialised text and then by input position.  This replaces the old
    per-round re-sort against ``solutions[0]``, whose tie handling depended
    on incidental list order — plan choice can no longer flip between runs
    or between equal-solution graphs.
    """
    bound_vars = set(initial or ())
    remaining = list(enumerate(patterns))
    ordered: list[Triple] = []
    while remaining:
        best = min(
            remaining,
            key=lambda item: (
                _pattern_selectivity(item[1], bound_vars),
                pattern_text(item[1]),
                item[0],
            ),
        )
        remaining.remove(best)
        ordered.append(best[1])
        bound_vars |= _pattern_binding_vars(best[1])
    return ordered


def _match_triple(pattern: Triple, binding: Binding, graph) -> Iterator[Binding]:
    """All extensions of ``binding`` that match ``pattern`` against ``graph``.

    Blank nodes written in the query pattern behave as non-selective
    variables scoped to the query (standard SPARQL BGP semantics); a blank
    node that arrives through the *binding* (i.e. a variable already bound
    to a data blank node by an earlier pattern) is a concrete value and must
    match exactly.
    """

    def resolved(term: Term) -> Term | None:
        """The ground value this position must equal, or None when free."""
        if isinstance(term, Variable):
            return binding.get_term(term)
        if isinstance(term, BNode):
            return binding.get_term(bnode_anchor(term))
        return term

    lookup_subject = resolved(pattern.subject)
    lookup_predicate = resolved(pattern.predicate)
    lookup_object = resolved(pattern.object)

    for triple in graph.triples(lookup_subject, lookup_predicate, lookup_object):
        extended: Binding | None = binding
        for pattern_term, data_term in zip(pattern, triple, strict=True):
            if isinstance(pattern_term, Variable):
                key: Term = pattern_term
            elif isinstance(pattern_term, BNode):
                key = bnode_anchor(pattern_term)
            else:
                if pattern_term != data_term:
                    extended = None
                    break
                continue
            bound = extended.get_term(key)
            if bound is None:
                extended = extended.extend(key, data_term)
            elif bound != data_term:
                extended = None
                break
        if extended is not None:
            yield extended


def match_bgp(
    patterns: Sequence[Triple],
    graph,
    initial: Binding | None = None,
) -> Iterator[Binding]:
    """Match a Basic Graph Pattern (a conjunction of triple patterns)."""
    solutions: list[Binding] = [initial or Binding()]
    for pattern in ordered_bgp_patterns(patterns, initial):
        next_solutions: list[Binding] = []
        for solution in solutions:
            next_solutions.extend(_match_triple(pattern, solution, graph))
        solutions = next_solutions
        if not solutions:
            return iter(())
    return iter(solutions)


# --------------------------------------------------------------------------- #
# Group graph patterns
# --------------------------------------------------------------------------- #
def evaluate_group(
    group: GroupGraphPattern,
    graph,
    initial: Binding | None = None,
) -> list[Binding]:
    """Evaluate a group graph pattern, returning the list of solutions."""
    solutions: list[Binding] = [initial or Binding()]
    filters: list[Filter] = []

    for element in group.elements:
        if isinstance(element, Filter):
            # FILTERs scope over the whole group: apply after everything else.
            filters.append(element)
            continue
        solutions = _apply_element(element, solutions, graph)
        if not solutions and not filters:
            # Keep evaluating filters for error-freedom but no solutions remain.
            pass

    for filter_element in filters:
        solutions = [
            solution
            for solution in solutions
            if expression_satisfied(filter_element.expression, solution)
        ]
    return solutions


def _apply_element(element, solutions: list[Binding], graph) -> list[Binding]:
    if isinstance(element, TriplesBlock):
        result: list[Binding] = []
        for solution in solutions:
            result.extend(match_bgp(element.patterns, graph, initial=solution))
        return result
    if isinstance(element, GroupGraphPattern):
        result = []
        for solution in solutions:
            result.extend(evaluate_group(element, graph, initial=solution))
        return result
    if isinstance(element, OptionalPattern):
        result = []
        for solution in solutions:
            extensions = evaluate_group(element.group, graph, initial=solution)
            if extensions:
                result.extend(extensions)
            else:
                result.append(solution)
        return result
    if isinstance(element, UnionPattern):
        result = []
        for solution in solutions:
            for alternative in element.alternatives:
                result.extend(evaluate_group(alternative, graph, initial=solution))
        return result
    if isinstance(element, InlineData):
        result = []
        for solution in solutions:
            for row in element.rows:
                extension = Binding({
                    variable: term
                    for variable, term in zip(element.columns, row, strict=True)
                    if term is not None
                })
                if solution.compatible(extension):
                    result.append(solution.merge(extension))
        return result
    raise TypeError(f"unsupported pattern element: {element!r}")


# --------------------------------------------------------------------------- #
# Query forms and modifiers
# --------------------------------------------------------------------------- #
#: Engines accepted by :class:`QueryEvaluator`.
#:
#: * ``planner`` — cost-based plan, batched (vectorized) execution
#:   (:mod:`repro.sparql.plan` building :mod:`repro.sparql.exec`'s operators)
#: * ``reference`` — the dict-at-a-time bottom-up evaluator of this module,
#:   kept as the independently-implemented oracle of the differential tests
ENGINES = ("planner", "reference")


class QueryEvaluator:
    """Evaluate parsed queries (or query text) against a graph.

    By default queries run through the cost-based planner compiled onto the
    batched execution core (:mod:`repro.sparql.exec`): statistics-ordered
    index scans, pushed-down FILTERs, adaptive join reordering and
    early-terminating modifiers.  ``engine="reference"`` picks the
    dict-at-a-time oracle instead — the differential tests execute both
    engines and require identical solution multisets.
    """

    def __init__(
        self,
        graph: Graph,
        engine: str = "planner",
        strict: bool = False,
        analysis: bool = True,
    ) -> None:
        self._graph = graph
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
            )
        self.engine = engine
        #: ``strict=True`` refuses queries with error-severity diagnostics
        #: (raising :class:`repro.sparql.analysis.QueryAnalysisError`);
        #: ``analysis=False`` disables the static analyzer entirely (no
        #: diagnostics, no constant folding, no provably-empty pruning).
        self.strict = strict
        self.analysis_enabled = analysis
        self._prepared: tuple | None = None
        # Evaluator construction is a configuration point: pick up any
        # change to REPRO_RUN_EVENTS made since the last refresh.
        SINK.refresh()

    # -- static analysis ------------------------------------------------------ #
    def _prepare(self, query: Query):
        """``(analysis, effective_query)`` for ``query``; cached per AST.

        ``effective_query`` has analyzer-proven redundancy (constant-true
        FILTERs) pruned; when analysis is disabled both are passthroughs.
        In strict mode error-severity diagnostics raise immediately.
        """
        from .analysis import QueryAnalysisError, analyze_query, prune_query

        if not self.analysis_enabled:
            return None, query
        # One evaluator serves every handler thread of an endpoint: read
        # the memo once, so the three parts come from the same write.
        prepared = self._prepared
        if prepared is not None and prepared[0] is query:
            _, analysis, effective = prepared
        else:
            analysis = analyze_query(query, self._graph)
            effective = prune_query(query, analysis)
            self._prepared = (query, analysis, effective)
        if self.strict and analysis.has_errors:
            raise QueryAnalysisError(analysis.diagnostics)
        return analysis, effective

    def _attach(self, result, analysis):
        if analysis is not None and hasattr(result, "diagnostics"):
            result.diagnostics = list(analysis.diagnostics)
        return result

    def _empty_result(
        self, query: Query, analysis
    ) -> ResultSet | AskResult | Graph:
        """The (empty) result of a provably-empty query — zero lookups."""
        if isinstance(query, SelectQuery):
            result: ResultSet | AskResult | Graph = ResultSet(
                query.effective_projection(), []
            )
        elif isinstance(query, AskQuery):
            result = AskResult(False)
        elif isinstance(query, ConstructQuery):
            result = Graph(namespace_manager=query.prologue.namespace_manager.copy())
        else:
            raise TypeError(f"unsupported query form: {type(query).__name__}")
        return self._attach(result, analysis)

    @property
    def graph(self) -> Graph:
        return self._graph

    def evaluate(self, query: Query | str) -> ResultSet | AskResult | Graph:
        """Evaluate a query; the result type depends on the query form."""
        if isinstance(query, str):
            query = parse_query(query)
        analysis, effective = self._prepare(query)
        if analysis is not None and analysis.provably_empty:
            # Zero index lookups: the analyzer proved emptiness statically.
            return self._empty_result(query, analysis)
        if isinstance(effective, SelectQuery):
            return self._attach(self._evaluate_select(effective), analysis)
        if isinstance(effective, AskQuery):
            return self._attach(self._evaluate_ask(effective), analysis)
        if isinstance(effective, ConstructQuery):
            return self._evaluate_construct(effective)
        raise TypeError(f"unsupported query form: {type(query).__name__}")

    def explain(self, query: Query | str) -> str:
        """EXPLAIN-style rendering of the plan :meth:`evaluate` runs.

        Like evaluation, it plans the analyzer's pruned query; a query the
        analyzer proved empty renders as the single ``AnalysisPrune``
        operator that :meth:`analyze` reports.
        """
        from .plan import plan_query

        if isinstance(query, str):
            query = parse_query(query)
        analysis, effective = self._prepare(query)
        if analysis is not None and analysis.provably_empty:
            return self._empty_plan(query, analysis).explain()
        return plan_query(effective, self._graph).explain()

    def analyze(self, query: Query | str):
        """EXPLAIN ANALYZE: evaluate ``query`` and return ``(result, event)``.

        The event is a :class:`repro.sparql.exec.QueryRunEvent` with
        per-operator rows/batches/wall-time and any adaptivity decisions;
        ``event.render()`` gives the human-readable report.  The reference
        oracle has no batched instrumentation, so it analyzes through the
        planner.
        """
        text = query if isinstance(query, str) else None
        if isinstance(query, str):
            query = parse_query(query)
        analysis, effective = self._prepare(query)
        if analysis is not None and analysis.provably_empty:
            plan = self._empty_plan(query, analysis)
        else:
            plan = self._compile(effective)
        if isinstance(query, SelectQuery):
            projection = query.effective_projection()
            result: ResultSet | AskResult | Graph = ResultSet.from_rows(
                projection, plan.term_rows(projection)
            )
        elif isinstance(query, AskQuery):
            result = AskResult(plan.first_binding() is not None)
        elif isinstance(query, ConstructQuery):
            result = _construct_graph(query, plan.bindings())
        else:
            raise TypeError(f"unsupported query form: {type(query).__name__}")
        self._attach(result, analysis)
        return result, _finish(plan, text or type(query).__name__, analyze=True)

    def select(self, query: SelectQuery | str) -> ResultSet:
        """Evaluate a SELECT query (convenience wrapper with type checking)."""
        result = self.evaluate(query)
        if not isinstance(result, ResultSet):
            raise TypeError("query did not produce a SELECT result")
        return result

    # -- batched compilation --------------------------------------------------- #
    def _compile(self, query: Query):
        """Plan ``query`` onto the batched execution core."""
        from .plan import QueryPlanner

        with get_tracer().start_span(
            "planner.compile", {"engine": self.engine, "layer": "planner"}
        ) as span:
            plan = QueryPlanner(self._graph).plan(query)
            if span.recording:
                span.set_attribute("operators", _count_operators(plan.root))
        return plan

    def _empty_plan(self, query: Query, analysis):
        """The zero-lookup plan of a query the analyzer proved empty."""
        from .exec import compile_empty_query

        return compile_empty_query(
            query,
            self._graph,
            analysis.empty_reason or "analysis proved the query empty",
        )

    # -- SELECT -------------------------------------------------------------- #
    def _evaluate_select(self, query: SelectQuery) -> ResultSet:
        projection = query.effective_projection()
        if self.engine == "reference":
            solutions = evaluate_group(query.where, self._graph)

            def project(solution: Binding) -> Binding:
                return solution.project(
                    [v for v in projection if not v.name.startswith(BNODE_ANCHOR_PREFIX)]
                )

            solutions = self._apply_modifiers(query, solutions, project)
            return ResultSet(projection, solutions)
        plan = self._compile(query)
        result = ResultSet.from_rows(projection, plan.term_rows(projection))
        _finish(plan, type(query).__name__)
        return result

    def _apply_modifiers(
        self,
        query: Query,
        solutions: list[Binding],
        project=None,
    ) -> list[Binding]:
        """Solution modifiers in standard SPARQL order.

        ORDER BY sorts the full solutions (it may reference non-projected
        variables), then the projection is applied, then DISTINCT
        deduplicates, and only then OFFSET/LIMIT slice — so a query such as
        ``SELECT DISTINCT ?t ... LIMIT 2`` returns two distinct rows, not
        two raw rows deduplicated afterwards.
        """
        modifiers = query.modifiers
        if modifiers.order_by:
            solutions = _order(solutions, modifiers.order_by)
        if project is not None:
            solutions = [project(solution) for solution in solutions]
        if modifiers.distinct:
            solutions = _distinct(solutions)
        offset = modifiers.offset or 0
        if offset:
            solutions = solutions[offset:]
        if modifiers.limit is not None:
            solutions = solutions[: modifiers.limit]
        return solutions

    # -- ASK ------------------------------------------------------------------ #
    def _evaluate_ask(self, query: AskQuery) -> AskResult:
        if self.engine == "reference":
            solutions = evaluate_group(query.where, self._graph)
            return AskResult(bool(solutions))
        # Stop at the first solution: the scan chain emits tiny initial
        # batches, so only a handful of index lookups run.
        plan = self._compile(query)
        result = AskResult(plan.first_binding() is not None)
        _finish(plan, type(query).__name__)
        return result

    # -- CONSTRUCT ------------------------------------------------------------ #
    def _evaluate_construct(self, query: ConstructQuery) -> Graph:
        if self.engine == "reference":
            solutions = self._apply_modifiers(
                query, evaluate_group(query.where, self._graph)
            )
            return _construct_graph(query, solutions)
        plan = self._compile(query)
        output = _construct_graph(query, plan.bindings())
        _finish(plan, type(query).__name__)
        return output


def _finish(plan, label: str, analyze: bool = False):
    """End a planner run through the one finishing function; its event
    (None when nothing reads it)."""
    from .exec import finish_run

    return finish_run(plan, label, plan.elapsed, "evaluator", analyze)


def _count_operators(op) -> int:
    """Operators in the tree under ``op`` (``op`` included)."""
    return 1 + sum(_count_operators(child) for child in op.children())


def _construct_graph(query: ConstructQuery, solutions: Iterable[Binding]) -> Graph:
    """Instantiate a CONSTRUCT template once per solution."""
    output = Graph(namespace_manager=query.prologue.namespace_manager.copy())
    for solution in solutions:
        bnode_map: dict = {}
        for pattern in query.template:
            instantiated = _instantiate_template(pattern, solution, bnode_map)
            if instantiated is not None:
                output.add(instantiated)
    return output


def _instantiate_template(pattern: Triple, solution: Binding, bnode_map: dict) -> Triple | None:
    terms = []
    for term in pattern:
        if isinstance(term, Variable):
            value = solution.get_term(term)
            if value is None:
                return None
            terms.append(value)
        elif isinstance(term, BNode):
            terms.append(bnode_map.setdefault(term, fresh_bnode("ct")))
        else:
            terms.append(term)
    try:
        return Triple(*terms)
    except TypeError:
        # e.g. a literal ended up in the subject position — skip the triple,
        # matching the lenient behaviour of common engines.
        return None


def _distinct(solutions: list[Binding]) -> list[Binding]:
    seen = set()
    unique: list[Binding] = []
    for solution in solutions:
        key = frozenset(solution.as_dict().items())
        if key not in seen:
            seen.add(key)
            unique.append(solution)
    return unique


def _order(solutions: list[Binding], conditions) -> list[Binding]:
    def sort_key(solution: Binding):
        key = []
        for condition in conditions:
            try:
                value = evaluate_expression(condition.expression, solution)
            except ExpressionError:
                value = None
            key.append(_orderable(value, condition.descending))
        return key

    return sorted(solutions, key=sort_key)


class _Reversed:
    """Wrapper inverting the comparison order for DESC sorting."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: _Reversed) -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def _orderable(value, descending: bool):
    if isinstance(value, Literal):
        python_value = value.to_python()
        normalized = (1, python_value) if isinstance(python_value, (int, float)) else (2, str(python_value))
    elif isinstance(value, (URIRef, BNode)):
        normalized = (3, str(value))
    elif isinstance(value, (int, float)):
        normalized = (1, value)
    elif isinstance(value, str):
        normalized = (2, value)
    elif value is None:
        normalized = (0, "")
    else:
        normalized = (4, str(value))
    # Normalise the payload to a comparable (rank, string) pair when mixed.
    rank, payload = normalized
    if not isinstance(payload, (int, float)):
        payload = str(payload)
        rank = (rank, 1)
    else:
        rank = (rank, 0)
    key = (rank, payload)
    return _Reversed(key) if descending else key
