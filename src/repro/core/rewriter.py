"""The SPARQL query rewriting algorithm (Section 3.3 of the paper).

Three layers are provided:

* :func:`instantiate_functions` — Algorithm 2 (``instFunction``): execute
  the functional dependencies of a matched rule over the bindings obtained
  by the matching phase, extending the substitution with the computed
  values.  Functions run **at rewrite time**; unbound variables pass
  through untouched (the paper's "safe assumption" that the target endpoint
  needs no function support).
* :class:`GraphPatternRewriter` — Algorithm 1 (``rewrite``): scan a Basic
  Graph Pattern, match each triple against the alignment heads, apply the
  matched rule's body under the (function-extended) binding and rename the
  remaining free RHS variables to fresh variables; unmatched triples are
  copied unchanged.
* :class:`QueryRewriter` — the one query rewriter: it walks the WHERE
  group tree once, in element order, and runs Algorithm 1 at every triples
  block (including blocks nested inside OPTIONAL, UNION and grouped
  patterns), preserving the result form and solution modifiers.  Given the
  co-reference service and the target's URI pattern it also runs the
  FILTER pass of :mod:`repro.core.filter_rewriter`, the remedy Section 4
  proposes for constraints the BGP-only algorithm cannot see; without them
  FILTERs are kept verbatim, which is the paper's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from ..alignment import EntityAlignment, FunctionExecutionError, FunctionNotFound, FunctionRegistry
from ..coreference import SameAsService
from ..rdf import Term, Triple, Variable
from ..sparql import (
    Filter,
    GroupGraphPattern,
    OptionalPattern,
    Prologue,
    Query,
    TriplesBlock,
    UnionPattern,
)
from .filter_rewriter import extract_equality_constraints, translate_expression_terms
from .matcher import MatchResult, Substitution, find_matches

__all__ = [
    "RewriteError",
    "FreshVariableGenerator",
    "TripleRewrite",
    "RewriteReport",
    "instantiate_functions",
    "GraphPatternRewriter",
    "QueryRewriter",
    "clone_query",
]


class RewriteError(ValueError):
    """Raised when a query cannot be rewritten (e.g. missing function)."""


class FreshVariableGenerator:
    """Mint query variables guaranteed not to clash with existing ones.

    The paper's rewritten query (Figure 3) shows fresh variables named
    ``?_33``, ``?_38``; we follow the more readable ``?newN`` convention
    used in the worked example of Section 3.3.2 while still guaranteeing
    uniqueness against the variables already present in the query.
    """

    def __init__(self, reserved: Iterable[Variable] = ()) -> None:
        self._reserved: set[str] = {variable.name for variable in reserved}
        self._counter = 0

    def reserve(self, variables: Iterable[Variable]) -> None:
        """Mark more variable names as unavailable."""
        self._reserved.update(variable.name for variable in variables)

    def fresh(self) -> Variable:
        """Return a new, unused variable."""
        while True:
            self._counter += 1
            candidate = f"new{self._counter}"
            if candidate not in self._reserved:
                self._reserved.add(candidate)
                return Variable(candidate)


@dataclass
class TripleRewrite:
    """Trace entry: how one input triple pattern was handled."""

    original: Triple
    produced: list[Triple]
    alignment: EntityAlignment | None = None
    substitution: Substitution | None = None

    @property
    def matched(self) -> bool:
        """True when an alignment head matched the original triple."""
        return self.alignment is not None


@dataclass
class RewriteReport:
    """Summary of one BGP / query rewriting run."""

    rewrites: list[TripleRewrite] = field(default_factory=list)
    function_calls: int = 0

    @property
    def matched_count(self) -> int:
        return sum(1 for rewrite in self.rewrites if rewrite.matched)

    @property
    def unmatched_count(self) -> int:
        return sum(1 for rewrite in self.rewrites if not rewrite.matched)

    @property
    def input_size(self) -> int:
        return len(self.rewrites)

    @property
    def output_size(self) -> int:
        return sum(len(rewrite.produced) for rewrite in self.rewrites)

    def alignments_used(self) -> list[EntityAlignment]:
        """Distinct alignments that fired, in order of first use."""
        seen: list[EntityAlignment] = []
        for rewrite in self.rewrites:
            if rewrite.alignment is not None and rewrite.alignment not in seen:
                seen.append(rewrite.alignment)
        return seen

    def merge(self, other: RewriteReport) -> None:
        """Fold another report (e.g. from a different BGP) into this one."""
        self.rewrites.extend(other.rewrites)
        self.function_calls += other.function_calls


# --------------------------------------------------------------------------- #
# Algorithm 2 — instFunction
# --------------------------------------------------------------------------- #
def instantiate_functions(
    match: MatchResult,
    registry: FunctionRegistry,
    strict: bool = False,
) -> tuple[Substitution, int]:
    """Execute the functional dependencies of a matched rule (Algorithm 2).

    For every RHS variable carrying a functional dependency, the parameters
    are resolved through the match binding (ground values and bound
    variables are substituted, unbound variables are passed through) and
    the function is invoked; the result extends the binding for that
    variable.  Returns the extended substitution and the number of function
    invocations performed.

    With ``strict=False`` a missing function or a failing invocation leaves
    the variable unbound (it will be renamed to a fresh variable by
    Algorithm 1), mirroring the tolerant behaviour of the deployed system;
    with ``strict=True`` those situations raise :class:`RewriteError`.
    """
    substitution = match.substitution
    alignment = match.alignment
    calls = 0

    for dependency in alignment.functional_dependencies:
        parameters: list[Term] = []
        for parameter in dependency.parameters:
            if isinstance(parameter, Variable):
                parameters.append(substitution.apply_to_term(parameter))
            else:
                parameters.append(parameter)
        try:
            result = registry.call(dependency.function, parameters)
            calls += 1
        except FunctionNotFound as exc:
            if strict:
                raise RewriteError(
                    f"functional dependency references unknown function {dependency.function}"
                ) from exc
            continue
        except FunctionExecutionError as exc:
            if strict:
                raise RewriteError(f"functional dependency failed: {exc}") from exc
            continue
        substitution = substitution.bind(dependency.variable, result)
    return substitution, calls


# --------------------------------------------------------------------------- #
# Algorithm 1 — rewrite
# --------------------------------------------------------------------------- #
class GraphPatternRewriter:
    """Rewrite Basic Graph Patterns using a set of entity alignments.

    Parameters
    ----------
    alignments:
        The entity alignments (the union of the relevant ontology
        alignments' EA sets, per Section 3.2.1), or an already-compiled
        :class:`~repro.core.index.CompiledRuleSet` to share across
        rewriters.
    registry:
        Function registry used to execute functional dependencies.
    strict:
        Propagate function errors instead of skipping the dependency.
    use_index:
        When ``True`` (the default), matching runs through the pattern
        index; ``False`` falls back to the reference linear scan.  Both
        paths produce byte-identical rewrites — the flag exists for the
        equivalence tests and the E5 indexed-vs-linear benchmark.
    """

    def __init__(
        self,
        alignments: Sequence[EntityAlignment] | CompiledRuleSet,
        registry: FunctionRegistry | None = None,
        strict: bool = False,
        use_index: bool = True,
    ) -> None:
        from .index import CompiledRuleSet

        self._ruleset: CompiledRuleSet | None
        if isinstance(alignments, CompiledRuleSet):
            # Shared ruleset: reference its (append-only) list, no copy.
            self._ruleset = alignments if use_index else None
            self._alignments = alignments.alignments
        else:
            self._alignments = list(alignments)
            self._ruleset = CompiledRuleSet(self._alignments) if use_index else None
        self.registry = registry if registry is not None else FunctionRegistry()
        self.strict = strict

    @property
    def alignments(self) -> list[EntityAlignment]:
        """Snapshot of the rule set (compiled once at construction).

        Returns a copy: the rules consulted during rewriting are fixed
        when the rewriter is built, so mutating the returned list cannot
        (and must not appear to) change matching behaviour.
        """
        return list(self._alignments)

    # -- single triple -------------------------------------------------------- #
    def rewrite_triple(
        self,
        pattern: Triple,
        fresh: FreshVariableGenerator,
    ) -> TripleRewrite:
        """Rewrite one triple pattern (one iteration of Algorithm 1's loop)."""
        if self._ruleset is not None:
            match, rule = self._ruleset.first_match(pattern)
        else:
            matches = find_matches(self._alignments, pattern)
            match, rule = (matches[0], None) if matches else (None, None)
        if match is None:
            return TripleRewrite(original=pattern, produced=[pattern])
        if rule is not None:
            substitution, _calls = rule.instantiate_functions(
                match.substitution, self.registry, self.strict
            )
            lhs_variables: frozenset | set[Variable] = rule.lhs_variables
        else:
            substitution, _calls = instantiate_functions(match, self.registry, self.strict)
            lhs_variables = match.alignment.lhs_variables()

        # Step 4: bind all remaining free RHS variables to new variables so
        # the same alignment can be reused without over-constraining.
        produced: list[Triple] = []
        local_fresh: dict[Variable, Variable] = {}

        def resolve(term: Term) -> Term:
            if not isinstance(term, Variable):
                return term
            value = substitution.apply_to_term(term)
            if value is not term:
                return value
            if term in lhs_variables:
                # An LHS variable absent from the match can only occur when
                # the head mentions it in an ignored position; keep it.
                return term
            if term not in local_fresh:
                local_fresh[term] = fresh.fresh()
            return local_fresh[term]

        for rhs_pattern in match.alignment.rhs:
            produced.append(rhs_pattern.map_terms(resolve))
        return TripleRewrite(
            original=pattern,
            produced=produced,
            alignment=match.alignment,
            substitution=substitution,
        )

    # -- whole BGP ------------------------------------------------------------- #
    def rewrite_bgp(
        self,
        patterns: Sequence[Triple],
        fresh: FreshVariableGenerator | None = None,
    ) -> tuple[list[Triple], RewriteReport]:
        """Rewrite a Basic Graph Pattern (Algorithm 1).

        Returns the rewritten pattern list and a :class:`RewriteReport`
        tracing every decision.
        """
        if fresh is None:
            reserved: set[Variable] = set()
            for pattern in patterns:
                reserved |= pattern.variables()
            fresh = FreshVariableGenerator(reserved)

        report = RewriteReport()
        result: list[Triple] = []
        for pattern in patterns:
            rewrite = self.rewrite_triple(pattern, fresh)
            substitution = rewrite.substitution
            if substitution is not None and rewrite.alignment is not None:
                report.function_calls += len(rewrite.alignment.functional_dependencies)
            report.rewrites.append(rewrite)
            result.extend(rewrite.produced)
        return result, report


# --------------------------------------------------------------------------- #
# Query-level rewriting
# --------------------------------------------------------------------------- #
def clone_query(query: Query) -> Query:
    """Copy a query AST so rewriting never mutates the input query
    (see :meth:`repro.sparql.ast.Query.copy` for what is shared)."""
    return query.copy()


class QueryRewriter:
    """Rewrite whole SPARQL queries (SELECT / ASK / CONSTRUCT).

    The WHERE clause is walked once, in element order; every triples block
    is rewritten with :class:`GraphPatternRewriter`.  The result form
    (CONSTRUCT templates included: rewriting targets where data is read
    from, not the shape of what the query builds) and the solution
    modifiers are preserved unchanged.

    The FILTER pass is on when both ``sameas_service`` and
    ``target_uri_pattern`` are given.  A group's positive FILTER equalities
    ``?v = <ground>`` then specialise the triples blocks of that group and
    of the groups nested in it — never a block outside it, since the
    constraint only holds for that group's solutions — and every FILTER's
    ground URIs are translated into the target URI space.  With the pass
    off, FILTERs are kept verbatim: the strength and the documented
    limitation of the paper's approach.
    """

    def __init__(
        self,
        alignments: Sequence[EntityAlignment] | CompiledRuleSet,
        registry: FunctionRegistry | None = None,
        strict: bool = False,
        extra_prefixes: dict[str, str] | None = None,
        use_index: bool = True,
        sameas_service: SameAsService | None = None,
        target_uri_pattern: str | None = None,
    ) -> None:
        self._pattern_rewriter = GraphPatternRewriter(alignments, registry, strict, use_index)
        self._extra_prefixes = dict(extra_prefixes or {})
        self._filter_target = (
            (sameas_service, target_uri_pattern)
            if sameas_service is not None and target_uri_pattern is not None else None
        )

    @property
    def alignments(self) -> list[EntityAlignment]:
        return self._pattern_rewriter.alignments

    @property
    def registry(self) -> FunctionRegistry:
        return self._pattern_rewriter.registry

    def rewrite(self, query: Query) -> tuple[Query, RewriteReport]:
        """Return the rewritten query (a new object) and the rewrite report."""
        rewritten = clone_query(query)
        fresh = FreshVariableGenerator(rewritten.variables())
        report = RewriteReport()
        self._rewrite_group(rewritten.where, {}, fresh, report)
        self._extend_prologue(rewritten.prologue, report)
        return rewritten, report

    # ------------------------------------------------------------------ #
    def _rewrite_group(
        self,
        group: GroupGraphPattern,
        scope: dict[Variable, Term],
        fresh: FreshVariableGenerator,
        report: RewriteReport,
    ) -> None:
        """Rewrite ``group`` in place; ``scope`` holds the enclosing groups' equalities."""
        if self._filter_target is not None:
            own = [constraint for element in group.elements if isinstance(element, Filter)
                   for constraint in extract_equality_constraints(element.expression)]
            if own:
                scope = dict(scope)
                for constraint in own:
                    # The first constraint on a variable wins; contradictory
                    # ones make the group unsatisfiable anyway.
                    scope.setdefault(constraint.variable, constraint.term)
        for element in group.elements:
            if isinstance(element, TriplesBlock):
                patterns = _specialise(element.patterns, scope) if scope else element.patterns
                element.patterns, block_report = self._pattern_rewriter.rewrite_bgp(
                    patterns, fresh
                )
                report.merge(block_report)
            elif isinstance(element, Filter):
                if self._filter_target is not None:
                    element.expression = translate_expression_terms(
                        element.expression, *self._filter_target
                    )
            elif isinstance(element, GroupGraphPattern):
                self._rewrite_group(element, scope, fresh, report)
            elif isinstance(element, OptionalPattern):
                self._rewrite_group(element.group, scope, fresh, report)
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    self._rewrite_group(alternative, scope, fresh, report)

    def _extend_prologue(self, prologue: Prologue, report: RewriteReport) -> None:
        """Bind prefixes for the target vocabulary so output stays compact."""
        for prefix, namespace in self._extra_prefixes.items():
            prologue.namespace_manager.bind(prefix, namespace, replace=False)
        # Derive prefixes from the vocabularies introduced by fired rules.
        used_namespaces: set[str] = set()
        for alignment in report.alignments_used():
            for uri in alignment.target_properties():
                used_namespaces.add(uri.namespace_split()[0])
        counter = 0
        for namespace in sorted(used_namespaces):
            if not namespace or prologue.namespace_manager.prefix(namespace) is not None:
                continue
            counter += 1
            candidate = f"tgt{counter}"
            while prologue.namespace_manager.namespace(candidate) is not None:
                counter += 1
                candidate = f"tgt{counter}"
            prologue.namespace_manager.bind(candidate, namespace)


def _specialise(patterns: list[Triple], scope: dict[Variable, Term]) -> list[Triple]:
    """``patterns`` plus a copy of each with the scope's equalities substituted.

    The originals and the FILTER stay, so the solution set is unchanged (a
    specialised copy is implied by the FILTER); the copy exposes the ground
    value to the rewriting — in particular to ``sameas`` functional
    dependencies, which only fire on ground URIs.
    """

    def substitute(term: Term) -> Term:
        return scope.get(term, term) if isinstance(term, Variable) else term

    specialised: list[Triple] = []
    for pattern in patterns:
        copy = pattern.map_terms(substitute)
        if copy != pattern and copy not in patterns and copy not in specialised:
            specialised.append(copy)
    return patterns + specialised
