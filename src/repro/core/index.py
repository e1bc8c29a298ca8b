"""Indexed alignment matching: pattern index and compiled rewrite rules.

The reference implementation of the paper's matching phase
(:func:`repro.core.matcher.find_matches`) linearly scans the whole
alignment KB for every query triple, so rewriting a Basic Graph Pattern
costs ``O(|BGP| x |alignments|)``.  That is exactly the "grows mildly with
KB size" curve Experiment E5 measures — and exactly what the paper's
scalability argument (rewriting "only touches the query") says should not
happen.

This module removes the scan without changing a single produced rewrite:

* :class:`PatternIndex` buckets alignment heads by their ground predicate
  (with a dedicated per-class sub-index for ``rdf:type`` heads and a small
  fallback bucket for variable-predicate heads), so the candidate set for
  one query triple is O(1)-ish in the KB size.
* :class:`CompiledRule` pre-computes, once per alignment, everything
  :class:`~repro.core.rewriter.GraphPatternRewriter` used to recompute per
  triple: the head term tuple, the head variable set and the
  functional-dependency parameter layout.
* :class:`CompiledRuleSet` ties the two together and exposes
  :meth:`CompiledRuleSet.find_matches` / :meth:`CompiledRuleSet.first_match`
  with results **identical** (including KB order) to the linear reference
  path — the equivalence is enforced by property tests.

The matching semantics being indexed are asymmetric (Section 3.3.1): an
alignment-head *variable* matches any query term, while a *ground* head
term matches only the identical query term.  Consequently:

* a query triple with ground predicate ``p`` can only be matched by heads
  whose predicate is ``p`` or a variable,
* a query triple with a variable predicate can only be matched by heads
  whose predicate is a variable,
* for ``rdf:type`` heads with a ground class, the query object must be
  that exact class, which is what the per-class sub-index exploits.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..alignment import (
    EntityAlignment,
    FunctionExecutionError,
    FunctionNotFound,
    FunctionRegistry,
)
from ..rdf import RDF, Term, Triple, Variable, is_ground
from .matcher import MatchResult, Substitution

__all__ = ["CompiledRule", "PatternIndex", "CompiledRuleSet"]

_RDF_TYPE = RDF.type


class CompiledRule:
    """One entity alignment with its per-triple work pre-computed.

    ``order`` is the alignment's position in the KB; candidate merging uses
    it to preserve the "first match wins" semantics of Algorithm 1.
    """

    __slots__ = (
        "alignment",
        "order",
        "lhs_terms",
        "lhs_variables",
        "rhs",
        "fd_plans",
    )

    def __init__(self, alignment: EntityAlignment, order: int) -> None:
        self.alignment = alignment
        self.order = order
        self.lhs_terms: tuple[Term, Term, Term] = alignment.lhs.as_tuple()
        self.lhs_variables = frozenset(alignment.lhs_variables())
        self.rhs: tuple[Triple, ...] = tuple(alignment.rhs)
        # (target variable, function URI, parameters, is-variable flags)
        self.fd_plans: tuple[tuple[Variable, Term, tuple[Term, ...], tuple[bool, ...]], ...] = tuple(
            (
                dependency.variable,
                dependency.function,
                dependency.parameters,
                tuple(isinstance(parameter, Variable) for parameter in dependency.parameters),
            )
            for dependency in alignment.functional_dependencies
        )

    # ------------------------------------------------------------------ #
    def match(self, query_triple: Triple) -> Substitution | None:
        """Match the head against ``query_triple`` (= ``match_triple``).

        Inlines the three-position loop of the reference implementation
        without building intermediate :class:`Substitution` objects.
        """
        bindings: dict[Variable, Term] = {}
        for lhs_term, query_term in zip(self.lhs_terms, query_triple, strict=True):
            if isinstance(lhs_term, Variable):
                existing = bindings.get(lhs_term)
                if existing is None:
                    bindings[lhs_term] = query_term
                elif existing != query_term:
                    return None
            elif lhs_term != query_term:
                return None
        return Substitution(bindings)

    def instantiate_functions(
        self,
        substitution: Substitution,
        registry: FunctionRegistry,
        strict: bool = False,
    ) -> tuple[Substitution, int]:
        """Algorithm 2 over the pre-computed dependency plans.

        Behaviourally identical to
        :func:`repro.core.rewriter.instantiate_functions`; errors raised in
        strict mode match that function's messages.
        """
        from .rewriter import RewriteError  # local import breaks the cycle

        calls = 0
        for variable, function, parameters, is_variable in self.fd_plans:
            resolved: list[Term] = [
                substitution.apply_to_term(parameter) if parameter_is_variable else parameter
                for parameter, parameter_is_variable in zip(parameters, is_variable, strict=True)
            ]
            try:
                result = registry.call(function, resolved)
                calls += 1
            except FunctionNotFound as exc:
                if strict:
                    raise RewriteError(
                        f"functional dependency references unknown function {function}"
                    ) from exc
                continue
            except FunctionExecutionError as exc:
                if strict:
                    raise RewriteError(f"functional dependency failed: {exc}") from exc
                continue
            substitution = substitution.bind(variable, result)
        return substitution, calls


class PatternIndex:
    """Bucket compiled rules by the shape of their head.

    Buckets:

    * ``by_predicate[p]`` — heads with ground, non-``rdf:type`` predicate,
    * ``type_by_class[c]`` — ``rdf:type`` heads with ground class ``c``,
    * ``type_variable_class`` — ``rdf:type`` heads whose class is a variable,
    * ``variable_predicate`` — heads whose predicate is a variable (the
      only heads able to match a variable-predicate query triple).

    Every bucket keeps KB order; :meth:`candidates` merges buckets back
    into KB order so "first match wins" is preserved exactly.
    """

    def __init__(self) -> None:
        self._by_predicate: dict[Term, list[CompiledRule]] = {}
        self._type_by_class: dict[Term, list[CompiledRule]] = {}
        self._type_variable_class: list[CompiledRule] = []
        self._variable_predicate: list[CompiledRule] = []
        self._size = 0

    # ------------------------------------------------------------------ #
    def add(self, rule: CompiledRule) -> None:
        """Place one compiled rule in its bucket."""
        predicate = rule.lhs_terms[1]
        if isinstance(predicate, Variable):
            self._variable_predicate.append(rule)
        elif predicate == _RDF_TYPE:
            head_class = rule.lhs_terms[2]
            if is_ground(head_class):
                self._type_by_class.setdefault(head_class, []).append(rule)
            else:
                self._type_variable_class.append(rule)
        else:
            self._by_predicate.setdefault(predicate, []).append(rule)
        self._size += 1

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    def candidates(self, query_triple: Triple) -> list[CompiledRule]:
        """Rules whose head could match ``query_triple``, in KB order.

        This is a strict superset of the rules that *do* match (the full
        per-term check still runs in :meth:`CompiledRule.match`) and a
        subset of the whole KB — usually a very small one.
        """
        predicate = query_triple.predicate
        if isinstance(predicate, Variable):
            # A ground head predicate never matches a query variable.
            # (Copied, like every return path: buckets are never aliased.)
            return list(self._variable_predicate)
        if predicate == _RDF_TYPE:
            buckets = [self._type_variable_class, self._variable_predicate]
            query_class = query_triple.object
            if is_ground(query_class):
                bucket = self._type_by_class.get(query_class)
                if bucket is not None:
                    buckets.append(bucket)
        else:
            buckets = [self._variable_predicate]
            bucket = self._by_predicate.get(predicate)
            if bucket is not None:
                buckets.append(bucket)
        non_empty = [bucket for bucket in buckets if bucket]
        if not non_empty:
            return []
        if len(non_empty) == 1:
            # Copy so callers can never mutate a live index bucket.
            return list(non_empty[0])
        merged: list[CompiledRule] = [rule for bucket in non_empty for rule in bucket]
        merged.sort(key=lambda rule: rule.order)
        return merged

    def stats(self) -> dict[str, int]:
        """Bucket occupancy (used by benchmark reports)."""
        return {
            "predicate_buckets": len(self._by_predicate),
            "type_class_buckets": len(self._type_by_class),
            "type_variable_class": len(self._type_variable_class),
            "variable_predicate": len(self._variable_predicate),
            "rules": self._size,
        }


class CompiledRuleSet:
    """A KB of compiled rules behind a pattern index.

    Drop-in replacement for the ``Sequence[EntityAlignment]`` the rewriters
    take: matching through :meth:`find_matches` returns exactly what the
    linear :func:`repro.core.matcher.find_matches` returns, only faster.
    """

    def __init__(self, alignments: Iterable[EntityAlignment] = ()) -> None:
        self.alignments: list[EntityAlignment] = []
        self.rules: list[CompiledRule] = []
        self.index = PatternIndex()
        for alignment in alignments:
            self.add(alignment)

    # ------------------------------------------------------------------ #
    def add(self, alignment: EntityAlignment) -> CompiledRuleSet:
        """Compile and index one more alignment (appended in KB order)."""
        rule = CompiledRule(alignment, len(self.rules))
        self.alignments.append(alignment)
        self.rules.append(rule)
        self.index.add(rule)
        return self

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.alignments)

    # ------------------------------------------------------------------ #
    def first_match(
        self, query_triple: Triple
    ) -> tuple[MatchResult | None, CompiledRule | None]:
        """The first matching rule in KB order, or ``(None, None)``.

        Algorithm 1 only ever uses the first match, so the rewriter's hot
        path stops at the first hit instead of materialising the full list.
        """
        for rule in self.index.candidates(query_triple):
            substitution = rule.match(query_triple)
            if substitution is not None:
                result = MatchResult(alignment=rule.alignment, substitution=substitution,
                                     triple=query_triple)
                return result, rule
        return None, None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledRuleSet {len(self.rules)} rules, index {self.index.stats()}>"
