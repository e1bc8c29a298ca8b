"""Alignment validation and structural comparison, a test oracle.

Beyond the hard well-formedness constraints enforced by the model classes,
this module provides the checks the tests and benchmark E2 apply to
alignments (the product does not run them):

* :func:`validate_entity_alignment` — a linter returning the list of
  problems (errors and warnings) an alignment author should fix before
  publishing the alignment to the mediator's KB,
* :func:`validate_ontology_alignment` — the same at the OA level,
* :func:`rename_variables` / :func:`structurally_equivalent` — comparison
  of alignments modulo variable renaming (used for RDF round-trip tests,
  where blank-node labels are not preserved verbatim).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.alignment import (
    EntityAlignment,
    FunctionalDependency,
    FunctionRegistry,
    OntologyAlignment,
)
from repro.rdf import Term, URIRef, Variable

__all__ = [
    "ValidationIssue",
    "validate_entity_alignment",
    "validate_ontology_alignment",
    "rename_variables",
    "structurally_equivalent",
]


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found by the validator."""

    severity: str  # "error" or "warning"
    message: str

    def is_error(self) -> bool:
        return self.severity == "error"

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


def validate_entity_alignment(
    alignment: EntityAlignment,
    registry: FunctionRegistry | None = None,
) -> list[ValidationIssue]:
    """Lint an entity alignment.

    Errors:

    * empty RHS (unreachable through the constructor, checked defensively),
    * an FD whose target variable does not appear in the RHS — the computed
      value would never reach the rewritten pattern,
    * an FD parameter variable that appears in neither LHS nor RHS,
    * an FD naming a function absent from the supplied registry.

    Warnings:

    * LHS with no variables (a fully ground head only ever matches one
      exact triple),
    * RHS variables that are neither LHS variables, FD targets nor shared
      with other RHS patterns — they will be renamed to fresh variables at
      every application, which is usually intended but worth flagging,
    * an FD target that also occurs in the LHS (the function would
      overwrite a matched binding).
    """
    issues: list[ValidationIssue] = []
    lhs_variables = alignment.lhs_variables()
    rhs_variables = alignment.rhs_variables()

    if not alignment.rhs:
        issues.append(ValidationIssue("error", "entity alignment has an empty RHS"))

    if not lhs_variables:
        issues.append(
            ValidationIssue("warning", "LHS is fully ground; the rule matches a single triple only")
        )

    for dependency in alignment.functional_dependencies:
        if dependency.variable not in rhs_variables:
            issues.append(
                ValidationIssue(
                    "error",
                    f"functional dependency target ?{dependency.variable.name} "
                    "does not occur in the RHS",
                )
            )
        if dependency.variable in lhs_variables:
            issues.append(
                ValidationIssue(
                    "warning",
                    f"functional dependency target ?{dependency.variable.name} also occurs "
                    "in the LHS; its matched binding will be overwritten",
                )
            )
        for parameter in dependency.parameter_variables():
            if parameter not in lhs_variables and parameter not in rhs_variables:
                issues.append(
                    ValidationIssue(
                        "error",
                        f"functional dependency parameter ?{parameter.name} occurs nowhere "
                        "in the alignment",
                    )
                )
        if registry is not None and dependency.function not in registry:
            issues.append(
                ValidationIssue(
                    "error",
                    f"function {dependency.function} is not registered with the rewriter",
                )
            )

    fd_targets = {dependency.variable for dependency in alignment.functional_dependencies}
    for variable in sorted(alignment.fresh_rhs_variables(), key=str):
        if variable not in fd_targets:
            issues.append(
                ValidationIssue(
                    "warning",
                    f"RHS variable ?{variable.name} is fresh (not in LHS, no functional "
                    "dependency); it will be renamed at every rule application",
                )
            )
    return issues


def validate_ontology_alignment(
    alignment: OntologyAlignment,
    registry: FunctionRegistry | None = None,
) -> list[ValidationIssue]:
    """Lint an ontology alignment and every entity alignment it contains."""
    issues: list[ValidationIssue] = []
    if not alignment.entity_alignments:
        issues.append(ValidationIssue("warning", "ontology alignment contains no entity alignments"))
    if alignment.target_datasets and alignment.target_ontologies:
        issues.append(
            ValidationIssue(
                "warning",
                "ontology alignment names both target ontologies and target datasets; "
                "dataset-specific use takes precedence during selection",
            )
        )
    duplicates = _duplicate_heads(alignment.entity_alignments)
    for head in duplicates:
        issues.append(
            ValidationIssue(
                "warning",
                f"several entity alignments share the head predicate {head}; the first "
                "matching rule wins during rewriting",
            )
        )
    for index, entity_alignment in enumerate(alignment.entity_alignments):
        for issue in validate_entity_alignment(entity_alignment, registry):
            issues.append(ValidationIssue(issue.severity, f"[EA {index}] {issue.message}"))
    return issues


def _duplicate_heads(alignments: Iterable[EntityAlignment]) -> list[URIRef]:
    seen: dict[URIRef, int] = {}
    for alignment in alignments:
        predicate = alignment.lhs.predicate
        if isinstance(predicate, URIRef):
            seen[predicate] = seen.get(predicate, 0) + 1
    return sorted((uri for uri, count in seen.items() if count > 1), key=str)


# --------------------------------------------------------------------------- #
# Structural comparison modulo variable renaming
# --------------------------------------------------------------------------- #
def rename_variables(alignment: EntityAlignment, prefix: str = "v") -> EntityAlignment:
    """Return a copy with variables canonically renamed ``v0, v1, ...``.

    The renaming follows the order of first occurrence across LHS, RHS and
    functional dependencies, so two alignments that differ only in variable
    names map to identical canonical forms.
    """
    mapping: dict[Variable, Variable] = {}

    def canonical(term: Term) -> Term:
        if isinstance(term, Variable):
            if term not in mapping:
                mapping[term] = Variable(f"{prefix}{len(mapping)}")
            return mapping[term]
        return term

    lhs = alignment.lhs.map_terms(canonical)
    rhs = [pattern.map_terms(canonical) for pattern in alignment.rhs]
    dependencies = [
        FunctionalDependency(
            canonical(dependency.variable),
            dependency.function,
            [canonical(parameter) for parameter in dependency.parameters],
        )
        for dependency in alignment.functional_dependencies
    ]
    return EntityAlignment(lhs, rhs, dependencies, identifier=alignment.identifier)


def structurally_equivalent(left: EntityAlignment, right: EntityAlignment) -> bool:
    """True when the two alignments are equal up to variable renaming."""
    return rename_variables(left) == rename_variables(right)
