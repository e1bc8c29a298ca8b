"""The alignment model of Section 3.2.

* :class:`FunctionalDependency` — ``var = function(t1, ..., tn)`` where the
  parameters are ground terms or variables of the LHS and ``var`` is a
  variable of the RHS.
* :class:`EntityAlignment` — ``EA = <LHS, RHS, FD>``: a single-triple head,
  a conjunctive body and a set of functional dependencies.  Directional.
* :class:`OntologyAlignment` — ``OA = <SO, TO, TD, EA>``: the context of
  validity (source ontologies, target ontologies, target datasets) plus the
  entity alignments it contains.

Blank nodes in LHS/RHS patterns are interpreted as variables (the paper's
existential reading); the constructors normalise them to
:class:`~repro.rdf.Variable` so the matching machinery only ever deals with
variables and ground terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from ..rdf import BNode, Term, Triple, URIRef, Variable, is_ground

__all__ = ["FunctionalDependency", "EntityAlignment", "OntologyAlignment", "AlignmentError"]


class AlignmentError(ValueError):
    """Raised when an alignment violates the well-formedness rules."""


def _normalise_term(term: Term) -> Term:
    """Interpret blank nodes as variables (existential reading)."""
    if isinstance(term, BNode):
        return term.to_variable()
    return term


def _normalise_triple(triple: Triple) -> Triple:
    return triple.map_terms(_normalise_term)


@dataclass(frozen=True)
class FunctionalDependency:
    """``variable = function(parameters...)``.

    ``variable`` is the RHS variable receiving the computed value,
    ``function`` is the URI identifying the data-manipulation function and
    ``parameters`` are ground terms or LHS variables.
    """

    variable: Variable
    function: URIRef
    parameters: tuple[Term, ...]

    def __init__(self, variable: Variable | BNode, function: URIRef,
                 parameters: Sequence[Term]) -> None:
        normalised_variable = _normalise_term(variable)
        if not isinstance(normalised_variable, Variable):
            raise AlignmentError(
                f"functional dependency target must be a variable, got {variable!r}"
            )
        if not isinstance(function, URIRef):
            raise AlignmentError(f"function must be identified by a URI, got {function!r}")
        object.__setattr__(self, "variable", normalised_variable)
        object.__setattr__(self, "function", function)
        object.__setattr__(
            self, "parameters", tuple(_normalise_term(parameter) for parameter in parameters)
        )

    def parameter_variables(self) -> set[Variable]:
        """The variables among the parameters."""
        return {parameter for parameter in self.parameters if isinstance(parameter, Variable)}

    def is_ground(self) -> bool:
        """True when every parameter is a ground term."""
        return all(is_ground(parameter) for parameter in self.parameters)

    def __str__(self) -> str:
        args = ", ".join(p.n3() for p in self.parameters)
        return f"?{self.variable.name} = <{self.function}>({args})"


class EntityAlignment:
    """A directional rewriting rule for one triple pattern.

    Parameters
    ----------
    lhs:
        The head: a single triple pattern over the source vocabulary.
    rhs:
        The body: one or more triple patterns over the target vocabulary.
    functional_dependencies:
        Equality constraints ``var = f(params)`` executed at rewrite time.
    identifier:
        Optional URI naming the alignment (e.g. ``akt2kisti:creator_info``).
    """

    def __init__(
        self,
        lhs: Triple,
        rhs: Iterable[Triple],
        functional_dependencies: Iterable[FunctionalDependency] = (),
        identifier: URIRef | None = None,
    ) -> None:
        self.lhs: Triple = _normalise_triple(lhs)
        self.rhs: list[Triple] = [_normalise_triple(pattern) for pattern in rhs]
        self.functional_dependencies: list[FunctionalDependency] = list(functional_dependencies)
        self.identifier = identifier
        self._validate()

    # ------------------------------------------------------------------ #
    # Well-formedness (the structural constraints of Section 3.2.2)
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        if not self.rhs:
            raise AlignmentError("entity alignment requires a non-empty RHS")
        lhs_variables = self.lhs_variables()
        rhs_variables = self.rhs_variables()
        for dependency in self.functional_dependencies:
            if dependency.variable not in rhs_variables and dependency.variable not in lhs_variables:
                raise AlignmentError(
                    f"functional dependency targets unknown variable ?{dependency.variable.name}"
                )
            for parameter in dependency.parameter_variables():
                if parameter not in lhs_variables and parameter not in rhs_variables:
                    raise AlignmentError(
                        f"functional dependency parameter ?{parameter.name} "
                        "does not occur in the alignment"
                    )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def lhs_variables(self) -> set[Variable]:
        """Variables of the head (universally quantified in the paper's reading)."""
        return self.lhs.variables()

    def rhs_variables(self) -> set[Variable]:
        """Variables of the body (existentially quantified unless shared)."""
        variables: set[Variable] = set()
        for pattern in self.rhs:
            variables |= pattern.variables()
        return variables

    def fresh_rhs_variables(self) -> set[Variable]:
        """RHS variables that occur neither in the LHS nor as FD targets.

        These are the variables Algorithm 1 step 4 binds to new fresh
        variables when applying the rule.
        """
        produced = {dependency.variable for dependency in self.functional_dependencies}
        return self.rhs_variables() - self.lhs_variables() - produced

    def functional_dependency_for(self, variable: Variable) -> FunctionalDependency | None:
        """The FD whose target is ``variable``, if any (paper's ``getFD``)."""
        for dependency in self.functional_dependencies:
            if dependency.variable == variable:
                return dependency
        return None

    def source_properties(self) -> set[URIRef]:
        """URIs used in the LHS (for indexing alignments by source vocabulary)."""
        return {term for term in self.lhs if isinstance(term, URIRef)}

    def target_properties(self) -> set[URIRef]:
        """URIs used in the RHS."""
        return {
            term
            for pattern in self.rhs
            for term in pattern
            if isinstance(term, URIRef)
        }

    def is_identity(self) -> bool:
        """True when the alignment maps its head onto itself."""
        return len(self.rhs) == 1 and self.rhs[0] == self.lhs and not self.functional_dependencies

    # ------------------------------------------------------------------ #
    # Value semantics
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityAlignment):
            return NotImplemented
        return (
            self.lhs == other.lhs
            and self.rhs == other.rhs
            and set(self.functional_dependencies) == set(other.functional_dependencies)
        )

    def __hash__(self) -> int:
        return hash((self.lhs, tuple(self.rhs), frozenset(self.functional_dependencies)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = str(self.identifier) if self.identifier else "anonymous"
        return f"<EntityAlignment {name}: {self.lhs.n3()} -> {len(self.rhs)} patterns>"

    def describe(self) -> str:
        """Multi-line human-readable description (used by the CLI)."""
        lines = [f"LHS: {self.lhs.n3()}"]
        lines.extend(f"RHS: {pattern.n3()}" for pattern in self.rhs)
        lines.extend(f"FD:  {dependency}" for dependency in self.functional_dependencies)
        return "\n".join(lines)


class OntologyAlignment:
    """``OA = <SO, TO, TD, EA>`` — entity alignments plus their validity context.

    ``SO``/``TO`` are sets of ontology URIs, ``TD`` a set of dataset URIs;
    together they state for which source vocabulary and which target
    (ontology or specific dataset) the entity alignments may be used.
    """

    def __init__(
        self,
        source_ontologies: Iterable[URIRef],
        target_ontologies: Iterable[URIRef] = (),
        target_datasets: Iterable[URIRef] = (),
        entity_alignments: Iterable[EntityAlignment] = (),
        identifier: URIRef | None = None,
    ) -> None:
        self.source_ontologies: frozenset[URIRef] = frozenset(source_ontologies)
        self.target_ontologies: frozenset[URIRef] = frozenset(target_ontologies)
        self.target_datasets: frozenset[URIRef] = frozenset(target_datasets)
        self.entity_alignments: list[EntityAlignment] = list(entity_alignments)
        self.identifier = identifier
        if not self.source_ontologies:
            raise AlignmentError("an ontology alignment requires at least one source ontology")
        if not self.target_ontologies and not self.target_datasets:
            raise AlignmentError(
                "an ontology alignment requires a target ontology or a target dataset"
            )

    # ------------------------------------------------------------------ #
    # Context of validity
    # ------------------------------------------------------------------ #
    def applies_to_source(self, ontology: URIRef) -> bool:
        """True when queries over ``ontology`` can be rewritten by this OA."""
        return ontology in self.source_ontologies

    def applies_to_target_dataset(self, dataset: URIRef) -> bool:
        """True when this OA may be used to target ``dataset``.

        An OA that names explicit target datasets is *local* to them; an OA
        that only names target ontologies is reusable for any dataset
        adopting those ontologies (Section 3.2.1).
        """
        if self.target_datasets:
            return dataset in self.target_datasets
        return False

    # ------------------------------------------------------------------ #
    # Content
    # ------------------------------------------------------------------ #
    def add(self, entity_alignment: EntityAlignment) -> OntologyAlignment:
        self.entity_alignments.append(entity_alignment)
        return self

    def __len__(self) -> int:
        return len(self.entity_alignments)

    def __iter__(self):
        return iter(self.entity_alignments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = str(self.identifier) if self.identifier else "anonymous"
        return (
            f"<OntologyAlignment {name}: {len(self.entity_alignments)} entity alignments, "
            f"SO={sorted(map(str, self.source_ontologies))}, "
            f"TO={sorted(map(str, self.target_ontologies))}, "
            f"TD={sorted(map(str, self.target_datasets))}>"
        )
