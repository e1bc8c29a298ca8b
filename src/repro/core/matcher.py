"""Triple-pattern matching (the paper's ``match`` function).

Section 3.3.1 defines the matching of an alignment-head node ``l`` against
a query-pattern node ``r``::

    match(l, r) = [l/r]   if l is a variable
                = true    if l is not a variable and l = r
                = false   otherwise

and extends it to triples by matching subject, predicate and object and
taking the union of the substitutions.  "The basic procedure of triples'
matching resembles the matching of terms in Prolog, but with the great
simplification that there are no complex terms ... only variables and
instances."  Note the asymmetry: a ground term in the alignment head does
*not* match a variable in the query pattern — the rule simply does not
apply there.

The :class:`Substitution` produced maps alignment variables to query terms,
which may themselves be query variables (e.g. ``?p1 -> ?paper``) or ground
terms (``?a1 -> id:person-02686``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping

from ..rdf import Term, Triple, Variable
from ..alignment import EntityAlignment

__all__ = ["Substitution", "MatchResult", "match_node", "match_triple", "match_alignment",
           "find_matches"]


class Substitution(Mapping[Variable, Term]):
    """An immutable mapping from (alignment) variables to terms.

    Unlike a SPARQL solution binding, values may be query *variables* as
    well as ground terms; this is exactly the "binding among variables that
    satisfy the match" the paper's matching phase produces.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[Variable, Term] | None = None) -> None:
        self._data: dict[Variable, Term] = dict(data) if data else {}

    # -- Mapping protocol --------------------------------------------------- #
    def __getitem__(self, key: Variable) -> Term:
        return self._data[key]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    # -- construction -------------------------------------------------------- #
    def bind(self, variable: Variable, term: Term) -> Substitution:
        """Extend with one pair, returning a new substitution."""
        data = dict(self._data)
        data[variable] = term
        return Substitution(data)

    def merge(self, other: Substitution) -> Substitution | None:
        """Union of two substitutions, or ``None`` when they disagree."""
        data = dict(self._data)
        for variable, term in other._data.items():
            existing = data.get(variable)
            if existing is not None and existing != term:
                return None
            data[variable] = term
        return Substitution(data)

    # -- application ---------------------------------------------------------- #
    def apply_to_term(self, term: Term) -> Term:
        """Value of a variable under this substitution (identity otherwise)."""
        if isinstance(term, Variable):
            return self._data.get(term, term)
        return term

    def as_dict(self) -> dict[Variable, Term]:
        return dict(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Substitution):
            return self._data == other._data
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._data.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(
            f"?{variable.name}/{term.n3()}"
            for variable, term in sorted(self._data.items(), key=lambda i: i[0].name)
        )
        return f"[{pairs}]"


@dataclass(frozen=True)
class MatchResult:
    """The outcome of matching one alignment head against one query triple.

    Mirrors the paper's description: "the matching process produces a
    resulting alignment rule (whose LHS matches the given triple) plus the
    binding among variables that satisfy the match".
    """

    alignment: EntityAlignment
    substitution: Substitution
    triple: Triple


def match_node(lhs_term: Term, query_term: Term) -> Substitution | None:
    """Match one alignment-head node against one query-pattern node."""
    if isinstance(lhs_term, Variable):
        return Substitution({lhs_term: query_term})
    if lhs_term == query_term:
        return Substitution()
    return None


def match_triple(lhs: Triple, query_triple: Triple) -> Substitution | None:
    """Match an alignment head (single triple) against a query triple pattern.

    Returns the combined substitution, or ``None`` when any position fails
    to match or when the same alignment variable would need two different
    values (e.g. head ``<?x p ?x>`` against ``<a p b>``).
    """
    substitution = Substitution()
    for lhs_term, query_term in zip(lhs, query_triple, strict=True):
        node_substitution = match_node(lhs_term, query_term)
        if node_substitution is None:
            return None
        merged = substitution.merge(node_substitution)
        if merged is None:
            return None
        substitution = merged
    return substitution


def match_alignment(alignment: EntityAlignment, query_triple: Triple) -> MatchResult | None:
    """Match one entity alignment against one query triple pattern."""
    substitution = match_triple(alignment.lhs, query_triple)
    if substitution is None:
        return None
    return MatchResult(alignment=alignment, substitution=substitution, triple=query_triple)


def find_matches(
    alignments: Iterable[EntityAlignment], query_triple: Triple
) -> list[MatchResult]:
    """All alignments whose head matches ``query_triple`` (in KB order).

    Algorithm 1 uses the *first* match; exposing the full list lets the
    validation layer warn about ambiguous alignment KBs and lets the
    exhaustive-rewriting extension explore alternatives.
    """
    matches: list[MatchResult] = []
    for alignment in alignments:
        result = match_alignment(alignment, query_triple)
        if result is not None:
            matches.append(result)
    return matches
