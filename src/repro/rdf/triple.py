"""Triples and triple patterns.

The paper works with the three-place notation ``Triple(s, p, o)`` over the
domain ``I x I x (I ∪ L)`` extended with variables/blank nodes for
patterns.  :class:`Triple` covers both ground triples (asserted data) and
triple patterns (BGP members, alignment LHS/RHS atoms); helper predicates
distinguish the two.
"""

from __future__ import annotations

from collections.abc import Iterator

from .terms import BNode, Literal, Term, URIRef, Variable, is_ground, is_variable_like

__all__ = ["Triple"]


class Triple:
    """An RDF triple or triple pattern ``<subject, predicate, object>``.

    Instances are immutable and hashable so they can populate sets and act
    as dictionary keys in graph indexes.
    """

    __slots__ = ("_subject", "_predicate", "_object")

    def __init__(self, subject: Term, predicate: Term, obj: Term) -> None:
        self._validate(subject, predicate, obj)
        self._subject = subject
        self._predicate = predicate
        self._object = obj

    @staticmethod
    def _validate(subject: Term, predicate: Term, obj: Term) -> None:
        if not isinstance(subject, (URIRef, BNode, Variable)):
            raise TypeError(f"invalid triple subject: {subject!r}")
        if not isinstance(predicate, (URIRef, Variable)):
            raise TypeError(f"invalid triple predicate: {predicate!r}")
        if not isinstance(obj, (URIRef, BNode, Literal, Variable)):
            raise TypeError(f"invalid triple object: {obj!r}")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def subject(self) -> Term:
        return self._subject

    @property
    def predicate(self) -> Term:
        return self._predicate

    @property
    def object(self) -> Term:
        return self._object

    def as_tuple(self) -> tuple[Term, Term, Term]:
        """Return the triple as a plain ``(s, p, o)`` tuple."""
        return (self._subject, self._predicate, self._object)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.as_tuple())

    def __getitem__(self, index: int) -> Term:
        return self.as_tuple()[index]

    def __len__(self) -> int:
        return 3

    # ------------------------------------------------------------------ #
    # Pattern helpers
    # ------------------------------------------------------------------ #
    def is_ground(self) -> bool:
        """True when every position holds a URI or literal."""
        return all(is_ground(term) for term in self)

    def is_pattern(self) -> bool:
        """True when at least one position holds a variable or blank node."""
        return not self.is_ground()

    def variables(self) -> set[Variable]:
        """The set of SPARQL variables occurring in the triple."""
        return {term for term in self if isinstance(term, Variable)}

    def bnodes(self) -> set[BNode]:
        """The set of blank nodes occurring in the triple."""
        return {term for term in self if isinstance(term, BNode)}

    def variable_like_terms(self) -> set[Term]:
        """Variables and blank nodes occurring in the triple."""
        return {term for term in self if is_variable_like(term)}

    def map_terms(self, func) -> Triple:
        """Return a new triple with ``func`` applied to every position."""
        return Triple(func(self._subject), func(self._predicate), func(self._object))

    def bnodes_as_variables(self) -> Triple:
        """Return the triple with blank nodes replaced by same-named variables.

        This implements the paper's reading of alignment patterns where
        ``_:p1`` is interpreted as the variable ``?p1``.
        """

        def convert(term: Term) -> Term:
            if isinstance(term, BNode):
                return term.to_variable()
            return term

        return self.map_terms(convert)

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def n3(self) -> str:
        """N-Triples style serialisation (without the trailing dot)."""
        return f"{self._subject.n3()} {self._predicate.n3()} {self._object.n3()}"

    def __str__(self) -> str:
        return self.n3() + " ."

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Triple({self._subject!r}, {self._predicate!r}, {self._object!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Triple) and self.as_tuple() == other.as_tuple()

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(("Triple",) + self.as_tuple())

    def __lt__(self, other: Triple) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return tuple(t.sort_key() for t in self) < tuple(t.sort_key() for t in other)
