"""Solution mappings and result sets.

SPARQL SELECT evaluation produces a sequence of *solution mappings*
(bindings from variables to RDF terms).  :class:`Binding` is the immutable
mapping used during evaluation and by the rewriting engine;
:class:`ResultSet` is the user-facing container with tabular presentation
and dict export (mirroring the SPARQL JSON results layout).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from ..rdf import BNode, Literal, Term, URIRef, Variable

__all__ = ["Binding", "ResultSet", "AskResult", "TermSerializationError"]


class TermSerializationError(TypeError):
    """A term cannot be represented in the SPARQL results formats.

    Only URIs, blank nodes and literals may appear in protocol responses;
    anything else (a :class:`~repro.rdf.Variable` leaking out of
    evaluation, a foreign object smuggled into a binding) is a bug in the
    producer, and silently emitting a made-up ``{"type": "unknown"}`` term
    would hand malformed bindings to downstream consumers.
    """


class Binding(Mapping[Variable, Term]):
    """An immutable mapping from variables to RDF terms.

    Supports the two operations evaluation needs: compatibility check and
    merge (join), both defined exactly as in the SPARQL algebra — two
    bindings are compatible when they agree on every shared variable.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[Variable, Term] | None = None) -> None:
        self._data: dict[Variable, Term] = dict(data) if data else {}

    # -- Mapping protocol --------------------------------------------------- #
    def __getitem__(self, key: Variable | str) -> Term:
        return self._data[self._coerce_key(key)]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        try:
            return self._coerce_key(key) in self._data  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False

    @staticmethod
    def _coerce_key(key: Variable | str) -> Variable:
        if isinstance(key, Variable):
            return key
        return Variable(str(key))

    # -- Algebra ------------------------------------------------------------ #
    def get_term(self, key: Variable | str) -> Term | None:
        """Bound term for ``key``, ``None`` when unbound."""
        return self._data.get(self._coerce_key(key))

    def compatible(self, other: Binding) -> bool:
        """True when the two bindings agree on all shared variables."""
        for variable, term in self._data.items():
            other_term = other._data.get(variable)
            if other_term is not None and other_term != term:
                return False
        return True

    def merge(self, other: Binding) -> Binding:
        """Union of two compatible bindings (caller checks compatibility)."""
        merged = dict(self._data)
        merged.update(other._data)
        return Binding(merged)

    def extend(self, variable: Variable | str, term: Term) -> Binding:
        """Return a new binding with one extra pair."""
        data = dict(self._data)
        data[self._coerce_key(variable)] = term
        return Binding(data)

    def project(self, variables: Iterable[Variable | str]) -> Binding:
        """Restrict the binding to the given variables."""
        wanted = {self._coerce_key(v) for v in variables}
        return Binding({k: v for k, v in self._data.items() if k in wanted})

    def as_dict(self) -> dict[str, Term]:
        """Plain ``{variable-name: term}`` dictionary."""
        return {variable.name: term for variable, term in self._data.items()}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Binding):
            return self._data == other._data
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._data.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"?{k.name}={v.n3()}" for k, v in sorted(self._data.items(), key=lambda i: i[0].name))
        return f"Binding({pairs})"


class ResultSet:
    """The result of a SELECT query: variables + one solution per row.

    Solutions are held in one of two forms, never both: the
    :class:`Binding` objects a caller passed in, or — as the batched
    engines deliver them (:meth:`from_rows`) — plain term tuples aligned
    with :attr:`variables`.  The writers and the tabular accessors read
    :attr:`rows`; :attr:`bindings` turns a row-backed set into bindings
    the first time it is read and keeps only those from then on.
    """

    def __init__(self, variables: Sequence[Variable], bindings: Iterable[Binding]) -> None:
        self.variables: list[Variable] = list(variables)
        self._bindings: list[Binding] | None = list(bindings)
        self._rows: list[tuple[Term | None, ...]] | None = None
        #: Static-analysis diagnostics attached by the evaluator
        #: (``repro.sparql.analysis.Diagnostic`` objects; empty by default).
        self.diagnostics: list = []

    @classmethod
    def from_rows(
        cls, variables: Sequence[Variable], rows: list[tuple[Term | None, ...]]
    ) -> ResultSet:
        """A result set over term tuples aligned with ``variables``
        (``None`` marks an unbound cell); the list is kept, not copied."""
        result = cls(variables, ())
        result._bindings = None
        result._rows = rows
        return result

    @property
    def bindings(self) -> list[Binding]:
        """The solutions as :class:`Binding` objects, in order."""
        if self._bindings is None:
            variables = self.variables
            self._bindings = [
                Binding({
                    variable: term
                    for variable, term in zip(variables, row, strict=True)
                    if term is not None
                })
                for row in self._rows or ()
            ]
            self._rows = None
        return self._bindings

    @property
    def rows(self) -> list[tuple[Term | None, ...]]:
        """The solutions as term tuples aligned with :attr:`variables`."""
        if self._rows is not None:
            return self._rows
        variables = self.variables
        return [
            tuple([binding.get_term(variable) for variable in variables])
            for binding in self.bindings
        ]

    def __len__(self) -> int:
        return len(self._rows if self._rows is not None else self.bindings)

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.bindings)

    def __bool__(self) -> bool:
        return len(self) > 0

    def column(self, variable: Variable | str) -> list[Term | None]:
        """All values of one variable, aligned with the binding order."""
        return [binding.get_term(variable) for binding in self.bindings]

    def distinct_values(self, variable: Variable | str) -> set:
        """Set of non-null values bound to ``variable``."""
        return {term for term in self.column(variable) if term is not None}

    def to_dicts(self) -> list[dict[str, str]]:
        """Rows as ``{variable-name: n3-string}`` dictionaries."""
        names = [variable.name for variable in self.variables]
        return [
            {
                name: term.n3() if term is not None else ""
                for name, term in zip(names, row, strict=True)
            }
            for row in self.rows
        ]

    def to_json_dict(self) -> dict[str, Any]:
        """Export following the layout of the SPARQL 1.1 JSON results format."""
        names = [variable.name for variable in self.variables]
        return {
            "head": {"vars": names},
            "results": {"bindings": [
                {
                    name: _term_to_json(term)
                    for name, term in zip(names, row, strict=True)
                    if term is not None
                }
                for row in self.rows
            ]},
        }

    def to_table(self) -> str:
        """Human-readable fixed-width table (used by the CLI and examples);
        a term wider than 60 characters is cut short with ``...``."""
        max_width = 60
        headers = [f"?{v.name}" for v in self.variables]
        rows = []
        for terms in self.rows:
            row = []
            for term in terms:
                text = term.n3() if term is not None else ""
                if len(text) > max_width:
                    text = text[: max_width - 3] + "..."
                row.append(text)
            rows.append(row)
        widths = [len(h) for h in headers]
        for row in rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [
            " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultSet {len(self)} rows x {len(self.variables)} vars>"


class AskResult:
    """The boolean result of an ASK query."""

    def __init__(self, value: bool) -> None:
        self.value = bool(value)
        #: Static-analysis diagnostics attached by the evaluator.
        self.diagnostics: list = []

    def __bool__(self) -> bool:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AskResult):
            return self.value == other.value
        if isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("AskResult", self.value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AskResult({self.value})"


def _term_to_json(term: Term) -> dict[str, str]:
    if isinstance(term, URIRef):
        return {"type": "uri", "value": str(term)}
    if isinstance(term, BNode):
        return {"type": "bnode", "value": str(term)}
    if isinstance(term, Literal):
        payload: dict[str, str] = {"type": "literal", "value": term.lexical}
        if term.lang:
            payload["xml:lang"] = term.lang
        elif term.datatype is not None:
            payload["datatype"] = str(term.datatype)
        return payload
    raise TermSerializationError(
        f"term {term!r} ({type(term).__name__}) cannot appear in a SPARQL result binding"
    )
