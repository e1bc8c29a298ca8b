"""Turtle serialiser.

Produces readable Turtle with prefix declarations, subject grouping and
predicate/object list abbreviations.  Output is deterministic (subjects,
predicates and objects are sorted) so that serialisations can be compared
textually in tests and experiment logs.
"""

from __future__ import annotations

from collections import defaultdict


from ..rdf import BNode, Graph, Literal, RDF, Term, URIRef
from .ntriples import escape

__all__ = ["TurtleSerializer", "serialize_turtle"]


class TurtleSerializer:
    """Serialise a :class:`Graph` to Turtle text."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._nsm = graph.namespace_manager

    def serialize(self) -> str:
        used_prefixes = self._collect_used_prefixes()
        lines: list[str] = []
        for prefix in sorted(used_prefixes):
            namespace = self._nsm.namespace(prefix)
            lines.append(f"@prefix {prefix}: <{namespace}> .")
        if lines:
            lines.append("")

        by_subject: dict[Term, list] = defaultdict(list)
        for triple in self._graph:
            by_subject[triple.subject].append(triple)

        for subject in sorted(by_subject, key=lambda t: t.sort_key()):
            lines.extend(self._subject_block(subject, by_subject[subject]))
            lines.append("")
        return "\n".join(lines).rstrip("\n") + "\n"

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _collect_used_prefixes(self) -> set[str]:
        used: set[str] = set()
        for triple in self._graph:
            for term in triple:
                if isinstance(term, URIRef):
                    compact = self._nsm.compact(term)
                    if compact:
                        used.add(compact.split(":", 1)[0])
                elif isinstance(term, Literal) and term.datatype is not None:
                    compact = self._nsm.compact(term.datatype)
                    if compact:
                        used.add(compact.split(":", 1)[0])
        return used

    def _subject_block(self, subject: Term, triples: list) -> list[str]:
        by_predicate: dict[Term, list[Term]] = defaultdict(list)
        for triple in triples:
            by_predicate[triple.predicate].append(triple.object)

        lines = [self._term(subject)]
        predicates = sorted(by_predicate, key=self._predicate_sort_key)
        for index, predicate in enumerate(predicates):
            objects = sorted(by_predicate[predicate], key=lambda t: t.sort_key())
            object_text = ", ".join(self._term(obj) for obj in objects)
            terminator = " ;" if index < len(predicates) - 1 else " ."
            lines.append(f"    {self._predicate(predicate)} {object_text}{terminator}")
        return lines

    def _predicate_sort_key(self, predicate: Term) -> tuple:
        # rdf:type first (conventional Turtle style), then alphabetical.
        return (0 if predicate == RDF.type else 1, str(predicate))

    def _predicate(self, predicate: Term) -> str:
        if predicate == RDF.type:
            return "a"
        return self._term(predicate)

    def _term(self, term: Term) -> str:
        if isinstance(term, URIRef):
            compact = self._nsm.compact(term)
            return compact if compact else term.n3()
        if isinstance(term, Literal):
            return self._literal(term)
        if isinstance(term, BNode):
            return term.n3()
        return term.n3()

    def _literal(self, literal: Literal) -> str:
        body = f'"{escape(literal.lexical)}"'
        if literal.lang:
            return f"{body}@{literal.lang}"
        if literal.datatype is not None:
            compact = self._nsm.compact(literal.datatype)
            marker = compact if compact else literal.datatype.n3()
            return f"{body}^^{marker}"
        return body


def serialize_turtle(graph: Graph) -> str:
    """Convenience wrapper over :class:`TurtleSerializer`."""
    return TurtleSerializer(graph).serialize()
