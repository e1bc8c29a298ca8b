"""The :class:`Graph` facade over a pluggable storage backend.

Historically this module *was* the store: three in-memory permutation
indexes (SPO, POS, OSP) plus statistics.  That representation now lives in
:class:`repro.rdf.store.MemoryStore`; ``Graph`` is a thin facade over any
:class:`repro.rdf.store.Store` — the same triple-pattern API can be served
from RAM or from immutable on-disk index segments
(:class:`repro.rdf.store.SegmentStore`), chosen at construction time::

    Graph()                      # in-memory (default)
    Graph(store=SegmentStore(p)) # explicit backend
    open_graph("/data/store")    # persistent, via the factory

The facade owns everything term-level and convention-level — wildcard
normalisation (``Variable`` acts as ``None``), positional validity
(a literal can never match in subject position), set algebra, Turtle I/O —
while the store answers id-level scans, counts and statistics.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

from .namespace import NamespaceManager
from .store import (
    UNBOUND_ID,
    GraphStatistics,
    MemoryStore,
    Store,
    TermDictionary,
)
from .terms import BNode, Term, URIRef, Variable
from .triple import Triple

__all__ = [
    "Graph",
    "GraphView",
    "GraphStatistics",
    "TermDictionary",
    "UNBOUND_ID",
]

_Pattern = tuple[Term | None, Term | None, Term | None]

#: File-suffix -> serialisation format, for :meth:`Graph.load`.
_SUFFIX_FORMATS = {".ttl": "turtle", ".turtle": "turtle",
                   ".nt": "ntriples", ".ntriples": "ntriples"}


class Graph:
    """A set of RDF triples with pattern-match indexes, backed by a store.

    The graph exposes a small, explicit API:

    * :meth:`add`, :meth:`add_all`, :meth:`remove`, :meth:`discard`
    * :meth:`triples` -- generator over triples matching an ``(s, p, o)``
      pattern where ``None`` acts as a wildcard
    * :meth:`subjects`, :meth:`predicates`, :meth:`objects` -- projections
    * :meth:`value` -- fetch a single object/subject
    * set-style operators ``+`` (union), ``-`` (difference), ``&``
      (intersection)

    Construction paths: ``Graph()`` uses a fresh in-memory store,
    ``Graph(store=...)`` wraps an explicit backend (possibly already
    populated on disk), ``Graph.load(path)`` parses an RDF file, and
    :func:`repro.open_graph` picks memory vs disk from its argument.
    """

    def __init__(
        self,
        triples: Iterable[Triple] | None = None,
        identifier: URIRef | None = None,
        namespace_manager: NamespaceManager | None = None,
        store: Store | None = None,
    ) -> None:
        self._identifier = identifier
        self._store = store if store is not None else MemoryStore()
        self.namespace_manager = namespace_manager or NamespaceManager()
        if triples:
            self.add_all(triples)

    @property
    def store(self) -> Store:
        """The storage backend this graph reads and writes."""
        return self._store

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every effective mutation.

        The companion of :attr:`AlignmentStore.generation`: derived
        structures (e.g. the HTTP server's response cache) key their
        entries on it so stale answers cannot outlive a data change.
        """
        return self._store.version

    # ------------------------------------------------------------------ #
    # Identification
    # ------------------------------------------------------------------ #
    @property
    def identifier(self) -> URIRef | None:
        """Optional URI naming this graph (used by :class:`Dataset`)."""
        return self._identifier

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple | tuple[Term, Term, Term]) -> Graph:
        """Add a single (ground) triple.  Returns ``self`` for chaining."""
        triple = self._coerce(triple)
        if triple.variables():
            raise ValueError(f"cannot assert a triple pattern with variables: {triple}")
        self._store.add(triple.subject, triple.predicate, triple.object)
        return self

    def add_all(self, triples: Iterable[Triple | tuple[Term, Term, Term]]) -> Graph:
        """Add every triple from an iterable."""
        for triple in triples:
            self.add(triple)
        return self

    def remove(self, triple: Triple | tuple[Term, Term, Term]) -> Graph:
        """Remove a triple; raise :class:`KeyError` when absent."""
        triple = self._coerce(triple)
        if not self._store.discard(triple.subject, triple.predicate, triple.object):
            raise KeyError(f"triple not in graph: {triple}")
        return self

    def discard(self, triple: Triple | tuple[Term, Term, Term]) -> Graph:
        """Remove a triple if present."""
        triple = self._coerce(triple)
        self._store.discard(triple.subject, triple.predicate, triple.object)
        return self

    def remove_pattern(
        self,
        subject: Term | None = None,
        predicate: Term | None = None,
    ) -> int:
        """Remove every triple matching ``(subject, predicate, ?)``; return the count."""
        victims = list(self.triples(subject, predicate, None))
        for triple in victims:
            self.discard(triple)
        return len(victims)

    def clear(self) -> None:
        """Remove every triple."""
        self._store.clear()

    @staticmethod
    def _coerce(triple: Triple | tuple[Term, Term, Term]) -> Triple:
        if isinstance(triple, Triple):
            return triple
        return Triple(*triple)

    # ------------------------------------------------------------------ #
    # Persistence lifecycle (no-ops on in-memory stores)
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Make pending writes durable on persistent backends."""
        self._store.flush()

    def close(self) -> None:
        """Flush and release backend resources (file handles etc.)."""
        self._store.close()

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #
    def __contains__(self, triple: Triple | tuple[Term, Term, Term]) -> bool:
        triple = self._coerce(triple)
        if triple.variables():
            return False
        return self._store.contains(triple.subject, triple.predicate, triple.object)

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Triple]:
        return self._store.triples()

    def __bool__(self) -> bool:
        return bool(self._store)

    def triples(
        self,
        subject: Term | None = None,
        predicate: Term | None = None,
        obj: Term | None = None,
    ) -> Iterator[Triple]:
        """Yield triples matching a pattern.

        ``None`` (or a :class:`Variable`) in a position acts as a wildcard.
        The most selective index available for the bound positions is used.
        """
        s = self._normalize(subject)
        p = self._normalize(predicate)
        o = self._normalize(obj)
        if not self._positions_valid(s, p):
            # e.g. a literal in subject/predicate position (a variable bound
            # to a literal by an earlier pattern): nothing can match.
            return iter(())
        return self._store.triples(s, p, o)

    def triples_ids(
        self, s: int = UNBOUND_ID, p: int = UNBOUND_ID, o: int = UNBOUND_ID
    ) -> Iterator[tuple[int, int, int]]:
        """Yield ``(s, p, o)`` dictionary-id triples matching an id pattern.

        :data:`UNBOUND_ID` (0) acts as the wildcard.  This is the batched
        executor's scan entry point: ids come from (and go back into) this
        graph's :attr:`dictionary`, so the executor's join loops stay in
        integer space — no term hashing, no :class:`Triple` construction.
        A non-zero id that never occurs in the asserted position simply
        matches nothing (the id indexes only contain asserted triples, so
        e.g. a literal id used as subject finds an empty bucket).
        """
        return self._store.triples_ids(s, p, o)

    @staticmethod
    def _normalize(term: Term | None) -> Term | None:
        """Variables behave as wildcards when used in graph-level matching."""
        if term is None or isinstance(term, Variable):
            return None
        return term

    @staticmethod
    def _positions_valid(s: Term | None, p: Term | None) -> bool:
        """Whether the ground lookup terms can occupy their positions at all."""
        if s is not None and not isinstance(s, (URIRef, BNode)):
            return False
        if p is not None and not isinstance(p, URIRef):
            return False
        return True

    # ------------------------------------------------------------------ #
    # Cardinalities (used by the query planner)
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> GraphStatistics:
        """Live, incrementally maintained cardinality statistics."""
        return self._store.stats

    @property
    def dictionary(self) -> TermDictionary:
        """This graph's term-interning dictionary (see :class:`TermDictionary`).

        Ids are lazily assigned by the batched executor; removing a triple
        does not retire ids (they are tiny and stay valid for row tuples
        held by in-flight queries).
        """
        return self._store.dictionary

    def cardinality(
        self,
        subject: Term | None = None,
        predicate: Term | None = None,
        obj: Term | None = None,
    ) -> int:
        """Exact number of triples matching the pattern, without enumerating.

        ``None`` (or a :class:`Variable`) acts as a wildcard, mirroring
        :meth:`triples`.  One-bound patterns read the per-term counters and
        the all-wildcard pattern the triple count, in O(1).  Two- and
        three-bound patterns read index buckets: O(1) except ``(s, ?, o)`` on
        a :class:`MemoryStore`, which has no OSP and costs O(predicates of s).
        """
        s = self._normalize(subject)
        p = self._normalize(predicate)
        o = self._normalize(obj)
        if not self._positions_valid(s, p):
            return 0
        return self._store.cardinality(s, p, o)

    def match_pattern(self, pattern: Triple) -> Iterator[Triple]:
        """Yield triples matching a :class:`Triple` pattern (variables wild)."""
        return self.triples(pattern.subject, pattern.predicate, pattern.object)

    def subjects(
        self, predicate: Term | None = None, obj: Term | None = None
    ) -> Iterator[Term]:
        """Distinct subjects of triples matching ``(?, predicate, obj)``."""
        seen: set[Term] = set()
        for triple in self.triples(None, predicate, obj):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def predicates(self, subject: Term | None = None) -> Iterator[Term]:
        """Distinct predicates of triples matching ``(subject, ?, ?)``."""
        seen: set[Term] = set()
        for triple in self.triples(subject, None, None):
            if triple.predicate not in seen:
                seen.add(triple.predicate)
                yield triple.predicate

    def objects(
        self, subject: Term | None = None, predicate: Term | None = None
    ) -> Iterator[Term]:
        """Distinct objects of triples matching ``(subject, predicate, ?)``."""
        seen: set[Term] = set()
        for triple in self.triples(subject, predicate, None):
            if triple.object not in seen:
                seen.add(triple.object)
                yield triple.object

    def value(
        self,
        subject: Term,
        predicate: Term,
        default: Term | None = None,
    ) -> Term | None:
        """The object of a ``(subject, predicate, ?)`` triple, or ``default``.

        The first matching object is returned (no uniqueness check,
        mirroring rdflib).
        """
        for triple in self.triples(subject, predicate, None):
            return triple.object
        return default

    # ------------------------------------------------------------------ #
    # Vocabulary statistics (used by voiD descriptions)
    # ------------------------------------------------------------------ #
    def vocabularies(self) -> set[str]:
        """Namespace URIs of every predicate and class used in the graph.

        Derived from the statistics counters rather than a triple scan, so
        it stays cheap on disk-backed stores.
        """
        spaces: set[str] = set()
        for predicate in self.stats.predicate_counts:
            if isinstance(predicate, URIRef):
                spaces.add(predicate.namespace_split()[0])
        for klass in self.stats.class_counts:
            if isinstance(klass, URIRef):
                spaces.add(klass.namespace_split()[0])
        spaces.discard("")
        return spaces

    # ------------------------------------------------------------------ #
    # Set algebra (results are always in-memory graphs)
    # ------------------------------------------------------------------ #
    def copy(self) -> Graph:
        """Shallow copy preserving identifier and namespace bindings."""
        clone = Graph(identifier=self._identifier,
                      namespace_manager=self.namespace_manager.copy())
        clone.add_all(self)
        return clone

    def __add__(self, other: Graph) -> Graph:
        result = self.copy()
        result.add_all(other)
        return result

    def __iadd__(self, other: Iterable[Triple]) -> Graph:
        self.add_all(other)
        return self

    def __sub__(self, other: Graph) -> Graph:
        result = Graph(namespace_manager=self.namespace_manager.copy())
        result.add_all(t for t in self if t not in other)
        return result

    def __and__(self, other: Graph) -> Graph:
        result = Graph(namespace_manager=self.namespace_manager.copy())
        result.add_all(t for t in self if t in other)
        return result

    def __eq__(self, other: object) -> bool:
        """Exact set equality (not bnode-isomorphism; see ``isomorphism``).

        Works across storage backends: two graphs are equal when they hold
        the same triple set, regardless of where each set lives.
        """
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(triple in other for triple in self)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        return id(self)

    # ------------------------------------------------------------------ #
    # Convenience I/O hooks (implemented in repro.turtle)
    # ------------------------------------------------------------------ #
    def serialize(self, format: str = "turtle") -> str:
        """Serialise the graph to ``turtle`` or ``ntriples`` text."""
        from ..turtle import serialize_graph

        return serialize_graph(self, format=format)

    @classmethod
    def parse(cls, text: str, format: str = "turtle") -> Graph:
        """Parse Turtle or N-Triples text into a new graph."""
        from ..turtle import parse_graph

        return parse_graph(text, format=format)

    @classmethod
    def load(cls, path, store: Store | None = None) -> Graph:
        """Parse an RDF file into a graph.

        The format comes from the file suffix (``.nt`` -> ntriples,
        anything else turtle).  Pass ``store=`` to load into a specific
        backend (e.g. populate a :class:`SegmentStore` from a file).
        """
        source = Path(path)
        format = _SUFFIX_FORMATS.get(source.suffix.lower(), "turtle")
        parsed = cls.parse(source.read_text(encoding="utf-8"), format=format)
        if store is None:
            return parsed
        graph = cls(namespace_manager=parsed.namespace_manager, store=store)
        graph.add_all(parsed)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = str(self._identifier) if self._identifier else "anonymous"
        return f"<Graph {name} with {len(self)} triples>"


class GraphView:
    """Immutable facade over a :class:`Graph`.

    Local SPARQL endpoints hand this view to query evaluation so that a
    federated query can never mutate the dataset it reads.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph

    def triples(self, subject=None, predicate=None, obj=None) -> Iterator[Triple]:
        return self._graph.triples(subject, predicate, obj)

    def match_pattern(self, pattern: Triple) -> Iterator[Triple]:
        return self._graph.match_pattern(pattern)

    def triples_ids(self, s=UNBOUND_ID, p=UNBOUND_ID, o=UNBOUND_ID):
        return self._graph.triples_ids(s, p, o)

    def cardinality(self, subject=None, predicate=None, obj=None) -> int:
        return self._graph.cardinality(subject, predicate, obj)

    @property
    def stats(self) -> GraphStatistics:
        return self._graph.stats

    @property
    def dictionary(self) -> TermDictionary:
        return self._graph.dictionary

    @property
    def version(self) -> int:
        return self._graph.version

    def __contains__(self, triple) -> bool:
        return triple in self._graph

    def __len__(self) -> int:
        return len(self._graph)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._graph)

    @property
    def identifier(self) -> URIRef | None:
        return self._graph.identifier

    @property
    def namespace_manager(self) -> NamespaceManager:
        return self._graph.namespace_manager
