"""Storage backends behind :class:`repro.rdf.Graph`.

This module is the storage contract of the whole system.  A
:class:`Store` holds one set of ground triples and answers the five
questions every engine layer asks of it:

* *membership and mutation* — :meth:`Store.add`, :meth:`Store.discard`,
  :meth:`Store.contains`;
* *pattern scans* — :meth:`Store.triples` (term level) and
  :meth:`Store.triples_ids` (interned-id level, the batched executor's
  entry point);
* *exact cardinalities* — :meth:`Store.cardinality`, O(1)-ish for any
  pattern shape, feeding the PR 3 query planner;
* *vocabulary statistics* — :attr:`Store.stats`, a per-version term view
  of the id-keyed counters both stores maintain on every mutation, behind
  the planner, voiD publishing and source selection;
* *the term dictionary* — :attr:`Store.dictionary`, the bidirectional
  term <-> int interning table whose ids appear in executor row tuples.

Two implementations ship:

* :class:`MemoryStore` — nested-dict SPO and POS permutation indexes over
  interned ids, entirely in RAM.  A leaf bucket that holds one id is that
  id, a bare int, and becomes a set on its second id, which keeps the
  index to about 130 bytes per triple on E15's entity graph without
  changing the order any scan yields rows in.
* :class:`SegmentStore` — a persistent store: immutable sorted SPO/POS/OSP
  index segments on disk (24-byte little-endian records, memory-mapped
  and bisected in place as integer arrays so a query never loads a full
  segment), an append-only interned term dictionary, a small in-memory
  write buffer flushed to new segments, tombstone-based deletes and
  segment-merge compaction.  Exact per-segment statistics are persisted
  next to each segment so a cold open rebuilds the planner's counters
  without scanning any data, and a read searches only the segments whose
  id maps hold the pattern's bound ids.

:func:`open_graph` is the user-facing factory: ``open_graph(None)`` gives
an in-memory graph, ``open_graph(path)`` opens (or creates) a persistent
one.
"""

from __future__ import annotations

import heapq
import json
import mmap
import os
import struct
import sys
import threading
from bisect import bisect_left, bisect_right
from collections.abc import Collection, Hashable, Iterable, Iterator, Sequence
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, TypeVar

from .namespace import RDF
from .terms import BNode, Literal, Term, URIRef
from .triple import Triple

#: ``RDF.type`` built once: the attribute builds and checks a new URIRef
#: on every access, and :meth:`MemoryStore.add` compares against it.
_RDF_TYPE = RDF.type

__all__ = [
    "UNBOUND_ID",
    "TermDictionary",
    "GraphStatistics",
    "Store",
    "MemoryStore",
    "SegmentStore",
    "StoreError",
    "open_store",
    "open_graph",
]

#: Reserved dictionary id meaning "no term bound here".  Kept falsy on
#: purpose: executor hot loops test ``if term_id:`` instead of comparing.
UNBOUND_ID = 0

#: The statistics roles, in :attr:`_IdCounts.maps` order; a segment's
#: metadata holds one id -> count map per role, and the first three prune reads.
_ROLES = ("subjects", "predicates", "objects", "classes")
_Key = TypeVar("_Key", bound=Hashable)


class StoreError(RuntimeError):
    """A persistent store directory is unusable (corrupt or mismatched)."""


class TermDictionary:
    """Bidirectional term <-> integer interning table.

    The batched executor (:mod:`repro.sparql.exec`) represents solution
    rows as fixed-width tuples of integers; this dictionary assigns those
    integers.  Each :class:`Store` owns one dictionary (ids are meaningless
    across stores), ids are assigned lazily on first use and stay stable
    for the lifetime of the store — a term is never re-interned to a new
    id, so row tuples survive mutations.  :class:`SegmentStore` persists
    the assignment in an append-only log, so ids are also stable across
    process restarts (segment files reference them).

    Id ``0`` (:data:`UNBOUND_ID`) is reserved for "unbound" and never
    assigned to a term.
    """

    __slots__ = ("_terms", "_ids")

    def __init__(self) -> None:
        self._terms: list = [None]
        self._ids: dict[Term, int] = {}

    def intern(self, term: Term) -> int:
        """The id for ``term``, assigning a fresh one on first sight."""
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = len(self._terms)
            self._terms.append(term)
            self._ids[term] = term_id
            self._persist(term)
        return term_id

    def _persist(self, term: Term) -> None:
        """Hook for persistent subclasses; the in-memory table does nothing."""

    def lookup(self, term: Term) -> int:
        """The id for ``term`` without interning (``UNBOUND_ID`` if unseen)."""
        return self._ids.get(term, UNBOUND_ID)

    def decode(self, term_id: int) -> Term:
        """The term behind ``term_id`` (raises for the unbound id)."""
        term = self._terms[term_id]
        if term is None:
            raise KeyError(f"term id {term_id} decodes to no term")
        return term

    @property
    def terms(self) -> list:
        """The id-indexed decode table (index 0 is the unbound slot)."""
        return self._terms

    def __len__(self) -> int:
        return len(self._terms) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TermDictionary {len(self)} terms>"


class GraphStatistics:
    """Per-term cardinality statistics: a view of one store version.

    The query planner orders joins by how many triples each pattern can
    match, and voiD publishing and source selection list the vocabulary a
    store uses.  Both stores keep these counts id-keyed (:class:`_IdCounts`)
    and exact on every mutation — no ANALYZE step, no staleness; this view
    reads them by term.  ``distinct_*`` are the ``len()`` of the id maps,
    and each term-keyed map is decoded on its first read and kept for the
    view's version, so a reader that takes three lengths decodes nothing.

    :attr:`Store.stats` hands out one view per :attr:`Store.version`.  A
    view kept across a mutation reads through to the store's current view,
    so it never answers with counts the store no longer has.
    """

    __slots__ = ("_store", "_version", "_counts", "_terms", "_decoded")

    def __init__(self, store: Store, counts: _IdCounts) -> None:
        self._store = store
        self._version = store.version
        self._counts = counts
        self._terms = store.dictionary.terms
        self._decoded: list[dict[Term, int] | None] = [None] * len(_ROLES)

    def _current(self) -> GraphStatistics:
        store = self._store
        return self if store.version == self._version else store.stats

    def _by_term(self, role: int) -> dict[Term, int]:
        view = self._current()
        decoded = view._decoded[role]
        if decoded is None:
            terms = view._terms
            decoded = view._decoded[role] = {
                terms[key]: count for key, count in view._counts.maps[role].items()}
        return decoded

    # -- read API ---------------------------------------------------------- #
    @property
    def subject_counts(self) -> dict[Term, int]:
        """Triples per subject term."""
        return self._by_term(0)

    @property
    def predicate_counts(self) -> dict[Term, int]:
        """Triples per predicate term."""
        return self._by_term(1)

    @property
    def object_counts(self) -> dict[Term, int]:
        """Triples per object term."""
        return self._by_term(2)

    @property
    def class_counts(self) -> dict[Term, int]:
        """Instances per ``rdf:type`` class (object of an rdf:type triple)."""
        return self._by_term(3)

    @property
    def distinct_subjects(self) -> int:
        return len(self._current()._counts.maps[0])

    @property
    def distinct_predicates(self) -> int:
        return len(self._current()._counts.maps[1])

    @property
    def distinct_objects(self) -> int:
        return len(self._current()._counts.maps[2])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<GraphStatistics s={self.distinct_subjects} "
                f"p={self.distinct_predicates} o={self.distinct_objects} "
                f"classes={len(self._current()._counts.maps[3])}>")


def _bump(counts: dict[_Key, int], key: _Key, delta: int) -> None:
    updated = counts.get(key, 0) + delta
    if updated > 0:
        counts[key] = updated
    else:
        counts.pop(key, None)


class _IdCounts:
    """Triples per subject, predicate, object and ``rdf:type`` class id.

    The statistics model of both stores: one id -> count map per role, in
    :data:`_ROLES` order, holding no zero count.  A mutation bumps three
    int-keyed entries (four for an ``rdf:type`` triple) and hashes no term;
    :class:`GraphStatistics` decodes a map by term only when it is read.
    ``type_id`` is the ``rdf:type`` id, or :data:`UNBOUND_ID` while no
    ``rdf:type`` triple has been counted.
    """

    __slots__ = ("maps", "type_id")

    def __init__(self, type_id: int = UNBOUND_ID) -> None:
        self.maps: tuple[dict[int, int], ...] = tuple({} for _ in _ROLES)
        self.type_id = type_id

    def add(self, s: int, p: int, o: int) -> None:
        subjects, predicates, objects, classes = self.maps
        subjects[s] = subjects.get(s, 0) + 1
        predicates[p] = predicates.get(p, 0) + 1
        objects[o] = objects.get(o, 0) + 1
        if p == self.type_id:
            classes[o] = classes.get(o, 0) + 1

    def remove(self, s: int, p: int, o: int) -> None:
        subjects, predicates, objects, classes = self.maps
        _bump(subjects, s, -1)
        _bump(predicates, p, -1)
        _bump(objects, o, -1)
        if p == self.type_id:
            _bump(classes, o, -1)

    def clear(self) -> None:
        for counts in self.maps:
            counts.clear()

    def count(self, s: int, p: int, o: int) -> int:
        """Triples matching an id pattern with exactly one bound position."""
        role, key = (0, s) if s else ((1, p) if p else (2, o))
        return self.maps[role].get(key, 0)

    def metadata(self) -> dict[str, dict[str, int]]:
        """The maps as a segment's ``meta.json`` stores them."""
        return {role: {str(key): count for key, count in counts.items()}
                for role, counts in zip(_ROLES, self.maps, strict=True)}


# --------------------------------------------------------------------------- #
# The storage contract
# --------------------------------------------------------------------------- #
class Store:
    """Abstract triple-storage contract behind :class:`repro.rdf.Graph`.

    Implementations provide the id-level half (``add_ids`` is not part of
    the contract — mutation is term-level because statistics are) plus the
    dictionary; the base class derives the term-level query API from it,
    so a backend only has to answer id-pattern scans and counts.

    Pattern arguments are *ground terms or None* — wildcard normalisation
    (``Variable`` acts as ``None``) happens in the :class:`Graph` facade.
    """

    # -- contract ----------------------------------------------------------- #
    @property
    def dictionary(self) -> TermDictionary:
        """This store's term-interning dictionary."""
        raise NotImplementedError

    @property
    def stats(self) -> GraphStatistics:
        """Exact per-term cardinality statistics: one view per :attr:`version`."""
        raise NotImplementedError

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every effective mutation."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def add(self, s: Term, p: Term, o: Term) -> bool:
        """Assert a ground triple; True when it was not already present."""
        raise NotImplementedError

    def discard(self, s: Term, p: Term, o: Term) -> bool:
        """Retract a triple; True when it was present."""
        raise NotImplementedError

    def clear(self) -> None:
        """Remove every triple (the dictionary keeps its assignments)."""
        raise NotImplementedError

    def triples_ids(
        self, s: int = UNBOUND_ID, p: int = UNBOUND_ID, o: int = UNBOUND_ID
    ) -> Iterator[tuple[int, int, int]]:
        """Yield ``(s, p, o)`` dictionary-id triples matching an id pattern
        (:data:`UNBOUND_ID` is the wildcard)."""
        raise NotImplementedError

    def cardinality(
        self, s: Term | None = None, p: Term | None = None, o: Term | None = None
    ) -> int:
        """Exact number of triples matching the pattern, without enumerating."""
        raise NotImplementedError

    # -- lifecycle (no-ops for volatile backends) --------------------------- #
    def flush(self) -> None:
        """Make pending writes durable (no-op for in-memory backends)."""

    def close(self) -> None:
        """Flush and release any resources held by the backend."""

    # -- derived term-level API --------------------------------------------- #
    def _pattern_ids(
        self, s: Term | None, p: Term | None, o: Term | None
    ) -> tuple[int, int, int] | None:
        """Map a ground-or-None pattern onto dictionary ids.

        ``None`` when a ground term was never interned — nothing can match
        (the id indexes only ever contain asserted triples).
        """
        lookup = self.dictionary.lookup
        ids = [UNBOUND_ID, UNBOUND_ID, UNBOUND_ID]
        for position, term in enumerate((s, p, o)):
            if term is None:
                continue
            ids[position] = lookup(term)
            if not ids[position]:
                return None
        return (ids[0], ids[1], ids[2])

    def contains(self, s: Term, p: Term, o: Term) -> bool:
        """Exact ground-triple membership."""
        ids = self._pattern_ids(s, p, o)
        if ids is None:
            return False
        return next(self.triples_ids(*ids), None) is not None

    def triples(
        self, s: Term | None = None, p: Term | None = None, o: Term | None = None
    ) -> Iterator[Triple]:
        """Yield :class:`Triple` objects matching a ground-or-None pattern."""
        ids = self._pattern_ids(s, p, o)
        if ids is None:
            return
        terms = self.dictionary.terms
        for si, pi, oi in self.triples_ids(*ids):
            yield Triple(terms[si], terms[pi], terms[oi])

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __bool__(self) -> bool:
        return len(self) > 0


# --------------------------------------------------------------------------- #
# Shared id-level permutation index (memory store + segment write buffer)
# --------------------------------------------------------------------------- #
#: One permutation index: ``a -> b -> bucket`` of ``c`` ids, where a bucket
#: holding one id is that int and a bucket holding more is a set.
_Permutation = dict[int, dict[int, int | set[int]]]
#: The ``.get`` default for an absent first key, so a miss allocates nothing;
#: nothing ever writes to it.
_NO_LEVEL: dict[int, int | set[int]] = {}


def _ids(bucket: int | set[int] | None) -> Collection[int]:
    """The ids in ``bucket``: an int bucket holds just itself, ``None`` none."""
    if type(bucket) is int:
        return (bucket,)
    return bucket or ()


class _IdIndex:
    """SPO/POS nested-dict indexes over dictionary ids.

    ``(s, ?, o)`` tests ``o`` in each bucket of ``spo[s]`` and ``(?, ?, o)``
    reads ``pos[p][o]`` under every predicate, both predicate-major.

    A bucket holding one id is that id itself, an int the term dictionary
    already holds, so it costs the index only its dict slot (a set takes
    216 bytes); its second id promotes it to the set ``{old, c}``, and a
    set never goes back to an int.  A bucket that loses its last id is
    deleted, whatever its type.  A read of one bucket goes through
    :func:`_ids`; a loop over a level's buckets tests ``type(bucket) is
    int`` inline instead, which spares it a call per bucket.  Either way an
    id is compared by value (``==``/``in``), never by identity: ids above
    256 are equal, not identical, objects.

    Promotion keeps scan order: an int bucket stands for a set that has
    only ever held its one id, and ``{old, c}`` inserts the same ids in the
    same order into a fresh set, so the promoted set has the slot layout —
    and the iteration order — that adding to the set would have given.
    """

    __slots__ = ("spo", "pos", "size")

    def __init__(self) -> None:
        self.spo: _Permutation = {}
        self.pos: _Permutation = {}
        self.size = 0

    @staticmethod
    def _insert(index: _Permutation, a: int, b: int, c: int) -> None:
        level = index.get(a)
        if level is None:
            index[a] = {b: c}
            return
        bucket = level.get(b)
        if bucket is None:
            level[b] = c
        elif type(bucket) is int:
            level[b] = {bucket, c}
        else:
            bucket.add(c)

    @staticmethod
    def _prune(index: _Permutation, a: int, b: int, c: int) -> None:
        """Remove ``c``, which :meth:`discard` has checked is present."""
        level = index[a]
        bucket = level[b]
        if type(bucket) is not int and len(bucket) > 1:
            bucket.remove(c)
            return
        del level[b]
        if not level:
            del index[a]

    def contains(self, s: int, p: int, o: int) -> bool:
        return o in _ids(self.spo.get(s, _NO_LEVEL).get(p))

    def add(self, s: int, p: int, o: int) -> bool:
        if self.contains(s, p, o):
            return False
        self._insert(self.spo, s, p, o)
        self._insert(self.pos, p, o, s)
        self.size += 1
        return True

    def discard(self, s: int, p: int, o: int) -> bool:
        if not self.contains(s, p, o):
            return False
        self._prune(self.spo, s, p, o)
        self._prune(self.pos, p, o, s)
        self.size -= 1
        return True

    def clear(self) -> None:
        self.spo.clear()
        self.pos.clear()
        self.size = 0

    def scan(self, s: int, p: int, o: int) -> Iterator[tuple[int, int, int]]:
        """Yield matching id triples via the most selective index."""
        if s and p and o:
            if self.contains(s, p, o):
                yield (s, p, o)
            return
        if s and p:
            for oi in _ids(self.spo.get(s, _NO_LEVEL).get(p)):
                yield (s, p, oi)
            return
        if p and o:
            for si in _ids(self.pos.get(p, _NO_LEVEL).get(o)):
                yield (si, p, o)
            return
        if s and o:
            for pi, objects in self.spo.get(s, _NO_LEVEL).items():
                if (objects == o) if type(objects) is int else (o in objects):
                    yield (s, pi, o)
            return
        if s:
            for pi, objects in self.spo.get(s, _NO_LEVEL).items():
                if type(objects) is int:
                    yield (s, pi, objects)
                else:
                    for oi in objects:
                        yield (s, pi, oi)
            return
        if p:
            for oi, subjects in self.pos.get(p, _NO_LEVEL).items():
                if type(subjects) is int:
                    yield (subjects, p, oi)
                else:
                    for si in subjects:
                        yield (si, p, oi)
            return
        if o:
            for pi, by_object in self.pos.items():
                for si in _ids(by_object.get(o)):
                    yield (si, pi, o)
            return
        for si, by_predicate in self.spo.items():
            for pi, objects in by_predicate.items():
                if type(objects) is int:
                    yield (si, pi, objects)
                else:
                    for oi in objects:
                        yield (si, pi, oi)

    def count(self, s: int, p: int, o: int) -> int:
        """Exact match count for any id-pattern shape."""
        if s and p and o:
            return 1 if self.contains(s, p, o) else 0
        if s and p:
            return len(_ids(self.spo.get(s, _NO_LEVEL).get(p)))
        if p and o:
            return len(_ids(self.pos.get(p, _NO_LEVEL).get(o)))
        if s and o:
            return sum((bucket == o) if type(bucket) is int else (o in bucket)
                       for bucket in self.spo.get(s, _NO_LEVEL).values())
        if s:
            return sum(1 if type(bucket) is int else len(bucket)
                       for bucket in self.spo.get(s, _NO_LEVEL).values())
        if p:
            return sum(1 if type(bucket) is int else len(bucket)
                       for bucket in self.pos.get(p, _NO_LEVEL).values())
        if o:
            return sum(len(_ids(level.get(o))) for level in self.pos.values())
        return self.size


# --------------------------------------------------------------------------- #
# MemoryStore
# --------------------------------------------------------------------------- #
class MemoryStore(Store):
    """The volatile backend: SPO and POS id indexes in nested dicts.

    The indexes are one :class:`_IdIndex` (see there for its bare-int
    buckets, why scans keep their order and how it answers ``(?, ?, o)``).
    Statistics are :class:`SegmentStore`'s id-keyed :class:`_IdCounts`,
    bumped by id on every mutation; :attr:`stats` decodes them by term
    only when a reader asks, once per version.
    """

    def __init__(self) -> None:
        self._index = _IdIndex()
        self._dictionary = TermDictionary()
        # rdf:type gets its id when first written: interning it here would
        # shift every id, and with them the order of set buckets.
        self._counts = _IdCounts()
        self._view: GraphStatistics | None = None
        self._version = 0

    @property
    def dictionary(self) -> TermDictionary:
        return self._dictionary

    @property
    def stats(self) -> GraphStatistics:
        view = self._view
        if view is None or view._version != self._version:
            view = self._view = GraphStatistics(self, self._counts)
        return view

    @property
    def version(self) -> int:
        return self._version

    def __len__(self) -> int:
        return self._index.size

    def add(self, s: Term, p: Term, o: Term) -> bool:
        intern = self._dictionary.intern
        si, pi, oi = intern(s), intern(p), intern(o)
        if not self._index.add(si, pi, oi):
            return False
        counts = self._counts
        if not counts.type_id and p == _RDF_TYPE:
            counts.type_id = pi
        counts.add(si, pi, oi)
        self._version += 1
        return True

    def discard(self, s: Term, p: Term, o: Term) -> bool:
        ids = self._pattern_ids(s, p, o)
        if ids is None or not self._index.discard(*ids):
            return False
        self._counts.remove(*ids)
        self._version += 1
        return True

    def clear(self) -> None:
        self._index.clear()
        self._counts.clear()
        self._version += 1

    def triples_ids(
        self, s: int = UNBOUND_ID, p: int = UNBOUND_ID, o: int = UNBOUND_ID
    ) -> Iterator[tuple[int, int, int]]:
        return self._index.scan(s, p, o)

    def cardinality(
        self, s: Term | None = None, p: Term | None = None, o: Term | None = None
    ) -> int:
        bound = sum(term is not None for term in (s, p, o))
        if bound == 0:
            return self._index.size
        ids = self._pattern_ids(s, p, o)
        if ids is None:
            return 0
        if bound == 1:
            return self._counts.count(*ids)
        return self._index.count(*ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryStore {self._index.size} triples>"


# --------------------------------------------------------------------------- #
# SegmentStore: on-disk layout helpers
# --------------------------------------------------------------------------- #
#: Little-endian, so a mapped run reads as the native ``Q`` array it is
#: searched as; opening refuses a big-endian host.
_RECORD = struct.Struct("<QQQ")
_RECORD_SIZE = _RECORD.size
#: Records decoded per call while range-scanning a run.
_SCAN_CHUNK = 256
_MANIFEST = "MANIFEST.json"
_TERMS_LOG = "terms.jsonl"
_TOMBSTONES = "tombstones.bin"
_FORMAT_VERSION = 2


def _encode_term(term: Term) -> str:
    if isinstance(term, URIRef):
        payload: list[str | None] = ["u", term.value]
    elif isinstance(term, BNode):
        payload = ["b", term.value]
    elif isinstance(term, Literal):
        datatype = str(term.datatype) if term.datatype is not None else None
        payload = ["l", term.lexical, term.lang, datatype]
    else:
        raise StoreError(f"cannot persist non-ground term {term!r}")
    return json.dumps(payload, ensure_ascii=False)


def _decode_term(line: str) -> Term:
    payload = json.loads(line)
    kind = payload[0]
    if kind == "u":
        return URIRef(payload[1])
    if kind == "b":
        return BNode(payload[1])
    if kind == "l":
        _, lexical, lang, datatype = payload
        return Literal(lexical, lang=lang,
                       datatype=URIRef(datatype) if datatype else None)
    raise StoreError(f"unknown term tag {kind!r} in dictionary log")


class _PersistentTermDictionary(TermDictionary):
    """A term dictionary whose assignments append to an on-disk log.

    Replaying the log in order reproduces the exact id assignment, which
    is what makes segment files (pure id records) survive restarts.
    """

    __slots__ = ("_sink",)

    def __init__(self, sink) -> None:
        super().__init__()
        self._sink = sink

    def _persist(self, term: Term) -> None:
        self._sink.write(_encode_term(term) + "\n")


class _IoCounters:
    """Cheap read-traffic accounting for one :class:`SegmentStore`.

    ``records_read`` counts index records decoded plus the most a
    bisection can examine — the E14 benchmark asserts that a LIMIT-ed
    query reads a small multiple of its answer size, not the whole dataset.
    """

    __slots__ = ("records_read", "range_scans", "lookups")

    def __init__(self) -> None:
        self.records_read = 0
        self.range_scans = 0
        self.lookups = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "records_read": self.records_read,
            "range_scans": self.range_scans,
            "lookups": self.lookups,
        }


class _TripleFile:
    """One immutable sorted run of 24-byte ``(a, b, c)`` id records.

    The run is mapped read-only when its segment is opened (no triple
    page is read, and no descriptor is kept) and viewed in place, with no
    copy, as a flat array of unsigned 64-bit ids (``flat``) plus one
    strided view per record column (``columns``).  A search is C
    ``bisect`` calls on the column views, each column inside the range
    the previous one left; a range decodes ``_SCAN_CHUNK`` records per
    ``tolist`` call — a query never materialises the file, and concurrent
    readers share only the mapping.
    """

    __slots__ = ("path", "count", "flat", "columns", "io")

    def __init__(self, path: Path, io: _IoCounters) -> None:
        self.path = path
        self.io = io
        with open(path, "rb") as source:
            size = os.fstat(source.fileno()).st_size
            if size % _RECORD_SIZE:
                raise StoreError(f"{path}: {size} bytes is not a whole number of "
                                 f"{_RECORD_SIZE}-byte records")
            self.count = size // _RECORD_SIZE
            # ``mmap`` refuses a zero-length file (a compaction that kept
            # nothing writes one); empty bytes search the same way.
            mapped = mmap.mmap(source.fileno(), 0, access=mmap.ACCESS_READ) if self.count else b""
        flat = memoryview(mapped).cast("Q")
        self.flat: memoryview | None = flat
        self.columns: tuple[memoryview, ...] | None = (flat[0::3], flat[1::3], flat[2::3])

    def close(self) -> None:
        # Dropped, not released: a search in flight on another thread
        # finishes on its own views; the last view gone unmaps the run.
        self.flat = self.columns = None

    def _closed(self) -> StoreError:
        return StoreError(f"{self.path} was closed (store closed, cleared or compacted)")

    def prefix_range(self, prefix: tuple[int, ...]) -> tuple[int, int]:
        """The ``[lo, hi)`` record range whose tuples start with ``prefix``."""
        columns = self.columns
        if columns is None:
            raise self._closed()
        self.io.lookups += 1
        lo, hi, examined = 0, self.count, 0
        for column, value in zip(columns, prefix, strict=False):
            examined += 2 * (hi - lo).bit_length()   # at most, for the two bisections
            lo = bisect_left(column, value, lo, hi)
            hi = bisect_right(column, value, lo, hi)
        self.io.records_read += examined
        return lo, hi

    def rows(self, lo: int, hi: int, order: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
        """Records ``[lo, hi)`` decoded in one call, their columns emitted in ``order``."""
        flat = self.flat
        if flat is None:
            raise self._closed()
        self.io.records_read += hi - lo
        ids = flat[3 * lo:3 * hi].tolist()
        a, b, c = order
        return zip(ids[a::3], ids[b::3], ids[c::3], strict=True)

    def records(self) -> Iterator[tuple[int, int, int]]:
        """Every record in run order, decoded by :meth:`rows` a chunk at a time."""
        return chain.from_iterable(
            self.rows(start, min(start + _SCAN_CHUNK, self.count), (0, 1, 2))
            for start in range(0, self.count, _SCAN_CHUNK))


#: Ordering name -> the (s, p, o) position each record column holds.
_ORDERINGS = {"spo": (0, 1, 2), "pos": (1, 2, 0), "osp": (2, 0, 1)}
#: Ordering name -> the record columns that read back as (s, p, o).
_RESTORE = {name: tuple(map(columns.index, range(3))) for name, columns in _ORDERINGS.items()}


def _plan(s: int, p: int, o: int) -> tuple[str, tuple[int, ...]]:
    """Pick the ordering whose sort prefix covers the bound positions."""
    if s and p:
        return "spo", (s, p, o) if o else (s, p)
    if p:
        return "pos", (p, o) if o else (p,)
    if o:
        return "osp", (o, s) if s else (o,)
    if s:
        return "spo", (s,)
    return "spo", ()


class _Segment(NamedTuple):
    """One immutable on-disk segment: its three sorted runs by ordering."""

    name: str
    files: dict[str, _TripleFile]
    triples: int

    def close(self) -> None:
        for run in self.files.values():
            run.close()


def _open_segment(directory: Path, name: str,
                  io: _IoCounters) -> tuple[_Segment, dict[str, dict[int, int]]]:
    """Map segment ``name`` and read its exact per-role id -> count maps.

    The maps decide correctness, not just estimates: the store folds them
    into the masks that prune :meth:`SegmentStore.triples_ids`,
    ``cardinality`` and the duplicate check behind ``add``, so a map that
    missed an id would silently lose that id's triples.  Opening therefore
    checks all it can without reading a record — each of the three runs
    holds exactly ``triples`` whole records, and the subject, predicate
    and object maps each sum to ``triples`` — and raises
    :class:`StoreError` otherwise.  The segment itself keeps no map.
    """
    files = {ordering: _TripleFile(directory / f"{name}.{ordering}", io)
             for ordering in _ORDERINGS}
    meta = json.loads((directory / f"{name}.meta.json").read_text(encoding="utf-8"))
    count = int(meta["triples"])
    for ordering, run in files.items():
        if run.count != count:
            raise StoreError(f"segment {name}: {ordering} run holds {run.count} records "
                             f"but metadata claims {count}")
    maps = {role: {int(key): value for key, value in meta["stats"][role].items()}
            for role in _ROLES}
    for role in _ROLES[:3]:
        total = sum(maps[role].values())
        if total != count:
            raise StoreError(f"segment {name}: {role} map counts {total} triples "
                             f"but metadata claims {count}")
    return _Segment(name, files, count), maps


#: Per role (s, p, o): id -> bitmask of the segments whose runs hold it.
_Masks = tuple[dict[int, int], dict[int, int], dict[int, int]]


def _fold(masks: _Masks, maps: dict[str, dict[int, int]], bit: int) -> None:
    """Set ``bit`` in ``masks`` for every id a segment's ``maps`` hold."""
    for ids, role in zip(masks, _ROLES, strict=False):
        for key in maps[role]:
            ids[key] = ids.get(key, 0) | bit


class _Layout(NamedTuple):
    """The live segments and their masks, published by one assignment.

    Never mutated once published, so a scan that read one layout never
    pairs its masks with another layout's segments across a flush,
    :meth:`SegmentStore.compact` or :meth:`SegmentStore.clear`.
    """

    segments: tuple[_Segment, ...]
    masks: _Masks

    def holding(self, s: int, p: int, o: int) -> Sequence[_Segment]:
        """The segments whose runs hold every bound id of the pattern, in order."""
        subjects, predicates, objects = self.masks
        mask = ((subjects.get(s, 0) if s else -1) & (predicates.get(p, 0) if p else -1)
                & (objects.get(o, 0) if o else -1))
        if mask == -1:  # nothing bound
            return self.segments
        found: list[_Segment] = []
        while mask:  # set bits, lowest (oldest segment) first
            low = mask & -mask
            found.append(self.segments[low.bit_length() - 1])
            mask ^= low
        return found


def _write_sorted_run(path: Path, records: Iterable[tuple[int, ...]]) -> int:
    """Write ``records`` as one run; returns how many were written."""
    written = 0
    with open(path, "wb") as sink:
        pack = _RECORD.pack
        for written, record in enumerate(records, 1):
            sink.write(pack(*record))
    return written


def _atomic_json(path: Path, payload: dict) -> None:
    scratch = path.with_suffix(path.suffix + ".tmp")
    scratch.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(scratch, path)


class _Tombstones:
    """Deletes against segment-resident triples, countable by pattern shape.

    ``members`` is the set a scan tests each segment row against.  Beside
    it sit exact counts per two-bound pattern, keyed by the pattern itself
    with the unbound position zeroed, so :meth:`SegmentStore.cardinality`
    subtracts tombstones with one lookup instead of walking them all.
    Only :meth:`add` and :meth:`discard` mutate, so the two cannot drift.
    """

    __slots__ = ("members", "_pairs")

    def __init__(self) -> None:
        self.members: set[tuple[int, int, int]] = set()
        self._pairs: dict[tuple[int, int, int], int] = {}

    def _shift(self, triple: tuple[int, int, int], delta: int) -> None:
        s, p, o = triple
        for key in ((s, p, UNBOUND_ID), (UNBOUND_ID, p, o), (s, UNBOUND_ID, o)):
            _bump(self._pairs, key, delta)

    def add(self, triple: tuple[int, int, int]) -> None:
        if triple not in self.members:
            self.members.add(triple)
            self._shift(triple, +1)

    def discard(self, triple: tuple[int, int, int]) -> None:
        if triple in self.members:
            self.members.remove(triple)
            self._shift(triple, -1)

    def count(self, s: int, p: int, o: int) -> int:
        """Tombstones matching an id pattern with two or three bound positions."""
        if s and p and o:
            return 1 if (s, p, o) in self.members else 0
        return self._pairs.get((s, p, o), 0)

    def __len__(self) -> int:
        return len(self.members)


# --------------------------------------------------------------------------- #
# SegmentStore
# --------------------------------------------------------------------------- #
class SegmentStore(Store):
    """Disk-backed store: immutable sorted index segments plus a write buffer.

    Layout of a store directory::

        MANIFEST.json     commit point: format version + live segment names
        terms.jsonl       append-only term dictionary log (id = line order)
        seg-N.spo/.pos/.osp   sorted runs of 24-byte little-endian id records
        seg-N.meta.json   triple count + exact per-id role statistics
        tombstones.bin    deletes against segment-resident triples

    Writes land in an in-memory :class:`_IdIndex` buffer and become
    durable when the buffer reaches ``buffer_limit`` (or on
    :meth:`flush`/:meth:`close`), each flush producing one new immutable
    segment.  Deletes of segment-resident triples are tombstones applied
    at scan time and physically dropped by :meth:`compact`, which merges
    every segment into one.  The id-keyed statistics (:class:`_IdCounts`,
    as in :class:`MemoryStore`) are summed from the per-segment metadata on
    open — a cold open never scans triple data.

    The same metadata prunes reads.  Its exact id maps are folded, per
    role, into one id -> bitmask of the segments holding that id, so a
    pattern scan, a cardinality count or an ``add`` duplicate check
    searches only the segments whose bits every bound id of the pattern
    sets: a subject-bound probe typically searches one segment however
    many there are.  Skipped segments contribute no rows, so row order is
    unchanged.  A pattern with no bound id searches every segment.

    Mutations are serialised by an internal lock; concurrent *reads* are
    safe against each other (a segment run is one immutable read-only
    mapping that readers bisect and decode in place, sharing no cursor),
    matching the read-mostly usage of
    :class:`repro.federation.LocalSparqlEndpoint`.  Mapped pages are page
    cache — in RSS only while resident, dropped by the kernel at will.
    The store's own memory is the term dictionary, the id-keyed
    statistics, the masks, the tombstones and the write buffer, and
    :meth:`close` releases all of it: a closed store keeps only
    :attr:`directory` and :attr:`segment_names`.  Every data read after
    :meth:`close` — ``contains``, ``triples``, ``triples_ids``,
    ``cardinality``, ``len()``, :attr:`stats`, :attr:`dictionary` —
    raises :class:`StoreError`, as does a scan generator resumed after
    :meth:`close`, :meth:`clear` or :meth:`compact` retired its segment.
    A directory written in another format, or a big-endian host, is a
    :class:`StoreError` at open, before any run is mapped.
    """

    DEFAULT_BUFFER_LIMIT = 50_000
    FORMAT_VERSION = _FORMAT_VERSION

    def __init__(self, directory: str | os.PathLike,
                 buffer_limit: int = DEFAULT_BUFFER_LIMIT) -> None:
        if buffer_limit < 1:
            raise ValueError("buffer_limit must be >= 1")
        if sys.byteorder != "little":
            raise StoreError(f"{directory}: segment runs are searched as little-endian "
                             f"arrays, which this {sys.byteorder}-endian host cannot read")
        self.directory = Path(directory)
        self.buffer_limit = buffer_limit
        self.io = _IoCounters()
        self._lock = threading.RLock()
        self._buffer = _IdIndex()
        self._tombstones = _Tombstones()
        self._tombstones_dirty = False
        self._layout = _Layout((), ({}, {}, {}))
        self._segment_count = 0
        self._next_segment = 1
        self._view: GraphStatistics | None = None
        self._version = 0

        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / _MANIFEST
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            if manifest.get("format") != _FORMAT_VERSION:
                raise StoreError(
                    f"{manifest_path}: store format {manifest.get('format')!r} cannot be "
                    f"read by this version, which reads format {_FORMAT_VERSION}; rebuild "
                    f"the store from its RDF source with `repro store build`"
                )
        else:
            manifest = {"format": _FORMAT_VERSION, "segments": [], "next_segment": 1}
            _atomic_json(manifest_path, manifest)

        dictionary = self._open_dictionary()
        #: None once closed: :meth:`_check_open` hands it out while open.
        self._dictionary: _PersistentTermDictionary | None = dictionary
        self._counts = _IdCounts(dictionary.intern(_RDF_TYPE))
        self._next_segment = int(manifest.get("next_segment", 1))
        try:
            segments: list[_Segment] = []
            masks: _Masks = ({}, {}, {})
            for name in manifest["segments"]:
                segment, maps = _open_segment(self.directory, name, self.io)
                _fold(masks, maps, 1 << len(segments))
                segments.append(segment)
                self._segment_count += segment.triples
                for merged, role in zip(self._counts.maps, _ROLES, strict=True):
                    for key, value in maps[role].items():
                        merged[key] = merged.get(key, 0) + value
            self._layout = _Layout(tuple(segments), masks)
            self._load_tombstones()
        except BaseException:
            dictionary._sink.close()  # opening failed: no handle outlives it
            raise

    # ------------------------------------------------------------------ #
    # Opening helpers
    # ------------------------------------------------------------------ #
    def _open_dictionary(self) -> _PersistentTermDictionary:
        path = self.directory / _TERMS_LOG
        existing: list[str] = []
        if path.exists():
            existing = path.read_text(encoding="utf-8").splitlines()
        sink = open(path, "a", encoding="utf-8")
        dictionary = _PersistentTermDictionary(sink)
        for number, line in enumerate(existing, 1):
            if not line.strip():
                continue
            try:
                term = _decode_term(line)
            except (json.JSONDecodeError, ValueError, IndexError) as exc:
                sink.close()
                raise StoreError(f"{path}:{number}: corrupt dictionary entry: {exc}") from exc
            # Rebuild the table directly: replay must not re-append.
            dictionary._ids[term] = len(dictionary._terms)
            dictionary._terms.append(term)
        return dictionary

    def _load_tombstones(self) -> None:
        path = self.directory / _TOMBSTONES
        if not path.exists():
            return
        data = path.read_bytes()
        for record in _RECORD.iter_unpack(data):
            triple = (record[0], record[1], record[2])
            self._tombstones.add(triple)
            self._counts.remove(*triple)

    # ------------------------------------------------------------------ #
    # Store contract
    # ------------------------------------------------------------------ #
    @property
    def dictionary(self) -> TermDictionary:
        return self._check_open()

    @property
    def stats(self) -> GraphStatistics:
        self._check_open()
        view = self._view
        if view is None or view._version != self._version:
            view = self._view = GraphStatistics(self, self._counts)
        return view

    @property
    def version(self) -> int:
        return self._version

    def __len__(self) -> int:
        self._check_open()
        return self._segment_count - len(self._tombstones) + self._buffer.size

    @property
    def segment_names(self) -> list[str]:
        return [segment.name for segment in self._layout.segments]

    @property
    def buffered(self) -> int:
        """Triples sitting in the write buffer (not yet durable)."""
        return self._buffer.size

    @property
    def tombstoned(self) -> int:
        """Deletes awaiting physical removal by :meth:`compact`."""
        return len(self._tombstones)

    def _in_segments(self, s: int, p: int, o: int) -> bool:
        return any(lo < hi for lo, hi in (segment.files["spo"].prefix_range((s, p, o))
                                          for segment in self._layout.holding(s, p, o)))

    def add(self, s: Term, p: Term, o: Term) -> bool:
        with self._lock:
            intern = self._check_open().intern
            si, pi, oi = intern(s), intern(p), intern(o)
            if self._buffer.contains(si, pi, oi):
                return False
            if self._in_segments(si, pi, oi):
                if (si, pi, oi) not in self._tombstones.members:
                    return False
                # Re-assertion of a tombstoned triple: the segment copy
                # becomes visible again, no buffer entry needed.
                self._tombstones.discard((si, pi, oi))
                self._tombstones_dirty = True
            else:
                self._buffer.add(si, pi, oi)
            self._counts.add(si, pi, oi)
            self._version += 1
            if self._buffer.size >= self.buffer_limit:
                self.flush()
        return True

    def discard(self, s: Term, p: Term, o: Term) -> bool:
        with self._lock:
            self._check_open()
            ids = self._pattern_ids(s, p, o)
            if ids is None:
                return False
            if self._buffer.discard(*ids):
                pass
            elif self._in_segments(*ids) and ids not in self._tombstones.members:
                self._tombstones.add(ids)
                self._tombstones_dirty = True
            else:
                return False
            self._counts.remove(*ids)
            self._version += 1
        return True

    def clear(self) -> None:
        with self._lock:
            self._check_open()
            retired = self._layout.segments
            self._buffer.clear()
            # The layout before the tombstones, as in compact().
            self._layout = _Layout((), ({}, {}, {}))
            self._tombstones = _Tombstones()
            self._tombstones_dirty = False
            for segment in retired:
                segment.close()
                self._delete_segment_files(segment.name)
            self._segment_count = 0
            self._counts.clear()
            self._version += 1
            self._write_tombstones()
            self._write_manifest()

    def triples_ids(
        self, s: int = UNBOUND_ID, p: int = UNBOUND_ID, o: int = UNBOUND_ID
    ) -> Iterator[tuple[int, int, int]]:
        self._check_open()
        # Tombstones before the layout: compact() and clear() publish the
        # layout first, so retired segments are never read unfiltered.  Both
        # before the buffer: a close() or compact() while the buffer's rows
        # are being read leaves this scan on segments it retired, which raise.
        tombstones = self._tombstones.members
        segments = self._layout.holding(s, p, o)
        if self._buffer.size:
            yield from self._buffer.scan(s, p, o)
        ordering, prefix = _plan(s, p, o)
        restore = _RESTORE[ordering]
        for segment in segments:
            run = segment.files[ordering]
            lo, hi = run.prefix_range(prefix)
            self.io.range_scans += 1
            for start in range(lo, hi, _SCAN_CHUNK):
                rows: Iterable[tuple[int, int, int]] = run.rows(
                    start, min(start + _SCAN_CHUNK, hi), restore)
                if tombstones:
                    rows = [row for row in rows if row not in tombstones]
                for row in rows:
                    if run.flat is None:  # per row: a resumed generator must not finish its chunk
                        raise StoreError(f"{run.path} was closed during a scan")
                    yield row

    def cardinality(
        self, s: Term | None = None, p: Term | None = None, o: Term | None = None
    ) -> int:
        self._check_open()
        bound = sum(term is not None for term in (s, p, o))
        if bound == 0:
            return len(self)
        ids = self._pattern_ids(s, p, o)
        if ids is None:
            return 0
        if bound == 1:
            return self._counts.count(*ids)
        ordering, prefix = _plan(*ids)
        total = self._buffer.count(*ids)
        for segment in self._layout.holding(*ids):
            lo, hi = segment.files[ordering].prefix_range(prefix)
            total += hi - lo
        return total - self._tombstones.count(*ids)

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Persist the write buffer as a new segment and sync metadata."""
        with self._lock:
            self._check_open()._sink.flush()
            if self._tombstones_dirty:
                self._write_tombstones()
            if not self._buffer.size:
                return
            name = f"seg-{self._next_segment:06d}"
            self._next_segment += 1
            self._write_segment(name, sorted(self._buffer.scan(0, 0, 0)))
            self._buffer = _IdIndex()
            segment, maps = _open_segment(self.directory, name, self.io)
            layout = self._layout
            masks: _Masks = (dict(layout.masks[0]), dict(layout.masks[1]), dict(layout.masks[2]))
            _fold(masks, maps, 1 << len(layout.segments))
            self._layout = _Layout(layout.segments + (segment,), masks)
            self._segment_count += segment.triples
            self._write_manifest()

    def _write_segment(self, name: str, spo_sorted: list[tuple[int, int, int]]) -> None:
        """Write one segment (three runs + metadata) from sorted triples."""
        counts = _IdCounts(self._counts.type_id)
        for s, p, o in spo_sorted:
            counts.add(s, p, o)
        for ordering, columns in _ORDERINGS.items():
            _write_sorted_run(self.directory / f"{name}.{ordering}",
                              sorted(map(itemgetter(*columns), spo_sorted)))
        _atomic_json(self.directory / f"{name}.meta.json", {
            "triples": len(spo_sorted),
            "stats": counts.metadata(),
        })

    def _write_tombstones(self) -> None:
        path = self.directory / _TOMBSTONES
        scratch = path.with_suffix(".tmp")
        with open(scratch, "wb") as sink:
            for record in sorted(self._tombstones.members):
                sink.write(_RECORD.pack(*record))
        os.replace(scratch, path)
        self._tombstones_dirty = False

    def _write_manifest(self) -> None:
        _atomic_json(self.directory / _MANIFEST, {
            "format": _FORMAT_VERSION,
            "segments": self.segment_names,
            "next_segment": self._next_segment,
        })

    def _delete_segment_files(self, name: str) -> None:
        for suffix in ("spo", "pos", "osp", "meta.json"):
            (self.directory / f"{name}.{suffix}").unlink(missing_ok=True)

    def compact(self) -> bool:
        """Merge every segment into one, physically dropping tombstones.

        Runs of each ordering are merged with :func:`heapq.merge` from the
        scan's chunk decoder, so compaction streams — it never holds the
        full dataset in memory.  Returns True when anything was rewritten.
        """
        with self._lock:
            self._check_open()
            self.flush()
            retired = self._layout.segments
            if len(retired) <= 1 and not self._tombstones:
                return False
            name = f"seg-{self._next_segment:06d}"
            self._next_segment += 1
            survivors = 0
            for ordering, columns in _ORDERINGS.items():
                # Tombstones in this run's column order: records are never restored.
                dropped = set(map(itemgetter(*columns), self._tombstones.members))
                merged = heapq.merge(*(segment.files[ordering].records() for segment in retired))
                survivors = _write_sorted_run(
                    self.directory / f"{name}.{ordering}",
                    (record for record in merged if record not in dropped))
            # Post-flush the store's live id-statistics describe exactly
            # the surviving segment triples, so they become its metadata.
            _atomic_json(self.directory / f"{name}.meta.json", {
                "triples": survivors,
                "stats": self._counts.metadata(),
            })
            segment, maps = _open_segment(self.directory, name, self.io)
            masks: _Masks = ({}, {}, {})
            _fold(masks, maps, 1)
            # The layout before the tombstones: a scan in flight keeps
            # filtering the retired segments by the tombstones it started with.
            self._layout = _Layout((segment,), masks)
            self._segment_count = survivors
            self._tombstones = _Tombstones()
            self._write_tombstones()
            self._write_manifest()
            for retiree in retired:
                retiree.close()
                self._delete_segment_files(retiree.name)
            return True

    def close(self) -> None:
        """Flush, unmap every run and drop all in-memory state.

        A closed store keeps only :attr:`directory` and :attr:`segment_names`
        (its segments stay listed, unmapped); the dictionary, statistics,
        masks, tombstones and write buffer go, so a closed store that is
        still referenced holds no data.  Every read then raises
        :class:`StoreError`.
        """
        with self._lock:
            dictionary = self._dictionary
            if dictionary is None:
                return
            self.flush()
            dictionary._sink.close()
            for segment in self._layout.segments:
                segment.close()
            self._dictionary = None
            self._layout = _Layout(self._layout.segments, ({}, {}, {}))
            self._counts = _IdCounts()
            self._view = None
            self._tombstones = _Tombstones()
            self._buffer = _IdIndex()

    def _check_open(self) -> _PersistentTermDictionary:
        """The term dictionary, or :class:`StoreError` once the store is closed."""
        dictionary = self._dictionary
        if dictionary is None:
            raise StoreError(f"store {self.directory} is closed")
        return dictionary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._dictionary is None:
            return f"<SegmentStore {self.directory} closed>"
        return (f"<SegmentStore {self.directory} {len(self)} triples, "
                f"{len(self._layout.segments)} segments, {self._buffer.size} buffered>")


# --------------------------------------------------------------------------- #
# Factories
# --------------------------------------------------------------------------- #
def open_store(path: str | os.PathLike | None = None, **options) -> Store:
    """A :class:`SegmentStore` at ``path``, or a :class:`MemoryStore` for None."""
    if path is None:
        return MemoryStore()
    return SegmentStore(path, **options)


def open_graph(path: str | os.PathLike | None = None, **options):
    """Open (or create) a graph: in-memory for ``None``, disk-backed for a path.

    The disk-backed form is rebuild-free: a cold open reads only the term
    dictionary and per-segment metadata, then serves queries straight from
    the on-disk index segments.  ``options`` are forwarded to
    :class:`SegmentStore` (e.g. ``buffer_limit``).
    """
    from .graph import Graph

    return Graph(store=open_store(path, **options))
