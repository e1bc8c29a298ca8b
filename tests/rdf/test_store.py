"""The Store contract, the persistent SegmentStore, and the Graph facade API.

Three layers of coverage:

* contract tests parameterized over both backends — every pattern shape,
  exact cardinalities, statistics and version semantics must be identical
  whether triples live in nested dicts or in on-disk segments;
* SegmentStore specifics — durability across reopen, write-buffer flushes,
  tombstoned deletes, compaction, corruption handling, the I/O
  accounting that proves queries don't read the whole file, and the
  mapped read path (byte-key search differential, reads after close,
  concurrent readers);
* the redesigned construction API — ``Graph(store=...)``, ``Graph.load``,
  ``open_graph``/``open_store`` and ``GraphView``.
"""

from __future__ import annotations

import gc
import json
import mmap
import random
import struct
import sys
import threading
import tracemalloc
from bisect import bisect_left
from collections import Counter
from itertools import product
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.rdf import (
    RDF,
    Graph,
    GraphView,
    Literal,
    MemoryStore,
    SegmentStore,
    Store,
    StoreError,
    Triple,
    URIRef,
    open_graph,
    open_store,
)
from repro.rdf.store import _ORDERINGS, _IdIndex
from repro.sparql import QueryEvaluator

EX = "http://example.org/"


def u(name: str) -> URIRef:
    return URIRef(EX + name)


BACKENDS = ("memory", "segment")


def make_store(backend: str, tmp_path, **options) -> Store:
    if backend == "memory":
        return MemoryStore()
    options.setdefault("buffer_limit", 4)  # force multi-segment layouts
    return SegmentStore(tmp_path / "store", **options)


def store_of_records(directory, records) -> SegmentStore:
    """A store over one segment written straight from id ``records``."""
    store = SegmentStore(directory)
    store._write_segment("seg-records", sorted(records))
    store.close()
    (directory / "MANIFEST.json").write_text(json.dumps(
        {"format": SegmentStore.FORMAT_VERSION, "segments": ["seg-records"], "next_segment": 1}))
    return SegmentStore(directory)


def sample_triples() -> list[Triple]:
    triples = [
        Triple(u("alice"), u("knows"), u("bob")),
        Triple(u("alice"), u("knows"), u("carol")),
        Triple(u("bob"), u("knows"), u("carol")),
        Triple(u("alice"), u("name"), Literal("Alice")),
        Triple(u("bob"), u("name"), Literal("Bob")),
        Triple(u("alice"), RDF.type, u("Person")),
        Triple(u("bob"), RDF.type, u("Person")),
        Triple(u("carol"), RDF.type, u("Robot")),
        Triple(u("carol"), u("age"), Literal(7)),
    ]
    assert len(set(triples)) == len(triples)
    return triples


@pytest.fixture(params=BACKENDS)
def populated(request, tmp_path):
    """A graph over either backend holding :func:`sample_triples`."""
    graph = Graph(store=make_store(request.param, tmp_path))
    graph.add_all(sample_triples())
    graph.flush()
    yield graph
    graph.close()


# --------------------------------------------------------------------------- #
# Contract: both backends answer identically
# --------------------------------------------------------------------------- #
class TestStoreContract:
    def test_len_and_contains(self, populated):
        assert len(populated) == len(sample_triples())
        for triple in sample_triples():
            assert triple in populated
        assert Triple(u("carol"), u("knows"), u("alice")) not in populated

    def test_every_pattern_shape_matches_brute_force(self, populated):
        full = set(sample_triples())
        subjects = {t.subject for t in full} | {None, u("nobody")}
        predicates = {t.predicate for t in full} | {None}
        objects = {t.object for t in full} | {None}
        for s, p, o in product(subjects, predicates, objects):
            want = {t for t in full
                    if (s is None or t.subject == s)
                    and (p is None or t.predicate == p)
                    and (o is None or t.object == o)}
            got = set(populated.triples(s, p, o))
            assert got == want, f"pattern ({s}, {p}, {o})"
            assert populated.cardinality(s, p, o) == len(want)

    def test_triples_ids_round_trip(self, populated):
        dictionary = populated.dictionary
        decoded = {
            Triple(dictionary.decode(s), dictionary.decode(p), dictionary.decode(o))
            for s, p, o in populated.triples_ids()
        }
        assert decoded == set(sample_triples())

    def test_triples_ids_bound_positions(self, populated):
        dictionary = populated.dictionary
        knows = dictionary.lookup(u("knows"))
        rows = list(populated.triples_ids(0, knows, 0))
        assert len(rows) == 3
        assert all(p == knows for _, p, _ in rows)
        alice = dictionary.lookup(u("alice"))
        assert len(list(populated.triples_ids(alice, knows, 0))) == 2

    def test_stats_are_exact(self, populated):
        stats = populated.stats
        assert stats.predicate_counts[u("knows")] == 3
        assert stats.predicate_counts[RDF.type] == 3
        assert stats.subject_counts[u("alice")] == 4
        assert stats.class_counts == {u("Person"): 2, u("Robot"): 1}

    def test_duplicate_add_is_a_noop(self, populated):
        version = populated.version
        populated.add(sample_triples()[0])
        assert len(populated) == len(sample_triples())
        assert populated.version == version
        assert populated.stats.predicate_counts[u("knows")] == 3

    def test_discard_updates_everything(self, populated):
        victim = Triple(u("alice"), u("knows"), u("bob"))
        version = populated.version
        populated.discard(victim)
        assert victim not in populated
        assert len(populated) == len(sample_triples()) - 1
        assert populated.version > version
        assert populated.stats.predicate_counts[u("knows")] == 2
        assert populated.cardinality(u("alice"), u("knows"), None) == 1
        assert set(populated.triples(None, u("knows"), u("bob"))) == set()

    def test_discard_absent_is_a_noop(self, populated):
        version = populated.version
        populated.discard(Triple(u("nobody"), u("knows"), u("nobody")))
        assert populated.version == version
        assert len(populated) == len(sample_triples())

    def test_remove_raises_for_absent(self, populated):
        with pytest.raises(KeyError):
            populated.remove(Triple(u("nobody"), u("knows"), u("nobody")))

    def test_remove_last_rdf_type_clears_class_count(self, populated):
        populated.discard(Triple(u("carol"), RDF.type, u("Robot")))
        assert u("Robot") not in populated.stats.class_counts
        assert populated.stats.class_counts == {u("Person"): 2}

    def test_clear(self, populated):
        populated.clear()
        assert len(populated) == 0
        assert not populated
        assert list(populated.triples()) == []
        assert populated.stats.predicate_counts == {}
        assert populated.cardinality() == 0

    def test_cross_backend_equality(self, populated):
        memory = Graph(triples=sample_triples())
        assert populated == memory
        assert memory == populated
        memory.discard(sample_triples()[0])
        assert populated != memory


# --------------------------------------------------------------------------- #
# Property test: stats stay exact under random add/remove interleavings
# --------------------------------------------------------------------------- #
_TERMS = [URIRef(f"{EX}t{i}") for i in range(3)]
_PREDS = [URIRef(f"{EX}p{i}") for i in range(2)] + [RDF.type]
_OBJS = _TERMS + [Literal("x")]
#: No operation ever interns it: a bound id no segment map can hold.
_NEVER = u("never-interned")

_operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "add", "remove", "flush", "compact", "reopen", "clear"]),
        st.sampled_from(_TERMS),
        st.sampled_from(_PREDS),
        st.sampled_from(_OBJS),
    ),
    max_size=40,
)

_t0, _t1, _t2 = _TERMS
_p0, _p1, _type = _PREDS
_x = _OBJS[-1]


def _op(action: str, s=_t0, p=_p0, o=_t1) -> tuple:
    return (action, s, p, o)


def _recount(model: set[Triple]):
    subjects = Counter(t.subject for t in model)
    predicates = Counter(t.predicate for t in model)
    objects = Counter(t.object for t in model)
    classes = Counter(t.object for t in model if t.predicate == RDF.type)
    return subjects, predicates, objects, classes


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(operations=_operations)
# Three segments and the buffer, a tombstone in the middle segment.
@example(operations=[_op("add"), _op("flush"), _op("add", _t2, _p1, _x), _op("flush"),
                     _op("add", _t1, _type, _t0), _op("flush"), _op("add", _t0, _p1, _t2),
                     _op("remove", _t2, _p1, _x)])
# Ids held only by tombstoned triples (their segment maps still list them).
@example(operations=[_op("add"), _op("add", _t2, _p1, _x), _op("flush"), _op("remove")])
# A resurrected triple stays visible across a reopen (its tombstone is gone).
@example(operations=[_op("add"), _op("flush"), _op("remove"), _op("add", _t2, _type, _t0),
                     _op("flush"), _op("add"), _op("reopen")])
# A compacted segment, whose id maps are written from the live statistics.
@example(operations=[_op("add"), _op("add", _t1, _p1, _x), _op("add", _t2, _type, _t0),
                     _op("flush"), _op("add", _t0, _p1, _t2), _op("remove", _t1, _p1, _x),
                     _op("compact"), _op("add", _t1, _p0, _t1), _op("reopen")])
# Segments cleared away, then new ones: no mask may keep a retired bit.
@example(operations=[_op("add"), _op("flush"), _op("add", _t2, _p1, _x), _op("flush"),
                     _op("clear"), _op("add", _t2, _p1, _x), _op("flush"), _op("add"),
                     _op("flush")])
# One object under three predicates of one subject, then one is removed: its
# POS bucket empties while (s, ?, o) and (?, ?, o) still match the other two.
@example(operations=[_op("add"), _op("add", _t0, _p1, _t1), _op("add", _t0, _type, _t1),
                     _op("add", _t2, _p1, _x), _op("remove", _t0, _p1, _t1)])
def test_stats_equal_recount_after_interleaving(backend, operations, tmp_path_factory):
    directory = tmp_path_factory.mktemp("interleave")
    graph = Graph(store=make_store(backend, directory))
    model: set[Triple] = set()
    try:
        for action, s, p, o in operations:
            triple = Triple(s, p, o)
            # A view whose term maps are decoded, taken before the operation.
            view, version = graph.stats, graph.store.version
            assert view.predicate_counts is graph.stats.predicate_counts
            if action == "add":
                graph.add(triple)
                model.add(triple)
            elif action == "remove":
                graph.discard(triple)
                model.discard(triple)
            elif action == "clear":
                graph.clear()
                model.clear()
            elif backend == "memory":
                continue            # flush/compact/reopen: nothing to do in RAM
            elif action == "flush":
                graph.flush()
            elif action == "compact":
                graph.store.compact()
            else:
                graph.close()
                graph = Graph(store=make_store(backend, directory))
                continue
            if graph.store.version != version:
                assert graph.stats is not view, action
                # Kept across the mutation, the old view reads the new counts.
                assert view.predicate_counts == Counter(t.predicate for t in model), action
        assert len(graph) == len(model)
        assert set(graph.triples()) == model
        subjects, predicates, objects, classes = _recount(model)
        stats = graph.stats
        assert stats.subject_counts == dict(subjects)
        assert stats.predicate_counts == dict(predicates)
        assert stats.object_counts == dict(objects)
        assert stats.class_counts == dict(classes)
        assert stats.distinct_subjects == len(subjects)
        assert stats.distinct_predicates == len(predicates)
        assert stats.distinct_objects == len(objects)
        for term in {*_TERMS, *_PREDS, *_OBJS, _NEVER}:
            assert graph.cardinality(term, None, None) == subjects[term], term
            assert graph.cardinality(None, term, None) == predicates[term], term
            assert graph.cardinality(None, None, term) == objects[term], term
        # Per live segment, the ids each column of its spo run holds, read
        # from disk: what the store's masks must prune by.
        held = []
        for name in getattr(graph.store, "segment_names", ()):
            data = (directory / "store" / f"{name}.spo").read_bytes()
            records = struct.iter_unpack("<QQQ", data)
            held.append([set(column) for column in zip(*records, strict=True)]
                        or [set(), set(), set()])
        for s, p, o in product(_TERMS + [_NEVER, None], _PREDS + [_NEVER, None],
                               _OBJS + [_NEVER, None]):
            want = {
                t for t in model
                if (s is None or t.subject == s)
                and (p is None or t.predicate == p)
                and (o is None or t.object == o)
            }
            io = getattr(graph.store, "io", None)
            before = io.lookups if io else 0
            assert set(graph.triples(s, p, o)) == want, f"pattern ({s}, {p}, {o})"
            if io:
                bound = [(column, graph.dictionary.lookup(term) or -1)
                         for column, term in enumerate((s, p, o)) if term is not None]
                searched = sum(all(key in columns[column] for column, key in bound)
                               for columns in held)
                assert io.lookups - before == searched, f"pattern ({s}, {p}, {o})"
            assert graph.cardinality(s, p, o) == len(want), f"pattern ({s}, {p}, {o})"
            if None not in (s, p, o):
                assert (Triple(s, p, o) in graph) == bool(want), f"triple ({s}, {p}, {o})"
        assert graph.dictionary.lookup(_NEVER) == 0
    finally:
        graph.close()


# --------------------------------------------------------------------------- #
# _IdIndex: one-id buckets are bare ints, promoted to sets on a second id
# --------------------------------------------------------------------------- #
class _SetIndex(_IdIndex):
    """The index with every bucket a set: the reference for scan order.

    Only the bucket rule differs; ``contains``/``scan``/``count`` are
    inherited, so a difference in output lists is the bucket rule's.
    """

    __slots__ = ()

    @staticmethod
    def _insert(index, a, b, c):
        index.setdefault(a, {}).setdefault(b, set()).add(c)

    @staticmethod
    def _prune(index, a, b, c):
        level = index[a]
        level[b].discard(c)
        if not level[b]:
            del level[b]
        if not level:
            del index[a]


@st.composite
def _index_operations(draw):
    """Adds and discards over a few ids from a dense or a wide range.

    Ids 1..3 share buckets often.  Ids from 5000 up are 0 or 1 modulo 8,
    so they often take the same slot of a small set, where the order the
    ids went in decides the order they iterate in.
    """
    wide = st.builds(lambda k, r: 5000 + 8 * k + r, st.integers(0, 625), st.integers(0, 1))
    pool = draw(st.lists(draw(st.sampled_from([st.integers(1, 3), wide])),
                         min_size=1, max_size=6, unique=True))
    ids = st.sampled_from(pool)
    return draw(st.lists(st.tuples(st.sampled_from(["add", "discard"]), ids, ids, ids),
                         max_size=60))


@settings(max_examples=150, deadline=None)
@given(operations=_index_operations())
# 5001 and 5009 take the same slot of a small set: {5009, 5001} iterates
# the other way round from the set they were added to in order.
@example(operations=[("add", 5001, 5002, 5001), ("add", 5001, 5002, 5009)])
# Promoted, shrunk to one id (stays a set), emptied, then re-added.
@example(operations=[("add", 1, 1, 1), ("add", 1, 1, 9), ("discard", 1, 1, 1),
                     ("add", 1, 1, 17), ("discard", 1, 1, 9), ("discard", 1, 1, 17),
                     ("add", 1, 1, 9), ("add", 1, 1, 1)])
# Ids above 256 are not cached by CPython: the first (missing) discard makes
# the probes equal to the ids the adds store but not the same int objects,
# so an int bucket compared by identity instead of value misses them.
@example(operations=[("discard", *(int(str(i)) for i in (5001, 5002, 5009))),
                     ("add", 5001, 5002, 5009), ("add", 5009, 5002, 5001),
                     ("add", 5001, 5009, 5009)])
def test_id_index_scans_equal_the_all_set_index(operations):
    index, reference = _IdIndex(), _SetIndex()
    for action, s, p, o in operations:
        assert getattr(index, action)(s, p, o) == getattr(reference, action)(s, p, o)
    assert index.size == reference.size
    used = {i for _, *ids in operations for i in ids}
    probes = [0, *sorted(used), max(used, default=0) + 1]
    for s, p, o in product(probes, repeat=3):
        assert list(index.scan(s, p, o)) == list(reference.scan(s, p, o)), (s, p, o)
        assert index.count(s, p, o) == reference.count(s, p, o), (s, p, o)
        assert index.contains(s, p, o) == reference.contains(s, p, o), (s, p, o)


def _index_bytes(factory, triples) -> int:
    """Bytes tracemalloc sees allocated while ``triples`` go into a new index."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = factory()
        for triple in triples:
            index.add(*triple)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_one_id_buckets_halve_the_index_footprint():
    # E15's entity graph in ids: 2000 entities, each with a group (of 5), a
    # rank (of 3), a random other entity it knows and a name of its own.
    entities = 2000
    group, rank, knows, name = range(entities + 1, entities + 5)
    groups, ranks = range(entities + 5, entities + 10), range(entities + 10, entities + 13)
    rng = random.Random(15)
    triples = []
    for e in range(1, entities + 1):
        triples += [(e, group, groups[e % 5]), (e, rank, ranks[e % 3]),
                    (e, knows, rng.randrange(1, entities + 1)), (e, name, entities + 13 + e)]
    ints = _index_bytes(_IdIndex, triples)
    sets = _index_bytes(_SetIndex, triples)
    per_triple = f"{ints / len(triples):.0f} vs {sets / len(triples):.0f} B/triple"
    assert ints <= 0.55 * sets, per_triple
    # SPO and POS with int buckets: ~126 B/triple.  1-tuple buckets take it
    # to ~191, and a third (OSP) permutation to ~368.
    assert ints <= 150 * len(triples), per_triple


# --------------------------------------------------------------------------- #
# SegmentStore specifics
# --------------------------------------------------------------------------- #
class TestSegmentStore:
    def test_buffer_flushes_at_limit(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=3)
        graph = Graph(store=store)
        graph.add_all(sample_triples()[:2])
        assert store.buffered == 2 and store.segment_names == []
        graph.add(sample_triples()[2])
        assert store.buffered == 0 and len(store.segment_names) == 1
        graph.close()

    def test_cold_open_is_rebuild_free_and_identical(self, tmp_path):
        first = Graph(store=SegmentStore(tmp_path, buffer_limit=4))
        first.add_all(sample_triples())
        first.close()

        reopened = open_graph(tmp_path)
        store = reopened.store
        assert isinstance(store, SegmentStore)
        # Opening read only the manifest, term log and per-segment metadata.
        assert store.io.records_read == 0
        assert reopened == Graph(triples=sample_triples())
        assert reopened.stats.class_counts == {u("Person"): 2, u("Robot"): 1}
        assert reopened.cardinality(None, u("knows"), None) == 3
        reopened.close()

    def test_deletes_survive_restart(self, tmp_path):
        graph = Graph(store=SegmentStore(tmp_path, buffer_limit=2))
        graph.add_all(sample_triples())
        victim = Triple(u("alice"), u("knows"), u("bob"))
        graph.discard(victim)          # segment-resident -> tombstone
        graph.close()

        reopened = open_graph(tmp_path)
        assert victim not in reopened
        assert len(reopened) == len(sample_triples()) - 1
        assert reopened.stats.predicate_counts[u("knows")] == 2
        reopened.close()

    def test_discard_from_buffer_never_tombstones(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=100)
        graph = Graph(store=store)
        triple = sample_triples()[0]
        graph.add(triple)
        graph.discard(triple)
        assert store.tombstoned == 0 and len(graph) == 0
        graph.close()

    def test_readding_tombstoned_triple_resurrects_it(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=1)
        graph = Graph(store=store)
        triple = sample_triples()[0]
        graph.add(triple)              # flushed straight to a segment
        graph.discard(triple)
        assert store.tombstoned == 1
        graph.add(triple)
        assert store.tombstoned == 0 and triple in graph
        assert store.buffered == 0     # the segment copy became visible again
        graph.close()

    def test_compact_merges_segments_and_drops_tombstones(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=2)
        graph = Graph(store=store)
        graph.add_all(sample_triples())
        victim = Triple(u("bob"), u("knows"), u("carol"))
        graph.discard(victim)
        assert len(store.segment_names) > 1 and store.tombstoned == 1
        old_files = sorted(p.name for p in tmp_path.glob("seg-*"))

        assert store.compact()
        assert len(store.segment_names) == 1
        assert store.tombstoned == 0
        assert len(graph) == len(sample_triples()) - 1
        # Old segment files are physically gone.
        for name in old_files:
            assert not (tmp_path / name).exists()
        graph.close()

        reopened = open_graph(tmp_path)
        expected = Graph(triples=[t for t in sample_triples() if t != victim])
        assert reopened == expected
        reopened.close()

    def test_compact_on_compact_store_is_a_noop(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=100)
        Graph(store=store).add_all(sample_triples())
        store.flush()
        assert store.compact() is False
        store.close()

    def test_clear_removes_files(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=2)
        graph = Graph(store=store)
        graph.add_all(sample_triples())
        graph.clear()
        assert len(graph) == 0
        assert list(tmp_path.glob("seg-*")) == []
        graph.close()
        assert len(open_graph(tmp_path)) == 0

    def test_bounded_scan_reads_less_than_full_scan(self, tmp_path):
        graph = Graph(store=SegmentStore(tmp_path, buffer_limit=1000))
        for i in range(300):
            graph.add(Triple(u(f"s{i}"), u("p"), Literal(i)))
        graph.add(Triple(u("s0"), u("q"), Literal("needle")))
        graph.flush()
        store = graph.store
        store.io.records_read = 0
        rows = list(graph.triples(None, u("q"), None))
        assert len(rows) == 1
        # Binary search + one-record range: far below the 301-triple scan.
        assert store.io.records_read < 50
        graph.close()

    def test_closed_store_rejects_mutation(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.close()
        with pytest.raises(StoreError):
            store.add(u("a"), u("p"), u("b"))
        store.close()  # idempotent

    #: Every data read of the store contract, as ``read(store, knows_id)``.
    CLOSED_READS = {
        "contains": lambda store, _: store.contains(*sample_triples()[0].as_tuple()),
        "contains-unseen": lambda store, _: store.contains(u("x"), u("y"), u("z")),
        "triples": lambda store, _: list(store.triples()),
        "triples-bound": lambda store, _: list(store.triples(None, u("knows"), None)),
        "triples_ids": lambda store, _: list(store.triples_ids()),
        "triples_ids-bound": lambda store, knows: list(store.triples_ids(0, knows, 0)),
        "cardinality": lambda store, _: store.cardinality(),
        "cardinality-one-bound": lambda store, _: store.cardinality(None, u("knows"), None),
        "cardinality-two-bound": lambda store, _: store.cardinality(u("alice"), u("knows")),
        "len": lambda store, _: len(store),
        "stats": lambda store, _: store.stats,
        "dictionary": lambda store, _: store.dictionary,
    }

    @pytest.mark.parametrize("read", CLOSED_READS.values(), ids=CLOSED_READS.keys())
    def test_closed_store_rejects_reads(self, tmp_path, read):
        store = SegmentStore(tmp_path, buffer_limit=2)
        graph = Graph(store=store)
        graph.add_all(sample_triples())
        graph.flush()
        knows = store.dictionary.lookup(u("knows"))
        names = store.segment_names
        store.close()
        with pytest.raises(StoreError, match="closed"):
            read(store, knows)
        assert store.segment_names == names

    def test_a_closed_store_that_is_still_referenced_holds_no_data(self, tmp_path):
        # 20k triples over 2,000 subjects in four segments, with tombstones.
        graph = Graph(store=SegmentStore(tmp_path, buffer_limit=5_000))
        for i in range(2_000):
            graph.add(Triple(u(f"e{i}"), RDF.type, u(f"C{i % 7}")))
            for j in range(9):
                graph.add(Triple(u(f"e{i}"), u(f"p{j}"), Literal(f"v{i}-{j}")))
        graph.flush()
        for i in range(0, 2_000, 10):
            graph.discard(Triple(u(f"e{i}"), u("p0"), Literal(f"v{i}-0")))
        graph.close()
        tracemalloc.start()
        try:
            store = SegmentStore(tmp_path)   # the cold open is what gets traced
            assert len(store) == 19_800 and store.tombstoned == 200
            assert store.stats.predicate_counts[RDF.type] == 2_000
            store.close()
            gc.collect()
            referenced = tracemalloc.get_traced_memory()[0]
            del store
            gc.collect()
            retained = referenced - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024, f"{retained} bytes"

    @pytest.mark.parametrize("retire", ["close", "compact", "clear"])
    def test_suspended_scan_raises_once_its_segment_is_retired(self, tmp_path, retire):
        store = SegmentStore(tmp_path, buffer_limit=3)
        graph = Graph(store=store)
        graph.add_all(sample_triples())
        graph.flush()
        graph.discard(sample_triples()[-1])   # compact() has work to do
        scan = store.triples_ids()
        assert next(scan) is not None         # suspended inside a decoded chunk
        getattr(store, retire)()
        with pytest.raises(StoreError):
            next(scan)
        if retire != "close":
            assert len(list(store.triples_ids())) == len(store)
            store.close()

    def test_compacting_a_fully_tombstoned_store_leaves_a_usable_empty_run(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=4)
        graph = Graph(store=store)
        graph.add_all(sample_triples())
        graph.flush()
        for triple in sample_triples():
            graph.discard(triple)
        assert store.compact()
        (name,) = store.segment_names
        assert (tmp_path / f"{name}.spo").stat().st_size == 0
        assert len(graph) == 0 and list(graph.triples()) == []
        assert graph.cardinality(u("alice"), u("knows"), None) == 0
        assert sample_triples()[0] not in graph
        graph.add(sample_triples()[0])        # duplicate check probes the empty run
        graph.close()

        reopened = open_graph(tmp_path)
        assert set(reopened.triples()) == {sample_triples()[0]}
        reopened.close()

    def test_prefix_ending_in_the_largest_id_has_an_upper_bound(self, tmp_path):
        top = 2**64 - 1
        records = sorted({(5, top, 1), (5, top, top), (6, 1, 1), (top, top, top - 1),
                          (top, top, top)})
        store = store_of_records(tmp_path, records)
        spo = store._layout.segments[0].files["spo"]
        assert spo.prefix_range((5, top)) == (0, 2)
        assert spo.prefix_range((top,)) == (3, 5)
        assert spo.prefix_range((top, top, top)) == (4, 5)
        assert sorted(store.triples_ids(0, top, 0)) == [r for r in records if r[1] == top]
        assert sorted(store.triples_ids(0, 0, top)) == [r for r in records if r[2] == top]
        assert len(list(store.triples_ids(top, top, 0))) == 2
        assert store._in_segments(top, top, top) and not store._in_segments(top, top, 1)
        store.close()

    @pytest.mark.parametrize("damage", ["pos-truncated", "osp-truncated", "spo-trailing-bytes",
                                        "subjects", "predicates", "objects"])
    def test_open_rejects_a_segment_its_metadata_does_not_describe(self, tmp_path, damage):
        store = SegmentStore(tmp_path)
        Graph(store=store).add_all(sample_triples())
        store.close()
        (name,) = store.segment_names
        ordering, _, kind = damage.partition("-")
        if kind:
            run = tmp_path / f"{name}.{ordering}"
            data = run.read_bytes()
            # Trailing bytes leave ``size // 24`` equal to the claimed count.
            run.write_bytes(data[:-24] if kind == "truncated" else data + b"\0" * 7)
        else:
            # A map missing an id: pruning would skip that id's triples.
            meta_path = tmp_path / f"{name}.meta.json"
            meta = json.loads(meta_path.read_text())
            meta["stats"][damage].popitem()
            meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreError, match=name):
            SegmentStore(tmp_path)

    def test_unsupported_manifest_format_raises(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text('{"format": 99, "segments": []}')
        with pytest.raises(StoreError):
            SegmentStore(tmp_path)

    def test_format_1_store_is_refused_before_any_run_is_mapped(self, tmp_path, monkeypatch):
        # A complete format-1 directory: big-endian runs and tombstones.
        big = struct.Struct(">QQQ")
        records = [(2, 3, 4), (2, 3, 5)]
        (tmp_path / "terms.jsonl").write_text("".join(
            json.dumps(["u", uri]) + "\n"
            for uri in (str(RDF.type), EX + "s", EX + "p", EX + "o1", EX + "o2")),
            encoding="utf-8")
        for ordering, columns in _ORDERINGS.items():
            (tmp_path / f"seg-000001.{ordering}").write_bytes(
                b"".join(big.pack(*itemgetter(*columns)(r)) for r in sorted(records)))
        (tmp_path / "seg-000001.meta.json").write_text(json.dumps({"triples": 2, "stats": {
            "subjects": {"2": 2}, "predicates": {"3": 2}, "objects": {"4": 1, "5": 1},
            "classes": {}}}))
        (tmp_path / "tombstones.bin").write_bytes(big.pack(2, 3, 5))
        (tmp_path / "MANIFEST.json").write_text(json.dumps(
            {"format": 1, "segments": ["seg-000001"], "next_segment": 2}))
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        mapped = []
        monkeypatch.setattr(mmap, "mmap", lambda *args, **kwargs: mapped.append(args))
        with pytest.raises(StoreError, match="format 1.*format 2.*repro store build"):
            SegmentStore(tmp_path)
        assert mapped == []
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before

    def test_big_endian_host_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "byteorder", "big")
        with pytest.raises(StoreError, match="little-endian"):
            SegmentStore(tmp_path / "store")
        assert not (tmp_path / "store").exists()

    def test_corrupt_term_log_raises(self, tmp_path):
        store = SegmentStore(tmp_path)
        Graph(store=store).add(sample_triples()[0])
        store.close()
        with open(tmp_path / "terms.jsonl", "a", encoding="utf-8") as sink:
            sink.write("not json\n")
        with pytest.raises(StoreError):
            SegmentStore(tmp_path)

    def test_dictionary_ids_stable_across_restart(self, tmp_path):
        graph = Graph(store=SegmentStore(tmp_path))
        graph.add_all(sample_triples())
        before = {term: graph.dictionary.lookup(term)
                  for t in sample_triples() for term in t.as_tuple()}
        graph.close()
        reopened = open_graph(tmp_path)
        for term, term_id in before.items():
            assert reopened.dictionary.lookup(term) == term_id
        reopened.close()

    def test_buffer_limit_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentStore(tmp_path, buffer_limit=0)


# --------------------------------------------------------------------------- #
# Mapped read path: int-array search == brute force over the unpacked tuples
# --------------------------------------------------------------------------- #
_TOP = 2**64 - 1
#: A small id alphabet so random records share prefixes; it spans the
#: widths where a byte-wise or signed 64-bit comparison would misorder.
_IDS = [1, 2, 3, 255, 256, 2**32, 2**63 - 1, 2**63, _TOP - 1, _TOP]
#: Probe ids: the alphabet plus values below, between and above it.
_PROBES = [*_IDS, 4, 2**40, 2**63 + 1]
_id = st.sampled_from(_IDS)


@st.composite
def _runs(draw):
    """Unique records: a random handful plus, sometimes, one long stretch
    sharing an ``(a, b)`` prefix that crosses the 256-record scan chunk."""
    records = draw(st.sets(st.tuples(_id, _id, _id), max_size=12))
    stretch = draw(st.sampled_from([0, 0, 1, 255, 256, 257, 600]))
    a, b = draw(_id), draw(_id)
    return sorted(records | {(a, b, c) for c in range(1, stretch + 1)})


@settings(max_examples=80, deadline=None)
@given(records=_runs(),
       prefixes=st.lists(st.lists(st.sampled_from([0, *_PROBES]), max_size=3), max_size=8),
       shapes=st.lists(st.tuples(*[st.sampled_from([0, 0, *_PROBES])] * 3), max_size=8))
def test_int_array_search_equals_brute_force(records, prefixes, shapes, tmp_path_factory):
    directory = tmp_path_factory.mktemp("search")
    store = store_of_records(directory, records)
    (segment,) = store._layout.segments
    try:
        for ordering, columns in _ORDERINGS.items():
            handle = segment.files[ordering]
            run = sorted(map(itemgetter(*columns), records))
            assert list(handle.records()) == run
            # Every prefix length, from the random probes and from records
            # at both ends of the run (where the largest ids sort).
            for prefix in map(tuple, [[], *prefixes,
                                      *(r[:n] for r in run[:3] + run[-3:] for n in (1, 2, 3))]):
                want = [r for r in run if r[:len(prefix)] == prefix]
                lo, hi = handle.prefix_range(prefix)
                assert hi - lo == len(want), f"{ordering} prefix {prefix}"
                assert list(handle.rows(lo, hi, (0, 1, 2))) == want
                assert lo == bisect_left(run, prefix)
        for s, p, o in [*shapes, *records[:3], *records[-3:]]:
            want = sorted(r for r in records
                          if (not s or r[0] == s) and (not p or r[1] == p) and (not o or r[2] == o))
            assert sorted(store.triples_ids(s, p, o)) == want, f"pattern ({s}, {p}, {o})"
            if s and p and o:
                assert store._in_segments(s, p, o) == ((s, p, o) in records)
    finally:
        store.close()


# --------------------------------------------------------------------------- #
# Mapped read path: concurrent readers
# --------------------------------------------------------------------------- #
_STAR = ("SELECT ?e ?n WHERE {{ ?e <{ex}group> <{ex}g{g}> . "
         "?e <{ex}rank> <{ex}r{r}> . ?e <{ex}name> ?n }}")
_PATH = ("SELECT ?a ?b ?n WHERE {{ ?a <{ex}group> <{ex}g{g}> . "
         "?a <{ex}knows> ?b . ?b <{ex}name> ?n }}")
_LOOKUP = "SELECT ?p ?o WHERE {{ <{ex}e{e}> ?p ?o }}"


def _entity_store(directory, entities: int = 120) -> SegmentStore:
    """The E15 entity graph in miniature: six segments, tombstones, resurrections."""
    store = SegmentStore(directory, buffer_limit=entities * 4 // 6)
    graph = Graph(store=store)
    triples = []
    for i in range(entities):
        entity = u(f"e{i}")
        triples += [
            Triple(entity, u("group"), u(f"g{i % 5}")),
            Triple(entity, u("rank"), u(f"r{i % 3}")),
            Triple(entity, u("knows"), u(f"e{(i * 7 + 1) % entities}")),
            Triple(entity, u("name"), Literal(f"entity {i}")),
        ]
    graph.add_all(triples)
    graph.flush()
    for triple in triples[::9]:
        graph.discard(triple)
    for triple in triples[::18]:
        graph.add(triple)
    assert len(store.segment_names) == 6 and store.tombstoned and not store.buffered
    return store


def _e15_shapes(entities: int = 120) -> list[str]:
    return ([_STAR.format(ex=EX, g=g, r=r) for g in range(5) for r in range(3)]
            + [_PATH.format(ex=EX, g=g) for g in range(5)]
            + [_LOOKUP.format(ex=EX, e=e) for e in range(0, entities, 11)])


def _answers(graph: Graph, texts: list[str]) -> list[list[str]]:
    evaluator = QueryEvaluator(graph, engine="planner")
    return [sorted(map(repr, evaluator.select(text))) for text in texts]


def test_concurrent_readers_return_the_single_threaded_rows(tmp_path):
    store = _entity_store(tmp_path)
    graph = Graph(store=store)
    texts = _e15_shapes()
    want = _answers(graph, texts)
    assert any(want[0]) and any(want[-1])

    results: dict[int, object] = {}

    def reader(slot: int) -> None:
        try:
            results[slot] = [_answers(graph, texts) for _ in range(3)]
        except BaseException as exc:  # reported by the assertion below
            results[slot] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for slot in range(4):
        assert results[slot] == [want] * 3, f"reader {slot}"
    graph.close()


def test_lookup_counter_deltas_are_exact_with_one_thread(tmp_path):
    store = _entity_store(tmp_path)
    entity = store.dictionary.lookup(u("e7"))
    name = store.dictionary.lookup(u("name"))
    segments = len(store.segment_names)
    # An entity's triples sit in one segment, so the id maps rule out the
    # other five; every segment holds ``name``, so a predicate scan
    # searches them all.
    for pattern, searched in (((entity, 0, 0), 1), ((entity, name, 0), 1),
                              ((0, name, 0), segments)):
        deltas = []
        for _ in range(2):
            before = store.io.as_dict()
            rows = list(store.triples_ids(*pattern))
            after = store.io.as_dict()
            deltas.append({key: after[key] - before[key] for key in after})
            assert rows
        # One range lookup and one range scan per searched segment, and the
        # same number of records examined every time.
        assert deltas[0]["lookups"] == deltas[0]["range_scans"] == searched
        assert deltas[0] == deltas[1]
    before = store.io.lookups
    assert store.cardinality(u("e7"), u("name"), None) == 1
    assert store.contains(u("e7"), u("name"), Literal("entity 7"))
    assert store.io.lookups - before == 2
    # The duplicate check behind add() searches no segment for a new subject.
    before = store.io.lookups
    assert store.add(u("newcomer"), u("name"), Literal("entity 7"))
    assert store.io.lookups == before
    store.close()


def test_compact_racing_scans_ends_in_rows_or_store_error(tmp_path):
    store = _entity_store(tmp_path)
    # Subject probes beside the full scan: masks paired with another
    # layout's segments would search the wrong runs and come back short.
    subjects = [0] + [store.dictionary.lookup(u(f"e{i}")) for i in range(0, 120, 7)]
    want = {subject: sorted(store.triples_ids(subject)) for subject in subjects}
    outcomes: list[object] = []
    stop = threading.Event()

    def scanner(offset: int) -> None:
        turn = offset
        while not stop.is_set():
            subject = subjects[turn % len(subjects)]
            turn += 1
            try:
                rows = sorted(store.triples_ids(subject))
                outcomes.append(rows == want[subject] or (subject, rows))
            except StoreError:
                outcomes.append(None)
            except BaseException as exc:  # anything else is the bug
                outcomes.append(exc)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=scanner, args=(offset,)) for offset in range(3)]
        for thread in threads:
            thread.start()
        suspended = store.triples_ids()
        head = [next(suspended) for _ in range(5)]
        assert store.compact()
        with pytest.raises(StoreError):
            head += list(suspended)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes and all(outcome is None or outcome is True for outcome in outcomes)
    for subject, rows in want.items():
        assert sorted(store.triples_ids(subject)) == rows
    assert len(store.segment_names) == 1
    store.close()


# --------------------------------------------------------------------------- #
# The redesigned construction API
# --------------------------------------------------------------------------- #
class TestGraphApi:
    def test_default_graph_uses_memory_store(self):
        graph = Graph()
        assert isinstance(graph.store, MemoryStore)

    def test_graph_wraps_explicit_store(self, tmp_path):
        store = SegmentStore(tmp_path)
        graph = Graph(store=store)
        assert graph.store is store
        graph.close()

    def test_open_graph_factory(self, tmp_path):
        assert isinstance(open_graph(None).store, MemoryStore)
        persistent = open_graph(tmp_path / "g")
        assert isinstance(persistent.store, SegmentStore)
        persistent.close()

    def test_open_store_factory(self, tmp_path):
        assert isinstance(open_store(None), MemoryStore)
        store = open_store(tmp_path / "s", buffer_limit=7)
        assert isinstance(store, SegmentStore) and store.buffer_limit == 7
        store.close()

    def test_graph_load_from_file(self, tmp_path):
        source = tmp_path / "data.ttl"
        source.write_text("@prefix ex: <http://example.org/> . ex:a ex:p ex:b .")
        graph = Graph.load(source)
        assert len(graph) == 1 and Triple(u("a"), u("p"), u("b")) in graph

    def test_graph_load_ntriples_by_suffix(self, tmp_path):
        source = tmp_path / "data.nt"
        source.write_text(
            "<http://example.org/a> <http://example.org/p> <http://example.org/b> .\n")
        assert len(Graph.load(source)) == 1

    def test_graph_load_into_store(self, tmp_path):
        source = tmp_path / "data.ttl"
        source.write_text("@prefix ex: <http://example.org/> . ex:a ex:p ex:b .")
        graph = Graph.load(source, store=SegmentStore(tmp_path / "store"))
        graph.close()
        reopened = open_graph(tmp_path / "store")
        assert Triple(u("a"), u("p"), u("b")) in reopened
        reopened.close()

    def test_graph_view_does_not_warn(self, recwarn):
        GraphView(Graph())
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_public_api_surface(self):
        import repro

        for name in ("open_graph", "open_store", "Graph", "GraphView", "Store",
                     "MemoryStore", "SegmentStore", "shard_graph",
                     "FederatedQueryEngine", "Mediator", "QueryEvaluator"):
            assert name in repro.__all__ or hasattr(repro, name), name
            assert getattr(repro, name) is not None
