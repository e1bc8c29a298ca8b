"""E14 — the disk-backed segment store vs. the in-memory baseline.

PR 10 moves storage behind an explicit ``Store`` API with two backends:
the original in-memory ``MemoryStore`` and the persistent ``SegmentStore``
(immutable sorted SPO/POS/OSP segment files plus a small write buffer).
This experiment quantifies what that costs and what it buys, with a sweep
over graph size:

* predicate-scan and star-join latency, memory vs. disk,
* cold-open time — reopening a store must replay only the term
  dictionary and segment metadata, never the triples themselves,
* bounded I/O under LIMIT — a disk-backed ``LIMIT``-ed BGP query must
  complete after reading a small prefix of one segment range, not the
  full dataset,
* segment pruning — on a six-segment store, a star join's subject probes
  search only the segments whose id maps hold the subject.

The headline claims pinned here: cold open performs **zero** triple-record
reads, the LIMIT-ed scan touches well under a tenth of the stored
records, and a subject probe searches one or two segments, not six.
Disk scans are expected to be slower than memory (they bisect each
memory-mapped run that may hold the pattern's bound ids as an integer
array and decode rows a chunk at a time); the sweep records by how much
so regressions in either backend show up in the perf job.
"""

from __future__ import annotations

from time import perf_counter

from repro.rdf import Graph, SegmentStore, Triple, URIRef
from repro.sparql import QueryEvaluator, parse_query
from repro.sparql import exec as executor

from .conftest import report

BENCH = "http://bench.example/store/"

#: Entities per sweep point; each contributes three triples (type, a
#: selective property and a knows-edge), so sizes are 3x these counts.
SWEEP_ENTITIES = (1_000, 4_000, 10_000)
VALUE_BUCKETS = 53


def fill(graph: Graph, entities: int) -> Graph:
    for i in range(entities):
        subject = URIRef(f"{BENCH}entity{i}")
        graph.add(Triple(subject, URIRef(f"{BENCH}group"),
                         URIRef(f"{BENCH}g{i % VALUE_BUCKETS}")))
        graph.add(Triple(subject, URIRef(f"{BENCH}rank"),
                         URIRef(f"{BENCH}r{i % 7}")))
        graph.add(Triple(subject, URIRef(f"{BENCH}knows"),
                         URIRef(f"{BENCH}entity{(i + 1) % entities}")))
    return graph


def build_segment_graph(root, entities: int) -> Graph:
    graph = fill(Graph(store=SegmentStore(root)), entities)
    graph.flush()
    return graph


SCAN_QUERY = parse_query(
    f"SELECT ?s ?g WHERE {{ ?s <{BENCH}group> ?g }}")
JOIN_QUERY = parse_query(
    f"SELECT ?s ?g ?r WHERE {{ ?s <{BENCH}group> ?g . ?s <{BENCH}rank> ?r }}")
LIMIT_QUERY = parse_query(
    f"SELECT ?s ?g WHERE {{ ?s <{BENCH}group> ?g }} LIMIT 10")
STAR_QUERY = parse_query(
    f"SELECT ?s ?r ?k WHERE {{ ?s <{BENCH}group> <{BENCH}g7> . "
    f"?s <{BENCH}rank> ?r . ?s <{BENCH}knows> ?k }}")


def _time(evaluator: QueryEvaluator, query, repetitions: int = 3) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = perf_counter()
        evaluator.select(query)
        best = min(best, perf_counter() - start)
    return best


def test_bench_e14_store_sweep(benchmark, tmp_path):
    """Scan/join latency x graph size, both backends, identical answers."""
    rows = []
    for entities in SWEEP_ENTITIES:
        memory = fill(Graph(), entities)
        disk = build_segment_graph(tmp_path / f"sweep-{entities}", entities)
        assert len(disk) == len(memory)

        memory_eval = QueryEvaluator(memory, engine="planner")
        disk_eval = QueryEvaluator(disk, engine="planner")
        scan_pair = (_time(memory_eval, SCAN_QUERY), _time(disk_eval, SCAN_QUERY))
        join_pair = (_time(memory_eval, JOIN_QUERY), _time(disk_eval, JOIN_QUERY))

        # Both backends must produce the same solution multiset.
        want = sorted(map(repr, memory_eval.select(JOIN_QUERY)))
        assert sorted(map(repr, disk_eval.select(JOIN_QUERY))) == want

        rows.append((
            len(memory),
            f"{scan_pair[0] * 1000:.2f} ms", f"{scan_pair[1] * 1000:.2f} ms",
            f"{join_pair[0] * 1000:.2f} ms", f"{join_pair[1] * 1000:.2f} ms",
            f"{join_pair[1] / join_pair[0]:.1f}x" if join_pair[0] else "-",
        ))
        disk.close()

    report(
        "E14: in-memory vs. disk-backed scan/join latency",
        rows,
        headers=("triples", "scan mem", "scan disk",
                 "join mem", "join disk", "disk/mem"),
    )

    # Track the disk-backed star join at the largest sweep point.
    disk = build_segment_graph(tmp_path / "headline", SWEEP_ENTITIES[-1])
    disk_eval = QueryEvaluator(disk, engine="planner")
    try:
        benchmark(lambda: disk_eval.select(JOIN_QUERY))
    finally:
        disk.close()


def test_bench_e14_multi_segment_star(benchmark, tmp_path):
    """A star join over six segments: each subject probe searches its own."""
    entities = SWEEP_ENTITIES[-1]
    disk = fill(Graph(store=SegmentStore(tmp_path / "six", buffer_limit=5_000)), entities)
    disk.flush()
    store, triples = disk.store, len(disk)
    disk_eval = QueryEvaluator(disk, engine="planner")
    want = sorted(map(repr, QueryEvaluator(fill(Graph(), entities)).select(STAR_QUERY)))
    before = store.io.lookups
    assert sorted(map(repr, disk_eval.select(STAR_QUERY))) == want
    lookups = store.io.lookups - before
    segments = len(store.segment_names)
    assert segments == 6
    # An entity's triples span at most two adjacent segments, so a subject
    # probe searches one or two of the six, never all of them.
    assert lookups < 3 * len(want) + 2 * segments, f"{lookups} lookups for {len(want)} rows"
    try:
        benchmark(lambda: disk_eval.select(STAR_QUERY))
    finally:
        disk.close()
    report(
        "E14: star join over a six-segment store",
        [(triples, segments, len(want), lookups)],
        headers=("triples", "segments", "rows", "lookups"),
    )


def test_bench_e14_cold_open_reads_no_records(benchmark, tmp_path):
    """Reopening a store is rebuild-free: metadata only, zero triple reads."""
    root = tmp_path / "cold"
    built = build_segment_graph(root, SWEEP_ENTITIES[-1])
    expected = len(built)
    built.close()

    opens = []

    def cold_open() -> None:
        start = perf_counter()
        store = SegmentStore(root)
        opens.append((perf_counter() - start, len(store), store.io.records_read))
        store.close()

    benchmark(cold_open)

    for elapsed, triples, records_read in opens:
        assert triples == expected
        # The headline persistence claim: opening replays the term
        # dictionary and per-segment metadata but never a triple record.
        assert records_read == 0, f"cold open read {records_read} records"
    report(
        "E14: cold open (rebuild-free restart)",
        [(expected, f"{min(e for e, _, _ in opens) * 1000:.2f} ms", 0)],
        headers=("triples", "best open", "records read"),
    )


def test_bench_e14_limit_query_io_is_bounded(tmp_path, monkeypatch):
    """A LIMIT-ed BGP on disk completes without loading the full dataset."""
    entities = SWEEP_ENTITIES[-1]
    root = tmp_path / "limited"
    build_segment_graph(root, entities).close()

    graph = Graph(store=SegmentStore(root))
    total = len(graph)
    # Small batches keep the slice from over-pulling the scan generator.
    monkeypatch.setattr(executor, "MAX_BATCH_ROWS", 64)
    evaluator = QueryEvaluator(graph, engine="planner")
    before = graph.store.io.records_read
    solutions = evaluator.select(LIMIT_QUERY)
    records_read = graph.store.io.records_read - before
    graph.close()

    assert len(solutions) == 10
    assert records_read < total // 10, (
        f"LIMIT-ed scan read {records_read} of {total} records")
    report(
        "E14: bounded I/O under LIMIT",
        [(total, 10, records_read)],
        headers=("stored triples", "rows returned", "records read"),
    )
