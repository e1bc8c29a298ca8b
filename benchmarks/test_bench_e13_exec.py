"""E13 — the batched execution core: the dict-overhead win on multi-joins.

The planner and the federation decomposer both run on the batched
operator layer of :mod:`repro.sparql.exec`: solution rows are fixed-width
tuples of dictionary ids and scans run against the graph's id-level
permutation indexes, so the join hot loop never hashes a term, never
constructs a ``Triple`` and never touches a per-row ``dict``.  This
experiment quantifies that win against the dict-at-a-time reference
evaluator with a sweep over

* join fan-in (number of star-join patterns sharing ``?s``),
* batch size cap (small batches vs. the default),
* adaptive join reordering (on or off),

and pins the headline claim: on the fan-in-6 multi-join hot path the
batched planner engine is at least 3x faster than the reference
evaluator, with identical solution multisets.
"""

from __future__ import annotations

from time import perf_counter

from repro.rdf import Graph, Triple, URIRef
from repro.sparql import QueryEvaluator, parse_query
from repro.sparql import exec as executor

from .conftest import report

BENCH = "http://bench.example/"

#: Entities in the sweep graphs; each contributes ``fan-in`` triples.
ENTITIES = 3_000
FAN_INS = (2, 4, 6)
#: Distinct object values per predicate — keeps joins selective but real.
VALUE_BUCKETS = 97


def build_graph(fan_in: int) -> Graph:
    graph = Graph()
    for i in range(ENTITIES):
        subject = URIRef(f"{BENCH}entity{i}")
        for k in range(fan_in):
            graph.add(Triple(
                subject,
                URIRef(f"{BENCH}p{k}"),
                URIRef(f"{BENCH}v{k}-{i % VALUE_BUCKETS}"),
            ))
    return graph


def star_query(fan_in: int):
    patterns = " . ".join(f"?s <{BENCH}p{k}> ?o{k}" for k in range(fan_in))
    return parse_query(f"SELECT * WHERE {{ {patterns} }}")


def _time(evaluator: QueryEvaluator, query, repetitions: int = 3) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = perf_counter()
        evaluator.select(query)
        best = min(best, perf_counter() - start)
    return best


def test_bench_e13_exec_sweep(benchmark, monkeypatch):
    """Sweep fan-in x batch cap x adaptivity; check the >= 3x headline."""
    configs = (  # overrides of the executor's module-level tunables
        ("batch=64",   {"MAX_BATCH_ROWS": 64}),
        ("batch=2048", {}),
        ("no-adapt",   {"ADAPTIVE": False}),
    )
    rows = []
    headline_speedup = None
    for fan_in in FAN_INS:
        graph = build_graph(fan_in)
        query = star_query(fan_in)
        reference_time = _time(QueryEvaluator(graph, engine="reference"), query)
        vec_times = []
        for _, config in configs:
            with monkeypatch.context() as patch:
                for name, value in config.items():
                    patch.setattr(executor, name, value)
                vec_times.append(_time(QueryEvaluator(graph, engine="planner"), query))
        default_speedup = reference_time / vec_times[1] if vec_times[1] else float("inf")
        rows.append((
            fan_in, len(graph),
            f"{reference_time * 1000:.2f} ms",
            *(f"{seconds * 1000:.2f} ms" for seconds in vec_times),
            f"{default_speedup:.1f}x",
        ))
        if fan_in == FAN_INS[-1]:
            headline_speedup = default_speedup

    report(
        "E13: dict-at-a-time reference vs. batched id-native executor",
        rows,
        headers=("fan-in", "triples", "reference",
                 *(label for label, _ in configs), "speedup"),
    )

    # Headline claim: the fan-in-6 star join runs >= 3x faster batched,
    # because scans stay in integer space end to end.
    assert headline_speedup is not None
    assert headline_speedup >= 3.0, f"expected >= 3x, measured {headline_speedup:.1f}x"

    # Register the headline measurement with pytest-benchmark.
    graph = build_graph(FAN_INS[-1])
    query = star_query(FAN_INS[-1])
    vec = QueryEvaluator(graph, engine="planner")
    benchmark(lambda: vec.select(query))


def test_bench_e13_results_equivalent():
    """Reference and batched engines agree on every sweep query."""
    for fan_in in FAN_INS:
        graph = build_graph(fan_in)
        query = star_query(fan_in)
        reference = sorted(map(repr, QueryEvaluator(graph, engine="reference").select(query)))
        batched = sorted(map(repr, QueryEvaluator(graph).select(query)))
        assert batched == reference


def test_bench_e13_adaptivity_costs_nothing_when_estimates_hold(monkeypatch):
    """With accurate statistics, adaptive sampling must stay in the noise."""
    graph = build_graph(4)
    query = star_query(4)
    adaptive = _time(QueryEvaluator(graph, engine="planner"), query)
    monkeypatch.setattr(executor, "ADAPTIVE", False)
    fixed = _time(QueryEvaluator(graph, engine="planner"), query)
    report(
        "E13b: adaptive sampling overhead",
        [(len(graph), f"{fixed * 1000:.2f} ms", f"{adaptive * 1000:.2f} ms")],
        headers=("triples", "fixed order", "adaptive"),
    )
    # Sampling eight rows per step is bounded work; allow generous noise.
    assert adaptive <= fixed * 2.0
