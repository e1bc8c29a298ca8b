"""E11 — the query planner: statistics-driven ordering + early termination.

Every rewritten query of the mediation pipeline — and every per-endpoint
query of a federation fan-out — is executed by the local SPARQL substrate,
so its evaluation cost multiplies through the whole system.  This
experiment quantifies what the cost-based planner buys over the
dict-at-a-time reference evaluator with a sweep over

* graph size (number of triples),
* BGP size (number of triple patterns in the WHERE clause),
* LIMIT (present or absent),

and pins the headline claim: on a LIMIT-ed query over a >= 50k-triple
graph the planned execution must be at least 5x faster than the reference
materialising evaluation, because it stops scanning as soon as the limit
is satisfied while the reference path enumerates every solution first.
(See E13 for the batched-vs-reference comparison on unrestricted
multi-joins.)
"""

from __future__ import annotations

from time import perf_counter

from repro.rdf import Graph, Literal, RDF, Triple, URIRef
from repro.sparql import QueryEvaluator, parse_query

from .conftest import report

BENCH = "http://bench.example/"
PERSON = URIRef(BENCH + "Person")
NAME = URIRef(BENCH + "name")
KNOWS = URIRef(BENCH + "knows")
MEMBER = URIRef(BENCH + "memberOf")

#: Entities per sweep point; each entity contributes 5 triples.
GRAPH_ENTITIES = [1_000, 4_000, 10_000]

PREFIX = (
    f"PREFIX ex:<{BENCH}>\n"
    "PREFIX rdf:<http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)

QUERIES_BY_BGP_SIZE = {
    1: PREFIX + "SELECT ?p WHERE { ?p ex:name ?n }",
    2: PREFIX + "SELECT ?p ?n WHERE { ?p rdf:type ex:Person . ?p ex:name ?n }",
    3: PREFIX + ("SELECT ?p ?n WHERE { ?p rdf:type ex:Person . "
                 "?p ex:knows ?q . ?q ex:name ?n }"),
}


def build_graph(n_entities: int) -> Graph:
    graph = Graph()
    for i in range(n_entities):
        person = URIRef(f"{BENCH}person{i}")
        graph.add(Triple(person, RDF.type, PERSON))
        graph.add(Triple(person, NAME, Literal(f"name{i:06d}")))
        graph.add(Triple(person, KNOWS, URIRef(f"{BENCH}person{(i * 7 + 1) % n_entities}")))
        graph.add(Triple(person, MEMBER, URIRef(f"{BENCH}org{i % 50}")))
        graph.add(Triple(person, URIRef(f"{BENCH}index"), Literal(i)))
    return graph


def _parse(text: str, limit) -> object:
    query = parse_query(text)
    query.modifiers.limit = limit
    return query


def _time(evaluator: QueryEvaluator, query, repetitions: int = 3) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = perf_counter()
        evaluator.evaluate(query)
        best = min(best, perf_counter() - start)
    return best


def test_bench_e11_planner_sweep(benchmark):
    """Sweep graph size x BGP size x LIMIT; check the early-termination win."""
    rows = []
    headline_speedup = None
    for n_entities in GRAPH_ENTITIES:
        graph = build_graph(n_entities)
        planner = QueryEvaluator(graph)
        reference = QueryEvaluator(graph, engine="reference")
        for bgp_size, text in QUERIES_BY_BGP_SIZE.items():
            for limit in (5, None):
                query = _parse(text, limit)
                planner_time = _time(planner, query)
                naive_time = _time(reference, query)
                speedup = naive_time / planner_time if planner_time else float("inf")
                rows.append((
                    len(graph), bgp_size, limit if limit is not None else "-",
                    f"{naive_time * 1000:.2f} ms",
                    f"{planner_time * 1000:.2f} ms",
                    f"{speedup:.1f}x",
                ))
                if n_entities == GRAPH_ENTITIES[-1] and bgp_size == 2 and limit == 5:
                    headline_speedup = speedup

    report(
        "E11: reference evaluator vs. cost-based planner",
        rows,
        headers=("triples", "BGP size", "LIMIT", "reference", "planner", "speedup"),
    )

    # Headline claim: LIMIT-ed BGP over the 50k-triple graph is >= 5x
    # faster because the planned execution stops early.
    assert headline_speedup is not None
    assert headline_speedup >= 5.0, f"expected >= 5x, measured {headline_speedup:.1f}x"

    # Register the headline measurement with pytest-benchmark.
    graph = build_graph(GRAPH_ENTITIES[-1])
    planner = QueryEvaluator(graph)
    query = _parse(QUERIES_BY_BGP_SIZE[2], 5)
    benchmark(lambda: planner.evaluate(query))


def test_bench_e11_results_equivalent():
    """Both engines agree on every sweep query (sorted-row comparison)."""
    graph = build_graph(500)
    planner = QueryEvaluator(graph)
    reference = QueryEvaluator(graph, engine="reference")
    for text in QUERIES_BY_BGP_SIZE.values():
        query = parse_query(text)
        planned_rows = sorted(map(repr, planner.select(query)))
        reference_rows = sorted(map(repr, reference.select(query)))
        assert planned_rows == reference_rows


def test_bench_e11_ask_constant_time():
    """ASK over a large graph answers without enumerating solutions."""
    graph = build_graph(GRAPH_ENTITIES[-1])
    planner = QueryEvaluator(graph)
    reference = QueryEvaluator(graph, engine="reference")
    query = parse_query(PREFIX + "ASK { ?p rdf:type ex:Person . ?p ex:name ?n }")
    planner_time = _time(planner, query)
    reference_time = _time(reference, query)
    assert bool(planner.evaluate(query)) is True
    report(
        "E11b: ASK early termination",
        [(len(graph), f"{reference_time * 1000:.2f} ms", f"{planner_time * 1000:.2f} ms")],
        headers=("triples", "reference ASK", "planner ASK"),
    )
    assert planner_time <= reference_time
