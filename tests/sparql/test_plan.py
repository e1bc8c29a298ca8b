"""Unit tests for the cost-based planner and its execution."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Literal, Triple, URIRef, Variable
from repro.sparql import (
    GroupGraphPattern,
    InlineData,
    Prologue,
    QueryEvaluator,
    SelectQuery,
    TriplesBlock,
    ordered_bgp_patterns,
    parse_query,
    plan_query,
)
from repro.sparql.exec import ExecContext, ScanStep, VecBGPOp, VecHashJoinOp, seed_batches
from repro.sparql.plan import CardinalityEstimator, order_patterns
from repro.sparql.results import Binding


def explain_query(query: str | SelectQuery, graph: Graph) -> str:
    """The EXPLAIN text for ``query`` (or query text) over ``graph``."""
    if isinstance(query, str):
        query = parse_query(query)
    return plan_query(query, graph).explain()


def u(name: str) -> URIRef:
    return URIRef(f"http://plan.example/{name}")


PREFIX = "PREFIX ex:<http://plan.example/>\n"


@pytest.fixture()
def graph() -> Graph:
    g = Graph()
    for i in range(100):
        g.add(Triple(u(f"person{i}"), u("type"), u("Person")))
        g.add(Triple(u(f"person{i}"), u("name"), Literal(f"name{i:03d}")))
    # One rare predicate: only three triples.
    for i in range(3):
        g.add(Triple(u(f"person{i}"), u("leads"), u(f"team{i}")))
    return g


class CountingGraph(Graph):
    """A graph counting its id-index lookups and the matches they yield
    (to observe early termination on the executor's one scan path)."""

    def __init__(self, triples=None) -> None:
        super().__init__(triples)
        self.lookups = 0
        self.matches = 0

    def triples_ids(self, s=0, p=0, o=0):
        self.lookups += 1
        return self._count(super().triples_ids(s, p, o))

    def _count(self, matches):
        for match in matches:
            self.matches += 1
            yield match


# --------------------------------------------------------------------------- #
# Join ordering
# --------------------------------------------------------------------------- #
def test_statistics_put_rare_pattern_first(graph: Graph) -> None:
    estimator = CardinalityEstimator(graph)
    patterns = [
        Triple(Variable("p"), u("type"), u("Person")),     # 100 matches
        Triple(Variable("p"), u("name"), Variable("n")),   # 100 matches
        Triple(Variable("p"), u("leads"), Variable("t")),  # 3 matches
    ]
    ordered = order_patterns(patterns, set(), estimator)
    assert ordered[0].predicate == u("leads")


def test_order_patterns_is_deterministic(graph: Graph) -> None:
    estimator = CardinalityEstimator(graph)
    patterns = [
        Triple(Variable("p"), u("name"), Variable("n")),
        Triple(Variable("p"), u("type"), u("Person")),
        Triple(Variable("p"), u("leads"), Variable("t")),
    ]
    reference = order_patterns(patterns, set(), estimator)
    for permutation in (patterns[::-1], patterns[1:] + patterns[:1]):
        assert order_patterns(permutation, set(), estimator) == reference


def test_ordered_bgp_patterns_deterministic_under_permutation() -> None:
    """The reference evaluator's pattern order does not depend on input order."""
    patterns = [
        Triple(Variable("a"), u("p"), Variable("b")),
        Triple(Variable("b"), u("q"), Variable("c")),
        Triple(Variable("x"), u("p"), u("const")),
        Triple(Variable("a"), u("r"), u("const")),
    ]
    reference = ordered_bgp_patterns(patterns)
    import itertools

    for permutation in itertools.permutations(patterns):
        assert ordered_bgp_patterns(list(permutation)) == reference


def test_ordered_bgp_patterns_respects_initial_binding() -> None:
    patterns = [
        Triple(Variable("a"), u("p"), Variable("b")),
        Triple(Variable("c"), u("q"), u("const")),
    ]
    # With ?a pre-bound the first pattern has two bound positions and wins.
    bound = Binding({Variable("a"): u("ground")})
    assert ordered_bgp_patterns(patterns, bound)[0].predicate == u("p")
    # Without it, the ground-object pattern is more selective.
    assert ordered_bgp_patterns(patterns)[0].predicate == u("q")


def test_connected_patterns_avoid_cross_products(graph: Graph) -> None:
    estimator = CardinalityEstimator(graph)
    patterns = [
        Triple(Variable("p"), u("leads"), Variable("t")),   # cheapest: first
        Triple(Variable("q"), u("type"), u("Person")),      # disconnected
        Triple(Variable("p"), u("name"), Variable("n")),    # connected to ?p
    ]
    ordered = order_patterns(patterns, set(), estimator)
    assert [p.predicate for p in ordered[:2]] == [u("leads"), u("name")]


# --------------------------------------------------------------------------- #
# Filter pushdown
# --------------------------------------------------------------------------- #
def test_filter_pushed_to_earliest_scan(graph: Graph) -> None:
    text = explain_query(
        PREFIX + """
        SELECT ?p WHERE {
          ?p ex:name ?n .
          ?p ex:leads ?t .
          FILTER (?n != "name000")
        }""",
        graph,
    )
    lines = [line.strip() for line in text.splitlines()]
    name_scan = next(line for line in lines if "/name>" in line and line.startswith("scan"))
    assert "[filter" in name_scan, text


def test_unbound_filter_not_pushed_below_optional(graph: Graph) -> None:
    query = PREFIX + """
    SELECT ?p WHERE {
      ?p ex:name ?n .
      OPTIONAL { ?p ex:leads ?t }
      FILTER (!BOUND(?t))
    }"""
    text = explain_query(query, graph)
    # The !BOUND filter must sit above the LeftJoin, not inside a scan.
    assert "Filter [!BOUND(?t)]" in text, text
    result = QueryEvaluator(graph).select(query)
    reference = QueryEvaluator(graph, engine="reference").select(query)
    assert sorted(b["p"] for b in result) == sorted(b["p"] for b in reference)
    assert len(result) == 97


# --------------------------------------------------------------------------- #
# Early termination
# --------------------------------------------------------------------------- #
def test_limit_stops_scanning_early(graph: Graph) -> None:
    counting = CountingGraph(graph)
    query = parse_query(PREFIX + "SELECT ?p ?n WHERE { ?p ex:type ex:Person . ?p ex:name ?n } LIMIT 2")
    rows = QueryEvaluator(counting).select(query)
    assert len(rows) == 2
    # 100 persons in the graph; a materialising evaluator would do >= 101
    # index lookups (one enumeration + one per person).  The planned
    # execution pulls only what LIMIT needs.
    assert counting.lookups <= 10


def test_ask_stops_at_first_solution(graph: Graph) -> None:
    counting = CountingGraph(graph)
    query = parse_query(PREFIX + "ASK { ?p ex:type ex:Person . ?p ex:name ?n }")
    evaluator = QueryEvaluator(counting)
    assert bool(evaluator.evaluate(query))
    assert counting.lookups <= 5


# --------------------------------------------------------------------------- #
# Join strategies
# --------------------------------------------------------------------------- #
def test_hash_join_used_for_safe_shared_variable_join(graph: Graph) -> None:
    # Two groups sharing the certainly-bound ?p; the inner FILTER keeps the
    # right group from being coalesced into the left BGP, so an actual join
    # operator is required — and hash-joining on ?p is safe here.
    query = PREFIX + """
    SELECT ?p ?n ?t WHERE {
      { ?p ex:name ?n . ?p ex:type ex:Person }
      { ?p ex:leads ?t . FILTER (?t != ex:team99) }
    }"""
    text = explain_query(query, graph)
    assert "HashJoin on (?p)" in text, text
    planned = QueryEvaluator(graph).select(query)
    reference = QueryEvaluator(graph, engine="reference").select(query)
    assert sorted(map(repr, planned)) == sorted(map(repr, reference))
    assert len(planned) == 3


def test_hash_join_builds_once_across_correlated_runs(graph: Graph) -> None:
    counting = CountingGraph(graph)
    ctx = ExecContext(counting)
    p = Variable("p")
    left = VecBGPOp(ctx, (), [ScanStep(Triple(p, u("name"), Variable("n")), [], 100.0)], [])
    right = VecBGPOp(ctx, (), [ScanStep(Triple(p, u("leads"), Variable("t")), [], 3.0)], [])
    join = VecHashJoinOp(ctx, left, right, [p])

    def run() -> list[tuple]:
        return [row for batch in join.execute(seed_batches()) for row in batch.rows]

    join.reset()
    baseline = counting.lookups
    # A correlated parent re-runs the join once per input batch; the
    # build side must be scanned only on the first run.
    first = run()
    assert len(first) == 3
    after_first = counting.lookups
    for _ in range(5):
        assert run() == first
    assert counting.lookups == after_first + 5  # one probe-side lookup per run
    assert after_first - baseline == 2  # probe + one-time build

    # A new execution (reset) rebuilds against possibly mutated data.
    join.reset()
    run()
    assert counting.lookups == after_first + 5 + 2


def _named_entities(count: int) -> Graph:
    g = Graph()
    for i in range(count):
        g.add(Triple(u(f"entity{i}"), u("name"), Literal(f"name {i}")))
    return g


def _values_join(keys: int) -> str:
    rows = " ".join(f"(ex:entity{i})" for i in range(keys))
    return PREFIX + f"SELECT ?e ?n WHERE {{ VALUES (?e) {{ {rows} }} ?e ex:name ?n }}"


def test_small_values_table_probes_the_index() -> None:
    # 6 keys against a 600-row pattern: scanning the pattern's whole
    # extension to build a hash table costs far more than 6 index probes.
    g = _named_entities(600)
    text = explain_query(_values_join(6), g)
    assert "BindJoin" in text and "HashJoin" not in text, text
    assert "Table (?e) 6 rows" in text
    counting = CountingGraph(g)
    rows = QueryEvaluator(counting).select(_values_join(6))
    assert len(rows) == 6
    assert counting.lookups == 6  # one probe per key, no scan of the 600


def test_large_values_table_still_hash_joins() -> None:
    # 500 keys against the same 600 rows: one scan-and-build is cheaper
    # than 500 correlated probes.
    g = _named_entities(600)
    text = explain_query(_values_join(500), g)
    assert "HashJoin on (?e)" in text, text
    counting = CountingGraph(g)
    rows = QueryEvaluator(counting).select(_values_join(500))
    assert len(rows) == 500
    assert counting.lookups == 1  # the build scan


#: Subjects ``entity0..7`` exist in the graph, ``entity8..11`` never match.
_KEYS = st.one_of(
    st.none(), st.integers(min_value=0, max_value=11).map(lambda i: u(f"entity{i}"))
)
_NAMES = st.one_of(
    st.none(), st.integers(min_value=0, max_value=3).map(lambda i: Literal(f"name {i}"))
)


@settings(max_examples=150, deadline=None)
@given(
    # Table shape: 0, 1 and many rows, UNDEF cells, duplicate rows, one or
    # two columns; sizes straddle the hash/bind threshold for the patterns.
    rows=st.lists(st.tuples(_KEYS, _NAMES), max_size=40),
    two_columns=st.booleans(),
    # Pattern selectivity: names per subject (a probe matches 0..3 rows) and
    # how many subjects carry the predicate at all.
    fan_out=st.integers(min_value=0, max_value=3),
    subjects=st.integers(min_value=1, max_value=8),
    table_first=st.booleans(),
)
def test_values_join_agrees_across_engines(
    rows, two_columns, fan_out, subjects, table_first
) -> None:
    g = Graph()
    for i in range(subjects):
        g.add(Triple(u(f"entity{i}"), u("kind"), u("Thing")))
        for k in range(fan_out):
            g.add(Triple(u(f"entity{i}"), u("name"), Literal(f"name {k}")))
    e, n = Variable("e"), Variable("n")
    table = (
        InlineData([e, n], rows) if two_columns else InlineData([e], [row[:1] for row in rows])
    )
    block = TriplesBlock([Triple(e, u("name"), n)])
    elements = [table, block] if table_first else [block, table]
    query = SelectQuery(Prologue(), [], GroupGraphPattern(elements))

    def solutions(engine: str) -> Counter:
        result = QueryEvaluator(g, engine=engine).select(query)
        return Counter(frozenset(binding.as_dict().items()) for binding in result.bindings)

    assert solutions("planner") == solutions("reference")


def test_adjacent_bgps_coalesce_into_one_scan_chain(graph: Graph) -> None:
    text = explain_query(
        PREFIX + "SELECT * WHERE { { ?p ex:name ?n } { ?p ex:leads ?t } }", graph
    )
    assert "Join" not in text
    assert text.count("scan (") == 2


def test_explain_mentions_estimates_and_form(graph: Graph) -> None:
    text = explain_query(PREFIX + "SELECT ?p WHERE { ?p ex:leads ?t } LIMIT 1", graph)
    assert text.startswith("plan for SELECT query")
    assert "est=3.0" in text
    assert "Slice" in text
