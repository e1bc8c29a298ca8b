"""OFFSET/LIMIT fused into the scan: same answers, fewer rows built.

A slice hands its row budget ``offset + limit`` through row-preserving
operators to the producing scan, and a lone filter-free pattern over
distinct variables drops the offset on the store's id iterator.  This
module pins

* the answers, against the dict-at-a-time reference engine, over an
  in-memory store and a multi-segment disk store with tombstones and
  resurrected triples,
* where the push-down must *not* happen (one case per blocker), and
* what EXPLAIN ANALYZE reports for the fused case.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.rdf import Graph, Literal, SegmentStore, Triple, URIRef, Variable
from repro.sparql import QueryEvaluator
from repro.sparql.exec import ExecContext, ScanStep, VecBGPOp

EX = "http://example.org/"
PREFIX = f"PREFIX ex: <{EX}>\n"
KNOWS = URIRef(EX + "knows")
PAGE = 5


def _triples() -> list[Triple]:
    triples = []
    for index in range(23):
        entity = URIRef(f"{EX}e{index:02d}")
        triples.append(Triple(entity, KNOWS, URIRef(f"{EX}e{(index * 7 + 3) % 23:02d}")))
        # A few objects are known twice: ?o alone is a multiset.
        if index % 4 == 0:
            triples.append(Triple(entity, KNOWS, URIRef(f"{EX}e{(index + 1) % 23:02d}")))
        triples.append(Triple(entity, URIRef(EX + "name"), Literal(f"entity {index:02d}")))
        triples.append(Triple(entity, URIRef(EX + "group"), URIRef(f"{EX}g{index % 3}")))
    triples.append(Triple(URIRef(EX + "e00"), KNOWS, URIRef(EX + "e00")))
    return triples


@pytest.fixture(scope="module", params=["memory", "segment"])
def graph(request, tmp_path_factory) -> Graph:
    triples = _triples()
    if request.param == "memory":
        store_graph = Graph()
        store_graph.add_all(triples)
        return store_graph
    # A tiny write buffer forces several segments; the churn leaves
    # tombstones in them and brings half of the removed triples back.
    directory = tmp_path_factory.mktemp("slice-store")
    store_graph = Graph(store=SegmentStore(directory / "store", buffer_limit=8))
    store_graph.add_all(triples)
    store_graph.flush()
    removed = triples[::5]
    for triple in removed:
        store_graph.discard(triple)
    store_graph.flush()
    for triple in removed[::2]:
        store_graph.add(triple)
    store_graph.flush()
    assert len(store_graph.store.segment_names) > 2
    return store_graph


def _rows(result) -> list[tuple]:
    return [tuple(row) for row in result.rows]


def _slices(total: int) -> list[str]:
    """``LIMIT``/``OFFSET`` clauses around the page and result-size edges."""
    edges = [0, 1, PAGE - 1, PAGE, PAGE + 1, total - 1, total, total + 3]
    clauses = [f"LIMIT {limit} OFFSET {offset}" for limit in edges for offset in edges]
    clauses += [f"OFFSET {offset}" for offset in edges]
    clauses += [f"LIMIT {limit}" for limit in edges]
    return clauses


def _expected_size(clause: str, total: int) -> int:
    words = clause.split()
    fields = dict(zip(words[::2], map(int, words[1::2]), strict=True))
    left = max(0, total - fields.get("OFFSET", 0))
    return min(left, fields["LIMIT"]) if "LIMIT" in fields else left


#: Shapes that reach the scan: fused (one pattern), and budget-only (a
#: projection that drops a column keeps rows one to one; so does a join
#: inside one scan chain).
SLICEABLE = {
    "pattern": "SELECT ?s ?o WHERE { ?s ex:knows ?o }",
    "projected": "SELECT ?o WHERE { ?s ex:knows ?o }",
    "swapped": "SELECT ?o ?s WHERE { ?s ex:knows ?o }",
    "ground-object": f"SELECT ?s WHERE {{ ?s ex:group <{EX}g1> }}",
    "chain": "SELECT ?s ?n WHERE { ?s ex:knows ?o . ?o ex:name ?n }",
}


@pytest.mark.parametrize("shape", sorted(SLICEABLE))
def test_sliced_answers_match_the_reference_engine(graph, shape):
    body = PREFIX + SLICEABLE[shape]
    batched = QueryEvaluator(graph)
    reference = QueryEvaluator(graph, engine="reference")
    unsliced = Counter(_rows(reference.evaluate(body)))
    total = sum(unsliced.values())
    assert Counter(_rows(batched.evaluate(body))) == unsliced
    for clause in _slices(total):
        # Unordered: any page of the right size out of the full answer.
        page = Counter(_rows(batched.evaluate(f"{body} {clause}")))
        assert sum(page.values()) == _expected_size(clause, total), clause
        assert not page - unsliced, clause
        # Ordered: the order is fixed, so the page is too — row for row.
        ordered = f"{body} ORDER BY ?s ?o ?n {clause}"
        assert _rows(batched.evaluate(ordered)) == _rows(reference.evaluate(ordered)), clause


def test_pages_tile_the_unsliced_answer(graph):
    """Consecutive fused pages are disjoint and add up to everything."""
    body = PREFIX + SLICEABLE["pattern"]
    evaluator = QueryEvaluator(graph)
    everything = _rows(evaluator.evaluate(body))
    pages: list[tuple] = []
    for offset in range(0, len(everything) + PAGE, PAGE):
        pages += _rows(evaluator.evaluate(f"{body} LIMIT {PAGE} OFFSET {offset}"))
    assert pages == everything


# ---------------------------------------------------------------------- #
# Where the push-down stops
# ---------------------------------------------------------------------- #
def _scans(graph: Graph, text: str):
    """``(result, operator stats of every scan, event)`` of an analyzed query."""
    result, event = QueryEvaluator(graph).analyze(PREFIX + text)
    scans = [op for op in event.operators if op["operator"].startswith("BGPScan")]
    assert scans
    return result, scans, event


#: Neither the budget nor the skip may pass these: the operator between
#: slice and scan drops, reorders or multiplies rows.
NOT_ROW_PRESERVING = {
    "distinct": "SELECT DISTINCT ?o WHERE { ?s ex:knows ?o } LIMIT 3 OFFSET 2",
    "order-by": "SELECT ?s ?o WHERE { ?s ex:knows ?o } ORDER BY ?o LIMIT 3 OFFSET 2",
    "optional": "SELECT ?s ?n WHERE { ?s ex:knows ?o OPTIONAL { ?o ex:name ?n } } LIMIT 3 OFFSET 2",
    "union": ("SELECT ?s WHERE { { ?s ex:knows ?o } UNION { ?s ex:name ?o } } "
              "LIMIT 3 OFFSET 2"),
    "values-join": (f"SELECT ?s ?o WHERE {{ VALUES ?s {{ <{EX}e00> <{EX}e04> <{EX}e08> }} "
                    "?s ex:knows ?o } LIMIT 3 OFFSET 2"),
}


@pytest.mark.parametrize("case", sorted(NOT_ROW_PRESERVING))
def test_no_budget_through_operators_that_change_the_row_count(graph, case):
    text = NOT_ROW_PRESERVING[case]
    result, scans, _ = _scans(graph, text)
    for scan in scans:
        assert "row budget" not in scan["operator"], scan
        assert "skipped on ids" not in scan["operator"], scan
    reference = QueryEvaluator(graph, engine="reference")
    unsliced = Counter(_rows(reference.evaluate(PREFIX + text.split(" LIMIT")[0])))
    page = Counter(_rows(result))
    assert sum(page.values()) == 3 and not page - unsliced


#: The budget reaches these scans (they are the producer), but a match is
#: not a row, so the offset is still counted in rows by the slice.
BUDGET_ONLY = {
    "step-filter": ('SELECT ?s ?o WHERE { ?s ex:knows ?o FILTER(?o != ex:e03) } '
                    "LIMIT 3 OFFSET 2"),
    "tail-filter": "SELECT ?s ?o WHERE { ?s ex:knows ?o FILTER(!BOUND(?zz)) } LIMIT 3 OFFSET 2",
    "repeated-variable": "SELECT ?s WHERE { ?s ex:knows ?s } LIMIT 3 OFFSET 1",
    "bnode-anchor": "SELECT ?o WHERE { _:someone ex:knows ?o } LIMIT 3 OFFSET 2",
    "join": "SELECT ?s ?n WHERE { ?s ex:knows ?o . ?o ex:name ?n } LIMIT 3 OFFSET 2",
}


@pytest.mark.parametrize("case", sorted(BUDGET_ONLY))
def test_no_id_skip_unless_a_match_is_a_row(graph, case):
    text = BUDGET_ONLY[case]
    result, scans, _ = _scans(graph, text)
    [scan] = scans
    assert "skipped on ids" not in scan["operator"], scan
    reference = QueryEvaluator(graph, engine="reference")
    unsliced = Counter(_rows(reference.evaluate(PREFIX + text.split(" LIMIT")[0])))
    page = Counter(_rows(result))
    assert not page - unsliced
    clause = text[text.index("LIMIT"):]
    assert sum(page.values()) == _expected_size(clause, sum(unsliced.values()))


def test_offset_zero_needs_no_skip_but_keeps_the_budget(graph):
    _, [scan], _ = _scans(graph, "SELECT ?s ?o WHERE { ?s ex:knows ?o } LIMIT 3")
    assert "row budget 3" in scan["operator"]
    assert "skipped on ids" not in scan["operator"]
    assert scan["rows_out"] == 3


def test_a_scan_fed_by_another_operator_keeps_its_offset(graph):
    """A non-empty input schema means one store iterator per input row:
    matches are no longer the rows of the output, in order."""
    ctx = ExecContext(graph)
    pattern = Triple(Variable("s"), KNOWS, Variable("o"))
    fed = VecBGPOp(ctx, (Variable("s"),), [ScanStep(pattern, [], 1.0)], [])
    assert fed.limit_rows(4, 9) == 0
    assert "row budget 9" in fed.notes() and "skipped" not in fed.notes()
    seeded = VecBGPOp(ctx, (), [ScanStep(pattern, [], 1.0)], [])
    assert seeded.limit_rows(4, 9) == 4
    assert "first 4 skipped on ids" in seeded.notes()


# ---------------------------------------------------------------------- #
# EXPLAIN ANALYZE of the fused case
# ---------------------------------------------------------------------- #
def test_explain_analyze_shows_the_fused_slice(graph):
    total = len(QueryEvaluator(graph).evaluate(PREFIX + SLICEABLE["pattern"]))
    offset, limit = total - 8, PAGE
    result, [scan], event = _scans(
        graph, f"{SLICEABLE['pattern']} LIMIT {limit} OFFSET {offset}"
    )
    assert len(result) == limit
    assert f"row budget {offset + limit}" in scan["operator"]
    assert f"first {offset} skipped on ids" in scan["operator"]
    # Nothing but the page ever becomes a row, in any operator.
    for operator in event.operators:
        assert operator["rows_out"] == limit, operator
    assert f"first {offset} skipped on ids" in event.render()


def test_budget_stops_a_scan_between_batch_boundaries(graph):
    """Batches grow 4 -> 32 -> ...: without the budget a LIMIT 6 pulls 36 rows."""
    _, [scan], _ = _scans(graph, "SELECT ?o WHERE { ?s ex:knows ?o } LIMIT 6")
    assert scan["rows_out"] == 6
