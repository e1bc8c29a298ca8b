"""Data-driven SPARQL conformance corpus.

Each case is a ``cases/<name>.rq`` query file with an expected-results
fixture next to it:

* ``<name>.expected.json`` for SELECT and ASK queries,
* ``<name>.expected.ttl`` for CONSTRUCT queries (compared up to blank-node
  isomorphism).

Every case executes through EVERY evaluation engine — the batched
planner and the dict-at-a-time reference evaluator — and each must match
the fixture.
The queried data is ``data/default.ttl`` unless the case ships a
``<name>.data.ttl`` override.

SELECT fixtures carry the solutions as ``{variable: n3-text}`` rows.
Comparison is order-insensitive (a SPARQL solution sequence is unordered)
unless the fixture sets ``"ordered": true`` — which queries with ORDER BY
do.  A fixture may instead pin only ``"cardinality"`` plus a ``"subset_of"``
row pool: the shape for LIMIT-without-ORDER-BY, where any n rows of the
full result are conformant and the two engines may legitimately pick
different ones.  Blank-node values are compared as anonymous markers (the
label is an implementation artefact).

Each case also runs with the static analyzer disabled, and through
EXPLAIN / EXPLAIN ANALYZE, whose plan texts are pinned in ``plans.json``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.rdf import Graph, SegmentStore
from tests.isomorphism import isomorphic
from repro.sparql import ENGINES, AskResult, QueryEvaluator, ResultSet, parse_query
from repro.turtle import parse_graph

CASES_DIR = Path(__file__).parent / "cases"
DEFAULT_DATA = Path(__file__).parent / "data" / "default.ttl"

CASE_NAMES = sorted(path.stem for path in CASES_DIR.glob("*.rq"))

#: Every case runs against both storage backends: the corpus is the proof
#: that a disk-backed graph answers byte-identically to the in-memory one.
BACKENDS = ("memory", "segment")


def _load_case_graph(name: str, backend: str = "memory",
                     tmp_path: Path | None = None) -> Graph:
    override = CASES_DIR / f"{name}.data.ttl"
    data_path = override if override.exists() else DEFAULT_DATA
    parsed = parse_graph(data_path.read_text(encoding="utf-8"), format="turtle")
    if backend == "memory":
        return parsed
    # A deliberately tiny write buffer forces multiple on-disk segments,
    # so queries exercise the segment binary-search path, not the buffer.
    graph = Graph(store=SegmentStore(tmp_path / "store", buffer_limit=8))
    graph.add_all(parsed)
    graph.flush()
    return graph


def _expected_fixture(name: str):
    json_path = CASES_DIR / f"{name}.expected.json"
    ttl_path = CASES_DIR / f"{name}.expected.ttl"
    if json_path.exists():
        return json.loads(json_path.read_text(encoding="utf-8"))
    if ttl_path.exists():
        return {"type": "construct", "graph": ttl_path.read_text(encoding="utf-8")}
    raise FileNotFoundError(f"conformance case {name} has no expected fixture")


def _normalise_term_text(text: str) -> str:
    # Blank-node labels are evaluator artefacts; compare them anonymously.
    return "_:b" if text.startswith("_:") else text


def _rows(result: ResultSet):
    rows = []
    for binding in result.bindings:
        row = {}
        for variable, term in binding.items():
            row[variable.name] = _normalise_term_text(term.n3())
        rows.append(row)
    return rows


def _canonical(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def _check_select(result: ResultSet, expected) -> None:
    got = _rows(result)
    if "cardinality" in expected:
        assert len(got) == expected["cardinality"]
        pool = {tuple(sorted(row.items())) for row in expected["subset_of"]}
        for row in got:
            assert tuple(sorted(row.items())) in pool, f"unexpected row {row}"
        return
    want = expected["rows"]
    if expected.get("ordered"):
        assert got == want
    else:
        assert _canonical(got) == _canonical(want)


def _check(result, expected) -> None:
    kind = expected["type"]
    if kind == "select":
        assert isinstance(result, ResultSet)
        _check_select(result, expected)
    elif kind == "ask":
        assert isinstance(result, AskResult)
        assert bool(result) == expected["boolean"]
    elif kind == "construct":
        assert isinstance(result, Graph)
        assert isomorphic(result, parse_graph(expected["graph"], format="turtle"))
    else:  # pragma: no cover - fixture authoring error
        raise ValueError(f"unknown fixture type {kind!r}")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_conformance_case(name: str, engine: str, backend: str, tmp_path: Path) -> None:
    graph = _load_case_graph(name, backend, tmp_path)
    query = parse_query((CASES_DIR / f"{name}.rq").read_text(encoding="utf-8"))
    evaluator = QueryEvaluator(graph, engine=engine)
    _check(evaluator.evaluate(query), _expected_fixture(name))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_conformance_case_without_analysis(
    name: str, engine: str, backend: str, tmp_path: Path
) -> None:
    """With the static analyzer off, the unpruned query answers the same.

    The analyzer folds constant FILTERs and prunes provably-empty queries
    before evaluation; running every case on the raw query as well shows
    that rewriting never changes an answer.
    """
    graph = _load_case_graph(name, backend, tmp_path)
    query = parse_query((CASES_DIR / f"{name}.rq").read_text(encoding="utf-8"))
    evaluator = QueryEvaluator(graph, engine=engine, analysis=False)
    _check(evaluator.evaluate(query), _expected_fixture(name))


#: ``{case: {"explain": lines, "analyze": lines}}``: the EXPLAIN text and
#: the EXPLAIN ANALYZE operator tree (timings stripped) of every case.
PLANS = json.loads((Path(__file__).parent / "plans.json").read_text(encoding="utf-8"))


def _plan_lines(text: str) -> list[str]:
    # Parser-assigned blank-node labels depend on how many queries were
    # parsed before; wall-clock timings depend on the machine.
    text = re.sub(r"_:anon\d+", "_:anon", text)
    return re.sub(r", [0-9.]+ ms\)", ")", text).split("\n")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_explain_text_is_pinned(name: str, backend: str, tmp_path: Path) -> None:
    """EXPLAIN renders the pinned plan, on either store."""
    graph = _load_case_graph(name, backend, tmp_path)
    query = parse_query((CASES_DIR / f"{name}.rq").read_text(encoding="utf-8"))
    explain = QueryEvaluator(graph).explain(query)
    assert _plan_lines(explain) == PLANS[name]["explain"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_analyze_answers_and_runs_the_pinned_tree(
    name: str, backend: str, tmp_path: Path
) -> None:
    """EXPLAIN ANALYZE assembles its own result from the compiled plan: it
    must match the fixture, and the executed operator tree, with its row
    and batch counters, must match the pinned one."""
    graph = _load_case_graph(name, backend, tmp_path)
    query = parse_query((CASES_DIR / f"{name}.rq").read_text(encoding="utf-8"))
    result, event = QueryEvaluator(graph).analyze(query)
    _check(result, _expected_fixture(name))
    assert _plan_lines(event.plan) == PLANS[name]["analyze"]


#: What ANALYZE adds to an EXPLAIN line: the runtime notes, then the
#: counters of the run.
_ANALYZE_ADDITIONS = re.compile(
    r"( adaptive)?( \[(row budget \d+|first \d+ skipped on ids)"
    r"(, first \d+ skipped on ids)?\])?"
    r"  \(rows \d+ -> \d+, batches \d+, [0-9.]+ ms\)$"
)


def explained_tree(report: str) -> list[str]:
    """An ANALYZE report with its runtime notes and counters stripped."""
    return [_ANALYZE_ADDITIONS.sub("", line) for line in report.split("\n")]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_explain_and_analyze_print_one_tree(name: str, backend: str, tmp_path: Path) -> None:
    """ANALYZE runs the tree EXPLAIN prints, node for node."""
    graph = _load_case_graph(name, backend, tmp_path)
    query = parse_query((CASES_DIR / f"{name}.rq").read_text(encoding="utf-8"))
    evaluator = QueryEvaluator(graph)
    explain = evaluator.explain(query).split("\n")
    _, event = evaluator.analyze(query)
    assert explained_tree(event.plan) == explain[1:]


def test_every_case_has_pinned_plans() -> None:
    assert sorted(PLANS) == CASE_NAMES


@pytest.mark.parametrize("name", CASE_NAMES)
def test_expected_diagnostics(name: str) -> None:
    """Every case's static-analysis findings are pinned next to it.

    A ``<name>.diagnostics.json`` fixture lists the expected findings as
    ``{code, severity, line}`` entries; a case without the fixture must
    analyze clean.  This keeps the analyzer's output on the corpus under
    version control: a new or vanished diagnostic is a reviewable diff,
    not a silent behaviour change.
    """
    from repro.sparql.analysis import DIAGNOSTIC_CODES, analyze_query

    query = parse_query((CASES_DIR / f"{name}.rq").read_text(encoding="utf-8"))
    analysis = analyze_query(query)
    got = [
        {"code": d.code, "severity": d.severity, "line": d.span.line}
        for d in analysis.diagnostics
    ]
    fixture = CASES_DIR / f"{name}.diagnostics.json"
    want = json.loads(fixture.read_text(encoding="utf-8")) if fixture.exists() else []
    assert got == want
    for entry in want:
        assert entry["severity"] == DIAGNOSTIC_CODES[entry["code"]][0]


def test_corpus_is_big_enough() -> None:
    """The corpus must keep covering the advertised breadth (>= 25 cases)."""
    assert len(CASE_NAMES) >= 25


def test_every_case_has_exactly_one_fixture() -> None:
    for name in CASE_NAMES:
        json_exists = (CASES_DIR / f"{name}.expected.json").exists()
        ttl_exists = (CASES_DIR / f"{name}.expected.ttl").exists()
        assert json_exists != ttl_exists, f"case {name} needs exactly one fixture"
