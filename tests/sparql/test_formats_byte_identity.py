"""Result documents are byte-stable: the writers changed, the bytes did not.

The writers assemble documents from the result set's term rows instead of
walking a dict tree through ``json.dumps(..., indent=2)``.  Response size
feeds straight into loopback latency (a body just above or below one
segment takes a different path through Nagle/delayed ACK), so the bytes
are part of the contract:

* JSON must equal what ``json.dumps(result.to_json_dict(), indent=2,
  ensure_ascii=False) + "\\n"`` prints — the old writer, kept here as the
  oracle — for random result sets and ASK results,
* XML/CSV/TSV (and JSON again) must equal what the parent commit wrote
  for the E15 query shapes, pinned in ``golden/e15_parent_outputs.json``,
* a row-backed and a binding-backed result set of the same solutions are
  indistinguishable through the writers and through ``.bindings``,
* every document still parses back.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import BNode, Graph, Literal, Triple, URIRef, Variable, XSD
from repro.sparql import ENGINES, AskResult, Binding, QueryEvaluator, ResultSet, parse_query
from repro.sparql.analysis import analyze_query
from repro.sparql.formats import parse_results, write_results

from .test_formats_roundtrip import bnodes, lang_literals, terms as xml_safe_terms, uris

GOLDEN = Path(__file__).parent / "golden" / "e15_parent_outputs.json"
FORMATS = ("json", "xml", "csv", "tsv")


def json_oracle(result: ResultSet | AskResult) -> str:
    """The writer this repository used to have, verbatim."""
    if isinstance(result, AskResult):
        payload: dict[str, object] = {"head": {}, "boolean": result.value}
    else:
        payload = result.to_json_dict()
    if result.diagnostics:
        payload["diagnostics"] = [d.to_json_dict() for d in result.diagnostics]
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
# Everything a JSON string escaper has to get right: control characters
# (short escapes and \u00XX), quotes, backslashes, DEL, non-ASCII, astral.
_wild_text = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from(['"', "\\", "/", "\x00", "\x08", "\x0c", "\x1f", "\x7f",
                         "\n", "\r", "\t", "é", " ", "\U0001F600", "\U0010FFFF"]),
    ),
    max_size=16,
)
wild_terms = st.one_of(
    uris,
    bnodes,
    lang_literals,
    st.builds(Literal, _wild_text),
    st.builds(lambda lex, lang: Literal(lex, lang=lang), _wild_text, st.sampled_from(["en", "de-at"])),
    st.builds(lambda lex: Literal(lex, datatype=XSD.token), _wild_text),
    st.builds(Literal, st.integers(min_value=-10**6, max_value=10**6)),
)

#: Real analyzer output to attach: a warning with a hint, one without, an error.
_DIAGNOSTIC_SETS = [
    [],
    analyze_query(parse_query("SELECT ?s WHERE { ?s ?p ?o FILTER(1 = 2) }")).diagnostics,
    analyze_query(parse_query(
        "SELECT ?nope ?s WHERE { ?s <http://x/p> ?o . ?a <http://x/q> ?b }"
    )).diagnostics,
]
assert all(_DIAGNOSTIC_SETS[1:])


@st.composite
def solution_tables(draw, cell=wild_terms, min_vars=0):
    """``(variables, rows, diagnostics)``: zero variables, zero rows and
    rows with no bound cell all included."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]),
                          min_size=min_vars, max_size=4, unique=True))
    variables = [Variable(name) for name in names]
    rows = draw(st.lists(
        st.one_of(
            st.just((None,) * len(names)),
            st.tuples(*[st.one_of(st.none(), cell)] * len(names)),
        ),
        max_size=6,
    ))
    return variables, rows, draw(st.sampled_from(_DIAGNOSTIC_SETS))


def both_backings(variables, rows, diagnostics) -> tuple[ResultSet, ResultSet]:
    row_backed = ResultSet.from_rows(variables, list(rows))
    binding_backed = ResultSet(variables, [
        Binding({v: t for v, t in zip(variables, row, strict=True) if t is not None})
        for row in rows
    ])
    row_backed.diagnostics = list(diagnostics)
    binding_backed.diagnostics = list(diagnostics)
    return row_backed, binding_backed


# ---------------------------------------------------------------------- #
# JSON against the old writer
# ---------------------------------------------------------------------- #
@settings(max_examples=300, deadline=None)
@given(solution_tables())
def test_json_is_byte_identical_to_the_dict_tree_writer(table):
    for result in both_backings(*table):
        assert write_results(result, "json") == json_oracle(result)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("diagnostics", _DIAGNOSTIC_SETS)
def test_ask_json_is_byte_identical(value, diagnostics):
    result = AskResult(value)
    result.diagnostics = list(diagnostics)
    assert write_results(result, "json") == json_oracle(result)


def test_json_layout_corner_cases():
    x = Variable("x")
    assert write_results(ResultSet([], []), "json") == (
        '{\n  "head": {\n    "vars": []\n  },\n'
        '  "results": {\n    "bindings": []\n  }\n}\n'
    )
    all_unbound = ResultSet.from_rows([x], [(None,)])
    assert '"bindings": [\n      {}\n    ]' in write_results(all_unbound, "json")
    lang_wins = write_results(ResultSet.from_rows([x], [(Literal("a", lang="en"),)]), "json")
    assert '"xml:lang": "en"' in lang_wins and "datatype" not in lang_wins
    # A repeated projection variable is one key of the row object, as in a dict.
    twice = ResultSet.from_rows([x, x], [(URIRef("http://x/a"), URIRef("http://x/a"))])
    assert write_results(twice, "json") == json_oracle(twice)


# ---------------------------------------------------------------------- #
# Row-backed == binding-backed, and documents still parse back
# ---------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(solution_tables())
def test_backings_are_indistinguishable(table):
    row_backed, binding_backed = both_backings(*table)
    assert len(row_backed) == len(binding_backed)
    assert bool(row_backed) == bool(binding_backed)
    for format_name in FORMATS:
        assert write_results(row_backed, format_name) == write_results(binding_backed, format_name)
    assert row_backed.to_json_dict() == binding_backed.to_json_dict()
    assert row_backed.to_dicts() == binding_backed.to_dicts()
    assert row_backed.to_table() == binding_backed.to_table()
    # Reading .bindings switches the backing; nothing observable changes.
    assert row_backed.bindings == binding_backed.bindings
    assert row_backed.bindings is row_backed.bindings
    assert list(row_backed) == binding_backed.bindings
    assert row_backed.rows == binding_backed.rows
    for format_name in FORMATS:
        assert write_results(row_backed, format_name) == write_results(binding_backed, format_name)


@settings(max_examples=150, deadline=None)
@given(solution_tables(cell=xml_safe_terms, min_vars=1))
def test_row_backed_documents_round_trip(table):
    variables, rows, diagnostics = table
    result, reference = both_backings(variables, rows, diagnostics)
    for format_name in ("json", "xml", "tsv"):
        parsed = parse_results(write_results(result, format_name), format_name)
        assert parsed.variables == variables
        assert parsed.bindings == reference.bindings
    document = write_results(result, "csv")
    assert write_results(parse_results(document, "csv"), "csv") == document


# ---------------------------------------------------------------------- #
# The parent commit's bytes for the E15 query shapes
# ---------------------------------------------------------------------- #
_V = "http://e15.example/v#"
_E = "http://e15.example/e/"
_PREFIX = f"PREFIX e: <{_V}>\n"


def e15_graph() -> Graph:
    """A miniature of E15's entity graph, with the term kinds it lacks
    (language tags, typed literals, blank nodes, characters to escape)."""
    graph = Graph()
    predicate = {name: URIRef(_V + name) for name in ("group", "rank", "knows", "name", "note")}
    for index in range(40):
        entity = URIRef(f"{_E}{index:05d}")
        graph.add(Triple(entity, predicate["group"], URIRef(f"http://e15.example/group/{index % 5}")))
        graph.add(Triple(entity, predicate["rank"], URIRef(f"http://e15.example/rank/{index % 3}")))
        graph.add(Triple(entity, predicate["knows"], URIRef(f"{_E}{(index * 7 + 3) % 40:05d}")))
        if index % 4 == 0:
            name = Literal(f"entité {index:05d}", lang="fr")
        elif index % 7 == 0:
            name = Literal(f'say "hi",\tok & <b>\r\n{index}\\')
        elif index % 9 == 0:
            name = Literal(index)
        else:
            name = Literal(f"entity {index:05d}")
        graph.add(Triple(entity, predicate["name"], name))
        if index % 6 == 0:
            graph.add(Triple(entity, predicate["note"], BNode(f"n{index}")))
    return graph


E15_SHAPES = {
    "lookup": f"SELECT ?p ?o WHERE {{ <{_E}00012> ?p ?o }}",
    "limit": f"{_PREFIX}SELECT ?s ?o WHERE {{ ?s e:knows ?o }} LIMIT 5 OFFSET 17",
    "star": (f"{_PREFIX}SELECT ?e ?n WHERE {{ ?e e:group <http://e15.example/group/1> . "
             "?e e:rank <http://e15.example/rank/0> . ?e e:name ?n }"),
    "scan": f"{_PREFIX}SELECT ?e ?n WHERE {{ ?e e:group <http://e15.example/group/0> . ?e e:name ?n }}",
    "path": (f"{_PREFIX}SELECT ?a ?b ?n WHERE {{ ?a e:group <http://e15.example/group/2> . "
             "?a e:knows ?b . ?b e:name ?n }"),
    "path2": (f"{_PREFIX}SELECT ?a ?c ?n WHERE {{ ?a e:group <http://e15.example/group/3> . "
              "?a e:knows ?b . ?b e:knows ?c . ?c e:name ?n }"),
    "coauthor": (f"{_PREFIX}SELECT DISTINCT ?a WHERE {{ ?x e:knows <{_E}00003> . ?x e:group ?g . "
                 f"?a e:group ?g FILTER (!(?a = <{_E}00000>)) }}"),
    # Not an E15 shape: the only one with unbound cells and blank nodes.
    "optional": (f"{_PREFIX}SELECT ?e ?n ?note WHERE {{ ?e e:rank <http://e15.example/rank/0> "
                 "OPTIONAL { ?e e:note ?note } OPTIONAL { ?e e:missing ?n } }"),
    "empty": f"{_PREFIX}SELECT ?e WHERE {{ ?e e:group <http://e15.example/group/99> }}",
    "ask": f"{_PREFIX}ASK {{ ?e e:group <http://e15.example/group/4> }}",
}


def e15_documents(engine: str = "planner") -> dict[str, dict[str, str]]:
    """``{shape: {format: document}}`` as this checkout writes them."""
    evaluator = QueryEvaluator(e15_graph(), engine=engine)
    documents: dict[str, dict[str, str]] = {}
    for shape, text in E15_SHAPES.items():
        result = evaluator.evaluate(text)
        formats = ("json", "xml") if isinstance(result, AskResult) else FORMATS
        documents[shape] = {name: write_results(result, name) for name in formats}
    return documents


@pytest.mark.parametrize("engine", ENGINES)
def test_documents_match_the_parent_commit(engine):
    """``golden/e15_parent_outputs.json`` is ``{engine: e15_documents(engine)}``
    as written by the commit before the writers changed, for the two batched
    engines of that commit; both wrote the same bytes, and every engine of
    this checkout must still write them."""
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))["planner"]
    written = e15_documents(engine)
    assert written.keys() == pinned.keys()
    for shape, documents in written.items():
        assert documents == pinned[shape], shape
