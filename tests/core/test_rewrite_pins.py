"""Mediator rewrites pinned case by case, for both modes and both targets.

Every case of ``rewrite_pins.json`` is one source query translated by
:meth:`Mediator.translate` for the KISTI and the DBpedia dataset of the
E6/E7/E9 scenario, once under ``bgp`` (the paper's Algorithm 1) and once
under ``filter-aware`` (Algorithm 1 plus the FILTER pass).  The corpus is
the paper's Figure 1 and Figure 6 queries, the E6/E7/E9 scenario queries,
the three AKT request texts of E15's ``mediate_fanout`` workload, AKT
queries with FILTERs inside OPTIONAL and UNION, and every query of
``tests/sparql/conformance/cases``.  Per run the fixture pins:

* the rewritten query text;
* ``matched_count`` and ``unmatched_count`` of the rewrite report;
* ``function_calls``;
* the identifiers of the alignments that fired, one per matched triple
  pattern, in rewrite order.

Parser-assigned blank-node labels (a process-wide counter) are renumbered
in order of appearance, so a case does not depend on which ran before.

To re-pin after a deliberate behaviour change, run this file as a script
(``PYTHONPATH=src python tests/core/test_rewrite_pins.py``) and review the
diff of ``rewrite_pins.json``.

Two AKT cases are pinned under ``bgp`` only: a FILTER equality inside a
UNION branch or an OPTIONAL specialises the triples blocks of that group
alone, which ``test_filter_rewriter.py::TestScopedPromotion`` checks
against the data instead.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from pathlib import Path

import pytest

from repro.datasets import build_resist_scenario

PINS_PATH = Path(__file__).with_name("rewrite_pins.json")
CONFORMANCE_CASES = Path(__file__).parents[1] / "sparql" / "conformance" / "cases"

MODES = ("bgp", "filter-aware")
TARGETS = ("kisti", "dbpedia")
#: Cases whose ``filter-aware`` rewrite depends on where promotion is scoped.
BGP_ONLY = frozenset({"akt_union_equality", "akt_optional_inner_equality"})

_AKT = "PREFIX akt:<http://www.aktors.org/ontology/portal#>\n"
_ID = "PREFIX id:<http://southampton.rkbexplorer.com/id/>\n"

FIGURE_1 = _ID + _AKT + """SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author id:person-02686 .
  ?paper akt:has-author ?a .
  FILTER (!(?a = id:person-02686))
}"""

FIGURE_6 = _ID + _AKT + """SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author ?n .
  ?paper akt:has-author ?a .
  FILTER (!(?a = id:person-02686) && (?n = id:person-02686))
}"""


@functools.lru_cache(maxsize=None)
def _scenario():
    """The benchmark scenario of E6, E7 and E9."""
    return build_resist_scenario(
        n_persons=40, n_papers=100, n_projects=6, n_organizations=5,
        rkb_coverage=0.55, kisti_coverage=0.6, dbpedia_coverage=0.35, seed=2010,
    )


def _coauthor(uri: str) -> str:
    """The co-author query of E6, E7 (Figure 1 phrasing), E9 and E15."""
    return (f"{_AKT}SELECT DISTINCT ?a WHERE {{\n"
            f"  ?paper akt:has-author <{uri}> .\n"
            f"  ?paper akt:has-author ?a .\n"
            f"  FILTER (!(?a = <{uri}>))\n}}")


def _coauthor_filter(uri: str) -> str:
    """The Figure 6 phrasing used by E7 and E15."""
    return (f"{_AKT}SELECT DISTINCT ?a WHERE {{\n"
            f"  ?paper akt:has-author ?n .\n"
            f"  ?paper akt:has-author ?a .\n"
            f"  FILTER (!(?a = <{uri}>) && (?n = <{uri}>))\n}}")


def _titles(uri: str) -> str:
    """E15's titles request."""
    return (f"{_AKT}SELECT DISTINCT ?paper ?t WHERE {{\n"
            f"  ?paper akt:has-author <{uri}> .\n"
            f"  ?paper akt:has-title ?t\n}}")


@functools.lru_cache(maxsize=None)
def _cases() -> dict[str, str]:
    scenario = _scenario()
    world = scenario.world
    uri = scenario.akt_person_uri
    cases = {"figure1": FIGURE_1, "figure6": FIGURE_6}
    # E6: the five most prolific authors.
    prolific = sorted(world.persons, key=lambda person: -len(world.papers_of(person.key)))
    for rank, person in enumerate(prolific[:5]):
        cases[f"e6_coauthor_{rank}"] = _coauthor(str(uri(person.key)))
    # E7: the KISTI-covered author with most papers, both phrasings.
    covered = sorted(scenario.kisti_builder.covered_person_keys,
                     key=lambda key: -len(world.papers_of(key)))
    cases["e7_figure1"] = _coauthor(str(uri(covered[0])))
    cases["e7_figure6"] = _coauthor_filter(str(uri(covered[0])))
    # E9: max() breaks ties by first occurrence, not by sort order.
    e9_key = max(scenario.kisti_builder.covered_person_keys,
                 key=lambda key: len(world.papers_of(key)))
    cases["e9_coauthor"] = _coauthor(str(uri(e9_key)))
    for rank, key in enumerate(covered[:2]):
        cases[f"e15_coauthor_{rank}"] = _coauthor(str(uri(key)))
        cases[f"e15_coauthor_filter_{rank}"] = _coauthor_filter(str(uri(key)))
        cases[f"e15_titles_{rank}"] = _titles(str(uri(key)))
    p, q = (f"<{uri(key)}>" for key in covered[:2])
    cases["akt_optional_filter"] = (
        f"{_AKT}SELECT * WHERE {{ ?paper akt:has-author ?n . "
        f"OPTIONAL {{ ?paper akt:has-author ?a FILTER(?a != {p}) }} FILTER(?n = {p}) }}")
    cases["akt_union_titles"] = (
        f"{_AKT}SELECT * WHERE {{ {{ ?x akt:has-author {p} }} UNION "
        f"{{ ?x akt:has-title ?t FILTER(?x != {q}) }} }}")
    cases["akt_union_equality"] = (
        f"{_AKT}SELECT * WHERE {{ {{ ?x akt:has-author ?n FILTER(?n = {p}) }} UNION "
        f"{{ ?x akt:has-author ?n FILTER(?n = {q}) }} }}")
    cases["akt_optional_inner_equality"] = (
        f"{_AKT}SELECT * WHERE {{ ?paper akt:has-author ?a . "
        f"OPTIONAL {{ ?paper akt:has-title ?t FILTER(?a = {p}) }} }}")
    for path in sorted(CONFORMANCE_CASES.glob("*.rq")):
        cases[f"conformance_{path.stem}"] = path.read_text(encoding="utf-8")
    return cases


def record(case: str, target: str, mode: str) -> dict:
    scenario = _scenario()
    dataset = {"kisti": scenario.kisti_dataset, "dbpedia": scenario.dbpedia_dataset}[target]
    result = scenario.service.mediator.translate(
        _cases()[case], dataset, source_ontology=scenario.source_ontology, mode=mode,
    )
    report = result.report
    labels: dict[str, str] = {}
    text = re.sub(r"_:anon\d+",
                  lambda found: labels.setdefault(found.group(), f"_:anon{len(labels)}"),
                  result.query_text)
    return {
        "text": text,
        "matched_count": report.matched_count,
        "unmatched_count": report.unmatched_count,
        "function_calls": report.function_calls,
        "fired": [str(entry.alignment.identifier)
                  for entry in report.rewrites if entry.alignment is not None],
    }


def _key(case: str, target: str, mode: str) -> str:
    return f"{case}/{target}/{mode}"


def _all_keys() -> list[tuple[str, str, str]]:
    return [(case, target, mode) for case in sorted(_cases())
            for target in TARGETS for mode in MODES
            if mode == "bgp" or case not in BGP_ONLY]


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_every_rewrite_is_pinned(pins):
    assert sorted(pins) == sorted(_key(*key) for key in _all_keys())


@pytest.mark.parametrize(("case", "target", "mode"), _all_keys(), ids=lambda part: part)
def test_rewrite_is_pinned(case, target, mode, pins):
    assert record(case, target, mode) == pins[_key(case, target, mode)]


if __name__ == "__main__":
    pinned = {_key(*key): record(*key) for key in _all_keys()}
    PINS_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} pinned rewrites to {PINS_PATH}", file=sys.stderr)
