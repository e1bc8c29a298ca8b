"""E7 — Figure 6 + Section 4: the FILTER limitation and its remedy.

The same co-author constraint can be written in the BGP (Figure 1) or in
the FILTER (Figure 6).  The paper's BGP-only algorithm misses the latter —
"part of the information needed for a correct rewriting [is] put in a part
of the query that is not considered by the algorithm" — and Section 4
proposes one uniform pass over the whole query.  This benchmark runs both
phrasings through the rewriter with its FILTER pass off (``bgp``, the
paper's baseline) and on (``filter-aware``) against the KISTI endpoint and
compares the retrieved co-author sets with the gold standard.
"""

from repro.federation import recall

from .conftest import report

MODES = ["bgp", "filter-aware"]


def _queries(person_uri: str):
    figure1 = f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author <{person_uri}> .
      ?paper akt:has-author ?a .
      FILTER (!(?a = <{person_uri}>))
    }}
    """
    figure6 = f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author ?n .
      ?paper akt:has-author ?a .
      FILTER (!(?a = <{person_uri}>) && (?n = <{person_uri}>))
    }}
    """
    return {"Figure 1 (BGP constraint)": figure1, "Figure 6 (FILTER constraint)": figure6}


def _kisti_gold(scenario, person_key):
    """Co-authors of the person restricted to what the KISTI copy can know."""
    gold = set()
    for paper in scenario.world.papers:
        if paper.key in scenario.kisti_builder.covered_paper_keys and \
                person_key in paper.author_keys:
            gold.update(paper.author_keys)
    gold.discard(person_key)
    return {scenario.kisti_builder.person_uri(key) for key in gold}


def test_bench_e7_filter_limitation(benchmark, scenario):
    # Choose a subject that the KISTI repository actually covers.
    candidates = sorted(
        scenario.kisti_builder.covered_person_keys,
        key=lambda key: -len(scenario.world.papers_of(key)),
    )
    person_key = candidates[0]
    person_uri = scenario.akt_builder.person_uri(person_key)
    gold = _kisti_gold(scenario, person_key)
    queries = _queries(str(person_uri))

    def run_matrix():
        cells = {}
        for query_label, query in queries.items():
            for mode in MODES:
                response = scenario.service.translate_and_run(
                    query, scenario.kisti_dataset,
                    source_ontology=scenario.source_ontology, mode=mode,
                )
                values = {row["a"].strip("<>") for row in response.rows}
                cells[(query_label, mode)] = values
        return cells

    cells = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    rows = []
    recalls = {}
    for query_label in queries:
        row = [query_label]
        for mode in MODES:
            values = {v for v in cells[(query_label, mode)]}
            uris = {u for u in values}
            r = recall({f"<{u}>" for u in uris} and {u for u in uris},
                       {str(g) for g in gold})
            recalls[(query_label, mode)] = r
            row.append(f"{len(values)} rows / recall {r:.2f}")
        rows.append(tuple(row))

    report(
        "E7: Figure 6 FILTER limitation (retrieved from the KISTI endpoint)",
        rows,
        headers=("query phrasing", *MODES),
    )

    figure1 = "Figure 1 (BGP constraint)"
    figure6 = "Figure 6 (FILTER constraint)"
    # BGP-only handles Figure 1 but fails on Figure 6.
    assert recalls[(figure1, "bgp")] > 0.8
    assert recalls[(figure6, "bgp")] == 0.0
    # The FILTER pass recovers the Figure 6 phrasing...
    assert recalls[(figure6, "filter-aware")] > 0.8
    # ...and agrees with the Figure 1 phrasing.
    assert cells[(figure6, "filter-aware")] == cells[(figure1, "filter-aware")]
