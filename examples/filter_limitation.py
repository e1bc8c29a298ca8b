"""The FILTER limitation of Figure 6 — and how the FILTER pass fixes it.

Section 4 explains the main limitation of BGP-level rewriting: the same
constraint can be written inside the graph pattern (Figure 1) or inside a
FILTER (Figure 6), and "part of the information needed for a correct
rewriting [is] put in a part of the query that is not considered by the
algorithm".  The co-author URI mentioned only in the FILTER is never
translated into the KISTI URI space, so the rewritten query returns
nothing useful.

This example runs both phrasings of the query against the synthetic KISTI
endpoint in both mediation modes — ``bgp``, the paper's BGP-only rewriting,
and ``filter-aware``, the same rewriter with the FILTER pass Section 4
sketches — and reports how many co-authors each combination retrieves.

Run with::

    python examples/filter_limitation.py
"""

from repro.core import MEDIATION_MODES
from repro.datasets import build_resist_scenario

SCENARIO_PARAMETERS = dict(n_persons=40, n_papers=100, kisti_coverage=0.9, seed=5)


def figure_1_style(person_uri: str) -> str:
    """Constraint expressed in the BGP (Figure 1)."""
    return f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author <{person_uri}> .
      ?paper akt:has-author ?a .
      FILTER (!(?a = <{person_uri}>))
    }}
    """


def figure_6_style(person_uri: str) -> str:
    """The same constraint moved into the FILTER section (Figure 6)."""
    return f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author ?n .
      ?paper akt:has-author ?a .
      FILTER (!(?a = <{person_uri}>) && (?n = <{person_uri}>))
    }}
    """


def main() -> None:
    scenario = build_resist_scenario(**SCENARIO_PARAMETERS)
    person_key = scenario.world.most_prolific_author()
    person_uri = str(scenario.akt_person_uri(person_key))
    kisti = scenario.kisti_dataset
    service = scenario.service

    queries = {
        "Figure 1 (constraint in BGP)": figure_1_style(person_uri),
        "Figure 6 (constraint in FILTER)": figure_6_style(person_uri),
    }
    modes = MEDIATION_MODES

    print(f"Co-authors of {person_uri}, retrieved from the KISTI endpoint\n")
    header = f"{'query phrasing':38s}" + "".join(f"{mode:>15s}" for mode in modes)
    print(header)
    print("-" * len(header))
    for label, query in queries.items():
        cells = []
        for mode in modes:
            response = service.translate_and_run(
                query, kisti, source_ontology=scenario.source_ontology, mode=mode
            )
            # Count distinct co-author bindings excluding the person themselves
            # (the FILTER only removes them when its URI was translated).
            distinct = {row["a"] for row in response.rows}
            cells.append(f"{len(distinct):>15d}")
        print(f"{label:38s}" + "".join(cells))

    print()
    print("With the BGP-only rewriter the Figure 6 query cannot bind ?n to the")
    print("KISTI URI of the author (the URI only occurs in the FILTER), so it")
    print("returns rows for *every* author pair or none that match the intent;")
    print("the FILTER pass translates the URI and agrees with the Figure 1")
    print("phrasing.")


if __name__ == "__main__":
    main()
