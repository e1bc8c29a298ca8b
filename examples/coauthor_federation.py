"""Federated co-author retrieval over the ReSIST-style scenario.

The introduction of the paper motivates query rewriting with recall: the
ReSIST data repositories are redundant, so "it is important to query all
the available repositories in order to increase the recall of the
information retrieval task".  This example builds the synthetic
RKB + KISTI + DBpedia scenario, asks the Figure-1 co-author question for
the busiest author, and compares:

* querying the source (RKB) repository only,
* naively sending the same query to every endpoint (no rewriting),
* federating through the mediator with query rewriting.

Run with::

    python examples/coauthor_federation.py
"""

from repro.datasets import build_resist_scenario
from repro.federation import recall

# Make the source repository hold only part of the world so that the other
# repositories genuinely add information.
SCENARIO_PARAMETERS = dict(
    n_persons=40,
    n_papers=100,
    rkb_coverage=0.55,
    kisti_coverage=0.6,
    dbpedia_coverage=0.35,
    seed=7,
)


def main() -> None:
    scenario = build_resist_scenario(**SCENARIO_PARAMETERS)
    print("Dataset sizes (triples):")
    for uri, size in sorted(scenario.dataset_sizes().items()):
        print(f"  {uri}: {size}")
    print("Alignment KB:", scenario.alignment_store.counts_by_pair())
    print("Co-reference bundles:", scenario.sameas_service.statistics())
    print()

    person_key = scenario.world.most_prolific_author()
    person_uri = scenario.akt_person_uri(person_key)
    gold = scenario.gold_coauthor_uris(person_key)
    query = f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author <{person_uri}> .
      ?paper akt:has-author ?a .
      FILTER (!(?a = <{person_uri}>))
    }}
    """
    print(f"Looking for co-authors of {person_uri}")
    print(f"Ground truth (world model): {len(gold)} co-authors")
    print()

    # 1. Source repository only.
    rkb_only = scenario.endpoint(scenario.rkb_dataset).select(query)
    rkb_values = rkb_only.distinct_values("a")
    print(f"[RKB only]            {len(rkb_values):3d} found, "
          f"recall {recall(rkb_values, gold):.2f}")

    # 2. No rewriting: the same query shipped to every endpoint.
    identity_values: set = set()
    identity_rows = {}
    for dataset in scenario.registry.datasets():
        rows = dataset.endpoint.select(query)
        identity_rows[str(dataset.uri)] = len(rows)
        identity_values |= rows.distinct_values("a")
    print(f"[No rewriting]        {len(identity_values):3d} found, "
          f"recall {recall(identity_values, gold):.2f} "
          f"(per dataset rows: {identity_rows})")

    # 3. Mediated federation with query rewriting (+ FILTER translation).
    federated = scenario.service.federate(
        query,
        source_ontology=scenario.source_ontology,
        source_dataset=scenario.rkb_dataset,
        mode="filter-aware",
    )
    federated_values = federated.distinct_values("a")
    print(f"[Rewriting federation] {len(federated_values):3d} found, "
          f"recall {recall(federated_values, gold):.2f}")
    for entry in federated.per_dataset:
        print(f"    {entry.dataset_uri}: {entry.row_count} rows")

    print()
    print("The rewritten federation recovers co-authors that only appear in the")
    print("KISTI or DBpedia copies of the bibliography — the recall gain that")
    print("motivates the paper's approach.")


if __name__ == "__main__":
    main()
