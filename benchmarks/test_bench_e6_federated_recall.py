"""E6 — the recall motivation of the introduction.

"The data repositories can contain redundant data, therefore it is
important to query all the available repositories in order to increase the
recall of the information retrieval task."  This benchmark measures recall
of the co-author query under three strategies — single source, naive
(no-rewriting) federation, mediated (rewriting) federation — against the
world-model gold standard, for several query subjects.
"""

import statistics

from benchmarks.baselines import IdentityFederation
from repro.federation import recall

from .conftest import report


def _coauthor_query(scenario, person_uri) -> str:
    return f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author <{person_uri}> .
      ?paper akt:has-author ?a .
      FILTER (!(?a = <{person_uri}>))
    }}
    """


def _query_subjects(scenario, count: int = 5):
    """The most prolific authors (they have non-trivial gold co-author sets)."""
    by_papers = sorted(
        scenario.world.persons,
        key=lambda person: -len(scenario.world.papers_of(person.key)),
    )
    return [person.key for person in by_papers[:count]]


def test_bench_e6_recall_comparison(benchmark, scenario):
    subjects = _query_subjects(scenario)

    def run_all():
        outcome = []
        for person_key in subjects:
            person_uri = scenario.akt_person_uri(person_key)
            query = _coauthor_query(scenario, person_uri)
            gold = scenario.gold_coauthor_uris(person_key)

            single = scenario.endpoint(scenario.rkb_dataset).select(query)
            naive = IdentityFederation(scenario.registry).execute(query)
            federated = scenario.service.federate(
                query,
                source_ontology=scenario.source_ontology,
                source_dataset=scenario.rkb_dataset,
                mode="filter-aware",
            )
            outcome.append((
                person_key,
                len(gold),
                recall(single.distinct_values("a"), gold),
                recall(naive.distinct_values("a"), gold),
                recall(federated.distinct_values("a"), gold),
            ))
        return outcome

    outcome = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (key, gold_size, f"{r_single:.2f}", f"{r_naive:.2f}", f"{r_federated:.2f}")
        for key, gold_size, r_single, r_naive, r_federated in outcome
    ]
    mean_single = statistics.mean(row[2] for row in outcome)
    mean_naive = statistics.mean(row[3] for row in outcome)
    mean_federated = statistics.mean(row[4] for row in outcome)
    rows.append(("mean", "-", f"{mean_single:.2f}", f"{mean_naive:.2f}", f"{mean_federated:.2f}"))

    report(
        "E6: co-author recall — single source vs naive vs rewriting federation",
        rows,
        headers=("person", "gold co-authors", "RKB only", "no rewriting", "rewriting federation"),
    )

    # Shape of the claim: rewriting federation dominates, naive federation
    # adds nothing over the single source.
    assert mean_federated > mean_single
    assert abs(mean_naive - mean_single) < 1e-9
    assert mean_federated >= mean_single + 0.1


def test_bench_e6_per_dataset_contribution(benchmark, scenario):
    """How many co-author rows each repository contributes after rewriting."""
    person_key = _query_subjects(scenario, 1)[0]
    person_uri = scenario.akt_person_uri(person_key)
    federated = benchmark(
        scenario.service.federate,
        _coauthor_query(scenario, person_uri),
        scenario.source_ontology,
        scenario.rkb_dataset,
        "filter-aware",
    )
    rows = [
        (str(entry.dataset_uri), entry.row_count, "ok" if entry.succeeded else entry.error)
        for entry in federated.per_dataset
    ]
    rows.append(("merged (distinct entities)", len(federated.merged()), ""))
    report(
        "E6: per-dataset contribution for one query subject",
        rows,
        headers=("dataset", "rows", "status"),
    )
    assert sum(entry.row_count for entry in federated.per_dataset) >= len(federated.merged())
