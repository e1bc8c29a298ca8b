"""Unit tests for the no-rewriting baseline."""

from benchmarks.baselines import IdentityFederation
from repro.federation import recall


def coauthor_query(scenario, person_key) -> str:
    person_uri = scenario.akt_person_uri(person_key)
    return f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author <{person_uri}> .
      ?paper akt:has-author ?a .
    }}
    """


class TestIdentityFederation:
    def test_only_source_schema_datasets_answer(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        result = IdentityFederation(small_scenario.registry).execute(
            coauthor_query(small_scenario, person)
        )
        rows = result.per_dataset_rows
        assert rows[small_scenario.rkb_dataset] > 0
        assert rows[small_scenario.kisti_dataset] == 0
        assert rows[small_scenario.dbpedia_dataset] == 0

    def test_merged_equals_source_results(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        query = coauthor_query(small_scenario, person)
        baseline = IdentityFederation(small_scenario.registry).execute(query)
        source_only = small_scenario.endpoint(small_scenario.rkb_dataset).select(query)
        assert baseline.distinct_values("a") == source_only.distinct_values("a")

    def test_recall_not_higher_than_mediated_federation(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        query = coauthor_query(small_scenario, person)
        gold = small_scenario.gold_coauthor_uris(person)

        baseline = IdentityFederation(small_scenario.registry).execute(query)
        federated = small_scenario.service.federate(
            query,
            source_ontology=small_scenario.source_ontology,
            source_dataset=small_scenario.rkb_dataset,
            mode="filter-aware",
        )
        baseline_recall = recall(baseline.distinct_values("a"), gold)
        federated_recall = recall(federated.distinct_values("a"), gold)
        assert federated_recall >= baseline_recall

    def test_dataset_restriction(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        result = IdentityFederation(small_scenario.registry).execute(
            coauthor_query(small_scenario, person),
            datasets=[small_scenario.kisti_dataset],
        )
        assert list(result.per_dataset_rows) == [small_scenario.kisti_dataset]
        assert not result.merged_bindings

    def test_unavailable_endpoint_recorded_as_error(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        endpoint = small_scenario.endpoint(small_scenario.kisti_dataset)
        endpoint.available = False
        try:
            result = IdentityFederation(small_scenario.registry).execute(
                coauthor_query(small_scenario, person)
            )
            assert small_scenario.kisti_dataset in result.errors
        finally:
            endpoint.available = True
