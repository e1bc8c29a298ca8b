"""Unit tests for federated execution and result merging."""

import threading

import pytest

from repro.federation import (
    ExecutionPolicy,
    LocalSparqlEndpoint,
    recall,
)

from .test_decompose import EX, build_federation, triple
from .workers import one_worker



class TestMetrics:
    def test_recall(self):
        assert recall({1, 2}, {1, 2, 3, 4}) == 0.5
        assert recall(set(), {1}) == 0.0
        assert recall({1}, set()) == 1.0


class TestFederatedExecution:
    def coauthor_query(self, scenario, person_key):
        person_uri = scenario.akt_person_uri(person_key)
        return f"""
        PREFIX akt:<http://www.aktors.org/ontology/portal#>
        SELECT DISTINCT ?a WHERE {{
          ?paper akt:has-author <{person_uri}> .
          ?paper akt:has-author ?a .
          FILTER (!(?a = <{person_uri}>))
        }}
        """

    def test_every_dataset_queried(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        result = small_scenario.service.federate(
            self.coauthor_query(small_scenario, person),
            source_ontology=small_scenario.source_ontology,
            source_dataset=small_scenario.rkb_dataset,
        )
        assert len(result.per_dataset) == 3
        assert not result.failed_datasets()

    def test_restricting_datasets(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        result = small_scenario.service.federate(
            self.coauthor_query(small_scenario, person),
            source_ontology=small_scenario.source_ontology,
            source_dataset=small_scenario.rkb_dataset,
            datasets=[small_scenario.rkb_dataset, small_scenario.kisti_dataset],
        )
        assert len(result.per_dataset) == 2

    def test_source_dataset_receives_unrewritten_query(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        result = small_scenario.service.federate(
            self.coauthor_query(small_scenario, person),
            source_ontology=small_scenario.source_ontology,
            source_dataset=small_scenario.rkb_dataset,
        )
        rkb_entry = next(e for e in result.per_dataset
                         if e.dataset_uri == small_scenario.rkb_dataset)
        assert rkb_entry.mediation is None
        kisti_entry = next(e for e in result.per_dataset
                           if e.dataset_uri == small_scenario.kisti_dataset)
        assert kisti_entry.mediation is not None

    def test_merged_results_are_canonicalised_and_deduplicated(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        result = small_scenario.service.federate(
            self.coauthor_query(small_scenario, person),
            source_ontology=small_scenario.source_ontology,
            source_dataset=small_scenario.rkb_dataset,
            mode="filter-aware",
        )
        merged_values = result.distinct_values("a")
        # Every merged URI is in the RKB URI space (the canonical space).
        assert all("southampton" in str(value) for value in merged_values)
        # Merged row count never exceeds the raw total.
        assert len(result.merged()) <= result.total_rows

    def test_federation_raises_recall_over_single_source(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        query = self.coauthor_query(small_scenario, person)
        gold = small_scenario.gold_coauthor_uris(person)

        local = small_scenario.endpoint(small_scenario.rkb_dataset).select(query)
        federated = small_scenario.service.federate(
            query,
            source_ontology=small_scenario.source_ontology,
            source_dataset=small_scenario.rkb_dataset,
            mode="filter-aware",
        )
        local_recall = recall(local.distinct_values("a"), gold)
        federated_recall = recall(federated.distinct_values("a"), gold)
        assert federated_recall >= local_recall
        assert federated_recall > 0.5

    def test_unavailable_endpoint_reported_not_fatal(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        endpoint = small_scenario.endpoint(small_scenario.dbpedia_dataset)
        endpoint.available = False
        try:
            result = small_scenario.service.federate(
                self.coauthor_query(small_scenario, person),
                source_ontology=small_scenario.source_ontology,
                source_dataset=small_scenario.rkb_dataset,
            )
            assert small_scenario.dbpedia_dataset in result.failed_datasets()
            assert sum(entry.succeeded for entry in result.per_dataset) == 2
            assert result.merged_bindings  # the others still contribute
        finally:
            endpoint.available = True

    def test_result_variables_follow_projection(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        result = small_scenario.service.federate(
            self.coauthor_query(small_scenario, person),
            source_ontology=small_scenario.source_ontology,
            source_dataset=small_scenario.rkb_dataset,
        )
        assert [v.name for v in result.variables] == ["a"]


class _RecordingEndpoint(LocalSparqlEndpoint):
    """Records the thread every call arrives on."""

    def __init__(self, inner: LocalSparqlEndpoint, threads: list[str]) -> None:
        super().__init__(inner.uri, inner.graph, name=inner.name)
        self.threads = threads

    def select(self, query):
        self.threads.append(threading.current_thread().name)
        return super().select(query)

    def ask(self, query):
        self.threads.append(threading.current_thread().name)
        return super().ask(query)


def _three_sources():
    """Three datasets that all hold ``p`` (a one-pattern unit over all three)."""
    return build_federation({
        name: [triple(f"{name}-s{i}", "p", f"o{i}") for i in range(3)]
        for name in ("a", "b", "c")
    })


SELECT_P = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"


class TestOnePlanPath:
    """Both strategies run as a plan on one executor."""

    def test_fanout_counts_one_request_per_contacted_dataset(self):
        service = _three_sources()
        outcome = service.federate(SELECT_P)
        assert [entry.requests for entry in outcome.per_dataset] == [1, 1, 1]
        assert outcome.total_requests == 3
        assert outcome.endpoints_contacted == 3
        _, event = service.analyze(SELECT_P)
        assert [entry["requests"] for entry in event.endpoints] == [1, 1, 1]

    def test_fanout_is_one_whole_query_unit_and_analyze_shows_its_tree(self):
        service = _three_sources()
        outcome, event = service.analyze(SELECT_P)
        [unit] = outcome.decomposition.units
        assert unit.sources == [dataset.uri for dataset in service.registry]
        assert not outcome.decomposition.decomposed
        assert event.engine == "federate-fanout"
        assert [line.split("  (")[0].strip() for line in event.plan.splitlines()] == [
            "Distinct",
            "Project (?s ?o)",
            "Canonicalise URIs",
            f"Unit [whole query; seed scan; est=0.0] <- {EX}a, {EX}b, {EX}c",
        ]
        assert event.rows == len(outcome.merged()) == 9

    @pytest.mark.parametrize("strategy", ["fanout", "decompose"])
    def test_one_worker_keeps_every_call_on_the_calling_thread(self, strategy):
        service = _three_sources()
        threads: list[str] = []
        for dataset in list(service.registry):
            service.registry.register_endpoint(
                dataset.description, _RecordingEndpoint(dataset.endpoint, threads)
            )
        with one_worker(service):
            outcome = service.federate(SELECT_P, strategy=strategy)
        assert len(outcome.merged()) == 9
        assert threads and set(threads) == {threading.current_thread().name}
        threads.clear()
        service.federate(SELECT_P, strategy=strategy)
        assert any(name.startswith("federate") for name in threads)

    @pytest.mark.parametrize("strategy", ["fanout", "decompose"])
    @pytest.mark.parametrize("form", [
        f"ASK {{ ?s <{EX}p> ?o }}",
        f"CONSTRUCT {{ ?s <{EX}q> ?o }} WHERE {{ ?s <{EX}p> ?o }}",
    ])
    def test_non_select_is_refused_before_any_endpoint_is_contacted(self, form, strategy):
        service = _three_sources()
        service.registry.default_policy = ExecutionPolicy(failure_threshold=1)

        def observed():
            return (
                {str(uri): str(state) for uri, state in service.registry.health().items()},
                [dataset.endpoint.statistics.as_dict() for dataset in service.registry],
            )

        before = observed()
        for call in (service.federate, service.analyze, service.explain):
            with pytest.raises(ValueError, match="only SELECT queries"):
                call(form, strategy=strategy)
        assert observed() == before
        # The breakers stayed closed: the next SELECT is answered in full.
        assert len(service.federate(SELECT_P, strategy=strategy).merged()) == 9

    @pytest.mark.parametrize("entry_point", ["federate", "analyze", "explain"])
    def test_unknown_strategy_is_refused_by_every_entry_point(self, entry_point):
        service = _three_sources()
        with pytest.raises(ValueError, match="unknown federation strategy: 'bogus'"):
            getattr(service, entry_point)(SELECT_P, strategy="bogus")
