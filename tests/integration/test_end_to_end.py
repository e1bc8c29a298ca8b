"""Cross-module integration tests: the whole pipeline on the ReSIST scenario."""

import pytest

from repro.alignment import AlignmentStore
from benchmarks.baselines import IdentityFederation, MaterializationIntegrator
from repro.datasets import (
    RKB_URI_PATTERN,
    akt_to_kisti_alignment,
)
from repro.federation import MediatorService, recall
from repro.sparql import QueryEvaluator

from ..conftest import FIGURE_1_QUERY


class TestTranslationPipeline:
    """Source query -> mediation -> execution on the target endpoint."""

    def test_results_agree_with_native_kisti_query(self, small_scenario):
        """Rewritten AKT query and a hand-written KISTI query return the same rows."""
        scenario = small_scenario
        person = scenario.world.most_prolific_author()
        # The person must be covered by KISTI for the comparison to be fair.
        if person not in scenario.kisti_builder.covered_person_keys:
            person = next(iter(scenario.kisti_builder.covered_person_keys))
        akt_uri = scenario.akt_builder.person_uri(person)
        kisti_uri = scenario.kisti_builder.person_uri(person)

        source_query = f"""
        PREFIX akt:<http://www.aktors.org/ontology/portal#>
        SELECT DISTINCT ?a WHERE {{
          ?paper akt:has-author <{akt_uri}> .
          ?paper akt:has-author ?a .
        }}
        """
        native_kisti_query = f"""
        PREFIX kisti:<http://www.kisti.re.kr/isrl/ResearchRefOntology#>
        SELECT DISTINCT ?a WHERE {{
          ?paper kisti:hasCreatorInfo ?i1 .
          ?i1 kisti:hasCreator <{kisti_uri}> .
          ?paper kisti:hasCreatorInfo ?i2 .
          ?i2 kisti:hasCreator ?a .
        }}
        """
        mediated = scenario.service.translate_and_run(
            source_query, scenario.kisti_dataset, source_ontology=scenario.source_ontology
        )
        native = scenario.endpoint(scenario.kisti_dataset).select(native_kisti_query)
        mediated_values = {row["a"] for row in mediated.rows}
        native_values = {term.n3() for term in native.distinct_values("a")}
        assert mediated_values == native_values

    def test_every_alignment_kb_target_reachable(self, small_scenario):
        for info in small_scenario.service.list_datasets():
            response = small_scenario.service.translate(
                FIGURE_1_QUERY,
                target_dataset=next(d.uri for d in small_scenario.registry
                                    if str(d.uri) == info.uri),
                source_ontology=small_scenario.source_ontology,
            )
            assert response.translated_query


class TestRewritingVsMaterialization:
    """The two integration strategies retrieve the same entities."""

    def test_same_coauthors_found(self, small_scenario):
        scenario = small_scenario
        person = next(iter(scenario.kisti_builder.covered_person_keys))
        akt_uri = scenario.akt_builder.person_uri(person)
        query = f"""
        PREFIX akt:<http://www.aktors.org/ontology/portal#>
        SELECT DISTINCT ?a WHERE {{
          ?paper akt:has-author <{akt_uri}> .
          ?paper akt:has-author ?a .
        }}
        """
        # Strategy 1: rewrite the query and run it remotely, canonicalising
        # results into the RKB URI space.
        federated = scenario.service.federate(
            query,
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            datasets=[scenario.kisti_dataset],
            canonical_pattern=RKB_URI_PATTERN,
            mode="filter-aware",
        )
        rewriting_values = {
            value for value in federated.distinct_values("a")
            if "southampton" in str(value)
        }

        # Strategy 2: materialise the KISTI data into the AKT vocabulary and
        # run the original query locally.
        integrator = MaterializationIntegrator(
            list(akt_to_kisti_alignment()), scenario.sameas_service, RKB_URI_PATTERN
        )
        kisti_graph = scenario.endpoint(scenario.kisti_dataset)._graph  # noqa: SLF001
        materialized, _stats = integrator.integrate([kisti_graph])
        local = QueryEvaluator(materialized).select(query)
        materialization_values = {
            value for value in local.distinct_values("a") if "southampton" in str(value)
        }

        assert rewriting_values == materialization_values
        assert rewriting_values  # non-trivial comparison


class TestRecallStory:
    """The paper's motivation: integration raises recall over any single source."""

    def test_recall_ordering(self, small_scenario):
        scenario = small_scenario
        person = scenario.world.most_prolific_author()
        query_uri = scenario.akt_person_uri(person)
        query = f"""
        PREFIX akt:<http://www.aktors.org/ontology/portal#>
        SELECT DISTINCT ?a WHERE {{
          ?paper akt:has-author <{query_uri}> .
          ?paper akt:has-author ?a .
          FILTER (!(?a = <{query_uri}>))
        }}
        """
        gold = scenario.gold_coauthor_uris(person)

        single = scenario.endpoint(scenario.rkb_dataset).select(query)
        baseline = IdentityFederation(scenario.registry).execute(query)
        federated = scenario.service.federate(
            query,
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
        )

        recall_single = recall(single.distinct_values("a"), gold)
        recall_baseline = recall(baseline.distinct_values("a"), gold)
        recall_federated = recall(federated.distinct_values("a"), gold)

        assert recall_baseline == pytest.approx(recall_single)
        assert recall_federated >= recall_single
        assert recall_federated > 0.5


class TestKnowledgeBasePersistence:
    """The alignment KB survives an RDF round trip and still drives mediation."""

    def test_mediation_after_kb_roundtrip(self, small_scenario):
        scenario = small_scenario
        exported = scenario.service.alignment_kb()
        restored_store = AlignmentStore()
        assert restored_store.load_graph(exported) == 2

        service = MediatorService(restored_store, scenario.registry, scenario.sameas_service)
        response = service.translate(
            FIGURE_1_QUERY, scenario.kisti_dataset,
            source_ontology=scenario.source_ontology,
        )
        assert response.alignments_considered == 24
        assert "hasCreatorInfo" in response.translated_query
