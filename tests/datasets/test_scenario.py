"""Unit tests for the end-to-end integration scenario builder."""

from repro.datasets import build_resist_scenario


class TestScenario:
    def test_components_wired(self, small_scenario):
        assert len(small_scenario.registry) == 3
        assert small_scenario.alignment_store.entity_alignment_count() == 66
        assert small_scenario.sameas_service.bundle_count() > 0

    def test_dataset_sizes_positive(self, small_scenario):
        sizes = small_scenario.dataset_sizes()
        assert len(sizes) == 3
        assert all(size > 0 for size in sizes.values())

    def test_endpoint_accessor(self, small_scenario):
        endpoint = small_scenario.endpoint(small_scenario.kisti_dataset)
        assert endpoint.triple_count() > 0

    def test_sameas_links_persons_across_datasets(self, small_scenario):
        world = small_scenario.world
        kisti_covered = small_scenario.kisti_builder.covered_person_keys
        # Pick a person present in both RKB and KISTI.
        shared = next(iter(kisti_covered))
        rkb_uri = small_scenario.akt_builder.person_uri(shared)
        kisti_uri = small_scenario.kisti_builder.person_uri(shared)
        assert kisti_uri in small_scenario.sameas_service.equivalence_class(rkb_uri)

    def test_gold_coauthors_based_on_world(self, small_scenario):
        person = small_scenario.world.most_prolific_author()
        gold = small_scenario.gold_coauthor_uris(person)
        assert gold
        assert all(str(uri).startswith("http://southampton") for uri in gold)

    def test_partial_sameas_coverage(self):
        scenario = build_resist_scenario(
            n_persons=15, n_papers=30, sameas_coverage=0.3, seed=11
        )
        full = build_resist_scenario(
            n_persons=15, n_papers=30, sameas_coverage=1.0, seed=11
        )
        assert scenario.sameas_service.bundle_count() < full.sameas_service.bundle_count()

    def test_deterministic_given_seed(self):
        a = build_resist_scenario(n_persons=15, n_papers=30, seed=4)
        b = build_resist_scenario(n_persons=15, n_papers=30, seed=4)
        assert a.dataset_sizes() == b.dataset_sizes()
        assert a.sameas_service.bundle_count() == b.sameas_service.bundle_count()

    def test_rkb_coverage_parameter(self):
        partial = build_resist_scenario(n_persons=15, n_papers=30, rkb_coverage=0.4, seed=4)
        full = build_resist_scenario(n_persons=15, n_papers=30, rkb_coverage=1.0, seed=4)
        partial_size = partial.dataset_sizes()[str(partial.rkb_dataset)]
        full_size = full.dataset_sizes()[str(full.rkb_dataset)]
        assert partial_size < full_size
