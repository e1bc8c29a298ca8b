"""Unit tests for the synthetic world model."""

import pytest

from repro.datasets import WorldModel


class TestWorldModel:
    def test_sizes_respected(self):
        world = WorldModel(n_persons=10, n_papers=20, n_projects=3, n_organizations=2, seed=1)
        stats = world.statistics()
        assert stats["persons"] == 10
        assert stats["papers"] == 20
        assert stats["projects"] == 3
        assert stats["organizations"] == 2

    def test_deterministic_for_seed(self):
        a = WorldModel(n_persons=10, n_papers=20, seed=5)
        b = WorldModel(n_persons=10, n_papers=20, seed=5)
        assert [p.title for p in a.papers] == [p.title for p in b.papers]
        assert [p.author_keys for p in a.papers] == [p.author_keys for p in b.papers]

    def test_different_seeds_differ(self):
        a = WorldModel(n_persons=10, n_papers=20, seed=5)
        b = WorldModel(n_persons=10, n_papers=20, seed=6)
        assert [p.author_keys for p in a.papers] != [p.author_keys for p in b.papers]

    def test_authors_are_valid_person_keys(self):
        world = WorldModel(n_persons=8, n_papers=30, seed=2)
        for paper in world.papers:
            assert paper.author_keys
            assert all(0 <= key < 8 for key in paper.author_keys)

    def test_person_names_unique_enough(self):
        world = WorldModel(n_persons=30, n_papers=10, seed=3)
        names = {person.full_name for person in world.persons}
        assert len(names) == 30

    def test_coauthors_of(self):
        world = WorldModel(n_persons=10, n_papers=20, seed=4)
        person = world.most_prolific_author()
        coauthors = world.coauthors_of(person)
        assert person not in coauthors
        # Every coauthor shares at least one paper with the person.
        for other in coauthors:
            assert world.papers_of(person) & world.papers_of(other)

    def test_papers_of(self):
        world = WorldModel(n_persons=10, n_papers=20, seed=4)
        person = world.most_prolific_author()
        assert world.papers_of(person)

    def test_most_prolific_author_is_argmax(self):
        world = WorldModel(n_persons=10, n_papers=20, seed=4)
        best = world.most_prolific_author()
        best_count = len(world.papers_of(best))
        assert all(len(world.papers_of(p.key)) <= best_count for p in world.persons)

    def test_projects_have_members_and_leader(self):
        world = WorldModel(n_persons=10, n_papers=5, n_projects=4, seed=7)
        for project in world.projects:
            assert project.leader_key in project.member_keys
            assert project.end_year >= project.start_year

    def test_citations_never_self_reference(self):
        world = WorldModel(n_persons=10, n_papers=30, seed=8)
        assert all(citing != cited for citing, cited in world.citations)

    def test_minimum_population_validation(self):
        with pytest.raises(ValueError):
            WorldModel(n_persons=1)
        with pytest.raises(ValueError):
            WorldModel(n_organizations=0)
