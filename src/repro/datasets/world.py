"""The synthetic "real world" behind the heterogeneous datasets.

The paper's integration scenario relies on three data repositories that
describe *the same underlying reality* (researchers, publications,
projects) with different vocabularies, different URI spaces and only
partial overlap.  :class:`WorldModel` generates that reality once — people,
papers, authorship, projects, organisations — deterministically from a
seed; the per-dataset builders (:mod:`repro.datasets.akt`,
:mod:`repro.datasets.kisti`, :mod:`repro.datasets.dbpedia`) then each
publish a *view* of it.

Keeping a single world model gives the experiments a gold standard: the
true set of co-authors of a person is a property of the world, and recall
of a federated query can be measured against it (Experiment E6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


__all__ = ["Person", "Paper", "Project", "Organization", "WorldModel"]

_GIVEN_NAMES = [
    "Ada", "Alan", "Barbara", "Claude", "Donald", "Edsger", "Grace", "Hedy",
    "John", "Katherine", "Leslie", "Margaret", "Niklaus", "Radia", "Tim",
    "Vint", "Whitfield", "Dorothy", "Frances", "Karen",
]
_FAMILY_NAMES = [
    "Lovelace", "Turing", "Liskov", "Shannon", "Knuth", "Dijkstra", "Hopper",
    "Lamarr", "McCarthy", "Johnson", "Lamport", "Hamilton", "Wirth",
    "Perlman", "Berners-Lee", "Cerf", "Diffie", "Vaughan", "Allen", "Jones",
]
_TOPIC_WORDS = [
    "Dependability", "Security", "Resilience", "Ontologies", "Provenance",
    "Linked Data", "Query Rewriting", "Federation", "Human Factors",
    "Fault Tolerance", "Trust", "Privacy", "Interoperability", "Reasoning",
    "Crawling", "Alignment", "Co-reference", "Mediation", "Integration",
    "Annotation",
]
_ORG_NAMES = [
    "University of Southampton", "KAIST", "KISTI", "University of Newcastle",
    "LAAS-CNRS", "Budapest University of Technology", "City University London",
    "Vytautas Magnus University", "IBM Research", "INRIA",
]


@dataclass(frozen=True)
class Person:
    """A researcher in the synthetic world."""

    key: int
    given_name: str
    family_name: str
    email: str

    @property
    def full_name(self) -> str:
        return f"{self.given_name} {self.family_name}"


@dataclass(frozen=True)
class Organization:
    """A research organisation."""

    key: int
    name: str


@dataclass(frozen=True)
class Paper:
    """A publication with its author list (ordered)."""

    key: int
    title: str
    year: int
    author_keys: tuple[int, ...]
    venue: str
    pages: str
    kind: str  # "article", "proceedings", "book", "thesis"


@dataclass(frozen=True)
class Project:
    """A research project with members and a leader."""

    key: int
    name: str
    member_keys: tuple[int, ...]
    leader_key: int
    start_year: int
    end_year: int


class WorldModel:
    """Deterministic generator of the shared reality.

    Parameters
    ----------
    n_persons, n_papers, n_projects, n_organizations:
        Sizes of the entity populations.
    seed:
        Seed of the pseudo-random generator; two worlds built with the same
        parameters are identical.
    """

    def __init__(
        self,
        n_persons: int = 50,
        n_papers: int = 120,
        n_projects: int = 8,
        n_organizations: int = 6,
        seed: int = 42,
    ) -> None:
        if n_persons < 2:
            raise ValueError("the world needs at least two persons")
        if n_organizations < 1:
            raise ValueError("the world needs at least one organization")
        self.seed = seed
        rng = random.Random(seed)

        self.persons: list[Person] = [
            Person(
                key=index,
                given_name=_GIVEN_NAMES[index % len(_GIVEN_NAMES)],
                family_name=_FAMILY_NAMES[(index // len(_GIVEN_NAMES)) % len(_FAMILY_NAMES)]
                + (f"-{index}" if index >= len(_GIVEN_NAMES) * len(_FAMILY_NAMES) else ""),
                email=f"researcher{index}@example.org",
            )
            for index in range(n_persons)
        ]

        self.organizations: list[Organization] = [
            Organization(key=index, name=_ORG_NAMES[index % len(_ORG_NAMES)])
            for index in range(min(n_organizations, max(1, n_organizations)))
        ]

        self.affiliations: dict[int, int] = {
            person.key: rng.randrange(len(self.organizations)) for person in self.persons
        }

        kinds = ["article", "article", "article", "proceedings", "proceedings", "book", "thesis"]
        self.papers: list[Paper] = []
        for index in range(n_papers):
            team_size = rng.randint(1, min(5, n_persons))
            authors = tuple(sorted(rng.sample(range(n_persons), team_size)))
            topic_a = _TOPIC_WORDS[rng.randrange(len(_TOPIC_WORDS))]
            topic_b = _TOPIC_WORDS[rng.randrange(len(_TOPIC_WORDS))]
            kind = kinds[rng.randrange(len(kinds))]
            self.papers.append(
                Paper(
                    key=index,
                    title=f"{topic_a} and {topic_b}: Study {index}",
                    year=1998 + rng.randrange(12),
                    author_keys=authors,
                    venue=f"Workshop on {topic_a}" if kind == "proceedings" else f"Journal of {topic_a}",
                    pages=f"{rng.randint(1, 300)}-{rng.randint(301, 600)}",
                    kind=kind,
                )
            )

        self.projects: list[Project] = []
        for index in range(n_projects):
            member_count = rng.randint(2, min(8, n_persons))
            members = tuple(sorted(rng.sample(range(n_persons), member_count)))
            start = 2000 + rng.randrange(8)
            self.projects.append(
                Project(
                    key=index,
                    name=f"Project {_TOPIC_WORDS[index % len(_TOPIC_WORDS)]}",
                    member_keys=members,
                    leader_key=members[0],
                    start_year=start,
                    end_year=start + rng.randint(1, 4),
                )
            )

        self.citations: list[tuple[int, int]] = []
        for paper in self.papers:
            n_citations = rng.randint(0, 3)
            candidates = [other.key for other in self.papers if other.key != paper.key]
            if candidates and n_citations:
                for cited in rng.sample(candidates, min(n_citations, len(candidates))):
                    self.citations.append((paper.key, cited))

    # ------------------------------------------------------------------ #
    # Gold-standard queries over the world (used by experiments)
    # ------------------------------------------------------------------ #
    def coauthors_of(self, person_key: int) -> set[int]:
        """The true set of co-authors of ``person_key`` (excluding the person)."""
        coauthors: set[int] = set()
        for paper in self.papers:
            if person_key in paper.author_keys:
                coauthors.update(paper.author_keys)
        coauthors.discard(person_key)
        return coauthors

    def papers_of(self, person_key: int) -> set[int]:
        """Keys of the papers authored by ``person_key``."""
        return {paper.key for paper in self.papers if person_key in paper.author_keys}

    def most_prolific_author(self) -> int:
        """Key of the person with the most papers (ties broken by key)."""
        counts = {person.key: len(self.papers_of(person.key)) for person in self.persons}
        return min(sorted(counts), key=lambda key: (-counts[key], key))

    def statistics(self) -> dict[str, int]:
        return {
            "persons": len(self.persons),
            "papers": len(self.papers),
            "projects": len(self.projects),
            "organizations": len(self.organizations),
            "citations": len(self.citations),
        }
