"""A synthetic co-reference bundle generator, and its unit tests.

Offline, the owl:sameAs links that sameas.org held for the original
experiments are generated: per-dataset URIs of the same entity are linked
with a configurable coverage ratio.  Only these tests use it.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.coreference import SameAsService
from repro.rdf import OWL, Graph, URIRef


@dataclass
class CoReferenceSpec:
    """Description of one dataset's URI space for an entity kind.

    ``minter`` maps a stable entity key (e.g. ``("person", 12)``) to the
    URI that dataset uses for the entity.
    """

    dataset_name: str
    minter: Callable[[str, int], URIRef]


@dataclass
class CoReferenceGenerator:
    """Generate owl:sameAs bundles linking per-dataset URIs.

    Parameters
    ----------
    specs:
        One :class:`CoReferenceSpec` per dataset participating in the
        integration scenario.
    coverage:
        Probability that a given entity's URIs are actually linked in the
        co-reference store (1.0 = perfect linkage).
    seed:
        Seed for the deterministic pseudo-random coverage sampling.
    """

    specs: Sequence[CoReferenceSpec]
    coverage: float = 1.0
    seed: int = 7

    def bundles_for(self, kind: str, count: int) -> list[list[URIRef]]:
        """URIs bundles for ``count`` entities of ``kind`` (one per entity)."""
        rng = random.Random((self.seed, kind, count).__hash__())
        bundles: list[list[URIRef]] = []
        for index in range(count):
            if rng.random() > self.coverage:
                continue
            bundle = [spec.minter(kind, index) for spec in self.specs]
            bundles.append(bundle)
        return bundles

    def populate(self, service: SameAsService, kind: str, count: int) -> int:
        """Add bundles for ``count`` entities of ``kind`` to ``service``.

        Returns the number of bundles added.
        """
        bundles = self.bundles_for(kind, count)
        for bundle in bundles:
            service.add_bundle(bundle)
        return len(bundles)

    def build_service(self, counts: dict[str, int]) -> SameAsService:
        """Create a fresh service with bundles for every entity kind."""
        service = SameAsService()
        for kind, count in counts.items():
            self.populate(service, kind, count)
        return service

    def sameas_graph(self, counts: dict[str, int]) -> Graph:
        """The owl:sameAs graph corresponding to :meth:`build_service`."""
        return self.build_service(counts).to_graph()


def rkb_minter(kind: str, index: int) -> URIRef:
    return URIRef(f"http://southampton.rkbexplorer.com/id/{kind}-{index:05d}")


def kisti_minter(kind: str, index: int) -> URIRef:
    return URIRef(f"http://kisti.rkbexplorer.com/id/{kind.upper()}_{index:012d}")


def make_generator(coverage: float = 1.0, seed: int = 7) -> CoReferenceGenerator:
    return CoReferenceGenerator(
        specs=[
            CoReferenceSpec("rkb", rkb_minter),
            CoReferenceSpec("kisti", kisti_minter),
        ],
        coverage=coverage,
        seed=seed,
    )


class TestGenerator:
    def test_full_coverage_links_every_entity(self):
        generator = make_generator(coverage=1.0)
        bundles = generator.bundles_for("person", 10)
        assert len(bundles) == 10
        assert all(len(bundle) == 2 for bundle in bundles)

    def test_partial_coverage_links_fewer_entities(self):
        generator = make_generator(coverage=0.3, seed=5)
        bundles = generator.bundles_for("person", 200)
        assert 20 < len(bundles) < 120

    def test_deterministic_for_same_seed(self):
        a = make_generator(coverage=0.5, seed=3).bundles_for("person", 50)
        b = make_generator(coverage=0.5, seed=3).bundles_for("person", 50)
        assert a == b

    def test_populate_service(self):
        generator = make_generator()
        service = SameAsService()
        added = generator.populate(service, "person", 5)
        assert added == 5
        assert service.are_same(rkb_minter("person", 0), kisti_minter("person", 0))

    def test_build_service_multiple_kinds(self):
        generator = make_generator()
        service = generator.build_service({"person": 3, "paper": 2})
        assert service.bundle_count() == 5

    def test_sameas_graph_contains_owl_sameas(self):
        generator = make_generator()
        graph = generator.sameas_graph({"person": 2})
        assert len(list(graph.triples(None, OWL.sameAs, None))) == 2
