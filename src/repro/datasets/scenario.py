"""End-to-end integration scenario builder.

Assembles everything the experiments need, mirroring the deployment of
Section 3.4:

* a shared :class:`WorldModel`,
* three repositories publishing views of it — RKB/AKT (full coverage),
  KISTI (partial, CreatorInfo modelling) and DBpedia (sparse) — each behind
  a :class:`LocalSparqlEndpoint` described by a voiD profile,
* the co-reference (owl:sameAs) bundles linking the per-dataset URIs,
* the alignment KB holding the 24-alignment AKT→KISTI and 42-alignment
  AKT→DBpedia ontology alignments,
* the :class:`MediatorService` wired over all of the above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


from ..alignment import AlignmentStore
from ..coreference import SameAsService
from ..federation import DatasetRegistry, LocalSparqlEndpoint, MediatorService
from ..rdf import URIRef
from .akt import AktDatasetBuilder
from .alignments import akt_to_dbpedia_alignment, akt_to_kisti_alignment
from .dbpedia import DBpediaDatasetBuilder
from .kisti import KistiDatasetBuilder
from .ontologies import (
    AKT_ONTOLOGY_URI,
    DBPEDIA_DATASET_URI,
    KISTI_DATASET_URI,
    RKB_DATASET_URI,
)
from .world import WorldModel

__all__ = ["IntegrationScenario", "build_resist_scenario"]


@dataclass
class IntegrationScenario:
    """Everything needed to run the paper's experiments."""

    world: WorldModel
    akt_builder: AktDatasetBuilder
    kisti_builder: KistiDatasetBuilder
    dbpedia_builder: DBpediaDatasetBuilder
    registry: DatasetRegistry
    alignment_store: AlignmentStore
    sameas_service: SameAsService
    service: MediatorService

    #: Convenience URIs.
    rkb_dataset: ClassVar[URIRef] = RKB_DATASET_URI
    kisti_dataset: ClassVar[URIRef] = KISTI_DATASET_URI
    dbpedia_dataset: ClassVar[URIRef] = DBPEDIA_DATASET_URI
    source_ontology: ClassVar[URIRef] = AKT_ONTOLOGY_URI

    def endpoint(self, dataset_uri: URIRef) -> LocalSparqlEndpoint:
        """The endpoint serving ``dataset_uri``."""
        endpoint = self.registry.get(dataset_uri).endpoint
        assert isinstance(endpoint, LocalSparqlEndpoint)
        return endpoint

    def dataset_sizes(self) -> dict[str, int]:
        """Triple counts per dataset (the voiD ``void:triples`` values)."""
        return {
            str(dataset.uri): dataset.endpoint.triple_count()  # type: ignore[attr-defined]
            for dataset in self.registry
        }

    # -- gold standard helpers ------------------------------------------------ #
    def gold_coauthor_uris(self, person_key: int) -> set[URIRef]:
        """RKB URIs of the true co-authors of ``person_key`` (world-level truth)."""
        return {
            self.akt_builder.person_uri(key)
            for key in self.world.coauthors_of(person_key)
        }

    def akt_person_uri(self, person_key: int) -> URIRef:
        return self.akt_builder.person_uri(person_key)


def build_resist_scenario(
    n_persons: int = 50,
    n_papers: int = 120,
    n_projects: int = 8,
    n_organizations: int = 6,
    rkb_coverage: float = 1.0,
    kisti_coverage: float = 0.6,
    dbpedia_coverage: float = 0.35,
    sameas_coverage: float = 1.0,
    seed: int = 42,
) -> IntegrationScenario:
    """Build the ReSIST-style integration scenario.

    ``rkb_coverage`` / ``kisti_coverage`` / ``dbpedia_coverage`` control how
    much of the world each repository holds (redundant but *partial* copies
    are what make federated querying raise recall); ``sameas_coverage``
    controls which fraction of the overlapping entities actually have
    owl:sameAs links (1.0 reproduces the well-curated situation of the RKB
    repositories).
    """
    world = WorldModel(
        n_persons=n_persons,
        n_papers=n_papers,
        n_projects=n_projects,
        n_organizations=n_organizations,
        seed=seed,
    )
    akt_builder = AktDatasetBuilder(world, coverage=rkb_coverage, seed=seed)
    kisti_builder = KistiDatasetBuilder(world, coverage=kisti_coverage, seed=seed + 1)
    dbpedia_builder = DBpediaDatasetBuilder(world, coverage=dbpedia_coverage, seed=seed + 2)

    akt_graph = akt_builder.build()
    kisti_graph = kisti_builder.build()
    dbpedia_graph = dbpedia_builder.build()

    # ------------------------------------------------------------------ #
    # Co-reference bundles: link each entity's URIs across the datasets
    # that actually describe it.
    # ------------------------------------------------------------------ #
    import random

    sameas = SameAsService()
    rng = random.Random(f"{seed}-sameas")

    def link(kind: str, key: int, kisti_has: bool, dbpedia_has: bool) -> None:
        if sameas_coverage < 1.0 and rng.random() > sameas_coverage:
            return
        bundle = [akt_builder.mint(kind, key)]
        if kisti_has:
            bundle.append(kisti_builder.mint(kind, key))
        if dbpedia_has:
            bundle.append(dbpedia_builder.mint(kind, key))
        if len(bundle) > 1:
            sameas.add_bundle(bundle)

    for person in world.persons:
        link("person", person.key,
             person.key in kisti_builder.covered_person_keys,
             person.key in dbpedia_builder.covered_person_keys)
    for paper in world.papers:
        link("paper", paper.key,
             paper.key in kisti_builder.covered_paper_keys,
             paper.key in dbpedia_builder.covered_paper_keys)
    for project in world.projects:
        link("project", project.key, True, True)
    for organization in world.organizations:
        link("organization", organization.key, True, True)

    # ------------------------------------------------------------------ #
    # Endpoints + voiD registry
    # ------------------------------------------------------------------ #
    registry = DatasetRegistry()
    registry.register_endpoint(
        akt_builder.description(triple_count=len(akt_graph)),
        LocalSparqlEndpoint(akt_builder.endpoint_uri, akt_graph, name="rkb-southampton"),
    )
    registry.register_endpoint(
        kisti_builder.description(triple_count=len(kisti_graph)),
        LocalSparqlEndpoint(kisti_builder.endpoint_uri, kisti_graph, name="kisti"),
    )
    registry.register_endpoint(
        dbpedia_builder.description(triple_count=len(dbpedia_graph)),
        LocalSparqlEndpoint(dbpedia_builder.endpoint_uri, dbpedia_graph, name="dbpedia"),
    )

    # ------------------------------------------------------------------ #
    # Alignment KB (24 + 42 entity alignments)
    # ------------------------------------------------------------------ #
    alignment_store = AlignmentStore()
    alignment_store.add(akt_to_kisti_alignment())
    alignment_store.add(akt_to_dbpedia_alignment())

    service = MediatorService(alignment_store, registry, sameas)

    return IntegrationScenario(
        world=world,
        akt_builder=akt_builder,
        kisti_builder=kisti_builder,
        dbpedia_builder=dbpedia_builder,
        registry=registry,
        alignment_store=alignment_store,
        sameas_service=sameas,
        service=service,
    )
