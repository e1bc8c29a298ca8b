"""Synthetic datasets reproducing the paper's integration scenario."""

from .akt import AktDatasetBuilder
from .alignments import (
    DBPEDIA_URI_PATTERN,
    KISTI_URI_PATTERN,
    RKB_URI_PATTERN,
    akt_to_dbpedia_alignment,
    akt_to_kisti_alignment,
    has_author_chain_alignment,
)
from .dbpedia import DBpediaDatasetBuilder
from .kisti import KistiDatasetBuilder
from .ontologies import (
    AKT_ONTOLOGY_URI,
    AKT_TERMS,
    DBPEDIA_DATASET_URI,
    DBPEDIA_ONTOLOGY_URI,
    DBPEDIA_TERMS,
    ECS_DATASET_URI,
    KISTI_DATASET_URI,
    KISTI_ONTOLOGY_URI,
    KISTI_TERMS,
    RKB_DATASET_URI,
)
from .scenario import IntegrationScenario, build_resist_scenario
from .world import Organization, Paper, Person, Project, WorldModel

__all__ = [
    # world
    "WorldModel", "Person", "Paper", "Project", "Organization",
    # builders
    "AktDatasetBuilder", "KistiDatasetBuilder", "DBpediaDatasetBuilder",
    # ontologies
    "AKT_TERMS", "KISTI_TERMS", "DBPEDIA_TERMS",
    "AKT_ONTOLOGY_URI", "KISTI_ONTOLOGY_URI", "DBPEDIA_ONTOLOGY_URI",
    "RKB_DATASET_URI", "ECS_DATASET_URI", "KISTI_DATASET_URI", "DBPEDIA_DATASET_URI",
    # alignments
    "akt_to_kisti_alignment", "akt_to_dbpedia_alignment", "has_author_chain_alignment",
    "KISTI_URI_PATTERN", "DBPEDIA_URI_PATTERN", "RKB_URI_PATTERN",
    # scenario
    "IntegrationScenario", "build_resist_scenario",
]
