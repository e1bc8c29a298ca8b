"""The alignment knowledge bases of the deployed system (Section 3.4).

The paper reports two alignment sets:

* **24 alignments** (mixed concept and property alignments) between AKT
  data and the KISTI data set — including the worked example's
  ``akt:has-author`` → ``kisti:hasCreatorInfo / kisti:hasCreator`` chain
  with its two ``sameas`` functional dependencies;
* **42 alignments** (mixed concept and property alignments) between the
  ECS/AKT data set and DBpedia.

This module reconstructs both knowledge bases over the synthetic
vocabularies of :mod:`repro.datasets.ontologies`.  The exact pairs are of
course our own (the originals were never published), but the *mix* —
level-0 class and property renamings, level-1 intersections, level-2
chains and value partitions, sameas-based URI translation — follows what
the paper describes, and the counts match exactly.
"""

from __future__ import annotations


from ..alignment import (
    EntityAlignment,
    FunctionalDependency,
    OntologyAlignment,
    SAMEAS_FUNCTION,
    class_alignment,
    class_to_intersection_alignment,
)
from ..rdf import AKT, Literal, Namespace, Triple, URIRef, Variable
from .ontologies import (
    AKT_ONTOLOGY_URI,
    AKT_TERMS,
    DBPEDIA_DATASET_URI,
    DBPEDIA_ONTOLOGY_URI,
    DBPEDIA_TERMS,
    KISTI_DATASET_URI,
    KISTI_ONTOLOGY_URI,
    KISTI_TERMS,
)

__all__ = [
    "KISTI_URI_PATTERN",
    "DBPEDIA_URI_PATTERN",
    "RKB_URI_PATTERN",
    "akt_to_kisti_alignment",
    "akt_to_dbpedia_alignment",
    "has_author_chain_alignment",
]

#: Instance-URI-space regular expressions (the second sameas argument).
RKB_URI_PATTERN = r"http://southampton\.rkbexplorer\.com/id/\S*"
KISTI_URI_PATTERN = r"http://kisti\.rkbexplorer\.com/id/\S*"
DBPEDIA_URI_PATTERN = r"http://dbpedia\.org/resource/\S*"

_AKT2KISTI = Namespace("http://ecs.soton.ac.uk/alignments/akt2kisti#")
_AKT2DBPEDIA = Namespace("http://ecs.soton.ac.uk/alignments/akt2dbpedia#")


def _sameas_fd(target: str, source: str, pattern: str) -> FunctionalDependency:
    """Shorthand for ``?target = sameas(?source, "pattern")``."""
    return FunctionalDependency(Variable(target), SAMEAS_FUNCTION,
                                [Variable(source), Literal(pattern)])


def _uri_property_alignment(source_property: URIRef, target_property: URIRef,
                            pattern: str, identifier: URIRef) -> EntityAlignment:
    """Property alignment whose subject and object URIs are translated.

    ``<?x P1 ?y>  ->  <?x2 P2 ?y2>`` with ``?x2 = sameas(?x, pattern)`` and
    ``?y2 = sameas(?y, pattern)`` — the shape needed whenever both ends of
    the property are instances with dataset-local URIs.
    """
    x, y = Variable("x"), Variable("y")
    x2, y2 = Variable("x2"), Variable("y2")
    return EntityAlignment(
        lhs=Triple(x, source_property, y),
        rhs=[Triple(x2, target_property, y2)],
        functional_dependencies=[
            _sameas_fd("x2", "x", pattern),
            _sameas_fd("y2", "y", pattern),
        ],
        identifier=identifier,
    )


def _literal_property_alignment(source_property: URIRef, target_property: URIRef,
                                pattern: str, identifier: URIRef) -> EntityAlignment:
    """Property alignment translating only the subject URI (object is a literal)."""
    x, y = Variable("x"), Variable("y")
    x2 = Variable("x2")
    return EntityAlignment(
        lhs=Triple(x, source_property, y),
        rhs=[Triple(x2, target_property, y)],
        functional_dependencies=[_sameas_fd("x2", "x", pattern)],
        identifier=identifier,
    )


def has_author_chain_alignment() -> EntityAlignment:
    """The worked example's alignment (Figure 2 / the Turtle listing).

    ``<?p1 akt:has-author ?a1>`` rewrites to the KISTI CreatorInfo chain
    with both instance URIs translated through ``sameas``.
    """
    p1, a1 = Variable("p1"), Variable("a1")
    p2, c, a2 = Variable("p2"), Variable("c"), Variable("a2")
    return EntityAlignment(
        lhs=Triple(p1, AKT_TERMS["has-author"], a1),
        rhs=[
            Triple(p2, KISTI_TERMS["hasCreatorInfo"], c),
            Triple(c, KISTI_TERMS["hasCreator"], a2),
        ],
        functional_dependencies=[
            _sameas_fd("p2", "p1", KISTI_URI_PATTERN),
            _sameas_fd("a2", "a1", KISTI_URI_PATTERN),
        ],
        identifier=_AKT2KISTI["creator_info"],
    )


# --------------------------------------------------------------------------- #
# AKT -> KISTI (24 entity alignments)
# --------------------------------------------------------------------------- #
_AKT_KISTI_CLASS_PAIRS = [
    ("Person", "Researcher"),
    ("Article-Reference", "Paper"),
    ("Book-Reference", "Monograph"),
    ("Thesis-Reference", "Dissertation"),
    ("Conference-Proceedings-Reference", "ProceedingsPaper"),
    ("Publication-Reference", "Publication"),
    ("Project", "ResearchProject"),
    ("Organization", "Institute"),
    ("Research-Area", "SubjectField"),
    ("Event", "AcademicEvent"),
]

#: (AKT property, KISTI property, needs URI translation on the object?)
_AKT_KISTI_PROPERTY_PAIRS = [
    ("has-title", "title", False),
    ("has-year", "publicationYear", False),
    ("has-date", "publicationDate", False),
    ("article-of-journal", "publishedIn", False),
    ("cites-publication-reference", "references", True),
    ("has-affiliation", "affiliatedWith", True),
    ("full-name", "name", False),
    ("family-name", "familyName", False),
    ("given-name", "givenName", False),
    ("has-email-address", "email", False),
    ("has-web-address", "homepage", False),
    ("addresses-generic-area-of-interest", "researchField", True),
    ("has-project-member", "hasMember", True),
]


def akt_to_kisti_alignment() -> OntologyAlignment:
    """The 24-entity-alignment OA from the AKT ontology to the KISTI dataset."""
    alignments: list[EntityAlignment] = []

    for index, (source, target) in enumerate(_AKT_KISTI_CLASS_PAIRS):
        alignments.append(
            class_alignment(AKT_TERMS[source], KISTI_TERMS[target],
                            identifier=_AKT2KISTI[f"class_{index}"])
        )

    alignments.append(has_author_chain_alignment())

    for index, (source, target, translate_object) in enumerate(_AKT_KISTI_PROPERTY_PAIRS):
        identifier = _AKT2KISTI[f"property_{index}"]
        if translate_object:
            alignments.append(
                _uri_property_alignment(AKT_TERMS[source], KISTI_TERMS[target],
                                        KISTI_URI_PATTERN, identifier)
            )
        else:
            alignments.append(
                _literal_property_alignment(AKT_TERMS[source], KISTI_TERMS[target],
                                            KISTI_URI_PATTERN, identifier)
            )

    ontology_alignment = OntologyAlignment(
        source_ontologies=[AKT_ONTOLOGY_URI],
        target_ontologies=[KISTI_ONTOLOGY_URI],
        target_datasets=[KISTI_DATASET_URI],
        entity_alignments=alignments,
        identifier=_AKT2KISTI["ontology_alignment"],
    )
    assert len(ontology_alignment) == 24, f"expected 24 alignments, built {len(ontology_alignment)}"
    return ontology_alignment


# --------------------------------------------------------------------------- #
# AKT/ECS -> DBpedia (42 entity alignments)
# --------------------------------------------------------------------------- #
_AKT_DBPEDIA_CLASS_PAIRS = [
    ("Person", "Person"),
    ("Article-Reference", "AcademicArticle"),
    ("Book-Reference", "Book"),
    ("Thesis-Reference", "Thesis"),
    ("Conference-Proceedings-Reference", "AcademicArticle"),
    ("Publication-Reference", "WrittenWork"),
    ("Project", "ResearchProject"),
    ("Organization", "Organisation"),
    ("Research-Area", "AcademicSubject"),
    ("Event", "AcademicConference"),
]

#: (AKT property, DBpedia property, needs URI translation on the object?)
_AKT_DBPEDIA_PROPERTY_PAIRS = [
    ("has-author", "author", True),
    ("has-title", "title", False),
    ("has-date", "publicationDate", False),
    ("has-year", "publicationYear", False),
    ("article-of-journal", "journal", False),
    ("cites-publication-reference", "cites", True),
    ("has-affiliation", "affiliation", True),
    ("family-name", "surname", False),
    ("given-name", "givenName", False),
    ("has-email-address", "emailAddress", False),
    ("has-web-address", "homepage", False),
    ("addresses-generic-area-of-interest", "field", True),
    ("has-project-member", "projectMember", True),
    ("has-project-leader", "projectCoordinator", True),
    ("has-goal", "projectObjective", False),
    ("has-start-date", "projectStartDate", False),
    ("has-end-date", "projectEndDate", False),
    ("involves-organization", "projectParticipant", True),
    ("has-academic-degree", "academicDegree", False),
    ("member-of", "employer", True),
    ("has-pages", "numberOfPages", False),
    ("has-abstract", "abstract", False),
    ("has-keyword", "subject", False),
    ("edited-by", "editor", True),
    ("has-volume", "volume", False),
    ("has-issue", "issueNumber", False),
    ("has-publisher", "publisher", False),
    ("has-isbn", "isbn", False),
    ("has-doi", "doi", False),
]


def akt_to_dbpedia_alignment() -> OntologyAlignment:
    """The 42-entity-alignment OA from the ECS/AKT data to DBpedia."""
    alignments: list[EntityAlignment] = []

    for index, (source, target) in enumerate(_AKT_DBPEDIA_CLASS_PAIRS):
        alignments.append(
            class_alignment(AKT_TERMS[source], DBPEDIA_TERMS[target],
                            identifier=_AKT2DBPEDIA[f"class_{index}"])
        )

    # Level-1 intersections (the Burgundy-style alignments of Section 3.2.2).
    alignments.append(
        class_to_intersection_alignment(
            AKT_TERMS["Person"],
            [DBPEDIA_TERMS["Person"], DBPEDIA_TERMS["Scientist"]],
            identifier=_AKT2DBPEDIA["person_scientist"],
        )
    )
    alignments.append(
        class_to_intersection_alignment(
            AKT_TERMS["Article-Reference"],
            [DBPEDIA_TERMS["AcademicArticle"], DBPEDIA_TERMS["WrittenWork"]],
            identifier=_AKT2DBPEDIA["article_writtenwork"],
        )
    )

    # FOAF name: full-name maps outside the DBpedia ontology namespace.
    from ..rdf import FOAF

    alignments.append(
        _literal_property_alignment(AKT_TERMS["full-name"], FOAF.name,
                                    DBPEDIA_URI_PATTERN, _AKT2DBPEDIA["full_name"])
    )

    for index, (source, target, translate_object) in enumerate(_AKT_DBPEDIA_PROPERTY_PAIRS):
        identifier = _AKT2DBPEDIA[f"property_{index}"]
        if translate_object:
            alignments.append(
                _uri_property_alignment(AKT_TERMS[source], DBPEDIA_TERMS[target],
                                        DBPEDIA_URI_PATTERN, identifier)
            )
        else:
            alignments.append(
                _literal_property_alignment(AKT_TERMS[source], DBPEDIA_TERMS[target],
                                            DBPEDIA_URI_PATTERN, identifier)
            )

    ontology_alignment = OntologyAlignment(
        source_ontologies=[AKT_ONTOLOGY_URI],
        target_ontologies=[DBPEDIA_ONTOLOGY_URI],
        target_datasets=[DBPEDIA_DATASET_URI],
        entity_alignments=alignments,
        identifier=_AKT2DBPEDIA["ontology_alignment"],
    )
    assert len(ontology_alignment) == 42, f"expected 42 alignments, built {len(ontology_alignment)}"
    return ontology_alignment
