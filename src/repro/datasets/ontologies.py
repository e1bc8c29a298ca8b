"""Vocabulary definitions for the integration scenario.

Three vocabularies are modelled after the ones the paper integrates:

* **AKT** — the AKT reference ontology used by the ReSIST / RKB explorer
  repositories (source vocabulary of the worked example),
* **KISTI** — the research-reference ontology of the Korean Institute of
  Science and Technology Information (target of the worked example, with
  the ``CreatorInfo`` indirection),
* **DBPO** — a DBpedia-like ontology (target of the 42-alignment KB of
  Section 3.4).

Only the fragments needed by the data generators and the alignment KBs are
declared, but each vocabulary is also exported as an RDFS graph so ontology
documents exist as artefacts (the alignment context-of-validity points at
their URIs).
"""

from __future__ import annotations


from ..rdf import AKT, DBPO, FOAF, Graph, KISTI, Literal, Namespace, OWL, RDF, RDFS, Triple, URIRef

__all__ = [
    "AKT_ONTOLOGY_URI", "KISTI_ONTOLOGY_URI", "DBPEDIA_ONTOLOGY_URI",
    "ECS_DATASET_URI", "RKB_DATASET_URI", "KISTI_DATASET_URI", "DBPEDIA_DATASET_URI",
    "AKT_TERMS", "KISTI_TERMS", "DBPEDIA_TERMS",
]

#: Ontology identity URIs (the values placed in SO / TO).
AKT_ONTOLOGY_URI = URIRef("http://www.aktors.org/ontology/portal#")
KISTI_ONTOLOGY_URI = URIRef("http://www.kisti.re.kr/isrl/ResearchRefOntology#")
DBPEDIA_ONTOLOGY_URI = URIRef("http://dbpedia.org/ontology/")

#: Dataset identity URIs (the values placed in TD), following the paper's
#: convention of using the datasets' voiD URIs.
RKB_DATASET_URI = URIRef("http://southampton.rkbexplorer.com/id/void")
ECS_DATASET_URI = URIRef("http://ecs.southampton.ac.uk/id/void")
KISTI_DATASET_URI = URIRef("http://kisti.rkbexplorer.com/id/void")
DBPEDIA_DATASET_URI = URIRef("http://dbpedia.org/void")


class _Vocabulary:
    """A small helper grouping the classes and properties of a vocabulary."""

    def __init__(self, namespace: Namespace, classes: list[str], properties: list[str]) -> None:
        self.namespace = namespace
        self.class_names = list(classes)
        self.property_names = list(properties)
        self.classes: dict[str, URIRef] = {name: namespace[name] for name in classes}
        self.properties: dict[str, URIRef] = {name: namespace[name] for name in properties}

    def __getitem__(self, name: str) -> URIRef:
        if name in self.classes:
            return self.classes[name]
        if name in self.properties:
            return self.properties[name]
        raise KeyError(name)

    def all_terms(self) -> list[URIRef]:
        return list(self.classes.values()) + list(self.properties.values())

    def to_graph(self, ontology_uri: URIRef) -> Graph:
        """An RDFS description of the vocabulary (the ontology document)."""
        graph = Graph(identifier=ontology_uri)
        graph.add(Triple(ontology_uri, RDF.type, OWL.Ontology))
        for name, uri in self.classes.items():
            graph.add(Triple(uri, RDF.type, OWL.Class))
            graph.add(Triple(uri, RDFS.label, Literal(name)))
            graph.add(Triple(uri, RDFS.isDefinedBy, ontology_uri))
        for name, uri in self.properties.items():
            graph.add(Triple(uri, RDF.type, RDF.Property))
            graph.add(Triple(uri, RDFS.label, Literal(name)))
            graph.add(Triple(uri, RDFS.isDefinedBy, ontology_uri))
        return graph


#: AKT portal ontology fragment (classes and properties used by RKB data).
AKT_TERMS = _Vocabulary(
    AKT,
    classes=[
        "Person",
        "Article-Reference",
        "Book-Reference",
        "Thesis-Reference",
        "Conference-Proceedings-Reference",
        "Publication-Reference",
        "Project",
        "Organization",
        "Research-Area",
        "Event",
    ],
    properties=[
        "has-author",
        "has-title",
        "has-date",
        "has-year",
        "article-of-journal",
        "cites-publication-reference",
        "has-affiliation",
        "full-name",
        "family-name",
        "given-name",
        "has-email-address",
        "has-web-address",
        "addresses-generic-area-of-interest",
        "has-project-member",
        "has-project-leader",
        "has-goal",
        "has-start-date",
        "has-end-date",
        "involves-organization",
        "has-academic-degree",
        "member-of",
        "has-pages",
        "has-abstract",
        "has-keyword",
        "edited-by",
        "has-volume",
        "has-issue",
        "has-publisher",
        "has-isbn",
        "has-doi",
    ],
)

#: KISTI research-reference ontology fragment (different modelling style:
#: authorship goes through a CreatorInfo node, names are split, etc.).
KISTI_TERMS = _Vocabulary(
    KISTI,
    classes=[
        "Researcher",
        "Paper",
        "Monograph",
        "Dissertation",
        "ProceedingsPaper",
        "Publication",
        "ResearchProject",
        "Institute",
        "SubjectField",
        "CreatorInfo",
        "AcademicEvent",
    ],
    properties=[
        "hasCreatorInfo",
        "hasCreator",
        "title",
        "publicationDate",
        "publicationYear",
        "publishedIn",
        "references",
        "affiliatedWith",
        "name",
        "familyName",
        "givenName",
        "email",
        "homepage",
        "researchField",
        "hasMember",
        "hasLeader",
        "objective",
        "startDate",
        "endDate",
        "participatingInstitute",
        "degree",
        "memberOf",
        "pageRange",
    ],
)

#: DBpedia-like ontology fragment (flatter modelling, FOAF reuse).
DBPEDIA_TERMS = _Vocabulary(
    DBPO,
    classes=[
        "Person",
        "Scientist",
        "AcademicArticle",
        "Book",
        "Thesis",
        "WrittenWork",
        "ResearchProject",
        "Organisation",
        "University",
        "AcademicConference",
        "AcademicSubject",
    ],
    properties=[
        "author",
        "title",
        "publicationDate",
        "publicationYear",
        "journal",
        "citedBy",
        "cites",
        "affiliation",
        "birthName",
        "surname",
        "givenName",
        "emailAddress",
        "homepage",
        "field",
        "projectMember",
        "projectCoordinator",
        "projectObjective",
        "projectStartDate",
        "projectEndDate",
        "projectParticipant",
        "academicDegree",
        "employer",
        "numberOfPages",
        "abstract",
        "subject",
        "editor",
        "volume",
        "issueNumber",
        "publisher",
        "isbn",
        "doi",
    ],
)
