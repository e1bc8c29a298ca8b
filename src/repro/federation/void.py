"""voiD dataset descriptions (the mediator's *voiD KB* of Figure 5).

The deployed system "maintains a simple knowledge base in RDF describing
data sets, and their SPARQL endpoints, using the voiD vocabulary ... every
data set is uniquely identified within the system with an URI".
:class:`DatasetDescription` is the in-memory form of one such description
and converts to/from the voiD RDF encoding, so the registry can persist its
knowledge base exactly as the paper's system does.

Beyond the core profile (endpoint, vocabularies, URI space), a description
may advertise the dataset's *vocabulary statistics* — per-predicate triple
counts (``void:propertyPartition``) and per-class entity counts
(``void:classPartition``).  These are what the federation decomposer's
source selection consumes: a triple pattern whose ground predicate (or
``rdf:type`` class) is absent from a dataset's partitions provably matches
nothing there, so the endpoint need not be contacted at all.
:meth:`DatasetDescription.with_statistics` derives the partitions from a
graph's incrementally maintained :class:`~repro.rdf.GraphStatistics`, so
republishing after a data change is O(distinct predicates + classes).

A description may also declare that its dataset is one member of a
*subject-hash partition* of a larger logical graph
(:class:`SubjectPartition`): every triple of that graph sits on the member
its subject hashes to.  voiD has no terms for this, so the declaration is
written under this repository's own namespace (:data:`REPRO`).  The
decomposer uses it to ship patterns that share a subject as one sub-query
per member and to send each bound-join key only to the member that can hold
it (:mod:`repro.federation.decompose`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Iterable

from ..rdf import (
    DC,
    Graph,
    Literal,
    Namespace,
    RDF,
    Term,
    Triple,
    URIRef,
    VOID,
    XSD,
    fresh_bnode,
)

__all__ = [
    "DatasetDescription",
    "SubjectPartition",
    "descriptions_to_graph",
    "descriptions_from_graph",
]

#: Property linking a dataset to the regular expression of its URI space.
#: voiD has ``void:uriRegexPattern`` for exactly this purpose.
URI_PATTERN_PROPERTY = VOID.uriRegexPattern

#: This repository's own vocabulary, for what voiD has no term for.
REPRO = Namespace("http://repro.example/ns/void-ext#")


@dataclass(frozen=True)
class SubjectPartition:
    """Membership in a subject-hash partition of one logical graph.

    Member ``index`` of ``count`` holds exactly the triples of the logical
    graph ``id`` whose subject hashes to ``index`` under ``scheme`` (the name
    of the hash; :data:`repro.federation.shard.SUBJECT_HASH_SCHEME` is the
    one this repository implements).  Members of one partition share ``id``,
    ``count`` and ``scheme``.
    """

    id: URIRef
    index: int
    count: int
    scheme: str


@dataclass(frozen=True)
class DatasetDescription:
    """A voiD-style description of one dataset.

    Attributes
    ----------
    uri:
        Dataset identity (e.g. ``http://kisti.rkbexplorer.com/id/void``).
    endpoint_uri:
        The dataset's SPARQL endpoint (``void:sparqlEndpoint``).
    ontologies:
        Vocabularies the dataset adopts (``void:vocabulary``).
    uri_pattern:
        Regular expression of the instance URI space
        (``void:uriRegexPattern``) — the second argument of ``sameas``.
    title:
        Human readable name (``dc:title``).
    triple_count:
        Advertised size (``void:triples``), informational.
    property_partitions:
        ``(predicate, triple count)`` pairs (``void:propertyPartition``).
    class_partitions:
        ``(class, entity count)`` pairs (``void:classPartition``).
    partition:
        The subject-hash partition this dataset is a member of, if any.

    The partition statistics and the partition membership are statements
    about the data that the decomposer trusts without checking: a predicate
    missing from ``property_partitions`` is never asked for, and a key whose
    subject hashes to another member is never sent here.  Whoever changes
    the data keeps them true — republish the statistics
    (:meth:`with_statistics`), and write to a partitioned graph only through
    :meth:`repro.federation.shard.ShardedGraph.add` /
    :meth:`~repro.federation.shard.ShardedGraph.discard`, which route by the
    same hash.  A triple on the wrong member makes the routed plan drop rows
    silently; :meth:`~repro.federation.shard.ShardedGraph.misplaced` counts
    such triples.
    """

    uri: URIRef
    endpoint_uri: URIRef
    ontologies: tuple[URIRef, ...] = ()
    uri_pattern: str | None = None
    title: str | None = None
    triple_count: int | None = None
    property_partitions: tuple[tuple[URIRef, int], ...] = ()
    class_partitions: tuple[tuple[URIRef, int], ...] = ()
    partition: SubjectPartition | None = None

    # ------------------------------------------------------------------ #
    # Vocabulary statistics
    # ------------------------------------------------------------------ #
    @property
    def advertises_vocabulary(self) -> bool:
        """Whether the description carries per-predicate partitions."""
        return bool(self.property_partitions)

    def predicates(self) -> frozenset[URIRef]:
        """Predicates the dataset advertises (empty = not advertised)."""
        return frozenset(predicate for predicate, _ in self.property_partitions)

    def classes(self) -> frozenset[URIRef]:
        """``rdf:type`` classes the dataset advertises."""
        return frozenset(cls for cls, _ in self.class_partitions)

    def predicate_count(self, predicate: URIRef) -> int | None:
        """Advertised triple count for ``predicate`` (``None`` = unknown)."""
        for candidate, count in self.property_partitions:
            if candidate == predicate:
                return count
        return None

    def with_statistics(self, graph) -> DatasetDescription:
        """A copy whose partitions/size reflect ``graph``'s live statistics.

        Reads the per-predicate and per-class counters the graph maintains
        incrementally (:attr:`repro.rdf.Graph.stats`), so refreshing after
        mutations never rescans the data.
        """
        stats = graph.stats
        properties = tuple(
            (predicate, count)
            for predicate, count in sorted(
                stats.predicate_counts.items(), key=lambda item: str(item[0])
            )
            if isinstance(predicate, URIRef)
        )
        classes = tuple(
            (cls, count)
            for cls, count in sorted(
                stats.class_counts.items(), key=lambda item: str(item[0])
            )
            if isinstance(cls, URIRef)
        )
        return replace(
            self,
            triple_count=len(graph),
            property_partitions=properties,
            class_partitions=classes,
        )

    # ------------------------------------------------------------------ #
    # RDF encoding
    # ------------------------------------------------------------------ #
    def to_triples(self) -> list[Triple]:
        """The voiD triples describing this dataset."""
        triples = [
            Triple(self.uri, RDF.type, VOID.Dataset),
            Triple(self.uri, VOID.sparqlEndpoint, self.endpoint_uri),
        ]
        for ontology in self.ontologies:
            triples.append(Triple(self.uri, VOID.vocabulary, ontology))
        if self.uri_pattern is not None:
            triples.append(Triple(self.uri, URI_PATTERN_PROPERTY, Literal(self.uri_pattern)))
        if self.title is not None:
            triples.append(Triple(self.uri, DC.title, Literal(self.title)))
        if self.triple_count is not None:
            triples.append(
                Triple(self.uri, VOID.triples, Literal(self.triple_count, datatype=XSD.integer))
            )
        for predicate, count in self.property_partitions:
            partition = fresh_bnode("pp")
            triples.append(Triple(self.uri, VOID.propertyPartition, partition))
            triples.append(Triple(partition, VOID.property, predicate))
            triples.append(Triple(partition, VOID.triples, Literal(count, datatype=XSD.integer)))
        for cls, count in self.class_partitions:
            partition = fresh_bnode("cp")
            triples.append(Triple(self.uri, VOID.classPartition, partition))
            triples.append(Triple(partition, VOID["class"], cls))
            triples.append(Triple(partition, VOID.entities, Literal(count, datatype=XSD.integer)))
        if self.partition is not None:
            member = self.partition
            triples.append(Triple(self.uri, REPRO.partitionOf, member.id))
            triples.append(
                Triple(self.uri, REPRO.partitionIndex, Literal(member.index, datatype=XSD.integer))
            )
            triples.append(
                Triple(self.uri, REPRO.partitionCount, Literal(member.count, datatype=XSD.integer))
            )
            triples.append(Triple(self.uri, REPRO.partitionHash, Literal(member.scheme)))
        return triples

    @classmethod
    def from_graph(cls, graph: Graph, uri: URIRef) -> DatasetDescription:
        """Read one dataset description rooted at ``uri``."""
        endpoint = graph.value(uri, VOID.sparqlEndpoint, None)
        if endpoint is None:
            raise ValueError(f"dataset {uri} has no void:sparqlEndpoint")
        ontologies = tuple(
            sorted(
                (term for term in graph.objects(uri, VOID.vocabulary) if isinstance(term, URIRef)),
                key=str,
            )
        )
        pattern_term = graph.value(uri, URI_PATTERN_PROPERTY, None)
        title_term = graph.value(uri, DC.title, None)
        triple_count = _int_value(graph, uri, VOID.triples)
        return cls(
            uri=uri,
            endpoint_uri=endpoint,  # type: ignore[arg-type]
            ontologies=ontologies,
            uri_pattern=pattern_term.lexical if isinstance(pattern_term, Literal) else None,
            title=title_term.lexical if isinstance(title_term, Literal) else None,
            triple_count=triple_count,
            property_partitions=cls._read_partitions(
                graph, uri, VOID.propertyPartition, VOID.property, VOID.triples
            ),
            class_partitions=cls._read_partitions(
                graph, uri, VOID.classPartition, VOID["class"], VOID.entities
            ),
            partition=cls._read_partition(graph, uri),
        )

    @staticmethod
    def _read_partition(graph: Graph, uri: URIRef) -> SubjectPartition | None:
        """The partition declaration on ``uri``; ``None`` unless it is complete."""
        partition_id = graph.value(uri, REPRO.partitionOf, None)
        index = _int_value(graph, uri, REPRO.partitionIndex)
        count = _int_value(graph, uri, REPRO.partitionCount)
        scheme = graph.value(uri, REPRO.partitionHash, None)
        if (
            not isinstance(partition_id, URIRef)
            or not isinstance(scheme, Literal)
            or index is None
            or count is None
            or not 0 <= index < count
        ):
            return None
        return SubjectPartition(partition_id, index, count, scheme.lexical)

    @staticmethod
    def _read_partitions(
        graph: Graph,
        uri: URIRef,
        link: URIRef,
        key_property: URIRef,
        count_property: URIRef,
    ) -> tuple[tuple[URIRef, int], ...]:
        """Read ``(key, count)`` partition pairs hanging off ``link``."""
        partitions: dict[URIRef, int] = {}
        for node in graph.objects(uri, link):
            key = graph.value(node, key_property, None)
            if not isinstance(key, URIRef):
                continue
            partitions[key] = _int_value(graph, node, count_property) or 0
        return tuple(sorted(partitions.items(), key=lambda item: str(item[0])))


def _int_value(graph: Graph, subject: Term, predicate: URIRef) -> int | None:
    """The integer literal at ``(subject, predicate)``, if there is one."""
    term = graph.value(subject, predicate, None)
    value = term.to_python() if isinstance(term, Literal) else None
    return value if isinstance(value, int) else None


def descriptions_to_graph(descriptions: Iterable[DatasetDescription]) -> Graph:
    """Serialise dataset descriptions into one voiD graph."""
    graph = Graph()
    for description in descriptions:
        graph.add_all(description.to_triples())
    return graph


def descriptions_from_graph(graph: Graph) -> list[DatasetDescription]:
    """Read every ``void:Dataset`` description from a graph."""
    descriptions = []
    for uri in sorted(graph.subjects(RDF.type, VOID.Dataset), key=lambda t: t.sort_key()):
        if isinstance(uri, URIRef):
            descriptions.append(DatasetDescription.from_graph(graph, uri))
    return descriptions
