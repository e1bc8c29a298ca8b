"""Unit tests for voiD dataset descriptions."""

import pytest

from repro.federation import DatasetDescription, descriptions_from_graph, descriptions_to_graph
from repro.federation.void import REPRO, SubjectPartition
from repro.rdf import Graph, Literal, RDF, Triple, URIRef, VOID


def make_description(**overrides) -> DatasetDescription:
    defaults = dict(
        uri=URIRef("http://kisti.rkbexplorer.com/id/void"),
        endpoint_uri=URIRef("http://kisti.rkbexplorer.com/sparql/"),
        ontologies=(URIRef("http://www.kisti.re.kr/isrl/ResearchRefOntology#"),),
        uri_pattern=r"http://kisti\.rkbexplorer\.com/id/\S*",
        title="KISTI",
        triple_count=1234,
    )
    defaults.update(overrides)
    return DatasetDescription(**defaults)


class TestVoidEncoding:
    def test_to_triples_contains_core_properties(self):
        triples = make_description().to_triples()
        graph = Graph().add_all(triples)
        uri = URIRef("http://kisti.rkbexplorer.com/id/void")
        assert Triple(uri, RDF.type, VOID.Dataset) in graph
        assert graph.value(uri, VOID.sparqlEndpoint, None) is not None
        assert graph.value(uri, VOID.uriRegexPattern, None) is not None
        assert graph.value(uri, VOID.triples, None) is not None

    def test_roundtrip(self):
        original = make_description()
        graph = descriptions_to_graph([original])
        restored = descriptions_from_graph(graph)
        assert restored == [original]

    def test_roundtrip_without_optional_fields(self):
        original = make_description(uri_pattern=None, title=None, triple_count=None)
        restored = descriptions_from_graph(descriptions_to_graph([original]))
        assert restored == [original]

    def test_multiple_descriptions(self):
        first = make_description()
        second = make_description(uri=URIRef("http://dbpedia.org/void"),
                                  endpoint_uri=URIRef("http://dbpedia.org/sparql"),
                                  title="DBpedia")
        restored = descriptions_from_graph(descriptions_to_graph([first, second]))
        assert len(restored) == 2
        assert {d.uri for d in restored} == {first.uri, second.uri}

    def test_missing_endpoint_raises(self):
        graph = Graph()
        uri = URIRef("http://broken.org/void")
        graph.add(Triple(uri, RDF.type, VOID.Dataset))
        with pytest.raises(ValueError):
            DatasetDescription.from_graph(graph, uri)

    def test_ontologies_sorted_deterministically(self):
        description = make_description(ontologies=(
            URIRef("http://z.org/onto#"), URIRef("http://a.org/onto#"),
        ))
        restored = descriptions_from_graph(descriptions_to_graph([description]))
        assert list(restored[0].ontologies) == sorted(restored[0].ontologies, key=str)


class TestPartitionDeclaration:
    PARTITION = SubjectPartition(
        URIRef("http://kisti.rkbexplorer.com/graph"), 1, 3, "crc32-lexical"
    )

    def test_roundtrip_under_the_repo_namespace(self):
        original = make_description(partition=self.PARTITION)
        graph = descriptions_to_graph([original])
        assert graph.value(original.uri, REPRO.partitionOf, None) == self.PARTITION.id
        assert graph.value(original.uri, REPRO.partitionIndex, None).to_python() == 1
        assert graph.value(original.uri, REPRO.partitionCount, None).to_python() == 3
        assert graph.value(original.uri, REPRO.partitionHash, None) == Literal("crc32-lexical")
        assert descriptions_from_graph(graph) == [original]

    def test_undeclared_description_writes_no_partition_triples(self):
        graph = descriptions_to_graph([make_description()])
        assert not [t for t in graph if str(t.predicate).startswith(str(REPRO["partition"]))]

    @pytest.mark.parametrize("dropped", ["partitionOf", "partitionIndex", "partitionCount",
                                         "partitionHash"])
    def test_incomplete_declaration_reads_as_none(self, dropped):
        original = make_description(partition=self.PARTITION)
        graph = descriptions_to_graph([original])
        for triple in list(graph.triples(original.uri, REPRO[dropped], None)):
            graph.discard(triple)
        [restored] = descriptions_from_graph(graph)
        assert restored.partition is None

    def test_index_outside_the_count_reads_as_none(self):
        original = make_description(partition=SubjectPartition(self.PARTITION.id, 3, 3, "x"))
        [restored] = descriptions_from_graph(descriptions_to_graph([original]))
        assert restored.partition is None
