"""Unit tests for CONSTRUCT-query generation from alignments (data translation)."""


from repro.alignment import class_alignment, property_alignment
from repro.core import (
    DataTranslator,
    construct_queries_for_alignments,
    construct_query_for_alignment,
    translate_graph_uris,
)
from repro.datasets import KISTI_URI_PATTERN, akt_to_kisti_alignment
from repro.rdf import AKT, Graph, KISTI, Literal, RDF, RKB_ID, KISTI_ID, Triple, Variable
from repro.sparql import ConstructQuery, QueryEvaluator


class TestConstructGeneration:
    def test_simple_property_alignment(self):
        alignment = property_alignment(AKT["has-title"], KISTI["title"])
        generated = construct_query_for_alignment(alignment)
        assert isinstance(generated.query, ConstructQuery)
        assert generated.query.template[0].predicate == KISTI["title"]
        assert generated.query.all_triple_patterns()[0].predicate == AKT["has-title"]

    def test_worked_example_chain(self, figure2_alignment):
        generated = construct_query_for_alignment(figure2_alignment)
        # WHERE = the single LHS triple, template = the two RHS triples.
        assert len(generated.query.all_triple_patterns()) == 1
        assert len(generated.query.template) == 2
        # FD-produced variables are aliased to their LHS source variables...
        template_terms = {term for pattern in generated.query.template for term in pattern}
        assert Variable("p1") in template_terms
        assert Variable("a1") in template_terms

    def test_query_text_is_valid_sparql(self, figure2_alignment):
        from repro.sparql import parse_query

        generated = construct_query_for_alignment(
            figure2_alignment, prefixes={"akt": str(AKT), "kisti": str(KISTI)}
        )
        reparsed = parse_query(generated.query_text)
        assert isinstance(reparsed, ConstructQuery)
        assert len(reparsed.template) == 2

    def test_generation_for_whole_kb(self):
        generated = construct_queries_for_alignments(akt_to_kisti_alignment())
        assert len(generated) == 24


class TestTranslateGraphUris:
    def test_uris_mapped_to_target_space(self, sameas_service):
        graph = Graph()
        graph.add(Triple(RKB_ID["person-02686"], RDF.type, KISTI["Researcher"]))
        translated = translate_graph_uris(graph, sameas_service, KISTI_URI_PATTERN)
        subjects = {t.subject for t in translated}
        assert KISTI_ID["PER_00000000000105047"] in subjects

    def test_unlinked_uris_and_literals_untouched(self, sameas_service):
        graph = Graph()
        graph.add(Triple(RKB_ID["orphan"], KISTI["name"], Literal("Orphan")))
        translated = translate_graph_uris(graph, sameas_service, KISTI_URI_PATTERN)
        assert Triple(RKB_ID["orphan"], KISTI["name"], Literal("Orphan")) in translated


class TestDataTranslator:
    def akt_source_graph(self) -> Graph:
        graph = Graph()
        paper = RKB_ID["paper-00001"]
        graph.add(Triple(paper, RDF.type, AKT["Article-Reference"]))
        graph.add(Triple(paper, AKT["has-title"], Literal("Rewriting SPARQL")))
        graph.add(Triple(paper, AKT["has-author"], RKB_ID["person-02686"]))
        graph.add(Triple(RKB_ID["person-02686"], RDF.type, AKT["Person"]))
        return graph

    def test_structure_translated_to_target_vocabulary(self, sameas_service):
        translator = DataTranslator(list(akt_to_kisti_alignment()), sameas_service,
                                    KISTI_URI_PATTERN)
        result = translator.translate(self.akt_source_graph())
        predicates = {t.predicate for t in result}
        assert KISTI["title"] in predicates
        assert KISTI["hasCreatorInfo"] in predicates
        assert KISTI["hasCreator"] in predicates
        assert AKT["has-author"] not in predicates

    def test_instance_uris_reminted(self, sameas_service):
        translator = DataTranslator(list(akt_to_kisti_alignment()), sameas_service,
                                    KISTI_URI_PATTERN)
        result = translator.translate(self.akt_source_graph())
        creators = {t.object for t in result.triples(None, KISTI["hasCreator"], None)}
        assert KISTI_ID["PER_00000000000105047"] in creators

    def test_without_sameas_uris_stay_in_source_space(self):
        translator = DataTranslator(list(akt_to_kisti_alignment()))
        result = translator.translate(self.akt_source_graph())
        creators = {t.object for t in result.triples(None, KISTI["hasCreator"], None)}
        assert RKB_ID["person-02686"] in creators

    def test_translated_data_answers_target_vocabulary_queries(self, sameas_service):
        translator = DataTranslator(list(akt_to_kisti_alignment()), sameas_service,
                                    KISTI_URI_PATTERN)
        result = translator.translate(self.akt_source_graph())
        rows = QueryEvaluator(result).select("""
            PREFIX kisti:<http://www.kisti.re.kr/isrl/ResearchRefOntology#>
            SELECT ?a WHERE { ?p kisti:hasCreatorInfo ?c . ?c kisti:hasCreator ?a }
        """)
        assert len(rows) == 1

    def test_query_texts_exposed(self, sameas_service):
        translator = DataTranslator([class_alignment(AKT["Person"], KISTI["Researcher"])])
        texts = translator.query_texts()
        assert len(texts) == 1
        assert "CONSTRUCT" in texts[0]
