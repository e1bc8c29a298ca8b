"""Unit tests for the alignment model (OA = <SO, TO, TD, EA>, EA = <LHS, RHS, FD>)."""

import pytest

from repro.alignment import (
    AlignmentError,
    EntityAlignment,
    FunctionalDependency,
    OntologyAlignment,
    SAMEAS_FUNCTION,
)
from repro.rdf import AKT, BNode, KISTI, Literal, Triple, URIRef, Variable

KISTI_ONT = URIRef("http://www.kisti.re.kr/isrl/ResearchRefOntology#")
AKT_ONT = URIRef("http://www.aktors.org/ontology/portal#")
KISTI_DATASET = URIRef("http://kisti.rkbexplorer.com/id/void")
PATTERN = Literal(r"http://kisti\.rkbexplorer\.com/id/\S*")


class TestFunctionalDependency:
    def test_construction(self):
        fd = FunctionalDependency(Variable("a2"), SAMEAS_FUNCTION, [Variable("a1"), PATTERN])
        assert fd.variable == Variable("a2")
        assert fd.parameter_variables() == {Variable("a1")}
        assert not fd.is_ground()

    def test_bnode_target_normalised_to_variable(self):
        fd = FunctionalDependency(BNode("a2"), SAMEAS_FUNCTION, [BNode("a1"), PATTERN])
        assert fd.variable == Variable("a2")
        assert Variable("a1") in fd.parameter_variables()

    def test_ground_parameters(self):
        fd = FunctionalDependency(Variable("x"), SAMEAS_FUNCTION,
                                  [URIRef("http://ex.org/a"), PATTERN])
        assert fd.is_ground()

    def test_non_variable_target_rejected(self):
        with pytest.raises(AlignmentError):
            FunctionalDependency(URIRef("http://ex.org/a"), SAMEAS_FUNCTION, [PATTERN])

    def test_non_uri_function_rejected(self):
        with pytest.raises(AlignmentError):
            FunctionalDependency(Variable("x"), Literal("sameas"), [PATTERN])  # type: ignore[arg-type]

    def test_str_rendering(self):
        fd = FunctionalDependency(Variable("a2"), SAMEAS_FUNCTION, [Variable("a1"), PATTERN])
        assert "?a2" in str(fd)
        assert "sameas" in str(fd)


class TestEntityAlignment:
    def test_worked_example_structure(self, figure2_alignment):
        assert figure2_alignment.lhs.predicate == AKT["has-author"]
        assert len(figure2_alignment.rhs) == 2
        assert len(figure2_alignment.functional_dependencies) == 2

    def test_bnodes_in_patterns_become_variables(self):
        alignment = EntityAlignment(
            lhs=Triple(BNode("p1"), AKT["has-author"], BNode("a1")),
            rhs=[Triple(BNode("p1"), KISTI["hasCreator"], BNode("a1"))],
        )
        assert alignment.lhs.subject == Variable("p1")
        assert alignment.rhs[0].object == Variable("a1")

    def test_lhs_and_rhs_variables(self, figure2_alignment):
        assert figure2_alignment.lhs_variables() == {Variable("p1"), Variable("a1")}
        assert figure2_alignment.rhs_variables() == {Variable("p2"), Variable("c"), Variable("a2")}

    def test_fresh_rhs_variables_exclude_fd_targets(self, figure2_alignment):
        # ?p2 and ?a2 are produced by functional dependencies; only ?c is fresh.
        assert figure2_alignment.fresh_rhs_variables() == {Variable("c")}

    def test_functional_dependency_for(self, figure2_alignment):
        fd = figure2_alignment.functional_dependency_for(Variable("a2"))
        assert fd is not None
        assert fd.function == SAMEAS_FUNCTION
        assert figure2_alignment.functional_dependency_for(Variable("c")) is None

    def test_source_and_target_properties(self, figure2_alignment):
        assert AKT["has-author"] in figure2_alignment.source_properties()
        assert KISTI["hasCreatorInfo"] in figure2_alignment.target_properties()
        assert KISTI["hasCreator"] in figure2_alignment.target_properties()

    def test_empty_rhs_rejected(self):
        with pytest.raises(AlignmentError):
            EntityAlignment(lhs=Triple(Variable("x"), AKT["has-title"], Variable("y")), rhs=[])

    def test_fd_over_unknown_variable_rejected(self):
        with pytest.raises(AlignmentError):
            EntityAlignment(
                lhs=Triple(Variable("x"), AKT["has-title"], Variable("y")),
                rhs=[Triple(Variable("x"), KISTI["title"], Variable("y"))],
                functional_dependencies=[
                    FunctionalDependency(Variable("nowhere"), SAMEAS_FUNCTION, [Variable("x")]),
                ],
            )

    def test_fd_parameter_unknown_variable_rejected(self):
        with pytest.raises(AlignmentError):
            EntityAlignment(
                lhs=Triple(Variable("x"), AKT["has-title"], Variable("y")),
                rhs=[Triple(Variable("x"), KISTI["title"], Variable("y2"))],
                functional_dependencies=[
                    FunctionalDependency(Variable("y2"), SAMEAS_FUNCTION, [Variable("missing")]),
                ],
            )

    def test_equality_ignores_identifier(self, figure2_alignment):
        clone = EntityAlignment(
            lhs=figure2_alignment.lhs,
            rhs=list(figure2_alignment.rhs),
            functional_dependencies=list(figure2_alignment.functional_dependencies),
            identifier=URIRef("http://ex.org/different-name"),
        )
        assert clone == figure2_alignment
        assert hash(clone) == hash(figure2_alignment)

    def test_is_identity(self):
        lhs = Triple(Variable("x"), AKT["has-title"], Variable("y"))
        assert EntityAlignment(lhs=lhs, rhs=[lhs]).is_identity()
        assert not EntityAlignment(
            lhs=lhs, rhs=[Triple(Variable("x"), KISTI["title"], Variable("y"))]
        ).is_identity()

    def test_describe_mentions_all_parts(self, figure2_alignment):
        text = figure2_alignment.describe()
        assert "LHS" in text and "RHS" in text and "FD" in text


class TestOntologyAlignment:
    def make(self, **kwargs):
        defaults = dict(
            source_ontologies=[AKT_ONT],
            target_ontologies=[KISTI_ONT],
            target_datasets=[KISTI_DATASET],
        )
        defaults.update(kwargs)
        return OntologyAlignment(**defaults)

    def test_context_of_validity(self):
        alignment = self.make()
        assert alignment.applies_to_source(AKT_ONT)
        assert not alignment.applies_to_source(KISTI_ONT)
        assert alignment.applies_to_target_dataset(KISTI_DATASET)
        assert KISTI_ONT in alignment.target_ontologies
        assert alignment.target_datasets

    def test_ontology_scoped_alignment_is_reusable(self):
        alignment = self.make(target_datasets=[])
        assert not alignment.target_datasets
        assert not alignment.applies_to_target_dataset(KISTI_DATASET)
        assert KISTI_ONT in alignment.target_ontologies

    def test_requires_source_ontology(self):
        with pytest.raises(AlignmentError):
            OntologyAlignment(source_ontologies=[], target_ontologies=[KISTI_ONT])

    def test_requires_some_target(self):
        with pytest.raises(AlignmentError):
            OntologyAlignment(source_ontologies=[AKT_ONT])

    def test_add_and_iterate(self, figure2_alignment):
        alignment = self.make()
        alignment.add(figure2_alignment)
        assert len(alignment) == 1
        assert list(alignment) == [figure2_alignment]
