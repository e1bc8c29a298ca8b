"""Unit tests for alignment validation and structural comparison."""

from repro.alignment import (
    EntityAlignment,
    FunctionalDependency,
    OntologyAlignment,
    SAMEAS_FUNCTION,
    class_alignment,
    default_registry,
    property_alignment,
)
from repro.rdf import AKT, KISTI, Literal, Triple, URIRef, Variable
from tests.alignment.validation import (
    rename_variables,
    structurally_equivalent,
    validate_entity_alignment,
    validate_ontology_alignment,
)

AKT_ONT = URIRef("http://www.aktors.org/ontology/portal#")
KISTI_ONT = URIRef("http://www.kisti.re.kr/isrl/ResearchRefOntology#")
PATTERN = Literal(r"http://kisti\.rkbexplorer\.com/id/\S*")


def errors(issues):
    return [issue for issue in issues if issue.is_error()]


def warnings(issues):
    return [issue for issue in issues if not issue.is_error()]


class TestEntityAlignmentValidation:
    def test_clean_alignment_has_no_errors(self, figure2_alignment, registry):
        issues = validate_entity_alignment(figure2_alignment, registry)
        assert errors(issues) == []

    def test_fresh_variable_warning(self, figure2_alignment, registry):
        issues = validate_entity_alignment(figure2_alignment, registry)
        # ?c is fresh (no FD): one warning mentioning it.
        assert any("?c" in issue.message for issue in warnings(issues))

    def test_ground_lhs_warning(self):
        alignment = EntityAlignment(
            lhs=Triple(URIRef("http://ex.org/s"), AKT["has-title"], Literal("fixed")),
            rhs=[Triple(URIRef("http://ex.org/s"), KISTI["title"], Literal("fixed"))],
        )
        issues = validate_entity_alignment(alignment)
        assert any("fully ground" in issue.message for issue in warnings(issues))

    def test_unregistered_function_is_error(self, figure2_alignment):
        registry = default_registry()  # no sameas bound (no service)
        issues = validate_entity_alignment(figure2_alignment, registry)
        assert any("not registered" in issue.message for issue in errors(issues))

    def test_no_registry_skips_function_check(self, figure2_alignment):
        issues = validate_entity_alignment(figure2_alignment, registry=None)
        assert errors(issues) == []

    def test_fd_target_in_lhs_warning(self):
        x, y = Variable("x"), Variable("y")
        alignment = EntityAlignment(
            lhs=Triple(x, AKT["has-title"], y),
            rhs=[Triple(x, KISTI["title"], y)],
            functional_dependencies=[
                FunctionalDependency(y, SAMEAS_FUNCTION, [y, PATTERN]),
            ],
        )
        issues = validate_entity_alignment(alignment)
        assert any("overwritten" in issue.message for issue in warnings(issues))


class TestOntologyAlignmentValidation:
    def test_empty_oa_warns(self):
        oa = OntologyAlignment(source_ontologies=[AKT_ONT], target_ontologies=[KISTI_ONT])
        issues = validate_ontology_alignment(oa)
        assert any("no entity alignments" in issue.message for issue in issues)

    def test_duplicate_heads_warn(self):
        oa = OntologyAlignment(
            source_ontologies=[AKT_ONT],
            target_ontologies=[KISTI_ONT],
            entity_alignments=[
                property_alignment(AKT["has-title"], KISTI["title"]),
                property_alignment(AKT["has-title"], KISTI["name"]),
            ],
        )
        issues = validate_ontology_alignment(oa)
        assert any("share the head predicate" in issue.message for issue in issues)

    def test_both_targets_warn(self):
        oa = OntologyAlignment(
            source_ontologies=[AKT_ONT],
            target_ontologies=[KISTI_ONT],
            target_datasets=[URIRef("http://kisti.rkbexplorer.com/id/void")],
            entity_alignments=[class_alignment(AKT["Person"], KISTI["Researcher"])],
        )
        issues = validate_ontology_alignment(oa)
        assert any("both target ontologies and target datasets" in issue.message
                   for issue in issues)

    def test_nested_issues_prefixed_with_index(self, figure2_alignment):
        oa = OntologyAlignment(
            source_ontologies=[AKT_ONT],
            target_ontologies=[KISTI_ONT],
            entity_alignments=[figure2_alignment],
        )
        issues = validate_ontology_alignment(oa, default_registry())
        assert any(issue.message.startswith("[EA 0]") for issue in issues)


class TestStructuralEquivalence:
    def test_renaming_is_canonical(self, figure2_alignment):
        renamed = rename_variables(figure2_alignment)
        assert renamed.lhs.subject == Variable("v0")
        assert rename_variables(renamed) == renamed

    def test_equivalent_up_to_renaming(self, figure2_alignment):
        x, y = Variable("paper"), Variable("author")
        p2, c, a2 = Variable("kpaper"), Variable("info"), Variable("kauthor")
        clone = EntityAlignment(
            lhs=Triple(x, AKT["has-author"], y),
            rhs=[Triple(p2, KISTI["hasCreatorInfo"], c), Triple(c, KISTI["hasCreator"], a2)],
            functional_dependencies=[
                FunctionalDependency(p2, SAMEAS_FUNCTION, [x, PATTERN]),
                FunctionalDependency(a2, SAMEAS_FUNCTION, [y, PATTERN]),
            ],
        )
        assert structurally_equivalent(clone, figure2_alignment)

    def test_not_equivalent_when_structure_differs(self, figure2_alignment):
        other = property_alignment(AKT["has-author"], KISTI["hasCreator"])
        assert not structurally_equivalent(other, figure2_alignment)
