"""Unit tests for the SPARQL algebra translation."""

from repro.rdf import Variable
from repro.sparql import (
    AlgebraBGP,
    AlgebraDistinct,
    AlgebraFilter,
    AlgebraJoin,
    AlgebraLeftJoin,
    AlgebraProject,
    AlgebraSlice,
    AlgebraUnion,
    parse_query,
    translate_group,
    translate_query,
)

from ..conftest import FIGURE_1_QUERY

EX = "PREFIX ex: <http://ex.org/>\n"


def pattern_algebra(text: str):
    return translate_group(parse_query(text).where)


class TestTranslation:
    def test_figure1_tree_shape(self):
        node = translate_query(parse_query(FIGURE_1_QUERY))
        # distinct(project(filter(bgp)))
        assert isinstance(node, AlgebraDistinct)
        project = node.child
        assert isinstance(project, AlgebraProject)
        assert project.projection == [Variable("a")]
        filter_node = project.child
        assert isinstance(filter_node, AlgebraFilter)
        assert isinstance(filter_node.child, AlgebraBGP)
        assert len(filter_node.child.patterns) == 2

    def test_filter_scopes_over_group(self):
        node = pattern_algebra(EX + """
            SELECT ?x WHERE { ?x ex:p ?y . FILTER (?y > 3) ?x ex:q ?z . }
        """)
        assert isinstance(node, AlgebraFilter)

    def test_optional_becomes_left_join(self):
        node = pattern_algebra(EX + """
            SELECT ?x WHERE { ?x ex:p ?y . OPTIONAL { ?x ex:q ?z } }
        """)
        assert isinstance(node, AlgebraLeftJoin)
        assert isinstance(node.left, AlgebraBGP)
        assert isinstance(node.right, AlgebraBGP)

    def test_optional_filter_attached_to_left_join(self):
        node = pattern_algebra(EX + """
            SELECT ?x WHERE { ?x ex:p ?y . OPTIONAL { ?x ex:q ?z . FILTER (?z > 1) } }
        """)
        assert isinstance(node, AlgebraLeftJoin)
        assert node.expression is not None

    def test_union(self):
        node = pattern_algebra(EX + "SELECT ?x WHERE { { ?x a ex:A } UNION { ?x a ex:B } }")
        assert isinstance(node, AlgebraUnion)

    def test_nested_groups_join(self):
        node = pattern_algebra(EX + "SELECT ?x WHERE { { ?x ex:p ?y } ?y ex:q ?z }")
        assert isinstance(node, AlgebraJoin)

    def test_slice_and_modifiers(self):
        node = translate_query(parse_query(EX + "SELECT ?x WHERE { ?x ex:p ?y } LIMIT 5 OFFSET 2"))
        assert isinstance(node, AlgebraSlice)
        assert node.limit == 5
        assert node.offset == 2

    def test_variables_collected(self):
        node = pattern_algebra(EX + "SELECT * WHERE { ?x ex:p ?y . FILTER (?z > 1) }")
        assert node.variables() == {Variable("x"), Variable("y"), Variable("z")}


class TestTraversal:
    def test_walk_visits_every_node(self):
        node = translate_query(parse_query(FIGURE_1_QUERY))
        kinds = [type(n).__name__ for n in node.walk()]
        assert "AlgebraBGP" in kinds
        assert "AlgebraFilter" in kinds
        assert kinds[0] == "AlgebraDistinct"

    def test_transform_rewrites_bgp_leaves(self):
        node = translate_query(parse_query(FIGURE_1_QUERY))

        def drop_patterns(current):
            if isinstance(current, AlgebraBGP):
                return AlgebraBGP([])
            return None

        transformed = node.transform(drop_patterns)
        bgps = [n for n in transformed.walk() if isinstance(n, AlgebraBGP)]
        assert all(not bgp.patterns for bgp in bgps)
        # The original tree is untouched.
        original_bgps = [n for n in node.walk() if isinstance(n, AlgebraBGP)]
        assert any(bgp.patterns for bgp in original_bgps)
