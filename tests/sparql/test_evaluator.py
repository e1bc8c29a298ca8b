"""Unit tests for SPARQL query evaluation over in-memory graphs."""

import pytest

from repro.rdf import Graph, Literal, RDF, Triple, URIRef, Variable
from repro.sparql import AskResult, Binding, QueryEvaluator, ResultSet, match_bgp, parse_query

EX = "http://ex.org/"


def uri(name: str) -> URIRef:
    return URIRef(EX + name)


@pytest.fixture()
def graph() -> Graph:
    g = Graph()
    g.namespace_manager.bind("ex", EX)
    people = {
        "alice": ("Alice", 34),
        "bob": ("Bob", 28),
        "carol": ("Carol", 45),
    }
    for key, (name, age) in people.items():
        g.add(Triple(uri(key), RDF.type, uri("Person")))
        g.add(Triple(uri(key), uri("name"), Literal(name)))
        g.add(Triple(uri(key), uri("age"), Literal(age)))
    g.add(Triple(uri("paper1"), uri("author"), uri("alice")))
    g.add(Triple(uri("paper1"), uri("author"), uri("bob")))
    g.add(Triple(uri("paper2"), uri("author"), uri("alice")))
    g.add(Triple(uri("paper2"), uri("author"), uri("carol")))
    g.add(Triple(uri("alice"), uri("email"), Literal("alice@example.org")))
    return g


@pytest.fixture()
def evaluator(graph) -> QueryEvaluator:
    return QueryEvaluator(graph)


PREFIX = "PREFIX ex: <http://ex.org/>\n"


class TestBgpMatching:
    def test_single_pattern(self, graph):
        solutions = list(match_bgp([Triple(Variable("p"), uri("author"), uri("alice"))], graph))
        assert {s["p"] for s in solutions} == {uri("paper1"), uri("paper2")}

    def test_join_two_patterns(self, graph):
        solutions = list(match_bgp([
            Triple(Variable("paper"), uri("author"), uri("alice")),
            Triple(Variable("paper"), uri("author"), Variable("other")),
        ], graph))
        others = {s["other"] for s in solutions}
        assert others == {uri("alice"), uri("bob"), uri("carol")}

    def test_unsatisfiable_pattern(self, graph):
        solutions = list(match_bgp([
            Triple(Variable("x"), uri("author"), uri("nobody")),
        ], graph))
        assert solutions == []

    def test_initial_binding_respected(self, graph):
        initial = Binding({Variable("p"): uri("paper1")})
        solutions = list(match_bgp([
            Triple(Variable("p"), uri("author"), Variable("a")),
        ], graph, initial=initial))
        assert {s["a"] for s in solutions} == {uri("alice"), uri("bob")}

    def test_empty_bgp_returns_initial(self, graph):
        solutions = list(match_bgp([], graph))
        assert len(solutions) == 1

    def test_variable_bound_to_data_bnode_joins_exactly(self):
        """A variable bound to a blank node from the data must join on it.

        Regression test: joining through intermediate blank nodes (the
        KISTI CreatorInfo modelling) must not degenerate into a cross
        product.
        """
        from repro.rdf import BNode

        g = Graph()
        papers = [uri("p1"), uri("p2"), uri("p3")]
        for index, paper in enumerate(papers):
            info = BNode(f"info{index}")
            g.add(Triple(paper, uri("hasCreatorInfo"), info))
            g.add(Triple(info, uri("hasCreator"), uri(f"author{index}")))
        solutions = list(match_bgp([
            Triple(Variable("paper"), uri("hasCreatorInfo"), Variable("c")),
            Triple(Variable("c"), uri("hasCreator"), Variable("author")),
        ], g))
        assert len(solutions) == 3
        pairs = {(s["paper"], s["author"]) for s in solutions}
        assert pairs == {(uri(f"p{i + 1}"), uri(f"author{i}")) for i in range(3)}


class TestSelect:
    def test_simple_select(self, evaluator):
        result = evaluator.select(PREFIX + "SELECT ?n WHERE { ex:alice ex:name ?n }")
        assert isinstance(result, ResultSet)
        assert result.column("n") == [Literal("Alice")]

    def test_select_star_projects_all_variables(self, evaluator):
        result = evaluator.select(PREFIX + "SELECT * WHERE { ?s ex:name ?n }")
        assert {v.name for v in result.variables} == {"s", "n"}
        assert len(result) == 3

    def test_distinct(self, evaluator):
        query = PREFIX + "SELECT DISTINCT ?a WHERE { ?p ex:author ?a }"
        result = evaluator.select(query)
        assert len(result) == 3
        without_distinct = evaluator.select(PREFIX + "SELECT ?a WHERE { ?p ex:author ?a }")
        assert len(without_distinct) == 4

    def test_filter_numeric(self, evaluator):
        result = evaluator.select(
            PREFIX + "SELECT ?s WHERE { ?s ex:age ?age . FILTER (?age > 30) }"
        )
        assert result.distinct_values("s") == {uri("alice"), uri("carol")}

    def test_filter_inequality_on_uri(self, evaluator):
        result = evaluator.select(PREFIX + """
            SELECT DISTINCT ?a WHERE {
                ?p ex:author ex:alice . ?p ex:author ?a .
                FILTER (!(?a = ex:alice))
            }
        """)
        assert result.distinct_values("a") == {uri("bob"), uri("carol")}

    def test_optional(self, evaluator):
        result = evaluator.select(PREFIX + """
            SELECT ?s ?mail WHERE {
                ?s a ex:Person .
                OPTIONAL { ?s ex:email ?mail }
            }
        """)
        rows = {binding["s"]: binding.get_term("mail") for binding in result}
        assert rows[uri("alice")] == Literal("alice@example.org")
        assert rows[uri("bob")] is None

    def test_union(self, evaluator):
        result = evaluator.select(PREFIX + """
            SELECT ?x WHERE {
                { ?x ex:name "Alice" } UNION { ?x ex:name "Bob" }
            }
        """)
        assert result.distinct_values("x") == {uri("alice"), uri("bob")}

    def test_order_by_and_limit(self, evaluator):
        result = evaluator.select(PREFIX + """
            SELECT ?s ?age WHERE { ?s ex:age ?age } ORDER BY ?age LIMIT 2
        """)
        assert [binding["s"] for binding in result] == [uri("bob"), uri("alice")]

    def test_order_by_desc_with_offset(self, evaluator):
        result = evaluator.select(PREFIX + """
            SELECT ?s WHERE { ?s ex:age ?age } ORDER BY DESC(?age) OFFSET 1 LIMIT 1
        """)
        assert [binding["s"] for binding in result] == [uri("alice")]

    def test_empty_result(self, evaluator):
        result = evaluator.select(PREFIX + 'SELECT ?s WHERE { ?s ex:name "Nobody" }')
        assert len(result) == 0
        assert not result

    def test_cross_product_of_disconnected_patterns(self, evaluator):
        result = evaluator.select(PREFIX + """
            SELECT ?a ?b WHERE { ?a ex:name "Alice" . ?b ex:name "Bob" . }
        """)
        assert len(result) == 1
        assert result.bindings[0]["a"] == uri("alice")
        assert result.bindings[0]["b"] == uri("bob")

    def test_string_query_and_ast_query_agree(self, evaluator):
        text = PREFIX + "SELECT ?n WHERE { ex:alice ex:name ?n }"
        assert evaluator.select(text).to_dicts() == evaluator.select(parse_query(text)).to_dicts()


class TestAskAndConstruct:
    def test_ask_true(self, evaluator):
        result = evaluator.evaluate(PREFIX + "ASK { ex:alice ex:name ?n }")
        assert isinstance(result, AskResult)
        assert bool(result) is True

    def test_ask_false(self, evaluator):
        result = evaluator.evaluate(PREFIX + 'ASK { ex:alice ex:name "Zoe" }')
        assert bool(result) is False

    def test_construct(self, evaluator):
        result = evaluator.evaluate(PREFIX + """
            CONSTRUCT { ?a ex:wrote ?p } WHERE { ?p ex:author ?a }
        """)
        assert isinstance(result, Graph)
        assert Triple(uri("alice"), uri("wrote"), uri("paper1")) in result
        assert len(result) == 4

    def test_construct_skips_partially_bound_templates(self, evaluator):
        result = evaluator.evaluate(PREFIX + """
            CONSTRUCT { ?a ex:hasEmail ?mail } WHERE {
                ?p ex:author ?a . OPTIONAL { ?a ex:email ?mail }
            }
        """)
        assert len(result) == 1  # only alice has an email

    def test_construct_with_bnode_template(self, evaluator):
        result = evaluator.evaluate(PREFIX + """
            CONSTRUCT { ?a ex:attr _:b . _:b ex:value ?n } WHERE { ?a ex:name ?n }
        """)
        # Each solution instantiates a fresh bnode: 3 people x 2 triples.
        assert len(result) == 6


class TestResultSet:
    def test_to_dicts_and_json(self, evaluator):
        result = evaluator.select(PREFIX + "SELECT ?n WHERE { ex:alice ex:name ?n }")
        assert result.to_dicts() == [{"n": '"Alice"'}]
        payload = result.to_json_dict()
        assert payload["head"]["vars"] == ["n"]
        assert payload["results"]["bindings"][0]["n"]["value"] == "Alice"

    def test_to_table_contains_headers(self, evaluator):
        result = evaluator.select(PREFIX + "SELECT ?s ?n WHERE { ?s ex:name ?n }")
        table = result.to_table()
        assert "?s" in table and "?n" in table
        assert "Alice" in table

    def test_binding_merge_and_compatibility(self):
        left = Binding({Variable("x"): uri("a")})
        right = Binding({Variable("x"): uri("a"), Variable("y"): uri("b")})
        conflicting = Binding({Variable("x"): uri("z")})
        assert left.compatible(right)
        assert not left.compatible(conflicting)
        assert left.merge(right)["y"] == uri("b")

    def test_binding_project_and_substitute(self):
        binding = Binding({Variable("x"): uri("a"), Variable("y"): uri("b")})
        assert set(binding.project(["x"]).keys()) == {Variable("x")}
        assert binding.substitute(Variable("x")) == uri("a")
        assert binding.substitute(Variable("unbound")) == Variable("unbound")
        assert binding.substitute(uri("c")) == uri("c")


class TestSharedEvaluator:
    """One evaluator serves every handler thread of an endpoint."""

    def test_prepare_reads_its_memo_once(self, graph, evaluator):
        """Another thread may replace the memo between any two reads of it;
        a query must never be paired with another query's analysis."""
        first, second = (
            parse_query(PREFIX + f"SELECT ?n WHERE {{ ex:{who} ex:name ?n }}")
            for who in ("alice", "bob")
        )
        memos = [(query, *evaluator._prepare(query)) for query in (first, second)]

        class Raced(QueryEvaluator):
            reads = 0

            @property
            def _prepared(self):
                # The memo is ``first``'s while it is checked, and
                # ``second``'s by the time a third read would fetch its parts.
                Raced.reads += 1
                return memos[0] if Raced.reads <= 2 else memos[1]

            @_prepared.setter
            def _prepared(self, value):
                pass

        analysis, effective = Raced(graph)._prepare(first)
        assert analysis is memos[0][1]
        assert effective is memos[0][2]


class TestDecodeBoundary:
    """SELECT rows are decoded straight onto the projection."""

    @pytest.mark.parametrize("select", [
        "?n ?n",           # a repeated variable: two cells from one column
        "?zz ?n",          # never bound anywhere in the plan
        "?__bnode_who ?n",  # named like the anchor the projection strips
    ])
    def test_projection_the_plan_schema_does_not_mirror(self, graph, select):
        text = PREFIX + f"SELECT {select} WHERE {{ _:who ex:name ?n }}"
        expected = sorted(QueryEvaluator(graph, engine="reference").evaluate(text).rows)
        assert len(expected) == 3
        result = QueryEvaluator(graph).evaluate(text)
        assert sorted(result.rows) == expected
        assert [len(binding) for binding in result.bindings] == [1, 1, 1]
