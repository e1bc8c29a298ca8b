"""Subject-hash sharding: one logical graph behind N federated endpoints.

Each shard advertises its own voiD partitions and its membership in the
subject-hash partition; the decomposer routes patterns by the former,
groups co-located patterns and routes bound-join keys by the latter, and
bound joins stitch cross-shard paths back together.  These tests pin (a)
the hash routing invariants, (b) the per-shard statistics and the
declaration, (c) the end-to-end answer equality between a sharded
federation and single-graph evaluation — as worked examples and as a
hypothesis differential — (d) when grouping must *not* form, and (e) what a
star and a path cost on the wire.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.alignment import AlignmentStore
from repro.coreference import SameAsService
from repro.federation import (
    DatasetDescription,
    DatasetRegistry,
    HttpSparqlEndpoint,
    LocalSparqlEndpoint,
    MediatorService,
    RegisteredDataset,
    shard_for_subject,
    shard_graph,
)
from repro.federation.decompose import QueryUnit, _PlanExecutor
from repro.federation.shard import SUBJECT_HASH_SCHEME
from repro.federation.void import SubjectPartition
from repro.rdf import (
    Graph, Literal, RDF, SegmentStore, Triple, URIRef, Variable, open_graph,
)
from repro.server import EndpointBackend, SparqlHttpServer
from repro.sparql import InlineData, QueryEvaluator, parse_query
from repro.sparql.evaluator import pattern_text

from .test_decompose import _OpaqueEndpoint

EX = "http://shard.example/"


def u(name: str) -> URIRef:
    return URIRef(EX + name)


def chain_graph(people: int = 12) -> Graph:
    """A knows-chain plus names and types: star joins and path joins."""
    graph = Graph()
    for i in range(people):
        graph.add(Triple(u(f"p{i}"), u("name"), Literal(f"person {i}")))
        graph.add(Triple(u(f"p{i}"), RDF.type, u("Person")))
        if i + 1 < people:
            graph.add(Triple(u(f"p{i}"), u("knows"), u(f"p{i + 1}")))
    return graph


def decompose_service(registry) -> MediatorService:
    return MediatorService(
        AlignmentStore(), registry, SameAsService(), strategy="decompose"
    )


def rows_of(outcome, names):
    return {
        tuple(str(binding.get_term(name)) for name in names)
        for binding in outcome.merged()
    }


def reference_rows(graph, query_text, names):
    """The oracle: the dict-at-a-time reference engine over the whole graph."""
    result = QueryEvaluator(graph, engine="reference").evaluate(parse_query(query_text))
    return {
        tuple(str(binding.get_term(name)) for name in names)
        for binding in result.bindings
    }


def undeclared(registry) -> DatasetRegistry:
    """The same datasets without their partition declarations.

    Nothing then tells the decomposer that subjects are co-located, so it
    plans one-pattern units and broadcasts every key: the per-pattern plan.
    """
    return DatasetRegistry(
        RegisteredDataset(replace(dataset.description, partition=None), dataset.endpoint)
        for dataset in registry
    )


def colocated_units(service, query_text) -> list[QueryUnit]:
    plan = service.federation.decompose_plan(query_text)
    return [unit for unit in plan.units if unit.subject is not None]


class TestSubjectHash:
    def test_deterministic_and_bounded(self):
        for name in ("p0", "p1", "alice", "bob"):
            first = shard_for_subject(u(name), 4)
            assert 0 <= first < 4
            assert shard_for_subject(u(name), 4) == first

    def test_validates_shard_count(self):
        with pytest.raises(ValueError):
            shard_for_subject(u("a"), 0)
        with pytest.raises(ValueError):
            shard_graph(Graph(), 0)


class TestShardGraph:
    def test_partitions_by_subject_and_loses_nothing(self):
        source = chain_graph()
        sharded = shard_graph(source, 3)
        assert sharded.shards == 3
        assert len(sharded) == len(source)
        union = Graph()
        for index, shard in enumerate(sharded.graphs):
            for triple in shard:
                # Every triple sits on the shard its subject hashes to.
                assert shard_for_subject(triple.subject, 3) == index
            union.add_all(shard)
        assert union == source

    def test_descriptions_advertise_per_shard_statistics(self):
        source = chain_graph()
        sharded = shard_graph(source, 3)
        for shard, description in zip(sharded.graphs, sharded.descriptions, strict=True):
            assert description.triple_count == len(shard)
            assert dict(description.property_partitions) == {
                p: c for p, c in shard.stats.predicate_counts.items()
            }
        merged: dict[URIRef, int] = {}
        for description in sharded.descriptions:
            for predicate, count in description.property_partitions:
                merged[predicate] = merged.get(predicate, 0) + count
        assert merged == source.stats.predicate_counts

    def test_descriptions_declare_the_partition_and_statistics_keep_it(self):
        source = chain_graph()
        sharded = shard_graph(source, 3, base_uri=EX + "chain")
        for index, description in enumerate(sharded.descriptions):
            assert description.partition == SubjectPartition(
                URIRef(EX + "chain"), index, 3, SUBJECT_HASH_SCHEME
            )
            assert description.with_statistics(Graph()).partition == description.partition
        assert sharded.registry.refresh_statistics() == 3
        assert [d.description.partition.index for d in sharded.registry] == [0, 1, 2]

    def test_add_and_discard_route_by_subject_hash(self):
        sharded = shard_graph(chain_graph(), 3)
        fact = Triple(u("newcomer"), u("name"), Literal("new"))
        home = shard_for_subject(fact.subject, 3)
        sharded.add(fact)
        assert [fact in graph for graph in sharded.graphs] == [i == home for i in range(3)]
        assert sharded.misplaced() == 0
        sharded.discard(fact)
        assert not any(fact in graph for graph in sharded.graphs)

    def test_misplaced_counts_triples_written_past_the_router(self):
        sharded = shard_graph(chain_graph(), 3)
        fact = Triple(u("stray"), u("name"), Literal("stray"))
        wrong = (shard_for_subject(fact.subject, 3) + 1) % 3
        sharded.graphs[wrong].add(fact)
        assert sharded.misplaced() == 1

    def test_registry_contains_every_shard(self):
        sharded = shard_graph(chain_graph(), 4)
        assert len(list(sharded.registry)) == 4
        for endpoint, description in zip(sharded.endpoints, sharded.descriptions,
                                         strict=True):
            assert sharded.registry.get(description.uri).endpoint is endpoint


class TestFederatedEquality:
    @staticmethod
    def _service(sharded):
        return MediatorService(AlignmentStore(), sharded.registry, SameAsService())

    @staticmethod
    def _local_rows(graph, query_text, names):
        result = QueryEvaluator(graph, engine="planner").evaluate(
            parse_query(query_text))
        return {
            tuple(str(binding.get_term(name)) for name in names)
            for binding in result.bindings
        }

    def test_cross_shard_path_join_matches_single_graph(self):
        source = chain_graph()
        sharded = shard_graph(source, 3)
        query = (f"SELECT DISTINCT ?a ?c WHERE {{ "
                 f"?a <{EX}knows> ?b . ?b <{EX}knows> ?c }}")
        outcome = self._service(sharded).federate(query, strategy="decompose")
        got = {
            (str(b.get_term("a")), str(b.get_term("c")))
            for b in outcome.merged()
        }
        want = self._local_rows(source, query, ("a", "c"))
        assert want, "the chain must produce two-hop paths"
        # The chain guarantees consecutive subjects land on different
        # shards somewhere, so this equality proves cross-shard joins.
        assert got == want

    def test_star_join_matches_single_graph(self):
        source = chain_graph()
        sharded = shard_graph(source, 4)
        query = (f"SELECT DISTINCT ?p ?n WHERE {{ "
                 f"?p a <{EX}Person> . ?p <{EX}name> ?n }}")
        outcome = self._service(sharded).federate(query, strategy="decompose")
        got = {(str(b.get_term("p")), str(b.get_term("n")))
               for b in outcome.merged()}
        assert got == self._local_rows(source, query, ("p", "n"))

    def test_source_selection_skips_irrelevant_shards(self):
        source = chain_graph(people=3)
        sharded = shard_graph(source, 3)
        plan = self._service(sharded).federation.decompose_plan(
            f"SELECT ?s WHERE {{ ?s <{EX}nosuch> ?o }}")
        assert plan.empty_reason is not None or all(
            not sources.relevant_uris() for sources in plan.pattern_sources
        )


class _RecordingEndpoint(HttpSparqlEndpoint):
    """Remembers how many ``VALUES`` rows each SELECT sub-query carried."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.values_rows: list[int] = []

    def select(self, query):
        block = query.where.elements[0]
        self.values_rows.append(len(block) if isinstance(block, InlineData) else 0)
        return super().select(query)


class TestBoundJoinRoundsOverLoopback:
    """What a star and a path cost on the wire: sub-requests and keys shipped."""

    MEMBERS = 38  # under the default ceiling: one block per bound unit
    SHARDS = 3

    @staticmethod
    def _source() -> Graph:
        graph = Graph()
        for i in range(120):
            for predicate in ("name", "age", "city"):
                graph.add(Triple(u(f"e{i}"), u(predicate), Literal(f"{predicate} {i}")))
            # 7 is coprime to 120: every entity knows a different one.
            graph.add(Triple(u(f"e{i}"), u("knows"), u(f"e{(i * 7 + 1) % 120}")))
        # Only the members carry ex:member, so it is the cheapest pattern
        # and seeds every plan with exactly MEMBERS left rows.
        for i in range(TestBoundJoinRoundsOverLoopback.MEMBERS):
            graph.add(Triple(u(f"e{i * 3}"), u("member"), u("g0")))
        return graph

    @pytest.fixture()
    def service(self):
        sharded = shard_graph(self._source(), self.SHARDS)
        with contextlib.ExitStack() as stack:
            datasets = []
            for endpoint, description in zip(sharded.endpoints, sharded.descriptions,
                                             strict=True):
                server = stack.enter_context(
                    SparqlHttpServer(EndpointBackend(endpoint), cache_size=0)
                )
                remote = _RecordingEndpoint(description.uri, url=server.query_url, timeout=10)
                datasets.append(RegisteredDataset(description, remote))
            service = MediatorService(
                AlignmentStore(), DatasetRegistry(datasets), SameAsService(),
                strategy="decompose",
            )
            stack.callback(service.federation.close)
            yield service

    STAR = (f"SELECT ?e ?n ?a ?c WHERE {{ ?e <{EX}member> <{EX}g0> . ?e <{EX}name> ?n . "
            f"?e <{EX}age> ?a . ?e <{EX}city> ?c }}")
    PATH = (f"SELECT ?e ?f ?n WHERE {{ ?e <{EX}member> <{EX}g0> . ?e <{EX}knows> ?f . "
            f"?f <{EX}name> ?n }}")

    def _expected(self, query, names):
        return reference_rows(self._source(), query, names)

    @staticmethod
    def _values_rows(service) -> list[list[int]]:
        """Per shard, the VALUES row count of every bound sub-query it received."""
        return [
            [rows for rows in dataset.endpoint.values_rows if rows]
            for dataset in service.registry
        ]

    def test_star_costs_one_sub_request_per_shard(self, service):
        outcome = service.federate(self.STAR)
        assert rows_of(outcome, "enac") == self._expected(self.STAR, "enac")
        assert len(outcome.merged()) == self.MEMBERS
        # The four patterns share ?e: one co-located group, joined by each
        # shard over its own subjects.  No bound join, nothing shipped back.
        assert outcome.total_requests == self.SHARDS
        assert [entry.requests for entry in outcome.per_dataset] == [1, 1, 1]
        assert self._values_rows(service) == [[], [], []]
        assert outcome.failed_datasets() == []

    def test_default_ships_the_left_side_in_one_block_per_unit(self, service):
        outcome = service.federate(self.PATH)
        assert rows_of(outcome, "efn") == self._expected(self.PATH, "efn")
        assert len(outcome.merged()) == self.MEMBERS
        # Seed: the (member, knows) group, one request per shard.  The bound
        # unit on ?f then ships the 38 keys in one round, each key to the one
        # shard it hashes to: at most one request per shard, and the blocks
        # add up to the left side, not to three copies of it.
        per_shard = self._values_rows(service)
        assert all(len(blocks) <= 1 for blocks in per_shard)
        assert sum(sum(blocks) for blocks in per_shard) == self.MEMBERS
        assert outcome.total_requests == self.SHARDS + sum(map(len, per_shard))
        assert outcome.failed_datasets() == []

    def test_explicit_batch_keeps_its_meaning(self, service):
        service.federation.bind_join_batch = 5
        outcome, event = service.analyze(self.PATH)
        assert rows_of(outcome, "efn") == self._expected(self.PATH, "efn")
        rounds = math.ceil(self.MEMBERS / 5)
        [routed] = [
            stats for stats in event.operators
            if "keys routed by subject hash" in stats["operator"]
        ]
        assert routed["batches"] == rounds
        per_shard = self._values_rows(service)
        assert all(rows <= 5 for blocks in per_shard for rows in blocks)
        assert sum(sum(blocks) for blocks in per_shard) == self.MEMBERS
        # Every round contacts the shards that own one of its five keys.
        assert rounds <= sum(map(len, per_shard)) <= rounds * self.SHARDS
        assert outcome.total_requests == self.SHARDS + sum(map(len, per_shard))


# --------------------------------------------------------------------------- #
# Differential: co-located groups and routed keys never change an answer
# --------------------------------------------------------------------------- #
ENTITIES = [u(f"e{i}") for i in range(6)]
LINKS = [u("p0"), u("p1"), u("p2")]  # entity -> entity
ATTRIBUTES = [u("l0"), u("l1")]  # entity -> literal
RARE = u("rare")  # carried by e0 and e1 only, so some shards lack the predicate
LITERALS = [Literal("x"), Literal("y")]
VARIABLES = [Variable(name) for name in "abcd"]

entity_graphs = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(ENTITIES), st.sampled_from(LINKS), st.sampled_from(ENTITIES)),
        st.tuples(st.sampled_from(ENTITIES), st.sampled_from(ATTRIBUTES),
                  st.sampled_from(LITERALS)),
        st.tuples(st.sampled_from(ENTITIES[:2]), st.just(RARE), st.sampled_from(ENTITIES)),
    ).map(lambda terms: Triple(*terms)),
    min_size=1, max_size=30,
).map(lambda triples: Graph().add_all(triples))

#: Subjects repeat (stars), objects reappear as subjects (paths, and a key
#: that is a literal when the object came from an attribute), subjects may
#: be ground, and any mix of those in up to four patterns.
bgps = st.lists(
    st.tuples(
        st.sampled_from(VARIABLES[:3] + ENTITIES[:2]),
        st.sampled_from(LINKS + ATTRIBUTES + [RARE]),
        st.sampled_from(VARIABLES + ENTITIES[:2] + LITERALS[:1]),
    ).map(lambda terms: Triple(*terms)),
    min_size=1, max_size=4,
).filter(lambda patterns: any(pattern.variables() for pattern in patterns))


def select_text(patterns) -> tuple[str, list[str]]:
    names = sorted({v.name for pattern in patterns for v in pattern.variables()})
    body = " . ".join(pattern_text(pattern) for pattern in patterns)
    projection = " ".join(f"?{name}" for name in names)
    return f"SELECT {projection} WHERE {{ {body} }}", names


def triples_from(text: str) -> list[Triple]:
    """``s p o`` lines over the differential's vocabulary (``?x`` = variable)."""
    def term(token: str):
        if token.startswith("?"):
            return Variable(token[1:])
        return Literal(token[1:-1]) if token.startswith('"') else u(token)

    return [
        Triple(*(term(token) for token in line.split()))
        for line in text.strip().splitlines()
    ]


FIXED_GRAPH = Graph().add_all(triples_from("""
    e0 p0 e1
    e0 p1 e2
    e0 l0 "x"
    e0 rare e3
    e1 p0 e2
    e1 l0 "y"
    e1 l1 "x"
    e2 p0 e0
    e2 p1 e4
    e2 l0 "x"
    e3 p0 e4
    e3 l0 "x"
    e4 p1 e5
    e4 l0 "y"
    e5 p0 e0
    e5 l1 "x"
"""))

NAMED_SHAPES = {
    "star": "?a p0 ?b\n?a p1 ?c\n?a l0 ?d",
    "path": "?a p0 ?b\n?b p0 ?c\n?c l0 ?d",
    "star and path": "?a p0 ?b\n?a l0 ?d\n?b p1 ?c\n?b l0 \"x\"",
    "ground subject": "e0 p0 ?a\ne0 p1 ?b",
    "ground subject into a path": "e2 p0 ?a\n?a p0 ?b",
    "subject is another pattern's object": "?a p1 ?b\n?b p0 ?c\n?b p1 ?d",
    "predicate absent from a shard": "?a rare ?b\n?a p0 ?c",
    "literal join key": "?a l0 ?b\n?b p0 ?c",
    "cross join": "?a rare ?b\ne4 p1 ?c",
}


class TestCoLocatedDifferential:
    """``strategy="decompose"`` over shards == the reference engine over the graph."""

    @staticmethod
    def _check(graph, patterns, shards):
        sharded = shard_graph(graph, shards)
        assert sharded.misplaced() == 0
        query, names = select_text(patterns)
        outcome = decompose_service(sharded.registry).federate(query)
        assert outcome.failed_datasets() == []
        assert rows_of(outcome, names) == reference_rows(graph, query, names), query

    @settings(max_examples=200, deadline=None)
    @given(graph=entity_graphs, patterns=bgps, shards=st.sampled_from([1, 2, 3, 5]))
    def test_random_graphs_and_bgps(self, graph, patterns, shards):
        self._check(graph, patterns, shards)

    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", sorted(NAMED_SHAPES))
    def test_named_shapes(self, shape, shards):
        self._check(FIXED_GRAPH, triples_from(NAMED_SHAPES[shape]), shards)

    def test_named_shapes_have_answers_and_form_groups(self):
        """The fixed cases exercise what they name, not empty results."""
        service = decompose_service(shard_graph(FIXED_GRAPH, 3).registry)
        for shape in ("star", "path", "star and path", "ground subject"):
            query, names = select_text(triples_from(NAMED_SHAPES[shape]))
            assert reference_rows(FIXED_GRAPH, query, names), shape
            assert colocated_units(service, query), shape

    def test_undef_keys_go_to_every_member_and_empty_blocks_to_none(self):
        service = decompose_service(shard_graph(chain_graph(), 3).registry)
        [unit] = colocated_units(service, f"SELECT ?a ?b WHERE {{ ?a <{EX}knows> ?b }}")
        assert sorted(unit.members[uri].index for uri in unit.sources) == [0, 1, 2]
        a, x = Variable("a"), Variable("x")
        owned = [u(f"p{i}") for i in range(12) if shard_for_subject(u(f"p{i}"), 3) == 0]
        assert owned

        def routed(inline):
            return {
                unit.members[uri].index: [row[-1] for row in block.rows]
                for uri, block in _PlanExecutor._blocks(unit, inline)
            }

        keyed = [(Literal("k"), person) for person in owned]
        assert routed(InlineData([x, a], [*keyed, (Literal("k"), None)])) == {
            0: [*owned, None], 1: [None], 2: [None],
        }
        # Without the UNDEF row, the members that own no key are not contacted.
        assert routed(InlineData([x, a], keyed)) == {0: owned}
        # A block that does not bind the subject is broadcast whole.
        other = InlineData([x], [(Literal("k"),)])
        assert [block for _, block in _PlanExecutor._blocks(unit, other)] == [other] * 3


class TestGroupingGuards:
    """Where the declaration does not cover a pattern, one-pattern units stay."""

    STAR = f"SELECT ?p ?n ?q WHERE {{ ?p <{EX}name> ?n . ?p <{EX}knows> ?q }}"

    def test_a_relevant_source_outside_the_partition_prevents_grouping(self):
        source = chain_graph()
        sharded = shard_graph(source, 2)
        extra = Graph()
        extra.add(Triple(u("p3"), u("name"), Literal("also person 3")))
        extra.add(Triple(u("p0"), u("knows"), u("p7")))
        sharded.registry.register_endpoint(
            DatasetDescription(URIRef(EX + "extra/void"), URIRef(EX + "extra/sparql")),
            LocalSparqlEndpoint(URIRef(EX + "extra/sparql"), extra, name="extra"),
        )
        service = decompose_service(sharded.registry)
        assert colocated_units(service, self.STAR) == []
        plan = service.federation.decompose_plan(self.STAR)
        assert [len(unit.patterns) for unit in plan.units] == [1, 1]
        # ... and the cross-source rows only one-pattern units can find are there.
        union = Graph().add_all(source).add_all(extra)
        got = rows_of(service.federate(self.STAR), "pnq")
        assert got == reference_rows(union, self.STAR, "pnq")
        assert (str(u("p3")), "also person 3", str(u("p4"))) in got

    def test_members_of_two_partitions_do_not_group(self):
        first, second = chain_graph(6), Graph()
        second.add(Triple(u("p0"), u("name"), Literal("alias 0")))
        second.add(Triple(u("p9"), u("knows"), u("p0")))
        sharded = shard_graph(first, 2, base_uri=EX + "one")
        shard_graph(second, 2, base_uri=EX + "two", registry=sharded.registry)
        service = decompose_service(sharded.registry)
        assert colocated_units(service, self.STAR) == []
        union = Graph().add_all(first).add_all(second)
        got = rows_of(service.federate(self.STAR), "pnq")
        assert got == reference_rows(union, self.STAR, "pnq")
        assert (str(u("p0")), "alias 0", str(u("p1"))) in got

    def test_an_unknown_hash_scheme_does_not_group(self):
        sharded = shard_graph(chain_graph(), 2)
        registry = DatasetRegistry(
            RegisteredDataset(
                replace(
                    dataset.description,
                    partition=replace(dataset.description.partition, scheme="md5"),
                ),
                dataset.endpoint,
            )
            for dataset in sharded.registry
        )
        assert colocated_units(decompose_service(registry), self.STAR) == []

    @pytest.mark.parametrize("missing", [0, 1, 2])
    def test_two_of_three_members_answer_what_one_pattern_units_answer(self, missing):
        source = chain_graph()
        sharded = shard_graph(source, 3)
        gone = sharded.descriptions[missing].uri
        registry = DatasetRegistry(d for d in sharded.registry if d.uri != gone)
        path = (f"SELECT ?a ?b ?n WHERE {{ ?a <{EX}knows> ?b . "
                f"?b <{EX}knows> ?c . ?c <{EX}name> ?n }}")
        grouped = decompose_service(registry)
        per_pattern = decompose_service(undeclared(registry))
        for query, names in ((self.STAR, "pnq"), (path, "abn")):
            assert colocated_units(grouped, query)
            assert colocated_units(per_pattern, query) == []
            got = rows_of(grouped.federate(query), names)
            assert got == rows_of(per_pattern.federate(query), names)
            assert got < reference_rows(source, query, names)

    def test_a_ground_subject_goes_to_its_owner_only(self):
        source = chain_graph()
        sharded = shard_graph(source, 3)
        service = decompose_service(sharded.registry)
        query = f"SELECT ?n ?q WHERE {{ <{EX}p4> <{EX}name> ?n . <{EX}p4> <{EX}knows> ?q }}"
        [unit] = colocated_units(service, query)
        owner = sharded.descriptions[shard_for_subject(u("p4"), 3)].uri
        assert unit.sources == [owner]
        outcome = service.federate(query)
        assert outcome.total_requests == 1
        assert rows_of(outcome, "nq") == reference_rows(source, query, "nq")

    def test_no_member_for_the_whole_group_means_no_request(self):
        graph = Graph()
        here, there = ENTITIES[0], next(
            e for e in ENTITIES if shard_for_subject(e, 2) != shard_for_subject(ENTITIES[0], 2)
        )
        graph.add(Triple(here, u("only-here"), Literal("1")))
        graph.add(Triple(there, u("only-there"), Literal("2")))
        service = decompose_service(shard_graph(graph, 2).registry)
        outcome = service.federate(
            f"SELECT ?s WHERE {{ ?s <{EX}only-here> ?x . ?s <{EX}only-there> ?y }}"
        )
        assert len(outcome.merged()) == 0
        assert outcome.total_requests == 0
        assert "no partition member" in outcome.decomposition.empty_reason


class TestPublishedDeclaration:
    """The declaration travels in the voiD KB, and EXPLAIN shows what it buys."""

    PATH = (f"SELECT ?a ?b ?n WHERE {{ ?a a <{EX}Person> . ?a <{EX}knows> ?b . "
            f"?b <{EX}name> ?n }}")

    def test_registry_read_back_from_void_plans_the_same_units(self):
        source = chain_graph()
        sharded = shard_graph(source, 3)
        endpoints = {d.endpoint_uri: e for d, e in zip(sharded.descriptions, sharded.endpoints,
                                                       strict=True)}
        published = sharded.registry.void_graph()
        consumer = DatasetRegistry()
        # Graph-less endpoints: the consumer knows only what the voiD KB says.
        consumer.load_void_graph(
            published, lambda description: _OpaqueEndpoint(endpoints[description.endpoint_uri])
        )
        assert [d.description for d in consumer] == [d.description for d in sharded.registry]

        def units(registry):
            plan = decompose_service(registry).federation.decompose_plan(self.PATH)
            return [(unit.patterns, unit.sources, unit.subject) for unit in plan.units]

        assert units(consumer) == units(sharded.registry)
        assert [len(patterns) for patterns, _, _ in units(consumer)] == [2, 1]
        got = rows_of(decompose_service(consumer).federate(self.PATH), "abn")
        assert got == reference_rows(source, self.PATH, "abn")

    def test_explain_names_the_group_and_the_routing(self):
        service = decompose_service(shard_graph(chain_graph(), 3).registry)
        text = service.federation.decompose_plan(self.PATH).explain()
        assert "unit 1 [co-located group; seed scan;" in text
        assert "unit 2 [pattern; bound join on (?b), keys routed by subject hash;" in text
        # The same labels reach EXPLAIN ANALYZE through the operator tree.
        report = service.analyze(self.PATH)[1].plan
        assert "co-located group; seed scan" in report
        assert "bound join on (?b), keys routed by subject hash" in report
        # Without the declaration neither appears.
        plain = decompose_service(undeclared(service.registry))
        text = plain.federation.decompose_plan(self.PATH).explain()
        assert "co-located" not in text and "routed" not in text


class TestPersistentShards:
    def test_store_factory_builds_disk_backed_shards(self, tmp_path):
        source = chain_graph()
        sharded = shard_graph(
            source, 2,
            store_factory=lambda index: SegmentStore(tmp_path / f"shard-{index}"),
        )
        assert len(sharded) == len(source)
        for index, shard in enumerate(sharded.graphs):
            assert isinstance(shard.store, SegmentStore)
            shard.close()
        # Shards are durable: reopening both recovers the whole dataset.
        reunion = Graph()
        for index in range(2):
            reopened = open_graph(tmp_path / f"shard-{index}")
            reunion.add_all(reopened)
            reopened.close()
        assert reunion == source
