"""Subject-hash sharding: one logical graph behind N federated endpoints.

The scale-out claim is that the PR 5 decomposer needs no new machinery to
query a sharded graph: each shard advertises its own voiD partitions, the
decomposer routes patterns by them, and bound joins stitch cross-shard
paths back together.  These tests pin (a) the hash routing invariants,
(b) the per-shard statistics, and (c) the end-to-end answer equality
between a sharded federation and single-graph evaluation — including a
join whose two legs live on different shards.
"""

from __future__ import annotations

import contextlib
import math

import pytest

from repro.alignment import AlignmentStore
from repro.coreference import SameAsService
from repro.federation import (
    DatasetRegistry,
    HttpSparqlEndpoint,
    MediatorService,
    RegisteredDataset,
    shard_for_subject,
    shard_graph,
)
from repro.rdf import Graph, Literal, RDF, SegmentStore, Triple, URIRef, open_graph
from repro.server import EndpointBackend, SparqlHttpServer
from repro.sparql import QueryEvaluator, parse_query

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


class TestBoundJoinRoundsOverLoopback:
    """What a bound join costs on the wire: sub-requests per bound unit."""

    MEMBERS = 38  # under the default ceiling: one block per bound unit
    SHARDS = 3

    @staticmethod
    def _source() -> Graph:
        graph = Graph()
        for i in range(120):
            for predicate in ("name", "age", "city"):
                graph.add(Triple(u(f"e{i}"), u(predicate), Literal(f"{predicate} {i}")))
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
                remote = HttpSparqlEndpoint(description.uri, url=server.query_url, timeout=10)
                datasets.append(RegisteredDataset(description, remote))
            service = MediatorService(
                AlignmentStore(), DatasetRegistry(datasets), SameAsService(),
                strategy="decompose",
            )
            stack.callback(service.federation.close)
            yield service

    STAR = (f"SELECT ?e ?n ?a ?c WHERE {{ ?e <{EX}member> <{EX}g0> . ?e <{EX}name> ?n . "
            f"?e <{EX}age> ?a . ?e <{EX}city> ?c }}")
    PAIR = f"SELECT ?e ?n WHERE {{ ?e <{EX}member> <{EX}g0> . ?e <{EX}name> ?n }}"

    @staticmethod
    def _rows(outcome, names):
        return {
            tuple(str(binding.get_term(name)) for name in names)
            for binding in outcome.merged()
        }

    def _expected(self, query, names):
        return TestFederatedEquality._local_rows(self._source(), query, names)

    def test_default_ships_the_left_side_in_one_block_per_unit(self, service):
        outcome = service.federate(self.STAR)
        assert self._rows(outcome, "enac") == self._expected(self.STAR, "enac")
        assert len(outcome.merged()) == self.MEMBERS
        # Seed scan: one request per shard.  Each of the three bound units
        # then ships all 38 left rows as one VALUES block: one request per
        # shard per unit, 9 in all.
        assert outcome.total_requests == self.SHARDS + 3 * self.SHARDS
        assert [entry.requests for entry in outcome.per_dataset] == [4, 4, 4]
        assert outcome.failed_datasets() == []

    def test_explicit_batch_keeps_its_meaning(self, service):
        service.federation.bind_join_batch = 5
        outcome = service.federate(self.PAIR)
        assert self._rows(outcome, "en") == self._expected(self.PAIR, "en")
        rounds = math.ceil(self.MEMBERS / 5)
        assert outcome.total_requests == self.SHARDS + rounds * self.SHARDS


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
