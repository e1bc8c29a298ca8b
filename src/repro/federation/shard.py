"""Subject-hash sharding of one logical graph across local endpoints.

The PR 5 decomposer already federates over *heterogeneous* sources by
reading their voiD statistics; sharding reuses exactly that machinery for
*scale-out*: one logical graph is split across N :class:`LocalSparqlEndpoint`
shards by a deterministic hash of the triple's subject, each shard publishes
its own per-predicate/per-class voiD partitions, and the decomposer then
treats the shards as ordinary sources — routing each triple pattern to the
shards that can match it and joining across shards with bound joins.

Hashing on the *subject* keeps every triple about one resource on one
shard, and every shard's description says so: :func:`shard_graph` declares
each shard member *i* of *N* of one subject-hash partition
(:class:`~repro.federation.void.SubjectPartition`).  The decomposer reads
that declaration like any other voiD fact.  Patterns that share a subject
become one *co-located group*, shipped as one sub-query per shard so the
star joins locally (a four-pattern star over three shards costs 3
sub-requests, not 12); a ground subject goes to its owning shard only; and
a bound join on a unit's subject variable sends each ``VALUES`` key to the
one shard :func:`shard_for_subject` names instead of broadcasting it (a
two-hop path costs 3 + at most 3 sub-requests).

The declaration is a statement about the data, so the data has to stay
that way: write to a sharded graph through :meth:`ShardedGraph.add` and
:meth:`ShardedGraph.discard`, which route by the same hash.  The shard
graphs themselves remain reachable (endpoints serve them); a triple added
to one directly may sit on the wrong shard, where the routed plan will not
look for it.  :meth:`ShardedGraph.misplaced` counts such triples.

The hash is content-stable (CRC-32 of the term's lexical form), never
Python's salted ``hash()``, so a dataset shards identically across
processes and restarts — a requirement for pointing shard endpoints at
persistent :class:`~repro.rdf.SegmentStore` directories.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from ..rdf import BNode, Graph, Literal, Store, Term, Triple, URIRef
from .endpoint import LocalSparqlEndpoint
from .registry import DatasetRegistry
from .void import DatasetDescription, SubjectPartition

__all__ = ["SUBJECT_HASH_SCHEME", "ShardedGraph", "shard_for_subject", "shard_graph"]

#: Name of the hash :func:`shard_for_subject` computes, as published in a
#: :class:`SubjectPartition`: CRC-32 of the term's tagged lexical form,
#: modulo the member count.
SUBJECT_HASH_SCHEME = "crc32-lexical"


def _stable_key(term: Term) -> bytes:
    """A process-independent byte key for a subject term."""
    if isinstance(term, URIRef):
        return b"u:" + term.value.encode("utf-8")
    if isinstance(term, BNode):
        return b"b:" + term.value.encode("utf-8")
    if isinstance(term, Literal):  # never a legal subject, but stay total
        return b"l:" + term.lexical.encode("utf-8")
    return repr(term).encode("utf-8")


def shard_for_subject(subject: Term, shards: int) -> int:
    """The shard index ``subject`` routes to (deterministic across runs)."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return zlib.crc32(_stable_key(subject)) % shards


@dataclass(frozen=True)
class ShardedGraph:
    """One logical graph materialised as N federated shard endpoints."""

    registry: DatasetRegistry
    endpoints: tuple[LocalSparqlEndpoint, ...]
    descriptions: tuple[DatasetDescription, ...]
    graphs: tuple[Graph, ...]

    @property
    def shards(self) -> int:
        return len(self.endpoints)

    def __len__(self) -> int:
        return sum(len(graph) for graph in self.graphs)

    def add(self, triple: Triple) -> None:
        """Add ``triple`` to the shard its subject hashes to."""
        self.graphs[shard_for_subject(triple.subject, self.shards)].add(triple)

    def discard(self, triple: Triple) -> None:
        """Remove ``triple`` from the shard its subject hashes to, if present."""
        self.graphs[shard_for_subject(triple.subject, self.shards)].discard(triple)

    def misplaced(self) -> int:
        """Triples sitting on a shard their subject does not hash to.

        Zero as long as every write went through :meth:`add` /
        :meth:`discard`; anything else means the shards' partition
        declarations no longer describe the data.
        """
        return sum(
            shard_for_subject(triple.subject, self.shards) != index
            for index, graph in enumerate(self.graphs)
            for triple in graph
        )


def shard_graph(
    source: Iterable,
    shards: int,
    base_uri: str = "http://localhost/shard",
    registry: DatasetRegistry | None = None,
    store_factory: Callable[[int], Store] | None = None,
) -> ShardedGraph:
    """Split ``source`` into ``shards`` subject-hashed endpoint shards.

    Each shard becomes a :class:`LocalSparqlEndpoint` whose voiD
    description carries the shard's *own* statistics
    (``void:propertyPartition`` / ``void:classPartition``), emitted via
    :meth:`DatasetDescription.with_statistics` — so the federation
    decomposer prunes shards per triple pattern exactly as it prunes
    unrelated datasets — and declares the shard member ``index`` of
    ``shards`` of the subject-hash partition ``base_uri``, which is what
    lets the decomposer group co-located patterns and route bound-join keys.
    All shards are registered into ``registry`` (a
    fresh one by default) and the populated registry is returned alongside
    the endpoints, ready to hand to :class:`FederatedQueryEngine` — use
    ``strategy="decompose"`` so cross-shard joins are executed as bound
    joins rather than lost to per-shard evaluation.

    ``store_factory`` chooses each shard's backend (e.g.
    ``lambda i: SegmentStore(root / f"shard-{i}")``); the default is
    in-memory.  ``source`` is any triple iterable — a :class:`Graph`, a
    :class:`GraphView` or a plain sequence.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    graphs = tuple(
        Graph(store=store_factory(index)) if store_factory is not None else Graph()
        for index in range(shards)
    )
    for triple in source:
        graphs[shard_for_subject(triple.subject, shards)].add(triple)

    registry = registry if registry is not None else DatasetRegistry()
    endpoints = []
    descriptions = []
    for index, graph in enumerate(graphs):
        graph.flush()
        description = DatasetDescription(
            uri=URIRef(f"{base_uri}/{index}/void"),
            endpoint_uri=URIRef(f"{base_uri}/{index}/sparql"),
            title=f"shard {index}/{shards}",
            partition=SubjectPartition(URIRef(base_uri), index, shards, SUBJECT_HASH_SCHEME),
        ).with_statistics(graph)
        endpoint = LocalSparqlEndpoint(
            description.endpoint_uri, graph, name=f"shard-{index}"
        )
        registry.register_endpoint(description, endpoint)
        endpoints.append(endpoint)
        descriptions.append(description)
    return ShardedGraph(
        registry=registry,
        endpoints=tuple(endpoints),
        descriptions=tuple(descriptions),
        graphs=graphs,
    )
