"""Unit grouping: one dict keyed by who can join a group alone.

``_build_units`` turns per-pattern source selection into execution units.
Patterns whose sole relevant source coincides share a unit keyed by that
source; patterns on the members of one subject-hash partition that share
a subject share a unit keyed by partition and subject.  Either way a unit's
sources narrow to the ones relevant to every pattern in it, and EXPLAIN's
label follows from its members and sources.
"""

from __future__ import annotations

import pytest

from repro.federation import (
    DatasetDescription,
    LocalSparqlEndpoint,
    PatternSources,
    RegisteredDataset,
    SourceDecision,
    shard_for_subject,
)
from repro.federation.decompose import _build_units, _unit_kind
from repro.federation.shard import SUBJECT_HASH_SCHEME
from repro.federation.void import SubjectPartition
from repro.rdf import Graph, Triple, URIRef, Variable

EX = "http://ex.org/"
GRAPH = URIRef(EX + "graph")
SHARDS = [URIRef(f"{EX}shard-{index}") for index in range(3)]
A, B = URIRef(EX + "a"), URIRef(EX + "b")
ALL = [*SHARDS, A, B]

X, Y, Z, W = (Variable(name) for name in "xyzw")
GROUND = URIRef(EX + "e/7")
OWNER = SHARDS[shard_for_subject(GROUND, len(SHARDS))]


def _dataset(uri: URIRef) -> RegisteredDataset:
    partition = None
    if uri in SHARDS:
        partition = SubjectPartition(GRAPH, SHARDS.index(uri), len(SHARDS), SUBJECT_HASH_SCHEME)
    description = DatasetDescription(uri=uri, endpoint_uri=uri, partition=partition)
    return RegisteredDataset(description, LocalSparqlEndpoint(uri, Graph()))


TARGETS = {uri: _dataset(uri) for uri in ALL}


def _p(subject, predicate: str, obj) -> Triple:
    return Triple(subject, URIRef(EX + predicate), obj)


def _selected(pattern: Triple, *relevant: URIRef) -> PatternSources:
    return PatternSources(pattern, [
        SourceDecision(uri, uri in relevant, "test", subject_kept=True) for uri in ALL
    ])


#: case -> (selection per pattern, expected units as
#: ``(patterns, sources, members, label)``).
CASES = {
    "exclusive group": (
        [_selected(_p(X, "p", Y), A), _selected(_p(Y, "q", Z), A)],
        [([_p(X, "p", Y), _p(Y, "q", Z)], [A], [], "exclusive group")],
    ),
    "co-located group on a variable subject": (
        [_selected(_p(X, "p", Y), *SHARDS), _selected(_p(X, "q", Z), SHARDS[0], SHARDS[2])],
        [([_p(X, "p", Y), _p(X, "q", Z)], [SHARDS[0], SHARDS[2]], SHARDS, "co-located group")],
    ),
    "ground subject narrowed to its owner": (
        [_selected(_p(GROUND, "p", Y), *SHARDS), _selected(_p(GROUND, "q", Z), *SHARDS)],
        [([_p(GROUND, "p", Y), _p(GROUND, "q", Z)], [OWNER], SHARDS, "co-located group")],
    ),
    "lone co-located pattern": (
        [_selected(_p(X, "p", Y), *SHARDS)],
        [([_p(X, "p", Y)], SHARDS, SHARDS, "pattern")],
    ),
    "mix with a multi-source pattern": (
        [
            _selected(_p(X, "p", Y), *SHARDS),
            _selected(_p(Y, "q", Z), A, B),
            _selected(_p(Y, "r", W), A),
            _selected(_p(Z, "s", W), SHARDS[1], B),
            _selected(_p(X, "t", W), SHARDS[1]),
        ],
        [
            ([_p(X, "p", Y), _p(X, "t", W)], [SHARDS[1]], SHARDS, "co-located group"),
            ([_p(Y, "q", Z)], [A, B], [], "pattern"),
            ([_p(Y, "r", W)], [A], [], "exclusive pattern"),
            ([_p(Z, "s", W)], [SHARDS[1], B], [], "pattern"),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_units(case):
    selection, expected = CASES[case]
    units = _build_units(selection, TARGETS)
    assert [
        (unit.patterns, unit.sources, sorted(unit.members, key=str), _unit_kind(unit))
        for unit in units
    ] == expected
