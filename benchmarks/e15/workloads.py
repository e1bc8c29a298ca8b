"""Seeded data and request sequences for the four E15 workloads.

Everything here is a pure function of ``(workload, seed, size)``.  The
harness (``run.py``) and the server subprocess (``topology.py``) both
import it, so the served data and the harness's reference copy are built
from the same triples; only the harness turns the seed into query text,
and the program under test never sees anything but that text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets import build_resist_scenario
from repro.rdf import Literal, Triple, URIRef

__all__ = ["WORKLOADS", "Request", "Spec", "RequestSequence", "entity_triples",
           "churn", "live_triples", "build_scenario", "spec_for"]

ENTITY = "http://e15.example/e/"
GROUP = "http://e15.example/group/"
RANK = "http://e15.example/rank/"
VOCAB = "http://e15.example/v#"
#: Group and rank counts are coprime, so the 53 x 7 (group, rank) cells of
#: the ``star`` class are all populated about equally.
GROUPS = 53
RANKS = 7

_PREFIX = f"PREFIX e: <{VOCAB}>\n"
_AKT = "PREFIX akt:<http://www.aktors.org/ontology/portal#>\n"


@dataclass(frozen=True)
class Request:
    """One request of a workload: its query class and the text sent."""

    cls: str
    text: str
    #: World key of the person a ``mediate_fanout`` text asks about.
    person: int | None = None


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload; frozen after tuning on the reference box."""

    name: str
    #: One period of the class pattern: ``(slot, how many requests of the period)``.
    mix: tuple[tuple[str, int], ...]
    persons: int = 0
    papers: int = 0
    entities: int = 0
    shards: int = 0
    segment_buffer: int = 0
    #: Requests of the 1-client untraced/traced pair behind the per-layer numbers.
    traced_requests: int = 300
    #: Untimed requests sent first, so caches and lazy set-up are past.
    warmup: int = 20
    #: Texts of the hot class; each recurs every ``5 * hot_texts`` requests.
    hot_texts: int = 0

    @property
    def hot_share(self) -> float:
        """Share of requests the front ``ResponseCache`` is built to answer."""
        slots = dict(self.mix)
        return slots.get("hot", 0) / sum(slots.values())


WORKLOADS = ("mediate_fanout", "shard_decompose", "endpoint_memory", "endpoint_segment")

_ENDPOINT_MIX = (("lookup", 4), ("limit", 2), ("star", 6), ("scan", 5), ("path", 3))

_FULL = {
    "mediate_fanout": Spec(
        "mediate_fanout", (("cold", 4), ("hot", 1)), persons=400, papers=1200,
        traced_requests=80, warmup=80, hot_texts=16,
    ),
    "shard_decompose": Spec(
        "shard_decompose", (("star", 12), ("path", 5), ("path2", 3)),
        entities=2000, shards=3, traced_requests=40,
    ),
    "endpoint_memory": Spec(
        "endpoint_memory", _ENDPOINT_MIX, entities=12000, traced_requests=100, warmup=40,
    ),
    "endpoint_segment": Spec(
        "endpoint_segment", _ENDPOINT_MIX, entities=12000, segment_buffer=8000,
        traced_requests=60, warmup=40,
    ),
}

_TOY = {
    "mediate_fanout": Spec(
        "mediate_fanout", (("cold", 4), ("hot", 1)), persons=60, papers=120,
        traced_requests=8, warmup=10, hot_texts=2,
    ),
    "shard_decompose": Spec(
        "shard_decompose", (("star", 12), ("path", 5), ("path2", 3)),
        entities=400, shards=3, traced_requests=8, warmup=8,
    ),
    "endpoint_memory": Spec(
        "endpoint_memory", _ENDPOINT_MIX, entities=800, traced_requests=8, warmup=8,
    ),
    "endpoint_segment": Spec(
        "endpoint_segment", _ENDPOINT_MIX, entities=800, segment_buffer=600,
        traced_requests=8, warmup=8,
    ),
}


def spec_for(workload: str, toy: bool = False) -> Spec:
    try:
        return (_TOY if toy else _FULL)[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}"
        ) from None


# --------------------------------------------------------------------------- #
# Data
# --------------------------------------------------------------------------- #
def build_scenario(spec: Spec, seed: int):
    """The paper's three-dataset deployment at this workload's size."""
    return build_resist_scenario(n_persons=spec.persons, n_papers=spec.papers, seed=seed)


def _balanced(count: int, buckets: int, rng: random.Random) -> list[int]:
    """``count`` bucket numbers, each bucket used equally often, shuffled.

    Balanced rather than drawn at random so the result size of a class
    does not depend on which seed the run uses.
    """
    values = [index % buckets for index in range(count)]
    rng.shuffle(values)
    return values


def entity_triples(spec: Spec, seed: int) -> list[Triple]:
    """The synthetic entity graph: group, rank, knows and name per entity."""
    rng = random.Random(f"e15-entities-{seed}")
    count = spec.entities
    groups = _balanced(count, GROUPS, rng)
    ranks = _balanced(count, RANKS, rng)
    group_p, rank_p = URIRef(VOCAB + "group"), URIRef(VOCAB + "rank")
    knows_p, name_p = URIRef(VOCAB + "knows"), URIRef(VOCAB + "name")
    triples = []
    for index in range(count):
        entity = URIRef(f"{ENTITY}{index:05d}")
        other = rng.randrange(count - 1)
        if other >= index:
            other += 1
        triples.append(Triple(entity, group_p, URIRef(f"{GROUP}{groups[index]}")))
        triples.append(Triple(entity, rank_p, URIRef(f"{RANK}{ranks[index]}")))
        triples.append(Triple(entity, knows_p, URIRef(f"{ENTITY}{other:05d}")))
        triples.append(Triple(entity, name_p, Literal(f"entity {index:05d}")))
    return triples


def churn(triples: list[Triple], seed: int) -> tuple[list[Triple], list[Triple]]:
    """``(removed, re-added)``: 2% of the triples, and the half of those that return.

    ``endpoint_segment`` applies both to its store after the bulk load, so
    the served segments carry tombstones and resurrected triples.
    """
    rng = random.Random(f"e15-churn-{seed}")
    removed = rng.sample(triples, len(triples) // 50)
    return removed, removed[: len(removed) // 2]


def live_triples(spec: Spec, seed: int) -> list[Triple]:
    """What both ``endpoint_*`` workloads serve: the entity graph after churn."""
    triples = entity_triples(spec, seed)
    removed, readded = churn(triples, seed)
    gone = set(removed) - set(readded)
    return [triple for triple in triples if triple not in gone]


# --------------------------------------------------------------------------- #
# Query text
# --------------------------------------------------------------------------- #
def _coauthor(uri: str, variable: str = "a") -> str:
    return (f"{_AKT}SELECT DISTINCT ?{variable} WHERE {{\n"
            f"  ?paper akt:has-author <{uri}> .\n"
            f"  ?paper akt:has-author ?{variable} .\n"
            f"  FILTER (!(?{variable} = <{uri}>))\n}}")


def _coauthor_filter(uri: str) -> str:
    return (f"{_AKT}SELECT DISTINCT ?a WHERE {{\n"
            f"  ?paper akt:has-author ?n .\n"
            f"  ?paper akt:has-author ?a .\n"
            f"  FILTER (!(?a = <{uri}>) && (?n = <{uri}>))\n}}")


def _titles(uri: str) -> str:
    return (f"{_AKT}SELECT DISTINCT ?paper ?t WHERE {{\n"
            f"  ?paper akt:has-author <{uri}> .\n"
            f"  ?paper akt:has-title ?t\n}}")


def _star(group: int, rank: int) -> str:
    return (f"{_PREFIX}SELECT ?e ?n WHERE {{ ?e e:group <{GROUP}{group}> . "
            f"?e e:rank <{RANK}{rank}> . ?e e:name ?n }}")


def _path(group: int) -> str:
    return (f"{_PREFIX}SELECT ?a ?b ?n WHERE {{ ?a e:group <{GROUP}{group}> . "
            f"?a e:knows ?b . ?b e:name ?n }}")


def _path2(group: int) -> str:
    return (f"{_PREFIX}SELECT ?a ?c ?n WHERE {{ ?a e:group <{GROUP}{group}> . "
            f"?a e:knows ?b . ?b e:knows ?c . ?c e:name ?n }}")


def _scan(group: int) -> str:
    return (f"{_PREFIX}SELECT ?e ?n WHERE {{ ?e e:group <{GROUP}{group}> . "
            f"?e e:name ?n }}")


def _lookup(index: int) -> str:
    return f"SELECT ?p ?o WHERE {{ <{ENTITY}{index:05d}> ?p ?o }}"


#: Page size of the ``limit`` class; its unsliced form is the oracle's
#: superset (LIMIT without ORDER BY may return any 50 matching rows).
LIMIT_PAGE = 50
LIMIT_UNSLICED = f"{_PREFIX}SELECT ?s ?o WHERE {{ ?s e:knows ?o }}"


def _limit(offset: int) -> str:
    return f"{LIMIT_UNSLICED} LIMIT {LIMIT_PAGE} OFFSET {offset}"


def _pools(spec: Spec, seed: int, scenario) -> dict[str, list[Request]]:
    """Per pattern slot, the shuffled texts that slot cycles through."""
    rng = random.Random(f"e15-requests-{spec.name}-{seed}")

    def shuffled(requests: list[Request]) -> list[Request]:
        rng.shuffle(requests)
        return requests

    if spec.persons:
        persons = [
            (person.key, str(scenario.akt_person_uri(person.key)))
            for person in scenario.world.persons
        ]
        cold = [
            Request(cls, template(uri), key)
            for key, uri in persons
            for cls, template in (("coauthor", _coauthor),
                                  ("coauthor_filter", _coauthor_filter),
                                  ("titles", _titles))
        ]
        # The hot texts ask the Figure-1 question under another variable
        # name, so none of them is also a member of the cold pool.
        hot = [
            Request("hot", _coauthor(uri, "coauthor"), key)
            for key, uri in persons[: spec.hot_texts]
        ]
        return {"cold": shuffled(cold), "hot": hot}

    cells = [(group, rank) for group in range(GROUPS) for rank in range(RANKS)]
    pools = {
        "star": shuffled([Request("star", _star(g, r)) for g, r in cells]),
        "path": shuffled([Request("path", _path(g)) for g in range(GROUPS)]),
        "path2": shuffled([Request("path2", _path2(g)) for g in range(GROUPS)]),
        "scan": shuffled([Request("scan", _scan(g)) for g in range(GROUPS)]),
        "lookup": shuffled([Request("lookup", _lookup(i)) for i in range(spec.entities)]),
        "limit": shuffled([
            Request("limit", _limit(offset))
            for offset in range(0, spec.entities, LIMIT_PAGE)
        ]),
    }
    return {slot: pools[slot] for slot, _ in spec.mix}


def _spread(mix: tuple[tuple[str, int], ...]) -> list[str]:
    """One period of the class pattern, each class spread evenly over it."""
    period = sum(count for _, count in mix)
    slots = sorted(
        ((position + 0.5) * period / count, order, name)
        for order, (name, count) in enumerate(mix)
        for position in range(count)
    )
    return [name for _, _, name in slots]


class RequestSequence:
    """The endless request sequence of a workload, addressed by index.

    Request ``i`` takes slot ``i mod period`` of the class pattern and the
    next unused text of that slot's pool, pools being cycled in shuffled
    order.  A text therefore recurs only after its whole pool has been
    visited, which is what makes the cold classes miss every cache and the
    16 hot texts of ``mediate_fanout`` hit the front ``ResponseCache``.
    """

    def __init__(self, spec: Spec, seed: int, scenario=None) -> None:
        self.spec = spec
        self._pattern = _spread(spec.mix)
        self._pools = _pools(spec, seed, scenario)
        self._per_period = {name: count for name, count in spec.mix}
        self._rank = []
        seen: dict[str, int] = {}
        for name in self._pattern:
            self._rank.append(seen.get(name, 0))
            seen[name] = seen.get(name, 0) + 1

    def __getitem__(self, index: int) -> Request:
        period, slot = divmod(index, len(self._pattern))
        name = self._pattern[slot]
        pool = self._pools[name]
        return pool[(period * self._per_period[name] + self._rank[slot]) % len(pool)]

    def classes(self) -> list[str]:
        return sorted({request.cls for pool in self._pools.values() for request in pool})
