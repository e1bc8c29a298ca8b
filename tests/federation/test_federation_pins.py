"""Federation output pinned case by case: both strategies, in process and over loopback.

Every case of ``pins.json`` is one query over one of four federations —
the E6 three-dataset scenario (per-dataset URI spaces, sameAs-linked
people), the E7 overlapping single-vocabulary repositories, the E12
rare/common predicate split and an E15-style subject-hash sharded graph —
run under ``fanout`` and ``decompose``, once with in-process
:class:`LocalSparqlEndpoint`s and once with every dataset behind its own
loopback :class:`SparqlHttpServer` reached through
:class:`HttpSparqlEndpoint`.  Per run the fixture pins:

* the merged rows, in order;
* per dataset: ``error``, ``attempts``, ``row_count``, whether
  ``mediation`` is ``None`` and (decomposed plans only) ``requests``;
* the static diagnostics the run surfaced;
* ``engine.explain`` per dataset and ``decompose_plan(...).explain()``;
* ANALYZE: the engine label, the per-endpoint traffic (sorted by dataset;
  fan-out runs without ``requests``), ``rows_shipped`` and, for decomposed
  plans, the executed operator tree with its row and batch counters.

Timings and parser-assigned blank-node labels are stripped, as in
``tests/sparql/conformance/plans.json``.  Each call runs on a fresh engine,
so ASK-probe counts never depend on which case ran before.

To re-pin after a deliberate behaviour change, run this file as a script
(``PYTHONPATH=src python tests/federation/test_federation_pins.py``) and
review the diff of ``pins.json``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
import sys
from pathlib import Path

import pytest

from repro.alignment import AlignmentStore
from repro.coreference import SameAsService
from repro.datasets import build_resist_scenario
from repro.federation import (
    DatasetDescription,
    DatasetRegistry,
    HttpSparqlEndpoint,
    LocalSparqlEndpoint,
    MediatorService,
    RegisteredDataset,
    shard_graph,
)
from repro.rdf import Graph, Literal, Triple, URIRef
from repro.server import EndpointBackend, SparqlHttpServer

PINS_PATH = Path(__file__).with_name("pins.json")

AKT = "PREFIX akt:<http://www.aktors.org/ontology/portal#>\n"
E7 = "http://ex.org/"
E12 = "http://e12.org/"
E15 = "http://e15.example/"


# --------------------------------------------------------------------------- #
# Federations
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _e6():
    return build_resist_scenario(
        n_persons=12, n_papers=24, n_projects=3, n_organizations=3,
        rkb_coverage=0.7, kisti_coverage=0.6, dbpedia_coverage=0.5, seed=7,
    )


def _plain_registry(graphs: list[Graph], prefix: str) -> DatasetRegistry:
    registry = DatasetRegistry()
    ontology = URIRef(prefix + "ontology")
    for index, graph in enumerate(graphs):
        registry.register_endpoint(
            DatasetDescription(
                uri=URIRef(f"{prefix}dataset-{index}"),
                endpoint_uri=URIRef(f"{prefix}dataset-{index}/sparql"),
                ontologies=(ontology,),
            ),
            LocalSparqlEndpoint(
                URIRef(f"{prefix}dataset-{index}/sparql"), graph, name=f"endpoint-{index}",
            ),
        )
    return registry


@functools.lru_cache(maxsize=None)
def _e7() -> DatasetRegistry:
    """Four repositories whose items overlap pairwise (the E7 fan-out setup)."""
    graphs = []
    for index in range(4):
        graph = Graph()
        for item in range(5 * index, 5 * index + 10):
            graph.add(Triple(URIRef(f"{E7}item-{item:03d}"), URIRef(E7 + "p"),
                             URIRef(f"{E7}value-{item:03d}")))
        graphs.append(graph)
    return _plain_registry(graphs, E7)


@functools.lru_cache(maxsize=None)
def _e12() -> DatasetRegistry:
    """Four disjoint repositories; the first two also hold ``rare``."""
    graphs = []
    for index in range(4):
        graph = Graph()
        for item in range(4):
            subject = URIRef(f"{E12}e{index}-s{item}")
            for value in range(3):
                graph.add(Triple(subject, URIRef(E12 + "common"),
                                 URIRef(f"{E12}e{index}-v{item}-{value}")))
            if index < 2:
                graph.add(Triple(subject, URIRef(E12 + "rare"),
                                 URIRef(f"{E12}e{index}-w{item}")))
        graphs.append(graph)
    return _plain_registry(graphs, E12)


@functools.lru_cache(maxsize=None)
def _e15() -> DatasetRegistry:
    """The E15 entity graph in miniature, hashed by subject over three shards."""
    v = E15 + "v#"
    triples = []
    for index in range(30):
        entity = URIRef(f"{E15}e/{index:02d}")
        triples += [
            Triple(entity, URIRef(v + "group"), URIRef(f"{E15}group/{index % 3}")),
            Triple(entity, URIRef(v + "rank"), URIRef(f"{E15}rank/{index % 2}")),
            Triple(entity, URIRef(v + "knows"), URIRef(f"{E15}e/{(index * 7 + 1) % 30:02d}")),
            Triple(entity, URIRef(v + "name"), Literal(f"entity {index:02d}")),
        ]
    return shard_graph(triples, 3).registry


def _federation(name: str):
    """``(registry, alignment store, sameAs service, call kwargs)`` of a federation."""
    if name == "e6":
        scenario = _e6()
        kwargs = {"source_ontology": scenario.source_ontology,
                  "source_dataset": scenario.rkb_dataset}
        return scenario.registry, scenario.alignment_store, scenario.sameas_service, kwargs
    registry = {"e7": _e7, "e12": _e12, "e15": _e15}[name]()
    return registry, AlignmentStore(), SameAsService(), {}


# --------------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------------- #
def _e6_person(rank: int) -> str:
    scenario = _e6()
    people = sorted(
        scenario.world.persons,
        key=lambda person: (-len(scenario.world.papers_of(person.key)), person.key),
    )
    return str(scenario.akt_person_uri(people[rank].key))


def _coauthor(rank: int) -> str:
    uri = _e6_person(rank)
    return (f"{AKT}SELECT DISTINCT ?a WHERE {{\n  ?paper akt:has-author <{uri}> .\n"
            f"  ?paper akt:has-author ?a .\n  FILTER (!(?a = <{uri}>))\n}}")


def _coauthor_filter() -> str:
    uri = _e6_person(1)
    return (f"{AKT}SELECT DISTINCT ?a WHERE {{\n  ?paper akt:has-author ?n .\n"
            f"  ?paper akt:has-author ?a .\n  FILTER (!(?a = <{uri}>) && (?n = <{uri}>))\n}}")


def _titles() -> str:
    uri = _e6_person(0)
    return (f"{AKT}SELECT DISTINCT ?paper ?t WHERE {{\n  ?paper akt:has-author <{uri}> .\n"
            f"  ?paper akt:has-title ?t\n}}")


_V = f"PREFIX e: <{E15}v#>\n"
_G = f"<{E15}group/"
_R = f"<{E15}rank/"

#: case name -> (federation, query text factory, extra call kwargs)
CASES: dict[str, tuple[str, object, dict]] = {
    "e6_coauthor_0": ("e6", lambda: _coauthor(0), {"mode": "filter-aware"}),
    "e6_coauthor_2": ("e6", lambda: _coauthor(2), {"mode": "filter-aware"}),
    "e6_coauthor_filter": ("e6", _coauthor_filter, {"mode": "filter-aware"}),
    "e6_titles": ("e6", _titles, {"mode": "filter-aware"}),
    "e6_authorship_bgp": (
        "e6", lambda: f"{AKT}SELECT DISTINCT ?paper ?a WHERE {{ ?paper akt:has-author ?a . }}",
        {"mode": "bgp"},
    ),
    "e6_star": (
        "e6",
        lambda: (f"{AKT}SELECT DISTINCT ?paper ?a ?t WHERE {{ ?paper akt:has-author ?a . "
                 f"?paper akt:has-title ?t . }}"),
        {"mode": "filter-aware"},
    ),
    "e6_optional": (
        "e6",
        lambda: (f"{AKT}SELECT ?paper ?t WHERE {{ ?paper akt:has-author <{_e6_person(0)}> "
                 f"OPTIONAL {{ ?paper akt:has-title ?t }} }}"),
        {"mode": "filter-aware"},
    ),
    "e6_union": (
        "e6",
        lambda: (f"{AKT}SELECT ?x WHERE {{ {{ ?x akt:has-author <{_e6_person(0)}> }} "
                 f"UNION {{ ?x akt:has-author <{_e6_person(1)}> }} }}"),
        {"mode": "filter-aware"},
    ),
    "e7_single_pattern": (
        "e7", lambda: "PREFIX ex: <http://ex.org/>\nSELECT ?s ?o WHERE { ?s ex:p ?o }", {},
    ),
    "e7_ordered": (
        "e7",
        lambda: "PREFIX ex: <http://ex.org/>\nSELECT ?s ?o WHERE { ?s ex:p ?o } ORDER BY ?s",
        {},
    ),
    "e12_rare": ("e12", lambda: f"SELECT ?s ?w WHERE {{ ?s <{E12}rare> ?w }}", {}),
    "e12_join": (
        "e12", lambda: f"SELECT ?s ?w ?v WHERE {{ ?s <{E12}rare> ?w . ?s <{E12}common> ?v }}",
        {},
    ),
    "e12_join_limit": (
        "e12",
        lambda: f"SELECT ?s ?w ?v WHERE {{ ?s <{E12}rare> ?w . ?s <{E12}common> ?v }} LIMIT 5",
        {},
    ),
    "e15_star": (
        "e15",
        lambda: f"{_V}SELECT ?e ?n WHERE {{ ?e e:group {_G}1> . ?e e:rank {_R}0> . ?e e:name ?n }}",
        {},
    ),
    "e15_path": (
        "e15",
        lambda: f"{_V}SELECT ?a ?b ?n WHERE {{ ?a e:group {_G}2> . ?a e:knows ?b . ?b e:name ?n }}",
        {},
    ),
    "e15_path2": (
        "e15",
        lambda: (f"{_V}SELECT ?a ?c ?n WHERE {{ ?a e:group {_G}0> . ?a e:knows ?b . "
                 f"?b e:knows ?c . ?c e:name ?n }}"),
        {},
    ),
    "e15_coauthor_filter": (
        "e15",
        lambda: (f"{_V}SELECT DISTINCT ?a WHERE {{ ?x e:group ?g . ?x e:knows ?a . "
                 f"FILTER (!(?a = <{E15}e/08>) && (?g = {_G}1>)) }}"),
        {},
    ),
    "e15_limit_offset": (
        "e15", lambda: f"{_V}SELECT ?s ?o WHERE {{ ?s e:knows ?o }} LIMIT 7 OFFSET 4", {},
    ),
}

STRATEGIES = ("fanout", "decompose")
TRANSPORTS = ("local", "loopback")


# --------------------------------------------------------------------------- #
# Transports
# --------------------------------------------------------------------------- #
class _Loopback:
    """Each federation's datasets behind loopback servers, started on first use."""

    def __init__(self) -> None:
        self._stack = contextlib.ExitStack()
        self._registries: dict[str, DatasetRegistry] = {}

    def registry(self, name: str, local: DatasetRegistry) -> DatasetRegistry:
        if name not in self._registries:
            datasets = []
            for dataset in local:
                server = self._stack.enter_context(
                    SparqlHttpServer(EndpointBackend(dataset.endpoint))
                )
                endpoint = HttpSparqlEndpoint(dataset.uri, url=server.query_url, timeout=10)
                self._stack.callback(endpoint.close)
                datasets.append(RegisteredDataset(dataset.description, endpoint))
            self._registries[name] = DatasetRegistry(datasets)
        return self._registries[name]

    def close(self) -> None:
        self._stack.close()


def _service_factory(case: str, transport: str, loopback: _Loopback):
    federation, _, extra = CASES[case]
    registry, alignments, sameas, kwargs = _federation(federation)
    if transport == "loopback":
        registry = loopback.registry(federation, registry)

    def fresh() -> MediatorService:
        return MediatorService(alignments, registry, sameas)

    return fresh, {**kwargs, **extra}


# --------------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------------- #
def _lines(text: str) -> list[str]:
    text = re.sub(r"_:anon\d+", "_:anon", text)
    return re.sub(r", [0-9.]+ ms\)", ")", text).split("\n")


def record(case: str, transport: str, strategy: str, loopback: _Loopback) -> dict:
    """Everything pinned for one (case, transport, strategy) run."""
    fresh, kwargs = _service_factory(case, transport, loopback)
    query = CASES[case][1]()

    outcome = fresh().federate(query, strategy=strategy, **kwargs)
    # Fan-out runs (the strategy, or decompose's fallback) leave ``requests``
    # and the ANALYZE operator tree out: both were empty before fan-out ran
    # as a plan, and are checked on their own in ``test_federator.py``.
    decomposed = outcome.decomposition is not None and outcome.decomposition.decomposed
    rows = [
        [term.n3() if (term := binding.get_term(variable)) is not None else None
         for variable in outcome.variables]
        for binding in outcome.merged_bindings
    ]
    datasets = []
    for entry in outcome.per_dataset:
        pinned = [str(entry.dataset_uri), entry.error, entry.attempts, entry.row_count,
                  entry.mediation is None]
        if decomposed:
            pinned.append(entry.requests)
        datasets.append(pinned)

    explain = {
        str(uri): _lines(text)
        for uri, text in fresh().explain(query, strategy=strategy, **kwargs).items()
    }
    plan = _lines(fresh().federation.decompose_plan(query, **kwargs).explain())

    _, event = fresh().analyze(query, strategy=strategy, **kwargs)
    endpoints = []
    for entry in sorted(event.endpoints, key=lambda item: item["dataset"]):
        pinned_entry = {key: entry[key] for key in ("dataset", "attempts", "rows_shipped",
                                                    "errors")}
        if decomposed:
            pinned_entry["requests"] = entry["requests"]
        endpoints.append(pinned_entry)
    analyze: dict = {"engine": event.engine, "endpoints": endpoints,
                     "rows_shipped": event.rows_shipped}
    if decomposed:
        analyze["tree"] = _lines(event.plan)
    return {
        "variables": [variable.name for variable in outcome.variables],
        "rows": rows,
        "datasets": datasets,
        "diagnostics": [diagnostic.code for diagnostic in outcome.diagnostics],
        "explain": explain,
        "plan": plan,
        "analyze": analyze,
    }


def _key(case: str, transport: str, strategy: str) -> str:
    return f"{case}/{transport}/{strategy}"


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def loopback():
    servers = _Loopback()
    try:
        yield servers
    finally:
        servers.close()


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_every_run_is_pinned(pins):
    assert sorted(pins) == sorted(
        _key(case, transport, strategy)
        for case in CASES for transport in TRANSPORTS for strategy in STRATEGIES
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_federation_output_is_pinned(case, transport, strategy, loopback, pins):
    assert record(case, transport, strategy, loopback) == pins[_key(case, transport, strategy)]



@pytest.mark.parametrize("case", sorted(CASES))
def test_lint_reports_the_plans_diagnostics(case):
    """``lint`` reads the one planner: its findings are the decomposed
    plan's, code, message and span alike."""
    fresh, kwargs = _service_factory(case, "local", None)
    query = CASES[case][1]()
    linted = fresh().federation.lint(query, **kwargs)
    assert linted == fresh().federation.decompose_plan(query, **kwargs).diagnostics


if __name__ == "__main__":
    servers = _Loopback()
    try:
        pinned = {
            _key(case, transport, strategy): record(case, transport, strategy, servers)
            for case in sorted(CASES) for transport in TRANSPORTS for strategy in STRATEGIES
        }
    finally:
        servers.close()
    PINS_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} pinned runs to {PINS_PATH}", file=sys.stderr)
