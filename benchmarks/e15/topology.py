"""The server subprocess of E15: one workload's topology behind loopback HTTP.

Run by the harness, never by hand::

    python benchmarks/e15/topology.py --workload NAME --seed N --workdir DIR [--traced] [--toy]

It builds the workload's data and servers from the public API, prints one
JSON line ``{"event": "ready", ...}`` on its control pipe (stdout), then
answers one JSON command per line on stdin:

``mark``    counters at this instant (CPU seconds, rewrite-cache and I/O counters)
``record``  switch span recording on or off (traced topologies)
``spans``   the recorded spans with their replayed pure-function timings
``stop``    shut everything down, report peak memory, exit 0

End of input is treated as ``stop``, so a harness that dies takes its
servers with it.  Every server of the topology lives in this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):  # run as a script: make the repo importable
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from repro.alignment import AlignmentStore  # noqa: E402
from repro.coreference import SameAsService  # noqa: E402
from repro.federation import (  # noqa: E402
    DatasetRegistry,
    HttpSparqlEndpoint,
    LocalSparqlEndpoint,
    MediatorService,
    RegisteredDataset,
    shard_graph,
)
from repro.rdf import Graph, MemoryStore, SegmentStore, URIRef  # noqa: E402
from repro.server import EndpointBackend, FederationBackend, SparqlHttpServer  # noqa: E402
from repro.sparql import (  # noqa: E402
    GroupGraphPattern,
    Prologue,
    Query,
    SelectQuery,
    TriplesBlock,
    parse_query,
    parse_results,
    plan_query,
    serialize_query,
    write_results,
)
from repro.sparql.analysis import analyze_query  # noqa: E402

from benchmarks.e15.spans import (  # noqa: E402
    SpanRecorder,
    TracedBackend,
    TracedEndpoint,
    TracedStore,
)
from benchmarks.e15.workloads import (  # noqa: E402
    build_scenario,
    churn,
    entity_triples,
    live_triples,
    spec_for,
)

#: Socket timeout of the mediator's sub-requests; generous, never reached.
_SUBREQUEST_TIMEOUT = 30.0


class Topology:
    """The servers of one workload and what the control commands read."""

    def __init__(self, traced: bool) -> None:
        self.recorder = SpanRecorder() if traced else None
        self.servers: dict[str, SparqlHttpServer] = {}
        self.graphs: dict[str, Graph] = {}
        self.stores: list = []
        self.front_backend = None
        self.segment_store: SegmentStore | None = None
        self.segment_dir: Path | None = None
        self.phases: dict[str, float] = {}

    # -- construction helpers ------------------------------------------- #
    def store(self, inner):
        """``inner``, wrapped when this topology is traced."""
        store = TracedStore(inner, self.recorder) if self.recorder else inner
        self.stores.append(store)
        return store

    def serve(self, label: str, backend, io_counters=None) -> SparqlHttpServer:
        if self.recorder:
            backend = TracedBackend(backend, self.recorder, label, io_counters)
        server = SparqlHttpServer(backend).start()
        self.servers[label] = server
        return server

    def remote(self, label: str, uri: URIRef, server: SparqlHttpServer):
        endpoint = HttpSparqlEndpoint(uri, url=server.query_url, timeout=_SUBREQUEST_TIMEOUT)
        return TracedEndpoint(endpoint, self.recorder, label) if self.recorder else endpoint

    def serve_front(self, service: MediatorService, **options) -> None:
        self.front_backend = FederationBackend(service, **options)
        self.serve("front", self.front_backend)

    def close(self) -> None:
        for server in self.servers.values():
            server.stop()
        for store in self.stores:
            store.close()


# --------------------------------------------------------------------------- #
# The four topologies
# --------------------------------------------------------------------------- #
def _mediate_fanout(topology: Topology, spec, seed: int, workdir: Path) -> None:
    scenario = build_scenario(spec, seed)
    datasets = []
    for dataset in scenario.registry:
        label = dataset.endpoint.name
        endpoint = dataset.endpoint
        if topology.recorder:
            # Same triples behind a store the benchmark can time.
            graph = Graph(store=topology.store(MemoryStore()))
            graph.add_all(endpoint.graph.triples())
            endpoint = LocalSparqlEndpoint(endpoint.uri, graph, name=label)
        topology.graphs[label] = endpoint.graph
        server = topology.serve(label, EndpointBackend(endpoint))
        datasets.append(
            RegisteredDataset(dataset.description, topology.remote(label, dataset.uri, server))
        )
    service = MediatorService(
        scenario.alignment_store, DatasetRegistry(datasets), scenario.sameas_service
    )
    topology.serve_front(
        service, source_ontology=scenario.source_ontology, mode="filter-aware",
        strategy="fanout",
    )


def _shard_decompose(topology: Topology, spec, seed: int, workdir: Path) -> None:
    sharded = shard_graph(
        entity_triples(spec, seed), spec.shards,
        store_factory=lambda index: topology.store(MemoryStore()),
    )
    datasets = []
    for endpoint, description in zip(sharded.endpoints, sharded.descriptions, strict=True):
        label = endpoint.name
        topology.graphs[label] = endpoint.graph
        server = topology.serve(label, EndpointBackend(endpoint))
        datasets.append(
            RegisteredDataset(description, topology.remote(label, description.uri, server))
        )
    service = MediatorService(
        AlignmentStore(), DatasetRegistry(datasets), SameAsService(), strategy="decompose"
    )
    topology.serve_front(service, strategy="decompose")


def _serve_single(topology: Topology, store, io_counters=None) -> None:
    endpoint = LocalSparqlEndpoint(
        URIRef("http://e15.example/sparql"), Graph(store=topology.store(store)), name="front"
    )
    topology.graphs["front"] = endpoint.graph
    topology.front_backend = EndpointBackend(endpoint)
    topology.serve("front", topology.front_backend, io_counters)


def _endpoint_memory(topology: Topology, spec, seed: int, workdir: Path) -> None:
    store = MemoryStore()
    for triple in live_triples(spec, seed):
        store.add(triple.subject, triple.predicate, triple.object)
    _serve_single(topology, store)


def _endpoint_segment(topology: Topology, spec, seed: int, workdir: Path) -> None:
    triples = entity_triples(spec, seed)
    removed, readded = churn(triples, seed)
    directory = workdir / "segments"
    started = perf_counter()
    store = SegmentStore(directory, buffer_limit=spec.segment_buffer)
    for triple in triples:
        store.add(triple.subject, triple.predicate, triple.object)
    for triple in removed:  # tombstones ...
        store.discard(triple.subject, triple.predicate, triple.object)
    for triple in readded:  # ... and resurrections
        store.add(triple.subject, triple.predicate, triple.object)
    store.flush()
    store.close()
    topology.phases["rdf.store.build_s"] = perf_counter() - started

    started = perf_counter()
    store = SegmentStore(directory)
    topology.phases["rdf.store.cold_open_ms"] = (perf_counter() - started) * 1e3
    topology.phases["rdf.store.flushes"] = len(store.segment_names)
    topology.segment_store = store
    topology.segment_dir = directory
    _serve_single(topology, store, store.io)


_BUILDERS = {
    "mediate_fanout": _mediate_fanout,
    "shard_decompose": _shard_decompose,
    "endpoint_memory": _endpoint_memory,
    "endpoint_segment": _endpoint_segment,
}


# --------------------------------------------------------------------------- #
# Control commands
# --------------------------------------------------------------------------- #
def _mark(topology: Topology) -> dict:
    times = os.times()
    payload: dict = {"cpu_s": time.process_time(), "cpu_user_s": times.user,
                     "cpu_system_s": times.system}
    engine = getattr(topology.front_backend, "engine", None)
    if engine is not None:
        payload["mediator"] = engine.mediator.cache_info()
    if topology.segment_store is not None:
        payload["store_io"] = topology.segment_store.io.as_dict()
    return payload


def _timed(function, *args):
    started = perf_counter()
    value = function(*args)
    return value, (perf_counter() - started) * 1e3


def _replay_render(result, reparse: bool) -> dict:
    """Render (and, for a mediator's sub-request, re-parse) one result."""
    body, write_ms = _timed(write_results, result, "json")
    payload = {"write_ms": write_ms, "bytes": len(body.encode("utf-8")),
               "rows": len(result) if hasattr(result, "__len__") else 1}
    if reparse:
        payload["parse_results_ms"] = _timed(parse_results, body, "json")[1]
    return payload


def _spans(topology: Topology) -> list[dict]:
    """Recorded spans, each with its pure-function layers replayed.

    The replays run here, after the run, on the very objects the wrappers
    saw: the text each backend received, the query each endpoint client
    shipped, the result each backend returned.  Rewrites are replayed on a
    replica :class:`Mediator` over the same alignment KB, fed the front
    queries in served order so its cache follows the served one.
    """
    recorder = topology.recorder
    front = topology.front_backend
    federated = isinstance(front, FederationBackend)
    replica = None
    if federated:
        served = front.engine
        replica = MediatorService(
            served.mediator.alignment_store, served.registry, served.sameas_service
        ).mediator
        targets = [dataset.uri for dataset in served.registry
                   if front.datasets is None or dataset.uri in front.datasets]
        label_uri = {
            dataset.endpoint.label: dataset.uri for dataset in served.registry
        }
        decompose = (front.strategy or served.strategy) == "decompose"

    out = []
    for span in sorted(recorder.spans, key=lambda item: item.start):
        entry: dict = {"kind": span.kind, "label": span.label, "thread": span.thread,
                       "start": span.start, "end": span.end, "failed": span.failed}
        if span.kind == "endpoint":
            entry["op"] = span.op
            if isinstance(span.query, Query):
                text, entry["serialize_ms"] = _timed(serialize_query, span.query)
                if decompose:
                    # What _fetch asked the mediator: the unit's pattern group
                    # (identical to the shipped one under identity rewriting).
                    group = SelectQuery(Prologue(), [], GroupGraphPattern(
                        [TriplesBlock(span.query.all_triple_patterns())]))
                    entry["translate_ms"] = _timed(
                        replica.translate, group, label_uri[span.label],
                        front.source_ontology, front.mode)[1]
            else:
                text = str(span.query)
            entry["chars"] = len(text)
        elif federated and span.label == "front":
            query, entry["parse_ms"] = _timed(parse_query, span.query)
            entry["chars"] = len(span.query)
            entry["analysis_ms"] = _timed(analyze_query, query)[1]
            if decompose:
                entry["decompose_ms"] = _timed(
                    served.decompose_plan, query, front.source_ontology,
                    front.source_dataset, front.mode, front.datasets)[1]
            else:
                patterns_in = len(query.all_triple_patterns())
                translate_ms, calls, patterns_out = 0.0, 0, 0
                for target in targets:
                    if target == front.source_dataset:
                        continue
                    mediation, elapsed = _timed(
                        replica.translate, query, target, front.source_ontology, front.mode)
                    translate_ms += elapsed
                    calls += mediation.report.function_calls
                    patterns_out += len(mediation.rewritten_query.all_triple_patterns())
                entry.update(translate_ms=translate_ms, function_calls=calls,
                             patterns_in=patterns_in * len(targets), patterns_out=patterns_out)
            if span.result is not None:
                entry.update(_replay_render(span.result, reparse=False))
        else:
            query, entry["parse_ms"] = _timed(parse_query, span.query)
            entry["chars"] = len(span.query)
            entry["analysis_ms"] = _timed(analyze_query, query)[1]
            entry["plan_ms"] = _timed(plan_query, query, topology.graphs[span.label])[1]
            entry.update(store_calls=span.store_calls, store_ms=span.store_s * 1e3,
                         store_ids=span.store_ids)
            if span.io is not None:
                entry["io"] = span.io
            if span.result is not None:
                entry.update(_replay_render(span.result, reparse=federated))
        out.append(entry)
    return out


def _space(topology: Topology, workdir: Path) -> dict:
    """Compact a copy of the segment directory: the space side of the store."""
    store, directory = topology.segment_store, topology.segment_dir
    if store is None:
        return {}

    def size(path: Path) -> int:
        return sum(item.stat().st_size for item in path.iterdir() if item.is_file())

    live = len(store)
    copy = workdir / "segments-compacted"
    shutil.copytree(directory, copy)
    compacted = SegmentStore(copy)
    try:
        _, compact_ms = _timed(compacted.compact)
    finally:
        compacted.close()
    return {
        "rdf.store.compact_s": compact_ms / 1e3,
        "rdf.store.bytes_per_triple": size(directory) / live,
        "rdf.store.bytes_per_triple_compacted": size(copy) / live,
    }


def _peak_rss_kb() -> int:
    """This process's peak resident set.

    ``VmHWM`` belongs to the address space, which ``exec`` replaces;
    ``ru_maxrss`` would carry over the spawning harness's peak instead.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(_BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    control = sys.stdout
    sys.stdout = sys.stderr  # nothing but control replies may reach the pipe

    def reply(payload: dict) -> None:
        control.write(json.dumps(payload) + "\n")
        control.flush()

    topology = Topology(args.traced)
    try:
        _BUILDERS[args.workload](topology, spec_for(args.workload, args.toy), args.seed,
                                 args.workdir)
        reply({
            "event": "ready",
            "servers": {label: server.url for label, server in topology.servers.items()},
            "phases": topology.phases,
        })
        for line in sys.stdin:
            command = json.loads(line)
            name = command.get("cmd")
            if name == "mark":
                reply(_mark(topology))
            elif name == "record":
                topology.recorder.recording = bool(command["on"])
                reply({"recording": topology.recorder.recording})
            elif name == "spans":
                reply({"spans": _spans(topology), "space": _space(topology, args.workdir)})
            elif name == "stop":
                break
            else:
                reply({"error": f"unknown command: {name!r}"})
    finally:
        topology.close()
    reply({"event": "stopped", "peak_rss_kb": _peak_rss_kb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
