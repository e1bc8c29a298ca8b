"""E15: loopback end-to-end latency with per-layer attribution.

Two ways to run it, both from the repository root::

    # one workload, the driver's contract: the last line of output is one JSON object
    python3 benchmarks/e15/run.py --workload NAME --seed N --seconds S --trace 0|1

    # every workload, untraced then traced, as one ledger document
    PYTHONPATH=src python -m benchmarks.e15.run --seed N [--workload NAME] [--out FILE]

Either way the harness spawns one server subprocess per set-up
(``topology.py``), drives it over loopback with a closed loop of client
threads, checks every answer against an independently computed one and
prints every metric by name with its unit.  See ``README.md`` beside this
file for what each metric means and which workload it should move on.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import urllib.parse
import urllib.request
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):  # run as a script: make the repo importable
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

try:
    from repro.rdf import Graph, URIRef  # noqa: E402
    from repro.sparql import QueryEvaluator, parse_query  # noqa: E402
except ModuleNotFoundError as exc:
    sys.exit(f"run.py: {exc}; E15 measures the program under src/ and needs a full checkout")

from benchmarks.e15.layers import LAYER_TIMES, attribute  # noqa: E402
from benchmarks.e15.workloads import (  # noqa: E402
    LIMIT_UNSLICED,
    WORKLOADS,
    Request,
    RequestSequence,
    build_scenario,
    entity_triples,
    live_triples,
    spec_for,
)

#: Closed-loop clients of the timed run: one per core of the reference box.
CLIENTS = 2
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Share of timed responses whose full row set is compared with the oracle.
SAMPLED_SHARE = 0.05
#: Texts hashed into ``sequence_sha256`` (a prefix of the endless sequence).
HASHED_REQUESTS = 2000
#: Held out: never used while tuning sizes or writing later changes; a
#: gain claimed on the ledger seeds must also hold on this one.
HELD_OUT_SEED = 20100322

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("server_cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

CLASSES = ("hot", "coauthor", "coauthor_filter", "titles", "star", "path", "path2",
           "lookup", "limit", "scan")

PER_LAYER = (
    *((name, "ms") for name in LAYER_TIMES),
    ("server.http.cache_hit_ratio", "ratio"),
    ("server.http.errors_5xx", "count"),
    ("federation.http_endpoint.subrequests", "count"),
    ("sparql.parser.chars", "chars"),
    ("core.mediator.cache_hit_ratio", "ratio"),
    ("core.mediator.patterns_out_per_in", "ratio"),
    ("core.mediator.function_calls", "count"),
    ("federation.federator.failed_datasets", "count"),
    ("federation.decompose.rows_shipped_per_row", "ratio"),
    ("federation.decompose.endpoints_contacted", "count"),
    ("federation.decompose.ask_probes", "count"),
    ("sparql.exec.rows_out", "count"),
    ("rdf.store.calls", "count"),
    ("rdf.store.ids_per_row", "ratio"),
    ("rdf.store.records_read_per_row", "ratio"),
    ("rdf.store.range_scans", "count"),
    ("rdf.store.lookups", "count"),
    ("rdf.store.build_s", "s"),
    ("rdf.store.flushes", "count"),
    ("rdf.store.cold_open_ms", "ms"),
    ("rdf.store.compact_s", "s"),
    ("rdf.store.bytes_per_triple", "B"),
    ("rdf.store.bytes_per_triple_compacted", "B"),
    ("sparql.formats.bytes", "B"),
    *((f"mix.{name}.p50_ms", "ms") for name in CLASSES),
    ("trace.unattributed_share", "ratio"),
    ("trace.by_subtraction_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)

#: Layers known only as what is left of a wrapped span after subtracting
#: everything measured inside it.
_BY_SUBTRACTION = ("server.http.hop_ms", "federation.federator.self_ms",
                   "federation.http_endpoint.hop_ms", "sparql.exec.self_ms")


#: Seconds a server subprocess gets to shut down before it is killed.
_STOP_TIMEOUT = 20.0


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


# --------------------------------------------------------------------------- #
# The server subprocess
# --------------------------------------------------------------------------- #
class ServerProcess:
    """One ``topology.py`` subprocess and its control pipe.

    ``start()`` returns once every server listens; ``setup_s`` is the time
    from spawn to that moment.  ``stop()`` is idempotent and always leaves
    no process and no work directory behind.
    """

    def __init__(self, workload: str, seed: int, toy: bool, workdir: Path,
                 traced: bool = False) -> None:
        self.workdir = workdir
        self._argv = [
            sys.executable, str(Path(__file__).with_name("topology.py")),
            "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
            *(["--traced"] if traced else []), *(["--toy"] if toy else []),
        ]
        self._process: subprocess.Popen | None = None
        self.servers: dict[str, str] = {}
        self.phases: dict[str, float] = {}
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0

    def start(self) -> ServerProcess:
        self.workdir.mkdir(parents=True, exist_ok=True)
        # A fixed hash seed and no tracing switches: set iteration order in
        # the server is the same on every run, and REPRO_RUN_EVENTS is off.
        env = {key: value for key, value in os.environ.items() if key != "REPRO_RUN_EVENTS"}
        env["PYTHONHASHSEED"] = "0"
        started = perf_counter()
        self._process = subprocess.Popen(
            self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        ready = self._read()
        self.setup_s = perf_counter() - started
        self.servers = ready["servers"]
        self.phases = ready["phases"]
        return self

    def _read(self) -> dict:
        line = self._process.stdout.readline()
        if not line:
            raise BenchmarkError(
                f"server subprocess ended unexpectedly (exit code {self._process.wait()})")
        return json.loads(line)

    def command(self, name: str, **arguments) -> dict:
        self._process.stdin.write(json.dumps({"cmd": name, **arguments}) + "\n")
        self._process.stdin.flush()
        return self._read()

    def stop(self) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        # A server that does not shut down is killed, which ends the read below.
        watchdog = threading.Timer(_STOP_TIMEOUT, process.kill)
        watchdog.start()
        try:
            if process.poll() is None:
                process.stdin.write('{"cmd": "stop"}\n')
                process.stdin.close()
                for line in process.stdout:
                    payload = json.loads(line)
                    if payload.get("event") == "stopped":
                        self.peak_rss_mb = payload["peak_rss_kb"] / 1024
            process.wait(timeout=_STOP_TIMEOUT)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            process.kill()
            process.wait()
        finally:
            watchdog.cancel()
            process.stdout.close()
            shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> ServerProcess:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def snapshot(self) -> dict:
        """Counters at this instant: the ``mark`` reply plus, under ``http``,
        the ``server`` section of every server's ``/metrics`` document."""
        counters = self.command("mark")
        counters["http"] = {}
        for label, url in self.servers.items():
            with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
                counters["http"][label] = json.loads(response.read())["server"]
        return counters


# --------------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------------- #
def _canonical_rows(bindings: list[dict]) -> list[tuple]:
    """Order-free form of SPARQL JSON result rows."""
    return sorted(
        tuple(sorted(
            (name, term.get("type"), term.get("value"), term.get("datatype"),
             term.get("xml:lang"))
            for name, term in row.items()
        ))
        for row in bindings
    )


#: Consecutive transport errors after which a client declares the server dead.
_GIVE_UP_AFTER = 20


class Sample(NamedTuple):
    """One request as its client saw it."""

    index: int
    start: float
    end: float
    #: HTTP status; 0 for a transport error.
    status: int
    #: Result rows in the reply; -1 when it could not be read.
    rows: int
    #: Order-free row set, kept for the sampled requests only.
    canonical: list[tuple] | None


def _client(url: str, sequence: RequestSequence, indices, deadline: float | None,
            sampled: frozenset[int], out: list[Sample], halt: threading.Event) -> None:
    """One closed-loop client: next request only after the previous reply."""
    address = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(address.hostname, address.port, timeout=120)
    headers = {"Content-Type": "application/x-www-form-urlencoded",
               "Accept": "application/sparql-results+json"}
    unreachable = 0
    try:
        for index in indices:
            if halt.is_set() or (deadline is not None and perf_counter() >= deadline):
                break
            body = urllib.parse.urlencode({"query": sequence[index].text})
            started = perf_counter()
            try:
                connection.request("POST", "/sparql", body, headers)
                response = connection.getresponse()
                payload = response.read()
                status = response.status
                unreachable = 0
            except (OSError, http.client.HTTPException):
                # http.client reconnects on the next request after close().
                connection.close()
                payload, status = b"", 0
                unreachable += 1
                if unreachable >= _GIVE_UP_AFTER:
                    halt.set()  # the server is gone; stop every client
            ended = perf_counter()
            rows, canonical = -1, None
            if status == 200:
                try:
                    bindings = json.loads(payload)["results"]["bindings"]
                    rows = len(bindings)
                    if index in sampled:
                        canonical = _canonical_rows(bindings)
                except (ValueError, KeyError, TypeError, AttributeError):
                    pass
            out.append(Sample(index, started, ended, status, rows, canonical))
    finally:
        connection.close()


def drive(url: str, sequence: RequestSequence, first: int, clients: int,
          seconds: float | None = None, count: int | None = None,
          sampled: frozenset[int] = frozenset()) -> tuple[list[Sample], float]:
    """Send the sequence from index ``first``, split round-robin over the clients.

    Runs for ``seconds`` or for ``count`` requests.  Returns the samples in
    index order and the wall time from the first send to the last reply.
    """
    if count is not None:
        streams = [range(first + c, first + count, clients) for c in range(clients)]
    else:
        streams = [range(first + c, sys.maxsize, clients) for c in range(clients)]
    outputs: list[list[Sample]] = [[] for _ in range(clients)]
    halt = threading.Event()
    started = perf_counter()
    deadline = None if seconds is None else started + seconds
    threads = [
        threading.Thread(target=_client, name=f"e15-client-{c}",
                         args=(url, sequence, streams[c], deadline, sampled, outputs[c], halt))
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        # Reached early only on Ctrl-C: let each client finish its request.
        halt.set()
        for thread in threads:
            thread.join()
    samples = sorted((s for output in outputs for s in output), key=lambda s: s.index)
    if not samples:
        raise BenchmarkError("the load generator completed no request")
    return samples, max(s.end for s in samples) - started


# --------------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------------- #
class Reference:
    """The harness's own copy of the data, and the answers it implies.

    Built in this process from the same seeded generators the server uses,
    and queried by a path the served one does not share: the dict-at-a-time
    ``reference`` engine over the whole graph for the synthetic workloads
    (no shards, no segments, no HTTP), the in-process mediator over the
    original ``LocalSparqlEndpoint``s for ``mediate_fanout``.
    """

    def __init__(self, workload: str, seed: int, toy: bool) -> None:
        self.spec = spec_for(workload, toy)
        self.scenario = None
        self._evaluator = None
        self._superset: set | None = None
        self._expected: dict[str, list[tuple]] = {}
        if self.spec.persons:
            self.scenario = build_scenario(self.spec, seed)
        else:
            triples = (entity_triples if self.spec.shards else live_triples)(self.spec, seed)
            graph = Graph()
            graph.add_all(triples)
            self._evaluator = QueryEvaluator(graph, engine="reference")
        self.sequence = RequestSequence(self.spec, seed, self.scenario)
        digest = hashlib.sha256()
        for index in range(HASHED_REQUESTS):
            digest.update(self.sequence[index].text.encode("utf-8") + b"\0")
        self.sequence_sha256 = digest.hexdigest()

    def _answer(self, text: str) -> list[tuple]:
        if self.scenario is not None:
            result = self.scenario.service.federate(
                text, source_ontology=self.scenario.source_ontology, mode="filter-aware",
            ).merged()
        else:
            result = self._evaluator.evaluate(parse_query(text))
        return _canonical_rows(result.to_json_dict()["results"]["bindings"])

    def expected(self, text: str) -> list[tuple]:
        rows = self._expected.get(text)
        if rows is None:
            rows = self._expected[text] = self._answer(text)
        return rows

    def wrong(self, request: Request, sample: Sample) -> str | None:
        """Why ``sample`` is not a correct answer to ``request``, or None."""
        if sample.status != 200:
            return f"status {sample.status}"
        if request.cls == "limit":
            # LIMIT without ORDER BY may return any page of the matches.
            modifiers = parse_query(request.text).modifiers
            matches = self.expected(LIMIT_UNSLICED)
            want = max(0, min(modifiers.limit, len(matches) - modifiers.offset))
            if sample.rows != want:
                return f"{sample.rows} rows, expected {want}"
            if sample.canonical is not None:
                if self._superset is None:
                    self._superset = set(matches)
                if len(set(sample.canonical)) != want or not self._superset.issuperset(
                        sample.canonical):
                    return "rows are not a page of the matching triples"
            return None
        expected = self.expected(request.text)
        if sample.rows != len(expected):
            return f"{sample.rows} rows, expected {len(expected)}"
        if sample.canonical is not None and sample.canonical != expected:
            return "row set differs from the reference answer"
        if sample.canonical is not None and request.cls == "coauthor":
            return self._recall_lost(request, sample.canonical)
        return None

    def _recall_lost(self, request: Request, canonical: list[tuple]) -> str | None:
        """Federating must not recall fewer true co-authors than RKB alone."""
        scenario = self.scenario
        pattern = scenario.registry.get(scenario.rkb_dataset).uri_pattern
        gold = scenario.gold_coauthor_uris(request.person)

        def in_rkb_space(uris) -> set:
            return {scenario.sameas_service.lookup(uri, pattern) or uri for uri in uris}

        federated = in_rkb_space(URIRef(row[0][2]) for row in canonical)
        alone = scenario.endpoint(scenario.rkb_dataset).select(request.text)
        rkb_only = in_rkb_space(alone.distinct_values("a"))
        if len(federated & gold) < len(rkb_only & gold):
            return "federated co-author recall is below RKB alone"
        return None

    def verify(self, samples: list[Sample]) -> list[Sample]:
        """The samples that failed: bad status, transport error or wrong answer."""
        failed = []
        for sample in samples:
            reason = self.wrong(self.sequence[sample.index], sample)
            if reason is not None:
                failed.append(sample)
                if len(failed) <= 5:
                    print(f"  FAILED request {sample.index} "
                          f"({self.sequence[sample.index].cls}): {reason}", file=sys.stderr)
        return failed


def _sampled(seed: int, first: int, span: int = 200_000) -> frozenset[int]:
    """The seeded 5% of request indices whose full row sets are compared."""
    rng = random.Random(f"e15-sampled-{seed}")
    return frozenset(first + i for i in range(span) if rng.random() < SAMPLED_SHARE)


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def _percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))]


def _latencies_ms(samples: list[Sample], failed: list[Sample]) -> list[float]:
    """Ascending latencies; a failed request counts as the slowest sample."""
    bad = {sample.index for sample in failed}
    values = [(s.end - s.start) * 1e3 for s in samples]
    slowest = max(values)
    return sorted(slowest if s.index in bad else v for s, v in zip(samples, values, strict=True))


def _class_medians(sequence: RequestSequence, samples: list[Sample]) -> dict[str, dict]:
    by_class: dict[str, list[float]] = defaultdict(list)
    for sample in samples:
        by_class[sequence[sample.index].cls].append((sample.end - sample.start) * 1e3)
    return {
        name: {"p50_ms": statistics.median(values), "samples": len(values)}
        for name, values in sorted(by_class.items())
    }


def _check_cache_ratio(spec, before: dict, after: dict, attempted: int) -> tuple[float, bool]:
    """Front cache hit ratio between two snapshots, and whether the mix produced it."""
    then, now = before["http"]["front"], after["http"]["front"]
    queries = now["queries"] - then["queries"]
    ratio = (now["cache"]["hits"] - then["cache"]["hits"]) / queries if queries else 0.0
    return ratio, abs(ratio - spec.hot_share) <= 0.01 + 2 / max(attempted, 1)


def _problems(spec, failed: int, attempted: int, ratio: float, ratio_ok: bool) -> list[str]:
    """What makes a run incorrect; the command exits non-zero on any."""
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} requests failed")
    if not ratio_ok:
        problems.append(
            f"front cache hit ratio {ratio:.3f}, but the mix is built for {spec.hot_share:.2f}")
    return problems


def _errors_5xx(before: dict, after: dict) -> int:
    return sum(after["http"][label]["errors"] - before["http"][label]["errors"]
               for label in after["http"])


def measure_untraced(workload: str, seed: int, seconds: float, toy: bool,
                     workdir: Path, setups: int = SETUPS) -> dict:
    """The timed run: end-to-end metrics of one workload, tracing off."""
    reference = Reference(workload, seed, toy)
    spec, sequence = reference.spec, reference.sequence
    setup_times = []
    server = None
    try:
        for attempt in range(setups):
            if server is not None:
                server.stop()
            server = ServerProcess(workload, seed, toy, workdir / f"setup-{attempt}").start()
            setup_times.append(server.setup_s)
        front = server.servers["front"]
        drive(front, sequence, 0, CLIENTS, count=spec.warmup)
        before = server.snapshot()
        samples, wall = drive(front, sequence, spec.warmup, CLIENTS, seconds=seconds,
                              sampled=_sampled(seed, spec.warmup))
        after = server.snapshot()
        phases = server.phases
    finally:
        if server is not None:
            server.stop()

    failed = reference.verify(samples)
    ratio, ratio_ok = _check_cache_ratio(spec, before, after, len(samples))
    latencies = _latencies_ms(samples, failed)
    metrics = {
        "latency_p50_ms": _percentile(latencies, 0.50),
        "latency_p95_ms": _percentile(latencies, 0.95),
        "throughput_qps": len(samples) / wall,
        "server_cpu_ms_per_query": (after["cpu_s"] - before["cpu_s"]) * 1e3 / len(samples),
        "peak_rss_mb": server.peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    extras = {
        "samples": len(samples),
        "clients": CLIENTS,
        "window_s": wall,
        "failed_share": len(failed) / len(samples),
        "server_cpu_system_share":
            (after["cpu_system_s"] - before["cpu_system_s"])
            / max(after["cpu_s"] - before["cpu_s"], 1e-9),
        "setup_runs_s": setup_times,
        "server.http.cache_hit_ratio": ratio,
        "server.http.errors_5xx": _errors_5xx(before, after),
        "phases": phases,
        "servers": server.servers,
    }
    if len(samples) >= 1000:
        # The highest percentile with at least ten samples beyond it.
        extras["latency_p99_ms"] = _percentile(latencies, 0.99)
    return {
        "sequence_sha256": reference.sequence_sha256,
        "attempted": len(samples), "failed": len(failed),
        "problems": _problems(spec, len(failed), len(samples), ratio, ratio_ok),
        "end_to_end": {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END},
        "classes": _class_medians(sequence, samples),
        "untraced": extras,
    }


def measure_traced(workload: str, seed: int, seconds: float, toy: bool, workdir: Path) -> dict:
    """The per-layer numbers of one workload.

    On an untraced topology: the traced subset with one client (the base
    of ``trace.overhead_share``), then the 2-client mix for ``seconds / 2``
    (per-class medians).  On a traced topology: the same subset again with
    one client, spans recorded, pure-function layers replayed afterwards.
    """
    reference = Reference(workload, seed, toy)
    spec, sequence = reference.spec, reference.sequence
    count, first = spec.traced_requests, spec.warmup
    sampled = _sampled(seed, first)
    federated = bool(spec.persons or spec.shards)

    with ServerProcess(workload, seed, toy, workdir / "untraced") as server:
        front = server.servers["front"]
        drive(front, sequence, 0, CLIENTS, count=first)
        plain, _ = drive(front, sequence, first, 1, count=count, sampled=sampled)
        mixed, _ = drive(front, sequence, first + count, CLIENTS, seconds=seconds / 2,
                         sampled=sampled)
    with ServerProcess(workload, seed, toy, workdir / "traced", traced=True) as server:
        front = server.servers["front"]
        drive(front, sequence, 0, CLIENTS, count=first)
        server.command("record", on=True)
        before = server.snapshot()
        traced, _ = drive(front, sequence, first, 1, count=count, sampled=sampled)
        after = server.snapshot()
        server.command("record", on=False)
        report = server.command("spans")
        phases = server.phases

    failed = reference.verify(plain) + reference.verify(mixed) + reference.verify(traced)
    attempted = len(plain) + len(mixed) + len(traced)
    total = attribute([(s.start, s.end) for s in traced], report["spans"], federated)
    ratio, ratio_ok = _check_cache_ratio(spec, before, after, count)

    def mean(name: str) -> float:
        return total.get(name, 0.0) / count

    def per(numerator: str, denominator: str) -> float:
        return total.get(numerator, 0.0) / total[denominator] if total.get(denominator) else 0.0

    request_ms = mean("trace.request_ms")
    values = {name: mean(name) for name in LAYER_TIMES}
    attributed = sum(values.values())
    mediator = {key: after["mediator"][key] - before["mediator"][key]
                for key in ("hits", "misses")} if "mediator" in after else {"hits": 0, "misses": 0}
    rewrites = mediator["hits"] + mediator["misses"]
    plain_ms = statistics.fmean((s.end - s.start) * 1e3 for s in plain)
    classes = _class_medians(sequence, mixed)
    values.update({
        "server.http.cache_hit_ratio": ratio,
        "server.http.errors_5xx": _errors_5xx(before, after),
        "federation.http_endpoint.subrequests": mean("federation.http_endpoint.subrequests"),
        "sparql.parser.chars": mean("sparql.parser.chars"),
        "core.mediator.cache_hit_ratio": mediator["hits"] / rewrites if rewrites else 0.0,
        "core.mediator.patterns_out_per_in": per("patterns.out", "patterns.in"),
        "core.mediator.function_calls": mean("core.mediator.function_calls"),
        "federation.federator.failed_datasets": mean("federation.federator.failed_datasets"),
        "federation.decompose.rows_shipped_per_row": per("rows.shipped", "rows.answered"),
        "federation.decompose.endpoints_contacted":
            mean("federation.decompose.endpoints_contacted"),
        "federation.decompose.ask_probes": mean("federation.decompose.ask_probes"),
        "sparql.exec.rows_out": per("exec.rows", "exec.queries"),
        "rdf.store.calls": mean("rdf.store.calls"),
        "rdf.store.ids_per_row": per("rdf.store.ids", "exec.rows"),
        "rdf.store.records_read_per_row": per("io.records_read", "exec.rows"),
        "rdf.store.range_scans": mean("io.range_scans"),
        "rdf.store.lookups": mean("io.lookups"),
        "sparql.formats.bytes": mean("sparql.formats.bytes"),
        "trace.unattributed_share": 1 - attributed / request_ms,
        "trace.by_subtraction_share": sum(values[name] for name in _BY_SUBTRACTION) / request_ms,
        "trace.overhead_share": (request_ms - plain_ms) / plain_ms,
    })
    for name in ("rdf.store.build_s", "rdf.store.flushes", "rdf.store.cold_open_ms"):
        values[name] = phases.get(name, 0.0)
    for name in ("rdf.store.compact_s", "rdf.store.bytes_per_triple",
                 "rdf.store.bytes_per_triple_compacted"):
        values[name] = report["space"].get(name, 0.0)
    for name in CLASSES:
        values[f"mix.{name}.p50_ms"] = classes.get(name, {}).get("p50_ms", 0.0)

    return {
        "sequence_sha256": reference.sequence_sha256,
        "attempted": attempted, "failed": len(failed),
        "problems": _problems(spec, len(failed), attempted, ratio, ratio_ok),
        "per_layer": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
        "traced": {
            "requests": count,
            "clients": 1,
            "request_mean_ms": request_ms,
            "untraced_request_mean_ms": plain_ms,
            "mix_samples": {name: entry["samples"] for name, entry in classes.items()},
        },
    }


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def _calibration_ms() -> float:
    """A fixed pure-Python loop: context for reading numbers across machines."""
    best = math.inf
    for _ in range(3):
        started = perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value % 7
        best = min(best, (perf_counter() - started) * 1e3)
    return best


def _commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else None


def context(seed: int, seconds: float, toy: bool) -> dict:
    return {
        "benchmark": "E15", "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "toy": toy,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "calibration_ms": _calibration_ms(), "commit": _commit(),
    }


def print_report(workload: str, report: dict) -> None:
    """Every metric by name, with its unit; one self-time table per traced run."""
    print(f"== {workload} (request sequence sha256 {report['sequence_sha256'][:16]})")
    if "end_to_end" in report:
        extras = report["untraced"]
        print(f"   untraced run: {extras['samples']} samples, {extras['clients']} clients, "
              f"{extras['window_s']:.2f} s window, failed_share {extras['failed_share']:.4f}")
        for name, entry in report["end_to_end"].items():
            print(f"   {name:42s} {entry['value']:14.4f} {entry['unit']}"
                  + (f"   (n={extras['samples']})" if "latency" in name else ""))
        if "latency_p99_ms" in extras:
            print(f"   {'latency_p99_ms':42s} {extras['latency_p99_ms']:14.4f} ms"
                  f"   (n={extras['samples']})")
        for name, entry in report["classes"].items():
            print(f"   {'mix.' + name + '.p50_ms':42s} {entry['p50_ms']:14.4f} ms"
                  f"   (n={entry['samples']})")
    if "per_layer" in report:
        traced = report["traced"]
        print(f"   traced run: {traced['requests']} requests, 1 client, mean request "
              f"{traced['request_mean_ms']:.4f} ms ({traced['untraced_request_mean_ms']:.4f} ms "
              "untraced)")
        print(f"   {'layer self time':42s} {'ms/request':>14s}  share")
        for name in LAYER_TIMES:
            value = report["per_layer"][name]["value"]
            print(f"   {name:42s} {value:14.4f}  {value / traced['request_mean_ms']:6.1%}")
        unattributed = report["per_layer"]["trace.unattributed_share"]["value"]
        print(f"   {'(unattributed)':42s} {unattributed * traced['request_mean_ms']:14.4f}  "
              f"{unattributed:6.1%}")
        for name, entry in report["per_layer"].items():
            if name not in LAYER_TIMES:
                print(f"   {name:42s} {entry['value']:14.4f} {entry['unit']}")
    for problem in report["problems"]:
        print(f"   PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer metrics only; "
                             "omitted: both, as a ledger document")
    parser.add_argument("--out", type=Path, help="write the full JSON document here")
    parser.add_argument("--toy", action="store_true", help="tiny sizes (smoke test)")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".e15_work",
                        help="where server work directories are created and removed")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")

    workdir = args.workdir / f"run-{os.getpid()}"
    document = {"context": context(args.seed, args.seconds, args.toy), "workloads": {}}
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            report: dict = {"attempted": 0, "failed": 0, "problems": []}
            parts = []
            if args.trace in (None, 0):
                parts.append(measure_untraced(workload, args.seed, args.seconds, args.toy,
                                              workdir, 1 if args.toy else SETUPS))
            if args.trace in (None, 1):
                parts.append(measure_traced(workload, args.seed, args.seconds, args.toy,
                                            workdir))
            for part in parts:
                for key in ("attempted", "failed"):
                    report[key] += part.pop(key)
                report["problems"] += part.pop("problems")
                report.update(part)
            document["workloads"][workload] = report
            print_report(workload, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            args.workdir.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass

    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    correct = not any(report["problems"] for report in document["workloads"].values())
    if args.trace is not None:
        report = document["workloads"][args.workload]
        print(json.dumps({
            "correct": correct,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["end_to_end" if args.trace == 0 else "per_layer"],
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
