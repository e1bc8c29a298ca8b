"""Command-line interface: the ``repro`` command.

One entry point (the ``repro`` console script, or ``python -m repro``)
with one subcommand per way of driving the mediator:

* ``repro rewrite`` — rewrite SPARQL query files against an alignment KB
  (Turtle) for a chosen target, printing the rewritten queries.  This is
  the command-line twin of the web UI of Figure 4.
* ``repro query`` — evaluate a SPARQL query against an RDF file (Turtle or
  N-Triples) and print the results (table by default, or any SPARQL
  results wire format via ``--format``).
* ``repro federate`` — run the demo federation over the built-in synthetic
  scenario and print per-dataset and merged result counts.
* ``repro serve`` — publish RDF files, a persistent store directory
  (``--store``) or the built-in mediated federation as a W3C SPARQL
  Protocol endpoint over HTTP.
* ``repro store build|compact|stats`` — build, compact and inspect
  persistent :class:`~repro.rdf.SegmentStore` directories.
* ``repro lint`` — run the static query analyzer over a batch of SPARQL
  files and print the diagnostics (text or JSON); exits non-zero when
  any file has error-severity findings.
* ``repro trace`` — render distributed-trace span trees (and a
  time-by-layer table) from the ``REPRO_RUN_EVENTS`` JSONL file written
  by a traced run.

A missing or unreadable input file, an RDF or SPARQL syntax error and a
store error end in one ``error: ...`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Sequence

from .alignment import AlignmentStore
from .coreference import SameAsService
from .core import MEDIATION_MODES, Mediator, TargetProfile
from .datasets import build_resist_scenario
from .federation import ExecutionPolicy, recall
from .rdf import Graph, SegmentStore, StoreError, URIRef
from .sparql import ENGINES, AskResult, QueryEvaluator, ResultSet, parse_query, write_results
from .sparql.analysis import QueryAnalysisError, analyze_query
from .sparql.parser import SparqlParseError
from .sparql.tokenizer import SparqlLexError
from .turtle import NTriplesError, TurtleLexError, TurtleParseError, parse_graph

__all__ = ["main"]

#: Output format choices shared by ``repro query`` and ``repro federate``.
_OUTPUT_FORMATS = ["table", "json", "xml", "csv", "tsv"]

#: Failures of the input named on the command line.  ``main`` reports them
#: as one ``error:`` line; anything else is a bug and keeps its traceback.
_INPUT_ERRORS = (
    OSError, SparqlLexError, SparqlParseError,
    TurtleLexError, TurtleParseError, NTriplesError, StoreError,
)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one ``repro`` subcommand and return its exit status."""
    arguments = _build_parser().parse_args(argv)
    try:
        return arguments.handler(arguments)
    except _INPUT_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _positive_int(text: str) -> int:
    """An argparse ``type`` for a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    data_format = argparse.ArgumentParser(add_help=False)
    data_format.add_argument("--data-format", choices=["turtle", "ntriples"], default=None,
                             help="RDF syntax of the data files (guessed from the extension)")
    sizing = argparse.ArgumentParser(add_help=False)
    sizing.add_argument("--persons", type=int, default=40)
    sizing.add_argument("--papers", type=int, default=100)
    sizing.add_argument("--seed", type=int, default=42)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ontology-alignment-driven SPARQL rewriting, querying and federation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    rewrite = commands.add_parser(
        "rewrite", help="rewrite queries for a target dataset",
        description="Rewrite a SPARQL query for a target dataset using an RDF alignment KB.",
    )
    rewrite.add_argument("query", nargs="+",
                         help="path(s) to one or more SPARQL query files (rewritten as a batch)")
    rewrite.add_argument("alignments", help="path to the alignment KB (Turtle)")
    rewrite.add_argument("--target", required=True, help="URI of the target dataset")
    rewrite.add_argument("--source-ontology", default=None, help="URI of the source ontology")
    rewrite.add_argument("--sameas", default=None,
                         help="path to a Turtle/N-Triples file with owl:sameAs links")
    rewrite.add_argument("--uri-pattern", default=None,
                         help="regular expression of the target's instance URI space")
    rewrite.add_argument("--mode", choices=MEDIATION_MODES, default="bgp")
    rewrite.set_defaults(handler=_rewrite)

    query = commands.add_parser(
        "query", parents=[data_format], help="evaluate a query over a local RDF file",
        description="Evaluate a SPARQL query against a local RDF file.",
    )
    query.add_argument("query", help="path to the SPARQL query file")
    query.add_argument("data", help="path to the RDF data file (Turtle or N-Triples)")
    query.add_argument("--format", choices=_OUTPUT_FORMATS, default="table",
                       help="result output format (SPARQL results JSON/XML/CSV/TSV "
                            "or the human-readable table)")
    query.add_argument("--explain", action="store_true",
                       help="print the physical query plan instead of executing")
    query.add_argument("--analyze", action="store_true",
                       help="execute the query and print the EXPLAIN ANALYZE report "
                            "(per-operator rows, batches and wall time)")
    query.add_argument("--engine", choices=list(ENGINES), default="planner",
                       help="evaluation engine: the cost-based planner on the "
                            "batched executor, or the dict-at-a-time reference "
                            "oracle")
    query.add_argument("--strict", action="store_true",
                       help="refuse to execute a query with error-severity "
                            "diagnostics")
    query.set_defaults(handler=_query)

    federate = commands.add_parser(
        "federate", parents=[sizing], help="run the federation demo",
        description="Demonstrate federated co-author retrieval over the synthetic scenario.",
    )
    federate.add_argument("--rkb-coverage", type=float, default=0.55)
    federate.add_argument("--kisti-coverage", type=float, default=0.6)
    federate.add_argument("--dbpedia-coverage", type=float, default=0.35)
    federate.add_argument("--parallel", type=int, default=8, metavar="WORKERS",
                          help="concurrent endpoint requests (0 or 1 = sequential)")
    federate.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                          help="per-attempt endpoint budget")
    federate.add_argument("--retries", type=int, default=0,
                          help="retries per endpoint after a failure")
    federate.add_argument("--latency", type=float, default=0.0, metavar="SECONDS",
                          help="simulated per-query endpoint latency")
    federate.add_argument("--format", choices=_OUTPUT_FORMATS, default="table",
                          help="print the merged result set in this format "
                               "(non-table formats move the run summary to stderr)")
    federate.add_argument("--strategy", choices=["fanout", "decompose"], default="fanout",
                          help="federated execution strategy: ship the whole query to "
                               "every dataset (fanout) or run source selection, "
                               "exclusive groups and bound joins (decompose)")
    federate.add_argument("--ask-probes", action=argparse.BooleanOptionalAction, default=True,
                          help="let source selection issue ASK probes for patterns the "
                               "VoID statistics cannot settle")
    federate.add_argument("--bind-join-batch", type=int, default=None, metavar="ROWS",
                          help="ceiling on left rows shipped per bound-join VALUES block "
                               "(default 256)")
    federate.add_argument("--explain", action="store_true",
                          help="print the federated plan (per-dataset sub-queries) "
                               "instead of executing")
    federate.add_argument("--analyze", action="store_true",
                          help="print the EXPLAIN ANALYZE report of the federated run "
                               "(operator timings, endpoints contacted, rows shipped)")
    federate.add_argument("--lint", action="store_true",
                          help="print the static local + federation diagnostics for the "
                               "demo query instead of executing (exit 1 on errors)")
    federate.set_defaults(handler=_federate)

    serve = commands.add_parser(
        "serve", parents=[data_format, sizing], help="publish a SPARQL Protocol endpoint",
        description="Serve an RDF file or the demo federation as a SPARQL Protocol endpoint.",
    )
    serve.add_argument("data", nargs="*",
                       help="RDF file(s) to serve (Turtle or N-Triples); "
                            "omit when using --scenario")
    serve.add_argument("--scenario", action="store_true",
                       help="serve the built-in mediated federation scenario")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="serve a persistent SegmentStore directory "
                            "(see repro store build)")
    serve.add_argument("--dataset", default=None, metavar="URI",
                       help="with --scenario: serve just this dataset's endpoint "
                            "instead of the federation")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 binds an ephemeral port)")
    serve.add_argument("--uri", default=None,
                       help="endpoint identity URI (defaults to the server URL)")
    serve.add_argument("--mode", choices=MEDIATION_MODES, default="filter-aware",
                       help="rewriting mode of the federation backend")
    serve.add_argument("--strategy", choices=["fanout", "decompose"], default="fanout",
                       help="execution strategy of the federation backend")
    serve.add_argument("--strict", action="store_true",
                       help="refuse queries with error-severity static-analysis "
                            "diagnostics (HTTP 400 with a structured JSON body)")
    serve.add_argument("--cache-size", type=int, default=128,
                       help="response cache entries (0 disables caching)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every request to stderr")
    serve.set_defaults(handler=_serve)

    store = commands.add_parser(
        "store", help="manage persistent store directories",
        description="Manage persistent triple-store directories (SegmentStore).",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    build = store_commands.add_parser("build", parents=[data_format],
                                      help="load RDF files into a store directory")
    build.add_argument("store", metavar="DIR", help="store directory (created if missing)")
    build.add_argument("data", nargs="+", help="RDF file(s) to load (Turtle or N-Triples)")
    build.add_argument("--buffer-limit", type=_positive_int,
                       default=SegmentStore.DEFAULT_BUFFER_LIMIT,
                       metavar="TRIPLES", help="write-buffer size between segment flushes")
    build.set_defaults(handler=_store_build)
    compact = store_commands.add_parser("compact",
                                        help="merge segments and drop tombstoned deletes")
    compact.add_argument("store", metavar="DIR")
    compact.set_defaults(handler=_store_compact)
    stats = store_commands.add_parser("stats", help="print store size and layout statistics")
    stats.add_argument("store", metavar="DIR")
    stats.add_argument("--top", type=int, default=5, metavar="N",
                       help="show the N most frequent predicates and classes")
    stats.set_defaults(handler=_store_stats)

    lint = commands.add_parser(
        "lint", parents=[data_format], help="statically analyze query files",
        description="Statically analyze SPARQL query files and print diagnostics.",
    )
    lint.add_argument("query", nargs="+", help="path(s) to SPARQL query files")
    lint.add_argument("--data", default=None, metavar="FILE",
                      help="optional RDF file (Turtle or N-Triples); enables the "
                           "statistics-aware checks (cartesian product sizing)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="diagnostic output format")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as failures too")
    lint.set_defaults(handler=_lint)

    trace = commands.add_parser(
        "trace", help="render trace span trees",
        description="Render distributed-trace span trees from a run-events JSONL file.",
    )
    trace.add_argument("events", help="path to the REPRO_RUN_EVENTS JSONL file")
    trace.add_argument("--trace", default=None, metavar="TRACE_ID",
                       help="render only this trace id (prefixes accepted)")
    trace.add_argument("--list", action="store_true", dest="list_traces",
                       help="one summary line per trace instead of full trees")
    trace.add_argument("--layers", action="store_true",
                       help="append the time-by-layer aggregation table")
    trace.set_defaults(handler=_trace)
    return parser


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str, format_name: str | None = None) -> Graph:
    """Parse an RDF file; the syntax is guessed from the extension unless given."""
    if format_name is None:
        format_name = "ntriples" if path.endswith(".nt") else "turtle"
    return parse_graph(_read_text(path), format=format_name)


# --------------------------------------------------------------------------- #
# repro rewrite
# --------------------------------------------------------------------------- #
def _rewrite(arguments: argparse.Namespace) -> int:
    """Rewrite queries using an alignment KB and (optionally) a sameAs file."""
    store = AlignmentStore()
    imported = store.load_graph(_load_graph(arguments.alignments, "turtle"))
    if imported == 0:
        print("warning: no ontology alignments found in the alignment KB", file=sys.stderr)

    sameas = SameAsService()
    if arguments.sameas:
        sameas.load_graph(_load_graph(arguments.sameas))

    target_uri = URIRef(arguments.target)
    mediator = Mediator(store, sameas)
    mediator.register_target(
        TargetProfile(dataset=target_uri, uri_pattern=arguments.uri_pattern)
    )
    source_ontology = URIRef(arguments.source_ontology) if arguments.source_ontology else None
    results = mediator.rewrite_many(
        [_read_text(path) for path in arguments.query],
        target_uri,
        source_ontology,
        mode=arguments.mode,
    )
    for path, result in zip(arguments.query, results, strict=True):
        if len(results) > 1:
            print(f"# --- {path} ---")
        print(result.query_text)
        print(
            f"# {path}: alignments considered: {result.alignments_considered}; "
            f"triples matched: {result.report.matched_count}; "
            f"unmatched: {result.report.unmatched_count}",
            file=sys.stderr,
        )
    return 0


# --------------------------------------------------------------------------- #
# repro query
# --------------------------------------------------------------------------- #
def _query(arguments: argparse.Namespace) -> int:
    """Evaluate a query over a local RDF file and print the results."""
    graph = _load_graph(arguments.data, arguments.data_format)
    evaluator = QueryEvaluator(graph, engine=arguments.engine, strict=arguments.strict)
    query = parse_query(_read_text(arguments.query))
    try:
        if arguments.explain:
            print(evaluator.explain(query))
            return 0
        if arguments.analyze:
            # The reference oracle analyzes through the planner (see
            # QueryEvaluator.analyze).
            _, event = evaluator.analyze(query)
            print(event.render())
            return 0
        result = evaluator.evaluate(query)
    except QueryAnalysisError as error:
        for diagnostic in error.diagnostics:
            print(diagnostic.render(arguments.query), file=sys.stderr)
        return 1
    for diagnostic in getattr(result, "diagnostics", []):
        print(f"# {diagnostic.render(arguments.query)}", file=sys.stderr)
    if isinstance(result, ResultSet):
        print(write_results(result, arguments.format), end="")
        print(f"# {len(result)} rows", file=sys.stderr)
    elif isinstance(result, AskResult):
        if arguments.format in ("csv", "tsv"):
            print("error: ASK results have no CSV/TSV encoding; use --format json or xml",
                  file=sys.stderr)
            return 2
        print(write_results(result, arguments.format), end="")
    else:  # CONSTRUCT: an RDF graph, not a result set
        print(result.serialize())
    return 0


# --------------------------------------------------------------------------- #
# repro federate
# --------------------------------------------------------------------------- #
def _federate(arguments: argparse.Namespace) -> int:
    """Run the built-in federation demo (synthetic ReSIST scenario)."""
    scenario = build_resist_scenario(
        n_persons=arguments.persons,
        n_papers=arguments.papers,
        rkb_coverage=arguments.rkb_coverage,
        kisti_coverage=arguments.kisti_coverage,
        dbpedia_coverage=arguments.dbpedia_coverage,
        seed=arguments.seed,
    )
    if arguments.latency:
        for dataset in scenario.registry:
            dataset.endpoint.latency = arguments.latency  # type: ignore[attr-defined]
    scenario.registry.default_policy = ExecutionPolicy(
        timeout=arguments.timeout,
        max_retries=max(0, arguments.retries),
    )
    engine = scenario.service.federation
    engine.max_workers = max(1, arguments.parallel)
    engine.ask_probes = arguments.ask_probes
    if arguments.bind_join_batch is not None:
        engine.bind_join_batch = max(1, arguments.bind_join_batch)

    person_key = scenario.world.most_prolific_author()
    person_uri = scenario.akt_person_uri(person_key)
    query = f"""
    PREFIX akt:<http://www.aktors.org/ontology/portal#>
    SELECT DISTINCT ?a WHERE {{
      ?paper akt:has-author <{person_uri}> .
      ?paper akt:has-author ?a .
      FILTER (!(?a = <{person_uri}>))
    }}
    """
    if arguments.lint:
        diagnostics = engine.lint(
            query,
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
        )
        for diagnostic in diagnostics:
            print(diagnostic.render("demo-query"))
        if not diagnostics:
            print("no diagnostics", file=sys.stderr)
        return 1 if any(d.severity == "error" for d in diagnostics) else 0

    if arguments.explain:
        if arguments.strategy == "decompose":
            plan = engine.decompose_plan(
                query,
                source_ontology=scenario.source_ontology,
                source_dataset=scenario.rkb_dataset,
                mode="filter-aware",
            )
            print(plan.explain())
        else:
            for uri, text in scenario.service.explain(
                query,
                source_ontology=scenario.source_ontology,
                source_dataset=scenario.rkb_dataset,
                mode="filter-aware",
            ).items():
                print(f"=== {uri} ===")
                print(text)
        return 0

    # With a machine-readable --format the merged result set owns stdout
    # and the human-readable run summary moves to stderr.
    summary = sys.stdout if arguments.format == "table" else sys.stderr
    print(f"Dataset sizes: {scenario.dataset_sizes()}", file=summary)
    print(f"Query subject: {person_uri}", file=summary)

    local = scenario.endpoint(scenario.rkb_dataset).select(query)
    run_event = None
    if arguments.analyze:
        federated, run_event = scenario.service.analyze(
            query,
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
            strategy=arguments.strategy,
        )
    else:
        federated = scenario.service.federate(
            query,
            source_ontology=scenario.source_ontology,
            source_dataset=scenario.rkb_dataset,
            mode="filter-aware",
            strategy=arguments.strategy,
        )
    gold = scenario.gold_coauthor_uris(person_key)
    print(f"RKB-only co-authors:   {len(local.distinct_values('a')):3d} "
          f"(recall {recall(local.distinct_values('a'), gold):.2f})", file=summary)
    print(f"Federated co-authors:  {len(federated.distinct_values('a')):3d} "
          f"(recall {recall(federated.distinct_values('a'), gold):.2f})", file=summary)
    health = scenario.registry.health()
    for entry in federated.per_dataset:
        status = "ok" if entry.succeeded else f"error: {entry.error}"
        attempts = f", {entry.attempts} attempts" if entry.attempts != 1 else ""
        statistics = health[entry.dataset_uri].statistics
        served = (f"; served {statistics.total_queries} queries, "
                  f"{statistics.total_failures} failures"
                  if statistics is not None else "")
        print(f"  {entry.dataset_uri}: {entry.row_count} rows ({status}{attempts}{served})",
              file=summary)
    mode = f"parallel x{engine.max_workers}" if engine.max_workers > 1 else "sequential"
    print(f"Strategy: {federated.strategy} ({mode}); wall-clock {federated.elapsed:.3f}s; "
          f"endpoint attempts {federated.total_attempts}", file=summary)
    if federated.strategy == "decompose":
        print(f"Decomposition: {federated.endpoints_contacted} endpoints contacted, "
              f"{federated.total_requests} requests, {federated.total_rows} rows shipped",
              file=summary)
    if any(state != "closed" for state in health.values()):
        for uri, state in health.items():
            print(f"  breaker {uri}: {state}", file=summary)
    if run_event is not None:
        print(run_event.render(), file=summary)
    if arguments.format != "table":
        print(write_results(federated.merged(), arguments.format), end="")
    return 0


# --------------------------------------------------------------------------- #
# repro lint
# --------------------------------------------------------------------------- #
def _lint(arguments: argparse.Namespace) -> int:
    """Run the static query analyzer over a batch of SPARQL files.

    Prints one diagnostic per line (``file:line:col: severity[CODE]
    message``) or a JSON report with ``--format json``.  Parse failures
    are reported as error-severity ``PARSE`` findings.  The exit status
    is 1 when any file has error-severity findings (with ``--strict``,
    warnings also fail), 0 otherwise — suitable as a CI gate.
    """
    graph = None
    if arguments.data:
        graph = _load_graph(arguments.data, arguments.data_format)

    failed = False
    report = []
    for path in arguments.query:
        text = _read_text(path)
        try:
            query = parse_query(text)
        except (SparqlLexError, SparqlParseError) as error:
            line = getattr(error, "line", None) or 1
            column = getattr(error, "column", None) or 1
            failed = True
            if arguments.format == "json":
                report.append({
                    "file": path,
                    "diagnostics": [{
                        "code": "PARSE",
                        "severity": "error",
                        "message": str(error),
                        "span": {"line": line, "column": column,
                                 "end_line": line, "end_column": column + 1},
                    }],
                })
            else:
                print(f"{path}:{line}:{column}: error[PARSE] {error}")
            continue
        analysis = analyze_query(query, graph)
        if analysis.has_errors or (arguments.strict and analysis.warnings):
            failed = True
        if arguments.format == "json":
            report.append({"file": path, "diagnostics": analysis.to_json_list()})
        else:
            for diagnostic in analysis.diagnostics:
                print(diagnostic.render(path))
    if arguments.format == "json":
        print(json.dumps(report, indent=2))
    return 1 if failed else 0


# --------------------------------------------------------------------------- #
# repro serve
# --------------------------------------------------------------------------- #
def _serve(arguments: argparse.Namespace) -> int:
    """Publish a SPARQL endpoint over HTTP (the W3C SPARQL Protocol).

    Three modes:

    * ``repro serve data.ttl [more.ttl ...]`` — serve the union of the
      given RDF files as a single endpoint (SELECT/ASK/CONSTRUCT);
    * ``repro serve --store DIR`` — serve a persistent
      :class:`~repro.rdf.SegmentStore` directory (built with
      ``repro store build``) without loading it into memory;
    * ``repro serve --scenario`` — serve the built-in mediated federation
      (every SELECT is rewritten per dataset, executed and merged), or one
      scenario dataset with ``--dataset``.

    Tracing is switched on by ``REPRO_TRACE=1`` in the environment.
    """
    from .federation import LocalSparqlEndpoint
    from .server import EndpointBackend, FederationBackend, SparqlHttpServer

    modes = sum((arguments.scenario, bool(arguments.data), arguments.store is not None))
    if modes != 1:
        print("error: serve RDF files, --store DIR or --scenario (exactly one)",
              file=sys.stderr)
        return 2

    if arguments.store is not None:
        from .rdf import open_graph

        store_dir = Path(arguments.store)
        if not (store_dir / "MANIFEST.json").exists():
            raise StoreError(f"{store_dir} is not a store directory "
                             "(no MANIFEST.json; create one with repro store build)")
        graph = open_graph(store_dir)
        placeholder = f"http://{arguments.host}:{arguments.port or 0}/sparql"
        endpoint = LocalSparqlEndpoint(
            URIRef(arguments.uri or placeholder), graph, name=str(store_dir),
        )
        backend = EndpointBackend(endpoint, strict=arguments.strict)
    elif arguments.scenario:
        scenario = build_resist_scenario(
            n_persons=arguments.persons,
            n_papers=arguments.papers,
            seed=arguments.seed,
        )
        if arguments.dataset is not None:
            try:
                dataset = scenario.registry.get(URIRef(arguments.dataset))
            except KeyError:
                known = ", ".join(str(uri) for uri in scenario.registry.dataset_uris())
                print(f"error: unknown dataset {arguments.dataset}; "
                      f"scenario datasets: {known}", file=sys.stderr)
                return 2
            backend = EndpointBackend(dataset.endpoint, strict=arguments.strict)
        else:
            backend = FederationBackend(
                scenario.service,
                source_ontology=scenario.source_ontology,
                source_dataset=scenario.rkb_dataset,
                mode=arguments.mode,
                strategy=arguments.strategy,
                strict=arguments.strict,
            )
    else:
        graph = Graph()
        for path in arguments.data:
            graph.add_all(_load_graph(path, arguments.data_format))
        placeholder = f"http://{arguments.host}:{arguments.port or 0}/sparql"
        endpoint = LocalSparqlEndpoint(
            URIRef(arguments.uri or placeholder), graph,
            name=", ".join(arguments.data),
        )
        backend = EndpointBackend(endpoint, strict=arguments.strict)

    server = SparqlHttpServer(
        backend,
        host=arguments.host,
        port=arguments.port,
        cache_size=arguments.cache_size,
        quiet=not arguments.verbose,
    )
    print(f"Serving {backend.description}", file=sys.stderr)
    print(f"SPARQL endpoint: {server.query_url}", flush=True)
    print(f"Health: {server.url}/health — Metrics: {server.url}/metrics", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------- #
# repro store build|compact|stats
# --------------------------------------------------------------------------- #
def _existing_store(directory: str) -> SegmentStore:
    """Open the store at ``directory``; refuse, creating nothing, if there is none."""
    if not (Path(directory) / "MANIFEST.json").is_file():
        raise StoreError(f"no store at {directory}")
    return SegmentStore(directory)


def _store_build(arguments: argparse.Namespace) -> int:
    """Load RDF files into the store at DIR (created if missing, else extended)."""
    store = SegmentStore(arguments.store, buffer_limit=arguments.buffer_limit)
    graph = Graph(store=store)
    loaded = 0
    for path in arguments.data:
        before = len(graph)
        graph.add_all(_load_graph(path, arguments.data_format))
        loaded += len(graph) - before
        print(f"{path}: +{len(graph) - before} triples", file=sys.stderr)
    total = len(graph)
    graph.close()
    print(f"{arguments.store}: {total} triples in "
          f"{len(store.segment_names)} segment(s) (+{loaded} new)")
    return 0


def _store_compact(arguments: argparse.Namespace) -> int:
    """Merge all segments into one and drop tombstoned deletes."""
    store = _existing_store(arguments.store)
    before = len(store.segment_names)
    tombstones = store.tombstoned
    changed = store.compact()
    store.close()
    if changed:
        print(f"{arguments.store}: {before} segment(s) -> "
              f"{len(store.segment_names)}, {tombstones} tombstone(s) dropped")
    else:
        print(f"{arguments.store}: already compact")
    return 0


def _store_stats(arguments: argparse.Namespace) -> int:
    """Print format, size, layout and vocabulary statistics; no triple is loaded."""
    store = _existing_store(arguments.store)
    statistics = store.stats
    print(f"store:      {arguments.store}")
    print(f"format:     {store.FORMAT_VERSION}")
    print(f"triples:    {len(store)}")
    print(f"segments:   {len(store.segment_names)}"
          + (f" ({', '.join(store.segment_names)})" if store.segment_names else ""))
    print(f"buffered:   {store.buffered}")
    print(f"tombstones: {store.tombstoned}")
    print(f"terms:      {len(store.dictionary)}")
    print(f"distinct:   {statistics.distinct_subjects} subjects, "
          f"{statistics.distinct_predicates} predicates, "
          f"{statistics.distinct_objects} objects")
    for label, counts in (("predicate", statistics.predicate_counts),
                          ("class", statistics.class_counts)):
        ranked = sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))
        for term, count in ranked[:max(0, arguments.top)]:
            print(f"  {label} {term}: {count}")
    store.close()
    return 0


# --------------------------------------------------------------------------- #
# repro trace
# --------------------------------------------------------------------------- #
#: Span attributes worth showing inline in the rendered tree.
_TRACE_DETAIL_ATTRS = (
    "method", "path", "status", "dataset", "endpoint", "kind", "engine",
    "attempts", "operator", "rows", "rows_out", "units", "error",
)


def _load_spans(path: str) -> list[dict]:
    """The ``"kind": "span"`` lines of a ``REPRO_RUN_EVENTS`` JSONL file."""
    spans: list[dict] = []
    for number, line in enumerate(_read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            print(f"warning: {path}:{number}: not valid JSON: {error}", file=sys.stderr)
            continue
        if isinstance(record, dict) and record.get("kind") == "span":
            spans.append(record)
    return spans


def _render_span(span: dict, children: dict, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    duration = float(span.get("duration") or 0.0) * 1000
    layer = span.get("attributes", {}).get("layer", "?")
    details = " ".join(
        f"{key}={span['attributes'][key]}"
        for key in _TRACE_DETAIL_ATTRS
        if span.get("attributes", {}).get(key) is not None and key != "layer"
    )
    line = f"{pad}{span.get('name', '?')}  {duration:.2f} ms  [{layer}]"
    if details:
        line += f"  {details}"
    lines.append(line)
    for event in span.get("events", ()):
        extras = ", ".join(
            f"{key}={value}" for key, value in event.items()
            if key not in ("name", "time")
        )
        lines.append(f"{pad}  ! {event.get('name', '?')}" + (f" ({extras})" if extras else ""))
    for child in children.get(span.get("span_id"), ()):
        _render_span(child, children, indent + 1, lines)


def render_trace(spans: list[dict]) -> str:
    """The span tree of one trace, children indented under parents."""
    by_id = {span.get("span_id"): span for span in spans}
    children: dict = {}
    roots: list[dict] = []
    for span in sorted(spans, key=lambda entry: float(entry.get("start") or 0.0)):
        parent = span.get("parent_id")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    lines: list[str] = []
    for root in roots:
        _render_span(root, children, 1, lines)
    return "\n".join(lines)


def layer_table(spans: list[dict]) -> list[tuple[str, float, int]]:
    """``(layer, self seconds, span count)`` rows, most expensive first.

    Self time is a span's duration minus its children's durations (clamped
    at zero), so layers don't double-count each other: the federation
    layer's time excludes the HTTP client calls nested inside it.
    """
    child_seconds: dict[str, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + float(
                span.get("duration") or 0.0
            )
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in spans:
        layer = str(span.get("attributes", {}).get("layer", "?"))
        own = float(span.get("duration") or 0.0)
        own -= child_seconds.get(span.get("span_id", ""), 0.0)
        totals[layer] = totals.get(layer, 0.0) + max(0.0, own)
        counts[layer] = counts.get(layer, 0) + 1
    return sorted(
        ((layer, totals[layer], counts[layer]) for layer in totals),
        key=lambda row: -row[1],
    )


def _trace(arguments: argparse.Namespace) -> int:
    """Render trace span trees from a ``REPRO_RUN_EVENTS`` JSONL file.

    Spans (``"kind": "span"`` lines) are grouped by trace id and rendered
    as indented trees with per-span duration, layer and key attributes;
    span events (retries, breaker transitions, exceptions) appear as
    ``!``-prefixed lines under their span.  ``--layers`` adds a
    time-by-layer table (self time, so layers don't double-count), and
    the run-event side of the same file feeds ``benchmarks/compare.py
    --events``.
    """
    spans = _load_spans(arguments.events)
    if arguments.trace:
        spans = [
            span for span in spans
            if str(span.get("trace_id", "")).startswith(arguments.trace)
        ]
    if not spans:
        print("error: no trace spans found (enable tracing with REPRO_TRACE=1 "
              "and export REPRO_RUN_EVENTS)", file=sys.stderr)
        return 1

    traces: dict[str, list[dict]] = {}
    for span in spans:
        traces.setdefault(str(span.get("trace_id", "?")), []).append(span)
    # Oldest trace first: the order queries actually ran.
    ordered = sorted(
        traces.items(),
        key=lambda item: min(float(span.get("start") or 0.0) for span in item[1]),
    )
    for trace_id, members in ordered:
        elapsed = (
            max(float(span.get("end") or 0.0) for span in members)
            - min(float(span.get("start") or 0.0) for span in members)
        ) * 1000
        print(f"trace {trace_id}  ({len(members)} spans, {elapsed:.2f} ms)")
        if not arguments.list_traces:
            print(render_trace(members))
    if arguments.layers:
        print("time by layer (self):")
        rows = layer_table(spans)
        width = max(len(layer) for layer, _, _ in rows)
        for layer, seconds, count in rows:
            print(f"  {layer:<{width}}  {seconds * 1000:9.2f} ms  ({count} spans)")
    return 0
