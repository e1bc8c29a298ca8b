"""``tools/check_invariants.py``: seeded violations are reported."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_invariants", REPO_ROOT / "tools" / "check_invariants.py"
)
lints = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lints)

SEEDED_ID_INDEX = """\
class _IdIndex:
    def count(self, s, p, o):
        return len(self.spo.get(s, {}).get(p, ()))

class MemoryStore:
    def objects(self, s, p):
        return self._index.spo[s][p]

def leak(index, s, p, o):
    index.pos.setdefault(p, {}).setdefault(o, set()).add(s)
    return index.spo
"""


def _id_index_findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_id_index_private(ast.parse(SEEDED_ID_INDEX), path)
    ]


def test_inv005_reports_index_access_outside_the_id_index():
    def message(attr: str) -> str:
        return (f"[INV005] .{attr} used outside class _IdIndex: its buckets are ints "
                "or sets by that class's rule; use scan/count/contains or the Store API")

    path = "src/repro/rdf/store.py"
    assert _id_index_findings(path) == [
        f"{path}:7: {message('spo')}",
        f"{path}:10: {message('pos')}",
        f"{path}:11: {message('spo')}",
    ]


def test_inv005_scope():
    # Anywhere under src/repro/ the rule is the same; tests and benchmarks
    # may read the index (the scan-order and footprint tests do).
    assert [line.split(": ")[0] for line in _id_index_findings("src/repro/sparql/exec.py")] == [
        "src/repro/sparql/exec.py:7", "src/repro/sparql/exec.py:10",
        "src/repro/sparql/exec.py:11",
    ]
    assert _id_index_findings("tests/rdf/seeded.py") == []
    assert _id_index_findings("benchmarks/e15/seeded.py") == []


SEEDED = """\
import copy
import json
from copy import deepcopy

def clone(query):
    return copy.deepcopy(query)

def clone_again(query):
    return deepcopy(query)

def render(payload):
    compact = json.dumps(payload, ensure_ascii=False)
    return json.dumps(payload, indent=2)
"""


def _findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_result_path_encoders(ast.parse(SEEDED), path)
    ]


def test_inv006_reports_deepcopy_and_indented_dumps_under_sparql():
    deepcopy = (
        "[INV006] copy.deepcopy() call: copy the mutable shells with the AST's "
        "copy() methods and share the frozen values"
    )
    assert _findings("src/repro/sparql/seeded.py") == [
        f"src/repro/sparql/seeded.py:6: {deepcopy}",
        f"src/repro/sparql/seeded.py:9: {deepcopy}",
        "src/repro/sparql/seeded.py:13: [INV006] json.dumps(..., indent=...) in "
        "sparql/: indent= selects the pure-Python encoder; assemble the document "
        "from fragments",
    ]


def test_inv006_scope():
    # Elsewhere in src/repro/ a pretty-printed body is fine; deepcopy is not.
    server = _findings("src/repro/server/seeded.py")
    assert [line.split(": ")[0] for line in server] == [
        "src/repro/server/seeded.py:6", "src/repro/server/seeded.py:9",
    ]
    # Tests, benchmarks and tools may use both (the old writer is a test oracle).
    assert _findings("tests/sparql/seeded.py") == []


SEEDED_PLAN = """\
from .results import Binding
from . import expressions
from .serializer import serialize_expression

class ScanOp:
    def run(self, bindings):
        return bindings

    def reset(self):
        pass

    def describe(self):
        return "Scan"

class JoinOp(ScanOp):
    def children(self):
        return ()

    def explain_lines(self, indent=0):
        return []

def execute(plan):
    return plan
"""


def _plan_findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_one_operator_tree(ast.parse(SEEDED_PLAN), path)
    ]


def test_inv007_reports_a_second_operator_tree_in_the_planner():
    path = "src/repro/sparql/plan.py"
    imports = (
        "[INV007] planner imports from .results/.expressions: only an executor "
        "needs bindings or expression evaluation"
    )

    def defined(name: str) -> str:
        return (
            f"[INV007] {name}() defined in the planner: execution belongs to "
            "exec.py's Vec* operators"
        )

    def node(name: str) -> str:
        return (
            f"[INV007] {name}() in the planner: the planner builds exec.py's Vec* "
            "operators and defines no node of its own"
        )

    assert _plan_findings(path) == [
        f"{path}:1: {imports}",
        f"{path}:2: {imports}",
        f"{path}:6: {defined('run')}",
        f"{path}:9: {defined('reset')}",
        f"{path}:12: {node('ScanOp.describe')}",
        f"{path}:16: {node('JoinOp.children')}",
        f"{path}:19: {node('JoinOp.explain_lines')}",
        f"{path}:22: {defined('execute')}",
    ]


def test_inv007_scope():
    # Only the planner is held to it: exec.py is where the operators live.
    assert _plan_findings("src/repro/sparql/exec.py") == []
    assert _plan_findings("tests/sparql/seeded.py") == []


SEEDED_HTTP = """\
import urllib.request
from urllib import request
from urllib.request import urlopen
import http.client
from http import client
from http.server import ThreadingHTTPServer
import email.utils
from email.parser import BytesParser
import urllib.parse
from http import HTTPStatus
import ssl
from .. import http11
"""


def _http_findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_http_transport(ast.parse(SEEDED_HTTP), path)
    ]


def test_inv008_reports_the_stdlib_http_stack():
    def message(module: str) -> str:
        return (
            f"[INV008] {module} imported: both ends of a hop frame HTTP/1.1 with "
            "repro.http11, and the stdlib stack loads email and ssl"
        )

    path = "src/repro/server/seeded.py"
    assert _http_findings(path) == [
        f"{path}:1: {message('urllib.request')}",
        f"{path}:2: {message('urllib.request')}",
        f"{path}:3: {message('urllib.request')}",
        f"{path}:4: {message('http.client')}",
        f"{path}:5: {message('http.client')}",
        f"{path}:6: {message('http.server')}",
        f"{path}:7: {message('email')}",
        f"{path}:8: {message('email')}",
    ]


def test_inv008_scope():
    # The endpoint module is no exception any more: the codec serves both ends.
    endpoint = _http_findings("src/repro/federation/http_endpoint.py")
    assert [line.split(": ")[0].rsplit(":", 1)[1] for line in endpoint] == [
        "1", "2", "3", "4", "5", "6", "7", "8",
    ]
    # Tests, benchmarks and examples drive servers with whatever they like.
    assert _http_findings("tests/server/seeded.py") == []
    assert _http_findings("benchmarks/e15/seeded.py") == []


SEEDED_FEDERATION = """\
def fan_out(engine, targets, query):
    return [engine.call_endpoint(target, query) for target in targets]

def probe(engine, target, query):
    call_endpoint = engine.call_endpoint
    return call_endpoint(target, query, kind="ask")
"""


def _federation_findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_one_federation_path(ast.parse(SEEDED_FEDERATION), path)
    ]


def test_inv010_reports_endpoint_calls_outside_the_plan_executor():
    message = (
        "[INV010] call_endpoint() called outside federation/decompose.py: run the "
        "query as a plan (fan-out is the one-unit plan)"
    )
    path = "src/repro/federation/federator.py"
    assert _federation_findings(path) == [f"{path}:2: {message}", f"{path}:6: {message}"]


def test_inv010_scope():
    # The plan executor owns the calls; tests and benchmarks may drive them.
    assert _federation_findings("src/repro/federation/decompose.py") == []
    assert _federation_findings("tests/federation/seeded.py") == []


SEEDED_REWRITER = """\
from repro.core import QueryRewriter, rewriter

def rewrite(ruleset, query):
    return QueryRewriter(ruleset).rewrite(query)

def rewrite_qualified(ruleset, query):
    return rewriter.QueryRewriter(ruleset, strict=True).rewrite(query)
"""


def _rewriter_findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_one_rewriter(ast.parse(SEEDED_REWRITER), path)
    ]


def test_inv011_reports_rewriters_built_outside_the_mediator():
    message = (
        "[INV011] QueryRewriter constructed outside core/mediator.py: rewrite through "
        "Mediator.translate (bgp and filter-aware are its two settings)"
    )
    path = "src/repro/federation/service.py"
    assert _rewriter_findings(path) == [f"{path}:4: {message}", f"{path}:7: {message}"]


def test_inv011_scope():
    # The mediator owns the construction; tests, benchmarks and examples
    # may build a rewriter directly.
    assert _rewriter_findings("src/repro/core/mediator.py") == []
    assert _rewriter_findings("tests/core/seeded.py") == []


SEEDED_ENTRY_POINT = """\
import argparse
from argparse import ArgumentParser

def main():
    return ArgumentParser().parse_args()

if __name__ == "__main__":
    main()

if "__main__" == __name__:
    main()

if __name__ != "__main__":
    pass
"""


def _entry_point_findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_one_entry_point(ast.parse(SEEDED_ENTRY_POINT), path)
    ]


def test_inv012_reports_parsers_and_main_blocks_outside_the_cli():
    parser = (
        "[INV012] argparse imported outside cli.py: add a subcommand to the "
        "repro command instead of a second parser"
    )
    guard = (
        '[INV012] if __name__ == "__main__" block outside __main__.py: run it as '
        "a repro subcommand (python -m repro <subcommand>)"
    )
    path = "src/repro/serve_main.py"
    assert _entry_point_findings(path) == [
        f"{path}:1: {parser}",
        f"{path}:2: {parser}",
        f"{path}:7: {guard}",
        f"{path}:10: {guard}",
    ]


def test_inv012_scope():
    # cli.py owns the parser, __main__.py the one main block; each only that.
    assert [line.split(": ")[0] for line in _entry_point_findings("src/repro/cli.py")] == [
        "src/repro/cli.py:7", "src/repro/cli.py:10",
    ]
    assert [line.split(": ")[0] for line in _entry_point_findings("src/repro/__main__.py")] == [
        "src/repro/__main__.py:1", "src/repro/__main__.py:2",
    ]
    # Tools, benchmarks and examples are scripts with their own parsers.
    assert _entry_point_findings("tools/seeded.py") == []
    assert _entry_point_findings("benchmarks/e15/seeded.py") == []


SEEDED_GRAPH_PROBES = """\
def scan(ctx, graph, lookup):
    triples_ids = getattr(graph, "triples_ids", None)
    if hasattr(ctx.graph, "__len__") and getattr(self._graph, "stats", None):
        return ctx.graph.triples(*lookup)
    return graph.triples_ids(*lookup), getattr(ctx.config, "adaptive", False)
"""


def _graph_contract_findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_graph_contract(ast.parse(SEEDED_GRAPH_PROBES), path)
    ]


def test_inv013_reports_graph_probes_and_term_scans_in_the_executor():
    def probe(name: str) -> str:
        return (
            f"[INV013] {name}() on the graph: the executor takes a Graph or GraphView "
            "and reads dictionary, triples_ids, cardinality, stats and len() directly"
        )

    scan = (
        "[INV013] term-level graph.triples() scan: the executor scans by id "
        "through triples_ids()"
    )
    for path in ("src/repro/sparql/exec.py", "src/repro/sparql/plan.py"):
        assert _graph_contract_findings(path) == [
            f"{path}:2: {probe('getattr')}",
            f"{path}:3: {probe('hasattr')}",
            f"{path}:3: {probe('getattr')}",
            f"{path}:4: {scan}",
        ]


def test_inv013_scope():
    # Only the executor and the planner are bound to the one contract: the
    # reference evaluator scans by term, and endpoints may hide their graph.
    assert _graph_contract_findings("src/repro/sparql/evaluator.py") == []
    assert _graph_contract_findings("src/repro/federation/decompose.py") == []
    assert _graph_contract_findings("tests/sparql/seeded.py") == []


SEEDED_THREADS = """\
import threading
from threading import Thread

def attempt(operation, query, timeout):
    worker = threading.Thread(target=operation, args=(query,), daemon=True)
    worker.start()
    worker.join(timeout)
    return Thread(target=operation).start(), threading.Lock()
"""


def _thread_findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_no_federation_threads(ast.parse(SEEDED_THREADS), path)
    ]


def test_inv014_reports_threads_started_in_the_federation():
    message = (
        "[INV014] threading.Thread() started under federation/: run the work on the "
        "engine's worker_pool, and bound an endpoint call with its timeout="
    )
    path = "src/repro/federation/federator.py"
    assert _thread_findings(path) == [f"{path}:5: {message}", f"{path}:8: {message}"]


def test_inv014_scope():
    # The server starts a thread per connection; tests and tools may start
    # threads of their own.
    assert _thread_findings("src/repro/server/http.py") == []
    assert _thread_findings("tests/federation/seeded.py") == []
    assert _thread_findings("tools/seeded.py") == []


SEEDED_RUN_RECORD = """\
def build_run_event(plan, query, elapsed):
    return QueryRunEvent(query, plan.engine, elapsed, 0)

def finish_run(plan, query, elapsed, layer):
    event = build_run_event(plan, query, elapsed)
    SINK.emit(event.to_json_dict())
    get_tracer().add_operator_spans(event, plan.elapsed)
    SLOW_LOG.record(event.to_json_dict(), layer)

def _record(span):
    SINK.emit(span.to_json_dict())

def _answer_query(query_text, elapsed):
    SLOW_LOG.record({"query": query_text, "elapsed": elapsed}, "http")

def run_event(plan):
    event = exec.QueryRunEvent(plan.query, plan.engine, plan.elapsed, 0)
    SINK.emit(event.to_json_dict())
    tracer.add_operator_spans(event, plan.elapsed)
    SLOW_LOG.record(event.to_json_dict(), "federation")
    log.record(event)
    return event
"""


def _run_record_findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_one_run_record(ast.parse(SEEDED_RUN_RECORD), path)
    ]


def _run_record_message(call: str, remedy: str = "end the run with finish_run") -> str:
    return (
        f"[INV015] {call}() outside the one run record's builder and finishing "
        f"function: {remedy} (sparql/exec.py)"
    )


def test_inv015_reports_run_records_built_or_routed_outside_the_one_path():
    # Outside exec.py nothing may build or route a run's record, inside the
    # builder and the finishing function included.
    path = "src/repro/federation/decompose.py"
    assert _run_record_findings(path) == [
        f"{path}:2: {_run_record_message('QueryRunEvent', 'build the event with build_run_event')}",
        f"{path}:6: {_run_record_message('SINK.emit')}",
        f"{path}:7: {_run_record_message('add_operator_spans')}",
        f"{path}:8: {_run_record_message('SLOW_LOG.record')}",
        f"{path}:11: {_run_record_message('SINK.emit')}",
        f"{path}:14: {_run_record_message('SLOW_LOG.record')}",
        f"{path}:17: {_run_record_message('QueryRunEvent', 'build the event with build_run_event')}",
        f"{path}:18: {_run_record_message('SINK.emit')}",
        f"{path}:19: {_run_record_message('add_operator_spans')}",
        f"{path}:20: {_run_record_message('SLOW_LOG.record')}",
    ]


def test_inv015_scope():
    # exec.py: only the builder constructs, only finish_run routes.
    path = "src/repro/sparql/exec.py"
    assert _run_record_findings(path) == [
        f"{path}:11: {_run_record_message('SINK.emit')}",
        f"{path}:14: {_run_record_message('SLOW_LOG.record')}",
        f"{path}:17: {_run_record_message('QueryRunEvent', 'build the event with build_run_event')}",
        f"{path}:18: {_run_record_message('SINK.emit')}",
        f"{path}:19: {_run_record_message('add_operator_spans')}",
        f"{path}:20: {_run_record_message('SLOW_LOG.record')}",
    ]
    # The tracer exports its spans; the HTTP server logs its own request.
    assert [line.split(": ")[0] for line in _run_record_findings("src/repro/obs/trace.py")] == [
        "src/repro/obs/trace.py:2", "src/repro/obs/trace.py:6",
        "src/repro/obs/trace.py:7", "src/repro/obs/trace.py:8",
        "src/repro/obs/trace.py:14",
        "src/repro/obs/trace.py:17", "src/repro/obs/trace.py:18",
        "src/repro/obs/trace.py:19", "src/repro/obs/trace.py:20",
    ]
    assert [line.split(": ")[0] for line in _run_record_findings("src/repro/server/http.py")] == [
        "src/repro/server/http.py:2", "src/repro/server/http.py:6",
        "src/repro/server/http.py:7", "src/repro/server/http.py:8",
        "src/repro/server/http.py:11",
        "src/repro/server/http.py:17", "src/repro/server/http.py:18",
        "src/repro/server/http.py:19", "src/repro/server/http.py:20",
    ]
    # Tests and tools build events of their own.
    assert _run_record_findings("tests/obs/seeded.py") == []
    assert _run_record_findings("tools/seeded.py") == []


SEEDED_FEDERATION_IMPORTS = """\
from ..federation.decompose import PatternSources
from .. import federation, rdf
import repro.federation
from repro import federation as planner
from ..obs.trace import get_tracer
from .exec import finish_run
import repro.federation_tools

def select_sources(query, selector):
    from ..federation import decompose
    return decompose
"""


def _federation_import_findings(relative: str) -> list[str]:
    path = REPO_ROOT / relative
    return [
        finding.render()
        for finding in lints.check_sparql_imports_no_federation(
            ast.parse(SEEDED_FEDERATION_IMPORTS), path
        )
    ]


def test_inv016_reports_federation_imports_under_sparql():
    message = (
        "[INV016] repro.federation imported under sparql/: the federation planner "
        "imports sparql.analysis, never the other way round"
    )
    path = "src/repro/sparql/analysis.py"
    # Relative and absolute, module-level and function-level; other
    # packages and a name that only starts with "federation" pass.
    assert _federation_import_findings(path) == [
        f"{path}:{line}: {message}" for line in (1, 2, 3, 4, 10)
    ]


def test_inv016_scope():
    # The federation imports the query layer freely, and so do tests; one
    # level deeper under sparql/ the relative imports still resolve.
    assert _federation_import_findings("src/repro/federation/decompose.py") == []
    assert _federation_import_findings("tests/sparql/seeded.py") == []
    assert [line.split(": ")[0] for line in _federation_import_findings(
        "src/repro/sparql/sub/seeded.py"
    )] == ["src/repro/sparql/sub/seeded.py:3", "src/repro/sparql/sub/seeded.py:4"]


SEEDED_PACKAGE = {
    "src/repro/__init__.py": "from .api import build\n\n__all__ = [\"build\"]\n",
    "src/repro/api.py": (
        "def build(size=1, verbose=False):\n"
        "    return [size, verbose]\n"
        "\n\n"
        "def only_for_tests():\n"
        "    return build()\n"
        "\n\n"
        "def _private_helper():\n"
        "    return 0\n"
        "\n\n"
        "class Widget:\n"
        "    def __init__(self):\n"
        "        self._written_only = 0\n"
        "\n"
        "    def member_for_tests(self):\n"
        "        return 1\n"
    ),
    "src/repro/cli.py": (
        "from .api import Widget, build\n\n\ndef main():\n    return build(size=2), Widget()\n"
    ),
    "tests/test_api.py": (
        "from repro.api import Widget, build, only_for_tests\n\n\n"
        "def helper_in_tests():\n"
        "    return only_for_tests(), build(verbose=True), Widget().member_for_tests()\n"
    ),
    "tools/script.py": "def unused_tool_function():\n    return 1\n",
}


def _reachability_findings(tmp_path, allowlist=None) -> list[tuple[str, int, str]]:
    for relative, text in SEEDED_PACKAGE.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return [(str(finding.path.relative_to(tmp_path)) if tmp_path in finding.path.parents
             else finding.path.name, finding.line, finding.render(tmp_path).split("] ", 1)[1])
            for finding in lints.check_reachability(tmp_path, allowlist or {})]


def test_inv009_reports_unreached_code_unread_fields_and_test_only_keywords(tmp_path):
    advice = "; delete it, move it next to its users or allowlist it in tools/reachability.py"
    assert _reachability_findings(tmp_path) == [
        ("src/repro/api.py", 1, "knob repro.api:build(verbose): no root passes a value "
         "other than its default; tests or benchmarks do" + advice),
        ("src/repro/api.py", 5, "unreached repro.api:only_for_tests: no root reaches it; "
         "named by tests/test_api.py" + advice),
        ("src/repro/api.py", 15, "unread repro.api:Widget._written_only: stored, but no "
         "code under src/ or benchmarks/e15/ reads it" + advice),
        ("src/repro/api.py", 17, "unreached repro.api:Widget.member_for_tests: no root "
         "reaches it; named by tests/test_api.py" + advice),
    ]
    assert all("[INV009]" in finding.render(tmp_path)
               for finding in lints.check_reachability(tmp_path, {}))


def test_inv009_scope(tmp_path):
    # Private functions and methods, tests and tools are outside the audit
    # (private fields are inside it); an allowlisted finding is silent, and
    # an allowlist entry that is no finding is stale.
    allowlist = {"seeded": ("repro.api:only_for_tests", "repro.api:build(verbose)",
                            "repro.api:Widget._written_only",
                            "repro.api:Widget.member_for_tests", "repro.api:build")}
    assert _reachability_findings(tmp_path, allowlist) == [
        ("reachability.py", 0,
         "stale allowlist entry repro.api:build: it is no longer a finding"),
    ]


def test_the_repository_is_clean():
    assert lints.main() == 0
