#!/usr/bin/env python3
"""Repo invariant lints, run as a hard CI gate.

Fifteen structural invariants that ordinary linters do not express, checked
with nothing but the stdlib ``ast`` module:

1. **Hot-loop allocation ban** — inside the batched executor
   (``src/repro/sparql/exec.py``), the per-batch methods of the ``Vec*``
   operators (``_run``, ``execute``, ``_scan_rows``) must not construct
   :class:`Triple` objects or call ``.intern(...)``.  The vectorized core
   works on interned integer ids end to end; materialising terms or
   triples inside an operator loop reintroduces exactly the per-row
   allocation cost the engine exists to avoid.

2. **Lock discipline** — in any class that creates a ``threading.Lock`` /
   ``RLock`` in ``__init__``, the mutable containers also created in
   ``__init__`` (dicts, lists, sets, ``OrderedDict``/``defaultdict``/
   ``deque``) are treated as lock-guarded shared state.  Every mutation of
   them outside ``__init__`` — subscript assignment or deletion, mutating
   method calls (``append``, ``setdefault``, ``clear``, …), or whole-attr
   rebinding — must happen lexically inside a ``with self.<lock>:`` block.

3. **No bare ``except:``** — repo-wide.  A handler must name the
   exceptions it means to swallow.

4. **Operator span coverage** — every concrete ``Vec*`` operator class
   (a class named ``Vec...``/``_Vec...`` deriving from a ``Vec`` base)
   must assign a ``span_name`` in its class body, so distributed traces
   and ``repro trace`` can attribute execution time to every operator.
   The ``VecOperator`` base itself is exempt: it defines the fallback.

5. **The id index's buckets stay private** — under ``src/repro/``, the
   ``.spo``/``.pos`` attributes are read or written only inside
   ``class _IdIndex`` (``rdf/store.py``).  A bucket there is a bare int
   while it holds one id and a set from its second id on; code elsewhere
   that mutated a bucket or assumed it was a set would break that rule.
   Everything else goes through ``_IdIndex.scan``/``count``/``contains``
   or the ``Store`` contract (``triples_ids()``, ``cardinality()``, ...).

6. **Result path stays off the slow encoders** — no ``copy.deepcopy``
   call anywhere under ``src/repro/`` (query ASTs are copied by their
   ``copy()`` methods, which share the frozen values), and no
   ``json.dumps(..., indent=...)`` under ``src/repro/sparql/``: ``indent``
   switches CPython to its pure-Python encoder, and result documents are
   assembled from per-term fragments instead.  Pretty-printed bodies
   outside ``sparql/`` (``/metrics``, ``/health``, error payloads, the
   store manifest) are small and stay as they are.

7. **One operator tree** — ``src/repro/sparql/plan.py`` defines no class
   with a ``describe``, ``explain_lines`` or ``children`` method, no
   ``run``/``execute``/``reset`` function or method, and imports nothing
   from ``.results`` or ``.expressions``.  The planner builds
   ``exec.py``'s ``Vec*`` operators directly, and EXPLAIN and ANALYZE
   render those; a node class of its own would be a second plan tree to
   keep in step, and binding-level code a second executor.

8. **One HTTP/1.1 codec** — nothing under ``src/repro/`` imports
   ``http.client``, ``http.server``, ``urllib.request`` or ``email``.  The
   server and :class:`HttpSparqlEndpoint` (whose pool of kept-alive
   connections acks each response at once) both frame messages with
   ``repro.http11``; the stdlib stack would parse every header block with
   ``email`` and load ``ssl`` into every server process, and a second
   client would reopen a connection per request or stall on the server's
   delayed ACK.

9. **Everything public is reached** — ``tools/reachability.py``'s audit
   finds nothing outside its allowlist: no public module-level symbol of
   ``src/repro`` that only ``tests/`` or the other benchmarks reach from
   the roots (the ``repro`` command, the HTTP server, ``repro.__all__``
   and what ``benchmarks/e15/`` uses), no keyword parameter to which no
   root passes a value other than its default, and no stale allowlist
   entry.  Code and knobs only tests use are deleted or moved next to
   their users, or allowlisted with a reason.

10. **One federation execution path** — under ``src/repro/``,
    ``call_endpoint`` is called only from ``federation/decompose.py``.
    Both strategies run as a plan on its one executor (fan-out is the plan
    with a single whole-query unit); a call anywhere else would be a second
    path that retries, breakers, tracing and ANALYZE do not see whole.

11. **One query rewriter** — under ``src/repro/``, ``QueryRewriter`` is
    constructed only in ``core/mediator.py``.  ``Mediator.translate`` is
    the one rewriting path (``bgp`` and ``filter-aware`` are settings of
    the same rewriter); a construction anywhere else would let a second
    rewriting path, with its own walk of the query, grow back.

12. **One command-line entry point** — under ``src/repro/``, only
    ``cli.py`` imports ``argparse``, and only ``__main__.py`` has an
    ``if __name__ == "__main__"`` block.  Every command is a subcommand of
    ``repro`` (``repro.cli:main``); a second parser or a runnable module
    would be a second entry point with its own options and error handling.

13. **One graph contract for the executor** — ``sparql/exec.py`` and
    ``sparql/plan.py`` call neither ``getattr`` nor ``hasattr`` on a graph
    (``graph``, ``*.graph``, ``*._graph``) and never scan one by term
    (``graph.triples(...)``).  The executor takes a ``Graph`` or
    ``GraphView`` and reads its ``dictionary``, ``triples_ids``,
    ``cardinality``, ``stats`` and ``len()`` directly; a probe would let a
    second, term-level scan path grow back for graphs nothing serves.

14. **No thread per endpoint attempt** — nothing under
    ``src/repro/federation/`` calls ``threading.Thread(...)`` (or a bare
    ``Thread(...)``).  The
    engine's ``worker_pool`` is the one place federation threads start,
    and an endpoint enforces an attempt's time budget itself (``select``/
    ``ask`` take ``timeout=``); a thread started to wait on a call would
    be abandoned, still running, when its budget fired.

15. **One run record** — under ``src/repro/``, ``QueryRunEvent(...)`` is
    constructed only in ``build_run_event``, and ``SINK.emit``,
    ``add_operator_spans`` and ``SLOW_LOG.record`` are called only in
    ``finish_run`` (both in ``sparql/exec.py``).  The exceptions are
    ``Tracer._record``, which exports spans, and the HTTP server's
    ``_answer_query``, which logs its own request.  Every executed plan,
    local or federated, ends in that one function, which builds the event
    only when ANALYZE, the JSONL sink, the tracer or the slow log reads it;
    a second path would build or route its own copy of the record.

Exit status is non-zero when any violation is found.  Findings are printed
one per line as ``path:line: [INVxxx] message`` so CI logs read like
compiler output.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from collections.abc import Mapping, Sequence
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCAN_ROOTS = ("src", "tests", "benchmarks", "tools")
EXEC_PATH = REPO_ROOT / "src" / "repro" / "sparql" / "exec.py"
PLAN_PATH = REPO_ROOT / "src" / "repro" / "sparql" / "plan.py"

#: Operator methods that run once per batch (or per row) and therefore
#: must stay allocation-free.
HOT_METHODS = {"_run", "execute", "_scan_rows"}

#: Calls that mutate a container in place.
MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "move_to_end",
    "appendleft", "popleft",
}

#: Constructors whose result counts as a guarded mutable container.
CONTAINER_CALLS = {"dict", "list", "set", "OrderedDict", "defaultdict", "deque"}


class Finding:
    def __init__(self, path: Path, line: int, code: str, message: str) -> None:
        self.path = path
        self.line = line
        self.code = code
        self.message = message

    def render(self, root: Path = REPO_ROOT) -> str:
        rel = self.path.relative_to(root) if root in self.path.parents else self.path
        return f"{rel}:{self.line}: [{self.code}] {self.message}"


# --------------------------------------------------------------------------- #
# INV001 — no Triple()/intern() in Vec* operator hot loops
# --------------------------------------------------------------------------- #

def check_hot_loops(tree: ast.Module, path: Path) -> list[Finding]:
    findings: list[Finding] = []
    for klass in ast.walk(tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        if not (klass.name.startswith("Vec") or klass.name == "ExecPlan"):
            continue
        for method in klass.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name not in HOT_METHODS:
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "Triple":
                    findings.append(Finding(
                        path, node.lineno, "INV001",
                        f"Triple() constructed in {klass.name}.{method.name}: "
                        "operator loops must stay on interned ids",
                    ))
                if isinstance(func, ast.Attribute) and func.attr == "intern":
                    findings.append(Finding(
                        path, node.lineno, "INV001",
                        f".intern() called in {klass.name}.{method.name}: "
                        "interning belongs in compile/seed, not the batch loop",
                    ))
    return findings


# --------------------------------------------------------------------------- #
# INV002 — lock-guarded containers are only mutated under the lock
# --------------------------------------------------------------------------- #

def _self_attr(node: ast.AST) -> str | None:
    """``self.<name>`` → ``name``; anything else → None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _is_lock_ctor(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    return (isinstance(func, ast.Attribute)
            and func.attr in {"Lock", "RLock"}) or (
        isinstance(func, ast.Name) and func.id in {"Lock", "RLock"})


def _is_container_ctor(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in CONTAINER_CALLS
    return False


def _guarded_state(klass: ast.ClassDef) -> tuple[set[str], set[str]]:
    """Return ``(lock attrs, guarded container attrs)`` from ``__init__``."""
    locks: set[str] = set()
    containers: set[str] = set()
    for method in klass.body:
        if isinstance(method, ast.FunctionDef) and method.name == "__init__":
            for node in ast.walk(method):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                attr = _self_attr(node.targets[0])
                if attr is None:
                    continue
                if _is_lock_ctor(node.value):
                    locks.add(attr)
                elif _is_container_ctor(node.value):
                    containers.add(attr)
    return locks, containers


def _mutations(node: ast.AST, guarded: set[str]):
    """Yield ``(lineno, attr, what)`` for mutations of guarded attrs."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
                if attr in guarded:
                    yield node.lineno, attr, "subscript assignment"
            else:
                attr = _self_attr(target)
                if attr in guarded:
                    yield node.lineno, attr, "attribute rebinding"
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
                if attr in guarded:
                    yield node.lineno, attr, "subscript deletion"
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            attr = _self_attr(func.value)
            if attr in guarded:
                yield node.lineno, attr, f".{func.attr}() call"


def _holds_lock(with_node: ast.With, locks: set[str]) -> bool:
    for item in with_node.items:
        attr = _self_attr(item.context_expr)
        if attr in locks:
            return True
    return False


def _walk_method(node: ast.AST, locks: set[str], guarded: set[str],
                 under_lock: bool, out: list[tuple[int, str, str]]) -> None:
    if isinstance(node, ast.With) and _holds_lock(node, locks):
        under_lock = True
    if not under_lock:
        out.extend(_mutations(node, guarded))
    for child in ast.iter_child_nodes(node):
        # nested defs get their own lexical scope; the lock held here does
        # not protect code that runs later inside them
        child_locked = under_lock and not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        _walk_method(child, locks, guarded, child_locked, out)


def check_lock_discipline(tree: ast.Module, path: Path) -> list[Finding]:
    findings: list[Finding] = []
    for klass in ast.walk(tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        locks, guarded = _guarded_state(klass)
        if not locks or not guarded:
            continue
        for method in klass.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name == "__init__":
                continue
            hits: list[tuple[int, str, str]] = []
            _walk_method(method, locks, guarded, False, hits)
            for lineno, attr, what in hits:
                lock_names = ", ".join(sorted(f"self.{l}" for l in locks))
                findings.append(Finding(
                    path, lineno, "INV002",
                    f"{klass.name}.{method.name} mutates self.{attr} "
                    f"({what}) outside `with {lock_names}`",
                ))
    return findings


# --------------------------------------------------------------------------- #
# INV003 — no bare except
# --------------------------------------------------------------------------- #

def check_bare_except(tree: ast.Module, path: Path) -> list[Finding]:
    return [
        Finding(path, node.lineno, "INV003",
                "bare `except:` — name the exceptions this handler swallows")
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is None
    ]


# --------------------------------------------------------------------------- #
# INV004 — every concrete Vec* operator class registers a span name
# --------------------------------------------------------------------------- #

def _base_names(klass: ast.ClassDef):
    for base in klass.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def check_span_names(tree: ast.Module, path: Path) -> list[Finding]:
    findings: list[Finding] = []
    for klass in ast.walk(tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        if not klass.name.lstrip("_").startswith("Vec"):
            continue
        if klass.name == "VecOperator":
            continue  # the base class defines the fallback span name
        if not any("Vec" in name for name in _base_names(klass)):
            continue
        assigned = False
        for node in klass.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == "span_name"
                   for t in targets):
                assigned = True
                break
        if not assigned:
            findings.append(Finding(
                path, klass.lineno, "INV004",
                f"{klass.name} does not assign span_name: every concrete "
                "Vec* operator must register the span it reports as",
            ))
    return findings


# --------------------------------------------------------------------------- #
# INV005 — the id index's buckets are private to class _IdIndex
# --------------------------------------------------------------------------- #

SRC_PACKAGE = REPO_ROOT / "src" / "repro"
#: The permutation indexes of ``_IdIndex``, whose bucket type (int or set)
#: is that class's own business.
ID_INDEX_ATTRS = {"spo", "pos"}
ID_INDEX_CLASS = "_IdIndex"


def check_id_index_private(tree: ast.Module, path: Path) -> list[Finding]:
    if SRC_PACKAGE not in path.parents:
        return []
    inside = {
        id(node)
        for klass in ast.walk(tree)
        if isinstance(klass, ast.ClassDef) and klass.name == ID_INDEX_CLASS
        for node in ast.walk(klass)
    }
    return sorted((
        Finding(path, node.lineno, "INV005",
                f".{node.attr} used outside class _IdIndex: its buckets are ints "
                "or sets by that class's rule; use scan/count/contains or the Store API")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ID_INDEX_ATTRS
        and id(node) not in inside
    ), key=lambda finding: finding.line)


# --------------------------------------------------------------------------- #
# INV006 — no deepcopy in src/repro/, no json.dumps(indent=) in src/repro/sparql/
# --------------------------------------------------------------------------- #

SPARQL_PACKAGE = SRC_PACKAGE / "sparql"


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def check_result_path_encoders(tree: ast.Module, path: Path) -> list[Finding]:
    if SRC_PACKAGE not in path.parents:
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name == "deepcopy":
            findings.append(Finding(
                path, node.lineno, "INV006",
                "copy.deepcopy() call: copy the mutable shells with the AST's "
                "copy() methods and share the frozen values",
            ))
        elif (name in {"dumps", "dump"} and SPARQL_PACKAGE in path.parents
                and any(keyword.arg == "indent" for keyword in node.keywords)):
            findings.append(Finding(
                path, node.lineno, "INV006",
                "json.dumps(..., indent=...) in sparql/: indent= selects the "
                "pure-Python encoder; assemble the document from fragments",
            ))
    return findings


# --------------------------------------------------------------------------- #
# INV007 — plan.py builds exec.py's operators: no tree, no executor of its own
# --------------------------------------------------------------------------- #

#: Methods that make a class an operator-tree node.
OPERATOR_METHODS = {"describe", "explain_lines", "children"}
#: Names of the execution entry points the planner must not grow.
EXECUTOR_FUNCTIONS = {"run", "execute", "reset"}
#: Modules only binding-level execution needs.
EXECUTOR_MODULES = {"results", "expressions"}


def _imported_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Dotted names an import statement binds or reads from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = node.module or ""
    return [module] + [
        f"{module}.{alias.name}" if module else alias.name for alias in node.names
    ]


def check_one_operator_tree(tree: ast.Module, path: Path) -> list[Finding]:
    if path != PLAN_PATH:
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name in OPERATOR_METHODS):
                    findings.append(Finding(
                        path, item.lineno, "INV007",
                        f"{node.name}.{item.name}() in the planner: the planner "
                        "builds exec.py's Vec* operators and defines no node of its own",
                    ))
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in EXECUTOR_FUNCTIONS):
            findings.append(Finding(
                path, node.lineno, "INV007",
                f"{node.name}() defined in the planner: execution belongs to "
                "exec.py's Vec* operators",
            ))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            name.split(".")[-1] in EXECUTOR_MODULES for name in _imported_names(node)
        ):
            findings.append(Finding(
                path, node.lineno, "INV007",
                "planner imports from .results/.expressions: only an executor "
                "needs bindings or expression evaluation",
            ))
    return sorted(findings, key=lambda finding: finding.line)


# --------------------------------------------------------------------------- #
# INV008 — one HTTP/1.1 codec: no stdlib HTTP stack under src/repro
# --------------------------------------------------------------------------- #

#: The stdlib HTTP modules, and ``email``, which they parse every header with.
STDLIB_HTTP_MODULES = ("http.client", "http.server", "urllib.request", "email")


def _imports_module(node: ast.Import | ast.ImportFrom, module: str) -> bool:
    return any(
        name == module or name.startswith(module + ".") for name in _imported_names(node)
    )


def check_http_transport(tree: ast.Module, path: Path) -> list[Finding]:
    if SRC_PACKAGE not in path.parents:
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for module in STDLIB_HTTP_MODULES:
            if _imports_module(node, module):
                findings.append(Finding(
                    path, node.lineno, "INV008",
                    f"{module} imported: both ends of a hop frame HTTP/1.1 with "
                    "repro.http11, and the stdlib stack loads email and ssl",
                ))
                break
    return sorted(findings, key=lambda finding: finding.line)


# --------------------------------------------------------------------------- #
# INV010 — endpoints are called from the one plan executor only
# --------------------------------------------------------------------------- #

PLAN_EXECUTOR_PATH = SRC_PACKAGE / "federation" / "decompose.py"


def check_one_federation_path(tree: ast.Module, path: Path) -> list[Finding]:
    if SRC_PACKAGE not in path.parents or path == PLAN_EXECUTOR_PATH:
        return []
    return sorted((
        Finding(path, node.lineno, "INV010",
                "call_endpoint() called outside federation/decompose.py: run the "
                "query as a plan (fan-out is the one-unit plan)")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "call_endpoint"
    ), key=lambda finding: finding.line)


# --------------------------------------------------------------------------- #
# INV011 — the query rewriter is built by the mediator only
# --------------------------------------------------------------------------- #

MEDIATOR_PATH = SRC_PACKAGE / "core" / "mediator.py"


def check_one_rewriter(tree: ast.Module, path: Path) -> list[Finding]:
    if SRC_PACKAGE not in path.parents or path == MEDIATOR_PATH:
        return []
    return sorted((
        Finding(path, node.lineno, "INV011",
                "QueryRewriter constructed outside core/mediator.py: rewrite through "
                "Mediator.translate (bgp and filter-aware are its two settings)")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "QueryRewriter"
    ), key=lambda finding: finding.line)


# --------------------------------------------------------------------------- #
# INV012 — one command-line entry point
# --------------------------------------------------------------------------- #

CLI_PATH = SRC_PACKAGE / "cli.py"
MAIN_MODULE_PATH = SRC_PACKAGE / "__main__.py"


def _is_main_guard(node: ast.If) -> bool:
    """``if __name__ == "__main__":`` (either operand order)."""
    test = node.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)):
        return False
    operands = [test.left, *test.comparators]
    return (any(isinstance(o, ast.Name) and o.id == "__name__" for o in operands)
            and any(isinstance(o, ast.Constant) and o.value == "__main__" for o in operands))


def check_one_entry_point(tree: ast.Module, path: Path) -> list[Finding]:
    if SRC_PACKAGE not in path.parents:
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if (path != CLI_PATH and isinstance(node, (ast.Import, ast.ImportFrom))
                and _imports_module(node, "argparse")):
            findings.append(Finding(
                path, node.lineno, "INV012",
                "argparse imported outside cli.py: add a subcommand to the "
                "repro command instead of a second parser",
            ))
        elif path != MAIN_MODULE_PATH and isinstance(node, ast.If) and _is_main_guard(node):
            findings.append(Finding(
                path, node.lineno, "INV012",
                'if __name__ == "__main__" block outside __main__.py: run it as '
                "a repro subcommand (python -m repro <subcommand>)",
            ))
    return sorted(findings, key=lambda finding: finding.line)


# --------------------------------------------------------------------------- #
# INV013 — the executor reads its graph's contract, it does not probe it
# --------------------------------------------------------------------------- #

#: Attribute names that hold the executor's or planner's graph.
GRAPH_ATTRS = {"graph", "_graph"}


def _names_graph(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "graph"
    return isinstance(node, ast.Attribute) and node.attr in GRAPH_ATTRS


def check_graph_contract(tree: ast.Module, path: Path) -> list[Finding]:
    if path not in (EXEC_PATH, PLAN_PATH):
        return []
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id in {"getattr", "hasattr"}
                and node.args and _names_graph(node.args[0])):
            findings.append(Finding(
                path, node.lineno, "INV013",
                f"{func.id}() on the graph: the executor takes a Graph or GraphView "
                "and reads dictionary, triples_ids, cardinality, stats and len() directly",
            ))
        elif (isinstance(func, ast.Attribute) and func.attr == "triples"
                and _names_graph(func.value)):
            findings.append(Finding(
                path, node.lineno, "INV013",
                "term-level graph.triples() scan: the executor scans by id "
                "through triples_ids()",
            ))
    return sorted(findings, key=lambda finding: finding.line)


# --------------------------------------------------------------------------- #
# INV014 — no thread per endpoint attempt
# --------------------------------------------------------------------------- #

FEDERATION_PACKAGE = SRC_PACKAGE / "federation"


def check_no_federation_threads(tree: ast.Module, path: Path) -> list[Finding]:
    if FEDERATION_PACKAGE not in path.parents:
        return []
    return sorted((
        Finding(path, node.lineno, "INV014",
                "threading.Thread() started under federation/: run the work on the "
                "engine's worker_pool, and bound an endpoint call with its timeout=")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "Thread"
    ), key=lambda finding: finding.line)


# --------------------------------------------------------------------------- #
# INV015 — one run record
# --------------------------------------------------------------------------- #

TRACE_PATH = SRC_PACKAGE / "obs" / "trace.py"
HTTP_SERVER_PATH = SRC_PACKAGE / "server" / "http.py"

#: Call -> the (file, function) pairs that may make it.  ``SINK.emit`` in
#: ``Tracer._record`` exports spans, and the HTTP server offers the slow log
#: its own request entry; everything else about a run goes through the one
#: builder and the one finishing function.
RUN_RECORD_CALLS = {
    "QueryRunEvent": ({(EXEC_PATH, "build_run_event")},
                      "build the event with build_run_event"),
    "SINK.emit": ({(EXEC_PATH, "finish_run"), (TRACE_PATH, "_record")},
                  "end the run with finish_run"),
    "add_operator_spans": ({(EXEC_PATH, "finish_run")},
                           "end the run with finish_run"),
    "SLOW_LOG.record": ({(EXEC_PATH, "finish_run"), (HTTP_SERVER_PATH, "_answer_query")},
                        "end the run with finish_run"),
}


def _run_record_call(node: ast.Call) -> str | None:
    """The :data:`RUN_RECORD_CALLS` key ``node`` makes, if any."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        dotted = f"{func.value.id}.{func.attr}"
        if dotted in RUN_RECORD_CALLS:
            return dotted
    name = _called_name(node)
    return name if name in RUN_RECORD_CALLS else None


def check_one_run_record(tree: ast.Module, path: Path) -> list[Finding]:
    if SRC_PACKAGE not in path.parents:
        return []
    findings: list[Finding] = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            call = _run_record_call(node)
            if call is not None:
                allowed, remedy = RUN_RECORD_CALLS[call]
                if (path, function) not in allowed:
                    findings.append(Finding(
                        path, node.lineno, "INV015",
                        f"{call}() outside the one run record's builder and finishing "
                        f"function: {remedy} (sparql/exec.py)",
                    ))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sorted(findings, key=lambda finding: finding.line)


# --------------------------------------------------------------------------- #
# INV009 — no public symbol or knob that only tests reach
# --------------------------------------------------------------------------- #

REACHABILITY_PATH = REPO_ROOT / "tools" / "reachability.py"


def _reachability():
    if "reachability" not in sys.modules:
        spec = importlib.util.spec_from_file_location("reachability", REACHABILITY_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules["reachability"] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["reachability"]


def check_reachability(repo: Path = REPO_ROOT,
                       allowlist: Mapping[str, Sequence[str]] | None = None) -> list[Finding]:
    """The audit's findings outside the allowlist, and its stale entries."""
    reachability = _reachability()
    report = reachability.audit(
        repo, allowlist=reachability.ALLOWLIST if allowlist is None else allowlist)
    findings = [
        Finding(finding.path, finding.line, "INV009",
                f"{finding.kind} {finding.key}: {finding.message}; delete it, move it "
                "next to its users or allowlist it in tools/reachability.py")
        for finding in report.findings
    ]
    lines = REACHABILITY_PATH.read_text().splitlines()
    for key in report.stale:
        line = next((number for number, text in enumerate(lines, 1) if f'"{key}"' in text), 0)
        findings.append(Finding(REACHABILITY_PATH, line, "INV009",
                                f"stale allowlist entry {key}: it is no longer a finding"))
    return findings


# --------------------------------------------------------------------------- #

def main() -> int:
    findings: list[Finding] = []
    for root in SCAN_ROOTS:
        base = REPO_ROOT / root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            try:
                tree = ast.parse(path.read_text())
            except SyntaxError as exc:
                findings.append(Finding(path, exc.lineno or 0, "INV000",
                                        f"file does not parse: {exc.msg}"))
                continue
            findings.extend(check_bare_except(tree, path))
            findings.extend(check_lock_discipline(tree, path))
            findings.extend(check_span_names(tree, path))
            findings.extend(check_id_index_private(tree, path))
            findings.extend(check_result_path_encoders(tree, path))
            findings.extend(check_http_transport(tree, path))
            findings.extend(check_one_federation_path(tree, path))
            findings.extend(check_one_rewriter(tree, path))
            findings.extend(check_one_entry_point(tree, path))
            findings.extend(check_one_operator_tree(tree, path))
            findings.extend(check_graph_contract(tree, path))
            findings.extend(check_no_federation_threads(tree, path))
            findings.extend(check_one_run_record(tree, path))
            if path == EXEC_PATH:
                findings.extend(check_hot_loops(tree, path))
    findings.extend(check_reachability())
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("invariant checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
