#!/usr/bin/env python3
"""Reachability audit of ``src/repro``: public code and knobs that only tests use.

Usage, from the repository root (standard library only)::

    python tools/reachability.py

It builds a name-level call graph of the package with ``ast`` and walks it
from the roots, the code a user of the product runs:

* the ``repro`` command (``repro.cli:main``, which ``__main__.py`` calls);
* the HTTP server (``repro.server.http:SparqlHttpServer``);
* the public API, the names in ``repro/__init__.py``'s ``__all__``;
* every product name that ``benchmarks/e15/`` imports or calls, since the
  E15 ledger drives the product through them;
* module-level code that runs at import (calls, registering decorators).

A reached module-level function or class reaches every name its body,
decorators, bases, defaults and annotations resolve to, through imports and
package re-exports; ``module.name`` resolves through a module.  A reached
class reaches all of its methods: an attribute on an object is not resolved
to a type, so the audit is per module-level symbol, not per method.

It reports two kinds of finding:

* ``unreached``: a public module-level function, class or constant that no
  root reaches (the files under ``tests/``, ``benchmarks/``, ``examples/``
  or ``tools/`` that name it are listed);
* ``knob``: a parameter with a default, of a reached public function,
  method or constructor (dataclass fields included), to which no call in
  root-reached code passes a value other than that default.  A call on an
  object counts for every method of that name, ``**kwargs`` passes every
  keyword and ``*args`` every position, so a knob is reported only when no
  root can be passing it.

Each finding is deleted, moved next to its only users, or named in
``ALLOWLIST`` with a one-line reason.  An allowlist entry that matches no
finding is reported as stale.  This script only reports (exit status 0);
``tools/check_invariants.py`` INV009 fails on the same findings.
"""

from __future__ import annotations

import ast
import functools
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "repro"

#: Roots besides ``__all__`` and ``benchmarks/e15/``: ``module:name``.
ROOT_SYMBOLS = ("repro.cli:main", "repro.server.http:SparqlHttpServer")

#: Directory whose every file is root code (relative to the repository).
ROOT_DIRS = ("benchmarks/e15",)

#: Directories scanned for the users of an unreached symbol.
USER_DIRS = ("tests", "benchmarks", "examples", "tools")

#: Findings kept on purpose: one-line reason -> ``module:qualname`` (an
#: unreached symbol) or ``module:qualname(param)`` (a knob) keys.
ALLOWLIST: dict[str, tuple[str, ...]] = {
    "the paper's alignment toolkit around the mediator: inversion (examples/"
    "data_translation.py), the level builders (E8) and the RDF encoding (E2)": (
        "repro.alignment.inverse:invert_ontology_alignment",
        "repro.alignment.levels:property_alignment",
        "repro.alignment.levels:class_to_value_partition_alignment",
        "repro.alignment.levels:property_chain_alignment",
        "repro.alignment.levels:classify_level",
        "repro.alignment.rdf_io:alignments_to_graph",
        "repro.alignment.rdf_io:alignments_from_graph",
        "repro.alignment.rdf_io:ontology_alignment_to_graph",
        "repro.alignment.rdf_io:alignments_to_turtle",
        "repro.alignment.rdf_io:alignments_from_turtle",
        "repro.alignment.rdf_io:AlignmentGraphWriter(graph)",
        "repro.alignment.inverse:invert_ontology_alignment(source_dataset)",
        "repro.alignment.inverse:invert_ontology_alignment(source_uri_pattern)",
    ),
    "data translation by generated CONSTRUCT queries, the alternative E10 "
    "measures (examples/data_translation.py)": (
        "repro.core.construct_generator:DataTranslator",
        "repro.core.construct_generator:construct_queries_for_alignments",
        "repro.core.construct_generator:DataTranslator(sameas_service)",
        "repro.core.construct_generator:DataTranslator(target_uri_pattern)",
        "repro.core.construct_generator:DataTranslator(prefixes)",
    ),
    "the shipped scenario's source URI space, beside its KISTI and DBpedia patterns": (
        "repro.datasets.alignments:RKB_URI_PATTERN",
    ),
    "test hooks: a clock, a tracer, blank-node labels, fault injection, no backoff": (
        "repro.federation.policy:CircuitBreaker(clock)",
        "repro.obs.trace:set_tracer",
        "repro.rdf.terms:reset_bnode_counter",
        "repro.federation.endpoint:LocalSparqlEndpoint(latency)",
        "repro.federation.endpoint:LocalSparqlEndpoint.fail_next(count)",
        "repro.federation.policy:ExecutionPolicy(backoff)",
        "repro.federation.policy:ExecutionPolicy(backoff_factor)",
        "repro.federation.registry:DatasetRegistry(default_policy)",
        "repro.federation.registry:DatasetRegistry.load_void_graph(endpoint_factory)",
    ),
    "passed by FederatedQueryEngine._attempt as getattr(endpoint, kind)(..., "
    "timeout=), a call the audit cannot resolve": (
        "repro.federation.endpoint:SparqlEndpoint.select(timeout)",
        "repro.federation.endpoint:SparqlEndpoint.ask(timeout)",
        "repro.federation.endpoint:LocalSparqlEndpoint.select(timeout)",
        "repro.federation.endpoint:LocalSparqlEndpoint.ask(timeout)",
        "repro.federation.http_endpoint:HttpSparqlEndpoint.select(timeout)",
        "repro.federation.http_endpoint:HttpSparqlEndpoint.ask(timeout)",
    ),
    "passed through a local alias (the server's write = write_graph)": (
        "repro.sparql.formats:write_graph(format)",
    ),
    "counters, incremented through setattr(statistics, kind, ...)": (
        "repro.federation.endpoint:EndpointStatistics(select_queries)",
        "repro.federation.endpoint:EndpointStatistics(ask_queries)",
        "repro.federation.endpoint:EndpointStatistics(construct_queries)",
        "repro.federation.endpoint:EndpointStatistics(transport_failures)",
    ),
    "benchmarks/e15 passes it through its span wrapper, a call the audit cannot resolve": (
        "repro.federation.federator:FederatedQueryEngine.decompose_plan(datasets)",
    ),
    "a second path tests check the product path against: the linear rule scan, "
    "the evaluator without the analyzer": (
        "repro.core.rewriter:QueryRewriter(use_index)",
        "repro.sparql.evaluator:QueryEvaluator(analysis)",
    ),
    "strict function evaluation, which tests switch on to see the error": (
        "repro.alignment.functions:make_sameas(strict)",
        "repro.core.mediator:Mediator.translate(strict)",
    ),
    "tests drive the repro command in-process": (
        "repro.cli:main(argv)",
    ),
    "the size and shape of the synthetic scenario and shards the experiments build": (
        "repro.datasets.scenario:build_resist_scenario(n_projects)",
        "repro.datasets.scenario:build_resist_scenario(n_organizations)",
        "repro.datasets.scenario:build_resist_scenario(sameas_coverage)",
        "repro.federation.shard:shard_graph(base_uri)",
        "repro.federation.shard:shard_graph(registry)",
    ),
    "MediatorService, the facade the README's quick start documents; the CLI sets "
    "the same settings on its engine": (
        "repro.federation.service:MediatorService(parallel)",
        "repro.federation.service:MediatorService(max_workers)",
        "repro.federation.service:MediatorService(ask_probes)",
        "repro.federation.service:MediatorService(bind_join_batch)",
        "repro.federation.service:MediatorService.federate(datasets)",
        "repro.federation.service:MediatorService.federate(canonical_pattern)",
        "repro.federation.service:MediatorService.federate(parallel)",
        "repro.federation.service:MediatorService.translate_and_run(source_ontology)",
        "repro.federation.service:MediatorService.translate_and_run(mode)",
        "repro.core.mediator:TargetProfile(prefixes)",
    ),
    "the SPARQL Protocol client's other bindings (GET, XML results, N-Triples "
    "graphs), tested against the server": (
        "repro.federation.http_endpoint:HttpSparqlEndpoint(name)",
        "repro.federation.http_endpoint:HttpSparqlEndpoint(method)",
        "repro.federation.http_endpoint:HttpSparqlEndpoint(result_format)",
        "repro.federation.http_endpoint:HttpSparqlEndpoint(graph_format)",
    ),
    "the rdflib-shaped graph, store and parser API tests build fixtures with": (
        "repro.rdf.graph:Graph(triples)",
        "repro.rdf.graph:Graph.load(store)",
        "repro.rdf.graph:Graph.predicates(subject)",
        "repro.rdf.graph:Graph.remove_pattern(subject)",
        "repro.rdf.graph:Graph.remove_pattern(predicate)",
        "repro.rdf.graph:Graph.value(default)",
        "repro.turtle.parser:TurtleParser.parse(graph)",
        "repro.turtle.parser:parse_turtle(namespace_manager)",
        "repro.alignment.store:AlignmentStore(alignments)",
    ),
    "the metrics, trace and slow-log API, exercised in full by its tests": (
        "repro.obs.metrics:Counter.inc(amount)",
        "repro.obs.metrics:MetricsRegistry.histogram(buckets)",
        "repro.obs.slowlog:SlowQueryLog(capacity)",
        "repro.obs.slowlog:SlowQueryLog(threshold)",
        "repro.obs.trace:Tracer(capacity)",
    ),
}

#: Decorators that do not register the function they wrap anywhere.
_PLAIN_DECORATORS = {
    "dataclass", "property", "staticmethod", "classmethod", "cached_property",
    "lru_cache", "cache", "wraps", "contextmanager", "total_ordering",
    "abstractmethod", "overload", "setter",
}

_MISSING = object()


@dataclass
class Finding:
    key: str
    kind: str
    path: Path
    line: int
    message: str

    def render(self, root: Path) -> str:
        return f"{_relative(self.path, root)}:{self.line}: [{self.kind}] {self.key}: {self.message}"


@dataclass
class Report:
    findings: list[Finding]
    allowlisted: list[Finding]
    stale: list[str]


@dataclass
class Module:
    name: str
    path: Path
    tree: ast.Module
    package: bool
    #: module-level definitions: name -> the def, class or assignment
    defs: dict[str, ast.stmt] = field(default_factory=dict)
    #: local name -> (module, attribute or None for a module import)
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)


@functools.cache
def _nodes(root: ast.AST) -> tuple[ast.AST, ...]:
    """``ast.walk(root)``, walked once: the audit reads the same code often."""
    return tuple(ast.walk(root))


def _relative(path: Path, root: Path) -> Path:
    try:
        return path.relative_to(root)
    except ValueError:
        return path


def _absolute(module: Module, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    parts = module.name.split(".")
    base = parts if module.package else parts[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _load(path: Path, name: str) -> Module:
    tree = ast.parse(path.read_text(), str(path))
    module = Module(name, path, tree, path.name == "__init__.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.imports[alias.asname] = (alias.name, None)
                else:
                    top = alias.name.split(".")[0]
                    module.imports[top] = (top, None)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            for alias in node.names:
                module.imports[alias.asname or alias.name] = (source, alias.name)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module.defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    module.defs[target.id] = node
    return module


class Graph:
    """The package's modules and the root files, with name resolution."""

    def __init__(self, repo: Path, package: str) -> None:
        self.repo = repo
        self.modules: dict[str, Module] = {}
        source = repo / "src"
        for path in sorted((source / package).rglob("*.py")):
            parts = list(path.relative_to(source).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            self.modules[".".join(parts)] = _load(path, ".".join(parts))
        self.package = list(self.modules.values())
        self.root_files = []
        for directory in ROOT_DIRS:
            for path in sorted((repo / directory).rglob("*.py")):
                name = ".".join(path.relative_to(repo).with_suffix("").parts)
                self.modules[name] = _load(path, name)
                self.root_files.append(self.modules[name])

    def user_files(self) -> list[Path]:
        return [path for directory in USER_DIRS
                for path in sorted((self.repo / directory).rglob("*.py"))
                if not any(path.is_relative_to(self.repo / d) for d in ROOT_DIRS)]

    def load_user(self, path: Path) -> Module:
        name = ".".join(path.relative_to(self.repo).with_suffix("").parts)
        if name not in self.modules:
            self.modules[name] = _load(path, name)
        return self.modules[name]

    def resolve(self, module: str, name: str, seen: frozenset = frozenset()):
        """``(module, name)`` of the definition ``name`` means in ``module``,
        ``(module, None)`` for a module, ``None`` outside the package."""
        if (module, name) in seen or module not in self.modules:
            return None
        seen = seen | {(module, name)}
        owner = self.modules[module]
        if name in owner.defs:
            return (module, name)
        if name in owner.imports:
            source, attribute = owner.imports[name]
            if attribute is None:
                return (source, None) if source in self.modules else None
            if f"{source}.{attribute}" in self.modules:
                return (f"{source}.{attribute}", None)
            return self.resolve(source, attribute, seen)
        if f"{module}.{name}" in self.modules:
            return (f"{module}.{name}", None)
        return None

    def references(self, module: Module, root: ast.AST) -> Iterator[tuple[str, str]]:
        """Every package definition the code under ``root`` names."""
        for node in _nodes(root):
            target = None
            if isinstance(node, ast.Name):
                target = self.resolve(module.name, node.id)
            elif isinstance(node, ast.Attribute):
                base = self._module_of(module, node.value)
                if base is not None:
                    target = self.resolve(base, node.attr)
            if target is not None and target[1] is not None:
                yield target

    def _module_of(self, module: Module, node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            target = self.resolve(module.name, node.id)
        elif isinstance(node, ast.Attribute):
            base = self._module_of(module, node.value)
            target = self.resolve(base, node.attr) if base else None
        else:
            return None
        return target[0] if target is not None and target[1] is None else None


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _runs_at_import(node: ast.stmt) -> bool:
    """Module-level code that runs whether or not its name is reached."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return any(_decorator_name(d) not in _PLAIN_DECORATORS for d in node.decorator_list)
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return False
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return node.value is not None and any(
            isinstance(child, ast.Call) for child in ast.walk(node.value))
    return not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))


def _exported(module: Module) -> list[str]:
    for node in module.tree.body:
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


# --------------------------------------------------------------------------- #
# Reachability
# --------------------------------------------------------------------------- #

def reach(graph: Graph, package: str, roots: Sequence[str]
          ) -> tuple[set[tuple[str, str]], list[tuple[Module, ast.AST]]]:
    """The reached definitions, and every piece of code a root runs."""
    start: set[tuple[str, str]] = set()
    code: list[tuple[Module, ast.AST]] = []
    for module in graph.package:
        for node in module.tree.body:
            if _runs_at_import(node):
                code.append((module, node))
    for module in graph.root_files:
        code.append((module, module.tree))
    init = graph.modules[package]
    for name in _exported(init):
        if (target := graph.resolve(package, name)) and target[1]:
            start.add(target)
    for root in roots:
        module, name = root.split(":")
        if (target := graph.resolve(module, name)) and target[1]:
            start.add(target)
    for owner, node in code:
        start.update(graph.references(owner, node))
    reached: set[tuple[str, str]] = set()
    frontier = list(start)
    while frontier:
        key = frontier.pop()
        if key in reached:
            continue
        reached.add(key)
        module = graph.modules[key[0]]
        frontier.extend(graph.references(module, module.defs[key[1]]))
    code.extend((graph.modules[m], graph.modules[m].defs[n]) for m, n in sorted(reached))
    return reached, code


def _users(graph: Graph, names: set[str]) -> dict[str, list[str]]:
    """For each of ``names``, the files outside ``src/`` that mention it."""
    users: dict[str, list[str]] = {name: [] for name in names}
    for path in graph.user_files():
        seen = set()
        for node in _nodes(graph.load_user(path).tree):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                seen.update(alias.name for alias in node.names)
        for name in names & seen:
            users[name].append(str(path.relative_to(graph.repo)))
    return users


# --------------------------------------------------------------------------- #
# Knobs
# --------------------------------------------------------------------------- #

@dataclass
class Knob:
    key: str
    path: Path
    line: int
    default: object
    position: int | None  # index among the call's positional arguments
    field: bool = False  # a dataclass field, which code may also assign later


def _default(node: ast.expr | None) -> object:
    if isinstance(node, ast.Constant):
        return node.value
    return _MISSING


def _signature_knobs(prefix: str, path: Path, function: ast.FunctionDef,
                     method: bool) -> list[Knob]:
    args = function.args
    positional = args.posonlyargs + args.args
    offset = 1 if method and positional and positional[0].arg in {"self", "cls"} else 0
    knobs = []
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    for index, (arg, default) in enumerate(zip(positional, defaults)):
        if default is not None and index >= offset:
            knobs.append(Knob(f"{prefix}({arg.arg})", path, arg.lineno,
                              _default(default), index - offset))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            knobs.append(Knob(f"{prefix}({arg.arg})", path, arg.lineno, _default(default), None))
    return knobs


def _dataclass_knobs(prefix: str, path: Path, klass: ast.ClassDef) -> list[Knob]:
    knobs, position = [], 0
    for node in klass.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(node.annotation):
            continue
        if node.value is not None:
            value = node.value
            if isinstance(value, ast.Call) and _decorator_name(value) == "field":
                keywords = {k.arg: k.value for k in value.keywords}
                if "default" not in keywords:
                    # no default, or a fresh container the record fills in place
                    position += 1
                    continue
                value = keywords["default"]
            knobs.append(Knob(f"{prefix}({node.target.id})", path, node.lineno,
                              _default(value), position, field=True))
        position += 1
    return knobs


def knobs_of(module: Module, name: str) -> dict[str, list[Knob]]:
    """The knobs of a public definition, by the name a call uses for them:
    the function's or class's own name, or a method name."""
    node = module.defs[name]
    prefix = f"{module.name}:{name}"
    found: dict[str, list[Knob]] = {}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        found[name] = _signature_knobs(prefix, module.path, node, method=False)
    elif isinstance(node, ast.ClassDef):
        dataclass_ = any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
        constructor = _dataclass_knobs(prefix, module.path, node) if dataclass_ else []
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                constructor = _signature_knobs(prefix, module.path, item, method=True)
            elif not item.name.startswith("_"):
                found.setdefault("." + item.name, []).extend(_signature_knobs(
                    f"{prefix}.{item.name}", module.path, item, method=True))
        found[name] = constructor
    return {callee: knobs for callee, knobs in found.items() if knobs}


def _param(knob: Knob) -> str:
    return knob.key[knob.key.rindex("(") + 1:-1]


def _passes(call: ast.Call, knob: Knob) -> bool:
    """Whether ``call`` may pass ``knob`` a value other than its default."""
    param = _param(knob)
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return True
        if index == knob.position:
            return _default(arg) is _MISSING or _default(arg) != knob.default
    for keyword in call.keywords:
        if keyword.arg is None:
            return True
        if keyword.arg == param:
            return _default(keyword.value) is _MISSING or _default(keyword.value) != knob.default
    return False


def _callees(graph: Graph, module: Module, call: ast.Call, bases: list[str]) -> list[str]:
    """The names ``knobs_of`` files this call's possible targets under;
    ``super().__init__`` calls the enclosing class's ``bases``."""
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call) and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"):
        return bases
    if isinstance(func, ast.Name):
        target = graph.resolve(module.name, func.id)
        if func.id in {"replace", "partial"} and call.args:
            return ["*"]
        return [target[1]] if target and target[1] else []
    if isinstance(func, ast.Attribute):
        base = graph._module_of(module, func.value)
        if base is not None:
            target = graph.resolve(base, func.attr)
            return [target[1]] if target and target[1] else []
        if func.attr in {"replace", "partial"}:
            return ["*"]
        return ["." + func.attr]
    return []


def unpassed_knobs(graph: Graph, reached: set[tuple[str, str]],
                   code: Sequence[tuple[Module, ast.AST]]) -> dict[str, Knob]:
    """The knobs of reached public package code that no call in ``code`` passes."""
    by_callee: dict[str, list[Knob]] = {}
    package = {module.name for module in graph.package}
    for module_name, name in sorted(reached):
        if name.startswith("_") or module_name not in package:
            continue
        for callee, knobs in knobs_of(graph.modules[module_name], name).items():
            by_callee.setdefault(callee, []).extend(knobs)
    stored = {node.attr for _, root in code for node in _nodes(root)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    unpassed = {knob.key: knob for knobs in by_callee.values() for knob in knobs
                if not (knob.field and _param(knob) in stored)}
    for module, root in code:
        bases = [target[1] for base in getattr(root, "bases", ())
                 if isinstance(base, ast.Name)
                 and (target := graph.resolve(module.name, base.id)) and target[1]]
        for call in (n for n in _nodes(root) if isinstance(n, ast.Call)):
            for callee in _callees(graph, module, call, bases):
                if callee == "*":
                    # dataclasses.replace(x, field=...), functools.partial(f, ...)
                    names = {k.arg for k in call.keywords}
                    for key in [k for k, knob in unpassed.items() if _param(knob) in names]:
                        del unpassed[key]
                    continue
                for knob in by_callee.get(callee, ()):
                    if knob.key in unpassed and _passes(call, knob):
                        del unpassed[knob.key]
    return unpassed


# --------------------------------------------------------------------------- #

def flatten(allowlist: Mapping[str, Sequence[str]]) -> dict[str, str]:
    """``{key: reason}`` from ``{reason: keys}``."""
    return {key: reason for reason, keys in allowlist.items() for key in keys}


def audit(repo: Path = REPO_ROOT, package: str = PACKAGE,
          roots: Sequence[str] = ROOT_SYMBOLS,
          allowlist: Mapping[str, Sequence[str]] = ALLOWLIST) -> Report:
    """Every finding, split by the allowlist; an allowlisted symbol is kept on
    purpose, so what it reaches counts as reached."""
    kept = flatten(allowlist)
    graph = Graph(repo, package)
    reached, _ = reach(graph, package, roots)
    public = [(module, name) for module in graph.package for name in module.defs
              if not name.startswith("_")]
    unreached = [(module, name) for module, name in public
                 if (module.name, name) not in reached]
    extra = [f"{module.name}:{name}" for module, name in unreached
             if f"{module.name}:{name}" in kept]
    reached, code = reach(graph, package, [*roots, *extra])
    unreached = [(module, name) for module, name in unreached
                 if (module.name, name) not in reached or f"{module.name}:{name}" in extra]
    users = _users(graph, {name for _, name in unreached})
    findings = [
        Finding(f"{module.name}:{name}", "unreached", module.path, module.defs[name].lineno,
                "no root reaches it; " + (
                    "named by " + ", ".join(users[name][:3])
                    + (f" (+{len(users[name]) - 3})" if len(users[name]) > 3 else "")
                    if users[name] else "nothing names it"))
        for module, name in unreached
    ]
    knobs = unpassed_knobs(graph, reached, code)
    users_code = [(graph.load_user(path), None) for path in graph.user_files()]
    unused = unpassed_knobs(graph, reached, code + [(m, m.tree) for m, _ in users_code])
    findings += [
        Finding(key, "knob", knob.path, knob.line,
                "no root passes a value other than its default; "
                + ("nothing else does either" if key in unused else "tests or benchmarks do"))
        for key, knob in knobs.items()
    ]
    findings.sort(key=lambda f: (str(f.path), f.line, f.key))
    return Report(
        findings=[f for f in findings if f.key not in kept],
        allowlisted=[f for f in findings if f.key in kept],
        stale=sorted(set(kept) - {f.key for f in findings}),
    )


def main(argv: Sequence[str] | None = None) -> int:
    report = audit()
    for finding in report.findings:
        print(finding.render(REPO_ROOT))
    for key in report.stale:
        print(f"tools/reachability.py: [stale] {key}: allowlisted, but no longer a finding")
    print(f"{len(report.findings)} finding(s), {len(report.stale)} stale allowlist "
          f"entr{'y' if len(report.stale) == 1 else 'ies'}, "
          f"{len(report.allowlisted)} allowlisted", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
