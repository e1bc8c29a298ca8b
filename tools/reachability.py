#!/usr/bin/env python3
"""Reachability audit of ``src/repro``: code, fields and knobs that only tests use.

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

A reached module-level function reaches every name its body, decorators,
defaults and annotations resolve to, through imports and package
re-exports; ``module.name`` resolves through a module.  A reached class
reaches its own code (decorators, bases, class attributes), not its
methods.  A method or property is reached only when reached code uses it:

* ``Cls.name``, or ``self.name`` (``cls.name``, ``super().name``) inside
  the class, resolved along the class's package bases;
* ``obj.name`` where ``obj``'s class is known: from a parameter or
  variable annotation (``Cls``, ``Cls | None``, ``Optional[Cls]``), a
  constructor assignment (``x = Cls(...)``, ``self.x = Cls(...)``), a
  class-level or ``self.x: Cls`` annotation, or a property's return
  annotation, also along chains such as ``self.x.name``;
* otherwise ``obj.name`` (or ``getattr(obj, "name")``) reaches ``name`` in
  every class that defines it, so an object of unknown class is never
  under-counted.

Whenever its class is reached, a dunder is reached, and so is an override
of a reached method of a package base class.

It reports three kinds of finding:

* ``unreached``: a public module-level function, class or constant that no
  root reaches, or a public method or property of a reached class that no
  root uses (``module:Class.member``); the files under ``tests/``,
  ``benchmarks/``, ``examples/`` or ``tools/`` that name it are listed;
* ``unread``: a dataclass field or an attribute ``__init__`` stores,
  private ones included (``module:Class.field``), of a reached class, whose
  name no code under ``src/`` or ``benchmarks/e15/`` ever reads;
* ``knob``: a parameter with a default, of a reached public function,
  reached method or constructor (dataclass fields included), to which no
  call in root-reached code passes a value other than that default.  A call
  on an object counts for every method of that name, ``**kwargs`` passes
  every keyword and ``*args`` every position, so a knob is reported only
  when no root can be passing it.

Each finding is deleted, moved next to its only users, or named in
``ALLOWLIST`` with a one-line reason.  An allowlisted symbol or member is a
root, and an allowlisted class keeps all of its members.  An allowlist
entry that matches no finding is reported as stale.  This script only reports (exit status 0);
``tools/check_invariants.py`` INV009 fails on the same findings.
"""

from __future__ import annotations

import ast
import functools
import sys
import time
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
#: unreached symbol or member, an unread field) or ``module:qualname(param)``
#: (a knob) keys.
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
    "calls the README documents: statistics refresh, voiD import, per-dataset "
    "policies, failure injection, shard placement, tracing on, loading a file": (
        "repro.federation.registry:DatasetRegistry.refresh_statistics",
        "repro.federation.registry:DatasetRegistry.load_void_graph",
        "repro.federation.registry:DatasetRegistry.set_policy",
        "repro.federation.endpoint:LocalSparqlEndpoint.fail_next",
        "repro.federation.shard:ShardedGraph.misplaced",
        "repro.obs.trace:Tracer.enable",
        "repro.rdf.graph:Graph.load",
    ),
    "what the other experiments (E3, E4, E7-E10) and the examples read of the "
    "mediator's results and knowledge bases": (
        "repro.alignment.inverse:InversionReport.inverted_count",
        "repro.alignment.inverse:InversionReport.skipped_count",
        "repro.alignment.model:EntityAlignment.describe",
        "repro.alignment.store:AlignmentStore.counts_by_pair",
        "repro.core.rewriter:RewriteReport.input_size",
        "repro.core.rewriter:RewriteReport.output_size",
        "repro.datasets.scenario:IntegrationScenario.kisti_builder",
        "repro.federation.federator:FederatedResult.failed_datasets",
        "repro.federation.service:MediatorService.alignment_kb",
        "repro.federation.service:MediatorService.void_kb",
        "repro.federation.service:MediatorService.translate_and_run",
        "repro.federation.service:TranslationResponse.translated_query",
        "repro.federation.service:TranslationResponse.triples_matched",
        "repro.federation.service:TranslationResponse.triples_unmatched",
        "repro.federation.service:ExecutionResponse.translation",
    ),
    "protocol methods the standard library calls: socketserver's request loop "
    "and io.BufferedReader's raw reads": (
        "repro.server.http:_SparqlHttpd.process_request",
        "repro.server.http:_SparqlHttpd.shutdown_request",
        "repro.server.http:_SparqlHttpd.handle_error",
        "repro.server.http:_SparqlRequestHandler.handle",
        "repro.federation.http_endpoint:_Connection.readable",
        "repro.federation.http_endpoint:_Connection.readinto",
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
    "MediatorService, the facade the README's quick start documents": (
        "repro.federation.service:MediatorService.federate(datasets)",
        "repro.federation.service:MediatorService.federate(canonical_pattern)",
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


#: ``(module, qualname)``: a module-level definition, or ``Class.member``.
Key = tuple[str, str]
#: The package classes an expression may hold; ``None`` where they are unknown.
Types = frozenset[Key] | None

#: What :meth:`Graph.lookup` returns for a data attribute, which is no member.
_DATA = ("", "")


@dataclass
class Klass:
    """A module-level class of the package."""

    module: Module
    key: Key
    node: ast.ClassDef
    #: the package classes it derives from, in order
    bases: list[Key] = field(default_factory=list)
    #: methods and properties by name (a property's setter shares its name)
    members: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]] = field(default_factory=dict)
    #: data attributes (class-level, or stored on ``self``) -> the classes they hold
    attributes: dict[str, Types] = field(default_factory=dict)
    #: dataclass fields and the attributes ``__init__`` stores -> their line
    fields: dict[str, int] = field(default_factory=dict)

    def member(self, name: str) -> Key:
        return (self.key[0], f"{self.key[1]}.{name}")

    def body(self) -> list[ast.AST]:
        """The class's own code, without its members: it runs once the class
        is reached."""
        node = self.node
        return [*node.decorator_list, *node.bases, *(k.value for k in node.keywords),
                *(s for s in node.body
                  if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)))]


@functools.cache
def _nodes(root: ast.AST) -> tuple[ast.AST, ...]:
    """``ast.walk(root)``, walked once: the audit reads the same code often."""
    return tuple(ast.walk(root))


def _relative(path: Path, root: Path) -> Path:
    try:
        return path.relative_to(root)
    except ValueError:
        return path


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


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


def _self_name(function: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    """The name a method calls its instance (or class) by, if it has one."""
    positional = function.args.posonlyargs + function.args.args
    if not positional or any(_decorator_name(d) == "staticmethod"
                             for d in function.decorator_list):
        return None
    return positional[0].arg


def _merge(known: Types, types: Types) -> Types:
    return None if known is None or types is None else known | types


class Graph:
    """The package's modules and the root files, with name resolution and,
    for the package's classes, member lookup and receiver types."""

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
        self.classes: dict[Key, Klass] = {
            (module.name, name): Klass(module, (module.name, name), node)
            for module in self.package for name, node in module.defs.items()
            if isinstance(node, ast.ClassDef)
        }
        self._environments: dict[int, dict[str, Types]] = {}
        for klass in self.classes.values():
            self._shape(klass)
        #: member name -> the classes that define it
        self.defining: dict[str, list[Key]] = {}
        #: class -> the package classes that derive from it
        self.subclasses: dict[Key, list[Key]] = {key: [] for key in self.classes}
        for key, klass in self.classes.items():
            for name in klass.members:
                self.defining.setdefault(name, []).append(key)
            for ancestor in self.mro(key)[1:]:
                self.subclasses[ancestor].append(key)

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

    # -- classes and their members ------------------------------------------ #

    def class_of(self, module: Module, node: ast.AST) -> Key | None:
        """The package class ``node`` names, if it names one."""
        target = None
        if isinstance(node, ast.Name):
            target = self.resolve(module.name, node.id)
        elif isinstance(node, ast.Attribute):
            base = self._module_of(module, node.value)
            target = self.resolve(base, node.attr) if base else None
        return target if target in self.classes else None

    def annotation(self, module: Module, node: ast.expr) -> Types:
        """The classes an annotation names: ``Cls``, ``Cls | None``,
        ``Optional[Cls]``, ``Union[A, B]`` or such a string; ``None`` for
        anything else."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                try:
                    return self.annotation(module, ast.parse(node.value, mode="eval").body)
                except SyntaxError:
                    return None
            return frozenset() if node.value is None else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _merge(self.annotation(module, node.left), self.annotation(module, node.right))
        if isinstance(node, ast.Subscript) and _decorator_name(node.value) in {"Optional", "Union"}:
            types: Types = frozenset()
            for element in (node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]):
                types = _merge(types, self.annotation(module, element))
            return types
        key = self.class_of(module, node)
        return frozenset({key}) if key else None

    def _value(self, module: Module, node: ast.expr, env: Mapping[str, Types]) -> Types:
        """The classes an assigned value holds: a constructor call, or a name
        whose classes are known."""
        if isinstance(node, ast.Call) and (key := self.class_of(module, node.func)):
            return frozenset({key})
        if isinstance(node, ast.Name):
            return env.get(node.id)
        return None

    def _shape(self, klass: Klass) -> None:
        """Fill in the class's bases, members, data attributes and fields."""
        module, node = klass.module, klass.node
        klass.bases = [key for base in node.bases if (key := self.class_of(module, base))]
        dataclass_ = any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
        annotated: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                klass.members.setdefault(stmt.name, []).append(stmt)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                klass.attributes[name] = self.annotation(module, stmt.annotation)
                annotated.add(name)
                if dataclass_ and "ClassVar" not in ast.unparse(stmt.annotation):
                    klass.fields.setdefault(name, stmt.lineno)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        klass.attributes[target.id] = None
        for functions in klass.members.values():
            for function in functions:
                me = _self_name(function)
                env = self.environment(module, function, klass.key)
                for child in _nodes(function):
                    if isinstance(child, ast.AnnAssign):
                        targets, value = [child.target], None
                    elif isinstance(child, ast.Assign):
                        targets, value = child.targets, child.value
                    else:
                        continue
                    for target in targets:
                        stored = [t for t in (target.elts if isinstance(target, ast.Tuple)
                                              else [target])
                                  if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                                  and t.value.id == me]
                        for attribute in stored:
                            name = attribute.attr
                            if function.name == "__init__":
                                klass.fields.setdefault(name, attribute.lineno)
                            if isinstance(child, ast.AnnAssign):
                                klass.attributes[name] = self.annotation(module, child.annotation)
                                annotated.add(name)
                            elif name not in annotated:
                                types = (self._value(module, value, env)
                                         if attribute is target else None)
                                klass.attributes[name] = (
                                    types if name not in klass.attributes
                                    else _merge(klass.attributes[name], types))

    def mro(self, key: Key) -> list[Key]:
        """The class and its package ancestors, nearest first."""
        order: list[Key] = []
        pending = [key]
        while pending:
            current = pending.pop(0)
            if current not in order:
                order.append(current)
                pending.extend(self.classes[current].bases)
        return order

    def lookup(self, owner: Key, name: str) -> Key | None:
        """The member ``owner.name`` means, ``_DATA`` for a data attribute, or
        ``None`` where no package class on its MRO defines the name."""
        for key in self.mro(owner):
            klass = self.classes[key]
            if name in klass.members:
                return klass.member(name)
            if name in klass.attributes:
                return _DATA
        return None

    def _attribute_types(self, owner: Key, name: str) -> Types:
        for key in self.mro(owner):
            klass = self.classes[key]
            if name in klass.members:
                function = klass.members[name][0]
                if (function.returns is not None and any(
                        _decorator_name(d) in {"property", "cached_property"}
                        for d in function.decorator_list)):
                    return self.annotation(klass.module, function.returns)
                return None
            if name in klass.attributes:
                return klass.attributes[name]
        return None

    def environment(self, module: Module, root: ast.AST, owner: Key | None) -> dict[str, Types]:
        """The classes each local name under ``root`` holds: from parameter
        annotations, annotated assignments, constructor assignments and, in a
        method of ``owner``, its ``self``.  A name bound any other way anywhere
        under ``root`` is unknown."""
        if id(root) in self._environments:
            return self._environments[id(root)]
        env: dict[str, Types] = {}
        typed: set[int] = set()

        def bind(name: str, types: Types) -> None:
            env[name] = types if name not in env else _merge(env[name], types)

        for node in _nodes(root):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                me = _self_name(node) if node is root and owner else None
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                    if arg.arg == me:
                        bind(arg.arg, frozenset({owner}))
                    else:
                        bind(arg.arg, None if arg.annotation is None
                             else self.annotation(module, arg.annotation))
                for arg in (args.vararg, args.kwarg):
                    if arg is not None:
                        bind(arg.arg, None)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bind(node.target.id, self.annotation(module, node.annotation))
                typed.add(id(node.target))
            elif isinstance(node, ast.Assign):
                types = self._value(module, node.value, {})
                for target in node.targets:
                    if isinstance(target, ast.Name) and types:
                        bind(target.id, types)
                        typed.add(id(target))
        for node in _nodes(root):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and id(node) not in typed):
                bind(node.id, None)
        self._environments[id(root)] = env
        return env

    def receiver(self, module: Module, node: ast.expr, env: Mapping[str, Types],
                 owner: Key | None) -> Types:
        """The classes the object ``node`` evaluates to may have."""
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id] or None
            key = self.class_of(module, node)
            return frozenset({key}) if key else None
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name) and node.func.id == "super"
                    and owner is not None):
                return frozenset(self.classes[owner].bases) or None
            key = self.class_of(module, node.func)
            return frozenset({key}) if key else None
        if isinstance(node, ast.Attribute):
            if key := self.class_of(module, node):
                return frozenset({key})
            owners = self.receiver(module, node.value, env, owner)
            types: Types = frozenset()
            for key in owners or ():
                types = _merge(types, self._attribute_types(key, node.attr))
            return types or None if owners else None
        return None

    def uses(self, module: Module, root: ast.AST, owner: Key | None
             ) -> tuple[set[Key], set[str]]:
        """The members the code under ``root`` uses where its receivers'
        classes are known, and the member names it uses on other objects
        (``obj.name``, ``getattr(obj, "name")``)."""
        env = self.environment(module, root, owner)
        members: set[Key] = set()
        names: set[str] = set()
        for node in _nodes(root):
            if isinstance(node, ast.Attribute):
                if _dunder(node.attr) or self._module_of(module, node.value) is not None:
                    continue
                owners = self.receiver(module, node.value, env, owner)
                for key in owners or ():
                    target = self.lookup(key, node.attr)
                    if target is None:
                        names.add(node.attr)
                    elif target != _DATA:
                        members.add(target)
                if owners is None:
                    names.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in {"getattr", "setattr", "hasattr"} and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                names.add(node.args[1].value)
        return members, names


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

#: A piece of code a root runs: its module, its AST and, for a class's own
#: code or a member, the class.
Code = tuple[Module, ast.AST, Key | None]


def reach(graph: Graph, package: str, roots: Sequence[str], whole: Sequence[str] = ()
          ) -> tuple[set[Key], list[Code]]:
    """The reached definitions and members, and every piece of code a root
    runs.  A class in ``whole`` reaches all of its members."""
    start: set[Key] = set()
    code: list[Code] = []
    for module in graph.package:
        for node in module.tree.body:
            if not _runs_at_import(node):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                start.add((module.name, node.name))  # registered by its decorator
            else:
                code.append((module, node, None))
    for module in graph.root_files:
        code.append((module, module.tree, None))
    init = graph.modules[package]
    for name in _exported(init):
        if (target := graph.resolve(package, name)) and target[1]:
            start.add(target)
    for root in [*roots, *whole]:
        module, name = root.split(":")
        if "." in name:
            start.add((module, name))
        elif (target := graph.resolve(module, name)) and target[1]:
            start.add(target)
            if root in whole and target in graph.classes:
                klass = graph.classes[target]
                start.update(klass.member(member) for member in klass.members)
    reached: set[Key] = set()
    used: set[str] = set()  # member names used on objects of unknown class
    frontier = list(start)

    def visit(module: Module, node: ast.AST, owner: Key | None) -> None:
        frontier.extend(graph.references(module, node))
        members, names = graph.uses(module, node, owner)
        frontier.extend(members)
        for name in names - used:
            used.add(name)
            frontier.extend(graph.classes[key].member(name)
                            for key in graph.defining.get(name, ()) if key in reached)

    for module, node, owner in code:
        visit(module, node, owner)
    while frontier:
        key = frontier.pop()
        if key in reached:
            continue
        module = graph.modules[key[0]]
        if key in graph.classes:
            reached.add(key)
            klass = graph.classes[key]
            # dunders, the members code already uses by name, and overrides
            # of a reached member of a base class
            ancestors = graph.mro(key)[1:]
            frontier.extend(klass.member(name) for name in klass.members
                            if _dunder(name) or name in used or any(
                                graph.classes[a].member(name) in reached for a in ancestors))
            nodes, owner = klass.body(), key
        elif "." in key[1]:
            owner = (key[0], key[1].split(".")[0])
            name = key[1].split(".", 1)[1]
            if owner not in graph.classes or name not in graph.classes[owner].members:
                continue
            if owner not in reached:
                frontier.extend([key, owner])
                continue
            reached.add(key)
            frontier.extend(graph.classes[sub].member(name) for sub in graph.subclasses[owner]
                            if sub in reached and name in graph.classes[sub].members)
            nodes = graph.classes[owner].members[name]
        elif key[1] in module.defs:
            reached.add(key)
            nodes, owner = [module.defs[key[1]]], None
        else:
            continue
        for node in nodes:
            code.append((module, node, owner))
            visit(module, node, owner)
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


def _loaded(graph: Graph) -> set[str]:
    """Every attribute name code under ``src/`` or a root directory reads."""
    names: set[str] = set()
    for module in [*graph.package, *graph.root_files]:
        for node in _nodes(module.tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in {"getattr", "hasattr"} and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


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


def knobs_of(module: Module, name: str, reached: set[Key]) -> dict[str, list[Knob]]:
    """The knobs of a public definition and its reached members, by the name a
    call uses for them: the function's or class's own name, or a method name."""
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
            elif not item.name.startswith("_") and (module.name, f"{name}.{item.name}") in reached:
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


def unpassed_knobs(graph: Graph, reached: set[Key], code: Sequence[Code]) -> dict[str, Knob]:
    """The knobs of reached public package code that no call in ``code`` passes."""
    by_callee: dict[str, list[Knob]] = {}
    package = {module.name for module in graph.package}
    for module_name, name in sorted(reached):
        if name.startswith("_") or "." in name or module_name not in package:
            continue
        for callee, knobs in knobs_of(graph.modules[module_name], name, reached).items():
            by_callee.setdefault(callee, []).extend(knobs)
    stored = {node.attr for _, root, _ in code for node in _nodes(root)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    unpassed = {knob.key: knob for knobs in by_callee.values() for knob in knobs
                if not (knob.field and _param(knob) in stored)}
    for module, root, owner in code:
        bases = [key[1] for key in graph.classes[owner].bases] if owner else []
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


def _unreached(graph: Graph, reached: set[Key]) -> dict[str, tuple[Path, int]]:
    """The public module-level definitions no root reaches, and the public
    members of reached classes no root uses: key -> where it is."""
    found = {f"{module.name}:{name}": (module.path, node.lineno)
             for module in graph.package for name, node in module.defs.items()
             if not name.startswith("_") and (module.name, name) not in reached}
    for key, klass in graph.classes.items():
        if key in reached:
            found.update((":".join(klass.member(name)), (klass.module.path, functions[0].lineno))
                         for name, functions in klass.members.items()
                         if not name.startswith("_") and klass.member(name) not in reached)
    return found


def audit(repo: Path = REPO_ROOT, package: str = PACKAGE,
          roots: Sequence[str] = ROOT_SYMBOLS,
          allowlist: Mapping[str, Sequence[str]] = ALLOWLIST) -> Report:
    """Every finding, split by the allowlist.  An allowlisted symbol or member
    is kept on purpose, so it counts as a root: what it reaches counts as
    reached, and a kept class keeps all of its members."""
    kept = flatten(allowlist)
    graph = Graph(repo, package)
    whole: dict[str, tuple[Path, int]] = {}
    while True:
        reached, code = reach(graph, package, roots, list(whole))
        unreached = _unreached(graph, reached)
        more = {key: where for key, where in unreached.items() if key in kept}
        if not more:
            break
        whole.update(more)
    unreached.update(whole)
    # a symbol's users name it, a member's name the member
    users = _users(graph, {key.split(":")[1].rpartition(".")[2] for key in unreached})
    findings = []
    for key, (path, line) in unreached.items():
        named = users[key.split(":")[1].rpartition(".")[2]]
        findings.append(Finding(key, "unreached", path, line, "no root reaches it; " + (
            "named by " + ", ".join(named[:3])
            + (f" (+{len(named) - 3})" if len(named) > 3 else "")
            if named else "nothing names it")))
    loaded = _loaded(graph)
    findings += [
        Finding(":".join(klass.member(name)), "unread", klass.module.path, line,
                "stored, but no code under src/ or benchmarks/e15/ reads it")
        for key, klass in graph.classes.items() if key in reached
        for name, line in klass.fields.items() if name not in loaded
    ]
    knobs = unpassed_knobs(graph, reached, code)
    users_code = [(module, module.tree, None)
                  for module in map(graph.load_user, graph.user_files())]
    unused = unpassed_knobs(graph, reached, code + users_code)
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


def _by_kind(findings: Sequence[Finding]) -> str:
    """Counts of symbols, members, fields and knobs among ``findings``."""
    counts = dict.fromkeys(("symbols", "members", "fields", "knobs"), 0)
    for finding in findings:
        if finding.kind == "knob":
            counts["knobs"] += 1
        elif finding.kind == "unread":
            counts["fields"] += 1
        else:
            counts["members" if "." in finding.key.split(":")[1] else "symbols"] += 1
    return ", ".join(f"{kind} {count}" for kind, count in counts.items())


def main(argv: Sequence[str] | None = None) -> int:
    started = time.perf_counter()
    report = audit()
    elapsed = time.perf_counter() - started
    for finding in report.findings:
        print(finding.render(REPO_ROOT))
    for key in report.stale:
        print(f"tools/reachability.py: [stale] {key}: allowlisted, but no longer a finding")
    print(f"{len(report.findings)} finding(s) ({_by_kind(report.findings)}), "
          f"{len(report.stale)} stale allowlist entr{'y' if len(report.stale) == 1 else 'ies'}, "
          f"{len(report.allowlisted)} allowlisted ({_by_kind(report.allowlisted)}); "
          f"audited in {elapsed:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
