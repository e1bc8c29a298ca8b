"""Batched (vectorized) execution core: the one executor.

The cost-based planner and the federation decomposer both run on **one**
operator layer (the dict-at-a-time reference evaluator stays outside it,
as the differential-testing oracle):

* solution rows are fixed-width tuples of integers — RDF terms are
  interned per graph by :class:`repro.rdf.TermDictionary`, and
  ``UNBOUND_ID`` (0) marks an unbound column; terms only the query
  mentions (VALUES cells) get plan-private ids, so evaluation never
  mutates the store's dictionary,
* operators consume and produce :class:`Batch` objects (a schema of
  variables plus a list of row tuples), amortising per-operator overhead
  and making joins integer-tuple comparisons instead of dict merges,
* batches start small and grow (``4 -> 32 -> ... -> 2048`` rows), so an
  ``ASK`` query still terminates after a handful of index lookups while
  bulk queries run at full batch width,
* ``OFFSET``/``LIMIT`` hand their row budget down to the producing scan
  (:meth:`VecOperator.limit_rows`), which stops at exactly that many rows
  and, for a lone filter-free pattern, drops the offset on the id
  iterator before a row exists,
* terms are only decoded back at the result boundary
  (:meth:`ExecPlan.term_rows`: the surviving rows, once, as term tuples)
  and inside expression evaluation, the one place that genuinely needs
  term values.

Two front ends build operator trees:

* the cost-based planner (:class:`repro.sparql.plan.QueryPlanner`) builds
  the operators directly, deciding join order, hash/bind join selection
  and filter pushdown from their estimates as it goes,
* the federation decomposer builds its mediator-side join pipeline from
  these operators (see :mod:`repro.federation.decompose`).

**Adaptive join ordering**: a BGP scan chain tracks actual rows per step
against the planner's estimate.  When the estimate is off by
:data:`MISESTIMATE_FACTOR`, the not-yet-started suffix of the chain is reordered
using cardinalities *sampled from actual rows* (bind the sampled values
into the remaining patterns and ask the graph), and the decision is
recorded for ``EXPLAIN ANALYZE``.

**EXPLAIN / EXPLAIN ANALYZE**: :meth:`ExecPlan.explain` renders the
operator tree with its estimates (:meth:`VecOperator.explain_lines`);
every operator also counts rows/batches in and out and its (inclusive)
wall time, and :meth:`VecOperator.report_lines` renders the same tree
with those numbers and its runtime notes added.  :func:`build_run_event`
packages them as the run's one record, a :class:`QueryRunEvent`, and
:func:`finish_run` ends every run — local or federated — by handing it
to ANALYZE, the ``REPRO_RUN_EVENTS`` sink, the tracer and the slow log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain as _iter_chain, islice
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from ..obs.export import RUN_EVENTS_ENV, SINK
from ..obs.slowlog import SLOW_LOG
from ..obs.trace import get_tracer
from ..rdf import BNode, Graph, GraphView, Term, Triple, Variable
from .ast import Expression, OrderCondition, Query, SelectQuery
from .evaluator import BNODE_ANCHOR_PREFIX, _orderable, bnode_anchor, pattern_text
from .expressions import ExpressionError, evaluate_expression, expression_satisfied
from .results import Binding
from .serializer import serialize_expression

__all__ = [
    "UNBOUND",
    "Batch",
    "OpMetrics",
    "ExecContext",
    "VecOperator",
    "ScanStep",
    "VecBGPOp",
    "VecTableOp",
    "VecBindJoinOp",
    "VecHashJoinOp",
    "VecLeftJoinOp",
    "VecUnionOp",
    "VecFilterOp",
    "VecProjectOp",
    "VecDistinctOp",
    "VecOrderByOp",
    "VecSliceOp",
    "VecAnalysisPruneOp",
    "ExecPlan",
    "QueryRunEvent",
    "build_run_event",
    "compile_empty_query",
    "finish_run",
    "RUN_EVENTS_ENV",
]

#: Reserved row value for "this column is unbound" (same as
#: :data:`repro.rdf.UNBOUND_ID`; kept falsy for cheap hot-loop tests).
UNBOUND = 0

#: First id of the plan-private range handed to terms only the *query*
#: mentions (see :meth:`ExecContext.query_term_id`); no store assigns ids
#: this high, and it still packs into a segment's unsigned 64-bit key.
_QUERY_ID_BASE = 1 << 62

#: Name prefix of the synthetic ordinal columns used to correlate
#: OPTIONAL/UNION sub-plan output with its input rows.
_ORD_PREFIX = "__ord_"

Row = tuple[int, ...]
Schema = tuple[Variable, ...]
#: The result-visible ``(index, variable)`` columns of a schema.
Columns = tuple[tuple[int, Variable], ...]


def _is_internal(variable: Variable) -> bool:
    """Internal columns (bnode anchors, ordinals) never reach results."""
    name = variable.name
    return name.startswith(BNODE_ANCHOR_PREFIX) or name.startswith(_ORD_PREFIX)


def external_columns(schema: Schema) -> Columns:
    """``(index, variable)`` pairs of the result-visible schema columns.

    A schema is fixed per operator (per batch at the plan's edge), so a
    decoding site classifies its columns once, not per row.
    """
    return tuple(
        (index, variable)
        for index, variable in enumerate(schema)
        if not _is_internal(variable)
    )


class Batch:
    """A batch of solution rows: a schema plus fixed-width id tuples."""

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Schema, rows: list[Row]) -> None:
        self.schema = schema
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = " ".join(f"?{v.name}" for v in self.schema)
        return f"<Batch ({names}) {len(self.rows)} rows>"


# The executor's tunables (see module docstring).  No product path varies
# them; tests and the E13/E14 sweeps patch them on this module.

#: First output batch size of a scan chain; kept tiny so ASK/LIMIT
#: queries stop after a handful of lookups.
INITIAL_BATCH_ROWS = 4
#: Batches grow by this factor up to :data:`MAX_BATCH_ROWS`.
BATCH_GROWTH = 8
MAX_BATCH_ROWS = 2048
#: Adaptive join ordering of planned BGP scan chains on/off.
ADAPTIVE = True
#: A step whose actual cardinality is off from its estimate by more
#: than this factor triggers reordering of the remaining steps.
MISESTIMATE_FACTOR = 4.0
#: Rows sampled (a) to observe a step's actual output and (b) to
#: re-estimate the remaining patterns against actual bound values.
SAMPLE_ROWS = 8


class OpMetrics:
    """Per-operator counters for EXPLAIN ANALYZE (inclusive wall time)."""

    __slots__ = ("rows_in", "rows_out", "batches_in", "batches_out", "seconds")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.rows_in = 0
        self.rows_out = 0
        self.batches_in = 0
        self.batches_out = 0
        self.seconds = 0.0


class ExecContext:
    """Shared execution state: the graph, its term dictionary, decisions."""

    __slots__ = (
        "graph", "dictionary", "decisions",
        "_query_ids", "_query_terms", "_ordinals",
    )

    def __init__(self, graph: Graph | GraphView) -> None:
        self.graph = graph
        self.dictionary = graph.dictionary
        #: Adaptivity decisions recorded during execution.
        self.decisions: list[dict[str, Any]] = []
        self._query_ids: dict[Term, int] = {}
        self._query_terms: list[Term] = []
        self._ordinals = 0

    def fresh_ordinal(self) -> Variable:
        """A new ordinal column for an OPTIONAL/UNION sub-plan's rows."""
        self._ordinals += 1
        return Variable(f"{_ORD_PREFIX}{self._ordinals}")

    def query_term_id(self, term: Term) -> int:
        """The id of a term the *query* supplies (a VALUES cell).

        The store's own id when it has one, otherwise an id private to this
        plan.  Evaluating a query must not grow the store's dictionary (a
        persistent one would write to disk on a read, and every client
        could grow it without bound), and a term the store never interned
        can match no triple anyway.
        """
        value = self.dictionary.lookup(term)
        if not value:
            value = self._query_ids.get(term, UNBOUND)
            if not value:
                value = _QUERY_ID_BASE + len(self._query_terms)
                self._query_ids[term] = value
                self._query_terms.append(term)
        return value

    def term(self, value: int) -> Term:
        """The term behind a (bound) row value."""
        if value < _QUERY_ID_BASE:
            return self.dictionary.terms[value]
        return self._query_terms[value - _QUERY_ID_BASE]

    def decode_binding(self, columns: Columns, row: Row) -> Binding:
        """Decode a row into a :class:`Binding` of its ``columns`` (the
        :func:`external_columns` of its schema): result rows and the rows
        FILTER and ORDER BY expressions read."""
        terms = self.dictionary.terms
        data: dict[Variable, Term] = {}
        for index, variable in columns:
            value = row[index]
            if value:
                data[variable] = terms[value] if value < _QUERY_ID_BASE else self.term(value)
        return Binding(data)


def extend_schema(schema: Schema, variables: Iterable[Variable]) -> Schema:
    """``schema`` plus the unseen ``variables`` in first-occurrence order."""
    existing = set(schema)
    extra: list[Variable] = []
    for variable in variables:
        if variable not in existing:
            existing.add(variable)
            extra.append(variable)
    return schema + tuple(extra)


def pattern_variables(pattern: Triple) -> list[Variable]:
    """Variables (incl. bnode anchors) bound by a pattern, in S-P-O order."""
    result: list[Variable] = []
    for term in pattern:
        if isinstance(term, Variable):
            if term not in result:
                result.append(term)
        elif isinstance(term, BNode):
            anchor = bnode_anchor(term)
            if anchor not in result:
                result.append(anchor)
    return result


class ScanStep:
    """One index scan of a BGP chain plus the filters applied right after."""

    __slots__ = ("pattern", "filters", "est")

    def __init__(self, pattern: Triple, filters: list[Expression], est: float) -> None:
        self.pattern = pattern
        self.filters = filters
        self.est = est


# --------------------------------------------------------------------------- #
# Operator base
# --------------------------------------------------------------------------- #
class VecOperator:
    """Base class of batched operators.

    ``execute`` must be restartable: correlated parents (OPTIONAL, UNION)
    re-run sub-plans once per input *batch*.  ``reset`` drops state cached
    across runs (a fresh plan execution against possibly mutated data).
    """

    #: Output schema, fixed at compile time.
    schema: Schema = ()
    #: Estimated output rows (display + join-strategy bookkeeping).
    est: float = 1.0
    #: Tracing span name of this operator (every concrete ``Vec*`` class
    #: must override it; enforced by ``tools/check_invariants.py``).
    span_name: str = "exec.operator"

    def __init__(self, ctx: ExecContext) -> None:
        self.ctx = ctx
        self.metrics = OpMetrics()

    # -- abstract ---------------------------------------------------------- #
    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        raise NotImplementedError

    def children(self) -> Sequence[VecOperator]:
        return ()

    def describe(self) -> str:
        """The operator's planned form, as EXPLAIN prints it."""
        return type(self).__name__

    def details(self) -> list[str]:
        """Lines printed under :meth:`describe`, above the children."""
        return []

    def notes(self) -> str:
        """Runtime notes ANALYZE appends to :meth:`describe`."""
        return ""

    def limit_rows(self, skip: int, budget: int | None) -> int:
        """A parent slice wants only rows ``skip .. budget`` of each run.

        Called at compile time.  An operator that maps input rows to
        output rows one to one passes the call to its child; a producer
        may stop after ``budget`` rows (``None``: no limit).  Returns how
        many of the ``skip`` leading rows the subtree drops itself — the
        slice then skips only the rest.  The default takes nothing over,
        which is the right answer for every operator that filters,
        reorders, deduplicates or multiplies rows.
        """
        return 0

    # -- shared machinery --------------------------------------------------- #
    def execute(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        """Run with instrumentation (row/batch counters, inclusive time)."""
        metrics = self.metrics

        def counted_inputs() -> Iterator[Batch]:
            for batch in batches:
                metrics.batches_in += 1
                metrics.rows_in += len(batch.rows)
                yield batch

        def instrumented() -> Iterator[Batch]:
            produced = self._run(counted_inputs())
            while True:
                started = time.perf_counter()
                batch = next(produced, None)
                metrics.seconds += time.perf_counter() - started
                if batch is None:
                    return
                metrics.batches_out += 1
                metrics.rows_out += len(batch.rows)
                yield batch

        return instrumented()

    def reset(self) -> None:
        self.metrics.clear()
        for child in self.children():
            child.reset()

    def explain_lines(self) -> list[str]:
        """EXPLAIN: the operator tree with its estimates."""
        return self._tree_lines(0, analyze=False)

    def report_lines(self) -> list[str]:
        """EXPLAIN ANALYZE: :meth:`explain_lines` plus runtime notes and
        the counters of the most recent execution."""
        return self._tree_lines(0, analyze=True)

    def _tree_lines(self, indent: int, analyze: bool) -> list[str]:
        line = "  " * indent + self.describe()
        if analyze:
            metrics = self.metrics
            line += (
                f"{self.notes()}  (rows {metrics.rows_in} -> {metrics.rows_out},"
                f" batches {metrics.batches_out},"
                f" {metrics.seconds * 1000:.2f} ms)"
            )
        pad = "  " * (indent + 1)
        lines = [line] + [pad + detail for detail in self.details()]
        for child in self.children():
            lines.extend(child._tree_lines(indent + 1, analyze))
        return lines

    def operator_stats(self, depth: int = 0) -> list[dict[str, Any]]:
        metrics = self.metrics
        stats: list[dict[str, Any]] = [{
            "operator": self.describe() + self.notes(),
            "span": self.span_name,
            "depth": depth,
            "rows_in": metrics.rows_in,
            "rows_out": metrics.rows_out,
            "batches": metrics.batches_out,
            "seconds": metrics.seconds,
        }]
        for child in self.children():
            stats.extend(child.operator_stats(depth + 1))
        return stats


def seed_batches() -> Iterator[Batch]:
    """The top-level input: one empty row over the empty schema."""
    return iter((Batch((), [()]),))


# --------------------------------------------------------------------------- #
# Scans (BGP chains with adaptive reordering)
# --------------------------------------------------------------------------- #
class VecBGPOp(VecOperator):
    """A chain of index scans producing batches of interned-id rows.

    Rows stream through the chain one at a time (a scan is a correlated
    index lookup per input row), but are handed to the parent in batches
    that follow the growth schedule :data:`INITIAL_BATCH_ROWS` x
    :data:`BATCH_GROWTH` up to :data:`MAX_BATCH_ROWS`.  When
    :data:`ADAPTIVE` is on, the chain samples each step's actual
    output and reorders the remaining steps on misestimates.
    """

    span_name = "exec.bgp_scan"

    def __init__(
        self,
        ctx: ExecContext,
        in_schema: Schema,
        steps: list[ScanStep],
        tail_filters: list[Expression],
    ) -> None:
        super().__init__(ctx)
        self.in_schema = in_schema
        self.steps = steps
        self.tail_filters = list(tail_filters)
        schema = in_schema
        for step in steps:
            schema = extend_schema(schema, pattern_variables(step.pattern))
        self.schema = schema
        est = 1.0
        for step in steps:
            est *= max(step.est, 0.0)
        self.est = est
        #: Set by a parent slice (:meth:`limit_rows`): stop after this many
        #: rows per run; the first ``_skip`` of them are dropped as store
        #: ids, whose triple positions ``_id_columns`` become the row.
        self._budget: int | None = None
        self._skip = 0
        self._id_columns: list[int] | None = None

    # -- row budget of a parent slice --------------------------------------- #
    def limit_rows(self, skip: int, budget: int | None) -> int:
        self._budget = budget
        self._id_columns = self._lone_pattern_columns() if skip else None
        self._skip = skip if self._id_columns is not None else 0
        return self._skip

    def _lone_pattern_columns(self) -> list[int] | None:
        """Triple positions of the output columns when every match of the
        store's id iterator *is* one output row, ``None`` otherwise.

        That holds for a single filter-free pattern over distinct plain
        variables, fed the seed row: nothing between the index and the
        output can drop, repeat or reorder a match, so a slice may count
        matches instead of rows.
        """
        ctx = self.ctx
        if (
            self.in_schema
            or len(self.steps) != 1
            or self.steps[0].filters
            or self.tail_filters
        ):
            return None
        pattern = self.steps[0].pattern
        if any(isinstance(term, BNode) for term in pattern):
            return None
        columns = [
            position for position, term in enumerate(pattern)
            if isinstance(term, Variable)
        ]
        if len({pattern[position] for position in columns}) != len(columns):
            return None
        return columns

    def _sliced_id_rows(self, batches: Iterator[Batch], columns: list[int]) -> Iterator[Row]:
        """The lone pattern's rows, sliced on the store's id iterator:
        a skipped match never becomes a row tuple."""
        ctx = self.ctx
        lookup = [UNBOUND, UNBOUND, UNBOUND]
        for position, term in enumerate(self.steps[0].pattern):
            if position not in columns:
                lookup[position] = ctx.dictionary.lookup(term)
                if not lookup[position]:
                    return iter(())  # never interned, so in no triple
        triples_ids = ctx.graph.triples_ids
        matches = _iter_chain.from_iterable(
            triples_ids(*lookup) for batch in batches for _ in batch.rows
        )
        return (
            tuple([data[position] for position in columns])
            for data in islice(matches, self._skip, self._budget)
        )

    # -- single-step scan --------------------------------------------------- #
    def _scan_rows(
        self, step: ScanStep, rows: Iterator[Row], layout: list[Variable]
    ) -> Iterator[Row]:
        """Extend every row with the matches of ``step`` (then filter)."""
        ctx = self.ctx
        graph = ctx.graph
        dictionary = ctx.dictionary
        column = {variable: index for index, variable in enumerate(layout)}

        # Compile the pattern against the current column layout.  Every
        # variable position resolves to one output column: an existing
        # column (possibly unbound at runtime — OPTIONAL-bound variables)
        # or a freshly appended one.  Bound columns constrain the index
        # lookup; after a match every variable position is checked against
        # / written into its column, which uniformly covers repeated
        # variables and runtime-unbound columns.  Lookups, matches and
        # checks all happen on dictionary ids, so the scan never hashes a
        # term, never re-interns and never constructs a Triple.
        in_width = len(layout)
        const_ids = [UNBOUND, UNBOUND, UNBOUND]
        dead = False
        var_cols: list[tuple[int, int]] = []  # (position, output column)
        for position, term in enumerate(step.pattern):
            if isinstance(term, Variable):
                anchor = term
            elif isinstance(term, BNode):
                anchor = bnode_anchor(term)
            else:
                const_ids[position] = dictionary.lookup(term)
                # A constant this graph's dictionary never interned is in
                # no asserted triple.
                dead = dead or not const_ids[position]
                continue
            index = column.get(anchor)
            if index is None:
                index = len(layout)
                column[anchor] = index
                layout.append(anchor)
            var_cols.append((position, index))
        pad = len(layout) - in_width
        lookup_cols = [
            (position, index) for position, index in var_cols if index < in_width
        ]

        filters = step.filters
        columns = external_columns(tuple(layout))

        def keep(extended: Row) -> bool:
            return all(
                expression_satisfied(expr, ctx.decode_binding(columns, extended))
                for expr in filters
            )

        if dead:
            return iter(())
        triples_ids = graph.triples_ids
        # A join-back column (bound in the input row) constrains the
        # index lookup itself, so re-checking it is redundant whenever
        # the row actually binds it; fresh distinct columns need no
        # check either.  That covers the common all-bound row with a
        # straight tuple append.
        fresh_cols = [(p, i) for p, i in var_cols if i >= in_width]
        fast_ok = len({index for _, index in fresh_cols}) == len(fresh_cols)

        def scan() -> Iterator[Row]:
            for row in rows:
                lookup = list(const_ids)
                all_bound = True
                for position, index in lookup_cols:
                    value = row[index]
                    if value:
                        lookup[position] = value
                    else:
                        all_bound = False
                if fast_ok and all_bound:
                    for data in triples_ids(lookup[0], lookup[1], lookup[2]):
                        extended = row + tuple(
                            data[position] for position, _ in fresh_cols
                        )
                        if filters and not keep(extended):
                            continue
                        yield extended
                    continue
                padded = row + (UNBOUND,) * pad if pad else row
                for data in triples_ids(lookup[0], lookup[1], lookup[2]):
                    out = list(padded)
                    consistent = True
                    for position, index in var_cols:
                        observed = data[position]
                        current = out[index]
                        if current and current != observed:
                            consistent = False
                            break
                        out[index] = observed
                    if not consistent:
                        continue
                    extended = tuple(out)
                    if filters and not keep(extended):
                        continue
                    yield extended

        return scan()

    # -- adaptive reordering ------------------------------------------------ #
    def _sampled_estimate(
        self, pattern: Triple, rows: Sequence[Row], layout: Sequence[Variable]
    ) -> float:
        """Mean cardinality of ``pattern`` with sampled rows bound in."""
        if not rows:
            return float("inf")
        cardinality = self.ctx.graph.cardinality
        term_of = self.ctx.term
        column = {variable: index for index, variable in enumerate(layout)}
        total = 0.0
        for row in rows:
            lookup: list[Term | None] = [None, None, None]
            for position, term in enumerate(pattern):
                if isinstance(term, Variable):
                    anchor = term
                elif isinstance(term, BNode):
                    anchor = bnode_anchor(term)
                else:
                    lookup[position] = term
                    continue
                index = column.get(anchor)
                if index is not None and row[index]:
                    lookup[position] = term_of(row[index])
            total += float(cardinality(lookup[0], lookup[1], lookup[2]))
        return total / len(rows)

    def _reorder(
        self,
        remaining: list[ScanStep],
        sample: Sequence[Row],
        layout: Sequence[Variable],
        after: ScanStep,
        observed: int,
        exhausted: bool,
    ) -> list[ScanStep]:
        """Reorder ``remaining`` by estimates sampled from actual rows."""
        sampled = {
            id(step): self._sampled_estimate(step.pattern, sample, layout)
            for step in remaining
        }
        reordered = sorted(
            remaining,
            key=lambda step: (sampled[id(step)], pattern_text(step.pattern)),
        )
        # Re-attach the pending filters at the earliest step where all of
        # their variables are bound (same rule the planner applies).
        pending = [expr for step in remaining for expr in step.filters]
        bound: set[Variable] = set(layout)
        rebuilt: list[ScanStep] = []
        for step in reordered:
            bound |= set(pattern_variables(step.pattern))
            attached = [expr for expr in pending if expr.variables() <= bound]
            pending = [expr for expr in pending if expr not in attached]
            rebuilt.append(ScanStep(step.pattern, attached, sampled[id(step)]))
        if pending:  # pragma: no cover - planner never leaves these dangling
            rebuilt[-1].filters.extend(pending)
        if [id(s) for s in remaining] != [id(s) for s in reordered]:
            self.ctx.decisions.append({
                "after": pattern_text(after.pattern),
                "estimated": after.est,
                "observed": observed,
                "observed_is_exact": exhausted,
                "old_order": [pattern_text(s.pattern) for s in remaining],
                "new_order": [pattern_text(s.pattern) for s in rebuilt],
            })
        return rebuilt

    # -- the chain ----------------------------------------------------------- #
    def _chain_rows(self, batches: Iterator[Batch]) -> Iterator[Row]:
        """Rows of the whole scan chain, under the declared schema."""
        layout: list[Variable] = list(self.in_schema)

        def input_rows() -> Iterator[Row]:
            for batch in batches:
                yield from batch.rows

        stream: Iterator[Row] = input_rows()
        remaining = list(self.steps)
        factor = MISESTIMATE_FACTOR
        while remaining:
            step = remaining.pop(0)
            stream = self._scan_rows(step, stream, layout)
            if ADAPTIVE and len(remaining) >= 2:
                sample = list(islice(stream, SAMPLE_ROWS))
                exhausted = len(sample) < SAMPLE_ROWS
                observed = len(sample)
                over = observed > max(step.est, 0.5) * factor
                under = exhausted and observed * factor < step.est
                if over or under:
                    remaining = self._reorder(
                        remaining, sample, layout, step, observed, exhausted
                    )
                stream = iter(sample) if exhausted else _iter_chain(sample, stream)

        if self.tail_filters:
            ctx = self.ctx
            columns = external_columns(tuple(layout))
            tail = self.tail_filters

            def filtered(rows: Iterator[Row]) -> Iterator[Row]:
                for row in rows:
                    if all(
                        expression_satisfied(expr, ctx.decode_binding(columns, row))
                        for expr in tail
                    ):
                        yield row

            stream = filtered(stream)

        # Emit under the declared schema: adaptive reordering may have
        # grown the layout in a different column order.
        declared = self.schema
        if tuple(layout) != declared:
            positions = {variable: index for index, variable in enumerate(layout)}
            permutation = [positions[variable] for variable in declared]

            def permuted(rows: Iterator[Row]) -> Iterator[Row]:
                for row in rows:
                    yield tuple(row[index] for index in permutation)

            stream = permuted(stream)
        return stream

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        declared = self.schema
        if self._id_columns is not None:
            stream = self._sliced_id_rows(batches, self._id_columns)
        else:
            stream = self._chain_rows(batches)
            if self._budget is not None:
                stream = islice(stream, self._budget)

        cap = INITIAL_BATCH_ROWS
        buffer: list[Row] = []
        for row in stream:
            buffer.append(row)
            if len(buffer) >= cap:
                yield Batch(declared, buffer)
                buffer = []
                cap = min(cap * BATCH_GROWTH, MAX_BATCH_ROWS)
        if buffer:
            yield Batch(declared, buffer)

    def describe(self) -> str:
        return f"BGPScan est={self.est:.1f}"

    def details(self) -> list[str]:
        lines = []
        for step in self.steps:
            suffix = ""
            if step.filters:
                rendered = ", ".join(serialize_expression(expr) for expr in step.filters)
                suffix = f" [filter {rendered}]"
            lines.append(f"scan ({pattern_text(step.pattern)}) est={step.est:.1f}{suffix}")
        lines.extend(f"filter {serialize_expression(expr)}" for expr in self.tail_filters)
        return lines

    def notes(self) -> str:
        suffix = " adaptive" if ADAPTIVE else ""
        slicing = []
        if self._budget is not None:
            slicing.append(f"row budget {self._budget}")
        if self._skip:
            slicing.append(f"first {self._skip} skipped on ids")
        if slicing:
            suffix += f" [{', '.join(slicing)}]"
        return suffix


# --------------------------------------------------------------------------- #
# VALUES
# --------------------------------------------------------------------------- #
class VecTableOp(VecOperator):
    """An inline solution table (VALUES) joined against the input stream."""

    span_name = "exec.table"

    def __init__(
        self,
        ctx: ExecContext,
        in_schema: Schema,
        columns: Sequence[Variable],
        rows: Sequence[tuple],
    ) -> None:
        super().__init__(ctx)
        self.in_schema = in_schema
        self.columns = list(columns)
        self.schema = extend_schema(in_schema, self.columns)
        term_id = ctx.query_term_id
        self._rows: list[Row] = [
            tuple(term_id(term) if term is not None else UNBOUND for term in row)
            for row in rows
        ]
        self.est = float(len(self._rows))
        # Column -> position in the *output* schema, and whether that
        # position already exists in the input (shared) or is appended.
        positions = {variable: index for index, variable in enumerate(self.schema)}
        self._targets = [positions[variable] for variable in self.columns]
        self._width = len(self.schema)
        self._in_width = len(in_schema)

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        table = self._rows
        targets = self._targets
        width = self._width
        in_width = self._in_width
        pad = width - in_width
        schema = self.schema
        for batch in batches:
            out: list[Row] = []
            for row in batch.rows:
                base = row + (UNBOUND,) * pad
                for table_row in table:
                    merged = list(base)
                    ok = True
                    for value, target in zip(table_row, targets, strict=True):
                        if not value:
                            continue  # UNDEF constrains nothing
                        current = merged[target]
                        if current and current != value:
                            ok = False
                            break
                        merged[target] = value
                    if ok:
                        out.append(tuple(merged))
            yield Batch(schema, out)

    def describe(self) -> str:
        rendered = " ".join(f"?{variable.name}" for variable in self.columns)
        return f"Table ({rendered}) {len(self._rows)} rows"


# --------------------------------------------------------------------------- #
# Joins
# --------------------------------------------------------------------------- #
class VecBindJoinOp(VecOperator):
    """Streaming bind join: left batches feed the right sub-plan."""

    span_name = "exec.bind_join"

    def __init__(self, ctx: ExecContext, left: VecOperator, right: VecOperator) -> None:
        super().__init__(ctx)
        self._left = left
        self._right = right
        self.schema = right.schema
        self.est = max(left.est, 0.0) * max(right.est, 0.0)

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        return self._right.execute(self._left.execute(batches))

    def children(self) -> Sequence[VecOperator]:
        return (self._left, self._right)

    def describe(self) -> str:
        return f"BindJoin est={self.est:.1f}"


class VecHashJoinOp(VecOperator):
    """Hash join on shared certainly-bound variables (build right once)."""

    span_name = "exec.hash_join"

    def __init__(
        self,
        ctx: ExecContext,
        left: VecOperator,
        right: VecOperator,
        key: Sequence[Variable],
    ) -> None:
        super().__init__(ctx)
        self._left = left
        self._right = right
        self.key = tuple(sorted(key, key=lambda variable: variable.name))
        self.schema = extend_schema(left.schema, right.schema)
        self.est = max(left.est, 0.0) * max(right.est, 0.0) * 0.1
        left_positions = {variable: index for index, variable in enumerate(left.schema)}
        right_positions = {variable: index for index, variable in enumerate(right.schema)}
        self._left_key = [left_positions[variable] for variable in self.key]
        self._right_key = [right_positions[variable] for variable in self.key]
        self._append_cols = [
            right_positions[variable]
            for variable in self.schema[len(left.schema):]
        ]
        # The build side runs against the empty input (that is what makes
        # the hash join safe), so its rows cannot vary between runs of one
        # execution: build once, reuse under correlated parents.
        self._table: dict[Row, list[Row]] | None = None

    def reset(self) -> None:
        self._table = None
        super().reset()

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        if self._table is None:
            table: dict[Row, list[Row]] = {}
            right_key = self._right_key
            append_cols = self._append_cols
            for batch in self._right.execute(seed_batches()):
                for row in batch.rows:
                    key = tuple(row[index] for index in right_key)
                    table.setdefault(key, []).append(
                        tuple(row[index] for index in append_cols)
                    )
            self._table = table
        table = self._table
        left_key = self._left_key
        schema = self.schema
        for batch in self._left.execute(batches):
            out: list[Row] = []
            for row in batch.rows:
                key = tuple(row[index] for index in left_key)
                for suffix in table.get(key, ()):
                    out.append(row + suffix)
            yield Batch(schema, out)

    def children(self) -> Sequence[VecOperator]:
        return (self._left, self._right)

    def describe(self) -> str:
        rendered = " ".join(f"?{variable.name}" for variable in self.key)
        return f"HashJoin on ({rendered}) est={self.est:.1f}"


class _OrdinalMixin:
    """Shared machinery for operators correlating a sub-plan per input row.

    The sub-plan is compiled against ``input schema + ordinal column``; at
    runtime each input row is tagged with its batch-local ordinal, the
    sub-plan runs over the whole batch at once, and its output is grouped
    back by ordinal — one vectorized sub-plan run per batch instead of one
    per row.
    """

    @staticmethod
    def tag_batch(batch: Batch, tagged_schema: Schema) -> Batch:
        rows = [row + (ordinal,) for ordinal, row in enumerate(batch.rows)]
        return Batch(tagged_schema, rows)

    @staticmethod
    def bucket_by_ordinal(
        op: VecOperator, batch: Batch, ord_index: int
    ) -> dict[int, list[Row]]:
        buckets: dict[int, list[Row]] = {}
        for produced in op.execute(iter((batch,))):
            for row in produced.rows:
                buckets.setdefault(row[ord_index], []).append(row)
        return buckets


class VecLeftJoinOp(VecOperator, _OrdinalMixin):
    """OPTIONAL: extend left rows where the sub-plan matches, else pass."""

    span_name = "exec.left_join"

    def __init__(
        self,
        ctx: ExecContext,
        left: VecOperator,
        right: VecOperator,
        expression: Expression | None,
        ord_var: Variable,
    ) -> None:
        super().__init__(ctx)
        in_schema = left.schema
        self._left = left
        self._right = right
        self._expression = expression
        self._tagged_schema = in_schema + (ord_var,)
        right_schema = right.schema
        new_vars = [
            variable for variable in right_schema
            if variable not in in_schema and variable != ord_var
        ]
        self.schema = in_schema + tuple(new_vars)
        right_positions = {variable: index for index, variable in enumerate(right_schema)}
        self._ord_index = right_positions[ord_var]
        # Map a right-output row onto the out schema.
        self._projection = [right_positions[variable] for variable in self.schema]
        self._pad = len(new_vars)
        self.est = max(left.est, 1.0)

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        ctx = self.ctx
        expression = self._expression
        schema = self.schema
        columns = external_columns(schema)
        projection = self._projection
        pad = (UNBOUND,) * self._pad
        for batch in self._left.execute(batches):
            tagged = self.tag_batch(batch, self._tagged_schema)
            buckets = self.bucket_by_ordinal(self._right, tagged, self._ord_index)
            out: list[Row] = []
            for ordinal, row in enumerate(batch.rows):
                matched = False
                for extension in buckets.get(ordinal, ()):
                    aligned = tuple(extension[index] for index in projection)
                    if expression is None or expression_satisfied(
                        expression, ctx.decode_binding(columns, aligned)
                    ):
                        matched = True
                        out.append(aligned)
                if not matched:
                    out.append(row + pad)
            yield Batch(schema, out)

    def children(self) -> Sequence[VecOperator]:
        return (self._left, self._right)

    def describe(self) -> str:
        condition = (
            f" on [{serialize_expression(self._expression)}]"
            if self._expression is not None
            else ""
        )
        return f"LeftJoin{condition} est={self.est:.1f}"


class VecUnionOp(VecOperator, _OrdinalMixin):
    """UNION: each input row flows through every branch, in branch order."""

    span_name = "exec.union"

    def __init__(
        self,
        ctx: ExecContext,
        in_schema: Schema,
        branches: Sequence[VecOperator],
        ord_var: Variable,
    ) -> None:
        super().__init__(ctx)
        self.in_schema = in_schema
        self._branches = list(branches)
        self._tagged_schema = in_schema + (ord_var,)
        schema = in_schema
        for branch in self._branches:
            schema = extend_schema(
                schema,
                (v for v in branch.schema if v != ord_var),
            )
        self.schema = schema
        positions = {variable: index for index, variable in enumerate(schema)}
        self._ord_indexes: list[int] = []
        self._projections: list[list[tuple[int, int]]] = []
        for branch in self._branches:
            branch_positions = {v: i for i, v in enumerate(branch.schema)}
            self._ord_indexes.append(branch_positions[ord_var])
            self._projections.append([
                (branch_positions[variable], positions[variable])
                for variable in branch.schema
                if variable != ord_var
            ])
        self.est = sum(max(branch.est, 0.0) for branch in self._branches)

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        schema = self.schema
        width = len(schema)
        for batch in batches:
            tagged = self.tag_batch(batch, self._tagged_schema)
            per_branch = [
                self.bucket_by_ordinal(branch, tagged, self._ord_indexes[index])
                for index, branch in enumerate(self._branches)
            ]
            out: list[Row] = []
            for ordinal in range(len(batch.rows)):
                for index, buckets in enumerate(per_branch):
                    mapping = self._projections[index]
                    for row in buckets.get(ordinal, ()):
                        aligned = [UNBOUND] * width
                        for source, target in mapping:
                            aligned[target] = row[source]
                        out.append(tuple(aligned))
            yield Batch(schema, out)

    def children(self) -> Sequence[VecOperator]:
        return tuple(self._branches)

    def describe(self) -> str:
        return f"Union est={self.est:.1f}"


# --------------------------------------------------------------------------- #
# Filters and modifiers
# --------------------------------------------------------------------------- #
class VecFilterOp(VecOperator):
    """FILTER expressions evaluated at the term boundary (decode per row)."""

    span_name = "exec.filter"

    def __init__(
        self,
        ctx: ExecContext,
        child: VecOperator,
        expressions: Sequence[Expression],
    ) -> None:
        super().__init__(ctx)
        self._child = child
        self._expressions = list(expressions)
        self.schema = child.schema
        self.est = max(child.est, 0.0) * (0.5 ** len(self._expressions))

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        ctx = self.ctx
        expressions = self._expressions
        schema = self.schema
        columns = external_columns(schema)
        for batch in self._child.execute(batches):
            rows = [
                row
                for row in batch.rows
                if all(
                    expression_satisfied(expr, ctx.decode_binding(columns, row))
                    for expr in expressions
                )
            ]
            yield Batch(schema, rows)

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        rendered = ", ".join(serialize_expression(expr) for expr in self._expressions)
        return f"Filter [{rendered}] est={self.est:.1f}"


class VecProjectOp(VecOperator):
    """Project rows onto the requested variables (anchors stripped)."""

    span_name = "exec.project"

    def __init__(
        self, ctx: ExecContext, child: VecOperator, projection: Sequence[Variable]
    ) -> None:
        super().__init__(ctx)
        self._child = child
        visible = [
            variable for variable in projection
            if not variable.name.startswith(BNODE_ANCHOR_PREFIX)
        ]
        self.schema = tuple(visible)
        child_positions = {variable: index for index, variable in enumerate(child.schema)}
        # -1: the variable is never bound anywhere in the sub-plan.
        self._sources = [child_positions.get(variable, -1) for variable in visible]
        self.est = child.est

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        sources = self._sources
        schema = self.schema
        for batch in self._child.execute(batches):
            rows = [
                tuple(row[index] if index >= 0 else UNBOUND for index in sources)
                for row in batch.rows
            ]
            yield Batch(schema, rows)

    def limit_rows(self, skip: int, budget: int | None) -> int:
        return self._child.limit_rows(skip, budget)  # one row out per row in

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        rendered = " ".join(f"?{variable.name}" for variable in self.schema)
        return f"Project ({rendered})"


class VecDistinctOp(VecOperator):
    """Duplicate elimination on raw row tuples (first occurrence wins)."""

    span_name = "exec.distinct"

    def __init__(self, ctx: ExecContext, child: VecOperator) -> None:
        super().__init__(ctx)
        self._child = child
        self.schema = child.schema
        self.est = child.est

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        seen: set[Row] = set()
        schema = self.schema
        for batch in self._child.execute(batches):
            rows: list[Row] = []
            for row in batch.rows:
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
            yield Batch(schema, rows)

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        return "Distinct"


class VecOrderByOp(VecOperator):
    """ORDER BY: the one blocking operator (materialise, decode keys, sort)."""

    span_name = "exec.order_by"

    def __init__(
        self,
        ctx: ExecContext,
        child: VecOperator,
        conditions: Sequence[OrderCondition],
    ) -> None:
        super().__init__(ctx)
        self._child = child
        self._conditions = list(conditions)
        self.schema = child.schema
        self.est = child.est

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        ctx = self.ctx
        conditions = self._conditions
        schema = self.schema
        columns = external_columns(schema)
        rows: list[Row] = []
        for batch in self._child.execute(batches):
            rows.extend(batch.rows)

        def sort_key(row: Row) -> list[Any]:
            binding = ctx.decode_binding(columns, row)
            key: list[Any] = []
            for condition in conditions:
                try:
                    value = evaluate_expression(condition.expression, binding)
                except ExpressionError:
                    value = None
                key.append(_orderable(value, condition.descending))
            return key

        rows.sort(key=sort_key)
        yield Batch(schema, rows)

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"OrderBy ({len(self._conditions)} conditions, blocking)"


class VecSliceOp(VecOperator):
    """OFFSET/LIMIT: stops pulling once full, and tells the subtree below
    how many rows it will ever need (:meth:`VecOperator.limit_rows`)."""

    span_name = "exec.slice"

    def __init__(
        self,
        ctx: ExecContext,
        child: VecOperator,
        offset: int | None,
        limit: int | None,
    ) -> None:
        super().__init__(ctx)
        self._child = child
        self._offset = offset or 0
        self._limit = limit
        self.schema = child.schema
        self.est = min(child.est, float(limit)) if limit is not None else child.est
        #: Leading rows the subtree drops itself, so not skipped again here.
        self._skipped_below = child.limit_rows(
            self._offset, None if limit is None else self._offset + limit
        )

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        to_skip = self._offset - self._skipped_below
        remaining = self._limit
        schema = self.schema
        if remaining is not None and remaining <= 0:
            return
        for batch in self._child.execute(batches):
            rows = batch.rows
            if to_skip:
                if to_skip >= len(rows):
                    to_skip -= len(rows)
                    continue
                rows = rows[to_skip:]
                to_skip = 0
            if remaining is not None:
                if remaining <= 0:
                    return
                rows = rows[:remaining]
                remaining -= len(rows)
            if rows:
                yield Batch(schema, rows)
            if remaining is not None and remaining <= 0:
                return

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"Slice (offset={self._offset}, limit={self._limit})"


# --------------------------------------------------------------------------- #
# Plans, reports, run events
# --------------------------------------------------------------------------- #
@dataclass
class QueryRunEvent:
    """The one record of a run, local or federated (OpenLineage-style).

    Built only by :func:`build_run_event`.  ANALYZE renders it, the
    ``REPRO_RUN_EVENTS`` sink writes it (``benchmarks/compare.py
    --events`` digests it: operator timings attribute a perf regression
    to an operator instead of a test name), the tracer turns its
    operators into spans and the slow log keeps its query, engine,
    elapsed time and plan.
    """

    query: str
    engine: str
    elapsed: float
    rows: int
    operators: list[dict[str, Any]] = field(default_factory=list)
    adaptivity: list[dict[str, Any]] = field(default_factory=list)
    endpoints: list[dict[str, Any]] = field(default_factory=list)
    rows_shipped: int = 0
    plan: str = ""

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "engine": self.engine,
            "elapsed": self.elapsed,
            "rows": self.rows,
            "operators": self.operators,
            "adaptivity": self.adaptivity,
            "endpoints": self.endpoints,
            "rows_shipped": self.rows_shipped,
            "plan": self.plan,
        }

    def render(self) -> str:
        """Human-readable EXPLAIN ANALYZE text."""
        lines = [
            f"EXPLAIN ANALYZE ({self.engine} engine): "
            f"{self.rows} rows in {self.elapsed * 1000:.2f} ms"
        ]
        if self.plan:
            lines.extend(self.plan.splitlines())
        for decision in self.adaptivity:
            exactness = "exact" if decision.get("observed_is_exact") else ">="
            lines.append(
                f"adaptive reorder after ({decision['after']}): "
                f"estimated {decision['estimated']:.1f}, "
                f"observed {exactness} {decision['observed']}"
            )
            lines.append(f"  new order: {', '.join(decision['new_order'])}")
        for endpoint in self.endpoints:
            lines.append(
                f"endpoint {endpoint.get('dataset')}: "
                f"requests={endpoint.get('requests')} "
                f"rows_shipped={endpoint.get('rows_shipped')}"
            )
        return "\n".join(lines)


def build_run_event(plan: Any, query: str | Query, elapsed: float) -> QueryRunEvent:
    """The one builder of a run's record, read off the plan's operator tree.

    ``plan`` is an :class:`ExecPlan` or the mediator's federated plan
    executor: anything with an ``engine`` label, a ``root`` operator
    (``None`` when nothing ran), its ``ctx`` and ``endpoints()``.  A parsed
    ``query`` is serialized here, so only a run whose event is built pays
    for it.
    """
    root = plan.root
    endpoints = plan.endpoints()
    return QueryRunEvent(
        query=query if isinstance(query, str) else query.serialize(),
        engine=plan.engine,
        elapsed=elapsed,
        rows=0 if root is None else root.metrics.rows_out,
        operators=[] if root is None else root.operator_stats(),
        adaptivity=[] if root is None else list(plan.ctx.decisions),
        endpoints=endpoints,
        rows_shipped=sum(entry["rows_shipped"] for entry in endpoints),
        plan="" if root is None else "\n".join(root.report_lines()),
    )


def finish_run(
    plan: Any,
    query: str | Query,
    elapsed: float,
    layer: str,
    analyze: bool = False,
) -> QueryRunEvent | None:
    """End a run: the one place its record is built and handed out.

    The event is built only when something reads it: the JSONL sink
    (``REPRO_RUN_EVENTS``), the tracer, the slow log (``elapsed`` at or
    over its threshold) or an explicit ``analyze``, which gets it back.
    ``elapsed`` is the run's wall time.  Per-operator spans are synthesized
    from the event's operator timings, so the batched hot loop carries no
    tracing; their root lasts ``plan.elapsed``, the execution alone,
    because planning has a span of its own (a plan that ran no operator
    adds none).
    """
    tracer = get_tracer()
    emit = SINK.enabled
    slow = elapsed >= SLOW_LOG.threshold
    if not (analyze or emit or tracer.enabled or slow):
        return None
    event = build_run_event(plan, query, elapsed)
    if emit:
        SINK.emit(event.to_json_dict())
    trace_id: str | None = None
    if tracer.enabled and event.operators:
        trace_id = tracer.add_operator_spans(event, plan.elapsed).trace_id or None
    if slow:
        SLOW_LOG.record(
            {"query": event.query, "elapsed": event.elapsed,
             "engine": event.engine, "plan": event.plan},
            layer,
            trace_id,
        )
    return event


class ExecPlan:
    """The one plan type: a tree of batched operators for one query over
    one graph, as the planner built it.

    :meth:`explain` renders the tree with its estimates; after a run,
    :func:`build_run_event` reads the same nodes' counters.
    """

    #: Engine label of run events, traces and the slow log.
    engine = "planner"

    def __init__(self, query: Query, root: VecOperator, ctx: ExecContext) -> None:
        self.query = query
        self.root = root
        self.ctx = ctx
        self._elapsed = 0.0

    def execute(self) -> Iterator[Batch]:
        """Stream output batches (fresh execution: caches are dropped)."""
        self.root.reset()
        self.ctx.decisions.clear()
        started = time.perf_counter()
        for batch in self.root.execute(seed_batches()):
            yield batch
        self._elapsed = time.perf_counter() - started

    def bindings(self) -> Iterator[Binding]:
        """Stream decoded solutions (CONSTRUCT templates and ASK)."""
        ctx = self.ctx
        for batch in self.execute():
            columns = external_columns(batch.schema)
            for row in batch.rows:
                yield ctx.decode_binding(columns, row)

    def term_rows(self, variables: Sequence[Variable]) -> list[tuple[Term | None, ...]]:
        """The SELECT decode boundary: every surviving row, decoded once
        into a tuple of terms aligned with ``variables`` (``None`` where
        a cell is unbound or the plan never binds the variable)."""
        ctx = self.ctx
        schema = self.root.schema
        positions = {variable: index for index, variable in enumerate(schema)}
        sources = [positions.get(variable) for variable in variables]
        aligned = sources == list(range(len(schema)))
        rows: list[tuple[Term | None, ...]] = []
        for batch in self.execute():
            # Plan-private ids (VALUES cells) need ctx.term; either way the
            # unbound id decodes to None, slot 0 of the dictionary's table.
            decode = ctx.term if ctx._query_terms else ctx.dictionary.terms.__getitem__
            if aligned:
                rows.extend([tuple(map(decode, row)) for row in batch.rows])
            else:
                rows.extend([
                    tuple([
                        None if index is None else decode(row[index])
                        for index in sources
                    ])
                    for row in batch.rows
                ])
        return rows

    def first_binding(self) -> Binding | None:
        """The first solution, pulling as little as possible (ASK)."""
        return next(self.bindings(), None)

    @property
    def elapsed(self) -> float:
        """Wall seconds of the most recent execution."""
        return self._elapsed

    def explain(self) -> str:
        """EXPLAIN: a header naming the query form and graph size, then
        the operator tree with its estimates."""
        form = type(self.query).__name__.replace("Query", "").upper()
        header = f"plan for {form} query over graph with {len(self.ctx.graph)} triples"
        return "\n".join([header] + self.root.explain_lines())

    def endpoints(self) -> list[dict[str, Any]]:
        """Per-source traffic of the run: none, the plan reads one graph."""
        return []


# --------------------------------------------------------------------------- #
# Statically-proven-empty queries
# --------------------------------------------------------------------------- #
class VecAnalysisPruneOp(VecOperator):
    """The whole plan for a query the static analyzer proved empty.

    Emits nothing and has no children: EXPLAIN ANALYZE shows a single
    operator with zero rows and zero batches, and no scan ever touches
    the graph indexes.
    """

    span_name = "exec.analysis_prune"

    def __init__(self, ctx: ExecContext, schema: Schema, reason: str) -> None:
        super().__init__(ctx)
        self.schema = schema
        self.reason = reason

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        for _ in batches:  # drain the seed without producing anything
            pass
        return iter(())

    def describe(self) -> str:
        return f"AnalysisPrune[{self.reason}]"


def compile_empty_query(
    query: Query,
    graph: Graph | GraphView,
    reason: str,
) -> ExecPlan:
    """An :class:`ExecPlan` for a query statically proven to be empty.

    The plan performs zero index lookups — its only operator is
    :class:`VecAnalysisPruneOp` — while keeping the full EXPLAIN ANALYZE
    surface (report, run events, operator stats) intact.
    """
    ctx = ExecContext(graph)
    schema: Schema = ()
    if isinstance(query, SelectQuery):
        schema = tuple(query.effective_projection())
    root = VecAnalysisPruneOp(ctx, schema, reason)
    return ExecPlan(query, root, ctx)
