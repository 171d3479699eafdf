"""Query planning: compiled, cached execution plans per statement shape.

The applications issue the same parameterised statement shapes over and
over — live traffic *and* repair-time re-execution both funnel through
the executor — so everything derivable from ``(sql, schema)`` alone is
computed once and cached:

* the WHERE predicate and SELECT projection as compiled closures
  (:mod:`repro.db.sql.compile`) — no per-row AST walking;
* the access path: equality probes, served by the memory engine's value
  index, and range probes, which only the SQLite engine renders (into
  its WHERE, with the equality probes); without a usable probe the
  table is scanned;
* compiled UPDATE assignments, INSERT row builders, ORDER BY sort keys
  and aggregate reducers.

An :class:`ExecPlan` is the prepared statement: it also keeps the parsed
statement, ``is_write`` / ``full_table_write`` and (attached by the
time-travel layer) the partition read-set template, so the executor's
plan cache — keyed on the SQL text (``Executor.prepare`` is the only way
to get a plan) and invalidated by comparing the plan's ``epoch`` against
``Database.ddl_epoch`` (bumped on create/drop/restore) — is the one
per-statement cache in the system.

**Equivalence contract:** a plan's execution must be observably identical
to the tree-walking, scanning oracle in ``tests/naive_executor.py`` —
same ``QueryResult.snapshot()``, same read/written partitions and row
IDs, same row order — so dependency tracking and repair escalation do
not depend on which access path ran.  The index access paths return
candidate *supersets*; every candidate is still visibility- and
WHERE-checked.  (One documented exception, inherited
from the seed's equality index: a predicate that would *raise* on some
row — e.g. comparing incompatible types — may not raise under any probe
that never evaluates that row.  SQLite's range prefilter gates on the
probed column's value-rank profile so the *range comparison itself*
never silently skips a row it would have raised on; other conjuncts
share the equality probe's caveat.)
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.errors import SqlError, StorageError
from repro.db.sql import ast
from repro.db.sql.compile import compile_aggregate, compile_expr, compile_predicate
from repro.db.storage import Table, descending_order_key, order_key

#: Sentinel for "this parameter is not supplied" (mirrors the seed's
#: behavior of ignoring equality conjuncts on out-of-range params).
MISSING = object()

Getter = Callable[[Sequence[object]], object]


class ExecPlan:
    """The prepared statement: everything derivable from ``(sql, schema)``
    alone — what the executor runs, and what the time-travel layer, the
    repair controller, the preview and the online gate ask about a
    statement before its parameters are known."""

    __slots__ = (
        "epoch",
        "kind",
        "table",
        "stmt",
        "is_write",
        "full_table_write",
        "read_plan",
        "pred",
        "eq_probes",
        "range_probes",
        "sort_items",
        "agg_items",
        "select_items",
        "assignments",
        "insert_rows",
        "touches_indexed",
        "touches_partitions",
        "referenced",
    )

    def __init__(self, kind: str, stmt: ast.Statement, epoch: int) -> None:
        self.kind = kind
        self.table = stmt.table
        self.epoch = epoch
        #: The parsed statement this plan was built from.
        self.stmt = stmt
        self.is_write = kind != "select"
        #: A write with no WHERE clause modifies the whole table.
        self.full_table_write = (
            kind in ("update", "delete") and stmt.where is None
        )
        #: Partition read-set template (paper §4.1).  ``repro.db`` must
        #: not import ``repro.ttdb``, so ``TimeTravelDB.prepare`` attaches
        #: it; it lives and dies with the plan (one cache, one epoch rule).
        self.read_plan = None
        self.pred = None
        self.eq_probes: Tuple[Tuple[str, Getter], ...] = ()
        #: ``(column, lo, lo_inclusive, hi, hi_inclusive)`` per column a
        #: top-level conjunct bounds, in first-mention order; ``lo`` and
        #: ``hi`` are bound getters, None for an open side.
        self.range_probes: Tuple[Tuple, ...] = ()
        self.sort_items: Optional[Tuple[Tuple[Callable, bool], ...]] = None
        self.agg_items: Optional[Tuple[Tuple[str, Callable], ...]] = None
        self.select_items: Optional[Tuple[Tuple[str, Callable], ...]] = None
        self.assignments: Tuple[Tuple[str, Callable], ...] = ()
        self.insert_rows: Tuple[Tuple[Tuple[str, Callable], ...], ...] = ()
        #: UPDATE fast-path facts: whether any assignment writes an indexed
        #: (resp. partition) column.  When not, the superseded version's
        #: index entries / partition keys provably cover the new version.
        self.touches_indexed = True
        self.touches_partitions = True
        #: Every column a SELECT references (None for ``SELECT *``), for
        #: the SQLite engine's projection pushdown.
        self.referenced: Optional[FrozenSet[str]] = None


def build_plan(stmt: ast.Statement, table: Table, epoch: int) -> ExecPlan:
    schema = table.schema
    if isinstance(stmt, ast.Select):
        plan = ExecPlan("select", stmt, epoch)
        _plan_where(plan, stmt.where)
        if stmt.is_aggregate:
            items = []
            for index, item in enumerate(stmt.items):
                name = item.alias or default_name(item.expr, index)
                if isinstance(item.expr, ast.Aggregate):
                    items.append(
                        (name, compile_aggregate(item.expr.name, item.expr.arg))
                    )
                else:
                    raise SqlError("cannot mix aggregates and plain columns")
            plan.agg_items = tuple(items)
        elif not stmt.is_star:
            plan.select_items = tuple(
                (item.alias or default_name(item.expr, index), compile_expr(item.expr))
                for index, item in enumerate(stmt.items)
            )
        if stmt.order_by:
            plan.sort_items = tuple(
                (compile_expr(order.expr), order.descending)
                for order in stmt.order_by
            )
        plan.referenced = referenced_columns(stmt)
        return plan

    if isinstance(stmt, ast.Update):
        plan = ExecPlan("update", stmt, epoch)
        for column, _ in stmt.assignments:
            if not schema.has_column(column):
                raise StorageError(f"table {schema.name!r} has no column {column!r}")
        plan.assignments = tuple(
            (column, compile_expr(expr)) for column, expr in stmt.assignments
        )
        assigned = {column for column, _ in stmt.assignments}
        plan.touches_indexed = bool(assigned & table._indexed_columns)
        plan.touches_partitions = bool(assigned & set(schema.partition_columns))
        _plan_where(plan, stmt.where)
        return plan

    if isinstance(stmt, ast.Delete):
        plan = ExecPlan("delete", stmt, epoch)
        _plan_where(plan, stmt.where)
        return plan

    if isinstance(stmt, ast.Insert):
        plan = ExecPlan("insert", stmt, epoch)
        for column in stmt.columns:
            if not schema.has_column(column):
                raise StorageError(f"table {schema.name!r} has no column {column!r}")
        plan.insert_rows = tuple(
            tuple(
                (column, compile_expr(expr))
                for column, expr in zip(stmt.columns, value_tuple)
            )
            for value_tuple in stmt.rows
        )
        return plan

    raise SqlError(f"cannot execute {type(stmt).__name__}")


# -- access-path extraction ---------------------------------------------------


def _plan_where(plan: ExecPlan, where: Optional[ast.Expr]) -> None:
    plan.pred = compile_predicate(where)
    if where is None:
        return
    eq_probes: List[Tuple[str, Getter]] = []
    ranges = {}
    for conjunct in _conjuncts(where):
        if isinstance(conjunct, ast.BinaryOp):
            op = conjunct.op
            if op == "=":
                for column_side, value_side in (
                    (conjunct.left, conjunct.right),
                    (conjunct.right, conjunct.left),
                ):
                    if isinstance(column_side, ast.ColumnRef):
                        getter = _value_getter(value_side)
                        if getter is not None:
                            eq_probes.append((column_side.name, getter))
            elif op in ("<", "<=", ">", ">="):
                _note_range(ranges, conjunct)
        elif isinstance(conjunct, ast.Between):
            if isinstance(conjunct.operand, ast.ColumnRef):
                lo = _value_getter(conjunct.low)
                hi = _value_getter(conjunct.high)
                if lo is not None and hi is not None:
                    _merge_range(
                        ranges, conjunct.operand.name, lo, True, hi, True
                    )
    plan.eq_probes = tuple(eq_probes)
    plan.range_probes = tuple(
        (column, *bounds) for column, bounds in ranges.items()
    )


def range_bounds(probe: Tuple, params: Sequence[object]) -> Optional[Tuple]:
    """``(lo, hi)`` of a range probe under ``params`` (None for an open
    side), or None when a bound is NULL or its parameter is missing: no
    probe is taken then, and the compiled predicate meets every row."""
    _, lo_getter, _, hi_getter, _ = probe
    lo = hi = None
    if lo_getter is not None:
        lo = lo_getter(params)
        if lo is MISSING or lo is None:
            return None
    if hi_getter is not None:
        hi = hi_getter(params)
        if hi is MISSING or hi is None:
            return None
    return lo, hi


def _conjuncts(expr: ast.Expr):
    """Top-level AND-ed conjuncts, in left-to-right order."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _note_range(ranges, conjunct: ast.BinaryOp) -> None:
    op = conjunct.op
    if isinstance(conjunct.left, ast.ColumnRef):
        getter = _value_getter(conjunct.right)
        if getter is None:
            return
        column = conjunct.left.name
    elif isinstance(conjunct.right, ast.ColumnRef):
        getter = _value_getter(conjunct.left)
        if getter is None:
            return
        column = conjunct.right.name
        # Flip the comparison: ``c < col`` is ``col > c``.
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
    else:
        return
    if op == "<":
        _merge_range(ranges, column, None, False, getter, False)
    elif op == "<=":
        _merge_range(ranges, column, None, False, getter, True)
    elif op == ">":
        _merge_range(ranges, column, getter, False, None, False)
    else:
        _merge_range(ranges, column, getter, True, None, False)


def _merge_range(ranges, column, lo, lo_incl, hi, hi_incl) -> None:
    """Fill empty bound slots; the compiled predicate enforces the rest
    (a prefilter only needs *a* superset, not the tightest one)."""
    current = ranges.get(column)
    if current is None:
        ranges[column] = [lo, lo_incl, hi, hi_incl]
        return
    if current[0] is None and lo is not None:
        current[0], current[1] = lo, lo_incl
    if current[2] is None and hi is not None:
        current[2], current[3] = hi, hi_incl


def _value_getter(expr: ast.Expr) -> Optional[Getter]:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda params: value
    if isinstance(expr, ast.Param):
        index = expr.index

        def getter(params):
            if index < len(params):
                return params[index]
            return MISSING

        return getter
    return None


def referenced_columns(stmt: ast.Select) -> Optional[FrozenSet[str]]:
    """Every column name a SELECT's projection, WHERE and ORDER BY touch,
    or None for ``SELECT *`` (needs full rows)."""
    if stmt.is_star:
        return None
    out: set = set()
    for item in stmt.items:
        _collect_columns(item.expr, out)
    for order in stmt.order_by:
        _collect_columns(order.expr, out)
    if stmt.where is not None:
        _collect_columns(stmt.where, out)
    return frozenset(out)


def _collect_columns(expr: ast.Expr, out: set) -> None:
    if isinstance(expr, ast.ColumnRef):
        out.add(expr.name)
    elif isinstance(expr, ast.BinaryOp):
        _collect_columns(expr.left, out)
        _collect_columns(expr.right, out)
    elif isinstance(expr, ast.UnaryOp):
        _collect_columns(expr.operand, out)
    elif isinstance(expr, ast.InList):
        _collect_columns(expr.needle, out)
        for item in expr.items:
            _collect_columns(item, out)
    elif isinstance(expr, ast.Like):
        _collect_columns(expr.operand, out)
        _collect_columns(expr.pattern, out)
    elif isinstance(expr, ast.Between):
        _collect_columns(expr.operand, out)
        _collect_columns(expr.low, out)
        _collect_columns(expr.high, out)
    elif isinstance(expr, ast.IsNull):
        _collect_columns(expr.operand, out)
    elif isinstance(expr, ast.FuncCall):
        for arg in expr.args:
            _collect_columns(arg, out)
    elif isinstance(expr, ast.Aggregate):
        if expr.arg is not None:
            _collect_columns(expr.arg, out)


# -- result shaping -------------------------------------------------------------


def default_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.Aggregate):
        return expr.name.lower()
    return f"col{index}"


def sort_key(value, descending: bool):
    """ORDER BY sort key, derived from the storage layer's single
    ordering definition (:func:`repro.db.storage.order_key`)."""
    pair = order_key(value)
    if descending:
        return descending_order_key(*pair)
    return pair
