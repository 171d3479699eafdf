"""Query planning: compiled, cached execution plans per statement shape.

The applications issue the same parameterised statement shapes over and
over — live traffic *and* repair-time re-execution both funnel through
the executor — so everything derivable from ``(sql, schema)`` alone is
computed once and cached:

* the WHERE predicate and SELECT projection as compiled closures
  (:mod:`repro.db.sql.compile`) — no per-row AST walking;
* the access path: equality probes against the value index, a range
  probe against the ordered index, or an index-ordered traversal for
  ``ORDER BY`` on an indexed column;
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
row — e.g. comparing incompatible types — may not raise under any index
plan that never evaluates that row, and index-ordered traversal may
surface a different row's error first.  Range scans gate on the probed
column's value-rank profile so the *range comparison itself* never
silently skips a row it would have raised on; other conjuncts share the
equality index's caveat.)
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

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
        "range_probe",
        "order_index",
        "sort_items",
        "agg_items",
        "select_items",
        "assignments",
        "insert_rows",
        "touches_indexed",
        "touches_partitions",
        "lowered",
        "lowered_order",
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
        self.range_probe: Optional[Tuple] = None
        self.order_index: Optional[Tuple[str, bool]] = None
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
        #: SQL-lowering artifacts, populated only for tables advertising
        #: ``sql_lowering`` (the SQLite engine): a bind-time-renderable
        #: WHERE tree, the ORDER BY column list, and the referenced-column
        #: set for projection pushdown (see :mod:`repro.db.sql.lower`).
        self.lowered = None
        self.lowered_order: Optional[Tuple[Tuple[str, bool], ...]] = None
        self.referenced = None


def build_plan(stmt: ast.Statement, table: Table, epoch: int) -> ExecPlan:
    schema = table.schema
    if isinstance(stmt, ast.Select):
        plan = ExecPlan("select", stmt, epoch)
        _plan_where(plan, stmt.where, table)
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
            if (
                len(stmt.order_by) == 1
                and isinstance(stmt.order_by[0].expr, ast.ColumnRef)
                and stmt.order_by[0].expr.name in table._indexed_columns
                and schema.has_column(stmt.order_by[0].expr.name)
            ):
                plan.order_index = (
                    stmt.order_by[0].expr.name,
                    stmt.order_by[0].descending,
                )
        if getattr(table, "sql_lowering", False):
            from repro.db.sql.lower import build_lowering, referenced_columns

            plan.lowered = build_lowering(stmt.where)
            plan.referenced = referenced_columns(stmt)
            if stmt.order_by and all(
                isinstance(order.expr, ast.ColumnRef) for order in stmt.order_by
            ):
                plan.lowered_order = tuple(
                    (order.expr.name, order.descending) for order in stmt.order_by
                )
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
        _plan_where(plan, stmt.where, table)
        if getattr(table, "sql_lowering", False):
            from repro.db.sql.lower import build_lowering

            plan.lowered = build_lowering(stmt.where)
        return plan

    if isinstance(stmt, ast.Delete):
        plan = ExecPlan("delete", stmt, epoch)
        _plan_where(plan, stmt.where, table)
        if getattr(table, "sql_lowering", False):
            from repro.db.sql.lower import build_lowering

            plan.lowered = build_lowering(stmt.where)
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


def _plan_where(plan: ExecPlan, where: Optional[ast.Expr], table: Table) -> None:
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
    for column, (lo, lo_incl, hi, hi_incl) in ranges.items():
        if column in table._indexed_columns:
            plan.range_probe = (column, lo, lo_incl, hi, hi_incl)
            break


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
    (the index only needs *a* superset, not the tightest one)."""
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


# -- result shaping -------------------------------------------------------------


def default_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.Aggregate):
        return expr.name.lower()
    return f"col{index}"


def sort_key(value, descending: bool):
    """ORDER BY sort key, derived from the storage layer's single
    ordering definition so index traversal and in-memory sorts can never
    drift apart."""
    pair = order_key(value)
    if descending:
        return descending_order_key(*pair)
    return pair
