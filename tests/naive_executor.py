"""The reference the production executor is held to (test-side oracle).

Production evaluates a statement one way: ``Executor.prepare`` compiles it
into closures and access paths (``repro.db.planner``), the SQLite engine
lowers what it can to SQL, and the time-travel layer instantiates a
read-set template.  This module is the other way, kept as simple as it
can be: :func:`evaluate` walks the expression AST for every row,
:class:`NaiveExecutor` scans every visible row — no index, no lowering —
and re-derives projection, ordering and aggregates from the AST on every
execution, and :class:`WalkedReadSet` walks the WHERE clause with
``read_partitions`` on every execution instead of substituting into a
template.  It drives either storage engine through the table interface
``repro.db.engine`` documents and nothing else.

What it shares with production, deliberately: the parse and the plan
cache (``Executor.prepare`` — of the plan it reads ``kind``, ``table``
and ``stmt`` only; ``tests/test_naive_executor.py`` spies on the rest),
the write plumbing (``_store_inserts`` / ``_store_updates`` /
``_store_deletes`` / ``_supersede``: versions, uniqueness, the §4.4
repair dance), and the LIKE-pattern and text-coercion helpers.
Everything that decides *which rows* and *what values* is written out
again here.

Used by ``tests/test_executor_property.py`` (planned ≡ naive, python ≡
sqlite), ``tests/test_planner.py``, ``tests/test_sqlite_access_paths.py``
and ``tests/test_sql_eval.py``.
"""

from typing import Dict, List, Optional, Sequence

from repro.core.errors import SqlError
from repro.db.executor import ExecContext, Executor, QueryResult
from repro.db.sql import ast
from repro.db.sql.compile import _as_text, _like_regex
from repro.ttdb.partitions import read_partitions

# -- expression evaluation -------------------------------------------------------
#
# SQL three-valued logic to the extent the applications need: any
# comparison involving NULL yields NULL, AND / OR propagate NULL, and a
# WHERE clause accepts a row only when the predicate is truthy.


def evaluate(expr: ast.Expr, row: Dict[str, object], params: Sequence[object]):
    """Evaluate ``expr`` against ``row`` with positional ``params``."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Param):
        if expr.index >= len(params):
            raise SqlError(
                f"query references parameter {expr.index + 1} but only "
                f"{len(params)} supplied"
            )
        return params[expr.index]
    if isinstance(expr, ast.ColumnRef):
        if expr.name not in row:
            raise SqlError(f"unknown column {expr.name!r}")
        return row[expr.name]
    if isinstance(expr, ast.BinaryOp):
        return _eval_binary(expr, row, params)
    if isinstance(expr, ast.UnaryOp):
        return _eval_unary(expr, row, params)
    if isinstance(expr, ast.InList):
        return _eval_in(expr, row, params)
    if isinstance(expr, ast.Like):
        return _eval_like(expr, row, params)
    if isinstance(expr, ast.Between):
        operand = evaluate(expr.operand, row, params)
        low = evaluate(expr.low, row, params)
        high = evaluate(expr.high, row, params)
        if operand is None or low is None or high is None:
            return None
        return low <= operand <= high
    if isinstance(expr, ast.IsNull):
        value = evaluate(expr.operand, row, params)
        result = value is None
        return not result if expr.negated else result
    if isinstance(expr, ast.FuncCall):
        return _eval_func(expr, row, params)
    if isinstance(expr, ast.Aggregate):
        raise SqlError("aggregate used outside of a SELECT list")
    raise SqlError(f"cannot evaluate expression node {type(expr).__name__}")


def truthy(value) -> bool:
    """WHERE-clause boundary: NULL and false reject the row."""
    return bool(value) and value is not None


def _eval_binary(expr: ast.BinaryOp, row, params):
    op = expr.op
    if op == "AND":
        left = evaluate(expr.left, row, params)
        if left is False:
            return False
        right = evaluate(expr.right, row, params)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return bool(left) and bool(right)
    if op == "OR":
        left = evaluate(expr.left, row, params)
        if left is True or (left is not None and left not in (False, 0)):
            if left is True or bool(left):
                return True
        right = evaluate(expr.right, row, params)
        if right is not None and bool(right):
            return True
        if left is None or right is None:
            return None
        return bool(left) or bool(right)

    left = evaluate(expr.left, row, params)
    right = evaluate(expr.right, row, params)
    if op == "||":
        if left is None or right is None:
            return None
        return _as_text(left) + _as_text(right)
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op in ("<", "<=", ">", ">="):
        try:
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        except TypeError:
            raise SqlError(
                f"cannot compare {type(left).__name__} with {type(right).__name__}"
            ) from None
    if op in ("+", "-", "*", "/", "%"):
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    return None
                if isinstance(left, int) and isinstance(right, int):
                    return left // right
                return left / right
            if right == 0:
                return None
            return left % right
        except TypeError:
            raise SqlError("arithmetic on non-numeric operands") from None
    raise SqlError(f"unknown binary operator {op!r}")


def _eval_unary(expr: ast.UnaryOp, row, params):
    value = evaluate(expr.operand, row, params)
    if expr.op == "NOT":
        if value is None:
            return None
        return not bool(value)
    if expr.op == "-":
        if value is None:
            return None
        return -value
    raise SqlError(f"unknown unary operator {expr.op!r}")


def _eval_in(expr: ast.InList, row, params):
    needle = evaluate(expr.needle, row, params)
    if needle is None:
        return None
    saw_null = False
    for item in expr.items:
        value = evaluate(item, row, params)
        if value is None:
            saw_null = True
        elif value == needle:
            return not expr.negated
    if saw_null:
        return None
    return expr.negated


def _eval_like(expr: ast.Like, row, params):
    operand = evaluate(expr.operand, row, params)
    pattern = evaluate(expr.pattern, row, params)
    if operand is None or pattern is None:
        return None
    regex = _like_regex(str(pattern))
    matched = regex.match(str(operand)) is not None
    return not matched if expr.negated else matched


def _eval_func(expr: ast.FuncCall, row, params):
    args = [evaluate(arg, row, params) for arg in expr.args]
    name = expr.name
    if name == "COALESCE":
        for arg in args:
            if arg is not None:
                return arg
        return None
    if name == "LOWER":
        return None if args[0] is None else str(args[0]).lower()
    if name == "UPPER":
        return None if args[0] is None else str(args[0]).upper()
    if name == "LENGTH":
        return None if args[0] is None else len(str(args[0]))
    if name == "ABS":
        return None if args[0] is None else abs(args[0])
    if name == "SUBSTR":
        if args[0] is None:
            return None
        text = str(args[0])
        start = int(args[1]) - 1 if len(args) > 1 else 0
        if len(args) > 2:
            return text[start : start + int(args[2])]
        return text[start:]
    raise SqlError(f"unknown function {name!r}")


def aggregate(name: str, arg: Optional[ast.Expr], rows, params):
    """Compute aggregate ``name`` over ``rows`` (list of row dicts)."""
    if name == "COUNT":
        if arg is None:
            return len(rows)
        return sum(1 for row in rows if evaluate(arg, row, params) is not None)
    values = [evaluate(arg, row, params) for row in rows]
    values = [value for value in values if value is not None]
    if not values:
        return None
    if name == "SUM":
        return sum(values)
    if name == "MAX":
        return max(values)
    if name == "MIN":
        return min(values)
    if name == "AVG":
        return sum(values) / len(values)
    raise SqlError(f"unknown aggregate {name!r}")


# -- result shaping ---------------------------------------------------------------


def _column_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.Aggregate):
        return expr.name.lower()
    return f"col{index}"


def _sort_key(value, descending: bool):
    """ORDER BY key: NULL < numbers < text; DESC negates numbers and each
    character's code point (so '' sorts before 'z' descending)."""
    if value is None:
        rank, key = 0, 0
    elif isinstance(value, bool):
        rank, key = 1, int(value)
    elif isinstance(value, (int, float)):
        rank, key = 1, value
    else:
        rank, key = 2, str(value)
    if not descending:
        return (rank, key)
    if rank == 2:
        return (-2, tuple(-ord(ch) for ch in key))
    return (-rank, -key)


# -- the executor -----------------------------------------------------------------


class WalkedReadSet:
    """Stands in for a plan's read-set template (``ExecPlan.read_plan``):
    ``instantiate`` walks the WHERE AST on every execution, so comparing a
    ``TTResult.read_set`` across the two arms compares template against
    walk."""

    def __init__(self, stmt: ast.Statement, schema) -> None:
        self.stmt = stmt
        self.schema = schema

    def instantiate(self, params: Sequence[object]):
        return read_partitions(self.stmt, params, self.schema)


class NaiveExecutor(Executor):
    """Runs a prepared statement from its AST alone (``plan.stmt``)."""

    def prepare(self, sql: str):
        plan = super().prepare(sql)
        if plan.read_plan is None:  # ahead of TimeTravelDB.prepare's template
            schema = self.database.table(plan.table).schema
            plan.read_plan = WalkedReadSet(plan.stmt, schema)
        return plan

    def _scan(
        self, table, where: Optional[ast.Expr], params, ctx: ExecContext
    ) -> list:
        """Every visible row the WHERE clause accepts, in row-ID order.  No
        access path: the indexes are among the things being checked."""
        return [
            version
            for version in self._visible(table, ctx)
            if where is None or truthy(evaluate(where, version.data, params))
        ]

    def matching_rows(self, plan, params, ctx: ExecContext) -> list:
        table = self.database.table(plan.table)
        return self._scan(table, plan.stmt.where, params, ctx)

    def _select(self, plan, params, ctx: ExecContext) -> QueryResult:
        stmt = plan.stmt
        table = self.database.table(stmt.table)
        matched = self._scan(table, stmt.where, params, ctx)

        if stmt.is_aggregate:
            datas = [version.data for version in matched]
            row: Dict[str, object] = {}
            for index, item in enumerate(stmt.items):
                name = item.alias or _column_name(item.expr, index)
                if isinstance(item.expr, ast.Aggregate):
                    row[name] = aggregate(item.expr.name, item.expr.arg, datas, params)
                else:
                    raise SqlError("cannot mix aggregates and plain columns")
            return QueryResult(
                kind="select",
                table=stmt.table,
                rows=[row],
                rowcount=1,
                read_row_ids=tuple(version.row_id for version in matched),
            )

        if stmt.order_by:
            matched.sort(
                key=lambda v: tuple(
                    _sort_key(evaluate(o.expr, v.data, params), o.descending)
                    for o in stmt.order_by
                )
            )

        rows: List[Dict[str, object]] = []
        if stmt.is_star:
            for version in matched:
                rows.append(dict(version.data))
        else:
            for version in matched:
                projected: Dict[str, object] = {}
                for index, item in enumerate(stmt.items):
                    name = item.alias or _column_name(item.expr, index)
                    projected[name] = evaluate(item.expr, version.data, params)
                rows.append(projected)

        if stmt.distinct:
            seen = set()
            unique_rows = []
            for row in rows:
                key = tuple(sorted(row.items()))
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
            rows = unique_rows
        if stmt.offset:
            rows = rows[stmt.offset :]
        if stmt.limit is not None:
            rows = rows[: stmt.limit]
        return QueryResult(
            kind="select",
            table=stmt.table,
            rows=rows,
            rowcount=len(rows),
            read_row_ids=tuple(version.row_id for version in matched),
        )

    def _insert(self, plan, params, ctx: ExecContext) -> QueryResult:
        stmt = plan.stmt
        table = self.database.table(stmt.table)
        new_rows: List[Dict[str, object]] = []
        for value_tuple in stmt.rows:
            data = {col.name: None for col in table.schema.columns}
            for column, expr in zip(stmt.columns, value_tuple):
                data[column] = evaluate(expr, {}, params)
            new_rows.append(data)
        return self._store_inserts(table, new_rows, ctx)

    def _update(self, plan, params, ctx: ExecContext) -> QueryResult:
        stmt = plan.stmt
        table = self.database.table(stmt.table)
        updates = []
        for version in self._scan(table, stmt.where, params, ctx):
            new_data = dict(version.data)
            for column, expr in stmt.assignments:
                new_data[column] = evaluate(expr, version.data, params)
            updates.append((version, new_data))
        # No fast path: partition keys of both the old and the new row,
        # and the new row always indexed.
        return self._store_updates(
            table, updates, ctx, partitions_once=False, index_new_data=True
        )

    def _delete(self, plan, params, ctx: ExecContext) -> QueryResult:
        stmt = plan.stmt
        table = self.database.table(stmt.table)
        matched = self._scan(table, stmt.where, params, ctx)
        return self._store_deletes(table, matched, ctx)


def use_naive_executor(tt):
    """Swap ``tt``'s executor for the oracle (before any statement runs)."""
    tt.executor = NaiveExecutor(tt.database, versioned=tt.enabled)
    return tt
