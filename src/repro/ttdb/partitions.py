"""Partition dependency analysis (paper §4.1).

WARP logically splits each table into partitions keyed by the values of
designated partition columns.  A query's WHERE clause is inspected to
determine which partitions it can possibly read; if the clause cannot be
analysed the query conservatively reads *all* partitions.

A :class:`ReadSet` is either ``ALL`` (whole table) or a disjunction of
conjunctions over ``(column, value)`` pairs.  For example, with partition
columns ``(title, editor)``::

    WHERE title = 'Home'                  -> [{title: Home}]
    WHERE title = ? AND editor = ?        -> [{title: p0, editor: p1}]
    WHERE title IN ('A', 'B')             -> [{title: A}, {title: B}]
    WHERE length(body) > 3                -> ALL

Soundness argument for the overlap test: a modified-row set is summarised
by the flat set M of partition keys its rows belong to.  If a query
disjunct D (a conjunction) matches some modified row r, then every
``(col, val)`` in D restricted to partition columns is one of r's keys,
hence a subset of M.  Requiring ``D ⊆ M`` is therefore a sound (and quite
precise) necessary condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.serialize import decode_pairs, encode_pairs
from repro.db.sql import ast
from repro.db.storage import TableSchema

#: Upper bound on disjunct fan-out before falling back to ALL.
_MAX_DISJUNCTS = 64

Constraint = Tuple[str, object]  # (column, value)


@dataclass(frozen=True, slots=True)
class ReadSet:
    """The partitions of one table a query may read."""

    table: str
    #: ``None`` means ALL partitions; otherwise a list of conjunctions.
    disjuncts: Optional[Tuple[FrozenSet[Constraint], ...]]
    #: What :meth:`keys` found, kept; not part of the value.
    _keys: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_all(self) -> bool:
        return self.disjuncts is None

    def keys(self) -> FrozenSet[Constraint]:
        """Flat union of all constrained keys (empty when ALL).  Memoized:
        the touch index walks this on every run append, and replayed-run
        clones and reloaded queries share their ReadSet instances."""
        cached = self._keys
        if cached is not None:
            return cached
        if self.disjuncts is None:
            out = frozenset()
        elif len(self.disjuncts) == 1:
            out = self.disjuncts[0]
        else:
            union = set()
            for disjunct in self.disjuncts:
                union |= disjunct
            out = frozenset(union)
        object.__setattr__(self, "_keys", out)
        return out

    def to_dict(self) -> dict:
        disjuncts = None
        if self.disjuncts is not None:
            disjuncts = [encode_pairs(disjunct) for disjunct in self.disjuncts]
        return {"table": self.table, "disjuncts": disjuncts}

    @classmethod
    def from_wire(cls, table: str, raw: Optional[list]) -> "ReadSet":
        """Rebuild a read set from its table and the ``disjuncts`` of
        :meth:`to_dict` (a query's row carries just those)."""
        if raw is None:
            return cls(table, None)
        return cls(table, tuple([decode_pairs(disjunct) for disjunct in raw]))


def read_partitions(
    stmt: ast.Statement,
    params: Sequence[object],
    schema: TableSchema,
) -> ReadSet:
    """Compute the :class:`ReadSet` for ``stmt`` against ``schema``.

    SELECT/UPDATE/DELETE read the partitions their WHERE clause selects;
    INSERT reads nothing (its written partitions come from the actual rows,
    but uniqueness checks make it *read* its own keys — modelled by the
    caller via written partitions).
    """
    if isinstance(stmt, ast.Insert):
        return ReadSet(stmt.table, disjuncts=())
    where = stmt.where  # type: ignore[union-attr]
    if where is None:
        return ReadSet(stmt.table, disjuncts=None)
    partition_cols = set(schema.partition_columns)
    if not partition_cols:
        return ReadSet(stmt.table, disjuncts=None)
    disjuncts = _analyze(where, params, partition_cols)
    if disjuncts is None:
        return ReadSet(stmt.table, disjuncts=None)
    # An unconstrained disjunct means the query can read any partition.
    for disjunct in disjuncts:
        if not disjunct:
            return ReadSet(stmt.table, disjuncts=None)
    return ReadSet(stmt.table, disjuncts=tuple(frozenset(d.items()) for d in disjuncts))


def _analyze(
    expr: ast.Expr,
    params: Sequence[object],
    partition_cols: set,
) -> Optional[List[Dict[str, object]]]:
    """Return the disjunct list for ``expr``; None signals "give up" (ALL).

    Every returned disjunct is a dict of equality constraints on partition
    columns; ``{}`` means "this branch is unconstrained".
    """
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "AND":
            left = _analyze(expr.left, params, partition_cols)
            right = _analyze(expr.right, params, partition_cols)
            if left is None and right is None:
                return None
            if left is None:
                return right
            if right is None:
                return left
            return _cross(left, right)
        if expr.op == "OR":
            left = _analyze(expr.left, params, partition_cols)
            right = _analyze(expr.right, params, partition_cols)
            if left is None or right is None:
                return None
            merged = left + right
            if len(merged) > _MAX_DISJUNCTS:
                return None
            return merged
        if expr.op == "=":
            constraint = _equality_constraint(expr, params, partition_cols)
            if constraint is not None:
                return [dict([constraint])]
            return [{}]
        # Other comparisons don't pin a partition but don't widen either.
        return [{}]
    if isinstance(expr, ast.InList) and not expr.negated:
        column = _partition_column(expr.needle, partition_cols)
        if column is not None:
            disjuncts = []
            for item in expr.items:
                value = _const_value(item, params)
                if value is _NOT_CONST:
                    return [{}]
                disjuncts.append({column: value})
            if len(disjuncts) > _MAX_DISJUNCTS:
                return None
            return disjuncts
        return [{}]
    # LIKE, BETWEEN, IS NULL, NOT, functions...: no partition information.
    return [{}]


def _cross(
    left: List[Dict[str, object]], right: List[Dict[str, object]]
) -> Optional[List[Dict[str, object]]]:
    out: List[Dict[str, object]] = []
    for a in left:
        for b in right:
            merged = dict(a)
            compatible = True
            for col, val in b.items():
                if col in merged and merged[col] != val:
                    compatible = False  # contradictory conjunction: drop it
                    break
                merged[col] = val
            if compatible:
                out.append(merged)
            if len(out) > _MAX_DISJUNCTS:
                return None
    return out


_NOT_CONST = object()


def _const_value(expr: ast.Expr, params: Sequence[object]):
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Param):
        if expr.index < len(params):
            return params[expr.index]
    return _NOT_CONST


def _partition_column(expr: ast.Expr, partition_cols: set) -> Optional[str]:
    if isinstance(expr, ast.ColumnRef) and expr.name in partition_cols:
        return expr.name
    return None


def _equality_constraint(
    expr: ast.BinaryOp, params: Sequence[object], partition_cols: set
) -> Optional[Constraint]:
    column = _partition_column(expr.left, partition_cols)
    value = _const_value(expr.right, params)
    if column is not None and value is not _NOT_CONST:
        return (column, value)
    column = _partition_column(expr.right, partition_cols)
    value = _const_value(expr.left, params)
    if column is not None and value is not _NOT_CONST:
        return (column, value)
    return None


class ParamToken:
    """Placeholder for an unknown parameter value during symbolic analysis.

    Identity-equal only: comparing two *different* tokens (or a token with
    a constant) means the analysis outcome could depend on runtime values,
    so the template is abandoned (``flag.unsafe``) and that statement falls
    back to per-execution analysis.  Comparing a token with itself is safe
    (``params[i] == params[i]`` at runtime) and stays precise.
    """

    __slots__ = ("index", "_flag")

    def __init__(self, index: int, flag: "_SafetyFlag") -> None:
        self.index = index
        self._flag = flag

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        self._flag.unsafe = True
        return False

    def __hash__(self) -> int:
        return object.__hash__(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"?{self.index}"


class _SafetyFlag:
    __slots__ = ("unsafe",)

    def __init__(self) -> None:
        self.unsafe = False


def _max_param_index(expr: Optional[ast.Expr]) -> int:
    """Highest ``?`` index in ``expr``, or -1 when parameter-free."""
    if expr is None:
        return -1
    best = -1
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Param):
            best = max(best, node.index)
        elif isinstance(node, ast.BinaryOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, ast.UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, ast.InList):
            stack.append(node.needle)
            stack.extend(node.items)
        elif isinstance(node, ast.Like):
            stack.append(node.operand)
            stack.append(node.pattern)
        elif isinstance(node, ast.Between):
            stack.append(node.operand)
            stack.append(node.low)
            stack.append(node.high)
        elif isinstance(node, ast.IsNull):
            stack.append(node.operand)
        elif isinstance(node, (ast.FuncCall, ast.Aggregate)):
            args = node.args if isinstance(node, ast.FuncCall) else (
                (node.arg,) if node.arg is not None else ()
            )
            stack.extend(args)
    return best


class ReadSetPlan:
    """The read-set template of one statement: :func:`read_partitions`
    run once, symbolically, over parameter tokens, so each execution only
    substitutes parameter values.  It hangs off the statement's
    ``ExecPlan.read_plan`` (attached by ``TimeTravelDB.prepare``) and so
    shares the plan cache's key, bound and ``ddl_epoch`` invalidation.

    ``mode`` is ``const`` (parameter-independent result), ``template``
    (disjuncts with token slots to substitute per execution), or
    ``dynamic`` (analysis outcome depends on parameter values; recompute
    every time).  ``disjuncts`` is the symbolic read set either way —
    conjunctions of ``(column, literal-or-ParamToken)`` — or ``None``
    when it is ALL partitions or value-dependent."""

    __slots__ = ("stmt", "schema", "mode", "read_set", "disjuncts", "n_params")

    def __init__(self, stmt: ast.Statement, schema: TableSchema) -> None:
        self.stmt = stmt
        self.schema = schema
        self.mode = "const"
        self.read_set: Optional[ReadSet] = None
        self.disjuncts = None
        self.n_params = 0
        max_index = -1
        if schema.partition_columns:
            max_index = _max_param_index(getattr(stmt, "where", None))
        if max_index < 0:
            self.read_set = read_partitions(stmt, (), schema)
            self.disjuncts = self.read_set.disjuncts
            return
        flag = _SafetyFlag()
        tokens = tuple(ParamToken(i, flag) for i in range(max_index + 1))
        symbolic = read_partitions(stmt, tokens, schema)
        if flag.unsafe:
            self.mode = "dynamic"
        elif symbolic.disjuncts is None:
            # ALL partitions regardless of parameter values.
            self.read_set = symbolic
        else:
            self.mode = "template"
            self.n_params = max_index + 1
            self.disjuncts = symbolic.disjuncts

    def instantiate(self, params: Sequence[object]) -> ReadSet:
        if self.mode == "const":
            assert self.read_set is not None
            return self.read_set
        if self.mode == "template" and self.n_params <= len(params):
            out = []
            for disjunct in self.disjuncts:
                items = []
                for column, value in disjunct:
                    if isinstance(value, ParamToken):
                        items.append((column, params[value.index]))
                    else:
                        items.append((column, value))
                out.append(frozenset(items))
            return ReadSet(self.stmt.table, tuple(out))
        # Dynamic, or a referenced parameter is missing: the seed analysis
        # treats that as non-constant, which the template cannot express.
        return read_partitions(self.stmt, params, self.schema)


class ModifiedPartitions:
    """Tracks which partitions repair has touched, and since when.

    ``record(table, keys, ts)`` notes that rows belonging to partition
    ``keys`` changed at logical time ``ts``; ``record_all(table, ts)`` marks
    the whole table.  ``affects(read_set, ts)`` answers: could a query with
    this read set, executed at this time, observe any repaired data?
    """

    def __init__(self) -> None:
        self._keys: Dict[Tuple[str, str, object], int] = {}
        self._tables_all: Dict[str, int] = {}
        self._tables_any: Dict[str, int] = {}

    def record(self, table: str, keys, ts: int) -> None:
        for key in keys:
            prior = self._keys.get(key)
            if prior is None or ts < prior:
                self._keys[key] = ts
        if keys:
            prior = self._tables_any.get(table)
            if prior is None or ts < prior:
                self._tables_any[table] = ts

    def record_all(self, table: str, ts: int) -> None:
        prior = self._tables_all.get(table)
        if prior is None or ts < prior:
            self._tables_all[table] = ts
        prior = self._tables_any.get(table)
        if prior is None or ts < prior:
            self._tables_any[table] = ts

    def affects(self, read_set: ReadSet, ts: int) -> bool:
        table = read_set.table
        all_ts = self._tables_all.get(table)
        if all_ts is not None and all_ts <= ts:
            return True
        if read_set.is_all:
            any_ts = self._tables_any.get(table)
            return any_ts is not None and any_ts <= ts
        for disjunct in read_set.disjuncts or ():
            if not disjunct:
                any_ts = self._tables_any.get(table)
                if any_ts is not None and any_ts <= ts:
                    return True
                continue
            if all(
                self._keys.get((table, col, val)) is not None
                and self._keys[(table, col, val)] <= ts
                for col, val in disjunct
            ):
                return True
        return False

    def affects_keys(self, table: str, keys, ts: int) -> bool:
        """True if any of the concrete partition ``keys`` was modified at or
        before ``ts`` (used for write-write dependencies)."""
        all_ts = self._tables_all.get(table)
        if all_ts is not None and all_ts <= ts:
            return True
        for key in keys:
            mod_ts = self._keys.get(key)
            if mod_ts is not None and mod_ts <= ts:
                return True
        return False

    def is_empty(self) -> bool:
        return not self._keys and not self._tables_all

    def snapshot_keys(self):
        return dict(self._keys)
