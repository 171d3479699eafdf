"""Lowering compiled predicates, projections and ORDER BY to real SQL.

The SQLite engine (:mod:`repro.db.sqlite_engine`) stores versioned rows in
shadow tables with one untyped column per schema column.  For a predicate
to run *inside* SQLite instead of as a Python closure over materialized
rows, the lowered SQL must be observably equivalent to that closure
(:mod:`repro.db.sql.compile`) — including its three-valued logic, its Python
``==`` equality (``1 = True``), its "cannot compare" type errors, and the
seed's DESC negated-char-code string collation.

That equivalence depends on what values a column has ever stored, not just
on the expression shape, so lowering happens in two phases:

* **build time** (once per plan): :func:`build_lowering` turns the WHERE
  AST into a tree of lowering nodes.  Shapes that can never lower
  (arithmetic, function calls, bare truthiness) become static gaps.
* **bind/render time** (each execution): :func:`render_where` renders the
  tree against the actual parameters and the per-column
  :class:`ColumnState` flags, producing SQL + bind values and an
  ``exact`` verdict.

A node that cannot render *drops out*: the remaining SQL is a superset
prefilter and the executor re-checks each fetched row with the compiled
Python predicate (``exact=False``).  Dropping is sound because the
remaining conjuncts only ever shrink the fetched set toward the true
match set — with one documented exception inherited from the seed's
index planner: a dropped conjunct that would *raise* on some row (e.g. a
type-mismatched comparison) may never get the chance to, because the
prefilter already excluded that row.  Two shapes raise *unconditionally*
when evaluated — references to columns the table does not have, and
out-of-range parameters — so those abort the entire lowering instead of
dropping: the executor then scans every visible row with the Python
predicate, which raises exactly where the scanning oracle
(``tests/naive_executor.py``) does.

Exactness rules (``exact=True`` means the SQL is 3VL-identical to the
Python predicate, so the re-check is skipped):

* column comparisons require the column to be *clean* — it has never
  stored a value the shadow column misrepresents (huge ints and
  non-scalars are stored as text: ``lossy``; NaN binds as NULL:
  ``has_nan``) — else they drop;
* ``<``/``<=``/``>``/``>=``/``BETWEEN`` additionally require every stored
  value's order-rank to match the bound's rank (SQLite would happily
  order ``1 < 'x'`` across type classes where Python raises);
* ``LIKE`` lowers to the ``warp_like`` SQL function (exact Python
  semantics, including ``re.DOTALL`` and case sensitivity, which SQLite's
  native LIKE does not share) and requires no stored booleans
  (``str(True) != str(1)``);
* ``AND`` survives a dropped side (superset), ``OR`` does not; ``NOT``
  requires an exact operand (negating a superset is unsound).

ORDER BY lowers per item to a rank term (NULL < numbers < text, matching
:func:`repro.db.storage.order_key`), a numeric term, and a text term under
the ``warp_desc`` collation for DESC — which reproduces the seed's
negated-code-point quirk ('' sorts before 'z' descending) byte-for-byte.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.db.sql import ast
from repro.db.sql.compile import _like_regex
from repro.db.storage import order_key

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

_SQL_OP = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_RANGE_OPS = ("<", "<=", ">", ">=")


class ColumnState:
    """What a shadow column has ever stored — the monotone facts lowering
    consults at render time.  Maintained by the engine on every write and
    persisted with the table metadata (flags never reset, so a plan cached
    before a poisoning write renders correctly after it)."""

    __slots__ = ("ident", "ranks", "lossy", "has_nan", "has_bool")

    def __init__(self, ident: str) -> None:
        #: Quoted SQL identifier of the shadow column.
        self.ident = ident
        #: Order-key ranks (:func:`order_key`) of non-NULL stored values.
        self.ranks: set = set()
        #: Ever stored a value the shadow column cannot represent
        #: faithfully (huge int / non-scalar, both stored as text).
        self.lossy = False
        #: Ever stored a float NaN (bound as NULL).
        self.has_nan = False
        #: Ever stored a bool (bound as int; breaks str() round-trips).
        self.has_bool = False

    def clean(self) -> bool:
        return not (self.lossy or self.has_nan)

    def faithful(self) -> bool:
        """Shadow values are byte-identical to the stored Python values —
        safe to materialize row data from, bypassing the JSON blob."""
        return not (self.lossy or self.has_nan or self.has_bool)

    def to_list(self) -> list:
        return [sorted(self.ranks), self.lossy, self.has_nan, self.has_bool]

    def load_list(self, data: list) -> None:
        ranks, self.lossy, self.has_nan, self.has_bool = data
        self.ranks = set(ranks)


class _Drop(Exception):
    """This node cannot render; the parent may drop it (superset)."""


class _Abort(Exception):
    """Evaluating this node raises on *every* row (unknown column,
    missing parameter, constant type-mismatch): the whole lowering is
    abandoned so the full-scan re-check raises exactly as the oracle's
    scan does."""


def bindable(value) -> bool:
    """Values SQLite can bind without changing their comparison class."""
    if value is None or isinstance(value, str):
        return True
    if isinstance(value, bool):
        return True
    if isinstance(value, int):
        return _INT64_MIN <= value <= _INT64_MAX
    if isinstance(value, float):
        return value == value  # NaN binds as NULL — never bindable
    return False


# -- value/column sides -------------------------------------------------------


class _Value:
    __slots__ = ("getter",)

    def __init__(self, getter) -> None:
        self.getter = getter

    def resolve(self, params):
        return self.getter(params)


class _Col:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def state(self, states: Dict[str, ColumnState]) -> ColumnState:
        state = states.get(self.name)
        if state is None:
            # Unknown column: a scan raises per evaluated row — abort.
            raise _Abort()
        return state


def _value_side(expr: ast.Expr) -> Optional[_Value]:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return _Value(lambda params: value)
    if isinstance(expr, ast.Param):
        index = expr.index

        def getter(params):
            if index < len(params):
                return params[index]
            raise _Abort()  # a scan raises on every evaluated row

        return _Value(getter)
    if (
        isinstance(expr, ast.UnaryOp)
        and expr.op == "-"
        and isinstance(expr.operand, ast.Literal)
        and isinstance(expr.operand.value, (int, float))
        and not isinstance(expr.operand.value, bool)
    ):
        value = -expr.operand.value
        return _Value(lambda params: value)
    return None


def _side(expr: ast.Expr):
    if isinstance(expr, ast.ColumnRef):
        return _Col(expr.name)
    return _value_side(expr)


# -- lowering nodes -----------------------------------------------------------


class _Cmp:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right) -> None:
        self.op = op
        self.left = left
        self.right = right

    def render(self, params, states):
        op = self.op
        sql_parts: List[str] = []
        binds: List[object] = []
        resolved = []
        for side in (self.left, self.right):
            if isinstance(side, _Col):
                state = side.state(states)
                if not state.clean():
                    raise _Drop()
                resolved.append(state)
            else:
                value = side.resolve(params)
                if not bindable(value):
                    raise _Drop()
                resolved.append(_Value(lambda params, v=value: v))
        if op in _RANGE_OPS:
            self._check_ranks(resolved, params)
        for side in resolved:
            if isinstance(side, ColumnState):
                sql_parts.append(side.ident)
            else:
                sql_parts.append("?")
                binds.append(side.resolve(params))
        return f"({sql_parts[0]} {_SQL_OP[op]} {sql_parts[1]})", binds, True

    @staticmethod
    def _check_ranks(resolved, params) -> None:
        """Ordering comparisons only lower when SQLite's cross-type order
        can never be consulted: every side is NULL-or-one-rank and the
        ranks agree.  A constant cross-rank compare raises on every row
        in Python — abort, not drop."""
        col_ranks: set = set()
        value_rank: Optional[int] = None
        for side in resolved:
            if isinstance(side, ColumnState):
                col_ranks |= side.ranks
            else:
                value = side.resolve(params)
                if value is None:
                    # NULL bound: the comparison is NULL for every row in
                    # both systems, regardless of ranks.
                    return
                rank = order_key(value)[0]
                if value_rank is None:
                    value_rank = rank
                elif rank != value_rank:
                    raise _Abort()  # constant type error: raises per row
        if value_rank is not None:
            if not col_ranks <= {0, value_rank}:
                raise _Drop()
        else:
            # column-vs-column: all stored ranks must share one class
            if not (col_ranks <= {0, 1} or col_ranks <= {0, 2}):
                raise _Drop()


class _In:
    __slots__ = ("col", "items", "negated")

    def __init__(self, col: _Col, items, negated: bool) -> None:
        self.col = col
        self.items = items
        self.negated = negated

    def render(self, params, states):
        state = self.col.state(states)
        if not state.clean():
            raise _Drop()
        if not self.items:
            # SQLite defines `x IN ()` as constant false even for NULL x;
            # the closure returns NULL for NULL needles — not 3VL-identical.
            raise _Drop()
        binds = []
        for item in self.items:
            value = item.resolve(params)
            if not bindable(value):
                raise _Drop()
            binds.append(value)
        keyword = "NOT IN" if self.negated else "IN"
        placeholders = ", ".join("?" for _ in binds)
        return f"({state.ident} {keyword} ({placeholders}))", binds, True


class _Like:
    __slots__ = ("col", "pattern", "negated")

    def __init__(self, col: _Col, pattern: _Value, negated: bool) -> None:
        self.col = col
        self.pattern = pattern
        self.negated = negated

    def render(self, params, states):
        state = self.col.state(states)
        if not state.clean() or state.has_bool:
            raise _Drop()
        pattern = self.pattern.resolve(params)
        if isinstance(pattern, bool) or not bindable(pattern):
            raise _Drop()
        sql = f"warp_like(?, {state.ident})"
        if self.negated:
            sql = f"(NOT {sql})"
        return sql, [pattern], True


class _IsNull:
    __slots__ = ("side", "negated")

    def __init__(self, side, negated: bool) -> None:
        self.side = side
        self.negated = negated

    def render(self, params, states):
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        if isinstance(self.side, _Col):
            state = self.side.state(states)
            if not state.clean():
                raise _Drop()
            return f"({state.ident} {keyword})", [], True
        value = self.side.resolve(params)
        result = (value is not None) if self.negated else (value is None)
        return ("(1)" if result else "(0)"), [], True


class _And:
    __slots__ = ("children", "complete")

    def __init__(self, children, complete: bool) -> None:
        #: Built children; statically unlowerable conjuncts are gaps
        #: recorded only through ``complete=False``.
        self.children = children
        self.complete = complete

    def render(self, params, states):
        parts: List[str] = []
        binds: List[object] = []
        exact = self.complete
        for child in self.children:
            try:
                sql, child_binds, child_exact = child.render(params, states)
            except _Drop:
                exact = False
                continue
            parts.append(sql)
            binds.extend(child_binds)
            exact = exact and child_exact
        if not parts:
            raise _Drop()
        return "(" + " AND ".join(parts) + ")", binds, exact


class _Or:
    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right

    def render(self, params, states):
        left_sql, left_binds, left_exact = self.left.render(params, states)
        right_sql, right_binds, right_exact = self.right.render(params, states)
        return (
            f"({left_sql} OR {right_sql})",
            left_binds + right_binds,
            left_exact and right_exact,
        )


class _Not:
    __slots__ = ("child",)

    def __init__(self, child) -> None:
        self.child = child

    def render(self, params, states):
        sql, binds, exact = self.child.render(params, states)
        if not exact:
            raise _Drop()  # the negation of a superset is not a superset
        return f"(NOT {sql})", binds, True


# -- build phase --------------------------------------------------------------


def build_lowering(where: Optional[ast.Expr]):
    """Lowering tree for a WHERE clause, or None when nothing lowers.

    The returned tree is parameter-free and flag-free; everything dynamic
    happens in :func:`render_where`.
    """
    if where is None:
        return None
    return _build(where)


def _build(expr: ast.Expr):
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        if op == "AND":
            built_left = _build(expr.left)
            built_right = _build(expr.right)
            children = [c for c in (built_left, built_right) if c is not None]
            if not children:
                return None
            return _And(children, complete=len(children) == 2)
        if op == "OR":
            built_left = _build(expr.left)
            built_right = _build(expr.right)
            if built_left is None or built_right is None:
                return None
            return _Or(built_left, built_right)
        if op in _SQL_OP:
            left = _side(expr.left)
            right = _side(expr.right)
            if left is None or right is None:
                return None
            if op in _RANGE_OPS and not (
                isinstance(left, _Col) or isinstance(right, _Col)
            ):
                # value-vs-value ordering still needs rank agreement
                # checking at render time — handled by _Cmp.
                pass
            return _Cmp(op, left, right)
        return None  # arithmetic, '||', '%': evaluated in Python only
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            child = _build(expr.operand)
            if child is None:
                return None
            return _Not(child)
        return None
    if isinstance(expr, ast.InList):
        if not isinstance(expr.needle, ast.ColumnRef):
            return None
        items = []
        for item in expr.items:
            value = _value_side(item)
            if value is None:
                return None
            items.append(value)
        return _In(_Col(expr.needle.name), tuple(items), expr.negated)
    if isinstance(expr, ast.Like):
        if not isinstance(expr.operand, ast.ColumnRef):
            return None
        pattern = _value_side(expr.pattern)
        if pattern is None:
            return None
        return _Like(_Col(expr.operand.name), pattern, expr.negated)
    if isinstance(expr, ast.Between):
        side = _side(expr.operand)
        low = _value_side(expr.low)
        high = _value_side(expr.high)
        if not isinstance(side, _Col) or low is None or high is None:
            return None
        return _Between(side, low, high)
    if isinstance(expr, ast.IsNull):
        side = _side(expr.operand)
        if side is None:
            return None
        return _IsNull(side, expr.negated)
    # Literal / Param / ColumnRef as a bare boolean term: SQLite's text
    # truthiness ('x' coerces to 0) diverges from Python's — never lower.
    return None


class _Between:
    __slots__ = ("col", "low", "high")

    def __init__(self, col: _Col, low: _Value, high: _Value) -> None:
        self.col = col
        self.low = low
        self.high = high

    def render(self, params, states):
        state = self.col.state(states)
        if not state.clean():
            raise _Drop()
        low = self.low.resolve(params)
        high = self.high.resolve(params)
        if low is None or high is None:
            # The closure returns NULL whenever any of the three operands is
            # NULL; SQL's desugared (c >= lo AND c <= hi) can yield plain
            # false instead — truthy-equal, but not 3VL-exact.
            raise _Drop()
        if not (bindable(low) and bindable(high)):
            raise _Drop()
        low_rank = order_key(low)[0]
        if order_key(high)[0] != low_rank:
            raise _Abort()  # low <= c <= high raises on every row reached
        if not state.ranks <= {0, low_rank}:
            raise _Drop()
        return f"({state.ident} BETWEEN ? AND ?)", [low, high], True


# -- render phase -------------------------------------------------------------


def render_where(
    node, params: Sequence[object], states: Dict[str, ColumnState]
) -> Tuple[Optional[str], List[object], bool]:
    """Render a lowering tree against concrete parameters and column
    state.  Returns ``(sql, binds, exact)``; ``sql=None`` means no
    prefilter could be rendered (scan everything, re-check in Python)."""
    if node is None:
        return None, [], False
    try:
        sql, binds, exact = node.render(params, states)
    except (_Drop, _Abort):
        return None, [], False
    return sql, binds, exact


def render_order(
    items: Tuple[Tuple[str, bool], ...], states: Dict[str, ColumnState]
) -> Optional[str]:
    """ORDER BY terms matching :func:`repro.db.planner.sort_key` exactly,
    or None when some column's stored values make native ordering unsound
    (lossy text stand-ins, NaN-as-NULL).  Booleans are fine: they are
    stored as ints and sort exactly like ``order_key`` ranks them.

    Each DESC item expands to three terms: the type rank inverted (text,
    then numbers, then NULL), the numeric slice descending, and the text
    slice ascending under ``warp_desc`` — the negated-code-point collation
    that reproduces the seed's quirk ('' before 'z' descending).
    """
    terms: List[str] = []
    for name, descending in items:
        state = states.get(name)
        if state is None or state.lossy or state.has_nan:
            return None
        ident = state.ident
        if not descending:
            terms.append(f"{ident} ASC")
        else:
            terms.append(
                f"(CASE WHEN {ident} IS NULL THEN 2 "
                f"WHEN typeof({ident}) IN ('integer', 'real') THEN 1 "
                f"ELSE 0 END) ASC"
            )
            terms.append(
                f"(CASE WHEN typeof({ident}) IN ('integer', 'real') "
                f"THEN {ident} END) DESC"
            )
            terms.append(
                f"(CASE WHEN typeof({ident}) NOT IN ('integer', 'real') "
                f"THEN {ident} END) COLLATE warp_desc ASC"
            )
    return ", ".join(terms)


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


# -- SQL callables registered per connection ----------------------------------


def warp_like(pattern, operand):
    """SQL function with :mod:`repro.db.sql.compile`'s LIKE semantics —
    ``re.DOTALL``, case-sensitive, ``str()`` coercion of both sides —
    which SQLite's native LIKE (case-insensitive ASCII) does not share."""
    if pattern is None or operand is None:
        return None
    return 1 if _like_regex(str(pattern)).match(str(operand)) else 0


def warp_desc_cmp(a: str, b: str) -> int:
    """Collation mirroring :func:`repro.db.storage.descending_order_key`
    for strings: compare negated code points, shorter string first on a
    shared prefix ('' sorts before 'z')."""
    for x, y in zip(a, b):
        if x != y:
            return -1 if x > y else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) < len(b) else 1
