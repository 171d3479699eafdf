"""Closure compilation for SQL expressions — the in-process evaluator.

``compile_expr`` turns an AST node into a plain Python closure
``(row, params) -> value`` once per prepared statement, so a statement
never walks its AST per row.  SQL three-valued logic is implemented to
the extent the applications need: any comparison involving NULL yields
NULL, ``AND`` / ``OR`` propagate NULL, and a WHERE clause accepts a row
only when the predicate is truthy (NULL is false at the filter boundary).
COALESCE evaluates all its arguments; comparing incompatible types
raises ``SqlError``.

This module also owns the LIKE and text-coercion helpers the SQLite
lowering (:mod:`repro.db.sql.lower`) shares with it.  The reference it
is held to is a tree-walking evaluator kept on the test side
(``tests/naive_executor.py``): ``tests/test_sql_eval.py`` runs the same
unit cases through both and ``tests/test_executor_property.py`` compares
whole workloads.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Optional, Sequence

from repro.core.errors import SqlError
from repro.db.sql import ast

CompiledExpr = Callable[[Dict[str, object], Sequence[object]], object]


def compile_expr(expr: ast.Expr) -> CompiledExpr:
    """Compile ``expr`` into a ``(row, params) -> value`` closure."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, params: value

    if isinstance(expr, ast.Param):
        index = expr.index

        def param_fn(row, params):
            if index >= len(params):
                raise SqlError(
                    f"query references parameter {index + 1} but only "
                    f"{len(params)} supplied"
                )
            return params[index]

        return param_fn

    if isinstance(expr, ast.ColumnRef):
        name = expr.name

        def column_fn(row, params):
            try:
                return row[name]
            except KeyError:
                raise SqlError(f"unknown column {name!r}") from None

        return column_fn

    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr)

    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand)
        if expr.op == "NOT":

            def not_fn(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                return not bool(value)

            return not_fn
        if expr.op == "-":

            def neg_fn(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                return -value

            return neg_fn
        op = expr.op
        return _raiser(lambda: SqlError(f"unknown unary operator {op!r}"))

    if isinstance(expr, ast.InList):
        needle = compile_expr(expr.needle)
        items = tuple(compile_expr(item) for item in expr.items)
        negated = expr.negated

        def in_fn(row, params):
            value = needle(row, params)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row, params)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not negated
            if saw_null:
                return None
            return negated

        return in_fn

    if isinstance(expr, ast.Like):
        operand = compile_expr(expr.operand)
        negated = expr.negated
        if isinstance(expr.pattern, ast.Literal) and expr.pattern.value is not None:
            regex = _like_regex(str(expr.pattern.value))

            def like_const_fn(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                matched = regex.match(str(value)) is not None
                return not matched if negated else matched

            return like_const_fn
        pattern = compile_expr(expr.pattern)

        def like_fn(row, params):
            value = operand(row, params)
            pat = pattern(row, params)
            if value is None or pat is None:
                return None
            matched = _like_regex(str(pat)).match(str(value)) is not None
            return not matched if negated else matched

        return like_fn

    if isinstance(expr, ast.Between):
        operand = compile_expr(expr.operand)
        low = compile_expr(expr.low)
        high = compile_expr(expr.high)

        def between_fn(row, params):
            value = operand(row, params)
            lo = low(row, params)
            hi = high(row, params)
            if value is None or lo is None or hi is None:
                return None
            return lo <= value <= hi

        return between_fn

    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand)
        negated = expr.negated

        def isnull_fn(row, params):
            result = operand(row, params) is None
            return not result if negated else result

        return isnull_fn

    if isinstance(expr, ast.FuncCall):
        return _compile_func(expr)

    if isinstance(expr, ast.Aggregate):
        return _raiser(lambda: SqlError("aggregate used outside of a SELECT list"))

    kind = type(expr).__name__
    return _raiser(lambda: SqlError(f"cannot evaluate expression node {kind}"))


def compile_predicate(where: Optional[ast.Expr]) -> Optional[CompiledExpr]:
    """Compile a WHERE clause into a truthiness-checked row predicate."""
    if where is None:
        return None
    fn = compile_expr(where)

    def predicate(row, params):
        value = fn(row, params)
        return bool(value) and value is not None

    return predicate


def compile_aggregate(name: str, arg: Optional[ast.Expr]):
    """Compile an aggregate into ``(datas, params) -> value``; NULLs are
    skipped and an empty (or all-NULL) input yields NULL, COUNT aside."""
    if name == "COUNT":
        if arg is None:
            return lambda datas, params: len(datas)
        arg_fn = compile_expr(arg)
        return lambda datas, params: sum(
            1 for row in datas if arg_fn(row, params) is not None
        )
    arg_fn = compile_expr(arg) if arg is not None else None

    def agg_fn(datas, params):
        values = [arg_fn(row, params) for row in datas]
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

    return agg_fn


# -- helpers -----------------------------------------------------------------


def _raiser(make_error) -> CompiledExpr:
    def fn(row, params):
        raise make_error()

    return fn


#: Bound on compiled LIKE patterns, with the plan cache's policy and for
#: its reason: pattern texts arrive from outside (an injected
#: ``LIKE '...'``, a ``LIKE ?`` over a request parameter), so the cache is
#: cleared whole when full.
_LIKE_CACHE_MAX = 4096

_LIKE_CACHE: Dict[str, "re.Pattern[str]"] = {}


def _like_regex(pattern: str) -> "re.Pattern[str]":
    cached = _LIKE_CACHE.get(pattern)
    if cached is not None:
        return cached
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    compiled = re.compile("^" + "".join(out) + "$", re.DOTALL)
    if len(_LIKE_CACHE) >= _LIKE_CACHE_MAX:
        _LIKE_CACHE.clear()
    _LIKE_CACHE[pattern] = compiled
    return compiled


def _as_text(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _compile_binary(expr: ast.BinaryOp) -> CompiledExpr:
    op = expr.op
    left_fn = compile_expr(expr.left)
    right_fn = compile_expr(expr.right)

    if op == "AND":

        def and_fn(row, params):
            left = left_fn(row, params)
            if left is False:
                return False
            right = right_fn(row, params)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return bool(left) and bool(right)

        return and_fn

    if op == "OR":

        def or_fn(row, params):
            left = left_fn(row, params)
            if left is True or (left is not None and left not in (False, 0)):
                if left is True or bool(left):
                    return True
            right = right_fn(row, params)
            if right is not None and bool(right):
                return True
            if left is None or right is None:
                return None
            return bool(left) or bool(right)

        return or_fn

    if op == "||":

        def concat_fn(row, params):
            left = left_fn(row, params)
            right = right_fn(row, params)
            if left is None or right is None:
                return None
            return _as_text(left) + _as_text(right)

        return concat_fn

    if op == "=":

        def eq_fn(row, params):
            left = left_fn(row, params)
            right = right_fn(row, params)
            if left is None or right is None:
                return None
            return left == right

        return eq_fn

    if op == "!=":

        def ne_fn(row, params):
            left = left_fn(row, params)
            right = right_fn(row, params)
            if left is None or right is None:
                return None
            return left != right

        return ne_fn

    if op in ("<", "<=", ">", ">="):
        import operator as _operator

        cmp = {
            "<": _operator.lt,
            "<=": _operator.le,
            ">": _operator.gt,
            ">=": _operator.ge,
        }[op]

        def cmp_fn(row, params):
            left = left_fn(row, params)
            right = right_fn(row, params)
            if left is None or right is None:
                return None
            try:
                return cmp(left, right)
            except TypeError:
                raise SqlError(
                    f"cannot compare {type(left).__name__} with {type(right).__name__}"
                ) from None

        return cmp_fn

    if op in ("+", "-", "*", "/", "%"):

        def arith_fn(row, params):
            left = left_fn(row, params)
            right = right_fn(row, params)
            if left is None or right is None:
                return None
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

        return arith_fn

    return _raiser(lambda: SqlError(f"unknown binary operator {op!r}"))


def _compile_func(expr: ast.FuncCall) -> CompiledExpr:
    name = expr.name
    arg_fns = tuple(compile_expr(arg) for arg in expr.args)

    if name == "COALESCE":

        def coalesce_fn(row, params):
            # Every argument is evaluated before picking (no
            # short-circuit): an erroring later argument still raises.
            args = [fn(row, params) for fn in arg_fns]
            for arg in args:
                if arg is not None:
                    return arg
            return None

        return coalesce_fn

    if name in ("LOWER", "UPPER", "LENGTH", "ABS"):
        if name == "LOWER":
            post = lambda v: str(v).lower()  # noqa: E731
        elif name == "UPPER":
            post = lambda v: str(v).upper()  # noqa: E731
        elif name == "LENGTH":
            post = lambda v: len(str(v))  # noqa: E731
        else:
            post = abs

        def unary_func_fn(row, params):
            # All args first, as COALESCE does.
            args = [fn(row, params) for fn in arg_fns]
            return None if args[0] is None else post(args[0])

        return unary_func_fn

    if name == "SUBSTR":

        def substr_fn(row, params):
            args = [fn(row, params) for fn in arg_fns]
            if args[0] is None:
                return None
            text = str(args[0])
            start = int(args[1]) - 1 if len(args) > 1 else 0
            if len(args) > 2:
                return text[start : start + int(args[2])]
            return text[start:]

        return substr_fn

    def unknown_fn(row, params):
        [fn(row, params) for fn in arg_fns]
        raise SqlError(f"unknown function {name!r}")

    return unknown_fn
