"""Recursive-descent parser for the SQL subset.

``parse(sql)`` returns a :class:`repro.db.sql.ast.Statement`.  It keeps
no cache of its own: the serving and repair paths reach it through
``Executor.prepare``, whose plan cache holds the parsed statement.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.errors import SqlError
from repro.db.sql import ast
from repro.db.sql.lexer import Token, tokenize

_AGGREGATES = {"COUNT", "SUM", "MAX", "MIN", "AVG"}
_SCALAR_FUNCS = {"LOWER", "UPPER", "LENGTH", "COALESCE", "ABS", "SUBSTR"}


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement (a trailing semicolon is tolerated)."""
    return _Parser(tokenize(sql)).parse_statement()


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._param_count = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._next()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise SqlError(f"expected {word}, found {self._peek().value!r}")

    def _accept_op(self, op: str) -> bool:
        if self._peek().is_op(op):
            self._next()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            raise SqlError(f"expected {op!r}, found {self._peek().value!r}")

    def _expect_ident(self) -> str:
        tok = self._next()
        if tok.kind != "IDENT":
            raise SqlError(f"expected identifier, found {tok.value!r}")
        return tok.value

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        tok = self._peek()
        if tok.is_keyword("SELECT"):
            stmt = self._parse_select()
        elif tok.is_keyword("INSERT"):
            stmt = self._parse_insert()
        elif tok.is_keyword("UPDATE"):
            stmt = self._parse_update()
        elif tok.is_keyword("DELETE"):
            stmt = self._parse_delete()
        else:
            raise SqlError(f"unsupported statement start: {tok.value!r}")
        # Tolerate one trailing semicolon-free EOF only.
        if not self._peek().kind == "EOF":
            raise SqlError(f"trailing tokens after statement: {self._peek().value!r}")
        return stmt

    def _parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items: Tuple[ast.SelectItem, ...]
        if self._accept_op("*"):
            items = ()
        else:
            parsed = [self._parse_select_item()]
            while self._accept_op(","):
                parsed.append(self._parse_select_item())
            items = tuple(parsed)
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where = self._parse_opt_where()
        order_by: Tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            orders = [self._parse_order_item()]
            while self._accept_op(","):
                orders.append(self._parse_order_item())
            order_by = tuple(orders)
        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_int_literal()
            if self._accept_keyword("OFFSET"):
                offset = self._parse_int_literal()
        return ast.Select(
            table=table,
            items=items,
            where=where,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().kind == "IDENT":
            alias = self._expect_ident()
        return ast.SelectItem(expr=expr, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def _parse_int_literal(self) -> int:
        tok = self._next()
        if tok.kind != "NUMBER" or not isinstance(tok.value, int):
            raise SqlError("LIMIT/OFFSET must be integer literals")
        return tok.value

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        self._expect_op("(")
        columns = [self._expect_ident()]
        while self._accept_op(","):
            columns.append(self._expect_ident())
        self._expect_op(")")
        self._expect_keyword("VALUES")
        rows = [self._parse_value_tuple(len(columns))]
        while self._accept_op(","):
            rows.append(self._parse_value_tuple(len(columns)))
        return ast.Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def _parse_value_tuple(self, arity: int) -> Tuple[ast.Expr, ...]:
        self._expect_op("(")
        values = [self._parse_expr()]
        while self._accept_op(","):
            values.append(self._parse_expr())
        self._expect_op(")")
        if len(values) != arity:
            raise SqlError(
                f"INSERT arity mismatch: {arity} columns, {len(values)} values"
            )
        return tuple(values)

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_op(","):
            assignments.append(self._parse_assignment())
        where = self._parse_opt_where()
        return ast.Update(table=table, assignments=tuple(assignments), where=where)

    def _parse_assignment(self) -> Tuple[str, ast.Expr]:
        column = self._expect_ident()
        self._expect_op("=")
        return column, self._parse_expr()

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where = self._parse_opt_where()
        return ast.Delete(table=table, where=where)

    def _parse_opt_where(self) -> Optional[ast.Expr]:
        if self._accept_keyword("WHERE"):
            return self._parse_expr()
        return None

    # -- expressions (precedence climbing) ----------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        tok = self._peek()
        if tok.kind == "OP" and tok.value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            op = self._next().value
            if op == "<>":
                op = "!="
            return ast.BinaryOp(op, left, self._parse_additive())
        if tok.is_keyword("IS"):
            self._next()
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated=negated)
        negated = False
        if tok.is_keyword("NOT"):
            # NOT IN / NOT LIKE / NOT BETWEEN
            self._next()
            negated = True
            tok = self._peek()
        if tok.is_keyword("IN"):
            self._next()
            self._expect_op("(")
            items = [self._parse_expr()]
            while self._accept_op(","):
                items.append(self._parse_expr())
            self._expect_op(")")
            return ast.InList(left, tuple(items), negated=negated)
        if tok.is_keyword("LIKE"):
            self._next()
            return ast.Like(left, self._parse_additive(), negated=negated)
        if tok.is_keyword("BETWEEN"):
            self._next()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            expr: ast.Expr = ast.Between(left, low, high)
            if negated:
                expr = ast.UnaryOp("NOT", expr)
            return expr
        if negated:
            raise SqlError("dangling NOT in expression")
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            tok = self._peek()
            if tok.kind == "OP" and tok.value in ("+", "-", "||"):
                op = self._next().value
                left = ast.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            if tok.kind == "OP" and tok.value in ("*", "/", "%"):
                op = self._next().value
                left = ast.BinaryOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        if self._accept_op("-"):
            return ast.UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self._next()
        if tok.kind == "NUMBER":
            return ast.Literal(tok.value)
        if tok.kind == "STRING":
            return ast.Literal(tok.value)
        if tok.is_keyword("NULL"):
            return ast.Literal(None)
        if tok.is_keyword("TRUE"):
            return ast.Literal(True)
        if tok.is_keyword("FALSE"):
            return ast.Literal(False)
        if tok.is_op("?"):
            param = ast.Param(self._param_count)
            self._param_count += 1
            return param
        if tok.is_op("("):
            expr = self._parse_expr()
            self._expect_op(")")
            return expr
        if tok.kind == "IDENT":
            return self._parse_ident_expr(tok.value)
        raise SqlError(f"unexpected token {tok.value!r} in expression")

    def _parse_ident_expr(self, name: str) -> ast.Expr:
        upper = name.upper()
        if self._accept_op("("):
            if upper in _AGGREGATES:
                if self._accept_op("*"):
                    self._expect_op(")")
                    return ast.Aggregate(upper, None)
                arg = self._parse_expr()
                self._expect_op(")")
                return ast.Aggregate(upper, arg)
            if upper in _SCALAR_FUNCS:
                args: List[ast.Expr] = []
                if not self._accept_op(")"):
                    args.append(self._parse_expr())
                    while self._accept_op(","):
                        args.append(self._parse_expr())
                    self._expect_op(")")
                return ast.FuncCall(upper, tuple(args))
            raise SqlError(f"unknown function {name!r}")
        if self._accept_op("."):
            column = self._expect_ident()
            return ast.ColumnRef(name=column, table=name)
        return ast.ColumnRef(name=name)
