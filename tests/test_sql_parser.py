"""Unit tests for the SQL parser."""

import pytest

from repro.core.errors import SqlError
from repro.db.sql import ast
from repro.db.sql.parser import parse


class TestSelect:
    def test_select_star(self):
        stmt = parse("SELECT * FROM pages")
        assert isinstance(stmt, ast.Select)
        assert stmt.table == "pages"
        assert stmt.is_star
        assert stmt.where is None

    def test_select_columns(self):
        stmt = parse("SELECT title, body FROM pages")
        names = [item.expr.name for item in stmt.items]
        assert names == ["title", "body"]

    def test_select_alias(self):
        stmt = parse("SELECT title AS t FROM pages")
        assert stmt.items[0].alias == "t"

    def test_select_implicit_alias(self):
        stmt = parse("SELECT title t FROM pages")
        assert stmt.items[0].alias == "t"

    def test_where_equality(self):
        stmt = parse("SELECT * FROM pages WHERE title = 'Home'")
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.op == "="

    def test_where_param(self):
        stmt = parse("SELECT * FROM pages WHERE title = ?")
        assert isinstance(stmt.where.right, ast.Param)
        assert stmt.where.right.index == 0

    def test_multiple_params_indexed_in_order(self):
        stmt = parse("SELECT * FROM t WHERE a = ? AND b = ?")
        left, right = stmt.where.left, stmt.where.right
        assert left.right.index == 0
        assert right.right.index == 1

    def test_order_by_desc(self):
        stmt = parse("SELECT * FROM t ORDER BY ts DESC, id")
        assert stmt.order_by[0].descending is True
        assert stmt.order_by[1].descending is False

    def test_limit_offset(self):
        stmt = parse("SELECT * FROM t LIMIT 10 OFFSET 5")
        assert stmt.limit == 10
        assert stmt.offset == 5

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_count_star(self):
        stmt = parse("SELECT COUNT(*) FROM t")
        agg = stmt.items[0].expr
        assert isinstance(agg, ast.Aggregate)
        assert agg.name == "COUNT"
        assert agg.arg is None
        assert stmt.is_aggregate

    def test_max_column(self):
        stmt = parse("SELECT MAX(ts) FROM t")
        assert stmt.items[0].expr.name == "MAX"

    def test_in_list(self):
        stmt = parse("SELECT * FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(stmt.where, ast.InList)
        assert len(stmt.where.items) == 3

    def test_not_in_list(self):
        stmt = parse("SELECT * FROM t WHERE a NOT IN (1)")
        assert stmt.where.negated

    def test_like(self):
        stmt = parse("SELECT * FROM t WHERE a LIKE 'x%'")
        assert isinstance(stmt.where, ast.Like)

    def test_between(self):
        stmt = parse("SELECT * FROM t WHERE a BETWEEN 1 AND 5")
        assert isinstance(stmt.where, ast.Between)

    def test_is_null(self):
        stmt = parse("SELECT * FROM t WHERE a IS NULL")
        assert isinstance(stmt.where, ast.IsNull)
        assert not stmt.where.negated

    def test_is_not_null(self):
        stmt = parse("SELECT * FROM t WHERE a IS NOT NULL")
        assert stmt.where.negated

    def test_and_or_precedence(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        # OR binds loosest: (a=1) OR ((b=2) AND (c=3))
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_parenthesized_expression(self):
        stmt = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert stmt.where.op == "AND"
        assert stmt.where.left.op == "OR"

    def test_concat_expression(self):
        stmt = parse("SELECT a || 'x' FROM t")
        assert stmt.items[0].expr.op == "||"

    def test_arith_precedence(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 + 2 * 3")
        add = stmt.where.right
        assert add.op == "+"
        assert add.right.op == "*"

    def test_qualified_column(self):
        stmt = parse("SELECT * FROM t WHERE t.a = 1")
        assert stmt.where.left.table == "t"
        assert stmt.where.left.name == "a"

    def test_scalar_function(self):
        stmt = parse("SELECT LOWER(name) FROM t")
        assert isinstance(stmt.items[0].expr, ast.FuncCall)

    def test_unknown_function_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT EVIL(name) FROM t")


class TestInsert:
    def test_basic(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x')")
        assert isinstance(stmt, ast.Insert)
        assert stmt.columns == ("a", "b")
        assert len(stmt.rows) == 1

    def test_multi_row(self):
        stmt = parse("INSERT INTO t (a) VALUES (1), (2), (3)")
        assert len(stmt.rows) == 3

    def test_params(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (?, ?)")
        assert stmt.rows[0][0].index == 0
        assert stmt.rows[0][1].index == 1

    def test_arity_mismatch(self):
        with pytest.raises(SqlError):
            parse("INSERT INTO t (a, b) VALUES (1)")


class TestUpdate:
    def test_basic(self):
        stmt = parse("UPDATE t SET a = 1, b = 'x' WHERE id = 3")
        assert isinstance(stmt, ast.Update)
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_no_where(self):
        stmt = parse("UPDATE t SET a = 1")
        assert stmt.where is None

    def test_self_referential_set(self):
        # The paper's SQL-injection payload shape (§8.5).
        stmt = parse("UPDATE pagecontent SET old_text = old_text || 'attack'")
        column, expr = stmt.assignments[0]
        assert column == "old_text"
        assert expr.op == "||"


class TestDelete:
    def test_basic(self):
        stmt = parse("DELETE FROM t WHERE id = 1")
        assert isinstance(stmt, ast.Delete)

    def test_no_where(self):
        assert parse("DELETE FROM t").where is None


class TestErrors:
    def test_unsupported_statement(self):
        with pytest.raises(SqlError):
            parse("CREATE TABLE t (a int)")

    def test_trailing_garbage(self):
        with pytest.raises(SqlError):
            parse("SELECT * FROM t garbage extra")

    def test_missing_from(self):
        with pytest.raises(SqlError):
            parse("SELECT a b c")

    def test_dangling_not(self):
        with pytest.raises(SqlError):
            parse("SELECT * FROM t WHERE a NOT 5")
