"""Unit tests for SQL expression evaluation.

Every case runs through both evaluators: the compiled closures production
executes (``repro.db.sql.compile``) and the tree-walking oracle they are
held to (``tests/naive_executor.py``)."""

from types import SimpleNamespace

import pytest

from repro.core.errors import SqlError
from repro.db.sql import ast
from repro.db.sql import compile as compile_module
from repro.db.sql.compile import compile_aggregate, compile_expr, compile_predicate
from repro.db.sql.parser import parse

from naive_executor import aggregate, evaluate, truthy

#: ``evaluate(expr, row, params)``, the WHERE boundary ``accepts(value)``
#: and ``aggregate(name, arg, rows, params)``, per evaluator.
EVALUATORS = {
    "tree_walk": SimpleNamespace(
        evaluate=evaluate, accepts=truthy, aggregate=aggregate
    ),
    "compiled": SimpleNamespace(
        evaluate=lambda expr, row, params: compile_expr(expr)(row, params),
        accepts=lambda value: compile_predicate(ast.Literal(value))({}, ()),
        aggregate=lambda name, arg, rows, params: compile_aggregate(name, arg)(
            rows, params
        ),
    ),
}


@pytest.fixture(params=sorted(EVALUATORS))
def evaluator(request):
    return EVALUATORS[request.param]


@pytest.fixture
def eval_where(evaluator):
    def run(sql_where, row, params=()):
        stmt = parse(f"SELECT * FROM t WHERE {sql_where}")
        return evaluator.evaluate(stmt.where, row, params)

    return run


@pytest.fixture
def eval_expr(evaluator):
    def run(sql_expr, row, params=()):
        stmt = parse(f"SELECT {sql_expr} FROM t")
        return evaluator.evaluate(stmt.items[0].expr, row, params)

    return run


@pytest.fixture
def accepts(evaluator):
    return evaluator.accepts


@pytest.fixture
def eval_aggregate(evaluator):
    def run(sql_aggregate, rows, params=()):
        node = parse(f"SELECT {sql_aggregate} FROM t").items[0].expr
        return evaluator.aggregate(node.name, node.arg, rows, params)

    return run


class TestComparisons:
    def test_equality(self, eval_where):
        assert eval_where("a = 1", {"a": 1}) is True
        assert eval_where("a = 1", {"a": 2}) is False

    def test_inequality(self, eval_where):
        assert eval_where("a != 'x'", {"a": "y"}) is True

    def test_ordering(self, eval_where):
        assert eval_where("a < 5", {"a": 3}) is True
        assert eval_where("a >= 5", {"a": 5}) is True

    def test_null_comparison_is_null(self, eval_where):
        assert eval_where("a = 1", {"a": None}) is None

    def test_incompatible_comparison_raises(self, eval_where):
        with pytest.raises(SqlError):
            eval_where("a < 'x'", {"a": 1})


class TestBooleanLogic:
    def test_and(self, eval_where):
        assert eval_where("a = 1 AND b = 2", {"a": 1, "b": 2}) is True
        assert eval_where("a = 1 AND b = 2", {"a": 1, "b": 3}) is False

    def test_or(self, eval_where):
        assert eval_where("a = 1 OR b = 2", {"a": 0, "b": 2}) is True

    def test_not(self, eval_where):
        assert eval_where("NOT a = 1", {"a": 2}) is True

    def test_and_short_circuit_false(self, eval_where):
        # False AND NULL is False, not NULL.
        assert eval_where("a = 1 AND b = 2", {"a": 0, "b": None}) is False

    def test_or_with_null_true_side(self, eval_where):
        assert eval_where("a = 1 OR b = 2", {"a": 1, "b": None}) is True

    def test_null_and_true_is_null(self, eval_where):
        assert eval_where("a = 1 AND b = 2", {"a": None, "b": 2}) is None

    def test_truthy_boundary(self, accepts):
        assert accepts(True)
        assert not accepts(None)
        assert not accepts(False)


class TestArithmeticAndStrings:
    def test_addition(self, eval_expr):
        assert eval_expr("a + 1", {"a": 4}) == 5

    def test_precedence(self, eval_expr):
        assert eval_expr("1 + 2 * 3", {}) == 7

    def test_integer_division(self, eval_expr):
        assert eval_expr("7 / 2", {}) == 3

    def test_float_division(self, eval_expr):
        assert eval_expr("7.0 / 2", {}) == pytest.approx(3.5)

    def test_division_by_zero_is_null(self, eval_expr):
        assert eval_expr("1 / 0", {}) is None

    def test_modulo(self, eval_expr):
        assert eval_expr("7 % 3", {}) == 1

    def test_unary_minus(self, eval_expr):
        assert eval_expr("-a", {"a": 5}) == -5

    def test_concat(self, eval_expr):
        assert eval_expr("a || '-suffix'", {"a": "page"}) == "page-suffix"

    def test_concat_coerces_numbers(self, eval_expr):
        assert eval_expr("'v' || 2", {}) == "v2"

    def test_concat_null_is_null(self, eval_expr):
        assert eval_expr("a || 'x'", {"a": None}) is None


class TestPredicates:
    def test_in(self, eval_where):
        assert eval_where("a IN (1, 2)", {"a": 2}) is True
        assert eval_where("a IN (1, 2)", {"a": 3}) is False

    def test_not_in(self, eval_where):
        assert eval_where("a NOT IN (1, 2)", {"a": 3}) is True

    def test_in_with_null_member_unmatched(self, eval_where):
        assert eval_where("a IN (1, NULL)", {"a": 3}) is None

    def test_like_percent(self, eval_where):
        assert eval_where("a LIKE 'wiki%'", {"a": "wikipage"}) is True
        assert eval_where("a LIKE 'wiki%'", {"a": "my-wiki"}) is False

    def test_like_underscore(self, eval_where):
        assert eval_where("a LIKE 'p_ge'", {"a": "page"}) is True

    def test_like_escapes_regex_chars(self, eval_where):
        assert eval_where("a LIKE 'a.b'", {"a": "a.b"}) is True
        assert eval_where("a LIKE 'a.b'", {"a": "axb"}) is False

    def test_distinct_like_patterns_do_not_grow_the_cache_without_limit(
        self, evaluator, eval_where
    ):
        # Pattern texts come from outside (``LIKE ?`` over a request
        # parameter, an injected ``LIKE '...'``): the plan cache's policy.
        where = parse("SELECT * FROM t WHERE a LIKE ?").where
        for index in range(10_000):
            matched = evaluator.evaluate(where, {"a": "p7x"}, (f"p{index}_",))
            assert matched is (index == 7)
        assert 0 < len(compile_module._LIKE_CACHE) <= compile_module._LIKE_CACHE_MAX
        assert eval_where("a LIKE 'a%b'", {"a": "a--b"}) is True
        assert eval_where("a LIKE 'a%b'", {"a": "a--c"}) is False
        assert eval_where("a LIKE 'a_b'", {"a": "a-b"}) is True
        assert eval_where("a LIKE 'a_b'", {"a": "a--b"}) is False
        assert eval_where("a LIKE '%'", {"a": ""}) is True
        assert eval_where("a LIKE '%'", {"a": "any\nthing"}) is True

    def test_between(self, eval_where):
        assert eval_where("a BETWEEN 1 AND 5", {"a": 3}) is True
        assert eval_where("a BETWEEN 1 AND 5", {"a": 6}) is False

    def test_is_null(self, eval_where):
        assert eval_where("a IS NULL", {"a": None}) is True
        assert eval_where("a IS NOT NULL", {"a": 1}) is True


class TestParams:
    def test_param_substitution(self, eval_where):
        assert eval_where("a = ?", {"a": 7}, params=(7,)) is True

    def test_missing_param_raises(self, eval_where):
        with pytest.raises(SqlError):
            eval_where("a = ?", {"a": 7}, params=())


class TestFunctions:
    def test_lower_upper(self, eval_expr):
        assert eval_expr("LOWER(a)", {"a": "ABC"}) == "abc"
        assert eval_expr("UPPER(a)", {"a": "abc"}) == "ABC"

    def test_length(self, eval_expr):
        assert eval_expr("LENGTH(a)", {"a": "abcd"}) == 4

    def test_coalesce(self, eval_expr):
        assert eval_expr("COALESCE(a, 'dflt')", {"a": None}) == "dflt"
        assert eval_expr("COALESCE(a, 'dflt')", {"a": "v"}) == "v"

    def test_substr(self, eval_expr):
        assert eval_expr("SUBSTR(a, 2, 3)", {"a": "abcdef"}) == "bcd"

    def test_unknown_column_raises(self, eval_expr):
        with pytest.raises(SqlError):
            eval_expr("nope", {"a": 1})


class TestAggregates:
    ROWS = [{"c": 3}, {"c": None}, {"c": 1}, {"c": None}, {"c": 8}]
    ALL_NULL = [{"c": None}, {"c": None}]

    def test_count_star_counts_rows(self, eval_aggregate):
        assert eval_aggregate("COUNT(*)", self.ROWS) == 5
        assert eval_aggregate("COUNT(*)", self.ALL_NULL) == 2
        assert eval_aggregate("COUNT(*)", []) == 0

    def test_count_column_skips_nulls(self, eval_aggregate):
        assert eval_aggregate("COUNT(c)", self.ROWS) == 3
        assert eval_aggregate("COUNT(c)", self.ALL_NULL) == 0
        assert eval_aggregate("COUNT(c)", []) == 0

    def test_reducers_skip_nulls(self, eval_aggregate):
        assert eval_aggregate("SUM(c)", self.ROWS) == 12
        assert eval_aggregate("AVG(c)", self.ROWS) == pytest.approx(4.0)
        assert eval_aggregate("MIN(c)", self.ROWS) == 1
        assert eval_aggregate("MAX(c)", self.ROWS) == 8

    @pytest.mark.parametrize("name", ["SUM", "AVG", "MIN", "MAX"])
    def test_reducers_over_nothing_are_null(self, eval_aggregate, name):
        assert eval_aggregate(f"{name}(c)", []) is None
        assert eval_aggregate(f"{name}(c)", self.ALL_NULL) is None

    def test_aggregate_over_an_expression(self, eval_aggregate):
        assert eval_aggregate("SUM(c + ?)", self.ROWS, params=(10,)) == 42

    def test_aggregate_argument_errors_surface(self, eval_aggregate):
        with pytest.raises(SqlError):
            eval_aggregate("SUM(nope)", self.ROWS)
