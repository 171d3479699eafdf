"""The oracle stays an oracle.

``tests/naive_executor.py`` is what the equivalence properties compare
production against.  A comparison of production with itself passes
whatever production does, so this file pins the separation: a statement
run through :class:`NaiveExecutor` touches none of the prepared
statement's compiled members and no engine fast path, nothing under
``src/`` can reach the oracle or the module it replaced, and the switch
that used to select it in-process is gone from the executor's signature.
"""

import ast as python_ast
import pathlib

import pytest

from repro.core.clock import INFINITY
from repro.db.engine import create_database
from repro.db.executor import ExecContext, Executor
from repro.db.sql.parser import parse
from repro.db.sqlite_engine import SqliteTable
from repro.db.storage import Column, TableSchema

from naive_executor import NaiveExecutor

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCHEMA = TableSchema(
    name="pages",
    columns=(Column("page_id", "int"), Column("title"), Column("score", "int")),
    row_id_column="page_id",
    partition_columns=("title",),
)

#: One statement per kind the executor dispatches on (SELECT twice: the
#: aggregate and the projected / ordered shapes compile different members).
STATEMENTS = (
    ("INSERT INTO pages (page_id, title, score) VALUES (?, ?, 1 + 1)", (9, "T9")),
    (
        "SELECT title, score + 1 AS next FROM pages WHERE score >= ? "
        "ORDER BY LOWER(title) DESC",
        (1,),
    ),
    ("SELECT COUNT(*), MAX(score) FROM pages WHERE title LIKE ?", ("T%",)),
    ("UPDATE pages SET score = score + ? WHERE title = ?", (5, "T1")),
    # On SQLite only ``score > ?`` narrows the rows; ``pred`` decides each.
    ("DELETE FROM pages WHERE score > ? AND LENGTH(title) = ?", (2, 2)),
)

#: The members of a prepared statement that evaluate something.
COMPILED_MEMBERS = (
    "pred",
    "select_items",
    "agg_items",
    "sort_items",
    "assignments",
    "insert_rows",
)


def spy_on(plan, calls):
    """Wrap every compiled closure of ``plan`` so a call is recorded under
    the member's name."""

    def wrap(value, name):
        if callable(value):

            def spied(*args):
                calls.append(name)
                return value(*args)

            return spied
        if isinstance(value, tuple):
            return tuple(wrap(item, name) for item in value)
        return value

    for name in COMPILED_MEMBERS:
        setattr(plan, name, wrap(getattr(plan, name), name))


@pytest.fixture
def calls(monkeypatch):
    """Records every call of a spied compiled member, of the production
    access-path entry and of the SQLite engine's fast path."""
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def spied(self, *args):
            calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(owner, name, spied)

    spy(Executor, "_matching")
    spy(SqliteTable, "fetch_plan")
    return calls


def run_statements(executor_class, backend, calls, path):
    """Run ``STATEMENTS`` (and ``matching_rows`` for the writes) through
    ``executor_class`` over three seeded rows; return what the spies saw
    and what the statements returned."""
    database = create_database(backend, path=str(path))
    database.create_table(SCHEMA)
    executor = executor_class(database)
    ts = 0
    for page_id in (1, 2, 3):
        ts += 1
        executor.execute(
            executor.prepare(
                f"INSERT INTO pages (page_id, title, score) "
                f"VALUES ({page_id}, 'T{page_id}', {page_id})"
            ),
            (),
            ExecContext(ts=ts, gen=0, current_gen=0),
        )
    del calls[:]
    outcomes = []
    for sql, params in STATEMENTS:
        plan = executor.prepare(sql)
        spy_on(plan, calls)
        ts += 1
        ctx = ExecContext(ts=ts, gen=0, current_gen=0)
        if plan.kind in ("update", "delete"):
            matched = executor.matching_rows(plan, params, ctx)
            outcomes.append([version.row_id for version in matched])
        outcomes.append(executor.execute(plan, params, ctx).snapshot())
    return set(calls), outcomes


@pytest.mark.parametrize("backend", ["python", "sqlite"])
def test_the_oracle_calls_nothing_production_compiled(backend, calls, tmp_path):
    seen, outcomes = run_statements(NaiveExecutor, backend, calls, tmp_path / "n")
    assert seen == set()
    # The spies are live: the same statements through the production
    # executor reach every compiled member and the engine's fast path.
    seen, expected = run_statements(Executor, backend, calls, tmp_path / "p")
    reached = set(COMPILED_MEMBERS) | {"_matching"}
    if backend == "sqlite":
        reached.add("fetch_plan")
    assert seen >= reached
    assert outcomes == expected


def test_the_oracle_overrides_every_statement_kind():
    overridden = vars(NaiveExecutor)
    for name in ("_select", "_insert", "_update", "_delete", "matching_rows"):
        assert name in overridden, name


def test_nothing_under_src_can_reach_the_oracle():
    assert not (SRC / "repro" / "db" / "sql" / "eval.py").exists()
    imported = set()
    for path in SRC.rglob("*.py"):
        tree = python_ast.parse(path.read_text(encoding="utf-8"))
        for node in python_ast.walk(tree):
            if isinstance(node, python_ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, python_ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    offending = {
        name
        for name in imported
        if name.split(".")[0] in ("tests", "naive_executor")
        or name.startswith("repro.db.sql.eval")
    }
    assert offending == set()


def test_the_removed_switch_and_the_bare_ast_are_type_errors():
    database = create_database("python")
    database.create_table(SCHEMA)
    with pytest.raises(TypeError):
        Executor(database, use_planner=False)
    executor = Executor(database)
    assert not hasattr(executor, "use_planner")
    sql = "SELECT * FROM pages"
    ctx = ExecContext(ts=INFINITY - 1, gen=0, current_gen=0)
    with pytest.raises(TypeError):
        executor.execute(parse(sql), (), ctx)
    with pytest.raises(TypeError):
        executor.execute(parse(sql), (), ctx, executor.prepare(sql))
    assert executor.execute(executor.prepare(sql), (), ctx).rows == []
