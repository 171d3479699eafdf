"""The SQLite engine's access paths, pinned by plan and by cost — not by
timing.

(a) ``EXPLAIN QUERY PLAN`` of every statement the engine emits for an
    equality on an ``_indexed_columns`` member is a ``SEARCH`` of the
    shadow table, never a ``SCAN`` — current and historical reads,
    versioned and plain, before and after ``_multi_open`` flips to the
    winner-first window query; likewise ``unique_conflict``'s probe.
(b) SQLite VM steps for one title lookup do not grow with the length of
    the history the table keeps.
(c) The window query that runs once a row has had two open versions —
    narrowed to the rows with a visible version satisfying the WHERE —
    returns what the memory engine and the naive executor
    (``tests/naive_executor.py``) return.
"""

import re

import pytest

from repro.apps.wiki.schema import WIKI_TABLES
from repro.core.clock import INFINITY
from repro.db.engine import create_database
from repro.db.executor import ExecContext, Executor
from repro.db.sql.lower import render_where
from repro.db.storage import Column, RowVersion, TableSchema

from naive_executor import NaiveExecutor


def record_statements(engine):
    """Every ``(group, sql, binds)`` the engine executes from now on."""
    seen = []
    execute = engine.execute

    def recording(group, sql, binds=()):
        seen.append((group, sql, tuple(binds)))
        return execute(group, sql, binds)

    engine.execute = recording
    return seen


def assert_searches(engine, table, statements):
    """Each recorded SELECT over ``table``'s shadow table searches it
    through an index; none scans it."""
    selects = [
        item
        for item in statements
        if item[1].startswith("SELECT") and table._sql_name in item[1]
    ]
    assert selects, "the engine issued no SELECT on the shadow table"
    shadow = table._sql_name.strip('"')
    for group, sql, binds in selects:
        plan = [
            row[3]
            for row in engine._connect(group).execute(
                "EXPLAIN QUERY PLAN " + sql, binds
            )
        ]
        context = f"{sql}\n" + "\n".join(plan)
        assert any(
            re.match(rf'SEARCH "?{shadow}\b.* USING ', detail) for detail in plan
        ), context
        assert not any(re.match(rf'SCAN "?{shadow}\b', detail) for detail in plan), (
            context
        )


# ---------------------------------------------------------------------------
# (a) plans
# ---------------------------------------------------------------------------


def sample_row(schema, n):
    return {
        col.name: n if col.type == "int" else bool(n % 2) if col.type == "bool" else f"v{n}"
        for col in schema.columns
    }


def wiki_table(schema, multi_open):
    """One wiki table holding two rows with a closed and an open version
    each, so both visibility shapes (``ts < _max_ts`` and not) exist."""
    engine = create_database("sqlite")
    table = engine.create_table(schema)
    for n in (1, 2):
        table.add_version(RowVersion(n, sample_row(schema, n), n, end_ts=n + 4))
        table.add_version(RowVersion(n, sample_row(schema, n), n + 4))
    assert not table._multi_open
    table._multi_open = multi_open
    return engine, table


INDEXED = [
    pytest.param(schema, column, id=f"{schema.name}.{column}")
    for schema in WIKI_TABLES
    for column in schema.column_names()
    if column
    in {*schema.partition_columns, *sum(schema.unique_keys, ()), schema.row_id_column}
]


@pytest.mark.parametrize("multi_open", [False, True], ids=["single", "multi_open"])
@pytest.mark.parametrize("mode", ["current", "historical", "plain"])
@pytest.mark.parametrize("schema, column", INDEXED)
def test_equality_on_an_indexed_column_searches(schema, column, mode, multi_open):
    engine, table = wiki_table(schema, multi_open)
    assert column in table._indexed_columns
    ts = 3 if mode == "historical" else table._max_ts + 1
    assert (ts < table._max_ts) == (mode == "historical")
    statements = record_statements(engine)
    executor = Executor(engine, versioned=mode != "plain")
    result = executor.execute(
        executor.prepare(f"SELECT * FROM {schema.name} WHERE {column} = ?"),
        (sample_row(schema, 1)[column],),
        ExecContext(ts=ts, gen=0, current_gen=0),
    )
    assert [row[column] for row in result.rows] == [sample_row(schema, 1)[column]]
    assert ("ROW_NUMBER" in statements[-1][1]) == multi_open
    assert_searches(engine, table, statements)


@pytest.mark.parametrize("multi_open", [False, True], ids=["single", "multi_open"])
@pytest.mark.parametrize("historical", [False, True], ids=["current", "historical"])
@pytest.mark.parametrize(
    "schema", [s for s in WIKI_TABLES if s.unique_keys], ids=lambda s: s.name
)
def test_unique_probe_searches(schema, historical, multi_open):
    engine, table = wiki_table(schema, multi_open)
    ts = 3 if historical else table._max_ts + 1
    statements = record_statements(engine)
    assert table.unique_conflict(sample_row(schema, 1), ts, 0) == schema.unique_keys[0]
    assert table.unique_conflict(sample_row(schema, 1), ts, 0, exclude_row_id=1) is None
    # The DISTINCT probe and the per-candidate visible_version lookup.
    assert len({sql for _, sql, _ in statements}) == 2
    assert_searches(engine, table, statements)


def test_indexes_cover_exactly_the_memory_engines_set():
    for schema in WIKI_TABLES:
        engine = create_database("sqlite")
        table = engine.create_table(schema)
        memory = create_database("python").create_table(schema)
        assert table._indexed_columns == memory._indexed_columns
        conn = engine._connect(table.group)
        leading = {
            conn.execute(f'PRAGMA index_info("{row[1]}")').fetchone()[2]
            for row in conn.execute(f"PRAGMA index_list({table._sql_name})")
        }
        shadows = {table._states[name].ident.strip('"') for name in table._indexed_columns}
        assert leading == shadows | {"__row_id", "__end_gen"}


# ---------------------------------------------------------------------------
# (b) cost: VM steps per lookup against the length of the history
# ---------------------------------------------------------------------------

PAGECONTENT = next(s for s in WIKI_TABLES if s.name == "pagecontent")
N_PAGES = 64


def page_history(versions_per_page):
    """The persisted ``bulk_load`` shape: every page edited in rotation,
    each edit closing the page's previous version."""
    rows = []
    for version in range(versions_per_page):
        last = version == versions_per_page - 1
        for page in range(1, N_PAGES + 1):
            start = version * N_PAGES + page
            data = {
                "page_id": page,
                "title": f"Page{page}",
                "old_text": f"text {version}",
                "editor": f"user{page % 5}",
                "public": True,
            }
            rows.append(
                [page, data, start, INFINITY if last else start + N_PAGES, 0, INFINITY]
            )
    return rows


def lookup_steps(versions_per_page, multi_open):
    engine = create_database("sqlite")
    engine.restore(
        {
            "tables": [
                {
                    "schema": PAGECONTENT.to_dict(),
                    "versions": page_history(versions_per_page),
                    "next_row_id": N_PAGES + 1,
                }
            ]
        }
    )
    table = engine.table("pagecontent")
    assert table.version_count == N_PAGES * versions_per_page
    assert not table._multi_open
    table._multi_open = multi_open
    steps = 0

    def count():
        nonlocal steps
        steps += 1
        return 0

    conn = engine._connect(table.group)
    conn.set_progress_handler(count, 1)
    executor = Executor(engine)
    try:
        result = executor.execute(
            executor.prepare("SELECT old_text FROM pagecontent WHERE title = ?"),
            ("Page7",),
            ExecContext(ts=table._max_ts + 1, gen=0, current_gen=0),
        )
    finally:
        conn.set_progress_handler(None, 1)
    assert result.rows == [{"old_text": f"text {versions_per_page - 1}"}]
    return steps


@pytest.mark.parametrize("multi_open", [False, True], ids=["single", "multi_open"])
def test_lookup_cost_does_not_grow_with_history(multi_open):
    short = lookup_steps(4, multi_open)
    long = lookup_steps(64, multi_open)
    assert 0 < short
    assert long < 2 * short, (short, long)


# ---------------------------------------------------------------------------
# (c) the narrowed winner-first window ≡ the memory engine
# ---------------------------------------------------------------------------

SCHEMA = TableSchema(
    name="t",
    columns=(Column("id", "int"), Column("a"), Column("b", "int"), Column("c")),
    row_id_column="id",
    partition_columns=("a",),
    unique_keys=(("c",),),
)

HUGE = 2**70

#: (row_id, a, b, start_ts, end_ts, start_gen, end_gen), in insertion order.
VERSIONS = (
    # Row 1: two open versions.  A current read's winner is the earliest
    # opened (a='x'); a historical read's is the highest start_ts (a='y').
    (1, "x", 1, 1, INFINITY, 0, INFINITY),
    (1, "y", 2, 2, INFINITY, 0, INFINITY),
    # Row 2: overlapping intervals — at ts 9 both are visible and the later
    # one wins, so the superseded a='x' version must not resurface.
    (2, "x", 3, 3, 20, 0, INFINITY),
    (2, "z", 4, 8, INFINITY, 0, INFINITY),
    # Row 3: a version fenced to generation 0 beside its generation-1 copy.
    (3, "x", 5, 5, INFINITY, 0, 0),
    (3, "w", 6, 5, INFINITY, 1, INFINITY),
    # Rows 4-6: ordinary rows for ORDER BY to arrange; row 6's b makes the
    # column lossy, so lowering ``b`` needs the Python recheck.
    (4, "x", 9, 6, INFINITY, 0, INFINITY),
    (5, "x", 7, 7, INFINITY, 0, INFINITY),
    (6, "x", HUGE, 9, INFINITY, 0, INFINITY),
    (7, "q", 1, 10, 30, 0, INFINITY),
)

QUERIES = (
    ("SELECT * FROM t WHERE a = ?", ("x",)),
    ("SELECT * FROM t WHERE a = ?", ("y",)),
    ("SELECT * FROM t WHERE a = ?", ("z",)),
    ("SELECT * FROM t WHERE a = ?", ("w",)),
    ("SELECT id, b FROM t WHERE a = ? ORDER BY b DESC", ("x",)),
    ("SELECT id FROM t WHERE a IN (?, ?) ORDER BY a, id DESC", ("x", "y")),
    ("SELECT id, a FROM t WHERE b = ?", (HUGE,)),
    ("SELECT id, a FROM t WHERE b < ? AND a = ?", (8, "x")),
    ("SELECT id FROM t WHERE a = ? OR b = ?", ("q", 2)),
    ("SELECT COUNT(*) FROM t WHERE a = ?", ("x",)),
    ("SELECT * FROM t WHERE c = ?", ("k2",)),
)


def build(backend):
    db = create_database(backend)
    table = db.create_table(SCHEMA)
    for row_id, a, b, start_ts, end_ts, start_gen, end_gen in VERSIONS:
        data = {"id": row_id, "a": a, "b": b, "c": f"k{row_id}"}
        table.add_version(
            RowVersion(row_id, data, start_ts, end_ts, start_gen, end_gen)
        )
    return db


def test_narrowed_window_matches_the_memory_engine():
    memory, sqlite = build("python"), build("sqlite")
    table = sqlite.table("t")
    assert table._multi_open
    plan = Executor(sqlite).prepare("SELECT id FROM t WHERE b = ?")
    assert render_where(plan.lowered, (HUGE,), table._states)[2] is False

    windows = 0
    statements = record_statements(sqlite)
    for versioned in (True, False):
        arms = (
            Executor(memory, versioned=versioned),
            NaiveExecutor(memory, versioned=versioned),
            Executor(sqlite, versioned=versioned),
            NaiveExecutor(sqlite, versioned=versioned),
        )
        # Current (only open versions), ts 9 (rows 1 and 2 each show two
        # versions), ts 4 (before most rows exist); both generations.
        for ts in (table._max_ts + 1, 9, 4):
            for gen in (0, 1):
                ctx = ExecContext(ts=ts, gen=gen, current_gen=gen)
                for sql, params in QUERIES:
                    del statements[:]
                    results = [
                        arm.execute(arm.prepare(sql), params, ctx) for arm in arms
                    ]
                    windows += any("ROW_NUMBER" in s for _, s, _ in statements)
                    context = f"{sql!r} {params!r} versioned={versioned} {ctx!r}"
                    for other in results[1:]:
                        assert other.rows == results[0].rows, context
                        assert other.read_row_ids == results[0].read_row_ids, context
    assert windows >= 100  # the sweep ran the branch it is about

    # Spot checks of the contract itself, not only of agreement.
    def ids(sql, params, ts, gen=0):
        ctx = ExecContext(ts=ts, gen=gen, current_gen=gen)
        executor = Executor(sqlite)
        result = executor.execute(executor.prepare(sql), params, ctx)
        return [r["id"] for r in result.rows]

    now = table._max_ts + 1
    assert ids("SELECT id FROM t WHERE a = ?", ("y",), now) == []  # non-winner
    assert ids("SELECT id FROM t WHERE a = ?", ("y",), 9) == [1]  # winner then
    assert 2 not in ids("SELECT id FROM t WHERE a = ?", ("x",), 9)  # superseded
    assert ids("SELECT id FROM t WHERE a = ?", ("z",), 9) == [2]
    assert 3 in ids("SELECT id FROM t WHERE a = ?", ("x",), now, gen=0)
    assert 3 not in ids("SELECT id FROM t WHERE a = ?", ("x",), now, gen=1)  # fenced
    assert ids("SELECT id FROM t WHERE b = ?", (HUGE,), now) == [6]  # rechecked
    assert ids("SELECT id FROM t WHERE a = ? ORDER BY b DESC", ("x",), now) == [
        6, 4, 5, 3, 1,
    ]
