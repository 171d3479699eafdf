"""The SQLite engine's access paths, pinned by plan and by cost — not by
timing.

(a) ``EXPLAIN QUERY PLAN`` of every statement the engine emits for an
    equality on an ``_indexed_columns`` member is a ``SEARCH`` of the
    shadow table, never a ``SCAN`` — current and historical reads,
    versioned and plain, before and after ``_multi_open`` flips to the
    winner-first window query; likewise ``unique_conflict``'s probe.
(b) SQLite VM steps for one title lookup do not grow with the length of
    the history the table keeps.
(c) The window query that runs once a row has had two open versions in
    one generation — narrowed to the rows with a visible version
    satisfying the WHERE — returns what the memory engine and the naive
    executor (``tests/naive_executor.py``) return.
(d) A range conjunct on an unindexed column reaches SQLite's WHERE while
    the column has only stored values of the bound's rank, and stays out
    of it — with the same rows and read set — once it has stored another.
(e) ``_multi_open`` is set by two open versions of a row that share a
    generation, and by nothing else: a repair's fenced original beside
    its repair-generation copy leaves it alone — through the repair, after
    ``finalize`` and across a snapshot reload — so a repaired wiki's
    reads stay plain.
(f) A fetched version's ``__data`` is decoded on its first read only:
    ``rollback_row``'s chain walk and the versions a fetch's dedupe drops
    parse no JSON.
"""

import json
import random
import re

import pytest

import repro.db.sqlite_engine as sqlite_engine
from repro.apps.wiki.schema import WIKI_TABLES
from repro.core.clock import INFINITY
from repro.db.engine import create_database
from repro.db.executor import ExecContext, Executor
from repro.db.storage import Column, RowVersion, TableSchema
from repro.repair.api import CancelClientSpec
from repro.ttdb.rollback import rollback_row
from repro.warp import WarpSystem
from repro.workload.loadgen import LoadClient, make_load_clients
from repro.workload.scenarios import WikiDeployment

from naive_executor import NaiveExecutor


def record_statements(engine):
    """Every ``(table name, sql, binds)`` the engine executes from now on."""
    seen = []
    execute = engine.execute

    def recording(name, sql, binds=()):
        seen.append((name, sql, tuple(binds)))
        return execute(name, sql, binds)

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
    for name, sql, binds in selects:
        plan = [
            row[3]
            for row in engine._connect(name).execute(
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
        conn = engine._connect(table.schema.name)
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

    conn = engine._connect(table.schema.name)
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
    # column lossy, so no probe on ``b`` reaches SQLite.
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
    ("SELECT id FROM t WHERE a = ? AND b >= ?", ("x", 1)),
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
    statements = record_statements(sqlite)
    executor = Executor(sqlite)
    ctx = ExecContext(ts=table._max_ts + 1, gen=0, current_gen=0)
    executor.execute(executor.prepare("SELECT id FROM t WHERE b = ?"), (HUGE,), ctx)
    # ``b`` is lossy: its probe stays out of SQLite, the predicate decides.
    [(_, sql, _)] = statements
    assert table._states["b"].ident not in sql.split(" WHERE ", 1)[1], sql

    windows = 0
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


# ---------------------------------------------------------------------------
# (d) the range prefilter and its rank rule
# ---------------------------------------------------------------------------

SCORES = TableSchema(
    name="scores",
    columns=(Column("id", "int"), Column("score", "int")),
    row_id_column="id",
)


def test_range_prefilter_follows_the_rank_rule():
    memory, sqlite = create_database("python"), create_database("sqlite")
    executors = [Executor(db) for db in (memory, sqlite)]
    table = sqlite.create_table(SCORES)
    memory.create_table(SCORES)
    assert "score" not in table._indexed_columns
    ident = table._states["score"].ident
    statements = record_statements(sqlite)
    ts = 0

    def run(sql, params=()):
        nonlocal ts
        ts += 1
        ctx = ExecContext(ts=ts, gen=0, current_gen=0)
        del statements[:]
        results = [ex.execute(ex.prepare(sql), params, ctx) for ex in executors]
        assert results[1].rows == results[0].rows, sql
        assert results[1].read_row_ids == results[0].read_row_ids, sql
        return results[1]

    for n in range(1, 7):
        run("INSERT INTO scores (id, score) VALUES (?, ?)", (n, n * 10))
    query = "SELECT id FROM scores WHERE score < ?"
    assert [row["id"] for row in run(query, (35,)).rows] == [1, 2, 3]
    [(_, sql, binds)] = statements
    assert f"{ident} < ?" in sql and 35 in binds, sql

    # A string once stored, even one no longer visible, makes the range
    # unsound to push down: SQLite would order it against the integers.
    run("INSERT INTO scores (id, score) VALUES (7, 'x')")
    run("DELETE FROM scores WHERE id = 7")
    assert table._states["score"].ranks == {1, 2}
    assert [row["id"] for row in run(query, (35,)).rows] == [1, 2, 3]
    [(_, sql, _)] = statements
    assert ident not in sql.split(" WHERE ", 1)[1], sql


# ---------------------------------------------------------------------------
# (e) the ``_multi_open`` rule: two open versions sharing a generation
# ---------------------------------------------------------------------------


def repaired_wiki(tmp_path):
    """A SQLite wiki (the ``wiki_sqlite`` benchmark's shape, smaller): load
    clients edit and view pages, an attacker appends to three of them,
    and a repair cancels the attacker.  Returns the deployment, the
    statements the engine ran during the repair, and the pages."""
    deployment = WikiDeployment(
        n_users=0, seed=1, db_backend="sqlite", db_path=str(tmp_path / "db")
    )
    warp, wiki = deployment.warp, deployment.wiki
    pages = [f"Page{n}" for n in range(8)]
    for page in pages:
        wiki.seed_page(page, f"{page}\n", owner="admin")
    clients = make_load_clients(wiki, warp.server, [f"c{n}" for n in range(4)])
    wiki.seed_user("mallory", "pw-mallory")
    mallory = LoadClient("mallory", warp.server)
    assert mallory.login("pw-mallory").status == 200
    rng = random.Random(1)

    def traffic(n, tag):
        for index in range(n):
            page = rng.choice(pages)
            client = clients[pages.index(page) % len(clients)]
            params = {"title": page}
            method = "POST" if rng.random() < 0.4 else "GET"
            if method == "POST":
                params["append"] = f"\n{tag}{index}"
            response = client.send(client.request(method, "/edit.php", params))
            assert response.status == 200

    traffic(40, "before")
    for page in pages[:3]:
        params = {"title": page, "append": "\nEVIL"}
        assert mallory.send(mallory.request("POST", "/edit.php", params)).status == 200
    traffic(60, "after")
    statements = record_statements(warp.ttdb.database)
    result = warp.repair.submit(CancelClientSpec(client_id="mallory-load")).result()
    assert result.ok and result.stats.queries_reexecuted > 0
    return deployment, statements, pages


def test_a_repair_leaves_reads_plain_through_finalize_and_reload(tmp_path, closing):
    deployment, statements, pages = repaired_wiki(tmp_path)
    warp = closing(deployment.warp)
    engine = warp.ttdb.database
    assert any(sql.startswith("SELECT") for _, sql, _ in statements)
    assert not any("ROW_NUMBER" in sql for _, sql, _ in statements)
    assert not any(table._multi_open for table in engine.tables.values())
    # The repair left rows whose fenced original and repair copy are both
    # open (in generations that do not meet).
    table = engine.table("pagecontent")
    pairs = table._exec(
        f"SELECT __row_id FROM {table._sql_name} WHERE __end_ts = {INFINITY} "
        "GROUP BY __row_id HAVING COUNT(*) > 1"
    ).fetchall()
    assert pairs

    del statements[:]
    assert deployment.wiki.page_text(pages[0]).startswith(pages[0])
    [(_, sql, binds)] = statements
    assert "ROW_NUMBER" not in sql
    assert table._states["title"].ident in sql and pages[0] in binds
    assert not any("EVIL" in deployment.wiki.page_text(page) for page in pages)

    path = str(tmp_path / "warp.json")
    warp.save(path)
    tables = closing(WarpSystem.load(path)).ttdb.database.tables.values()
    assert sum(t.version_count for t in tables) == engine.total_versions()
    assert not any(t._multi_open for t in tables)


def open_versions(*gens):
    """A SQLite table holding one open version of row 1 per ``(start_gen,
    end_gen)`` pair, started at consecutive timestamps."""
    table = create_database("sqlite").create_table(SCORES)
    versions = []
    for start_ts, (start_gen, end_gen) in enumerate(gens, 1):
        version = RowVersion(
            1, {"id": 1, "score": start_ts}, start_ts,
            start_gen=start_gen, end_gen=end_gen,
        )
        table.add_version(version)
        versions.append(version)
    return table, versions


def test_open_versions_in_disjoint_generations_leave_the_flag_alone():
    table, _ = open_versions((0, 0), (1, INFINITY))
    assert not table._multi_open
    table, _ = open_versions((0, 2), (3, 5), (6, INFINITY))
    assert not table._multi_open


def test_a_duplicate_forced_row_id_insert_sets_the_flag():
    memory, sqlite = create_database("python"), create_database("sqlite")
    executors = [Executor(db) for db in (memory, sqlite)]
    for db in (memory, sqlite):
        db.create_table(SCORES)
    table = sqlite.table("scores")

    def run(sql, params, ctx):
        results = [ex.execute(ex.prepare(sql), params, ctx) for ex in executors]
        assert results[1].rows == results[0].rows, (sql, params)
        return results[1].rows

    for ts in (1, 2):
        ctx = ExecContext(ts=ts, gen=0, current_gen=0, forced_row_ids=(7,))
        run("INSERT INTO scores (score) VALUES (?)", (ts,), ctx)
        assert table._multi_open == (ts == 2)
    # Winner first, as on the memory engine: one of the two scores is
    # row 7's, and the other does not resurface.
    ctx = ExecContext(ts=3, gen=0, current_gen=0)
    found = [run("SELECT id FROM scores WHERE score = ?", (n,), ctx) for n in (1, 2)]
    assert sorted(found) == [[], [{"id": 7}]]


def test_an_unfence_into_a_shared_generation_sets_the_flag():
    table, (fenced, copy) = open_versions((0, 0), (1, INFINITY))
    table.unfence_version(fenced, if_end_gen=5)  # not the fence it has: no-op
    assert fenced.end_gen == 0 and not table._multi_open
    table.unfence_version(fenced, if_end_gen=0)
    assert fenced.end_gen == INFINITY and table._multi_open


def test_a_reopen_into_a_shared_generation_sets_the_flag():
    table, [current] = open_versions((1, INFINITY))
    earlier = RowVersion(1, {"id": 1, "score": 0}, 0, end_ts=1, start_gen=1)
    table.add_version(earlier)
    assert not table._multi_open  # a closed version beside the open one
    table.reopen_version(earlier)
    assert earlier.end_ts == INFINITY and table._multi_open


@pytest.mark.parametrize("gens, flagged", [
    (((0, 0), (1, INFINITY)), False),
    (((0, 3), (2, INFINITY)), True),
])
def test_restore_probes_generation_overlap(gens, flagged):
    versions = [
        [1, {"id": 1, "score": n}, n, INFINITY, start_gen, end_gen]
        for n, (start_gen, end_gen) in enumerate(gens, 1)
    ]
    engine = create_database("sqlite")
    engine.restore({"tables": [
        {"schema": SCORES.to_dict(), "versions": versions, "next_row_id": 2}
    ]})
    assert engine.table("scores")._multi_open == flagged


# ---------------------------------------------------------------------------
# (f) row images decoded on first read
# ---------------------------------------------------------------------------


@pytest.fixture
def decodes(monkeypatch):
    """The ``__data`` blobs parsed from here on."""
    parsed = []
    decode = sqlite_engine._json_decode

    def counting(blob):
        parsed.append(blob)
        return decode(blob)

    monkeypatch.setattr(sqlite_engine, "_json_decode", counting)
    return parsed


def chain_table(n_rows, n_versions):
    """Rows 1..n_rows, each edited ``n_versions`` times: a closed chain
    ending in an open version, all in generation 0."""
    table = create_database("sqlite").create_table(SCORES)
    for row_id in range(1, n_rows + 1):
        for ts in range(1, n_versions + 1):
            table.add_version(RowVersion(
                row_id, {"id": row_id, "score": ts}, ts,
                end_ts=ts + 1 if ts < n_versions else INFINITY,
            ))
    return table


def test_rollback_parses_only_the_versions_it_reads(decodes):
    table = chain_table(1, 10)
    rollback_row(table, 1, ts=8, current_gen=0, repair_gen=1)
    # Versions 8-10 are excluded (their partition keys read), version 7 is
    # re-extended (copied); 1-6 are walked past on their intervals alone.
    assert sorted(json.loads(blob)["score"] for blob in decodes) == [7, 8, 9, 10]
    [copy] = [v for v in table.row_versions(1) if v.start_gen == 1]
    assert copy.data == {"id": 1, "score": 7} and copy.end_ts == INFINITY


def test_dedupe_parses_only_the_versions_it_keeps(decodes):
    table = chain_table(3, 4)
    kept = list(table.plain_rows())
    assert [v.start_ts for v in kept] == [1, 1, 1] and decodes == []
    assert [v.data["score"] for v in kept] == [1, 1, 1]
    assert len(decodes) == 3  # of the 12 fetched versions
    del decodes[:]
    table, _ = open_versions((0, INFINITY), (0, INFINITY))
    [winner] = table.visible_rows(ts=5, gen=0)
    assert winner.data["score"] == 1 and len(decodes) == 1
