"""A write on the SQLite engine happens whole or not at all.

The time-travel layer runs each write statement, row rollback, repair abort
and gc inside the engine's ``atomic`` scope — on SQLite one transaction per
table file.  Pinned here:

* a storage fault in the middle of a write statement leaves the live
  generation as it was (before the scope, the fault between the close of
  the old version and the insert of the new one deleted the row, and no
  run recorded the write, so repair could not bring it back);
* one commit frame reaches the table file's ``-wal`` per write statement
  and per row rollback, on the normal and the repair path — counted in the
  file itself, with SQLite's automatic checkpoints off;
* with ``sqlite.exec`` faults injected anywhere into the cross-backend
  workload, a failed operation leaves every version as it was, the memory
  engine running only the operations that succeeded ends in the same
  version store, and each table's ``version_count`` is its file's row count.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.wiki.app import WikiApp
from repro.core.clock import LogicalClock
from repro.db.engine import create_database
from repro.db.storage import Column, TableSchema
from repro.faults.plane import FaultPlane, InjectedIOError
from repro.ttdb.timetravel import TimeTravelDB
from repro.warp import WarpSystem

from test_executor_property import StatementGen, dump, make_schema

SCHEMA = TableSchema(
    name="t",
    columns=(Column("id", "int"), Column("a"), Column("b", "int")),
    row_id_column="id",
    partition_columns=("a",),
)


def stored_rows(table) -> int:
    """The rows the table's shadow table holds in its file."""
    return table._exec(f"SELECT COUNT(*) FROM {table._sql_name}").fetchone()[0]


def assert_counts_match_files(database):
    for table in database.tables.values():
        assert table.version_count == stored_rows(table), table.schema.name


# ---------------------------------------------------------------------------
# the reported fault: an UPDATE cut between its close and its insert
# ---------------------------------------------------------------------------


def test_a_fault_inside_an_update_leaves_the_page_as_it_was():
    """``UPDATE pagecontent`` runs six engine statements: three SELECTs, the
    UPDATE closing the old version, the INSERT of the new one, a SELECT.
    The fault fires on the INSERT; the request fails, and the page still
    reads its old text."""
    plane = FaultPlane()
    warp = WarpSystem(db_backend="sqlite", fault_plane=plane)
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_page("P", "old text", owner="admin")
    table = warp.database.table("pagecontent")
    before = dump(warp.ttdb)
    plane.arm(point="sqlite.exec", kind="io", after=4)
    with pytest.raises(InjectedIOError):
        warp.ttdb.execute("UPDATE pagecontent SET old_text = ? WHERE title = ?", ("new", "P"))
    assert plane.last_fault["op"] == "INSERT"
    read = "SELECT old_text FROM pagecontent WHERE title = ?"
    assert warp.ttdb.execute(read, ("P",)).rows == [{"old_text": "old text"}]
    assert warp.ttdb.execute("SELECT COUNT(*) FROM pagecontent").rows == [{"count": 1}]
    assert dump(warp.ttdb) == before and warp.ttdb.integrity_errors() == []
    assert_counts_match_files(warp.database)
    # The rule is spent: the same statement now goes through, once.
    warp.ttdb.execute("UPDATE pagecontent SET old_text = ? WHERE title = ?", ("new", "P"))
    assert warp.ttdb.execute(read, ("P",)).rows == [{"old_text": "new"}]
    assert table.version_count == stored_rows(table) == len(before["pagecontent"]) + 1


def test_a_fault_inside_a_repair_write_keeps_the_journal_to_what_happened():
    """A repair UPDATE re-homes the live version and notes it as created;
    rolled back, that note would make an abort discard the live version."""
    plane = FaultPlane()
    tt = TimeTravelDB(create_database("sqlite", fault_plane=plane), LogicalClock())
    tt.create_table(SCHEMA)
    tt.execute("INSERT INTO t (id, a, b) VALUES (1, 'x', 1)")
    ts = tt.execute("UPDATE t SET b = 2 WHERE id = 1").ts
    tt.clock.advance(5)
    before = dump(tt)
    tt.begin_repair()
    plane.arm(point="sqlite.exec", kind="io", after=4)
    with pytest.raises(InjectedIOError):
        tt.execute_at("UPDATE t SET b = 3 WHERE id = 1", (), ts)
    assert dump(tt) == before
    assert tt._journal.created == [] and tt._journal.fenced == []
    tt.abort_repair()
    assert dump(tt) == before
    assert tt.execute("SELECT b FROM t WHERE id = 1").rows == [{"b": 2}]
    assert_counts_match_files(tt.database)


# ---------------------------------------------------------------------------
# one commit per operation, counted in the table file's write-ahead log
# ---------------------------------------------------------------------------


def commit_frames(path: str) -> int:
    """The commit frames of the SQLite write-ahead log ``path``: frames of
    the current salt whose "database size after commit" field is set."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 32:
        return 0
    page_size = int.from_bytes(data[8:12], "big")
    salts, count = data[16:24], 0
    for offset in range(32, len(data) - 24 - page_size + 1, 24 + page_size):
        header = data[offset : offset + 24]
        if header[8:16] != salts:
            break
        count += header[4:8] != bytes(4)
    return count


@pytest.fixture
def counted():
    """A SQLite-backed ``t`` with two rows, its WAL never checkpointed, and
    a function giving the commit frames added since it was last called."""
    engine = create_database("sqlite")
    tt = TimeTravelDB(engine, LogicalClock())
    tt.create_table(SCHEMA)
    engine._connect("t").execute("PRAGMA wal_autocheckpoint=0")
    tt.execute("INSERT INTO t (id, a, b) VALUES (1, 'x', 1), (2, 'y', 2)")
    wal = os.path.join(engine.path, "t.sqlite-wal")
    seen = [commit_frames(wal)]

    def commits():
        now = commit_frames(wal)
        added, seen[0] = now - seen[0], now
        return added

    return tt, commits


def test_one_commit_per_write_statement(counted):
    tt, commits = counted
    for sql in (
        "UPDATE t SET b = 5 WHERE id = 1",  # close + insert: 2 commits before
        "UPDATE t SET b = b + 1",  # two rows: 4 before
        "INSERT INTO t (id, a, b) VALUES (3, 'z', 3)",
        "DELETE FROM t WHERE id = 2",
    ):
        assert tt.execute(sql).result.ok
        assert commits() == 1, sql
    assert tt.execute("UPDATE t SET b = 0 WHERE id = 99").result.rowcount == 0
    assert commits() == 0  # nothing written, nothing committed


def test_one_commit_per_repair_write_and_rollback(counted):
    tt, commits = counted
    ts = tt.execute("UPDATE t SET b = 7 WHERE id = 1").ts
    tt.clock.advance(5)
    commits()
    tt.begin_repair()
    # preserved copy + re-home + close + insert: 4 commits before
    tt.execute_at("UPDATE t SET b = 8 WHERE id = 1", (), ts)
    assert commits() == 1
    assert tt.rollback_row("t", 2, 1)
    assert commits() == 1
    tt.abort_repair()
    assert commits() == 1
    assert_counts_match_files(tt.database)


# ---------------------------------------------------------------------------
# faults anywhere in the cross-backend workload
# ---------------------------------------------------------------------------


def mirrored(python, sqlite, plane, fault, operation):
    """Run ``operation`` on ``sqlite`` with ``fault`` (hits to skip before
    an injected EIO, or None) armed; then, only if it succeeded, on
    ``python``.  A failed operation must leave every version as it was;
    the memory engine's clock still advances as SQLite's did."""
    before = dump(sqlite)
    ticks = sqlite.clock.now()
    if fault is not None:
        plane.arm(point="sqlite.exec", kind="io", after=fault)
    try:
        result = operation(sqlite)
    except InjectedIOError:
        assert dump(sqlite) == before
        if sqlite.clock.now() > ticks:
            python.clock.advance(sqlite.clock.now() - ticks)
        return False
    finally:
        plane.clear()
    assert_counts_match_files(sqlite.database)
    again = operation(python)
    if hasattr(result, "result"):
        assert repr(result.result.snapshot()) == repr(again.result.snapshot())
    else:
        assert result == again
    return True


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    faults=st.lists(st.one_of(st.none(), st.integers(0, 6)), min_size=70, max_size=70),
)
def test_faults_in_the_cross_backend_workload_roll_back_whole_operations(seed, faults):
    rng = random.Random(seed)
    plane = FaultPlane()
    python = TimeTravelDB(create_database("python"), LogicalClock())
    sqlite = TimeTravelDB(create_database("sqlite", fault_plane=plane), LogicalClock())
    for tt in (python, sqlite):
        tt.create_table(make_schema(seed))
    gen = StatementGen(random.Random(seed * 31 + 1))
    faults = iter(faults)
    executed = []

    def step(operation):
        return mirrored(python, sqlite, plane, next(faults), operation)

    for _ in range(40):
        sql, params = gen.statement()
        if step(lambda tt: tt.execute(sql, params)):
            executed.append((sql, tuple(params), sqlite.clock.now()))
    assert dump(python) == dump(sqlite)

    for tt in (python, sqlite):
        tt.begin_repair()
    for sql, params, ts in rng.sample(executed, min(8, len(executed))):
        if not sql.startswith("INSERT"):
            step(lambda tt: tt.execute_at(sql, params, ts))
    for _ in range(4):
        row_id, ts = rng.randrange(1, gen.next_id + 2), rng.choice(executed or [(0, 0, 1)])[2]
        step(lambda tt: tt.rollback_row("t", row_id, ts))
    assert dump(python) == dump(sqlite)
    finish = "abort_repair" if rng.random() < 0.5 else "finalize_repair"
    if not step(lambda tt: getattr(tt, finish)()):
        for tt in (python, sqlite):
            getattr(tt, finish)()  # the retry, fault-free, on both
    assert dump(python) == dump(sqlite)

    for _ in range(10):
        sql, params = gen.statement()
        step(lambda tt: tt.execute(sql, params))
    horizon = sqlite.clock.now() // 2
    step(lambda tt: tt.gc(horizon))
    assert dump(python) == dump(sqlite)
    assert_counts_match_files(sqlite.database)
