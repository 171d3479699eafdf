"""Storage-engine seam tests: backend selection, the SQLite engine's
scratch directory, SQL-lowering fallbacks on envelope-breaking values,
the DESC collation quirk, engine-portable snapshots, and the SQLite
fault point.

The cross-backend *workload* equivalence lives in
``test_executor_property.py``; this file covers the seams the random
workload cannot reach — values outside the property-test envelope (huge
ints, NaN, bools, mixed-type columns), the engine's private directory,
and the WarpSystem round trip that records the backend choice.
"""

import math
import os
import sqlite3
import sys
import threading

import pytest

from repro.core.clock import LogicalClock
from repro.core.errors import StorageError
from repro.db.engine import create_database, resolve_backend, snapshot_backend
from repro.db.sqlite_engine import SqliteEngine
from repro.db.storage import INFINITY, Column, Database, RowVersion, TableSchema
from repro.faults.plane import FAULT_POINTS, FaultPlane, InjectedIOError
from repro.ttdb.timetravel import TimeTravelDB

SCHEMA = TableSchema(
    name="t",
    columns=(Column("id", "int"), Column("a"), Column("b", "int"), Column("c")),
    row_id_column="id",
    partition_columns=("a",),
    unique_keys=(("c",),),
)


def make_pair():
    """(python, sqlite) TimeTravelDB pair over the same schema."""
    pair = []
    for backend in ("python", "sqlite"):
        tt = TimeTravelDB(create_database(backend), LogicalClock())
        tt.create_table(SCHEMA)
        pair.append(tt)
    return pair


def run_same(pair, sql, params=()):
    """Execute on both backends; assert identical outcome.

    Evaluator errors (cross-rank comparisons, unknown columns) propagate
    as raised exceptions out of ``execute`` — both backends must raise
    the same (type, message).  Snapshots are compared via ``repr`` so
    NaN payloads (where ``nan != nan``) still count as equal.
    """
    results = []
    for tt in pair:
        try:
            results.append(("ok", tt.execute(sql, list(params))))
        except Exception as exc:  # noqa: BLE001 - equivalence check
            results.append(("raise", (type(exc), str(exc))))
    (kind_a, a), (kind_b, b) = results
    context = f"{sql!r} {params!r}"
    assert kind_a == kind_b, f"{context}: {results!r}"
    if kind_a == "raise":
        assert a == b, context
        return None
    assert repr(a.result.snapshot()) == repr(b.result.snapshot()), context
    assert a.result.error == b.result.error, context
    assert a.result.read_row_ids == b.result.read_row_ids, context
    return a


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv("REPRO_DB_BACKEND", raising=False)
        assert resolve_backend() == "python"
        assert isinstance(create_database(), Database)

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_DB_BACKEND", "sqlite")
        assert resolve_backend() == "sqlite"
        assert isinstance(create_database(), SqliteEngine)

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DB_BACKEND", "sqlite")
        assert resolve_backend("python") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(StorageError):
            resolve_backend("oracle")

    def test_snapshot_backend_reads_storage_config(self):
        state = {"storage_config": {"backend": "sqlite"}}
        assert snapshot_backend(state) == "sqlite"
        # A deployment that left it to the environment recorded null.
        assert snapshot_backend({"storage_config": {"backend": None}}) == resolve_backend()


# ---------------------------------------------------------------------------
# lowering fallbacks: values the shadow columns cannot represent
# ---------------------------------------------------------------------------


class TestLoweringFallbacks:
    def test_huge_int_falls_back_to_python(self):
        pair = make_pair()
        huge = 2**70
        run_same(pair, "INSERT INTO t (id, a, b, c) VALUES (1, 'x', ?, 'k1')", [huge])
        run_same(pair, "INSERT INTO t (id, a, b, c) VALUES (2, 'y', 5, 'k2')")
        run_same(pair, "SELECT * FROM t WHERE b = ?", [huge])
        run_same(pair, "SELECT * FROM t WHERE b > 4")
        run_same(pair, "SELECT * FROM t WHERE b < ?", [huge + 1])

    def test_nan_column_falls_back(self):
        pair = make_pair()
        run_same(pair, "INSERT INTO t (id, a, b, c) VALUES (1, 'x', ?, 'k1')",
                 [float("nan")])
        run_same(pair, "INSERT INTO t (id, a, b, c) VALUES (2, 'y', 2.5, 'k2')")
        run_same(pair, "SELECT * FROM t WHERE b > 1")
        run_same(pair, "SELECT * FROM t WHERE b IS NULL")
        run_same(pair, "SELECT * FROM t ORDER BY b DESC")

    def test_bool_values_compare_like_python(self):
        pair = make_pair()
        run_same(pair, "INSERT INTO t (id, a, b, c) VALUES (1, 'x', ?, 'k1')", [True])
        run_same(pair, "INSERT INTO t (id, a, b, c) VALUES (2, 'y', 1, 'k2')")
        run_same(pair, "SELECT * FROM t WHERE b = 1")
        run_same(pair, "SELECT * FROM t WHERE b = ?", [True])
        # LIKE coerces via str(): str(True) != str(1), unlike the shadow ints.
        run_same(pair, "SELECT * FROM t WHERE b LIKE '1'")

    def test_mixed_type_column_ranks(self):
        pair = make_pair()
        run_same(pair, "INSERT INTO t (id, a, b, c) VALUES (1, 'x', 3, 'k1')")
        run_same(pair, "INSERT INTO t (id, a, b, c) VALUES (2, 'word', 4, 'k2')")
        # A string/int cross-rank comparison raises on mismatched rows in
        # the evaluator — both backends must surface the identical error.
        run_same(pair, "SELECT * FROM t WHERE a > 'm'")
        run_same(pair, "SELECT * FROM t WHERE a < 5")
        run_same(pair, "UPDATE t SET b = 9 WHERE a > 'm'")

    def test_empty_and_null_in_lists(self):
        pair = make_pair()
        run_same(pair, "INSERT INTO t (id, a, b, c) VALUES (1, NULL, 2, 'k1')")
        run_same(pair, "SELECT * FROM t WHERE a IN ('x')")
        run_same(pair, "SELECT * FROM t WHERE a NOT IN ('x', 'y')")
        run_same(pair, "SELECT * FROM t WHERE b IN (2, 3)")
        run_same(pair, "SELECT * FROM t WHERE a IS NULL")

    def test_unknown_column_errors_match(self):
        pair = make_pair()
        run_same(pair, "INSERT INTO t (id, a, b, c) VALUES (1, 'x', 2, 'k1')")
        run_same(pair, "SELECT * FROM t WHERE nope = 1")
        run_same(pair, "SELECT * FROM t WHERE a = 'x' AND nope = 1")

    def test_like_patterns(self):
        pair = make_pair()
        for i, text in enumerate(("x%y", "a_b", "", "wiki", "Wiki", "a\nb")):
            run_same(
                pair,
                "INSERT INTO t (id, a, b, c) VALUES (?, ?, 1, ?)",
                [i + 1, text, f"k{i}"],
            )
        for pattern in ("x%", "%b", "a_b", "%", "_", "Wiki", "a%b"):
            run_same(pair, "SELECT * FROM t WHERE a LIKE ?", [pattern])
            run_same(pair, f"SELECT * FROM t WHERE a NOT LIKE '{pattern}'")


# ---------------------------------------------------------------------------
# ORDER BY pushdown: the storage layer's DESC string collation quirk
# ---------------------------------------------------------------------------


class TestDescCollation:
    def test_desc_string_order_matches_memory_engine(self):
        pair = make_pair()
        words = ["", "z", "za", "zb", "a", "ab", "Home", "home", "a%b", "éclair"]
        for i, word in enumerate(words):
            run_same(
                pair,
                "INSERT INTO t (id, a, b, c) VALUES (?, ?, ?, ?)",
                [i + 1, word, i, f"k{i}"],
            )
        run_same(pair, "SELECT a FROM t ORDER BY a DESC")
        run_same(pair, "SELECT a FROM t ORDER BY a")
        run_same(pair, "SELECT a, b FROM t ORDER BY a DESC LIMIT 4")
        # Mixed ints/strings/NULLs under DESC: rank CASE + collation path.
        run_same(pair, "UPDATE t SET a = 7 WHERE b = 3")
        run_same(pair, "UPDATE t SET a = NULL WHERE b = 5")
        run_same(pair, "SELECT a FROM t ORDER BY a DESC")


# ---------------------------------------------------------------------------
# the engine's private scratch directory
# ---------------------------------------------------------------------------


class TestScratchDirectory:
    def test_fresh_engine_uses_temp_dir_and_cleans_up(self):
        engine = create_database("sqlite")
        directory = engine.path
        assert os.path.isdir(directory)
        engine._finalizer()
        assert not os.path.exists(directory)

    def test_close_removes_the_engine_directory_and_keeps_db_path(self, tmp_path):
        path = str(tmp_path / "keep")
        engine = create_database("sqlite", path=path)
        engine.create_table(SCHEMA)
        assert os.path.dirname(engine.path) == path
        assert os.listdir(engine.path)
        engine.close()
        assert not os.path.exists(engine.path)
        assert os.listdir(path) == []

    def test_two_engines_over_one_path_share_no_file(self, tmp_path):
        path = str(tmp_path / "db")
        first, second = (create_database("sqlite", path=path) for _ in range(2))
        first.create_table(SCHEMA)
        assert first.path != second.path
        assert not second.has_table("t")
        second.create_table(SCHEMA)  # no "already exists": its own file


# ---------------------------------------------------------------------------
# one table's connection shared by eight threads
# ---------------------------------------------------------------------------


class TestSharedConnectionThreads:
    def test_one_table_read_write_smoke(self):
        """``SqliteEngine.execute`` hands back a cursor that callers fetch
        outside the engine lock (see the lock's comment for why that is
        safe).  Four writers and four readers of one table share its
        connection: every insert must land exactly once under its own vid,
        and a reader only ever sees whole rows."""
        assert sqlite3.threadsafety == 3  # serialized: what the lock relies on
        engine = SqliteEngine()
        table = engine.create_table(SCHEMA)
        per_writer = 150
        writers_n = 4
        errors = []
        vids = []
        stop = threading.Event()

        def row(n):
            return {"id": n, "a": f"a{n % 7}", "b": n, "c": f"k{n}"}

        def writer(offset):
            try:
                for n in range(offset, offset + per_writer):
                    version = RowVersion(n, row(n), n)
                    table.add_version(version)
                    vids.append(version.vid)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def reader():
            try:
                seen = 0
                while not stop.is_set():
                    rows = list(table.visible_rows(INFINITY - 1, 0))
                    assert len(rows) >= seen
                    seen = len(rows)
                    for version in rows:
                        assert version.data == row(version.row_id)
                    probe = table.visible_version(1, INFINITY - 1, 0)
                    assert probe is None or probe.data == row(1)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        writers = [
            threading.Thread(target=writer, args=(1 + slot * per_writer,))
            for slot in range(writers_n)
        ]
        readers = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers + writers)
        assert not errors, errors
        total = writers_n * per_writer
        assert table.version_count == total
        assert len(set(vids)) == total
        stored = sorted(v.row_id for v in table.all_versions())
        assert stored == list(range(1, total + 1))
        assert not table._multi_open


# ---------------------------------------------------------------------------
# engine-portable snapshots
# ---------------------------------------------------------------------------


def _dump(db):
    out = {}
    for name, table in db.tables.items():
        out[name] = sorted(
            (
                (
                    v.row_id,
                    tuple(sorted(v.data.items())),
                    v.start_ts,
                    v.end_ts,
                    v.start_gen,
                    v.end_gen,
                )
                for v in table.all_versions()
            ),
            key=repr,
        )
    return out


class TestPortability:
    def test_python_snapshot_restores_into_sqlite_and_back(self):
        py, sq = make_pair()
        huge = 2**70
        for tt in (py, sq):
            tt.execute("INSERT INTO t (id, a, b, c) VALUES (1, 'x', 2, 'k1')")
            tt.execute("INSERT INTO t (id, a, b, c) VALUES (2, 'y', 3, 'k2')")
            tt.execute("INSERT INTO t (id, a, b, c) VALUES (3, 'z', ?, 'k3')", [huge])
            tt.execute("UPDATE t SET b = 4 WHERE id = 1")
            tt.execute("DELETE FROM t WHERE id = 2")
        image = py.database.to_dict()
        target = create_database("sqlite")
        target.restore(image)
        assert _dump(target) == _dump(py.database)
        # restore's bulk load rebuilds the lowering flags from the rows: the
        # huge int marks ``b`` lossy, so its WHERE is re-checked in Python.
        assert target.table("t")._states["b"].lossy
        restored = TimeTravelDB(target, LogicalClock())
        restored.clock.advance(100)
        rows = restored.execute("SELECT id, b FROM t WHERE b = ?", [huge]).result.rows
        assert rows == [{"id": 3, "b": huge}]

        back = create_database("python")
        back.restore(sq.database.to_dict())
        assert _dump(back) == _dump(sq.database)
        assert back.table("t")._next_row_id == sq.database.table("t")._next_row_id


# ---------------------------------------------------------------------------
# fault points at the SQLite I/O boundary
# ---------------------------------------------------------------------------


class TestSqliteFaultPoints:
    def test_points_are_cataloged(self):
        assert "sqlite.exec" in FAULT_POINTS
        assert "sqlite.commit" not in FAULT_POINTS

    def test_exec_fault_surfaces_with_op_context(self):
        plane = FaultPlane()
        engine = create_database("sqlite", fault_plane=plane)
        tt = TimeTravelDB(engine, LogicalClock())
        tt.create_table(SCHEMA)
        plane.arm(point="sqlite.exec", kind="io", times=1)
        with pytest.raises(InjectedIOError):
            tt.execute("INSERT INTO t (id, a, b, c) VALUES (1, 'x', 2, 'k1')")
        assert plane.last_fault["point"] == "sqlite.exec"
        # The INSERT's first engine statement is the unique-key conflict
        # probe, so the recorded op is whichever statement ran first.
        assert plane.last_fault["op"] in ("SELECT", "INSERT")
        # The rule exhausted — the engine serves again.
        result = tt.execute("INSERT INTO t (id, a, b, c) VALUES (1, 'x', 2, 'k1')")
        assert result.result.ok


# ---------------------------------------------------------------------------
# WarpSystem records the backend choice
# ---------------------------------------------------------------------------


class TestWarpBackend:
    def test_save_load_round_trip_keeps_backend(self, tmp_path):
        from repro.apps.wiki import WikiApp
        from repro.warp import WarpSystem

        warp = WarpSystem(db_backend="sqlite")
        assert warp.database.backend == "sqlite"
        wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
        wiki.install()
        wiki.seed_user("alice", "pw")
        wiki.seed_page("Home", "hello from sqlite", "alice")
        path = str(tmp_path / "snap.json")
        warp.save(path)

        reloaded = WarpSystem.load(path)
        assert reloaded.db_backend == "sqlite"
        assert reloaded.database.backend == "sqlite"
        wiki2 = WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server)
        wiki2.register_code()
        assert "hello from sqlite" in wiki2.page_text("Home")

    def test_a_loaded_copy_does_not_see_the_originals_later_writes(self, tmp_path):
        """Two deployments over one ``db_path`` each keep their rows in a
        directory of their own: a page the original writes after the save
        is not in the copy loaded from that save."""
        from repro.apps.wiki import WikiApp
        from repro.warp import WarpSystem

        db_path = str(tmp_path / "db")
        warp = WarpSystem(db_backend="sqlite", db_path=db_path)
        wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
        wiki.install()
        wiki.seed_page("Home", "saved\n", owner="admin")
        path = str(tmp_path / "snap.json")
        warp.save(path)

        copy = WarpSystem.load(path)
        copy_wiki = WikiApp(copy.ttdb, copy.scripts, copy.server)
        wiki.seed_page("Q", "q\n", owner="admin")
        assert wiki.page_text("Q") == "q\n"
        assert copy_wiki.page_text("Q") is None
        assert copy_wiki.page_text("Home") == "saved\n"
        paths = {warp.database.path, copy.database.path}
        assert len(paths) == 2
        assert {os.path.dirname(p) for p in paths} == {db_path}

    def test_default_backend_recorded_as_python(self, tmp_path, monkeypatch):
        from repro.apps.wiki import WikiApp
        from repro.warp import WarpSystem

        monkeypatch.delenv("REPRO_DB_BACKEND", raising=False)
        warp = WarpSystem()
        WikiApp(warp.ttdb, warp.scripts, warp.server).install()
        path = str(tmp_path / "snap.json")
        warp.save(path)
        reloaded = WarpSystem.load(path)
        assert reloaded.database.backend == "python"
