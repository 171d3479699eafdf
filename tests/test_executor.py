"""Unit tests for statement execution over versioned storage.

These exercise the §4.4 rewriting semantics directly: time-travel reads,
version closure on writes, repair-generation preservation, uniqueness.
"""

import pytest

from repro.core.clock import INFINITY
from repro.db.executor import ExecContext, Executor
from repro.db.storage import Column, Database, TableSchema


def make_db(partition_columns=("title",), unique_keys=()):
    db = Database()
    db.create_table(
        TableSchema(
            name="pages",
            columns=(
                Column("page_id", "int"),
                Column("title"),
                Column("body"),
                Column("editor"),
            ),
            row_id_column="page_id",
            partition_columns=partition_columns,
            unique_keys=unique_keys,
        )
    )
    return db


def ctx(ts, gen=0, current_gen=0, repair=False):
    return ExecContext(ts=ts, gen=gen, current_gen=current_gen, repair=repair)


def run(executor, sql, params=(), at=None):
    return executor.execute(executor.prepare(sql), params, at)


class TestInsertSelect:
    def test_insert_then_select(self):
        ex = Executor(make_db())
        res = run(ex, "INSERT INTO pages (page_id, title, body) VALUES (1, 'Home', 'hi')", at=ctx(1))
        assert res.ok and res.rowcount == 1
        rows = run(ex, "SELECT * FROM pages", at=ctx(2)).rows
        assert rows == [{"page_id": 1, "title": "Home", "body": "hi", "editor": None}]

    def test_insert_uses_row_id_column(self):
        ex = Executor(make_db())
        res = run(ex, "INSERT INTO pages (page_id, title) VALUES (7, 'X')", at=ctx(1))
        assert res.inserted_row_ids == (7,)

    def test_insert_synthetic_row_id_when_missing(self):
        ex = Executor(make_db())
        res = run(ex, "INSERT INTO pages (title) VALUES ('X')", at=ctx(1))
        assert res.inserted_row_ids == (1,)

    def test_select_projection_and_params(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'a'), (2, 'B', 'b')", at=ctx(1))
        rows = run(ex, "SELECT body FROM pages WHERE title = ?", ("B",), at=ctx(2)).rows
        assert rows == [{"body": "b"}]

    def test_select_order_by_desc(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A'), (2, 'C'), (3, 'B')", at=ctx(1))
        rows = run(ex, "SELECT title FROM pages ORDER BY title DESC", at=ctx(2)).rows
        assert [r["title"] for r in rows] == ["C", "B", "A"]

    def test_select_limit(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A'), (2, 'B')", at=ctx(1))
        rows = run(ex, "SELECT * FROM pages LIMIT 1", at=ctx(2)).rows
        assert len(rows) == 1

    def test_count_star(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A'), (2, 'B')", at=ctx(1))
        rows = run(ex, "SELECT COUNT(*) FROM pages", at=ctx(2)).rows
        assert rows == [{"count": 2}]


class TestTimeTravelReads:
    def test_read_before_insert_sees_nothing(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A')", at=ctx(5))
        assert run(ex, "SELECT * FROM pages", at=ctx(4)).rows == []
        assert len(run(ex, "SELECT * FROM pages", at=ctx(5)).rows) == 1

    def test_read_sees_value_as_of_time(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'v1')", at=ctx(1))
        run(ex, "UPDATE pages SET body = 'v2' WHERE page_id = 1", at=ctx(10))
        assert run(ex, "SELECT body FROM pages", at=ctx(5)).rows[0]["body"] == "v1"
        assert run(ex, "SELECT body FROM pages", at=ctx(10)).rows[0]["body"] == "v2"
        assert run(ex, "SELECT body FROM pages", at=ctx(99)).rows[0]["body"] == "v2"

    def test_deleted_row_invisible_after_delete(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A')", at=ctx(1))
        run(ex, "DELETE FROM pages WHERE page_id = 1", at=ctx(5))
        assert run(ex, "SELECT * FROM pages", at=ctx(4)).rows != []
        assert run(ex, "SELECT * FROM pages", at=ctx(6)).rows == []

    def test_update_preserves_history_chain(self):
        db = make_db()
        ex = Executor(db)
        run(ex, "INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'v1')", at=ctx(1))
        run(ex, "UPDATE pages SET body = 'v2' WHERE page_id = 1", at=ctx(2))
        run(ex, "UPDATE pages SET body = 'v3' WHERE page_id = 1", at=ctx(3))
        versions = db.table("pages").row_versions(1)
        assert len(versions) == 3
        current = [v for v in versions if v.end_ts == INFINITY]
        assert len(current) == 1
        assert current[0].data["body"] == "v3"


class TestWriteResults:
    def test_update_reports_affected_row_ids(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A'), (2, 'A'), (3, 'B')", at=ctx(1))
        res = run(ex, "UPDATE pages SET body = 'x' WHERE title = 'A'", at=ctx(2))
        assert sorted(res.affected_row_ids) == [1, 2]
        assert res.rowcount == 2

    def test_written_partitions_cover_old_and_new_values(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'Old')", at=ctx(1))
        res = run(ex, "UPDATE pages SET title = 'New' WHERE page_id = 1", at=ctx(2))
        assert ("pages", "title", "Old") in res.written_partitions
        assert ("pages", "title", "New") in res.written_partitions

    def test_snapshot_equality_for_identical_selects(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A')", at=ctx(1))
        a = run(ex, "SELECT * FROM pages", at=ctx(2)).snapshot()
        b = run(ex, "SELECT * FROM pages", at=ctx(3)).snapshot()
        assert a == b

    def test_snapshot_differs_when_rows_differ(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A')", at=ctx(1))
        a = run(ex, "SELECT * FROM pages", at=ctx(2)).snapshot()
        run(ex, "UPDATE pages SET title = 'B' WHERE page_id = 1", at=ctx(3))
        b = run(ex, "SELECT * FROM pages", at=ctx(4)).snapshot()
        assert a != b


class TestUniqueness:
    def test_insert_unique_violation_fails_without_insert(self):
        ex = Executor(make_db(unique_keys=(("title",),)))
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A')", at=ctx(1))
        res = run(ex, "INSERT INTO pages (page_id, title) VALUES (2, 'A')", at=ctx(2))
        assert not res.ok
        assert "unique" in res.error
        assert len(run(ex, "SELECT * FROM pages", at=ctx(3)).rows) == 1

    def test_unique_allows_reuse_after_delete(self):
        # The paper's uniqueness trick: old versions must not block reuse (§6).
        ex = Executor(make_db(unique_keys=(("title",),)))
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A')", at=ctx(1))
        run(ex, "DELETE FROM pages WHERE page_id = 1", at=ctx(2))
        res = run(ex, "INSERT INTO pages (page_id, title) VALUES (2, 'A')", at=ctx(3))
        assert res.ok

    def test_batch_insert_checks_within_batch(self):
        ex = Executor(make_db(unique_keys=(("title",),)))
        res = run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A'), (2, 'A')", at=ctx(1))
        assert not res.ok

    def test_update_unique_violation(self):
        ex = Executor(make_db(unique_keys=(("title",),)))
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A'), (2, 'B')", at=ctx(1))
        res = run(ex, "UPDATE pages SET title = 'A' WHERE page_id = 2", at=ctx(2))
        assert not res.ok
        rows = run(ex, "SELECT title FROM pages WHERE page_id = 2", at=ctx(3)).rows
        assert rows[0]["title"] == "B"


class TestRepairGenerations:
    """§4.3/§4.4: repair writes in gen N+1 must not disturb gen N."""

    def test_repair_update_invisible_to_current_generation(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'orig')", at=ctx(1))
        # Repair rewrites the body at historical time 1 in generation 1.
        run(ex, "UPDATE pages SET body = 'fixed' WHERE page_id = 1",
            at=ctx(1, gen=1, current_gen=0, repair=True))
        live = run(ex, "SELECT body FROM pages", at=ctx(50, gen=0, current_gen=0)).rows
        assert live[0]["body"] == "orig"
        repaired = run(ex, "SELECT body FROM pages", at=ctx(50, gen=1, current_gen=0)).rows
        assert repaired[0]["body"] == "fixed"

    def test_repair_insert_invisible_to_current_generation(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (9, 'New')",
            at=ctx(5, gen=1, current_gen=0, repair=True))
        assert run(ex, "SELECT * FROM pages", at=ctx(50, gen=0, current_gen=0)).rows == []
        assert len(run(ex, "SELECT * FROM pages", at=ctx(50, gen=1, current_gen=0)).rows) == 1

    def test_repair_delete_preserves_current_generation(self):
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A')", at=ctx(1))
        run(ex, "DELETE FROM pages WHERE page_id = 1",
            at=ctx(1, gen=1, current_gen=0, repair=True))
        assert len(run(ex, "SELECT * FROM pages", at=ctx(50, gen=0, current_gen=0)).rows) == 1
        assert run(ex, "SELECT * FROM pages", at=ctx(50, gen=1, current_gen=0)).rows == []

    def test_normal_writes_flow_into_next_generation_verbatim(self):
        # Rows untouched by repair are "copied verbatim" into the next gen.
        ex = Executor(make_db())
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A')", at=ctx(10, gen=0))
        rows = run(ex, "SELECT * FROM pages", at=ctx(50, gen=1, current_gen=0)).rows
        assert len(rows) == 1


class TestPlainMode:
    """The "No WARP" baseline: in-place updates, no version history."""

    def test_update_in_place(self):
        db = make_db()
        ex = Executor(db, versioned=False)
        run(ex, "INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'v1')", at=ctx(1))
        run(ex, "UPDATE pages SET body = 'v2' WHERE page_id = 1", at=ctx(2))
        assert len(db.table("pages").row_versions(1)) == 1
        assert run(ex, "SELECT body FROM pages", at=ctx(0)).rows[0]["body"] == "v2"

    def test_delete_removes_version(self):
        db = make_db()
        ex = Executor(db, versioned=False)
        run(ex, "INSERT INTO pages (page_id, title) VALUES (1, 'A')", at=ctx(1))
        run(ex, "DELETE FROM pages WHERE page_id = 1", at=ctx(2))
        assert db.table("pages").version_count == 0
