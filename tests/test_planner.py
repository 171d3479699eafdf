"""Unit tests for the query planner layer: plan caching and invalidation,
compiled predicates, index access paths, read-set templates, the bounded
value index, and the O(footprint) repair-abort journal."""

import pytest

from repro.core.clock import INFINITY, LogicalClock
from repro.core.errors import SqlError
from repro.db.engine import create_database
from repro.db.executor import ExecContext, Executor
from repro.db.sql.compile import compile_expr, compile_predicate
from repro.db.sql.parser import parse
from repro.db.storage import Column, Database, TableSchema
from repro.ttdb.partitions import ReadSetPlan, read_partitions
from repro.ttdb.timetravel import TimeTravelDB

from naive_executor import evaluate, truthy, use_naive_executor


def pages_schema(**overrides):
    defaults = dict(
        name="pages",
        columns=(
            Column("page_id", "int"),
            Column("title"),
            Column("body"),
            Column("score", "int"),
        ),
        row_id_column="page_id",
        partition_columns=("title",),
        unique_keys=(),
    )
    defaults.update(overrides)
    return TableSchema(**defaults)


def make_ttdb(schema=None):
    tt = TimeTravelDB(Database(), LogicalClock())
    tt.create_table(schema or pages_schema())
    return tt


def ctx(ts, gen=0):
    return ExecContext(ts=ts, gen=gen, current_gen=gen)


# -- plan cache ---------------------------------------------------------------


class TestPlanCache:
    def test_plan_reused_across_executions(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title) VALUES (1, 'A')")
        tt.execute("SELECT * FROM pages WHERE title = ?", ("A",))
        plan_one = tt.executor._plan_cache["SELECT * FROM pages WHERE title = ?"]
        tt.execute("SELECT * FROM pages WHERE title = ?", ("B",))
        plan_two = tt.executor._plan_cache["SELECT * FROM pages WHERE title = ?"]
        assert plan_one is plan_two

    def test_plan_invalidated_by_ddl(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title) VALUES (1, 'A')")
        tt.execute("SELECT * FROM pages WHERE title = 'A'")
        stale = tt.executor._plan_cache["SELECT * FROM pages WHERE title = 'A'"]
        tt.create_table(pages_schema(name="other"))
        tt.execute("SELECT * FROM pages WHERE title = 'A'")
        fresh = tt.executor._plan_cache["SELECT * FROM pages WHERE title = 'A'"]
        assert fresh is not stale
        assert fresh.epoch == tt.database.ddl_epoch

    def test_plan_invalidated_by_restore(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title) VALUES (1, 'A')")
        tt.execute("SELECT * FROM pages WHERE title = 'A'")
        epoch_before = tt.database.ddl_epoch
        tt.database.restore(tt.database.to_dict())
        assert tt.database.ddl_epoch > epoch_before
        res = tt.execute("SELECT title FROM pages WHERE title = 'A'")
        assert res.rows == [{"title": "A"}]

    def test_plan_cache_bounded(self):
        from repro.db import executor as executor_module

        tt = make_ttdb()
        old_max = executor_module._PLAN_CACHE_MAX
        executor_module._PLAN_CACHE_MAX = 8
        try:
            for index in range(30):
                tt.execute(f"SELECT * FROM pages WHERE title = 'u{index}'")
            assert len(tt.executor._plan_cache) <= 8
        finally:
            executor_module._PLAN_CACHE_MAX = old_max

    def test_plan_keyed_by_statement_text_only(self):
        db = Database()
        db.create_table(pages_schema())
        ex = Executor(db)
        sql = "SELECT * FROM pages WHERE title = 'A'"
        plan = ex.prepare(sql)
        ex.execute(plan, (), ctx(1))
        assert ex.prepare(sql) is plan
        assert list(ex._plan_cache) == [sql]


# -- compiled expressions ------------------------------------------------------


TRICKY_EXPRESSIONS = [
    ("title = 'A'", {"title": "A"}, ()),
    ("title = 'A'", {"title": None}, ()),
    ("score + 1 > ?", {"score": 3}, (3,)),
    ("score / 0 IS NULL", {"score": 3}, ()),
    ("score % 0 IS NULL", {"score": 3}, ()),
    ("NOT (title = 'A' OR score > 2)", {"title": "B", "score": 1}, ()),
    ("title IS NOT NULL AND score IS NULL", {"title": "A", "score": None}, ()),
    ("title IN ('A', NULL)", {"title": "B"}, ()),
    ("title NOT IN ('A', NULL)", {"title": "B"}, ()),
    ("title LIKE 'a%b'", {"title": "aXXb"}, ()),
    ("title LIKE ?", {"title": "a_b"}, ("a!_b",)),
    ("score BETWEEN 1 AND ?", {"score": 2}, (5,)),
    ("LOWER(title) = 'a'", {"title": "A"}, ()),
    ("COALESCE(body, title) = 'A'", {"body": None, "title": "A"}, ()),
    ("LENGTH(title) = 3", {"title": "abc"}, ()),
    ("SUBSTR(title, 2, 2) = 'bc'", {"title": "abcd"}, ()),
    ("title || body = 'ab'", {"title": "a", "body": "b"}, ()),
    ("-score = -4", {"score": 4}, ()),
    ("score = NULL", {"score": None}, ()),
]


class TestCompiledExpressions:
    @pytest.mark.parametrize("sql_where,row,params", TRICKY_EXPRESSIONS)
    def test_compiled_matches_tree_walk(self, sql_where, row, params):
        stmt = parse(f"SELECT * FROM pages WHERE {sql_where}")
        compiled = compile_expr(stmt.where)
        assert compiled(row, params) == evaluate(stmt.where, row, params)
        predicate = compile_predicate(stmt.where)
        assert predicate(row, params) == truthy(evaluate(stmt.where, row, params))

    def test_compiled_error_parity_unknown_column(self):
        stmt = parse("SELECT * FROM pages WHERE nosuch = 1")
        compiled = compile_expr(stmt.where)
        with pytest.raises(SqlError):
            compiled({"title": "A"}, ())
        with pytest.raises(SqlError):
            evaluate(stmt.where, {"title": "A"}, ())

    def test_compiled_error_parity_missing_param(self):
        stmt = parse("SELECT * FROM pages WHERE title = ?")
        compiled = compile_expr(stmt.where)
        with pytest.raises(SqlError):
            compiled({"title": "A"}, ())

    def test_compiled_error_parity_type_mismatch(self):
        stmt = parse("SELECT * FROM pages WHERE score > 'x'")
        compiled = compile_expr(stmt.where)
        with pytest.raises(SqlError):
            compiled({"score": 3}, ())


# -- access paths --------------------------------------------------------------


class TestAccessPaths:
    def test_equality_probe_planned(self):
        tt = make_ttdb()
        for index in range(20):
            tt.execute(
                "INSERT INTO pages (page_id, title, score) VALUES (?, ?, ?)",
                (index + 1, f"T{index % 5}", index),
            )
        plan = tt.executor.prepare("SELECT * FROM pages WHERE title = ?")
        assert [column for column, _ in plan.eq_probes] == ["title"]
        res = tt.execute("SELECT page_id FROM pages WHERE title = ?", ("T2",))
        assert sorted(r["page_id"] for r in res.rows) == [3, 8, 13, 18]

    def test_range_probe_uses_ordered_index(self):
        tt = make_ttdb(pages_schema(partition_columns=("title", "score")))
        for index in range(20):
            tt.execute(
                "INSERT INTO pages (page_id, title, score) VALUES (?, ?, ?)",
                (index + 1, f"T{index}", index),
            )
        plan = tt.executor.prepare(
            "SELECT * FROM pages WHERE score >= 5 AND score < 8"
        )
        assert [probe[0] for probe in plan.range_probes] == ["score"]
        res = tt.execute("SELECT page_id FROM pages WHERE score >= 5 AND score < 8")
        assert sorted(r["page_id"] for r in res.rows) == [6, 7, 8]

    @pytest.mark.parametrize("backend", ["python", "sqlite"])
    def test_range_scan_refused_on_mixed_type_column(self, backend):
        # A range over a column holding an int and a string ends as the
        # scanning oracle's does: the same rows, or the same error type.
        def outcome(tt):
            tt.execute("INSERT INTO pages (page_id, title, score) VALUES (1, 'A', 5)")
            tt.execute(
                "INSERT INTO pages (page_id, title, score) VALUES (2, 'B', 'oops')"
            )
            try:
                return tt.execute("SELECT page_id FROM pages WHERE score < 9").rows
            except Exception as exc:
                return type(exc)

        def fresh():
            tt = TimeTravelDB(create_database(backend), LogicalClock())
            tt.create_table(pages_schema(partition_columns=("title", "score")))
            return tt

        assert outcome(fresh()) == outcome(use_naive_executor(fresh()))

    def test_order_by_index_parity_with_limit(self):
        tt = make_ttdb()
        naive = use_naive_executor(make_ttdb())
        for db in (tt, naive):
            for index in range(30):
                db.execute(
                    "INSERT INTO pages (page_id, title, score) VALUES (?, ?, ?)",
                    (index + 1, f"T{index % 7}", index % 4),
                )
        for sql in (
            "SELECT page_id, title FROM pages ORDER BY title",
            "SELECT page_id, title FROM pages ORDER BY title DESC",
            "SELECT page_id, title FROM pages ORDER BY title LIMIT 5",
            "SELECT title FROM pages WHERE score = 2 ORDER BY title DESC LIMIT 3",
        ):
            assert tt.execute(sql).rows == naive.execute(sql).rows, sql

    def test_order_by_sorts_rows_inserted_out_of_order_after_a_delete(self):
        tt = make_ttdb()
        # Row ids follow insertion, not title order: only the ORDER BY
        # sort can put these back in order.
        for page_id, index in enumerate((4, 1, 5, 0, 3, 2), start=1):
            tt.execute(
                "INSERT INTO pages (page_id, title) VALUES (?, ?)",
                (page_id, f"T{index}"),
            )
        tt.execute("DELETE FROM pages WHERE title = 'T3'")
        rows = tt.execute("SELECT title FROM pages ORDER BY title").rows
        assert [r["title"] for r in rows] == ["T0", "T1", "T2", "T4", "T5"]


# -- read-set templates --------------------------------------------------------


class TestReadSetTemplates:
    def check(self, sql, params, schema=None):
        schema = schema or pages_schema()
        stmt = parse(sql)
        templated = ReadSetPlan(stmt, schema).instantiate(params)
        reference = read_partitions(stmt, params, schema)
        assert templated.to_dict() == reference.to_dict(), sql

    def test_const_shapes(self):
        self.check("SELECT * FROM pages", ())
        self.check("SELECT * FROM pages WHERE title = 'A'", ())
        self.check("INSERT INTO pages (page_id) VALUES (1)", ())
        self.check("SELECT * FROM pages WHERE LENGTH(body) > 3", ())

    def test_templated_params(self):
        schema = pages_schema(partition_columns=("title", "score"))
        sql = "SELECT * FROM pages WHERE title = ? AND score = ?"
        stmt = parse(sql)
        template = ReadSetPlan(stmt, schema)
        for params in (("A", 1), ("B", 2), ("B", None)):
            got = template.instantiate(params)
            assert got.to_dict() == read_partitions(stmt, params, schema).to_dict()
        sql_in = "SELECT * FROM pages WHERE title IN (?, ?, 'C')"
        stmt_in = parse(sql_in)
        template_in = ReadSetPlan(stmt_in, schema)
        for params in (("A", "B"), ("A", "A")):
            got = template_in.instantiate(params)
            assert (
                got.to_dict() == read_partitions(stmt_in, params, schema).to_dict()
            )

    def test_duplicate_param_columns_fall_back_to_dynamic(self):
        # title = ?0 AND title = ?1: the merged disjunct survives only when
        # the runtime values are equal — value-dependent, so the template
        # must not be trusted.
        sql = "SELECT * FROM pages WHERE title = ? AND title = ?"
        stmt = parse(sql)
        schema = pages_schema()
        template = ReadSetPlan(stmt, schema)
        for params in (("A", "A"), ("A", "B")):
            got = template.instantiate(params)
            assert got.to_dict() == read_partitions(stmt, params, schema).to_dict()
        assert template.mode == "dynamic"

    def test_missing_params_fall_back(self):
        sql = "SELECT * FROM pages WHERE title = ?"
        stmt = parse(sql)
        schema = pages_schema()
        got = ReadSetPlan(stmt, schema).instantiate(())
        assert got.to_dict() == read_partitions(stmt, (), schema).to_dict()

    def test_epoch_rebuilds_plan_and_template_together(self):
        """One invalidation: a schema change (``ddl_epoch`` bump) makes the
        next execution rebuild the plan *and* its read-set template, and
        the rebuilt template still agrees with the per-execution walk."""
        tt = make_ttdb()
        sql = "SELECT * FROM pages WHERE title = ?"
        tt.execute(sql, ("A",))
        first = tt.prepare(sql)
        assert tt.prepare(sql) is first and first.read_plan is not None
        tt.create_table(pages_schema(name="other"))
        result = tt.execute(sql, ("B",))
        second = tt.prepare(sql)
        assert second is not first
        assert second.read_plan is not first.read_plan
        assert second.epoch == tt.database.ddl_epoch
        reference = read_partitions(parse(sql), ("B",), tt.schema("pages"))
        assert result.read_set.to_dict() == reference.to_dict()


# -- the prepared statement ------------------------------------------------------


def test_each_statement_text_is_prepared_once(monkeypatch, statement_analyses):
    """Prepared once: while a wiki deployment serves a mixed read/write
    stream and then repairs it, plans built and read-set templates
    constructed each equal the number of distinct statement texts — the
    plan cache is the only thing keyed by SQL text — and re-executing a
    recorded write prepares nothing."""
    from repro.repair.api import CancelClientSpec
    from repro.workload.scenarios import run_multi_tenant_scenario

    texts = set()
    write_reexecs = []
    prepare = Executor.prepare
    matching_row_ids = TimeTravelDB.matching_row_ids

    def noting_prepare(self, sql):
        texts.add(sql)
        return prepare(self, sql)

    def counted_matching(self, sql, *args):
        write_reexecs.append(sql)
        return matching_row_ids(self, sql, *args)

    def prepared():
        return [statement_analyses.count(kind) for kind in ("plan", "template")]

    monkeypatch.setattr(Executor, "prepare", noting_prepare)
    monkeypatch.setattr(TimeTravelDB, "matching_row_ids", counted_matching)

    outcome = run_multi_tenant_scenario(
        n_tenants=3, users_per_tenant=2, attacked_tenants=1, seed=3
    )
    kinds = {
        query.kind
        for run in outcome.warp.graph.runs.values()
        for query in run.queries
    }
    assert {"select", "insert", "update"} <= kinds
    served = len(texts)
    assert served > 1
    assert prepared() == [served, served]

    result = outcome.warp.repair.submit(
        CancelClientSpec(outcome.attacker_client)
    ).result()
    assert result.ok and result.stats.queries_reexecuted > 0
    assert write_reexecs
    assert len(texts) == served
    assert prepared() == [served, served]


# -- bounded value index -------------------------------------------------------


class TestValueIndexPurge:
    def test_gc_purges_stale_index_entries(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title) VALUES (1, 'v0')")
        for index in range(1, 50):
            tt.execute(
                "UPDATE pages SET title = ? WHERE page_id = 1", (f"v{index}",)
            )
        table = tt.database.table("pages")
        assert len(table._value_index["title"]) == 50
        tt.gc(tt.clock.now() + 1)
        assert set(table._value_index["title"]) == {"v49"}
        # The purged index still answers correctly.
        assert tt.execute("SELECT title FROM pages").rows == [{"title": "v49"}]
        assert tt.execute("SELECT * FROM pages WHERE title = 'v0'").rows == []

    def test_delete_purges_index_under_churn(self):
        tt = make_ttdb()
        for index in range(40):
            tt.execute(
                "INSERT INTO pages (page_id, title) VALUES (?, ?)",
                (index + 1, f"T{index}"),
            )
            tt.execute("DELETE FROM pages WHERE page_id = ?", (index + 1,))
        tt.gc(tt.clock.now() + 1)
        table = tt.database.table("pages")
        # One surviving (tombstone) version per row remains indexed; the
        # index is bounded by retained versions, not by all history.
        assert len(table._value_index["title"]) <= 40
        for bucket in table._value_index["title"].values():
            assert len(bucket) == 1

    def test_plain_mode_update_reindexes(self):
        db = Database()
        db.create_table(pages_schema())
        ex = Executor(db, versioned=False)
        ex.execute(
            ex.prepare("INSERT INTO pages (page_id, title) VALUES (1, 'old')"),
            (),
            ctx(1),
        )
        ex.execute(
            ex.prepare("UPDATE pages SET title = 'new' WHERE page_id = 1"), (), ctx(2)
        )
        table = db.table("pages")
        assert table.candidate_row_ids("title", "new") == {1}
        assert table.candidate_row_ids("title", "old") == set()
        res = ex.execute(
            ex.prepare("SELECT page_id FROM pages WHERE title = 'new'"), (), ctx(3)
        )
        assert res.rows == [{"page_id": 1}]


# -- O(footprint) abort --------------------------------------------------------


class TestJournaledAbort:
    def test_abort_uses_journal(self):
        tt = make_ttdb()
        first = tt.execute(
            "INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'v1')"
        )
        tt.execute("UPDATE pages SET body = 'v2' WHERE page_id = 1")
        before = {
            (v.row_id, v.start_ts, v.end_ts, v.start_gen, v.end_gen, tuple(v.data.items()))
            for v in tt.database.table("pages").all_versions()
        }
        tt.begin_repair()
        assert tt._journal is not None
        tt.rollback_row("pages", 1, first.ts + 1)
        tt.execute_at(
            "UPDATE pages SET body = 'repaired' WHERE page_id = 1", (), ts=first.ts + 1
        )
        tt.execute_at("INSERT INTO pages (page_id, title) VALUES (9, 'new')", (), ts=2)
        assert tt._journal.created and tt._journal.fenced
        tt.abort_repair()
        after = {
            (v.row_id, v.start_ts, v.end_ts, v.start_gen, v.end_gen, tuple(v.data.items()))
            for v in tt.database.table("pages").all_versions()
        }
        assert after == before
        assert tt._journal is None

    def test_journal_matches_full_scan_abort(self):
        def scenario(tt):
            a = tt.execute("INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'x')")
            tt.execute("INSERT INTO pages (page_id, title, body) VALUES (2, 'B', 'y')")
            tt.execute("UPDATE pages SET body = 'x2' WHERE page_id = 1")
            tt.begin_repair()
            tt.rollback_row("pages", 1, a.ts + 1)
            tt.execute_at("DELETE FROM pages WHERE page_id = 2", (), ts=a.ts + 1)
            tt.execute_at("UPDATE pages SET body = 'fix' WHERE page_id = 1", (), ts=a.ts + 2)

        journaled = make_ttdb()
        scenario(journaled)
        journaled.abort_repair()

        # The reference abort: scan every version of every table, drop
        # what the repair generation created, re-extend what it fenced.
        scanned = make_ttdb()
        scenario(scanned)
        for table in scanned.database.tables.values():
            for version in list(table.all_versions()):
                if version.start_gen >= scanned.repair_gen:
                    table.remove_version(version)
                else:
                    table.unfence_version(version, scanned.current_gen)

        def dump(tt):
            return sorted(
                (v.row_id, v.start_ts, v.end_ts, v.start_gen, v.end_gen,
                 tuple(sorted(v.data.items())))
                for v in tt.database.table("pages").all_versions()
            )

        assert dump(journaled) == dump(scanned)

    def test_live_traffic_during_repair_survives_abort(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title) VALUES (1, 'A')")
        tt.begin_repair()
        tt.execute("INSERT INTO pages (page_id, title) VALUES (2, 'live')")
        tt.execute_at("UPDATE pages SET title = 'redone' WHERE page_id = 1", (), ts=1)
        tt.abort_repair()
        rows = tt.execute("SELECT title FROM pages ORDER BY title").rows
        assert [r["title"] for r in rows] == ["A", "live"]


# -- RepairQueryRunner._find ---------------------------------------------------


class TestFindIndex:
    def make_runner(self, sqls):
        from repro.ahg.records import AppRunRecord, QueryRecord
        from repro.http.message import HttpRequest, HttpResponse
        from repro.repair.controller import RepairQueryRunner
        from repro.ttdb.partitions import ReadSet

        queries = [
            QueryRecord(
                qid=index,
                run_id=1,
                seq=index,
                ts=index + 10,
                sql=sql,
                params=(),
                kind="select",
                table="pages",
                read_set=ReadSet("pages", disjuncts=None),
                snapshot=(),
                written_row_ids=(),
                written_partitions=(),
                full_table_write=False,
            )
            for index, sql in enumerate(sqls)
        ]
        run = AppRunRecord(
            run_id=1,
            ts_start=1,
            ts_end=99,
            script="s",
            loaded_files={},
            request=HttpRequest(method="GET", path="/"),
            response=HttpResponse(),
            queries=queries,
        )

        class StubController:
            pass

        return RepairQueryRunner(StubController(), run)

    def test_find_matches_in_order_with_duplicates(self):
        runner = self.make_runner(["A", "B", "A", "C", "A"])
        assert runner._find("A") == 0
        runner._cursor = 1
        assert runner._find("A") == 2
        runner._cursor = 3
        assert runner._find("A") == 4
        runner._cursor = 5
        assert runner._find("A") is None

    def test_find_wraparound_picks_earliest_unmatched(self):
        runner = self.make_runner(["A", "B", "A"])
        runner._cursor = 99
        assert runner._find("A") == 0  # wraparound: earliest unmatched
        assert runner._find("A") == 2
        assert runner._find("A") is None

    def test_find_mirrors_seed_linear_scan(self):
        import random

        rng = random.Random(7)
        sqls = [rng.choice("ABCD") for _ in range(40)]
        runner = self.make_runner(sqls)

        matched = [False] * len(sqls)

        def seed_find(cursor, sql):
            for index in range(cursor, len(sqls)):
                if not matched[index] and sqls[index] == sql:
                    return index
            for index in range(0, cursor):
                if not matched[index] and sqls[index] == sql:
                    return index
            return None

        cursor = 0
        for _ in range(60):
            sql = rng.choice("ABCDE")
            expected = seed_find(cursor, sql)
            got = runner._find(sql)
            assert got == expected, (sql, cursor)
            if got is not None:
                matched[got] = True
                cursor = got + 1
                runner._cursor = cursor


# -- fast visibility paths -----------------------------------------------------


class TestVisibilityFastPaths:
    def test_visible_version_bisects_deep_chains(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'v0')")
        stamps = []
        for index in range(100):
            res = tt.execute(
                "UPDATE pages SET body = ? WHERE page_id = 1", (f"v{index + 1}",)
            )
            stamps.append(res.ts)
        table = tt.database.table("pages")
        # Historical reads land on the right version.
        for probe in (0, 25, 50, 99):
            version = table.visible_version(1, stamps[probe], 0)
            assert version.data["body"] == f"v{probe + 1}"
        # Current read takes the live-map path.
        now = tt.clock.now() + 5
        assert table.visible_version(1, now, 0).data["body"] == "v100"

    def test_live_map_stays_exact_through_repair_cycle(self):
        tt = make_ttdb()
        first = tt.execute("INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'x')")
        tt.begin_repair()
        tt.execute_at("UPDATE pages SET body = 'fixed' WHERE page_id = 1", (), ts=first.ts + 1)
        tt.finalize_repair()
        table = tt.database.table("pages")
        open_versions = [v for v in table.all_versions() if v.end_ts == INFINITY]
        live = [v for vs in table._live.values() for v in vs]
        assert sorted(id(v) for v in open_versions) == sorted(id(v) for v in live)
        assert tt.execute("SELECT body FROM pages").one()["body"] == "fixed"
