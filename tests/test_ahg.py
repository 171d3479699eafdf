"""Unit tests for the action history graph: indexes, lookups, GC."""

import dataclasses

import pytest

from repro.ahg.graph import ActionHistoryGraph
from repro.ahg.records import AppRunRecord, QueryRecord, VisitRecord
from repro.http.message import HttpRequest, HttpResponse
from repro.ttdb.partitions import ReadSet
from repro.warp import WarpSystem


def make_run(run_id, ts, files=None, client=None, visit=None, request_id=None):
    return AppRunRecord(
        run_id=run_id,
        ts_start=ts,
        ts_end=ts + 1,
        script="page.php",
        loaded_files=files or {"page.php": 0},
        request=HttpRequest("GET", "/page.php"),
        response=HttpResponse(body="x"),
        client_id=client,
        visit_id=visit,
        request_id=request_id,
    )


def make_query(qid, run_id, ts, table="pages", reads=None, writes=(), all_reads=False):
    if all_reads:
        read_set = ReadSet(table, disjuncts=None)
    else:
        read_set = ReadSet(
            table,
            disjuncts=tuple(frozenset({("title", r)}) for r in (reads or [])),
        )
    return QueryRecord(
        qid=qid,
        run_id=run_id,
        seq=0,
        ts=ts,
        sql="SELECT 1",
        params=(),
        kind="update" if writes else "select",
        table=table,
        read_set=read_set,
        written_row_ids=tuple(("pages", w) for w in writes),
        written_partitions=frozenset(("pages", "title", f"t{w}") for w in writes),
        full_table_write=False,
        snapshot=("select", True, ()),
    )


class TestRunLookups:
    def test_runs_loading_file(self):
        graph = ActionHistoryGraph()
        graph.add_run(make_run(1, 10, files={"a.php": 0}))
        graph.add_run(make_run(2, 20, files={"b.php": 0}))
        graph.add_run(make_run(3, 30, files={"a.php": 0, "b.php": 0}))
        runs = graph.runs_loading_file("a.php", since_ts=0)
        assert [r.run_id for r in runs] == [1, 3]

    def test_runs_loading_file_respects_since(self):
        graph = ActionHistoryGraph()
        graph.add_run(make_run(1, 10, files={"a.php": 0}))
        graph.add_run(make_run(2, 30, files={"a.php": 0}))
        assert [r.run_id for r in graph.runs_loading_file("a.php", 20)] == [2]

    def test_request_correlation(self):
        graph = ActionHistoryGraph()
        graph.add_run(make_run(7, 10, client="c1", visit=2, request_id=1))
        found = graph.run_for_request("c1", 2, 1)
        assert found.run_id == 7
        assert graph.run_for_request("c1", 2, 9) is None

    def test_runs_of_visit_ordered(self):
        graph = ActionHistoryGraph()
        graph.add_run(make_run(1, 10, client="c1", visit=5, request_id=1))
        graph.add_run(make_run(2, 20, client="c1", visit=5, request_id=2))
        graph.add_run(make_run(3, 15, client="c1", visit=6, request_id=1))
        assert [r.run_id for r in graph.runs_of_visit("c1", 5)] == [1, 2]


class TestVisitTracking:
    def test_client_visits_in_order(self):
        graph = ActionHistoryGraph()
        for visit_id in (1, 2, 3):
            graph.add_visit(
                VisitRecord("c1", visit_id, ts=visit_id * 10, url="/x")
            )
        assert [v.visit_id for v in graph.client_visits("c1")] == [1, 2, 3]

    def test_visit_of_run(self):
        graph = ActionHistoryGraph()
        graph.add_visit(VisitRecord("c1", 4, ts=5, url="/x"))
        run = make_run(1, 10, client="c1", visit=4, request_id=1)
        graph.add_run(run)
        assert graph.visit_of_run(run).visit_id == 4

    def test_visit_of_run_without_browser(self):
        graph = ActionHistoryGraph()
        run = make_run(1, 10)
        graph.add_run(run)
        assert graph.visit_of_run(run) is None


class TestQueryIndex:
    def test_queries_touching_by_key(self):
        graph = ActionHistoryGraph()
        run = make_run(1, 10)
        run.queries = [
            make_query(1, 1, 11, reads=["A"]),
            make_query(2, 1, 12, reads=["B"]),
        ]
        graph.add_run(run)
        hits = graph.queries_touching("pages", {("pages", "title", "A")}, since_ts=0)
        assert [q.qid for q in hits] == [1]

    def test_queries_touching_respects_since_ts(self):
        graph = ActionHistoryGraph()
        run = make_run(1, 10)
        run.queries = [make_query(1, 1, 11, reads=["A"]), make_query(2, 1, 50, reads=["A"])]
        graph.add_run(run)
        hits = graph.queries_touching("pages", {("pages", "title", "A")}, since_ts=20)
        assert [q.qid for q in hits] == [2]

    def test_all_readers_always_candidates(self):
        graph = ActionHistoryGraph()
        run = make_run(1, 10)
        run.queries = [make_query(1, 1, 11, all_reads=True)]
        graph.add_run(run)
        hits = graph.queries_touching("pages", {("pages", "title", "Z")}, since_ts=0)
        assert [q.qid for q in hits] == [1]

    def test_writers_indexed_under_written_partitions(self):
        graph = ActionHistoryGraph()
        run = make_run(1, 10)
        run.queries = [make_query(1, 1, 11, writes=(3,))]
        graph.add_run(run)
        hits = graph.queries_touching("pages", {("pages", "title", "t3")}, since_ts=0)
        assert [q.qid for q in hits] == [1]

    def test_whole_table_scan(self):
        graph = ActionHistoryGraph()
        run = make_run(1, 10)
        run.queries = [make_query(1, 1, 11, reads=["A"]), make_query(2, 1, 12, reads=["B"])]
        graph.add_run(run)
        hits = graph.queries_touching("pages", set(), since_ts=0, whole_table=True)
        assert len(hits) == 2

    def test_runs_added_after_index_build_are_indexed(self):
        graph = ActionHistoryGraph()
        first = make_run(1, 10)
        first.queries = [make_query(1, 1, 11, reads=["A"])]
        graph.add_run(first)
        graph.queries_touching("pages", {("pages", "title", "A")}, 0)  # builds
        second = make_run(2, 20)
        second.queries = [make_query(2, 2, 21, reads=["A"])]
        graph.add_run(second)
        hits = graph.queries_touching("pages", {("pages", "title", "A")}, 0)
        assert [q.qid for q in hits] == [1, 2]

    def test_lookup_builds_only_its_keys_buckets(self):
        """A lookup for K builds K's bucket and its table's ALL bucket, from
        the runs the TouchIndex lists for K — no other run is looked at."""
        graph = ActionHistoryGraph()
        store = graph.store
        ts = 10
        for run_id in range(1, 41):
            run = make_run(run_id, ts)
            title = "A" if run_id % 10 == 0 else f"p{run_id}"
            run.queries = [
                make_query(2 * run_id, run_id, ts + 1, reads=[title]),
                make_query(2 * run_id + 1, run_id, ts + 2, table="users", all_reads=True),
            ]
            graph.add_run(run)
            ts += 10
        key = ("pages", "title", "A")
        hits = graph.queries_touching("pages", {key}, since_ts=0)
        assert [q.run_id for q in hits] == [10, 20, 30, 40]
        assert set(store._buckets) == {key, ("pages",)}
        assert store._buckets[("pages",)] == []
        touchers = store.touch.touchers_of_key(key)
        assert touchers == {10, 20, 30, 40}
        assert store.index_build_queries == sum(
            len(store.runs[run_id].queries) for run_id in touchers
        )
        # A second lookup of the same key builds nothing.
        graph.queries_touching("pages", {key}, since_ts=0)
        assert store.index_build_queries == 8

    def test_select_flagged_full_table_write_is_in_the_all_bucket(self):
        """The TouchIndex and the buckets derive a query's keys alike: a
        non-write flagged ``full_table_write`` is a candidate for every key
        of its table, whether its bucket was built before or after it."""
        graph = ActionHistoryGraph()
        flagged = dataclasses.replace(
            make_query(1, 1, 11, reads=["B"]), full_table_write=True
        )
        run = make_run(1, 10)
        run.queries = [flagged]
        graph.add_run(run)
        assert graph.touch.full_writers_of_table("pages") == {1}
        hits = graph.queries_touching("pages", {("pages", "title", "A")}, 0)
        assert [q.qid for q in hits] == [1]

    def test_graph_load_time_accounted(self):
        graph = ActionHistoryGraph()
        run = make_run(1, 10)
        run.queries = [make_query(1, 1, 11, reads=["A"])]
        graph.add_run(run)
        assert graph.graph_load_seconds == 0.0
        graph.queries_touching("pages", {("pages", "title", "A")}, 0)
        assert graph.graph_load_seconds > 0.0


class TestGc:
    def test_gc_drops_old_runs_and_visits(self):
        warp = WarpSystem()
        graph = warp.graph
        graph.add_visit(VisitRecord("c1", 1, ts=5, url="/x"))
        graph.add_run(make_run(1, 5, files={"a.php": 0}, client="c1", visit=1, request_id=1))
        graph.add_run(make_run(2, 100, client="c1", visit=2, request_id=1))
        graph.add_visit(VisitRecord("c1", 2, ts=100, url="/y"))
        removed = warp.retain(horizon_ts=50)
        assert removed >= 2
        assert 1 not in graph.runs
        assert 2 in graph.runs
        assert ("c1", 1) not in graph.visits
        assert ("c1", 2) in graph.visits
        # What was dropped is kept, for the refusal at the horizon.
        store = graph.store
        assert store.horizon_ts == 50
        assert store.trimmed_clients == {"c1": 2}
        assert store.dropped_files == {"a.php"}

    def test_gc_rebuilds_indexes(self):
        warp = WarpSystem()
        graph = warp.graph
        old = make_run(1, 5)
        old.queries = [make_query(1, 1, 6, reads=["A"])]
        graph.add_run(old)
        graph.queries_touching("pages", {("pages", "title", "A")}, 0)
        warp.retain(horizon_ts=50)
        hits = graph.queries_touching("pages", {("pages", "title", "A")}, 0)
        assert hits == []

    def test_counters(self):
        graph = ActionHistoryGraph()
        run = make_run(1, 10)
        run.queries = [make_query(1, 1, 11), make_query(2, 1, 12)]
        graph.add_run(run)
        graph.add_visit(VisitRecord("c1", 1, ts=5, url="/x"))
        assert graph.n_runs == 1
        assert graph.n_queries == 2
        assert graph.n_visits == 1
